//! The node side of the cluster: accept one coordinator session and run
//! local reductions over the assigned shard.
//!
//! A node is deliberately thin: all parallelism inside the node is the
//! existing shared-memory [`freeride::Engine`] (persistent pool,
//! `run_file` shard streaming); the agent only speaks the wire protocol
//! around it. [`serve`] is the one entry point for listening agents
//! (sessions, stragglers and fault injection are all [`NodeOpts`]);
//! [`join`] is its dial-out twin for mid-job joiners.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use freeride::{Engine, JobConfig, RObjLayout};
use obs::{AttrValue, Recorder, TraceLevel};

use crate::error::DistError;
use crate::proto::{read_message, write_message, Message};
use crate::tasks;

/// Per-job context built from a [`Message::Job`].
struct JobContext {
    task: String,
    params: Vec<i64>,
    backend: freeride::KernelBackend,
    layout: Arc<RObjLayout>,
    file: freeride::source::FileDataset,
    engine: Engine,
    recorder: Arc<Recorder>,
    /// Push a `Stats` frame after every Nth `RoundEnd` (0 = off).
    stats_every: u32,
    /// Rounds completed so far (drives the periodic `Stats` cadence and
    /// the leave/die fault-injection triggers).
    rounds_handled: u32,
}

fn trace_level_from_ordinal(b: u8) -> TraceLevel {
    match b {
        0 => TraceLevel::Off,
        1 => TraceLevel::Phases,
        2 => TraceLevel::Splits,
        _ => TraceLevel::Verbose,
    }
}

/// The ordinal shipped in [`Message::Job::trace_level`].
pub fn trace_level_ordinal(level: TraceLevel) -> u8 {
    match level {
        TraceLevel::Off => 0,
        TraceLevel::Phases => 1,
        TraceLevel::Splits => 2,
        TraceLevel::Verbose => 3,
    }
}

fn build_job(msg: Message) -> Result<JobContext, DistError> {
    let Message::Job {
        task,
        params,
        layout,
        dataset,
        threads,
        trace_level,
        io_mode,
        chunk_rows,
        buffers,
        readers,
        stats_every,
        backend,
        scheme,
        scheme_stripes,
        scheme_cells,
        scheme_mask,
        splitter,
    } = msg
    else {
        return Err(DistError::Protocol {
            reason: format!("expected Job, got {}", msg.kind_name()),
        });
    };
    // The coordinator ships the layout it will combine with; decode it
    // and check it against this build's own task registry, so a
    // version-skewed node fails loudly instead of mis-merging cells.
    let shipped = RObjLayout::decode(&layout)?;
    let local = tasks::layout(&task, &params)?;
    if shipped.total_cells() != local.total_cells() {
        return Err(DistError::BadTask {
            reason: format!(
                "task `{task}`: coordinator layout has {} cells, this node's registry says {}",
                shipped.total_cells(),
                local.total_cells()
            ),
        });
    }
    let file = freeride::source::FileDataset::open(std::path::Path::new(&dataset))?;
    let rows = file.rows() as u64;
    let mut config = JobConfig::with_threads(threads.max(1) as usize);
    config.trace = trace_level_from_ordinal(trace_level);
    config.io = crate::proto::io_mode_from_wire(io_mode, chunk_rows, buffers, readers);
    config.backend = freeride::KernelBackend::from_wire(backend);
    config.scheme =
        crate::proto::scheme_from_wire(scheme, scheme_stripes, scheme_cells, scheme_mask);
    if splitter == 1 {
        // The coordinator asked for nnz-weighted thread splits: recover
        // the exact index structure from the dataset's `.frsp` sidecar.
        let sidecar = cfr_sparse::sidecar_path(std::path::Path::new(&dataset));
        let m = match cfr_sparse::read_frsp(&sidecar) {
            Ok(cfr_sparse::SparseData::Csr(m)) => m,
            Ok(other) => {
                return Err(DistError::BadTask {
                    reason: format!(
                        "weighted splitter needs a CSR sidecar at {}, found {other:?}",
                        sidecar.display()
                    ),
                })
            }
            Err(e) => {
                return Err(DistError::BadTask {
                    reason: format!("weighted splitter sidecar {}: {e}", sidecar.display()),
                })
            }
        };
        if m.rows != rows {
            return Err(DistError::BadTask {
                reason: format!(
                    "sidecar {} describes {} rows, dataset has {rows}",
                    sidecar.display(),
                    m.rows
                ),
            });
        }
        config.splitter = cfr_sparse::csr_splitter(&m);
    }
    let recorder = Arc::new(Recorder::new(config.trace));
    let backend = config.backend;
    let engine = Engine::with_recorder(config, recorder.clone());
    Ok(JobContext {
        task,
        params,
        backend,
        layout: local,
        file,
        engine,
        recorder,
        stats_every,
        rounds_handled: 0,
    })
}

/// Per-agent behaviour of [`serve`] and [`join`]. The default is a
/// healthy node serving one coordinator session; the other knobs are
/// deterministic fault injection for tests, benches and smoke scripts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOpts {
    /// Sleep this long before every work unit (inside the timed
    /// window), turning the node into a deterministic straggler for the
    /// coordinator's latency detection and the steal path.
    pub slow: Duration,
    /// Answer the first `RoundStart` after this many completed rounds
    /// with a graceful `Leave` instead of working the round.
    pub leave_after_rounds: Option<u32>,
    /// Sever the connection without a goodbye on the first `Unit` after
    /// this many completed rounds — what a node killed by the OS looks
    /// like from the coordinator's side. The session then ends `Ok`.
    pub die_after_rounds: Option<u32>,
    /// Coordinator sessions [`serve`] accepts (0 = forever).
    pub sessions: usize,
}

impl Default for NodeOpts {
    fn default() -> NodeOpts {
        NodeOpts {
            slow: Duration::ZERO,
            leave_after_rounds: None,
            die_after_rounds: None,
            sessions: 1,
        }
    }
}

/// Send the coordinator an `Error` frame describing `e`, then fail the
/// session with it.
fn reject(stream: &mut TcpStream, e: DistError) -> Result<(), DistError> {
    write_message(
        stream,
        &Message::Error {
            message: e.to_string(),
        },
    )?;
    Err(e)
}

fn is_disconnect(e: &DistError) -> bool {
    matches!(e, DistError::Io(io) if matches!(
        io.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    ))
}

/// Serve one coordinator session on an accepted stream: the Hello
/// handshake, then the frame loop.
fn handle_session(mut stream: TcpStream, opts: &NodeOpts) -> Result<(), DistError> {
    stream.set_nodelay(true).ok();
    let (hello, _) = read_message(&mut stream)?;
    let Message::Hello { node_id } = hello else {
        return Err(DistError::Protocol {
            reason: format!("expected Hello, got {}", hello.kind_name()),
        });
    };
    write_message(&mut stream, &Message::HelloAck { node_id })?;
    serve_frames(stream, node_id, opts)
}

/// The round in progress: its kernel is built once per `RoundStart`
/// from the broadcast state and reused for every `Unit` until
/// `RoundEnd`.
struct CurrentRound {
    round: u32,
    attempt: u32,
    kernel: tasks::TaskKernel,
    started: Instant,
}

/// The post-handshake frame loop, shared by listening sessions
/// ([`serve`]) and dial-out joiners ([`join`]). Returns when the
/// coordinator sends [`Message::Shutdown`] or the connection drops.
fn serve_frames(mut stream: TcpStream, node_id: u32, opts: &NodeOpts) -> Result<(), DistError> {
    let mut job: Option<JobContext> = None;
    let mut current: Option<CurrentRound> = None;
    loop {
        let (msg, _) = read_message(&mut stream)?;
        match msg {
            Message::Job { .. } => match build_job(msg) {
                Ok(ctx) => job = Some(ctx),
                Err(e) => return reject(&mut stream, e),
            },
            Message::RoundStart {
                round,
                attempt,
                state,
            } => {
                let Some(ctx) = job.as_ref() else {
                    return reject(
                        &mut stream,
                        DistError::Protocol {
                            reason: "RoundStart before Job".into(),
                        },
                    );
                };
                if opts
                    .leave_after_rounds
                    .is_some_and(|n| ctx.rounds_handled >= n)
                {
                    // Graceful exit: tell the coordinator instead of
                    // answering, so our rows are re-planned onto the
                    // survivors without burning a retry. Then *linger*,
                    // draining (and ignoring) frames until the
                    // coordinator drops the connection: closing right
                    // away would RST an in-flight Unit send and could
                    // discard the buffered Leave on the coordinator's
                    // side, turning the graceful path into a failure.
                    write_message(&mut stream, &Message::Leave { node_id })?;
                    loop {
                        match read_message(&mut stream) {
                            Ok((Message::Shutdown, _)) => return Ok(()),
                            Ok(_) => continue,
                            Err(e) if is_disconnect(&e) => return Ok(()),
                            Err(e) => return Err(e),
                        }
                    }
                }
                match tasks::kernel(
                    &ctx.task,
                    &ctx.params,
                    &state,
                    ctx.backend,
                    Some(&ctx.recorder),
                ) {
                    Ok(kernel) => {
                        current = Some(CurrentRound {
                            round,
                            attempt,
                            kernel,
                            started: Instant::now(),
                        })
                    }
                    Err(e) => return reject(&mut stream, e),
                }
            }
            Message::Unit {
                round,
                attempt,
                first_row,
                rows,
            } => {
                let (Some(ctx), Some(cur)) = (job.as_ref(), current.as_ref()) else {
                    return reject(
                        &mut stream,
                        DistError::Protocol {
                            reason: "Unit before RoundStart".into(),
                        },
                    );
                };
                if (cur.round, cur.attempt) != (round, attempt) {
                    let e = DistError::Protocol {
                        reason: format!(
                            "Unit for round {round}/{attempt}, current round is {}/{}",
                            cur.round, cur.attempt
                        ),
                    };
                    return reject(&mut stream, e);
                }
                if opts
                    .die_after_rounds
                    .is_some_and(|n| ctx.rounds_handled >= n)
                {
                    // Die mid-round. The coordinator sends nothing more
                    // until this Unit is answered, so closing now leaves
                    // no unread bytes behind: the peer sees a clean EOF
                    // after any Stats push already in flight, not a
                    // reset that would discard it.
                    return Ok(());
                }
                // The artificial straggler delay applies per unit (and
                // inside the timed window), so a slow node's units read
                // as slow and fast peers get the chance to steal.
                let unit_start = Instant::now();
                if !opts.slow.is_zero() {
                    std::thread::sleep(opts.slow);
                }
                match run_unit(ctx, &cur.kernel, round, attempt, first_row, rows) {
                    Ok(cells) => {
                        write_message(
                            &mut stream,
                            &Message::UnitResult {
                                round,
                                attempt,
                                first_row,
                                elapsed_ns: unit_start.elapsed().as_nanos() as u64,
                                cells,
                            },
                        )?;
                    }
                    Err(e) => return reject(&mut stream, e),
                }
            }
            Message::RoundEnd { round, .. } => {
                if let (Some(ctx), Some(cur)) = (job.as_mut(), current.take()) {
                    ctx.recorder.add_counter("dist.rounds", 1);
                    ctx.rounds_handled = ctx.rounds_handled.wrapping_add(1);
                    let hub = ctx.recorder.hub();
                    if hub.is_enabled() {
                        hub.add("node.rounds", 1);
                        hub.observe("node.round_ns", cur.started.elapsed().as_nanos() as u64);
                        if ctx.stats_every > 0 && ctx.rounds_handled % ctx.stats_every == 0 {
                            write_message(
                                &mut stream,
                                &Message::Stats {
                                    round,
                                    metrics: hub.snapshot().encode_bin(),
                                },
                            )?;
                        }
                    }
                }
            }
            Message::EndJob => {
                let trace = match job.as_ref() {
                    Some(ctx) if ctx.recorder.level() != TraceLevel::Off => {
                        ctx.recorder.drain().encode_bin()
                    }
                    _ => Vec::new(),
                };
                let metrics = match job.as_ref() {
                    Some(ctx) if ctx.recorder.hub().is_enabled() => {
                        let snap = ctx.recorder.hub().snapshot();
                        if snap.is_empty() {
                            Vec::new()
                        } else {
                            snap.encode_bin()
                        }
                    }
                    _ => Vec::new(),
                };
                job = None;
                current = None;
                write_message(&mut stream, &Message::JobDone { trace, metrics })?;
            }
            Message::Shutdown => return Ok(()),
            Message::Error { message } => {
                return Err(DistError::Node {
                    node: node_id as usize,
                    message,
                });
            }
            other => {
                let e = DistError::Protocol {
                    reason: format!("unexpected {} from coordinator", other.kind_name()),
                };
                return reject(&mut stream, e);
            }
        }
    }
}

/// Run one work unit of the current round, returning the unit's
/// reduction cells.
fn run_unit(
    job: &JobContext,
    kernel: &tasks::TaskKernel,
    round: u32,
    attempt: u32,
    first: u64,
    count: u64,
) -> Result<Vec<u8>, DistError> {
    let rows = job.file.rows() as u64;
    if first.checked_add(count).is_none_or(|end| end > rows) {
        return Err(DistError::BadTask {
            reason: format!("unit {first}+{count} exceeds {rows} dataset rows"),
        });
    }
    let pass_start = Instant::now();
    let outcome = job.engine.run_file_shard(
        &job.file,
        first as usize,
        count as usize,
        &job.layout,
        kernel,
    )?;
    job.recorder.push_complete(
        TraceLevel::Phases,
        "node.pass",
        "dist",
        0,
        job.recorder.offset_ns(pass_start),
        pass_start.elapsed().as_nanos() as u64,
        vec![
            ("round", AttrValue::Int(round as i64)),
            ("attempt", AttrValue::Int(attempt as i64)),
            ("shard_first", AttrValue::Int(first as i64)),
            ("shard_rows", AttrValue::Int(count as i64)),
        ],
    );
    let hub = job.recorder.hub();
    if hub.is_enabled() {
        hub.add("node.units", 1);
        hub.observe("node.unit_ns", pass_start.elapsed().as_nanos() as u64);
    }
    Ok(outcome.robj.encode_cells())
}

/// Dial a coordinator's membership hub and serve the session the
/// coordinator opens back over the same connection (`cfr-node --join`).
/// Joiners are absorbed at round barriers, so the `Hello` may lag the
/// dial by a full round. A `Shutdown` first — or the hub closing the
/// connection — means the fleet wound down before this node was
/// admitted: a clean no-op, not an error. `opts.sessions` is ignored:
/// a joiner serves exactly the one job it dialed into.
pub fn join(addr: &SocketAddr, opts: &NodeOpts) -> Result<(), DistError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    write_message(
        &mut stream,
        &Message::Join {
            token: String::new(),
        },
    )?;
    let hello = match read_message(&mut stream) {
        Ok((msg, _)) => msg,
        Err(e) if is_disconnect(&e) => return Ok(()),
        Err(e) => return Err(e),
    };
    match hello {
        Message::Shutdown => Ok(()),
        Message::Hello { node_id } => {
            write_message(&mut stream, &Message::HelloAck { node_id })?;
            serve_frames(stream, node_id, opts)
        }
        other => Err(DistError::Protocol {
            reason: format!(
                "joiner expected Hello or Shutdown, got {}",
                other.kind_name()
            ),
        }),
    }
}

/// Accept `opts.sessions` coordinator connections on `listener` (0 =
/// forever), serving each on its own thread so several coordinators —
/// e.g. the `cfr-serve` daemon multiplexing concurrent jobs onto a
/// shared fleet — can hold sessions at once. A failed session is
/// reported on stderr and does not stop the acceptor or the other
/// sessions. Returns once every accepted session has completed: `Ok`,
/// or the first session's error; an `accept` failure returns at once.
pub fn serve(listener: &TcpListener, opts: &NodeOpts) -> Result<(), DistError> {
    let mut handles = Vec::new();
    while opts.sessions == 0 || handles.len() < opts.sessions {
        let (stream, _peer) = listener.accept()?;
        let opts = opts.clone();
        handles.push(std::thread::spawn(move || {
            let result = handle_session(stream, &opts);
            if let Err(e) = &result {
                eprintln!("cfr-node: session error: {e}");
            }
            result
        }));
    }
    let mut first_err = None;
    for h in handles {
        let result = h.join().unwrap_or_else(|_| {
            Err(DistError::Protocol {
                reason: "node session thread panicked".into(),
            })
        });
        if let Err(e) = result {
            first_err.get_or_insert(e);
        }
    }
    first_err.map_or(Ok(()), Err)
}

#[cfg(test)]
mod node_tests {
    use super::*;

    #[test]
    fn trace_level_ordinals_round_trip() {
        for l in [
            TraceLevel::Off,
            TraceLevel::Phases,
            TraceLevel::Splits,
            TraceLevel::Verbose,
        ] {
            assert_eq!(trace_level_from_ordinal(trace_level_ordinal(l)), l);
        }
    }

    #[test]
    fn session_rejects_round_start_before_job() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&listener, &NodeOpts::default()));
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, &Message::Hello { node_id: 0 }).unwrap();
        let (ack, _) = read_message(&mut stream).unwrap();
        assert_eq!(ack, Message::HelloAck { node_id: 0 });
        write_message(
            &mut stream,
            &Message::RoundStart {
                round: 0,
                attempt: 0,
                state: vec![],
            },
        )
        .unwrap();
        let (reply, _) = read_message(&mut stream).unwrap();
        assert!(matches!(reply, Message::Error { .. }), "{reply:?}");
        assert!(server.join().unwrap().is_err());
    }

    #[test]
    fn session_rejects_non_hello_opening() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve(&listener, &NodeOpts::default()));
        let mut stream = TcpStream::connect(addr).unwrap();
        write_message(&mut stream, &Message::EndJob).unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert!(matches!(err, DistError::Protocol { .. }), "{err}");
    }
}
