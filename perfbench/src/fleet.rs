//! `fleet-kmeans`: an in-process `cfr-serve` at its default config over
//! a 2-node loopback fleet (1 thread per node). Two tenants each submit
//! the next 10-round `kmeans` task job when the last one returns; one
//! op is one job, from submit to verified result. The only workload
//! that runs through serve → dist → node → io.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfr_datagen::Dataset;
use cfr_serve::{Client, JobSpec, ServeConfig, Server, ServerHandle};
use freeride::source::FileDataset;
use freeride::{DataView, Engine, JobConfig, KernelBackend};
use freeride_dist::proto::{read_message, write_message, Message};
use freeride_dist::{run_loopback, tasks, ClusterConfig, LoopbackCluster};
use obs::{Recorder, Trace, TraceLevel};

use crate::harness::{self, span_attr, span_secs, Metric, Timed};
use crate::stats::{median, residual_frac};
use crate::{layer_span, Ctx, Outcome};

/// Point dimensionality.
const D: usize = 8;
/// Points: the same 12 MB `d = 8` dataset as `dense-translated`.
const N: usize = 12 * 1024 * 1024 / 8 / D;
/// Clusters the dataset is generated around (as in `dense-translated`).
const DATA_CLUSTERS: usize = 100;
/// Centroids the jobs refine.
const K: usize = 16;
/// Rounds per job.
const ROUNDS: usize = 10;
/// Fleet nodes.
const NODES: usize = 2;
/// Tenants in the closed loop.
const TENANTS: usize = 2;
/// Relative tolerance of the first job against the local reference.
const TOL: f64 = 1e-9;
/// Jobs per second of `--seconds` the fleet is sized for. The loop
/// stops early rather than exceed it (today's rate is ~4 jobs/s).
const JOB_RATE_CAP: f64 = 20.0;
/// Sessions reserved beyond the loop: the reference job and the traced
/// run's single-tenant jobs.
const EXTRA_SESSIONS: usize = 8;
/// Repetitions of each traced-only measurement.
const REPEATS: usize = 3;

/// The generated inputs: the point cloud and the starting centroids.
pub struct Inputs {
    points: Dataset,
    init: Vec<f64>,
}

/// Generate the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let (points, _) = cfr_datagen::clustered_points(N, D, DATA_CLUSTERS, 2.5, seed);
    let init = points.data[..K * D].to_vec();
    Inputs { points, init }
}

/// Sessions every node serves before its acceptor exits.
fn sessions_cap(seconds: f64) -> usize {
    (seconds * JOB_RATE_CAP).ceil() as usize + EXTRA_SESSIONS
}

/// Everything set-up produces: ready for the first job.
struct System {
    dataset: PathBuf,
    fleet: LoopbackCluster,
    server: ServerHandle,
    clients: Vec<Client>,
    /// Sessions each node serves; see [`teardown`].
    cap: usize,
    /// Jobs submitted so far — each opens one session per node.
    jobs: Arc<AtomicUsize>,
    rec: Arc<Recorder>,
}

fn spec(inputs: &Inputs, dataset: &Path) -> JobSpec {
    JobSpec::Task {
        task: "kmeans".into(),
        params: vec![K as i64, D as i64],
        init_state: inputs.init.clone(),
        rounds: ROUNDS as u32,
        dataset: dataset.to_string_lossy().into_owned(),
        threads_per_node: 1,
        backend: KernelBackend::Interpreted.to_wire(),
    }
}

/// A dataset file name no other set-up of this run uses.
fn dataset_path(workdir: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    workdir.join(format!(
        "fleet-{}-{}.frds",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// From inputs in memory to ready for the first job: write the
/// dataset, start the fleet and the server, connect the tenants.
fn setup(
    inputs: &Inputs,
    workdir: &Path,
    cap: usize,
    rec: Arc<Recorder>,
) -> Result<System, String> {
    let dataset = dataset_path(workdir);
    layer_span(&rec, "perfbench.io.write", 0, || {
        inputs.points.write(&dataset)
    })
    .map_err(|e| format!("write {}: {e}", dataset.display()))?;
    let fleet = layer_span(&rec, "perfbench.dist.spawn", 0, || {
        LoopbackCluster::spawn_concurrent(NODES, cap)
    })
    .map_err(|e| format!("spawn fleet: {e}"))?;
    let mut cfg = ServeConfig::new(fleet.addrs().to_vec());
    cfg.trace = rec.level();
    let server = layer_span(&rec, "perfbench.serve.start", 0, || {
        Server::start(cfg, "127.0.0.1:0")
    })
    .map_err(|e| format!("start server: {e}"))?;
    let clients = layer_span(&rec, "perfbench.serve.connect", 0, || {
        (0..TENANTS)
            .map(|t| Client::connect(server.addr(), &format!("tenant{t}"), ""))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| format!("connect: {e}"))?;
    Ok(System {
        dataset,
        fleet,
        server,
        clients,
        cap,
        jobs: Arc::new(AtomicUsize::new(0)),
        rec,
    })
}

/// Open and politely close one node session (handshake, then
/// `Shutdown`).
fn idle_session(addr: &SocketAddr) -> Result<(), String> {
    let mut s =
        TcpStream::connect_timeout(addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write_message(&mut s, &Message::Hello { node_id: 0 }).map_err(|e| e.to_string())?;
    read_message(&mut s).map_err(|e| e.to_string())?;
    write_message(&mut s, &Message::Shutdown).map_err(|e| e.to_string())?;
    Ok(())
}

/// Stop the server, then bring every node to exactly its `cap`
/// sessions so its acceptor exits and the fleet joins. A miscount
/// leaves a node waiting; the caller's watchdog turns that into a
/// failure.
fn teardown(sys: System) -> Result<(), String> {
    for c in sys.clients {
        let _ = c.bye();
    }
    sys.server.stop();
    let used = sys.jobs.load(Ordering::SeqCst);
    for addr in sys.fleet.addrs() {
        for _ in used..sys.cap {
            idle_session(addr)?;
        }
    }
    sys.fleet.join().map_err(|e| format!("fleet: {e}"))?;
    let _ = std::fs::remove_file(&sys.dataset);
    Ok(())
}

/// A job's final state and its trace frame.
type JobResult = Result<(Vec<f64>, Vec<u8>), String>;

/// Submit one job and wait for its final state and trace.
fn job(client: &mut Client, jobs: &AtomicUsize, spec: JobSpec) -> JobResult {
    jobs.fetch_add(1, Ordering::SeqCst);
    client
        .run(spec)
        .map(|o| (o.state, o.trace))
        .map_err(|e| e.to_string())
}

/// The local reference: the same 10 rounds on an in-memory engine.
fn local_reference(inputs: &Inputs) -> Result<Vec<f64>, String> {
    let params = [K as i64, D as i64];
    let layout = tasks::layout("kmeans", &params).map_err(|e| e.to_string())?;
    let engine = Engine::new(JobConfig::with_threads(NODES));
    let view = DataView::new(&inputs.points.data, D).map_err(|e| e.to_string())?;
    let mut state = inputs.init.clone();
    for _ in 0..ROUNDS {
        let kernel = tasks::kernel("kmeans", &params, &state, KernelBackend::Interpreted, None)
            .map_err(|e| e.to_string())?;
        let out = engine.run(view, &layout, &kernel);
        if let Some(next) =
            tasks::step("kmeans", &params, &state, &out.robj).map_err(|e| e.to_string())?
        {
            state = next;
        }
    }
    Ok(state)
}

fn close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= TOL * x.abs().max(y.abs()).max(1.0))
}

fn bits(state: &[f64]) -> Vec<u64> {
    state.iter().map(|x| x.to_bits()).collect()
}

/// One finished job.
struct Job {
    /// Why the job failed, if it did.
    failure: Option<String>,
    trace: Vec<u8>,
}

/// The closed loop: every tenant submits its next job when the last
/// returns, until `seconds` have gone by or the fleet's session budget
/// is spent. Hands the clients back unless a job hung.
fn closed_loop(
    sys: &mut System,
    spec: &JobSpec,
    want: &Arc<Vec<u64>>,
    seconds: f64,
) -> (harness::Collected<Timed<Job>>, bool) {
    let budget = sys.cap - EXTRA_SESSIONS;
    let (submitted, counted) = (sys.jobs.clone(), sys.jobs.clone());
    let (spec, want) = (spec.clone(), want.clone());
    let (got, clients) = harness::closed_loop(
        std::mem::take(&mut sys.clients),
        seconds,
        &sys.rec,
        move || submitted.load(Ordering::SeqCst) < budget,
        move |client: &mut Client| job(client, &counted, spec.clone()),
        move |_, result| match result {
            Ok((state, trace)) if bits(&state) == *want => Job {
                failure: None,
                trace,
            },
            Ok(_) => Job {
                failure: Some("differs from the first job's state".into()),
                trace: Vec::new(),
            },
            Err(e) => Job {
                failure: Some(e),
                trace: Vec::new(),
            },
        },
    );
    let joined = clients.is_some();
    sys.clients = clients.unwrap_or_default();
    (got, joined)
}

/// Run one job from tenant `t` under the watchdog. `None` means it hung
/// (the tenant's client is lost with it).
fn watched_job(sys: &mut System, t: usize, spec: &JobSpec) -> Option<JobResult> {
    let mut client = sys.clients.remove(t);
    let (jobs, spec) = (sys.jobs.clone(), spec.clone());
    let (client, result) = harness::watched(move || {
        let r = job(&mut client, &jobs, spec);
        (client, r)
    })?;
    sys.clients.insert(t, client);
    Some(result)
}

/// Tear the system down under the watchdog; a hang or error counts as
/// one failed op.
fn finish(sys: System, out: &mut Outcome) {
    match harness::watched(move || teardown(sys)) {
        Some(Ok(())) => {}
        Some(Err(e)) => {
            out.tally.record(false);
            out.notes.push(format!("fleet-kmeans: teardown: {e}"));
        }
        None => {
            out.tally.record(false);
            out.notes
                .push("fleet-kmeans: teardown hung past the watchdog".into());
        }
    }
}

/// What one measured phase hands to the traced extras.
struct Phase {
    sys: System,
    spec: JobSpec,
    want: Arc<Vec<u64>>,
    jobs: Vec<Timed<Job>>,
}

/// Set up a fresh system, run the reference job and `seconds` of the
/// closed loop, and fold the jobs into `out`. `None` when a job hung:
/// the system is abandoned with it.
fn measure(
    inputs: &Inputs,
    workdir: &Path,
    level: TraceLevel,
    seconds: f64,
    local: &[f64],
    out: &mut Outcome,
) -> Result<Option<Phase>, String> {
    let t0 = Instant::now();
    let mut sys = setup(
        inputs,
        workdir,
        sessions_cap(seconds),
        Arc::new(Recorder::new(level)),
    )?;
    let setup_s = t0.elapsed().as_secs_f64();
    let spec = spec(inputs, &sys.dataset);

    // The reference job also fills the server's dataset cache.
    let first = match watched_job(&mut sys, 0, &spec) {
        None => {
            out.tally.record(false);
            out.notes
                .push("fleet-kmeans: the reference job hung".into());
            return Ok(None);
        }
        Some(r) => r.map_err(|e| format!("reference job: {e}"))?.0,
    };
    if !close(&first, local) {
        out.correct = false;
        out.notes
            .push("fleet-kmeans: the first job differs from the local reference".into());
    }
    let want = Arc::new(bits(&first));

    let (got, joined) = closed_loop(&mut sys, &spec, &want, seconds);
    out.fold(
        "fleet-kmeans",
        level,
        setup_s,
        (N * ROUNDS) as u64,
        &got,
        |_, j| j.failure.clone(),
    );
    if !joined {
        return Ok(None);
    }
    Ok(Some(Phase {
        sys,
        spec,
        want,
        jobs: got.ops,
    }))
}

/// A fresh process times one set-up (and tears it down untimed).
pub fn setup_child(seed: u64, workdir: &Path) -> Result<f64, String> {
    let inputs = inputs(seed);
    let t0 = Instant::now();
    let sys = setup(
        &inputs,
        workdir,
        sessions_cap(0.0),
        Arc::new(Recorder::new(TraceLevel::Off)),
    )?;
    let s = t0.elapsed().as_secs_f64();
    let mut out = Outcome::default();
    finish(sys, &mut out);
    if out.tally.failed > 0 {
        return Err(out.notes.join("; "));
    }
    Ok(s)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = inputs(ctx.seed);
    let local = local_reference(&inputs)?;
    let workdir = &ctx.workdir.path;
    if !ctx.traced {
        for _ in 0..crate::SETUP_PROBES {
            out.setup_s
                .push(harness::child_number("setup", &ctx.child_args(), workdir)?);
        }
        if let Some(p) = measure(
            &inputs,
            workdir,
            TraceLevel::Off,
            ctx.seconds,
            &local,
            &mut out,
        )? {
            finish(p.sys, &mut out);
        }
        return Ok(out);
    }

    let half = ctx.seconds / 2.0;
    match measure(&inputs, workdir, TraceLevel::Off, half, &local, &mut out)? {
        Some(p) => finish(p.sys, &mut out),
        None => return Ok(out),
    }
    let untraced_p50 = median(&out.latencies);
    let Some(mut p) = measure(&inputs, workdir, TraceLevel::Phases, half, &local, &mut out)? else {
        return Ok(out);
    };
    let x = match extras(&mut p, &inputs, &mut out) {
        Ok(x) => x,
        // A hung extra job abandons the system like a hung loop job.
        Err(e) => {
            out.tally.record(false);
            out.notes.push(format!("fleet-kmeans: {e}"));
            return Ok(out);
        }
    };
    let rec = p.sys.rec.clone();
    let jobs = std::mem::take(&mut p.jobs);
    finish(p.sys, &mut out);
    let mut trace = rec.drain();
    out.layers = layers(&trace, &jobs, untraced_p50, &x);
    // Lay the jobs' own traces (coordinator and nodes) beside the
    // benchmark's spans.
    for (i, j) in jobs.iter().enumerate() {
        if let Ok(t) = Trace::decode_bin(&j.out.trace) {
            trace.merge_as(i + 1, t);
        }
    }
    out.trace = Some(trace);
    Ok(out)
}

/// The traced-only measurements.
struct Extras {
    /// Median latency of a job with one tenant active.
    single_s: f64,
    /// Median wall time of the same job driven directly.
    job_s: f64,
    /// Median coordinator round of the direct jobs.
    round_s: f64,
    /// Median bytes on the wire per direct job.
    wire_bytes: f64,
}

fn extras(p: &mut Phase, inputs: &Inputs, out: &mut Outcome) -> Result<Extras, String> {
    let mut single = Vec::new();
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        match watched_job(&mut p.sys, 0, &p.spec) {
            Some(Ok((state, _))) if bits(&state) == *p.want => {
                single.push(t0.elapsed().as_secs_f64())
            }
            Some(_) => {
                out.correct = false;
                out.notes
                    .push("fleet-kmeans: a single-tenant job failed or differs".into());
            }
            None => return Err("a single-tenant job hung past the watchdog".into()),
        }
    }

    let mut cfg = ClusterConfig::new("kmeans", &p.sys.dataset);
    cfg.params = vec![K as i64, D as i64];
    cfg.init_state = inputs.init.clone();
    cfg.rounds = ROUNDS;
    cfg.threads_per_node = 1;
    cfg.trace = TraceLevel::Phases;
    let (mut job_s, mut rounds, mut wire) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let cfg = cfg.clone();
        let mut span = p
            .sys
            .rec
            .span(TraceLevel::Phases, "perfbench.dist.job", "perfbench", 0);
        let t0 = Instant::now();
        let outcome = harness::watched(move || run_loopback(cfg, NODES))
            .ok_or("a direct loopback job hung past the watchdog")?
            .map_err(|e| format!("direct job: {e}"))?;
        job_s.push(t0.elapsed().as_secs_f64());
        let bytes = outcome.stats.bytes_sent + outcome.stats.bytes_recv;
        span.attr_int("wire_bytes", bytes as i64);
        drop(span);
        wire.push(bytes as f64);
        if bits(&outcome.state) != *p.want {
            out.correct = false;
            out.notes
                .push("fleet-kmeans: the direct job differs from the served job".into());
        }
        if let Some(t) = &outcome.trace {
            rounds.extend(
                harness::spans(t, "cluster.round")
                    .filter(|s| s.pid == 0)
                    .map(|s| harness::secs(s.dur_ns)),
            );
        }
    }

    // One node's pass over its shard, as a node runs it every round.
    let file = FileDataset::open(&p.sys.dataset).map_err(|e| e.to_string())?;
    let params = [K as i64, D as i64];
    let layout = tasks::layout("kmeans", &params).map_err(|e| e.to_string())?;
    let kernel = tasks::kernel(
        "kmeans",
        &params,
        &inputs.init,
        KernelBackend::Interpreted,
        None,
    )
    .map_err(|e| e.to_string())?;
    let engine = Engine::with_recorder(JobConfig::with_threads(1), p.sys.rec.clone());
    engine.warmup();
    for _ in 0..REPEATS {
        let mut span = p.sys.rec.span(
            TraceLevel::Phases,
            "perfbench.dist.node_pass",
            "perfbench",
            0,
        );
        let o = engine
            .run_file_shard(&file, 0, N / NODES, &layout, &kernel)
            .map_err(|e| format!("node pass: {e}"))?;
        crate::stats_attrs(&mut span, &o, layout.total_cells());
        span.attr_int(
            "read_ns",
            o.stats.splits.iter().map(|s| s.read_ns).sum::<u64>() as i64,
        );
        span.attr_int("read_bytes", (N / NODES * D * 8) as i64);
    }
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok(Extras {
        single_s: med(&single),
        job_s: med(&job_s),
        round_s: med(&rounds),
        wire_bytes: med(&wire),
    })
}

/// Job time the job's own trace accounts for: the coordinator's set-up
/// and round spans.
fn job_covered_ns(trace: &Trace) -> u64 {
    trace
        .spans
        .iter()
        .filter(|s| s.pid == 0 && matches!(s.name, "cluster.setup" | "cluster.round"))
        .map(|s| s.dur_ns)
        .sum()
}

/// The per-layer metrics of the traced phase.
fn layers(
    trace: &Trace,
    jobs: &[Timed<Job>],
    untraced_p50: Option<f64>,
    x: &Extras,
) -> Vec<Metric> {
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    let op_p50 = med(span_secs(trace, "perfbench.op"));
    let node_pass_s = med(span_secs(trace, "perfbench.dist.node_pass"));
    let (mut total, mut covered) = (0u64, 0u64);
    for j in jobs {
        if let Ok(t) = Trace::decode_bin(&j.out.trace) {
            total += (j.latency_s * 1e9) as u64;
            covered += job_covered_ns(&t);
        }
    }
    let mut m = vec![
        Metric::new(
            "io.read_s",
            med(span_attr(trace, "perfbench.dist.node_pass", "read_ns")) / 1e9,
            "s",
        ),
        Metric::new(
            "io.bytes_read",
            med(span_attr(trace, "perfbench.dist.node_pass", "read_bytes")),
            "bytes",
        ),
        Metric::new("dist.job_s", x.job_s, "s"),
        Metric::new("dist.round_s", x.round_s, "s"),
        Metric::new("dist.node_pass_s", node_pass_s, "s"),
        Metric::new("dist.overhead_s", x.round_s - node_pass_s, "s"),
        Metric::new("dist.wire_bytes", x.wire_bytes, "bytes"),
        Metric::new("serve.overhead_s", x.single_s - x.job_s, "s"),
        Metric::new("unaccounted_frac", residual_frac(total, covered), "ratio"),
    ];
    m.extend(crate::engine_layers(
        harness::spans(trace, "perfbench.dist.node_pass").collect(),
    ));
    m.push(crate::trace_overhead(op_p50, untraced_p50));
    m
}
