//! Shared machinery: the per-op watchdog, child processes with a
//! deadline, the scratch directory, trace queries, and the result line.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::{AttrValue, Recorder, SpanRecord, Trace, TraceLevel};

use crate::stats::{Interval, Tally};

/// Longest one op may run before it counts as hung.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Longest a child process (cold compile, set-up probe) may run.
const CHILD_DEADLINE: Duration = Duration::from_secs(90);

/// What the callers of a closed loop send to the collecting thread.
enum Msg<T> {
    /// One finished op.
    Op(T),
    /// A caller left its loop.
    Done,
}

/// Everything a closed loop produced.
pub struct Collected<T> {
    /// Finished ops, in completion order.
    pub ops: Vec<T>,
    /// Callers still inside an op when the watchdog fired; each is one
    /// hung op.
    pub hung: usize,
    /// Wall time from the first op's start to the last message.
    pub wall_s: f64,
}

/// Drain a closed loop with `callers` callers. A silence longer than
/// [`WATCHDOG`] ends the collection: every caller that has not said
/// [`Msg::Done`] is holding a hung op, which is abandoned (its thread
/// is never joined, and dies with the process).
fn collect<T>(rx: &Receiver<Msg<T>>, callers: usize, start: Instant) -> Collected<T> {
    let mut ops = Vec::new();
    let mut done = 0;
    while done < callers {
        match rx.recv_timeout(WATCHDOG) {
            Ok(Msg::Op(op)) => ops.push(op),
            Ok(Msg::Done) => done += 1,
            Err(RecvTimeoutError::Timeout) => {
                return Collected {
                    ops,
                    hung: callers - done,
                    wall_s: start.elapsed().as_secs_f64(),
                }
            }
            // A caller panicked before saying Done: its op failed.
            Err(RecvTimeoutError::Disconnected) => {
                return Collected {
                    ops,
                    hung: callers - done,
                    wall_s: start.elapsed().as_secs_f64(),
                }
            }
        }
    }
    Collected {
        ops,
        hung: 0,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// One op of a closed loop: its latency and what its check made of it.
pub struct Timed<T> {
    pub latency_s: f64,
    pub out: T,
}

/// The closed loop every workload runs: each caller state in `callers`
/// gets its own thread and runs `op` back to back while `go` allows,
/// until `seconds` have gone by. Only `op` is timed (and wrapped in a
/// `perfbench.op` span on the caller's track); `check` then turns its
/// result into what the loop keeps. Returns the ops and, unless one
/// hung, the caller states.
pub fn closed_loop<C, R, T>(
    callers: Vec<C>,
    seconds: f64,
    rec: &Arc<Recorder>,
    go: impl Fn() -> bool + Send + Sync + 'static,
    op: impl Fn(&mut C) -> R + Send + Sync + 'static,
    check: impl Fn(&mut C, R) -> T + Send + Sync + 'static,
) -> (Collected<Timed<T>>, Option<Vec<C>>)
where
    C: Send + 'static,
    T: Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let fns = Arc::new((go, op, check));
    let threads: Vec<_> = callers
        .into_iter()
        .enumerate()
        .map(|(tid, mut caller)| {
            let (tx, fns, rec) = (tx.clone(), fns.clone(), rec.clone());
            std::thread::spawn(move || {
                let (go, op, check) = &*fns;
                while start.elapsed().as_secs_f64() < seconds && go() {
                    let span = rec.span(TraceLevel::Phases, "perfbench.op", "perfbench", tid);
                    let t0 = Instant::now();
                    let result = op(&mut caller);
                    let latency_s = t0.elapsed().as_secs_f64();
                    drop(span);
                    let out = check(&mut caller, result);
                    if tx.send(Msg::Op(Timed { latency_s, out })).is_err() {
                        break;
                    }
                }
                let _ = tx.send(Msg::Done);
                caller
            })
        })
        .collect();
    drop(tx);
    let got = collect(&rx, threads.len(), start);
    let callers = if got.hung == 0 {
        threads.into_iter().map(|t| t.join().ok()).collect()
    } else {
        None
    };
    (got, callers)
}

/// Run `f` on its own thread and wait at most [`WATCHDOG`] for it.
/// `None` means it hung (the thread is abandoned) or panicked.
pub fn watched<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx.recv_timeout(WATCHDOG).ok();
    if out.is_some() {
        let _ = handle.join();
    }
    out
}

/// The benchmark's scratch directory inside the checkout: dataset
/// files, the codegen cache, and temp files. Removed by
/// [`Workdir::remove`] when the run ends.
pub struct Workdir {
    pub path: PathBuf,
}

/// Root of every run's scratch directory, relative to the checkout.
const WORK_ROOT: &str = ".perfbench_work";

impl Workdir {
    /// Create `<cwd>/.perfbench_work/run-<pid>` and point the codegen
    /// cache and the temp directory of this process (and every child
    /// it starts) into it.
    pub fn create() -> Result<Workdir, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        let path = cwd
            .join(WORK_ROOT)
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        for sub in ["codegen", "tmp"] {
            std::fs::create_dir_all(path.join(sub))
                .map_err(|e| format!("create {}: {e}", path.join(sub).display()))?;
        }
        let dir = Workdir { path };
        dir.adopt();
        Ok(dir)
    }

    /// Use an existing scratch directory (a child process).
    pub fn existing(path: PathBuf) -> Workdir {
        let dir = Workdir { path };
        dir.adopt();
        dir
    }

    fn adopt(&self) {
        // Called before any thread is spawned, so no other thread can
        // be reading the environment concurrently.
        std::env::set_var("CFR_CODEGEN_DIR", self.codegen_dir());
        std::env::set_var("TMPDIR", self.path.join("tmp"));
    }

    /// The codegen artifact cache this run owns.
    fn codegen_dir(&self) -> PathBuf {
        self.path.join("codegen")
    }

    /// Delete the scratch directory, and its parent when no other run
    /// is using it.
    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(root) = self.path.parent() {
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Run this executable again as a child (`--child <kind>` plus
/// `args`), wait for it with a deadline, and return the number on the
/// last line of its standard output. A child that overruns is killed
/// and waited for.
pub fn child_number(kind: &str, args: &[String], workdir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("--child")
        .arg(kind)
        .arg("--workdir")
        .arg(workdir)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {kind} child: {e}"))?;
    let deadline = Instant::now() + CHILD_DEADLINE;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{kind} child overran {CHILD_DEADLINE:?}"));
            }
            Err(e) => return Err(format!("wait for {kind} child: {e}")),
        }
    }
    let out = child
        .wait_with_output()
        .map_err(|e| format!("collect {kind} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{kind} child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("{kind} child printed no number: {text:?}"))
}

/// Machine-wide `(steal, total)` CPU time so far, in clock ticks, from
/// the first line of `/proc/stat`; `None` where it cannot be read.
/// Steal is time the hypervisor ran something else on this machine's
/// virtual CPUs — the usual cause of run-to-run drift on a shared host.
pub fn cpu_steal_ticks() -> Option<(u64, u64)> {
    steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn steal_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// High-water resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Spans named `name`.
pub fn spans<'t>(trace: &'t Trace, name: &'t str) -> impl Iterator<Item = &'t SpanRecord> + 't {
    trace.spans.iter().filter(move |s| s.name == name)
}

/// Durations, seconds, of every span named `name`.
pub fn span_secs(trace: &Trace, name: &str) -> Vec<f64> {
    spans(trace, name).map(|s| secs(s.dur_ns)).collect()
}

/// Numeric attribute `key` of every span named `name`.
pub fn span_attr(trace: &Trace, name: &str, key: &str) -> Vec<f64> {
    spans(trace, name)
        .filter_map(|s| {
            s.attrs
                .iter()
                .find(|(k, _)| *k == key)
                .and_then(|(_, v)| match v {
                    AttrValue::Int(i) => Some(*i as f64),
                    AttrValue::Float(f) => Some(*f),
                    _ => None,
                })
        })
        .collect()
}

/// The interval a span covers.
pub fn interval(s: &SpanRecord) -> Interval {
    Interval {
        tid: s.tid,
        start: s.start_ns,
        dur: s.dur_ns,
    }
}

/// The intervals of every span named `name`.
pub fn intervals(trace: &Trace, name: &str) -> Vec<Interval> {
    spans(trace, name).map(interval).collect()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics
/// by name, as one JSON object.
pub fn result_json(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit of `x` (shortest round-trip form);
/// non-finite values, which JSON cannot carry, become 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object_with_every_digit() {
        let mut t = Tally::default();
        t.record(true);
        let line = result_json(
            true,
            t,
            &[
                Metric {
                    name: "op_p50_s",
                    value: 0.123456789012345,
                    unit: "s",
                },
                Metric {
                    name: "rows_per_s",
                    value: 1e7,
                    unit: "rows/s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"op_p50_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}, \
             \"rows_per_s\": {\"value\": 10000000.0, \"unit\": \"rows/s\"}}}"
        );
        let parsed = obs::parse_json(&line).expect("valid JSON");
        assert!(matches!(parsed, obs::JsonValue::Obj(_)));
    }

    #[test]
    fn steal_is_the_eighth_cpu_field_and_guest_time_is_not_double_counted() {
        let stat = "cpu  100 1 20 500 3 0 4 12 50 0\ncpu0 50 0 10 250 1 0 2 6 25 0\n";
        assert_eq!(steal_ticks(stat), Some((12, 640)));
        assert_eq!(steal_ticks("intr 1 2 3\n"), None);
    }

    #[test]
    fn collect_counts_callers_still_in_an_op_as_hung() {
        let (tx, rx) = std::sync::mpsc::channel::<Msg<u32>>();
        tx.send(Msg::Op(1)).unwrap();
        tx.send(Msg::Done).unwrap();
        tx.send(Msg::Op(2)).unwrap();
        // The second caller never says Done; dropping the sender ends
        // the wait at once instead of after the watchdog.
        drop(tx);
        let c = collect(&rx, 2, Instant::now());
        assert_eq!(c.ops, vec![1, 2]);
        assert_eq!(c.hung, 1);
    }
}
