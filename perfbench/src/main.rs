//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <dense-translated|sparse-scatter|fleet-kmeans>
//!           --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate run that wraps each public call into the
//! layers in the benchmark's own spans and reports the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this crate for the workloads and metrics.

mod dense;
mod fleet;
mod harness;
mod sparse;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use freeride::JobOutcome;
use obs::{Recorder, SpanRecord, Trace, TraceLevel};

use harness::{Metric, Workdir};
use stats::{median, tail, Tally, TAIL_BEYOND};

/// Fresh-process set-ups per untraced run, besides the run's own.
const SETUP_PROBES: usize = 6;

const USAGE: &str = "usage: perfbench --workload <dense-translated|sparse-scatter|fleet-kmeans> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

/// The workloads, by name.
const WORKLOADS: &[&str] = &["dense-translated", "sparse-scatter", "fleet-kmeans"];

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports 0 for it (the prediction there is "no
/// change").
const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.parse_s", "s"),
    ("sema.analyze_s", "s"),
    ("core.detect_s", "s"),
    ("core.compile_s", "s"),
    ("core.kernel_instrs", "count"),
    ("codegen.load_s", "s"),
    ("codegen.cold_compile_s", "s"),
    ("codegen.fallbacks", "count"),
    ("codegen.runner_s", "s"),
    ("codegen.vs_manual", "ratio"),
    ("linearize.dataset_s", "s"),
    ("linearize.dataset_bytes", "bytes"),
    ("linearize.state_s", "s"),
    ("freeride.run_s", "s"),
    ("freeride.reduce_busy_s", "s"),
    ("freeride.reduce_makespan_s", "s"),
    ("freeride.combine_s", "s"),
    ("freeride.idle_s", "s"),
    ("freeride.robj_cells", "count"),
    ("sparse.lower_s", "s"),
    ("sparse.inspect_s", "s"),
    ("sparse.scheme", "code"),
    ("sparse.chosen_vs_best", "ratio"),
    ("io.read_s", "s"),
    ("io.bytes_read", "bytes"),
    ("dist.job_s", "s"),
    ("dist.round_s", "s"),
    ("dist.node_pass_s", "s"),
    ("dist.overhead_s", "s"),
    ("dist.wire_bytes", "bytes"),
    ("serve.overhead_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("unaccounted_frac", "ratio"),
];

/// What a workload run needs.
pub struct Ctx {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    workdir: Workdir,
}

impl Ctx {
    /// Arguments a set-up probe child needs to rebuild the inputs.
    fn child_args(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
        ]
    }
}

/// What one workload run measured.
pub struct Outcome {
    /// Set-up samples, seconds (untraced).
    setup_s: Vec<f64>,
    /// Latency of every op that returned, seconds (untraced).
    latencies: Vec<f64>,
    /// Rows reduced by ops that were correct (untraced).
    rows: u64,
    /// Wall time of the untraced closed loop.
    loop_wall_s: f64,
    /// Every op of the run, traced ones included.
    tally: Tally,
    /// Every check outside the op count held.
    correct: bool,
    /// Per-layer metrics (traced runs).
    layers: Vec<Metric>,
    /// The traced phase's spans (traced runs).
    trace: Option<Trace>,
    /// Human-readable findings, printed before the result line.
    notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            latencies: Vec::new(),
            rows: 0,
            loop_wall_s: 0.0,
            tally: Tally::default(),
            correct: true,
            layers: Vec::new(),
            trace: None,
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    /// Fold one measured loop into the outcome: every finished op counts
    /// toward the tally (failed when `failure` names a reason) and every
    /// hung op as failed. An untraced loop also supplies the set-up
    /// sample, the latencies, the rows of correct ops and its wall time.
    fn fold<T>(
        &mut self,
        workload: &str,
        level: TraceLevel,
        setup_s: f64,
        rows_per_op: u64,
        got: &harness::Collected<harness::Timed<T>>,
        failure: impl Fn(usize, &T) -> Option<String>,
    ) {
        let untraced = level == TraceLevel::Off;
        let mut failures = Vec::new();
        for (i, op) in got.ops.iter().enumerate() {
            let why = failure(i, &op.out);
            self.tally.record(why.is_none());
            if untraced {
                self.latencies.push(op.latency_s);
                if why.is_none() {
                    self.rows += rows_per_op;
                }
            }
            failures.extend(why);
        }
        if let Some(first) = failures.first() {
            self.notes.push(format!(
                "{workload}: {} ops failed; the first: {first}",
                failures.len()
            ));
        }
        for _ in 0..got.hung {
            self.tally.record(false);
        }
        if got.hung > 0 {
            self.notes.push(format!(
                "{workload}: {} ops hung past the watchdog",
                got.hung
            ));
        }
        if untraced {
            self.setup_s.push(setup_s);
            self.loop_wall_s += got.wall_s;
        }
    }
}

/// Run `f` inside a benchmark span named `name` on track `tid`.
pub fn layer_span<T>(rec: &Recorder, name: &'static str, tid: usize, f: impl FnOnce() -> T) -> T {
    let _span = rec.span(TraceLevel::Phases, name, "perfbench", tid);
    f()
}

/// Attach the stats an engine run already returns to its span.
pub fn stats_attrs(span: &mut obs::Span<'_>, out: &JobOutcome, cells: usize) {
    let s = &out.stats;
    span.attr_int("busy_ns", s.total_reduce_ns() as i64);
    span.attr_int("makespan_ns", s.assigned_makespan_ns() as i64);
    span.attr_int("combine_ns", s.phases.combine_ns as i64);
    span.attr_int("finalize_ns", s.phases.finalize_ns as i64);
    span.attr_int("cells", cells as i64);
}

/// The `freeride.*` metrics: medians over engine-run spans carrying
/// [`stats_attrs`].
pub fn engine_layers(runs: Vec<&SpanRecord>) -> Vec<Metric> {
    let attr = |s: &SpanRecord, key: &str| s.attr_i64(key).unwrap_or(0) as f64 / 1e9;
    let med = |f: &dyn Fn(&SpanRecord) -> f64| {
        median(&runs.iter().map(|s| f(s)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    vec![
        Metric::new("freeride.run_s", med(&|s| harness::secs(s.dur_ns)), "s"),
        Metric::new("freeride.reduce_busy_s", med(&|s| attr(s, "busy_ns")), "s"),
        Metric::new(
            "freeride.reduce_makespan_s",
            med(&|s| attr(s, "makespan_ns")),
            "s",
        ),
        Metric::new("freeride.combine_s", med(&|s| attr(s, "combine_ns")), "s"),
        Metric::new(
            "freeride.idle_s",
            med(&|s| {
                harness::secs(s.dur_ns)
                    - attr(s, "makespan_ns")
                    - attr(s, "combine_ns")
                    - attr(s, "finalize_ns")
            }),
            "s",
        ),
        Metric::new(
            "freeride.robj_cells",
            med(&|s| s.attr_i64("cells").unwrap_or(0) as f64),
            "count",
        ),
    ]
}

/// Engine-run spans nested inside the ops (the ones the loop timed).
pub fn op_runs(trace: &Trace) -> Vec<&SpanRecord> {
    let ops = harness::intervals(trace, "perfbench.op");
    harness::spans(trace, "perfbench.freeride.run")
        .filter(|s| ops.iter().any(|o| o.contains(&harness::interval(s))))
        .collect()
}

/// `obs.trace_overhead_frac`: traced ÷ untraced median op latency − 1.
pub fn trace_overhead(traced_p50: f64, untraced_p50: Option<f64>) -> Metric {
    let frac = match untraced_p50 {
        Some(u) if u > 0.0 => traced_p50 / u - 1.0,
        _ => 0.0,
    };
    Metric::new("obs.trace_overhead_frac", frac, "ratio")
}

/// Add `more`'s spans and counters to `trace` (same timeline).
pub fn append(trace: &mut Trace, more: Trace) {
    trace.spans.extend(more.spans);
    for (k, v) in more.counters {
        *trace.counters.entry(k).or_insert(0) += v;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
    child: Option<(String, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut trace_out = None;
    let mut child_kind = None;
    let mut child_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            "--child" => child_kind = Some(value()?),
            "--workdir" => child_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let child = match (child_kind, child_dir) {
        (Some(k), Some(d)) => Some((k, d)),
        (None, None) => None,
        _ => return Err("--child and --workdir go together".into()),
    };
    if child.is_some() {
        return Ok(Args {
            workload,
            seed: seed.unwrap_or(0),
            seconds: 0.0,
            traced: false,
            trace_out: None,
            child,
        });
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        trace_out,
        child: None,
    })
}

/// A child process: print one number and exit.
fn child(kind: &str, workload: &str, seed: u64, dir: PathBuf) -> Result<f64, String> {
    let workdir = Workdir::existing(dir);
    match (kind, workload) {
        ("cold-compile", _) => dense::cold_compile_child(),
        ("setup", "dense-translated") => dense::setup_child(seed),
        ("setup", "sparse-scatter") => sparse::setup_child(seed),
        ("setup", "fleet-kmeans") => fleet::setup_child(seed, &workdir.path),
        _ => Err(format!("unknown child {kind} for {workload}")),
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &Outcome) -> Result<(Vec<Metric>, String), String> {
    let setup = median(&out.setup_s).ok_or("no set-up was measured")?;
    let p50 = median(&out.latencies).ok_or("no op finished")?;
    let t = tail(&out.latencies, TAIL_BEYOND).ok_or("no op finished")?;
    let rows_per_s = if out.loop_wall_s > 0.0 {
        out.rows as f64 / out.loop_wall_s
    } else {
        0.0
    };
    let rss = harness::peak_rss_mib()?;
    let summary = format!(
        "setup_s {setup:.4} (median of {} set-ups) | op_p50_s {p50:.4} | op_tail_s {:.4} \
         at p{:.1} ({} of {} samples beyond{}) | rows_per_s {rows_per_s:.0} | \
         failed_frac {} ({}/{}) | peak_rss_mib {rss:.1}",
        out.setup_s.len(),
        t.value,
        t.percentile,
        t.beyond,
        t.samples,
        if t.beyond < TAIL_BEYOND {
            "; too few samples for the tail"
        } else {
            ""
        },
        out.tally.failed_frac(),
        out.tally.failed,
        out.tally.attempted,
    );
    Ok((
        vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("op_p50_s", p50, "s"),
            Metric::new("op_tail_s", t.value, "s"),
            Metric::new("rows_per_s", rows_per_s, "rows/s"),
            Metric::new("ok_frac", out.tally.ok_frac(), "ratio"),
            Metric::new("peak_rss_mib", rss, "MiB"),
        ],
        summary,
    ))
}

/// Every per-layer metric, in table order, 0 where the workload does
/// not exercise the layer.
fn per_layer(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// Export the traced phase as Chrome trace JSON, validate it with the
/// checker `trace-check` uses, and write it to `path` when given.
fn write_trace(trace: &Trace, path: Option<&std::path::Path>) -> Result<String, String> {
    let json = trace.chrome_json();
    let summary = obs::validate_chrome_trace(&json)?;
    if !summary.names.iter().any(|n| n == "perfbench.op") {
        return Err("trace has no perfbench.op span".into());
    }
    if let Some(path) = path {
        std::fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(format!(
        "chrome trace{}: {} events on {} process tracks, trace-check schema ok",
        path.map_or(String::new(), |p| format!(" {}", p.display())),
        summary.events,
        summary.pids
    ))
}

fn run(args: Args) -> Result<(), String> {
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        workdir: Workdir::create()?,
    };
    let steal0 = harness::cpu_steal_ticks();
    let result = match ctx.workload.as_str() {
        "dense-translated" => dense::run(&ctx),
        "sparse-scatter" => sparse::run(&ctx),
        _ => fleet::run(&ctx),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            ctx.workdir.remove();
            return Err(e);
        }
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, harness::cpu_steal_ticks()) {
        if t1 > t0 {
            out.notes.push(format!(
                "host steal: {:.1}% of CPU time during the run",
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            ));
        }
    }
    let head = format!(
        "perfbench {} seed {} ({} s, trace {})",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    let metrics = if ctx.traced {
        if let Some(trace) = &out.trace {
            match write_trace(trace, args.trace_out.as_deref()) {
                Ok(line) => out.notes.push(line),
                Err(e) => {
                    out.correct = false;
                    out.notes.push(format!("trace rejected: {e}"));
                }
            }
        }
        let m = per_layer(&out.layers);
        for x in &m {
            out.notes
                .push(format!("{:<28} {:>16.6} {}", x.name, x.value, x.unit));
        }
        m
    } else {
        let (m, summary) = end_to_end(&out).inspect_err(|_| ctx.workdir.remove())?;
        out.notes.push(summary);
        m
    };
    ctx.workdir.remove();
    println!("{head}");
    for n in &out.notes {
        println!("  {n}");
    }
    let correct = out.correct && out.tally.failed == 0;
    println!("{}", harness::result_json(correct, out.tally, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Register the native codegen backend, as every binary that wants
    // `KernelBackend::Compiled` to mean anything does.
    cfr_codegen::install();
    if let Some((kind, dir)) = args.child.clone() {
        return match child(&kind, &args.workload, args.seed, dir) {
            Ok(x) => {
                println!("{x:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench {kind} child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let code = match run(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    // A hung op's thread is abandoned, not joined; exiting here ends it.
    std::process::exit(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::{Collected, Timed};

    fn ops(oks: &[bool], hung: usize) -> Collected<Timed<bool>> {
        Collected {
            ops: oks
                .iter()
                .enumerate()
                .map(|(i, &ok)| Timed {
                    latency_s: i as f64,
                    out: ok,
                })
                .collect(),
            hung,
            wall_s: 2.0,
        }
    }

    fn why(_: usize, ok: &bool) -> Option<String> {
        (!ok).then(|| "wrong".to_string())
    }

    #[test]
    fn fold_counts_wrong_and_hung_ops_as_failed() {
        let mut out = Outcome::default();
        out.fold(
            "w",
            TraceLevel::Off,
            0.5,
            10,
            &ops(&[true, false, true], 1),
            why,
        );
        assert_eq!((out.tally.attempted, out.tally.failed), (4, 2));
        assert_eq!(out.tally.failed_frac(), 0.5);
        // Every finished op has a latency; only correct ops add rows.
        assert_eq!(out.latencies, vec![0.0, 1.0, 2.0]);
        assert_eq!(out.rows, 20);
        assert_eq!((out.setup_s.clone(), out.loop_wall_s), (vec![0.5], 2.0));
        assert_eq!(out.notes.len(), 2, "{:?}", out.notes);
    }

    #[test]
    fn fold_of_a_traced_loop_only_counts_ops() {
        let mut out = Outcome::default();
        out.fold(
            "w",
            TraceLevel::Phases,
            0.5,
            10,
            &ops(&[true, true], 0),
            why,
        );
        assert_eq!((out.tally.attempted, out.tally.failed), (2, 0));
        assert!(out.latencies.is_empty() && out.setup_s.is_empty());
        assert_eq!((out.rows, out.loop_wall_s), (0, 0.0));
        assert!(out.notes.is_empty());
    }
}
