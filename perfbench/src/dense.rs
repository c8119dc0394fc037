//! `dense-translated`: the paper's Figure 9 shape through the whole
//! translation pipeline. The Chapel k-means source is parsed, checked,
//! detected and compiled at opt-2; the dataset is linearized once; each
//! op is one refinement pass (the FREERIDE `While()` body): linearize
//! the centroid state, build the compiled runner, and run the engine.

use std::sync::Arc;
use std::time::Instant;

use cfr_core::{compile_loop, detect, make_runner, zip_linearize, Detected, Kernel, OptLevel};
use chapel_frontend::programs;
use freeride::{
    CombineOp, DataView, Engine, GroupSpec, JobConfig, JobOutcome, KernelBackend, RObjLayout,
    SplitKernel,
};
use linearize::{Linearizer, Shape, Value};
use obs::{Recorder, Trace, TraceLevel};

use crate::harness::{self, span_attr, span_secs, Metric, Timed};
use crate::stats::{median, unaccounted_frac};
use crate::{layer_span, Ctx, Outcome};

/// Point dimensionality.
const D: usize = 8;
/// Points: 12 MB of `d = 8` reals.
const N: usize = 12 * 1024 * 1024 / 8 / D;
/// Centroids.
const K: usize = 100;
/// Real engine threads.
const THREADS: usize = 2;
/// Relative tolerance of the sums against manual FR (the
/// `kmeans::tests::all_versions_agree` tolerance).
const TOL: f64 = 1e-9;

/// The generated inputs: the point cloud as the nested Chapel value
/// the translated program consumes and as the flat buffer manual FR
/// consumes, plus the starting centroids.
pub struct Inputs {
    flat: Vec<f64>,
    nested: Value,
    init: Vec<f64>,
}

/// Generate the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let (ds, _) = cfr_datagen::clustered_points(N, D, K, 2.5, seed);
    let nested = Value::Array(
        (0..N)
            .map(|r| {
                Value::Record(vec![Value::Array(
                    ds.row(r).iter().map(|&x| Value::Real(x)).collect(),
                )])
            })
            .collect(),
    );
    // `clustered_points` deals point i to cluster i % K, so the first
    // K points seed one centroid per cluster.
    let init = ds.data[..K * D].to_vec();
    Inputs {
        flat: ds.data,
        nested,
        init,
    }
}

/// Everything set-up produces: ready for the first pass.
struct System {
    kernel: Kernel,
    lo: i64,
    opt: OptLevel,
    unit: usize,
    buffer: Vec<f64>,
    engine: Engine,
    layout: Arc<RObjLayout>,
    rec: Arc<Recorder>,
}

fn layout() -> Arc<RObjLayout> {
    RObjLayout::new(vec![GroupSpec::new("newCent", K * (D + 1), CombineOp::Sum)])
}

fn centroid_shape() -> Shape {
    cfr_apps::data::kmeans_centroid_shape(K, D)
}

/// The nested `[1..k] Centroid` state for flat coordinates (counts 0).
fn centroids_value(flat: &[f64]) -> Value {
    Value::Array(
        flat.chunks(D)
            .map(|pos| {
                Value::Record(vec![
                    Value::Array(pos.iter().map(|&x| Value::Real(x)).collect()),
                    Value::Int(0),
                ])
            })
            .collect(),
    )
}

/// The next centroids from a pass's sums (a centroid with no points
/// keeps its position).
fn step(cells: &[f64], old: &[f64]) -> Vec<f64> {
    let mut next = old.to_vec();
    for c in 0..K {
        let count = cells[c * (D + 1) + D];
        if count > 0.0 {
            for j in 0..D {
                next[c * D + j] = cells[c * (D + 1) + j] / count;
            }
        }
    }
    next
}

/// Compile the Chapel k-means reduction loop at opt-2 — the kernel the
/// cold-compile child builds and the set-up loads.
fn compile(rec: &Recorder) -> Result<cfr_core::CompiledLoop, String> {
    let src = programs::kmeans(N, K, D);
    let program = layer_span(rec, "perfbench.frontend.parse", 0, || {
        chapel_frontend::parse(&src)
    })
    .map_err(|e| format!("parse: {e}"))?;
    let analysis = layer_span(rec, "perfbench.sema.analyze", 0, || {
        chapel_sema::analyze(&program)
    })
    .map_err(|e| format!("analyze: {e:?}"))?;
    let red = layer_span(rec, "perfbench.core.detect", 0, || {
        detect(&program, &analysis)
            .detected
            .values()
            .find_map(|x| match x {
                Detected::Loop(l) => Some(l.clone()),
                _ => None,
            })
    })
    .ok_or("k-means reduction loop not detected")?;
    let mut span = rec.span(TraceLevel::Phases, "perfbench.core.compile", "perfbench", 0);
    let compiled =
        compile_loop(&program, &analysis, &red, OptLevel::Opt2).map_err(|e| format!("{e}"))?;
    span.attr_int("instrs", compiled.kernel.code.len() as i64);
    drop(span);
    Ok(compiled)
}

/// From inputs in memory to ready for the first pass.
fn setup(inputs: &Inputs, rec: Arc<Recorder>) -> Result<System, String> {
    let compiled = compile(&rec)?;
    let mut span = rec.span(
        TraceLevel::Phases,
        "perfbench.linearize.dataset",
        "perfbench",
        0,
    );
    let buffer = zip_linearize(
        std::slice::from_ref(&inputs.nested),
        N,
        compiled.dataset.unit,
        false,
        THREADS,
    )
    .map_err(|e| format!("linearize: {e}"))?;
    span.attr_int("bytes", (buffer.len() * 8) as i64);
    drop(span);
    let config = JobConfig {
        backend: KernelBackend::Compiled,
        ..JobConfig::with_threads(THREADS)
    };
    let engine = Engine::with_recorder(config, rec.clone());
    engine.warmup();
    // The first runner loads the kernel from the warm on-disk cache.
    let nested = centroids_value(&inputs.init);
    let flat = Linearizer::new(&centroid_shape())
        .linearize(&nested)
        .map_err(|e| format!("linearize state: {e}"))?
        .buffer;
    let choice = layer_span(&rec, "perfbench.codegen.load", 0, || {
        make_runner(
            KernelBackend::Compiled,
            &compiled.kernel,
            vec![nested],
            vec![flat],
            compiled.lo,
            compiled.opt,
            Some(&rec),
        )
    })
    .map_err(|e| format!("make_runner: {e}"))?;
    drop(choice);
    Ok(System {
        kernel: compiled.kernel,
        lo: compiled.lo,
        opt: compiled.opt,
        unit: compiled.dataset.unit,
        buffer,
        engine,
        layout: layout(),
        rec,
    })
}

/// A measured system and its last centroids, for the traced extras.
type Kept = (Arc<System>, Vec<f64>);

/// One finished pass, kept for the check after the loop.
struct Pass {
    state: Vec<f64>,
    cells: Vec<f64>,
    compiled: bool,
    error: Option<String>,
}

/// Run `runner` over the dataset, recording the engine's own stats on
/// the span.
fn engine_run(sys: &System, runner: &dyn SplitKernel) -> Result<JobOutcome, String> {
    let view = DataView::new(&sys.buffer, sys.unit).map_err(|e| e.to_string())?;
    let mut span = sys
        .rec
        .span(TraceLevel::Phases, "perfbench.freeride.run", "perfbench", 0);
    let out = sys.engine.run(view, &sys.layout, runner);
    crate::stats_attrs(&mut span, &out, sys.layout.total_cells());
    Ok(out)
}

/// Build the runner for `state` on `backend`.
fn runner(
    sys: &System,
    state: &[f64],
    backend: KernelBackend,
) -> Result<cfr_core::RunnerChoice, String> {
    let nested = centroids_value(state);
    let flat = layer_span(&sys.rec, "perfbench.linearize.state", 0, || {
        Linearizer::new(&centroid_shape()).linearize(&nested)
    })
    .map_err(|e| format!("linearize state: {e}"))?
    .buffer;
    layer_span(&sys.rec, "perfbench.codegen.runner", 0, || {
        make_runner(
            backend,
            &sys.kernel,
            vec![nested],
            vec![flat],
            sys.lo,
            sys.opt,
            Some(&sys.rec),
        )
    })
    .map_err(|e| format!("make_runner: {e}"))
}

/// One refinement pass from `state`.
fn pass(sys: &System, state: &[f64]) -> Result<(Vec<f64>, bool), String> {
    let choice = runner(sys, state, KernelBackend::Compiled)?;
    let out = engine_run(sys, choice.runner.as_ref())?;
    Ok((
        out.robj.group_slice(0).to_vec(),
        choice.backend == KernelBackend::Compiled,
    ))
}

/// The hand-written FREERIDE kernel ("manual FR") on `state`.
fn manual_kernel(state: &[f64]) -> Result<freeride_dist::tasks::TaskKernel, String> {
    freeride_dist::tasks::kernel(
        "kmeans",
        &[K as i64, D as i64],
        state,
        KernelBackend::Interpreted,
        None,
    )
    .map_err(|e| e.to_string())
}

/// Whether translated `cells` match manual FR's: counts exactly, sums
/// within [`TOL`].
fn matches_manual(cells: &[f64], manual: &[f64]) -> bool {
    cells.len() == manual.len()
        && cells.iter().zip(manual).enumerate().all(|(i, (x, y))| {
            if i % (D + 1) == D {
                x == y
            } else {
                (x - y).abs() <= TOL * x.abs().max(y.abs()).max(1.0)
            }
        })
}

/// Check every pass against manual FR on the same state; returns each
/// pass's failure, if any.
fn check(passes: &[Timed<Pass>], flat: &[f64]) -> Result<Vec<Option<String>>, String> {
    let engine = Engine::new(JobConfig::with_threads(THREADS));
    let view = DataView::new(flat, D).map_err(|e| e.to_string())?;
    let layout = layout();
    let mut failures = Vec::with_capacity(passes.len());
    for Timed { out: p, .. } in passes {
        failures.push(if let Some(e) = &p.error {
            Some(format!("errored: {e}"))
        } else if !p.compiled {
            Some("fell back from the compiled backend".to_string())
        } else {
            let manual = engine.run(view, &layout, &manual_kernel(&p.state)?);
            (!matches_manual(&p.cells, manual.robj.group_slice(0)))
                .then(|| "differs from manual FR".to_string())
        });
    }
    Ok(failures)
}

/// Set up a fresh system, run `seconds` of passes (one caller, each
/// pass from the previous pass's centroids), check them, and fold them
/// into `out`. Returns the system and the final centroids unless a
/// pass hung.
fn measure(
    inputs: &Inputs,
    level: TraceLevel,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Option<Kept>, String> {
    let t0 = Instant::now();
    let sys = Arc::new(setup(inputs, Arc::new(Recorder::new(level)))?);
    let setup_s = t0.elapsed().as_secs_f64();
    let looped = sys.clone();
    let (got, callers) = harness::closed_loop(
        vec![inputs.init.clone()],
        seconds,
        &sys.rec,
        || true,
        move |state: &mut Vec<f64>| pass(&looped, state),
        |state, result| match result {
            Ok((cells, compiled)) => {
                let next = step(&cells, state);
                Pass {
                    state: std::mem::replace(state, next),
                    cells,
                    compiled,
                    error: None,
                }
            }
            Err(e) => Pass {
                state: state.clone(),
                cells: Vec::new(),
                compiled: false,
                error: Some(e),
            },
        },
    );
    let failures = check(&got.ops, &inputs.flat)?;
    out.fold(
        "dense-translated",
        level,
        setup_s,
        N as u64,
        &got,
        |i, _| failures[i].clone(),
    );
    Ok(callers
        .and_then(|c| c.into_iter().next())
        .map(|state| (sys, state)))
}

/// A fresh process compiles the kernel into the (empty) cache this run
/// owns; prints the seconds `load_or_compile` took.
pub fn cold_compile_child() -> Result<f64, String> {
    let compiled = compile(&Recorder::new(TraceLevel::Off))?;
    let t0 = Instant::now();
    cfr_codegen::load_or_compile(&compiled.kernel, None).map_err(|e| e.to_string())?;
    Ok(t0.elapsed().as_secs_f64())
}

/// A fresh process times one set-up on a warm on-disk cache.
pub fn setup_child(seed: u64) -> Result<f64, String> {
    let inputs = inputs(seed);
    let t0 = Instant::now();
    let sys = setup(&inputs, Arc::new(Recorder::new(TraceLevel::Off)))?;
    let s = t0.elapsed().as_secs_f64();
    drop(sys);
    Ok(s)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Fill the cache this run owns from a fresh process before anything
    // is timed; its time is the cold-compile cost.
    let cold_s = match harness::child_number("cold-compile", &ctx.child_args(), &ctx.workdir.path) {
        Ok(s) => Some(s),
        Err(e) => {
            out.notes
                .push(format!("dense-translated: cold compile: {e}"));
            None
        }
    };
    let inputs = inputs(ctx.seed);
    if !ctx.traced {
        for _ in 0..crate::SETUP_PROBES {
            out.setup_s.push(harness::child_number(
                "setup",
                &ctx.child_args(),
                &ctx.workdir.path,
            )?);
        }
        measure(&inputs, TraceLevel::Off, ctx.seconds, &mut out)?;
        return Ok(out);
    }

    let half = ctx.seconds / 2.0;
    if measure(&inputs, TraceLevel::Off, half, &mut out)?.is_none() {
        return Ok(out);
    }
    let untraced_p50 = median(&out.latencies);
    let Some((sys, state)) = measure(&inputs, TraceLevel::Phases, half, &mut out)? else {
        return Ok(out);
    };
    // Layer metrics come from the loop alone; the extra runs below
    // only add their spans to the written trace.
    let mut trace = sys.rec.drain();
    let vs_manual = extras(&sys, &inputs, &state, &mut out)?;
    out.layers = layers(&trace, untraced_p50, cold_s, vs_manual);
    crate::append(&mut trace, sys.rec.drain());
    out.trace = Some(trace);
    Ok(out)
}

/// The compiled-vs-interpreted bit-identity check; returns the compiled
/// ÷ manual-FR engine time on the same buffer and state.
fn extras(sys: &System, inputs: &Inputs, state: &[f64], out: &mut Outcome) -> Result<f64, String> {
    let compiled = runner(sys, state, KernelBackend::Compiled)?;
    let interpreted = runner(sys, state, KernelBackend::Interpreted)?;
    let a = engine_run(sys, compiled.runner.as_ref())?;
    let b = engine_run(sys, interpreted.runner.as_ref())?;
    let bits = |o: &JobOutcome| -> Vec<u64> {
        o.robj.group_slice(0).iter().map(|x| x.to_bits()).collect()
    };
    if bits(&a) != bits(&b) {
        out.correct = false;
        out.notes
            .push("dense-translated: compiled and interpreted passes differ in bits".into());
    }

    // Manual FR reads rows of D reals; the translated buffer holds
    // exactly that when its unit is D.
    let manual_buf: &[f64] = if sys.unit == D {
        &sys.buffer
    } else {
        &inputs.flat
    };
    let view = DataView::new(manual_buf, D).map_err(|e| e.to_string())?;
    let manual = manual_kernel(state)?;
    let (mut c, mut m) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        engine_run(sys, compiled.runner.as_ref())?;
        c.push(t0.elapsed().as_secs_f64());
        let _span = sys
            .rec
            .span(TraceLevel::Phases, "perfbench.manual.run", "perfbench", 0);
        let t0 = Instant::now();
        sys.engine.run(view, &sys.layout, &manual);
        m.push(t0.elapsed().as_secs_f64());
    }
    Ok(match (median(&c), median(&m)) {
        (Some(c), Some(m)) if m > 0.0 => c / m,
        _ => 0.0,
    })
}

/// The per-layer metrics of the traced phase.
fn layers(
    trace: &Trace,
    untraced_p50: Option<f64>,
    cold_s: Option<f64>,
    vs_manual: f64,
) -> Vec<Metric> {
    let first = |name: &str| span_secs(trace, name).first().copied().unwrap_or(0.0);
    let med = |v: Vec<f64>| median(&v).unwrap_or(0.0);
    let op_p50 = med(span_secs(trace, "perfbench.op"));
    let ops = harness::intervals(trace, "perfbench.op");
    let mut parts = harness::intervals(trace, "perfbench.linearize.state");
    parts.extend(harness::intervals(trace, "perfbench.codegen.runner"));
    parts.extend(harness::intervals(trace, "perfbench.freeride.run"));
    let fallbacks = trace
        .counters
        .get("core.codegen_fallback")
        .copied()
        .unwrap_or(0);
    let mut m = vec![
        Metric::new("frontend.parse_s", first("perfbench.frontend.parse"), "s"),
        Metric::new("sema.analyze_s", first("perfbench.sema.analyze"), "s"),
        Metric::new("core.detect_s", first("perfbench.core.detect"), "s"),
        Metric::new("core.compile_s", first("perfbench.core.compile"), "s"),
        Metric::new(
            "core.kernel_instrs",
            med(span_attr(trace, "perfbench.core.compile", "instrs")),
            "count",
        ),
        Metric::new("codegen.load_s", first("perfbench.codegen.load"), "s"),
        Metric::new("codegen.cold_compile_s", cold_s.unwrap_or(0.0), "s"),
        Metric::new("codegen.fallbacks", fallbacks as f64, "count"),
        Metric::new(
            "codegen.runner_s",
            med(span_secs(trace, "perfbench.codegen.runner")),
            "s",
        ),
        Metric::new("codegen.vs_manual", vs_manual, "ratio"),
        Metric::new(
            "linearize.dataset_s",
            first("perfbench.linearize.dataset"),
            "s",
        ),
        Metric::new(
            "linearize.dataset_bytes",
            med(span_attr(trace, "perfbench.linearize.dataset", "bytes")),
            "bytes",
        ),
        Metric::new(
            "linearize.state_s",
            med(span_secs(trace, "perfbench.linearize.state")),
            "s",
        ),
        Metric::new("unaccounted_frac", unaccounted_frac(&ops, &parts), "ratio"),
    ];
    m.extend(crate::engine_layers(crate::op_runs(trace)));
    m.push(crate::trace_overhead(op_p50, untraced_p50));
    m
}
