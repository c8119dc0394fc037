//! `sparse-scatter`: mode-0, rank-4 MTTKRP passes over a power-law COO
//! tensor, on the sync scheme the inspector planned. Many
//! scattered writes land in a 131k-cell reduction object, so the sync
//! scheme, the combine and the inspector dominate; codegen is bypassed.

use std::sync::Arc;
use std::time::Instant;

use cfr_apps::mttkrp::mttkrp_kernel;
use cfr_sparse::{coo_to_quads, plan_quads, scheme_name, CooTensor, PlanParams, COO_UNIT};
use freeride::{
    CombineOp, DataView, Engine, GroupSpec, JobConfig, JobOutcome, RObjLayout, SyncScheme,
};
use obs::{Recorder, Trace, TraceLevel};

use crate::harness::{self, span_secs, Metric};
use crate::stats::{median, unaccounted_frac};
use crate::{layer_span, Ctx, Outcome};

/// Tensor mode sizes; mode 0 is the scatter target.
const DIMS: [usize; 3] = [32768, 32, 32];
/// Stored entries.
const NNZ: usize = 2_000_000;
/// Power-law skew of the mode-0 coordinates.
const SKEW: f64 = 1.0;
/// Factor rank: the reduction object is `DIMS[0] * RANK` cells.
const RANK: usize = 4;
/// Real engine threads.
const THREADS: usize = 2;
/// Timed passes per scheme when comparing the plan with forced schemes.
const SCHEME_PASSES: usize = 3;
/// MTTKRP passes per op. A pass takes about 0.2 s; at one pass per op
/// the tail (the top ten of ~150 samples a run) is whichever passes a
/// burst of host steal hits. Five passes take about 1 s, like a dense
/// pass, and spread each burst over the batch.
const PASSES_PER_OP: usize = 5;

/// The generated inputs: the tensor and the two integer factors of the
/// modes the MTTKRP multiplies by (integer data keep every sum exact).
pub struct Inputs {
    tensor: CooTensor,
    f1: Vec<f64>,
    f2: Vec<f64>,
}

/// Generate the inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    Inputs {
        tensor: cfr_datagen::sparse_coo(DIMS, NNZ, SKEW, seed),
        f1: cfr_sparse::synthetic::synthetic_factor(DIMS[1], RANK),
        f2: cfr_sparse::synthetic::synthetic_factor(DIMS[2], RANK),
    }
}

/// Everything set-up produces: ready for the first pass.
struct System {
    quads: Vec<f64>,
    scheme: SyncScheme,
    engine: Engine,
    layout: Arc<RObjLayout>,
    rec: Arc<Recorder>,
}

fn layout() -> Arc<RObjLayout> {
    RObjLayout::new(vec![GroupSpec::new("M", DIMS[0] * RANK, CombineOp::Sum)])
}

fn engine(scheme: SyncScheme, rec: Arc<Recorder>) -> Engine {
    let config = JobConfig {
        scheme,
        ..JobConfig::with_threads(THREADS)
    };
    let engine = Engine::with_recorder(config, rec);
    engine.warmup();
    engine
}

/// From inputs in memory to ready for the first pass: lower the tensor
/// to engine rows and let the inspector plan the sync scheme.
fn setup(inputs: &Inputs, rec: Arc<Recorder>) -> Result<System, String> {
    let quads = layer_span(&rec, "perfbench.sparse.lower", 0, || {
        coo_to_quads(&inputs.tensor)
    })
    .map_err(|e| format!("coo_to_quads: {e}"))?;
    let mut span = rec.span(
        TraceLevel::Phases,
        "perfbench.sparse.inspect",
        "perfbench",
        0,
    );
    let (_, plan) = plan_quads(
        &quads,
        0,
        DIMS[0],
        &PlanParams::new(DIMS[0] * RANK, RANK),
        &rec,
    );
    span.attr_str("scheme", scheme_name(plan.scheme));
    span.attr_str("reason", plan.reason);
    drop(span);
    Ok(System {
        quads,
        scheme: plan.scheme,
        engine: engine(plan.scheme, rec.clone()),
        layout: layout(),
        rec,
    })
}

/// One MTTKRP pass on `engine`.
fn pass(sys: &System, engine: &Engine, inputs: &Inputs) -> Result<JobOutcome, String> {
    let view = DataView::new(&sys.quads, COO_UNIT).map_err(|e| e.to_string())?;
    let kernel = mttkrp_kernel(0, RANK, DIMS[0], inputs.f1.clone(), inputs.f2.clone());
    let mut span = sys
        .rec
        .span(TraceLevel::Phases, "perfbench.freeride.run", "perfbench", 0);
    let out = engine.run(view, &sys.layout, &kernel);
    crate::stats_attrs(&mut span, &out, sys.layout.total_cells());
    Ok(out)
}

fn bits(out: &JobOutcome) -> Vec<u64> {
    out.robj
        .group_slice(0)
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// The full-replication result every pass must match bit for bit.
fn reference(sys: &System, inputs: &Inputs) -> Result<Vec<u64>, String> {
    let fr = engine(SyncScheme::FullReplication, Arc::new(Recorder::default()));
    Ok(bits(&pass(sys, &fr, inputs)?))
}

/// One op: [`PASSES_PER_OP`] passes on the planned scheme.
fn batch(sys: &System, inputs: &Inputs) -> Result<Vec<JobOutcome>, String> {
    (0..PASSES_PER_OP)
        .map(|_| pass(sys, &sys.engine, inputs))
        .collect()
}

/// A measured system and its reference bits, for the traced extras.
type Kept = (Arc<System>, Arc<Vec<u64>>);

/// Set up a fresh system, run `seconds` of ops (one caller), compare
/// every pass with the reference outside the op's timed interval, and
/// fold them into `out`. Returns the system unless an op hung.
fn measure(
    inputs: &Arc<Inputs>,
    level: TraceLevel,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Option<Kept>, String> {
    let t0 = Instant::now();
    let sys = Arc::new(setup(inputs, Arc::new(Recorder::new(level)))?);
    let setup_s = t0.elapsed().as_secs_f64();
    let want = Arc::new(reference(&sys, inputs)?);
    let (looped, inputs, expected) = (sys.clone(), inputs.clone(), want.clone());
    let (got, callers) = harness::closed_loop(
        vec![()],
        seconds,
        &sys.rec,
        || true,
        move |_| batch(&looped, &inputs),
        move |_, result| matches!(&result, Ok(o) if o.iter().all(|o| bits(o) == *expected)),
    );
    out.fold(
        "sparse-scatter",
        level,
        setup_s,
        (NNZ * PASSES_PER_OP) as u64,
        &got,
        |_, ok| {
            (!ok).then(|| {
                "a pass errored or differs from the full-replication reference".to_string()
            })
        },
    );
    Ok(callers.map(|_| (sys, want)))
}

/// A fresh process times one set-up.
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
    let inputs = Arc::new(inputs(ctx.seed));
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
    let Some((sys, want)) = measure(&inputs, TraceLevel::Phases, half, &mut out)? else {
        return Ok(out);
    };
    let mut trace = sys.rec.drain();
    let (code, chosen_vs_best) = schemes(&sys, &inputs, &want, &mut out)?;
    out.layers = layers(&trace, untraced_p50, code, chosen_vs_best);
    crate::append(&mut trace, sys.rec.drain());
    out.trace = Some(trace);
    Ok(out)
}

/// Ordinal of a scheme in the `sparse.scheme` metric.
fn scheme_code(s: SyncScheme) -> f64 {
    match s {
        SyncScheme::FullReplication => 0.0,
        SyncScheme::FullLocking => 1.0,
        SyncScheme::BucketLocking { .. } => 2.0,
        SyncScheme::Atomic => 3.0,
        SyncScheme::Hybrid { .. } => 4.0,
    }
}

/// Time the planned scheme against every forced scheme (each must give
/// the reference bits). Returns the planned scheme's code and its pass
/// time ÷ the fastest forced scheme's.
fn schemes(
    sys: &System,
    inputs: &Inputs,
    want: &[u64],
    out: &mut Outcome,
) -> Result<(f64, f64), String> {
    let forced = [
        SyncScheme::FullReplication,
        SyncScheme::FullLocking,
        SyncScheme::BucketLocking { stripes: 64 },
        SyncScheme::Atomic,
    ];
    let mut time = |scheme: SyncScheme| -> Result<f64, String> {
        let engine = engine(scheme, sys.rec.clone());
        let mut t = Vec::new();
        for _ in 0..SCHEME_PASSES {
            let t0 = Instant::now();
            let result = pass(sys, &engine, inputs)?;
            t.push(t0.elapsed().as_secs_f64());
            if bits(&result) != want {
                out.correct = false;
                out.notes.push(format!(
                    "sparse-scatter: scheme {} changed the result",
                    scheme_name(scheme)
                ));
            }
        }
        Ok(median(&t).unwrap_or(0.0))
    };
    let chosen = time(sys.scheme)?;
    let mut best = f64::INFINITY;
    for s in forced {
        best = best.min(time(s)?);
    }
    out.notes.push(format!(
        "sparse-scatter: inspector chose {}",
        scheme_name(sys.scheme)
    ));
    Ok((scheme_code(sys.scheme), chosen / best))
}

/// The per-layer metrics of the traced phase.
fn layers(trace: &Trace, untraced_p50: Option<f64>, code: f64, chosen_vs_best: f64) -> Vec<Metric> {
    let first = |name: &str| span_secs(trace, name).first().copied().unwrap_or(0.0);
    let op_p50 = median(&span_secs(trace, "perfbench.op")).unwrap_or(0.0);
    let ops = harness::intervals(trace, "perfbench.op");
    let parts = harness::intervals(trace, "perfbench.freeride.run");
    let mut m = vec![
        Metric::new("sparse.lower_s", first("perfbench.sparse.lower"), "s"),
        Metric::new("sparse.inspect_s", first("perfbench.sparse.inspect"), "s"),
        Metric::new("sparse.scheme", code, "code"),
        Metric::new("sparse.chosen_vs_best", chosen_vs_best, "ratio"),
        Metric::new("unaccounted_frac", unaccounted_frac(&ops, &parts), "ratio"),
    ];
    m.extend(crate::engine_layers(crate::op_runs(trace)));
    m.push(crate::trace_overhead(op_p50, untraced_p50));
    m
}
