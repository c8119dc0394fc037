//! End-to-end identity tests: the compiled backend must be
//! **bit-identical** to the interpreter on the same kernel, split, and
//! state — for hand-built kernels covering every instruction family.
//!
//! Tests that need `rustc` skip with a notice when it is unavailable,
//! so the suite stays green on stripped containers (the production path
//! degrades the same way, to the interpreter).

use cfr_codegen::{load_or_compile, rustc_available, CompiledKernelRuntime};
use cfr_core::{ArithOp, CmpOp, Instr, Kernel, KernelRuntime, NavStep, OptLevel};
use freeride::{CombineOp, GroupSpec, RObjHandle, RObjLayout, ReductionObject, Split, SplitKernel};
use linearize::{PathMeta, Value};

fn scalar_layout(cells: usize) -> std::sync::Arc<RObjLayout> {
    RObjLayout::new(vec![GroupSpec::new("out", cells, CombineOp::Sum)])
}

/// One split of input: rows of `unit` slots from global row
/// `first_row`, whose Chapel loop value is `row_lo + first_row`.
struct Rows<'a> {
    rows: &'a [f64],
    unit: usize,
    first_row: usize,
    row_lo: i64,
}

/// Run `kernel` through both backends over the same split; return both
/// reduction objects' group-0 cells.
fn run_both(
    kernel: &Kernel,
    input: Rows<'_>,
    nested: Vec<Value>,
    flat: Vec<Vec<f64>>,
    cells: usize,
) -> (Vec<f64>, Vec<f64>) {
    let Rows {
        rows,
        unit,
        first_row,
        row_lo,
    } = input;
    let split = Split {
        rows,
        unit,
        first_row,
        row_count: rows.len() / unit,
    };
    let layout = scalar_layout(cells);

    let interp = KernelRuntime::new(
        kernel.clone(),
        nested.clone(),
        flat.clone(),
        row_lo,
        OptLevel::Opt2,
    )
    .expect("valid kernel");
    let mut robj_i = ReductionObject::alloc(layout.clone());
    SplitKernel::run_split(&interp, &split, &mut robj_i as &mut dyn RObjHandle);

    let loaded = load_or_compile(kernel, None).expect("codegen");
    let compiled = CompiledKernelRuntime::new(loaded, nested, flat, row_lo);
    let mut robj_c = ReductionObject::alloc(layout);
    compiled.run_split(&split, &mut robj_c as &mut dyn RObjHandle);

    (
        robj_i.group_slice(0).to_vec(),
        robj_c.group_slice(0).to_vec(),
    )
}

fn assert_bit_identical(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "cell {i}: interpreted {x} vs compiled {y}"
        );
    }
}

macro_rules! skip_without_rustc {
    () => {
        if !rustc_available() {
            eprintln!("skipping: rustc unavailable — compiled backend cannot be exercised");
            return;
        }
    };
}

/// Straight-line arithmetic over every `ArithOp`/`CmpOp`, plus the
/// unary ops, accumulated into one cell: `out[0] += f(row)`.
#[test]
fn arithmetic_identity() {
    skip_without_rustc!();
    let flat_path = PathMeta {
        levels: 1,
        unit_size: vec![1],
        unit_offset: vec![vec![]],
        position: vec![vec![]],
        level_offset: vec![],
        terminal_offset: 0,
    };
    // r2 = data[r0]; chain of ops into r3; accumulate cell 0.
    let mut code = vec![
        Instr::Const { dst: 4, val: 0.0 }, // preamble: cell index 0
        Instr::Const { dst: 5, val: 0.327 },
    ];
    let entry = code.len();
    code.extend([
        Instr::LoadData {
            dst: 2,
            path: 0,
            idx: vec![0],
        },
        Instr::Bin {
            op: ArithOp::Mul,
            dst: 3,
            a: 2,
            b: 5,
        },
        Instr::Bin {
            op: ArithOp::Add,
            dst: 3,
            a: 3,
            b: 2,
        },
        Instr::Bin {
            op: ArithOp::Div,
            dst: 3,
            a: 3,
            b: 5,
        },
        Instr::Bin {
            op: ArithOp::Sub,
            dst: 3,
            a: 3,
            b: 2,
        },
        Instr::Bin {
            op: ArithOp::Mod,
            dst: 3,
            a: 3,
            b: 5,
        },
        Instr::Bin {
            op: ArithOp::Pow,
            dst: 3,
            a: 3,
            b: 5,
        },
        Instr::Sqrt { dst: 3, src: 3 },
        Instr::Abs { dst: 3, src: 3 },
        Instr::Floor { dst: 6, src: 2 },
        Instr::Bin {
            op: ArithOp::Min,
            dst: 3,
            a: 3,
            b: 6,
        },
        Instr::Bin {
            op: ArithOp::Max,
            dst: 3,
            a: 3,
            b: 2,
        },
        Instr::Neg { dst: 6, src: 3 },
        Instr::Cmp {
            op: CmpOp::Lt,
            dst: 7,
            a: 6,
            b: 3,
        },
        Instr::Not { dst: 7, src: 7 },
        Instr::Bin {
            op: ArithOp::Add,
            dst: 3,
            a: 3,
            b: 7,
        },
        Instr::Fma { dst: 3, a: 2, b: 5 },
        Instr::Accumulate {
            group: 0,
            cell: 4,
            val: 3,
        },
        Instr::Halt,
    ]);
    let kernel = Kernel {
        code,
        entry,
        regs: 8,
        paths: vec![flat_path],
        state_names: vec![],
        out_names: vec!["out".into()],
    };
    let rows: Vec<f64> = (0..64).map(|i| (i as f64) * 0.61 - 7.3).collect();
    let (a, b) = run_both(
        &kernel,
        Rows {
            rows: &rows,
            unit: 1,
            first_row: 5,
            row_lo: 1,
        },
        vec![],
        vec![],
        1,
    );
    assert_bit_identical(&a, &b);
}

/// Control flow: a counted inner loop (`IncRangeJump`) with an if/else
/// (`JumpIfZero` + `Jump`) inside — the opt-1/opt-2 loop shape.
#[test]
fn control_flow_identity() {
    skip_without_rustc!();
    let path = PathMeta {
        levels: 2,
        unit_size: vec![4, 1],
        unit_offset: vec![vec![], vec![]],
        position: vec![vec![], vec![]],
        level_offset: vec![0],
        terminal_offset: 0,
    };
    let mut code = vec![
        Instr::Const { dst: 2, val: 0.0 }, // k lo
        Instr::Const { dst: 3, val: 3.0 }, // k hi (inclusive)
        Instr::Const { dst: 8, val: 0.0 }, // cell 0
        Instr::Const { dst: 9, val: 2.0 }, // threshold
    ];
    let entry = code.len();
    code.extend([
        // r4 = k = lo
        Instr::Mov { dst: 4, src: 2 },
        // acc r5 = 0
        Instr::Const { dst: 5, val: 0.0 },
        // body: r6 = data[r0][r4]
        Instr::LoadData {
            dst: 6,
            path: 0,
            idx: vec![0, 4],
        },
        // if r6 < r9 { r5 += r6 } else { r5 += r6 * r6 }
        Instr::Cmp {
            op: CmpOp::Lt,
            dst: 7,
            a: 6,
            b: 9,
        },
        Instr::JumpIfZero {
            cond: 7,
            target: entry + 7,
        }, // → else
        Instr::Bin {
            op: ArithOp::Add,
            dst: 5,
            a: 5,
            b: 6,
        },
        Instr::Jump { target: entry + 8 }, // → join
        Instr::Fma { dst: 5, a: 6, b: 6 }, // else
        // join: back-edge
        Instr::IncRangeJump {
            var: 4,
            hi: 3,
            target: entry + 2,
        },
        Instr::Accumulate {
            group: 0,
            cell: 8,
            val: 5,
        },
        Instr::Halt,
    ]);
    let kernel = Kernel {
        code,
        entry,
        regs: 10,
        paths: vec![path],
        state_names: vec![],
        out_names: vec!["out".into()],
    };
    let rows: Vec<f64> = (0..32 * 4).map(|i| ((i * 37) % 11) as f64 * 0.5).collect();
    let (a, b) = run_both(
        &kernel,
        Rows {
            rows: &rows,
            unit: 4,
            first_row: 0,
            row_lo: 1,
        },
        vec![],
        vec![],
        1,
    );
    assert_bit_identical(&a, &b);
}

/// State accesses: a nested walk (generated-style, via the host
/// callback) and a flat load (opt-2-style) must both match.
#[test]
fn state_access_identity() {
    skip_without_rustc!();
    let data_path = PathMeta {
        levels: 1,
        unit_size: vec![1],
        unit_offset: vec![vec![]],
        position: vec![vec![]],
        level_offset: vec![],
        terminal_offset: 0,
    };
    let state_path = PathMeta {
        levels: 1,
        unit_size: vec![1],
        unit_offset: vec![vec![]],
        position: vec![vec![]],
        level_offset: vec![],
        terminal_offset: 0,
    };
    let mut code = vec![
        Instr::Const { dst: 8, val: 0.0 },
        Instr::Const { dst: 9, val: 3.0 },
    ];
    let entry = code.len();
    code.extend([
        Instr::LoadData {
            dst: 2,
            path: 0,
            idx: vec![0],
        },
        // r3 = r2 % 3 → index register for both state reads
        Instr::Bin {
            op: ArithOp::Mod,
            dst: 3,
            a: 2,
            b: 9,
        },
        // nested walk: state0[r3]
        Instr::LoadStateNested {
            dst: 4,
            state: 0,
            steps: vec![NavStep::Index(3)],
        },
        // flat load: state1[r3]
        Instr::LoadStateFlat {
            dst: 5,
            state: 1,
            path: 1,
            idx: vec![3],
        },
        Instr::Fma { dst: 6, a: 4, b: 5 },
        Instr::Accumulate {
            group: 0,
            cell: 8,
            val: 6,
        },
        Instr::Halt,
    ]);
    let kernel = Kernel {
        code,
        entry,
        regs: 10,
        paths: vec![data_path, state_path],
        state_names: vec!["nested".into(), "flat".into()],
        out_names: vec!["out".into()],
    };
    let nested = vec![
        Value::Array(vec![
            Value::Real(1.25),
            Value::Real(-2.5),
            Value::Real(0.75),
        ]),
        Value::Array(vec![]), // state 1 is flat-only
    ];
    let flat = vec![Vec::new(), vec![10.0, 20.0, 30.0]];
    let rows: Vec<f64> = (0..48).map(|i| i as f64).collect();
    let (a, b) = run_both(
        &kernel,
        Rows {
            rows: &rows,
            unit: 1,
            first_row: 0,
            row_lo: 1,
        },
        nested,
        flat,
        1,
    );
    assert_bit_identical(&a, &b);
    assert_ne!(a[0], 0.0, "test must exercise the state reads");
}

/// The process-wide cache: compiling the same kernel twice returns the
/// same loaded artifact (same source hash), and instantiation with
/// fresh state is cheap.
#[test]
fn cache_returns_same_artifact() {
    skip_without_rustc!();
    let kernel = Kernel {
        code: vec![
            Instr::Const { dst: 2, val: 0.0 },
            Instr::LoadData {
                dst: 3,
                path: 0,
                idx: vec![0],
            },
            Instr::Accumulate {
                group: 0,
                cell: 2,
                val: 3,
            },
            Instr::Halt,
        ],
        entry: 1,
        regs: 4,
        paths: vec![PathMeta {
            levels: 1,
            unit_size: vec![1],
            unit_offset: vec![vec![]],
            position: vec![vec![]],
            level_offset: vec![],
            terminal_offset: 0,
        }],
        state_names: vec![],
        out_names: vec!["out".into()],
    };
    let a = load_or_compile(&kernel, None).unwrap();
    let b = load_or_compile(&kernel, None).unwrap();
    assert_eq!(a.source_hash, b.source_hash);
    assert!(std::sync::Arc::ptr_eq(&a, &b), "memory cache must hit");
}

/// Unsupported shapes surface as typed errors (here: a jump out of the
/// body), which the dispatch layer turns into interpreter fallback.
#[test]
fn unsupported_shape_is_typed_error() {
    let kernel = Kernel {
        code: vec![Instr::Jump { target: 99 }, Instr::Halt],
        entry: 0,
        regs: 2,
        paths: vec![],
        state_names: vec![],
        out_names: vec![],
    };
    match cfr_codegen::emit_kernel(&kernel) {
        Err(cfr_core::CodegenError::Unsupported(msg)) => {
            assert!(msg.contains("99"), "names the target: {msg}")
        }
        Err(other) => panic!("expected Unsupported, got {other:?}"),
        Ok(_) => panic!("expected Unsupported, got successful emission"),
    }
}
