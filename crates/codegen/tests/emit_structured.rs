//! The structured, integer-typed lowering (`emit.rs`):
//!
//! * every canned Chapel program, at every strategy, emits and compiles
//!   with no `Unsupported` shape;
//! * random structured kernels — nested counted loops, while loops,
//!   if/else, short-circuit `&&`/`||`, comparison results used as
//!   numbers, NaN comparisons, negative index registers and counters at
//!   the 2^53 edge — are bit-identical between the interpreter and the
//!   compiled backend;
//! * an irreducible control-flow graph is a typed `Unsupported`.
//!
//! Tests that need `rustc` skip with a notice when it is unavailable.

use cfr_codegen::{emit_kernel, load_or_compile, rustc_available, CompiledKernelRuntime};
use cfr_core::{
    compile_loop, compile_reduce_expr, detect, ArithOp, CmpOp, CodegenError, Detected, Instr,
    Kernel, KernelRuntime, OptLevel,
};
use chapel_frontend::programs;
use freeride::{CombineOp, GroupSpec, RObjHandle, RObjLayout, ReductionObject, Split, SplitKernel};
use linearize::PathMeta;
use proptest::prelude::*;

macro_rules! skip_without_rustc {
    () => {
        if !rustc_available() {
            eprintln!("skipping: rustc unavailable — compiled backend cannot be exercised");
            return;
        }
    };
}

/// Every kernel the translator can produce from the canned programs
/// (Figure 6 only declares data, so it contributes none).
fn program_kernels() -> Vec<(String, Kernel)> {
    let sources = [
        ("fig6_records", programs::fig6_records(2, 3, 4)),
        ("fig8_nested_sum", programs::fig8_nested_sum(2, 3, 4)),
        ("sum_reduce", programs::sum_reduce(10)),
        ("min_reduce_sum_expr", programs::min_reduce_sum_expr(10)),
        ("kmeans", programs::kmeans(20, 3, 2)),
        ("pca", programs::pca(4, 6)),
        ("histogram", programs::histogram(50, 8)),
        ("linear_regression", programs::linear_regression(30)),
        ("knn", programs::knn(20, 2, 3)),
        ("sparse_kmeans", programs::sparse_kmeans(16, 12, 4, 3)),
        (
            "sparse_mttkrp",
            programs::sparse_mttkrp([16, 4, 4], 40, 4, 3),
        ),
    ];
    let mut out = Vec::new();
    for (name, src) in sources {
        let program = chapel_frontend::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let analysis = chapel_sema::analyze(&program).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let detection = detect(&program, &analysis);
        for (stmt, found) in &detection.detected {
            match found {
                Detected::Loop(red) => {
                    for opt in [OptLevel::Generated, OptLevel::Opt1, OptLevel::Opt2] {
                        let c = compile_loop(&program, &analysis, red, opt)
                            .unwrap_or_else(|e| panic!("{name} stmt {stmt} {opt:?}: {e}"));
                        out.push((format!("{name} stmt {stmt} {opt:?}"), c.kernel));
                    }
                }
                Detected::Expr(red) => {
                    let c = compile_reduce_expr(&analysis, red)
                        .unwrap_or_else(|e| panic!("{name} stmt {stmt}: {e}"));
                    out.push((format!("{name} stmt {stmt} reduce"), c.kernel));
                }
            }
        }
    }
    out
}

#[test]
fn every_program_and_strategy_emits() {
    let kernels = program_kernels();
    assert!(kernels.len() >= 20, "only {} kernels", kernels.len());
    for (what, kernel) in &kernels {
        if let Err(e) = emit_kernel(kernel) {
            panic!("{what}: {e:?}");
        }
    }
}

#[test]
fn every_program_and_strategy_compiles() {
    skip_without_rustc!();
    for (what, kernel) in program_kernels() {
        if let Err(e) = load_or_compile(&kernel, None) {
            panic!("{what}: {e:?}");
        }
    }
}

#[test]
fn irreducible_graph_is_unsupported() {
    // Two entries into the loop {pc 3, pc 4}: pc 2 branches to either.
    let kernel = Kernel {
        code: vec![
            Instr::Const { dst: 2, val: 1.0 },
            Instr::Const { dst: 3, val: 0.0 },
            Instr::JumpIfZero { cond: 2, target: 4 },
            Instr::Mov { dst: 3, src: 2 },
            Instr::JumpIfZero { cond: 3, target: 3 },
            Instr::Halt,
        ],
        entry: 2,
        regs: 4,
        paths: vec![],
        state_names: vec![],
        out_names: vec![],
    };
    match emit_kernel(&kernel) {
        Err(CodegenError::Unsupported(msg)) => assert!(msg.contains("irreducible"), "{msg}"),
        Err(other) => panic!("expected Unsupported, got {other:?}"),
        Ok(_) => panic!("an irreducible graph must not emit"),
    }
}

/// Integer sums that leave the exact range must round like f64: the
/// emitter may not keep `2^53 + (2^53 - 1) - 2^53` in an `i64`.
#[test]
fn integer_arithmetic_past_2_pow_53_rounds_like_f64() {
    skip_without_rustc!();
    let e = (1u64 << 53) as f64;
    let kernel = Kernel {
        code: vec![
            Instr::Const { dst: 2, val: e },
            Instr::Const {
                dst: 3,
                val: e - 1.0,
            },
            Instr::Const { dst: 4, val: -e },
            Instr::Const { dst: 7, val: 0.0 },
            Instr::Bin {
                op: ArithOp::Add,
                dst: 5,
                a: 2,
                b: 3,
            },
            Instr::Bin {
                op: ArithOp::Add,
                dst: 6,
                a: 5,
                b: 4,
            },
            Instr::Accumulate {
                group: 0,
                cell: 7,
                val: 6,
            },
            Instr::Halt,
        ],
        entry: 4,
        regs: 8,
        paths: vec![],
        state_names: vec![],
        out_names: vec!["out".into()],
    };
    let (a, b) = both_backends(&kernel, &[0.0; UNIT]);
    assert_eq!(a[0], e, "the interpreter rounds 2^54 - 1 to 2^54");
    assert_eq!(a[0].to_bits(), b[0].to_bits(), "compiled {}", b[0]);
}

// ---------------------------------------------------------------------
// Random structured kernels.
// ---------------------------------------------------------------------

/// Slots per data row.
const UNIT: usize = 4;
/// Reduction-object cells.
const CELLS: usize = 6;
/// The row-data path (one level of `UNIT` slots).
const ROW_PATH: u16 = 0;
/// The output path (`CELLS` scalar cells).
const OUT_PATH: u16 = 1;

/// splitmix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A bytecode builder for one structured kernel: registers are handed
/// out fresh, jump targets patched once known.
struct Gen {
    rng: Rng,
    code: Vec<Instr>,
    preamble: Vec<Instr>,
    regs: u16,
    /// Registers free to read and overwrite.
    floats: Vec<u16>,
    /// Live loop counters: read, never written.
    counters: Vec<u16>,
    /// Registers holding an index in `0..UNIT` (or a negative value
    /// that saturates to 0).
    indices: Vec<u16>,
    /// Read-only integers: constants, some at the ±2^53 edge, and the
    /// results of integer arithmetic on them.
    ints: Vec<u16>,
    /// Row base address register (`DataBase` of r0).
    base: u16,
}

impl Gen {
    fn reg(&mut self) -> u16 {
        self.regs += 1;
        self.regs - 1
    }

    fn konst(&mut self, val: f64) -> u16 {
        let r = self.reg();
        self.preamble.push(Instr::Const { dst: r, val });
        r
    }

    /// A register to read: a float, live counter or integer.
    fn float(&mut self) -> u16 {
        let all = [&self.floats[..], &self.counters, &self.ints].concat();
        self.rng.pick(&all)
    }

    /// A register to write: a fresh one or an existing float.
    fn target(&mut self) -> u16 {
        if self.rng.below(3) == 0 {
            let r = self.reg();
            self.code.push(Instr::Const { dst: r, val: 0.0 });
            self.floats.push(r);
            r
        } else {
            let i = self.rng.below(self.floats.len() as u64) as usize;
            self.floats[i]
        }
    }

    fn patch(&mut self, at: usize, to: usize) {
        match &mut self.code[at] {
            Instr::Jump { target }
            | Instr::JumpIfZero { target, .. }
            | Instr::IncRangeJump { target, .. } => *target = to,
            other => panic!("not a jump: {other:?}"),
        }
    }

    /// One straight-line operation.
    fn op(&mut self) {
        let dst = self.target();
        let (a, b) = (self.float(), self.float());
        let ins = match self.rng.below(10) {
            0 => {
                let k = self.rng.pick(&self.indices.clone());
                Instr::LoadDataAt {
                    dst,
                    base: self.base,
                    k,
                    stride: 1,
                }
            }
            1 => {
                let op = self.rng.pick(&[
                    ArithOp::Add,
                    ArithOp::Sub,
                    ArithOp::Mul,
                    ArithOp::Div,
                    ArithOp::Mod,
                    ArithOp::Min,
                    ArithOp::Max,
                ]);
                Instr::Bin { op, dst, a, b }
            }
            2 => {
                // A comparison result used as a number.
                let c = self.reg();
                let op = self.cmp_op();
                self.code.push(Instr::Cmp { op, dst: c, a, b });
                Instr::Bin {
                    op: ArithOp::Add,
                    dst,
                    a: c,
                    b,
                }
            }
            3 => Instr::Fma { dst, a, b },
            4 => Instr::Mov { dst, src: a },
            5 => Instr::Not { dst, src: a },
            6 => match self.rng.below(4) {
                0 => Instr::Neg { dst, src: a },
                1 => Instr::Floor { dst, src: a },
                2 => Instr::Sqrt { dst, src: a },
                _ => Instr::Abs { dst, src: a },
            },
            7 => {
                // An index register read as a number.
                let k = self.rng.pick(&self.indices.clone());
                Instr::Bin {
                    op: ArithOp::Add,
                    dst,
                    a: k,
                    b,
                }
            }
            8 => Instr::LoadRow { dst },
            _ => {
                // Integer arithmetic, exact or rounding at 2^53, into a
                // register with no other definition.
                let mut pool = self.ints.clone();
                pool.extend(&self.indices);
                let a = self
                    .rng
                    .pick(&[pool.clone(), self.counters.clone()].concat());
                let b = self.rng.pick(&pool);
                let op = self.rng.pick(&[ArithOp::Add, ArithOp::Sub]);
                let dst = self.reg();
                self.ints.push(dst);
                Instr::Bin { op, dst, a, b }
            }
        };
        self.code.push(ins);
    }

    fn cmp_op(&mut self) -> CmpOp {
        self.rng.pick(&[
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ])
    }

    /// A reduction-object update at a constant, index or out-path cell.
    fn accumulate(&mut self) {
        let mut val = self.float();
        if self.rng.below(2) == 0 {
            // 1 / val tells +0.0 from -0.0, which a sum would not.
            let (one, r) = (self.konst(1.0), self.reg());
            self.code.push(Instr::Bin {
                op: ArithOp::Div,
                dst: r,
                a: one,
                b: val,
            });
            val = r;
        }
        let cell = match self.rng.below(3) {
            0 => {
                let c = self.rng.below(CELLS as u64);
                self.konst(c as f64)
            }
            1 => self.rng.pick(&self.indices.clone()),
            _ => {
                let k = self.rng.pick(&self.indices.clone());
                let c = self.reg();
                self.code.push(Instr::OutIndex {
                    dst: c,
                    path: OUT_PATH,
                    idx: vec![k],
                });
                c
            }
        };
        self.code.push(Instr::Accumulate {
            group: 0,
            cell,
            val,
        });
    }

    /// A condition register, possibly `&&`/`||` of two comparisons in
    /// short-circuit form: jumps to the returned pcs mean "false".
    fn condition(&mut self) -> Vec<usize> {
        let cmp = |g: &mut Gen| {
            let c = g.reg();
            let (a, b) = (g.float(), g.float());
            let op = g.cmp_op();
            g.code.push(Instr::Cmp { op, dst: c, a, b });
            c
        };
        match self.rng.below(3) {
            0 => {
                let c = cmp(self);
                self.code.push(Instr::JumpIfZero { cond: c, target: 0 });
                vec![self.code.len() - 1]
            }
            1 => {
                // a && b
                let a = cmp(self);
                self.code.push(Instr::JumpIfZero { cond: a, target: 0 });
                let fa = self.code.len() - 1;
                let b = cmp(self);
                self.code.push(Instr::JumpIfZero { cond: b, target: 0 });
                vec![fa, self.code.len() - 1]
            }
            _ => {
                // a || b
                let a = cmp(self);
                self.code.push(Instr::JumpIfZero { cond: a, target: 0 });
                let check_b = self.code.len() - 1;
                self.code.push(Instr::Jump { target: 0 });
                let to_then = self.code.len() - 1;
                let here = self.code.len();
                self.patch(check_b, here);
                let b = cmp(self);
                self.code.push(Instr::JumpIfZero { cond: b, target: 0 });
                let f = self.code.len() - 1;
                let here = self.code.len();
                self.patch(to_then, here);
                vec![f]
            }
        }
    }

    fn block(&mut self, depth: u32) {
        for _ in 0..1 + self.rng.below(3) {
            self.stmt(depth);
        }
    }

    fn stmt(&mut self, depth: u32) {
        let kind = if depth == 0 { 0 } else { self.rng.below(5) };
        match kind {
            0 => {
                for _ in 0..1 + self.rng.below(3) {
                    self.op();
                }
                if self.rng.below(2) == 0 {
                    self.accumulate();
                }
            }
            1 => self.counted(depth),
            2 => {
                // while w < bound { body; w = w + 1 }
                let w = self.reg();
                let one = self.konst(1.0);
                let n = self.rng.below(UNIT as u64 + 1);
                let bound = self.konst(n as f64);
                self.code.push(Instr::Const { dst: w, val: 0.0 });
                let head = self.code.len();
                let c = self.reg();
                self.code.push(Instr::Cmp {
                    op: CmpOp::Lt,
                    dst: c,
                    a: w,
                    b: bound,
                });
                self.code.push(Instr::JumpIfZero { cond: c, target: 0 });
                let exit = self.code.len() - 1;
                self.indices.push(w);
                self.block(depth - 1);
                self.indices.pop();
                self.code.push(Instr::Bin {
                    op: ArithOp::Add,
                    dst: w,
                    a: w,
                    b: one,
                });
                self.code.push(Instr::Jump { target: head });
                let here = self.code.len();
                self.patch(exit, here);
            }
            _ => {
                // if cond { then } else { else }
                let falses = self.condition();
                self.block(depth - 1);
                let skip = if self.rng.below(2) == 0 {
                    self.code.push(Instr::Jump { target: 0 });
                    Some(self.code.len() - 1)
                } else {
                    None
                };
                let here = self.code.len();
                for f in falses {
                    self.patch(f, here);
                }
                if let Some(skip) = skip {
                    self.block(depth - 1);
                    let here = self.code.len();
                    self.patch(skip, here);
                }
            }
        }
    }

    /// `for v in lo..=hi` in the compiler's shape (optional zero-trip
    /// guard, fused `IncRangeJump` back edge); `v - lo` indexes the row.
    /// Some loops run at the ±2^53 edge of exact f64 integers.
    fn counted(&mut self, depth: u32) {
        let span = self.rng.below(UNIT as u64) as i64;
        let lo: i64 = match self.rng.below(4) {
            0 => (1 << 53) - 1 - span,
            1 => -(1 << 53),
            2 => -(self.rng.below(3) as i64),
            _ => self.rng.below(3) as i64,
        };
        let hi = lo + span - self.rng.below(2) as i64;
        let (lo_r, hi_r) = (self.konst(lo as f64), self.konst(hi as f64));
        let v = self.reg();
        self.code.push(Instr::Mov { dst: v, src: lo_r });
        let guard = if self.rng.below(2) == 0 {
            let c = self.reg();
            self.code.push(Instr::Cmp {
                op: CmpOp::Le,
                dst: c,
                a: v,
                b: hi_r,
            });
            self.code.push(Instr::JumpIfZero { cond: c, target: 0 });
            Some(self.code.len() - 1)
        } else {
            None
        };
        let body = self.code.len();
        let k = self.reg();
        self.code.push(Instr::Bin {
            op: ArithOp::Sub,
            dst: k,
            a: v,
            b: lo_r,
        });
        // k - 2 is negative on the first two trips.
        let (two, k2) = (self.konst(2.0), self.reg());
        self.code.push(Instr::Bin {
            op: ArithOp::Sub,
            dst: k2,
            a: k,
            b: two,
        });
        self.indices.extend([k, k2]);
        self.counters.push(v);
        self.block(depth - 1);
        self.counters.pop();
        self.indices.truncate(self.indices.len() - 2);
        self.code.push(Instr::IncRangeJump {
            var: v,
            hi: hi_r,
            target: body,
        });
        if let Some(g) = guard {
            let here = self.code.len();
            self.patch(g, here);
        }
    }
}

/// A random structured kernel over rows of `UNIT` slots.
fn random_kernel(seed: u64) -> Kernel {
    let mut g = Gen {
        rng: Rng(seed),
        code: Vec::new(),
        preamble: Vec::new(),
        regs: 2,
        floats: Vec::new(),
        counters: Vec::new(),
        indices: Vec::new(),
        ints: Vec::new(),
        base: 0,
    };
    for v in [0.0, -0.0, 1.5, -3.0, f64::NAN, 1e300, (1u64 << 53) as f64] {
        let r = g.konst(v);
        g.floats.push(r);
    }
    g.floats.push(1);
    for v in [0.0, 2.0, -3.0] {
        let r = g.konst(v);
        g.indices.push(r);
    }
    for v in [1i64 << 53, (1 << 53) - 1, -(1 << 53), 1, 7] {
        let r = g.konst(v as f64);
        g.ints.push(r);
    }
    g.base = g.reg();
    g.code.push(Instr::DataBase {
        dst: g.base,
        path: ROW_PATH,
        outer: vec![0],
    });
    g.block(3);
    g.accumulate();
    g.code.push(Instr::Halt);

    let entry = g.preamble.len();
    let mut code = std::mem::take(&mut g.preamble);
    code.extend(g.code.iter().map(|ins| {
        let mut ins = ins.clone();
        if let Instr::Jump { target }
        | Instr::JumpIfZero { target, .. }
        | Instr::IncRangeJump { target, .. } = &mut ins
        {
            *target += entry;
        }
        ins
    }));
    Kernel {
        code,
        entry,
        regs: g.regs as usize,
        paths: vec![
            PathMeta {
                levels: 2,
                unit_size: vec![UNIT, 1],
                unit_offset: vec![vec![], vec![]],
                position: vec![vec![], vec![]],
                level_offset: vec![0],
                terminal_offset: 0,
            },
            PathMeta {
                levels: 1,
                unit_size: vec![1],
                unit_offset: vec![vec![]],
                position: vec![vec![]],
                level_offset: vec![],
                terminal_offset: 0,
            },
        ],
        state_names: vec![],
        out_names: vec!["out".into()],
    }
}

/// Both backends' cells for `kernel` over one split.
fn both_backends(kernel: &Kernel, rows: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let split = Split {
        rows,
        unit: UNIT,
        first_row: 3,
        row_count: rows.len() / UNIT,
    };
    let layout = RObjLayout::new(vec![GroupSpec::new("out", CELLS, CombineOp::Sum)]);
    let interp = KernelRuntime::new(kernel.clone(), vec![], vec![], -2, OptLevel::Opt2)
        .expect("generated kernels validate");
    let mut a = ReductionObject::alloc(layout.clone());
    interp.run_split(&split, &mut a as &mut dyn RObjHandle);
    let loaded =
        load_or_compile(kernel, None).unwrap_or_else(|e| panic!("{e:?}\n{}", kernel.disassemble()));
    let compiled = CompiledKernelRuntime::new(loaded, vec![], vec![], -2);
    let mut b = ReductionObject::alloc(layout);
    compiled.run_split(&split, &mut b as &mut dyn RObjHandle);
    (a.group_slice(0).to_vec(), b.group_slice(0).to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_structured_kernels_are_bit_identical(seed in 0u64..u64::MAX) {
        if !rustc_available() {
            eprintln!("skipping: rustc unavailable — compiled backend cannot be exercised");
            return Ok(());
        }
        let kernel = random_kernel(seed);
        let rows: Vec<f64> = (0..9 * UNIT)
            .map(|i| match i % 7 {
                0 => f64::NAN,
                1 => -0.0,
                _ => ((i * 37 % 23) as f64 - 11.0) * 0.75,
            })
            .collect();
        let (a, b) = both_backends(&kernel, &rows);
        // Bits must match, except that two NaNs match whatever their
        // payloads: Rust leaves a NaN result's sign and payload
        // unspecified, and LLVM may commute `NaN + NaN` in either build.
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "seed {}: cell {}: interpreted {} vs compiled {}\n{}",
                seed,
                i,
                x,
                y,
                kernel.disassemble()
            );
        }
    }
}
