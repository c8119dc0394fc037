//! Lowering kernel-IR bytecode to Rust source.
//!
//! The emitted translation unit contains one exported function,
//! `cfr_kernel_split`, that processes a whole FREERIDE split: the
//! constant preamble runs once, then a row loop executes the
//! per-element body. The body is lowered in three steps, so that rustc
//! sees the same natural loops and integer indices a hand-written
//! FREERIDE kernel has:
//!
//! 1. **Structured control flow.** The body's basic blocks are rebuilt
//!    as structured Rust with the dominator-tree algorithm of Ramsey,
//!    "Beyond Relooper" (ICFP 2022): a loop header becomes a labeled
//!    `'lN: loop {}` whose back edges are `continue 'lN`, and a block
//!    with several forward predecessors (a *merge node*) follows a
//!    labeled `'bN: {}` that its predecessors `break` out of. Every
//!    other block is inlined at its single predecessor, which yields
//!    plain if/else. The strategies compile structured source, so their
//!    graphs are reducible; an irreducible graph is
//!    [`CodegenError::Unsupported`], and the caller falls back to the
//!    interpreter.
//! 2. **Exact-integer registers.** An interval analysis over the same
//!    graph (widening at loop headers to the program's own constants)
//!    bounds every value a register can hold. A register is typed `i64`
//!    when every definition yields an integer of magnitude ≤ 2^53:
//!    integral constants and their moves, counted-loop counters, flat
//!    addresses (`DataBase`, `StateBase`, `OutIndex`), comparison
//!    results and bounded `Add`/`Sub`. Every other register stays
//!    `f64`. Within that range an f64 holds the integer exactly, so
//!    converting with `as f64` at a float use is exact. Index uses keep
//!    the interpreter's saturating `f64 as usize`: a register that may
//!    be negative is clamped at 0 first. The row index `r0` is bounded
//!    by an entry assertion that a split holds fewer than 2^40 rows.
//! 3. **Baked constants.** A use whose interval is a single integer is
//!    emitted as a literal, so loop bounds such as `k` and `d` reach
//!    rustc as constants it can unroll and hoist bounds checks against.
//!
//! Bit-identity with the interpreter holds by construction:
//!
//! * every float instruction lowers to the *same sequence of f64
//!   operations* the interpreter performs — no reassociation, `Fma`
//!   stays an unfused `dst += a * b`; integer registers only ever hold
//!   values the interpreter's f64 holds exactly (never `-0.0` or NaN);
//! * float immediates are emitted as `f64::from_bits(0x…)`, an exact
//!   round-trip;
//! * `computeIndex` is baked in from the kernel's [`PathMeta`] table
//!   with the interpreter's exact formula;
//! * data and flat-state loads are *checked* slice indexes, so a
//!   malformed offset panics just as the interpreter would;
//! * nested-state walks and reduction-object updates call back into the
//!   host (so the generated/opt-1 "complex Chapel structure" cost
//!   profile — the thing opt-2 removes — is preserved even under the
//!   compiled backend).

use cfr_core::{ArithOp, CmpOp, CodegenError, Instr, Kernel, NavStep};
use linearize::PathMeta;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One `LoadStateNested` call site in the emitted code: the compiled
/// function passes the site id and the index-register values back to
/// the host, which performs the nested walk (`state` and `steps` are
/// host-side data the cdylib never sees).
#[derive(Debug, Clone, PartialEq)]
pub struct NestedSite {
    /// Which nested state value to walk.
    pub state: usize,
    /// The navigation steps from its root.
    pub steps: Vec<NavStep>,
}

/// The result of lowering one kernel.
pub struct EmittedKernel {
    /// Complete Rust source of the cdylib.
    pub source: String,
    /// Host-side table for the `nested_load` callback, indexed by the
    /// site id the emitted code passes.
    pub sites: Vec<NestedSite>,
}

/// The exported symbol every emitted cdylib defines.
pub const KERNEL_SYMBOL: &str = "cfr_kernel_split";

/// Largest integer magnitude an f64 holds exactly.
const EXACT: i64 = 1 << 53;

/// Rows one split may hold; bounds the row-index register `r0`.
const MAX_ROWS: i64 = 1 << 40;

/// Largest window a strided load checks at once.
const MAX_WINDOW: u128 = 1 << 16;

/// A kernel register index.
type Reg = u16;

fn unsupported(msg: String) -> CodegenError {
    CodegenError::Unsupported(msg)
}

// ---------------------------------------------------------------------
// Abstract values: what a register may hold at one program point.
// ---------------------------------------------------------------------

/// `Int(lo, hi)`: every value is an integer in `lo..=hi`, with
/// `|lo|, |hi| ≤ 2^53` and never `-0.0`. `Float`: anything else.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Val {
    Int(i64, i64),
    Float,
}

impl Val {
    fn int(lo: i128, hi: i128) -> Val {
        let e = EXACT as i128;
        if -e <= lo && hi <= e {
            Val::Int(lo as i64, hi as i64)
        } else {
            Val::Float
        }
    }

    fn join(self, o: Val) -> Val {
        match (self, o) {
            (Val::Int(a, b), Val::Int(c, d)) => Val::Int(a.min(c), b.max(d)),
            _ => Val::Float,
        }
    }

    /// The value as a constant, when there is exactly one.
    fn single(self) -> Option<i64> {
        match self {
            Val::Int(lo, hi) if lo == hi => Some(lo),
            _ => None,
        }
    }

    /// The range of `v as usize` (negative values saturate to 0).
    fn as_index(self) -> Option<(i128, i128)> {
        match self {
            Val::Int(lo, hi) => Some((lo.max(0) as i128, hi.max(0) as i128)),
            Val::Float => None,
        }
    }
}

/// The abstract value of an f64 immediate.
fn const_val(v: f64) -> Val {
    let exact = v.fract() == 0.0 && v.abs() <= EXACT as f64 && !(v == 0.0 && v.is_sign_negative());
    if exact {
        Val::Int(v as i64, v as i64)
    } else {
        Val::Float
    }
}

/// The range of `computeIndex(meta, idx)`, or `Float` when an index is
/// unbounded or the address may exceed 2^53.
fn index_val(meta: &PathMeta, idx: &[Option<(i128, i128)>]) -> Val {
    if idx.len() != meta.levels || meta.levels == 0 {
        return Val::Float;
    }
    let (mut lo, mut hi) = (0i128, 0i128);
    for (i, ix) in idx.iter().enumerate() {
        let Some((a, b)) = ix else {
            return Val::Float;
        };
        let unit = meta.unit_size[i] as i128;
        let off = if i + 1 < meta.levels {
            meta.level_offset[i]
        } else {
            meta.terminal_offset
        } as i128;
        lo += unit * a + off;
        hi += unit * b + off;
    }
    Val::int(lo, hi)
}

/// Apply one straight-line instruction (or a terminator's register
/// effect) to `st`; returns the value written, if any.
fn transfer(kernel: &Kernel, ins: &Instr, st: &mut [Val]) -> Option<(Reg, Val)> {
    let ix = |st: &[Val], rs: &[Reg]| -> Vec<Option<(i128, i128)>> {
        rs.iter().map(|r| st[*r as usize].as_index()).collect()
    };
    let base = |st: &[Val], path: u16, outer: &[Reg]| {
        let mut v = ix(st, outer);
        v.push(Some((0, 0)));
        index_val(&kernel.paths[path as usize], &v)
    };
    let (dst, v) = match ins {
        Instr::Const { dst, val } => (*dst, const_val(*val)),
        Instr::Mov { dst, src } => (*dst, st[*src as usize]),
        Instr::Bin { op, dst, a, b } => {
            let v = match (op, st[*a as usize], st[*b as usize]) {
                (ArithOp::Add, Val::Int(a0, a1), Val::Int(b0, b1)) => {
                    Val::int(a0 as i128 + b0 as i128, a1 as i128 + b1 as i128)
                }
                (ArithOp::Sub, Val::Int(a0, a1), Val::Int(b0, b1)) => {
                    Val::int(a0 as i128 - b1 as i128, a1 as i128 - b0 as i128)
                }
                _ => Val::Float,
            };
            (*dst, v)
        }
        Instr::Cmp { dst, .. } | Instr::Not { dst, .. } => (*dst, Val::Int(0, 1)),
        Instr::IncRangeJump { var, .. } => {
            let v = match st[*var as usize] {
                Val::Int(lo, hi) => Val::int(lo as i128 + 1, hi as i128 + 1),
                Val::Float => Val::Float,
            };
            (*var, v)
        }
        Instr::DataBase { dst, path, outer }
        | Instr::StateBase {
            dst, path, outer, ..
        } => (*dst, base(st, *path, outer)),
        Instr::OutIndex { dst, path, idx } => {
            (*dst, index_val(&kernel.paths[*path as usize], &ix(st, idx)))
        }
        Instr::Neg { dst, .. }
        | Instr::Floor { dst, .. }
        | Instr::Sqrt { dst, .. }
        | Instr::Abs { dst, .. }
        | Instr::LoadRow { dst }
        | Instr::Fma { dst, .. }
        | Instr::LoadData { dst, .. }
        | Instr::LoadDataAt { dst, .. }
        | Instr::LoadStateNested { dst, .. }
        | Instr::LoadStateFlat { dst, .. }
        | Instr::LoadStateAt { dst, .. } => (*dst, Val::Float),
        Instr::Jump { .. } | Instr::JumpIfZero { .. } | Instr::Accumulate { .. } | Instr::Halt => {
            return None
        }
    };
    st[dst as usize] = v;
    Some((dst, v))
}

// ---------------------------------------------------------------------
// The body's control-flow graph.
// ---------------------------------------------------------------------

/// Basic blocks of the per-element body, with their dominator tree.
struct Cfg {
    /// `[start, end)` pc range of each block.
    span: Vec<(usize, usize)>,
    /// Successors in terminator order (taken/zero edge first), deduped.
    succ: Vec<Vec<usize>>,
    /// Reverse-postorder number; `usize::MAX` for unreachable blocks.
    rpo: Vec<usize>,
    /// Reachable blocks in reverse postorder.
    order: Vec<usize>,
    /// Target of a back edge.
    header: Vec<bool>,
    /// Two or more forward in-edges.
    merge: Vec<bool>,
    /// Dominator-tree children.
    children: Vec<Vec<usize>>,
}

impl Cfg {
    /// The blocks of `kernel`'s body; its jump targets are checked to lie
    /// inside the body.
    fn build(kernel: &Kernel) -> Result<Cfg, CodegenError> {
        let code = &kernel.code;
        let mut leaders: BTreeSet<usize> = BTreeSet::new();
        leaders.insert(kernel.entry);
        for (pc, ins) in code.iter().enumerate().skip(kernel.entry) {
            match ins {
                Instr::Jump { target }
                | Instr::JumpIfZero { target, .. }
                | Instr::IncRangeJump { target, .. } => {
                    leaders.insert(*target);
                    leaders.insert(pc + 1);
                }
                Instr::Halt => {
                    leaders.insert(pc + 1);
                }
                _ => {}
            }
        }
        leaders.retain(|&pc| pc < code.len());
        let starts: Vec<usize> = leaders.into_iter().collect();
        let n = starts.len();
        let block_of = |pc: usize| starts.binary_search(&pc).expect("every target is a leader");
        let mut span = Vec::with_capacity(n);
        let mut succ = Vec::with_capacity(n);
        for (b, &start) in starts.iter().enumerate() {
            let end = starts.get(b + 1).copied().unwrap_or(code.len());
            let mut s = match &code[end - 1] {
                Instr::Jump { target } => vec![block_of(*target)],
                Instr::JumpIfZero { target, .. } | Instr::IncRangeJump { target, .. } => {
                    vec![block_of(*target), b + 1]
                }
                Instr::Halt => vec![],
                // A valid kernel ends in `Halt`, so a fall-through block
                // always has a next block.
                _ => vec![b + 1],
            };
            s.dedup();
            span.push((start, end));
            succ.push(s);
        }

        // Reverse postorder by iterative DFS from the entry block.
        let mut post = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut stack = vec![(0usize, 0usize)];
        seen[0] = true;
        while let Some((b, i)) = stack.pop() {
            if let Some(&s) = succ[b].get(i) {
                stack.push((b, i + 1));
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
            }
        }
        let order: Vec<usize> = post.into_iter().rev().collect();
        let mut rpo = vec![usize::MAX; n];
        for (i, &b) in order.iter().enumerate() {
            rpo[b] = i;
        }
        let mut preds = vec![Vec::new(); n];
        for &b in &order {
            for &s in &succ[b] {
                preds[s].push(b);
            }
        }

        // Dominators (Cooper, Harvey & Kennedy's iterative algorithm).
        let mut idom = vec![usize::MAX; n];
        idom[0] = 0;
        let intersect = |idom: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo[a] > rpo[b] {
                    a = idom[a];
                }
                while rpo[b] > rpo[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.iter().skip(1) {
                let mut new = usize::MAX;
                for &p in &preds[b] {
                    if idom[p] != usize::MAX {
                        new = if new == usize::MAX {
                            p
                        } else {
                            intersect(&idom, p, new)
                        };
                    }
                }
                if idom[b] != new {
                    idom[b] = new;
                    changed = true;
                }
            }
        }
        let dominates = |a: usize, mut b: usize| loop {
            if a == b {
                return true;
            }
            if b == 0 {
                return false;
            }
            b = idom[b];
        };

        let mut header = vec![false; n];
        let mut forward_in = vec![0usize; n];
        for &b in &order {
            for &s in &succ[b] {
                if rpo[s] <= rpo[b] {
                    if !dominates(s, b) {
                        return Err(unsupported(format!(
                            "irreducible control flow: the edge from pc {} to pc {} \
                             enters a loop that pc {} does not head",
                            span[b].1 - 1,
                            span[s].0,
                            span[s].0
                        )));
                    }
                    header[s] = true;
                } else {
                    forward_in[s] += 1;
                }
            }
        }
        let mut children = vec![Vec::new(); n];
        for &b in order.iter().skip(1) {
            children[idom[b]].push(b);
        }
        Ok(Cfg {
            span,
            succ,
            rpo,
            order,
            header,
            merge: forward_in.iter().map(|&k| k >= 2).collect(),
            children,
        })
    }
}

// ---------------------------------------------------------------------
// Interval analysis and register typing.
// ---------------------------------------------------------------------

/// Register types and the abstract state at every reachable block's
/// entry.
struct Facts {
    /// `true` = the register is an `i64` in the emitted code.
    int: Vec<bool>,
    /// State at block entry (`None` = unreachable).
    at: Vec<Option<Vec<Val>>>,
}

/// Widen `new` against `old`: a bound still moving jumps to the next
/// threshold (the program's integer constants ±1, then ±2^53), so the
/// fixpoint terminates; a counter bounded by a constant settles there.
fn widen(old: &[Val], new: &mut [Val], thresholds: &[i64]) {
    for (o, v) in old.iter().zip(new.iter_mut()) {
        if let (Val::Int(olo, ohi), Val::Int(lo, hi)) = (*o, *v) {
            let hi = if hi > ohi {
                *thresholds.iter().find(|&&t| t >= hi).unwrap_or(&EXACT)
            } else {
                hi
            };
            let lo = if lo < olo {
                *thresholds
                    .iter()
                    .rev()
                    .find(|&&t| t <= lo)
                    .unwrap_or(&-EXACT)
            } else {
                lo
            };
            *v = Val::Int(lo, hi);
        }
    }
}

fn analyze(kernel: &Kernel, cfg: &Cfg) -> Facts {
    let n = cfg.span.len();
    let regs = kernel.regs;
    let mut thresholds: Vec<i64> = vec![-EXACT, -1, 0, 1, EXACT];
    for ins in &kernel.code {
        if let Instr::Const { val, .. } = ins {
            if let Some(c) = const_val(*val).single() {
                thresholds.extend([c - 1, c, c + 1]);
            }
        }
    }
    thresholds.retain(|t| t.abs() <= EXACT);
    thresholds.sort_unstable();
    thresholds.dedup();

    // Registers start at 0.0; the preamble sets its constants. A
    // register is an integer iff every definition yields one.
    let mut int = vec![true; regs];
    int[1] = false;
    let mut pre = vec![Val::Int(0, 0); regs];
    for ins in &kernel.code[..kernel.entry] {
        if let Some((r, Val::Float)) = transfer(kernel, ins, &mut pre) {
            int[r as usize] = false;
        }
    }
    // Each row starts from the previous row's registers (or the
    // preamble's), with r0 the local row index and r1 the loop value.
    let row_start = |mut st: Vec<Val>| {
        st[0] = Val::Int(0, MAX_ROWS - 1);
        st[1] = Val::Float;
        st
    };

    let mut at: Vec<Option<Vec<Val>>> = vec![None; n];
    at[0] = Some(row_start(pre));
    let mut visits = vec![0u32; n];
    let mut work: BTreeSet<(usize, usize)> = BTreeSet::new();
    work.insert((0, 0));
    while let Some((_, b)) = work.pop_first() {
        let mut st = at[b].clone().expect("queued blocks are reached");
        let (start, end) = cfg.span[b];
        let mut out: Vec<(usize, Vec<Val>)> = Vec::with_capacity(2);
        for ins in &kernel.code[start..end] {
            transfer(kernel, ins, &mut st);
        }
        match &kernel.code[end - 1] {
            Instr::Halt => out.push((0, row_start(st))),
            Instr::IncRangeJump { var, hi, .. } if cfg.succ[b].len() == 2 => {
                // The back edge is taken only while `var <= hi`.
                let mut taken = st.clone();
                if let (Val::Int(lo, h), Val::Int(_, bound)) = (st[*var as usize], st[*hi as usize])
                {
                    if lo <= h.min(bound) {
                        taken[*var as usize] = Val::Int(lo, h.min(bound));
                    }
                }
                out.push((cfg.succ[b][0], taken));
                out.push((cfg.succ[b][1], st));
            }
            _ => out.extend(cfg.succ[b].iter().map(|&s| (s, st.clone()))),
        }
        for (s, incoming) in out {
            let mut new = match &at[s] {
                Some(old) => old.iter().zip(&incoming).map(|(a, b)| a.join(*b)).collect(),
                None => incoming,
            };
            if let Some(old) = &at[s] {
                if (cfg.header[s] || s == 0) && visits[s] >= 2 {
                    widen(old, &mut new, &thresholds);
                }
                if *old == new {
                    continue;
                }
            }
            visits[s] += 1;
            at[s] = Some(new);
            work.insert((cfg.rpo[s], s));
        }
    }

    for &b in &cfg.order {
        let mut st = at[b].clone().expect("reachable");
        let (start, end) = cfg.span[b];
        for ins in &kernel.code[start..end] {
            if let Some((r, Val::Float)) = transfer(kernel, ins, &mut st) {
                int[r as usize] = false;
            }
        }
    }
    Facts { int, at }
}

// ---------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------

/// A label in scope at the current emission point.
#[derive(PartialEq)]
enum Scope {
    /// `'lN: loop` headed by block N.
    Loop(usize),
    /// `'bN: {}` followed by block N.
    Block(usize),
}

struct Emitter<'k> {
    kernel: &'k Kernel,
    cfg: Cfg,
    facts: Facts,
    sites: Vec<NestedSite>,
    out: String,
    depth: usize,
    scopes: Vec<Scope>,
}

/// An i64 literal.
fn int_lit(c: i64) -> String {
    if c < 0 {
        format!("({c}i64)")
    } else {
        format!("{c}i64")
    }
}

/// An exact f64 literal.
fn float_lit(v: f64) -> String {
    format!("f64::from_bits(0x{:016x}u64)", v.to_bits())
}

impl Emitter<'_> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.depth {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn is_int(&self, r: Reg) -> bool {
        self.facts.int[r as usize]
    }

    /// `r` read as an f64.
    fn f(&self, st: &[Val], r: Reg) -> String {
        match st[r as usize].single() {
            Some(c) => float_lit(c as f64),
            None if self.is_int(r) => format!("(r{r} as f64)"),
            None => format!("r{r}"),
        }
    }

    /// `r` read as an i64; only called where `st` proves it an integer.
    fn i(&self, st: &[Val], r: Reg) -> String {
        match st[r as usize].single() {
            Some(c) => int_lit(c),
            None if self.is_int(r) => format!("r{r}"),
            None => format!("(r{r} as i64)"),
        }
    }

    /// `r` as an index, with the interpreter's saturating `as usize`.
    fn ix(&self, st: &[Val], r: Reg) -> String {
        match st[r as usize] {
            Val::Int(c, d) if c == d => format!("{}usize", c.max(0)),
            Val::Int(lo, _) if self.is_int(r) && lo < 0 => format!("(r{r}.max(0) as usize)"),
            _ => format!("(r{r} as usize)"),
        }
    }

    /// `buf[base + k * stride]`. When the analysis bounds `k`, the load
    /// goes through `at::<W>`, whose window `buf[base..base + W]` covers
    /// every `k` and is one loop-invariant check instead of one per
    /// load; outside the window it is the plain checked index.
    fn strided(&self, st: &[Val], buf: &str, base: Reg, k: Reg, stride: usize) -> String {
        let (b, kx) = (self.ix(st, base), self.ix(st, k));
        let window = st[k as usize]
            .as_index()
            .and_then(|(_, hi)| (hi as u128 * stride as u128).checked_add(1))
            .filter(|&w| w <= MAX_WINDOW);
        match window {
            Some(w) => format!("at::<{w}>({buf}, {b}, {kx} * {stride}usize)"),
            None => format!("{buf}[{b} + {kx} * {stride}usize]"),
        }
    }

    /// `r` as a comparison operand: integers when `st` proves both sides
    /// integral, f64 otherwise (NaN semantics preserved).
    fn cmp_operands(&self, st: &[Val], a: Reg, b: Reg) -> (String, String) {
        if let (Val::Int(..), Val::Int(..)) = (st[a as usize], st[b as usize]) {
            (self.i(st, a), self.i(st, b))
        } else {
            (self.f(st, a), self.f(st, b))
        }
    }

    /// `1`/`0` in `dst`'s type.
    fn bool_to(&self, dst: Reg, cond: &str) -> String {
        if self.is_int(dst) {
            format!("r{dst} = if {cond} {{ 1i64 }} else {{ 0i64 }};")
        } else {
            format!("r{dst} = if {cond} {{ 1.0f64 }} else {{ 0.0f64 }};")
        }
    }

    /// The interpreter's `compute_index_call` formula, constant-folded
    /// against one `PathMeta`:
    /// `Σ_{i<levels-1} (unit_size[i]*idx[i] + level_offset[i])
    ///  + unit_size[last]*idx[last] + terminal_offset`.
    fn index_expr(&self, path: u16, idx: &[String]) -> Result<String, CodegenError> {
        let meta = &self.kernel.paths[path as usize];
        if idx.len() != meta.levels || meta.levels == 0 {
            return Err(unsupported(format!(
                "access path arity mismatch: {} index registers for {} levels",
                idx.len(),
                meta.levels
            )));
        }
        let mut terms: Vec<String> = Vec::new();
        for (i, idx_i) in idx.iter().enumerate() {
            terms.push(format!("{}usize * {}", meta.unit_size[i], idx_i));
            if i + 1 < meta.levels {
                terms.push(format!("{}usize", meta.level_offset[i]));
            } else {
                terms.push(format!("{}usize", meta.terminal_offset));
            }
        }
        Ok(terms.join(" + "))
    }

    /// An address result in `dst`'s type.
    fn addr_to(&self, dst: Reg, e: &str) -> String {
        let ty = if self.is_int(dst) { "i64" } else { "f64" };
        format!("r{dst} = ({e}) as {ty};")
    }

    fn state_slot(&self, state: u16) -> Result<String, CodegenError> {
        if (state as usize) < self.kernel.state_names.len() {
            Ok(format!("s{state}"))
        } else {
            Err(unsupported(format!(
                "flat state #{state} has no declared slot"
            )))
        }
    }

    /// One straight-line instruction, read against the state before it.
    fn instr(&mut self, st: &[Val], ins: &Instr) -> Result<String, CodegenError> {
        let ixs = |regs: &[Reg]| regs.iter().map(|r| self.ix(st, *r)).collect::<Vec<_>>();
        Ok(match ins {
            Instr::Const { dst, val } => match const_val(*val).single() {
                Some(c) if self.is_int(*dst) => format!("r{dst} = {};", int_lit(c)),
                _ => format!("r{dst} = {};", float_lit(*val)),
            },
            Instr::Mov { dst, src } if self.is_int(*dst) => {
                format!("r{dst} = {};", self.i(st, *src))
            }
            Instr::Mov { dst, src } => format!("r{dst} = {};", self.f(st, *src)),
            Instr::Bin { op, dst, a, b } => {
                let (x, y) = if self.is_int(*dst) {
                    (self.i(st, *a), self.i(st, *b))
                } else {
                    (self.f(st, *a), self.f(st, *b))
                };
                match op {
                    ArithOp::Add => format!("r{dst} = {x} + {y};"),
                    ArithOp::Sub => format!("r{dst} = {x} - {y};"),
                    ArithOp::Mul => format!("r{dst} = {x} * {y};"),
                    ArithOp::Div => format!("r{dst} = {x} / {y};"),
                    ArithOp::Mod => format!("r{dst} = {x} % {y};"),
                    ArithOp::Pow => format!("r{dst} = {x}.powf({y});"),
                    ArithOp::Min => format!("r{dst} = {x}.min({y});"),
                    ArithOp::Max => format!("r{dst} = {x}.max({y});"),
                }
            }
            Instr::Cmp { op, dst, a, b } => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                let (x, y) = self.cmp_operands(st, *a, *b);
                self.bool_to(*dst, &format!("{x} {sym} {y}"))
            }
            Instr::Not { dst, src } => {
                let cond = self.is_zero(st, *src);
                self.bool_to(*dst, &cond)
            }
            Instr::Neg { dst, src } => format!("r{dst} = -{};", self.f(st, *src)),
            Instr::Floor { dst, src } => format!("r{dst} = {}.floor();", self.f(st, *src)),
            Instr::Sqrt { dst, src } => format!("r{dst} = {}.sqrt();", self.f(st, *src)),
            Instr::Abs { dst, src } => format!("r{dst} = {}.abs();", self.f(st, *src)),
            Instr::LoadRow { dst } => format!("r{dst} = {};", self.f(st, 1)),
            Instr::Fma { dst, a, b } => {
                format!("r{dst} += {} * {};", self.f(st, *a), self.f(st, *b))
            }

            // ---- Data accesses (computeIndex baked in). ----
            Instr::LoadData { dst, path, idx } => {
                format!("r{dst} = data[{}];", self.index_expr(*path, &ixs(idx))?)
            }
            Instr::DataBase { dst, path, outer }
            | Instr::StateBase {
                dst, path, outer, ..
            } => {
                let mut ix = ixs(outer);
                ix.push("0usize".to_string());
                self.addr_to(*dst, &self.index_expr(*path, &ix)?)
            }
            Instr::LoadDataAt {
                dst,
                base,
                k,
                stride,
            } => format!("r{dst} = {};", self.strided(st, "data", *base, *k, *stride)),

            // ---- State accesses. ----
            Instr::LoadStateNested { dst, state, steps } => {
                let site = self.sites.len();
                self.sites.push(NestedSite {
                    state: *state as usize,
                    steps: steps.clone(),
                });
                let idx: Vec<String> = steps
                    .iter()
                    .filter_map(|s| match s {
                        NavStep::Index(r) => Some(self.f(st, *r)),
                        NavStep::Field(_) => None,
                    })
                    .collect();
                if idx.is_empty() {
                    format!("r{dst} = nested_load(ctx, {site}usize, core::ptr::null(), 0usize);")
                } else {
                    format!(
                        "{{ let __i: [f64; {n}] = [{list}]; r{dst} = nested_load(ctx, {site}usize, __i.as_ptr(), {n}usize); }}",
                        n = idx.len(),
                        list = idx.join(", "),
                    )
                }
            }
            Instr::LoadStateFlat {
                dst,
                state,
                path,
                idx,
            } => format!(
                "r{dst} = {}[{}];",
                self.state_slot(*state)?,
                self.index_expr(*path, &ixs(idx))?
            ),
            Instr::LoadStateAt {
                dst,
                state,
                base,
                k,
                stride,
            } => {
                let slot = self.state_slot(*state)?;
                format!("r{dst} = {};", self.strided(st, &slot, *base, *k, *stride))
            }
            Instr::OutIndex { dst, path, idx } => {
                self.addr_to(*dst, &self.index_expr(*path, &ixs(idx))?)
            }
            Instr::Accumulate { group, cell, val } => format!(
                "accumulate(ctx, {group}usize, {}, {});",
                self.ix(st, *cell),
                self.f(st, *val)
            ),
            Instr::Jump { .. }
            | Instr::JumpIfZero { .. }
            | Instr::IncRangeJump { .. }
            | Instr::Halt => unreachable!("terminators are lowered by `block`"),
        })
    }

    /// `r == 0` in the register's proven domain.
    fn is_zero(&self, st: &[Val], r: Reg) -> String {
        if let Val::Int(..) = st[r as usize] {
            format!("{} == 0i64", self.i(st, r))
        } else {
            format!("{} == 0.0f64", self.f(st, r))
        }
    }

    /// Ramsey's `doTree`: block `x` and everything it dominates.
    fn tree(&mut self, x: usize) -> Result<(), CodegenError> {
        let mut merges: Vec<usize> = self.cfg.children[x]
            .iter()
            .copied()
            .filter(|&c| self.cfg.merge[c])
            .collect();
        merges.sort_by_key(|&c| std::cmp::Reverse(self.cfg.rpo[c]));
        if self.cfg.header[x] {
            self.line(&format!("'l{x}: loop {{"));
            self.depth += 1;
            self.scopes.push(Scope::Loop(x));
            self.within(x, &merges)?;
            self.scopes.pop();
            self.depth -= 1;
            self.line("}");
            Ok(())
        } else {
            self.within(x, &merges)
        }
    }

    /// Ramsey's `nodeWithin`: `x`'s code nested inside one labeled block
    /// per merge child, each child placed after its block (highest
    /// reverse-postorder number outermost).
    fn within(&mut self, x: usize, merges: &[usize]) -> Result<(), CodegenError> {
        let Some((&y, rest)) = merges.split_first() else {
            return self.block(x);
        };
        self.line(&format!("'b{y}: {{"));
        self.depth += 1;
        self.scopes.push(Scope::Block(y));
        self.within(x, rest)?;
        self.scopes.pop();
        self.depth -= 1;
        self.line("}");
        self.tree(y)
    }

    /// Control transfer along the edge `from → to`.
    fn branch(&mut self, from: usize, to: usize) -> Result<(), CodegenError> {
        let (scope, stmt) = if self.cfg.rpo[to] <= self.cfg.rpo[from] {
            (Scope::Loop(to), format!("continue 'l{to};"))
        } else if self.cfg.merge[to] {
            (Scope::Block(to), format!("break 'b{to};"))
        } else {
            return self.tree(to);
        };
        if !self.scopes.contains(&scope) {
            return Err(unsupported(format!(
                "no enclosing label for the edge to pc {}",
                self.cfg.span[to].0
            )));
        }
        self.line(&stmt);
        Ok(())
    }

    /// Branch on `cond` to `x`'s first (taken) or second successor; a
    /// single successor needs no test.
    fn branch_on(&mut self, x: usize, cond: &str) -> Result<(), CodegenError> {
        let succ = self.cfg.succ[x].clone();
        let [t, f] = succ[..] else {
            return self.branch(x, succ[0]);
        };
        self.line(&format!("if {cond} {{"));
        self.depth += 1;
        self.branch(x, t)?;
        self.depth -= 1;
        self.line("} else {");
        self.depth += 1;
        self.branch(x, f)?;
        self.depth -= 1;
        self.line("}");
        Ok(())
    }

    /// Block `x`'s straight-line code and its terminator.
    fn block(&mut self, x: usize) -> Result<(), CodegenError> {
        let kernel = self.kernel;
        let mut st = self.facts.at[x]
            .clone()
            .expect("emitted blocks are reached");
        let (start, end) = self.cfg.span[x];
        let (last, body) = kernel.code[start..end]
            .split_last()
            .expect("blocks are non-empty");
        for ins in body {
            let l = self.instr(&st, ins)?;
            self.line(&l);
            transfer(kernel, ins, &mut st);
        }
        match last {
            Instr::Halt => {
                self.line("continue 'rows;");
                Ok(())
            }
            Instr::Jump { .. } => self.branch(x, self.cfg.succ[x][0]),
            Instr::JumpIfZero { cond, .. } => {
                let c = self.is_zero(&st, *cond);
                self.branch_on(x, &c)
            }
            Instr::IncRangeJump { var, hi, .. } => {
                let inc = if self.is_int(*var) {
                    format!("r{var} = {} + 1i64;", self.i(&st, *var))
                } else {
                    format!("r{var} = {} + 1.0f64;", self.f(&st, *var))
                };
                self.line(&inc);
                transfer(kernel, last, &mut st);
                let (v, h) = self.cmp_operands(&st, *var, *hi);
                self.branch_on(x, &format!("{v} <= {h}"))
            }
            // A block that ends without a terminator falls through.
            other => {
                let l = self.instr(&st, other)?;
                self.line(&l);
                self.branch(x, self.cfg.succ[x][0])
            }
        }
    }
}

/// Lower `kernel` to Rust source plus its nested-site table.
///
/// Errors are [`CodegenError::Unsupported`] naming the construct; the
/// caller falls back to the interpreter.
pub fn emit_kernel(kernel: &Kernel) -> Result<EmittedKernel, CodegenError> {
    let code = &kernel.code;
    if kernel.entry > code.len() {
        return Err(unsupported(format!(
            "entry {} beyond code length {}",
            kernel.entry,
            code.len()
        )));
    }
    // Every jump target inside the body, checked first so the error
    // names it; then the structural invariants the analysis indexes by.
    for (pc, ins) in code.iter().enumerate().skip(kernel.entry) {
        if let Instr::Jump { target }
        | Instr::JumpIfZero { target, .. }
        | Instr::IncRangeJump { target, .. } = ins
        {
            if *target < kernel.entry || *target >= code.len() {
                return Err(unsupported(format!(
                    "jump at pc {pc} targets {target}, outside the body"
                )));
            }
        }
    }
    kernel
        .validate(usize::MAX, usize::MAX)
        .map_err(|e| unsupported(format!("invalid kernel: {e}")))?;
    if kernel.regs < 2 {
        return Err(unsupported(format!(
            "{} registers; the row registers r0 and r1 need 2",
            kernel.regs
        )));
    }
    if let Some((pc, other)) = code[..kernel.entry]
        .iter()
        .enumerate()
        .find(|(_, i)| !matches!(i, Instr::Const { .. }))
    {
        return Err(unsupported(format!(
            "non-constant instruction {other:?} in preamble at pc {pc}"
        )));
    }

    let cfg = Cfg::build(kernel)?;
    let facts = analyze(kernel, &cfg);
    let mut em = Emitter {
        kernel,
        cfg,
        facts,
        sites: Vec::new(),
        out: String::new(),
        depth: 2,
        scopes: Vec::new(),
    };
    em.tree(0)?;
    let body = std::mem::take(&mut em.out);

    // ---- Preamble: constants only, once per split. ----
    let mut preamble = String::new();
    let pre_state = vec![Val::Int(0, 0); kernel.regs];
    for ins in &code[..kernel.entry] {
        let _ = writeln!(preamble, "    {}", em.instr(&pre_state, ins)?);
    }

    // ---- Registers and flat-state views. ----
    let mut decls = String::new();
    for r in 0..kernel.regs {
        let ty = if em.facts.int[r] {
            "i64 = 0"
        } else {
            "f64 = 0.0"
        };
        let _ = writeln!(decls, "    let mut r{r}: {ty};");
    }
    let mut states = String::new();
    for s in 0..kernel.state_names.len() {
        let _ = writeln!(
            states,
            "    let s{s}: &[f64] = if {s}usize < n_flat {{ \
             core::slice::from_raw_parts((*flat.add({s})).ptr, (*flat.add({s})).len) }} \
             else {{ &[] }};"
        );
    }
    let row_index = if em.facts.int[0] { "i64" } else { "f64" };

    let source = format!(
        r#"//! Generated by cfr-codegen from kernel bytecode — do not edit.
#![allow(unused_variables, unused_mut, unused_assignments, unused_parens, unused_labels, unused_comparisons, dead_code, unreachable_code)]

/// A borrowed flat-state buffer (opt-2 linearized state), ABI-stable.
#[repr(C)]
pub struct FlatView {{
    pub ptr: *const f64,
    pub len: usize,
}}

/// `s[base + off]` for `off < W`: one check of the window
/// `s[base..base + W]`, else the plain checked index.
#[inline(always)]
fn at<const W: usize>(s: &[f64], base: usize, off: usize) -> f64 {{
    match s.get(base..).and_then(|t| t.first_chunk::<W>()) {{
        Some(w) => w[off],
        None => s[base + off],
    }}
}}

/// cfr kernel ABI v1: process one split. `ctx` is an opaque host
/// pointer threaded back through the `accumulate` (reduction-object
/// update) and `nested_load` (nested Chapel-state walk) callbacks.
#[no_mangle]
pub unsafe extern "C-unwind" fn {KERNEL_SYMBOL}(
    rows: *const f64,
    rows_len: usize,
    row_count: usize,
    first_row: usize,
    row_lo: i64,
    flat: *const FlatView,
    n_flat: usize,
    ctx: *mut u8,
    accumulate: extern "C-unwind" fn(*mut u8, usize, usize, f64),
    nested_load: extern "C-unwind" fn(*mut u8, usize, *const f64, usize) -> f64,
) {{
    // The row index r0 is typed as an exact integer below 2^40.
    assert!(row_count <= {MAX_ROWS}usize, "split of more than 2^40 rows");
    let data: &[f64] = core::slice::from_raw_parts(rows, rows_len);
{states}{decls}{preamble}    'rows: for __local in 0..row_count {{
        r0 = __local as {row_index};
        r1 = (row_lo + (first_row + __local) as i64) as f64;
{body}    }}
}}
"#
    );

    Ok(EmittedKernel {
        source,
        sites: em.sites,
    })
}
