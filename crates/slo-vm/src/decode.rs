//! Pre-decoded execution engine: the fast path of the interpreter.
//!
//! [`DecodedProgram::new`] flattens every defined function into a dense
//! instruction stream ([`DInstr`]) in which everything the structured
//! interpreter resolves per step is resolved once:
//!
//! * `fieldaddr` carries its byte offset, `indexaddr` its element size
//!   (no `TypeTable::layout_of`/`size_of` in the hot loop);
//! * basic-block targets are direct instruction-stream indices;
//! * scalar-kind dispatch (int vs float vs pointer load/store, cast
//!   direction) is baked into distinct opcodes;
//! * direct calls know at decode time whether the callee is defined or
//!   an external/libc function (resolved to an [`ExternFn`]);
//! * every memory-touching instruction gets a dense per-function
//!   *memory site* index, and every CFG edge a dense *edge site*
//!   index, so profile bookkeeping (stride histograms, PMU samples,
//!   edge counters) is plain `Vec` indexing instead of
//!   `HashMap<InstrRef, _>` lookups.
//!
//! The decoded engine is observationally identical to the structured
//! one in `interp.rs`: same exit values, same instruction and cycle
//! counts (flattening is strictly 1:1, so `VmOptions::step_limit`
//! behaves identically), same cache statistics (accesses happen in the
//! same order at the same addresses), and the same [`Feedback`]
//! profiles. `tests/vm_differential.rs` asserts this for every bundled
//! workload.

use crate::cache::CacheSim;
use crate::heap::{Heap, MemError, ScalarValue};
use crate::interp::{ExecError, ExecOutcome, ExecStats, VmOptions, FNPTR_BASE};
use crate::profile::Feedback;
use crate::value::Value;
use slo_ir::{BinOp, CmpOp, FuncId, Instr, Operand, Program, Reg, ScalarKind, Type};

/// Sentinel meaning "this memory site has not been executed yet" in a
/// stride table's last address. Real data addresses never take this value:
/// the heap hands out low addresses and function pointers live at
/// `FNPTR_BASE + index`.
const NO_ADDR: u64 = u64::MAX;

/// External/libc call semantics, resolved from the function name once
/// at decode time (the structured engine string-matches per call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternFn {
    /// `sqrt(f64)`.
    Sqrt,
    /// `fabs(f64)`.
    Fabs,
    /// `exp(f64)`.
    Exp,
    /// `log(f64)` (clamped away from zero).
    Log,
    /// `sin(f64)`.
    Sin,
    /// `cos(f64)`.
    Cos,
    /// `floor(f64)`.
    Floor,
    /// Integer `abs`.
    AbsInt,
    /// Any other external: a no-op returning 0.
    Nop,
}

impl ExternFn {
    fn resolve(name: &str) -> Self {
        match name {
            "sqrt" => ExternFn::Sqrt,
            "fabs" => ExternFn::Fabs,
            "exp" => ExternFn::Exp,
            "log" => ExternFn::Log,
            "sin" => ExternFn::Sin,
            "cos" => ExternFn::Cos,
            "floor" => ExternFn::Floor,
            "abs" => ExternFn::AbsInt,
            _ => ExternFn::Nop,
        }
    }

    /// Mirror of `interp.rs`'s `extern_call` semantics.
    fn call(self, args: &[Value]) -> Value {
        let x = args.first().copied().unwrap_or(Value::Float(0.0));
        match self {
            ExternFn::Sqrt => Value::Float(x.as_float().sqrt()),
            ExternFn::Fabs => Value::Float(x.as_float().abs()),
            ExternFn::Exp => Value::Float(x.as_float().exp()),
            ExternFn::Log => Value::Float(x.as_float().max(1e-300).ln()),
            ExternFn::Sin => Value::Float(x.as_float().sin()),
            ExternFn::Cos => Value::Float(x.as_float().cos()),
            ExternFn::Floor => Value::Float(x.as_float().floor()),
            ExternFn::AbsInt => Value::Int(x.as_int().abs()),
            ExternFn::Nop => Value::Int(0),
        }
    }
}

/// One pre-decoded instruction. Register numbers (`dst`) are raw `u32`
/// indices into the frame's register file; `site` fields index the
/// per-function dense profile side tables; jump targets
/// (`target_pc`/`then_pc`/`else_pc`) are instruction-stream pcs;
/// `offset`/`elem_size` are decode-time-resolved layout quantities.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum DInstr {
    /// `dst = src`.
    Assign { dst: u32, src: Operand },
    /// `dst = op lhs, rhs`.
    Bin {
        dst: u32,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = cmp.op lhs, rhs`.
    Cmp {
        dst: u32,
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// Cast to an integer scalar.
    CastInt { dst: u32, src: Operand },
    /// Cast to a float scalar.
    CastFloat { dst: u32, src: Operand },
    /// Cast to a pointer.
    CastPtr { dst: u32, src: Operand },
    /// Cast with no representation change.
    CastNop { dst: u32, src: Operand },
    /// `fieldaddr` with the byte offset resolved at decode time.
    FieldAddr {
        dst: u32,
        base: Operand,
        offset: u64,
    },
    /// `indexaddr` with the element size resolved at decode time.
    IndexAddr {
        dst: u32,
        base: Operand,
        index: Operand,
        elem_size: u64,
    },
    /// Integer scalar load.
    LoadInt {
        dst: u32,
        addr: Operand,
        kind: ScalarKind,
        site: u32,
    },
    /// Float scalar load.
    LoadFloat {
        dst: u32,
        addr: Operand,
        kind: ScalarKind,
        site: u32,
    },
    /// Pointer load.
    LoadPtr { dst: u32, addr: Operand, site: u32 },
    /// Integer scalar store.
    StoreInt {
        addr: Operand,
        value: Operand,
        kind: ScalarKind,
        site: u32,
    },
    /// Float scalar store.
    StoreFloat {
        addr: Operand,
        value: Operand,
        kind: ScalarKind,
        site: u32,
    },
    /// Pointer store.
    StorePtr {
        addr: Operand,
        value: Operand,
        site: u32,
    },
    /// Integer global load.
    GLoadInt {
        dst: u32,
        global: u32,
        kind: ScalarKind,
        site: u32,
    },
    /// Float global load.
    GLoadFloat {
        dst: u32,
        global: u32,
        kind: ScalarKind,
        site: u32,
    },
    /// Pointer global load.
    GLoadPtr { dst: u32, global: u32, site: u32 },
    /// Integer global store.
    GStoreInt {
        global: u32,
        value: Operand,
        kind: ScalarKind,
        site: u32,
    },
    /// Float global store.
    GStoreFloat {
        global: u32,
        value: Operand,
        kind: ScalarKind,
        site: u32,
    },
    /// Pointer global store.
    GStorePtr {
        global: u32,
        value: Operand,
        site: u32,
    },
    /// Address of a global.
    GAddr { dst: u32, global: u32 },
    /// Heap allocation with the element size baked in.
    Alloc {
        dst: u32,
        elem_size: u64,
        count: Operand,
        zeroed: bool,
    },
    /// Heap free.
    Free { ptr: Operand },
    /// Heap realloc with the element size baked in.
    Realloc {
        dst: u32,
        ptr: Operand,
        elem_size: u64,
        count: Operand,
    },
    /// Streaming copy.
    Memcpy {
        dst: Operand,
        src: Operand,
        bytes: Operand,
        site: u32,
    },
    /// Streaming fill.
    Memset {
        dst: Operand,
        val: Operand,
        bytes: Operand,
        site: u32,
    },
    /// Direct call to a defined function (callee known at decode time).
    CallDefined {
        dst: Option<u32>,
        callee: u32,
        args: Box<[Operand]>,
        edge_site: u32,
    },
    /// Direct call to an external/libc function.
    CallExtern {
        dst: Option<u32>,
        func: ExternFn,
        args: Box<[Operand]>,
    },
    /// Indirect call (target resolved at run time).
    CallIndirect {
        dst: Option<u32>,
        target: Operand,
        args: Box<[Operand]>,
    },
    /// Materialize a function pointer.
    FuncAddr { dst: u32, func: u32 },
    /// Unconditional jump to an instruction-stream pc.
    Jump { target_pc: u32, edge_site: u32 },
    /// Conditional branch to instruction-stream pcs.
    Branch {
        cond: Operand,
        then_pc: u32,
        else_pc: u32,
        then_site: u32,
        else_site: u32,
    },
    /// Return from the function.
    Return { value: Option<Operand> },
    /// Synthetic pad emitted when a block lacks a terminator: pops the
    /// frame like the structured engine's defensive fall-through path,
    /// without counting an instruction.
    FallThrough,
}

/// One pre-decoded function body plus the metadata needed to attribute
/// profile data back to `(block, index)` positions in the source IR.
#[derive(Debug, Clone)]
pub struct DecodedFunc {
    code: Vec<DInstr>,
    /// pc → (block, index) for fault diagnostics and pad attribution.
    src: Vec<(u32, u32)>,
    /// mem site → (block, index); length = number of memory sites.
    mem_site_src: Vec<(u32, u32)>,
    /// edge site → (from_block, to_block); call events use (b, b).
    edge_sites: Vec<(u32, u32)>,
    num_regs: u32,
    defined: bool,
}

impl DecodedFunc {
    fn external() -> Self {
        DecodedFunc {
            code: Vec::new(),
            src: Vec::new(),
            mem_site_src: Vec::new(),
            edge_sites: Vec::new(),
            num_regs: 0,
            defined: false,
        }
    }

    /// Number of decoded instructions (including synthetic pads).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the function has no decoded body.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

/// A program flattened for the decoded engine. Build once per program
/// snapshot with [`DecodedProgram::new`]; reuse across runs (see
/// [`run_decoded`]).
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    funcs: Vec<DecodedFunc>,
    extern_fns: Vec<ExternFn>,
}

impl DecodedProgram {
    /// Flatten `prog` into dense instruction streams.
    pub fn new(prog: &Program) -> Self {
        let extern_fns = prog
            .funcs
            .iter()
            .map(|f| {
                if f.is_defined() {
                    ExternFn::Nop
                } else {
                    ExternFn::resolve(&f.name)
                }
            })
            .collect();
        let funcs = prog.funcs.iter().map(|f| decode_func(prog, f)).collect();
        DecodedProgram { funcs, extern_fns }
    }

    /// The decoded body of a function.
    pub fn func(&self, fid: FuncId) -> &DecodedFunc {
        &self.funcs[fid.index()]
    }

    /// Total decoded instructions across all functions.
    pub fn total_instrs(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

fn scalar_kind(prog: &Program, ty: slo_ir::TypeId) -> Option<ScalarKind> {
    match prog.types.get(ty) {
        Type::Scalar(k) => Some(*k),
        _ => None,
    }
}

fn decode_func(prog: &Program, f: &slo_ir::Function) -> DecodedFunc {
    let types = &prog.types;
    if !f.is_defined() {
        return DecodedFunc::external();
    }
    // Pass 1: compute each block's start pc. A block whose last
    // instruction is not a terminator gets one synthetic pad slot.
    let mut block_starts = Vec::with_capacity(f.blocks.len());
    let mut pc = 0u32;
    for b in &f.blocks {
        block_starts.push(pc);
        pc += b.instrs.len() as u32;
        if b.instrs.last().is_none_or(|i| !i.is_terminator()) {
            pc += 1;
        }
    }

    // Pass 2: emit.
    let mut code = Vec::with_capacity(pc as usize);
    let mut src = Vec::with_capacity(pc as usize);
    let mut mem_site_src: Vec<(u32, u32)> = Vec::new();
    let mut edge_sites: Vec<(u32, u32)> = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        let bi = bi as u32;
        for (ii, ins) in b.instrs.iter().enumerate() {
            let at = (bi, ii as u32);
            let mut mem_site = || {
                let s = mem_site_src.len() as u32;
                mem_site_src.push(at);
                s
            };
            let d = match ins {
                Instr::Assign { dst, src } => DInstr::Assign {
                    dst: dst.0,
                    src: *src,
                },
                Instr::Bin { dst, op, lhs, rhs } => DInstr::Bin {
                    dst: dst.0,
                    op: *op,
                    lhs: *lhs,
                    rhs: *rhs,
                },
                Instr::Cmp { dst, op, lhs, rhs } => DInstr::Cmp {
                    dst: dst.0,
                    op: *op,
                    lhs: *lhs,
                    rhs: *rhs,
                },
                Instr::Cast { dst, src, to, .. } => match prog.types.get(*to) {
                    Type::Scalar(k) if k.is_float() => DInstr::CastFloat {
                        dst: dst.0,
                        src: *src,
                    },
                    Type::Scalar(_) => DInstr::CastInt {
                        dst: dst.0,
                        src: *src,
                    },
                    Type::Ptr(_) | Type::FuncPtr => DInstr::CastPtr {
                        dst: dst.0,
                        src: *src,
                    },
                    _ => DInstr::CastNop {
                        dst: dst.0,
                        src: *src,
                    },
                },
                Instr::FieldAddr {
                    dst,
                    base,
                    record,
                    field,
                } => DInstr::FieldAddr {
                    dst: dst.0,
                    base: *base,
                    offset: types.layout_of(*record).offsets[*field as usize],
                },
                Instr::IndexAddr {
                    dst,
                    base,
                    elem,
                    index,
                } => DInstr::IndexAddr {
                    dst: dst.0,
                    base: *base,
                    index: *index,
                    elem_size: types.size_of(*elem),
                },
                Instr::Load { dst, addr, ty } => match scalar_kind(prog, *ty) {
                    Some(k) if k.is_float() => DInstr::LoadFloat {
                        dst: dst.0,
                        addr: *addr,
                        kind: k,
                        site: mem_site(),
                    },
                    Some(k) => DInstr::LoadInt {
                        dst: dst.0,
                        addr: *addr,
                        kind: k,
                        site: mem_site(),
                    },
                    None => DInstr::LoadPtr {
                        dst: dst.0,
                        addr: *addr,
                        site: mem_site(),
                    },
                },
                Instr::Store { addr, value, ty } => match scalar_kind(prog, *ty) {
                    Some(k) if k.is_float() => DInstr::StoreFloat {
                        addr: *addr,
                        value: *value,
                        kind: k,
                        site: mem_site(),
                    },
                    Some(k) => DInstr::StoreInt {
                        addr: *addr,
                        value: *value,
                        kind: k,
                        site: mem_site(),
                    },
                    None => DInstr::StorePtr {
                        addr: *addr,
                        value: *value,
                        site: mem_site(),
                    },
                },
                Instr::LoadGlobal { dst, global } => {
                    let g = &prog.globals[global.index()];
                    match scalar_kind(prog, g.ty) {
                        Some(k) if k.is_float() => DInstr::GLoadFloat {
                            dst: dst.0,
                            global: global.0,
                            kind: k,
                            site: mem_site(),
                        },
                        Some(k) => DInstr::GLoadInt {
                            dst: dst.0,
                            global: global.0,
                            kind: k,
                            site: mem_site(),
                        },
                        None => DInstr::GLoadPtr {
                            dst: dst.0,
                            global: global.0,
                            site: mem_site(),
                        },
                    }
                }
                Instr::StoreGlobal { global, value } => {
                    let g = &prog.globals[global.index()];
                    match scalar_kind(prog, g.ty) {
                        Some(k) if k.is_float() => DInstr::GStoreFloat {
                            global: global.0,
                            value: *value,
                            kind: k,
                            site: mem_site(),
                        },
                        Some(k) => DInstr::GStoreInt {
                            global: global.0,
                            value: *value,
                            kind: k,
                            site: mem_site(),
                        },
                        None => DInstr::GStorePtr {
                            global: global.0,
                            value: *value,
                            site: mem_site(),
                        },
                    }
                }
                Instr::AddrOfGlobal { dst, global } => DInstr::GAddr {
                    dst: dst.0,
                    global: global.0,
                },
                Instr::Alloc {
                    dst,
                    elem,
                    count,
                    zeroed,
                } => DInstr::Alloc {
                    dst: dst.0,
                    elem_size: types.size_of(*elem),
                    count: *count,
                    zeroed: *zeroed,
                },
                Instr::Free { ptr } => DInstr::Free { ptr: *ptr },
                Instr::Realloc {
                    dst,
                    ptr,
                    elem,
                    count,
                } => DInstr::Realloc {
                    dst: dst.0,
                    ptr: *ptr,
                    elem_size: types.size_of(*elem),
                    count: *count,
                },
                Instr::Memcpy { dst, src, bytes } => DInstr::Memcpy {
                    dst: *dst,
                    src: *src,
                    bytes: *bytes,
                    site: mem_site(),
                },
                Instr::Memset { dst, val, bytes } => DInstr::Memset {
                    dst: *dst,
                    val: *val,
                    bytes: *bytes,
                    site: mem_site(),
                },
                Instr::Call { dst, callee, args } => {
                    let args: Box<[Operand]> = args.as_slice().into();
                    if prog.func(*callee).is_defined() {
                        // The (b, b) "call event" edge the structured
                        // engine records on defined direct calls.
                        let edge_site = edge_sites.len() as u32;
                        edge_sites.push((bi, bi));
                        DInstr::CallDefined {
                            dst: dst.map(|r| r.0),
                            callee: callee.0,
                            args,
                            edge_site,
                        }
                    } else {
                        DInstr::CallExtern {
                            dst: dst.map(|r| r.0),
                            func: ExternFn::resolve(&prog.func(*callee).name),
                            args,
                        }
                    }
                }
                Instr::CallIndirect {
                    dst, target, args, ..
                } => DInstr::CallIndirect {
                    dst: dst.map(|r| r.0),
                    target: *target,
                    args: args.as_slice().into(),
                },
                Instr::FuncAddr { dst, func } => DInstr::FuncAddr {
                    dst: dst.0,
                    func: func.0,
                },
                Instr::Jump { target } => {
                    let edge_site = edge_sites.len() as u32;
                    edge_sites.push((bi, target.0));
                    DInstr::Jump {
                        target_pc: block_starts[target.index()],
                        edge_site,
                    }
                }
                Instr::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let then_site = edge_sites.len() as u32;
                    edge_sites.push((bi, then_bb.0));
                    let else_site = edge_sites.len() as u32;
                    edge_sites.push((bi, else_bb.0));
                    DInstr::Branch {
                        cond: *cond,
                        then_pc: block_starts[then_bb.index()],
                        else_pc: block_starts[else_bb.index()],
                        then_site,
                        else_site,
                    }
                }
                Instr::Return { value } => DInstr::Return { value: *value },
            };
            code.push(d);
            src.push(at);
        }
        if f.blocks[bi as usize]
            .instrs
            .last()
            .is_none_or(|i| !i.is_terminator())
        {
            code.push(DInstr::FallThrough);
            src.push((bi, f.blocks[bi as usize].instrs.len() as u32));
        }
    }
    DecodedFunc {
        code,
        src,
        mem_site_src,
        edge_sites,
        num_regs: f.num_regs,
        defined: true,
    }
}

/// Run `main` of a pre-decoded program. Equivalent to
/// [`crate::run`] with the decoded engine, but lets callers amortize
/// the decode across many runs (benches, sweep drivers).
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_decoded(
    prog: &Program,
    dec: &DecodedProgram,
    opts: &VmOptions,
) -> Result<ExecOutcome, ExecError> {
    let main = prog.main().ok_or(ExecError::NoMain)?;
    run_func_decoded(prog, dec, main, &[], opts)
}

/// Run an arbitrary entry function of a pre-decoded program.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_func_decoded(
    prog: &Program,
    dec: &DecodedProgram,
    entry: FuncId,
    args: &[Value],
    opts: &VmOptions,
) -> Result<ExecOutcome, ExecError> {
    let trace = opts.trace.clone();
    let mut span = trace.span("vm", "vm.run");
    span.arg("engine", "decoded");
    let mut vm = DecVm::new(prog, dec, opts.clone())?;
    let exit = vm.call(entry, args)?;
    let (stats, feedback) = vm.into_parts();
    span.arg("instructions", stats.instructions);
    span.arg("cycles", stats.cycles);
    Ok(ExecOutcome {
        exit,
        stats,
        feedback,
    })
}

struct DFrame {
    fid: FuncId,
    pc: u32,
    regs: Vec<Value>,
    ret_dst: Option<u32>,
}

/// Distinct deltas a memory site's stride table holds; once full, only
/// deltas already present keep counting (the structured engine's rule).
const STRIDE_CAP: usize = 32;

/// Per-site stride state: the site's last address and a fixed-capacity
/// table of `(delta, count)` pairs in first-seen order, searched
/// linearly. A site sees a handful of distinct deltas, so the scan is
/// cheaper than hashing on every access.
#[derive(Clone, Copy)]
struct StrideTable {
    last: u64,
    len: usize,
    pairs: [(i64, u64); STRIDE_CAP],
}

impl StrideTable {
    const EMPTY: StrideTable = StrideTable {
        last: NO_ADDR,
        len: 0,
        pairs: [(0, 0); STRIDE_CAP],
    };

    /// Count the delta from the site's previous address to `addr`.
    #[inline]
    fn observe(&mut self, addr: u64) {
        let prev = std::mem::replace(&mut self.last, addr);
        if prev == NO_ADDR {
            return;
        }
        let delta = addr.wrapping_sub(prev) as i64;
        let used = &mut self.pairs[..self.len];
        if let Some(p) = used.iter_mut().find(|p| p.0 == delta) {
            p.1 += 1;
        } else if self.len < STRIDE_CAP {
            self.pairs[self.len] = (delta, 1);
            self.len += 1;
        }
    }

    /// The dominant stride; count ties break toward the smallest delta,
    /// as in the structured engine. `None` before a second access.
    fn summary(&self) -> Option<crate::profile::StrideInfo> {
        let used = &self.pairs[..self.len];
        let &(dominant, hits) = used
            .iter()
            .max_by_key(|&&(d, c)| (c, std::cmp::Reverse(d)))?;
        Some(crate::profile::StrideInfo {
            dominant,
            hits,
            samples: used.iter().map(|p| p.1).sum(),
        })
    }
}

/// Per-site accumulator for sampled d-cache events.
#[derive(Clone, Copy, Default)]
struct SampleAcc {
    samples: u64,
    misses: u64,
    total_latency: u64,
}

struct DecVm<'p> {
    prog: &'p Program,
    dec: &'p DecodedProgram,
    opts: VmOptions,
    heap: Heap,
    cache: CacheSim,
    feedback: Feedback,
    global_addr: Vec<u64>,
    stats: ExecStats,
    access_counter: u64,
    // Dense profile side tables, indexed [func][site]. Allocated only
    // when the corresponding collection flag is on.
    strides: Vec<Vec<StrideTable>>,
    samples: Vec<Vec<SampleAcc>>,
    edge_counts: Vec<Vec<u64>>,
    entry_counts: Vec<u64>,
    frame_pool: Vec<Vec<Value>>,
}

#[inline]
fn operand(regs: &[Value], op: Operand) -> Value {
    match op {
        Operand::Reg(Reg(r)) => regs[r as usize],
        Operand::Const(c) => c.into(),
    }
}

impl<'p> DecVm<'p> {
    fn new(prog: &'p Program, dec: &'p DecodedProgram, opts: VmOptions) -> Result<Self, MemError> {
        let mut heap = Heap::new();
        let mut global_addr = Vec::with_capacity(prog.globals.len());
        for g in &prog.globals {
            global_addr.push(heap.reserve_static(prog.types.size_of(g.ty))?);
        }
        let cache = CacheSim::new(opts.cache.clone());
        let feedback = Feedback::new(opts.sample_period);
        let nfuncs = dec.funcs.len();
        let (strides, samples) = if opts.sample_dcache {
            (
                dec.funcs
                    .iter()
                    .map(|f| vec![StrideTable::EMPTY; f.mem_site_src.len()])
                    .collect(),
                dec.funcs
                    .iter()
                    .map(|f| vec![SampleAcc::default(); f.mem_site_src.len()])
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let edge_counts = if opts.collect_edges {
            dec.funcs
                .iter()
                .map(|f| vec![0u64; f.edge_sites.len()])
                .collect()
        } else {
            Vec::new()
        };
        Ok(DecVm {
            prog,
            dec,
            opts,
            heap,
            cache,
            feedback,
            global_addr,
            stats: ExecStats::default(),
            access_counter: 0,
            strides,
            samples,
            edge_counts,
            entry_counts: vec![0; nfuncs],
            frame_pool: Vec::new(),
        })
    }

    fn into_parts(mut self) -> (ExecStats, Feedback) {
        // the loop leaves the per-instruction base cost out of `cycles`
        self.stats.cycles += self.stats.instructions * self.opts.cost.base;
        self.stats.cache = self.cache.stats().clone();
        self.stats.allocated_bytes = self.heap.total_allocated();
        self.stats.peak_live_bytes = self.heap.peak_live();
        self.stats.leaked_bytes = self.heap.live_bytes();
        for (fi, f) in self.prog.funcs.iter().enumerate() {
            let df = &self.dec.funcs[fi];
            if self.opts.collect_edges {
                let ec = self.entry_counts[fi];
                if ec > 0 {
                    self.feedback.func_mut(&f.name).entry_count += ec;
                }
                for (site, &c) in self.edge_counts[fi].iter().enumerate() {
                    if c > 0 {
                        *self
                            .feedback
                            .func_mut(&f.name)
                            .edges
                            .entry(df.edge_sites[site])
                            .or_insert(0) += c;
                    }
                }
            }
            if self.opts.sample_dcache {
                for (site, acc) in self.samples[fi].iter().enumerate() {
                    if acc.samples > 0 {
                        let s = self
                            .feedback
                            .func_mut(&f.name)
                            .samples
                            .entry(df.mem_site_src[site])
                            .or_default();
                        s.samples += acc.samples;
                        s.misses += acc.misses;
                        s.total_latency += acc.total_latency;
                    }
                }
                for (site, table) in self.strides[fi].iter().enumerate() {
                    if let Some(info) = table.summary() {
                        self.feedback
                            .func_mut(&f.name)
                            .strides
                            .insert(df.mem_site_src[site], info);
                    }
                }
            }
        }
        (self.stats, self.feedback)
    }

    /// Simulate a data access; returns added latency cycles.
    #[inline]
    fn mem_access(&mut self, fid: FuncId, site: u32, addr: u64, fp: bool, is_store: bool) -> u64 {
        let r = self.cache.access(addr, fp);
        self.access_counter += 1;
        if self.opts.sample_dcache {
            self.strides[fid.index()][site as usize].observe(addr);
            if self.access_counter.is_multiple_of(self.opts.sample_period) {
                let s = &mut self.samples[fid.index()][site as usize];
                s.samples += 1;
                if r.first_level_miss {
                    s.misses += 1;
                }
                s.total_latency += r.latency;
            }
        }
        if is_store {
            r.latency >> self.opts.cost.store_latency_shift
        } else {
            r.latency
        }
    }

    #[inline]
    fn record_edge(&mut self, fid: FuncId, edge_site: u32) {
        if self.opts.collect_edges {
            self.edge_counts[fid.index()][edge_site as usize] += 1;
            self.stats.cycles += self.opts.cost.instrument_edge_cost;
            self.stats.instrument_cycles += self.opts.cost.instrument_edge_cost;
        }
    }

    /// Touch the cache for a streaming op and return its cycle cost.
    fn stream_cost(&mut self, fid: FuncId, site: u32, d: u64, s: u64, n: u64, copy: bool) -> u64 {
        let line = self.cache.l1_line();
        let mut cycles = n / 16 + 1;
        let mut a = d & !(line - 1);
        while a < d + n.max(1) {
            cycles += self.mem_access(fid, site, a, false, true) / 2;
            a += line;
        }
        if copy {
            let mut a = s & !(line - 1);
            while a < s + n.max(1) {
                cycles += self.mem_access(fid, site, a, false, false) / 2;
                a += line;
            }
        }
        cycles * self.opts.cost.memstream_per_line / 2 + cycles
    }

    fn push_frame(
        &mut self,
        stack: &mut Vec<DFrame>,
        fid: FuncId,
        args: &[Value],
        ret_dst: Option<u32>,
    ) -> Result<(), ExecError> {
        if stack.len() >= self.opts.call_depth_limit {
            return Err(ExecError::CallDepth);
        }
        let df = &self.dec.funcs[fid.index()];
        if !df.defined {
            return Err(ExecError::NotDefined(self.prog.func(fid).name.clone()));
        }
        let num_regs = df.num_regs as usize;
        let mut regs = self.frame_pool.pop().unwrap_or_default();
        regs.clear();
        regs.resize(num_regs, Value::Int(0));
        for (i, v) in args.iter().enumerate() {
            if i < regs.len() {
                regs[i] = *v;
            }
        }
        if self.opts.collect_edges {
            self.entry_counts[fid.index()] += 1;
        }
        stack.push(DFrame {
            fid,
            pc: 0,
            regs,
            ret_dst,
        });
        Ok(())
    }

    fn call(&mut self, entry: FuncId, args: &[Value]) -> Result<Value, ExecError> {
        let mut stack = Vec::new();
        self.call_inner(&mut stack, entry, args)
            .map_err(|e| match (e, stack.last()) {
                // Only heap operations fail with `Mem`, and they fail
                // after their frame's pc has moved past them.
                (ExecError::Mem(err), Some(top)) => ExecError::MemAt {
                    err,
                    func: self.prog.func(top.fid).name.clone(),
                    at: self.dec.funcs[top.fid.index()].src[top.pc as usize - 1],
                },
                (other, _) => other,
            })
    }

    fn call_inner(
        &mut self,
        stack: &mut Vec<DFrame>,
        entry: FuncId,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        self.push_frame(stack, entry, args, None)?;
        let mut last_ret = Value::Int(0);
        // Copy the reference out of `self` so instruction borrows don't
        // pin `self` for the duration of the loop.
        let dec: &'p DecodedProgram = self.dec;
        let base_cost = self.opts.cost.base;
        let step_limit = self.opts.effective_step_limit();
        // Sampled tracing: with the recorder disabled the sentinel is
        // u64::MAX and never fires (step_limit aborts the run long
        // before). `next_event` is the instruction count, before the
        // increment, at which the step limit or the next sample is due,
        // so the hot loop pays one compare for both.
        let trace = self.opts.trace.clone();
        let trace_interval = self.opts.trace_step_interval.max(1);
        let mut next_trace = if trace.is_enabled() {
            trace_interval
        } else {
            u64::MAX
        };
        let mut next_event = step_limit.min(next_trace - 1);

        'outer: while let Some(frame) = stack.last_mut() {
            let fid = frame.fid;
            let code: &'p [DInstr] = &dec.funcs[fid.index()].code;

            loop {
                let ins = &code[frame.pc as usize];
                if matches!(ins, DInstr::FallThrough) {
                    // Fell off the end of a block without a terminator:
                    // treat as return, exactly like the structured
                    // engine (no instruction counted).
                    stack.pop();
                    continue 'outer;
                }
                if self.stats.instructions >= next_event {
                    if self.stats.instructions >= step_limit {
                        return Err(ExecError::StepLimit);
                    }
                    let n = self.stats.instructions + 1;
                    trace.counter("vm", "vm.instructions", n as f64);
                    let cycles = self.stats.cycles + n * base_cost;
                    trace.counter("vm", "vm.cycles", cycles as f64);
                    next_trace = next_trace.saturating_add(trace_interval);
                    next_event = step_limit.min(next_trace - 1);
                }
                self.stats.instructions += 1;
                frame.pc += 1;

                match ins {
                    DInstr::Assign { dst, src } => {
                        frame.regs[*dst as usize] = operand(&frame.regs, *src);
                    }
                    DInstr::Bin { dst, op, lhs, rhs } => {
                        let a = operand(&frame.regs, *lhs);
                        let b = operand(&frame.regs, *rhs);
                        frame.regs[*dst as usize] = Value::bin(*op, a, b);
                    }
                    DInstr::Cmp { dst, op, lhs, rhs } => {
                        let a = operand(&frame.regs, *lhs);
                        let b = operand(&frame.regs, *rhs);
                        frame.regs[*dst as usize] = Value::cmp(*op, a, b);
                    }
                    DInstr::CastInt { dst, src } => {
                        let v = operand(&frame.regs, *src);
                        frame.regs[*dst as usize] = Value::Int(v.as_int());
                    }
                    DInstr::CastFloat { dst, src } => {
                        let v = operand(&frame.regs, *src);
                        frame.regs[*dst as usize] = Value::Float(v.as_float());
                    }
                    DInstr::CastPtr { dst, src } => {
                        let v = operand(&frame.regs, *src);
                        frame.regs[*dst as usize] = Value::Ptr(v.as_ptr());
                    }
                    DInstr::CastNop { dst, src } => {
                        frame.regs[*dst as usize] = operand(&frame.regs, *src);
                    }
                    DInstr::FieldAddr { dst, base, offset } => {
                        let b = operand(&frame.regs, *base).as_ptr();
                        frame.regs[*dst as usize] = Value::Ptr(b.wrapping_add(*offset));
                    }
                    DInstr::IndexAddr {
                        dst,
                        base,
                        index,
                        elem_size,
                    } => {
                        let b = operand(&frame.regs, *base).as_ptr();
                        let i = operand(&frame.regs, *index).as_int();
                        frame.regs[*dst as usize] =
                            Value::Ptr(b.wrapping_add((i as u64).wrapping_mul(*elem_size)));
                    }
                    DInstr::LoadInt {
                        dst,
                        addr,
                        kind,
                        site,
                    } => {
                        let a = operand(&frame.regs, *addr).as_ptr();
                        self.stats.loads += 1;
                        let v = match self.heap.read_scalar(a, *kind)? {
                            ScalarValue::Int(i) => Value::Int(i),
                            ScalarValue::Float(f) => Value::Float(f),
                        };
                        self.stats.cycles += self.mem_access(fid, *site, a, false, false);
                        frame.regs[*dst as usize] = v;
                    }
                    DInstr::LoadFloat {
                        dst,
                        addr,
                        kind,
                        site,
                    } => {
                        let a = operand(&frame.regs, *addr).as_ptr();
                        self.stats.loads += 1;
                        let v = match self.heap.read_scalar(a, *kind)? {
                            ScalarValue::Int(i) => Value::Int(i),
                            ScalarValue::Float(f) => Value::Float(f),
                        };
                        self.stats.cycles += self.mem_access(fid, *site, a, true, false);
                        frame.regs[*dst as usize] = v;
                    }
                    DInstr::LoadPtr { dst, addr, site } => {
                        let a = operand(&frame.regs, *addr).as_ptr();
                        self.stats.loads += 1;
                        let raw = self.heap.read_bytes(a, 8)?;
                        self.stats.cycles += self.mem_access(fid, *site, a, false, false);
                        frame.regs[*dst as usize] = Value::Ptr(raw);
                    }
                    DInstr::StoreInt {
                        addr,
                        value,
                        kind,
                        site,
                    } => {
                        let a = operand(&frame.regs, *addr).as_ptr();
                        let v = operand(&frame.regs, *value);
                        self.stats.stores += 1;
                        self.heap
                            .write_scalar(a, *kind, ScalarValue::Int(v.as_int()))?;
                        self.stats.cycles += self.mem_access(fid, *site, a, false, true);
                    }
                    DInstr::StoreFloat {
                        addr,
                        value,
                        kind,
                        site,
                    } => {
                        let a = operand(&frame.regs, *addr).as_ptr();
                        let v = operand(&frame.regs, *value);
                        self.stats.stores += 1;
                        self.heap
                            .write_scalar(a, *kind, ScalarValue::Float(v.as_float()))?;
                        self.stats.cycles += self.mem_access(fid, *site, a, true, true);
                    }
                    DInstr::StorePtr { addr, value, site } => {
                        let a = operand(&frame.regs, *addr).as_ptr();
                        let v = operand(&frame.regs, *value);
                        self.stats.stores += 1;
                        self.heap.write_bytes(a, 8, v.as_ptr())?;
                        self.stats.cycles += self.mem_access(fid, *site, a, false, true);
                    }
                    DInstr::GLoadInt {
                        dst,
                        global,
                        kind,
                        site,
                    } => {
                        let a = self.global_addr[*global as usize];
                        self.stats.loads += 1;
                        let v = match self.heap.read_scalar(a, *kind)? {
                            ScalarValue::Int(i) => Value::Int(i),
                            ScalarValue::Float(f) => Value::Float(f),
                        };
                        self.stats.cycles += self.mem_access(fid, *site, a, false, false);
                        frame.regs[*dst as usize] = v;
                    }
                    DInstr::GLoadFloat {
                        dst,
                        global,
                        kind,
                        site,
                    } => {
                        let a = self.global_addr[*global as usize];
                        self.stats.loads += 1;
                        let v = match self.heap.read_scalar(a, *kind)? {
                            ScalarValue::Int(i) => Value::Int(i),
                            ScalarValue::Float(f) => Value::Float(f),
                        };
                        self.stats.cycles += self.mem_access(fid, *site, a, true, false);
                        frame.regs[*dst as usize] = v;
                    }
                    DInstr::GLoadPtr { dst, global, site } => {
                        let a = self.global_addr[*global as usize];
                        self.stats.loads += 1;
                        let raw = self.heap.read_bytes(a, 8)?;
                        self.stats.cycles += self.mem_access(fid, *site, a, false, false);
                        frame.regs[*dst as usize] = Value::Ptr(raw);
                    }
                    DInstr::GStoreInt {
                        global,
                        value,
                        kind,
                        site,
                    } => {
                        let v = operand(&frame.regs, *value);
                        let a = self.global_addr[*global as usize];
                        self.stats.stores += 1;
                        self.heap
                            .write_scalar(a, *kind, ScalarValue::Int(v.as_int()))?;
                        self.stats.cycles += self.mem_access(fid, *site, a, false, true);
                    }
                    DInstr::GStoreFloat {
                        global,
                        value,
                        kind,
                        site,
                    } => {
                        let v = operand(&frame.regs, *value);
                        let a = self.global_addr[*global as usize];
                        self.stats.stores += 1;
                        self.heap
                            .write_scalar(a, *kind, ScalarValue::Float(v.as_float()))?;
                        self.stats.cycles += self.mem_access(fid, *site, a, true, true);
                    }
                    DInstr::GStorePtr {
                        global,
                        value,
                        site,
                    } => {
                        let v = operand(&frame.regs, *value);
                        let a = self.global_addr[*global as usize];
                        self.stats.stores += 1;
                        self.heap.write_bytes(a, 8, v.as_ptr())?;
                        self.stats.cycles += self.mem_access(fid, *site, a, false, true);
                    }
                    DInstr::GAddr { dst, global } => {
                        frame.regs[*dst as usize] = Value::Ptr(self.global_addr[*global as usize]);
                    }
                    DInstr::Alloc {
                        dst,
                        elem_size,
                        count,
                        zeroed,
                    } => {
                        if self.opts.faults.should_fire(slo_chaos::Site::VmAlloc) {
                            return Err(ExecError::Injected("heap allocation refused"));
                        }
                        let n = operand(&frame.regs, *count).as_int().max(0) as u64;
                        let bytes = n.saturating_mul(*elem_size);
                        let a = self.heap.alloc(bytes)?;
                        self.stats.cycles += self.opts.cost.alloc_cost;
                        if *zeroed {
                            self.stats.cycles += bytes / 8 * self.opts.cost.zero_per_8bytes;
                        }
                        frame.regs[*dst as usize] = Value::Ptr(a);
                    }
                    DInstr::Free { ptr } => {
                        let a = operand(&frame.regs, *ptr).as_ptr();
                        self.heap.free(a)?;
                        self.stats.cycles += self.opts.cost.free_cost;
                    }
                    DInstr::Realloc {
                        dst,
                        ptr,
                        elem_size,
                        count,
                    } => {
                        let a = operand(&frame.regs, *ptr).as_ptr();
                        let n = operand(&frame.regs, *count).as_int().max(0) as u64;
                        let bytes = n.saturating_mul(*elem_size);
                        let na = self.heap.realloc(a, bytes)?;
                        self.stats.cycles += self.opts.cost.alloc_cost + bytes / 16;
                        frame.regs[*dst as usize] = Value::Ptr(na);
                    }
                    DInstr::Memcpy {
                        dst,
                        src,
                        bytes,
                        site,
                    } => {
                        let d = operand(&frame.regs, *dst).as_ptr();
                        let s = operand(&frame.regs, *src).as_ptr();
                        let n = operand(&frame.regs, *bytes).as_int().max(0) as u64;
                        self.heap.memcpy(d, s, n)?;
                        self.stats.cycles += self.stream_cost(fid, *site, d, s, n, true);
                    }
                    DInstr::Memset {
                        dst,
                        val,
                        bytes,
                        site,
                    } => {
                        let d = operand(&frame.regs, *dst).as_ptr();
                        let v = operand(&frame.regs, *val).as_int() as u8;
                        let n = operand(&frame.regs, *bytes).as_int().max(0) as u64;
                        self.heap.memset(d, v, n)?;
                        self.stats.cycles += self.stream_cost(fid, *site, d, d, n, false);
                    }
                    DInstr::CallDefined {
                        dst,
                        callee,
                        args,
                        edge_site,
                    } => {
                        let argv: Vec<Value> =
                            args.iter().map(|a| operand(&frame.regs, *a)).collect();
                        self.stats.cycles += self.opts.cost.call_overhead;
                        self.record_edge(fid, *edge_site);
                        let dst = *dst;
                        let callee = FuncId(*callee);
                        self.push_frame(stack, callee, &argv, dst)?;
                        continue 'outer;
                    }
                    DInstr::CallExtern { dst, func, args } => {
                        let argv: Vec<Value> =
                            args.iter().map(|a| operand(&frame.regs, *a)).collect();
                        let r = func.call(&argv);
                        self.stats.cycles += self.opts.cost.libc_call_cost;
                        if let Some(d) = dst {
                            frame.regs[*d as usize] = r;
                        }
                    }
                    DInstr::CallIndirect { dst, target, args } => {
                        let t = operand(&frame.regs, *target).as_ptr();
                        if t < FNPTR_BASE {
                            return Err(ExecError::BadIndirectTarget);
                        }
                        let callee = FuncId((t - FNPTR_BASE) as u32);
                        if callee.index() >= dec.funcs.len() {
                            return Err(ExecError::BadIndirectTarget);
                        }
                        let argv: Vec<Value> =
                            args.iter().map(|a| operand(&frame.regs, *a)).collect();
                        if dec.funcs[callee.index()].defined {
                            self.stats.cycles += self.opts.cost.call_overhead;
                            let dst = *dst;
                            self.push_frame(stack, callee, &argv, dst)?;
                            continue 'outer;
                        } else {
                            let r = dec.extern_fns[callee.index()].call(&argv);
                            self.stats.cycles += self.opts.cost.libc_call_cost;
                            if let Some(d) = dst {
                                frame.regs[*d as usize] = r;
                            }
                        }
                    }
                    DInstr::FuncAddr { dst, func } => {
                        frame.regs[*dst as usize] = Value::Ptr(FNPTR_BASE + *func as u64);
                    }
                    // Jump/Branch stay inside the inner loop: the frame
                    // and code slice are unchanged, so unlike the
                    // structured engine there is no per-block re-fetch.
                    DInstr::Jump {
                        target_pc,
                        edge_site,
                    } => {
                        frame.pc = *target_pc;
                        self.record_edge(fid, *edge_site);
                    }
                    DInstr::Branch {
                        cond,
                        then_pc,
                        else_pc,
                        then_site,
                        else_site,
                    } => {
                        let c = operand(&frame.regs, *cond).is_true();
                        let (pc, site) = if c {
                            (*then_pc, *then_site)
                        } else {
                            (*else_pc, *else_site)
                        };
                        frame.pc = pc;
                        self.record_edge(fid, site);
                    }
                    DInstr::Return { value } => {
                        let v = value
                            .map(|v| operand(&frame.regs, v))
                            .unwrap_or(Value::Int(0));
                        let ret_dst = frame.ret_dst;
                        if let Some(done) = stack.pop() {
                            if self.frame_pool.len() < 64 {
                                self.frame_pool.push(done.regs);
                            }
                        }
                        last_ret = v;
                        if let Some(parent) = stack.last_mut() {
                            if let Some(d) = ret_dst {
                                parent.regs[d as usize] = v;
                            }
                        }
                        continue 'outer;
                    }
                    DInstr::FallThrough => unreachable!("handled above"),
                }
            }
        }

        Ok(last_ret)
    }
}
