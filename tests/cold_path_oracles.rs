//! The cold compile path against the code it replaced.
//!
//! `slo_analysis::util::reg_types` finds a pointer type by one probe of
//! the type table's intern map, and `slo_ir::printer` pushes `&str`
//! pieces and its own digits. The modules below keep the earlier forms:
//! a register typing that scans the whole type table for `ptr<T>`, and a
//! printer written through `write!`. Both sides must agree exactly on
//! every workload family, the example IR files, fuzz-generated programs
//! and hand-written edge cases.
//!
//! The analyses read one per-function `FactTable` and collect affinity
//! groups and read/write counts in one walk. The `collect` module keeps
//! the two walks that did it before, each with its own loop forest or
//! def/use map, and an `Analysis` assembled from them must encode to the
//! same bytes as the one `analyze` returns. Its one change is the order
//! in which merged group weights are summed, which was a hash order.
//! The `freq` module keeps the static estimate that built its own loop
//! forest and predecessor lists; it must give every function the same
//! frequencies as the table's.
//!
//! The last test bounds `analyze` on a program with thousands of record
//! types: the table scan made that quadratic.

use proptest::TestRng;
use slo::analysis::ipa::aggregate;
use slo::analysis::legality::analyze_all_units;
use slo::analysis::util::reg_types;
use slo::analysis::{block_frequencies, BranchProbs, FactTable, LegalityConfig, WeightScheme};
use slo::pipeline::{analyze, collect_profile, compile, Analysis, PipelineConfig};
use slo::transform::{decide, HeuristicsConfig};
use slo_fuzz::{gen_program, GenConfig};
use slo_ir::parser::parse;
use slo_ir::printer::{print_instr, print_program};
use slo_ir::{
    BinOp, CmpOp, Const, Field, Instr, Operand, Program, ProgramBuilder, Reg, ScalarKind, Type,
    TypeId,
};
use slo_workloads::{art, casestudy, census, kernel, mcf, moldyn, InputSet, CENSUS_SPECS};
use std::time::Duration;

/// Register typing with a linear scan of the type table for each
/// pointer type.
mod scan {
    use super::*;

    fn ptr_to_existing(prog: &Program, pointee: TypeId) -> TypeId {
        for i in 0..prog.types.num_types() as u32 {
            if let Type::Ptr(inner) = prog.types.get(TypeId(i)) {
                if *inner == pointee {
                    return TypeId(i);
                }
            }
        }
        pointee
    }

    pub fn reg_types(prog: &Program, fid: slo_ir::FuncId) -> Vec<Option<TypeId>> {
        let f = prog.func(fid);
        let n = f.num_regs as usize;
        let mut tys: Vec<Option<TypeId>> = vec![None; n];
        let mut conflicted = vec![false; n];
        let assign = |tys: &mut Vec<Option<TypeId>>,
                      conflicted: &mut Vec<bool>,
                      r: Reg,
                      t: Option<TypeId>| {
            let i = r.0 as usize;
            match (tys[i], t) {
                (None, Some(t)) if !conflicted[i] => tys[i] = Some(t),
                (Some(old), Some(new)) if old != new => {
                    tys[i] = None;
                    conflicted[i] = true;
                }
                _ => {}
            }
        };
        for (r, t) in &f.params {
            assign(&mut tys, &mut conflicted, *r, Some(*t));
        }
        for _ in 0..2 {
            for (_, ins) in prog.instrs_of(fid) {
                let proposed: Option<(Reg, Option<TypeId>)> = match ins {
                    Instr::Cast { dst, to, .. } => Some((*dst, Some(*to))),
                    Instr::Load { dst, ty, .. } => Some((*dst, Some(*ty))),
                    Instr::Alloc { dst, elem, .. } | Instr::Realloc { dst, elem, .. } => {
                        Some((*dst, Some(ptr_to_existing(prog, *elem))))
                    }
                    Instr::FieldAddr {
                        dst, record, field, ..
                    } => prog
                        .types
                        .record(*record)
                        .fields
                        .get(*field as usize)
                        .map(|f| (*dst, Some(ptr_to_existing(prog, f.ty)))),
                    Instr::IndexAddr { dst, elem, .. } => {
                        Some((*dst, Some(ptr_to_existing(prog, *elem))))
                    }
                    Instr::LoadGlobal { dst, global } => {
                        Some((*dst, Some(prog.globals[global.index()].ty)))
                    }
                    Instr::AddrOfGlobal { dst, global } => Some((
                        *dst,
                        Some(ptr_to_existing(prog, prog.globals[global.index()].ty)),
                    )),
                    Instr::Call { dst, callee, .. } => {
                        dst.map(|d| (d, Some(prog.func(*callee).ret)))
                    }
                    Instr::Assign {
                        dst,
                        src: Operand::Reg(s),
                    } => Some((*dst, tys[s.0 as usize])),
                    _ => None,
                };
                if let Some((r, t)) = proposed {
                    assign(&mut tys, &mut conflicted, r, t);
                }
            }
        }
        tys
    }
}

/// The textual IR printer written through `fmt::Write`.
mod fmt_printer {
    use slo_ir::{FuncKind, Instr, Program, Type, TypeId, TypeTable};
    use std::fmt::{self, Display, Write as _};

    struct TypeText<'a>(&'a TypeTable, TypeId);

    impl Display for TypeText<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let TypeText(t, id) = *self;
            match t.get(id) {
                Type::Void => f.write_str("void"),
                Type::Scalar(k) => f.write_str(k.name()),
                Type::Ptr(inner) => write!(f, "ptr<{}>", TypeText(t, *inner)),
                Type::Record(r) => f.write_str(&t.record(*r).name),
                Type::Array(elem, n) => write!(f, "[{}; {n}]", TypeText(t, *elem)),
                Type::FuncPtr => f.write_str("fnptr"),
            }
        }
    }

    fn ty(p: &Program, t: TypeId) -> TypeText<'_> {
        TypeText(&p.types, t)
    }

    pub fn print_program(p: &Program) -> String {
        let mut out = String::new();
        write_program(&mut out, p).expect("writing to a String cannot fail");
        out
    }

    pub fn print_instr(p: &Program, ins: &Instr) -> String {
        let mut out = String::new();
        write_instr(&mut out, p, ins).expect("writing to a String cannot fail");
        out
    }

    fn write_program(out: &mut String, p: &Program) -> fmt::Result {
        for rid in p.types.record_ids() {
            let rec = p.types.record(rid);
            write!(out, "record {} {{ ", rec.name)?;
            for (i, f) in rec.fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write!(out, "{}: {}", f.name, ty(p, f.ty))?;
                if let Some(w) = f.bit_width {
                    write!(out, ":{w}")?;
                }
            }
            out.push_str(" }\n");
        }
        if p.types.num_records() > 0 {
            out.push('\n');
        }
        for gid in p.global_ids() {
            let g = p.global(gid);
            writeln!(out, "global {}: {}", g.name, ty(p, g.ty))?;
        }
        if !p.globals.is_empty() {
            out.push('\n');
        }
        for fid in p.func_ids() {
            let f = p.func(fid);
            match f.kind {
                FuncKind::External => out.push_str("extern "),
                FuncKind::Libc => out.push_str("libc "),
                FuncKind::Defined => {}
            }
            write!(out, "func {}(", f.name)?;
            write_list(out, f.params.iter().map(|(_, t)| ty(p, *t)))?;
            write!(out, ") -> {}", ty(p, f.ret))?;
            if f.kind != FuncKind::Defined {
                out.push('\n');
                continue;
            }
            out.push_str(" {\n");
            for bid in f.block_ids() {
                writeln!(out, "{bid}:")?;
                for ins in &f.block(bid).instrs {
                    out.push_str("  ");
                    write_instr(out, p, ins)?;
                    out.push('\n');
                }
            }
            out.push_str("}\n\n");
        }
        Ok(())
    }

    fn write_list(out: &mut String, items: impl IntoIterator<Item = impl Display>) -> fmt::Result {
        for (i, x) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "{x}")?;
        }
        Ok(())
    }

    fn write_instr(out: &mut String, p: &Program, ins: &Instr) -> fmt::Result {
        match ins {
            Instr::Assign { dst, src } => write!(out, "{dst} = {src}"),
            Instr::Bin { dst, op, lhs, rhs } => {
                write!(out, "{dst} = {} {lhs}, {rhs}", op.name())
            }
            Instr::Cmp { dst, op, lhs, rhs } => {
                write!(out, "{dst} = cmp.{} {lhs}, {rhs}", op.name())
            }
            Instr::Cast { dst, src, from, to } => write!(
                out,
                "{dst} = cast {src} : {} -> {}",
                ty(p, *from),
                ty(p, *to)
            ),
            Instr::FieldAddr {
                dst,
                base,
                record,
                field,
            } => {
                let rec = p.types.record(*record);
                write!(
                    out,
                    "{dst} = fieldaddr {base}, {}.{}",
                    rec.name, rec.fields[*field as usize].name
                )
            }
            Instr::IndexAddr {
                dst,
                base,
                elem,
                index,
            } => write!(out, "{dst} = indexaddr {base}, {}, {index}", ty(p, *elem)),
            Instr::Load { dst, addr, ty: t } => {
                write!(out, "{dst} = load {addr} : {}", ty(p, *t))
            }
            Instr::Store { addr, value, ty: t } => {
                write!(out, "store {value}, {addr} : {}", ty(p, *t))
            }
            Instr::LoadGlobal { dst, global } => {
                write!(out, "{dst} = gload {}", p.global(*global).name)
            }
            Instr::StoreGlobal { global, value } => {
                write!(out, "gstore {value}, {}", p.global(*global).name)
            }
            Instr::AddrOfGlobal { dst, global } => {
                write!(out, "{dst} = gaddr {}", p.global(*global).name)
            }
            Instr::Alloc {
                dst,
                elem,
                count,
                zeroed,
            } => {
                let op = if *zeroed { "zalloc" } else { "alloc" };
                write!(out, "{dst} = {op} {}, {count}", ty(p, *elem))
            }
            Instr::Free { ptr } => write!(out, "free {ptr}"),
            Instr::Realloc {
                dst,
                ptr,
                elem,
                count,
            } => write!(out, "{dst} = realloc {ptr}, {}, {count}", ty(p, *elem)),
            Instr::Memcpy { dst, src, bytes } => write!(out, "memcpy {dst}, {src}, {bytes}"),
            Instr::Memset { dst, val, bytes } => write!(out, "memset {dst}, {val}, {bytes}"),
            Instr::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    write!(out, "{d} = ")?;
                }
                write!(out, "call {}(", p.func(*callee).name)?;
                write_list(out, args)?;
                out.push(')');
                Ok(())
            }
            Instr::CallIndirect {
                dst,
                target,
                args,
                arg_types,
            } => {
                if let Some(d) = dst {
                    write!(out, "{d} = ")?;
                }
                write!(out, "icall {target}(")?;
                write_list(out, args)?;
                out.push_str(") : (");
                write_list(out, arg_types.iter().map(|t| ty(p, *t)))?;
                out.push(')');
                Ok(())
            }
            Instr::FuncAddr { dst, func } => {
                write!(out, "{dst} = fnaddr {}", p.func(*func).name)
            }
            Instr::Jump { target } => write!(out, "jump {target}"),
            Instr::Branch {
                cond,
                then_bb,
                else_bb,
            } => write!(out, "br {cond}, {then_bb}, {else_bb}"),
            Instr::Return { value } => match value {
                Some(v) => write!(out, "ret {v}"),
                None => write!(out, "ret"),
            },
        }
    }
}

/// Affinity groups and read/write counts as two walks per function,
/// each computing its own facts, and their program-wide sums.
mod collect {
    use slo::analysis::affinity::{AffinityGraph, FieldCounts};
    use slo::analysis::util::{DefUse, UseRole};
    use slo::analysis::FuncFreq;
    use slo_ir::loops::{LoopForest, LoopId};
    use slo_ir::{BlockId, FuncId, Instr, Program, RecordId};
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    pub struct AffinityGroup {
        pub record: RecordId,
        pub fields: BTreeSet<u32>,
        pub weight: f64,
    }

    pub fn collect_groups(prog: &Program, fid: FuncId, ff: &FuncFreq) -> Vec<AffinityGroup> {
        let f = prog.func(fid);
        let lf = LoopForest::compute(f);
        // This map was a `HashMap`, so three or more regions merging into
        // one group summed their weights in a different order from run to
        // run, and the last bit of the weight with it. Both sides now sum
        // in (record, loop) order.
        let mut per_region: BTreeMap<(RecordId, Option<u32>), BTreeSet<u32>> = BTreeMap::new();
        let mut region_weight: HashMap<Option<u32>, f64> = HashMap::new();
        for bid in f.block_ids() {
            let region = lf.innermost(bid).map(|l| l.0);
            let w = match region {
                Some(l) => ff.of(lf.get(LoopId(l)).header),
                None => ff.of(BlockId(0)),
            };
            region_weight.insert(region, w);
            for ins in &f.block(bid).instrs {
                if let Instr::FieldAddr { record, field, .. } = ins {
                    per_region
                        .entry((*record, region))
                        .or_default()
                        .insert(*field);
                }
            }
        }
        let mut merged: BTreeMap<(RecordId, Vec<u32>), f64> = BTreeMap::new();
        for ((rec, region), fields) in per_region {
            let key: Vec<u32> = fields.iter().copied().collect();
            let w = region_weight.get(&region).copied().unwrap_or(0.0);
            *merged.entry((rec, key)).or_insert(0.0) += w;
        }
        merged
            .into_iter()
            .map(|((record, fields), weight)| AffinityGroup {
                record,
                fields: fields.into_iter().collect(),
                weight,
            })
            .collect()
    }

    pub fn collect_field_counts(
        prog: &Program,
        fid: FuncId,
        ff: &FuncFreq,
    ) -> HashMap<(RecordId, u32), FieldCounts> {
        let du = DefUse::build(prog, fid);
        let mut out: HashMap<(RecordId, u32), FieldCounts> = HashMap::new();
        for (_, ins) in prog.instrs_of(fid) {
            if let Instr::FieldAddr {
                dst, record, field, ..
            } = ins
            {
                let c = out.entry((*record, *field)).or_default();
                for u in &du.uses[dst.0 as usize] {
                    let w = ff.of(u.at.block);
                    match u.role {
                        UseRole::LoadAddr => c.reads += w,
                        UseRole::StoreAddr => c.writes += w,
                        _ => {}
                    }
                }
            }
        }
        out
    }

    pub fn build_affinity_graphs(
        prog: &Program,
        freqs: &HashMap<FuncId, FuncFreq>,
    ) -> HashMap<RecordId, AffinityGraph> {
        let mut graphs: HashMap<RecordId, AffinityGraph> = HashMap::new();
        for rid in prog.types.record_ids() {
            graphs.insert(
                rid,
                AffinityGraph::new(rid, prog.types.record(rid).fields.len()),
            );
        }
        let empty = FuncFreq::default();
        for fid in prog.func_ids() {
            if !prog.func(fid).is_defined() {
                continue;
            }
            let ff = freqs.get(&fid).unwrap_or(&empty);
            for g in collect_groups(prog, fid, ff) {
                graphs
                    .get_mut(&g.record)
                    .expect("graph exists for every record")
                    .add_group(&g.fields, g.weight);
            }
        }
        graphs
    }

    pub fn build_field_counts(
        prog: &Program,
        freqs: &HashMap<FuncId, FuncFreq>,
    ) -> HashMap<(RecordId, u32), FieldCounts> {
        let mut out: HashMap<(RecordId, u32), FieldCounts> = HashMap::new();
        let empty = FuncFreq::default();
        for fid in prog.func_ids() {
            if !prog.func(fid).is_defined() {
                continue;
            }
            let ff = freqs.get(&fid).unwrap_or(&empty);
            for ((r, fld), c) in collect_field_counts(prog, fid, ff) {
                let dst = out.entry((r, fld)).or_default();
                dst.reads += c.reads;
                dst.writes += c.writes;
            }
        }
        out
    }
}

/// The static frequency estimate with its own loop forest, and the
/// predecessor lists computed again for every block of every region.
mod freq {
    use slo::analysis::{BranchProbs, FuncFreq};
    use slo_ir::loops::LoopForest;
    use slo_ir::{BlockId, FuncId, Instr, Operand, Program, Type};
    use std::collections::HashMap;

    /// Whether a loop's body references floating-point data (the heuristic
    /// used to pick the back-edge probability).
    fn loop_is_fp(prog: &Program, fid: FuncId, blocks: &[BlockId]) -> bool {
        let f = prog.func(fid);
        for &b in blocks {
            for ins in &f.block(b).instrs {
                let fp = match ins {
                    Instr::Load { ty, .. } | Instr::Store { ty, .. } => {
                        matches!(prog.types.get(*ty), Type::Scalar(k) if k.is_float())
                    }
                    Instr::Assign { src, .. } => {
                        matches!(src, Operand::Const(slo_ir::Const::Float(_)))
                    }
                    Instr::Bin { lhs, rhs, .. } => {
                        matches!(lhs, Operand::Const(slo_ir::Const::Float(_)))
                            || matches!(rhs, Operand::Const(slo_ir::Const::Float(_)))
                    }
                    _ => false,
                };
                if fp {
                    return true;
                }
            }
        }
        false
    }

    /// Estimate frequencies statically (entry frequency 1.0).
    pub fn estimate_static(prog: &Program, fid: FuncId, probs: &BranchProbs) -> FuncFreq {
        let f = prog.func(fid);
        let n = f.blocks.len();
        if n == 0 {
            return FuncFreq::default();
        }
        let lf = LoopForest::compute(f);
        let dt = slo_ir::dom::DomTree::compute(f);

        // --- per-edge probabilities ---------------------------------------
        let mut prob: HashMap<(u32, u32), f64> = HashMap::new();
        for bid in f.block_ids() {
            let succs = f.block(bid).successors();
            match succs.len() {
                0 => {}
                1 => {
                    prob.insert((bid.0, succs[0].0), 1.0);
                }
                _ => {
                    // loop heuristic: prefer the successor that stays in the
                    // innermost loop containing this block.
                    let in_loop = |s: BlockId| -> bool {
                        match lf.innermost(bid) {
                            Some(l) => lf.get(l).blocks.contains(&s),
                            None => false,
                        }
                    };
                    let stay0 = in_loop(succs[0]);
                    let stay1 = in_loop(succs[1]);
                    if stay0 != stay1 {
                        let lid = lf.innermost(bid).expect("block is in a loop");
                        let p = if loop_is_fp(prog, fid, &lf.get(lid).blocks) {
                            probs.fp_loop_back
                        } else {
                            probs.int_loop_back
                        };
                        let (stay, exit) = if stay0 {
                            (succs[0], succs[1])
                        } else {
                            (succs[1], succs[0])
                        };
                        prob.insert((bid.0, stay.0), p);
                        prob.insert((bid.0, exit.0), 1.0 - p);
                    } else {
                        for s in &succs {
                            prob.insert((bid.0, s.0), 1.0 / succs.len() as f64);
                        }
                    }
                }
            }
        }

        // --- propagation with cyclic probabilities (Wu–Larus) --------------
        let mut cyclic: HashMap<u32, f64> = HashMap::new();
        let mut ff = FuncFreq {
            block: vec![0.0; n],
            edge: HashMap::new(),
            entry: 1.0,
        };

        // is (a, b) a back edge? b must be a loop header whose loop contains a.
        let is_back_edge = |a: BlockId, b: BlockId| -> bool {
            lf.iter()
                .any(|(_, l)| l.header == b && l.blocks.contains(&a))
        };

        // process loops innermost-first, then the whole function
        let mut loop_order: Vec<_> = lf.iter().map(|(id, l)| (id, l.depth)).collect();
        loop_order.sort_by_key(|(_, d)| std::cmp::Reverse(*d));

        let rpo: Vec<BlockId> = dt.rpo().to_vec();

        let run_pass = |head: BlockId,
                        region: Option<&[BlockId]>,
                        cyclic: &mut HashMap<u32, f64>,
                        ff: &mut FuncFreq| {
            let in_region = |b: BlockId| region.map(|r| r.contains(&b)).unwrap_or(true);
            let mut bfreq: HashMap<u32, f64> = HashMap::new();
            let mut efreq: HashMap<(u32, u32), f64> = HashMap::new();
            let mut cp_head = 0.0f64;
            for &b in &rpo {
                if !in_region(b) {
                    continue;
                }
                let mut bf = if b == head {
                    1.0
                } else {
                    // sum non-back in-edges from inside the region
                    let preds = prog.func(fid).predecessors();
                    preds[b.index()]
                        .iter()
                        .filter(|p| in_region(**p) && !is_back_edge(**p, b))
                        .map(|p| efreq.get(&(p.0, b.0)).copied().unwrap_or(0.0))
                        .sum()
                };
                // inner loop head: amplify by its cyclic probability
                if b != head {
                    if let Some(cp) = cyclic.get(&b.0) {
                        bf /= 1.0 - cp.min(0.98);
                    }
                }
                bfreq.insert(b.0, bf);
                for s in prog.func(fid).block(b).successors() {
                    let p = prob.get(&(b.0, s.0)).copied().unwrap_or(0.0);
                    let ef = p * bf;
                    efreq.insert((b.0, s.0), ef);
                    if s == head && in_region(b) {
                        cp_head += ef;
                    }
                }
            }
            if region.is_some() {
                cyclic.insert(head.0, cp_head);
            } else {
                // final pass: install absolute frequencies
                for (b, v) in bfreq {
                    ff.block[b as usize] = v;
                }
                ff.edge = efreq;
            }
        };

        for (lid, _) in loop_order {
            let l = lf.get(lid);
            run_pass(l.header, Some(&l.blocks), &mut cyclic, &mut ff);
        }
        // final pass over the whole function; the entry also benefits from its
        // own cyclic probability if it happens to be a loop header.
        {
            let entry = BlockId(0);
            let in_region = |_: BlockId| true;
            let mut efreq: HashMap<(u32, u32), f64> = HashMap::new();
            let preds = prog.func(fid).predecessors();
            for &b in &rpo {
                let mut bf = if b == entry {
                    1.0
                } else {
                    preds[b.index()]
                        .iter()
                        .filter(|p| in_region(**p) && !is_back_edge(**p, b))
                        .map(|p| efreq.get(&(p.0, b.0)).copied().unwrap_or(0.0))
                        .sum()
                };
                if let Some(cp) = cyclic.get(&b.0) {
                    bf /= 1.0 - cp.min(0.98);
                }
                ff.block[b.index()] = bf;
                for s in prog.func(fid).block(b).successors() {
                    let p = prob.get(&(b.0, s.0)).copied().unwrap_or(0.0);
                    efreq.insert((b.0, s.0), p * bf);
                }
            }
            ff.edge = efreq;
        }
        ff
    }
}

/// An `Analysis` assembled the way the benchmark ledger does it, with
/// the `collect` oracle's graphs and counts, encodes to the bytes of the
/// one `analyze` returns. Wall-clock times are zeroed on both sides.
fn check_analysis(label: &str, p: &Program, scheme: &WeightScheme<'_>) {
    let ipa = aggregate(p, &analyze_all_units(p), &LegalityConfig::default());
    let freqs = block_frequencies(p, scheme);
    let graphs = collect::build_affinity_graphs(p, &freqs);
    let counts = collect::build_field_counts(p, &freqs);
    let heuristics = match scheme {
        WeightScheme::Pbo(_) | WeightScheme::Ppbo(_) => HeuristicsConfig::pbo(),
        _ => HeuristicsConfig::ispbo(),
    };
    let plan = decide(p, &ipa, &graphs, &counts, &heuristics);
    let want = Analysis {
        ipa,
        graphs,
        counts,
        dcache: None,
        plan,
        fe: Duration::ZERO,
        ipa_time: Duration::ZERO,
    };
    let mut got = analyze(p, scheme, &PipelineConfig::default());
    got.fe = Duration::ZERO;
    got.ipa_time = Duration::ZERO;
    assert!(
        slo::encode_analysis(&got) == slo::encode_analysis(&want),
        "{label}: {} analysis differs from the collection oracle",
        scheme.name()
    );
}

/// The `freq` oracle's static estimate of every defined function under
/// both branch-probability sets, then [`check_analysis`] under every
/// static scheme and under PBO with a collected profile.
fn check_analyses(label: &str, p: &Program) {
    let facts = FactTable::new(p);
    for (fid, _) in facts.defined() {
        for probs in [BranchProbs::default(), BranchProbs::raised()] {
            assert!(
                facts.estimate_static(fid, &probs) == freq::estimate_static(p, fid, &probs),
                "{label}: static estimate of `{}`",
                p.func(fid).name
            );
        }
    }
    for scheme in [
        WeightScheme::Spbo,
        WeightScheme::Ispbo,
        WeightScheme::IspboNo,
        WeightScheme::IspboW,
    ] {
        check_analysis(label, p, &scheme);
    }
    let fb = collect_profile(p).expect("profile run");
    check_analysis(label, p, &WeightScheme::Pbo(&fb));
}

/// Both printers and both register typings agree on `p`, and the type
/// table's pointer lookup matches the scan for every type.
fn check(label: &str, p: &Program) {
    assert_eq!(
        print_program(p),
        fmt_printer::print_program(p),
        "{label}: printed program"
    );
    for fid in p.func_ids() {
        for (at, ins) in p.instrs_of(fid) {
            assert_eq!(
                print_instr(p, ins),
                fmt_printer::print_instr(p, ins),
                "{label}: instruction at {at}"
            );
        }
        if p.func(fid).kind == slo_ir::FuncKind::Defined {
            assert_eq!(
                reg_types(p, fid),
                scan::reg_types(p, fid),
                "{label}: register types of `{}`",
                p.func(fid).name
            );
        }
    }
    for i in 0..p.types.num_types() as u32 {
        let t = TypeId(i);
        let scanned = (0..p.types.num_types() as u32)
            .map(TypeId)
            .find(|&q| *p.types.get(q) == Type::Ptr(t));
        assert_eq!(p.types.ptr_id(t), scanned, "{label}: ptr_id({t})");
    }
}

#[test]
fn workload_families_match_the_reference() {
    let mut progs: Vec<(String, Program)> = Vec::new();
    for input in [InputSet::Training, InputSet::Reference] {
        progs.push((format!("mcf/{input:?}"), mcf::build(input)));
        progs.push((format!("art/{input:?}"), art::build(input)));
        progs.push((format!("moldyn/{input:?}"), moldyn::build(input)));
    }
    for scale in 1..=3 {
        for spec in &CENSUS_SPECS {
            progs.push((
                format!("census {} x{scale}", spec.name),
                census::generate(spec, scale),
            ));
        }
    }
    progs.push(("casestudy c++".into(), casestudy::spec2006_cpp(64, 2)));
    progs.push(("casestudy c".into(), casestudy::spec2006_c(64, 2, true)));
    progs.push(("kernel".into(), kernel::build(64, 8)));
    // The transform adds record and pointer types; the rewritten
    // programs are typed again when they are analyzed.
    let cfg = PipelineConfig::default();
    let transformed: Vec<(String, Program)> = progs
        .iter()
        .filter(|(label, _)| !label.starts_with("census"))
        .map(|(label, p)| {
            let out = compile(p, &WeightScheme::Ispbo, &cfg).expect("compile");
            (format!("{label} transformed"), out.program)
        })
        .collect();
    for (label, p) in progs.iter().chain(&transformed) {
        check(label, p);
    }
}

#[test]
fn example_ir_files_match_the_reference() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/ir");
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("examples/ir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "sir") {
            let src = std::fs::read_to_string(&path).expect("read .sir");
            check(&path.display().to_string(), &parse(&src).expect("parse"));
            n += 1;
        }
    }
    assert!(n >= 2, "expected the example IR files, found {n}");
}

#[test]
fn fuzz_programs_match_the_reference() {
    let cfg = GenConfig::default();
    for seed in 0..500 {
        let p = gen_program(&mut TestRng::from_seed(seed), &cfg);
        check(&format!("fuzz seed {seed}"), &p);
    }
}

/// A small instance of every workload family: the code has the same
/// shape at any size, and the profile runs stay short.
fn small_families() -> Vec<(String, Program)> {
    let mut progs: Vec<(String, Program)> = vec![
        (
            "mcf".into(),
            mcf::build_config(mcf::McfConfig {
                n: 400,
                iters: 4,
                skew: 0,
            }),
        ),
        (
            "art".into(),
            art::build_config(art::ArtConfig {
                n: 2_000,
                passes: 2,
            }),
        ),
        (
            "moldyn".into(),
            moldyn::build_config(moldyn::MoldynConfig {
                n: 500,
                steps: 2,
                neighbors: 4,
            }),
        ),
        ("casestudy c++".into(), casestudy::spec2006_cpp(64, 2)),
        ("casestudy c".into(), casestudy::spec2006_c(64, 2, true)),
        ("kernel".into(), kernel::build(64, 8)),
    ];
    for spec in &CENSUS_SPECS {
        progs.push((format!("census {}", spec.name), census::generate(spec, 1)));
    }
    progs
}

#[test]
fn workload_analyses_match_the_collection_oracle() {
    for (label, p) in small_families() {
        check_analyses(&label, &p);
    }
}

#[test]
fn example_ir_analyses_match_the_collection_oracle() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/ir");
    let mut n = 0;
    for entry in std::fs::read_dir(dir).expect("examples/ir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "sir") {
            let src = std::fs::read_to_string(&path).expect("read .sir");
            check_analyses(&path.display().to_string(), &parse(&src).expect("parse"));
            n += 1;
        }
    }
    assert!(n >= 2, "expected the example IR files, found {n}");
}

#[test]
fn fuzz_analyses_match_the_collection_oracle() {
    let cfg = GenConfig::default();
    for seed in 0..500 {
        let p = gen_program(&mut TestRng::from_seed(seed), &cfg);
        check_analyses(&format!("fuzz seed {seed}"), &p);
    }
}

/// A loop headed by the entry block, whose last frequency pass divides
/// the entry by its own cyclic probability, and a field address loaded
/// in a later block than the one computing it: no other input has
/// either.
#[test]
fn entry_loop_analyses_match_the_collection_oracle() {
    let src = "record r { a: i64, b: i64 }
global G: i64
func main() -> i64 {
bb0:
  r0 = gload G
  r1 = add r0, 1
  gstore r1, G
  r2 = alloc r, 2
  r3 = fieldaddr r2, r.a
  store r1, r3 : i64
  r5 = fieldaddr r2, r.b
  r4 = cmp.lt r1, 10
  br r4, bb0, bb1
bb1:
  r6 = load r5 : i64
  ret r6
}
";
    check_analyses("entry loop", &parse(src).expect("parse"));
}

/// Records `node { v: i64, next: ptr<node>, flags: u32:3, arr: [i32; 4],
/// f: fnptr }` and one function touching every operand kind and
/// instruction form. With `interned`, a global of type `ptr<ptr<node>>`
/// makes that pointer type exist, so `fieldaddr` of `next` types its
/// result `ptr<ptr<node>>`; without, it falls back to `ptr<node>`.
fn hand_program(interned: bool) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let i32t = pb.scalar(ScalarKind::I32);
    let u32t = pb.scalar(ScalarKind::U32);
    let f64t = pb.scalar(ScalarKind::F64);
    let fnp = pb.func_ptr();
    let arr = pb.array(i32t, 4);
    let (rid, rty) = pb.record_fwd("node");
    let pnode = pb.ptr(rty);
    pb.complete_record(
        rid,
        vec![
            Field::new("v", i64t),
            Field::new("next", pnode),
            Field::bitfield("flags", u32t, 3),
            Field::new("arr", arr),
            Field::new("f", fnp),
        ],
    );
    let g = pb.global("G", pnode);
    let big = pb.global("BIG", arr);
    if interned {
        let ppnode = pb.ptr(pnode);
        pb.global("PP", ppnode);
    }
    let helper = pb.declare("helper", vec![i64t, f64t], i64t);
    pb.define(helper, |fb| {
        let a = fb.param(0);
        fb.ret(Some(a.into()));
    });
    let ext = pb.external("mystery", vec![i64t], i64t);
    let main = pb.declare("main", vec![], i64t);
    pb.define(main, |fb| {
        let n = fb.alloc(rty, Operand::int(0));
        let next = fb.field_addr(n.into(), rid, 1);
        let v = fb.field_addr(n.into(), rid, 0);
        fb.store(v.into(), Operand::int(i64::MIN), i64t);
        fb.store(v.into(), Operand::int(-1), i64t);
        fb.store(v.into(), Operand::int(0), i64t);
        fb.store(v.into(), Operand::int(i64::MAX), i64t);
        fb.store(next.into(), Operand::Const(Const::Null), pnode);
        let nn = fb.load(next.into(), pnode);
        let copy = fb.fresh();
        fb.push(Instr::Assign {
            dst: copy,
            src: nn.into(),
        });
        let ga = fb.addr_of_global(g);
        let ba = fb.addr_of_global(big);
        let e = fb.index_addr(ba, i32t, Operand::int(-3));
        fb.store(e.into(), Operand::int(7), i32t);
        let gl = fb.load_global(g);
        fb.store_global(g, gl.into());
        for x in [-0.0, 0.0, 1e300, -1e-300, 0.1, f64::MIN_POSITIVE, 2.5e15] {
            let r = fb.fresh();
            fb.push(Instr::Bin {
                dst: r,
                op: BinOp::Mul,
                lhs: Operand::Const(Const::Float(x)),
                rhs: Operand::float(x),
            });
        }
        let c = fb.fresh();
        fb.push(Instr::Cmp {
            dst: c,
            op: CmpOp::Lt,
            lhs: Operand::int(-9),
            rhs: ga.into(),
        });
        let cast = fb.cast(c.into(), i64t, f64t);
        let fp = fb.func_addr(helper);
        let f = fb.field_addr(n.into(), rid, 4);
        fb.store(f.into(), fp.into(), fnp);
        let r = fb.call_indirect(
            fp.into(),
            vec![Operand::int(1), cast.into()],
            vec![i64t, f64t],
        );
        fb.push(Instr::CallIndirect {
            dst: None,
            target: fp.into(),
            args: vec![],
            arg_types: vec![],
        });
        fb.call(helper, vec![r.into(), Operand::float(-0.0)]);
        fb.call_void(ext, vec![Operand::int(42)]);
        let m = fb.calloc(i64t, Operand::int(3));
        let m2 = fb.fresh();
        fb.push(Instr::Realloc {
            dst: m2,
            ptr: m.into(),
            elem: i64t,
            count: Operand::int(6),
        });
        fb.memcpy(m2.into(), m.into(), Operand::int(24));
        fb.memset(m2.into(), Operand::int(0), Operand::int(48));
        fb.push(Instr::Free { ptr: m2.into() });
        fb.count_loop(Operand::int(1_000_000_007), |fb, i| {
            fb.add(i.into(), Operand::int(-1));
        });
        fb.ret(Some(Operand::int(0)));
    });
    let void = pb.void();
    let quit = pb.declare("quit", vec![], void);
    pb.define(quit, |fb| fb.ret(None));
    pb.finish()
}

#[test]
fn hand_cases_match_the_reference() {
    for interned in [false, true] {
        let p = hand_program(interned);
        check(&format!("hand, interned {interned}"), &p);
        let text = print_program(&p);
        for want in [
            "-9223372036854775808",
            "9223372036854775807",
            "store -1, ",
            "-0.0",
            "1e300",
            "null",
            "[i32; 4]",
            "fnptr",
            "flags: u32:3",
            "icall ",
            ") : ()",
            "zalloc i64, 3",
            "ret\n",
        ] {
            assert!(text.contains(want), "interned {interned}: `{want}` missing");
        }
        // `next`'s address is a pointer to `next`'s type only when that
        // pointer type exists in the table.
        let main = p.main().expect("main");
        let node = p.types.record_by_name("node").expect("node");
        let pnode = p
            .types
            .ptr_id(p.types.record_type_id(node).expect("node type"));
        let next_ty = reg_types(&p, main)[1].expect("r1 typed");
        if interned {
            assert_eq!(p.types.get(next_ty), &Type::Ptr(pnode.expect("ptr<node>")));
        } else {
            assert_eq!(Some(next_ty), pnode);
        }
    }
}

/// `fieldaddr`s in each function of [`many_records`].
const HOPS: usize = 8;

/// `n` record types `rN { v: i64, next: ptr<rN> }`, each walked by its own
/// function, which follows `next` [`HOPS`] times. `ptr<ptr<rN>>` does not
/// exist, so each `fieldaddr` made the old lookup scan all ~2n types.
fn many_records(n: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let main = pb.declare("main", vec![], i64t);
    let mut funcs = Vec::with_capacity(n);
    for i in 0..n {
        let (rid, rty) = pb.record_fwd(format!("r{i}"));
        let p = pb.ptr(rty);
        pb.complete_record(rid, vec![Field::new("v", i64t), Field::new("next", p)]);
        let f = pb.declare(format!("f{i}"), vec![p], p);
        pb.define(f, |fb| {
            let mut node = fb.param(0);
            for _ in 0..HOPS {
                let a = fb.field_addr(node.into(), rid, 1);
                node = fb.load(a.into(), p);
            }
            fb.ret(Some(node.into()));
        });
        funcs.push((f, rty));
    }
    pb.define(main, |fb| {
        for &(f, rty) in &funcs {
            let x = fb.alloc(rty, Operand::int(1));
            fb.call(f, vec![x.into()]);
        }
        fb.ret(Some(Operand::int(0)));
    });
    pb.finish()
}

/// In a debug test build on a 2-vCPU host, `analyze` here took
/// 0.6–0.75 s with the intern-map probe and 32 s with the table scan: the
/// bound sits above the one with room for a slow host, and more than
/// ten times below the other.
#[test]
fn analyze_is_linear_in_record_types() {
    let p = many_records(8_000);
    assert!(p.types.num_types() > 16_000);
    let t = std::time::Instant::now();
    let a = analyze(&p, &WeightScheme::Ispbo, &PipelineConfig::default());
    let took = t.elapsed();
    std::hint::black_box(a);
    assert!(
        took.as_secs_f64() < 3.0,
        "analyze on 8,000 record types took {took:?}"
    );
}
