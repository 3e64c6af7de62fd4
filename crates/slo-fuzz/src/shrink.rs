//! Program shrinking: greedy delta debugging over structured IR edits.
//!
//! When the oracle reports a violation, the driver minimizes the
//! failing program with [`proptest::shrink::minimize`], using
//! [`reduction_candidates`] as the reduction relation and "fails with
//! the same [`Violation::class`]" as the predicate. Each edit keeps the
//! program well-formed (ids are remapped), so candidates either fail
//! for the same reason or are rejected — the result is a small textual
//! repro that still triggers the original bug class.
//!
//! [`Violation::class`]: crate::oracle::Violation::class

use std::path::Path;

use slo_ir::printer::print_program;
use slo_ir::{BlockId, Const, FuncId, Function, GlobalId, Instr, Operand, Program};

/// All one-step reductions of `p`, most aggressive first.
pub fn reduction_candidates(p: &Program) -> Vec<Program> {
    let mut out = Vec::new();
    remove_unreachable_blocks(p, &mut out);
    remove_unreferenced_funcs(p, &mut out);
    thread_jump_blocks(p, &mut out);
    remove_unreferenced_globals(p, &mut out);
    straighten_branches(p, &mut out);
    remove_instrs(p, &mut out);
    remove_unreferenced_fields(p, &mut out);
    halve_constants(p, &mut out);
    out
}

fn retarget(i: &mut Instr, map: &dyn Fn(BlockId) -> BlockId) {
    match i {
        Instr::Jump { target } => *target = map(*target),
        Instr::Branch {
            then_bb, else_bb, ..
        } => {
            *then_bb = map(*then_bb);
            *else_bb = map(*else_bb);
        }
        _ => {}
    }
}

/// Drop every block unreachable from the entry (one candidate per
/// function that has any).
fn remove_unreachable_blocks(p: &Program, out: &mut Vec<Program>) {
    for (fi, f) in p.funcs.iter().enumerate() {
        if f.blocks.is_empty() {
            continue;
        }
        let mut reach = vec![false; f.blocks.len()];
        let mut stack = vec![0usize];
        reach[0] = true;
        while let Some(b) = stack.pop() {
            for s in f.blocks[b].successors() {
                if !reach[s.index()] {
                    reach[s.index()] = true;
                    stack.push(s.index());
                }
            }
        }
        if reach.iter().all(|r| *r) {
            continue;
        }
        // new index of each surviving block
        let mut map = vec![0u32; f.blocks.len()];
        let mut next = 0u32;
        for (bi, r) in reach.iter().enumerate() {
            if *r {
                map[bi] = next;
                next += 1;
            }
        }
        let mut q = p.clone();
        let func = &mut q.funcs[fi];
        let mut kept = Vec::with_capacity(next as usize);
        for (bi, blk) in func.blocks.drain(..).enumerate() {
            if reach[bi] {
                kept.push(blk);
            }
        }
        func.blocks = kept;
        for blk in &mut func.blocks {
            for i in &mut blk.instrs {
                retarget(i, &|b: BlockId| BlockId(map[b.index()]));
            }
        }
        out.push(q);
    }
}

fn remove_block(f: &mut Function, bi: usize) {
    f.blocks.remove(bi);
    for blk in &mut f.blocks {
        for i in &mut blk.instrs {
            retarget(i, &|b: BlockId| {
                if b.index() > bi {
                    BlockId(b.0 - 1)
                } else {
                    b
                }
            });
        }
    }
}

/// Collapse a non-entry block that is only `jump t`: redirect its
/// predecessors straight to `t` and delete it.
fn thread_jump_blocks(p: &Program, out: &mut Vec<Program>) {
    for (fi, f) in p.funcs.iter().enumerate() {
        for bi in 1..f.blocks.len() {
            let [Instr::Jump { target }] = f.blocks[bi].instrs.as_slice() else {
                continue;
            };
            let t = *target;
            if t.index() == bi {
                continue;
            }
            let mut q = p.clone();
            let func = &mut q.funcs[fi];
            for blk in &mut func.blocks {
                for i in &mut blk.instrs {
                    retarget(i, &|b: BlockId| if b.index() == bi { t } else { b });
                }
            }
            remove_block(func, bi);
            out.push(q);
        }
    }
}

fn remap_func(i: &mut Instr, map: &dyn Fn(FuncId) -> FuncId) {
    match i {
        Instr::Call { callee, .. } => *callee = map(*callee),
        Instr::FuncAddr { func, .. } => *func = map(*func),
        _ => {}
    }
}

fn remove_unreferenced_funcs(p: &Program, out: &mut Vec<Program>) {
    let mut used = vec![false; p.funcs.len()];
    for f in &p.funcs {
        for b in &f.blocks {
            for i in &b.instrs {
                match i {
                    Instr::Call { callee, .. } => used[callee.index()] = true,
                    Instr::FuncAddr { func, .. } => used[func.index()] = true,
                    _ => {}
                }
            }
        }
    }
    for (k, f) in p.funcs.iter().enumerate() {
        if used[k] || f.name == "main" {
            continue;
        }
        let mut q = p.clone();
        q.funcs.remove(k);
        let map = move |fid: FuncId| {
            if fid.index() > k {
                FuncId(fid.0 - 1)
            } else {
                fid
            }
        };
        for f in &mut q.funcs {
            for b in &mut f.blocks {
                for i in &mut b.instrs {
                    remap_func(i, &map);
                }
            }
        }
        out.push(q);
    }
}

fn remove_unreferenced_globals(p: &Program, out: &mut Vec<Program>) {
    let mut used = vec![false; p.globals.len()];
    for f in &p.funcs {
        for b in &f.blocks {
            for i in &b.instrs {
                match i {
                    Instr::LoadGlobal { global, .. }
                    | Instr::StoreGlobal { global, .. }
                    | Instr::AddrOfGlobal { global, .. } => used[global.index()] = true,
                    _ => {}
                }
            }
        }
    }
    for (k, _) in used.iter().enumerate().filter(|(_, u)| !**u) {
        let mut q = p.clone();
        q.globals.remove(k);
        for f in &mut q.funcs {
            for b in &mut f.blocks {
                for i in &mut b.instrs {
                    match i {
                        Instr::LoadGlobal { global, .. }
                        | Instr::StoreGlobal { global, .. }
                        | Instr::AddrOfGlobal { global, .. }
                            if global.index() > k =>
                        {
                            *global = GlobalId(global.0 - 1);
                        }
                        _ => {}
                    }
                }
            }
        }
        out.push(q);
    }
}

fn straighten_branches(p: &Program, out: &mut Vec<Program>) {
    for (fi, f) in p.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            let Some(Instr::Branch {
                then_bb, else_bb, ..
            }) = b.terminator()
            else {
                continue;
            };
            for target in [*then_bb, *else_bb] {
                let mut q = p.clone();
                let instrs = &mut q.funcs[fi].blocks[bi].instrs;
                *instrs.last_mut().unwrap() = Instr::Jump { target };
                out.push(q);
            }
        }
    }
}

fn remove_instrs(p: &Program, out: &mut Vec<Program>) {
    for (fi, f) in p.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            // skip the terminator; removing defs is safe because both
            // engines zero-initialize every register frame
            for ii in (0..b.instrs.len().saturating_sub(1)).rev() {
                let mut q = p.clone();
                q.funcs[fi].blocks[bi].instrs.remove(ii);
                out.push(q);
            }
        }
    }
}

fn remove_unreferenced_fields(p: &Program, out: &mut Vec<Program>) {
    for rid in p.types.record_ids() {
        let rec = p.types.record(rid);
        if rec.fields.len() < 2 {
            continue;
        }
        'field: for fi in 0..rec.fields.len() {
            for f in &p.funcs {
                for b in &f.blocks {
                    for i in &b.instrs {
                        if let Instr::FieldAddr { record, field, .. } = i {
                            if *record == rid && *field as usize == fi {
                                continue 'field;
                            }
                        }
                    }
                }
            }
            let mut q = p.clone();
            let mut new_rec = q.types.record(rid).clone();
            new_rec.fields.remove(fi);
            q.types.replace_record(rid, new_rec);
            for f in &mut q.funcs {
                for b in &mut f.blocks {
                    for i in &mut b.instrs {
                        if let Instr::FieldAddr { record, field, .. } = i {
                            if *record == rid && *field as usize > fi {
                                *field -= 1;
                            }
                        }
                    }
                }
            }
            out.push(q);
        }
    }
}

fn halve_operand(op: &mut Operand) -> bool {
    if let Operand::Const(Const::Int(v)) = op {
        if v.abs() > 2 {
            *v /= 2;
            return true;
        }
    }
    false
}

fn halve_constants(p: &Program, out: &mut Vec<Program>) {
    // one candidate per halvable constant, identified by walk order
    let mut n = 0usize;
    for f in &p.funcs {
        for b in &f.blocks {
            for i in &b.instrs {
                i.for_each_use(|op| {
                    if matches!(op, Operand::Const(Const::Int(v)) if v.abs() > 2) {
                        n += 1;
                    }
                });
            }
        }
    }
    for target in 0..n {
        let mut q = p.clone();
        let mut k = 0usize;
        'outer: for f in &mut q.funcs {
            for b in &mut f.blocks {
                for i in &mut b.instrs {
                    if halve_nth_const(i, &mut k, target) {
                        break 'outer;
                    }
                }
            }
        }
        out.push(q);
    }
}

/// Halve the `target`-th halvable constant in walk order; `k` counts
/// halvable constants seen so far.
fn halve_nth_const(i: &mut Instr, k: &mut usize, target: usize) -> bool {
    let mut hit = false;
    let mut visit = |op: &mut Operand| {
        if hit {
            return;
        }
        if matches!(op, Operand::Const(Const::Int(v)) if v.abs() > 2) {
            if *k == target {
                halve_operand(op);
                hit = true;
            }
            *k += 1;
        }
    };
    match i {
        Instr::Assign { src, .. } | Instr::Cast { src, .. } => visit(src),
        Instr::Bin { lhs, rhs, .. } | Instr::Cmp { lhs, rhs, .. } => {
            visit(lhs);
            visit(rhs);
        }
        Instr::FieldAddr { base, .. } => visit(base),
        Instr::IndexAddr { base, index, .. } => {
            visit(base);
            visit(index);
        }
        Instr::Load { addr, .. } => visit(addr),
        Instr::Store { addr, value, .. } => {
            visit(addr);
            visit(value);
        }
        Instr::StoreGlobal { value, .. } => visit(value),
        Instr::Alloc { count, .. } => visit(count),
        Instr::Free { ptr } => visit(ptr),
        Instr::Realloc { ptr, count, .. } => {
            visit(ptr);
            visit(count);
        }
        Instr::Memcpy { dst, src, bytes } => {
            visit(dst);
            visit(src);
            visit(bytes);
        }
        Instr::Memset { dst, val, bytes } => {
            visit(dst);
            visit(val);
            visit(bytes);
        }
        Instr::Call { args, .. } => args.iter_mut().for_each(&mut visit),
        Instr::CallIndirect {
            target: t, args, ..
        } => {
            visit(t);
            args.iter_mut().for_each(&mut visit);
        }
        Instr::Branch { cond, .. } => visit(cond),
        Instr::Return { value } => {
            if let Some(v) = value {
                visit(v)
            }
        }
        Instr::LoadGlobal { .. }
        | Instr::AddrOfGlobal { .. }
        | Instr::FuncAddr { .. }
        | Instr::Jump { .. } => {}
    }
    hit
}

/// Shrink a failing program: `still_fails` must return `true` for
/// programs that reproduce the original failure class.
pub fn shrink_failing<P>(
    prog: Program,
    still_fails: P,
    max_attempts: usize,
) -> (Program, proptest::shrink::ShrinkStats)
where
    P: FnMut(&Program) -> bool,
{
    proptest::shrink::minimize(prog, reduction_candidates, still_fails, max_attempts)
}

/// Write a minimized repro to `dir/name.sir`: leading `// …` comment
/// lines followed by the textual IR. Returns the file's line count.
pub fn write_repro(
    dir: &Path,
    name: &str,
    comments: &[String],
    prog: &Program,
) -> std::io::Result<(std::path::PathBuf, usize)> {
    std::fs::create_dir_all(dir)?;
    let mut text = String::new();
    for c in comments {
        text.push_str("// ");
        text.push_str(c);
        text.push('\n');
    }
    text.push_str(&print_program(prog));
    if !text.ends_with('\n') {
        text.push('\n');
    }
    let path = dir.join(format!("{name}.sir"));
    let lines = text.lines().count();
    std::fs::write(&path, &text)?;
    Ok((path, lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_program, GenConfig};
    use proptest::TestRng;
    use slo_ir::verify::verify;

    #[test]
    fn candidates_preserve_wellformedness_often_enough() {
        // Reductions must keep ids in range (the verifier may reject a
        // candidate for semantic reasons, but never panic).
        let cfg = GenConfig::default();
        for seed in 0..8 {
            let mut rng = TestRng::from_seed(seed);
            let p = gen_program(&mut rng, &cfg);
            for q in reduction_candidates(&p) {
                let _ = verify(&q); // must not panic
            }
        }
    }

    #[test]
    fn shrinking_reduces_program_size() {
        let cfg = GenConfig::default();
        let mut rng = TestRng::from_seed(11);
        let p = gen_program(&mut rng, &cfg);
        let before = print_program(&p).lines().count();
        // predicate: "program still has a main that verifies" — shrink
        // to the smallest such program
        let (q, _) = shrink_failing(p, |c| c.main().is_some() && verify(c).is_empty(), 2000);
        let after = print_program(&q).lines().count();
        assert!(
            after < before,
            "no reduction happened ({before} -> {after})"
        );
    }
}
