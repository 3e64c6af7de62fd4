//! Global variable layout (GVL).
//!
//! The paper (§4, discussing Calder et al.): "Our compiler has a similar
//! phase, which we call *global variable layout (GVL)*. We plan to merge
//! GVL with the presented framework in the future." This module performs
//! that merge: globals are reordered by access hotness so that hot
//! globals share cache lines (the VM places globals in declaration order
//! at the bottom of the address space, so declaration order *is* memory
//! order).

use crate::rewrite::RewriteError;
use slo_analysis::freq::FuncFreq;
use slo_ir::{FuncId, GlobalId, Instr, Program};
use std::collections::HashMap;

/// Estimated access count per global under the given frequencies.
pub fn global_hotness(prog: &Program, freqs: &HashMap<FuncId, FuncFreq>) -> Vec<(GlobalId, f64)> {
    let mut hot = vec![0.0f64; prog.globals.len()];
    let empty = FuncFreq::default();
    for fid in prog.func_ids() {
        if !prog.func(fid).is_defined() {
            continue;
        }
        let ff = freqs.get(&fid).unwrap_or(&empty);
        for (at, ins) in prog.instrs_of(fid) {
            let g = match ins {
                Instr::LoadGlobal { global, .. }
                | Instr::StoreGlobal { global, .. }
                | Instr::AddrOfGlobal { global, .. } => *global,
                _ => continue,
            };
            hot[g.index()] += ff.of(at.block);
        }
    }
    prog.global_ids().zip(hot).collect()
}

/// Compute the GVL order: hottest globals first.
pub fn gvl_order(prog: &Program, freqs: &HashMap<FuncId, FuncFreq>) -> Vec<GlobalId> {
    let mut hot = global_hotness(prog, freqs);
    hot.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    hot.into_iter().map(|(g, _)| g).collect()
}

/// Reorder the globals to `order`, rewriting every global reference.
///
/// # Errors
///
/// Returns [`RewriteError::Unsupported`] if `order` is not a permutation
/// of the program's globals.
pub fn apply_gvl(prog: &Program, order: &[GlobalId]) -> Result<Program, RewriteError> {
    let n = prog.globals.len();
    let mut seen = vec![false; n];
    if order.len() != n {
        return Err(RewriteError::Unsupported(format!(
            "GVL order has {} entries for {} globals",
            order.len(),
            n
        )));
    }
    for g in order {
        if g.index() >= n || seen[g.index()] {
            return Err(RewriteError::Unsupported(
                "GVL order is not a permutation".to_string(),
            ));
        }
        seen[g.index()] = true;
    }

    let mut out = prog.clone();
    // old id -> new id
    let mut remap = vec![GlobalId(0); n];
    for (new_i, &old) in order.iter().enumerate() {
        remap[old.index()] = GlobalId(new_i as u32);
    }
    out.globals = order
        .iter()
        .map(|g| prog.globals[g.index()].clone())
        .collect();
    for f in &mut out.funcs {
        for b in &mut f.blocks {
            for ins in &mut b.instrs {
                match ins {
                    Instr::LoadGlobal { global, .. }
                    | Instr::StoreGlobal { global, .. }
                    | Instr::AddrOfGlobal { global, .. } => {
                        *global = remap[global.index()];
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(out)
}

/// Convenience: compute the order and apply it in one step.
///
/// # Errors
///
/// Propagates [`apply_gvl`]'s errors (none in practice — the computed
/// order is always a permutation).
pub fn gvl(prog: &Program, freqs: &HashMap<FuncId, FuncFreq>) -> Result<Program, RewriteError> {
    apply_gvl(prog, &gvl_order(prog, freqs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_analysis::{FactTable, WeightScheme};
    use slo_ir::verify::assert_valid;
    use slo_ir::{Operand, ProgramBuilder, ScalarKind};
    use slo_vm::{run, VmOptions};

    /// 48 globals; 6 hot ones scattered every 8th position.
    fn scattered_globals() -> Program {
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let globals: Vec<_> = (0..48).map(|i| pb.global(format!("g{i}"), i64t)).collect();
        let hot: Vec<_> = globals.iter().copied().step_by(8).collect();
        let main = pb.declare("main", vec![], i64t);
        pb.define(main, |fb| {
            // touch every global once (they are all live)
            for &g in &globals {
                fb.store_global(g, Operand::int(1));
            }
            let acc = fb.fresh();
            fb.assign(acc, Operand::int(0));
            fb.count_loop(Operand::int(50_000), |fb, _| {
                for &g in &hot {
                    let v = fb.load_global(g);
                    let ns = fb.add(acc.into(), v.into());
                    fb.assign(acc, ns.into());
                }
            });
            fb.ret(Some(acc.into()));
        });
        pb.finish()
    }

    #[test]
    fn gvl_moves_hot_globals_to_front() {
        let p = scattered_globals();
        let freqs = FactTable::new(&p).block_frequencies(&WeightScheme::Spbo);
        let order = gvl_order(&p, &freqs);
        // the first six in the order are the six hot ones
        let hot_names: Vec<&str> = order[..6]
            .iter()
            .map(|g| p.global(*g).name.as_str())
            .collect();
        for want in ["g0", "g8", "g16", "g24", "g32", "g40"] {
            assert!(hot_names.contains(&want), "missing {want}: {hot_names:?}");
        }
    }

    #[test]
    fn gvl_preserves_semantics_and_saves_cycles() {
        let p = scattered_globals();
        let freqs = FactTable::new(&p).block_frequencies(&WeightScheme::Spbo);
        let q = gvl(&p, &freqs).expect("gvl");
        assert_valid(&q);
        let before = run(&p, &VmOptions::default()).expect("before");
        let after = run(&q, &VmOptions::default()).expect("after");
        assert_eq!(before.exit, after.exit);
        // 6 hot globals at 16-byte slots: scattered = 6 lines, packed = 2
        assert!(
            after.stats.cycles <= before.stats.cycles,
            "packing hot globals must not cost cycles: {} vs {}",
            after.stats.cycles,
            before.stats.cycles
        );
    }

    #[test]
    fn gvl_rejects_bad_orders() {
        let p = scattered_globals();
        assert!(apply_gvl(&p, &[]).is_err());
        let mut dup: Vec<GlobalId> = p.global_ids().collect();
        dup[1] = dup[0];
        assert!(apply_gvl(&p, &dup).is_err());
    }

    #[test]
    fn gvl_identity_when_uniform() {
        // all globals equally hot: the order is stable and semantics hold
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let g0 = pb.global("a", i64t);
        let g1 = pb.global("b", i64t);
        let main = pb.declare("main", vec![], i64t);
        pb.define(main, |fb| {
            fb.store_global(g0, Operand::int(2));
            fb.store_global(g1, Operand::int(3));
            let a = fb.load_global(g0);
            let b = fb.load_global(g1);
            let s = fb.add(a.into(), b.into());
            fb.ret(Some(s.into()));
        });
        let p = pb.finish();
        let freqs = FactTable::new(&p).block_frequencies(&WeightScheme::Spbo);
        let q = gvl(&p, &freqs).expect("gvl");
        let before = run(&p, &VmOptions::default()).expect("before");
        let after = run(&q, &VmOptions::default()).expect("after");
        assert_eq!(before.exit, after.exit);
        assert_eq!(after.exit, slo_vm::Value::Int(5));
    }
}
