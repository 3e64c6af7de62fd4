//! Intra-procedural block/edge frequency estimation.
//!
//! Two sources, mirroring the paper's §2.3:
//!
//! * **Profile-based** ([`from_profile`]): block counts reconstructed from
//!   the feedback file's edge counts (the PBO use phase).
//! * **Static** ([`FactTable::estimate_static`]): source-construct probability
//!   heuristics after Wu & Larus — a loop back edge executes with
//!   probability 0.88 (0.93 for floating-point loops: "a loop is assumed
//!   to execute about 8 times on average"), if-then-else branches split
//!   50/50 — propagated through the loop nest with cyclic probabilities.

use crate::util::FactTable;
use slo_ir::{BlockId, FuncId, Instr, Operand, Program, Type};
use slo_vm::Feedback;
use std::collections::HashMap;

/// Branch probability heuristics (the paper's §2.3 / ISPBO.W knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchProbs {
    /// Probability of staying in a floating-point loop.
    pub fp_loop_back: f64,
    /// Probability of staying in any other loop.
    pub int_loop_back: f64,
}

impl Default for BranchProbs {
    fn default() -> Self {
        BranchProbs {
            fp_loop_back: 0.93,
            int_loop_back: 0.88,
        }
    }
}

impl BranchProbs {
    /// The paper's ISPBO.W variant: raised back-edge probabilities
    /// (0.93 → 0.98 for FP loops, 0.88 → 0.95 otherwise).
    pub fn raised() -> Self {
        BranchProbs {
            fp_loop_back: 0.98,
            int_loop_back: 0.95,
        }
    }
}

/// Block and edge frequencies for one function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuncFreq {
    /// Frequency per block (indexed by block id).
    pub block: Vec<f64>,
    /// Frequency per CFG edge.
    pub edge: HashMap<(u32, u32), f64>,
    /// Frequency of function entry.
    pub entry: f64,
}

impl FuncFreq {
    /// Frequency of block `b` (0.0 if out of range).
    pub fn of(&self, b: BlockId) -> f64 {
        self.block.get(b.index()).copied().unwrap_or(0.0)
    }
}

/// Reconstruct frequencies from a profile (absolute counts).
/// Returns `None` if the feedback has no data for the function.
pub fn from_profile(prog: &Program, fid: FuncId, fb: &Feedback) -> Option<FuncFreq> {
    let f = prog.func(fid);
    let fp = fb.func(&f.name)?;
    let n = f.blocks.len();
    let mut ff = FuncFreq {
        block: vec![0.0; n],
        edge: HashMap::new(),
        entry: fp.entry_count as f64,
    };
    for ((a, b), c) in &fp.edges {
        if *a == *b {
            continue; // call-event pseudo edges
        }
        *ff.edge.entry((*a, *b)).or_insert(0.0) += *c as f64;
    }
    for b in 0..n as u32 {
        ff.block[b as usize] = fp.block_count(b) as f64;
    }
    // block 0 counts calls only via entry_count
    ff.block[0] = fp.entry_count as f64
        + ff.edge
            .iter()
            .filter(|((_, to), _)| *to == 0)
            .map(|(_, c)| *c)
            .sum::<f64>();
    Some(ff)
}

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

impl FactTable<'_> {
    /// Estimate the frequencies of `fid` statically (entry frequency
    /// 1.0), from its loop forest and predecessor lists in the table.
    pub fn estimate_static(&self, fid: FuncId, probs: &BranchProbs) -> FuncFreq {
        let prog = self.prog;
        let f = prog.func(fid);
        let n = f.blocks.len();
        if n == 0 {
            return FuncFreq::default();
        }
        let (lf, preds) = (&self.func(fid).loops, &self.func(fid).preds);
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
                    preds[b.index()]
                        .iter()
                        .filter(|p| in_region(**p) && !is_back_edge(**p, b))
                        .map(|p| efreq.get(&(p.0, b.0)).copied().unwrap_or(0.0))
                        .sum()
                };
                // inner loop head: amplify by its cyclic probability (the
                // entry too, in the final pass, if it is a loop header)
                if b != head || region.is_none() {
                    if let Some(cp) = cyclic.get(&b.0) {
                        bf /= 1.0 - cp.min(0.98);
                    }
                }
                bfreq.insert(b.0, bf);
                for s in f.block(b).successors() {
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
        // final pass over the whole function
        run_pass(BlockId(0), None, &mut cyclic, &mut ff);
        ff
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_ir::parser::parse;
    use slo_vm::{run, VmOptions};

    fn freq_of(src: &str) -> (slo_ir::Program, FuncFreq) {
        let p = parse(src).expect("parse");
        let main = p.main().expect("main");
        let ff = FactTable::new(&p).estimate_static(main, &BranchProbs::default());
        (p, ff)
    }

    #[test]
    fn straight_line_is_uniform() {
        let (_, ff) = freq_of("func main() -> i64 {\nbb0:\n  ret 0\n}\n");
        assert_eq!(ff.block, vec![1.0]);
    }

    #[test]
    fn single_int_loop_runs_about_8x() {
        // builder count_loop shape: bb0 -> bb1(head) -> {bb2(body), bb3}
        let src = r#"
func main() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 100
  br r1, bb2, bb3
bb2:
  r0 = add r0, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let (_, ff) = freq_of(src);
        // head freq = 1 / (1 - 0.88) = 8.33
        assert!(
            (ff.block[1] - 1.0 / 0.12).abs() < 1e-6,
            "head {}",
            ff.block[1]
        );
        assert!(
            (ff.block[2] - 0.88 / 0.12).abs() < 1e-6,
            "body {}",
            ff.block[2]
        );
        assert!((ff.block[3] - 1.0).abs() < 1e-6, "exit {}", ff.block[3]);
    }

    #[test]
    fn fp_loop_uses_higher_prob() {
        let src = r#"
func main() -> f64 {
bb0:
  r0 = 0
  r2 = alloc f64, 8
  jump bb1
bb1:
  r1 = cmp.lt r0, 100
  br r1, bb2, bb3
bb2:
  r3 = load r2 : f64
  r0 = add r0, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let (_, ff) = freq_of(src);
        // head freq = 1 / (1 - 0.93) ≈ 14.3
        assert!(
            (ff.block[1] - 1.0 / 0.07).abs() < 1e-6,
            "head {}",
            ff.block[1]
        );
    }

    #[test]
    fn nested_loops_multiply() {
        let src = r#"
func main() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 10
  br r1, bb2, bb6
bb2:
  r2 = 0
  jump bb3
bb3:
  r3 = cmp.lt r2, 10
  br r3, bb4, bb5
bb4:
  r2 = add r2, 1
  jump bb3
bb5:
  r0 = add r0, 1
  jump bb1
bb6:
  ret r0
}
"#;
        let (_, ff) = freq_of(src);
        // outer head ~8.3, inner head ~8.3 per outer iteration => ~61
        let outer_body = ff.block[2];
        let inner_head = ff.block[3];
        assert!(outer_body > 7.0 && outer_body < 7.5);
        assert!(
            (inner_head - outer_body / 0.12).abs() < 1e-6,
            "inner head {inner_head} vs outer body {outer_body}"
        );
        assert!(inner_head > 50.0);
    }

    #[test]
    fn if_then_else_splits_evenly() {
        let src = r#"
func main() -> i64 {
bb0:
  r0 = 1
  br r0, bb1, bb2
bb1:
  jump bb3
bb2:
  jump bb3
bb3:
  ret 0
}
"#;
        let (_, ff) = freq_of(src);
        assert!((ff.block[1] - 0.5).abs() < 1e-9);
        assert!((ff.block[2] - 0.5).abs() < 1e-9);
        assert!((ff.block[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_reconstruction_matches_execution() {
        let src = r#"
func main() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 50
  br r1, bb2, bb3
bb2:
  r0 = add r0, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let out = run(&p, &VmOptions::profiling()).expect("run");
        let main = p.main().expect("main");
        let ff = from_profile(&p, main, &out.feedback).expect("profile present");
        assert_eq!(ff.block[0], 1.0);
        assert_eq!(ff.block[1], 51.0);
        assert_eq!(ff.block[2], 50.0);
        assert_eq!(ff.block[3], 1.0);
        assert_eq!(ff.edge[&(2, 1)], 50.0);
    }

    #[test]
    fn missing_profile_is_none() {
        let p = parse("func main() -> i64 {\nbb0:\n  ret 0\n}\n").expect("parse");
        let main = p.main().expect("main");
        assert!(from_profile(&p, main, &Feedback::new(1)).is_none());
    }

    #[test]
    fn raised_probs_change_estimates() {
        let src = r#"
func main() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 100
  br r1, bb2, bb3
bb2:
  r0 = add r0, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let main = p.main().expect("main");
        let facts = FactTable::new(&p);
        let low = facts.estimate_static(main, &BranchProbs::default());
        let high = facts.estimate_static(main, &BranchProbs::raised());
        assert!(high.block[2] > low.block[2] * 2.0);
    }
}
