//! Inter-procedurally scaled static frequencies — the paper's ISPBO.
//!
//! Local static estimates are propagated top-down over the call graph:
//! `N_g(main) = 1`, `N_g(f) = Σ E_g(c)` over call sites `c` of `f`, and
//! every local count inside `f` is scaled by `S = N_g(f) / N_loc(f)`
//! (our local entry count is 1, so `S = N_g(f)`).
//!
//! Because the local back-edge probabilities produce hotness histograms
//! that are "too flat", the paper additionally raises the scaling factor
//! to the power `E = 1.5` (`S` is either >1 or <1, so exponentiation
//! improves hot/cold separability). `ISPBO.NO` is the same computation
//! with `E = 1`.
//!
//! Recursion is handled by processing call-graph SCCs in topological order
//! and resolving intra-SCC flow with a damped geometric fixpoint (a
//! recursive call contributes `damping` of its caller's count per round),
//! which converges for any call-frequency matrix.

use crate::freq::{BranchProbs, FuncFreq};
use crate::util::FactTable;
use slo_ir::callgraph::CallGraph;
use slo_ir::FuncId;
use std::collections::HashMap;

/// Configuration for the ISPBO computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IspboConfig {
    /// The separability exponent `E` applied to the scaling factor.
    pub exponent: f64,
    /// Branch probability heuristics for the local estimates.
    pub probs: BranchProbs,
    /// Damping factor for intra-SCC (recursive) call flow.
    pub damping: f64,
    /// Fixpoint rounds for recursive SCCs.
    pub rounds: u32,
}

impl Default for IspboConfig {
    fn default() -> Self {
        IspboConfig {
            exponent: 1.5,
            probs: BranchProbs::default(),
            damping: 0.5,
            rounds: 12,
        }
    }
}

impl IspboConfig {
    /// The ISPBO.NO variant: no exponent.
    pub fn without_exponent() -> Self {
        IspboConfig {
            exponent: 1.0,
            ..Default::default()
        }
    }

    /// The ISPBO.W variant: no exponent, raised back-edge probabilities.
    pub fn with_raised_probs() -> Self {
        IspboConfig {
            exponent: 1.0,
            probs: BranchProbs::raised(),
            ..Default::default()
        }
    }
}

/// Result: globally scaled frequencies plus the raw global entry counts.
#[derive(Debug, Clone, Default)]
pub struct IspboResult {
    /// Scaled block/edge frequencies per defined function.
    pub freqs: HashMap<FuncId, FuncFreq>,
    /// Global entry counts `N_g(f)`.
    pub global_counts: HashMap<FuncId, f64>,
}

impl FactTable<'_> {
    /// Compute inter-procedurally scaled static frequencies.
    pub fn interprocedural_freqs(&self, cfg: &IspboConfig) -> IspboResult {
        let prog = self.prog;
        let cg = CallGraph::build(prog);

        // 1. Local estimates (entry count 1.0 each).
        let local: HashMap<FuncId, FuncFreq> = self
            .defined()
            .map(|(fid, _)| (fid, self.estimate_static(fid, &cfg.probs)))
            .collect();

        // 2. Local call-site frequencies: E_loc(c) = local freq of the block
        //    containing the call.
        let site_local_freq = |caller: FuncId, block: slo_ir::BlockId| -> f64 {
            local.get(&caller).map(|ff| ff.of(block)).unwrap_or(0.0)
        };

        // 3. Global counts via topological SCC order (Tarjan emits callees
        //    first; we reverse to get callers first).
        let mut n_g: HashMap<FuncId, f64> = HashMap::new();
        let main = prog.main();
        let sccs = cg.sccs(prog);

        for scc in sccs.iter().rev() {
            // external inflow (from outside this SCC)
            let mut ext: HashMap<FuncId, f64> = HashMap::new();
            for &f in scc {
                let mut inflow = 0.0;
                for site in cg.calls_to(f) {
                    if scc.contains(&site.caller) {
                        continue;
                    }
                    let caller_ng = n_g.get(&site.caller).copied().unwrap_or(0.0);
                    inflow += site_local_freq(site.caller, site.block) * caller_ng;
                }
                if Some(f) == main {
                    inflow += 1.0;
                } else if inflow == 0.0 && cg.calls_to(f).next().is_none() {
                    // unreached root (alternate entry point): assume one entry
                    inflow = 1.0;
                }
                ext.insert(f, inflow);
            }

            let recursive =
                scc.len() > 1 || scc.iter().any(|&f| cg.calls_from(f).any(|s| s.callee == f));
            if !recursive {
                for &f in scc {
                    n_g.insert(f, ext[&f]);
                }
                continue;
            }

            // Damped geometric fixpoint for recursive SCCs.
            let mut cur: HashMap<FuncId, f64> = ext.clone();
            for _ in 0..cfg.rounds {
                let mut next = ext.clone();
                for &f in scc {
                    for site in cg.calls_from(f) {
                        if scc.contains(&site.callee) {
                            let contrib = site_local_freq(f, site.block)
                                * cur.get(&f).copied().unwrap_or(0.0)
                                * cfg.damping;
                            *next.entry(site.callee).or_insert(0.0) += contrib;
                        }
                    }
                }
                cur = next;
            }
            for &f in scc {
                n_g.insert(f, cur.get(&f).copied().unwrap_or(0.0));
            }
        }

        // 4. Scale local frequencies by S^E.
        let mut freqs = HashMap::new();
        for (fid, ff) in &local {
            let s = n_g.get(fid).copied().unwrap_or(0.0).max(0.0);
            let scale = if s == 0.0 { 0.0 } else { s.powf(cfg.exponent) };
            let mut scaled = ff.clone();
            for b in &mut scaled.block {
                *b *= scale;
            }
            for v in scaled.edge.values_mut() {
                *v *= scale;
            }
            scaled.entry *= scale;
            freqs.insert(*fid, scaled);
        }

        IspboResult {
            freqs,
            global_counts: n_g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_ir::parser::parse;

    #[test]
    fn callee_in_loop_is_hotter() {
        // main calls leaf() from inside a loop: leaf's blocks must end up
        // hotter than main's straight-line code.
        let src = r#"
func leaf() -> i64 {
bb0:
  ret 1
}
func main() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 100
  br r1, bb2, bb3
bb2:
  r2 = call leaf()
  r0 = add r0, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let res = FactTable::new(&p).interprocedural_freqs(&IspboConfig::default());
        let leaf = p.func_by_name("leaf").expect("leaf");
        let main = p.main().expect("main");
        // leaf N_g = loop body freq (~7.3)
        let ng = res.global_counts[&leaf];
        assert!(ng > 5.0 && ng < 9.0, "leaf N_g = {ng}");
        assert_eq!(res.global_counts[&main], 1.0);
        // leaf's entry block freq is scaled by S^1.5
        let leaf_freq = res.freqs[&leaf].block[0];
        assert!((leaf_freq - ng.powf(1.5)).abs() < 1e-9);
    }

    #[test]
    fn deep_call_chain_compounds() {
        let src = r#"
func c() -> i64 {
bb0:
  ret 1
}
func b() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 10
  br r1, bb2, bb3
bb2:
  r2 = call c()
  r0 = add r0, 1
  jump bb1
bb3:
  ret 0
}
func main() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 10
  br r1, bb2, bb3
bb2:
  r2 = call b()
  r0 = add r0, 1
  jump bb1
bb3:
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let res = FactTable::new(&p).interprocedural_freqs(&IspboConfig::without_exponent());
        let fb = p.func_by_name("b").expect("b");
        let fc = p.func_by_name("c").expect("c");
        let ng_b = res.global_counts[&fb];
        let ng_c = res.global_counts[&fc];
        assert!(ng_c > ng_b * 5.0, "c={ng_c} b={ng_b}");
    }

    #[test]
    fn recursion_terminates_and_is_finite() {
        let src = r#"
func f(i64) -> i64 {
bb0:
  r1 = cmp.gt r0, 0
  br r1, bb1, bb2
bb1:
  r2 = sub r0, 1
  r3 = call f(r2)
  ret r3
bb2:
  ret 0
}
func main() -> i64 {
bb0:
  r0 = call f(10)
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let res = FactTable::new(&p).interprocedural_freqs(&IspboConfig::default());
        let f = p.func_by_name("f").expect("f");
        let ng = res.global_counts[&f];
        assert!(ng.is_finite());
        assert!(
            ng >= 1.0,
            "recursive callee must stay at least as hot as its external inflow, got {ng}"
        );
    }

    #[test]
    fn exponent_increases_separation() {
        let src = r#"
func hot() -> i64 {
bb0:
  ret 1
}
func main() -> i64 {
bb0:
  r0 = 0
  jump bb1
bb1:
  r1 = cmp.lt r0, 100
  br r1, bb2, bb3
bb2:
  r2 = call hot()
  r0 = add r0, 1
  jump bb1
bb3:
  ret r0
}
"#;
        let p = parse(src).expect("parse");
        let with = FactTable::new(&p).interprocedural_freqs(&IspboConfig::default());
        let without = FactTable::new(&p).interprocedural_freqs(&IspboConfig::without_exponent());
        let hot = p.func_by_name("hot").expect("hot");
        assert!(with.freqs[&hot].block[0] > without.freqs[&hot].block[0]);
    }

    #[test]
    fn unreached_function_gets_unit_entry() {
        let src = r#"
func orphan() -> i64 {
bb0:
  ret 0
}
func main() -> i64 {
bb0:
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let res = FactTable::new(&p).interprocedural_freqs(&IspboConfig::default());
        let orphan = p.func_by_name("orphan").expect("orphan");
        assert_eq!(res.global_counts[&orphan], 1.0);
    }
}
