//! The weighting schemes of Table 2, behind one interface.
//!
//! Every scheme reduces to "block frequencies per function", which then
//! feed the affinity/hotness machinery uniformly:
//!
//! | Scheme    | Source |
//! |-----------|--------|
//! | PBO       | edge profile from a *training* run |
//! | PPBO      | edge profile from the *reference* run ("perfect PBO") |
//! | SPBO      | static per-procedure estimates (Wu–Larus heuristics) |
//! | ISPBO     | SPBO scaled inter-procedurally, exponent E = 1.5 |
//! | ISPBO.NO  | ISPBO without the exponent |
//! | ISPBO.W   | ISPBO.NO with raised back-edge probabilities |
//!
//! DMISS/DLAT/DMISS.NO are not block-frequency schemes — they attribute
//! PMU samples directly to fields — and live in [`crate::dcache`].

use crate::affinity::{AffinityGraphs, FieldCountMap};
use crate::freq::{from_profile, BranchProbs, FuncFreq};
use crate::ispbo::IspboConfig;
use crate::util::FactTable;
use slo_ir::{FuncId, Program, RecordId};
use slo_vm::Feedback;
use std::collections::HashMap;

/// A hotness/affinity weighting scheme.
#[derive(Debug, Clone)]
pub enum WeightScheme<'a> {
    /// Profile-based (training input).
    Pbo(&'a Feedback),
    /// Perfect PBO (reference input used for the feedback file).
    Ppbo(&'a Feedback),
    /// Static intra-procedural estimates.
    Spbo,
    /// Inter-procedurally scaled static estimates with exponent E = 1.5.
    Ispbo,
    /// ISPBO without the exponent.
    IspboNo,
    /// ISPBO.NO with raised back-edge probabilities (0.98 / 0.95).
    IspboW,
    /// Fully custom ISPBO configuration (ablation studies).
    IspboCustom(IspboConfig),
}

impl WeightScheme<'_> {
    /// Display name matching the paper's column headers.
    pub fn name(&self) -> &'static str {
        match self {
            WeightScheme::Pbo(_) => "PBO",
            WeightScheme::Ppbo(_) => "PPBO",
            WeightScheme::Spbo => "SPBO",
            WeightScheme::Ispbo => "ISPBO",
            WeightScheme::IspboNo => "ISPBO.NO",
            WeightScheme::IspboW => "ISPBO.W",
            WeightScheme::IspboCustom(_) => "ISPBO.CUSTOM",
        }
    }
}

impl FactTable<'_> {
    /// Per-function block frequencies under a scheme.
    pub fn block_frequencies(&self, scheme: &WeightScheme<'_>) -> HashMap<FuncId, FuncFreq> {
        let ispbo = |cfg: &IspboConfig| self.interprocedural_freqs(cfg).freqs;
        match scheme {
            WeightScheme::Pbo(fb) | WeightScheme::Ppbo(fb) => self
                .defined()
                .filter_map(|(fid, _)| Some((fid, from_profile(self.prog, fid, fb)?)))
                .collect(),
            WeightScheme::Spbo => self
                .defined()
                .map(|(fid, _)| (fid, self.estimate_static(fid, &BranchProbs::default())))
                .collect(),
            WeightScheme::Ispbo => ispbo(&IspboConfig::default()),
            WeightScheme::IspboNo => ispbo(&IspboConfig::without_exponent()),
            WeightScheme::IspboW => ispbo(&IspboConfig::with_raised_probs()),
            WeightScheme::IspboCustom(cfg) => ispbo(cfg),
        }
    }

    /// The profitability evidence under a scheme: affinity graphs for
    /// all record types and per-field read/write counts, from one set of
    /// block frequencies.
    pub fn profitability(&self, scheme: &WeightScheme<'_>) -> (AffinityGraphs, FieldCountMap) {
        self.affinity(&self.block_frequencies(scheme))
    }
}

/// [`FactTable::block_frequencies`] of a fresh table, kept for the
/// `perfbench` ledger (see [`crate::legality::analyze_all_units`]).
pub fn block_frequencies(prog: &Program, scheme: &WeightScheme<'_>) -> HashMap<FuncId, FuncFreq> {
    FactTable::new(prog).block_frequencies(scheme)
}

/// Relative field hotness (percent of the hottest field) for one record
/// under a scheme — one Table 2 column.
pub fn relative_hotness(prog: &Program, rid: RecordId, scheme: &WeightScheme<'_>) -> Vec<f64> {
    FactTable::new(prog)
        .profitability(scheme)
        .0
        .remove(&rid)
        .map(|g| g.relative_hotness())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlate::correlation;
    use slo_ir::parser::parse;
    use slo_vm::{run, VmOptions};

    // A loop whose trip count depends on an "input size" constant lets the
    // static schemes disagree with the profile in controlled ways.
    const SRC: &str = r#"
record node { hot: i64, warm: i64, cold: i64 }
func work(ptr<node>, i64) -> i64 {
bb0:
  r2 = 0
  r3 = 0
  jump bb1
bb1:
  r4 = cmp.lt r3, r1
  br r4, bb2, bb3
bb2:
  r5 = indexaddr r0, node, r3
  r6 = fieldaddr r5, node.hot
  r7 = load r6 : i64
  r2 = add r2, r7
  r3 = add r3, 1
  jump bb1
bb3:
  r8 = fieldaddr r0, node.cold
  r9 = load r8 : i64
  r10 = add r2, r9
  ret r10
}
func main() -> i64 {
bb0:
  r0 = alloc node, 1000
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 100
  br r2, bb2, bb3
bb2:
  r3 = call work(r0, 1000)
  r4 = indexaddr r0, node, r1
  r5 = fieldaddr r4, node.warm
  store r3, r5 : i64
  r1 = add r1, 1
  jump bb1
bb3:
  ret 0
}
"#;

    #[test]
    fn all_schemes_rank_hot_first() {
        let p = parse(SRC).expect("parse");
        let out = run(&p, &VmOptions::profiling()).expect("run");
        let node = p.types.record_by_name("node").expect("node");
        for scheme in [
            WeightScheme::Pbo(&out.feedback),
            WeightScheme::Spbo,
            WeightScheme::Ispbo,
            WeightScheme::IspboNo,
            WeightScheme::IspboW,
        ] {
            let rel = relative_hotness(&p, node, &scheme);
            assert_eq!(rel.len(), 3, "{}", scheme.name());
            assert_eq!(rel[0], 100.0, "{}: hot must be hottest", scheme.name());
            assert!(
                rel[2] < rel[0],
                "{}: cold must be colder than hot",
                scheme.name()
            );
        }
    }

    #[test]
    fn ispbo_correlates_better_than_spbo() {
        // The hot field is touched in a callee loop; SPBO cannot see that
        // the callee runs 100x per entry, ISPBO can.
        let p = parse(SRC).expect("parse");
        let out = run(&p, &VmOptions::profiling()).expect("run");
        let node = p.types.record_by_name("node").expect("node");
        let base = relative_hotness(&p, node, &WeightScheme::Pbo(&out.feedback));
        let spbo = relative_hotness(&p, node, &WeightScheme::Spbo);
        let ispbo = relative_hotness(&p, node, &WeightScheme::Ispbo);
        let r_spbo = correlation(&base, &spbo);
        let r_ispbo = correlation(&base, &ispbo);
        assert!(
            r_ispbo >= r_spbo,
            "ISPBO ({r_ispbo:.3}) should beat SPBO ({r_spbo:.3})"
        );
    }

    #[test]
    fn names_match_paper() {
        let fb = Feedback::new(1);
        assert_eq!(WeightScheme::Pbo(&fb).name(), "PBO");
        assert_eq!(WeightScheme::Ppbo(&fb).name(), "PPBO");
        assert_eq!(WeightScheme::Spbo.name(), "SPBO");
        assert_eq!(WeightScheme::Ispbo.name(), "ISPBO");
        assert_eq!(WeightScheme::IspboNo.name(), "ISPBO.NO");
        assert_eq!(WeightScheme::IspboW.name(), "ISPBO.W");
    }

    #[test]
    fn pbo_without_profile_data_gives_empty() {
        let p = parse(SRC).expect("parse");
        let fb = Feedback::new(1);
        let freqs = FactTable::new(&p).block_frequencies(&WeightScheme::Pbo(&fb));
        assert!(freqs.is_empty());
    }
}
