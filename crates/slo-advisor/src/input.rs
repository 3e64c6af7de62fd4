//! Bundled inputs for the advisory tool.

use slo_analysis::affinity::{AffinityGraph, FieldCounts};
use slo_analysis::dcache::FieldDcache;
use slo_analysis::ipa::IpaResult;
use slo_ir::{Program, RecordId};
use slo_transform::TransformPlan;
use std::collections::HashMap;

/// Everything the advisor correlates: static analysis results plus the
/// optional runtime measurements.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorInput<'a> {
    /// The analyzed program.
    pub prog: &'a Program,
    /// IPA legality verdicts and attributes.
    pub ipa: &'a IpaResult,
    /// Affinity graphs (under the chosen weighting scheme).
    pub graphs: &'a HashMap<RecordId, AffinityGraph>,
    /// Per-field read/write counts.
    pub counts: &'a HashMap<(RecordId, u32), FieldCounts>,
    /// Attributed d-cache samples (None for purely static runs).
    pub dcache: Option<&'a HashMap<(RecordId, u32), FieldDcache>>,
    /// Attributed dominant strides (None for purely static runs).
    pub strides: Option<&'a HashMap<(RecordId, u32), slo_vm::profile::StrideInfo>>,
    /// The planned transformations, if IPA has decided them.
    pub plan: Option<&'a TransformPlan>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use slo_analysis::ipa::{analyze_program, LegalityConfig};
    use slo_analysis::{FactTable, WeightScheme};
    use slo_ir::parser::parse;
    use slo_transform::{decide, HeuristicsConfig};
    use slo_vm::{run, VmOptions};

    /// A small mcf-flavoured program with one hot type (loop-accessed
    /// fields + cold + unused), one cold type, sampling and a plan.
    #[allow(clippy::type_complexity)]
    pub(crate) fn mcf_like_input() -> (
        Program,
        IpaResult,
        HashMap<RecordId, AffinityGraph>,
        HashMap<(RecordId, u32), FieldCounts>,
        HashMap<(RecordId, u32), FieldDcache>,
        TransformPlan,
    ) {
        let src = r#"
record node { hot: i64, warm: i64, cold1: i64, cold2: i64, unused: i64 }
record coldtype { x: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 4096
  r20 = alloc coldtype, 4
  r21 = fieldaddr r20, coldtype.x
  store 1, r21 : i64
  r1 = fieldaddr r0, node.cold1
  store 1, r1 : i64
  r2 = fieldaddr r0, node.cold2
  r3 = load r2 : i64
  r4 = 0
  jump bb1
bb1:
  r5 = cmp.lt r4, 4096
  br r5, bb2, bb3
bb2:
  r6 = indexaddr r0, node, r4
  r7 = fieldaddr r6, node.hot
  r8 = load r7 : i64
  r9 = fieldaddr r6, node.warm
  store r8, r9 : i64
  r4 = add r4, 1
  jump bb1
bb3:
  ret 0
}
"#;
        let prog = parse(src).expect("parse");
        let out = run(&prog, &VmOptions::profiling()).expect("run");
        let facts = FactTable::new(&prog);
        let (graphs, counts) = facts.profitability(&WeightScheme::Pbo(&out.feedback));
        let dcache = facts.attribute_samples(&out.feedback);
        let ipa = analyze_program(&prog, &LegalityConfig::default());
        let plan = decide(&prog, &ipa, &graphs, &counts, &HeuristicsConfig::pbo());
        (prog, ipa, graphs, counts, dcache, plan)
    }

    #[test]
    fn fixture_builds() {
        let (prog, ipa, graphs, ..) = mcf_like_input();
        assert_eq!(prog.types.num_records(), 2);
        assert_eq!(ipa.num_types(), 2);
        assert_eq!(graphs.len(), 2);
    }
}
