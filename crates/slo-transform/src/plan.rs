//! Transformation planning — the paper's §2.4 heuristics.
//!
//! Given the IPA legality verdicts and the profitability analysis, decide
//! per record type whether (and how) to transform it:
//!
//! * **Dead fields are always removed** (subject to bit-field/alignment
//!   guards).
//! * **Peeling is always performed** when no link pointers would be needed
//!   (the 179.art pattern: a non-recursive type reached only through
//!   global pointers from a single allocation).
//! * **Splitting** moves fields with relative hotness below the threshold
//!   `T_s` into a cold section reached through a link pointer; at least
//!   two fields must be split out for the transformation to pay for the
//!   link pointer. `T_s` defaults to 3% under PBO and 7.5% under ISPBO.
//! * **Reordering** is only performed in the context of splitting: the
//!   surviving hot fields are ordered by descending hotness with greedy
//!   affinity grouping.
//! * Only **dynamically allocated** types are transformed; types with only
//!   global/local variable instances are left alone.

use slo_analysis::affinity::{AffinityGraph, FieldCounts};
use slo_analysis::ipa::IpaResult;
use slo_ir::{Instr, Operand, Program, RecordId, Type};
use std::collections::HashMap;

/// What to do with one record type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeTransform {
    /// Leave the type alone.
    None,
    /// Remove the listed (dead/unused) fields; no other layout change.
    RemoveDead {
        /// Field indices to remove.
        dead: Vec<u32>,
    },
    /// Split into a hot root and a cold part behind a link pointer.
    Split {
        /// Hot fields in their new order (indices into the original type).
        hot_order: Vec<u32>,
        /// Cold (split-out) fields, original indices.
        cold: Vec<u32>,
        /// Dead fields removed entirely, original indices.
        dead: Vec<u32>,
    },
    /// Peel into one array per field (no link pointers).
    Peel {
        /// Dead fields dropped during peeling, original indices.
        dead: Vec<u32>,
    },
    /// Instance-interleave: one allocation, per-field regions (Truong et
    /// al.; needs a compile-time-constant allocation count).
    Interleave {
        /// Dead fields dropped, original indices.
        dead: Vec<u32>,
    },
}

impl TypeTransform {
    /// Number of split-out plus dead fields — Table 3's "S/D" column.
    pub fn sd_count(&self) -> (usize, usize) {
        match self {
            TypeTransform::None => (0, 0),
            TypeTransform::RemoveDead { dead } => (0, dead.len()),
            TypeTransform::Split { cold, dead, .. } => (cold.len(), dead.len()),
            TypeTransform::Peel { dead } | TypeTransform::Interleave { dead } => (0, dead.len()),
        }
    }

    /// Whether this is an actual transformation.
    pub fn is_some(&self) -> bool {
        !matches!(self, TypeTransform::None)
    }
}

/// A whole-program transformation plan (IPA's "control information for
/// the BE").
#[derive(Debug, Clone, Default)]
pub struct TransformPlan {
    /// Planned transform per record type.
    pub types: HashMap<RecordId, TypeTransform>,
}

impl TransformPlan {
    /// The planned transform for `rid` (`None` when unplanned).
    pub fn of(&self, rid: RecordId) -> &TypeTransform {
        self.types.get(&rid).unwrap_or(&TypeTransform::None)
    }

    /// Number of transformed types — Table 3's `T_t`.
    pub fn num_transformed(&self) -> usize {
        self.types.values().filter(|t| t.is_some()).count()
    }
}

/// Heuristic knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicsConfig {
    /// `T_s`: fields with relative hotness (fraction of the hottest, in
    /// percent) below this are split out. 3.0 for PBO, 7.5 for ISPBO.
    pub split_threshold: f64,
    /// Minimum number of fields that must be split out (the link pointer
    /// must pay for itself). The paper uses 2.
    pub min_split_fields: usize,
    /// Allow peeling.
    pub enable_peel: bool,
    /// Allow splitting.
    pub enable_split: bool,
    /// Allow dead-field removal.
    pub enable_dead_removal: bool,
    /// Use instance interleaving instead of separate-array peeling when
    /// the allocation count is a compile-time constant (off by default;
    /// the paper did not find opportunities warranting it in its suite).
    pub prefer_interleave: bool,
}

impl HeuristicsConfig {
    /// Defaults for profile-based compilation (T_s = 3%).
    pub fn pbo() -> Self {
        HeuristicsConfig {
            split_threshold: 3.0,
            min_split_fields: 2,
            enable_peel: true,
            enable_split: true,
            enable_dead_removal: true,
            prefer_interleave: false,
        }
    }

    /// Defaults for non-profile compilation (T_s = 7.5%).
    pub fn ispbo() -> Self {
        HeuristicsConfig {
            split_threshold: 7.5,
            ..Self::pbo()
        }
    }

    /// Start building from the PBO defaults (the `Default` impl).
    pub fn builder() -> HeuristicsConfigBuilder {
        HeuristicsConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builder for [`HeuristicsConfig`] (see [`HeuristicsConfig::builder`]).
#[derive(Debug, Clone)]
pub struct HeuristicsConfigBuilder {
    cfg: HeuristicsConfig,
}

impl HeuristicsConfigBuilder {
    /// `T_s`: relative-hotness split threshold in percent.
    pub fn split_threshold(mut self, ts: f64) -> Self {
        self.cfg.split_threshold = ts;
        self
    }

    /// Minimum number of split-out fields for a split to pay off.
    pub fn min_split_fields(mut self, n: usize) -> Self {
        self.cfg.min_split_fields = n;
        self
    }

    /// Allow peeling.
    pub fn enable_peel(mut self, on: bool) -> Self {
        self.cfg.enable_peel = on;
        self
    }

    /// Allow splitting.
    pub fn enable_split(mut self, on: bool) -> Self {
        self.cfg.enable_split = on;
        self
    }

    /// Allow dead-field removal.
    pub fn enable_dead_removal(mut self, on: bool) -> Self {
        self.cfg.enable_dead_removal = on;
        self
    }

    /// Prefer instance interleaving over separate-array peeling.
    pub fn prefer_interleave(mut self, on: bool) -> Self {
        self.cfg.prefer_interleave = on;
        self
    }

    /// Finish.
    pub fn build(self) -> HeuristicsConfig {
        self.cfg
    }
}

impl Default for HeuristicsConfig {
    fn default() -> Self {
        Self::pbo()
    }
}

/// Decide the transformation plan for a program.
pub fn decide(
    prog: &Program,
    ipa: &IpaResult,
    graphs: &HashMap<RecordId, AffinityGraph>,
    counts: &HashMap<(RecordId, u32), FieldCounts>,
    cfg: &HeuristicsConfig,
) -> TransformPlan {
    let mut plan = TransformPlan::default();
    for rid in prog.types.record_ids() {
        let verdict = ipa.verdict(rid);
        if !verdict.legal() {
            plan.types.insert(rid, TypeTransform::None);
            continue;
        }
        // Only dynamically allocated objects are transformed.
        if !verdict.attrs.dyn_alloc {
            plan.types.insert(rid, TypeTransform::None);
            continue;
        }

        let rec = prog.types.record(rid);
        let nfields = rec.fields.len() as u32;
        let graph = graphs.get(&rid);

        // --- dead / unused fields --------------------------------------
        let mut dead: Vec<u32> = Vec::new();
        if cfg.enable_dead_removal {
            for f in 0..nfields {
                if rec.fields[f as usize].bit_width.is_some() {
                    continue; // alignment/bit-field guard
                }
                let c = counts.get(&(rid, f)).copied().unwrap_or_default();
                if c.reads == 0.0 {
                    // no reads: dead (written) or unused (untouched)
                    dead.push(f);
                }
            }
        }
        // never remove everything
        if dead.len() == rec.fields.len() && !dead.is_empty() {
            dead.pop();
        }

        // --- peeling ------------------------------------------------------
        if cfg.enable_peel && peelable(prog, rid, ipa) {
            let const_count = verdict
                .attrs
                .alloc_sites
                .first()
                .and_then(|s| s.const_count)
                .is_some();
            let t = if cfg.prefer_interleave && const_count {
                TypeTransform::Interleave { dead }
            } else {
                TypeTransform::Peel { dead }
            };
            plan.types.insert(rid, t);
            continue;
        }

        // --- splitting ------------------------------------------------------
        if cfg.enable_split {
            if let Some(g) = graph {
                let rel = g.relative_hotness();
                let mut cold: Vec<u32> = Vec::new();
                let mut hot: Vec<u32> = Vec::new();
                for f in 0..nfields {
                    if dead.contains(&f) {
                        continue;
                    }
                    if rec.fields[f as usize].bit_width.is_some() {
                        hot.push(f); // keep bit-fields in the root
                        continue;
                    }
                    if rel[f as usize] < cfg.split_threshold {
                        cold.push(f);
                    } else {
                        hot.push(f);
                    }
                }
                let enough_cold = cold.len() >= cfg.min_split_fields;
                let any_hot = !hot.is_empty();
                if enough_cold && any_hot {
                    let hot_order = order_hot_fields(&hot, g);
                    plan.types.insert(
                        rid,
                        TypeTransform::Split {
                            hot_order,
                            cold,
                            dead,
                        },
                    );
                    continue;
                }
            }
        }

        // --- dead removal only -----------------------------------------
        if !dead.is_empty() {
            plan.types.insert(rid, TypeTransform::RemoveDead { dead });
        } else {
            plan.types.insert(rid, TypeTransform::None);
        }
    }
    plan
}

/// Order the hot fields: hottest first, then greedily append the most
/// affine remaining field (reordering in the context of splitting).
pub fn order_hot_fields(hot: &[u32], g: &AffinityGraph) -> Vec<u32> {
    if hot.is_empty() {
        return Vec::new();
    }
    let mut remaining: Vec<u32> = hot.to_vec();
    remaining.sort_by(|a, b| {
        g.hotness(*b)
            .partial_cmp(&g.hotness(*a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut order = vec![remaining.remove(0)];
    while !remaining.is_empty() {
        let last = *order.last().expect("order is non-empty");
        // pick the most affine to the last placed field; fall back to the
        // hottest remaining on ties at zero
        let mut best = 0;
        let mut best_score = -1.0f64;
        for (i, &f) in remaining.iter().enumerate() {
            let score = g.edge(last, f);
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        if best_score <= 0.0 {
            // no affinity: keep hotness order
            order.push(remaining.remove(0));
        } else {
            order.push(remaining.remove(best));
        }
    }
    order
}

/// Whether a type qualifies for peeling (no link pointers needed).
///
/// Conservative conditions, matching the 179.art pattern the paper peels:
/// * the type is not recursive and no *other* record stores a pointer to
///   it (pieces could not be reached through foreign structures),
/// * exactly one allocation site, never freed or reallocated,
/// * the allocation is published through at least one global pointer,
/// * no null-pointer constants or raw pointer arithmetic mix with
///   pointers to the type (indices replace pointers during the rewrite).
pub fn peelable(prog: &Program, rid: RecordId, ipa: &IpaResult) -> bool {
    let v = ipa.verdict(rid);
    if !v.legal() || !v.attrs.dyn_alloc {
        return false;
    }
    if v.attrs.alloc_sites.len() != 1 || v.attrs.freed || v.attrs.realloced {
        return false;
    }
    if !v.attrs.has_global_ptr {
        return false;
    }
    if prog.types.is_recursive(rid) {
        return false;
    }
    // no record (including itself) may embed a pointer to rid
    for other in prog.types.record_ids() {
        for f in &prog.types.record(other).fields {
            if points_to(prog, f.ty, rid) {
                return false;
            }
        }
    }
    // scan code: no null constants or arithmetic on ptr<rid> registers
    for fid in prog.func_ids() {
        if !prog.func(fid).is_defined() {
            continue;
        }
        let tys = slo_analysis::util::reg_types(prog, fid);
        let is_rid_ptr = |op: &Operand| -> bool {
            match op {
                Operand::Reg(r) => tys[r.0 as usize]
                    .map(|t| prog.types.is_ptr(t) && prog.types.involved_record(t) == Some(rid))
                    .unwrap_or(false),
                _ => false,
            }
        };
        for (_, ins) in prog.instrs_of(fid) {
            match ins {
                Instr::Bin { lhs, rhs, .. }
                    if (is_rid_ptr(lhs) || is_rid_ptr(rhs)) => {
                        return false;
                    }
                Instr::Cmp { lhs, rhs, .. } => {
                    // comparing two peeled indices is fine; comparing
                    // against null is not
                    let null_l = matches!(lhs, Operand::Const(slo_ir::Const::Null));
                    let null_r = matches!(rhs, Operand::Const(slo_ir::Const::Null));
                    if (is_rid_ptr(lhs) && null_r) || (is_rid_ptr(rhs) && null_l) {
                        return false;
                    }
                }
                Instr::Store { value, ty, .. }
                    // storing a ptr<rid> *value* into memory is only safe
                    // when the destination cell is itself retyped; we
                    // forbid it except through the designated globals
                    if is_rid_ptr(value)
                        && prog.types.involved_record(*ty) == Some(rid)
                    => {
                        return false;
                    }
                _ => {}
            }
        }
    }
    true
}

fn points_to(prog: &Program, ty: slo_ir::TypeId, rid: RecordId) -> bool {
    match prog.types.get(ty) {
        Type::Ptr(inner) => prog.types.involved_record(*inner) == Some(rid),
        Type::Array(elem, _) => points_to(prog, *elem, rid),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_analysis::ipa::{analyze_program, LegalityConfig};
    use slo_analysis::{FactTable, WeightScheme};
    use slo_ir::parser::parse;

    fn plan_for(src: &str, cfg: &HeuristicsConfig) -> (slo_ir::Program, TransformPlan) {
        let p = parse(src).expect("parse");
        let ipa = analyze_program(&p, &LegalityConfig::default());
        let (graphs, counts) = FactTable::new(&p).profitability(&WeightScheme::Ispbo);
        let plan = decide(&p, &ipa, &graphs, &counts, cfg);
        (p, plan)
    }

    // hot field in a loop; 3 cold fields touched once
    const SPLIT_SRC: &str = r#"
record node { hot: i64, c1: i64, c2: i64, c3: i64, link_like: ptr<node> }
func main() -> i64 {
bb0:
  r0 = alloc node, 1000
  r1 = fieldaddr r0, node.c1
  r2 = load r1 : i64
  r3 = fieldaddr r0, node.c2
  r4 = load r3 : i64
  r5 = fieldaddr r0, node.c3
  r6 = load r5 : i64
  r7 = 0
  jump bb1
bb1:
  r8 = cmp.lt r7, 1000
  br r8, bb2, bb3
bb2:
  r9 = indexaddr r0, node, r7
  r10 = fieldaddr r9, node.hot
  r11 = load r10 : i64
  r12 = fieldaddr r9, node.link_like
  r13 = load r12 : ptr<node>
  r7 = add r7, 1
  jump bb1
bb3:
  ret 0
}
"#;

    #[test]
    fn splits_cold_fields() {
        // One static loop estimates ~8.3 iterations, so straight-line cold
        // fields sit at ~12% relative hotness — exactly the "too flat"
        // histogram the paper fights with the exponent E. Use a higher
        // threshold here; the workload crate exercises the 7.5% default
        // with realistically nested/called hot code.
        let cfg = HeuristicsConfig {
            split_threshold: 20.0,
            ..HeuristicsConfig::ispbo()
        };
        let (p, plan) = plan_for(SPLIT_SRC, &cfg);
        let node = p.types.record_by_name("node").expect("node");
        match plan.of(node) {
            TypeTransform::Split {
                hot_order, cold, ..
            } => {
                assert!(cold.contains(&1) && cold.contains(&2) && cold.contains(&3));
                assert!(hot_order.contains(&0) && hot_order.contains(&4));
            }
            other => panic!("expected split, got {other:?}"),
        }
        let (s, _) = plan.of(node).sd_count();
        assert_eq!(s, 3);
    }

    #[test]
    fn no_split_with_single_cold_field() {
        let src = r#"
record node { hot: i64, c1: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 1000
  r1 = fieldaddr r0, node.c1
  r2 = load r1 : i64
  r3 = 0
  jump bb1
bb1:
  r4 = cmp.lt r3, 1000
  br r4, bb2, bb3
bb2:
  r5 = indexaddr r0, node, r3
  r6 = fieldaddr r5, node.hot
  r7 = load r6 : i64
  r3 = add r3, 1
  jump bb1
bb3:
  ret 0
}
"#;
        let (p, plan) = plan_for(src, &HeuristicsConfig::ispbo());
        let node = p.types.record_by_name("node").expect("node");
        assert!(
            !matches!(plan.of(node), TypeTransform::Split { .. }),
            "one cold field must not trigger a split: {:?}",
            plan.of(node)
        );
    }

    #[test]
    fn dead_fields_detected() {
        let src = r#"
record node { used: i64, written_only: i64, untouched: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 100
  r1 = fieldaddr r0, node.used
  store 1, r1 : i64
  r2 = load r1 : i64
  r3 = fieldaddr r0, node.written_only
  store 2, r3 : i64
  ret r2
}
"#;
        let (p, plan) = plan_for(src, &HeuristicsConfig::ispbo());
        let node = p.types.record_by_name("node").expect("node");
        match plan.of(node) {
            TypeTransform::RemoveDead { dead } => {
                assert_eq!(dead, &vec![1, 2]);
            }
            other => panic!("expected dead removal, got {other:?}"),
        }
    }

    #[test]
    fn peelable_art_pattern() {
        let src = r#"
record elem { w: f64, t: f64 }
global P: ptr<elem>
func main() -> i64 {
bb0:
  r0 = alloc elem, 10000
  gstore r0, P
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 10000
  br r2, bb2, bb3
bb2:
  r3 = gload P
  r4 = indexaddr r3, elem, r1
  r5 = fieldaddr r4, elem.w
  r6 = load r5 : f64
  r1 = add r1, 1
  jump bb1
bb3:
  ret 0
}
"#;
        let (p, plan) = plan_for(src, &HeuristicsConfig::ispbo());
        let elem = p.types.record_by_name("elem").expect("elem");
        assert!(matches!(plan.of(elem), TypeTransform::Peel { .. }));
    }

    #[test]
    fn recursive_type_not_peelable() {
        let src = r#"
record list { v: i64, next: ptr<list> }
global P: ptr<list>
func main() -> i64 {
bb0:
  r0 = alloc list, 100
  gstore r0, P
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let ipa = analyze_program(&p, &LegalityConfig::default());
        let list = p.types.record_by_name("list").expect("list");
        assert!(!peelable(&p, list, &ipa));
    }

    #[test]
    fn freed_type_not_peelable() {
        let src = r#"
record elem { w: f64 }
global P: ptr<elem>
func main() -> i64 {
bb0:
  r0 = alloc elem, 100
  gstore r0, P
  free r0
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let ipa = analyze_program(&p, &LegalityConfig::default());
        let elem = p.types.record_by_name("elem").expect("elem");
        assert!(!peelable(&p, elem, &ipa));
    }

    #[test]
    fn illegal_type_untransformed() {
        let src = r#"
record node { a: i64, b: i64, c: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 100
  r1 = cast r0 : ptr<node> -> i64
  ret r1
}
"#;
        let (p, plan) = plan_for(src, &HeuristicsConfig::ispbo());
        let node = p.types.record_by_name("node").expect("node");
        assert_eq!(plan.of(node), &TypeTransform::None);
        assert_eq!(plan.num_transformed(), 0);
    }

    #[test]
    fn non_allocated_type_untransformed() {
        let src = r#"
record node { a: i64, b: i64 }
global N: node
func main() -> i64 {
bb0:
  ret 0
}
"#;
        let (p, plan) = plan_for(src, &HeuristicsConfig::ispbo());
        let node = p.types.record_by_name("node").expect("node");
        assert_eq!(plan.of(node), &TypeTransform::None);
    }

    #[test]
    fn hot_order_by_hotness_and_affinity() {
        let mut g = AffinityGraph::new(RecordId(0), 4);
        // field 0 hottest; 0-2 strongly affine; 1 medium; 3 weak
        let mk = |fs: &[u32]| {
            fs.iter()
                .copied()
                .collect::<std::collections::BTreeSet<u32>>()
        };
        g.add_group(&mk(&[0, 2]), 100.0);
        g.add_group(&mk(&[1]), 60.0);
        g.add_group(&mk(&[3]), 5.0);
        let order = order_hot_fields(&[0, 1, 2, 3], &g);
        assert_eq!(order[0], 0, "hottest first");
        assert_eq!(order[1], 2, "affinity partner next");
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn bitfields_never_removed_or_split() {
        let src = r#"
record node { hot: i64, flags: u32:3, c1: i64, c2: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 1000
  r1 = fieldaddr r0, node.c1
  r2 = load r1 : i64
  r3 = fieldaddr r0, node.c2
  r4 = load r3 : i64
  r5 = 0
  jump bb1
bb1:
  r6 = cmp.lt r5, 1000
  br r6, bb2, bb3
bb2:
  r7 = indexaddr r0, node, r5
  r8 = fieldaddr r7, node.hot
  r9 = load r8 : i64
  r5 = add r5, 1
  jump bb1
bb3:
  ret 0
}
"#;
        let cfg = HeuristicsConfig {
            split_threshold: 20.0,
            ..HeuristicsConfig::ispbo()
        };
        let (p, plan) = plan_for(src, &cfg);
        let node = p.types.record_by_name("node").expect("node");
        if let TypeTransform::Split {
            hot_order,
            cold,
            dead,
        } = plan.of(node)
        {
            assert!(hot_order.contains(&1), "bit-field stays in root");
            assert!(!cold.contains(&1));
            assert!(!dead.contains(&1));
        } else {
            panic!("expected split, got {:?}", plan.of(node));
        }
    }
}
