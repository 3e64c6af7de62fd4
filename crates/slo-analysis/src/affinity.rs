//! Affinity groups, affinity graphs, field hotness and read/write counts —
//! the paper's §2.3 profitability analysis.
//!
//! * Two fields are **affine** when they are accessed close to each other;
//!   the granularity of "closeness" is the loop level: all fields of a type
//!   referenced inside the blocks of one loop (excluding nested loops,
//!   which form their own groups) make one weighted **affinity group**.
//!   Field references in remaining straight-line code form another group
//!   weighted with the routine entry frequency.
//! * Group weight = the incoming edge count of the loop header under the
//!   chosen weighting scheme (PBO / SPBO / ISPBO / ...).
//! * Groups with identical field sets merge by adding weights (these are
//!   the annotations stored in the IELF files); IPA aggregates them into
//!   one **affinity graph** per type.
//! * **Hotness** of a field is the total weight of groups containing it
//!   (the self-edge of the affinity graph).
//! * **Read/write counts** are collected statement-by-statement using
//!   block frequencies as counts.

use crate::freq::FuncFreq;
use crate::util::{FactTable, UseRole};
use slo_ir::{BlockId, FuncId, Instr, Program, RecordId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The affinity graph of every record type.
pub type AffinityGraphs = HashMap<RecordId, AffinityGraph>;

/// Read/write counts per `(record, field)`.
pub type FieldCountMap = HashMap<(RecordId, u32), FieldCounts>;

/// Read/write counts for one field.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FieldCounts {
    /// Estimated dynamic reads.
    pub reads: f64,
    /// Estimated dynamic writes.
    pub writes: f64,
}

/// The IPA affinity graph of one record type.
///
/// Nodes are fields; edge `(i, j)` (with `i < j`) carries the summed weight
/// of groups containing both; the self edge `(i, i)` carries the summed
/// weight of all groups containing `i` — the field's hotness.
///
/// # Examples
///
/// ```
/// use slo_analysis::AffinityGraph;
/// use slo_ir::RecordId;
/// use std::collections::BTreeSet;
///
/// let mut g = AffinityGraph::new(RecordId(0), 3);
/// let hot_pair: BTreeSet<u32> = [0, 1].into_iter().collect();
/// g.add_group(&hot_pair, 90.0);
/// let cold: BTreeSet<u32> = [2].into_iter().collect();
/// g.add_group(&cold, 10.0);
/// assert_eq!(g.relative_hotness(), vec![100.0, 100.0, 10.0 / 90.0 * 100.0]);
/// assert_eq!(g.edge(0, 1), 90.0);
/// ```
#[derive(Debug, Clone)]
pub struct AffinityGraph {
    /// The record type.
    pub record: RecordId,
    /// Number of fields of the record.
    pub nfields: usize,
    edges: BTreeMap<(u32, u32), f64>,
}

impl AffinityGraph {
    /// Empty graph for a record with `nfields` fields.
    pub fn new(record: RecordId, nfields: usize) -> Self {
        AffinityGraph {
            record,
            nfields,
            edges: BTreeMap::new(),
        }
    }

    /// Fold one affinity group into the graph.
    pub fn add_group(&mut self, fields: &BTreeSet<u32>, weight: f64) {
        let fs: Vec<u32> = fields.iter().copied().collect();
        for (i, &a) in fs.iter().enumerate() {
            *self.edges.entry((a, a)).or_insert(0.0) += weight;
            for &b in &fs[i + 1..] {
                *self.edges.entry((a, b)).or_insert(0.0) += weight;
            }
        }
    }

    /// The affinity weight between two (distinct or equal) fields.
    pub fn edge(&self, a: u32, b: u32) -> f64 {
        let k = if a <= b { (a, b) } else { (b, a) };
        self.edges.get(&k).copied().unwrap_or(0.0)
    }

    /// Hotness of a field: total weight of groups containing it.
    pub fn hotness(&self, field: u32) -> f64 {
        self.edge(field, field)
    }

    /// Hotness of every field.
    pub fn hotness_vec(&self) -> Vec<f64> {
        (0..self.nfields as u32).map(|f| self.hotness(f)).collect()
    }

    /// Hotness of the whole type (sum over fields) — used to sort types
    /// in the advisory report.
    pub fn type_hotness(&self) -> f64 {
        self.hotness_vec().iter().sum()
    }

    /// Relative hotness in percent of the hottest field (the paper's
    /// Table 2 presentation). All-zero input yields all-zero output.
    pub fn relative_hotness(&self) -> Vec<f64> {
        let h = self.hotness_vec();
        let max = h.iter().cloned().fold(0.0f64, f64::max);
        if max == 0.0 {
            return h;
        }
        h.iter().map(|v| v / max * 100.0).collect()
    }

    /// Iterate over every raw edge `((a, b), weight)` with `a <= b`,
    /// self edges (field hotness) included — the full graph state, used
    /// by the persistent analysis store's serializer.
    pub fn edges(&self) -> impl Iterator<Item = ((u32, u32), f64)> + '_ {
        self.edges.iter().map(|(k, v)| (*k, *v))
    }

    /// Rebuild a graph from raw edge entries as produced by
    /// [`AffinityGraph::edges`] (`a <= b`; `(i, i)` carries field `i`'s
    /// hotness). The inverse of [`AffinityGraph::edges`]: weights are
    /// installed verbatim, not re-accumulated like [`AffinityGraph::add_group`].
    pub fn from_edges(
        record: RecordId,
        nfields: usize,
        edges: impl IntoIterator<Item = ((u32, u32), f64)>,
    ) -> Self {
        AffinityGraph {
            record,
            nfields,
            edges: edges.into_iter().collect(),
        }
    }

    /// Iterate over non-self edges `((a, b), weight)` with `a < b`.
    pub fn pair_edges(&self) -> impl Iterator<Item = ((u32, u32), f64)> + '_ {
        self.edges
            .iter()
            .filter(|((a, b), _)| a != b)
            .map(|(k, v)| (*k, *v))
    }

    /// Affinity of `a` to `b` relative to `a`'s strongest edge (incl. its
    /// self edge), in percent — the presentation used in Figure 2.
    pub fn relative_affinity(&self, a: u32, b: u32) -> f64 {
        let max = (0..self.nfields as u32)
            .map(|x| self.edge(a, x))
            .fold(0.0f64, f64::max);
        if max == 0.0 {
            0.0
        } else {
            self.edge(a, b) / max * 100.0
        }
    }
}

/// One function's FE annotations: its affinity groups and its per-field
/// read/write counts.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    /// Weight per affinity group (fields of one record accessed together).
    pub groups: BTreeMap<(RecordId, BTreeSet<u32>), f64>,
    /// Read/write counts of the fields the function addresses.
    pub counts: FieldCountMap,
}

impl FactTable<'_> {
    /// Collect the affinity groups and read/write counts of `fid` under
    /// its block frequencies, in one walk over its instructions.
    pub fn annotate(&self, fid: FuncId, ff: &FuncFreq) -> Annotations {
        let f = self.prog.func(fid);
        let facts = self.func(fid);
        // (record, innermost loop or straight-line code) -> fields, weight
        let mut regions: BTreeMap<_, (BTreeSet<u32>, f64)> = BTreeMap::new();
        let mut counts = FieldCountMap::new();
        for bid in f.block_ids() {
            let region = facts.loops.innermost(bid);
            let w = ff.of(region.map_or(BlockId(0), |l| facts.loops.get(l).header));
            for ins in &f.block(bid).instrs {
                let Instr::FieldAddr {
                    dst, record, field, ..
                } = ins
                else {
                    continue;
                };
                let group = regions.entry((*record, region));
                group.or_insert((BTreeSet::new(), w)).0.insert(*field);
                let c = counts.entry((*record, *field)).or_default();
                for u in &facts.def_use.uses[dst.0 as usize] {
                    match u.role {
                        UseRole::LoadAddr => c.reads += ff.of(u.at.block),
                        UseRole::StoreAddr => c.writes += ff.of(u.at.block),
                        _ => {}
                    }
                }
            }
        }

        // merge identical (record, field-set) groups by adding weights
        let mut groups = BTreeMap::new();
        for ((rec, _), (fields, w)) in regions {
            *groups.entry((rec, fields)).or_insert(0.0) += w;
        }
        Annotations { groups, counts }
    }

    /// IPA aggregation: fold every defined function's [`Annotations`]
    /// under the given frequencies into one affinity graph per record
    /// type and program-wide read/write counts.
    pub fn affinity(&self, freqs: &HashMap<FuncId, FuncFreq>) -> (AffinityGraphs, FieldCountMap) {
        let types = &self.prog.types;
        let mut graphs: AffinityGraphs = types
            .record_ids()
            .map(|rid| (rid, AffinityGraph::new(rid, types.record(rid).fields.len())))
            .collect();
        let mut counts = FieldCountMap::new();
        let empty = FuncFreq::default();
        for (fid, _) in self.defined() {
            let a = self.annotate(fid, freqs.get(&fid).unwrap_or(&empty));
            for ((rec, fields), weight) in a.groups {
                graphs
                    .get_mut(&rec)
                    .expect("graph exists for every record")
                    .add_group(&fields, weight);
            }
            for (key, c) in a.counts {
                let dst = counts.entry(key).or_default();
                dst.reads += c.reads;
                dst.writes += c.writes;
            }
        }
        (graphs, counts)
    }
}

/// The graphs of [`FactTable::affinity`] on a fresh table, kept for the
/// `perfbench` ledger (see [`crate::legality::analyze_all_units`]).
pub fn build_affinity_graphs(prog: &Program, freqs: &HashMap<FuncId, FuncFreq>) -> AffinityGraphs {
    FactTable::new(prog).affinity(freqs).0
}

/// The counts of [`FactTable::affinity`] on a fresh table, kept for the
/// `perfbench` ledger (see [`crate::legality::analyze_all_units`]).
pub fn build_field_counts(prog: &Program, freqs: &HashMap<FuncId, FuncFreq>) -> FieldCountMap {
    FactTable::new(prog).affinity(freqs).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::BranchProbs;
    use crate::schemes::WeightScheme;
    use slo_ir::parser::parse;

    const SRC: &str = r#"
record node { hot1: i64, hot2: i64, cold: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 100
  r9 = fieldaddr r0, node.cold
  store 0, r9 : i64
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 100
  br r2, bb2, bb3
bb2:
  r3 = indexaddr r0, node, r1
  r4 = fieldaddr r3, node.hot1
  r5 = load r4 : i64
  r6 = fieldaddr r3, node.hot2
  store r5, r6 : i64
  r1 = add r1, 1
  jump bb1
bb3:
  ret 0
}
"#;

    fn graphs(src: &str) -> (slo_ir::Program, AffinityGraphs) {
        let p = parse(src).expect("parse");
        let g = FactTable::new(&p).profitability(&WeightScheme::Spbo).0;
        (p, g)
    }

    /// The annotations of `main` under SPBO.
    fn annotate_main(p: &slo_ir::Program) -> Annotations {
        let facts = FactTable::new(p);
        let main = p.main().expect("main");
        facts.annotate(main, &facts.estimate_static(main, &BranchProbs::default()))
    }

    /// The field sets and weights of `main`'s affinity groups.
    fn groups_of_main(p: &slo_ir::Program) -> Vec<(BTreeSet<u32>, f64)> {
        let groups = annotate_main(p).groups.into_iter();
        groups.map(|((_, fields), w)| (fields, w)).collect()
    }

    #[test]
    fn loop_fields_form_one_group() {
        let p = parse(SRC).expect("parse");
        let groups = groups_of_main(&p);
        // one group {hot1, hot2} from the loop, one {cold} straight-line
        assert_eq!(groups.len(), 2);
        let loop_group = groups.iter().find(|g| g.0.len() == 2).expect("loop group");
        assert!(loop_group.0.contains(&0) && loop_group.0.contains(&1));
        let sl_group = groups
            .iter()
            .find(|g| g.0.len() == 1)
            .expect("straight-line group");
        assert!(sl_group.0.contains(&2));
        assert!(loop_group.1 > sl_group.1 * 5.0);
    }

    #[test]
    fn hotness_separates_hot_from_cold() {
        let (p, g) = graphs(SRC);
        let node = p.types.record_by_name("node").expect("node");
        let graph = &g[&node];
        let rel = graph.relative_hotness();
        assert!((rel[0] - 100.0).abs() < 1e-9);
        assert!((rel[1] - 100.0).abs() < 1e-9);
        assert!(rel[2] < 20.0, "cold field rel hotness {}", rel[2]);
        // pair edge exists between hot1 and hot2, none to cold
        assert!(graph.edge(0, 1) > 0.0);
        assert_eq!(graph.edge(0, 2), 0.0);
    }

    #[test]
    fn relative_affinity_percent() {
        let (p, g) = graphs(SRC);
        let node = p.types.record_by_name("node").expect("node");
        let graph = &g[&node];
        // hot1's strongest edge is its self edge == its pair edge with hot2
        assert!((graph.relative_affinity(0, 1) - 100.0).abs() < 1e-9);
        assert_eq!(graph.relative_affinity(0, 2), 0.0);
    }

    #[test]
    fn read_write_counts() {
        let p = parse(SRC).expect("parse");
        let counts = annotate_main(&p).counts;
        let node = p.types.record_by_name("node").expect("node");
        let hot1 = counts[&(node, 0)];
        let hot2 = counts[&(node, 1)];
        let cold = counts[&(node, 2)];
        assert!(hot1.reads > 5.0);
        assert_eq!(hot1.writes, 0.0);
        assert_eq!(hot2.reads, 0.0);
        assert!(hot2.writes > 5.0);
        assert!((cold.writes - 1.0).abs() < 1e-9);
        assert_eq!(cold.reads, 0.0);
    }

    #[test]
    fn identical_groups_merge() {
        // two sequential loops touching the same field set must merge
        let src = r#"
record r { a: i64, b: i64 }
func main() -> i64 {
bb0:
  r0 = alloc r, 10
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 10
  br r2, bb2, bb3
bb2:
  r3 = fieldaddr r0, r.a
  r4 = load r3 : i64
  r1 = add r1, 1
  jump bb1
bb3:
  r5 = 0
  jump bb4
bb4:
  r6 = cmp.lt r5, 10
  br r6, bb5, bb6
bb5:
  r7 = fieldaddr r0, r.a
  r8 = load r7 : i64
  r5 = add r5, 1
  jump bb4
bb6:
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let groups = groups_of_main(&p);
        let a_groups: Vec<_> = groups.iter().filter(|g| g.0.contains(&0)).collect();
        assert_eq!(a_groups.len(), 1, "identical groups must merge");
        // weight is the sum of both loop header frequencies (~8.3 each)
        assert!(a_groups[0].1 > 14.0);
    }

    #[test]
    fn nested_loops_form_separate_groups() {
        let src = r#"
record r { inner: i64, outer: i64 }
func main() -> i64 {
bb0:
  r0 = alloc r, 10
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 10
  br r2, bb2, bb6
bb2:
  r3 = fieldaddr r0, r.outer
  r4 = load r3 : i64
  r5 = 0
  jump bb3
bb3:
  r6 = cmp.lt r5, 10
  br r6, bb4, bb5
bb4:
  r7 = fieldaddr r0, r.inner
  r8 = load r7 : i64
  r5 = add r5, 1
  jump bb3
bb5:
  r1 = add r1, 1
  jump bb1
bb6:
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let groups = groups_of_main(&p);
        assert_eq!(groups.len(), 2);
        let inner = groups.iter().find(|g| g.0.contains(&0)).expect("inner");
        let outer = groups.iter().find(|g| g.0.contains(&1)).expect("outer");
        assert!(inner.1 > outer.1 * 4.0, "inner loop must be hotter");
    }

    #[test]
    fn empty_graph_for_untouched_type() {
        let (p, g) = graphs("record unused { x: i64 }\nfunc main() -> i64 {\nbb0:\n  ret 0\n}\n");
        let rid = p.types.record_by_name("unused").expect("unused");
        assert_eq!(g[&rid].type_hotness(), 0.0);
        assert_eq!(g[&rid].relative_hotness(), vec![0.0]);
    }
}
