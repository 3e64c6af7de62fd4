//! Property-based invariants on the substrate layers: heap allocator,
//! dominators, static frequency estimation, and affinity graphs.

use proptest::prelude::*;
use slo_analysis::affinity::AffinityGraph;
use slo_analysis::freq::BranchProbs;
use slo_analysis::FactTable;
use slo_ir::dom::DomTree;
use slo_ir::loops::LoopForest;
use slo_ir::{CmpOp, Operand, ProgramBuilder, RecordId, ScalarKind};
use slo_vm::Heap;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// heap

#[derive(Debug, Clone)]
enum HeapOp {
    Alloc(u64),
    FreeNth(usize),
    ReallocNth(usize, u64),
    Write(usize, u64),
}

fn heap_ops() -> impl Strategy<Value = Vec<HeapOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..512).prop_map(HeapOp::Alloc),
            any::<usize>().prop_map(HeapOp::FreeNth),
            (any::<usize>(), 1u64..512).prop_map(|(i, s)| HeapOp::ReallocNth(i, s)),
            (any::<usize>(), any::<u64>()).prop_map(|(i, v)| HeapOp::Write(i, v)),
        ],
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random alloc/free/realloc/write sequences never corrupt the
    /// allocator's books, and live data stays readable.
    #[test]
    fn heap_bookkeeping_is_consistent(ops in heap_ops()) {
        let mut h = Heap::new();
        let mut live: Vec<(u64, u64, Option<u64>)> = Vec::new(); // (addr, size, written)
        for op in ops {
            match op {
                HeapOp::Alloc(sz) => {
                    let a = h.alloc(sz).expect("alloc within the memory limit");
                    prop_assert!(a != 0 && a.is_multiple_of(16));
                    // no overlap with other live allocations
                    for (b, bsz, _) in &live {
                        prop_assert!(a + sz <= *b || *b + *bsz <= a,
                            "overlap: [{a}, {}) vs [{b}, {})", a + sz, b + bsz);
                    }
                    live.push((a, sz, None));
                }
                HeapOp::FreeNth(i) if !live.is_empty() => {
                    let (a, _, _) = live.remove(i % live.len());
                    h.free(a).expect("freeing a live allocation");
                    // double free must fail
                    prop_assert!(h.free(a).is_err());
                }
                HeapOp::ReallocNth(i, ns) if !live.is_empty() => {
                    let idx = i % live.len();
                    let (a, sz, w) = live[idx];
                    let na = h.realloc(a, ns).expect("realloc live");
                    // preserved prefix
                    if let Some(v) = w {
                        if sz >= 8 && ns >= 8 {
                            prop_assert_eq!(h.read_bytes(na, 8).expect("read"), v);
                        }
                    }
                    live[idx] = (na, ns, if ns >= 8 { w } else { None });
                }
                HeapOp::Write(i, v) if !live.is_empty() => {
                    let idx = i % live.len();
                    let (a, sz, _) = live[idx];
                    if sz >= 8 {
                        h.write_bytes(a, 8, v).expect("write");
                        prop_assert_eq!(h.read_bytes(a, 8).expect("read"), v);
                        live[idx].2 = Some(v);
                    }
                }
                _ => {}
            }
            prop_assert_eq!(h.live_allocs(), live.len());
            let want: u64 = live.iter().map(|(_, s, _)| s.max(&1)).sum();
            prop_assert_eq!(h.live_bytes(), want);
            prop_assert!(h.peak_live() >= h.live_bytes());
        }
    }
}

// ---------------------------------------------------------------------
// CFG analyses over randomly shaped (structured) programs

#[derive(Debug, Clone)]
enum Shape {
    Work,
    If,
    Loop(Vec<Shape>),
}

fn shape_strategy() -> impl Strategy<Value = Vec<Shape>> {
    let leaf = prop_oneof![Just(Shape::Work), Just(Shape::If)];
    prop::collection::vec(
        leaf.prop_recursive(3, 12, 4, |inner| {
            prop::collection::vec(inner, 1..4).prop_map(Shape::Loop)
        }),
        1..5,
    )
}

fn build_shaped(shapes: &[Shape]) -> slo_ir::Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let (rid, rty) = pb.record(
        "t",
        vec![slo_ir::Field::new("a", i64t), slo_ir::Field::new("b", i64t)],
    );
    let main = pb.declare("main", vec![], i64t);
    pb.define(main, |fb| {
        let arr = fb.alloc(rty, Operand::int(8));
        fn emit(
            fb: &mut slo_ir::FuncBuilder<'_>,
            shapes: &[Shape],
            arr: slo_ir::Reg,
            rid: RecordId,
        ) {
            for s in shapes {
                match s {
                    Shape::Work => {
                        let v = fb.load_field(arr.into(), rid, 0);
                        let n = fb.add(v.into(), Operand::int(1));
                        fb.store_field(arr.into(), rid, 0, n.into());
                    }
                    Shape::If => {
                        let v = fb.load_field(arr.into(), rid, 1);
                        let c = fb.cmp(CmpOp::Gt, v.into(), Operand::int(0));
                        fb.if_then(c.into(), |fb| {
                            fb.store_field(arr.into(), rid, 1, Operand::int(0));
                        });
                    }
                    Shape::Loop(inner) => {
                        fb.count_loop(Operand::int(4), |fb, _| {
                            emit(fb, inner, arr, rid);
                        });
                    }
                }
            }
        }
        emit(fb, shapes, arr, rid);
        fb.ret(Some(Operand::int(0)));
    });
    pb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dominator invariants: the entry dominates every reachable block,
    /// and each idom strictly dominates its block.
    #[test]
    fn dominator_invariants(shapes in shape_strategy()) {
        let p = build_shaped(&shapes);
        let main = p.main().expect("main");
        let f = p.func(main);
        let dt = DomTree::compute(f);
        for b in f.block_ids() {
            if !dt.is_reachable(b) {
                continue;
            }
            prop_assert!(dt.dominates(slo_ir::BlockId(0), b));
            if let Some(idom) = dt.idom(b) {
                prop_assert!(dt.dominates(idom, b));
                prop_assert!(idom != b);
            }
        }
    }

    /// Loop-forest invariants: headers dominate their reducible loops,
    /// nesting depths are consistent with the parent chain.
    #[test]
    fn loop_forest_invariants(shapes in shape_strategy()) {
        let p = build_shaped(&shapes);
        let main = p.main().expect("main");
        let f = p.func(main);
        let lf = LoopForest::compute(f);
        let dt = DomTree::compute(f);
        prop_assert!(lf.verify_against(f, &dt));
        for (_, l) in lf.iter() {
            match l.parent {
                Some(par) => prop_assert_eq!(l.depth, lf.get(par).depth + 1),
                None => prop_assert_eq!(l.depth, 1),
            }
            prop_assert!(l.blocks.contains(&l.header));
        }
    }

    /// Flow conservation of the static frequency estimate: for every
    /// block with successors, outgoing edge frequency sums to the block
    /// frequency.
    #[test]
    fn static_freq_flow_conservation(shapes in shape_strategy()) {
        let p = build_shaped(&shapes);
        let main = p.main().expect("main");
        let f = p.func(main);
        let ff = FactTable::new(&p).estimate_static(main, &BranchProbs::default());
        for b in f.block_ids() {
            let succs = f.block(b).successors();
            if succs.is_empty() {
                continue;
            }
            let out: f64 = succs
                .iter()
                .map(|s| ff.edge.get(&(b.0, s.0)).copied().unwrap_or(0.0))
                .sum();
            let bf = ff.of(b);
            prop_assert!((out - bf).abs() <= bf * 1e-9 + 1e-12,
                "block {b}: out {out} vs freq {bf}");
        }
        // entry has frequency 1
        prop_assert!((ff.of(slo_ir::BlockId(0)) - 1.0).abs() < 1e-12);
    }

    /// Affinity graph invariants for arbitrary group sets: hotness is the
    /// sum of containing group weights; relative hotness is within
    /// [0, 100]; pair edges never exceed either endpoint's hotness.
    #[test]
    fn affinity_graph_invariants(
        groups in prop::collection::vec(
            (prop::collection::btree_set(0u32..6, 1..5), 0.1f64..1000.0),
            1..12,
        )
    ) {
        let mut g = AffinityGraph::new(RecordId(0), 6);
        let mut want = [0.0f64; 6];
        for (fields, w) in &groups {
            g.add_group(fields, *w);
            for &f in fields {
                want[f as usize] += *w;
            }
        }
        for f in 0..6u32 {
            prop_assert!((g.hotness(f) - want[f as usize]).abs() < 1e-9);
        }
        let rel = g.relative_hotness();
        for v in &rel {
            prop_assert!((0.0..=100.0 + 1e-9).contains(v));
        }
        prop_assert!(rel.iter().cloned().fold(0.0f64, f64::max) > 99.9);
        for ((a, b), w) in g.pair_edges() {
            prop_assert!(w <= g.hotness(a) + 1e-9);
            prop_assert!(w <= g.hotness(b) + 1e-9);
        }

        let set: BTreeSet<u32> = BTreeSet::new();
        let _ = set; // silence unused-import lint paths on some configs
    }
}
