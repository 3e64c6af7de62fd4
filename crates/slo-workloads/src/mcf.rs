//! 181.mcf model — the paper's flagship workload.
//!
//! Reproduces the structure of the SPEC2000 network-simplex benchmark at
//! the level the paper's evaluation depends on:
//!
//! * **five record types** (Table 1 row: 5 / 1 legal / 3 relax):
//!   `node` (clean), `arc` (ATKN — relax-recoverable), `basket`
//!   (CSTF — relax-recoverable), `network` (LIBC — hard),
//!   `stats` (MSET — hard);
//! * **`node` with the 15 fields of Table 2**, accessed by per-simplex-
//!   iteration phase functions whose loop trip counts are proportioned to
//!   the paper's PBO hotness column (`potential` 100%, `pred` 73.7%,
//!   `mark` 53.3%, `basic_arc` 39.9%, `time` 33.7%, `orientation` 23.2%,
//!   `child` 20.8%, `sibling` 20.7%, `depth` 3.1%, `flow` 2.8%, rare
//!   fields below 1%, `ident` unused);
//! * **miss-profile shaping**: `potential` and `time` are reached through
//!   pointer chases / random indices (high d-cache miss share), while
//!   `pred`/`mark` are touched sequentially (low miss share despite high
//!   hotness) — the reason the paper's DMISS column correlates poorly
//!   with true hotness;
//! * the **hot phase functions are called from `main`'s simplex loop**
//!   while the rare-field code is called once, so inter-procedural
//!   scaling (ISPBO) separates hot from cold where per-procedure SPBO
//!   cannot — Table 2's r ordering.

use crate::InputSet;
use slo_ir::{CmpOp, Field, FuncId, Operand, Program, ProgramBuilder, Reg, ScalarKind};

/// Size parameters of the mcf model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McfConfig {
    /// Number of network nodes.
    pub n: i64,
    /// Simplex iterations.
    pub iters: i64,
    /// Phase-mix skew in per-mille applied to the loop trip fractions.
    /// The reference input runs a slightly different phase mix than the
    /// training input (the paper's PBO-vs-PPBO imperfection: r = 0.986,
    /// not 1.0).
    pub skew: i64,
}

impl McfConfig {
    /// Parameters for an input set (training is smaller, the paper's
    /// PBO-vs-PPBO distinction).
    pub fn for_input(input: InputSet) -> Self {
        match input {
            InputSet::Training => McfConfig {
                n: 57_000,
                iters: 60,
                skew: 0,
            },
            InputSet::Reference => McfConfig {
                n: 70_000,
                iters: 60,
                skew: 1,
            },
        }
    }
}

/// Field indices of `node`, in declaration order (Table 2 order).
pub const NODE_FIELDS: [&str; 15] = [
    "number",
    "ident",
    "pred",
    "child",
    "sibling",
    "sibling_prev",
    "depth",
    "orientation",
    "basic_arc",
    "firstout",
    "firstin",
    "potential",
    "flow",
    "mark",
    "time",
];

/// The paper's Table 2 PBO column (relative hotness in percent), parallel
/// to [`NODE_FIELDS`]. Used by the Table 2 harness for comparison.
pub const PAPER_PBO_HOTNESS: [f64; 15] = [
    0.2, 0.0, 73.7, 20.8, 20.7, 0.1, 3.1, 23.2, 39.9, 0.8, 0.7, 100.0, 2.8, 53.3, 33.7,
];

/// Build the mcf model program for an input set.
pub fn build(input: InputSet) -> Program {
    build_config(McfConfig::for_input(input))
}

/// Build the mcf model program with explicit parameters.
pub fn build_config(cfg: McfConfig) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let void = pb.void();
    let u8t = pb.scalar(ScalarKind::U8);
    let pu8 = pb.ptr(u8t);

    // ---- types ----------------------------------------------------------
    let (node, node_ty) = pb.record_fwd("node");
    let (arc, arc_ty) = pb.record_fwd("arc");
    let pnode = pb.ptr(node_ty);
    let parc = pb.ptr(arc_ty);
    pb.complete_record(
        node,
        vec![
            Field::new("number", i64t),
            Field::new("ident", i64t),
            Field::new("pred", pnode),
            Field::new("child", pnode),
            Field::new("sibling", pnode),
            Field::new("sibling_prev", pnode),
            Field::new("depth", i64t),
            Field::new("orientation", i64t),
            Field::new("basic_arc", parc),
            Field::new("firstout", parc),
            Field::new("firstin", parc),
            Field::new("potential", i64t),
            Field::new("flow", i64t),
            Field::new("mark", i64t),
            Field::new("time", i64t),
        ],
    );
    pb.complete_record(
        arc,
        vec![
            Field::new("cost", i64t),
            Field::new("tail", pnode),
            Field::new("head", pnode),
            Field::new("aident", i64t),
            Field::new("nextout", parc),
            Field::new("nextin", parc),
            Field::new("aflow", i64t),
            Field::new("org_cost", i64t),
        ],
    );
    let (basket, basket_ty) = pb.record(
        "basket",
        vec![
            Field::new("a", parc),
            Field::new("cost", i64t),
            Field::new("abs_cost", i64t),
        ],
    );
    let pbasket = pb.ptr(basket_ty);
    let (network, network_ty) = pb.record(
        "network",
        vec![
            Field::new("n_nodes", i64t),
            Field::new("n_arcs", i64t),
            Field::new("feas_tol", i64t),
        ],
    );
    let (stats, stats_ty) = pb.record(
        "stats",
        vec![Field::new("checks", i64t), Field::new("iters_done", i64t)],
    );

    let fwrite = pb.libc("fwrite", vec![pu8, i64t], i64t);

    // field index helper
    let nf = |name: &str| -> u32 {
        NODE_FIELDS
            .iter()
            .position(|f| *f == name)
            .expect("known node field") as u32
    };

    // ---- init ------------------------------------------------------------
    // init(nodes, arcs, n): writes every node field except `ident`, and
    // every arc field.
    let init = pb.declare("init", vec![pnode, parc, i64t], void);
    pb.define(init, |fb| {
        let nodes = fb.param(0);
        let arcs = fb.param(1);
        let n = fb.param(2);
        let m = fb.div(n.into(), Operand::int(4));
        fb.count_loop(n.into(), |fb, i| {
            let e = fb.index_addr(nodes, node_ty, i.into());
            fb.store_field(e.into(), node, nf("number"), i.into());
            // pred: pseudo-random earlier node (tree parent)
            let h = lcg_index(fb, i, n);
            let pe = fb.index_addr(nodes, node_ty, h.into());
            fb.store_field(e.into(), node, nf("pred"), pe.into());
            let h2 = lcg_index(fb, h, n);
            let ce = fb.index_addr(nodes, node_ty, h2.into());
            fb.store_field(e.into(), node, nf("child"), ce.into());
            let h3 = lcg_index(fb, h2, n);
            let se = fb.index_addr(nodes, node_ty, h3.into());
            fb.store_field(e.into(), node, nf("sibling"), se.into());
            fb.store_field(e.into(), node, nf("sibling_prev"), se.into());
            let d = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(32));
            fb.store_field(e.into(), node, nf("depth"), d.into());
            let o = fb.bin(slo_ir::BinOp::And, i.into(), Operand::int(1));
            fb.store_field(e.into(), node, nf("orientation"), o.into());
            // subset nodes (low indices) point at a small arc window so
            // the t3/t5 subset walks stay cache-resident
            // clamp the arc window to the arc array length so small
            // instances stay in bounds
            let aw = fb.bin(slo_ir::BinOp::Rem, h.into(), Operand::int(512));
            let am = fb.bin(slo_ir::BinOp::Rem, aw.into(), m.into());
            let ae = fb.index_addr(arcs, arc_ty, am.into());
            fb.store_field(e.into(), node, nf("basic_arc"), ae.into());
            fb.store_field(e.into(), node, nf("firstout"), ae.into());
            fb.store_field(e.into(), node, nf("firstin"), ae.into());
            fb.store_field(e.into(), node, nf("potential"), i.into());
            fb.store_field(e.into(), node, nf("flow"), Operand::int(0));
            fb.store_field(e.into(), node, nf("mark"), Operand::int(0));
            fb.store_field(e.into(), node, nf("time"), Operand::int(0));
        });
        fb.count_loop(m.into(), |fb, i| {
            let a = fb.index_addr(arcs, arc_ty, i.into());
            let c = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(1000));
            fb.store_field(a.into(), arc, 0, c.into()); // cost
            let t = lcg_index(fb, i, n);
            let te = fb.index_addr(nodes, node_ty, t.into());
            fb.store_field(a.into(), arc, 1, te.into()); // tail
            let h = lcg_index(fb, t, n);
            let he = fb.index_addr(nodes, node_ty, h.into());
            fb.store_field(a.into(), arc, 2, he.into()); // head
            fb.store_field(a.into(), arc, 3, i.into()); // aident
            fb.store_field(a.into(), arc, 4, a.into()); // nextout (self)
            fb.store_field(a.into(), arc, 5, a.into()); // nextin
            fb.store_field(a.into(), arc, 6, Operand::int(0)); // aflow
            fb.store_field(a.into(), arc, 7, c.into()); // org_cost
        });
        fb.ret(None);
    });

    // ---- potential-access helpers ----------------------------------------
    // The `potential` reads/writes live in tiny callees invoked from the
    // phase loops. A per-procedure static estimate (SPBO) weighs their
    // bodies with the callee's local entry frequency and *underestimates*
    // the field (the paper's SPBO column: potential 58% vs pred 100%);
    // inter-procedural scaling (ISPBO) restores it to the top.
    let bump_pot = {
        let fid = pb.declare("bump_pot", vec![pnode, pnode], void);
        pb.define(fid, |fb| {
            let e = fb.param(0);
            let p = fb.param(1);
            let pp = fb.load_field(p.into(), node, nf("potential"));
            let np = fb.add(pp.into(), Operand::int(1));
            fb.store_field(e.into(), node, nf("potential"), np.into());
            fb.ret(None);
        });
        fid
    };
    let read_pot = {
        let fid = pb.declare("read_pot", vec![pnode], i64t);
        pb.define(fid, |fb| {
            let e = fb.param(0);
            let v = fb.load_field(e.into(), node, nf("potential"));
            fb.ret(Some(v.into()));
        });
        fid
    };
    let scan_pot = {
        let fid = pb.declare("scan_pot", vec![pnode, i64t], void);
        pb.define(fid, |fb| {
            let e = fb.param(0);
            let cost = fb.param(1);
            let v = fb.load_field(e.into(), node, nf("potential"));
            let red = fb.sub(cost.into(), v.into());
            fb.store_field(e.into(), node, nf("potential"), red.into());
            fb.ret(None);
        });
        fid
    };

    // ---- hot phase functions (called per simplex iteration) --------------
    // Trip fractions tuned to the Table 2 PBO column; see module docs.
    //
    // Access-pattern shaping (for the DMISS/DLAT columns): fields read on
    // an L1-resident subset of nodes (`i % SUBSET`) are hot but rarely
    // miss (pred, mark, child, sibling, basic_arc); fields read through
    // pointer chases or full-range random indices miss heavily (potential,
    // time, orientation). This decoupling of hotness from miss counts is
    // what makes the paper's DMISS column a poor hotness predictor.
    const SUBSET: i64 = 96;
    // t1 = 0.400 {pred, potential}  (subset walk; pred chase for potential)
    let refresh1 = phase_fn(
        &mut pb,
        "refresh1",
        pnode,
        i64t,
        |fb, nodes, trip, n, it| {
            // the walked window is L1-resident within one call (low pred
            // misses) but rotates every iteration, so the pred-chase targets
            // (assigned randomly at init) sweep the whole array
            let mix = fb.mul(it.into(), Operand::int(SUBSET));
            fb.count_loop(trip.into(), |fb, i| {
                let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(SUBSET));
                let base = fb.add(idx.into(), mix.into());
                let widx = fb.bin(slo_ir::BinOp::Rem, base.into(), n.into());
                let e = fb.index_addr(nodes, node_ty, widx.into());
                let p = fb.load_field(e.into(), node, nf("pred"));
                fb.call_void(bump_pot, vec![e.into(), p.into()]);
            });
        },
    );
    // t2 = 0.337 {pred, potential, mark, time}; time on a random node
    let refresh2 = phase_fn(
        &mut pb,
        "refresh2",
        pnode,
        i64t,
        |fb, nodes, trip, n, it| {
            fb.count_loop(trip.into(), |fb, i| {
                let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(SUBSET));
                let e = fb.index_addr(nodes, node_ty, idx.into());
                let mix = fb.mul(it.into(), Operand::int(1_000_003));
                let seed = fb.add(i.into(), mix.into());
                let j = lcg_index(fb, seed, n);
                let e2 = fb.index_addr(nodes, node_ty, j.into());
                let t = fb.load_field(e2.into(), node, nf("time"));
                let v = fb.call(read_pot, vec![e.into()]);
                let s = fb.add(t.into(), v.into());
                fb.store_field(e.into(), node, nf("mark"), s.into());
                let p = fb.load_field(e.into(), node, nf("pred"));
                let c = fb.cmp(CmpOp::Ne, p.into(), Operand::null());
                fb.if_then(c.into(), |fb| {
                    let nt = fb.add(t.into(), Operand::int(1));
                    fb.store_field(e2.into(), node, nf("time"), nt.into());
                });
            });
        },
    );
    // t3 = 0.263 {potential, basic_arc}; potential random, basic_arc subset.
    // The subset nodes' basic_arc pointers land in a small arc range (set
    // up by init), so the arc side stays cached and the L3 pressure is
    // carried by the node array alone.
    let scan_arcs = phase_fn(
        &mut pb,
        "scan_arcs",
        pnode,
        i64t,
        |fb, nodes, trip, n, it| {
            fb.count_loop(trip.into(), |fb, i| {
                let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(SUBSET));
                let e = fb.index_addr(nodes, node_ty, idx.into());
                let ba = fb.load_field(e.into(), node, nf("basic_arc"));
                let cost0 = fb.load_field(ba.into(), arc, 0);
                // touch every arc field: the arc type then has no cold fields
                // and stays untransformed even when the relaxed analysis makes
                // it legal (the paper: the transformed set is constant)
                let ai = fb.load_field(ba.into(), arc, 3);
                let af = fb.load_field(ba.into(), arc, 6);
                let ao = fb.load_field(ba.into(), arc, 7);
                let t1s = fb.add(ai.into(), af.into());
                let t2s = fb.add(t1s.into(), ao.into());
                let tl = fb.load_field(ba.into(), arc, 1);
                let hd = fb.load_field(ba.into(), arc, 2);
                let no_ = fb.load_field(ba.into(), arc, 4);
                let ni_ = fb.load_field(ba.into(), arc, 5);
                let c1 = fb.cmp(CmpOp::Ne, tl.into(), hd.into());
                let c2 = fb.cmp(CmpOp::Ne, no_.into(), ni_.into());
                let t3s = fb.add(c1.into(), c2.into());
                let t4s = fb.add(t2s.into(), t3s.into());
                let mix5 = fb.bin(slo_ir::BinOp::And, t4s.into(), Operand::int(1));
                let cost = fb.add(cost0.into(), mix5.into());
                let mix = fb.mul(it.into(), Operand::int(999_983));
                let seed = fb.add(i.into(), mix.into());
                let j = lcg_index(fb, seed, n);
                let e2 = fb.index_addr(nodes, node_ty, j.into());
                fb.call_void(scan_pot, vec![e2.into(), cost.into()]);
            });
        },
    );
    // t4 = 0.196 {mark} (subset: hot, cached)
    let price1 = phase_fn(
        &mut pb,
        "price1",
        pnode,
        i64t,
        |fb, nodes, trip, _n, _it| {
            fb.count_loop(trip.into(), |fb, i| {
                let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(SUBSET));
                let e = fb.index_addr(nodes, node_ty, idx.into());
                let mk = fb.load_field(e.into(), node, nf("mark"));
                let nm = fb.add(mk.into(), Operand::int(1));
                fb.store_field(e.into(), node, nf("mark"), nm.into());
            });
        },
    );
    // t5 = 0.136 {basic_arc, child} (subset)
    let tree1 = phase_fn(&mut pb, "tree1", pnode, i64t, |fb, nodes, trip, _n, _it| {
        fb.count_loop(trip.into(), |fb, i| {
            let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(SUBSET));
            let e = fb.index_addr(nodes, node_ty, idx.into());
            let ba = fb.load_field(e.into(), node, nf("basic_arc"));
            let ch = fb.load_field(e.into(), node, nf("child"));
            let c = fb.cmp(CmpOp::Eq, ba.into(), Operand::null());
            let c2 = fb.cmp(CmpOp::Eq, ch.into(), Operand::null());
            let both = fb.add(c.into(), c2.into());
            fb.if_then(both.into(), |fb| {
                fb.store_field(e.into(), node, nf("child"), e.into());
            });
        });
    });
    // t6 = 0.072 {child, sibling} (subset)
    let tree2 = phase_fn(&mut pb, "tree2", pnode, i64t, |fb, nodes, trip, _n, _it| {
        fb.count_loop(trip.into(), |fb, i| {
            let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(SUBSET));
            let e = fb.index_addr(nodes, node_ty, idx.into());
            let ch = fb.load_field(e.into(), node, nf("child"));
            let sb = fb.load_field(e.into(), node, nf("sibling"));
            let c = fb.cmp(CmpOp::Eq, ch.into(), sb.into());
            fb.if_then(c.into(), |fb| {
                fb.store_field(e.into(), node, nf("sibling"), e.into());
            });
        });
    });
    // t7 = 0.135 {sibling, orientation}; orientation random, sibling subset
    let tree3 = phase_fn(&mut pb, "tree3", pnode, i64t, |fb, nodes, trip, n, it| {
        fb.count_loop(trip.into(), |fb, i| {
            let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), Operand::int(SUBSET));
            let e = fb.index_addr(nodes, node_ty, idx.into());
            let sb = fb.load_field(e.into(), node, nf("sibling"));
            let mix = fb.mul(it.into(), Operand::int(999_979));
            let seed = fb.add(i.into(), mix.into());
            let j = lcg_index(fb, seed, n);
            let e2 = fb.index_addr(nodes, node_ty, j.into());
            let o = fb.load_field(e2.into(), node, nf("orientation"));
            let c = fb.cmp(CmpOp::Ne, sb.into(), Operand::null());
            let no = fb.add(o.into(), c.into());
            fb.store_field(e2.into(), node, nf("orientation"), no.into());
        });
    });
    // t8 = 0.097 {orientation} (random: missy)
    let orient = phase_fn(&mut pb, "orient", pnode, i64t, |fb, nodes, trip, n, it| {
        fb.count_loop(trip.into(), |fb, i| {
            let mix = fb.mul(it.into(), Operand::int(999_961));
            let seed = fb.add(i.into(), mix.into());
            let j = lcg_index(fb, seed, n);
            let e = fb.index_addr(nodes, node_ty, j.into());
            let o = fb.load_field(e.into(), node, nf("orientation"));
            let no = fb.bin(slo_ir::BinOp::Xor, o.into(), Operand::int(1));
            fb.store_field(e.into(), node, nf("orientation"), no.into());
        });
    });
    // t9 = 0.031 {depth}, t10 = 0.028 {flow}
    let depth_scan = phase_fn(
        &mut pb,
        "depth_scan",
        pnode,
        i64t,
        |fb, nodes, trip, n, _it| {
            fb.count_loop(trip.into(), |fb, i| {
                let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), n.into());
                let e = fb.index_addr(nodes, node_ty, idx.into());
                let d = fb.load_field(e.into(), node, nf("depth"));
                let nd = fb.add(d.into(), Operand::int(1));
                fb.store_field(e.into(), node, nf("depth"), nd.into());
            });
        },
    );
    let flow_scan = phase_fn(
        &mut pb,
        "flow_scan",
        pnode,
        i64t,
        |fb, nodes, trip, n, _it| {
            fb.count_loop(trip.into(), |fb, i| {
                let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), n.into());
                let e = fb.index_addr(nodes, node_ty, idx.into());
                let f = fb.load_field(e.into(), node, nf("flow"));
                let nd = fb.add(f.into(), Operand::int(1));
                fb.store_field(e.into(), node, nf("flow"), nd.into());
            });
        },
    );

    // ---- rare fields: called once from main ------------------------------
    // (a separate compilation unit, so the FE/IPA summary aggregation is
    // exercised across translation units like in the real benchmark)
    pb.unit("mcfutil.c");
    let rare = pb.declare("rare_fields", vec![pnode, i64t, i64t], void);
    pb.define(rare, |fb| {
        let nodes = fb.param(0);
        let n = fb.param(1);
        let total = fb.param(2); // n * iters
        for (field, permille) in [
            ("firstout", 8i64),
            ("firstin", 7),
            ("number", 2),
            ("sibling_prev", 1),
        ] {
            let trip = fb.mul(total.into(), Operand::int(permille));
            let trip = fb.div(trip.into(), Operand::int(1000));
            fb.count_loop(trip.into(), |fb, i| {
                let idx = fb.bin(slo_ir::BinOp::Rem, i.into(), n.into());
                let e = fb.index_addr(nodes, node_ty, idx.into());
                let v = fb.load_field(e.into(), node, nf(field));
                let c = fb.cmp(CmpOp::Ne, v.into(), Operand::int(-1));
                fb.if_then(c.into(), |fb| {
                    fb.iconst(0);
                });
            });
        }
        fb.ret(None);
    });

    // ---- the legality-shaping functions ----------------------------------
    // arc: ATKN (field address arithmetic, once)
    let arc_atkn = pb.declare("arc_addr_trick", vec![parc], i64t);
    pb.define(arc_atkn, |fb| {
        let a = fb.param(0);
        let fa = fb.field_addr(a.into(), arc, 0);
        let moved = fb.add(fa.into(), Operand::int(8));
        let v = fb.load(moved.into(), i64t);
        // read every arc field once so none is "dead" even when the
        // relaxed analysis makes arc legal (the paper: the transformed
        // set stays constant under relaxation)
        let acc = fb.fresh();
        fb.assign(acc, v.into());
        for f in [0u32, 3, 6, 7] {
            let x = fb.load_field(a.into(), arc, f);
            let ns = fb.add(acc.into(), x.into());
            fb.assign(acc, ns.into());
        }
        for f in [1u32, 2, 4, 5] {
            let x = fb.load_field(a.into(), arc, f);
            let c = fb.cmp(CmpOp::Ne, x.into(), Operand::null());
            let ns = fb.add(acc.into(), c.into());
            fb.assign(acc, ns.into());
        }
        fb.ret(Some(acc.into()));
    });
    // basket: CSTF
    let basket_cast = pb.declare("basket_cast", vec![pbasket], i64t);
    pb.define(basket_cast, |fb| {
        let b = fb.param(0);
        let v = fb.cast(b.into(), pbasket, i64t);
        fb.ret(Some(v.into()));
    });
    // network: LIBC escape; stats: MSET
    pb.unit("output.c");
    let report = pb.declare("report", vec![], void);
    pb.define(report, |fb| {
        let net = fb.alloc(network_ty, Operand::int(4));
        fb.store_field(net.into(), network, 0, Operand::int(1));
        let v = fb.load_field(net.into(), network, 0);
        let c = fb.cmp(CmpOp::Gt, v.into(), Operand::int(0));
        fb.if_then(c.into(), |fb| {
            fb.call_void(fwrite, vec![net.into(), Operand::int(24)]);
        });
        let st = fb.alloc(stats_ty, Operand::int(4));
        fb.memset(st.into(), Operand::int(0), Operand::int(16));
        fb.store_field(st.into(), stats, 0, Operand::int(1));
        let sv = fb.load_field(st.into(), stats, 0);
        let c2 = fb.cmp(CmpOp::Gt, sv.into(), Operand::int(0));
        fb.if_then(c2.into(), |fb| {
            fb.iconst(0);
        });
        fb.free(net.into());
        fb.free(st.into());
        fb.ret(None);
    });

    // ---- main -------------------------------------------------------------
    pb.unit("mcf.c");
    let main = pb.declare("main", vec![], i64t);
    pb.define(main, |fb| {
        let n = fb.iconst(cfg.n);
        let m = fb.div(n.into(), Operand::int(4));
        let nodes = fb.alloc(node_ty, n.into());
        let arcs = fb.alloc(arc_ty, m.into());
        fb.call_void(init, vec![nodes.into(), arcs.into(), n.into()]);

        // basket + arc legality constructs (cheap, once)
        let bk = fb.alloc(basket_ty, Operand::int(16));
        fb.store_field(bk.into(), basket, 1, Operand::int(5));
        fb.store_field(bk.into(), basket, 2, Operand::int(6));
        let bv = fb.load_field(bk.into(), basket, 1);
        let bv2 = fb.load_field(bk.into(), basket, 2);
        let ba = fb.load_field(bk.into(), basket, 0);
        let bc = fb.cmp(CmpOp::Eq, ba.into(), Operand::null());
        let t1 = fb.add(bv.into(), bv2.into());
        let _ = fb.add(t1.into(), bc.into());
        fb.call(basket_cast, vec![bk.into()]);
        let a0 = fb.index_addr(arcs, arc_ty, Operand::int(0));
        fb.call(arc_atkn, vec![a0.into()]);

        // the simplex loop
        // per-mille trip fractions; the skewed mix models how a different
        // input shifts the phase balance slightly
        let sk = cfg.skew;
        let trips: [(FuncId, i64); 10] = [
            (refresh1, 400 - 24 * sk),
            (refresh2, 337 + 100 * sk),
            (scan_arcs, 263 + 12 * sk),
            (price1, 196 + 124 * sk),
            (tree1, 136 + 9 * sk),
            (tree2, 72 - 5 * sk),
            (tree3, 135 + 8 * sk),
            (orient, 97 - 6 * sk),
            (depth_scan, 31 - 17 * sk),
            (flow_scan, 28 - 18 * sk),
        ];
        fb.count_loop(Operand::int(cfg.iters), |fb, it| {
            for (f, permille) in trips {
                let t = fb.mul(n.into(), Operand::int(permille));
                let t = fb.div(t.into(), Operand::int(1000));
                fb.call_void(f, vec![nodes.into(), t.into(), n.into(), it.into()]);
            }
        });

        // rare fields (once, proportional to n*iters)
        let total = fb.mul(n.into(), Operand::int(cfg.iters));
        fb.call_void(rare, vec![nodes.into(), n.into(), total.into()]);

        fb.call_void(report, vec![]);

        // checksum: sum of potentials
        let sum = fb.fresh();
        fb.assign(sum, Operand::int(0));
        fb.count_loop(n.into(), |fb, i| {
            let e = fb.index_addr(nodes, node_ty, i.into());
            let v = fb.load_field(e.into(), node, nf("potential"));
            let ns = fb.add(sum.into(), v.into());
            fb.assign(sum, ns.into());
        });
        fb.free(bk.into());
        fb.ret(Some(sum.into()));
    });

    pb.finish()
}

/// Declare and define a phase function
/// `name(nodes, trip, n, iter) -> void`; `iter` is the simplex iteration,
/// mixed into the pseudo-random index streams so every iteration touches
/// a fresh slice of the node array.
fn phase_fn(
    pb: &mut ProgramBuilder,
    name: &str,
    pnode: slo_ir::TypeId,
    i64t: slo_ir::TypeId,
    body: impl FnOnce(&mut slo_ir::FuncBuilder<'_>, Reg, Reg, Reg, Reg),
) -> FuncId {
    let void = pb.void();
    let fid = pb.declare(name, vec![pnode, i64t, i64t, i64t], void);
    pb.define(fid, |fb| {
        let nodes = fb.param(0);
        let trip = fb.param(1);
        let n = fb.param(2);
        let it = fb.param(3);
        body(fb, nodes, trip, n, it);
        fb.ret(None);
    });
    fid
}

/// Emit an LCG step producing a pseudo-random index in `0..n`.
fn lcg_index(fb: &mut slo_ir::FuncBuilder<'_>, seed: Reg, n: Reg) -> Reg {
    let a = fb.mul(seed.into(), Operand::int(1103515245));
    let b = fb.add(a.into(), Operand::int(12345));
    let c = fb.bin(slo_ir::BinOp::And, b.into(), Operand::int(0x7fff_ffff));
    fb.bin(slo_ir::BinOp::Rem, c.into(), n.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_analysis::ipa::{analyze_program, LegalityConfig};
    use slo_ir::verify::assert_valid;

    fn small() -> Program {
        build_config(McfConfig {
            n: 600,
            iters: 40,
            skew: 0,
        })
    }

    #[test]
    fn builds_and_verifies() {
        let p = small();
        assert_valid(&p);
        assert_eq!(p.types.num_records(), 5);
    }

    #[test]
    fn spans_multiple_compilation_units() {
        let p = small();
        assert!(p.units.len() >= 4, "mcf models several translation units");
        let rare = p.func_by_name("rare_fields").expect("rare_fields");
        let main = p.main().expect("main");
        assert_ne!(p.func(rare).unit, 0);
        assert_ne!(p.func(rare).unit, p.func(main).unit);
        // per-unit FE summaries really are partial
        let sums = slo_analysis::FactTable::new(&p).analyze_all_units();
        let node = p.types.record_by_name("node").expect("node");
        let units_touching_node = sums.iter().filter(|s| s.types.contains_key(&node)).count();
        assert!(units_touching_node >= 2, "node is used in several units");
    }

    #[test]
    fn table1_census() {
        let p = small();
        let strict = analyze_program(&p, &LegalityConfig::default());
        assert_eq!(strict.num_legal(), 1, "mcf: 1 strictly legal type");
        let node = p.types.record_by_name("node").expect("node");
        assert!(strict.verdict(node).legal(), "node must be the legal one");
        let relaxed = analyze_program(
            &p,
            &LegalityConfig {
                relax_cast_addr: true,
                ..Default::default()
            },
        );
        assert_eq!(relaxed.num_legal(), 3, "mcf: 3 relax-legal types");
    }

    #[test]
    fn runs_and_is_deterministic() {
        let p = small();
        let o1 = slo_vm::run(&p, &slo_vm::VmOptions::default()).expect("run 1");
        let o2 = slo_vm::run(&p, &slo_vm::VmOptions::default()).expect("run 2");
        assert_eq!(o1.exit, o2.exit);
        assert!(o1.stats.instructions > 100_000);
    }

    #[test]
    fn pbo_hotness_shape() {
        let p = small();
        let fb = slo_vm::run(&p, &slo_vm::VmOptions::profiling())
            .expect("profile run")
            .feedback;
        let node = p.types.record_by_name("node").expect("node");
        let rel = slo_analysis::relative_hotness(&p, node, &slo_analysis::WeightScheme::Pbo(&fb));
        let f = |n: &str| rel[NODE_FIELDS.iter().position(|x| *x == n).expect("field")];
        assert_eq!(f("potential"), 100.0, "potential must be hottest: {rel:?}");
        assert!(f("pred") > 55.0 && f("pred") < 90.0, "pred {}", f("pred"));
        assert!(f("mark") > 35.0 && f("mark") < 70.0, "mark {}", f("mark"));
        assert!(f("time") > 20.0 && f("time") < 50.0, "time {}", f("time"));
        assert!(f("ident") == 0.0, "ident unused");
        assert!(f("number") < 3.0, "number {}", f("number"));
        assert!(f("sibling_prev") < 3.0);
        assert!(f("flow") < 7.0, "flow {}", f("flow"));
        // correlation with the paper's column is strong
        let r = slo_analysis::correlation(&rel, &PAPER_PBO_HOTNESS);
        assert!(r > 0.9, "correlation to the paper's PBO column: {r}");
    }
}
