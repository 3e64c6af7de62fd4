//! A kernel-flavoured workload for the multi-threaded advisory heuristics.
//!
//! §3.4: "Currently the affinity information is used by the HP-UX kernel
//! group to improve their structure definitions... Since the kernel is a
//! highly multi-threaded application, the analysis benefits heavily from
//! the presence of the read/write counts."
//!
//! The model: a per-connection descriptor whose *statistics* fields are
//! written on every operation (one writer path) while its *configuration*
//! fields are only read (many reader paths). Both groups are hot, so the
//! hotness-based splitter keeps them together — but the §3.3
//! classification flags the write/read mix as a false-sharing risk, the
//! advice the paper reports giving the kernel team.

use slo_ir::{BinOp, Field, Operand, Program, ProgramBuilder, ScalarKind};

/// Names of the descriptor fields, in declaration order.
pub const CONN_FIELDS: [&str; 8] = [
    "cfg_mtu",
    "stat_packets",
    "cfg_flags",
    "stat_bytes",
    "cfg_timeout",
    "stat_errors",
    "cfg_owner",
    "stat_drops",
];

/// Build the kernel-like program: `n` descriptors, `ops` operations.
pub fn build(n: i64, ops: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let void = pb.void();
    let fields: Vec<Field> = CONN_FIELDS.iter().map(|f| Field::new(*f, i64t)).collect();
    let (conn, conn_ty) = pb.record("conn", fields);
    let pconn = pb.ptr(conn_ty);

    let fidx = |name: &str| -> u32 {
        CONN_FIELDS
            .iter()
            .position(|f| *f == name)
            .expect("known conn field") as u32
    };

    // the writer path: bumps every stat_* field
    let writer = pb.declare("conn_update_stats", vec![pconn], void);
    pb.define(writer, |fb| {
        let c = fb.param(0);
        for f in ["stat_packets", "stat_bytes", "stat_errors", "stat_drops"] {
            let v = fb.load_field(c.into(), conn, fidx(f));
            let nv = fb.add(v.into(), Operand::int(1));
            fb.store_field(c.into(), conn, fidx(f), nv.into());
        }
        fb.ret(None);
    });

    // the reader path: consults every cfg_* field
    let reader = pb.declare("conn_route", vec![pconn], i64t);
    pb.define(reader, |fb| {
        let c = fb.param(0);
        let acc = fb.fresh();
        fb.assign(acc, Operand::int(0));
        for f in ["cfg_mtu", "cfg_flags", "cfg_timeout", "cfg_owner"] {
            let v = fb.load_field(c.into(), conn, fidx(f));
            let ns = fb.add(acc.into(), v.into());
            fb.assign(acc, ns.into());
        }
        fb.ret(Some(acc.into()));
    });

    let main = pb.declare("main", vec![], i64t);
    pb.define(main, |fb| {
        let nn = fb.iconst(n);
        let conns = fb.alloc(conn_ty, nn.into());
        fb.count_loop(nn.into(), |fb, i| {
            let e = fb.index_addr(conns, conn_ty, i.into());
            for f in 0..CONN_FIELDS.len() as u32 {
                fb.store_field(e.into(), conn, f, i.into());
            }
        });
        let sum = fb.fresh();
        fb.assign(sum, Operand::int(0));
        fb.count_loop(Operand::int(ops), |fb, op| {
            let masked = fb.bin(BinOp::And, op.into(), Operand::int(0x7fff_ffff));
            let idx = fb.bin(BinOp::Rem, masked.into(), nn.into());
            let e = fb.index_addr(conns, conn_ty, idx.into());
            // every op reads the config and updates the stats — in the
            // real kernel these run on different CPUs
            fb.call_void(writer, vec![e.into()]);
            let r = fb.call(reader, vec![e.into()]);
            let ns = fb.add(sum.into(), r.into());
            fb.assign(sum, ns.into());
        });
        fb.ret(Some(sum.into()));
    });

    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo::advisor::{classify, Advice, ScenarioConfig};
    use slo_analysis::{FactTable, WeightScheme};

    #[test]
    fn builds_runs_and_flags_false_sharing() {
        let p = build(512, 4_000);
        slo_ir::verify::assert_valid(&p);
        let out = slo_vm::run(&p, &slo_vm::VmOptions::profiling()).expect("run");
        let (graphs, counts) = FactTable::new(&p).profitability(&WeightScheme::Pbo(&out.feedback));
        let conn = p.types.record_by_name("conn").expect("conn");
        let advice = classify(
            &p,
            conn,
            &graphs[&conn],
            &counts,
            None,
            &ScenarioConfig::default(),
        );
        let fs = advice.iter().find_map(|a| match a {
            Advice::FalseSharingRisk {
                written,
                read_mostly,
            } => Some((written.clone(), read_mostly.clone())),
            _ => None,
        });
        let (written, read_mostly) = fs.expect("false-sharing advice expected");
        // every stat field is in the written set, every cfg field in the
        // read-mostly set
        for f in ["stat_packets", "stat_bytes", "stat_errors", "stat_drops"] {
            let i = CONN_FIELDS.iter().position(|x| *x == f).expect("field") as u32;
            assert!(written.contains(&i), "{f} should be written-hot");
        }
        for f in ["cfg_mtu", "cfg_flags", "cfg_timeout", "cfg_owner"] {
            let i = CONN_FIELDS.iter().position(|x| *x == f).expect("field") as u32;
            assert!(read_mostly.contains(&i), "{f} should be read-mostly");
        }
    }

    #[test]
    fn hotness_keeps_both_groups_hot() {
        // the automatic splitter must NOT separate them (both hot) — this
        // is exactly why the paper routes the case through the advisor
        let p = build(512, 4_000);
        let conn = p.types.record_by_name("conn").expect("conn");
        let out = slo_vm::run(&p, &slo_vm::VmOptions::profiling()).expect("run");
        let rel = slo_analysis::relative_hotness(
            &p,
            conn,
            &slo_analysis::WeightScheme::Pbo(&out.feedback),
        );
        for v in &rel {
            assert!(*v > 50.0, "all fields hot: {rel:?}");
        }
    }
}
