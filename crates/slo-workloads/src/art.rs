//! 179.art model — the peeling showcase.
//!
//! The SPEC2000 FP benchmark the paper peels: "a dynamically allocated
//! array of structures containing only floating point fields (and a
//! non-recursive pointer). The result of the dynamic allocation is
//! assigned to a global pointer variable P; no other local or global
//! pointers or variables of that type exist." (§2.1)
//!
//! Our model:
//!
//! * `f1_neuron` — eight `f64` fields, one allocation published through
//!   the global `F1`; the training loops sweep the whole array many times
//!   touching only one or two fields per pass, so peeling turns each pass
//!   from a 64-byte-stride walk into a dense array walk (the +78.2%
//!   mechanism);
//! * `f2_neuron` — clean but unprofitable (two allocation sites, all
//!   fields uniformly hot);
//! * `xcess` — blocked by MSET (hard invalid).
//!
//! Census: 3 types, 2 legal, 2 relax-legal (Table 1's 179.art row).

use crate::InputSet;
use slo_ir::{Field, Operand, Program, ProgramBuilder, ScalarKind};

/// Size parameters of the art model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtConfig {
    /// Number of F1-layer neurons.
    pub n: i64,
    /// Training passes over the array.
    pub passes: i64,
}

impl ArtConfig {
    /// Parameters for an input set.
    pub fn for_input(input: InputSet) -> Self {
        match input {
            InputSet::Training => ArtConfig {
                n: 100_000,
                passes: 12,
            },
            InputSet::Reference => ArtConfig {
                n: 140_000,
                passes: 12,
            },
        }
    }
}

/// The F1 neuron fields.
pub const F1_FIELDS: [&str; 8] = ["fI", "fW", "fX", "fV", "fU", "fP", "fQ", "fR"];

/// Build the art model program for an input set.
pub fn build(input: InputSet) -> Program {
    build_config(ArtConfig::for_input(input))
}

/// Build the art model program with explicit parameters.
pub fn build_config(cfg: ArtConfig) -> Program {
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let f64t = pb.scalar(ScalarKind::F64);
    let void = pb.void();

    let (f1, f1_ty) = pb.record(
        "f1_neuron",
        F1_FIELDS.iter().map(|n| Field::new(*n, f64t)).collect(),
    );
    let pf1 = pb.ptr(f1_ty);
    let (f2, f2_ty) = pb.record(
        "f2_neuron",
        vec![Field::new("y", f64t), Field::new("r", f64t)],
    );
    let (xcess, xcess_ty) = pb.record(
        "xcess",
        vec![Field::new("buf", f64t), Field::new("len", i64t)],
    );

    let gf1 = pb.global("F1", pf1);

    // one pass: sweep the array reading `loads` and storing into `store`.
    // The passes chain (each consumes what the previous produced), so no
    // field is dead and the automatic dead-field removal stays out of the
    // picture — the measured effect is peeling alone.
    let mut pass_fns = Vec::new();
    for (name, loads, store) in [
        ("pass_compute_x", vec!["fI"], "fX"),
        ("pass_norm_w", vec!["fX"], "fW"),
        ("pass_update_u", vec!["fW", "fV"], "fU"),
        ("pass_match_p", vec!["fU"], "fP"),
        ("pass_reset_r", vec!["fP", "fQ"], "fR"),
    ] {
        let fid = pb.declare(name, vec![i64t], void);
        pb.define(fid, |fb| {
            let n = fb.param(0);
            let base = fb.load_global(gf1);
            fb.count_loop(n.into(), |fb, i| {
                let e = fb.index_addr(base, f1_ty, i.into());
                let fidx = |f: &str| {
                    F1_FIELDS
                        .iter()
                        .position(|x| x == &f)
                        .expect("known f1 field") as u32
                };
                let mut acc = fb.fconst(0.0);
                for l in &loads {
                    let v = fb.load_field(e.into(), f1, fidx(l));
                    acc = fb.add(acc.into(), v.into());
                }
                let nv = fb.mul(acc.into(), Operand::float(1.0000001));
                fb.store_field(e.into(), f1, fidx(store), nv.into());
            });
            fb.ret(None);
        });
        pass_fns.push(fid);
    }

    // f2: clean but unprofitable (two allocs, uniform access)
    let f2_use = pb.declare("f2_use", vec![i64t], f64t);
    pb.define(f2_use, |fb| {
        let n = fb.param(0);
        let a = fb.alloc(f2_ty, n.into());
        let b = fb.alloc(f2_ty, n.into());
        let acc = fb.fresh();
        fb.assign(acc, Operand::float(0.0));
        for arr in [a, b] {
            fb.count_loop(n.into(), |fb, i| {
                let e = fb.index_addr(arr, f2_ty, i.into());
                fb.store_field(e.into(), f2, 0, Operand::float(1.5));
                fb.store_field(e.into(), f2, 1, Operand::float(2.5));
                let y = fb.load_field(e.into(), f2, 0);
                let r = fb.load_field(e.into(), f2, 1);
                let s = fb.add(y.into(), r.into());
                let ns = fb.add(acc.into(), s.into());
                fb.assign(acc, ns.into());
            });
        }
        fb.free(a.into());
        fb.free(b.into());
        fb.ret(Some(acc.into()));
    });

    // xcess: MSET violation
    let xcess_use = pb.declare("xcess_use", vec![], void);
    pb.define(xcess_use, |fb| {
        let x = fb.alloc(xcess_ty, Operand::int(8));
        fb.memset(x.into(), Operand::int(0), Operand::int(64));
        fb.store_field(x.into(), xcess, 1, Operand::int(3));
        let v = fb.load_field(x.into(), xcess, 1);
        let b = fb.load_field(x.into(), xcess, 0);
        let s = fb.add(v.into(), b.into());
        let _ = fb.add(s.into(), Operand::int(0));
        fb.free(x.into());
        fb.ret(None);
    });

    let main = pb.declare("main", vec![], f64t);
    pb.define(main, |fb| {
        let n = fb.iconst(cfg.n);
        // a constant count lets the planner interleave (§2.1)
        let arr = fb.alloc(f1_ty, Operand::int(cfg.n));
        fb.store_global(gf1, arr.into());
        // initialize every field
        let base = fb.load_global(gf1);
        fb.count_loop(n.into(), |fb, i| {
            let e = fb.index_addr(base, f1_ty, i.into());
            for f in 0..F1_FIELDS.len() as u32 {
                fb.store_field(e.into(), f1, f, Operand::float(1.0));
            }
            let _ = i;
        });
        // training passes
        fb.count_loop(Operand::int(cfg.passes), |fb, _| {
            for &p in &pass_fns {
                fb.call_void(p, vec![n.into()]);
            }
        });
        let f2v = fb.call(f2_use, vec![Operand::int(256)]);
        fb.call_void(xcess_use, vec![]);
        // checksum over one field
        let sum = fb.fresh();
        fb.assign(sum, Operand::float(0.0));
        let base2 = fb.load_global(gf1);
        fb.count_loop(n.into(), |fb, i| {
            let e = fb.index_addr(base2, f1_ty, i.into());
            let widx = F1_FIELDS
                .iter()
                .position(|x| *x == "fW")
                .expect("fW exists") as u32;
            let ridx = F1_FIELDS
                .iter()
                .position(|x| *x == "fR")
                .expect("fR exists") as u32;
            let v = fb.load_field(e.into(), f1, widx);
            let r = fb.load_field(e.into(), f1, ridx);
            let s1 = fb.add(v.into(), r.into());
            let ns = fb.add(sum.into(), s1.into());
            fb.assign(sum, ns.into());
        });
        let total = fb.add(sum.into(), f2v.into());
        fb.ret(Some(total.into()));
    });

    pb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_analysis::ipa::{analyze_program, LegalityConfig};
    use slo_ir::verify::assert_valid;

    fn small() -> Program {
        build_config(ArtConfig {
            n: 2_000,
            passes: 3,
        })
    }

    #[test]
    fn builds_and_verifies() {
        let p = small();
        assert_valid(&p);
        assert_eq!(p.types.num_records(), 3);
    }

    #[test]
    fn table1_census() {
        let p = small();
        let strict = analyze_program(&p, &LegalityConfig::default());
        assert_eq!(strict.num_legal(), 2, "art: 2 legal types");
        let relaxed = analyze_program(
            &p,
            &LegalityConfig {
                relax_cast_addr: true,
                ..Default::default()
            },
        );
        assert_eq!(relaxed.num_legal(), 2, "art: relax changes nothing");
    }

    #[test]
    fn f1_is_peelable() {
        let p = small();
        let ipa = analyze_program(&p, &LegalityConfig::default());
        let f1 = p.types.record_by_name("f1_neuron").expect("f1");
        assert!(slo_transform::peelable(&p, f1, &ipa));
        let f2 = p.types.record_by_name("f2_neuron").expect("f2");
        assert!(!slo_transform::peelable(&p, f2, &ipa));
    }
}
