//! Generic record-type census generator.
//!
//! Nine of the paper's twelve benchmarks (milc, cactusADM, gobmk, povray,
//! calculix, h264avc, lucille, sphinx, ssearch) matter to the evaluation
//! only through their *type census*: how many record types exist, how many
//! pass the strict legality tests, and how many become legal when
//! CSTT/CSTF/ATKN are relaxed (Table 1) — none of them end up transformed
//! (Table 3). This module synthesizes a program with exactly that census:
//!
//! * `legal` clean types: dynamically allocated (twice, so they are not
//!   peelable), every field read in one uniform loop (so no field is cold
//!   or dead — no split, no removal),
//! * `relax - legal` types tripping exactly one of CSTT / CSTF / ATKN
//!   (recoverable by the relaxed analysis),
//! * `types - relax` types tripping a non-recoverable test
//!   (LIBC / IND / MSET / SMAL / external escape, round-robin).

use slo_ir::{CmpOp, Field, FuncId, Operand, Program, ProgramBuilder, ScalarKind, TypeId};

/// The census of one benchmark (one Table 1 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CensusSpec {
    /// Benchmark name.
    pub name: &'static str,
    /// Total record types.
    pub types: usize,
    /// Types legal under the strict analysis.
    pub legal: usize,
    /// Types legal when CSTT/CSTF/ATKN are tolerated.
    pub relax: usize,
}

impl CensusSpec {
    /// Validate internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if `legal > relax` or `relax > types`.
    pub fn check(&self) {
        assert!(self.legal <= self.relax, "{}: legal > relax", self.name);
        assert!(self.relax <= self.types, "{}: relax > types", self.name);
    }
}

/// Generate a program realizing the census. `work_scale` controls how much
/// actual work `main` performs (loop trip counts), so census benchmarks
/// also produce non-trivial (if small) performance numbers.
pub fn generate(spec: &CensusSpec, work_scale: u64) -> Program {
    spec.check();
    let mut pb = ProgramBuilder::new();
    let i64t = pb.scalar(ScalarKind::I64);
    let void = pb.void();
    let u8t = pb.scalar(ScalarKind::U8);
    let pu8 = pb.ptr(u8t);

    // shared helper declarations
    let fwrite = pb.libc("fwrite", vec![pu8, i64t], i64t);

    let mut use_funcs: Vec<FuncId> = Vec::new();
    let n_cast = spec.relax - spec.legal;

    for i in 0..spec.types {
        let nfields = 3 + (i % 4); // 3..=6 fields
        let fields: Vec<Field> = (0..nfields)
            .map(|f| Field::new(format!("f{f}"), i64t))
            .collect();
        let (rid, rty) = pb.record(format!("{}_t{}", spec.name, i), fields);
        let prty = pb.ptr(rty);

        let kind = if i < spec.legal {
            TypeKind::Clean
        } else if i < spec.legal + n_cast {
            match (i - spec.legal) % 3 {
                0 => TypeKind::CastFrom,
                1 => TypeKind::CastTo,
                _ => TypeKind::AddrTaken,
            }
        } else {
            match (i - spec.legal - n_cast) % 5 {
                0 => TypeKind::Libc,
                1 => TypeKind::Indirect,
                2 => TypeKind::Memset,
                3 => TypeKind::Small,
                _ => TypeKind::Escape,
            }
        };

        // per-kind auxiliary declarations
        let aux: Option<FuncId> = match kind {
            TypeKind::Indirect => {
                Some(pb.declare(format!("{}_cb{}", spec.name, i), vec![prty], void))
            }
            TypeKind::Escape => {
                Some(pb.external(format!("{}_ext{}", spec.name, i), vec![prty], void))
            }
            _ => None,
        };
        if let Some(f) = aux {
            if pb.program().func(f).is_defined() {
                pb.define(f, |fb| fb.ret(None));
            }
        }

        let fid = pb.declare(format!("{}_use{}", spec.name, i), vec![i64t], i64t);
        use_funcs.push(fid);
        build_use_fn(
            &mut pb,
            fid,
            rid,
            rty,
            prty,
            nfields as u32,
            kind,
            aux,
            fwrite,
            pu8,
        );
    }

    // main: call every use function `work_scale` times, sum results
    let main = pb.declare("main", vec![], i64t);
    pb.define(main, |fb| {
        let sum = fb.fresh();
        fb.assign(sum, Operand::int(0));
        fb.count_loop(Operand::int(work_scale as i64), |fb, i| {
            for &uf in &use_funcs {
                let v = fb.call(uf, vec![i.into()]);
                let ns = fb.add(sum.into(), v.into());
                fb.assign(sum, ns.into());
            }
        });
        fb.ret(Some(sum.into()));
    });

    pb.finish()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TypeKind {
    Clean,
    CastFrom,
    CastTo,
    AddrTaken,
    Libc,
    Indirect,
    Memset,
    Small,
    Escape,
}

#[allow(clippy::too_many_arguments)]
fn build_use_fn(
    pb: &mut ProgramBuilder,
    fid: FuncId,
    rid: slo_ir::RecordId,
    rty: TypeId,
    prty: TypeId,
    nfields: u32,
    kind: TypeKind,
    aux: Option<FuncId>,
    fwrite: FuncId,
    _pu8: TypeId,
) {
    pb.define(fid, |fb| {
        let i64t = fb.types().scalar(ScalarKind::I64);
        let count = 16i64;
        // two allocation sites (defeats peeling while staying legal)
        let a = fb.alloc(rty, Operand::int(count));
        let b = fb.alloc(rty, Operand::int(count));
        let acc = fb.fresh();
        fb.assign(acc, fb.param(0).into());

        // uniform access: every field written then read for both arrays
        for arr in [a, b] {
            fb.count_loop(Operand::int(count), |fb, i| {
                let e = fb.index_addr(arr, rty, i.into());
                for f in 0..nfields {
                    fb.store_field(e.into(), rid, f, i.into());
                    let v = fb.load_field(e.into(), rid, f);
                    let ns = fb.add(acc.into(), v.into());
                    fb.assign(acc, ns.into());
                }
            });
        }

        // the kind-specific construct
        match kind {
            TypeKind::Clean => {}
            TypeKind::CastFrom => {
                let c = fb.cast(a.into(), prty, i64t);
                let ns = fb.add(acc.into(), c.into());
                fb.assign(acc, ns.into());
            }
            TypeKind::CastTo => {
                let raw = fb.iconst(4096);
                let c = fb.cast(raw.into(), i64t, prty);
                let cmp = fb.cmp(CmpOp::Eq, c.into(), a.into());
                let ns = fb.add(acc.into(), cmp.into());
                fb.assign(acc, ns.into());
            }
            TypeKind::AddrTaken => {
                // field address leaks into arithmetic
                let fa = fb.field_addr(a.into(), rid, 0);
                let moved = fb.add(fa.into(), Operand::int(8));
                let v = fb.load(moved.into(), i64t);
                let ns = fb.add(acc.into(), v.into());
                fb.assign(acc, ns.into());
            }
            TypeKind::Libc => {
                // fwrite is declared with a byte-pointer parameter; the FE
                // falls back to the operand's inferred type and records the
                // record escape to a libc function.
                fb.call_void(fwrite, vec![a.into(), Operand::int(64)]);
            }
            TypeKind::Indirect => {
                let cb = aux.expect("indirect kind has a callback");
                let fp = fb.func_addr(cb);
                fb.call_indirect(fp.into(), vec![a.into()], vec![prty]);
            }
            TypeKind::Memset => {
                fb.memset(a.into(), Operand::int(0), Operand::int(32));
            }
            TypeKind::Small => {
                let single = fb.alloc(rty, Operand::int(1));
                fb.store_field(single.into(), rid, 0, Operand::int(1));
                let v = fb.load_field(single.into(), rid, 0);
                let ns = fb.add(acc.into(), v.into());
                fb.assign(acc, ns.into());
                fb.free(single.into());
            }
            TypeKind::Escape => {
                let ext = aux.expect("escape kind has an external");
                fb.call_void(ext, vec![a.into()]);
            }
        }

        fb.free(a.into());
        fb.free(b.into());
        fb.ret(Some(acc.into()));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_analysis::ipa::{analyze_program, LegalityConfig};
    use slo_ir::verify::assert_valid;

    fn spec() -> CensusSpec {
        CensusSpec {
            name: "demo",
            types: 10,
            legal: 2,
            relax: 6,
        }
    }

    #[test]
    fn census_counts_match() {
        let p = generate(&spec(), 1);
        assert_valid(&p);
        assert_eq!(p.types.num_records(), 10);
        let strict = analyze_program(&p, &LegalityConfig::default());
        assert_eq!(strict.num_legal(), 2, "strict legality count");
        let relaxed = analyze_program(
            &p,
            &LegalityConfig {
                relax_cast_addr: true,
                ..Default::default()
            },
        );
        assert_eq!(relaxed.num_legal(), 6, "relaxed legality count");
    }

    #[test]
    fn census_program_runs() {
        let p = generate(&spec(), 1);
        let out = slo_vm::run(&p, &slo_vm::VmOptions::default()).expect("runs");
        assert!(out.stats.instructions > 100);
    }

    #[test]
    fn census_types_not_transformed() {
        let p = generate(&spec(), 1);
        let ipa = analyze_program(&p, &LegalityConfig::default());
        let (graphs, counts) =
            slo_analysis::FactTable::new(&p).profitability(&slo_analysis::WeightScheme::Ispbo);
        let plan = slo_transform::decide(
            &p,
            &ipa,
            &graphs,
            &counts,
            &slo_transform::HeuristicsConfig::ispbo(),
        );
        assert_eq!(
            plan.num_transformed(),
            0,
            "census types must stay untransformed"
        );
    }

    #[test]
    #[should_panic(expected = "legal > relax")]
    fn inconsistent_spec_panics() {
        CensusSpec {
            name: "bad",
            types: 5,
            legal: 4,
            relax: 2,
        }
        .check();
    }

    #[test]
    fn zero_hard_types_edge_case() {
        let p = generate(
            &CensusSpec {
                name: "allclean",
                types: 3,
                legal: 3,
                relax: 3,
            },
            1,
        );
        let strict = analyze_program(&p, &LegalityConfig::default());
        assert_eq!(strict.num_legal(), 3);
    }
}
