//! IPA aggregation of FE legality summaries — §2.2's second half.
//!
//! Reads each unit's summary ("from the IELF files"), merges observations
//! in the type-unified symbol table, runs type-escape analysis (a type
//! escaping to a function outside the IPA scope is invalidated), applies
//! the SMAL threshold, and — for the paper's relaxed-analysis experiment —
//! optionally tolerates CSTT/CSTF/ATKN, the three tests a field-sensitive
//! points-to analysis could sharpen.

use crate::legality::{LegalitySummary, LegalityTest, TypeObservations};
use slo_ir::{Program, RecordId};
use std::collections::BTreeSet;

/// IPA-side legality configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalityConfig {
    /// Tolerate CSTT, CSTF and ATKN unconditionally (the paper's internal
    /// flag that estimates the upper bound of a points-to-based analysis).
    pub relax_cast_addr: bool,
    /// Tolerate CSTT/CSTF/ATKN only for types whose field-sensitive
    /// points-to sets do not collapse — the *justified* version of the
    /// relaxation the paper sketches ("testing for collapsed Points-To
    /// sets can be used as a sharper legality test for ATKN, CSTT and
    /// CSTF"). Implies running [`crate::pointsto::PointsTo`] during IPA.
    pub pointsto_relax: bool,
    /// SMAL threshold *A*: an allocation site with a constant element
    /// count `<= smal_threshold` invalidates the type. The paper sets
    /// this to 1 ("arrays of size 1 — single objects").
    pub smal_threshold: i64,
}

impl Default for LegalityConfig {
    fn default() -> Self {
        LegalityConfig {
            relax_cast_addr: false,
            pointsto_relax: false,
            smal_threshold: 1,
        }
    }
}

/// The IPA verdict for one record type.
#[derive(Debug, Clone)]
pub struct TypeVerdict {
    /// The type.
    pub record: RecordId,
    /// Merged observations from all units.
    pub attrs: TypeObservations,
    /// The set of tests that invalidate the type (after config).
    pub invalid: BTreeSet<LegalityTest>,
}

impl TypeVerdict {
    /// Whether the type passed all legality tests.
    pub fn legal(&self) -> bool {
        self.invalid.is_empty()
    }
}

/// Whole-program legality result.
#[derive(Debug, Clone)]
pub struct IpaResult {
    /// One verdict per record type, indexed by `RecordId`.
    pub verdicts: Vec<TypeVerdict>,
}

impl IpaResult {
    /// Verdict for a type.
    pub fn verdict(&self, r: RecordId) -> &TypeVerdict {
        &self.verdicts[r.0 as usize]
    }

    /// Total number of record types.
    pub fn num_types(&self) -> usize {
        self.verdicts.len()
    }

    /// Number of types passing all legality tests.
    pub fn num_legal(&self) -> usize {
        self.verdicts.iter().filter(|v| v.legal()).count()
    }

    /// Ids of legal types.
    pub fn legal_types(&self) -> Vec<RecordId> {
        self.verdicts
            .iter()
            .filter(|v| v.legal())
            .map(|v| v.record)
            .collect()
    }
}

/// Aggregate FE summaries into whole-program verdicts.
pub fn aggregate(prog: &Program, summaries: &[LegalitySummary], cfg: &LegalityConfig) -> IpaResult {
    // The sharper points-to test is computed once for the whole program.
    let pointsto = cfg
        .pointsto_relax
        .then(|| crate::pointsto::PointsTo::compute(prog));
    let mut verdicts = Vec::with_capacity(prog.types.num_records());
    for rid in prog.types.record_ids() {
        let mut attrs = TypeObservations::default();
        for s in summaries {
            if let Some(o) = s.types.get(&rid) {
                attrs.merge(o);
            }
        }

        let mut invalid: BTreeSet<LegalityTest> = BTreeSet::new();
        for t in attrs.violations.keys() {
            invalid.insert(*t);
        }

        // SMAL: any allocation site with a small constant count.
        if attrs
            .alloc_sites
            .iter()
            .any(|s| matches!(s.const_count, Some(c) if c <= cfg.smal_threshold))
        {
            invalid.insert(LegalityTest::Smal);
        }

        // Escape analysis: escaping to a function without a body in the
        // IPA scope invalidates the type. (LIBC escapes were already
        // flagged by the FE.)
        if attrs.escapes_to.iter().any(|f| !prog.func(*f).is_defined()) {
            invalid.insert(LegalityTest::Escape);
        }

        if cfg.relax_cast_addr {
            invalid.remove(&LegalityTest::Cstt);
            invalid.remove(&LegalityTest::Cstf);
            invalid.remove(&LegalityTest::Atkn);
        } else if let Some(pt) = &pointsto {
            // tolerate the cast/address tests only when no pointer derived
            // from this type's fields may reach two different fields
            if !pt.collapses(rid) {
                invalid.remove(&LegalityTest::Cstt);
                invalid.remove(&LegalityTest::Cstf);
                invalid.remove(&LegalityTest::Atkn);
            }
        }

        verdicts.push(TypeVerdict {
            record: rid,
            attrs,
            invalid,
        });
    }
    IpaResult { verdicts }
}

/// Convenience: FE over all units, then IPA aggregation.
pub fn analyze_program(prog: &Program, cfg: &LegalityConfig) -> IpaResult {
    let summaries = crate::util::FactTable::new(prog).analyze_all_units();
    aggregate(prog, &summaries, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo_ir::parser::parse;

    const SRC: &str = r#"
record clean   { a: i64, b: i64 }
record casty   { a: i64 }
record escaped { a: i64 }
record single  { a: i64 }
extern func mystery(ptr<escaped>) -> void
func main() -> i64 {
bb0:
  r0 = alloc clean, 100
  r1 = fieldaddr r0, clean.a
  store 1, r1 : i64
  r2 = alloc casty, 100
  r3 = cast r2 : ptr<casty> -> i64
  r4 = alloc escaped, 100
  call mystery(r4)
  r5 = alloc single, 1
  ret 0
}
"#;

    #[test]
    fn verdicts_cover_all_tests() {
        let p = parse(SRC).expect("parse");
        let res = analyze_program(&p, &LegalityConfig::default());
        assert_eq!(res.num_types(), 4);
        assert_eq!(res.num_legal(), 1);
        let get = |n: &str| res.verdict(p.types.record_by_name(n).expect("record"));
        assert!(get("clean").legal());
        assert!(get("casty").invalid.contains(&LegalityTest::Cstf));
        assert!(get("escaped").invalid.contains(&LegalityTest::Escape));
        assert!(get("single").invalid.contains(&LegalityTest::Smal));
    }

    #[test]
    fn relaxation_tolerates_cast_tests() {
        let p = parse(SRC).expect("parse");
        let cfg = LegalityConfig {
            relax_cast_addr: true,
            ..Default::default()
        };
        let res = analyze_program(&p, &cfg);
        let casty = p.types.record_by_name("casty").expect("record");
        assert!(res.verdict(casty).legal());
        // but escape and SMAL remain
        let escaped = p.types.record_by_name("escaped").expect("record");
        assert!(!res.verdict(escaped).legal());
        assert_eq!(res.num_legal(), 2);
    }

    #[test]
    fn smal_threshold_configurable() {
        let src = r#"
record node { a: i64 }
func main() -> i64 {
bb0:
  r0 = alloc node, 4
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let res = analyze_program(&p, &LegalityConfig::default());
        let node = p.types.record_by_name("node").expect("record");
        assert!(res.verdict(node).legal());
        let res = analyze_program(
            &p,
            &LegalityConfig {
                smal_threshold: 10,
                ..Default::default()
            },
        );
        assert!(res.verdict(node).invalid.contains(&LegalityTest::Smal));
    }

    #[test]
    fn escape_to_defined_function_is_fine() {
        let src = r#"
record node { a: i64 }
func helper(ptr<node>) -> void {
bb0:
  ret
}
func main() -> i64 {
bb0:
  r0 = alloc node, 10
  call helper(r0)
  ret 0
}
"#;
        let p = parse(src).expect("parse");
        let res = analyze_program(&p, &LegalityConfig::default());
        let node = p.types.record_by_name("node").expect("record");
        assert!(res.verdict(node).legal(), "{:?}", res.verdict(node).invalid);
    }

    #[test]
    fn pointsto_relax_is_selective() {
        // `safe`'s exposed field address is only copied (it can reach one
        // field cell); `unsafe_t` does pointer arithmetic on a field
        // address, which may reach any field of the object.
        let src = r#"
record safe { a: i64, b: i64 }
record unsafe_t { a: i64, b: i64 }
func main() -> i64 {
bb0:
  r0 = alloc safe, 10
  r1 = fieldaddr r0, safe.a
  r2 = r1
  store r2, r1 : ptr<i64>
  r3 = load r2 : i64
  r4 = alloc unsafe_t, 10
  r5 = fieldaddr r4, unsafe_t.a
  r7 = add r5, 8
  r8 = load r7 : i64
  ret r8
}
"#;
        let p = parse(src).expect("parse");
        // both trip ATKN under the strict analysis
        let strict = analyze_program(&p, &LegalityConfig::default());
        assert_eq!(strict.num_legal(), 0);
        // blanket relaxation accepts both
        let blanket = analyze_program(
            &p,
            &LegalityConfig {
                relax_cast_addr: true,
                ..Default::default()
            },
        );
        assert_eq!(blanket.num_legal(), 2);
        // the points-to-justified mode accepts only the safe one
        let justified = analyze_program(
            &p,
            &LegalityConfig {
                pointsto_relax: true,
                ..Default::default()
            },
        );
        let safe = p.types.record_by_name("safe").expect("safe");
        let uns = p.types.record_by_name("unsafe_t").expect("unsafe_t");
        assert!(
            justified.verdict(safe).legal(),
            "safe: {:?}",
            justified.verdict(safe).invalid
        );
        assert!(!justified.verdict(uns).legal());
    }

    #[test]
    fn multi_unit_merge() {
        let src = r#"
record node { a: i64 }
func f1() -> i64 {
bb0:
  r0 = alloc node, 10
  ret 0
}
func f2() -> i64 {
bb0:
  r0 = alloc node, 20
  r1 = cast r0 : ptr<node> -> i64
  ret r1
}
"#;
        let mut p = parse(src).expect("parse");
        p.add_unit("u2");
        let f2 = p.func_by_name("f2").expect("f2");
        p.func_mut(f2).unit = 1;
        let res = analyze_program(&p, &LegalityConfig::default());
        let node = p.types.record_by_name("node").expect("record");
        let v = res.verdict(node);
        assert!(v.invalid.contains(&LegalityTest::Cstf));
        assert_eq!(v.attrs.alloc_sites.len(), 2);
    }
}
