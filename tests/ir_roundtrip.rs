//! Property-based round-trip and layout-invariant tests for the IR
//! substrate: print∘parse is the identity on printed programs, and
//! record layouts satisfy the C-layout invariants for arbitrary field
//! lists.

use proptest::prelude::*;
use slo_ir::parser::parse;
use slo_ir::printer::print_program;
use slo_ir::{Field, ProgramBuilder, RecordType, ScalarKind, TypeTable};

fn scalar_strategy() -> impl Strategy<Value = ScalarKind> {
    prop::sample::select(vec![
        ScalarKind::I8,
        ScalarKind::I16,
        ScalarKind::I32,
        ScalarKind::I64,
        ScalarKind::U8,
        ScalarKind::U16,
        ScalarKind::U32,
        ScalarKind::U64,
        ScalarKind::F32,
        ScalarKind::F64,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn layout_invariants(kinds in prop::collection::vec(scalar_strategy(), 0..12)) {
        let mut t = TypeTable::new();
        let fields: Vec<Field> = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| Field::new(format!("f{i}"), t.scalar(*k)))
            .collect();
        let (rid, _) = t.add_record(RecordType { name: "r".into(), fields: fields.clone() });
        let layout = t.layout_of(rid);

        // every field aligned to its natural alignment
        for (i, k) in kinds.iter().enumerate() {
            prop_assert_eq!(layout.offsets[i] % k.align(), 0, "field {} misaligned", i);
        }
        // fields do not overlap and are in declaration order
        for i in 1..kinds.len() {
            prop_assert!(layout.offsets[i] >= layout.offsets[i - 1] + kinds[i - 1].size());
        }
        // size covers the last field and is aligned
        if let (Some(last_off), Some(last)) = (layout.offsets.last(), kinds.last()) {
            prop_assert!(layout.size >= last_off + last.size());
        }
        prop_assert_eq!(layout.size % layout.align, 0);
        // alignment is the max field alignment (or 1)
        let want_align = kinds.iter().map(|k| k.align()).max().unwrap_or(1);
        prop_assert_eq!(layout.align, want_align);
    }

    #[test]
    fn print_parse_roundtrip(
        nfields in 1usize..6,
        kinds in prop::collection::vec(scalar_strategy(), 6),
        consts in prop::collection::vec(-1000i64..1000, 1..8),
        count in 1i64..64,
    ) {
        // build a program exercising records, globals, calls and loops
        let mut pb = ProgramBuilder::new();
        let i64t = pb.scalar(ScalarKind::I64);
        let fields: Vec<Field> = (0..nfields)
            .map(|i| Field::new(format!("f{i}"), pb.scalar(kinds[i])))
            .collect();
        let (rid, rty) = pb.record("rec", fields);
        let prty = pb.ptr(rty);
        pb.global("G", prty);
        let helper = pb.declare("helper", vec![i64t], i64t);
        pb.define(helper, |fb| {
            let p = fb.param(0);
            let v = fb.add(p.into(), slo_ir::Operand::int(1));
            fb.ret(Some(v.into()));
        });
        let main = pb.declare("main", vec![], i64t);
        pb.define(main, |fb| {
            let arr = fb.alloc(rty, slo_ir::Operand::int(count));
            let g = fb.types().scalar(ScalarKind::I64);
            let _ = g;
            let sum = fb.fresh();
            fb.assign(sum, slo_ir::Operand::int(0));
            fb.count_loop(slo_ir::Operand::int(count), |fb, i| {
                let e = fb.index_addr(arr, rty, i.into());
                fb.store_field(e.into(), rid, 0, i.into());
                let v = fb.load_field(e.into(), rid, 0);
                let c = fb.call(helper, vec![v.into()]);
                let ns = fb.add(sum.into(), c.into());
                fb.assign(sum, ns.into());
            });
            for &k in &consts {
                let x = fb.iconst(k);
                let ns = fb.add(sum.into(), x.into());
                fb.assign(sum, ns.into());
            }
            fb.ret(Some(sum.into()));
        });
        let p = pb.finish();
        slo_ir::verify::assert_valid(&p);

        let text1 = print_program(&p);
        let reparsed = parse(&text1).expect("printed program parses");
        slo_ir::verify::assert_valid(&reparsed);
        let text2 = print_program(&reparsed);
        prop_assert_eq!(&text1, &text2, "print/parse must be stable");

        // and both versions compute the same result
        let r1 = slo_vm::run(&p, &slo_vm::VmOptions::default()).expect("orig runs");
        let r2 = slo_vm::run(&reparsed, &slo_vm::VmOptions::default()).expect("reparse runs");
        prop_assert_eq!(r1.exit, r2.exit);
    }

    #[test]
    fn float_const_roundtrip(v in prop::num::f64::NORMAL) {
        // float literals survive print/parse exactly
        let src = format!("func main() -> f64 {{\nbb0:\n  r0 = {v:?}\n  ret r0\n}}\n");
        if let Ok(p) = parse(&src) {
            let out = slo_vm::run(&p, &slo_vm::VmOptions::default()).expect("runs");
            prop_assert_eq!(out.exit, slo_vm::Value::Float(v));
        }
    }
}

/// The printed text of every Table 1 census program at work scales 1–2
/// is pinned by one digest, and each text is a parse/print fixpoint.
/// Printed text is what analysis keys hash, so a printer change that
/// moves a byte here would orphan every persistent store.
#[test]
fn census_print_bytes_are_pinned() {
    use slo_workloads::{census, CENSUS_SPECS};
    let mut h = slo_ir::Fnv64::new();
    for spec in &CENSUS_SPECS {
        for scale in 1..=2 {
            let text = print_program(&census::generate(spec, scale));
            let reparsed = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(
                print_program(&reparsed),
                text,
                "{} scale {scale}",
                spec.name
            );
            h.write_str(&text);
        }
    }
    assert_eq!(h.digest(), 0x7e21_f549_5f70_6576, "{:#018x}", h.digest());
}
