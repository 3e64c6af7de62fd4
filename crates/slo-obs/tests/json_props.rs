//! Property and golden tests for the shared JSON module: printing a
//! value and parsing it back reproduces it exactly — integers over the
//! whole `u64` range, strings full of escape metacharacters and
//! field-tag look-alikes — and the committed `BENCH_vm.json` reprints
//! byte for byte.

use proptest::prelude::*;
use slo_obs::json::Json;
use std::path::Path;

/// The wire protocol's stress alphabet: escape metacharacters, JSON
/// structure, digits, whitespace and control characters, multi-byte
/// UTF-8.
const NASTY: &[char] = &[
    'a', 'z', '0', '9', '"', '\\', '{', '}', '[', ']', ',', ':', ' ', '\t', '\n', '\r', '\u{1}',
    '\u{1f}', '=', '#', 'é', 'ß', '日', '🦀',
];

/// Strings over [`NASTY`] with a field tag spliced in front or behind.
fn nasty_string() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(prop::sample::select(NASTY.to_vec()), 0..16),
        prop::sample::select(vec![
            "",
            "\"types\":999",
            ",\"status\":\"optimized\",",
            "\"v\":7,\"id\":\"fake\"",
            "\\\"replayed\\\":true",
            ",\"c\":\"0000\"}",
        ]),
        any::<bool>(),
    )
        .prop_map(|(chars, tag, front)| {
            let base: String = chars.into_iter().collect();
            if front {
                format!("{tag}{base}")
            } else {
                format!("{base}{tag}")
            }
        })
}

/// A float as the parser reads it back: whole numbers that fit in `u64`
/// come back as [`Json::U64`].
fn number(n: f64) -> Json {
    if n.fract() == 0.0 && (0.0..18_446_744_073_709_551_616.0).contains(&n) {
        Json::U64(n as u64)
    } else {
        Json::Num(n)
    }
}

fn value() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<u64>().prop_map(Json::U64),
        prop::num::f64::NORMAL.prop_map(number),
        nasty_string().prop_map(Json::Str),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            inner.clone(),
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Arr),
            prop::collection::vec((nasty_string(), inner), 0..5)
                .prop_map(|kv| Json::Obj(kv.into_iter().collect())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn printing_then_parsing_reproduces_the_value(v in value()) {
        let text = v.pretty();
        let back = Json::parse(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &v, "round-trip changed the value; text: {}", text);
    }
}

#[test]
fn committed_bench_trajectory_reprints_byte_for_byte() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_vm.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_vm.json at the workspace root");
    let doc = Json::parse(&text).expect("BENCH_vm.json parses");
    assert_eq!(doc.pretty(), text);
}
