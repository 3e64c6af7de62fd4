//! Cross-crate consistency checks on the execution substrate: cache
//! accounting invariants, determinism, instrumentation transparency, and
//! the machine-model knobs.

use proptest::prelude::*;
use slo_ir::parser::parse;
use slo_vm::{run, CacheConfig, CacheLevelConfig, CacheSim, ExecError, MemError, VmOptions};

const WORKLOAD: &str = r#"
record cell { a: i64, b: f64, c: i64, d: i64 }
func main() -> i64 {
bb0:
  r0 = alloc cell, 4096
  r1 = 0
  r2 = 0
  jump bb1
bb1:
  r3 = cmp.lt r1, 4096
  br r3, bb2, bb3
bb2:
  r4 = mul r1, 1103515245
  r5 = add r4, 12345
  r6 = and r5, 2147483647
  r7 = rem r6, 4096
  r8 = indexaddr r0, cell, r7
  r9 = fieldaddr r8, cell.a
  store r1, r9 : i64
  r10 = load r9 : i64
  r11 = fieldaddr r8, cell.b
  store 1.5, r11 : f64
  r12 = load r11 : f64
  r2 = add r2, r10
  r1 = add r1, 1
  jump bb1
bb3:
  ret r2
}
"#;

#[test]
fn cache_accounting_is_consistent() {
    let p = parse(WORKLOAD).expect("parse");
    let out = run(&p, &VmOptions::default()).expect("run");
    let c = &out.stats.cache;
    // L1 accounting: hits + misses = integer accesses (FP skips L1)
    for lvl in &c.levels {
        assert!(lvl.hits + lvl.misses > 0);
    }
    let l1_total = c.levels[0].hits + c.levels[0].misses;
    let l2_total = c.levels[1].hits + c.levels[1].misses;
    // L2 sees L1 misses plus FP first-level accesses
    assert_eq!(l2_total, c.levels[0].misses + (c.accesses - l1_total));
    // memory accesses = last-level misses
    assert_eq!(c.memory_accesses, c.levels[2].misses);
    // every memory op issued exactly one cache access
    assert_eq!(c.accesses, out.stats.loads + out.stats.stores);
}

#[test]
fn execution_is_deterministic() {
    let p = parse(WORKLOAD).expect("parse");
    let a = run(&p, &VmOptions::default()).expect("run a");
    let b = run(&p, &VmOptions::default()).expect("run b");
    assert_eq!(a.exit, b.exit);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn instrumentation_does_not_change_results_or_sampling_much() {
    // the paper's DMISS.NO observation: sampled d-cache behaviour is
    // nearly identical with and without edge instrumentation
    let p = parse(WORKLOAD).expect("parse");
    let mut with = VmOptions::profiling();
    with.sample_period = 1;
    let mut without = VmOptions::sampling_only();
    without.sample_period = 1;
    let a = run(&p, &with).expect("instrumented");
    let b = run(&p, &without).expect("plain");
    assert_eq!(a.exit, b.exit);
    // instrumentation costs cycles...
    assert!(a.stats.cycles > b.stats.cycles);
    // ...but the d-cache picture is identical (deterministic machine)
    assert_eq!(a.stats.cache, b.stats.cache);
    let ma: u64 = a
        .feedback
        .funcs
        .values()
        .flat_map(|f| f.samples.values())
        .map(|s| s.misses)
        .sum();
    let mb: u64 = b
        .feedback
        .funcs
        .values()
        .flat_map(|f| f.samples.values())
        .map(|s| s.misses)
        .sum();
    assert_eq!(ma, mb);
}

#[test]
fn smaller_cache_means_more_misses() {
    let p = parse(WORKLOAD).expect("parse");
    let big = run(&p, &VmOptions::default()).expect("big");
    let tiny_cfg = CacheConfig {
        levels: vec![
            CacheLevelConfig {
                size: 1024,
                line: 64,
                assoc: 2,
                latency: 1,
            },
            CacheLevelConfig {
                size: 8 * 1024,
                line: 128,
                assoc: 4,
                latency: 7,
            },
            CacheLevelConfig {
                size: 64 * 1024,
                line: 128,
                assoc: 8,
                latency: 14,
            },
        ],
        memory_latency: 200,
        fp_first_level: 1,
        next_line_prefetch: false,
    };
    let small = run(
        &p,
        &VmOptions {
            cache: tiny_cfg,
            ..VmOptions::default()
        },
    )
    .expect("small");
    assert_eq!(big.exit, small.exit);
    assert!(small.stats.cycles > big.stats.cycles);
    assert!(small.stats.cache.memory_accesses > big.stats.cache.memory_accesses);
}

#[test]
fn pointer_near_address_space_end_is_out_of_bounds_on_both_engines() {
    // verifier-valid: the cast pointer is `u64::MAX - 3`, so an
    // unchecked `addr + size` would wrap past the heap bounds test
    let p = parse(
        "func main() -> i64 {\nbb0:\n  r2 = alloc i64, 64\n  r0 = cast -4 : i64 -> ptr<i64>\n  r1 = load r0 : i64\n  ret r1\n}",
    )
    .expect("parse");
    assert!(slo_ir::verify::verify(&p).is_empty(), "program must verify");
    for opts in [VmOptions::default(), VmOptions::default().structured()] {
        let err = run(&p, &opts).map(|o| o.exit).expect_err("load must fault");
        assert!(
            matches!(
                err,
                ExecError::MemAt {
                    err: MemError::OutOfBounds { .. },
                    ..
                }
            ),
            "{:?}: {err:?}",
            opts.engine
        );
    }
}

#[test]
fn null_record_field_past_256_bytes_is_out_of_bounds_on_both_engines() {
    // `big.f39` lies at offset 312: below the first global or allocation
    // (0x1000), so reaching it through a null record pointer must fault
    // even once the arena exists
    let fields: Vec<String> = (0..40).map(|i| format!("f{i}: i64")).collect();
    for access in ["r2 = load r1 : i64", "store 7, r1 : i64"] {
        let src = format!(
            "record big {{ {} }}\nfunc main() -> i64 {{\nbb0:\n  r9 = alloc big, 1\n  \
             r0 = cast null : i64 -> ptr<big>\n  r1 = fieldaddr r0, big.f39\n  {access}\n  \
             ret 0\n}}",
            fields.join(", ")
        );
        let p = parse(&src).expect("parse");
        assert!(slo_ir::verify::verify(&p).is_empty(), "program must verify");
        for opts in [VmOptions::default(), VmOptions::default().structured()] {
            let err = run(&p, &opts)
                .map(|o| o.exit)
                .expect_err("access must fault");
            assert!(
                matches!(
                    &err,
                    ExecError::MemAt {
                        err: MemError::OutOfBounds { addr: 312, .. },
                        func,
                        at: (0, 3),
                    } if func == "main"
                ),
                "{access} on {:?}: {err:?}",
                opts.engine
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache simulator invariant: for any access sequence, per-level
    /// hits+misses are consistent and replaying the same sequence after a
    /// flush gives identical stats deltas.
    #[test]
    fn cache_sim_replay_is_deterministic(
        addrs in prop::collection::vec(0u64..(1 << 20), 1..200),
        fp_bits in prop::collection::vec(any::<bool>(), 200),
    ) {
        let mut a = CacheSim::new(CacheConfig::default());
        let mut b = CacheSim::new(CacheConfig::default());
        for (i, &addr) in addrs.iter().enumerate() {
            let fp = fp_bits[i % fp_bits.len()];
            let ra = a.access(addr, fp);
            let rb = b.access(addr, fp);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.stats().accesses, addrs.len() as u64);
    }

    /// A repeated address always hits after the first access (no
    /// spurious invalidation), for any single address.
    #[test]
    fn second_access_hits(addr in 64u64..(1 << 30)) {
        let mut c = CacheSim::new(CacheConfig::default());
        let _ = c.access(addr, false);
        let r = c.access(addr, false);
        prop_assert_eq!(r.served_by, 0);
        prop_assert!(!r.first_level_miss);
    }
}
