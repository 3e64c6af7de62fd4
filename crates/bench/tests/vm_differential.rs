//! Differential test: the pre-decoded engine must be observationally
//! identical to the structured reference interpreter.
//!
//! "Observationally identical" is strict: same exit value, same retired
//! instruction count, same simulated cycles, same load/store and cache
//! counters, same heap accounting, and — under instrumented runs — the
//! same edge profile, PMU sample attribution, and stride histograms
//! (`Feedback` compares structurally). Any divergence is a bug in the
//! decoder, not an acceptable approximation.
//!
//! The default tests cover every program family (mcf, art, moldyn, all
//! nine census benchmarks, both §3.4 case studies, the kernel scenario,
//! and a transformed program) at reduced sizes so the whole file runs in
//! seconds. The `full_suite_*` tests execute the unmodified
//! `slo_workloads::all(Training)` suite — hundreds of millions of
//! simulated instructions per engine — and are `#[ignore]`d; run them
//! with `cargo test -p bench --test vm_differential -- --ignored`.

use slo_ir::Program;
use slo_vm::{run, ExecError, VmOptions};
use slo_workloads::{all, InputSet};

/// Run `prog` on both engines under `opts` and assert every observable
/// output matches.
fn check(name: &str, label: &str, prog: &Program, opts: &VmOptions) {
    let d = run(prog, opts).unwrap_or_else(|e| panic!("{name}/{label} decoded: {e}"));
    let s = run(prog, &opts.clone().structured())
        .unwrap_or_else(|e| panic!("{name}/{label} structured: {e}"));
    assert_eq!(d.exit, s.exit, "{name}/{label}: exit value diverged");
    assert_eq!(
        d.stats.instructions, s.stats.instructions,
        "{name}/{label}: instruction count diverged"
    );
    assert_eq!(
        d.stats.cycles, s.stats.cycles,
        "{name}/{label}: cycle count diverged"
    );
    assert_eq!(d.stats, s.stats, "{name}/{label}: stats diverged");
    assert_eq!(d.feedback, s.feedback, "{name}/{label}: feedback diverged");
}

/// Every workload family at sizes that keep one run in the millions of
/// instructions, not hundreds of millions.
fn small_suite() -> Vec<(&'static str, Program)> {
    let mut progs: Vec<(&'static str, Program)> = vec![
        (
            "mcf-small",
            slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
                n: 2_000,
                iters: 8,
                skew: 0,
            }),
        ),
        (
            "art-small",
            slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
                n: 20_000,
                passes: 3,
            }),
        ),
        (
            "moldyn-small",
            slo_workloads::moldyn::build_config(slo_workloads::moldyn::MoldynConfig {
                n: 500,
                steps: 4,
                neighbors: 8,
            }),
        ),
        (
            "spec2006-c",
            slo_workloads::casestudy::spec2006_c(2_000, 6, false),
        ),
        (
            "spec2006-cpp",
            slo_workloads::casestudy::spec2006_cpp(2_000, 6),
        ),
        ("kernel", slo_workloads::kernel::build(1_000, 4_000)),
    ];
    for spec in &slo_workloads::CENSUS_SPECS {
        progs.push((spec.name, slo_workloads::census::generate(spec, 2)));
    }
    progs
}

#[test]
fn engines_agree_plain() {
    for (name, prog) in small_suite() {
        check(name, "plain", &prog, &VmOptions::plain());
    }
}

#[test]
fn engines_agree_profiling() {
    for (name, prog) in small_suite() {
        check(name, "profiling", &prog, &VmOptions::profiling());
    }
}

#[test]
fn engines_agree_sampling_only() {
    for (name, prog) in small_suite() {
        check(name, "sampling", &prog, &VmOptions::sampling_only());
    }
}

#[test]
fn engines_agree_on_transformed_programs() {
    // The evaluation path runs pipeline output, so the decoder must also
    // agree on post-transformation programs (peeled/split layouts).
    use slo::analysis::WeightScheme;
    use slo::pipeline::{compile, PipelineConfig};
    let progs = [
        (
            "mcf-small",
            slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
                n: 2_000,
                iters: 8,
                skew: 0,
            }),
        ),
        (
            "art-small",
            slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
                n: 20_000,
                passes: 3,
            }),
        ),
    ];
    for (name, prog) in progs {
        let res =
            compile(&prog, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("pipeline");
        check(name, "transformed", &res.program, &VmOptions::profiling());
    }
}

#[test]
fn instrumented_stats_minus_instrument_cycles_equal_plain_stats() {
    // A PBO job's profile run doubles as its baseline evaluation; that
    // is exact only if edge instrumentation is the sole cost a profiling
    // run adds and every charged cycle is counted in `instrument_cycles`.
    for (name, prog) in small_suite() {
        for plain_opts in [VmOptions::plain(), VmOptions::plain().structured()] {
            let engine = plain_opts.engine;
            let prof_opts = VmOptions {
                collect_edges: true,
                sample_dcache: true,
                ..plain_opts.clone()
            };
            let plain =
                run(&prog, &plain_opts).unwrap_or_else(|e| panic!("{name}/{engine:?} plain: {e}"));
            let prof = run(&prog, &prof_opts)
                .unwrap_or_else(|e| panic!("{name}/{engine:?} profiling: {e}"));
            assert_eq!(prof.exit, plain.exit, "{name}/{engine:?}: exit diverged");
            assert_eq!(plain.stats.instrument_cycles, 0, "{name}/{engine:?}");
            assert!(prof.stats.instrument_cycles > 0, "{name}/{engine:?}");
            assert_eq!(
                prof.stats.without_instrumentation(),
                plain.stats,
                "{name}/{engine:?}: uninstrumented stats diverged from a plain run"
            );
        }
    }
}

#[test]
fn edge_instrumentation_leaves_samples_and_strides_unchanged() {
    // Table 2 reads DMISS.NO (sampling without instrumentation) off the
    // training profile run; that is exact only if edge counting never
    // moves a d-cache sample or a stride record.
    for (name, prog) in small_suite() {
        for sampling in [
            VmOptions::sampling_only(),
            VmOptions::sampling_only().structured(),
        ] {
            let engine = sampling.engine;
            let profiling = VmOptions {
                collect_edges: true,
                ..sampling.clone()
            };
            let s = run(&prog, &sampling)
                .unwrap_or_else(|e| panic!("{name}/{engine:?} sampling: {e}"))
                .feedback;
            let p = run(&prog, &profiling)
                .unwrap_or_else(|e| panic!("{name}/{engine:?} profiling: {e}"))
                .feedback;
            assert_eq!(s.sample_period, p.sample_period, "{name}/{engine:?}");
            let mut funcs: Vec<&String> = s.funcs.keys().chain(p.funcs.keys()).collect();
            funcs.sort();
            funcs.dedup();
            let mut sampled = 0;
            for f in funcs {
                let (sf, pf) = (s.func(f).cloned(), p.func(f).cloned());
                let (sf, pf) = (sf.unwrap_or_default(), pf.unwrap_or_default());
                assert_eq!(sf.samples, pf.samples, "{name}/{engine:?}/{f}: samples");
                assert_eq!(sf.strides, pf.strides, "{name}/{engine:?}/{f}: strides");
                sampled += sf.samples.len();
            }
            assert!(sampled > 0, "{name}/{engine:?}: nothing sampled");
        }
    }
}

#[test]
fn stride_table_cap_and_tie_break_match_reference() {
    // One load site (bb5, index 1) sees the element deltas 1..=39 once
    // each (only the first 32 fit the table), then +3 and +5 ten times
    // each: both end at 11 hits and the tie breaks toward the smaller.
    let prog = slo_ir::parser::parse(
        r#"
func main() -> i64 {
bb0:
  r0 = alloc i64, 1024
  r1 = 0
  r2 = 0
  r3 = 0
  jump bb1
bb1:
  r4 = cmp.lt r1, 60
  br r4, bb2, bb6
bb2:
  r5 = cmp.lt r1, 40
  br r5, bb3, bb4
bb3:
  r2 = add r2, r1
  jump bb5
bb4:
  r6 = and r1, 1
  r7 = mul r6, 2
  r8 = add r7, 3
  r2 = add r2, r8
  jump bb5
bb5:
  r9 = indexaddr r0, i64, r2
  r10 = load r9 : i64
  r3 = add r3, r10
  r1 = add r1, 1
  jump bb1
bb6:
  ret r3
}
"#,
    )
    .expect("parse");
    let opts = VmOptions::profiling();
    let d = run(&prog, &opts).expect("decoded");
    let s = run(&prog, &opts.clone().structured()).expect("structured");
    let strides = |o: &slo_vm::ExecOutcome| o.feedback.funcs["main"].strides.clone();
    assert_eq!(strides(&d), strides(&s), "stride profiles diverged");
    let load = strides(&d)[&(5, 1)];
    assert_eq!(
        (load.dominant, load.hits, load.samples),
        (3 * 8, 11, 32 + 20),
        "dominant stride, its hits, all counted deltas"
    );
}

#[test]
fn step_limit_identical_across_engines() {
    // Decoded instructions must count exactly like structured ones: a
    // limit one short of the full run fails on both engines, the exact
    // count succeeds on both.
    let prog = slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
        n: 2_000,
        iters: 8,
        skew: 0,
    });
    let total = run(&prog, &VmOptions::plain())
        .expect("full run")
        .stats
        .instructions;

    let mut tight = VmOptions::plain();
    tight.step_limit = total - 1;
    assert_eq!(
        run(&prog, &tight).map(|o| o.exit),
        Err(ExecError::StepLimit),
        "decoded engine must hit the limit"
    );
    assert_eq!(
        run(&prog, &tight.clone().structured()).map(|o| o.exit),
        Err(ExecError::StepLimit),
        "structured engine must hit the limit"
    );

    let mut exact = VmOptions::plain();
    exact.step_limit = total;
    let d = run(&prog, &exact).expect("decoded at exact limit");
    let s = run(&prog, &exact.structured()).expect("structured at exact limit");
    assert_eq!(d.stats.instructions, total);
    assert_eq!(s.stats.instructions, total);
}

#[test]
fn oversized_memory_is_refused_identically() {
    // A global or an allocation past the simulated memory, including a
    // `count * size` that overflows, is the same typed error on both
    // engines, located at the instruction for allocations.
    let main = "func main() -> i64 {\nbb0:\n";
    for (src, at) in [
        (
            format!("global G: [i64; 1000000000000]\n{main}  ret 0\n}}\n"),
            None,
        ),
        (
            format!("{main}  r0 = alloc i64, 1000000000000\n  ret 0\n}}\n"),
            Some((0, 0)),
        ),
        (
            format!("{main}  r0 = zalloc i64, 4611686018427387905\n  ret 0\n}}\n"),
            Some((0, 0)),
        ),
        (
            format!(
                "{main}  r0 = alloc i64, 2\n  r1 = realloc r0, i64, 1000000000000\n  ret 0\n}}\n"
            ),
            Some((0, 1)),
        ),
    ] {
        let prog = slo_ir::parser::parse(&src).expect("parses");
        assert!(slo_ir::verify::verify(&prog).is_empty(), "{src}");
        let opts = VmOptions::plain();
        let d = run(&prog, &opts).expect_err("decoded refuses");
        let s = run(&prog, &opts.clone().structured()).expect_err("structured refuses");
        assert_eq!(d, s, "{src}");
        let err = match (&d, at) {
            (ExecError::Mem(err), None) => err,
            (ExecError::MemAt { err, at: loc, .. }, Some(at)) if *loc == at => err,
            other => panic!("{src}: unexpected {other:?}"),
        };
        assert!(
            matches!(err, slo_vm::MemError::OutOfMemory { .. }),
            "{src}: {d}"
        );
    }
}

#[test]
fn one_register_takes_every_result_kind() {
    // `r5` receives an `Int`, a `Float` and a `Ptr` (then an `Int`
    // again) from `Bin` on alternating iterations: a result written in
    // place must replace the register's kind along with its bits.
    let n = 3_000i64;
    let src = format!(
        "func main() -> i64 {{\nbb0:\n  r0 = alloc i64, 8\n  r1 = 0\n  r2 = 0\n  jump bb1\n\
         bb1:\n  r3 = cmp.lt r1, {n}\n  br r3, bb2, bb8\n\
         bb2:\n  r4 = rem r1, 3\n  r7 = cmp.eq r4, 0\n  br r7, bb4, bb3\n\
         bb3:\n  r7 = cmp.eq r4, 1\n  br r7, bb5, bb6\n\
         bb4:\n  r5 = mul r1, 7\n  r2 = add r2, r5\n  jump bb7\n\
         bb5:\n  r8 = cast r1 : i64 -> f64\n  r5 = mul r8, 0.5\n  r5 = add r5, 1\n  \
         r6 = cast r5 : f64 -> i64\n  r2 = add r2, r6\n  jump bb7\n\
         bb6:\n  r8 = and r1, 7\n  r8 = mul r8, 8\n  r5 = add r0, r8\n  store r1, r5 : i64\n  \
         r6 = load r5 : i64\n  r5 = sub r5, r0\n  r2 = add r2, r6\n  r2 = add r2, r5\n  jump bb7\n\
         bb7:\n  r1 = add r1, 1\n  jump bb1\n\
         bb8:\n  ret r2\n}}\n"
    );
    let prog = slo_ir::parser::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    assert!(slo_ir::verify::verify(&prog).is_empty(), "{src}");
    let want: i64 = (0..n)
        .map(|i| match i % 3 {
            0 => i * 7,
            1 => (i as f64 * 0.5 + 1.0) as i64,
            _ => i + (i & 7) * 8,
        })
        .sum();
    for (label, opts) in [
        ("plain", VmOptions::plain()),
        ("profiling", VmOptions::profiling()),
    ] {
        check("kinds", label, &prog, &opts);
        let exit = run(&prog, &opts).expect("runs").exit;
        assert_eq!(exit, slo_vm::Value::Int(want), "{label}");
    }
}

#[test]
fn memory_faults_are_located_identically() {
    // Each fault names the function and `(block, index)` of the
    // faulting instruction on both engines, however the frame got there.
    let cases = [
        // an out-of-bounds load two frames below `main`
        (
            "func leaf(ptr<i64>) -> i64 {\nbb0:\n  r1 = indexaddr r0, i64, 1000000\n  \
             r2 = load r1 : i64\n  ret r2\n}\n\
             func mid(ptr<i64>) -> i64 {\nbb0:\n  r1 = call leaf(r0)\n  ret r1\n}\n\
             func main() -> i64 {\nbb0:\n  r0 = alloc i64, 4\n  jump bb1\nbb1:\n  \
             r1 = call mid(r0)\n  ret r1\n}\n",
            "leaf",
            (0, 1),
        ),
        // a store to null right after the callee returns
        (
            "func get() -> ptr<i64> {\nbb0:\n  r0 = alloc i64, 1\n  store 5, r0 : i64\n  \
             ret null\n}\n\
             func main() -> i64 {\nbb0:\n  r0 = call get()\n  store 1, r0 : i64\n  ret 0\n}\n",
            "main",
            (0, 1),
        ),
        // `free` of a pointer into the middle of an allocation
        (
            "func main() -> i64 {\nbb0:\n  r0 = alloc i64, 4\n  \
             r1 = indexaddr r0, i64, 1\n  free r1\n  ret 0\n}\n",
            "main",
            (0, 2),
        ),
        // a `memcpy` whose source runs past the end of the arena
        (
            "func main() -> i64 {\nbb0:\n  r0 = alloc i64, 4\n  jump bb1\nbb1:\n  \
             r1 = indexaddr r0, i64, 3\n  memcpy r0, r1, 1000000000\n  ret 0\n}\n",
            "main",
            (1, 1),
        ),
    ];
    for (src, func, at) in cases {
        let prog = slo_ir::parser::parse(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert!(slo_ir::verify::verify(&prog).is_empty(), "{src}");
        for opts in [VmOptions::plain(), VmOptions::profiling()] {
            let d = run(&prog, &opts).expect_err("decoded faults");
            let s = run(&prog, &opts.clone().structured()).expect_err("structured faults");
            assert_eq!(d, s, "{src}");
            match d {
                ExecError::MemAt {
                    func: f, at: loc, ..
                } => {
                    assert_eq!((f.as_str(), loc), (func, at), "{src}")
                }
                other => panic!("{src}: unexpected {other:?}"),
            }
        }
    }
}

#[test]
fn trace_counter_series_is_pinned() {
    // The decoded engine's sampled `vm.instructions`/`vm.cycles` series
    // on the training-size mcf, folded into one digest. The loop charges
    // the base cost once per run and shares one compare between the step
    // limit and the next sample; neither may move a sampled value.
    let prog = slo_workloads::mcf::build(InputSet::Training);
    let rec = slo_obs::Recorder::with_capacity(1 << 17);
    let opts = VmOptions::builder()
        .trace(rec.clone())
        .trace_step_interval(4096)
        .build();
    let out = run(&prog, &opts).expect("traced mcf");
    assert_eq!(rec.dropped(), 0, "recorder too small for the series");
    let mut h = slo_ir::Fnv64::new();
    let mut samples = 0u64;
    let mut last = (0.0, 0.0);
    for ev in rec.events() {
        if ev.kind != slo_obs::EventKind::Counter {
            continue;
        }
        let value = match ev.args.as_slice() {
            [("value", slo_obs::ArgValue::Float(v))] => *v,
            other => panic!("counter without a value: {other:?}"),
        };
        h.write_str(&ev.name);
        h.write_f64(value);
        samples += 1;
        match ev.name.as_str() {
            "vm.instructions" => last.0 = value,
            "vm.cycles" => last.1 = value,
            other => panic!("unexpected counter {other}"),
        }
    }
    assert_eq!(
        (out.stats.instructions, samples, last, h.digest()),
        (
            143_991_286,
            70_308,
            (143_990_784.0, 262_520_488.0),
            0xd35f_aca7_160b_1d39
        ),
        "instructions, counter samples, last (instructions, cycles), digest"
    );
}

// ---------------------------------------------------------------------
// Full-size suite (the exact programs the tables run). ~13 CPU-minutes;
// excluded from the default run, executed with `-- --ignored`.
// ---------------------------------------------------------------------

#[test]
#[ignore = "full Training-input suite, ~13 CPU-minutes; run with -- --ignored"]
fn full_suite_plain() {
    for w in all(InputSet::Training) {
        check(w.name, "plain", &w.program, &VmOptions::plain());
    }
}

#[test]
#[ignore = "full Training-input suite, ~13 CPU-minutes; run with -- --ignored"]
fn full_suite_profiling() {
    for w in all(InputSet::Training) {
        check(w.name, "profiling", &w.program, &VmOptions::profiling());
    }
}

#[test]
#[ignore = "full Training-input suite, ~13 CPU-minutes; run with -- --ignored"]
fn full_suite_sampling_only() {
    for w in all(InputSet::Training) {
        check(w.name, "sampling", &w.program, &VmOptions::sampling_only());
    }
}

// ---------------------------------------------------------------------
// Nightly promotions: the two headline workloads (181.mcf, 179.art) at
// full Training size, run on a schedule by `.github/workflows/
// nightly.yml`. Each writes a sampled Chrome trace of the decoded run
// to `target/nightly-traces/` *before* asserting, so a differential
// failure always leaves a trace artifact for the CI job to upload.
// ---------------------------------------------------------------------

/// Full differential sweep for one workload, with a trace artifact.
fn nightly_check(name: &str, prog: &Program) {
    // 1. traced decoded run → artifact on disk first.
    let rec = slo_obs::Recorder::with_capacity(1 << 14);
    let topts = slo_vm::VmOptions::builder()
        .trace(rec.clone())
        .trace_step_interval(1 << 20)
        .build();
    let mut span = rec.span("vm", name.to_string());
    let traced = run(prog, &topts).unwrap_or_else(|e| panic!("{name} traced: {e}"));
    span.arg("instructions", traced.stats.instructions);
    drop(span);

    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop(); // crates/
    dir.pop(); // repo root
    dir.push("target/nightly-traces");
    std::fs::create_dir_all(&dir).expect("create target/nightly-traces");
    let out = dir.join(format!("{name}.json"));
    std::fs::write(&out, rec.to_chrome_json()).expect("write nightly trace");
    eprintln!("nightly trace: {}", out.display());

    // 2. the full differential sweep, every instrumentation mode.
    check(name, "plain", prog, &VmOptions::plain());
    check(name, "profiling", prog, &VmOptions::profiling());
    check(name, "sampling", prog, &VmOptions::sampling_only());

    // 3. sampled tracing itself must not perturb the observables.
    let plain = run(prog, &VmOptions::plain()).unwrap_or_else(|e| panic!("{name} plain: {e}"));
    assert_eq!(traced.exit, plain.exit, "{name}: tracing changed the exit");
    assert_eq!(
        traced.stats.instructions, plain.stats.instructions,
        "{name}: tracing changed the instruction count"
    );
    assert_eq!(
        traced.stats.cycles, plain.stats.cycles,
        "{name}: tracing changed the cycle count"
    );
}

#[test]
#[ignore = "full Training-size 181.mcf, minutes of CPU; nightly CI runs it"]
fn nightly_full_mcf() {
    nightly_check("181.mcf", &slo_workloads::mcf::build(InputSet::Training));
}

#[test]
#[ignore = "full Training-size 179.art, minutes of CPU; nightly CI runs it"]
fn nightly_full_art() {
    nightly_check("179.art", &slo_workloads::art::build(InputSet::Training));
}
