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
