//! Integration tests for the batch service: cache correctness (hits are
//! counter-asserted, perturbations miss, cached output is bit-identical
//! to uncached), parallel-vs-sequential determinism, and the graceful
//! degradation ladder.

use slo_service::{
    Budget, Degradation, Fault, Job, JobOutcome, JobStatus, SchemeSpec, Service, ServiceConfig,
};

/// A program the pipeline actually transforms (hot field + cold tail,
/// array-indexed in a loop), in canonical printer form.
const SAMPLE: &str = r#"
record pair { hot: i64, c1: i64, c2: i64 }
func main() -> i64 {
bb0:
  r0 = alloc pair, 64
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 64
  br r2, bb2, bb3
bb2:
  r3 = indexaddr r0, pair, r1
  r4 = fieldaddr r3, pair.hot
  store r1, r4 : i64
  r5 = load r4 : i64
  r1 = add r1, 1
  jump bb1
bb3:
  r6 = fieldaddr r0, pair.c1
  store 1, r6 : i64
  r7 = load r6 : i64
  r8 = fieldaddr r0, pair.c2
  store 2, r8 : i64
  r9 = load r8 : i64
  r10 = add r7, r9
  ret r10
}
"#;

fn service(workers: usize, cache: usize) -> Service {
    Service::new(
        ServiceConfig::builder()
            .workers(workers)
            .cache_capacity(cache)
            .build(),
    )
}

/// Everything observable about an outcome except wall-clock timings.
fn digest(o: &JobOutcome) -> String {
    match &o.status {
        JobStatus::Optimized(opt) => format!(
            "{} optimized {} {} {} {:016x}\n{}",
            o.id,
            opt.num_transformed,
            opt.eval.baseline_cycles,
            opt.eval.optimized_cycles,
            opt.ipa_fingerprint,
            opt.transformed
        ),
        JobStatus::Advisory { reason, report } => format!(
            "{} advisory {} {}",
            o.id,
            reason.kind(),
            report.as_deref().unwrap_or("-")
        ),
        JobStatus::Failed(msg) => format!("{} failed {msg}", o.id),
    }
}

fn expect_optimized(o: &JobOutcome) -> &slo_service::Optimized {
    match &o.status {
        JobStatus::Optimized(opt) => opt,
        other => panic!("{}: expected optimized, got {}", o.id, other.kind()),
    }
}

/// Eight copies of one job analyze once at any worker count: a copy
/// that asks while another computes waits and counts as a hit, just as
/// it would after the first copy finished.
#[test]
fn identical_jobs_hit_the_cache_counters_say_so() {
    for workers in [1, 4] {
        let rec = slo_obs::Recorder::enabled();
        let svc = Service::with_trace(
            ServiceConfig::builder()
                .workers(workers)
                .cache_capacity(64)
                .build(),
            rec.clone(),
        );
        let jobs: Vec<Job> = (0..8)
            .map(|i| Job::from_source(format!("j{i}"), SAMPLE))
            .collect();
        let outcomes = svc.run_batch(&jobs);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.status, JobStatus::Optimized(_))));

        let m = svc.metrics();
        assert_eq!(m.cache_misses, 1, "workers {workers}: first job analyzes");
        assert_eq!(
            m.cache_hits, 7,
            "workers {workers}: the other seven reuse it"
        );
        // the hit/miss observation is also per-outcome, and the miss
        // is the first job's, as with one worker
        assert_eq!(outcomes.iter().filter(|o| o.metrics.cache_hit).count(), 7);
        assert!(!outcomes[0].metrics.cache_hit, "workers {workers}");
        let analyses = rec.events().iter().filter(|e| e.name == "legality").count();
        assert_eq!(analyses, 1, "workers {workers}: one analysis");
    }
}

#[test]
fn second_identical_batch_is_fully_cached() {
    let svc = service(2, 64);
    let jobs: Vec<Job> = (0..16)
        .map(|i| {
            Job::from_source(format!("j{i}"), SAMPLE).scheme(if i % 2 == 0 {
                SchemeSpec::Ispbo
            } else {
                SchemeSpec::Spbo
            })
        })
        .collect();
    svc.run_batch(&jobs);
    let before = svc.metrics();
    svc.run_batch(&jobs);
    let delta = svc.metrics().since(&before);
    assert_eq!(delta.cache_misses, 0, "rerun must not re-analyze");
    assert_eq!(delta.cache_hits, 16);
    assert!(delta.cache_hit_rate() >= 0.9, "acceptance floor is 90%");
}

#[test]
fn whitespace_perturbation_still_hits_semantic_perturbation_misses() {
    let svc = service(1, 64);
    svc.run_batch(&[Job::from_source("base", SAMPLE)]);

    // same program modulo formatting: the key is over *normalized* IR
    let reformatted = SAMPLE.replace("  r1 = 0", "  r1  =   0");
    svc.run_batch(&[Job::from_source("ws", reformatted)]);
    assert_eq!(svc.metrics().cache_hits, 1, "formatting must not miss");

    // a changed constant is a different program
    let changed = SAMPLE.replace("store 2, r8 : i64", "store 3, r8 : i64");
    svc.run_batch(&[Job::from_source("const", changed)]);
    // a different scheme weights the same IR differently
    svc.run_batch(&[Job::from_source("scheme", SAMPLE).scheme(SchemeSpec::IspboW)]);
    // a different legality config can change verdicts
    let relaxed = slo::PipelineConfig::builder().relax_cast_addr(true).build();
    svc.run_batch(&[Job::from_source("cfg", SAMPLE).config(relaxed)]);

    let m = svc.metrics();
    assert_eq!(
        m.cache_misses, 4,
        "base + const + scheme + config each analyze once"
    );
    assert_eq!(m.cache_hits, 1, "only the whitespace variant hits");
}

#[test]
fn cached_and_uncached_outputs_are_bit_identical() {
    let uncached = service(1, 0); // capacity 0 disables the cache
    let cold = uncached.run_batch(&[Job::from_source("x", SAMPLE)]);
    assert_eq!(uncached.metrics().cache_hits, 0);

    let cached = service(1, 64);
    let first = cached.run_batch(&[Job::from_source("x", SAMPLE)]);
    let second = cached.run_batch(&[Job::from_source("x", SAMPLE)]);
    assert!(second[0].metrics.cache_hit);

    let (a, b, c) = (
        expect_optimized(&cold[0]),
        expect_optimized(&first[0]),
        expect_optimized(&second[0]),
    );
    assert_eq!(a.transformed, b.transformed);
    assert_eq!(b.transformed, c.transformed);
    assert_eq!(a.ipa_fingerprint, c.ipa_fingerprint);
    assert_eq!(a.eval.baseline_cycles, c.eval.baseline_cycles);
    assert_eq!(a.eval.optimized_cycles, c.eval.optimized_cycles);
}

#[test]
fn eight_worker_batch_matches_sequential_run() {
    // distinct programs of several shapes, repeated with distinct schemes
    let mut jobs = Vec::new();
    for (i, n) in [16i64, 32, 48, 64].iter().enumerate() {
        let prog = slo_workloads::kernel::build(*n, 200);
        for (j, scheme) in [SchemeSpec::Ispbo, SchemeSpec::Spbo, SchemeSpec::IspboNo]
            .iter()
            .enumerate()
        {
            jobs.push(Job::from_program(format!("k{i}s{j}"), prog.clone()).scheme(scheme.clone()));
        }
    }
    jobs.push(Job::from_source("sample", SAMPLE));

    let sequential = service(1, 0).run_batch(&jobs);
    let parallel = service(8, 64).run_batch(&jobs);
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(digest(s), digest(p), "job {} diverged", s.id);
    }
}

#[test]
fn panicking_job_degrades_without_failing_the_batch() {
    let svc = service(4, 64);
    let jobs = vec![
        Job::from_source("ok1", SAMPLE),
        Job::from_source("boom-early", SAMPLE).fault(Fault::PanicBeforeAnalysis),
        Job::from_source("boom-late", SAMPLE).fault(Fault::PanicInBe),
        Job::from_source("ok2", SAMPLE),
    ];
    let outcomes = svc.run_batch(&jobs);
    assert_eq!(outcomes.len(), 4, "the batch survives");

    let by_id = |id: &str| outcomes.iter().find(|o| o.id == id).expect("outcome");
    assert!(matches!(by_id("ok1").status, JobStatus::Optimized(_)));
    assert!(matches!(by_id("ok2").status, JobStatus::Optimized(_)));

    // before analysis: nothing to advise on, but still only advisory
    match &by_id("boom-early").status {
        JobStatus::Advisory {
            reason: Degradation::Panic(msg),
            report,
        } => {
            assert!(msg.contains("injected"), "payload preserved: {msg}");
            assert!(report.is_none(), "no analysis happened yet");
        }
        other => panic!("expected panic advisory, got {}", other.kind()),
    }
    // after analysis: the §3 report is the fallback deliverable
    match &by_id("boom-late").status {
        JobStatus::Advisory {
            reason: Degradation::Panic(_),
            report,
        } => {
            let report = report.as_deref().expect("advisory report");
            assert!(report.contains("pair"), "report covers the input types");
        }
        other => panic!("expected panic advisory, got {}", other.kind()),
    }
    // Panics are transient: the supervisor retried each panicking job
    // to quarantine (default policy = 3 attempts), so the raw panic
    // counter sees every attempt while the outcome ladder sees one
    // advisory per job.
    assert_eq!(svc.metrics().panics, 6);
    assert_eq!(svc.metrics().degraded, 2);
    assert_eq!(svc.metrics().retries, 4);
    assert_eq!(svc.metrics().quarantined, 2);
    for id in ["boom-early", "boom-late"] {
        assert_eq!(by_id(id).attempts, 3);
        assert!(by_id(id).quarantined);
    }
    for id in ["ok1", "ok2"] {
        assert_eq!(by_id(id).attempts, 1);
        assert!(!by_id(id).quarantined);
    }
}

#[test]
fn over_budget_job_degrades_to_advisory() {
    let svc = service(1, 64);
    let outcomes = svc.run_batch(&[
        Job::from_source("tight-steps", SAMPLE).budget(Budget::steps(10)),
        Job::from_source("roomy", SAMPLE),
    ]);
    match &outcomes[0].status {
        JobStatus::Advisory {
            reason: Degradation::Budget(_),
            ..
        } => {}
        other => panic!("expected budget advisory, got {}", other.kind()),
    }
    assert!(matches!(outcomes[1].status, JobStatus::Optimized(_)));
}

#[test]
fn zero_wall_budget_still_returns_structured_outcome() {
    let svc = service(1, 64);
    let outcomes = svc.run_batch(&[Job::from_source("nowall", SAMPLE).budget(Budget::wall_ms(0))]);
    match &outcomes[0].status {
        JobStatus::Advisory {
            reason: Degradation::Budget(_),
            ..
        } => {}
        other => panic!("expected budget advisory, got {}", other.kind()),
    }
}

#[test]
fn unparseable_input_fails_fast() {
    let svc = service(1, 64);
    let outcomes = svc.run_batch(&[
        Job::from_source("garbage", "record { nope"),
        Job::from_source("fine", SAMPLE),
    ]);
    assert!(matches!(outcomes[0].status, JobStatus::Failed(_)));
    assert!(matches!(outcomes[1].status, JobStatus::Optimized(_)));
    let m = svc.metrics();
    assert_eq!(m.failed, 1);
    assert_eq!(m.optimized, 1);
}

#[test]
fn invalid_types_and_oversized_memory_fail_typed_and_the_next_job_runs() {
    // Neither a record with no finite layout nor a global larger than
    // the simulated memory may take the worker (or the batch) down.
    let main = "func main() -> i64 {\nbb0:\n  ret 0\n}\n";
    let svc = service(1, 64);
    let outcomes = svc.run_batch(&[
        Job::from_source("cycle", format!("record p {{ x: p }}\n{main}")),
        Job::from_source("fine", SAMPLE),
        Job::from_source("huge", format!("global G: [i64; 1000000000000]\n{main}"))
            .scheme(SchemeSpec::Pbo),
        Job::from_source("fine-again", SAMPLE),
    ]);
    match &outcomes[0].status {
        JobStatus::Failed(m) => assert!(
            m.contains("invalid IR") && m.contains("record `p` contains itself"),
            "{m}"
        ),
        other => panic!("cycle: expected failed, got {}", other.kind()),
    }
    match &outcomes[2].status {
        JobStatus::Failed(m) => assert!(m.contains("simulated memory"), "{m}"),
        other => panic!("huge: expected failed, got {}", other.kind()),
    }
    assert!(matches!(outcomes[1].status, JobStatus::Optimized(_)));
    assert!(matches!(outcomes[3].status, JobStatus::Optimized(_)));
    assert_eq!(svc.metrics().failed, 2);
}

#[test]
fn lru_cache_evicts_under_pressure() {
    let svc = service(1, 2);
    let progs: Vec<Job> = [16i64, 32, 48]
        .iter()
        .map(|n| Job::from_program(format!("k{n}"), slo_workloads::kernel::build(*n, 100)))
        .collect();
    svc.run_batch(&progs); // three distinct keys through a 2-entry cache
    let m = svc.metrics();
    assert_eq!(m.cache_misses, 3);
    assert!(m.cache_evictions >= 1, "capacity 2 cannot hold 3 entries");

    // the least recently used entry (k16) is gone; k48 is resident
    let before = svc.metrics();
    svc.run_batch(&[Job::from_program(
        "k48-again",
        slo_workloads::kernel::build(48, 100),
    )]);
    let delta = svc.metrics().since(&before);
    assert_eq!(delta.cache_hits, 1, "most recent entry is resident");
}

#[test]
fn metrics_snapshot_exports_json() {
    let svc = service(1, 64);
    svc.run_batch(&[Job::from_source("a", SAMPLE)]);
    let json = svc.metrics().to_json();
    for key in [
        "\"jobs\"",
        "\"optimized\"",
        "\"degraded\"",
        "\"cache_hits\"",
        "\"cache_hit_rate\"",
        "\"queue_wait_ns\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

/// LRU churn under 2 workers: distinct programs cycling through a
/// 2-entry cache from two threads at once. The eviction counter must
/// stay consistent with the hit/miss ledger — every lookup is exactly
/// one hit or one miss, and evictions never exceed insertions.
#[test]
fn eviction_counters_stay_consistent_under_two_worker_churn() {
    let svc = service(2, 2);
    // 6 distinct programs × 4 submissions each, interleaved so the
    // 2-entry LRU churns constantly.
    let jobs: Vec<Job> = (0..24)
        .map(|i| {
            let n = 16 + 16 * (i % 6) as i64;
            Job::from_program(format!("churn{i}"), slo_workloads::kernel::build(n, 100))
        })
        .collect();
    let outcomes = svc.run_batch(&jobs);
    assert!(outcomes
        .iter()
        .all(|o| matches!(o.status, JobStatus::Optimized(_))));

    let m = svc.metrics();
    assert_eq!(
        m.cache_hits + m.cache_misses,
        24,
        "every job is exactly one hit or one miss"
    );
    assert!(
        m.cache_misses >= 6,
        "6 distinct programs cannot all be cache-resident on first sight"
    );
    assert!(
        m.cache_evictions >= m.cache_misses.saturating_sub(2),
        "a 2-entry cache evicts on (almost) every insertion"
    );
    assert!(
        m.cache_evictions <= m.cache_misses,
        "cannot evict more entries than were ever inserted"
    );
}

/// `repeat=` in the serve/manifest wire format expands to N identical
/// jobs; all copies (and a later re-submission of the same line) must
/// produce the same IPA fingerprint, with only the first copy missing
/// the cache.
#[test]
fn repeat_jobs_rerun_with_identical_fingerprints() {
    let dir = std::env::temp_dir().join(format!("slo-repeat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("sample.sir"), SAMPLE).expect("write sample");

    let jobs = slo_service::parse_job_line(&dir, "sample.sir scheme=ispbo repeat=4")
        .expect("parse job line");
    assert_eq!(jobs.len(), 4, "repeat=4 expands to four jobs");

    // Four workers: a copy that asks while another analyzes waits for
    // that analysis instead of running its own.
    let svc = service(4, 64);
    let first = svc.run_batch(&jobs);
    let fps: Vec<u64> = first
        .iter()
        .map(|o| expect_optimized(o).ipa_fingerprint)
        .collect();
    assert!(
        fps.windows(2).all(|w| w[0] == w[1]),
        "copies of one job must share a fingerprint: {fps:x?}"
    );
    let m = svc.metrics();
    assert_eq!(m.cache_misses, 1, "only the first copy analyzes");
    assert_eq!(m.cache_hits, 3);

    // Re-submitting the same line later reproduces the fingerprint.
    let again = svc.run_batch(&jobs);
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(
            expect_optimized(a).ipa_fingerprint,
            expect_optimized(b).ipa_fingerprint,
            "rerun changed the fingerprint"
        );
        assert_eq!(digest(a), digest(b), "rerun changed the outcome");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// --- chaos & supervision -------------------------------------------------

use slo_service::{ChaosConfig, Clock, FaultPlan, RetryPolicy, Site};

fn chaos_service(workers: usize, plan: FaultPlan, retry: RetryPolicy, clock: Clock) -> Service {
    Service::with_chaos(
        ServiceConfig::builder()
            .workers(workers)
            .cache_capacity(64)
            .build(),
        slo_obs::Recorder::disabled(),
        plan,
        retry,
        clock,
    )
}

/// Regression pin for the step-budget boundary: the SAMPLE baseline and
/// its ISPBO-transformed form both execute exactly 525 instructions, so
/// a budget of exactly 525 must complete — a limit of N admits N
/// instructions, not N-1.
#[test]
fn job_landing_exactly_on_the_step_limit_completes() {
    // Establish the exact count with an unlimited budget.
    let svc = service(1, 0);
    let [free] = &svc.run_batch(&[Job::from_source("free", SAMPLE)])[..] else {
        panic!("one outcome");
    };
    let opt = expect_optimized(free);
    assert_eq!(
        opt.eval.baseline_instructions,
        opt.eval.optimized_instructions
    );
    let exact = opt.eval.baseline_instructions;

    let svc = service(1, 0);
    let outcomes = svc.run_batch(&[
        Job::from_source("exact", SAMPLE).budget(Budget::steps(exact)),
        Job::from_source("one-short", SAMPLE).budget(Budget::steps(exact - 1)),
    ]);
    expect_optimized(&outcomes[0]);
    assert_eq!(outcomes[0].attempts, 1, "no retries on a clean run");
    match &outcomes[1].status {
        JobStatus::Advisory {
            reason: Degradation::Budget(_),
            ..
        } => {}
        other => panic!(
            "expected budget advisory one step short, got {}",
            other.kind()
        ),
    }
}

/// A job whose every attempt dies on an injected fault is retried
/// exactly `max_attempts` times on the virtual clock (no real sleeping)
/// and then quarantined — still as an advisory, never a failure.
#[test]
fn quarantine_after_exactly_max_attempts_transient_failures() {
    let always_alloc = FaultPlan::with_config(7, ChaosConfig::never().rate(Site::VmAlloc, 1024));
    let clock = Clock::virtual_clock();
    let policy = RetryPolicy {
        max_attempts: 4,
        base_delay_ms: 10,
        max_delay_ms: 1000,
    };
    let svc = chaos_service(1, always_alloc, policy, clock.clone());
    let [o] = &svc.run_batch(&[Job::from_source("doomed", SAMPLE)])[..] else {
        panic!("one outcome");
    };
    match &o.status {
        JobStatus::Advisory {
            reason: Degradation::Fault(msg),
            ..
        } => assert!(msg.contains("heap allocation refused"), "{msg}"),
        other => panic!("expected fault advisory, got {}", other.kind()),
    }
    assert_eq!(o.attempts, 4, "one initial attempt + three retries");
    assert!(o.quarantined);
    let m = svc.metrics();
    assert_eq!(m.retries, 3);
    assert_eq!(m.quarantined, 1);
    assert_eq!(m.degraded_fault, 1, "ladder sees one advisory, not four");
    assert!(m.faults_injected_total() >= 4, "every attempt hit the site");
    assert!(
        clock.now_ms() >= 30,
        "backoff slept on the virtual clock: {}ms",
        clock.now_ms()
    );
}

/// The ladder invariant under a seeded campaign: faults only ever move
/// outcomes *down* (Optimized -> Advisory), never to Failed, and an
/// outcome that stays Optimized is bit-identical to the fault-free run.
#[test]
fn seeded_chaos_never_breaks_the_ladder_or_the_bits() {
    let jobs: Vec<Job> = (0..12)
        .map(|i| Job::from_source(format!("j{i}"), SAMPLE))
        .collect();
    let reference: Vec<String> = service(2, 64).run_batch(&jobs).iter().map(digest).collect();

    for seed in 0..4u64 {
        let svc = chaos_service(
            2,
            FaultPlan::seeded(seed),
            RetryPolicy::no_retries(),
            Clock::virtual_clock(),
        );
        let outcomes = svc.run_batch(&jobs);
        for (o, want) in outcomes.iter().zip(&reference) {
            match &o.status {
                JobStatus::Optimized(_) => {
                    assert_eq!(&digest(o), want, "seed {seed}: optimized bits changed");
                }
                JobStatus::Advisory { .. } => {} // moved down the ladder: fine
                JobStatus::Failed(msg) => {
                    panic!("seed {seed}: parseable input must never fail: {msg}")
                }
            }
        }
    }
}

// --- persistent store -------------------------------------------------

fn store_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("slo-svc-store-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn service_with_store(workers: usize, cache: usize, dir: &std::path::Path) -> Service {
    let store = slo_service::AnalysisStore::open(
        dir,
        slo::obs::Recorder::disabled(),
        slo_service::FaultPlan::disabled(),
    )
    .expect("open store");
    service(workers, cache).with_store(store)
}

/// The warm-start contract: a fresh service instance (cold LRU) over a
/// populated store serves every analysis from disk, and the outcomes
/// are bit-identical to a storeless run.
#[test]
fn store_warm_start_serves_from_disk_with_identical_bits() {
    let dir = store_dir("warm");
    let jobs: Vec<Job> = (0..8)
        .map(|i| {
            Job::from_source(format!("j{i}"), SAMPLE).scheme(if i % 2 == 0 {
                SchemeSpec::Ispbo
            } else {
                SchemeSpec::Spbo
            })
        })
        .collect();
    let reference: Vec<String> = service(1, 64).run_batch(&jobs).iter().map(digest).collect();

    let cold = service_with_store(1, 64, &dir);
    let first: Vec<String> = cold.run_batch(&jobs).iter().map(digest).collect();
    let m = cold.metrics();
    assert_eq!(m.store_hits, 0, "an empty store cannot hit");
    assert_eq!(m.store_misses, 2, "one miss per unique (source, scheme)");
    assert!(m.store_bytes > 0, "computed analyses were persisted");
    assert_eq!(first, reference);
    drop(cold);

    // A new service instance: the LRU is cold, the disk is warm.
    let warm = service_with_store(1, 64, &dir);
    let second: Vec<String> = warm.run_batch(&jobs).iter().map(digest).collect();
    let m = warm.metrics();
    assert_eq!(m.store_hits, 2, "every unique analysis came from disk");
    assert_eq!(m.store_misses, 0);
    assert!((m.store_hit_rate() - 1.0).abs() < 1e-12);
    assert_eq!(second, reference, "disk-served bits match computed bits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted store records are dropped and recomputed — the outcomes
/// stay bit-identical and nothing corrupt is ever served.
#[test]
fn store_corruption_recomputes_identical_bits() {
    let dir = store_dir("rot");
    let jobs = [Job::from_source("x", SAMPLE)];
    let reference = digest(&service(1, 64).run_batch(&jobs)[0]);

    let svc = service_with_store(1, 64, &dir);
    svc.run_batch(&jobs);
    drop(svc);

    // Rot one byte inside every segment's first record payload.
    for entry in std::fs::read_dir(&dir).expect("dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "seg" || e == "open") {
            let mut bytes = std::fs::read(&path).expect("read");
            if bytes.len() > 40 {
                bytes[24] ^= 0x20;
                std::fs::write(&path, &bytes).expect("write");
            }
        }
    }

    let svc = service_with_store(1, 64, &dir);
    let out = digest(&svc.run_batch(&jobs)[0]);
    let m = svc.metrics();
    assert_eq!(out, reference, "recomputed bits match the clean run");
    assert!(
        m.store_corrupt_drops >= 1,
        "the rotted record was observed and dropped"
    );
    assert_eq!(m.store_hits, 0, "a corrupt record is never served");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- empty plans --------------------------------------------------------

/// The smallest Table 1 census program: ISPBO transforms none of its
/// types.
fn census_program() -> slo_ir::Program {
    slo_workloads::census::generate(&slo_workloads::CENSUS_SPECS[0], 1)
}

/// `vm.run` spans a traced single-job batch records.
fn vm_runs(job: Job) -> (JobOutcome, usize) {
    let rec = slo_obs::Recorder::enabled();
    let svc = Service::with_chaos(
        ServiceConfig::builder().workers(1).build(),
        rec.clone(),
        FaultPlan::disabled(),
        RetryPolicy::no_retries(),
        Clock::virtual_clock(),
    );
    let [o] = &svc.run_batch(&[job])[..] else {
        panic!("one outcome");
    };
    let runs = rec.events().iter().filter(|e| e.name == "vm.run").count();
    (o.clone(), runs)
}

/// An empty plan leaves the program unchanged, so its one baseline run
/// is also the transformed run and the printed input the reply's text.
#[test]
fn empty_plan_job_replies_from_its_one_baseline_run() {
    let prog = census_program();
    let (o, runs) = vm_runs(Job::from_program("census", prog.clone()));
    let opt = expect_optimized(&o);
    assert_eq!(opt.num_transformed, 0);
    assert_eq!(
        opt.transformed,
        slo_ir::printer::print_program(&prog),
        "transformed text is the printed input"
    );
    assert_eq!(opt.eval.optimized_cycles, opt.eval.baseline_cycles);
    assert_eq!(
        opt.eval.optimized_instructions,
        opt.eval.baseline_instructions
    );
    assert!(opt.eval.baseline_cycles > 0);
    assert_eq!(runs, 1, "one VM run for an empty plan");

    let (o, runs) = vm_runs(Job::from_source("sample", SAMPLE).scheme(SchemeSpec::IspboW));
    assert!(expect_optimized(&o).num_transformed > 0);
    assert_eq!(
        runs, 2,
        "baseline and transformed runs for a non-empty plan"
    );
}

/// Skipping the second run keeps the baseline run's degradation arms: a
/// VM fault on an empty-plan job is a fault advisory, never a failure
/// or a caught panic.
#[test]
fn vm_fault_on_an_empty_plan_job_is_a_fault_advisory() {
    let always_alloc = FaultPlan::with_config(3, ChaosConfig::never().rate(Site::VmAlloc, 1024));
    let svc = chaos_service(
        1,
        always_alloc,
        RetryPolicy::no_retries(),
        Clock::virtual_clock(),
    );
    let [o] = &svc.run_batch(&[Job::from_program("census", census_program())])[..] else {
        panic!("one outcome");
    };
    match &o.status {
        JobStatus::Advisory {
            reason: Degradation::Fault(msg),
            ..
        } => assert!(msg.contains("baseline run"), "{msg}"),
        other => panic!("expected fault advisory, got {}", other.kind()),
    }
    let m = svc.metrics();
    assert_eq!(m.failed, 0);
    assert_eq!(m.degraded_fault, 1);
    assert_eq!(m.degraded_panic, 0);
    assert_eq!(m.panics, 0);
    assert!(
        m.to_prometheus()
            .contains("slo_jobs_degraded_total{reason=\"panic\"} 0"),
        "panic degradations stay at 0"
    );
}
