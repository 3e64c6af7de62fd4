//! Load generator for the batch-optimization service.
//!
//! Synthesizes a mixed batch of optimization jobs over the paper's
//! workload models (mcf, art, moldyn, plus kernel variants) crossed with
//! the static estimator family, then drives `slo_service::Service`
//! through the claims the service makes:
//!
//! 1. **determinism** — the parallel batch is bit-identical to the
//!    sequential (1 worker, cache off) run of the same jobs;
//! 2. **caching** — an identical second batch on the same service hits
//!    the analysis cache for (nearly) every job;
//! 3. **isolation** — an injected panicking job and an over-budget job
//!    degrade to advisory outcomes without failing the batch.
//!
//! Any violated claim exits nonzero, so CI can use this driver as a
//! smoke gate. `--json` merges the measurements into `BENCH_vm.json`
//! under `batch` (wall-clock speedup is reported, not asserted — it is a
//! property of the host's core count, not of the service).
//!
//! `--kill-restart` runs the persistent-store campaign instead: a real
//! `slo serve --store` process is SIGKILLed mid-batch, a fresh `slo
//! batch --store` process completes and then reruns the manifest, and
//! the cross-process warm-start hit rate (≥90% required), crash
//! tolerance and bit-rot recompute-not-serve guarantee are asserted and
//! recorded under `store` in `BENCH_vm.json`. `--rot-seeds N` widens
//! the bit-rot sweep (default 4; the nightly job runs 64).
//!
//! ```text
//! batch [--jobs N] [--workers N] [--json]
//!       [--kill-restart [--rot-seeds N]]
//! ```

use bench::report::{record_batch, record_store, BatchStats, StoreStats};
use bench::{bool_flag, digest, flag_value, mixed_jobs};
use slo_obs::json::Json;
use slo_service::{
    AnalysisStore, Budget, ChaosConfig, Degradation, Fault, FaultPlan, Job, JobStatus, Service,
    ServiceConfig, Site,
};
use slo_workloads::art::{self, ArtConfig};
use slo_workloads::kernel;
use slo_workloads::mcf::{self, McfConfig};
use slo_workloads::moldyn::{self, MoldynConfig};
use std::time::Instant;

// A small pool of distinct programs: three workload models at
// load-test sizes plus three kernel variants. Repeats of the same
// (program, scheme, config) are what the analysis cache feeds on.
fn program_pool() -> Vec<(&'static str, slo_ir::Program)> {
    vec![
        (
            "mcf",
            mcf::build_config(McfConfig {
                n: 600,
                iters: 4,
                skew: 0,
            }),
        ),
        ("art", art::build_config(ArtConfig { n: 1500, passes: 2 })),
        (
            "moldyn",
            moldyn::build_config(MoldynConfig {
                n: 600,
                steps: 2,
                neighbors: 6,
            }),
        ),
        ("kernel64", kernel::build(64, 400)),
        ("kernel128", kernel::build(128, 400)),
        ("kernel256", kernel::build(256, 400)),
    ]
}

// --- the kill-and-restart store campaign --------------------------------

/// The `slo` binary next to this driver (`SLO_BIN` overrides, for
/// running outside the target directory).
fn slo_bin() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("SLO_BIN") {
        return p.into();
    }
    std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .join(format!("slo{}", std::env::consts::EXE_SUFFIX))
}

/// The metrics object `slo batch --json` prints as its last JSON line.
fn metrics_of(stdout: &str) -> Json {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("`slo batch --json` printed no metrics line:\n{stdout}"));
    Json::parse(line).unwrap_or_else(|e| panic!("metrics line does not parse: {e}\n{line}"))
}

/// Counter `key` of a metrics object. A missing key fails the campaign
/// instead of reading as 0.
fn metric(m: &Json, key: &str) -> u64 {
    m.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics line has no counter `{key}`"))
}

/// The per-job result lines of a `slo batch` run, with the `[cached]`
/// marker stripped: whether an analysis came from the LRU, the store or
/// a recompute may differ between runs — the optimization *bits* may
/// not.
fn outcome_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| {
            let mut tok = l.split_whitespace();
            tok.next().is_some() && matches!(tok.next(), Some("optimized" | "advisory" | "failed"))
        })
        .map(|l| l.trim_end().trim_end_matches(" [cached]").to_string())
        .collect()
}

/// Run the cross-process campaign: populate a store through a `slo
/// serve --store` process and SIGKILL it mid-batch, complete the
/// manifest in a fresh `slo batch --store` process, then rerun it
/// cold to measure the warm-start hit rate; finish with an in-process
/// bit-rot sweep over `rot_seeds` seeds. Returns the number of failed
/// checks.
fn kill_restart_campaign(num_jobs: usize, rot_seeds: usize, json: bool) -> u32 {
    use std::io::{BufRead, BufReader, Write};

    let mut failures = 0u32;
    let tmp = std::env::temp_dir().join(format!("slo-store-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("campaign dir");

    // The same job mix as the in-process batch, as files + a manifest
    // so separate processes resolve identical analysis keys.
    let programs = program_pool();
    let mut manifest = String::new();
    for (name, prog) in &programs {
        std::fs::write(
            tmp.join(format!("{name}.sir")),
            slo_ir::printer::print_program(prog),
        )
        .expect("write program");
    }
    let scheme_names = ["ispbo", "spbo", "ispbo.no", "ispbo.w"];
    let mut lines = Vec::new();
    for i in 0..num_jobs {
        let (name, _) = &programs[i % programs.len()];
        let scheme = scheme_names[(i / programs.len()) % scheme_names.len()];
        lines.push(format!("{name}.sir scheme={scheme}"));
    }
    for l in &lines {
        manifest.push_str(l);
        manifest.push('\n');
    }
    std::fs::write(tmp.join("manifest.txt"), manifest).expect("write manifest");

    // Phase A: serve with a store, SIGKILL mid-batch. Half the lines
    // are answered and durably stored; the rest are in flight when the
    // kill lands, so the active segment may end in a torn append.
    let mut child = std::process::Command::new(slo_bin())
        .args(["serve", "--store", "store"])
        .current_dir(&tmp)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn slo serve");
    let mut stdin = child.stdin.take().expect("serve stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("serve stdout"));
    let answer_before_kill = num_jobs / 2;
    let mut answered = 0usize;
    let mut reply = String::new();
    'feed: for l in &lines[..answer_before_kill] {
        writeln!(stdin, "{l}").expect("feed serve");
        stdin.flush().expect("flush serve stdin");
        loop {
            reply.clear();
            if stdout.read_line(&mut reply).unwrap_or(0) == 0 {
                break 'feed; // serve died early; the store must still replay
            }
            if reply.trim_start().starts_with('{') {
                answered += 1;
                break;
            }
        }
    }
    // Fire the remaining lines without waiting, give the worker a
    // moment to be mid-job (and possibly mid-append), then SIGKILL.
    for l in &lines[answer_before_kill..] {
        let _ = writeln!(stdin, "{l}");
    }
    let _ = stdin.flush();
    std::thread::sleep(std::time::Duration::from_millis(50));
    child.kill().expect("SIGKILL serve");
    let _ = child.wait();
    println!("kill-restart: serve answered {answered} job(s), then SIGKILL");

    // Phase B: a fresh process completes the manifest over the
    // survivor store (replaying the killed process's sealed prefix).
    let run_batch = || {
        let out = std::process::Command::new(slo_bin())
            .args(["batch", "manifest.txt", "--store", "store", "--json"])
            .current_dir(&tmp)
            .output()
            .expect("run slo batch");
        assert!(
            out.status.success(),
            "slo batch --store failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let complete = run_batch();
    let complete_m = metrics_of(&complete);
    let survivors = metric(&complete_m, "store_hits");
    println!(
        "kill-restart: completing batch found {survivors} analysis record(s) \
         survived the kill ({} corrupt dropped)",
        metric(&complete_m, "store_corrupt_drops")
    );
    if answered > 0 && survivors == 0 {
        println!("FAIL: answered jobs must leave replayable store records");
        failures += 1;
    }

    // Phase C: the warm-start measurement — a cold process over the
    // now-complete store must serve (nearly) everything from disk.
    let warm = run_batch();
    let warm_m = metrics_of(&warm);
    let (hits, misses) = (
        metric(&warm_m, "store_hits"),
        metric(&warm_m, "store_misses"),
    );
    let warm_hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    println!(
        "kill-restart: cross-process warm start {hits}/{} store hits ({:.0}%)",
        hits + misses,
        100.0 * warm_hit_rate
    );
    if warm_hit_rate < 0.9 {
        println!(
            "FAIL: warm-start hit rate {:.0}% < 90%",
            100.0 * warm_hit_rate
        );
        failures += 1;
    }
    let mut mismatches = outcome_lines(&complete)
        .iter()
        .zip(outcome_lines(&warm).iter())
        .filter(|(a, b)| a != b)
        .count() as u64;
    if mismatches > 0 {
        println!("FAIL: {mismatches} disk-served outcome(s) differ from computed ones");
        failures += 1;
    } else {
        println!("ok: disk-served outcomes bit-identical to computed");
    }
    let corrupt_drops =
        metric(&complete_m, "store_corrupt_drops") + metric(&warm_m, "store_corrupt_drops");

    // Bit-rot sweep: seeded in-process campaigns that rot records as
    // they are written, then reread them cold. Rot may cost recomputes
    // (counted), never bits, and a corrupt record is never served.
    let sweep_jobs = mixed_jobs(&program_pool(), 12);
    let reference: Vec<String> = Service::new(
        ServiceConfig::builder()
            .workers(1)
            .cache_capacity(0)
            .build(),
    )
    .run_batch(&sweep_jobs)
    .iter()
    .map(|o| digest(o, true))
    .collect();
    let mut bitrot_corrupt_drops = 0u64;
    for seed in 0..rot_seeds as u64 {
        let dir = tmp.join(format!("bitrot-{seed}"));
        let plan = FaultPlan::with_config(seed, ChaosConfig::never().rate(Site::StoreBitRot, 512));
        let cfg = ServiceConfig::builder()
            .workers(2)
            .cache_capacity(64)
            .build();
        let writer = Service::new(cfg).with_store(
            AnalysisStore::open(&dir, slo::obs::Recorder::disabled(), plan).expect("open store"),
        );
        let rotted: Vec<String> = writer
            .run_batch(&sweep_jobs)
            .iter()
            .map(|o| digest(o, true))
            .collect();
        drop(writer);
        let reader = Service::new(cfg).with_store(
            AnalysisStore::open(&dir, slo::obs::Recorder::disabled(), FaultPlan::disabled())
                .expect("reopen store"),
        );
        let reread: Vec<String> = reader
            .run_batch(&sweep_jobs)
            .iter()
            .map(|o| digest(o, true))
            .collect();
        let m = reader.metrics();
        bitrot_corrupt_drops += m.store_corrupt_drops;
        for run in [&rotted, &reread] {
            mismatches += reference
                .iter()
                .zip(run.iter())
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
    }
    println!(
        "bit-rot sweep: {rot_seeds} seed(s), {bitrot_corrupt_drops} corrupt record(s) \
         dropped and recomputed"
    );
    if mismatches > 0 {
        println!("FAIL: {mismatches} outcome(s) changed bits under store corruption");
        failures += 1;
    } else {
        println!("ok: corruption costs recomputes, never bits");
    }

    if json {
        record_store(StoreStats {
            jobs: num_jobs,
            killed_after: answered,
            warm_hit_rate,
            corrupt_drops,
            bitrot_seeds: rot_seeds,
            bitrot_corrupt_drops,
            mismatches,
        });
    }
    if failures == 0 {
        let _ = std::fs::remove_dir_all(&tmp);
    } else {
        // Leave the store directory behind for postmortem (CI uploads
        // it as an artifact on failure).
        println!("campaign artifacts kept at {}", tmp.display());
    }
    failures
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = bool_flag(&mut args, "--json");
    let num_jobs = flag_value(&args, "--jobs").unwrap_or(64);
    let workers = flag_value(&args, "--workers").unwrap_or(0);
    if args.iter().any(|a| a == "--kill-restart") {
        let rot_seeds = flag_value(&args, "--rot-seeds").unwrap_or(4);
        let failures = kill_restart_campaign(num_jobs, rot_seeds, json);
        if failures > 0 {
            println!("{failures} check(s) FAILED");
            std::process::exit(1);
        }
        println!("all store checks passed");
        return;
    }
    let jobs = mixed_jobs(&program_pool(), num_jobs);
    let mut failures = 0u32;

    // 1. sequential reference: one worker, cache disabled.
    let seq_service = Service::new(
        ServiceConfig::builder()
            .workers(1)
            .cache_capacity(0)
            .build(),
    );
    let t0 = Instant::now();
    let seq = seq_service.run_batch(&jobs);
    let seq_secs = t0.elapsed().as_secs_f64();

    // 2. parallel run with caching on a fresh service.
    let service = Service::new(
        ServiceConfig::builder()
            .workers(workers)
            .cache_capacity(256)
            .build(),
    );
    let t1 = Instant::now();
    let par = service.run_batch(&jobs);
    let par_secs = t1.elapsed().as_secs_f64();

    // `workers == 0` means "one per core"; resolve it so the report can
    // tell a genuine parallel run from a single-core container, where a
    // sub-1x "speedup" is pool overhead rather than a regression.
    let effective_workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        workers
    };

    let m = service.metrics();
    if effective_workers <= 1 {
        println!(
            "batch: {num_jobs} jobs, seq {seq_secs:.2}s, par {par_secs:.2}s \
             (single-core, speedup n/a), {} optimized / {} advisory / {} failed",
            m.optimized, m.degraded, m.failed
        );
    } else {
        println!(
            "batch: {num_jobs} jobs, seq {seq_secs:.2}s, par {par_secs:.2}s \
             ({:.2}x on {effective_workers} workers), {} optimized / {} advisory / {} failed",
            seq_secs / par_secs.max(1e-9),
            m.optimized,
            m.degraded,
            m.failed
        );
    }

    // determinism: parallel outcomes must be bit-identical to sequential.
    let mismatches = seq
        .iter()
        .zip(&par)
        .filter(|(a, b)| digest(a, true) != digest(b, true))
        .count();
    if mismatches > 0 {
        println!("FAIL: {mismatches} parallel outcome(s) differ from the sequential run");
        failures += 1;
    } else {
        println!("ok: parallel outcomes bit-identical to sequential");
    }
    if m.degraded + m.failed > 0 {
        println!(
            "FAIL: clean batch produced {} degraded and {} failed outcome(s)",
            m.degraded, m.failed
        );
        failures += 1;
    }

    // 3. identical rerun on the same service: analysis should be cached.
    let before = service.metrics();
    let rerun = service.run_batch(&jobs);
    let delta = service.metrics().since(&before);
    let hit_rate = delta.cache_hit_rate();
    println!(
        "rerun: {}/{} analysis-cache hits ({:.0}%)",
        delta.cache_hits,
        delta.cache_hits + delta.cache_misses,
        100.0 * hit_rate
    );
    if hit_rate < 0.9 {
        println!("FAIL: rerun cache hit rate {:.0}% < 90%", 100.0 * hit_rate);
        failures += 1;
    }
    let rerun_mismatches = seq
        .iter()
        .zip(&rerun)
        .filter(|(a, b)| digest(a, true) != digest(b, true))
        .count();
    if rerun_mismatches > 0 {
        println!("FAIL: {rerun_mismatches} cached outcome(s) differ from the uncached run");
        failures += 1;
    } else {
        println!("ok: cached outcomes bit-identical to uncached");
    }

    // 4. fault injection: a panicking job and an over-budget job must
    //    degrade to advisory outcomes without taking the batch down.
    let mut faulty = mixed_jobs(&program_pool(), 6);
    faulty.push(Job::from_program("inject-panic", kernel::build(64, 400)).fault(Fault::PanicInBe));
    faulty
        .push(Job::from_program("inject-budget", kernel::build(64, 400)).budget(Budget::steps(10)));
    let outcomes = service.run_batch(&faulty);
    let panic_ok = outcomes.iter().any(|o| {
        o.id == "inject-panic"
            && matches!(
                &o.status,
                JobStatus::Advisory {
                    reason: Degradation::Panic(_),
                    ..
                }
            )
    });
    let budget_ok = outcomes.iter().any(|o| {
        o.id == "inject-budget"
            && matches!(
                &o.status,
                JobStatus::Advisory {
                    reason: Degradation::Budget(_),
                    ..
                }
            )
    });
    let rest_ok = outcomes
        .iter()
        .filter(|o| !o.id.starts_with("inject-"))
        .all(|o| matches!(o.status, JobStatus::Optimized(_)));
    for (ok, what) in [
        (panic_ok, "panicking job degrades to advisory"),
        (budget_ok, "over-budget job degrades to advisory"),
        (rest_ok, "healthy jobs unaffected by faulty neighbours"),
    ] {
        if ok {
            println!("ok: {what}");
        } else {
            println!("FAIL: {what}");
            failures += 1;
        }
    }

    if json {
        record_batch(BatchStats {
            jobs: num_jobs,
            workers: effective_workers,
            seq_seconds: seq_secs,
            par_seconds: par_secs,
            rerun_hit_rate: hit_rate,
            degraded: m.degraded,
            failed: m.failed,
        });
    }

    if failures > 0 {
        println!("{failures} check(s) FAILED");
        std::process::exit(1);
    }
    println!("all service checks passed");
}
