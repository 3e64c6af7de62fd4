//! `BENCH_vm.json` — the execution-substrate performance trajectory.
//!
//! Every driver run with `--json` (and the `interp_hot_loop` Criterion
//! bench) records how fast the simulated machine itself executes on the
//! host: instructions/second of the VM hot loop, total simulated cycles,
//! and wall time per table. Successive PRs append to the same file, so
//! the substrate's own speed is tracked like any other benchmark.
//!
//! The file is read and written through the shared [`slo_obs::json`]
//! module. A file that exists but does not parse is never overwritten:
//! it holds the whole trajectory.

use slo_obs::json::Json;
use std::path::{Path, PathBuf};

/// Trajectory file name, resolved at the workspace root by default.
pub const BENCH_JSON: &str = "BENCH_vm.json";

/// Where to read/write the trajectory file: `BENCH_JSON_PATH` if set,
/// else `BENCH_vm.json` at the workspace root. Binaries (`cargo run`)
/// and benches (`cargo bench`) get different working directories, so
/// the default is anchored to this crate's manifest, not the CWD.
fn bench_json_path() -> PathBuf {
    match std::env::var("BENCH_JSON_PATH") {
        Ok(p) => PathBuf::from(p),
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(BENCH_JSON),
    }
}

/// Merge one section into the trajectory file at `path` and report it
/// on stderr as `[json] <summary> -> <path>`. `update` edits the root
/// object after `schema` is set. A missing file starts a fresh document;
/// a file that cannot be read or is not a JSON object is left untouched
/// (it holds the whole trajectory) and the error is printed instead.
fn merge(path: &Path, summary: &str, update: impl FnOnce(&mut Json)) {
    let loaded = match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text).and_then(|root| match root {
            Json::Obj(_) => Ok(root),
            _ => Err("the top level is not an object".to_string()),
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Json::object()),
        Err(e) => Err(e.to_string()),
    };
    let mut root = match loaded {
        Ok(root) => root,
        Err(e) => {
            eprintln!("[json] {} left untouched: {e}", path.display());
            return;
        }
    };
    root.set("schema", Json::Str("slo-bench-v1".to_string()));
    update(&mut root);
    match std::fs::write(path, root.pretty()) {
        Ok(()) => eprintln!("[json] {summary} -> {}", path.display()),
        Err(e) => eprintln!("[json] failed to write {}: {e}", path.display()),
    }
}

/// One driver's substrate measurement for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct TableStats {
    /// Wall-clock seconds for the whole driver run.
    pub wall_seconds: f64,
    /// Total simulated instructions retired across all VM runs.
    pub instructions: u64,
    /// Total simulated cycles across all VM runs.
    pub cycles: u64,
}

impl TableStats {
    /// Host-side VM throughput (simulated instructions per wall second).
    pub fn instr_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.instructions as f64 / self.wall_seconds
    }

    fn to_json(self) -> Json {
        let mut o = Json::object();
        o.set("wall_seconds", Json::Num(self.wall_seconds));
        o.set("instructions", Json::U64(self.instructions));
        o.set("cycles", Json::U64(self.cycles));
        o.set("instr_per_sec", Json::Num(self.instr_per_sec()));
        o
    }
}

/// Merge one table's stats into `BENCH_vm.json` (path overridable via
/// the `BENCH_JSON_PATH` environment variable) and report what was
/// written. Call only when the driver saw `--json`.
pub fn record_table(table: &str, stats: TableStats) {
    let summary = format!(
        "{table}: {:.2}s wall, {} simulated instructions, {:.2e} instr/s",
        stats.wall_seconds,
        stats.instructions,
        stats.instr_per_sec()
    );
    merge(&bench_json_path(), &summary, |root| {
        root.entry_object("tables").set(table, stats.to_json());
    });
}

/// Merge one `interp_hot_loop` engine comparison into `BENCH_vm.json`
/// under `hot_loop.<bench>`: host-side instructions/second for each
/// engine (medians over alternating runs) and the decoded/structured
/// speedup (the median of the per-round ratios).
pub fn record_hot_loop(bench: &str, decoded_ips: f64, structured_ips: f64, speedup: f64) {
    let mut entry = Json::object();
    entry.set("decoded_instr_per_sec", Json::Num(decoded_ips));
    entry.set("structured_instr_per_sec", Json::Num(structured_ips));
    entry.set("speedup", Json::Num(speedup));
    let summary = format!(
        "hot_loop/{bench}: decoded {decoded_ips:.2e} i/s, structured \
         {structured_ips:.2e} i/s, {speedup:.2}x"
    );
    merge(&bench_json_path(), &summary, |root| {
        root.entry_object("hot_loop").set(bench, entry);
    });
}

/// Merge tracing-overhead measurements for one `interp_hot_loop` bench
/// into `hot_loop.<bench>` (alongside the engine comparison recorded by
/// [`record_hot_loop`]): throughput with the default options, with an
/// explicit no-op recorder, and with an enabled sampled recorder, plus
/// the no-op overhead in percent (its budget is 3%).
pub fn record_hot_loop_trace(
    bench: &str,
    baseline_ips: f64,
    noop_ips: f64,
    sampled_ips: f64,
    overhead_pct: f64,
) {
    let summary = format!(
        "hot_loop/{bench} tracing: untraced {baseline_ips:.2e} i/s, \
         no-op {noop_ips:.2e} i/s ({overhead_pct:+.2}%), sampled {sampled_ips:.2e} i/s"
    );
    merge(&bench_json_path(), &summary, |root| {
        let entry = root.entry_object("hot_loop").entry_object(bench);
        entry.set("untraced_instr_per_sec", Json::Num(baseline_ips));
        entry.set("noop_trace_instr_per_sec", Json::Num(noop_ips));
        entry.set("sampled_trace_instr_per_sec", Json::Num(sampled_ips));
        entry.set("noop_trace_overhead_pct", Json::Num(overhead_pct));
    });
}

/// One pipeline phase's share of a traced compile, for the `phases`
/// object of `BENCH_vm.json`.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStat {
    /// Wall-clock seconds summed over the phase's spans.
    pub wall_seconds: f64,
    /// Number of spans recorded for the phase.
    pub spans: u64,
}

/// Merge a per-phase wall-clock breakdown (from a traced compile) into
/// `BENCH_vm.json` under `phases.<source>`. Call only under `--json`.
pub fn record_phases(source: &str, phases: &[(String, PhaseStat)]) {
    let mut entry = Json::object();
    for (name, stat) in phases {
        let mut o = Json::object();
        o.set("wall_seconds", Json::Num(stat.wall_seconds));
        o.set("spans", Json::U64(stat.spans));
        entry.set(name, o);
    }
    let summary = format!("phases/{source}: {} phase(s)", phases.len());
    merge(&bench_json_path(), &summary, |root| {
        root.entry_object("phases").set(source, entry);
    });
}

/// The batch load-generator's measurements for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    /// Jobs in the generated batch.
    pub jobs: usize,
    /// Worker threads of the parallel run.
    pub workers: usize,
    /// Wall-clock seconds for the sequential (1 worker, no cache) run.
    pub seq_seconds: f64,
    /// Wall-clock seconds for the parallel run.
    pub par_seconds: f64,
    /// Analysis-cache hit rate of the repeated identical batch.
    pub rerun_hit_rate: f64,
    /// Degraded (advisory) outcomes in the clean batch.
    pub degraded: u64,
    /// Failed outcomes in the clean batch.
    pub failed: u64,
}

/// Merge the batch load-generator's stats into `BENCH_vm.json` under
/// `batch`. Call only when the driver saw `--json`.
pub fn record_batch(stats: BatchStats) {
    let speedup = if stats.par_seconds > 0.0 {
        stats.seq_seconds / stats.par_seconds
    } else {
        0.0
    };
    let mut entry = Json::object();
    entry.set("jobs", Json::U64(stats.jobs as u64));
    entry.set("workers", Json::U64(stats.workers as u64));
    entry.set("seq_seconds", Json::Num(stats.seq_seconds));
    entry.set("par_seconds", Json::Num(stats.par_seconds));
    entry.set("speedup", Json::Num(speedup));
    // On a single-core host the "parallel" run pays pool overhead with
    // nothing to parallelize; flag the reading so the trajectory isn't
    // misread as a parallel-scaling regression.
    let single_core = stats.workers <= 1;
    if single_core {
        entry.set("speedup_note", Json::Str("single-core".to_string()));
    }
    entry.set("rerun_hit_rate", Json::Num(stats.rerun_hit_rate));
    entry.set("degraded", Json::U64(stats.degraded));
    entry.set("failed", Json::U64(stats.failed));
    let speedup_text = if single_core {
        "single-core, speedup n/a".to_string()
    } else {
        format!("{speedup:.2}x on {} workers", stats.workers)
    };
    let summary = format!(
        "batch: {} jobs, seq {:.2}s, par {:.2}s ({speedup_text}), rerun hit rate {:.0}%",
        stats.jobs,
        stats.seq_seconds,
        stats.par_seconds,
        100.0 * stats.rerun_hit_rate
    );
    merge(&bench_json_path(), &summary, |root| {
        root.set("batch", entry)
    });
}

/// The kill-and-restart store campaign's tallies for the trajectory
/// file.
#[derive(Debug, Clone, Copy)]
pub struct StoreStats {
    /// Jobs in the manifest each process ran.
    pub jobs: usize,
    /// Replies received before the serve process was SIGKILLed.
    pub killed_after: usize,
    /// Persistent-store hit rate of the restarted (cold-LRU) batch —
    /// the cross-process warm-start rate.
    pub warm_hit_rate: f64,
    /// Corrupt records dropped across the restart runs (torn tails
    /// from the kill, never served).
    pub corrupt_drops: u64,
    /// Seeds swept in the in-process bit-rot campaign.
    pub bitrot_seeds: usize,
    /// Corrupt records dropped and recomputed across the bit-rot sweep.
    pub bitrot_corrupt_drops: u64,
    /// Outcomes that differed from the clean reference anywhere in the
    /// campaign (must be 0: corruption may cost recompute time, never
    /// bits).
    pub mismatches: u64,
}

/// Merge the kill-and-restart store campaign's stats into
/// `BENCH_vm.json` under `store`. Call only when the driver saw
/// `--json`.
pub fn record_store(stats: StoreStats) {
    let mut entry = Json::object();
    entry.set("jobs", Json::U64(stats.jobs as u64));
    entry.set("killed_after", Json::U64(stats.killed_after as u64));
    entry.set("warm_hit_rate", Json::Num(stats.warm_hit_rate));
    entry.set("corrupt_drops", Json::U64(stats.corrupt_drops));
    entry.set("bitrot_seeds", Json::U64(stats.bitrot_seeds as u64));
    entry.set(
        "bitrot_corrupt_drops",
        Json::U64(stats.bitrot_corrupt_drops),
    );
    entry.set("mismatches", Json::U64(stats.mismatches));
    let summary = format!(
        "store: {} jobs, killed after {}, warm hit rate {:.0}%, \
         {} corrupt dropped, bit-rot sweep {} seeds ({} dropped), {} mismatches",
        stats.jobs,
        stats.killed_after,
        100.0 * stats.warm_hit_rate,
        stats.corrupt_drops,
        stats.bitrot_seeds,
        stats.bitrot_corrupt_drops,
        stats.mismatches
    );
    merge(&bench_json_path(), &summary, |root| {
        root.set("store", entry)
    });
}

/// The chaos campaign driver's tallies for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct ChaosStats {
    /// Campaign seeds swept.
    pub seeds: usize,
    /// Jobs per campaign.
    pub jobs_per_seed: usize,
    /// Degradation-ladder violations (must be 0: optimized bits changed
    /// or a parseable input failed).
    pub violations: usize,
    /// Total faults injected across all campaigns and sites.
    pub faults_injected: u64,
    /// Supervisor retries across all campaigns.
    pub retries: u64,
    /// Quarantined jobs across all campaigns.
    pub quarantined: u64,
    /// Optimized outcomes across all campaigns.
    pub optimized: u64,
    /// Advisory outcomes across all campaigns.
    pub advisory: u64,
}

/// Merge the chaos driver's tallies into `BENCH_vm.json` under `chaos`.
/// Call only when the driver saw `--json`.
pub fn record_chaos(stats: ChaosStats) {
    let mut entry = Json::object();
    entry.set("seeds", Json::U64(stats.seeds as u64));
    entry.set("jobs_per_seed", Json::U64(stats.jobs_per_seed as u64));
    entry.set("violations", Json::U64(stats.violations as u64));
    entry.set("faults_injected", Json::U64(stats.faults_injected));
    entry.set("retries", Json::U64(stats.retries));
    entry.set("quarantined", Json::U64(stats.quarantined));
    entry.set("optimized", Json::U64(stats.optimized));
    entry.set("advisory", Json::U64(stats.advisory));
    let summary = format!(
        "chaos: {} seed(s) x {} jobs, {} fault(s), {} violation(s)",
        stats.seeds, stats.jobs_per_seed, stats.faults_injected, stats.violations
    );
    merge(&bench_json_path(), &summary, |root| {
        root.set("chaos", entry)
    });
}

/// The socket-chaos campaign's tallies for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct NetChaosStats {
    /// Campaign seeds swept.
    pub seeds: usize,
    /// Job lines sent per seed.
    pub jobs_per_seed: usize,
    /// Ladder violations over the wire (optimized bits changed, or a
    /// valid line answered `failed`/non-transient `error`).
    pub violations: usize,
    /// Connections rejected at accept (accept-storm site + busy).
    pub rejected: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Server-side injected disconnects observed.
    pub disconnects: u64,
    /// Slow-loris closes observed.
    pub slow_closes: u64,
    /// Client-side retries needed to land every job.
    pub client_retries: u64,
}

/// Merge the socket-chaos tallies into `BENCH_vm.json` under
/// `chaos.net`. Call AFTER [`record_chaos`] (which replaces the whole
/// `chaos` object) and only when the driver saw `--json`.
pub fn record_chaos_net(stats: NetChaosStats) {
    let mut entry = Json::object();
    entry.set("seeds", Json::U64(stats.seeds as u64));
    entry.set("jobs_per_seed", Json::U64(stats.jobs_per_seed as u64));
    entry.set("violations", Json::U64(stats.violations as u64));
    entry.set("rejected", Json::U64(stats.rejected));
    entry.set("shed", Json::U64(stats.shed));
    entry.set("disconnects", Json::U64(stats.disconnects));
    entry.set("slow_closes", Json::U64(stats.slow_closes));
    entry.set("client_retries", Json::U64(stats.client_retries));
    let summary = format!(
        "chaos.net: {} seed(s) x {} lines, {} shed, {} disconnect(s), {} violation(s)",
        stats.seeds, stats.jobs_per_seed, stats.shed, stats.disconnects, stats.violations
    );
    merge(&bench_json_path(), &summary, |root| {
        root.entry_object("chaos").set("net", entry);
    });
}

/// The TCP load driver's tallies for the trajectory file.
#[derive(Debug, Clone, Copy)]
pub struct LoadStats {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests completed (optimized/advisory replies).
    pub completed: usize,
    /// Requests shed with a `retry_after_ms` hint.
    pub sheds: usize,
    /// sheds / (completed + sheds).
    pub shed_rate: f64,
    /// Median reply latency over completed requests, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile reply latency, milliseconds.
    pub p99_ms: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// Whole-run wall clock, seconds.
    pub wall_seconds: f64,
}

/// Merge the load driver's tallies into `BENCH_vm.json` under `load`.
/// Call only when the driver saw `--json`.
pub fn record_load(stats: LoadStats) {
    let mut entry = Json::object();
    entry.set("clients", Json::U64(stats.clients as u64));
    entry.set("completed", Json::U64(stats.completed as u64));
    entry.set("sheds", Json::U64(stats.sheds as u64));
    entry.set("shed_rate", Json::Num(stats.shed_rate));
    entry.set("p50_ms", Json::Num(stats.p50_ms));
    entry.set("p99_ms", Json::Num(stats.p99_ms));
    entry.set("throughput_rps", Json::Num(stats.throughput_rps));
    entry.set("wall_seconds", Json::Num(stats.wall_seconds));
    let summary = format!(
        "load: {} client(s), {} completed, shed rate {:.1}%, p50 {:.2} ms, p99 {:.2} ms",
        stats.clients,
        stats.completed,
        100.0 * stats.shed_rate,
        stats.p50_ms,
        stats.p99_ms
    );
    merge(&bench_json_path(), &summary, |root| root.set("load", entry));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_starts_fresh_only_when_the_file_is_missing() {
        let dir = std::env::temp_dir().join(format!("slo-report-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("BENCH_vm.json");
        let _ = std::fs::remove_file(&path);
        let set = |key: &'static str| move |root: &mut Json| root.set(key, Json::U64(1));

        merge(&path, "first", set("a"));
        merge(&path, "second", set("b"));
        let root = Json::parse(&std::fs::read_to_string(&path).expect("written")).expect("json");
        assert_eq!(
            root.get("a"),
            Some(&Json::U64(1)),
            "earlier sections survive"
        );
        assert_eq!(root.get("b"), Some(&Json::U64(1)));
        assert_eq!(
            root.get("schema").and_then(Json::as_str),
            Some("slo-bench-v1")
        );

        for damaged in ["{\"tables\": {\"table2\": ", "[1, 2]"] {
            std::fs::write(&path, damaged).expect("write");
            merge(&path, "third", set("c"));
            let after = std::fs::read_to_string(&path).expect("read");
            assert_eq!(
                after, damaged,
                "an invalid trajectory file is never overwritten"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_stats_throughput() {
        let s = TableStats {
            wall_seconds: 2.0,
            instructions: 10_000_000,
            cycles: 42,
        };
        assert!((s.instr_per_sec() - 5_000_000.0).abs() < 1e-9);
    }
}
