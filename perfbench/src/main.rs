//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <pbo-eval|census-cold|serve-warm> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's closed loop untraced for `--seconds`
//! and reports the end-to-end metrics; `--trace 1` runs the per-layer
//! ledger over the same seeded inputs and reports the per-layer metrics.
//! The last line of stdout is the JSON result. See `README.md`.

mod inputs;
mod ledger;
mod oracle;
mod report;
mod timed;

use report::{emit, median, peak_rss_mb, percentile, Metric};
use timed::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

/// Sub-windows `job_p99_ms` is taken over.
const P99_WINDOWS: usize = 5;

/// The median over [`P99_WINDOWS`] equal sub-windows of the window of
/// each sub-window's 99th-percentile latency. A burst of host stalls
/// shorter than a sub-window moves one sub-window's figure, not the
/// median; on `serve-warm` every sub-window still holds ≥ 1000 requests.
fn windowed_p99(records: &[timed::Record], wall_s: f64) -> f64 {
    let p99s: Vec<f64> = (0..P99_WINDOWS)
        .map(|k| {
            let (lo, hi) = (k as f64, k as f64 + 1.0);
            let lat: Vec<f64> = records
                .iter()
                .filter(|r| {
                    let at = r.done_s / wall_s * P99_WINDOWS as f64;
                    at >= lo && (at < hi || k + 1 == P99_WINDOWS)
                })
                .map(|r| r.latency_ms)
                .collect();
            percentile(&lat, 99.0)
        })
        .collect();
    median(&p99s)
}

fn timed_mode(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let mut run = match w {
        Workload::ServeWarm => timed::run_serve(args.seed, args.seconds)?,
        _ => timed::run_inprocess(w, args.seed, args.seconds)?,
    };
    println!(
        "workload {} seed {} inputs {:016x} ({} programs)",
        w.name(),
        args.seed,
        run.digest,
        run.inputs.len()
    );
    let (failed, errors) = timed::verify(&run, args.seed);
    for e in &errors {
        eprintln!("perfbench: FAILED {e}");
    }
    // Read before the set-ups after the window, which build a second
    // copy of the inputs while this run's are still held.
    let peak_rss = peak_rss_mb();
    let before = run.setup_s.len();
    run.setup_s
        .extend(timed::time_setups(w, args.seed, args.seconds)?);
    let lat: Vec<f64> = run.records.iter().map(|r| r.latency_ms).collect();
    let done = run.records.iter().filter(|r| r.status != "lost").count();
    let metrics = vec![
        Metric::based(
            "jobs_per_s",
            done as f64 / run.wall_s,
            "jobs/s",
            format!("{done} jobs / {:.3} s", run.wall_s),
        ),
        Metric::based(
            "job_p50_ms",
            median(&lat),
            "ms",
            format!("{} jobs", lat.len()),
        ),
        Metric::based(
            "job_p90_ms",
            percentile(&lat, 90.0),
            "ms",
            format!("{} jobs", lat.len()),
        ),
        Metric::based(
            "job_p99_ms",
            windowed_p99(&run.records, run.wall_s),
            "ms",
            format!(
                "median of {P99_WINDOWS} windows of {} jobs",
                lat.len() / P99_WINDOWS
            ),
        ),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
        Metric::based(
            "setup_s",
            median(&run.setup_s),
            "s",
            format!(
                "median of {} set-ups, {before} before the window, {:.3}-{:.3} s",
                run.setup_s.len(),
                run.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                run.setup_s.iter().copied().fold(0.0, f64::max),
            ),
        ),
        Metric::based(
            "layout_speedup_pct",
            timed::layout_speedup_pct(&run),
            "%",
            format!("{} fixed-prefix jobs", run.fixed().len()),
        ),
    ];
    let clients = if w == Workload::ServeWarm {
        timed::CLIENTS
    } else {
        1
    };
    let prefix = timed::FIXED_PREFIX * clients;
    let enough = run.records.len() >= 100 && run.fixed().len() == prefix;
    if !enough {
        eprintln!(
            "perfbench: {} jobs completed, {} of the {prefix} fixed-prefix jobs; \
             p90 needs 100 and layout_speedup_pct the whole prefix",
            run.records.len(),
            run.fixed().len()
        );
    }
    emit(enough && failed == 0, run.records.len(), failed, &metrics);
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let res = if args.trace {
        ledger::run(args.workload, args.seed)
    } else {
        timed_mode(&args)
    };
    if let Err(e) = res {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
