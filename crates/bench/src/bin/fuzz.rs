//! Differential transform fuzzer driver (the CI smoke job's entry
//! point).
//!
//! Runs a `slo-fuzz` campaign: random well-typed programs through the
//! full analyze → plan → transform pipeline, executed on both VM
//! engines, with every semantic invariant checked. On a violation the
//! failing program is shrunk and the minimized textual-IR repro is
//! written to `fuzz/regressions/` (override with `--artifacts DIR`),
//! then the process exits non-zero.
//!
//! ```text
//! fuzz [--cases N] [--seed S] [--budget-secs T] [--hot-every K]
//!      [--shrink-secs T] [--mutate field-off-by-one|drop-store]
//!      [--artifacts DIR] [--json]
//! ```
//!
//! `--mutate` injects a deliberate bug into every transformed program,
//! so the campaign is *expected* to fail — used to prove the oracle has
//! teeth. `--json` records wall time under `tables.fuzz` in
//! `BENCH_vm.json` (path overridable via `BENCH_JSON_PATH`).

use bench::report::{record_table, TableStats};
use slo_fuzz::{FuzzConfig, Mutation};

fn parse_args(args: &[String]) -> Result<FuzzConfig, String> {
    let mut cfg = FuzzConfig {
        budget_secs: Some(75),
        ..FuzzConfig::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--cases" => cfg.cases = val("--cases")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => cfg.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--budget-secs" => {
                cfg.budget_secs = Some(val("--budget-secs")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--no-budget" => cfg.budget_secs = None,
            "--hot-every" => {
                cfg.hot_every = val("--hot-every")?.parse().map_err(|e| format!("{e}"))?
            }
            "--shrink-secs" => {
                cfg.shrink_secs = val("--shrink-secs")?.parse().map_err(|e| format!("{e}"))?
            }
            "--artifacts" => cfg.artifacts_dir = Some(val("--artifacts")?.into()),
            "--mutate" => {
                cfg.oracle.mutation = Some(match val("--mutate")?.as_str() {
                    "field-off-by-one" => Mutation::FieldAddrOffByOne,
                    "drop-store" => Mutation::DropStore,
                    other => return Err(format!("unknown mutation `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cfg)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = bench::bool_flag(&mut args, "--json");
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        }
    };

    let budget = cfg
        .budget_secs
        .map_or("none".to_string(), |s| format!("{s}s"));
    println!(
        "fuzz: {} cases, seed {}, budget {budget}, hot every {}, mutation {:?}",
        cfg.cases, cfg.seed, cfg.hot_every, cfg.oracle.mutation
    );
    let report = slo_fuzz::run_fuzz(&cfg);
    println!(
        "fuzz: ran {} cases ({} hot) in {:.1}s — {} plans applied, {} layout variants checked{}",
        report.cases_run,
        report.hot_cases,
        report.elapsed_secs,
        report.plans_applied,
        report.variants_checked,
        if report.budget_exhausted {
            " (time budget exhausted)"
        } else {
            ""
        }
    );
    if json {
        record_table(
            "fuzz",
            TableStats {
                wall_seconds: report.elapsed_secs,
                instructions: 0,
                cycles: 0,
            },
        );
    }
    if let Some(f) = &report.failure {
        eprintln!(
            "fuzz: VIOLATION in case {} (seed {:#018x}): {}",
            f.case, f.case_seed, f.violation
        );
        eprintln!("fuzz: minimized to {} lines:", f.minimized_lines);
        eprintln!("{}", f.minimized);
        if let Some(p) = &f.artifact {
            eprintln!("fuzz: repro written to {}", p.display());
        }
        std::process::exit(1);
    }
    println!("fuzz: no violations");
}
