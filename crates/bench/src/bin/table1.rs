//! Regenerates **Table 1**: "Types and transformable types, with and
//! without CSTF, CSTT, ATKN".
//!
//! For each of the twelve benchmarks, runs the FE legality pass + IPA
//! aggregation twice — strict and with the cast/address tests relaxed —
//! and prints the paper's columns next to the measured ones. The twelve
//! analyses are independent and run in parallel; `--json` records the
//! driver's wall time in `BENCH_vm.json` (this table executes nothing on
//! the VM, so its simulated-instruction count is zero).

use bench::report::{record_table, TableStats};
use slo::analysis::{analyze_program, LegalityConfig};
use slo_service::pool::par_map_bounded;
use slo_workloads::{all, InputSet};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = bench::bool_flag(&mut args, "--json");
    let t0 = std::time::Instant::now();

    println!("Table 1 — types and transformable types, strict vs relaxed analysis");
    println!(
        "{:<12} {:>6} {:>7} {:>7} {:>7} {:>7}   (paper: {:>5} {:>5} {:>5})",
        "Benchmark", "Types", "Legal", "%", "Relax", "%", "Types", "Legal", "Relax"
    );

    let workloads = all(InputSet::Training);
    let n = workloads.len();
    // (types, legal, relaxed-legal) per benchmark, computed in parallel
    let counts = par_map_bounded(0, &workloads, |w| {
        let strict = analyze_program(&w.program, &LegalityConfig::default());
        let relaxed = analyze_program(
            &w.program,
            &LegalityConfig {
                relax_cast_addr: true,
                ..Default::default()
            },
        );
        (strict.num_types(), strict.num_legal(), relaxed.num_legal())
    });

    let mut sum_legal_pct = 0.0;
    let mut sum_relax_pct = 0.0;
    for (w, &(types, legal, relax)) in workloads.iter().zip(&counts) {
        let lp = legal as f64 / types as f64 * 100.0;
        let rp = relax as f64 / types as f64 * 100.0;
        sum_legal_pct += lp;
        sum_relax_pct += rp;
        println!(
            "{:<12} {types:>6} {legal:>7} {lp:>7.1} {relax:>7} {rp:>7.1}   (paper: {:>5} {:>5} {:>5})",
            w.name, w.paper.types, w.paper.legal, w.paper.relax
        );
    }
    println!(
        "{:<12} {:>6} {:>7} {:>7.1} {:>7} {:>7.1}   (paper:          20.9%  65.7%)",
        "Average:",
        "",
        "",
        sum_legal_pct / n as f64,
        "",
        sum_relax_pct / n as f64
    );

    if json {
        record_table(
            "table1",
            TableStats {
                wall_seconds: t0.elapsed().as_secs_f64(),
                instructions: 0,
                cycles: 0,
            },
        );
    }
}
