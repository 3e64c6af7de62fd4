//! Regenerates **Table 3**: "Transformable/transformed types and
//! performance impact".
//!
//! Each benchmark runs through the full pipeline (legality → profitability
//! → heuristics → rewrite) and both versions execute on the simulated
//! machine. For 181.mcf and moldyn both the PBO and the non-profile
//! (ISPBO) configurations are shown, as in the paper.
//!
//! The per-benchmark measurements are independent, so they run in
//! parallel across all cores (`slo_service::pool`); rows print in
//! table order once every worker is done. A benchmark's rows share one
//! baseline run. `--json` additionally records wall time and the
//! simulated-instruction throughput of the runs that executed in
//! `BENCH_vm.json`.

use bench::report::{record_table, TableStats};
use bench::{measure, opt_pct, pct};
use slo_service::pool::par_map_bounded;
use slo_workloads::{all, InputSet, Workload};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = bench::bool_flag(&mut args, "--json");
    let t0 = std::time::Instant::now();

    // one (workload, pbo settings) config per benchmark, one output row
    // per setting
    let configs: Vec<(Workload, &[bool])> = all(InputSet::Training)
        .into_iter()
        .map(|w| {
            let both = matches!(w.name, "181.mcf" | "moldyn");
            let pbos: &[bool] = if both { &[false, true] } else { &[false] };
            (w, pbos)
        })
        .collect();

    let rows: Vec<_> = par_map_bounded(0, &configs, |(w, pbos)| measure(w, pbos))
        .into_iter()
        .flatten()
        .collect();

    println!("Table 3 — transformed types and performance impact");
    println!(
        "{:<12} {:>4} {:>3} {:>4} {:>6} {:>9} {:>9}",
        "Benchmark", "PBO", "T", "T_t", "S/D", "Perf%", "paper%"
    );
    for row in &rows {
        println!(
            "{:<12} {:>4} {:>3} {:>4} {:>3}/{:<2} {} {}",
            row.name,
            if row.pbo { "yes" } else { "no" },
            row.types,
            row.transformed,
            row.split_fields,
            row.dead_fields,
            pct(row.perf),
            opt_pct(row.paper),
        );
    }
    println!();
    println!("paper: mcf +16.7/+17.3, art +78.2, moldyn +21.8/+30.9, others in the noise");

    if json {
        record_table(
            "table3",
            TableStats {
                wall_seconds: t0.elapsed().as_secs_f64(),
                instructions: rows.iter().map(|r| r.instructions).sum(),
                cycles: rows.iter().map(|r| r.cycles).sum(),
            },
        );
    }
}
