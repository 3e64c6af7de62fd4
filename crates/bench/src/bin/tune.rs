//! Internal calibration helper: measure one workload's transformation
//! speedup at explicit sizes. Not part of the paper reproduction; used to
//! pick the committed workload configurations.
//!
//! ```text
//! tune mcf <n> <iters> [pbo]
//! tune art <n> <passes>
//! tune moldyn <n> <steps> <neighbors> [pbo]
//! tune c <n> <iters> <unroll01>
//! tune cpp <n> <iters>
//! ```

use bench::measure;
use bench::report::{json_flag, record_table, TableStats};
use slo_service::pool::par_map_bounded;
use slo_workloads::{PaperRow, Workload};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let json = json_flag(&mut args);
    let get = |i: usize| -> i64 { args[i].parse().expect("numeric arg") };
    let paper = PaperRow {
        types: 0,
        legal: 0,
        relax: 0,
        transformed: 0,
        perf_pbo: None,
        perf_nopbo: None,
    };
    let (program, pbo) = match args[1].as_str() {
        "mcf" => (
            slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
                n: get(2),
                iters: get(3),
                skew: 0,
            }),
            args.get(4).map(|s| s == "pbo").unwrap_or(false),
        ),
        "art" => (
            slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
                n: get(2),
                passes: get(3),
            }),
            false,
        ),
        "moldyn" => (
            slo_workloads::moldyn::build_config(slo_workloads::moldyn::MoldynConfig {
                n: get(2),
                steps: get(3),
                neighbors: get(4),
            }),
            args.get(5).map(|s| s == "pbo").unwrap_or(false),
        ),
        "c" => (
            slo_workloads::casestudy::spec2006_c(get(2), get(3), get(4) != 0),
            false,
        ),
        "cpp" => (
            slo_workloads::casestudy::spec2006_cpp(get(2), get(3)),
            false,
        ),
        other => panic!("unknown workload `{other}`"),
    };
    let w = Workload {
        name: "tune",
        program,
        paper,
    };
    let t0 = std::time::Instant::now();
    if std::env::var("TUNE_STATS").is_ok() {
        let res = slo::compile(
            &w.program,
            &slo::analysis::WeightScheme::Ispbo,
            &slo::pipeline::PipelineConfig::default(),
        )
        .expect("pipeline");
        // baseline and optimized stat runs are independent; an empty
        // plan leaves one program, measured once
        let mut progs = vec![(&w.program, "baseline ")];
        if res.plan.num_transformed() > 0 {
            let text = slo_ir::printer::print_program;
            let same = text(&w.program) == text(&res.program);
            assert!(!same, "the rewrite left the program as it was");
            progs.push((&res.program, "optimized"));
        }
        let outs = par_map_bounded(0, &progs, |(p, _)| {
            slo::pipeline::baseline_run(p, &slo_vm::VmOptions::default()).expect("run")
        });
        for ((_, tag), out) in progs.iter().zip(&outs) {
            println!(
                "{tag}: instr={} cycles={} loads={} stores={} l1m={} l2m={} l3m={} mem={}",
                out.stats.instructions,
                out.stats.cycles,
                out.stats.loads,
                out.stats.stores,
                out.stats.cache.levels[0].misses,
                out.stats.cache.levels[1].misses,
                out.stats.cache.levels[2].misses,
                out.stats.cache.memory_accesses
            );
        }
    }
    let row = measure(&w, &[pbo]).remove(0);
    println!(
        "perf {:+.1}%  T_t={} S/D={}/{}  (wall {:?})",
        row.perf,
        row.transformed,
        row.split_fields,
        row.dead_fields,
        t0.elapsed()
    );
    if json {
        record_table(
            "tune",
            TableStats {
                wall_seconds: t0.elapsed().as_secs_f64(),
                instructions: row.instructions,
                cycles: row.cycles,
            },
        );
    }
}
