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
use bench::report::{record_table, TableStats};
use slo_service::pool::par_map_bounded;
use slo_workloads::{PaperRow, Workload};

const USAGE: &str = "usage: tune mcf <n> <iters> [pbo] | art <n> <passes> \
| moldyn <n> <steps> <neighbors> [pbo] | c <n> <iters> <unroll01> | cpp <n> <iters> [--json]";

/// The workload, its numeric arguments in order, and whether `pbo`
/// follows them; the error names the bad or missing argument.
fn parse_args(args: &[String]) -> Result<(&str, Vec<i64>, bool), String> {
    let workload = args.get(1).ok_or("missing workload")?;
    let names: &[&str] = match workload.as_str() {
        "mcf" | "cpp" => &["n", "iters"],
        "art" => &["n", "passes"],
        "moldyn" => &["n", "steps", "neighbors"],
        "c" => &["n", "iters", "unroll01"],
        other => return Err(format!("unknown workload `{other}`")),
    };
    let nums = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let v = args.get(2 + i).ok_or(format!("missing <{name}>"))?;
            v.parse()
                .map_err(|_| format!("<{name}> takes a number, not `{v}`"))
        })
        .collect::<Result<_, String>>()?;
    let pbo = args.get(2 + names.len()).is_some_and(|s| s == "pbo");
    Ok((workload, nums, pbo))
}

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let json = bench::bool_flag(&mut args, "--json");
    let (workload, n, pbo) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let paper = PaperRow {
        types: 0,
        legal: 0,
        relax: 0,
        transformed: 0,
        perf_pbo: None,
        perf_nopbo: None,
    };
    let (program, pbo) = match workload {
        "mcf" => (
            slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
                n: n[0],
                iters: n[1],
                skew: 0,
            }),
            pbo,
        ),
        "art" => (
            slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
                n: n[0],
                passes: n[1],
            }),
            false,
        ),
        "moldyn" => (
            slo_workloads::moldyn::build_config(slo_workloads::moldyn::MoldynConfig {
                n: n[0],
                steps: n[1],
                neighbors: n[2],
            }),
            pbo,
        ),
        "c" => (
            slo_workloads::casestudy::spec2006_c(n[0], n[1], n[2] != 0),
            false,
        ),
        _ => (slo_workloads::casestudy::spec2006_cpp(n[0], n[1]), false),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(String, Vec<i64>, bool), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args).map(|(w, n, pbo)| (w.to_string(), n, pbo))
    }

    #[test]
    fn arguments_parse_and_a_bad_one_is_named() {
        assert_eq!(
            parse("tune mcf 64 10 pbo"),
            Ok(("mcf".into(), vec![64, 10], true))
        );
        assert_eq!(parse("tune cpp 8 2"), Ok(("cpp".into(), vec![8, 2], false)));
        assert_eq!(parse("tune"), Err("missing workload".into()));
        assert_eq!(
            parse("tune cpp abc 2"),
            Err("<n> takes a number, not `abc`".into())
        );
        assert_eq!(parse("tune moldyn 8 2"), Err("missing <neighbors>".into()));
        assert_eq!(parse("tune gcc 1"), Err("unknown workload `gcc`".into()));
    }
}
