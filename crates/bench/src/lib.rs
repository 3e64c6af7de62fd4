//! Shared helpers for the experiment binaries (tables, figures, case
//! studies) and the Criterion benches.

pub mod report;

use slo::analysis::WeightScheme;
use slo::pipeline::{baseline_run, compile, evaluate_against, profile_run, PipelineConfig};
use slo_service::{Job, JobOutcome, JobStatus, SchemeSpec};
use slo_vm::VmOptions;
use slo_workloads::Workload;

/// Format a percentage column with one decimal, right-aligned.
pub fn pct(v: f64) -> String {
    format!("{v:>7.1}")
}

/// Format an optional paper value.
pub fn opt_pct(v: Option<f64>) -> String {
    match v {
        Some(x) => pct(x),
        None => "      -".to_string(),
    }
}

/// One measured Table 3 row.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Whether a profile was used.
    pub pbo: bool,
    /// Total record types.
    pub types: usize,
    /// Transformed types.
    pub transformed: usize,
    /// Split-out fields.
    pub split_fields: usize,
    /// Dead fields removed.
    pub dead_fields: usize,
    /// Measured performance impact in percent.
    pub perf: f64,
    /// The paper's value for the same configuration, if printed.
    pub paper: Option<f64>,
    /// Simulated instructions retired by the runs this row executed:
    /// its transformed run unless the plan is empty, plus, in the first
    /// row of a workload, the baseline run all its rows share.
    pub instructions: u64,
    /// Simulated cycles of the same runs.
    pub cycles: u64,
}

/// Run the full pipeline on a workload once per entry of `pbos` (PBO
/// when `true`, ISPBO otherwise) and measure each before/after cycle
/// change on the simulated machine. The rows share one baseline run:
/// the instrumented profile run when a row uses PBO, a plain run
/// otherwise.
///
/// # Panics
///
/// Panics when compilation or execution fails — experiment binaries want
/// loud failures.
pub fn measure(w: &Workload, pbos: &[bool]) -> Vec<PerfRow> {
    let opts = VmOptions::default();
    let base = if pbos.contains(&true) {
        profile_run(&w.program, &opts)
    } else {
        baseline_run(&w.program, &opts)
    }
    .expect("baseline run");
    let mut rows = Vec::with_capacity(pbos.len());
    for &pbo in pbos {
        let scheme = if pbo {
            WeightScheme::Pbo(&base.feedback)
        } else {
            WeightScheme::Ispbo
        };
        let res = compile(&w.program, &scheme, &PipelineConfig::default()).expect("pipeline");
        let eval = evaluate_against(&base, &res.plan, &res.program, &opts).expect("evaluate");

        let mut split_fields = 0;
        let mut dead_fields = 0;
        for t in res.plan.types.values() {
            let (s, d) = t.sd_count();
            split_fields += s;
            dead_fields += d;
        }
        let transformed = res.plan.num_transformed();
        let first = rows.is_empty();
        let executed = |base: u64, optimized: u64| {
            (if first { base } else { 0 }) + (if transformed > 0 { optimized } else { 0 })
        };
        rows.push(PerfRow {
            name: w.name,
            pbo,
            types: w.paper.types,
            transformed,
            split_fields,
            dead_fields,
            perf: eval.speedup_percent(),
            paper: if pbo {
                w.paper.perf_pbo
            } else {
                w.paper.perf_nopbo
            },
            instructions: executed(base.stats.instructions, eval.optimized_instructions),
            cycles: executed(base.stats.cycles, eval.optimized_cycles),
        });
    }
    rows
}

/// `n` jobs cycling through `programs`, each full cycle under the next
/// of the four static and inter-procedural schemes.
pub fn mixed_jobs(programs: &[(&str, slo_ir::Program)], n: usize) -> Vec<Job> {
    use SchemeSpec::{Ispbo, IspboNo, IspboW, Spbo};
    let schemes = [Ispbo, Spbo, IspboNo, IspboW];
    (0..n)
        .map(|i| {
            let (name, prog) = &programs[i % programs.len()];
            let scheme = schemes[(i / programs.len()) % schemes.len()].clone();
            Job::from_program(format!("{name}#{i}"), prog.clone()).scheme(scheme)
        })
        .collect()
}

/// The comparable essence of an outcome: everything but timings and
/// supervision bookkeeping (attempts may differ under chaos, the bits
/// must not). An advisory outcome's report is included `with_report`.
pub fn digest(o: &JobOutcome, with_report: bool) -> String {
    match &o.status {
        JobStatus::Optimized(opt) => format!(
            "{} optimized {} {} {} {} {} {:016x}\n{}",
            o.id,
            opt.num_transformed,
            opt.eval.baseline_cycles,
            opt.eval.optimized_cycles,
            opt.eval.baseline_instructions,
            opt.eval.optimized_instructions,
            opt.ipa_fingerprint,
            opt.transformed
        ),
        JobStatus::Advisory { reason, report } if with_report => format!(
            "{} advisory {} {}",
            o.id,
            reason.kind(),
            report.as_deref().unwrap_or("-")
        ),
        JobStatus::Advisory { reason, .. } => format!("{} advisory {}", o.id, reason.kind()),
        JobStatus::Failed(msg) => format!("{} failed {msg}", o.id),
    }
}

/// Whether the switch `name` is among `args`; strips it so the rest
/// parse positionally.
pub fn bool_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// The count given as `name N`, or `None` when `name` is absent. A
/// missing or unparseable value exits with code 2, naming the flag.
pub fn flag_value(args: &[String], name: &str) -> Option<usize> {
    parse_flag(args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn parse_flag(args: &[String], name: &str) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let v = args.get(i + 1).ok_or(format!("{name} needs a value"))?;
    let bad = |_| format!("{name} takes a count, not `{v}`");
    v.parse().map(Some).map_err(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_a_bad_value_names_its_flag() {
        let args: Vec<String> = ["--jobs", "12", "--workers", "abc", "--seeds"]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_flag(&args, "--jobs"), Ok(Some(12)));
        assert_eq!(parse_flag(&args, "--queue"), Ok(None));
        assert_eq!(
            parse_flag(&args, "--workers"),
            Err("--workers takes a count, not `abc`".to_string())
        );
        assert_eq!(
            parse_flag(&args, "--seeds"),
            Err("--seeds needs a value".to_string())
        );
        let mut args = args;
        assert!(bool_flag(&mut args, "--jobs"));
        assert!(!bool_flag(&mut args, "--jobs"));
        assert_eq!(args, ["12", "--workers", "abc", "--seeds"]);
    }
    use slo_workloads::{census, PaperRow, CENSUS_SPECS};

    #[test]
    fn measure_counts_only_the_runs_that_executed() {
        // ISPBO transforms none of the smallest census program's types
        let w = Workload {
            name: "milc",
            program: census::generate(&CENSUS_SPECS[0], 1),
            paper: PaperRow {
                types: 20,
                legal: 5,
                relax: 12,
                transformed: 0,
                perf_pbo: None,
                perf_nopbo: None,
            },
        };
        let base = baseline_run(&w.program, &VmOptions::default()).expect("baseline");
        let rows = measure(&w, &[false, false]);
        assert_eq!(rows[0].transformed, 0);
        assert_eq!(rows[0].perf, 0.0);
        assert_eq!(rows[0].instructions, base.stats.instructions);
        assert_eq!(rows[0].cycles, base.stats.cycles);
        assert_eq!((rows[1].instructions, rows[1].cycles), (0, 0));
    }
}
