//! Shared helpers for the experiment binaries (tables, figures, case
//! studies) and the Criterion benches.

pub mod par;
pub mod report;

use slo::analysis::WeightScheme;
use slo::pipeline::{compile, evaluate, evaluate_against, PipelineConfig};
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
    /// Simulated instructions retired (baseline + optimized runs).
    pub instructions: u64,
    /// Simulated cycles (baseline + optimized runs).
    pub cycles: u64,
}

/// Run the full pipeline on a workload (optionally with PBO) and measure
/// the before/after cycle change on the simulated machine.
///
/// # Panics
///
/// Panics when compilation or execution fails — experiment binaries want
/// loud failures.
pub fn measure(w: &Workload, pbo: bool) -> PerfRow {
    // the instrumented profile run doubles as the baseline evaluation
    let profile =
        pbo.then(|| slo_vm::run(&w.program, &VmOptions::profiling()).expect("profile run"));
    let scheme = match &profile {
        Some(p) => WeightScheme::Pbo(&p.feedback),
        None => WeightScheme::Ispbo,
    };
    let res = compile(&w.program, &scheme, &PipelineConfig::default()).expect("pipeline");
    let plain = VmOptions::default();
    let eval = match &profile {
        Some(p) => evaluate_against(p, &res.program, &plain),
        None => evaluate(&w.program, &res.program, &plain),
    }
    .expect("evaluate");

    let mut split_fields = 0;
    let mut dead_fields = 0;
    for t in res.plan.types.values() {
        let (s, d) = t.sd_count();
        split_fields += s;
        dead_fields += d;
    }
    PerfRow {
        name: w.name,
        pbo,
        types: w.paper.types,
        transformed: res.plan.num_transformed(),
        split_fields,
        dead_fields,
        perf: eval.speedup_percent(),
        paper: if pbo {
            w.paper.perf_pbo
        } else {
            w.paper.perf_nopbo
        },
        instructions: eval.baseline_instructions + eval.optimized_instructions,
        cycles: eval.baseline_cycles + eval.optimized_cycles,
    }
}
