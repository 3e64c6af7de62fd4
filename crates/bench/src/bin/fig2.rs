//! Regenerates **Figure 2**: the advisory tool's annotated type layout
//! output for the mcf workload, plus the VCG control file for the `node`
//! affinity graph (§3.2).

use slo::advisor::{render_report, render_vcg, AdvisorInput};
use slo::analysis::{FactTable, WeightScheme};
use slo::pipeline::{profile_run, PipelineConfig};
use slo_vm::VmOptions;
use slo_workloads::mcf::build;
use slo_workloads::InputSet;

fn main() {
    let prog = build(InputSet::Training);
    let prof = profile_run(&prog, &VmOptions::default()).expect("profile run");
    let scheme = WeightScheme::Pbo(&prof.feedback);
    let cfg = PipelineConfig::builder().attribute_dcache(true).build();

    let res = slo::compile(&prog, &scheme, &cfg).expect("pipeline");
    let (graphs, counts) = (&res.graphs, &res.counts);
    let dcache = res.dcache.as_ref().expect("PBO scheme attributes samples");
    let strides = FactTable::new(&prog).attribute_strides(&prof.feedback);

    let input = AdvisorInput {
        prog: &prog,
        ipa: &res.ipa,
        graphs,
        counts,
        dcache: Some(dcache),
        strides: Some(&strides),
        plan: Some(&res.plan),
    };
    println!("{}", render_report(&input));

    let node = prog.types.record_by_name("node").expect("node type");
    println!("---- VCG control file for `node` ----");
    println!("{}", render_vcg(&prog, node, &graphs[&node]));

    // concrete reordering suggestion (the §3.4 hand-applied advice)
    let suggestion = slo::advisor::suggest_layout(&prog, node, &graphs[&node], 10.0);
    if suggestion.is_nontrivial() {
        println!("{}", slo::advisor::render_suggestion(&prog, &suggestion));
    }

    // §3.3 scenario classification for the hottest type
    println!("---- layout advice for `node` ----");
    for advice in slo::advisor::classify(
        &prog,
        node,
        &graphs[&node],
        counts,
        Some(dcache),
        &slo::advisor::ScenarioConfig::default(),
    ) {
        println!("  * {advice}");
    }
}
