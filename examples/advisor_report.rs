//! The advisory tool as a standalone analysis (§3): annotated structure
//! definitions with runtime d-cache data, a VCG graph, and layout advice
//! — without applying any transformation.
//!
//! Run with: `cargo run --release --example advisor_report`

use slo::advisor::{classify, render_report, render_vcg, AdvisorInput, ScenarioConfig};
use slo::analysis::ipa::aggregate;
use slo::analysis::{FactTable, LegalityConfig, WeightScheme};
use slo::vm::VmOptions;
use slo_workloads::moldyn::{build_config, MoldynConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prog = build_config(MoldynConfig {
        n: 20_000,
        steps: 6,
        neighbors: 6,
    });

    // PBO collection with PMU sampling attached (HP Caliper style)
    println!("running the instrumented binary with sampling...");
    let out = slo::profile_run(&prog, &VmOptions::default())?;

    let facts = FactTable::new(&prog);
    let ipa = aggregate(
        &prog,
        &facts.analyze_all_units(),
        &LegalityConfig::default(),
    );
    let (graphs, counts) = facts.profitability(&WeightScheme::Pbo(&out.feedback));
    let dcache = facts.attribute_samples(&out.feedback);
    let strides = facts.attribute_strides(&out.feedback);

    let input = AdvisorInput {
        prog: &prog,
        ipa: &ipa,
        graphs: &graphs,
        counts: &counts,
        dcache: Some(&dcache),
        strides: Some(&strides),
        plan: None, // standalone advisory: no transformation planned
    };
    println!("{}", render_report(&input));

    let particle = prog.types.record_by_name("particle").expect("particle");
    println!("---- advice for `particle` ----");
    for advice in classify(
        &prog,
        particle,
        &graphs[&particle],
        &counts,
        Some(&dcache),
        &ScenarioConfig::default(),
    ) {
        println!("  * {advice}");
    }

    // write the VCG control file to the temp directory
    let vcg = render_vcg(&prog, particle, &graphs[&particle]);
    let path = std::env::temp_dir().join("particle.vcg");
    std::fs::write(&path, &vcg)?;
    println!(
        "\nVCG control file written to {} ({} bytes)",
        path.display(),
        vcg.len()
    );
    Ok(())
}
