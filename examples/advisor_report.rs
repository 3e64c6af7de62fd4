//! The advisory tool as a standalone analysis (§3): annotated structure
//! definitions with runtime d-cache data, a VCG graph, and layout advice
//! — without applying any transformation.
//!
//! Run with: `cargo run --release --example advisor_report`

use slo::advisor::{classify, render_report, render_vcg, AdvisorInput, ScenarioConfig};
use slo::analysis::{
    affinity_graphs, analyze_program, attribute_samples, block_frequencies, LegalityConfig,
    WeightScheme,
};
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

    let scheme = WeightScheme::Pbo(&out.feedback);
    let ipa = analyze_program(&prog, &LegalityConfig::default());
    let graphs = affinity_graphs(&prog, &scheme);
    let freqs = block_frequencies(&prog, &scheme);
    let counts = slo::analysis::affinity::build_field_counts(&prog, &freqs);
    let dcache = attribute_samples(&prog, &out.feedback);
    let strides = slo::analysis::attribute_strides(&prog, &out.feedback);

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
