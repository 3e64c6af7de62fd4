//! Integration tests pinning the paper's headline claims on small
//! instances of the workloads (the bench binaries run the full-size
//! versions).

use slo::analysis::{
    analyze_program, correlation, relative_hotness, FactTable, LegalityConfig, WeightScheme,
};
use slo::pipeline::{collect_profile, compile, evaluate, PipelineConfig};
use slo::vm::VmOptions;
use slo_workloads::{census, mcf, CENSUS_SPECS};

/// Table 1: every census benchmark reproduces its strict/relaxed counts.
#[test]
fn table1_census_counts_reproduce() {
    for spec in &CENSUS_SPECS {
        let p = census::generate(spec, 1);
        let strict = analyze_program(&p, &LegalityConfig::default());
        assert_eq!(strict.num_types(), spec.types, "{}: types", spec.name);
        assert_eq!(strict.num_legal(), spec.legal, "{}: legal", spec.name);
        let relaxed = analyze_program(
            &p,
            &LegalityConfig {
                relax_cast_addr: true,
                ..Default::default()
            },
        );
        assert_eq!(relaxed.num_legal(), spec.relax, "{}: relax", spec.name);
    }
}

/// Table 1's punchline: relaxation widens legality a lot, but the set of
/// *transformed* types stays exactly the same.
#[test]
fn relaxation_does_not_change_transformed_set() {
    let p = mcf::build_config(mcf::McfConfig {
        n: 800,
        iters: 30,
        skew: 0,
    });
    let strict =
        compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("strict compile");
    let relaxed = compile(
        &p,
        &WeightScheme::Ispbo,
        &PipelineConfig {
            legality: LegalityConfig {
                relax_cast_addr: true,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("relaxed compile");
    assert_eq!(
        strict.plan.num_transformed(),
        relaxed.plan.num_transformed(),
        "the number of transformed types must remain constant (§2.2)"
    );
}

/// Table 2: our measured PBO hotness column matches the paper's, and the
/// static schemes are ranked sensibly against it.
#[test]
fn table2_hotness_shape() {
    let p = mcf::build_config(mcf::McfConfig {
        n: 1_200,
        iters: 60,
        skew: 0,
    });
    let node = p.types.record_by_name("node").expect("node");
    let fb = collect_profile(&p).expect("profile");
    let pbo = relative_hotness(&p, node, &WeightScheme::Pbo(&fb));
    let r_paper = correlation(&pbo, &mcf::PAPER_PBO_HOTNESS);
    assert!(r_paper > 0.95, "PBO vs paper column: {r_paper}");

    let spbo = relative_hotness(&p, node, &WeightScheme::Spbo);
    let ispbo = relative_hotness(&p, node, &WeightScheme::Ispbo);
    let r_spbo = correlation(&pbo, &spbo);
    let r_ispbo = correlation(&pbo, &ispbo);
    assert!(
        r_ispbo >= r_spbo - 1e-9,
        "ISPBO ({r_ispbo:.3}) must not trail SPBO ({r_spbo:.3})"
    );
    assert!(r_spbo < 0.95, "static estimates must be visibly imperfect");
}

/// Table 3 shape on small instances: the three profitable workloads all
/// gain from their transformations; the semantic guard inside `evaluate`
/// doubles as a correctness check.
#[test]
fn table3_transformations_speed_up_small_instances() {
    // mcf: splitting (small instance is L2/L3-resident, so the gain is
    // smaller than the full-size run; it must at least not regress much)
    let p = mcf::build_config(mcf::McfConfig {
        n: 3_000,
        iters: 30,
        skew: 0,
    });
    let res = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("mcf");
    assert_eq!(res.plan.num_transformed(), 1);
    let e = evaluate(&p, &res.program, &VmOptions::default()).expect("mcf eval");
    assert!(
        e.speedup_percent() > -8.0,
        "mcf small: {:.1}%",
        e.speedup_percent()
    );

    // art: peeling must win even at small sizes (density on every pass)
    let p = slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
        n: 30_000,
        passes: 6,
    });
    let res = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("art");
    assert_eq!(res.plan.num_transformed(), 1);
    let e = evaluate(&p, &res.program, &VmOptions::default()).expect("art eval");
    assert!(
        e.speedup_percent() > 0.0,
        "art small: {:.1}%",
        e.speedup_percent()
    );
}

/// §2.4: forcing hot fields out of the root degrades performance, and
/// splitting out two hot fields is worse than one.
#[test]
fn forced_hot_split_degrades() {
    let p = mcf::build_config(mcf::McfConfig {
        n: 12_000,
        iters: 25,
        skew: 0,
    });
    let base_plan = slo_transform::forced_split(
        &p,
        "node",
        &["number", "sibling_prev", "firstout", "firstin"],
    )
    .expect("base plan");
    let good = slo_transform::apply_plan(&p, &base_plan).expect("good split");

    let bad_plan = slo_transform::forced_split(
        &p,
        "node",
        &[
            "number",
            "sibling_prev",
            "firstout",
            "firstin",
            "pred",
            "potential",
        ],
    )
    .expect("bad plan");
    let bad = slo_transform::apply_plan(&p, &bad_plan).expect("bad split");

    let opts = VmOptions::default();
    let e = evaluate(&good, &bad, &opts).expect("compare");
    assert!(
        e.speedup_percent() < 0.0,
        "splitting out the hottest fields must degrade: {:.1}%",
        e.speedup_percent()
    );
}

/// moldyn PBO divergence: the profiled build splits the boundary fields,
/// the static build does not (§2.3's mis-classification risk, Table 3's
/// PBO advantage).
#[test]
fn moldyn_pbo_splits_more_boundary_fields() {
    let p = slo_workloads::moldyn::build_config(slo_workloads::moldyn::MoldynConfig {
        n: 2_000,
        steps: 12,
        neighbors: 6,
    });
    let particle = p.types.record_by_name("particle").expect("particle");
    let bidx = slo_workloads::moldyn::particle_field("bflag");

    let fb = collect_profile(&p).expect("profile");
    let pbo = compile(&p, &WeightScheme::Pbo(&fb), &PipelineConfig::default()).expect("pbo");
    let ispbo = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("ispbo");

    let splits = |plan: &slo_transform::TransformPlan| -> Vec<u32> {
        match plan.of(particle) {
            slo_transform::TypeTransform::Split { cold, .. } => cold.clone(),
            _ => vec![],
        }
    };
    let pbo_cold = splits(&pbo.plan);
    let ispbo_cold = splits(&ispbo.plan);
    assert!(
        pbo_cold.contains(&bidx),
        "PBO must split the boundary field: {pbo_cold:?}"
    );
    assert!(
        !ispbo_cold.contains(&bidx),
        "the 50% static branch heuristic must keep it hot: {ispbo_cold:?}"
    );
}

/// The advisory report carries the Figure 2 ingredients for a real
/// workload, end to end.
#[test]
fn advisor_report_end_to_end() {
    let p = mcf::build_config(mcf::McfConfig {
        n: 800,
        iters: 30,
        skew: 0,
    });
    let out = slo::vm::run(&p, &VmOptions::profiling()).expect("run");
    let ipa = analyze_program(&p, &LegalityConfig::default());
    let facts = FactTable::new(&p);
    let (graphs, counts) = facts.profitability(&WeightScheme::Pbo(&out.feedback));
    let dcache = facts.attribute_samples(&out.feedback);
    let strides = facts.attribute_strides(&out.feedback);
    let input = slo::advisor::AdvisorInput {
        prog: &p,
        ipa: &ipa,
        graphs: &graphs,
        counts: &counts,
        dcache: Some(&dcache),
        strides: Some(&strides),
        plan: None,
    };
    let report = slo::advisor::render_report(&input);
    assert!(report.contains("Type     : node"));
    assert!(report.contains("\"potential\""));
    assert!(report.contains("*unused*"), "ident must be flagged unused");
    assert!(report.contains("aff:"));
    assert!(report.contains("miss :"));
    assert!(report.contains("stride:"), "stride info must be attributed");
    // node is the hottest type: it is reported first
    let node_pos = report.find("Type     : node").expect("node");
    for other in ["arc", "basket", "network", "stats"] {
        let pos = report
            .find(&format!("Type     : {other}"))
            .expect("type present");
        assert!(node_pos < pos, "node must be first, before {other}");
    }
    // VCG output is well-formed for every type
    for rid in p.types.record_ids() {
        let vcg = slo::advisor::render_vcg(&p, rid, &graphs[&rid]);
        assert!(vcg.starts_with("graph: {"));
        assert!(vcg.trim_end().ends_with('}'));
    }
}

/// Feedback files survive serialization (the PBO use phase reads what the
/// collection phase wrote).
#[test]
fn feedback_file_roundtrip_through_text() {
    let p = mcf::build_config(mcf::McfConfig {
        n: 600,
        iters: 10,
        skew: 0,
    });
    let fb = collect_profile(&p).expect("profile");
    let text = fb.to_text();
    let back = slo::vm::Feedback::from_text(&text).expect("parse");
    assert_eq!(fb, back);
    // and the reloaded profile drives the same plan
    let plan_a = compile(&p, &WeightScheme::Pbo(&fb), &PipelineConfig::default())
        .expect("compile a")
        .plan;
    let plan_b = compile(&p, &WeightScheme::Pbo(&back), &PipelineConfig::default())
        .expect("compile b")
        .plan;
    let node = p.types.record_by_name("node").expect("node");
    assert_eq!(plan_a.of(node), plan_b.of(node));
}

/// §2.4: "The stride distance is usually a multiple of the size of the
/// underlying type... Since type sizes change during structure splitting
/// we were updating the stride distances as well." Verify the collected
/// dominant stride tracks the element size across the transformation.
#[test]
fn strides_track_element_size_across_split() {
    let p = mcf::build_config(mcf::McfConfig {
        n: 1_000,
        iters: 20,
        skew: 0,
    });
    let node = p.types.record_by_name("node").expect("node");
    let size_before = p.types.layout_of(node).size;
    assert_eq!(size_before, 120);

    let stride_of = |prog: &slo::ir::Program| -> i64 {
        let fb = collect_profile(prog).expect("profile");
        let strides = FactTable::new(prog).attribute_strides(&fb);
        // refresh1 walks a rotating window sequentially reading `pred`
        // (looked up by name: splitting reorders the field indices)
        let rid = prog.types.record_by_name("node").expect("node");
        let pred = prog
            .types
            .record(rid)
            .field_index("pred")
            .expect("pred survives the split") as u32;
        strides.get(&(rid, pred)).map(|s| s.dominant).unwrap_or(0)
    };
    assert_eq!(stride_of(&p) as u64, size_before);

    let res = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("compile");
    let size_after = res.program.types.layout_of(node).size;
    assert!(size_after < size_before, "split must shrink the root");
    assert_eq!(
        stride_of(&res.program) as u64,
        size_after,
        "the collected stride must follow the new element size"
    );
}
