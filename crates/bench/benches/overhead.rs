//! §2.5 compile-time overhead: the paper reports FE overhead of 2.5% on
//! average (max 5%), IPA below 4%, BE 1% (max 2.5%). This bench measures
//! the absolute cost of each pipeline phase on the mcf workload, plus the
//! throughput of the building-block analyses, so regressions in "compile
//! time" are visible.

use criterion::{criterion_group, criterion_main, Criterion};
use slo::analysis::{FactTable, WeightScheme};
use slo::pipeline::{compile, PipelineConfig};
use slo_analysis::ipa::LegalityConfig;
use slo_workloads::mcf::{build_config, McfConfig};

fn programs() -> slo_ir::Program {
    // small instance: phase cost scales with IR size, not run length
    build_config(McfConfig {
        n: 200,
        iters: 4,
        skew: 0,
    })
}

fn bench_fe_legality(c: &mut Criterion) {
    let p = programs();
    c.bench_function("fe_legality_pass", |b| {
        b.iter(|| std::hint::black_box(FactTable::new(&p).analyze_all_units()))
    });
}

fn bench_ipa_aggregate(c: &mut Criterion) {
    let p = programs();
    let summaries = FactTable::new(&p).analyze_all_units();
    c.bench_function("ipa_aggregate", |b| {
        b.iter(|| {
            std::hint::black_box(slo_analysis::ipa::aggregate(
                &p,
                &summaries,
                &LegalityConfig::default(),
            ))
        })
    });
}

fn bench_affinity(c: &mut Criterion) {
    let p = programs();
    let facts = FactTable::new(&p);
    c.bench_function("profitability_ispbo", |b| {
        b.iter(|| std::hint::black_box(facts.profitability(&WeightScheme::Ispbo)))
    });
}

fn bench_whole_pipeline(c: &mut Criterion) {
    let p = programs();
    c.bench_function("pipeline_compile_ispbo", |b| {
        b.iter(|| {
            std::hint::black_box(
                compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("pipeline"),
            )
        })
    });
}

fn bench_phase_split(c: &mut Criterion) {
    // report the per-phase timings the pipeline itself measures
    let p = programs();
    let res = compile(&p, &WeightScheme::Ispbo, &PipelineConfig::default()).expect("pipeline");
    println!(
        "phase timings (one compile): FE {:?}, IPA {:?}, BE {:?}",
        res.timings.fe, res.timings.ipa, res.timings.be
    );
    c.bench_function("be_apply_plan", |b| {
        b.iter(|| std::hint::black_box(slo_transform::apply_plan(&p, &res.plan).expect("rewrite")))
    });
}

criterion_group!(
    benches,
    bench_fe_legality,
    bench_ipa_aggregate,
    bench_affinity,
    bench_whole_pipeline,
    bench_phase_split
);
criterion_main!(benches);
