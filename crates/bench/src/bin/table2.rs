//! Regenerates **Table 2**: "Relative field hotness for a variety of
//! experiments and their correlation to PBO" — the mcf `node_t` study.
//!
//! Columns:
//! * PBO — edge profile from the *training* input,
//! * PPBO — edge profile from the *reference* input ("perfect PBO"),
//! * SPBO / ISPBO / ISPBO.NO / ISPBO.W — the static estimator family,
//! * DMISS / DLAT — d-cache events attributed to fields (instrumented
//!   run), DMISS.NO — the same without instrumentation, which samples
//!   exactly what the instrumented run samples (edge counting touches no
//!   simulated memory; `vm_differential` checks it on every workload
//!   family), so the training profile run answers for it,
//!
//! plus the correlation rows `r` (all fields) and `r'` (ignoring the
//! dominant field, `potential`).

use bench::report::{record_table, TableStats};
use slo::analysis::{
    argmax, correlation, correlation_excluding, relative_hotness, FactTable, WeightScheme,
};
use slo::pipeline::profile_run;
use slo_service::pool::par_map_bounded;
use slo_vm::VmOptions;
use slo_workloads::mcf::{build, NODE_FIELDS, PAPER_PBO_HOTNESS};
use slo_workloads::InputSet;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = bench::bool_flag(&mut args, "--json");
    let t0 = std::time::Instant::now();

    let train = build(InputSet::Training);
    let node = train.types.record_by_name("node").expect("node type");
    let refp = build(InputSet::Reference);

    // The two profile runs are independent; run them in parallel:
    // training (PBO, DMISS, DLAT, DMISS.NO) and reference (PPBO).
    let mut outs = par_map_bounded(0, &[&train, &refp], |p| {
        profile_run(p, &VmOptions::default()).expect("profile run")
    });
    let ref_prof = outs.pop().expect("two runs");
    let prof = outs.pop().expect("two runs");

    let pbo = relative_hotness(&train, node, &WeightScheme::Pbo(&prof.feedback));
    let ppbo = relative_hotness(&refp, node, &WeightScheme::Ppbo(&ref_prof.feedback));
    let spbo = relative_hotness(&train, node, &WeightScheme::Spbo);
    let ispbo = relative_hotness(&train, node, &WeightScheme::Ispbo);
    let ispbo_no = relative_hotness(&train, node, &WeightScheme::IspboNo);
    let ispbo_w = relative_hotness(&train, node, &WeightScheme::IspboW);

    let dc = FactTable::new(&train).attribute_samples(&prof.feedback);
    let dmiss = slo::analysis::dcache::relative_misses(&train, node, &dc);
    let dlat = slo::analysis::dcache::relative_latencies(&train, node, &dc);
    let dmiss_no = dmiss.clone();

    let cols: Vec<(&str, &Vec<f64>)> = vec![
        ("PBO", &pbo),
        ("PPBO", &ppbo),
        ("SPBO", &spbo),
        ("ISPBO", &ispbo),
        ("ISPBO.NO", &ispbo_no),
        ("ISPBO.W", &ispbo_w),
        ("DMISS", &dmiss),
        ("DLAT", &dlat),
        ("DMISS.NO", &dmiss_no),
    ];

    println!("Table 2 — relative field hotness of mcf node_t (percent of hottest)");
    print!("{:<14}", "Field");
    for (name, _) in &cols {
        print!("{name:>10}");
    }
    println!("{:>10}", "paper.PBO");
    for (i, f) in NODE_FIELDS.iter().enumerate() {
        print!("{f:<14}");
        for (_, v) in &cols {
            print!("{:>10.1}", v[i]);
        }
        println!("{:>10.1}", PAPER_PBO_HOTNESS[i]);
    }

    // correlations against our PBO baseline
    let dominant = argmax(&pbo).expect("non-empty hotness vector");
    print!("{:<14}", "r");
    for (_, v) in &cols {
        print!("{:>10.3}", correlation(&pbo, v));
    }
    println!();
    print!("{:<14}", "r'");
    for (_, v) in &cols {
        print!("{:>10.3}", correlation_excluding(&pbo, v, dominant));
    }
    println!();
    println!();
    println!(
        "paper correlations: PPBO 0.986, SPBO 0.693, ISPBO 0.891, ISPBO.NO 0.811, \
         ISPBO.W 0.782, DMISS 0.687, DLAT 0.686, DMISS.NO 0.686"
    );
    println!(
        "correlation(PBO, paper PBO column) = {:.3}",
        correlation(&pbo, &PAPER_PBO_HOTNESS)
    );
    println!(
        "correlation(DMISS, DMISS.NO) = {:.3}  (paper: 0.996 — instrumentation \
         barely disturbs sampling)",
        correlation(&dmiss, &dmiss_no)
    );

    if json {
        let stats = [&prof, &ref_prof];
        record_table(
            "table2",
            TableStats {
                wall_seconds: t0.elapsed().as_secs_f64(),
                instructions: stats.iter().map(|o| o.stats.instructions).sum(),
                cycles: stats.iter().map(|o| o.stats.cycles).sum(),
            },
        );
    }
}
