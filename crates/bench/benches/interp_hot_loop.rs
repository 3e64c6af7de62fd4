//! VM hot-loop throughput: pre-decoded engine vs the structured
//! reference interpreter, on the two workloads the paper's headline
//! numbers come from (181.mcf and 179.art).
//!
//! Throughput is reported in simulated instructions per host second —
//! the substrate's own figure of merit. The decoded numbers amortize the
//! decode pass by pre-building the [`DecodedProgram`] once, which is how
//! every repeated-execution consumer (the tables, `evaluate`) uses it.
//!
//! After the Criterion runs, a short manual timing pass records the
//! current decoded/structured instructions-per-second datapoint in
//! `BENCH_vm.json` (under `hot_loop`), so the engine's speed is tracked
//! across PRs like any other benchmark.
//!
//! The same pass measures the observability tax on the decoded hot
//! loop: the default (untraced) options against an enabled recorder
//! whose sample interval exceeds the run, so it takes no sample — which
//! must stay within 3% (asserted here) — and against an enabled
//! recorder sampling counters every 2^16 steps. A traced
//! compile of the mcf model also contributes the per-phase wall-clock
//! breakdown stored under `phases` in `BENCH_vm.json`.

use criterion::{criterion_group, Criterion, Throughput};
use slo::analysis::WeightScheme;
use slo::PipelineConfig;
use slo_ir::Program;
use slo_obs::{EventKind, Recorder};
use slo_vm::{run, run_decoded, DecodedProgram, VmOptions};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Mid-sized configs: a few million simulated instructions per run, so
/// one Criterion sample holds several full executions.
fn workloads() -> Vec<(&'static str, Program)> {
    vec![
        (
            "mcf",
            slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
                n: 10_000,
                iters: 10,
                skew: 0,
            }),
        ),
        (
            "art",
            slo_workloads::art::build_config(slo_workloads::art::ArtConfig {
                n: 100_000,
                passes: 4,
            }),
        ),
    ]
}

fn bench_hot_loop(c: &mut Criterion) {
    for (name, prog) in workloads() {
        let dec = DecodedProgram::new(&prog);
        let opts = VmOptions::plain();
        let instrs = run_decoded(&prog, &dec, &opts)
            .expect("reference run")
            .stats
            .instructions;

        let mut g = c.benchmark_group(format!("hot_loop/{name}"));
        g.throughput(Throughput::Elements(instrs));
        g.bench_function("decoded", |b| {
            b.iter(|| black_box(run_decoded(&prog, &dec, &opts).expect("decoded run")))
        });
        g.bench_function("structured", |b| {
            let sopts = opts.clone().structured();
            b.iter(|| black_box(run(&prog, &sopts).expect("structured run")))
        });
        g.bench_function("decoded_noop_trace", |b| {
            let topts = never_sampling();
            b.iter(|| black_box(run_decoded(&prog, &dec, &topts).expect("decoded run")))
        });
        g.finish();
    }
}

/// Rounds of alternating runs behind each recorded figure.
const ROUNDS: usize = 11;

/// Simulated instructions per host second of each configuration over
/// `ROUNDS` rounds, one run of every configuration per round, in
/// reverse order every other round: host drift then falls on all of
/// them alike, and a per-round ratio compares runs made moments apart.
fn alternate(configs: &mut [&mut dyn FnMut() -> u64]) -> Vec<Vec<f64>> {
    let n = configs.len();
    let mut ips = vec![Vec::with_capacity(ROUNDS); n];
    for round in 0..ROUNDS {
        for k in 0..n {
            let c = if round % 2 == 0 { k } else { n - 1 - k };
            let t = std::time::Instant::now();
            let instrs = configs[c]();
            ips[c].push(instrs as f64 / t.elapsed().as_secs_f64().max(1e-9));
        }
    }
    ips
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median over rounds of `a[i] / b[i]`.
fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(x, y)| x / y).collect();
    median(&ratios)
}

fn record_trajectory() {
    for (name, prog) in workloads() {
        let dec = DecodedProgram::new(&prog);
        let opts = VmOptions::plain();
        let sopts = opts.clone().structured();
        let ips = alternate(&mut [
            &mut || {
                run_decoded(&prog, &dec, &opts)
                    .expect("decoded run")
                    .stats
                    .instructions
            },
            &mut || {
                run(&prog, &sopts)
                    .expect("structured run")
                    .stats
                    .instructions
            },
        ]);
        let speedup = median_ratio(&ips[0], &ips[1]);
        let [d, s] = [&ips[0], &ips[1]].map(|x| median(x));
        bench::report::record_hot_loop(name, d, s, speedup);
    }
}

/// Options with an enabled recorder that never samples: the interval
/// exceeds any run, so the hot loop takes the untraced path and only the
/// per-run `vm.run` span is recorded. (An explicit `Recorder::disabled()`
/// is the default, so it would compare the untraced options with
/// themselves.)
fn never_sampling() -> VmOptions {
    VmOptions::builder()
        .trace(Recorder::enabled())
        .trace_step_interval(u64::MAX)
        .build()
}

/// Measure the observability tax on the decoded engine and assert the
/// near-zero-cost-when-not-sampling budget: an enabled recorder that
/// never samples must stay within 3% of the untraced default. The three
/// configurations run alternately and the overhead is the median of the
/// per-round ratios; one re-measure (the lower overhead counts) before
/// declaring a violation so a single scheduler hiccup can't fail the
/// bench.
fn record_trace_overhead() {
    for (name, prog) in workloads() {
        let dec = DecodedProgram::new(&prog);
        let untraced_opts = VmOptions::plain();
        let noop_opts = never_sampling();
        let sampled_rec = Recorder::with_capacity(1 << 12);
        let sampled_opts = VmOptions::builder()
            .trace(sampled_rec.clone())
            .trace_step_interval(1 << 16)
            .build();
        let instrs = |opts: &VmOptions| {
            run_decoded(&prog, &dec, opts)
                .expect("decoded run")
                .stats
                .instructions
        };
        let measure = || {
            let ips = alternate(&mut [
                &mut || instrs(&untraced_opts),
                &mut || instrs(&noop_opts),
                &mut || instrs(&sampled_opts),
            ]);
            let overhead = median_ratio(&ips[0], &ips[1]) - 1.0;
            (ips, overhead)
        };
        let (mut ips, mut overhead) = measure();
        if overhead > 0.03 {
            let again = measure();
            if again.1 < overhead {
                (ips, overhead) = again;
            }
        }
        assert!(
            noop_opts
                .trace
                .events()
                .iter()
                .all(|e| e.kind != EventKind::Counter),
            "hot_loop/{name}: the never-sampling recorder took a sample"
        );
        assert!(
            overhead <= 0.03,
            "hot_loop/{name}: a never-sampling recorder costs {:.2}% over the \
             untraced decoded engine (budget: 3%)",
            overhead * 100.0
        );
        let [baseline, noop, sampled] = [&ips[0], &ips[1], &ips[2]].map(|x| median(x));
        bench::report::record_hot_loop_trace(name, baseline, noop, sampled, overhead * 100.0);
    }
}

/// Run one traced compile of the mcf model (plus a text round-trip so a
/// `parse` span is present) and fold the pipeline spans into per-phase
/// wall-clock totals for `phases.compile_mcf`.
fn record_phase_breakdown() {
    let prog = slo_workloads::mcf::build_config(slo_workloads::mcf::McfConfig {
        n: 2_000,
        iters: 4,
        skew: 0,
    });
    let rec = Recorder::enabled();
    {
        let mut s = rec.span("pipeline", "parse");
        let text = slo_ir::printer::print_program(&prog);
        let reparsed = slo_ir::parser::parse(&text).expect("IR text round-trip");
        s.arg("units", reparsed.funcs.len() as u64);
        black_box(reparsed);
    }
    let res = slo::compile_with(
        &prog,
        &WeightScheme::Ispbo,
        &PipelineConfig::default(),
        &rec,
    )
    .expect("traced compile");
    black_box(res);
    let mut agg: BTreeMap<String, bench::report::PhaseStat> = BTreeMap::new();
    for ev in rec.events() {
        if matches!(ev.kind, EventKind::Complete) && ev.cat == "pipeline" && ev.name != "compile" {
            let slot = agg
                .entry(ev.name.clone())
                .or_insert(bench::report::PhaseStat {
                    wall_seconds: 0.0,
                    spans: 0,
                });
            slot.wall_seconds += ev.dur_us as f64 / 1e6;
            slot.spans += 1;
        }
    }
    let phases: Vec<(String, bench::report::PhaseStat)> = agg.into_iter().collect();
    bench::report::record_phases("compile_mcf", &phases);
}

criterion_group!(benches, bench_hot_loop);

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    record_trajectory();
    record_trace_overhead();
    record_phase_breakdown();
}
