//! The traced run: a per-layer ledger over a fixed, seeded job set.
//!
//! 1. **Untraced reference.** The workload's own path (service or TCP
//!    server, exactly as in the timed run) over the fixed set; its job
//!    latencies are the base of `slo-obs.unattributed_pct` and
//!    `slo-service.net_overhead_ms`, its service counters give the hit
//!    and replay ratios.
//! 2. **Path ledger.** The same jobs again, the benchmark calling each
//!    layer's public entry point itself, one span per call and one job id
//!    per job. It runs twice from fresh state, once with a disabled
//!    recorder and once with an enabled one, alternating which goes first;
//!    the difference is `slo-obs.trace_overhead_pct`.
//! 3. **Probes.** Layer calls this workload's path does not make (the
//!    instrumented run on ISPBO workloads, the cache-less run, store,
//!    journal and protocol calls), so every workload reports every layer.
//!    Probe spans are kept apart from path spans and never attributed.
//!
//! The program's own recorders stay disabled: every span here is recorded
//! by the benchmark around a call into a layer. Spans stay in memory and
//! are written once, as a Chrome trace, at the end.

use crate::inputs::{Input, Inputs};
use crate::report::{emit, median, Metric};
use crate::timed::{self, Record, Stop, Workload};
use slo::analysis::affinity::{build_affinity_graphs, build_field_counts};
use slo::analysis::ipa::aggregate;
use slo::analysis::legality::analyze_all_units;
use slo::analysis::schemes::block_frequencies;
use slo::analysis::WeightScheme;
use slo::transform::{apply_plan, decide, HeuristicsConfig};
use slo::{Analysis, PipelineConfig};
use slo_ir::Program;
use slo_obs::{ArgValue, Recorder, SpanGuard, TraceEvent};
use slo_service::{AnalysisStore, FaultPlan, Journal, MetricsSnapshot, Request, Response, Service};
use slo_vm::{ExecOutcome, VmOptions};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fixed ledger sizes: jobs on the in-process workloads, requests per
/// client on `serve-warm`.
fn ledger_size(w: Workload) -> usize {
    match w {
        Workload::PboEval => 24,
        Workload::CensusCold => 48,
        Workload::ServeWarm => 150,
    }
}

/// Open a layer span tagged with its job and whether it is on the path.
fn span<'r>(
    rec: &'r Recorder,
    cat: &'static str,
    name: &'static str,
    job: &str,
    path: bool,
) -> SpanGuard<'r> {
    let mut s = rec.span(cat, name);
    s.arg("job", job);
    s.arg("path", path);
    s
}

fn vm_args(s: &mut SpanGuard<'_>, out: &ExecOutcome) {
    s.arg("instructions", out.stats.instructions);
    if let Some(l1) = out.stats.cache.levels.first() {
        s.arg("l1_hits", l1.hits);
        s.arg("l1_misses", l1.misses);
    }
}

fn vm_run(p: &Program, opts: &VmOptions, what: &str) -> Result<ExecOutcome, String> {
    slo_vm::run(p, opts).map_err(|e| format!("{what}: {e}"))
}

/// What one pass of the compile chain produced.
struct Chained {
    key: u64,
    analysis: Analysis,
}

/// The service's compile path for one program, one span per layer call:
/// parse (textual inputs), verify, the PBO profile run, the cache key,
/// the optional store lookup, legality, escape, profitability, plan,
/// the optional store write, apply, verify, both evaluation runs, print.
fn chain(
    rec: &Recorder,
    input: &Input,
    pbo: bool,
    path: bool,
    mut store: Option<&mut AnalysisStore>,
) -> Result<Chained, String> {
    let id = input.id.as_str();
    let prog = match (&input.program, pbo) {
        (Some(p), true) => p.clone(),
        _ => {
            let mut s = span(rec, "slo-ir", "parse", id, path);
            s.arg("bytes", input.text.len());
            slo_ir::parser::parse(&input.text).map_err(|e| format!("{id}: parse: {e}"))?
        }
    };
    {
        let _s = span(rec, "slo-ir", "verify", id, path);
        if let Some(e) = slo_ir::verify::verify(&prog).first() {
            return Err(format!("{id}: invalid IR: {e}"));
        }
    }
    let fb = if pbo {
        let mut s = span(rec, "slo-vm", "profile_run", id, path);
        let opts = VmOptions::builder()
            .collect_edges(true)
            .sample_dcache(true)
            .build();
        let out = vm_run(&prog, &opts, "profile run")?;
        vm_args(&mut s, &out);
        Some(out.feedback)
    } else {
        None
    };
    let scheme = fb.as_ref().map_or(WeightScheme::Ispbo, WeightScheme::Pbo);
    let cfg = PipelineConfig::default();
    let key = {
        let _s = span(rec, "slo", "cache_key", id, path);
        slo::analysis_cache_key(&prog, &scheme, &cfg)
    };
    if let Some(store) = store.as_deref_mut() {
        let mut s = span(rec, "slo-service", "store_get", id, path);
        let hit = store.get(key).is_some();
        s.arg("hit", hit);
    }
    let summaries = {
        let _s = span(rec, "slo-analysis", "legality", id, path);
        analyze_all_units(&prog)
    };
    let ipa = {
        let _s = span(rec, "slo-analysis", "escape", id, path);
        aggregate(&prog, &summaries, &cfg.legality)
    };
    let (graphs, counts) = {
        let _s = span(rec, "slo-analysis", "profitability", id, path);
        let freqs = block_frequencies(&prog, &scheme);
        (
            build_affinity_graphs(&prog, &freqs),
            build_field_counts(&prog, &freqs),
        )
    };
    let plan = {
        let mut s = span(rec, "slo-transform", "plan", id, path);
        let heuristics = if pbo {
            HeuristicsConfig::pbo()
        } else {
            HeuristicsConfig::ispbo()
        };
        let plan = decide(&prog, &ipa, &graphs, &counts, &heuristics);
        s.arg("types", plan.num_transformed());
        plan
    };
    let want = input.expected_types();
    if want.is_some_and(|t| t != plan.num_transformed()) {
        return Err(format!(
            "{id}: {} types transformed, Table 3 says {want:?}",
            plan.num_transformed()
        ));
    }
    let analysis = Analysis {
        ipa,
        graphs,
        counts,
        dcache: None,
        plan,
        fe: Default::default(),
        ipa_time: Default::default(),
    };
    if let Some(store) = store {
        let _s = span(rec, "slo-service", "store_put", id, path);
        store
            .put(key, &analysis)
            .map_err(|e| format!("{id}: store put: {e}"))?;
    }
    let out = {
        let _s = span(rec, "slo-transform", "apply", id, path);
        apply_plan(&prog, &analysis.plan).map_err(|e| format!("{id}: apply: {e}"))?
    };
    {
        let _s = span(rec, "slo-ir", "verify", id, path);
        if let Some(e) = slo_ir::verify::verify(&out).first() {
            return Err(format!("{id}: transformed IR invalid: {e}"));
        }
    }
    let mut exits = Vec::with_capacity(2);
    for (p, which) in [(&prog, "baseline"), (&out, "transformed")] {
        let mut s = span(rec, "slo-vm", "eval_run", id, path);
        s.arg("program", which);
        let r = vm_run(p, &VmOptions::default(), which)?;
        vm_args(&mut s, &r);
        exits.push(r.exit);
    }
    if exits[0] != exits[1] {
        return Err(format!("{id}: transformed program changed its result"));
    }
    {
        let _s = span(rec, "slo-ir", "print", id, path);
        std::hint::black_box(slo_ir::printer::print_program(&out));
    }
    Ok(Chained { key, analysis })
}

/// One `serve-warm` request the way a session handles it: parse the
/// wire line, look the journal up, run the job, encode and journal the
/// reply.
fn serve_request(
    rec: &Recorder,
    state: &timed::ServeState,
    req: &crate::inputs::Request,
    id: &str,
) -> Result<(), String> {
    state.prepare(req.kind)?;
    let line = req.line.as_str();
    let job = {
        let _s = span(rec, "slo-service", "proto", id, true);
        match Request::parse(&state.dir, line) {
            Ok(Request::Jobs(mut jobs)) if jobs.len() == 1 => jobs.remove(0),
            other => return Err(format!("{line}: {other:?}")),
        }
    };
    let key = Request::fingerprint(line, &job);
    let hit = {
        let _s = span(rec, "slo-service", "journal_lookup", id, true);
        let j = state.journal.lock().expect("journal lock");
        j.lookup(key).map(|e| e.summary.clone())
    };
    if let Some(stored) = hit {
        let _s = span(rec, "slo-service", "proto", id, true);
        std::hint::black_box(Response::mark_replayed(&stored));
        return Ok(());
    }
    let outcome = {
        let _s = span(rec, "slo-service", "run_job", id, true);
        state.service.run_job(&job, Instant::now())
    };
    if outcome.status.kind() != "optimized" {
        return Err(format!("{line}: {}", outcome.status.kind()));
    }
    let reply = {
        let _s = span(rec, "slo-service", "proto", id, true);
        Response::from_outcome(&outcome).to_json()
    };
    let _s = span(rec, "slo-service", "journal_record", id, true);
    let mut j = state.journal.lock().expect("journal lock");
    j.record(key, &outcome.id, &outcome.status, &reply)
        .map_err(|e| format!("journal: {e}"))
}

/// The untraced reference run: the workload's own path over the set.
struct Reference {
    records: Vec<Record>,
    inputs: Vec<Input>,
    metrics: MetricsSnapshot,
    failed: usize,
    errors: Vec<String>,
}

fn reference(w: Workload, seed: u64, n: usize, dir: &Path) -> Result<Reference, String> {
    let (records, inputs, metrics) = if w == Workload::ServeWarm {
        let state = timed::setup_serve(seed, n, dir)?;
        let before = state.service.metrics();
        let records = timed::with_server(&state, |clients| {
            timed::drive_serve(&state, clients, Stop::After(n)).0
        })?;
        (
            records,
            Inputs::Listed(state.inputs.clone()),
            state.service.metrics().since(&before),
        )
    } else {
        let state = timed::setup_inprocess(w, seed, n, dir)?;
        let before = state.service.metrics();
        let (records, _) = timed::drive_inprocess(&state, Stop::After(n));
        (
            records,
            state.inputs.clone(),
            state.service.metrics().since(&before),
        )
    };
    let run = timed::Run {
        setup_s: Vec::new(),
        wall_s: 0.0,
        records,
        inputs,
        metrics,
        digest: 0,
    };
    let (failed, errors) = timed::verify(&run, seed);
    Ok(Reference {
        inputs: (0..run.inputs.len())
            .map(|i| run.inputs.get(i).into_owned())
            .collect(),
        records: run.records,
        metrics: run.metrics,
        failed,
        errors,
    })
}

/// Path-ledger state for one recorder: a fresh store on `census-cold`,
/// a fresh filled server on `serve-warm`.
enum PathState {
    Pbo,
    Census(AnalysisStore),
    Serve(Box<timed::ServeState>),
}

fn path_state(w: Workload, seed: u64, n: usize, dir: &Path) -> Result<PathState, String> {
    Ok(match w {
        Workload::PboEval => PathState::Pbo,
        Workload::CensusCold => {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            PathState::Census(
                AnalysisStore::open(
                    &dir.join("store"),
                    Recorder::disabled(),
                    FaultPlan::disabled(),
                )
                .map_err(|e| format!("store: {e}"))?,
            )
        }
        Workload::ServeWarm => PathState::Serve(Box::new(timed::setup_serve(seed, n, dir)?)),
    })
}

/// The fixed job set: inputs on the in-process workloads, requests
/// interleaved client by client on `serve-warm`.
struct LedgerJob {
    input: usize,
    request: Option<crate::inputs::Request>,
    id: String,
}

fn ledger_jobs(state: &PathState, inputs: &[Input], n: usize) -> Vec<LedgerJob> {
    match state {
        PathState::Serve(s) => (0..n)
            .flat_map(|i| s.requests.iter().map(move |seq| &seq[i]))
            .enumerate()
            .map(|(k, r)| LedgerJob {
                input: s.input_of(r.kind),
                request: Some(r.clone()),
                id: format!("r{k}"),
            })
            .collect(),
        _ => (0..n.min(inputs.len()))
            .map(|i| LedgerJob {
                input: i,
                request: None,
                id: inputs[i].id.clone(),
            })
            .collect(),
    }
}

fn path_job(
    rec: &Recorder,
    state: &mut PathState,
    inputs: &[Input],
    job: &LedgerJob,
) -> Result<Option<Chained>, String> {
    let mut root = rec.span("perfbench", "job");
    root.arg("job", job.id.as_str());
    root.arg("path", true);
    let input = &inputs[job.input];
    match state {
        PathState::Pbo => chain(rec, input, true, true, None).map(Some),
        PathState::Census(store) => chain(rec, input, false, true, Some(store)).map(Some),
        PathState::Serve(s) => {
            let req = job.request.as_ref().expect("serve jobs carry a request");
            serve_request(rec, s, req, &job.id).map(|()| None)
        }
    }
}

/// Probe state: a store, a journal and a service of the workload's own
/// configuration, all in a scratch directory.
struct Probes {
    dir: PathBuf,
    store: AnalysisStore,
    journal: Journal,
    service: Service,
    stored: HashSet<u64>,
}

fn probe_job(
    w: Workload,
    rec: &Recorder,
    p: &mut Probes,
    input: &Input,
    id: &str,
    chained: Option<Chained>,
) -> Result<(), String> {
    let mut root = rec.span("perfbench", "probe");
    root.arg("job", id);
    root.arg("path", false);
    let pbo = w == Workload::PboEval;
    let chained = match chained {
        Some(c) => c,
        None => chain(rec, input, pbo, false, None)?,
    };
    if pbo {
        let mut s = span(rec, "slo-ir", "parse", id, false);
        s.arg("bytes", input.text.len());
        std::hint::black_box(
            slo_ir::parser::parse(&input.text).map_err(|e| format!("{id}: parse: {e}"))?,
        );
    }
    let prog = input.parsed();
    if !pbo {
        let mut s = span(rec, "slo-vm", "profile_run", id, false);
        let opts = VmOptions::builder()
            .collect_edges(true)
            .sample_dcache(true)
            .build();
        let out = vm_run(&prog, &opts, "profile run")?;
        vm_args(&mut s, &out);
    }
    {
        let mut s = span(rec, "slo-vm", "dispatch_run", id, false);
        let mut opts = VmOptions::default();
        opts.cache.levels.clear();
        let out = vm_run(&prog, &opts, "cache-less run")?;
        vm_args(&mut s, &out);
    }
    if p.stored.insert(chained.key) {
        let _s = span(rec, "slo-service", "store_put", id, false);
        p.store
            .put(chained.key, &chained.analysis)
            .map_err(|e| format!("{id}: store put: {e}"))?;
    }
    {
        let mut s = span(rec, "slo-service", "store_get", id, false);
        let hit = p.store.get(chained.key).is_some();
        s.arg("hit", hit);
        if !hit {
            return Err(format!("{id}: stored analysis not found"));
        }
    }
    if w != Workload::ServeWarm {
        // The wire path a served copy of this job would take.
        let file = format!("{id}.sir");
        std::fs::write(p.dir.join(&file), &input.text).map_err(|e| e.to_string())?;
        let line = if pbo {
            format!("{file} scheme=pbo")
        } else {
            file
        };
        let job = {
            let _s = span(rec, "slo-service", "proto", id, false);
            match Request::parse(&p.dir, &line) {
                Ok(Request::Jobs(mut jobs)) if jobs.len() == 1 => jobs.remove(0),
                other => return Err(format!("{line}: {other:?}")),
            }
        };
        let outcome = {
            let _s = span(rec, "slo-service", "run_job", id, false);
            p.service.run_job(&job, Instant::now())
        };
        if outcome.status.kind() != "optimized" {
            return Err(format!("{id}: probe job {}", outcome.status.kind()));
        }
        let reply = {
            let _s = span(rec, "slo-service", "proto", id, false);
            Response::from_outcome(&outcome).to_json()
        };
        let _s = span(rec, "slo-service", "journal_record", id, false);
        p.journal
            .record(
                Request::fingerprint(&line, &job),
                &outcome.id,
                &outcome.status,
                &reply,
            )
            .map_err(|e| format!("journal: {e}"))?;
    }
    Ok(())
}

// --- metrics from the recorded spans -----------------------------------

fn arg<'e>(e: &'e TraceEvent, key: &str) -> Option<&'e ArgValue> {
    e.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn arg_num(e: &TraceEvent, key: &str) -> f64 {
    match arg(e, key) {
        Some(ArgValue::Int(i)) => *i as f64,
        Some(ArgValue::Float(f)) => *f,
        _ => 0.0,
    }
}

fn arg_str<'e>(e: &'e TraceEvent, key: &str) -> &'e str {
    match arg(e, key) {
        Some(ArgValue::Str(s)) => s,
        _ => "",
    }
}

fn arg_bool(e: &TraceEvent, key: &str) -> bool {
    matches!(arg(e, key), Some(ArgValue::Bool(true)))
}

fn ms(e: &TraceEvent) -> f64 {
    e.dur_us as f64 / 1e3
}

struct Spans<'e>(Vec<&'e TraceEvent>);

impl<'e> Spans<'e> {
    fn of(events: &'e [TraceEvent], cat: &str, name: &str) -> Spans<'e> {
        Spans(
            events
                .iter()
                .filter(|e| e.cat == cat && e.name == name)
                .collect(),
        )
    }

    fn filter(self, f: impl Fn(&TraceEvent) -> bool) -> Spans<'e> {
        Spans(self.0.into_iter().filter(|e| f(e)).collect())
    }

    fn median_ms(&self) -> f64 {
        median(&self.0.iter().map(|e| ms(e)).collect::<Vec<_>>())
    }

    fn sum_ms(&self) -> f64 {
        self.0.iter().map(|e| ms(e)).sum()
    }

    fn sum_arg(&self, key: &str) -> f64 {
        self.0.iter().map(|e| arg_num(e, key)).sum()
    }

    /// Σ arg / Σ µs: instructions → Minstr/s, bytes → MB/s.
    fn rate(&self, key: &str) -> f64 {
        self.sum_arg(key) / (self.sum_ms() * 1e3)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Per job id, the summed duration of the matching spans.
fn per_job_ms(events: &[TraceEvent], f: impl Fn(&TraceEvent) -> bool) -> Vec<f64> {
    let mut by_job: BTreeMap<&str, f64> = BTreeMap::new();
    for e in events.iter().filter(|e| f(e)) {
        *by_job.entry(arg_str(e, "job")).or_default() += ms(e);
    }
    by_job.into_values().collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(events: &[TraceEvent], reference: &Reference, off_ms: f64, on_ms: f64) -> Vec<Metric> {
    let vm = |name| Spans::of(events, "slo-vm", name);
    let base_runs = vm("eval_run").filter(|e| arg_str(e, "program") == "baseline");
    let dispatch = vm("dispatch_run");
    let l1_hits = base_runs.sum_arg("l1_hits");
    let l1_misses = base_runs.sum_arg("l1_misses");
    let parse = Spans::of(events, "slo-ir", "parse");
    let svc = |name| Spans::of(events, "slo-service", name);
    let m = &reference.metrics;
    let requests = reference.records.len();
    let replayed = reference.records.iter().filter(|r| r.replayed).count();
    let ref_ms: Vec<f64> = reference.records.iter().map(|r| r.latency_ms).collect();
    let ref_total: f64 = ref_ms.iter().sum();
    let attributed: f64 = events
        .iter()
        .filter(|e| e.cat != "perfbench" && arg_bool(e, "path"))
        .map(ms)
        .sum();
    let wire = per_job_ms(events, |e| {
        e.cat == "slo-service" && (e.name == "proto" || e.name == "run_job")
    });
    let n_base = base_runs.len();
    vec![
        Metric::new("slo-vm.profile_run_ms", vm("profile_run").median_ms(), "ms"),
        Metric::based(
            "slo-vm.profile_minstr_per_s",
            vm("profile_run").rate("instructions"),
            "Minstr/s",
            format!("{} instrumented runs", vm("profile_run").len()),
        ),
        Metric::new("slo-vm.eval_run_ms", vm("eval_run").median_ms(), "ms"),
        Metric::based(
            "slo-vm.eval_minstr_per_s",
            vm("eval_run").rate("instructions"),
            "Minstr/s",
            format!("{} plain runs", vm("eval_run").len()),
        ),
        Metric::based(
            "slo-vm.dispatch_minstr_per_s",
            dispatch.rate("instructions"),
            "Minstr/s",
            format!("{} runs with no cache levels", dispatch.len()),
        ),
        Metric::based(
            "slo-vm.cachesim_share",
            (base_runs.sum_ms() - dispatch.sum_ms()) / base_runs.sum_ms(),
            "ratio",
            format!("plain time of {n_base} baseline runs"),
        ),
        Metric::based(
            "slo-vm.instructions",
            base_runs.sum_arg("instructions"),
            "count",
            format!("{n_base} baseline runs"),
        ),
        Metric::based(
            "slo-vm.l1_miss_ratio",
            l1_misses / (l1_hits + l1_misses),
            "ratio",
            format!(
                "{} L1 accesses of {n_base} baseline runs",
                l1_hits + l1_misses
            ),
        ),
        Metric::new("slo-ir.parse_ms", parse.median_ms(), "ms"),
        Metric::based(
            "slo-ir.parse_mb_per_s",
            parse.rate("bytes"),
            "MB/s",
            format!(
                "{:.0} bytes in {} parses",
                parse.sum_arg("bytes"),
                parse.len()
            ),
        ),
        Metric::new(
            "slo-ir.verify_ms",
            Spans::of(events, "slo-ir", "verify").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo-ir.print_ms",
            Spans::of(events, "slo-ir", "print").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo.cache_key_ms",
            Spans::of(events, "slo", "cache_key").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo-analysis.legality_ms",
            Spans::of(events, "slo-analysis", "legality").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo-analysis.escape_ms",
            Spans::of(events, "slo-analysis", "escape").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo-analysis.profitability_ms",
            Spans::of(events, "slo-analysis", "profitability").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo-transform.plan_ms",
            Spans::of(events, "slo-transform", "plan").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo-transform.apply_ms",
            Spans::of(events, "slo-transform", "apply").median_ms(),
            "ms",
        ),
        Metric::based(
            "slo-transform.types_transformed",
            Spans::of(events, "slo-transform", "plan").sum_arg("types"),
            "count",
            format!("{} plans", Spans::of(events, "slo-transform", "plan").len()),
        ),
        Metric::based(
            "slo-service.lru_hit_ratio",
            ratio(m.cache_hits, m.cache_hits + m.cache_misses),
            "ratio",
            format!("{} LRU lookups", m.cache_hits + m.cache_misses),
        ),
        Metric::based(
            "slo-service.store_hit_ratio",
            ratio(m.store_hits, m.store_hits + m.store_misses),
            "ratio",
            format!(
                "{} store lookups (LRU misses)",
                m.store_hits + m.store_misses
            ),
        ),
        Metric::new(
            "slo-service.store_get_ms",
            svc("store_get").filter(|e| arg_bool(e, "hit")).median_ms(),
            "ms",
        ),
        Metric::based(
            "slo-service.journal_replay_ratio",
            ratio(replayed as u64, requests as u64),
            "ratio",
            format!("{requests} requests"),
        ),
        Metric::new(
            "slo-service.proto_ms",
            median(&per_job_ms(events, |e| {
                e.cat == "slo-service" && e.name == "proto"
            })),
            "ms",
        ),
        Metric::new("slo-service.run_job_ms", svc("run_job").median_ms(), "ms"),
        Metric::based(
            "slo-service.net_overhead_ms",
            median(&ref_ms) - median(&wire),
            "ms",
            format!(
                "untraced p50 of {} jobs less traced p50 of parse + run_job + encode",
                ref_ms.len()
            ),
        ),
        Metric::new(
            "slo-service.store_put_ms",
            svc("store_put").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo-service.journal_record_ms",
            svc("journal_record").median_ms(),
            "ms",
        ),
        Metric::new(
            "slo-service.store_open_ms",
            svc("store_open").median_ms(),
            "ms",
        ),
        Metric::based(
            "slo-obs.trace_overhead_pct",
            100.0 * (on_ms - off_ms) / off_ms,
            "%",
            format!("{off_ms:.1} ms of path ledger with tracing off"),
        ),
        Metric::based(
            "slo-obs.unattributed_pct",
            100.0 * (ref_total - attributed) / ref_total,
            "%",
            format!("{ref_total:.1} ms of untraced job time"),
        ),
    ]
}

/// Run the traced ledger of `w` and print the per-layer metrics.
pub fn run(w: Workload, seed: u64) -> Result<(), String> {
    let n = ledger_size(w);
    let root = timed::scratch_dir(&format!("{}-trace", w.name()));
    let _ = std::fs::remove_dir_all(&root);
    let reference = reference(w, seed, n, &root.join("reference"))?;
    for e in &reference.errors {
        eprintln!("perfbench: FAILED {e}");
    }

    let rec = Recorder::with_capacity(1 << 20);
    let off = Recorder::disabled();
    let mut on_state = path_state(w, seed, n, &root.join("on"))?;
    let mut off_state = path_state(w, seed, n, &root.join("off"))?;
    let jobs = ledger_jobs(&on_state, &reference.inputs, n);
    let inputs = match &on_state {
        PathState::Serve(s) => s.inputs.clone(),
        _ => reference.inputs.clone(),
    };
    let (mut off_ms, mut on_ms) = (0.0, 0.0);
    let mut errors = Vec::new();
    let mut chained = Vec::with_capacity(jobs.len());
    for (k, job) in jobs.iter().enumerate() {
        for pass in 0..2 {
            let traced = (k + pass) % 2 == 0;
            let (r, state) = if traced {
                (&rec, &mut on_state)
            } else {
                (&off, &mut off_state)
            };
            let t = Instant::now();
            let res = path_job(r, state, &inputs, job);
            let el = t.elapsed().as_secs_f64() * 1e3;
            if traced {
                on_ms += el;
            } else {
                off_ms += el;
            }
            let res = res.map_err(|e| errors.push(e));
            if traced {
                chained.push(res.ok().flatten());
            }
        }
    }
    drop(off_state);

    let probe_dir = root.join("probes");
    std::fs::create_dir_all(&probe_dir).map_err(|e| e.to_string())?;
    let store_dir = probe_dir.join("store");
    let mut probes = Probes {
        store: AnalysisStore::open(&store_dir, Recorder::disabled(), FaultPlan::disabled())
            .map_err(|e| format!("store: {e}"))?,
        journal: Journal::open(&probe_dir.join("journal.jsonl")).map_err(|e| e.to_string())?,
        service: {
            let svc = Service::new(timed::service_config(w));
            if w == Workload::CensusCold {
                let dir = probe_dir.join("service-store");
                svc.with_store(
                    AnalysisStore::open(&dir, Recorder::disabled(), FaultPlan::disabled())
                        .map_err(|e| format!("store: {e}"))?,
                )
            } else {
                svc
            }
        },
        dir: probe_dir,
        stored: HashSet::new(),
    };
    // The path already ran the compile chain on the in-process
    // workloads; their probes reuse its key and analysis.
    for (job, c) in jobs.iter().zip(chained) {
        if let Err(e) = probe_job(w, &rec, &mut probes, &inputs[job.input], &job.id, c) {
            errors.push(e);
        }
    }
    drop(probes.store);
    for k in 0..5 {
        let mut s = span(
            &rec,
            "slo-service",
            "store_open",
            &format!("reopen{k}"),
            false,
        );
        let store = AnalysisStore::open(&store_dir, Recorder::disabled(), FaultPlan::disabled())
            .map_err(|e| format!("store reopen: {e}"))?;
        s.arg("records", store.len());
    }
    drop(on_state);

    let json = rec.to_chrome_json();
    let trace_path =
        PathBuf::from(".perfbench").join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&trace_path, &json).map_err(|e| format!("write trace: {e}"))?;
    let summary = slo_obs::conform::check_chrome_trace(&json);
    let events = rec.events();
    println!(
        "workload {} seed {seed}: traced {} ledger jobs; trace {} ({})",
        w.name(),
        jobs.len(),
        trace_path.display(),
        match &summary {
            Ok(s) => format!("{} events, {} spans, valid", s.events, s.spans),
            Err(e) => format!("INVALID: {e}"),
        }
    );
    for e in &errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let metrics = per_layer(&events, &reference, off_ms, on_ms);
    let _ = std::fs::remove_dir_all(&root);
    let correct = summary.is_ok() && rec.dropped() == 0 && errors.is_empty();
    emit(
        correct && reference.failed == 0,
        reference.records.len() + jobs.len(),
        reference.failed + errors.len(),
        &metrics,
    );
    Ok(())
}
