//! Argument parsing and subcommand implementations.
//!
//! ```text
//! slo run <file.sir>                         execute on the simulated machine
//! slo analyze <file.sir> [--relax]           legality verdicts per type
//! slo advise <file.sir> [--scheme S] [--profile]
//!                                            the §3 advisory report (+ advice)
//! slo optimize <file.sir> [-o out.sir] [--scheme S] [--profile]
//!                                            run the pipeline, print/emit IR
//! slo profile <file.sir> [-o out.prof]       PBO collection: run instrumented,
//!                                            write the feedback file
//! slo vcg <file.sir> <record>                VCG control file for one type
//! slo batch <manifest> [--workers N]         run a job manifest through the
//!                                            batch service (caching, budgets)
//! slo serve [--workers N]                    line-oriented job server on stdin
//! ```
//!
//! Schemes: `spbo`, `ispbo` (default), `ispbo.no`, `ispbo.w`, `pbo`
//! (`pbo` requires `--profile <file.prof>` or `--profile` to collect one
//! on the fly).

use slo::analysis::ipa::aggregate;
use slo::analysis::{analyze_program, FactTable, LegalityConfig, WeightScheme};
use slo::obs::Recorder;
use slo::pipeline::{baseline_run, compile_with, evaluate_against, PipelineConfig};
use slo::vm::{ExecOutcome, Feedback, VmOptions};
use slo::SloError;
use slo_ir::parser::parse;
use slo_ir::Program;
use slo_service::{
    legacy_line, Clock, FaultPlan, Journal, NetConfig, NetServer, Reply, RetryPolicy, Service,
    ServiceConfig, Session,
};
use std::fmt::Write as _;
use std::sync::Mutex;

type Result<T> = std::result::Result<T, SloError>;

const USAGE: &str = "\
usage: slo <command> [options]

commands:
  run <file.sir>                         execute on the simulated machine
  analyze <file.sir> [--relax]           legality verdicts per record type
  advise <file.sir> [--scheme S] [--profile [file]]
                                         annotated type layouts + advice
  optimize <file.sir> [-o out.sir] [--scheme S] [--profile [file]] [--measure]
           [--trace-json t.json]         run the FE/IPA/BE pipeline
                                         (alias: compile)
  profile <file.sir> [-o out.prof]       collect an edge/d-cache profile
  vcg <file.sir> <record>                VCG affinity graph for one type
  print <file.sir>                       parse, verify and pretty-print IR
  batch <manifest> [--workers N] [--cache N] [--json] [--strict] [--wire]
        [--chaos-seed N] [--store DIR] [--trace-json t.json]
                                         run a job manifest through the
                                         batch service (--wire answers in
                                         the v1 JSON wire protocol;
                                         --store persists analyses in a
                                         crash-safe segment store)
  serve [--workers N] [--cache N] [--journal FILE] [--store DIR] [--chaos-seed N]
        [--legacy-lines] [--listen ADDR] [--net-inflight N] [--net-queue N]
        [--net-clients N] [--net-per-client N] [--net-read-timeout-ms N]
        [--net-retry-after-ms N]
                                         serve the v1 wire protocol: job
                                         lines in, one JSON reply per job
                                         (`metrics` dumps JSON, `metrics
                                         prom` the Prometheus exposition);
                                         --journal appends outcomes to a
                                         write-ahead log and replays it on
                                         restart; --store layers a
                                         persistent checksummed analysis
                                         store under the LRU, so restarts
                                         warm-start from disk; --listen
                                         serves TCP with
                                         bounded admission + load shedding
                                         instead of stdin; --legacy-lines
                                         keeps the pre-protocol replies
  trace-check <trace.json>               validate a Chrome trace against
                                         the golden schema
  help                                   this text

schemes: spbo | ispbo (default) | ispbo.no | ispbo.w | pbo
";

/// Parse arguments and run the selected subcommand, returning its stdout.
pub fn dispatch(args: &[String]) -> Result<String> {
    let Some(cmd) = args.first() else {
        return Err(SloError::Usage(format!("missing command\n{USAGE}")));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "analyze" => cmd_analyze(rest),
        "advise" => cmd_advise(rest),
        "optimize" | "compile" => cmd_optimize(rest),
        "profile" => cmd_profile(rest),
        "vcg" => cmd_vcg(rest),
        "print" => cmd_print(rest),
        "batch" => cmd_batch(rest),
        "serve" => cmd_serve(rest),
        "trace-check" => cmd_trace_check(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(SloError::Usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    }
}

/// Minimal flag scanner: returns (positional, flags-with-optional-values).
struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut positional = Vec::new();
    let mut flags: Vec<(String, Option<String>)> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let value = args.get(i + 1).filter(|v| !v.starts_with('-')).cloned();
            if value.is_some() {
                i += 1;
            }
            flags.push((name.to_string(), value));
        } else if a == "-o" {
            let value = args.get(i + 1).cloned();
            if value.is_some() {
                i += 1;
            }
            flags.push(("o".to_string(), value));
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    Opts { positional, flags }
}

impl Opts {
    fn flag(&self, name: &str) -> Option<&(String, Option<String>)> {
        self.flags.iter().find(|(n, _)| n == name)
    }

    fn has(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flag(name).and_then(|(_, v)| v.as_deref())
    }
}

fn load_program(path: &str) -> Result<Program> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| SloError::Io(format!("cannot read `{path}`: {e}")))?;
    let prog = parse(&src).map_err(|e| SloError::Parse(format!("{path}: {e}")))?;
    let errs = slo_ir::verify::verify(&prog);
    if !errs.is_empty() {
        let msgs: Vec<String> = errs.iter().map(|e| format!("  {e}")).collect();
        return Err(SloError::Parse(format!(
            "{path}: invalid IR:\n{}",
            msgs.join("\n")
        )));
    }
    Ok(prog)
}

/// Resolve the scheme flags into a `WeightScheme` plus (possibly) an
/// owned feedback the scheme borrows from. The feedback must outlive the
/// scheme, hence the slightly awkward split.
fn collect_feedback(prog: &Program, opts: &Opts) -> Result<Option<Feedback>> {
    Ok(collect_feedback_with(prog, opts, &Recorder::disabled())?.0)
}

/// [`collect_feedback`] with a trace recorder. A profile collected on
/// the fly comes with its instrumented run, which `--measure` reuses
/// as the baseline evaluation.
fn collect_feedback_with(
    prog: &Program,
    opts: &Opts,
    rec: &Recorder,
) -> Result<(Option<Feedback>, Option<ExecOutcome>)> {
    if !opts.has("profile") {
        // `--scheme pbo` without --profile is rejected later by
        // `scheme_for`; profiles are only collected/loaded on request
        return Ok((None, None));
    }
    if let Some(path) = opts.value("profile") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SloError::Io(format!("cannot read profile `{path}`: {e}")))?;
        let fb = Feedback::from_text(&text)
            .map_err(|e| SloError::Parse(format!("profile `{path}`: {e}")))?;
        return Ok((Some(fb), None));
    }
    // collect on the fly
    let mut run = slo::profile_run(prog, &VmOptions::builder().trace(rec.clone()).build())?;
    let fb = std::mem::take(&mut run.feedback);
    Ok((Some(fb), Some(run)))
}

/// The recorder for a command honouring `--trace-json <path>`: enabled
/// exactly when a trace is requested, so the untraced path keeps the
/// no-op recorder.
fn trace_recorder(opts: &Opts) -> Result<(Recorder, Option<String>)> {
    match opts.flag("trace-json") {
        None => Ok((Recorder::disabled(), None)),
        Some((_, None)) => Err(SloError::Usage("--trace-json needs an output path".into())),
        Some((_, Some(path))) => Ok((Recorder::enabled(), Some(path.clone()))),
    }
}

/// Write the recorded trace as Chrome `trace_event` JSON. Intentionally
/// silent on stdout: command output stays bit-identical with tracing on
/// or off.
fn write_trace(rec: &Recorder, path: Option<&str>) -> Result<()> {
    if let Some(path) = path {
        std::fs::write(path, rec.to_chrome_json())
            .map_err(|e| SloError::Io(format!("cannot write trace `{path}`: {e}")))?;
    }
    Ok(())
}

fn scheme_for<'a>(opts: &Opts, feedback: Option<&'a Feedback>) -> Result<WeightScheme<'a>> {
    let name = opts
        .value("scheme")
        .unwrap_or(if feedback.is_some() { "pbo" } else { "ispbo" });
    Ok(match (name.to_ascii_lowercase().as_str(), feedback) {
        ("pbo", Some(fb)) => WeightScheme::Pbo(fb),
        ("pbo", None) => {
            return Err(SloError::Usage(
                "scheme `pbo` needs --profile (a file, or bare to collect one)".into(),
            ))
        }
        ("spbo", _) => WeightScheme::Spbo,
        ("ispbo", _) => WeightScheme::Ispbo,
        ("ispbo.no", _) => WeightScheme::IspboNo,
        ("ispbo.w", _) => WeightScheme::IspboW,
        (other, _) => return Err(SloError::Usage(format!("unknown scheme `{other}`"))),
    })
}

fn cmd_run(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [path] = &opts.positional[..] else {
        return Err(SloError::Usage(
            "run: expected exactly one input file".into(),
        ));
    };
    let prog = load_program(path)?;
    let out = slo::vm::run(&prog, &VmOptions::default())?;
    let mut s = String::new();
    let _ = writeln!(s, "exit      : {}", out.exit);
    let _ = writeln!(s, "instrs    : {}", out.stats.instructions);
    let _ = writeln!(s, "cycles    : {}", out.stats.cycles);
    let _ = writeln!(
        s,
        "loads     : {} ({} stores)",
        out.stats.loads, out.stats.stores
    );
    for (i, lvl) in out.stats.cache.levels.iter().enumerate() {
        let _ = writeln!(
            s,
            "L{} hits   : {} / {} misses",
            i + 1,
            lvl.hits,
            lvl.misses
        );
    }
    let _ = writeln!(s, "memory    : {}", out.stats.cache.memory_accesses);
    let _ = writeln!(s, "heap peak : {} bytes", out.stats.peak_live_bytes);
    Ok(s)
}

fn cmd_analyze(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [path] = &opts.positional[..] else {
        return Err(SloError::Usage(
            "analyze: expected exactly one input file".into(),
        ));
    };
    let prog = load_program(path)?;
    let cfg = LegalityConfig {
        relax_cast_addr: opts.has("relax"),
        ..Default::default()
    };
    let res = analyze_program(&prog, &cfg);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} record types, {} legal{}",
        res.num_types(),
        res.num_legal(),
        if opts.has("relax") { " (relaxed)" } else { "" }
    );
    for rid in prog.types.record_ids() {
        let v = res.verdict(rid);
        let rec = prog.types.record(rid);
        let status = if v.legal() {
            "*OK*".to_string()
        } else {
            v.invalid
                .iter()
                .map(|t| t.abbrev())
                .collect::<Vec<_>>()
                .join(" ")
        };
        let _ = writeln!(
            s,
            "  {:<24} {:>3} fields {:>5} bytes  {}",
            rec.name,
            rec.fields.len(),
            prog.types.layout_of(rid).size,
            status
        );
    }
    Ok(s)
}

fn cmd_advise(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [path] = &opts.positional[..] else {
        return Err(SloError::Usage(
            "advise: expected exactly one input file".into(),
        ));
    };
    let prog = load_program(path)?;
    let feedback = collect_feedback(&prog, &opts)?;
    let scheme = scheme_for(&opts, feedback.as_ref())?;

    let facts = FactTable::new(&prog);
    let ipa = aggregate(
        &prog,
        &facts.analyze_all_units(),
        &LegalityConfig::default(),
    );
    let (graphs, counts) = facts.profitability(&scheme);
    let dcache = feedback.as_ref().map(|fb| facts.attribute_samples(fb));
    let strides = feedback.as_ref().map(|fb| facts.attribute_strides(fb));

    let input = slo::advisor::AdvisorInput {
        prog: &prog,
        ipa: &ipa,
        graphs: &graphs,
        counts: &counts,
        dcache: dcache.as_ref(),
        strides: strides.as_ref(),
        plan: None,
    };
    let mut s = slo::advisor::render_report(&input);
    for rid in prog.types.record_ids() {
        let suggestion = slo::advisor::suggest_layout(&prog, rid, &graphs[&rid], 10.0);
        if suggestion.is_nontrivial() {
            s.push_str(&slo::advisor::render_suggestion(&prog, &suggestion));
        }
    }
    for rid in prog.types.record_ids() {
        let advice = slo::advisor::classify(
            &prog,
            rid,
            &graphs[&rid],
            &counts,
            dcache.as_ref(),
            &slo::advisor::ScenarioConfig::default(),
        );
        if !advice.is_empty() {
            let _ = writeln!(s, "advice for {}:", prog.types.record(rid).name);
            for a in advice {
                let _ = writeln!(s, "  * {a}");
            }
        }
    }
    Ok(s)
}

fn cmd_optimize(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [path] = &opts.positional[..] else {
        return Err(SloError::Usage(
            "optimize: expected exactly one input file".into(),
        ));
    };
    let (rec, trace_path) = trace_recorder(&opts)?;
    let prog = {
        let _s = rec.span("pipeline", "parse");
        load_program(path)?
    };
    let (feedback, profile_run) = collect_feedback_with(&prog, &opts, &rec)?;
    let scheme = scheme_for(&opts, feedback.as_ref())?;
    let res = compile_with(&prog, &scheme, &PipelineConfig::default(), &rec)?;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "scheme {} -> {} type(s) transformed",
        scheme.name(),
        res.plan.num_transformed()
    );
    for rid in prog.types.record_ids() {
        let t = res.plan.of(rid);
        if t.is_some() {
            let _ = writeln!(s, "  {:<24} {:?}", prog.types.record(rid).name, t);
        }
    }

    let text = slo_ir::printer::print_program(&res.program);
    if let Some(out) = opts.value("o") {
        std::fs::write(out, &text)
            .map_err(|e| SloError::Io(format!("cannot write `{out}`: {e}")))?;
        let _ = writeln!(s, "wrote {out}");
    } else if !opts.has("measure") {
        s.push_str(&text);
    }

    if opts.has("measure") {
        let vm_opts = VmOptions::builder().trace(rec.clone()).build();
        let base = match profile_run {
            Some(run) => run,
            None => baseline_run(&prog, &vm_opts)?,
        };
        let eval = evaluate_against(&base, &res.plan, &res.program, &vm_opts)?;
        let _ = writeln!(
            s,
            "cycles {} -> {} ({:+.1}%)",
            eval.baseline_cycles,
            eval.optimized_cycles,
            eval.speedup_percent()
        );
    }
    write_trace(&rec, trace_path.as_deref())?;
    Ok(s)
}

fn cmd_trace_check(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [path] = &opts.positional[..] else {
        return Err(SloError::Usage(
            "trace-check: expected exactly one trace file".into(),
        ));
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| SloError::Io(format!("cannot read `{path}`: {e}")))?;
    let summary = slo::obs::conform::check_chrome_trace(&text)
        .map_err(|e| SloError::Parse(format!("{path}: {e}")))?;
    Ok(format!(
        "{path}: OK — {} event(s), {} span(s), {} dropped; names: {}\n",
        summary.events,
        summary.spans,
        summary.dropped,
        summary.names.join(", ")
    ))
}

fn cmd_profile(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [path] = &opts.positional[..] else {
        return Err(SloError::Usage(
            "profile: expected exactly one input file".into(),
        ));
    };
    let prog = load_program(path)?;
    let fb = slo::collect_profile(&prog)?;
    let text = fb.to_text();
    if let Some(out) = opts.value("o") {
        std::fs::write(out, &text)
            .map_err(|e| SloError::Io(format!("cannot write `{out}`: {e}")))?;
        Ok(format!(
            "wrote {out} ({} functions, {} edge count total)\n",
            fb.funcs.len(),
            fb.total_edge_count()
        ))
    } else {
        Ok(text)
    }
}

fn cmd_print(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [path] = &opts.positional[..] else {
        return Err(SloError::Usage(
            "print: expected exactly one input file".into(),
        ));
    };
    let prog = load_program(path)?;
    Ok(slo_ir::printer::print_program(&prog))
}

fn cmd_vcg(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [path, record] = &opts.positional[..] else {
        return Err(SloError::Usage("vcg: expected <file.sir> <record>".into()));
    };
    let prog = load_program(path)?;
    let rid = prog
        .types
        .record_by_name(record)
        .ok_or_else(|| SloError::Usage(format!("no record type `{record}`")))?;
    let feedback = collect_feedback(&prog, &opts)?;
    let scheme = scheme_for(&opts, feedback.as_ref())?;
    let (graphs, _) = FactTable::new(&prog).profitability(&scheme);
    Ok(slo::advisor::render_vcg(&prog, rid, &graphs[&rid]))
}

/// Numeric `--flag N` with a default when absent.
fn flag_count(opts: &Opts, name: &str, default: usize) -> Result<usize> {
    match opts.value(name) {
        Some(v) => v
            .parse()
            .map_err(|_| SloError::Usage(format!("--{name}: invalid count `{v}`"))),
        None if opts.has(name) => Err(SloError::Usage(format!("--{name} needs a number"))),
        None => Ok(default),
    }
}

/// `--chaos-seed N` → a seeded fault plan with the default per-site
/// rates; absent → disabled (zero-cost) plan.
fn chaos_flag(opts: &Opts) -> Result<FaultPlan> {
    match opts.value("chaos-seed") {
        Some(v) => {
            let seed: u64 = v
                .parse()
                .map_err(|_| SloError::Usage(format!("--chaos-seed: invalid seed `{v}`")))?;
            Ok(FaultPlan::seeded(seed))
        }
        None if opts.has("chaos-seed") => {
            Err(SloError::Usage("--chaos-seed needs a number".into()))
        }
        None => Ok(FaultPlan::disabled()),
    }
}

/// `--store DIR` → the persistent analysis store opened (and created)
/// at DIR, sharing the service's recorder and fault plan; absent →
/// `None`. The plan is shared deliberately: a chaos campaign's store
/// faults count in the same `injected_by_site` totals.
fn store_flag(
    opts: &Opts,
    rec: &Recorder,
    chaos: &FaultPlan,
) -> Result<Option<slo_service::AnalysisStore>> {
    match opts.value("store") {
        Some(p) => {
            let store = slo_service::AnalysisStore::open(
                std::path::Path::new(p),
                rec.clone(),
                chaos.clone(),
            )
            .map_err(|e| SloError::Io(format!("store `{p}`: {e}")))?;
            Ok(Some(store))
        }
        None if opts.has("store") => Err(SloError::Usage("--store needs a directory".into())),
        None => Ok(None),
    }
}

fn cmd_batch(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let [manifest] = &opts.positional[..] else {
        return Err(SloError::Usage(
            "batch: expected exactly one manifest file".into(),
        ));
    };
    let workers = flag_count(&opts, "workers", 0)?;
    let cache = flag_count(&opts, "cache", 256)?;
    let (rec, trace_path) = trace_recorder(&opts)?;
    let jobs = slo_service::load_manifest(std::path::Path::new(manifest))?;
    let chaos = chaos_flag(&opts)?;
    let mut service = Service::with_chaos(
        ServiceConfig::builder()
            .workers(workers)
            .cache_capacity(cache)
            .build(),
        rec.clone(),
        chaos.clone(),
        RetryPolicy::default(),
        Clock::Real,
    );
    if let Some(store) = store_flag(&opts, &rec, &chaos)? {
        service = service.with_store(store);
    }
    let outcomes = service.run_batch(&jobs);
    write_trace(&rec, trace_path.as_deref())?;

    let mut s = String::new();
    for o in &outcomes {
        // `--wire` answers in the same v1 JSON protocol as serve; the
        // default stays the human-readable legacy line.
        if opts.has("wire") {
            let _ = writeln!(s, "{}", slo_service::Response::from_outcome(o).to_json());
        } else {
            let _ = writeln!(s, "{}", legacy_line(o));
        }
    }
    let m = service.metrics();
    let _ = writeln!(
        s,
        "{} job(s): {} optimized, {} advisory, {} failed; cache {}/{} hit ({:.0}%)",
        m.jobs,
        m.optimized,
        m.degraded,
        m.failed,
        m.cache_hits,
        m.cache_hits + m.cache_misses,
        100.0 * m.cache_hit_rate()
    );
    if opts.has("store") {
        let _ = writeln!(
            s,
            "store: {}/{} hit ({:.0}%), {} corrupt dropped, {} byte(s) written",
            m.store_hits,
            m.store_hits + m.store_misses,
            100.0 * m.store_hit_rate(),
            m.store_corrupt_drops,
            m.store_bytes
        );
    }
    if opts.has("json") {
        let _ = writeln!(s, "{}", m.to_json());
    }
    if opts.has("strict") && m.degraded + m.failed > 0 {
        return Err(SloError::Usage(format!(
            "{s}batch --strict: {} degraded and {} failed job(s)",
            m.degraded, m.failed
        )));
    }
    Ok(s)
}

fn cmd_serve(args: &[String]) -> Result<String> {
    let opts = parse_opts(args);
    let workers = flag_count(&opts, "workers", 0)?;
    let cache = flag_count(&opts, "cache", 256)?;
    let legacy = opts.has("legacy-lines");
    let chaos = chaos_flag(&opts)?;
    let mut service = Service::with_chaos(
        ServiceConfig::builder()
            .workers(workers)
            .cache_capacity(cache)
            .build(),
        Recorder::disabled(),
        chaos.clone(),
        RetryPolicy::default(),
        Clock::Real,
    );
    if let Some(store) = store_flag(&opts, &Recorder::disabled(), &chaos)? {
        println!("store: {} analysis record(s) on disk", store.len());
        service = service.with_store(store);
    }
    let journal: Option<Mutex<Journal>> = match opts.value("journal") {
        Some(p) => {
            let j = Journal::open(std::path::Path::new(p))
                .map_err(|e| SloError::Io(format!("journal `{p}`: {e}")))?;
            println!("journal: recovered {} completed job(s)", j.recovered());
            Some(Mutex::new(j))
        }
        None if opts.has("journal") => {
            return Err(SloError::Usage("--journal needs a file path".into()))
        }
        None => None,
    };
    let dir = std::env::current_dir().map_err(|e| SloError::Io(format!("current dir: {e}")))?;

    if opts.has("listen") {
        return serve_listen(&opts, &service, journal.as_ref(), dir, legacy);
    }

    // stdin front end: the same protocol Session the TCP ingress uses.
    let session = Session::new(&service, journal.as_ref(), dir, legacy);
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        let n = std::io::BufRead::read_line(&mut stdin.lock(), &mut line)
            .map_err(|e| SloError::Io(format!("stdin: {e}")))?;
        if n == 0 {
            break; // EOF
        }
        match session.handle_line(&line) {
            Reply::Quit => break,
            Reply::Lines(lines) => {
                for l in lines {
                    println!("{l}");
                }
            }
            Reply::Text(text) => print!("{text}"),
        }
    }
    Ok(serve_summary(&service, session.replayed()))
}

/// The end-of-session summary line shared by the stdin and TCP serve
/// front ends.
fn serve_summary(service: &Service, replayed: u64) -> String {
    format!(
        "served {} job(s){}\n",
        service.metrics().jobs,
        if replayed > 0 {
            format!(" ({replayed} replayed from journal)")
        } else {
            String::new()
        }
    )
}

/// `slo serve --listen <addr>`: the TCP ingress. The main thread keeps
/// reading stdin; EOF or `quit` begins the graceful drain.
fn serve_listen(
    opts: &Opts,
    service: &Service,
    journal: Option<&Mutex<Journal>>,
    dir: std::path::PathBuf,
    legacy: bool,
) -> Result<String> {
    let addr = opts
        .value("listen")
        .ok_or_else(|| SloError::Usage("--listen needs an address (e.g. 127.0.0.1:0)".into()))?;
    let cfg = NetConfig {
        addr: addr.to_string(),
        dir,
        max_clients: flag_count(opts, "net-clients", 64)?,
        max_inflight: flag_count(opts, "net-inflight", 4)?,
        queue_capacity: flag_count(opts, "net-queue", 16)?,
        per_client_inflight: flag_count(opts, "net-per-client", 8)?,
        read_timeout_ms: flag_count(opts, "net-read-timeout-ms", 5_000)? as u64,
        retry_after_ms: flag_count(opts, "net-retry-after-ms", 50)? as u64,
        legacy,
    };
    let server = NetServer::bind(cfg).map_err(|e| SloError::Io(format!("bind `{addr}`: {e}")))?;
    let local = server
        .local_addr()
        .map_err(|e| SloError::Io(format!("local addr: {e}")))?;
    // Announce the resolved address (`:0` picks a port) and flush so a
    // supervising process can read it from a pipe immediately.
    println!("listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let run_result = std::thread::scope(|scope| {
        let runner = scope.spawn(|| server.run(service, journal));
        // Stdin is the control channel: EOF or `quit` drains the server.
        let stdin = std::io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if matches!(line.trim(), "quit" | "exit") => break,
                Ok(_) => {}
            }
        }
        server.request_shutdown();
        runner.join().expect("server thread")
    });
    run_result.map_err(|e| SloError::Io(format!("serve: {e}")))?;
    Ok(serve_summary(service, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_sample() -> tempfile_path::TempPath {
        tempfile_path::write_temp(
            "sample.sir",
            r#"
record pair { hot: i64, c1: i64, c2: i64 }
func main() -> i64 {
bb0:
  r0 = alloc pair, 64
  r1 = 0
  jump bb1
bb1:
  r2 = cmp.lt r1, 64
  br r2, bb2, bb3
bb2:
  r3 = indexaddr r0, pair, r1
  r4 = fieldaddr r3, pair.hot
  store r1, r4 : i64
  r5 = load r4 : i64
  r1 = add r1, 1
  jump bb1
bb3:
  r6 = fieldaddr r0, pair.c1
  store 1, r6 : i64
  r7 = load r6 : i64
  r8 = fieldaddr r0, pair.c2
  store 2, r8 : i64
  r9 = load r8 : i64
  r10 = add r7, r9
  ret r10
}
"#,
        )
    }

    /// Tiny temp-file helper (no external crates).
    mod tempfile_path {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub struct TempPath(pub PathBuf);

        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        pub fn write_temp(name: &str, contents: &str) -> TempPath {
            let id = COUNTER.fetch_add(1, Ordering::Relaxed);
            let mut p = std::env::temp_dir();
            p.push(format!("slo-cli-test-{}-{id}-{name}", std::process::id()));
            std::fs::write(&p, contents).expect("write temp file");
            TempPath(p)
        }
    }

    fn dispatch_str(args: &[&str]) -> Result<String> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    #[test]
    fn help_prints_usage() {
        let out = dispatch_str(&["help"]).expect("help ok");
        assert!(out.contains("usage: slo"));
    }

    #[test]
    fn unknown_command_fails() {
        assert!(dispatch_str(&["bogus"]).is_err());
        assert!(dispatch_str(&[]).is_err());
    }

    #[test]
    fn run_executes() {
        let f = write_sample();
        let out = dispatch_str(&["run", f.0.to_str().expect("utf8 path")]).expect("run ok");
        assert!(out.contains("exit      : 3"));
        assert!(out.contains("cycles"));
    }

    #[test]
    fn analyze_reports_types() {
        let f = write_sample();
        let out = dispatch_str(&["analyze", f.0.to_str().expect("utf8 path")]).expect("analyze ok");
        assert!(out.contains("1 record types, 1 legal"));
        assert!(out.contains("pair"));
        assert!(out.contains("*OK*"));
    }

    #[test]
    fn advise_renders_report() {
        let f = write_sample();
        let out = dispatch_str(&["advise", f.0.to_str().expect("utf8 path")]).expect("advise ok");
        assert!(out.contains("Type     : pair"));
        assert!(out.contains("\"hot\""));
    }

    #[test]
    fn optimize_prints_plan_and_ir() {
        let f = write_sample();
        let out = dispatch_str(&[
            "optimize",
            f.0.to_str().expect("utf8 path"),
            "--scheme",
            "ispbo",
        ])
        .expect("optimize ok");
        assert!(out.contains("transformed"));
        assert!(out.contains("record pair"));
    }

    #[test]
    fn optimize_measure_runs_both() {
        let f = write_sample();
        let out = dispatch_str(&["optimize", f.0.to_str().expect("utf8 path"), "--measure"])
            .expect("optimize ok");
        assert!(out.contains("cycles"));
        assert!(out.contains("%"));
    }

    #[test]
    fn profile_roundtrips_through_file() {
        let f = write_sample();
        let prof = tempfile_path::write_temp("p.prof", "");
        let out = dispatch_str(&[
            "profile",
            f.0.to_str().expect("utf8 path"),
            "-o",
            prof.0.to_str().expect("utf8 path"),
        ])
        .expect("profile ok");
        assert!(out.contains("wrote"));
        // use the profile for a pbo advise
        let out = dispatch_str(&[
            "advise",
            f.0.to_str().expect("utf8 path"),
            "--scheme",
            "pbo",
            "--profile",
            prof.0.to_str().expect("utf8 path"),
        ])
        .expect("pbo advise ok");
        assert!(out.contains("Type     : pair"));
        assert!(out.contains("miss :"), "d-cache data must be attributed");
    }

    #[test]
    fn print_normalizes_ir() {
        let f = write_sample();
        let out = dispatch_str(&["print", f.0.to_str().expect("utf8 path")]).expect("print ok");
        assert!(out.contains("record pair"));
        assert!(out.contains("func main() -> i64 {"));
        // printing is a fixpoint
        let f2 = tempfile_path::write_temp("round.sir", &out);
        let out2 = dispatch_str(&["print", f2.0.to_str().expect("utf8 path")]).expect("reprint ok");
        assert_eq!(out, out2);
    }

    #[test]
    fn vcg_emits_graph() {
        let f = write_sample();
        let out = dispatch_str(&["vcg", f.0.to_str().expect("utf8 path"), "pair"]).expect("vcg ok");
        assert!(out.starts_with("graph: {"));
        assert!(out.contains("\"hot\""));
    }

    #[test]
    fn vcg_unknown_record_fails() {
        let f = write_sample();
        assert!(dispatch_str(&["vcg", f.0.to_str().expect("utf8 path"), "zzz"]).is_err());
    }

    #[test]
    fn pbo_without_profile_fails() {
        let f = write_sample();
        let err = dispatch_str(&[
            "optimize",
            f.0.to_str().expect("utf8 path"),
            "--scheme",
            "pbo",
        ]);
        // bare `pbo` without --profile collects nothing and errors
        assert!(err.is_err());
    }

    #[test]
    fn bad_file_reports_error() {
        assert!(dispatch_str(&["run", "/nonexistent/x.sir"]).is_err());
        let bad = tempfile_path::write_temp("bad.sir", "record { }");
        assert!(dispatch_str(&["run", bad.0.to_str().expect("utf8 path")]).is_err());
    }
}
