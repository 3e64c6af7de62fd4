//! Conformance suite for the observability layer.
//!
//! The contract under test, end to end:
//!
//! 1. a traced compile emits a Chrome `trace_event` JSON document that
//!    passes the golden-schema checker in `slo_obs::conform`, with one
//!    span per pipeline phase (the names anchored in ARCHITECTURE.md);
//! 2. spans nest properly — every phase span sits inside the `compile`
//!    span, with no partial overlap on any thread;
//! 3. the service's Prometheus exposition parses line-by-line;
//! 4. a disabled recorder records nothing, costs nothing observable,
//!    and — crucially — tracing on/off does not change what the
//!    pipeline produces: compile output is bit-identical either way.

use slo::analysis::WeightScheme;
use slo::obs::conform::{check_chrome_trace, check_prometheus};
use slo::obs::json::Json;
use slo::obs::{EventKind, Recorder};
use slo::pipeline::PipelineConfig;
use slo_ir::printer::print_program;
use slo_service::{Budget, Fault, Job, SchemeSpec, Service, ServiceConfig};
use slo_workloads::mcf::{self, McfConfig};

/// The seven pipeline phases, in ARCHITECTURE.md order.
const PHASES: [&str; 7] = [
    "parse",
    "legality",
    "escape",
    "hotness",
    "plan",
    "transform",
    "verify",
];

fn sample_program() -> slo_ir::Program {
    mcf::build_config(McfConfig {
        n: 500,
        iters: 3,
        skew: 0,
    })
}

/// Compile the sample program under a recorder, with an explicit parse
/// span around a text round-trip (the library pipeline starts from an
/// in-memory `Program`; the CLI owns the real parse span).
fn traced_compile(rec: &Recorder) -> slo::pipeline::CompileResult {
    let prog = sample_program();
    {
        let _s = rec.span("pipeline", "parse");
        let text = print_program(&prog);
        slo_ir::parser::parse(&text).expect("IR text round-trip");
    }
    slo::compile_with(&prog, &WeightScheme::Ispbo, &PipelineConfig::default(), rec)
        .expect("traced compile")
}

#[test]
fn traced_compile_emits_all_seven_phase_spans() {
    let rec = Recorder::enabled();
    traced_compile(&rec);
    let summary = check_chrome_trace(&rec.to_chrome_json()).expect("conformant trace");
    for phase in PHASES {
        assert!(
            summary.has(phase),
            "missing `{phase}` span; got: {:?}",
            summary.names
        );
    }
    assert!(summary.has("compile"), "missing the outer `compile` span");
    assert_eq!(summary.dropped, 0, "events dropped from a tiny trace");
}

#[test]
fn chrome_trace_matches_golden_schema() {
    let rec = Recorder::enabled();
    traced_compile(&rec);
    let doc = Json::parse(&rec.to_chrome_json()).expect("trace is valid JSON");
    // Top-level golden schema.
    for key in ["traceEvents", "displayTimeUnit", "otherData"] {
        assert!(doc.get(key).is_some(), "missing top-level `{key}`");
    }
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Per-event golden schema: every complete event carries the full
    // key set a Chrome/Perfetto importer expects.
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let want: &[&str] = if ph == "X" {
            &["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"]
        } else {
            &["name", "cat", "ph", "ts", "pid", "tid", "args"]
        };
        for key in want {
            assert!(ev.get(key).is_some(), "{ph} event missing `{key}`");
        }
        assert_eq!(ev.get("pid").and_then(Json::as_f64), Some(1.0));
    }
}

#[test]
fn phase_spans_nest_inside_the_compile_span() {
    let rec = Recorder::enabled();
    traced_compile(&rec);
    let events = rec.events();
    let compile = events
        .iter()
        .find(|e| e.name == "compile")
        .expect("compile span");
    let (c0, c1) = (compile.ts_us, compile.ts_us + compile.dur_us);
    for ev in &events {
        if ev.kind == EventKind::Complete && PHASES.contains(&ev.name.as_str()) {
            // `parse` runs before compile by construction; every phase
            // the pipeline owns must sit inside the compile span.
            if ev.name == "parse" {
                continue;
            }
            assert!(
                ev.ts_us >= c0 && ev.ts_us + ev.dur_us <= c1,
                "`{}` span [{}..{}] escapes `compile` [{c0}..{c1}]",
                ev.name,
                ev.ts_us,
                ev.ts_us + ev.dur_us
            );
        }
    }
    // The checker's sweep would reject any partial overlap too.
    check_chrome_trace(&rec.to_chrome_json()).expect("nesting holds");
}

#[test]
fn service_prometheus_exposition_is_line_by_line_conformant() {
    let service = Service::new(ServiceConfig::builder().workers(1).build());
    let mut jobs = vec![
        Job::from_program("obs-a", sample_program()).scheme(SchemeSpec::Ispbo),
        Job::from_program("obs-b", sample_program()).scheme(SchemeSpec::Spbo),
    ];
    // Exercise the degradation-reason labels.
    jobs.push(Job::from_program("obs-panic", sample_program()).fault(Fault::PanicInBe));
    jobs.push(Job::from_program("obs-budget", sample_program()).budget(Budget::steps(5)));
    service.run_batch(&jobs);
    let text = service.metrics().to_prometheus();
    let summary = check_prometheus(&text).expect("conformant exposition");
    for family in [
        "slo_jobs_total",
        "slo_jobs_by_status_total",
        "slo_jobs_degraded_total",
        "slo_cache_events_total",
        "slo_phase_seconds_total",
    ] {
        assert!(summary.has(family), "missing family `{family}`");
    }
    assert!(text.contains(r#"slo_jobs_degraded_total{reason="panic"} 1"#));
    assert!(text.contains(r#"slo_jobs_degraded_total{reason="budget"} 1"#));
}

#[test]
fn disabled_recorder_emits_nothing() {
    let rec = Recorder::disabled();
    traced_compile(&rec);
    assert!(!rec.is_enabled());
    assert_eq!(rec.len(), 0);
    assert_eq!(rec.dropped(), 0);
    assert!(rec.events().is_empty());
    // The empty document still conforms.
    let summary = check_chrome_trace(&rec.to_chrome_json()).expect("empty trace conforms");
    assert_eq!(summary.events, 0);
}

#[test]
fn compile_output_is_bit_identical_with_tracing_on_and_off() {
    let prog = sample_program();
    let cfg = PipelineConfig::default();
    let plain = slo::compile(&prog, &WeightScheme::Ispbo, &cfg).expect("untraced compile");
    let rec = Recorder::enabled();
    let traced =
        slo::compile_with(&prog, &WeightScheme::Ispbo, &cfg, &rec).expect("traced compile");
    assert!(!rec.is_empty(), "recorder saw the traced compile");
    assert_eq!(
        print_program(&plain.program),
        print_program(&traced.program),
        "tracing changed the transformed program"
    );
    assert_eq!(
        plain.plan.num_transformed(),
        traced.plan.num_transformed(),
        "tracing changed the plan"
    );
}

#[test]
fn service_trace_attributes_jobs_and_cache_hits() {
    let rec = Recorder::enabled();
    let service = Service::with_trace(
        ServiceConfig::builder()
            .workers(1)
            .cache_capacity(8)
            .build(),
        rec.clone(),
    );
    let jobs = vec![Job::from_program("attr-a", sample_program()).scheme(SchemeSpec::Ispbo)];
    service.run_batch(&jobs);
    service.run_batch(&jobs); // identical rerun → cache hit
    let summary = check_chrome_trace(&rec.to_chrome_json()).expect("conformant trace");
    assert!(summary.has("job:attr-a"), "per-job span missing");
    assert!(summary.has("cache-hit"), "cache-hit instant missing");
}

/// Every chaos fault path is visible end to end: a campaign service's
/// Prometheus exposition carries the retry/quarantine/fault-site
/// families (still line-by-line conformant), and its trace carries the
/// supervisor's retry and quarantine instants.
#[test]
fn chaos_fault_paths_are_visible_in_prometheus_and_traces() {
    use slo_service::{ChaosConfig, Clock, FaultPlan, RetryPolicy, Site};

    let rec = Recorder::enabled();
    let service = Service::with_chaos(
        ServiceConfig::builder().workers(1).build(),
        rec.clone(),
        FaultPlan::with_config(3, ChaosConfig::never().rate(Site::VmAlloc, 1024)),
        RetryPolicy::default(),
        Clock::virtual_clock(),
    );
    service.run_batch(&[Job::from_program("chaos-a", sample_program())]);

    let text = service.metrics().to_prometheus();
    let summary = check_prometheus(&text).expect("conformant exposition");
    for family in [
        "slo_retries_total",
        "slo_quarantined_total",
        "slo_faults_injected_total",
    ] {
        assert!(summary.has(family), "missing family `{family}`");
    }
    assert!(text.contains(r#"slo_jobs_degraded_total{reason="fault"} 1"#));
    assert!(text.contains("slo_retries_total 2"), "{text}");
    assert!(text.contains("slo_quarantined_total 1"), "{text}");
    assert!(
        text.contains(r#"slo_faults_injected_total{site="vm-alloc"} 3"#),
        "one injection per attempt:\n{text}"
    );
    assert!(
        text.contains(r#"slo_cache_events_total{event="reverified"} 0"#),
        "re-verification counter exported even when quiet:\n{text}"
    );

    let events = rec.events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains(&"retry"), "retry instants traced: {names:?}");
    assert!(
        names.contains(&"quarantine"),
        "quarantine instant traced: {names:?}"
    );
    check_chrome_trace(&rec.to_chrome_json()).expect("chaos trace conforms");
}
