//! The versioned wire protocol shared by every service front end.
//!
//! Three consumers used to speak three ad-hoc line formats: `slo serve`
//! on stdin, the manifest loader behind `slo batch`, and whatever a
//! future socket ingress would have invented. This module collapses
//! them into one protocol:
//!
//! * **Requests** are the manifest attribute syntax, one job line per
//!   request (`<file.sir> [scheme=S] [budget-ms=N] ...`), plus the
//!   control verbs `hello [v=N]`, `metrics`, `metrics prom` and
//!   `quit`/`exit`. Parsing delegates to the one manifest validator
//!   ([`crate::manifest::parse_job_line`]), so `MAX_LINE_LEN` and
//!   duplicate-attribute rejection hold identically on every path.
//! * **Responses** are one-line JSON objects with a stable leading
//!   field set — `v`, `id`, `status`, `degradation`, `attempts`,
//!   `cached`, `retry_after_ms` — followed by status-specific detail
//!   (cycle counts for `optimized`, a machine-parseable `code` +
//!   `message` for `error`/`failed`, `replayed` for journal hits).
//! * **Version handshake**: a client may open with `hello v=1`; the
//!   server answers with its own `v` and rejects unsupported versions
//!   with code `unsupported-version` instead of guessing.
//!
//! [`Request::fingerprint`] is the single derivation of a request's
//! durable identity — the serve journal's WAL key (`job_key` delegates
//! here) — so the wire protocol and the journal can never drift.
//!
//! [`Session`] is the transport-agnostic request loop: stdin serve and
//! the TCP ingress both feed lines through [`Session::handle_line`],
//! and `slo batch --wire` emits the same [`Response`] lines, so there
//! is exactly one protocol implementation in the tree.

use crate::job::{Job, JobInput, JobStatus};
use crate::journal::Journal;
use crate::manifest::{chaos_line, parse_job_line};
use crate::service::Service;
use slo_ir::fnv1a;
use slo_obs::json::{write_str, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The protocol version this build speaks.
pub const PROTO_VERSION: u64 = 1;

/// A parsed wire request.
#[derive(Debug, Clone)]
pub enum Request {
    /// `hello [v=N]` — version handshake.
    Hello {
        /// The version the client asked for (defaults to ours).
        version: u64,
    },
    /// `metrics` — the service counters as one JSON object.
    Metrics,
    /// `metrics prom` — the Prometheus text exposition.
    MetricsProm,
    /// `quit` / `exit` — end the session.
    Quit,
    /// A job line in manifest attribute syntax (`repeat=` may expand
    /// one line into several jobs).
    Jobs(Vec<Job>),
}

/// A protocol-level rejection: a machine-parseable code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable error code (`bad-request`, `line-too-long`,
    /// `duplicate-attribute`, `unsupported-version`, `slow-read`,
    /// `overload`, `busy`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    fn new(code: &'static str, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
        }
    }
}

/// Classify a manifest-validator message into a stable wire code.
fn classify_parse_error(msg: &str) -> &'static str {
    if msg.contains("too long") {
        "line-too-long"
    } else if msg.contains("duplicate attribute") {
        "duplicate-attribute"
    } else {
        "bad-request"
    }
}

impl Request {
    /// Parse one wire line. Blank lines and `#` comments are the
    /// caller's concern (they are skipped, not requests). Relative
    /// `.sir`/`.prof` paths resolve against `dir`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] with a stable code; job-line validation errors
    /// come verbatim from the shared manifest validator.
    pub fn parse(dir: &Path, line: &str) -> Result<Request, WireError> {
        let line = line.trim();
        match line {
            "quit" | "exit" => return Ok(Request::Quit),
            "metrics" => return Ok(Request::Metrics),
            "metrics prom" => return Ok(Request::MetricsProm),
            _ => {}
        }
        if line == "hello" || line.starts_with("hello ") {
            let mut version = PROTO_VERSION;
            for tok in line.split_whitespace().skip(1) {
                match tok.split_once('=') {
                    Some(("v", v)) => {
                        version = v.parse().map_err(|_| {
                            WireError::new("bad-request", format!("bad version `{v}`"))
                        })?;
                    }
                    _ => {
                        return Err(WireError::new(
                            "bad-request",
                            format!("unknown hello attribute `{tok}`"),
                        ))
                    }
                }
            }
            if version != PROTO_VERSION {
                return Err(WireError::new(
                    "unsupported-version",
                    format!("server speaks v={PROTO_VERSION}, client asked for v={version}"),
                ));
            }
            return Ok(Request::Hello { version });
        }
        let jobs =
            parse_job_line(dir, line).map_err(|e| WireError::new(classify_parse_error(&e), e))?;
        Ok(Request::Jobs(jobs))
    }

    /// The single derivation of a request's durable identity: FNV-1a
    /// over the wire line, the job id and the program text the line
    /// resolved to. The serve journal keys its WAL on this (see
    /// [`crate::journal::job_key`], which delegates here), so editing
    /// the `.sir` file or the line's attributes always changes the key
    /// and a recovered journal never serves stale results.
    pub fn fingerprint(line: &str, job: &Job) -> u64 {
        let mut h = fnv1a(line.trim().as_bytes());
        h ^= fnv1a(job.id.as_bytes()).rotate_left(17);
        if let JobInput::Source(src) = &job.input {
            h ^= fnv1a(src.as_bytes()).rotate_left(31);
        }
        h
    }
}

/// One wire reply: a flat JSON object serialized to a single line.
///
/// The leading seven fields are the protocol's stable contract and are
/// always present (with `null` where not applicable); later fields are
/// status-specific detail and may grow in future versions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Response {
    /// Protocol version of the sender.
    pub v: u64,
    /// The job id the reply answers (empty for protocol-level errors
    /// that never resolved to a job).
    pub id: String,
    /// `optimized` / `advisory` / `failed` / `error` / `shed` / `ok`.
    pub status: String,
    /// Degradation reason kind for `advisory` replies.
    pub degradation: Option<String>,
    /// Supervisor attempts (0 for non-job replies).
    pub attempts: u32,
    /// Whether the analysis came from the content-hash cache.
    pub cached: bool,
    /// For `shed` replies: when the client should retry.
    pub retry_after_ms: Option<u64>,
    /// Machine-parseable error code (`error`/`failed` replies).
    pub code: Option<String>,
    /// Human-readable detail.
    pub message: Option<String>,
    /// `optimized`: number of record types transformed.
    pub types: Option<u64>,
    /// `optimized`: simulated baseline cycles.
    pub baseline_cycles: Option<u64>,
    /// `optimized`: simulated optimized cycles.
    pub optimized_cycles: Option<u64>,
    /// `advisory`: whether the §3 report was produced.
    pub report_available: Option<bool>,
    /// Whether this reply was replayed from the serve journal.
    pub replayed: bool,
}

impl Response {
    /// The handshake reply.
    pub fn hello() -> Response {
        Response {
            v: PROTO_VERSION,
            id: "hello".to_string(),
            status: "ok".to_string(),
            ..Response::default()
        }
    }

    /// A protocol-level error reply (bad line, bad version, timeout).
    pub fn error(id: &str, err: &WireError) -> Response {
        Response {
            v: PROTO_VERSION,
            id: id.to_string(),
            status: "error".to_string(),
            code: Some(err.code.to_string()),
            message: Some(err.message.clone()),
            ..Response::default()
        }
    }

    /// A load-shed reply: the admission queue is full; retry after the
    /// given backoff instead of queueing unboundedly.
    pub fn shed(id: &str, retry_after_ms: u64) -> Response {
        Response {
            v: PROTO_VERSION,
            id: id.to_string(),
            status: "shed".to_string(),
            retry_after_ms: Some(retry_after_ms),
            code: Some("overload".to_string()),
            message: Some("admission queue full; retry after backoff".to_string()),
            ..Response::default()
        }
    }

    /// The reply for one completed job outcome.
    pub fn from_outcome(o: &crate::job::JobOutcome) -> Response {
        let mut r = Response {
            v: PROTO_VERSION,
            id: o.id.clone(),
            status: o.status.kind().to_string(),
            attempts: o.attempts,
            cached: o.metrics.cache_hit,
            ..Response::default()
        };
        match &o.status {
            JobStatus::Optimized(opt) => {
                r.types = Some(opt.num_transformed as u64);
                r.baseline_cycles = Some(opt.eval.baseline_cycles);
                r.optimized_cycles = Some(opt.eval.optimized_cycles);
            }
            JobStatus::Advisory { reason, report } => {
                r.degradation = Some(reason.kind().to_string());
                r.message = Some(reason.to_string());
                r.report_available = Some(report.is_some());
            }
            JobStatus::Failed(msg) => {
                r.code = Some("job-failed".to_string());
                r.message = Some(msg.lines().next().unwrap_or_default().to_string());
            }
        }
        r
    }

    /// Serialize as one JSON line (no trailing newline). Field order is
    /// fixed: the seven stable fields first, detail after.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(s, "{{\"v\":{},\"id\":", self.v);
        write_str(&mut s, &self.id);
        s.push_str(",\"status\":");
        write_str(&mut s, &self.status);
        s.push_str(",\"degradation\":");
        match &self.degradation {
            Some(d) => write_str(&mut s, d),
            None => s.push_str("null"),
        }
        let _ = write!(
            s,
            ",\"attempts\":{},\"cached\":{},\"retry_after_ms\":",
            self.attempts, self.cached
        );
        match self.retry_after_ms {
            Some(ms) => {
                let _ = write!(s, "{ms}");
            }
            None => s.push_str("null"),
        }
        for (key, text) in [("code", &self.code), ("message", &self.message)] {
            if let Some(text) = text {
                let _ = write!(s, ",\"{key}\":");
                write_str(&mut s, text);
            }
        }
        for (key, n) in [
            ("types", self.types),
            ("baseline_cycles", self.baseline_cycles),
            ("optimized_cycles", self.optimized_cycles),
        ] {
            if let Some(n) = n {
                let _ = write!(s, ",\"{key}\":{n}");
            }
        }
        if let Some(r) = self.report_available {
            let _ = write!(s, ",\"report_available\":{r}");
        }
        if self.replayed {
            s.push_str(",\"replayed\":true");
        }
        s.push('}');
        s
    }

    /// Parse a reply line back into a [`Response`] — the client half of
    /// the protocol (bench drivers, chaos campaigns, conformance
    /// tests).
    ///
    /// # Errors
    ///
    /// A short message if the line is not a v1 reply object.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line.trim())?;
        if !matches!(doc, Json::Obj(_)) {
            return Err("not a JSON object line".to_string());
        }
        let text = |key| doc.get(key).and_then(Json::as_str).map(str::to_string);
        let int = |key| doc.get(key).and_then(Json::as_u64);
        let flag = |key| doc.get(key).and_then(Json::as_bool);
        Ok(Response {
            v: int("v").ok_or("missing `v`")?,
            id: text("id").ok_or("missing `id`")?,
            status: text("status").ok_or("missing `status`")?,
            degradation: text("degradation"),
            attempts: int("attempts").unwrap_or(0) as u32,
            cached: flag("cached").unwrap_or(false),
            retry_after_ms: int("retry_after_ms"),
            code: text("code"),
            message: text("message"),
            types: int("types"),
            baseline_cycles: int("baseline_cycles"),
            optimized_cycles: int("optimized_cycles"),
            report_available: flag("report_available"),
            replayed: flag("replayed").unwrap_or(false),
        })
    }

    /// Mark a serialized reply line as replayed from the journal (the
    /// WAL stores the original reply verbatim; replay re-emits it with
    /// the `replayed` marker appended).
    pub fn mark_replayed(line: &str) -> String {
        let trimmed = line.trim_end();
        match trimmed.strip_suffix('}') {
            Some(head) if trimmed.starts_with('{') && !trimmed.contains("\"replayed\":") => {
                format!("{head},\"replayed\":true}}")
            }
            _ => format!("{trimmed} [journal]"),
        }
    }
}

/// The pre-protocol human-readable result line (one per outcome),
/// kept as `slo serve --legacy-lines` / `slo batch`'s display format
/// for one release.
pub fn legacy_line(o: &crate::job::JobOutcome) -> String {
    let cache = if o.metrics.cache_hit { " [cached]" } else { "" };
    match &o.status {
        JobStatus::Optimized(opt) => format!(
            "{:<24} optimized  {} type(s), cycles {} -> {} ({:+.1}%){}",
            o.id,
            opt.num_transformed,
            opt.eval.baseline_cycles,
            opt.eval.optimized_cycles,
            opt.eval.speedup_percent(),
            cache
        ),
        JobStatus::Advisory { reason, report } => format!(
            "{:<24} advisory   {reason}{}{}",
            o.id,
            if report.is_some() {
                " (report available)"
            } else {
                ""
            },
            cache
        ),
        JobStatus::Failed(msg) => {
            let first = msg.lines().next().unwrap_or_default();
            format!("{:<24} failed     {first}", o.id)
        }
    }
}

// --- the transport-agnostic session ------------------------------------

/// What a handled line asks the transport to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Write these reply lines (one per job, or one error/handshake).
    Lines(Vec<String>),
    /// Write this multi-line text block verbatim (metrics expositions).
    Text(String),
    /// End the session.
    Quit,
}

/// One client's protocol session: the request loop shared verbatim by
/// stdin serve and the TCP ingress. Feed wire lines to
/// [`Session::handle_line`]; the session parses them through the
/// shared validator, answers journaled jobs from the WAL, runs the
/// rest on the service (journaling each outcome *before* it is
/// acknowledged), and renders replies in the JSON protocol or the
/// legacy line format.
pub struct Session<'a> {
    service: &'a Service,
    journal: Option<&'a Mutex<Journal>>,
    dir: PathBuf,
    legacy: bool,
    served: AtomicU64,
    replayed: AtomicU64,
}

impl<'a> Session<'a> {
    /// A session over `service`, resolving job-line paths against
    /// `dir`. `legacy` selects the pre-protocol line format.
    pub fn new(
        service: &'a Service,
        journal: Option<&'a Mutex<Journal>>,
        dir: PathBuf,
        legacy: bool,
    ) -> Session<'a> {
        Session {
            service,
            journal,
            dir,
            legacy,
            served: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        }
    }

    /// Jobs this session computed (journal replays excluded).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Jobs this session answered from the journal.
    pub fn replayed(&self) -> u64 {
        self.replayed.load(Ordering::Relaxed)
    }

    /// Render a protocol error in the session's reply format.
    pub fn render_error(&self, err: &WireError) -> String {
        if self.legacy {
            format!("error: {}", err.message)
        } else {
            Response::error("", err).to_json()
        }
    }

    /// Handle one wire line end to end. Blank lines and comments yield
    /// an empty reply. The chaos plan's manifest ingress sites mangle
    /// the line before parsing (a disabled plan is the identity), the
    /// shared validator rejects malformed lines, journaled jobs are
    /// replayed, and fresh jobs run on the service worker pool.
    pub fn handle_line(&self, raw: &str) -> Reply {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Reply::Lines(Vec::new());
        }
        let wire = chaos_line(trimmed, self.service.fault_plan());
        let req = match Request::parse(&self.dir, &wire) {
            Ok(req) => req,
            Err(e) => return Reply::Lines(vec![self.render_error(&e)]),
        };
        match req {
            Request::Quit => Reply::Quit,
            Request::Hello { .. } => Reply::Lines(vec![if self.legacy {
                format!("hello v={PROTO_VERSION}")
            } else {
                Response::hello().to_json()
            }]),
            Request::Metrics => Reply::Text(format!("{}\n", self.service.metrics().to_json())),
            Request::MetricsProm => Reply::Text(self.service.metrics().to_prometheus()),
            Request::Jobs(jobs) => Reply::Lines(self.run_jobs(&wire, jobs)),
        }
    }

    /// Answer journaled jobs from the WAL, run the rest, journal each
    /// fresh outcome before acknowledging it.
    fn run_jobs(&self, wire: &str, jobs: Vec<Job>) -> Vec<String> {
        // Preserve submission order across the replayed/fresh split.
        let mut slots: Vec<Option<String>> = vec![None; jobs.len()];
        let mut todo: Vec<(usize, u64, Job)> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let key = Request::fingerprint(wire, &job);
            let hit = self
                .journal
                .and_then(|j| j.lock().ok())
                .and_then(|j| j.lookup(key).map(|e| e.summary.clone()));
            match hit {
                Some(stored) => {
                    self.replayed.fetch_add(1, Ordering::Relaxed);
                    slots[i] = Some(Response::mark_replayed(&stored));
                }
                None => todo.push((i, key, job)),
            }
        }
        let fresh: Vec<Job> = todo.iter().map(|(_, _, j)| j.clone()).collect();
        let submitted = Instant::now();
        for (o, (i, key, _)) in self
            .service
            .run_batch_since(&fresh, submitted)
            .iter()
            .zip(&todo)
        {
            self.served.fetch_add(1, Ordering::Relaxed);
            let reply = if self.legacy {
                legacy_line(o)
            } else {
                Response::from_outcome(o).to_json()
            };
            // WAL order: make the outcome durable first, acknowledge
            // second — a kill between the two recomputes the job
            // instead of losing an acked reply.
            if let Some(j) = self.journal {
                if let Ok(mut j) = j.lock() {
                    let _ = j.record(*key, &o.id, &o.status, &reply);
                }
            }
            slots[*i] = Some(reply);
        }
        slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobOutcome;
    use crate::{Degradation, JobMetrics, Optimized};
    use slo::Evaluation;

    fn tmpdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "slo-proto-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    const SIR: &str = "func main() -> i64 {\nbb0:\n  ret 7\n}\n";

    #[test]
    fn parses_control_verbs_and_handshake() {
        let d = tmpdir();
        assert!(matches!(Request::parse(&d, "quit"), Ok(Request::Quit)));
        assert!(matches!(Request::parse(&d, "exit"), Ok(Request::Quit)));
        assert!(matches!(
            Request::parse(&d, "metrics"),
            Ok(Request::Metrics)
        ));
        assert!(matches!(
            Request::parse(&d, "metrics prom"),
            Ok(Request::MetricsProm)
        ));
        assert!(matches!(
            Request::parse(&d, "hello"),
            Ok(Request::Hello {
                version: PROTO_VERSION
            })
        ));
        assert!(matches!(
            Request::parse(&d, "hello v=1"),
            Ok(Request::Hello { version: 1 })
        ));
        let err = Request::parse(&d, "hello v=99").expect_err("future version");
        assert_eq!(err.code, "unsupported-version");
        let err = Request::parse(&d, "hello wat").expect_err("bad attribute");
        assert_eq!(err.code, "bad-request");
    }

    #[test]
    fn job_lines_share_the_manifest_validator() {
        let d = tmpdir();
        std::fs::write(d.join("p.sir"), SIR).expect("write");
        let req = Request::parse(&d, "p.sir scheme=ispbo repeat=2").expect("job line");
        let Request::Jobs(jobs) = req else {
            panic!("expected jobs")
        };
        assert_eq!(jobs.len(), 2);

        let err = Request::parse(&d, "p.sir steps=1 steps=2").expect_err("dup");
        assert_eq!(err.code, "duplicate-attribute");
        let long = format!("p.sir {}", "x".repeat(crate::manifest::MAX_LINE_LEN));
        let err = Request::parse(&d, &long).expect_err("overlong");
        assert_eq!(err.code, "line-too-long");
        let err = Request::parse(&d, "p.sir wat=1").expect_err("unknown attr");
        assert_eq!(err.code, "bad-request");
    }

    #[test]
    fn fingerprint_tracks_line_id_and_source() {
        let job = |src: &str, id: &str| Job::from_source(id, src);
        let k = Request::fingerprint("a.sir steps=10", &job("ret 0", "a"));
        assert_eq!(
            k,
            Request::fingerprint("a.sir steps=10", &job("ret 0", "a"))
        );
        assert_ne!(
            k,
            Request::fingerprint("a.sir steps=20", &job("ret 0", "a"))
        );
        assert_ne!(
            k,
            Request::fingerprint("a.sir steps=10", &job("ret 1", "a"))
        );
        assert_ne!(
            k,
            Request::fingerprint("a.sir steps=10", &job("ret 0", "a#1"))
        );
    }

    fn optimized_outcome() -> JobOutcome {
        JobOutcome {
            id: "job-1".to_string(),
            status: JobStatus::Optimized(Optimized {
                transformed: String::new(),
                num_transformed: 2,
                eval: Evaluation {
                    baseline_cycles: 1000,
                    optimized_cycles: 800,
                    baseline_instructions: 500,
                    optimized_instructions: 500,
                },
                ipa_fingerprint: 7,
            }),
            metrics: JobMetrics {
                cache_hit: true,
                ..JobMetrics::default()
            },
            attempts: 1,
            quarantined: false,
        }
    }

    #[test]
    fn response_json_round_trips() {
        let r = Response::from_outcome(&optimized_outcome());
        let line = r.to_json();
        assert!(line.starts_with("{\"v\":1,\"id\":\"job-1\",\"status\":\"optimized\""));
        let back = Response::parse(&line).expect("parse back");
        assert_eq!(back, r);
        assert_eq!(back.types, Some(2));
        assert_eq!(back.baseline_cycles, Some(1000));
        assert!(back.cached);

        let advisory = JobOutcome {
            status: JobStatus::Advisory {
                reason: Degradation::Budget("out of time".to_string()),
                report: Some("report".to_string()),
            },
            ..optimized_outcome()
        };
        let back = Response::parse(&Response::from_outcome(&advisory).to_json()).expect("parse");
        assert_eq!(back.status, "advisory");
        assert_eq!(back.degradation.as_deref(), Some("budget"));
        assert_eq!(back.report_available, Some(true));

        let shed = Response::shed("x", 125);
        let back = Response::parse(&shed.to_json()).expect("parse shed");
        assert_eq!(back.retry_after_ms, Some(125));
        assert_eq!(back.code.as_deref(), Some("overload"));

        let err = Response::error("", &WireError::new("bad-request", "quoted \"msg\"\n"));
        let back = Response::parse(&err.to_json()).expect("parse error reply");
        assert_eq!(back.message.as_deref(), Some("quoted \"msg\"\n"));
    }

    #[test]
    fn mark_replayed_appends_marker_once() {
        let r = Response::hello().to_json();
        let marked = Response::mark_replayed(&r);
        assert!(marked.ends_with(",\"replayed\":true}"), "{marked}");
        let parsed = Response::parse(&marked).expect("still parseable");
        assert!(parsed.replayed);
        // legacy (non-JSON) summaries get the old suffix
        assert_eq!(
            Response::mark_replayed("a optimized 1"),
            "a optimized 1 [journal]"
        );
    }

    #[test]
    fn session_runs_jobs_and_replays_from_journal() {
        let d = tmpdir();
        std::fs::write(d.join("s.sir"), SIR).expect("write");
        let jpath = d.join(format!("session-{:?}.journal", std::thread::current().id()));
        let _ = std::fs::remove_file(&jpath);
        let service = Service::new(crate::ServiceConfig::builder().workers(1).build());
        let journal = Mutex::new(Journal::open(&jpath).expect("journal"));
        let session = Session::new(&service, Some(&journal), d.clone(), false);

        let Reply::Lines(lines) = session.handle_line("s.sir scheme=ispbo") else {
            panic!("expected lines")
        };
        assert_eq!(lines.len(), 1);
        let r = Response::parse(&lines[0]).expect("json reply");
        assert_eq!(r.status, "optimized");
        assert!(!r.replayed);
        assert_eq!(session.served(), 1);

        // Same line again: answered from the journal, not recomputed.
        let Reply::Lines(lines) = session.handle_line("s.sir scheme=ispbo") else {
            panic!("expected lines")
        };
        let r = Response::parse(&lines[0]).expect("json reply");
        assert!(r.replayed, "{lines:?}");
        assert_eq!(session.replayed(), 1);
        assert_eq!(session.served(), 1, "no recompute");

        assert_eq!(session.handle_line("quit"), Reply::Quit);
        assert_eq!(session.handle_line("   "), Reply::Lines(Vec::new()));
        let Reply::Text(metrics) = session.handle_line("metrics") else {
            panic!("expected text")
        };
        assert!(metrics.contains("\"jobs\": 1"));
    }
}
