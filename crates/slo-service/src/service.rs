//! The batch-optimization service.
//!
//! [`Service::run_batch`] accepts many jobs, shards them across a
//! bounded worker pool, and returns one structured [`JobOutcome`] per
//! job. Each job runs behind its [`Budget`](crate::job::Budget) with `catch_unwind` panic
//! isolation and a graceful-degradation ladder:
//!
//! 1. full pipeline + differential verification + evaluation,
//! 2. on a BE failure, verification mismatch, exhausted budget, a
//!    caught panic or an injected fault → advisory-only output (the §3
//!    report, when the analysis got far enough),
//! 3. on unusable input → a `Failed` outcome.
//!
//! A batch never aborts because one job went wrong.
//!
//! The FE + IPA half of a job is one call into the service's
//! [`AnalysisTier`]: the LRU, the optional store and the analyses in
//! flight behind one lookup. Jobs that share an analysis key analyze it
//! once, whichever worker gets there first, so a reply does not depend
//! on scheduling.
//!
//! # Supervision
//!
//! Every job runs under a supervisor: an outcome classified *transient*
//! (caught panic, exhausted budget, injected fault) is retried with a
//! bounded deterministic exponential backoff from the service's
//! [`RetryPolicy`], sleeping on its [`Clock`] — a virtual clock in
//! tests and chaos campaigns, so nothing actually blocks. *Deterministic*
//! failures (unparseable input, transform/verification verdicts) are
//! never retried: rerunning a legality analysis cannot change its
//! answer. A job whose attempts are all transient failures is
//! quarantined — its last advisory outcome is still returned, with
//! [`JobOutcome::quarantined`] set, so quarantine never moves a job
//! down the degradation ladder.

use crate::cache::{AnalysisTier, Source};
use crate::job::{
    over_deadline, Degradation, Fault, Job, JobInput, JobMetrics, JobOutcome, JobStatus, Optimized,
    SchemeSpec,
};
use crate::metrics::MetricsSnapshot;
use crate::pool::par_map_supervised;
use crate::store::AnalysisStore;
use slo::analysis::ipa_fingerprint;
use slo::{Analysis, SloError};
use slo_chaos::{Clock, FaultPlan, RetryPolicy};
use slo_ir::{fnv1a, printer::print_program, Program};
use slo_vm::{ExecError, ExecOutcome, Feedback, VmOptions};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads for a batch (`0` = all available cores).
    pub workers: usize,
    /// Analysis-cache LRU bound in entries (`0` disables caching).
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: 256,
        }
    }
}

impl ServiceConfig {
    /// Start building a configuration.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builder for [`ServiceConfig`] (see [`ServiceConfig::builder`]).
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Worker threads (`0` = all cores).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Analysis-cache capacity in entries (`0` disables).
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.cfg.cache_capacity = n;
        self
    }

    /// Finish.
    pub fn build(self) -> ServiceConfig {
        self.cfg
    }
}

/// The concurrent batch-optimization service.
#[derive(Debug)]
pub struct Service {
    cfg: ServiceConfig,
    /// The LRU, the optional store and the analyses in flight.
    tier: AnalysisTier,
    /// The live counters; the cache, store and fault ones stay zero
    /// here and are read from their owners by [`Service::metrics`].
    metrics: Mutex<MetricsSnapshot>,
    trace: slo_obs::Recorder,
    chaos: FaultPlan,
    retry: RetryPolicy,
    clock: Clock,
}

impl Service {
    /// A service with the given configuration.
    pub fn new(cfg: ServiceConfig) -> Service {
        Service::with_trace(cfg, slo_obs::Recorder::disabled())
    }

    /// A service that records a `job:<id>` span per job (plus the
    /// pipeline phase and VM spans underneath) into `trace`.
    /// `ServiceConfig` stays `Copy`, so the recorder rides separately.
    pub fn with_trace(cfg: ServiceConfig, trace: slo_obs::Recorder) -> Service {
        Service::with_chaos(
            cfg,
            trace,
            FaultPlan::disabled(),
            RetryPolicy::default(),
            Clock::Real,
        )
    }

    /// The fully explicit constructor: a fault plan threaded through
    /// the VM, cache and pool, a retry policy for the supervisor, and
    /// the clock it sleeps on. `Service::new` is this with a disabled
    /// plan, the default policy and the real clock.
    pub fn with_chaos(
        cfg: ServiceConfig,
        trace: slo_obs::Recorder,
        chaos: FaultPlan,
        retry: RetryPolicy,
        clock: Clock,
    ) -> Service {
        Service {
            tier: AnalysisTier::new(cfg.cache_capacity, trace.clone(), chaos.clone()),
            metrics: Mutex::default(),
            cfg,
            trace,
            chaos,
            retry,
            clock,
        }
    }

    /// Attach a persistent [`AnalysisStore`] as the analysis tier's
    /// durable layer: an LRU miss falls through to disk before
    /// recomputing, and fresh computations are written back, so
    /// analyses survive process restarts (`slo batch/serve --store`).
    pub fn with_store(mut self, store: AnalysisStore) -> Service {
        self.tier = self.tier.with_store(store);
        self
    }

    /// The fault plan threaded through this service (disabled unless
    /// built with [`Service::with_chaos`]).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.chaos
    }

    /// The supervisor's retry policy.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The trace recorder jobs report into (disabled unless the service
    /// was built with [`Service::with_trace`]).
    pub fn trace(&self) -> &slo_obs::Recorder {
        &self.trace
    }

    /// A point-in-time copy of the service counters, with the cache's,
    /// the store's and the fault plan's counters read from their owners.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = *self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        snap.faults_injected = self.chaos.injected_by_site();
        self.tier.counters_into(&mut snap);
        snap
    }

    /// Run a batch: shard `jobs` across the worker pool and return one
    /// outcome per job, in submission order. Worker threads killed by
    /// the chaos plan's pool site orphan their jobs to the supervising
    /// caller thread, so every job still completes.
    ///
    /// Cache attribution reads as if the jobs ran one by one in
    /// submission order: of the jobs that shared one computation of an
    /// analysis, the first submitted is the one that missed, whichever
    /// worker claimed the key first.
    pub fn run_batch(&self, jobs: &[Job]) -> Vec<JobOutcome> {
        self.run_batch_since(jobs, Instant::now())
    }

    /// [`Service::run_batch`] with an explicit submission instant: the
    /// network ingress admits a request *before* it reaches the pool,
    /// and queue-wait accounting should start at admission, not at the
    /// moment the worker shard begins.
    pub fn run_batch_since(&self, jobs: &[Job], submitted: Instant) -> Vec<JobOutcome> {
        let mut outcomes = par_map_supervised(self.cfg.workers, jobs, &self.chaos, |job| {
            self.run_job(job, submitted)
        });
        // Each origin has at most one miss: move it to the origin's
        // first job in submission order.
        let mut missed: HashMap<u64, bool> = HashMap::new();
        for o in &outcomes {
            if let Some(origin) = o.metrics.analysis_origin {
                *missed.entry(origin).or_default() |= !o.metrics.cache_hit;
            }
        }
        for m in outcomes.iter_mut().map(|o| &mut o.metrics) {
            if let Some(missed) = m.analysis_origin.and_then(|k| missed.get_mut(&k)) {
                m.cache_hit = !std::mem::take(missed);
            }
        }
        outcomes
    }

    /// Run one job under supervision (used by `run_batch` and by the
    /// line-at-a-time `slo serve` front end): transient failures are
    /// retried with deterministic backoff, deterministic failures
    /// return immediately, and a job that stays transient through its
    /// whole retry budget is quarantined. `submitted` is when the job
    /// entered the queue; the gap to pickup is reported as queue wait.
    pub fn run_job(&self, job: &Job, submitted: Instant) -> JobOutcome {
        let started = Instant::now();
        let mut span = self.trace.span("service", format!("job:{}", job.id));
        // Per-job backoff seed: distinct jobs never thunder in
        // lockstep, and reruns of a batch replay the same schedule.
        let mut schedule = self.retry.schedule(fnv1a(job.id.as_bytes()));
        let mut attempts: u32 = 1;
        let mut quarantined = false;
        let mut acc = JobMetrics::default();
        let (status, jm) = loop {
            let (status, jm) = self.attempt_job(job, submitted);
            acc.fe += jm.fe;
            acc.ipa += jm.ipa;
            acc.be += jm.be;
            acc.exec += jm.exec;
            let transient = matches!(
                &status,
                JobStatus::Advisory { reason, .. } if reason.is_transient()
            );
            if !transient {
                break (status, jm);
            }
            match schedule.next_delay_ms() {
                Some(delay_ms) => {
                    self.tally(|m| m.retries += 1);
                    self.trace.instant(
                        "service",
                        "retry",
                        vec![
                            ("job", job.id.as_str().into()),
                            ("attempt", i64::from(attempts).into()),
                            ("backoff_ms", (delay_ms as i64).into()),
                        ],
                    );
                    self.clock.sleep_ms(delay_ms);
                    attempts += 1;
                }
                None => {
                    // `max_attempts` transient failures: quarantine.
                    // The last advisory outcome is still returned —
                    // quarantine never demotes a job to `Failed`.
                    quarantined = true;
                    self.tally(|m| m.quarantined += 1);
                    self.trace.instant(
                        "service",
                        "quarantine",
                        vec![
                            ("job", job.id.as_str().into()),
                            ("attempts", i64::from(attempts).into()),
                        ],
                    );
                    break (status, jm);
                }
            }
        };
        // Fold the per-attempt phase costs back in; queue wait and
        // cache attribution come from the final attempt.
        let jm = JobMetrics {
            fe: acc.fe,
            ipa: acc.ipa,
            be: acc.be,
            exec: acc.exec,
            total: started.elapsed(),
            ..jm
        };
        let outcome = self.finish(job, status, jm, attempts, quarantined);
        span.arg("status", outcome.status.kind());
        if let JobStatus::Advisory { reason, .. } = &outcome.status {
            span.arg("reason", reason.kind());
        }
        span.arg("cache_hit", outcome.metrics.cache_hit);
        span.arg("attempts", i64::from(outcome.attempts));
        if outcome.quarantined {
            span.arg("quarantined", true);
        }
        outcome
    }

    /// One attempt: parse, analyze, transform, verify — panic-isolated,
    /// with no retry logic of its own.
    fn attempt_job(&self, job: &Job, submitted: Instant) -> (JobStatus, JobMetrics) {
        let start = Instant::now();
        let mut jm = JobMetrics {
            queue_wait: start.duration_since(submitted),
            ..JobMetrics::default()
        };
        let deadline = job.budget.wall.map(|w| start + w);

        // Unusable input fails fast — there is nothing to advise on.
        let prog = match self.load_input(&job.input) {
            Ok(p) => p,
            Err(msg) => {
                jm.total = start.elapsed();
                return (JobStatus::Failed(msg), jm);
            }
        };

        // Everything from here on is panic-isolated. The slots let the
        // unwind path reach the analysis (for the advisory fallback)
        // and the partially filled metrics.
        let analysis_slot: RefCell<Option<Arc<Analysis>>> = RefCell::new(None);
        let jm_cell = RefCell::new(jm);
        let body =
            AssertUnwindSafe(|| self.job_body(job, &prog, deadline, &analysis_slot, &jm_cell));
        let status = match quiet_catch_unwind(body) {
            Ok(status) => status,
            Err(payload) => {
                self.tally(|m| m.panics += 1);
                let report = analysis_slot
                    .borrow()
                    .as_ref()
                    .map(|a| advisory_report(&prog, a));
                JobStatus::Advisory {
                    reason: Degradation::Panic(panic_message(payload)),
                    report,
                }
            }
        };
        let mut jm = jm_cell.into_inner();
        jm.total = start.elapsed();
        (status, jm)
    }

    fn load_input(&self, input: &JobInput) -> Result<Program, String> {
        let _s = self.trace.span("pipeline", "parse");
        let prog = match input {
            JobInput::Program(p) => (**p).clone(),
            JobInput::Source(src) => {
                slo_ir::parser::parse(src).map_err(|e| format!("parse: {e}"))?
            }
        };
        let errs = slo_ir::verify::verify(&prog);
        if !errs.is_empty() {
            return Err(format!("invalid IR: {}", errs[0]));
        }
        Ok(prog)
    }

    fn job_body(
        &self,
        job: &Job,
        prog: &Program,
        deadline: Option<Instant>,
        analysis_slot: &RefCell<Option<Arc<Analysis>>>,
        jm: &RefCell<JobMetrics>,
    ) -> JobStatus {
        if job.fault == Some(Fault::PanicBeforeAnalysis) {
            panic!("injected fault: panic before analysis");
        }

        // --- profile (PBO only) --------------------------------------
        // Every VM run of the job runs under the job's step budget and
        // the service's recorder and fault plan. The instrumented run
        // doubles as the baseline run.
        let opts = VmOptions::builder()
            .step_limit(job.budget.steps)
            .trace(self.trace.clone())
            .faults(self.chaos.clone())
            .build();
        let mut profiled: Option<ExecOutcome> = None;
        let owned_fb: Option<Feedback> = match &job.scheme {
            SchemeSpec::Pbo => {
                let t = Instant::now();
                let run = slo::profile_run(prog, &opts);
                jm.borrow_mut().exec += t.elapsed();
                match run {
                    Ok(mut out) => {
                        let fb = std::mem::take(&mut out.feedback);
                        profiled = Some(out);
                        Some(fb)
                    }
                    // Without a profile there is nothing to advise on.
                    Err(e) => {
                        return match run_failure("profiling run", e) {
                            Degradation::Verification(msg) => JobStatus::Failed(msg),
                            reason => JobStatus::Advisory {
                                reason,
                                report: None,
                            },
                        }
                    }
                }
            }
            SchemeSpec::PboProfile(text) => match Feedback::from_text(text) {
                Ok(fb) => Some(fb),
                Err(e) => return JobStatus::Failed(format!("profile: {e}")),
            },
            _ => None,
        };
        let scheme = job
            .scheme
            .weight_scheme(owned_fb.as_ref())
            .expect("a profile-based job has its feedback by now");

        // --- FE + IPA, memoized by content hash ----------------------
        // The printed input is both the key's text and, under an empty
        // plan, the reply's transformed program.
        let text = print_program(prog);
        let key = slo::analysis_cache_key_of_text(&text, &scheme, &job.config);
        let fetched = match over_deadline(deadline) {
            Some(late) => Err(late),
            None => self.tier.get_or_analyze(key, deadline, || {
                slo::analyze_with(prog, &scheme, &job.config, &self.trace)
            }),
        };
        let fetched = match fetched {
            Ok(f) => f,
            Err(reason) => {
                return JobStatus::Advisory {
                    reason,
                    report: None,
                }
            }
        };
        let job_arg = || vec![("job", job.id.as_str().into())];
        if fetched.reverified {
            // A poisoned LRU entry failed fingerprint re-verification
            // and was dropped on the way.
            self.trace.instant("service", "cache-reverify", job_arg());
        }
        let analysis = fetched.analysis;
        let mut m = jm.borrow_mut();
        m.cache_hit = fetched.source != Source::Computed;
        m.analysis_origin = Some(fetched.origin);
        match fetched.source {
            Source::Lru | Source::Waited => self.trace.instant("service", "cache-hit", job_arg()),
            Source::Store => self.trace.instant("service", "store-hit", job_arg()),
            Source::Computed => (m.fe, m.ipa) = (analysis.fe, analysis.ipa_time),
        }
        drop(m);
        *analysis_slot.borrow_mut() = Some(Arc::clone(&analysis));

        if let Some(d) = over_deadline(deadline) {
            return JobStatus::Advisory {
                reason: d,
                report: Some(advisory_report(prog, &analysis)),
            };
        }
        if job.fault == Some(Fault::PanicInBe) {
            panic!("injected fault: panic in BE");
        }

        // --- BE ------------------------------------------------------
        // An empty plan leaves the program as it is: no rewrite, and the
        // printed input is the transformed text.
        let res = if analysis.plan.num_transformed() == 0 {
            None
        } else {
            let t = Instant::now();
            let compiled = slo::apply_with(prog, &analysis, &self.trace);
            jm.borrow_mut().be = t.elapsed();
            match compiled {
                Ok(res) => Some(res),
                Err(e) => {
                    return JobStatus::Advisory {
                        reason: Degradation::Transform(e.to_string()),
                        report: Some(advisory_report(prog, &analysis)),
                    }
                }
            }
        };

        // --- differential verification + evaluation ------------------
        let degrade = |reason: Degradation| JobStatus::Advisory {
            reason,
            report: Some(advisory_report(prog, &analysis)),
        };
        let base = match profiled {
            Some(o) => o,
            None => {
                let t = Instant::now();
                let base = slo::baseline_run(prog, &opts);
                jm.borrow_mut().exec += t.elapsed();
                match base {
                    Ok(o) => o,
                    Err(e) => return degrade(run_failure("baseline run", e)),
                }
            }
        };
        if res.is_some() {
            if let Some(d) = over_deadline(deadline) {
                return degrade(d);
            }
        }
        let t = Instant::now();
        let optimized = res.as_ref().map_or(prog, |r| &r.program);
        let eval = slo::evaluate_against(&base, &analysis.plan, optimized, &opts);
        jm.borrow_mut().exec += t.elapsed();
        let eval = match eval {
            Ok(e) => e,
            Err(e) => return degrade(run_failure("transformed run", e)),
        };
        JobStatus::Optimized(Optimized {
            transformed: res.map_or(text, |r| print_program(&r.program)),
            num_transformed: analysis.plan.num_transformed(),
            eval,
            ipa_fingerprint: ipa_fingerprint(&analysis.ipa),
        })
    }

    /// Update the live counters under their lock (plain counters: a
    /// poisoned lock is read through).
    fn tally(&self, update: impl FnOnce(&mut MetricsSnapshot)) {
        update(&mut self.metrics.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// Tally counters and assemble the outcome.
    fn finish(
        &self,
        job: &Job,
        status: JobStatus,
        jm: JobMetrics,
        attempts: u32,
        quarantined: bool,
    ) -> JobOutcome {
        let ns = |d: std::time::Duration| d.as_nanos() as u64;
        self.tally(|m| {
            m.jobs += 1;
            match &status {
                JobStatus::Optimized(_) => m.optimized += 1,
                JobStatus::Advisory { reason, .. } => {
                    m.degraded += 1;
                    *match reason {
                        Degradation::Transform(_) => &mut m.degraded_transform,
                        Degradation::Verification(_) => &mut m.degraded_verification,
                        Degradation::Budget(_) => &mut m.degraded_budget,
                        Degradation::Panic(_) => &mut m.degraded_panic,
                        Degradation::Fault(_) => &mut m.degraded_fault,
                    } += 1;
                }
                JobStatus::Failed(_) => m.failed += 1,
            }
            m.queue_wait_ns += ns(jm.queue_wait);
            m.fe_ns += ns(jm.fe);
            m.ipa_ns += ns(jm.ipa);
            m.be_ns += ns(jm.be);
            m.exec_ns += ns(jm.exec);
        });
        JobOutcome {
            id: job.id.clone(),
            status,
            metrics: jm,
            attempts,
            quarantined,
        }
    }
}

thread_local! {
    // Set while a job body runs under `catch_unwind`, so the process
    // panic hook stays silent for panics the service absorbs.
    static SUPPRESS_PANIC_OUTPUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `catch_unwind` without the default hook's stderr backtrace: the hook
/// is wrapped once (chaining to whatever was installed before) to skip
/// printing when the panicking thread is inside a guarded job body.
/// Panics on other threads are reported exactly as before.
fn quiet_catch_unwind<R>(
    body: AssertUnwindSafe<impl FnOnce() -> R>,
) -> Result<R, Box<dyn std::any::Any + Send>> {
    static WRAP_HOOK: std::sync::Once = std::sync::Once::new();
    WRAP_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let result = catch_unwind(body);
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    result
}

/// Where a VM run of `what` that ended in `e` lands on the ladder: an
/// exhausted step budget or an injected fault is transient, a machine
/// fault or a changed result is a verification failure.
fn run_failure(what: &str, e: SloError) -> Degradation {
    match e {
        SloError::Budget(_) => Degradation::Budget(format!("{what} exceeded the step budget")),
        SloError::Vm(ExecError::Injected(site)) => Degradation::Fault(format!("{what}: {site}")),
        SloError::Vm(e) => Degradation::Verification(format!("{what} faulted: {e}")),
        e => Degradation::Verification(format!("{what}: {e}")),
    }
}

/// The §3 advisory report for a program whose transform was abandoned.
fn advisory_report(prog: &Program, analysis: &Analysis) -> String {
    let input = slo_advisor::AdvisorInput {
        prog,
        ipa: &analysis.ipa,
        graphs: &analysis.graphs,
        counts: &analysis.counts,
        dcache: analysis.dcache.as_ref(),
        strides: None,
        plan: Some(&analysis.plan),
    };
    slo_advisor::render_report(&input)
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
