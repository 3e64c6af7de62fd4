//! Job descriptions and outcomes for the batch service.

use slo::analysis::WeightScheme;
use slo::Evaluation;
use slo_vm::Feedback;
use std::time::{Duration, Instant};

/// What program a job optimizes.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Textual IR, parsed (and verified) by the service.
    Source(String),
    /// An already-parsed program.
    Program(Box<slo_ir::Program>),
}

/// An owned weighting-scheme request (the borrowing
/// [`slo::analysis::WeightScheme`] is materialized per job at run
/// time).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchemeSpec {
    /// Static, profile-less (SPBO).
    Spbo,
    /// Improved static (ISPBO) — the default.
    #[default]
    Ispbo,
    /// ISPBO without loop-nesting weights.
    IspboNo,
    /// ISPBO with whole-program weights.
    IspboW,
    /// Profile-based; the profile is collected on the fly (an
    /// instrumented run on the job's own program, within budget).
    Pbo,
    /// Profile-based over a previously collected feedback file
    /// (canonical `Feedback::to_text` form).
    PboProfile(String),
}

impl SchemeSpec {
    /// The paper's scheme name (matches `WeightScheme::name`).
    pub fn name(&self) -> &'static str {
        match self {
            SchemeSpec::Spbo => "SPBO",
            SchemeSpec::Ispbo => "ISPBO",
            SchemeSpec::IspboNo => "ISPBO.NO",
            SchemeSpec::IspboW => "ISPBO.W",
            SchemeSpec::Pbo | SchemeSpec::PboProfile(_) => "PBO",
        }
    }

    /// Parse a CLI/manifest scheme name (`ispbo`, `pbo`, ...).
    pub fn parse(name: &str) -> Option<SchemeSpec> {
        Some(match name.to_ascii_lowercase().as_str() {
            "spbo" => SchemeSpec::Spbo,
            "ispbo" => SchemeSpec::Ispbo,
            "ispbo.no" => SchemeSpec::IspboNo,
            "ispbo.w" => SchemeSpec::IspboW,
            "pbo" => SchemeSpec::Pbo,
            _ => return None,
        })
    }

    /// The weight scheme this spec selects, weighting the profile-based
    /// ones by `feedback`; `None` for a profile-based spec without it.
    pub fn weight_scheme<'a>(&self, feedback: Option<&'a Feedback>) -> Option<WeightScheme<'a>> {
        Some(match self {
            SchemeSpec::Spbo => WeightScheme::Spbo,
            SchemeSpec::Ispbo => WeightScheme::Ispbo,
            SchemeSpec::IspboNo => WeightScheme::IspboNo,
            SchemeSpec::IspboW => WeightScheme::IspboW,
            SchemeSpec::Pbo | SchemeSpec::PboProfile(_) => WeightScheme::Pbo(feedback?),
        })
    }
}

/// Per-request resource budget. A job exceeding it degrades to
/// advisory-only output; it never fails the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock ceiling for the whole job (checked at phase
    /// boundaries), `None` = unlimited.
    pub wall: Option<Duration>,
    /// VM step limit applied to *each* simulated run (profile
    /// collection, verification, evaluation).
    pub steps: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            wall: None,
            steps: 2_000_000_000,
        }
    }
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A wall-clock ceiling with the default step limit.
    pub fn wall_ms(ms: u64) -> Self {
        Budget {
            wall: Some(Duration::from_millis(ms)),
            ..Budget::default()
        }
    }

    /// A per-run VM step ceiling with no wall-clock limit.
    pub fn steps(steps: u64) -> Self {
        Budget { wall: None, steps }
    }
}

/// `Some(Degradation::Budget)` once a job's wall-clock `deadline` has
/// passed.
pub(crate) fn over_deadline(deadline: Option<Instant>) -> Option<Degradation> {
    match deadline {
        Some(d) if Instant::now() > d => {
            Some(Degradation::Budget("wall-clock budget exhausted".into()))
        }
        _ => None,
    }
}

/// Test/ops fault injection: makes the job body panic at a chosen
/// point, proving the service's panic isolation without a contrived
/// input program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic before the analysis phase runs.
    PanicBeforeAnalysis,
    /// Panic inside the BE (after analysis succeeded, so the advisory
    /// fallback has something to report).
    PanicInBe,
}

/// One optimization request.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-chosen identifier, echoed in the outcome.
    pub id: String,
    /// The program.
    pub input: JobInput,
    /// Weighting scheme.
    pub scheme: SchemeSpec,
    /// Pipeline configuration.
    pub config: slo::PipelineConfig,
    /// Resource budget.
    pub budget: Budget,
    /// Optional injected fault (tests, load-generator chaos mode).
    pub fault: Option<Fault>,
}

impl Job {
    /// A job over textual IR with default scheme/config/budget.
    pub fn from_source(id: impl Into<String>, source: impl Into<String>) -> Job {
        Job {
            id: id.into(),
            input: JobInput::Source(source.into()),
            scheme: SchemeSpec::default(),
            config: slo::PipelineConfig::default(),
            budget: Budget::default(),
            fault: None,
        }
    }

    /// A job over a parsed program with default scheme/config/budget.
    pub fn from_program(id: impl Into<String>, program: slo_ir::Program) -> Job {
        Job {
            id: id.into(),
            input: JobInput::Program(Box::new(program)),
            scheme: SchemeSpec::default(),
            config: slo::PipelineConfig::default(),
            budget: Budget::default(),
            fault: None,
        }
    }

    /// Set the scheme.
    pub fn scheme(mut self, scheme: SchemeSpec) -> Job {
        self.scheme = scheme;
        self
    }

    /// Set the pipeline config.
    pub fn config(mut self, config: slo::PipelineConfig) -> Job {
        self.config = config;
        self
    }

    /// Set the budget.
    pub fn budget(mut self, budget: Budget) -> Job {
        self.budget = budget;
        self
    }

    /// Inject a fault.
    pub fn fault(mut self, fault: Fault) -> Job {
        self.fault = Some(fault);
        self
    }
}

/// Why a job was downgraded to advisory-only output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The BE rewrite failed.
    Transform(String),
    /// Differential verification failed (transformed program computed a
    /// different result, or faulted where the baseline did not).
    Verification(String),
    /// The wall-clock or VM step budget ran out.
    Budget(String),
    /// The job body panicked (caught; the batch continued).
    Panic(String),
    /// An injected fault surfaced (chaos campaigns only; classified
    /// transient by the supervisor, like panics and budgets).
    Fault(String),
}

impl Degradation {
    /// Short machine-readable label (`transform` / `verification` /
    /// `budget` / `panic` / `fault`).
    pub fn kind(&self) -> &'static str {
        match self {
            Degradation::Transform(_) => "transform",
            Degradation::Verification(_) => "verification",
            Degradation::Budget(_) => "budget",
            Degradation::Panic(_) => "panic",
            Degradation::Fault(_) => "fault",
        }
    }

    /// Whether a retry could plausibly change the outcome. Panics,
    /// exhausted budgets and injected faults are transient — the
    /// supervisor retries them with backoff. Transform and
    /// verification failures are deterministic properties of the input
    /// and are never retried.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            Degradation::Budget(_) | Degradation::Panic(_) | Degradation::Fault(_)
        )
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::Transform(m)
            | Degradation::Verification(m)
            | Degradation::Budget(m)
            | Degradation::Panic(m)
            | Degradation::Fault(m) => write!(f, "{}: {m}", self.kind()),
        }
    }
}

/// A full optimized result.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The transformed program in normalized textual form (the
    /// pretty-printer fixpoint, so outputs are bit-comparable).
    pub transformed: String,
    /// Number of transformed record types.
    pub num_transformed: usize,
    /// Before/after simulated-machine comparison.
    pub eval: Evaluation,
    /// Stable digest of the legality analysis that produced the plan
    /// (equal for cached and uncached runs of the same job).
    pub ipa_fingerprint: u64,
}

/// How one job ended.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// The full pipeline ran and verified.
    Optimized(Optimized),
    /// Graceful degradation: the transform was abandoned, but the
    /// analysis-side advisory report (when the analysis got that far)
    /// is returned instead — the paper's §3 advisory tool as the
    /// service's safety net.
    Advisory {
        /// Why the job was downgraded.
        reason: Degradation,
        /// The §3 advisory report, if the analysis completed.
        report: Option<String>,
    },
    /// The input was unusable (parse/verify error); nothing to advise.
    Failed(String),
}

impl JobStatus {
    /// `optimized` / `advisory` / `failed`.
    pub fn kind(&self) -> &'static str {
        match self {
            JobStatus::Optimized(_) => "optimized",
            JobStatus::Advisory { .. } => "advisory",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// Per-job timing/cache observations.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobMetrics {
    /// Time between batch submission and a worker picking the job up.
    pub queue_wait: Duration,
    /// FE time (zero on an analysis-cache hit).
    pub fe: Duration,
    /// IPA time (zero on an analysis-cache hit).
    pub ipa: Duration,
    /// BE rewrite time.
    pub be: Duration,
    /// Simulated-machine host time (profile + verification runs).
    pub exec: Duration,
    /// Whole-job wall clock.
    pub total: Duration,
    /// Whether the analysis came from the content-hash cache.
    pub cache_hit: bool,
    /// Which computation or store read produced the job's analysis
    /// (see [`crate::cache::Fetched::origin`]); `None` when the job got
    /// none.
    pub analysis_origin: Option<u64>,
}

/// The structured result the service returns for every submitted job —
/// a batch never aborts because one job went wrong.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job's identifier.
    pub id: String,
    /// How it ended.
    pub status: JobStatus,
    /// Timing/cache observations.
    pub metrics: JobMetrics,
    /// How many attempts the supervisor ran (1 = no retries).
    pub attempts: u32,
    /// Whether the job exhausted its retry budget on transient
    /// failures and was quarantined (its last advisory outcome is
    /// still returned — quarantine never moves a job down the ladder).
    pub quarantined: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_spec_parse_roundtrip() {
        for name in ["spbo", "ispbo", "ispbo.no", "ispbo.w", "pbo"] {
            let s = SchemeSpec::parse(name).expect("known scheme");
            assert_eq!(s.name().to_ascii_lowercase(), name);
        }
        assert!(SchemeSpec::parse("zzz").is_none());
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(Budget::wall_ms(5).wall, Some(Duration::from_millis(5)));
        assert_eq!(Budget::steps(100).steps, 100);
        assert_eq!(Budget::default().wall, None);
    }

    #[test]
    fn degradation_kinds() {
        assert_eq!(Degradation::Budget("x".into()).kind(), "budget");
        assert_eq!(
            Degradation::Panic("p".into()).to_string(),
            "panic: p".to_string()
        );
    }
}
