//! # slo-service — the concurrent batch-optimization service
//!
//! The paper's pipeline is a one-shot FE → IPA → BE pass over a single
//! program. This crate turns it into a service: [`Service`] accepts
//! many optimization jobs (program source or parsed IR + scheme +
//! config), shards them across a bounded worker pool, and returns
//! structured [`JobOutcome`]s.
//!
//! * **Per-request budgets** ([`Budget`]): wall-clock + VM step limits,
//!   with `catch_unwind` panic isolation per job.
//! * **Graceful degradation**: a job whose transform fails differential
//!   verification, exhausts its budget, or panics downgrades to the §3
//!   advisory report instead of failing the batch.
//! * **One analysis tier** ([`cache::AnalysisTier`]): the FE + IPA
//!   half of the pipeline is memoized under a stable digest of the
//!   normalized IR + scheme + config — repeated analysis over
//!   near-identical inputs is the dominant batch cost. One lookup walks
//!   the bounded LRU, the optional store and the keys in flight, so
//!   each key is analyzed once however many workers ask for it.
//! * **Phase metrics** ([`MetricsSnapshot`]): queue wait, per-phase
//!   timings, cache hit/miss, degradation, retry/quarantine and
//!   fault-injection counters. The live counters are a snapshot behind
//!   one lock; one table of readings renders them as JSON and as
//!   Prometheus text (written by `slo_obs::prom`).
//! * **Supervision** ([`Service::run_job`]): transient failures
//!   (panics, exhausted budgets, injected faults) are retried with a
//!   bounded deterministic backoff; deterministic failures never are;
//!   jobs that stay transient are quarantined without losing their
//!   advisory output.
//! * **Fault injection** ([`slo_chaos::FaultPlan`] via
//!   [`service::Service::with_chaos`]): deterministic seed-driven
//!   faults in the VM, cache, pool and manifest reader, zero-cost when
//!   disabled.
//! * **Crash recovery** ([`journal::Journal`]): `slo serve` appends
//!   every outcome to a write-ahead journal and replays it on restart,
//!   so a killed session never recomputes completed jobs.
//! * **Persistent analysis store** ([`store::AnalysisStore`]): an
//!   append-only, crash-safe segment store, the tier's durable layer
//!   (`slo batch/serve --store <dir>`) — analyses survive restarts and
//!   SIGKILL, corrupt records are dropped, counted and recomputed,
//!   never served.
//! * **One record frame** ([`frame`]): the journal and the store write
//!   the same checksummed frame and replay it under one damage rule.
//! * **One wire protocol** ([`proto`]): versioned [`Request`] /
//!   [`Response`] types — manifest attribute syntax in, one-line JSON
//!   out — shared verbatim by stdin serve, the TCP ingress and
//!   `slo batch --wire`, with the WAL key folded into
//!   [`proto::Request::fingerprint`] so wire and journal never drift.
//! * **Network ingress** ([`net::NetServer`]): a newline-framed TCP
//!   listener multiplexing many clients onto the worker pool, with a
//!   bounded admission queue, load shedding (`retry_after_ms` replies,
//!   never unbounded buffering), per-client fairness, slow-client
//!   read timeouts and graceful drain-on-shutdown.
//!
//! # Examples
//!
//! ```
//! use slo_service::{Job, Service, ServiceConfig};
//!
//! let src = "func main() -> i64 {\nbb0:\n  ret 42\n}\n";
//! let service = Service::new(ServiceConfig::builder().workers(2).build());
//! let jobs = vec![Job::from_source("a", src), Job::from_source("b", src)];
//! let outcomes = service.run_batch(&jobs);
//! assert_eq!(outcomes.len(), 2);
//! // same content -> the second job hits the analysis cache
//! assert_eq!(service.metrics().cache_hits + service.metrics().cache_misses, 2);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod frame;
pub mod job;
pub mod journal;
pub mod manifest;
pub mod metrics;
pub mod net;
pub mod pool;
pub mod proto;
pub mod service;
pub mod store;

pub use job::{
    Budget, Degradation, Fault, Job, JobInput, JobMetrics, JobOutcome, JobStatus, Optimized,
    SchemeSpec,
};
pub use journal::{job_key, Journal, JournalEntry};
pub use manifest::{chaos_line, load_manifest, parse_job_line, MAX_LINE_LEN};
pub use metrics::MetricsSnapshot;
pub use net::{NetConfig, NetServer, NetSnapshot};
pub use pool::{par_map_bounded, par_map_supervised};
pub use proto::{legacy_line, Reply, Request, Response, Session, WireError, PROTO_VERSION};
pub use service::{Service, ServiceConfig, ServiceConfigBuilder};
pub use store::{AnalysisStore, StoreCounters};

// The chaos vocabulary the service API speaks, re-exported so CLI and
// bench consumers need no direct `slo-chaos` dependency.
pub use slo_chaos::{ChaosConfig, Clock, FaultPlan, RetryPolicy, Site};
