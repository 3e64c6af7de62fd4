//! Service-level phase metrics: queue wait, per-phase timings, cache
//! hit/miss counters, degradation counts.
//!
//! Counters are lock-free atomics updated by the worker threads; a
//! [`MetricsSnapshot`] is a consistent-enough point-in-time read used
//! by the CLI's `--json` output and the bench load-generator's
//! `BENCH_vm.json` table.

use slo_obs::json::write_num;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Live counters owned by a [`crate::Service`].
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    pub(crate) jobs: AtomicU64,
    pub(crate) optimized: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) degraded_transform: AtomicU64,
    pub(crate) degraded_verification: AtomicU64,
    pub(crate) degraded_budget: AtomicU64,
    pub(crate) degraded_panic: AtomicU64,
    pub(crate) degraded_fault: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    pub(crate) cache_evictions: AtomicU64,
    pub(crate) cache_reverified: AtomicU64,
    pub(crate) queue_wait_ns: AtomicU64,
    pub(crate) fe_ns: AtomicU64,
    pub(crate) ipa_ns: AtomicU64,
    pub(crate) be_ns: AtomicU64,
    pub(crate) exec_ns: AtomicU64,
}

impl ServiceMetrics {
    pub(crate) fn add_duration(slot: &AtomicU64, d: Duration) {
        slot.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            jobs: ld(&self.jobs),
            optimized: ld(&self.optimized),
            degraded: ld(&self.degraded),
            degraded_transform: ld(&self.degraded_transform),
            degraded_verification: ld(&self.degraded_verification),
            degraded_budget: ld(&self.degraded_budget),
            degraded_panic: ld(&self.degraded_panic),
            degraded_fault: ld(&self.degraded_fault),
            failed: ld(&self.failed),
            panics: ld(&self.panics),
            retries: ld(&self.retries),
            quarantined: ld(&self.quarantined),
            cache_hits: ld(&self.cache_hits),
            cache_misses: ld(&self.cache_misses),
            cache_evictions: ld(&self.cache_evictions),
            cache_reverified: ld(&self.cache_reverified),
            store_hits: 0,
            store_misses: 0,
            store_corrupt_drops: 0,
            store_compactions: 0,
            store_bytes: 0,
            faults_injected: [0; slo_chaos::NUM_SITES],
            queue_wait_ns: ld(&self.queue_wait_ns),
            fe_ns: ld(&self.fe_ns),
            ipa_ns: ld(&self.ipa_ns),
            be_ns: ld(&self.be_ns),
            exec_ns: ld(&self.exec_ns),
        }
    }
}

/// A consistent read of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Jobs completed (any status).
    pub jobs: u64,
    /// Jobs that produced a full optimized result.
    pub optimized: u64,
    /// Jobs downgraded to advisory-only output.
    pub degraded: u64,
    /// Degradations attributed to a BE rewrite failure.
    pub degraded_transform: u64,
    /// Degradations attributed to a differential-verification mismatch.
    pub degraded_verification: u64,
    /// Degradations attributed to an exhausted wall/step budget.
    pub degraded_budget: u64,
    /// Degradations attributed to a caught panic.
    pub degraded_panic: u64,
    /// Degradations attributed to an injected fault (chaos campaigns).
    pub degraded_fault: u64,
    /// Jobs that failed outright (unparseable input).
    pub failed: u64,
    /// Panics caught and contained (a subset of `degraded`).
    pub panics: u64,
    /// Supervisor retries of transient job failures.
    pub retries: u64,
    /// Jobs quarantined after exhausting their retry budget.
    pub quarantined: u64,
    /// Analysis-cache hits.
    pub cache_hits: u64,
    /// Analysis-cache misses.
    pub cache_misses: u64,
    /// Analysis-cache LRU evictions.
    pub cache_evictions: u64,
    /// Cache entries dropped by fingerprint re-verification.
    pub cache_reverified: u64,
    /// Persistent-store reads that verified and decoded (all zero
    /// without a `--store`; filled by [`crate::Service::metrics`]).
    pub store_hits: u64,
    /// Persistent-store reads of absent keys.
    pub store_misses: u64,
    /// Persistent-store records dropped by checksum or structural
    /// verification — never served.
    pub store_corrupt_drops: u64,
    /// Completed persistent-store compaction passes.
    pub store_compactions: u64,
    /// Bytes appended to persistent-store segments.
    pub store_bytes: u64,
    /// Faults injected by the service's chaos plan, per
    /// [`slo_chaos::Site`] (all zero outside chaos campaigns; indexed
    /// like [`slo_chaos::ALL_SITES`]).
    pub faults_injected: [u64; slo_chaos::NUM_SITES],
    /// Total time jobs waited in the queue (nanoseconds).
    pub queue_wait_ns: u64,
    /// Total FE phase time across jobs (nanoseconds; cached jobs add 0).
    pub fe_ns: u64,
    /// Total IPA phase time across jobs (nanoseconds; cached jobs add 0).
    pub ipa_ns: u64,
    /// Total BE phase time across jobs (nanoseconds).
    pub be_ns: u64,
    /// Total simulated-machine (verification + evaluation) host time.
    pub exec_ns: u64,
}

impl MetricsSnapshot {
    /// Cache hit rate in `[0, 1]` (`0` when the cache was never asked).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Persistent-store hit rate in `[0, 1]` (`0` when no store was
    /// attached or never asked). Across a restart this is the
    /// warm-start rate: hits here are analyses another process wrote.
    pub fn store_hit_rate(&self) -> f64 {
        let total = self.store_hits + self.store_misses;
        if total == 0 {
            return 0.0;
        }
        self.store_hits as f64 / total as f64
    }

    /// The difference `self - earlier`, for per-batch readings off a
    /// long-lived service.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut faults_injected = self.faults_injected;
        for (slot, &e) in faults_injected
            .iter_mut()
            .zip(earlier.faults_injected.iter())
        {
            *slot -= e;
        }
        MetricsSnapshot {
            jobs: self.jobs - earlier.jobs,
            optimized: self.optimized - earlier.optimized,
            degraded: self.degraded - earlier.degraded,
            degraded_transform: self.degraded_transform - earlier.degraded_transform,
            degraded_verification: self.degraded_verification - earlier.degraded_verification,
            degraded_budget: self.degraded_budget - earlier.degraded_budget,
            degraded_panic: self.degraded_panic - earlier.degraded_panic,
            degraded_fault: self.degraded_fault - earlier.degraded_fault,
            failed: self.failed - earlier.failed,
            panics: self.panics - earlier.panics,
            retries: self.retries - earlier.retries,
            quarantined: self.quarantined - earlier.quarantined,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            cache_reverified: self.cache_reverified - earlier.cache_reverified,
            store_hits: self.store_hits - earlier.store_hits,
            store_misses: self.store_misses - earlier.store_misses,
            store_corrupt_drops: self.store_corrupt_drops - earlier.store_corrupt_drops,
            store_compactions: self.store_compactions - earlier.store_compactions,
            store_bytes: self.store_bytes - earlier.store_bytes,
            faults_injected,
            queue_wait_ns: self.queue_wait_ns - earlier.queue_wait_ns,
            fe_ns: self.fe_ns - earlier.fe_ns,
            ipa_ns: self.ipa_ns - earlier.ipa_ns,
            be_ns: self.be_ns - earlier.be_ns,
            exec_ns: self.exec_ns - earlier.exec_ns,
        }
    }

    /// Total injected faults across every site.
    pub fn faults_injected_total(&self) -> u64 {
        self.faults_injected.iter().sum()
    }

    /// A flat JSON object with every counter plus the derived hit rate
    /// (deterministic key order; consumed by `slo batch --json` and
    /// merged into `BENCH_vm.json` by the bench driver).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let mut first = true;
        let mut num = |key: &str, v: f64, s: &mut String| {
            let _ = write!(s, "{}\"{key}\": ", if first { "" } else { ", " });
            write_num(s, v);
            first = false;
        };
        num("jobs", self.jobs as f64, &mut s);
        num("optimized", self.optimized as f64, &mut s);
        num("degraded", self.degraded as f64, &mut s);
        num("degraded_transform", self.degraded_transform as f64, &mut s);
        num(
            "degraded_verification",
            self.degraded_verification as f64,
            &mut s,
        );
        num("degraded_budget", self.degraded_budget as f64, &mut s);
        num("degraded_panic", self.degraded_panic as f64, &mut s);
        num("degraded_fault", self.degraded_fault as f64, &mut s);
        num("failed", self.failed as f64, &mut s);
        num("panics", self.panics as f64, &mut s);
        num("retries", self.retries as f64, &mut s);
        num("quarantined", self.quarantined as f64, &mut s);
        num(
            "faults_injected",
            self.faults_injected_total() as f64,
            &mut s,
        );
        num("cache_hits", self.cache_hits as f64, &mut s);
        num("cache_misses", self.cache_misses as f64, &mut s);
        num("cache_evictions", self.cache_evictions as f64, &mut s);
        num("cache_reverified", self.cache_reverified as f64, &mut s);
        num("cache_hit_rate", self.cache_hit_rate(), &mut s);
        num("store_hits", self.store_hits as f64, &mut s);
        num("store_misses", self.store_misses as f64, &mut s);
        num(
            "store_corrupt_drops",
            self.store_corrupt_drops as f64,
            &mut s,
        );
        num("store_compactions", self.store_compactions as f64, &mut s);
        num("store_bytes", self.store_bytes as f64, &mut s);
        num("store_hit_rate", self.store_hit_rate(), &mut s);
        num("queue_wait_ns", self.queue_wait_ns as f64, &mut s);
        num("fe_ns", self.fe_ns as f64, &mut s);
        num("ipa_ns", self.ipa_ns as f64, &mut s);
        num("be_ns", self.be_ns as f64, &mut s);
        num("exec_ns", self.exec_ns as f64, &mut s);
        s.push('}');
        s
    }

    /// The snapshot in the Prometheus text exposition format (served by
    /// `slo serve`'s `metrics prom` command; validated line-by-line by
    /// `slo_obs::conform::check_prometheus`).
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        let secs = |ns: u64| ns as f64 / 1e9;
        let _ = write!(
            s,
            "# HELP slo_jobs_total Jobs completed (any status).\n\
             # TYPE slo_jobs_total counter\n\
             slo_jobs_total {}\n\
             # HELP slo_jobs_by_status_total Jobs by final status.\n\
             # TYPE slo_jobs_by_status_total counter\n\
             slo_jobs_by_status_total{{status=\"optimized\"}} {}\n\
             slo_jobs_by_status_total{{status=\"advisory\"}} {}\n\
             slo_jobs_by_status_total{{status=\"failed\"}} {}\n\
             # HELP slo_jobs_degraded_total Advisory downgrades by reason.\n\
             # TYPE slo_jobs_degraded_total counter\n\
             slo_jobs_degraded_total{{reason=\"transform\"}} {}\n\
             slo_jobs_degraded_total{{reason=\"verification\"}} {}\n\
             slo_jobs_degraded_total{{reason=\"budget\"}} {}\n\
             slo_jobs_degraded_total{{reason=\"panic\"}} {}\n\
             slo_jobs_degraded_total{{reason=\"fault\"}} {}\n\
             # HELP slo_panics_total Panics caught and contained.\n\
             # TYPE slo_panics_total counter\n\
             slo_panics_total {}\n\
             # HELP slo_retries_total Supervisor retries of transient job failures.\n\
             # TYPE slo_retries_total counter\n\
             slo_retries_total {}\n\
             # HELP slo_quarantined_total Jobs quarantined after exhausting retries.\n\
             # TYPE slo_quarantined_total counter\n\
             slo_quarantined_total {}\n",
            self.jobs,
            self.optimized,
            self.degraded,
            self.failed,
            self.degraded_transform,
            self.degraded_verification,
            self.degraded_budget,
            self.degraded_panic,
            self.degraded_fault,
            self.panics,
            self.retries,
            self.quarantined,
        );
        let _ = writeln!(
            s,
            "# HELP slo_faults_injected_total Faults injected by the chaos plan, by site.\n\
             # TYPE slo_faults_injected_total counter"
        );
        for (site, count) in slo_chaos::ALL_SITES.iter().zip(self.faults_injected.iter()) {
            let _ = writeln!(
                s,
                "slo_faults_injected_total{{site=\"{}\"}} {count}",
                site.name()
            );
        }
        let _ = write!(
            s,
            "# HELP slo_cache_events_total Analysis-cache events.\n\
             # TYPE slo_cache_events_total counter\n\
             slo_cache_events_total{{event=\"hit\"}} {}\n\
             slo_cache_events_total{{event=\"miss\"}} {}\n\
             slo_cache_events_total{{event=\"eviction\"}} {}\n\
             slo_cache_events_total{{event=\"reverified\"}} {}\n\
             # HELP slo_cache_hit_rate Analysis-cache hit rate in [0, 1].\n\
             # TYPE slo_cache_hit_rate gauge\n\
             slo_cache_hit_rate {}\n\
             # HELP slo_store_events_total Persistent-store events.\n\
             # TYPE slo_store_events_total counter\n\
             slo_store_events_total{{event=\"hit\"}} {}\n\
             slo_store_events_total{{event=\"miss\"}} {}\n\
             slo_store_events_total{{event=\"corrupt_drop\"}} {}\n\
             # HELP slo_store_compactions_total Persistent-store compaction passes.\n\
             # TYPE slo_store_compactions_total counter\n\
             slo_store_compactions_total {}\n\
             # HELP slo_store_bytes_written_total Bytes appended to store segments.\n\
             # TYPE slo_store_bytes_written_total counter\n\
             slo_store_bytes_written_total {}\n\
             # HELP slo_store_hit_rate Persistent-store hit rate in [0, 1].\n\
             # TYPE slo_store_hit_rate gauge\n\
             slo_store_hit_rate {}\n\
             # HELP slo_phase_seconds_total Cumulative wall time per phase.\n\
             # TYPE slo_phase_seconds_total counter\n\
             slo_phase_seconds_total{{phase=\"queue_wait\"}} {}\n\
             slo_phase_seconds_total{{phase=\"fe\"}} {}\n\
             slo_phase_seconds_total{{phase=\"ipa\"}} {}\n\
             slo_phase_seconds_total{{phase=\"be\"}} {}\n\
             slo_phase_seconds_total{{phase=\"exec\"}} {}\n",
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_reverified,
            self.cache_hit_rate(),
            self.store_hits,
            self.store_misses,
            self.store_corrupt_drops,
            self.store_compactions,
            self.store_bytes,
            self.store_hit_rate(),
            secs(self.queue_wait_ns),
            secs(self.fe_ns),
            secs(self.ipa_ns),
            secs(self.be_ns),
            secs(self.exec_ns),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_math() {
        let m = MetricsSnapshot {
            cache_hits: 9,
            cache_misses: 1,
            ..Default::default()
        };
        assert!((m.cache_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(MetricsSnapshot::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn since_subtracts() {
        let a = MetricsSnapshot {
            jobs: 10,
            cache_hits: 4,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            jobs: 64,
            cache_hits: 60,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.jobs, 54);
        assert_eq!(d.cache_hits, 56);
    }

    #[test]
    fn prometheus_exposition_is_conformant() {
        let mut faults_injected = [0u64; slo_chaos::NUM_SITES];
        faults_injected[slo_chaos::Site::VmAlloc as usize] = 4;
        let m = MetricsSnapshot {
            jobs: 5,
            optimized: 3,
            degraded: 2,
            degraded_budget: 1,
            degraded_panic: 1,
            panics: 1,
            retries: 3,
            quarantined: 1,
            cache_hits: 2,
            cache_misses: 2,
            cache_reverified: 1,
            store_hits: 3,
            store_misses: 1,
            store_corrupt_drops: 2,
            store_compactions: 1,
            store_bytes: 4096,
            faults_injected,
            fe_ns: 1_500_000,
            ..Default::default()
        };
        let text = m.to_prometheus();
        let s = slo_obs::conform::check_prometheus(&text).expect("valid exposition");
        for family in [
            "slo_jobs_total",
            "slo_jobs_by_status_total",
            "slo_jobs_degraded_total",
            "slo_panics_total",
            "slo_retries_total",
            "slo_quarantined_total",
            "slo_faults_injected_total",
            "slo_cache_events_total",
            "slo_cache_hit_rate",
            "slo_store_events_total",
            "slo_store_compactions_total",
            "slo_store_bytes_written_total",
            "slo_store_hit_rate",
            "slo_phase_seconds_total",
        ] {
            assert!(s.has(family), "missing family {family}");
        }
        assert!(text.contains("slo_jobs_degraded_total{reason=\"budget\"} 1"));
        assert!(text.contains("slo_jobs_degraded_total{reason=\"fault\"} 0"));
        assert!(text.contains("slo_retries_total 3"));
        assert!(text.contains("slo_quarantined_total 1"));
        assert!(text.contains("slo_faults_injected_total{site=\"vm-alloc\"} 4"));
        assert!(text.contains("slo_cache_events_total{event=\"reverified\"} 1"));
        assert!(text.contains("slo_cache_hit_rate 0.5"));
        assert!(text.contains("slo_store_events_total{event=\"hit\"} 3"));
        assert!(text.contains("slo_store_events_total{event=\"corrupt_drop\"} 2"));
        assert!(text.contains("slo_store_compactions_total 1"));
        assert!(text.contains("slo_store_bytes_written_total 4096"));
        assert!(text.contains("slo_store_hit_rate 0.75"));
    }

    #[test]
    fn json_is_flat_and_ordered() {
        let m = MetricsSnapshot {
            jobs: 2,
            cache_hits: 1,
            cache_misses: 1,
            ..Default::default()
        };
        let j = m.to_json();
        assert!(j.starts_with("{\"jobs\": 2"));
        assert!(j.contains("\"cache_hit_rate\": 0.5"));
        assert!(j.contains("\"store_hits\": 0"));
        assert!(j.contains("\"store_hit_rate\": 0"));
        assert!(j.ends_with('}'));
    }

    #[test]
    fn since_subtracts_store_counters() {
        let a = MetricsSnapshot {
            store_hits: 2,
            store_bytes: 100,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            store_hits: 10,
            store_misses: 3,
            store_bytes: 700,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.store_hits, 8);
        assert_eq!(d.store_misses, 3);
        assert_eq!(d.store_bytes, 600);
        assert!((d.store_hit_rate() - 8.0 / 11.0).abs() < 1e-12);
    }
}
