//! Service-level phase metrics: queue wait, per-phase timings, cache
//! hit/miss counters, degradation counts.
//!
//! The live counters are a [`MetricsSnapshot`] behind one lock in the
//! [`crate::Service`]; a job's tallies land under one lock when it
//! finishes. A copy is a point-in-time read used by the CLI's `--json`
//! output, the `metrics` verbs and the bench binaries. Both of its
//! renderings, the flat JSON object and the Prometheus exposition, read
//! one table of rows, so each reading is named once.

use slo_obs::json::write_num;
use slo_obs::prom::{Exposition, Family};
use std::fmt;

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
    /// Analysis-cache hits (read from the cache by
    /// [`crate::Service::metrics`], like the other `cache_*` counters).
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

/// A reading's value; its `Display` is the Prometheus sample value.
#[derive(Clone, Copy)]
enum Value {
    Count(u64),
    Rate(f64),
    /// Nanoseconds in JSON, seconds in Prometheus.
    Nanos(u64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Rate(r) => write!(f, "{r}"),
            Value::Nanos(ns) => write!(f, "{}", ns as f64 / 1e9),
        }
    }
}

/// One reading: its JSON key, its value, and its Prometheus family and
/// label value. Either rendering may leave it out.
type Row = (
    Option<&'static str>,
    Value,
    Option<(&'static Family, Option<&'static str>)>,
);

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
        // The struct literal names every field, so none is skipped.
        macro_rules! minus {
            ($($field:ident),*) => {
                MetricsSnapshot {
                    $($field: self.$field - earlier.$field,)*
                    faults_injected: std::array::from_fn(|i| {
                        self.faults_injected[i] - earlier.faults_injected[i]
                    }),
                }
            };
        }
        minus! {
            jobs, optimized, degraded, degraded_transform, degraded_verification, degraded_budget,
            degraded_panic, degraded_fault, failed, panics, retries, quarantined, cache_hits,
            cache_misses, cache_evictions, cache_reverified, store_hits, store_misses,
            store_corrupt_drops, store_bytes, queue_wait_ns, fe_ns, ipa_ns, be_ns, exec_ns
        }
    }

    /// Total injected faults across every site.
    pub fn faults_injected_total(&self) -> u64 {
        self.faults_injected.iter().sum()
    }

    /// Every reading, in JSON key order, and every metric family. The
    /// Prometheus exposition groups the readings by family in the order
    /// families first appear here.
    #[rustfmt::skip]
    fn rows(&self) -> Vec<Row> {
        use Value::{Count, Nanos, Rate};
        const JOBS: Family = Family::counter("slo_jobs_total", "Jobs completed (any status).");
        const BY_STATUS: Family = Family::counter("slo_jobs_by_status_total", "Jobs by final status.").label("status");
        const DEGRADED: Family = Family::counter("slo_jobs_degraded_total", "Advisory downgrades by reason.").label("reason");
        const PANICS: Family = Family::counter("slo_panics_total", "Panics caught and contained.");
        const RETRIES: Family = Family::counter("slo_retries_total", "Supervisor retries of transient job failures.");
        const QUARANTINED: Family = Family::counter("slo_quarantined_total", "Jobs quarantined after exhausting retries.");
        const FAULTS: Family = Family::counter("slo_faults_injected_total", "Faults injected by the chaos plan, by site.").label("site");
        const CACHE: Family = Family::counter("slo_cache_events_total", "Analysis-cache events.").label("event");
        const CACHE_RATE: Family = Family::gauge("slo_cache_hit_rate", "Analysis-cache hit rate in [0, 1].");
        const STORE: Family = Family::counter("slo_store_events_total", "Persistent-store events.").label("event");
        const STORE_BYTES: Family = Family::counter("slo_store_bytes_written_total", "Bytes appended to store segments.");
        const STORE_RATE: Family = Family::gauge("slo_store_hit_rate", "Persistent-store hit rate in [0, 1].");
        const PHASE: Family = Family::counter("slo_phase_seconds_total", "Cumulative wall time per phase.").label("phase");
        let both = |key, value, family, label| (Some(key), value, Some((family, label)));
        let mut rows = vec![
            both("jobs", Count(self.jobs), &JOBS, None),
            both("optimized", Count(self.optimized), &BY_STATUS, Some("optimized")),
            both("degraded", Count(self.degraded), &BY_STATUS, Some("advisory")),
            both("degraded_transform", Count(self.degraded_transform), &DEGRADED, Some("transform")),
            both("degraded_verification", Count(self.degraded_verification), &DEGRADED, Some("verification")),
            both("degraded_budget", Count(self.degraded_budget), &DEGRADED, Some("budget")),
            both("degraded_panic", Count(self.degraded_panic), &DEGRADED, Some("panic")),
            both("degraded_fault", Count(self.degraded_fault), &DEGRADED, Some("fault")),
            both("failed", Count(self.failed), &BY_STATUS, Some("failed")),
            both("panics", Count(self.panics), &PANICS, None),
            both("retries", Count(self.retries), &RETRIES, None),
            both("quarantined", Count(self.quarantined), &QUARANTINED, None),
            // One total in JSON, one sample per site in Prometheus.
            (Some("faults_injected"), Count(self.faults_injected_total()), None),
        ];
        let sites = slo_chaos::ALL_SITES.iter().zip(self.faults_injected);
        rows.extend(sites.map(|(site, n)| (None, Count(n), Some((&FAULTS, Some(site.name()))))));
        rows.extend([
            both("cache_hits", Count(self.cache_hits), &CACHE, Some("hit")),
            both("cache_misses", Count(self.cache_misses), &CACHE, Some("miss")),
            both("cache_evictions", Count(self.cache_evictions), &CACHE, Some("eviction")),
            both("cache_reverified", Count(self.cache_reverified), &CACHE, Some("reverified")),
            both("cache_hit_rate", Rate(self.cache_hit_rate()), &CACHE_RATE, None),
            both("store_hits", Count(self.store_hits), &STORE, Some("hit")),
            both("store_misses", Count(self.store_misses), &STORE, Some("miss")),
            both("store_corrupt_drops", Count(self.store_corrupt_drops), &STORE, Some("corrupt_drop")),
            both("store_bytes", Count(self.store_bytes), &STORE_BYTES, None),
            both("store_hit_rate", Rate(self.store_hit_rate()), &STORE_RATE, None),
            both("queue_wait_ns", Nanos(self.queue_wait_ns), &PHASE, Some("queue_wait")),
            both("fe_ns", Nanos(self.fe_ns), &PHASE, Some("fe")),
            both("ipa_ns", Nanos(self.ipa_ns), &PHASE, Some("ipa")),
            both("be_ns", Nanos(self.be_ns), &PHASE, Some("be")),
            both("exec_ns", Nanos(self.exec_ns), &PHASE, Some("exec")),
        ]);
        rows
    }

    /// A flat JSON object with every counter plus the derived hit rates
    /// (deterministic key order; consumed by `slo batch --json` and
    /// merged into `BENCH_vm.json` by the bench driver).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (key, value, _) in self.rows() {
            let Some(key) = key else { continue };
            s.push_str(if s.len() > 1 { ", \"" } else { "\"" });
            s.push_str(key);
            s.push_str("\": ");
            let v = match value {
                Value::Count(n) | Value::Nanos(n) => n as f64,
                Value::Rate(r) => r,
            };
            write_num(&mut s, v);
        }
        s.push('}');
        s
    }

    /// The snapshot in the Prometheus text exposition format (served by
    /// `slo serve`'s `metrics prom` command; validated line-by-line by
    /// `slo_obs::conform::check_prometheus`).
    pub fn to_prometheus(&self) -> String {
        let mut w = Exposition::default();
        for (_, value, prom) in self.rows() {
            if let Some((family, label)) = prom {
                w.sample(family, label, value);
            }
        }
        w.finish()
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
    fn since_itself_is_zero_and_since_zero_is_itself() {
        let mut faults_injected = [0; slo_chaos::NUM_SITES];
        faults_injected[3] = 5;
        let m = MetricsSnapshot {
            jobs: 3,
            degraded_fault: 1,
            store_bytes: 4,
            faults_injected,
            exec_ns: 9,
            ..Default::default()
        };
        assert_eq!(m.since(&m), MetricsSnapshot::default());
        assert_eq!(m.since(&MetricsSnapshot::default()), m);
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
