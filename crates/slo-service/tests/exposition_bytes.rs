//! The exact bytes of the service's metrics renderings: the flat JSON
//! object (`slo batch --json`, the `metrics` verb, the bench binaries)
//! and the Prometheus expositions of the service and the TCP ingress
//! (`metrics prom`). Every field and fault site holds a distinct value,
//! so a reading that moves, swaps or drops shows here.

use slo_service::{MetricsSnapshot, NetSnapshot};

/// A snapshot with a distinct value in every field and fault site.
/// `store_bytes` is past 2^53, where a count and its `f64` differ.
fn distinct() -> MetricsSnapshot {
    let mut faults_injected = [0u64; slo_chaos::NUM_SITES];
    for (i, slot) in faults_injected.iter_mut().enumerate() {
        *slot = 100 + i as u64;
    }
    MetricsSnapshot {
        jobs: 41,
        optimized: 23,
        degraded: 13,
        degraded_transform: 1,
        degraded_verification: 2,
        degraded_budget: 3,
        degraded_panic: 4,
        degraded_fault: 5,
        failed: 6,
        panics: 7,
        retries: 8,
        quarantined: 9,
        cache_hits: 10,
        cache_misses: 11,
        cache_evictions: 12,
        cache_reverified: 14,
        store_hits: 15,
        store_misses: 16,
        store_corrupt_drops: 17,
        store_bytes: (1 << 53) + 1,
        faults_injected,
        queue_wait_ns: 1_234_567_891,
        fe_ns: 2_000_000_019,
        ipa_ns: 1_500_020,
        be_ns: 21,
        exec_ns: 987_654_321_012,
    }
}

#[test]
fn json_bytes_are_pinned() {
    assert_eq!(distinct().to_json(), PINNED_JSON);
}

#[test]
fn prometheus_bytes_are_pinned() {
    assert_eq!(distinct().to_prometheus(), PINNED_PROMETHEUS);
}

const PINNED_JSON: &str = r#"{"jobs": 41, "optimized": 23, "degraded": 13, "degraded_transform": 1, "degraded_verification": 2, "degraded_budget": 3, "degraded_panic": 4, "degraded_fault": 5, "failed": 6, "panics": 7, "retries": 8, "quarantined": 9, "faults_injected": 1266, "cache_hits": 10, "cache_misses": 11, "cache_evictions": 12, "cache_reverified": 14, "cache_hit_rate": 0.47619047619047616, "store_hits": 15, "store_misses": 16, "store_corrupt_drops": 17, "store_bytes": 9007199254740992, "store_hit_rate": 0.4838709677419355, "queue_wait_ns": 1234567891, "fe_ns": 2000000019, "ipa_ns": 1500020, "be_ns": 21, "exec_ns": 987654321012}"#;

const PINNED_PROMETHEUS: &str = r#"# HELP slo_jobs_total Jobs completed (any status).
# TYPE slo_jobs_total counter
slo_jobs_total 41
# HELP slo_jobs_by_status_total Jobs by final status.
# TYPE slo_jobs_by_status_total counter
slo_jobs_by_status_total{status="optimized"} 23
slo_jobs_by_status_total{status="advisory"} 13
slo_jobs_by_status_total{status="failed"} 6
# HELP slo_jobs_degraded_total Advisory downgrades by reason.
# TYPE slo_jobs_degraded_total counter
slo_jobs_degraded_total{reason="transform"} 1
slo_jobs_degraded_total{reason="verification"} 2
slo_jobs_degraded_total{reason="budget"} 3
slo_jobs_degraded_total{reason="panic"} 4
slo_jobs_degraded_total{reason="fault"} 5
# HELP slo_panics_total Panics caught and contained.
# TYPE slo_panics_total counter
slo_panics_total 7
# HELP slo_retries_total Supervisor retries of transient job failures.
# TYPE slo_retries_total counter
slo_retries_total 8
# HELP slo_quarantined_total Jobs quarantined after exhausting retries.
# TYPE slo_quarantined_total counter
slo_quarantined_total 9
# HELP slo_faults_injected_total Faults injected by the chaos plan, by site.
# TYPE slo_faults_injected_total counter
slo_faults_injected_total{site="vm-alloc"} 100
slo_faults_injected_total{site="vm-step-jitter"} 101
slo_faults_injected_total{site="cache-poison"} 102
slo_faults_injected_total{site="cache-evict-storm"} 103
slo_faults_injected_total{site="pool-worker-panic"} 104
slo_faults_injected_total{site="manifest-truncate"} 105
slo_faults_injected_total{site="manifest-garble"} 106
slo_faults_injected_total{site="net-slow-loris"} 107
slo_faults_injected_total{site="net-disconnect"} 108
slo_faults_injected_total{site="net-accept-storm"} 109
slo_faults_injected_total{site="store-torn-write"} 110
slo_faults_injected_total{site="store-bit-rot"} 111
# HELP slo_cache_events_total Analysis-cache events.
# TYPE slo_cache_events_total counter
slo_cache_events_total{event="hit"} 10
slo_cache_events_total{event="miss"} 11
slo_cache_events_total{event="eviction"} 12
slo_cache_events_total{event="reverified"} 14
# HELP slo_cache_hit_rate Analysis-cache hit rate in [0, 1].
# TYPE slo_cache_hit_rate gauge
slo_cache_hit_rate 0.47619047619047616
# HELP slo_store_events_total Persistent-store events.
# TYPE slo_store_events_total counter
slo_store_events_total{event="hit"} 15
slo_store_events_total{event="miss"} 16
slo_store_events_total{event="corrupt_drop"} 17
# HELP slo_store_bytes_written_total Bytes appended to store segments.
# TYPE slo_store_bytes_written_total counter
slo_store_bytes_written_total 9007199254740993
# HELP slo_store_hit_rate Persistent-store hit rate in [0, 1].
# TYPE slo_store_hit_rate gauge
slo_store_hit_rate 0.4838709677419355
# HELP slo_phase_seconds_total Cumulative wall time per phase.
# TYPE slo_phase_seconds_total counter
slo_phase_seconds_total{phase="queue_wait"} 1.234567891
slo_phase_seconds_total{phase="fe"} 2.000000019
slo_phase_seconds_total{phase="ipa"} 0.00150002
slo_phase_seconds_total{phase="be"} 0.000000021
slo_phase_seconds_total{phase="exec"} 987.654321012
"#;

/// The exact exposition bytes, with two clients and with none (an
/// empty client table still declares its family).
#[test]
fn net_prometheus_bytes_are_pinned() {
    let snap = NetSnapshot {
        accepted: 31,
        rejected: 32,
        requests: 33,
        shed: 34,
        errors: 35,
        disconnects: 36,
        slow_closes: 37,
        queue_depth: 38,
        queue_depth_peak: 39,
        per_client: vec![("10.0.0.7".to_string(), 40), ("127.0.0.1".to_string(), 41)],
    };
    assert_eq!(snap.to_prometheus(), PINNED_NET_PROMETHEUS);
    let empty = NetSnapshot::default().to_prometheus();
    assert_eq!(empty, PINNED_EMPTY_NET_PROMETHEUS);
}

const PINNED_NET_PROMETHEUS: &str = r#"# HELP slo_net_connections_total Ingress connections by event.
# TYPE slo_net_connections_total counter
slo_net_connections_total{event="accepted"} 31
slo_net_connections_total{event="rejected"} 32
slo_net_connections_total{event="disconnected"} 36
slo_net_connections_total{event="slow_closed"} 37
# HELP slo_net_requests_total Request lines received.
# TYPE slo_net_requests_total counter
slo_net_requests_total 33
# HELP slo_net_shed_total Job lines shed by admission control.
# TYPE slo_net_shed_total counter
slo_net_shed_total 34
# HELP slo_net_errors_total Protocol error replies written.
# TYPE slo_net_errors_total counter
slo_net_errors_total 35
# HELP slo_net_queue_depth Job lines waiting for admission.
# TYPE slo_net_queue_depth gauge
slo_net_queue_depth 38
# HELP slo_net_queue_depth_peak Admission queue high-water mark.
# TYPE slo_net_queue_depth_peak gauge
slo_net_queue_depth_peak 39
# HELP slo_net_client_requests_total Requests per client IP.
# TYPE slo_net_client_requests_total counter
slo_net_client_requests_total{client="10.0.0.7"} 40
slo_net_client_requests_total{client="127.0.0.1"} 41
"#;
const PINNED_EMPTY_NET_PROMETHEUS: &str = r#"# HELP slo_net_connections_total Ingress connections by event.
# TYPE slo_net_connections_total counter
slo_net_connections_total{event="accepted"} 0
slo_net_connections_total{event="rejected"} 0
slo_net_connections_total{event="disconnected"} 0
slo_net_connections_total{event="slow_closed"} 0
# HELP slo_net_requests_total Request lines received.
# TYPE slo_net_requests_total counter
slo_net_requests_total 0
# HELP slo_net_shed_total Job lines shed by admission control.
# TYPE slo_net_shed_total counter
slo_net_shed_total 0
# HELP slo_net_errors_total Protocol error replies written.
# TYPE slo_net_errors_total counter
slo_net_errors_total 0
# HELP slo_net_queue_depth Job lines waiting for admission.
# TYPE slo_net_queue_depth gauge
slo_net_queue_depth 0
# HELP slo_net_queue_depth_peak Admission queue high-water mark.
# TYPE slo_net_queue_depth_peak gauge
slo_net_queue_depth_peak 0
# HELP slo_net_client_requests_total Requests per client IP.
# TYPE slo_net_client_requests_total counter
"#;
