//! The analysis tier: the one place the service finds an analysis.
//!
//! Repeated analysis over near-identical inputs dominates batch cost
//! (Chen & Kandemir's constraint-network observation; Marmoset's
//! many-layouts-per-program search has the same shape), so the service
//! memoizes the FE + IPA half of the pipeline — [`slo::Analysis`] —
//! keyed by [`slo::analysis_cache_key`], a stable FNV-1a digest of the
//! *normalized* IR text, the scheme (with any profile) and every config
//! knob. The BE rewrite is cheap and re-runs per job.
//!
//! [`AnalysisTier::get_or_analyze`] is the only way in. In order, it
//! (1) looks the key up in the bounded LRU, (2) waits if another job is
//! computing the key, or else (3) claims it — these three are one step
//! under the LRU's lock — then (4) reads the optional [`AnalysisStore`],
//! (5) computes on a store miss, (6) writes a fresh computation back (a
//! failed write costs durability only and is traced as
//! `store-put-error`), (7) inserts into the LRU and (8) releases the
//! claim, waking the waiters. No lock is held across store I/O or the
//! computation besides the store's own; an LRU hit takes one lock.
//!
//! **Single flight.** A waiter takes the claimant's `Arc` directly, so
//! each key is analyzed once however many workers ask. It waits at most
//! until its wall-clock deadline, then gives up with the same budget
//! degradation as a job's phase-boundary check. A claimant that unwinds
//! releases its claim from a drop guard; the waiters look again and one
//! of them computes — a panic is never shared. Capacity `0` disables the
//! LRU and single flight: every lookup misses and nothing waits.
//!
//! **Counting.** Every call is one LRU hit or one LRU miss: served by
//! the LRU or by a claimant it waited for is a hit (as with one worker
//! running the jobs in turn); a claim, a capacity-`0` lookup or a
//! deadline passed while waiting is a miss. The store counts its own.
//! Each result carries an origin number shared by every call it served,
//! so [`Service::run_batch`](crate::Service::run_batch) can give a
//! computation's one miss to its first job in submission order.
//!
//! **Re-verification.** Every LRU entry keeps the IPA fingerprint of
//! its analysis; a lookup recomputes it and drops a mismatching entry
//! ([`Fetched::reverified`]), so a poisoned entry is recomputed, never
//! served. The chaos plan's `CachePoison` site corrupts a fingerprint
//! at insert to prove that path, and `CacheEvictStorm` empties the LRU
//! on an insert to prove the service survives total recall loss. Digest
//! collisions are the standard content-hash risk, accepted as git does.

use crate::job::{over_deadline, Degradation};
use crate::metrics::MetricsSnapshot;
use crate::store::AnalysisStore;
use slo::analysis::ipa_fingerprint;
use slo::Analysis;
use slo_chaos::{FaultPlan, Site};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Where [`AnalysisTier::get_or_analyze`] found an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The in-memory LRU.
    Lru,
    /// The job that was computing the key when this one asked.
    Waited,
    /// The persistent store.
    Store,
    /// Computed for this call.
    Computed,
}

/// An analysis and where it came from.
#[derive(Debug)]
pub struct Fetched {
    /// The shared analysis.
    pub analysis: Arc<Analysis>,
    /// The tier that served it.
    pub source: Source,
    /// Which computation or store read produced the analysis, numbered
    /// per tier: calls that share an origin share one analysis.
    pub origin: u64,
    /// An LRU entry for the key failed re-verification and was dropped
    /// on the way.
    pub reverified: bool,
}

/// A claimed key: the origin its result will carry, and the result
/// slot the claimant sets before it releases the claim (left empty if
/// the claimant unwound).
#[derive(Debug)]
struct Flight {
    origin: u64,
    landed: OnceLock<Arc<Analysis>>,
}

/// The LRU, the optional store and the keys in flight, behind one
/// lookup. See the module docs for the order and the counting rule.
#[derive(Debug)]
pub struct AnalysisTier {
    lru: Mutex<Lru>,
    /// Notified whenever a claim is released.
    landed: Condvar,
    store: Option<Mutex<AnalysisStore>>,
    trace: slo_obs::Recorder,
    faults: FaultPlan,
}

/// Bounded LRU map from analysis cache key to a shared [`Analysis`],
/// plus the keys being computed right now.
#[derive(Debug, Default)]
struct Lru {
    capacity: usize,
    stamp: u64,
    entries: HashMap<u64, Entry>,
    flights: HashMap<u64, Arc<Flight>>,
    /// The last origin handed out.
    origins: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    corrupt_drops: u64,
}

#[derive(Debug)]
struct Entry {
    analysis: Arc<Analysis>,
    origin: u64,
    last_used: u64,
    /// `ipa_fingerprint` of `analysis` at insert time; verified on
    /// every hit.
    fingerprint: u64,
}

impl AnalysisTier {
    /// A tier whose LRU holds at most `capacity` entries (`0` disables
    /// the LRU and single flight), with no store. `trace` receives the
    /// tier's own events; `faults` drives the LRU's chaos sites.
    pub fn new(capacity: usize, trace: slo_obs::Recorder, faults: FaultPlan) -> Self {
        AnalysisTier {
            lru: Mutex::new(Lru {
                capacity,
                ..Lru::default()
            }),
            landed: Condvar::new(),
            store: None,
            trace,
            faults,
        }
    }

    /// Put `store` beneath the LRU: a miss reads it before computing,
    /// and a fresh computation is written back.
    pub fn with_store(mut self, store: AnalysisStore) -> Self {
        self.store = Some(Mutex::new(store));
        self
    }

    /// The analysis for `key`: from the LRU, from a job computing it
    /// now, from the store, or from `compute`, in that order.
    ///
    /// # Errors
    ///
    /// The wall-clock budget degradation when `deadline` passes while
    /// the call waits for another job's computation.
    pub fn get_or_analyze(
        &self,
        key: u64,
        deadline: Option<Instant>,
        compute: impl FnOnce() -> Analysis,
    ) -> Result<Fetched, Degradation> {
        let mut reverified = false;
        let fetched = |analysis, source, origin, reverified| {
            Ok(Fetched {
                analysis,
                source,
                origin,
                reverified,
            })
        };
        let mut lru = lock(&self.lru);
        let (origin, claim) = loop {
            if let Some((analysis, origin)) = lru.verified(key, &mut reverified) {
                lru.hits += 1;
                return fetched(analysis, Source::Lru, origin, reverified);
            }
            if lru.capacity == 0 {
                break (lru.miss(), None);
            }
            let Some(flight) = lru.flights.get(&key).cloned() else {
                let flight = Arc::new(Flight {
                    origin: lru.miss(),
                    landed: OnceLock::new(),
                });
                lru.flights.insert(key, Arc::clone(&flight));
                let claim = Claim {
                    tier: self,
                    key,
                    flight,
                };
                break (claim.flight.origin, Some(claim));
            };
            let _wait = self.trace.span("service", "analysis_wait");
            while lru
                .flights
                .get(&key)
                .is_some_and(|f| Arc::ptr_eq(f, &flight))
            {
                if let Some(late) = over_deadline(deadline) {
                    lru.misses += 1;
                    return Err(late);
                }
                lru = match deadline {
                    None => self
                        .landed
                        .wait(lru)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        let woken = self.landed.wait_timeout(lru, left);
                        woken.unwrap_or_else(PoisonError::into_inner).0
                    }
                };
            }
            if let Some(analysis) = flight.landed.get() {
                lru.hits += 1;
                let analysis = Arc::clone(analysis);
                return fetched(analysis, Source::Waited, flight.origin, reverified);
            }
            // The claimant unwound without a result: look again.
        };
        drop(lru);

        let stored = self.store.as_ref().and_then(|s| lock(s).get(key));
        let (analysis, source) = match stored {
            Some(a) => (a, Source::Store),
            None => {
                let a = Arc::new(compute());
                if let Some(Err(e)) = self.store.as_ref().map(|s| lock(s).put(key, &a)) {
                    // A failed write only costs durability: the job
                    // itself proceeds from memory.
                    self.trace.instant(
                        "service",
                        "store-put-error",
                        vec![("error", e.to_string().into())],
                    );
                }
                (a, Source::Computed)
            }
        };
        if let Some(claim) = claim {
            let _ = claim.flight.landed.set(Arc::clone(&analysis));
        }
        fetched(analysis, source, origin, reverified)
    }

    /// Copy the LRU's and the store's counters into `snap`.
    pub fn counters_into(&self, snap: &mut MetricsSnapshot) {
        {
            let lru = lock(&self.lru);
            (snap.cache_hits, snap.cache_misses) = (lru.hits, lru.misses);
            (snap.cache_evictions, snap.cache_reverified) = (lru.evictions, lru.corrupt_drops);
        }
        if let Some(store) = &self.store {
            let c = lock(store).counters();
            snap.store_hits = c.hits;
            snap.store_misses = c.misses;
            snap.store_corrupt_drops = c.corrupt_drops;
            snap.store_bytes = c.bytes_written;
        }
    }
}

/// Lock a tier mutex. A holder that panicked leaves at worst an entry
/// missing or a store tail the next open cuts off, never a state a
/// later reader could misuse, so a poisoned lock is read through.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A claimed key. Dropping it — after the claimant set the result, or
/// while it unwinds — inserts any result into the LRU, releases the key
/// and wakes every waiter.
struct Claim<'a> {
    tier: &'a AnalysisTier,
    key: u64,
    flight: Arc<Flight>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut lru = lock(&self.tier.lru);
        if let Some(analysis) = self.flight.landed.get() {
            let (key, origin) = (self.key, self.flight.origin);
            lru.insert(key, Arc::clone(analysis), origin, &self.tier.faults);
        }
        lru.flights.remove(&self.key);
        drop(lru);
        self.tier.landed.notify_all();
    }
}

impl Lru {
    /// Count a miss and number the computation it starts.
    fn miss(&mut self) -> u64 {
        self.misses += 1;
        self.origins += 1;
        self.origins
    }

    /// The entry for `key` and its origin, refreshed as most recently
    /// used, if its recomputed IPA fingerprint still matches the stored
    /// one. An entry that fails the check is dropped, counted and
    /// reported in `reverified`.
    fn verified(&mut self, key: u64, reverified: &mut bool) -> Option<(Arc<Analysis>, u64)> {
        self.stamp += 1;
        let e = self.entries.get_mut(&key)?;
        if ipa_fingerprint(&e.analysis.ipa) == e.fingerprint {
            e.last_used = self.stamp;
            return Some((Arc::clone(&e.analysis), e.origin));
        }
        self.entries.remove(&key);
        self.corrupt_drops += 1;
        *reverified = true;
        None
    }

    /// Insert `key -> analysis`, evicting the least-recently-used entry
    /// if the bound would be exceeded. Fault injection:
    /// `CacheEvictStorm` empties the LRU before the insert,
    /// `CachePoison` corrupts the stored fingerprint so the *next*
    /// lookup of `key` detects the mismatch and recomputes.
    fn insert(&mut self, key: u64, analysis: Arc<Analysis>, origin: u64, faults: &FaultPlan) {
        if faults.should_fire(Site::CacheEvictStorm) {
            self.evictions += self.entries.len() as u64;
            self.entries.clear();
        }
        self.stamp += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        let mut fingerprint = ipa_fingerprint(&analysis.ipa);
        if faults.should_fire(Site::CachePoison) {
            fingerprint ^= 0xDEAD_BEEF_0BAD_CAFE;
        }
        self.entries.insert(
            key,
            Entry {
                analysis,
                origin,
                last_used: self.stamp,
                fingerprint,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slo::analysis::WeightScheme;
    use slo_chaos::ChaosConfig;
    use slo_ir::parser::parse;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    fn some_analysis() -> Analysis {
        let p = parse("func main() -> i64 {\nbb0:\n  ret 0\n}\n").expect("parse");
        slo::analyze(&p, &WeightScheme::Ispbo, &slo::PipelineConfig::default())
    }

    fn tier(capacity: usize, faults: FaultPlan) -> AnalysisTier {
        AnalysisTier::new(capacity, slo_obs::Recorder::disabled(), faults)
    }

    fn source(t: &AnalysisTier, key: u64) -> Source {
        let fetched = t.get_or_analyze(key, None, some_analysis);
        fetched.expect("no deadline").source
    }

    fn counters(t: &AnalysisTier) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        t.counters_into(&mut snap);
        snap
    }

    /// References to the flight of `key`: the map's, the claimant's
    /// and one per waiter.
    fn flight_refs(t: &AnalysisTier, key: u64) -> usize {
        lock(&t.lru).flights.get(&key).map_or(0, Arc::strong_count)
    }

    #[test]
    fn hit_miss_and_counters() {
        let t = tier(4, FaultPlan::disabled());
        assert_eq!(source(&t, 1), Source::Computed);
        assert_eq!(source(&t, 1), Source::Lru);
        let m = counters(&t);
        assert_eq!((m.cache_hits, m.cache_misses, m.cache_evictions), (1, 1, 0));
        assert_eq!(m.cache_reverified, 0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let t = tier(2, FaultPlan::disabled());
        source(&t, 1);
        source(&t, 2);
        assert_eq!(source(&t, 1), Source::Lru); // 2 is now the LRU entry
        source(&t, 3);
        assert_eq!(source(&t, 1), Source::Lru);
        assert_eq!(source(&t, 3), Source::Lru);
        assert_eq!(counters(&t).cache_evictions, 1);
        assert_eq!(source(&t, 2), Source::Computed, "LRU entry evicted");
    }

    #[test]
    fn zero_capacity_disables() {
        let t = tier(0, FaultPlan::disabled());
        assert_eq!(source(&t, 1), Source::Computed);
        assert_eq!(source(&t, 1), Source::Computed);
        let m = counters(&t);
        assert_eq!((m.cache_hits, m.cache_misses), (0, 2));
    }

    #[test]
    fn poisoned_insert_is_caught_on_lookup() {
        let poison = FaultPlan::with_config(1, ChaosConfig::never().rate(Site::CachePoison, 1024));
        let t = tier(4, poison);
        source(&t, 1);
        let again = t
            .get_or_analyze(1, None, some_analysis)
            .expect("no deadline");
        assert_eq!(
            again.source,
            Source::Computed,
            "a corrupt entry is never served"
        );
        assert!(again.reverified);
        assert_eq!(counters(&t).cache_reverified, 1);
    }

    #[test]
    fn evict_storm_clears_and_counts() {
        let storm =
            FaultPlan::with_config(1, ChaosConfig::never().rate(Site::CacheEvictStorm, 1024));
        let t = tier(8, storm);
        for key in 1..=3 {
            source(&t, key);
        }
        assert_eq!(source(&t, 3), Source::Lru);
        assert_eq!(source(&t, 1), Source::Computed, "the storms cleared it");
        assert_eq!(counters(&t).cache_evictions, 3, "storm victims count");
    }

    #[test]
    fn a_panicking_claimant_wakes_its_waiters_and_one_of_them_computes() {
        let t = tier(4, FaultPlan::disabled());
        let computed = AtomicUsize::new(0);
        let waiters = std::thread::scope(|s| {
            let claimant = s.spawn(|| {
                t.get_or_analyze(7, None, || {
                    // Hold the claim until both waiters wait on it.
                    while flight_refs(&t, 7) < 4 {
                        std::thread::yield_now();
                    }
                    panic!("claimant dies mid-analysis")
                })
            });
            while flight_refs(&t, 7) == 0 {
                std::thread::yield_now();
            }
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        t.get_or_analyze(7, None, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            some_analysis()
                        })
                    })
                })
                .collect();
            assert!(claimant.join().is_err(), "the panic is the claimant's own");
            waiters
                .into_iter()
                .map(|w| w.join().expect("waiter"))
                .collect::<Vec<_>>()
        });
        let sources: Vec<Source> = waiters
            .into_iter()
            .map(|w| w.expect("no deadline").source)
            .collect();
        // The other waiter either waited again or found the landed
        // result, depending on when it woke.
        let recomputed = sources.iter().filter(|s| **s == Source::Computed);
        assert_eq!(recomputed.count(), 1, "{sources:?}");
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one recompute");
        let m = counters(&t);
        assert_eq!((m.cache_hits, m.cache_misses), (1, 2));
    }

    #[test]
    fn a_waiter_past_its_deadline_takes_the_budget_degradation() {
        let t = &tier(4, FaultPlan::disabled());
        let (release, held) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let claimant = s.spawn(move || {
                t.get_or_analyze(9, None, || {
                    // Bounded, so a waiter that ignores its deadline
                    // fails the assertion below instead of hanging.
                    let _ = held.recv_timeout(Duration::from_secs(10));
                    some_analysis()
                })
            });
            while flight_refs(t, 9) == 0 {
                std::thread::yield_now();
            }
            let started = Instant::now();
            let late = t.get_or_analyze(9, Some(started + Duration::from_millis(30)), || {
                panic!("a waiter never computes while the claim is held")
            });
            let waited = started.elapsed();
            assert!(flight_refs(t, 9) > 0, "the claimant still holds the key");
            release.send(()).expect("claimant alive");
            assert_eq!(
                claimant
                    .join()
                    .expect("claimant")
                    .expect("no deadline")
                    .source,
                Source::Computed
            );
            match late {
                Err(Degradation::Budget(msg)) => assert_eq!(msg, "wall-clock budget exhausted"),
                other => panic!("expected the budget degradation, got {other:?}"),
            }
            assert!(waited < Duration::from_secs(5), "waited {waited:?}");
        });
        let m = counters(t);
        assert_eq!((m.cache_hits, m.cache_misses), (0, 2));
    }

    #[test]
    fn capacity_zero_never_waits() {
        let t = &tier(0, FaultPlan::disabled());
        let (release, held) = mpsc::channel::<()>();
        let in_compute = &std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let first = s.spawn(move || {
                t.get_or_analyze(5, None, || {
                    in_compute.wait();
                    let _ = held.recv_timeout(Duration::from_secs(10));
                    some_analysis()
                })
            });
            in_compute.wait();
            // The first call is inside its computation; this one does
            // not wait for it.
            assert_eq!(source(t, 5), Source::Computed);
            release.send(()).expect("first call alive");
            assert_eq!(
                first.join().expect("first").expect("ok").source,
                Source::Computed
            );
        });
        assert_eq!(counters(t).cache_misses, 2);
    }
}
