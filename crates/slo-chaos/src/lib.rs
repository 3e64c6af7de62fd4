//! # slo-chaos — deterministic fault injection for the SLO stack
//!
//! The paper's operational contract is *degrade to advice, never to
//! wrong code*: whenever legality or profitability is in doubt the
//! pipeline falls back to the §3 advisory report. The service inherits
//! that ladder (Optimized → Advisory → Failed-on-unparseable-only),
//! but nothing proves the ladder holds when the machinery underneath
//! it misbehaves. This crate provides the misbehaviour: a seed-driven
//! [`FaultPlan`] with named injection [`Site`]s threaded through the
//! VM, the analysis cache, the worker pool and the manifest reader,
//! plus the recovery-side primitives — a [`Clock`] that can be virtual
//! (so backoff tests do not sleep) and a [`RetryPolicy`] producing
//! bounded, reproducible exponential [`BackoffSchedule`]s.
//!
//! Like `slo_obs::Recorder`, a disabled plan is an `Option::None`
//! discriminant: every query is one branch and injection-free builds
//! pay nothing else. An enabled plan fires deterministically — whether
//! the *n*-th query of a site fires is a pure function of
//! `(seed, site, n)` — so a chaos campaign is replayable from its seed
//! alone and two runs of the same campaign inject the same faults at
//! the same points.
//!
//! This crate sits at the bottom of the workspace graph next to
//! `slo-obs` and depends on nothing.

#![warn(missing_docs)]

pub mod clock;
pub mod retry;

pub use clock::Clock;
pub use retry::{BackoffSchedule, RetryPolicy};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Named injection points threaded through the stack.
///
/// Each site is queried by exactly one piece of production code; the
/// ARCHITECTURE.md anchor table maps every variant to its `file:line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `slo-vm`: a heap allocation is refused (`ExecError::Injected`).
    VmAlloc,
    /// `slo-vm`: the effective step limit of one run is jittered down.
    VmStepJitter,
    /// `slo-service::cache`: an inserted entry's stored fingerprint is
    /// corrupted, simulating silent cache poisoning.
    CachePoison,
    /// `slo-service::cache`: an insert triggers a whole-cache eviction
    /// storm.
    CacheEvictStorm,
    /// `slo-service::pool`: a worker thread dies mid-queue, orphaning
    /// its current item.
    PoolWorkerPanic,
    /// `slo-service::manifest`: an incoming serve line is truncated.
    ManifestTruncate,
    /// `slo-service::manifest`: an incoming serve line is garbled.
    ManifestGarble,
    /// `slo-service::net`: a client stalls mid-line (slow-loris); the
    /// ingress must close it through its read-timeout defense instead
    /// of buffering the partial frame forever.
    NetSlowLoris,
    /// `slo-service::net`: the connection drops after a request ran but
    /// before its reply was written — the acked-vs-journaled window.
    NetDisconnect,
    /// `slo-service::net`: an accept storm — a burst of connections
    /// arrives at once, forcing the ingress through its over-capacity
    /// rejection path.
    NetAcceptStorm,
    /// `slo-service::store`: a put writes only a prefix of its record
    /// (a torn write, as if the process died mid-append); the replay
    /// path must treat it as an ignorable tail, never as data.
    StoreTornWrite,
    /// `slo-service::store`: one byte of a just-written record is
    /// flipped on disk (bit rot); the checksummed read path must drop
    /// and recompute, never serve the damaged record.
    StoreBitRot,
}

/// Number of distinct [`Site`]s.
pub const NUM_SITES: usize = 12;

/// Every site, in a fixed order (index = `site as usize`).
pub const ALL_SITES: [Site; NUM_SITES] = [
    Site::VmAlloc,
    Site::VmStepJitter,
    Site::CachePoison,
    Site::CacheEvictStorm,
    Site::PoolWorkerPanic,
    Site::ManifestTruncate,
    Site::ManifestGarble,
    Site::NetSlowLoris,
    Site::NetDisconnect,
    Site::NetAcceptStorm,
    Site::StoreTornWrite,
    Site::StoreBitRot,
];

impl Site {
    /// Stable machine-readable name (used as a Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            Site::VmAlloc => "vm-alloc",
            Site::VmStepJitter => "vm-step-jitter",
            Site::CachePoison => "cache-poison",
            Site::CacheEvictStorm => "cache-evict-storm",
            Site::PoolWorkerPanic => "pool-worker-panic",
            Site::ManifestTruncate => "manifest-truncate",
            Site::ManifestGarble => "manifest-garble",
            Site::NetSlowLoris => "net-slow-loris",
            Site::NetDisconnect => "net-disconnect",
            Site::NetAcceptStorm => "net-accept-storm",
            Site::StoreTornWrite => "store-torn-write",
            Site::StoreBitRot => "store-bit-rot",
        }
    }
}

/// Per-site firing rates out of 1024 queries (0 = never, 1024 = every
/// query). The default is an aggressive-but-survivable campaign mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// `rates[site as usize]` is the site's firing probability ×1024.
    pub rates: [u16; NUM_SITES],
}

impl Default for ChaosConfig {
    fn default() -> Self {
        let mut rates = [0u16; NUM_SITES];
        rates[Site::VmAlloc as usize] = 40; // ~4% of allocations refused
        rates[Site::VmStepJitter as usize] = 80; // ~8% of runs jittered
        rates[Site::CachePoison as usize] = 128; // ~12% of inserts poisoned
        rates[Site::CacheEvictStorm as usize] = 32; // ~3% of inserts storm
        rates[Site::PoolWorkerPanic as usize] = 64; // ~6% of pulls kill a worker
        rates[Site::ManifestTruncate as usize] = 96; // ~9% of serve lines cut
        rates[Site::ManifestGarble as usize] = 96; // ~9% of serve lines mangled
        rates[Site::NetSlowLoris as usize] = 64; // ~6% of reads stall
        rates[Site::NetDisconnect as usize] = 64; // ~6% of replies dropped
        rates[Site::NetAcceptStorm as usize] = 48; // ~5% of accepts storm
        rates[Site::StoreTornWrite as usize] = 64; // ~6% of puts torn
        rates[Site::StoreBitRot as usize] = 96; // ~9% of puts bit-rotted
        ChaosConfig { rates }
    }
}

impl ChaosConfig {
    /// A config with every site firing on every query (worst case).
    pub fn always() -> Self {
        ChaosConfig {
            rates: [1024; NUM_SITES],
        }
    }

    /// A config with every site silent (an enabled plan that still
    /// counts queries but never fires).
    pub fn never() -> Self {
        ChaosConfig {
            rates: [0; NUM_SITES],
        }
    }

    /// Set one site's rate (×1024) in builder style.
    pub fn rate(mut self, site: Site, per_1024: u16) -> Self {
        self.rates[site as usize] = per_1024;
        self
    }
}

#[derive(Debug)]
struct Inner {
    seed: u64,
    config: ChaosConfig,
    queries: [AtomicU64; NUM_SITES],
    injected: [AtomicU64; NUM_SITES],
}

/// A deterministic, seed-driven fault plan.
///
/// Cloning shares the underlying counters (like `slo_obs::Recorder`),
/// so the plan handed to the VM, the cache and the pool is one plan and
/// `injected()` totals cover the whole stack.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<Inner>>,
}

// SplitMix64 finalizer: a full-avalanche 64-bit mix, the same one the
// proptest shim's TestRng builds on.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The no-op plan: every query is one `Option` discriminant branch.
    pub fn disabled() -> FaultPlan {
        FaultPlan { inner: None }
    }

    /// A plan firing at the default [`ChaosConfig`] rates under `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan::with_config(seed, ChaosConfig::default())
    }

    /// A plan with explicit per-site rates.
    pub fn with_config(seed: u64, config: ChaosConfig) -> FaultPlan {
        FaultPlan {
            inner: Some(Arc::new(Inner {
                seed,
                config,
                queries: Default::default(),
                injected: Default::default(),
            })),
        }
    }

    /// Whether this plan can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The seed the plan was built with (`None` when disabled).
    pub fn seed(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.seed)
    }

    /// Query `site`: deterministically decide whether its next
    /// occurrence faults. The decision is a pure function of
    /// `(seed, site, query-ordinal)`; firing increments the site's
    /// injected counter.
    #[inline]
    pub fn should_fire(&self, site: Site) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                let idx = site as usize;
                let n = inner.queries[idx].fetch_add(1, Ordering::Relaxed);
                let rate = u64::from(inner.config.rates[idx]);
                // Pre-mix the (seed, site) pair before folding in the
                // ordinal: `seed ^ n` alone makes consecutive seeds
                // mere translations of one another's firing streams,
                // so short campaigns over seeds 0..K would all dodge
                // (or all hit) the same early ordinals.
                let h = mix(mix(inner.seed ^ ((idx as u64) << 56)).wrapping_add(n));
                let fire = (h & 1023) < rate;
                if fire {
                    inner.injected[idx].fetch_add(1, Ordering::Relaxed);
                }
                fire
            }
        }
    }

    /// A deterministic value in `0..=max` tied to the same query stream
    /// as [`should_fire`] — used by sites that need a magnitude (how
    /// far to truncate, how much budget to shave) alongside the firing
    /// decision. Does not advance the query counter and does not count
    /// as an injection.
    ///
    /// [`should_fire`]: FaultPlan::should_fire
    #[inline]
    pub fn magnitude(&self, site: Site, max: u64) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => {
                if max == 0 {
                    return 0;
                }
                let idx = site as usize;
                let n = inner.queries[idx].load(Ordering::Relaxed);
                mix(mix(inner.seed ^ ((idx as u64) << 56) ^ 0x5ca1_ab1e).wrapping_add(n))
                    % (max + 1)
            }
        }
    }

    /// How many times `site` has fired.
    pub fn injected(&self, site: Site) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.injected[site as usize].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Injected-fault counts for every site, indexed like
    /// [`ALL_SITES`].
    pub fn injected_by_site(&self) -> [u64; NUM_SITES] {
        let mut out = [0u64; NUM_SITES];
        if let Some(inner) = &self.inner {
            for (slot, counter) in out.iter_mut().zip(inner.injected.iter()) {
                *slot = counter.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Total injections across all sites.
    pub fn injected_total(&self) -> u64 {
        self.injected_by_site().iter().sum()
    }

    /// How many times `site` has been queried (fired or not).
    pub fn queries(&self, site: Site) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.queries[site as usize].load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires_and_counts_nothing() {
        let p = FaultPlan::disabled();
        for _ in 0..100 {
            assert!(!p.should_fire(Site::VmAlloc));
        }
        assert_eq!(p.injected_total(), 0);
        assert_eq!(p.queries(Site::VmAlloc), 0);
        assert!(!p.is_enabled());
    }

    #[test]
    fn firing_is_a_pure_function_of_seed_site_and_ordinal() {
        let record = |seed: u64| -> Vec<bool> {
            let p = FaultPlan::seeded(seed);
            (0..512).map(|_| p.should_fire(Site::CachePoison)).collect()
        };
        assert_eq!(record(7), record(7), "same seed, same decisions");
        assert_ne!(record(7), record(8), "different seeds diverge");
    }

    #[test]
    fn sites_have_independent_query_streams() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        // Interleave queries to other sites on `a` only; VmAlloc's own
        // stream must be unaffected.
        let fa: Vec<bool> = (0..256)
            .map(|_| {
                a.should_fire(Site::ManifestGarble);
                a.should_fire(Site::VmAlloc)
            })
            .collect();
        let fb: Vec<bool> = (0..256).map(|_| b.should_fire(Site::VmAlloc)).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn rates_bound_firing() {
        let never = FaultPlan::with_config(3, ChaosConfig::never());
        let always = FaultPlan::with_config(3, ChaosConfig::always());
        for _ in 0..256 {
            assert!(!never.should_fire(Site::VmAlloc));
            assert!(always.should_fire(Site::VmAlloc));
        }
        assert_eq!(never.injected_total(), 0);
        assert_eq!(always.injected(Site::VmAlloc), 256);
        assert_eq!(never.queries(Site::VmAlloc), 256);
    }

    #[test]
    fn default_rates_fire_sometimes_but_not_always() {
        let p = FaultPlan::seeded(1);
        let fired = (0..2048).filter(|_| p.should_fire(Site::VmAlloc)).count();
        assert!(fired > 0, "a 4% site should fire in 2048 queries");
        assert!(fired < 1024, "a 4% site must not dominate");
    }

    #[test]
    fn magnitude_is_bounded_and_deterministic() {
        let p = FaultPlan::seeded(9);
        let q = FaultPlan::seeded(9);
        for max in [1u64, 10, 1000] {
            assert!(p.magnitude(Site::VmStepJitter, max) <= max);
            assert_eq!(
                p.magnitude(Site::VmStepJitter, max),
                q.magnitude(Site::VmStepJitter, max)
            );
        }
        assert_eq!(p.magnitude(Site::VmStepJitter, 0), 0);
        assert_eq!(FaultPlan::disabled().magnitude(Site::VmAlloc, 100), 0);
    }

    #[test]
    fn clones_share_counters() {
        let p = FaultPlan::with_config(5, ChaosConfig::always());
        let q = p.clone();
        p.should_fire(Site::PoolWorkerPanic);
        q.should_fire(Site::PoolWorkerPanic);
        assert_eq!(p.injected(Site::PoolWorkerPanic), 2);
        assert_eq!(q.injected_total(), 2);
    }

    #[test]
    fn site_names_are_stable_and_distinct() {
        let mut names: Vec<&str> = ALL_SITES.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_SITES);
    }
}
