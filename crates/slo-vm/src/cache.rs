//! Multi-level set-associative cache simulator with LRU replacement.
//!
//! The default geometry approximates the Itanium 2 / rx2600 machine the
//! paper evaluated on: 16 KB L1D with 64 B lines, 256 KB L2 with 128 B
//! lines, 6 MB L3 with 128 B lines, and a flat main-memory latency.
//! Floating-point accesses bypass L1 (Itanium's L1D does not cache FP
//! data), so "first-level" means L2 for FP and L1 for everything else —
//! exactly the attribution rule the paper describes for its d-cache
//! event counts.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Associativity (ways per set).
    pub assoc: u64,
    /// Load-to-use latency in cycles when hitting at this level.
    pub latency: u64,
}

/// Whole-hierarchy configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache levels, nearest first (L1, L2, L3, ...).
    pub levels: Vec<CacheLevelConfig>,
    /// Main-memory latency in cycles.
    pub memory_latency: u64,
    /// Index of the first level used by floating-point accesses
    /// (1 on Itanium: FP bypasses L1).
    pub fp_first_level: usize,
    /// Enable a next-line prefetcher: on a last-level miss, the following
    /// line is installed in every level without charge. Models the
    /// sequential prefetching that softens capacity cliffs on real
    /// hardware; off by default to match the paper-reproduction runs.
    pub next_line_prefetch: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            levels: vec![
                CacheLevelConfig {
                    size: 16 * 1024,
                    line: 64,
                    assoc: 4,
                    latency: 1,
                },
                CacheLevelConfig {
                    size: 256 * 1024,
                    line: 128,
                    assoc: 8,
                    latency: 7,
                },
                CacheLevelConfig {
                    size: 6 * 1024 * 1024,
                    line: 128,
                    assoc: 12,
                    latency: 14,
                },
            ],
            memory_latency: 200,
            fp_first_level: 1,
            next_line_prefetch: false,
        }
    }
}

/// Per-level hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses that hit at this level.
    pub hits: u64,
    /// Accesses that missed at this level (and went further out).
    pub misses: u64,
}

/// Aggregate statistics for the whole hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stats per level, nearest first.
    pub levels: Vec<LevelStats>,
    /// Accesses that went all the way to memory.
    pub memory_accesses: u64,
    /// Total accesses issued.
    pub accesses: u64,
    /// Lines installed by the next-line prefetcher.
    pub prefetches: u64,
}

/// The outcome of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Load-to-use latency in cycles.
    pub latency: u64,
    /// Whether the access missed in its *first* level (L1 for integer,
    /// L2 for FP) — the paper's d-cache-miss event.
    pub first_level_miss: bool,
    /// The level that served the access (`levels.len()` = memory).
    pub served_by: usize,
}

/// Marks an empty way. Tags are block numbers (`addr >> line_shift`),
/// and simulated addresses stay far below `u64::MAX`, so no real block
/// takes this value.
const INVALID: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Level {
    set_mask: u64,
    assoc: usize,
    line_shift: u32,
    /// `tags[set * assoc..][..assoc]` holds one set's blocks in recency
    /// order, most recent first. Empty ways are `INVALID` and always sit
    /// at the tail, so the last way is the LRU victim whether or not the
    /// set is full.
    tags: Vec<u64>,
}

impl Level {
    fn new(cfg: CacheLevelConfig) -> Self {
        let sets = (cfg.size / (cfg.line * cfg.assoc)).max(1);
        assert!(
            sets.is_power_of_two() && cfg.line.is_power_of_two(),
            "cache geometry must be power-of-two"
        );
        Level {
            set_mask: sets - 1,
            assoc: cfg.assoc as usize,
            line_shift: cfg.line.trailing_zeros(),
            tags: vec![INVALID; (sets * cfg.assoc) as usize],
        }
    }

    /// Probe and (on miss) fill, moving the block to the front of its
    /// set either way. Returns whether the access hit.
    #[inline]
    fn access(&mut self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let base = (block & self.set_mask) as usize * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        if ways[0] == block {
            return true;
        }
        let found = ways.iter().position(|&t| t == block);
        // a hit shifts the more recent ways down over the block; a miss
        // shifts every way down, dropping the last (the LRU one)
        let w = found.unwrap_or(ways.len() - 1);
        ways.copy_within(..w, 1);
        ways[0] = block;
        found.is_some()
    }

    fn flush(&mut self) {
        self.tags.fill(INVALID);
    }
}

/// The simulated cache hierarchy.
///
/// # Examples
///
/// ```
/// use slo_vm::{CacheConfig, CacheSim};
///
/// let mut sim = CacheSim::new(CacheConfig::default());
/// let cold = sim.access(0x1000, false);
/// assert!(cold.first_level_miss);
/// let warm = sim.access(0x1000, false);
/// assert_eq!(warm.served_by, 0); // L1 hit
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    levels: Vec<Level>,
    cfg: CacheConfig,
    stats: CacheStats,
}

impl CacheSim {
    /// Build a hierarchy from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any level's set count or line size is not a power of two.
    pub fn new(cfg: CacheConfig) -> Self {
        let levels = cfg.levels.iter().copied().map(Level::new).collect();
        let stats = CacheStats {
            levels: vec![LevelStats::default(); cfg.levels.len()],
            ..CacheStats::default()
        };
        CacheSim { levels, cfg, stats }
    }

    /// Simulate one access. `fp` selects the FP path (starts at
    /// `fp_first_level`). Accesses spanning two lines are charged as one
    /// access to the first line (workload fields never straddle lines in
    /// practice because of natural alignment).
    #[inline]
    pub fn access(&mut self, addr: u64, fp: bool) -> AccessResult {
        self.stats.accesses += 1;
        let first = if fp {
            self.cfg.fp_first_level.min(self.levels.len())
        } else {
            0
        };
        for i in first..self.levels.len() {
            if self.levels[i].access(addr) {
                self.stats.levels[i].hits += 1;
                return AccessResult {
                    latency: self.cfg.levels[i].latency,
                    first_level_miss: i != first,
                    served_by: i,
                };
            }
            self.stats.levels[i].misses += 1;
        }
        self.stats.memory_accesses += 1;
        if self.cfg.next_line_prefetch {
            // install the next line everywhere, free of charge
            let line = self.l1_line();
            let next = addr.wrapping_add(line) & !(line - 1);
            for l in &mut self.levels {
                l.access(next);
            }
            self.stats.prefetches += 1;
        }
        AccessResult {
            latency: self.cfg.memory_latency,
            first_level_miss: first < self.levels.len(),
            served_by: self.levels.len(),
        }
    }

    /// Invalidate every line (e.g. between benchmark phases).
    pub fn flush(&mut self) {
        for l in &mut self.levels {
            l.flush();
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line size of the level an integer access hits first.
    pub fn l1_line(&self) -> u64 {
        self.cfg.levels.first().map(|l| l.line).unwrap_or(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> CacheSim {
        CacheSim::new(tiny_config())
    }

    fn tiny_config() -> CacheConfig {
        // 2 sets x 2 ways x 64B lines = 256B L1; 1KB L2
        CacheConfig {
            levels: vec![
                CacheLevelConfig {
                    size: 256,
                    line: 64,
                    assoc: 2,
                    latency: 1,
                },
                CacheLevelConfig {
                    size: 1024,
                    line: 64,
                    assoc: 4,
                    latency: 10,
                },
            ],
            memory_latency: 100,
            fp_first_level: 1,
            next_line_prefetch: false,
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let r1 = c.access(0x1000, false);
        assert!(r1.first_level_miss);
        assert_eq!(r1.latency, 100);
        assert_eq!(r1.served_by, 2);
        let r2 = c.access(0x1000, false);
        assert!(!r2.first_level_miss);
        assert_eq!(r2.latency, 1);
        assert_eq!(r2.served_by, 0);
    }

    #[test]
    fn same_line_hits() {
        let mut c = tiny();
        c.access(0x1000, false);
        let r = c.access(0x103f, false); // same 64B line
        assert_eq!(r.served_by, 0);
        let r = c.access(0x1040, false); // next line
        assert!(r.first_level_miss);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // set index = (addr>>6) & 1. Use addresses mapping to set 0:
        let a = 0x0000u64;
        let b = 0x0080;
        let d = 0x0100;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is MRU
        c.access(d, false); // evicts b (LRU)
        let r = c.access(a, false);
        assert_eq!(r.served_by, 0, "a must still be in L1");
        let r = c.access(b, false);
        assert_ne!(r.served_by, 0, "b must have been evicted from L1");
    }

    #[test]
    fn fp_bypasses_l1() {
        let mut c = tiny();
        let r = c.access(0x2000, true);
        assert!(r.first_level_miss); // missed L2 (its first level)
        assert_eq!(r.served_by, 2);
        let r = c.access(0x2000, true);
        assert_eq!(r.served_by, 1, "fp hit should be served by L2");
        assert_eq!(r.latency, 10);
        // an integer access to the same line must still miss L1
        let r = c.access(0x2000, false);
        assert!(r.first_level_miss);
        assert_eq!(r.served_by, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0x1000, false);
        c.access(0x1000, false);
        c.access(0x5000, false);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.levels[0].hits, 1);
        assert_eq!(s.levels[0].misses, 2);
        assert_eq!(s.memory_accesses, 2);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0x1000, false);
        c.flush();
        let r = c.access(0x1000, false);
        assert!(r.first_level_miss);
        assert_eq!(r.served_by, 2);
    }

    #[test]
    fn default_config_is_itanium_like() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.levels.len(), 3);
        assert_eq!(cfg.levels[0].size, 16 * 1024);
        assert_eq!(cfg.levels[1].line, 128);
        assert_eq!(cfg.levels[2].size, 6 * 1024 * 1024);
        assert_eq!(cfg.fp_first_level, 1);
        let _ = CacheSim::new(cfg); // geometry must be constructible
    }

    #[test]
    fn next_line_prefetch_helps_sequential() {
        let mut cfg = CacheConfig {
            levels: vec![CacheLevelConfig {
                size: 256,
                line: 64,
                assoc: 2,
                latency: 1,
            }],
            memory_latency: 100,
            fp_first_level: 0,
            next_line_prefetch: true,
        };
        let mut with = CacheSim::new(cfg.clone());
        cfg.next_line_prefetch = false;
        let mut without = CacheSim::new(cfg);
        // big sequential sweep: every line misses without prefetch,
        // every *other* line misses with it
        for i in 0..256u64 {
            with.access(0x10000 + i * 64, false);
            without.access(0x10000 + i * 64, false);
        }
        assert!(
            with.stats().memory_accesses < without.stats().memory_accesses / 2 + 2,
            "prefetch {} vs plain {}",
            with.stats().memory_accesses,
            without.stats().memory_accesses
        );
        assert!(with.stats().prefetches > 0);
    }

    #[test]
    fn capacity_eviction_over_working_set() {
        let mut c = tiny(); // L1 = 256B
                            // touch 1KB (16 lines) — exceeds L1, fits L2
        for i in 0..16u64 {
            c.access(0x4000 + i * 64, false);
        }
        // second pass: all L1 misses impossible to avoid fully (capacity),
        // but L2 must hold everything.
        let mut l2_or_better = 0;
        for i in 0..16u64 {
            let r = c.access(0x4000 + i * 64, false);
            if r.served_by <= 1 {
                l2_or_better += 1;
            }
        }
        assert_eq!(l2_or_better, 16);
    }

    /// A hierarchy of the one level `lvl`, which FP accesses also use.
    fn single(lvl: CacheLevelConfig) -> CacheConfig {
        CacheConfig {
            levels: vec![lvl],
            memory_latency: 100,
            fp_first_level: 0,
            next_line_prefetch: false,
        }
    }

    /// An address stream: strided runs and random bursts, each pass
    /// repeated so later passes can hit what earlier ones installed.
    /// Addresses stay below 2^32, like every simulated heap address.
    fn address_stream() -> impl Strategy<Value = Vec<u64>> {
        let segment = (
            0u64..1 << 24,
            prop::sample::select(vec![1u64, 8, 16, 64, 72, 128, 4096, 65536]),
            1usize..200,
            1usize..4,
            any::<bool>(),
            any::<u64>(),
        );
        prop::collection::vec(segment, 1..8).prop_map(|segs| {
            let mut out = Vec::new();
            for (start, stride, count, passes, random, seed) in segs {
                for _ in 0..passes {
                    let mut x = seed;
                    for i in 0..count as u64 {
                        let addr = if random {
                            // LCG step: a repeatable burst within 64 KiB
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            start + (x >> 48)
                        } else {
                            start + i * stride
                        };
                        out.push(addr);
                    }
                }
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The move-to-front sets are exact LRU: on every geometry, with
        /// and without FP bypass (of some or all levels) and the
        /// prefetcher, and across a flush,
        /// each access returns what the stamp-based reference returns and
        /// the final statistics agree.
        #[test]
        fn move_to_front_matches_stamp_lru(
            geometry in 0usize..4,
            prefetch in any::<bool>(),
            fp_mode in 0u8..3,
            fp_first_level in prop::sample::select(vec![None, Some(0), Some(1), Some(2), Some(3)]),
            addrs in address_stream(),
            flush_at in any::<usize>(),
            fp_seed in any::<u64>(),
        ) {
            let mut cfg = match geometry {
                // direct-mapped: 64 sets x 1 way
                0 => single(CacheLevelConfig { size: 4096, line: 64, assoc: 1, latency: 1 }),
                // one fully associative set of 8 ways
                1 => single(CacheLevelConfig { size: 1024, line: 128, assoc: 8, latency: 3 }),
                2 => tiny_config(),
                _ => CacheConfig::default(),
            };
            cfg.next_line_prefetch = prefetch;
            if let Some(level) = fp_first_level {
                cfg.fp_first_level = level % (cfg.levels.len() + 1);
            }
            let mut fast = CacheSim::new(cfg.clone());
            let mut oracle = reference::CacheSim::new(cfg);
            let flush_at = flush_at % (addrs.len() + 1);
            for (i, &addr) in addrs.iter().enumerate() {
                if i == flush_at {
                    fast.flush();
                    oracle.flush();
                }
                let fp = match fp_mode {
                    0 => false,
                    1 => true,
                    _ => (fp_seed >> (i % 64)) & 1 == 1,
                };
                let (got, want) = (fast.access(addr, fp), oracle.access(addr, fp));
                prop_assert_eq!(got, want, "access {} at 0x{:x} (fp {})", i, addr, fp);
            }
            prop_assert_eq!(fast.stats(), &oracle.stats);
        }
    }

    /// The plain form of LRU: every way keeps the tick of its last use,
    /// and a miss fills the first empty way or evicts the oldest. The
    /// oracle for the move-to-front sets.
    mod reference {
        use super::super::{AccessResult, CacheConfig, CacheLevelConfig, CacheStats, LevelStats};

        struct Level {
            cfg: CacheLevelConfig,
            sets: u64,
            line_shift: u32,
            /// tags[set * assoc + way]; u64::MAX = invalid
            tags: Vec<u64>,
            /// LRU stamps parallel to `tags`.
            stamps: Vec<u64>,
            tick: u64,
        }

        impl Level {
            fn new(cfg: CacheLevelConfig) -> Self {
                let sets = (cfg.size / (cfg.line * cfg.assoc)).max(1);
                Level {
                    cfg,
                    sets,
                    line_shift: cfg.line.trailing_zeros(),
                    tags: vec![u64::MAX; (sets * cfg.assoc) as usize],
                    stamps: vec![0; (sets * cfg.assoc) as usize],
                    tick: 0,
                }
            }

            fn access(&mut self, addr: u64) -> bool {
                self.tick += 1;
                let block = addr >> self.line_shift;
                let set = (block & (self.sets - 1)) as usize;
                let base = set * self.cfg.assoc as usize;
                let ways = &mut self.tags[base..base + self.cfg.assoc as usize];
                for (w, tag) in ways.iter().enumerate() {
                    if *tag == block {
                        self.stamps[base + w] = self.tick;
                        return true;
                    }
                }
                // miss: evict LRU
                let mut victim = 0;
                let mut oldest = u64::MAX;
                for w in 0..self.cfg.assoc as usize {
                    if self.tags[base + w] == u64::MAX {
                        victim = w;
                        break;
                    }
                    if self.stamps[base + w] < oldest {
                        oldest = self.stamps[base + w];
                        victim = w;
                    }
                }
                self.tags[base + victim] = block;
                self.stamps[base + victim] = self.tick;
                false
            }

            fn flush(&mut self) {
                self.tags.fill(u64::MAX);
                self.stamps.fill(0);
            }
        }

        pub(super) struct CacheSim {
            levels: Vec<Level>,
            cfg: CacheConfig,
            pub(super) stats: CacheStats,
        }

        impl CacheSim {
            pub(super) fn new(cfg: CacheConfig) -> Self {
                let levels = cfg.levels.iter().copied().map(Level::new).collect();
                let stats = CacheStats {
                    levels: vec![LevelStats::default(); cfg.levels.len()],
                    ..CacheStats::default()
                };
                CacheSim { levels, cfg, stats }
            }

            pub(super) fn access(&mut self, addr: u64, fp: bool) -> AccessResult {
                self.stats.accesses += 1;
                let first = if fp {
                    self.cfg.fp_first_level.min(self.levels.len())
                } else {
                    0
                };
                let mut first_level_miss = false;
                for i in first..self.levels.len() {
                    let hit = self.levels[i].access(addr);
                    if hit {
                        self.stats.levels[i].hits += 1;
                        return AccessResult {
                            latency: self.cfg.levels[i].latency,
                            first_level_miss,
                            served_by: i,
                        };
                    }
                    self.stats.levels[i].misses += 1;
                    if i == first {
                        first_level_miss = true;
                    }
                }
                self.stats.memory_accesses += 1;
                if self.cfg.next_line_prefetch {
                    let line = self.cfg.levels.first().map(|l| l.line).unwrap_or(64);
                    let next = addr.wrapping_add(line) & !(line - 1);
                    for l in &mut self.levels {
                        l.access(next);
                    }
                    self.stats.prefetches += 1;
                }
                AccessResult {
                    latency: self.cfg.memory_latency,
                    first_level_miss,
                    served_by: self.levels.len(),
                }
            }

            pub(super) fn flush(&mut self) {
                for l in &mut self.levels {
                    l.flush();
                }
            }
        }
    }
}
