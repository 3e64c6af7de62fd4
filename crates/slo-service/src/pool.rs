//! The bounded worker pool the service shards jobs across.
//!
//! A scoped-thread work queue (the container has no rayon): workers
//! pull item indices off a shared atomic counter, compute results
//! locally, and the caller reassembles them in input order — so a
//! parallel batch is a permutation-free, bit-identical replay of the
//! sequential one. The experiment drivers in `bench` map over it too
//! (`workers == 0`, all cores); this crate owns the implementation
//! because the service is its primary consumer.
//!
//! The supervised variant ([`par_map_supervised`]) adds the chaos
//! plan's `PoolWorkerPanic` site: a firing query kills the pulling
//! worker mid-queue (it stops draining work, orphaning the item it
//! just claimed). Surviving workers keep pulling, and after the scope
//! joins, the caller's thread — the supervisor — completes every
//! orphaned item itself, so the batch result is identical to the
//! fault-free run no matter how many workers die.

use slo_chaos::{FaultPlan, Site};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` on at most `workers` threads, preserving input
/// order. `workers == 0` means "all available cores". Falls back to a
/// sequential map for empty/singleton inputs or a single worker.
/// Panics in `f` propagate to the caller (the service wraps job bodies
/// in `catch_unwind` *before* they reach the pool).
pub fn par_map_bounded<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_supervised(workers, items, &FaultPlan::disabled(), f)
}

/// [`par_map_bounded`] with worker-death injection: each queue pull
/// queries the plan's `PoolWorkerPanic` site, and a firing query makes
/// that worker die on the spot, orphaning its claimed item. Orphans
/// are recomputed by the supervising caller after the pool joins —
/// output order and content match the fault-free map exactly.
pub fn par_map_supervised<T, R, F>(workers: usize, items: &[T], faults: &FaultPlan, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Ask the host (on Linux, a read of cgroup files) only when a pool
    // could use more than one core.
    let workers = match workers {
        0 if items.len() > 1 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        w => w,
    }
    .min(items.len());
    if workers <= 1 {
        // No pool, nothing to kill: the caller *is* the supervisor.
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let orphans: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        if faults.should_fire(Site::PoolWorkerPanic) {
                            // This worker dies; the claimed item is
                            // orphaned for the supervisor sweep.
                            orphans.lock().expect("orphan list").push(i);
                            break;
                        }
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(local) => local,
                // re-raise the worker's own payload so callers (and
                // `should_panic` tests) see the original message
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Supervisor sweep: every worker may have died, but the caller's
    // thread completes whatever they dropped — both the items workers
    // claimed and abandoned, and the queue tail nobody lived to pull.
    for i in orphans.into_inner().expect("orphan list") {
        tagged.push((i, f(&items[i])));
    }
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        tagged.push((i, f(item)));
    }
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_bounded() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [0, 1, 2, 8] {
            let out = par_map_bounded(workers, &items, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton() {
        let none: Vec<u32> = vec![];
        for workers in [0, 4] {
            assert!(par_map_bounded(workers, &none, |&x| x).is_empty());
            assert_eq!(par_map_bounded(workers, &[7u32], |&x| x + 1), vec![8]);
        }
    }

    #[test]
    fn all_workers_dying_still_completes_every_item() {
        use slo_chaos::ChaosConfig;
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        // Every pull kills the worker: each worker orphans its first
        // item and dies, and the supervisor computes everything.
        let always =
            FaultPlan::with_config(11, ChaosConfig::never().rate(Site::PoolWorkerPanic, 1024));
        let out = par_map_supervised(4, &items, &always, |&x| x * 3);
        assert_eq!(out, expect);
        assert!(always.injected(Site::PoolWorkerPanic) >= 1);

        // A probabilistic plan also preserves the exact result.
        let some = FaultPlan::seeded(5);
        let out = par_map_supervised(4, &items, &some, |&x| x * 3);
        assert_eq!(out, expect);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        for workers in [0, 4] {
            let payload = std::panic::catch_unwind(|| {
                par_map_bounded(workers, &items, |&x| {
                    assert!(x != 42, "boom");
                    x
                })
            })
            .expect_err("the worker's panic reaches the caller");
            let msg = payload
                .downcast_ref::<&str>()
                .expect("the original payload");
            assert_eq!(*msg, "boom", "workers {workers}");
        }
    }
}
