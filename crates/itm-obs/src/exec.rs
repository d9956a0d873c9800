//! Deterministic shard executor for the substrate, the map build and the
//! snapshot open.
//!
//! Campaigns split their input into a fixed number of shards — a function
//! of the input size, never of the machine — and hand the executor a pure
//! per-shard job. The executor only decides *where* shards run; results
//! always come back in shard-index order, so the merged output is
//! byte-identical whether one thread or sixteen did the work.
//!
//! It has two entry points. [`ParallelExecutor::map`] runs `n` shards of
//! one job. [`ParallelExecutor::join`] runs two different jobs side by
//! side, the first on the calling thread: `Snapshot::open` reads the file
//! there while a worker checksums each chunk that has landed. With one
//! thread both run inline, the first to its end before the second.
//!
//! It has three users. The map build's campaigns `map` their shards. The
//! snapshot open `join`s its read and checksum and `map`s its content
//! checks. The substrate's traffic matrix (`TrafficModel::build`) `map`s
//! blocks of prefixes to rows of demand cells, which the caller folds
//! into the totals in prefix order. The executor lives here, in the
//! observability crate that its metrics and trace capture already use,
//! so that crates below `itm-core` can reach it; `itm_core` re-exports
//! it.
//!
//! This is the only file in the workspace allowed to spawn threads
//! (enforced by lint rule D004): all other code must route parallelism
//! through here so the seed-domain discipline (one derived RNG stream per
//! shard, see `SeedDomain::shard`) cannot be bypassed.
//!
//! Beyond placement, the executor carries two observability duties
//! (DESIGN.md §11):
//!
//! * **Utilization metrics** — when the metrics registry is enabled, each
//!   `map` call records per-shard wall time (`exec.shard_ns`), the delay
//!   between batch start and each shard starting (`exec.queue_wait_ns`),
//!   and the batch's shard-skew ratio (`exec.skew_x1000` =
//!   slowest-shard ÷ mean-shard × 1000 — 1000 means perfectly balanced
//!   shards). Disabled, no clock is read.
//! * **Deterministic parallel traces** — when the trace log is enabled,
//!   worker-thread emissions are captured per shard and replayed on the
//!   calling thread in shard-index order after the barrier
//!   ([`crate::trace::capture_begin`]/[`crate::trace::replay`]), so
//!   the trace, like the map, is byte-identical at any thread count and
//!   worker events inherit the caller's campaign scope.
//!
//! The caller's allocation phase (see `crate::alloc`) is likewise
//! propagated onto the workers, so per-phase memory attribution does not
//! leak to "unattributed" just because a campaign ran sharded.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A worker pool that maps pure shard jobs to index-ordered results.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor running up to `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor {
            threads: threads.max(1),
        }
    }

    /// The sequential executor: shards run in index order on the calling
    /// thread. `build` and `build_with(.., &sequential())` are the same
    /// computation by construction.
    pub fn sequential() -> ParallelExecutor {
        ParallelExecutor { threads: 1 }
    }

    /// An executor sized to the machine's available parallelism.
    pub fn available() -> ParallelExecutor {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParallelExecutor { threads }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `job(0..n)` and return the results in index order.
    ///
    /// `job` must be pure with respect to the shard index: the output for
    /// shard `k` may not depend on which worker runs it or in what order.
    /// With one thread (or one shard) the jobs run inline on the calling
    /// thread, preserving the sequential path exactly.
    pub fn map<T, F>(&self, n: usize, job: &F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync + ?Sized,
    {
        let metrics = crate::enabled();
        // itm-lint: allow(D001): executor utilization timing is observability-only wall time and never feeds the map
        let t0 = if metrics { Some(Instant::now()) } else { None };
        if self.threads == 1 || n <= 1 {
            let Some(t0) = t0 else {
                return (0..n).map(job).collect();
            };
            // Sequential, metered: shard k's queue wait is the time the
            // earlier shards occupied the calling thread.
            let mut out = Vec::with_capacity(n);
            let mut durs = Vec::with_capacity(n);
            for k in 0..n {
                crate::histogram!("exec.queue_wait_ns").record(t0.elapsed().as_nanos() as u64);
                // itm-lint: allow(D001): executor utilization timing is observability-only wall time and never feeds the map
                let started = Instant::now();
                out.push(job(k));
                let d = started.elapsed().as_nanos() as u64;
                crate::histogram!("exec.shard_ns").record(d);
                durs.push(d);
            }
            record_batch(&durs);
            return out;
        }
        let workers = self.threads.min(n);
        let next = AtomicUsize::new(0);
        let traced = crate::trace::enabled();
        // Attribute worker allocations to the phase the caller is in.
        let phase = crate::alloc::current_phase();
        let mut indexed: Vec<Completed<T>> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let _phase = phase.map(crate::alloc::enter_phase);
                        let mut out: Vec<Completed<T>> = Vec::new();
                        loop {
                            let k = next.fetch_add(1, Ordering::Relaxed);
                            if k >= n {
                                break;
                            }
                            if let Some(t0) = t0 {
                                crate::histogram!("exec.queue_wait_ns")
                                    .record(t0.elapsed().as_nanos() as u64);
                            }
                            if traced {
                                crate::trace::capture_begin();
                            }
                            // itm-lint: allow(D001): executor utilization timing is observability-only wall time and never feeds the map
                            let started = if metrics { Some(Instant::now()) } else { None };
                            let value = job(k);
                            let dur_ns = match started {
                                Some(s) => {
                                    let d = s.elapsed().as_nanos() as u64;
                                    crate::histogram!("exec.shard_ns").record(d);
                                    d
                                }
                                None => 0,
                            };
                            let events = if traced {
                                Some(crate::trace::capture_take())
                            } else {
                                None
                            };
                            out.push(Completed {
                                k,
                                value,
                                dur_ns,
                                events,
                            });
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(part) => indexed.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        // Completion order is scheduler-dependent; index order is not.
        indexed.sort_by_key(|c| c.k);
        if metrics {
            let durs: Vec<u64> = indexed.iter().map(|c| c.dur_ns).collect();
            record_batch(&durs);
        }
        // Sequence each shard's captured trace events on this thread, in
        // shard order: the trace becomes independent of scheduling and
        // the events inherit this thread's campaign scope.
        indexed
            .into_iter()
            .map(|c| {
                if let Some(events) = c.events {
                    crate::trace::replay(events);
                }
                c.value
            })
            .collect()
    }

    /// Run `a` on the calling thread and `b` on a worker beside it, and
    /// return `(a's result, b's result)`.
    ///
    /// This is the executor's second entry point, for two jobs of
    /// different kinds that must overlap, such as a producer and its
    /// consumer: `map` could not run them, since its shards share one
    /// job. With one thread `a` runs to the end first and then `b`, both
    /// inline, so `b` may wait on what `a` hands over but `a` must never
    /// wait on `b`. A panic in either job reaches the caller once both
    /// have stopped. As in `map`, the worker allocates in the caller's
    /// phase, and its trace events are replayed on the calling thread
    /// after `a`'s, the order the sequential executor emits them in.
    /// No executor metrics are recorded: a join is not a batch of shards.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RB: Send,
    {
        if self.threads == 1 {
            let ra = a();
            return (ra, b());
        }
        let traced = crate::trace::enabled();
        let phase = crate::alloc::current_phase();
        std::thread::scope(|scope| {
            let worker = scope.spawn(move || {
                let _phase = phase.map(crate::alloc::enter_phase);
                if traced {
                    crate::trace::capture_begin();
                }
                let rb = b();
                (rb, traced.then(crate::trace::capture_take))
            });
            let ra = a();
            match worker.join() {
                Ok((rb, events)) => {
                    if let Some(events) = events {
                        crate::trace::replay(events);
                    }
                    (ra, rb)
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }
}

/// One finished shard, on its way back to index order.
struct Completed<T> {
    k: usize,
    value: T,
    dur_ns: u64,
    events: Option<crate::trace::CapturedEvents>,
}

/// Record batch-level executor metrics from the per-shard durations:
/// batch/shard counts and the skew ratio (slowest ÷ mean, ×1000).
fn record_batch(durs: &[u64]) {
    crate::counter!("exec.batches").inc();
    crate::counter!("exec.shards").add(durs.len() as u64);
    let n = durs.len() as u64;
    if n == 0 {
        return;
    }
    let total: u64 = durs.iter().sum();
    let max = durs.iter().copied().max().unwrap_or(0);
    if let Some(skew) = max.saturating_mul(1000 * n).checked_div(total) {
        crate::histogram!("exec.skew_x1000").record(skew);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 8] {
            let exec = ParallelExecutor::new(threads);
            let out = exec.map(100, &|k| k * k);
            assert_eq!(out, (0..100).map(|k| k * k).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let exec = ParallelExecutor::new(8);
        assert!(exec.map(0, &|k| k).is_empty());
        assert_eq!(exec.map(1, &|k| k + 7), vec![7]);
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(ParallelExecutor::new(0).threads(), 1);
        assert!(ParallelExecutor::available().threads() >= 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = ParallelExecutor::sequential().map(257, &|k| (k, k as u64 * 31));
        let par = ParallelExecutor::new(8).map(257, &|k| (k, k as u64 * 31));
        assert_eq!(seq, par);
    }

    #[test]
    fn join_returns_results_in_argument_order() {
        for threads in [1, 2, 8] {
            let exec = ParallelExecutor::new(threads);
            assert_eq!(exec.join(|| "a", || 2u64), ("a", 2));
        }
    }

    #[test]
    fn sequential_join_runs_a_then_b_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let log = |tag| {
            order
                .lock()
                .unwrap()
                .push((tag, std::thread::current().id()));
        };
        ParallelExecutor::sequential().join(|| log("a"), || log("b"));
        assert_eq!(
            order.into_inner().unwrap(),
            vec![("a", caller), ("b", caller)]
        );
    }

    #[test]
    fn join_overlaps_a_producer_with_its_consumer() {
        for threads in [1, 2] {
            let (tx, rx) = std::sync::mpsc::channel();
            let (sent, got) = ParallelExecutor::new(threads).join(
                move || {
                    (0..100u64).for_each(|k| tx.send(k).unwrap());
                    100
                },
                move || rx.iter().sum::<u64>(),
            );
            assert_eq!((sent, got), (100, 4950));
        }
    }

    #[test]
    fn a_panic_in_b_reaches_the_caller() {
        for threads in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                ParallelExecutor::new(threads).join(|| 1, || -> u32 { panic!("b failed") })
            });
            let payload = caught.unwrap_err();
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"b failed"));
        }
    }

    #[test]
    fn join_carries_the_callers_allocation_phase_to_the_worker() {
        let phase = crate::alloc::register_phase("exec.join.test").unwrap();
        let _guard = crate::alloc::enter_phase(phase);
        for threads in [1, 2] {
            let (on_a, on_b) = ParallelExecutor::new(threads)
                .join(crate::alloc::current_phase, crate::alloc::current_phase);
            assert_eq!((on_a, on_b), (Some(phase), Some(phase)));
        }
    }

    #[test]
    fn skew_of_balanced_batch_is_1000() {
        // Equal durations: max * 1000 * n / total == 1000 exactly.
        let durs = [5u64, 5, 5, 5];
        let n = durs.len() as u64;
        let total: u64 = durs.iter().sum();
        assert_eq!(5u64.saturating_mul(1000 * n) / total, 1000);
    }
}
