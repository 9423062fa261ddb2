//! A std-only scoped thread pool for indexed job batches.
//!
//! Workers share one atomic cursor: each takes the next unclaimed index
//! with a `fetch_add` until the batch runs out, so a worker that draws
//! cheap jobs simply claims more of them. Jobs are coarse (whole
//! simulation runs), so one counter is all the coordination they need.
//!
//! Determinism: the pool only decides *where* and *when* a job runs.
//! Results are scattered back into batch order, so as long as each job is
//! a pure function of its index (which [`Campaign`](crate::Campaign)
//! guarantees by deriving per-job seeds from the index), the output
//! vector is bit-identical for every worker count and every schedule.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `count` jobs across `threads` workers and returns the results in
/// job-index order.
///
/// `job` must be safe to call from several threads at once; each index in
/// `0..count` is executed exactly once.
///
/// Workers are **scoped** (`std::thread::scope`), so the job may borrow
/// from the caller's stack; this is the primitive behind the
/// [`Campaign`](crate::Campaign) executor.
///
/// With `threads <= 1` (or one job) everything runs inline on the caller
/// thread — no spawns, bit-identical results by construction.
///
/// # Examples
///
/// ```
/// let data = vec![3u64, 1, 4, 1, 5];
/// // Borrow `data` from worker threads; results come back in index order.
/// let doubled = mla_runner::run_indexed(4, data.len(), |i| data[i] * 2);
/// assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
/// ```
///
/// # Panics
///
/// Propagates panics from `job` (the batch is aborted).
pub fn run_indexed<T, F>(threads: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, count.max(1));
    if threads <= 1 {
        return (0..count).map(job).collect();
    }

    // `Relaxed` suffices: the cursor publishes no data. Each index goes
    // to exactly one worker, and results come back through the joins.
    let cursor = AtomicUsize::new(0);
    let harvested: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            return local;
                        }
                        local.push((index, job(index)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("campaign worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    for (index, value) in harvested.into_iter().flatten() {
        debug_assert!(slots[index].is_none(), "job {index} ran twice");
        slots[index] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_indexed(4, 1000, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn empty_and_tiny_batches() {
        assert_eq!(run_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(8, 1, |i| i + 1), vec![1]);
        assert_eq!(run_indexed(1, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // Front-loaded costs: without stealing, worker 0 would run ~10x
        // longer than the rest. The assertion is only on correctness —
        // stealing is exercised by the skew, and on a single-core host
        // this still passes.
        let out = run_indexed(4, 64, |i| {
            let spin = if i < 8 { 20_000 } else { 200 };
            (0..spin).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        });
        let expected: Vec<u64> = (0..64)
            .map(|i| {
                let spin = if i < 8 { 20_000 } else { 200 };
                (0..spin).fold(i as u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
            })
            .collect();
        assert_eq!(out, expected);
    }
}
