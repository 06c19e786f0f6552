//! Deterministic intra-operator parallelism: a small fixed-size worker pool
//! built on `std::thread`.
//!
//! The paper's setting — querying world-sets far too large to enumerate —
//! makes the physical operators and the §6 confidence computation the hot
//! paths of the whole stack, and both are embarrassingly parallel over rows
//! or tuples.  This module provides the one shared
//! fan-out/fan-in primitive those call sites use:
//!
//! * fine-grained row work is split into contiguous fixed-size **morsels**
//!   ([`MORSEL_ROWS`] rows each) that idle workers claim dynamically from a
//!   shared atomic counter — a straggler morsel never serializes the batch —
//!   while the fan-in step reorders the per-morsel results back into morsel
//!   order, so the final output is **bit-identical for every thread count**,
//!   including the serial `threads = 1` case;
//! * workers are **scoped threads** ([`std::thread::scope`]), so closures may
//!   borrow the operator's input relations without cloning and without any
//!   `'static` bound;
//! * the pool is **fixed-size**: at most `threads − 1` workers are spawned
//!   per batch (the calling thread always processes the first chunk), and a
//!   worker panic is re-raised on the caller via
//!   [`std::panic::resume_unwind`].
//!
//! No external dependencies (the build is offline): everything here is
//! `std`-only.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Rows per morsel: the unit of work idle threads claim during fine-grained
/// fan-out.  Big enough that a morsel amortizes the claim (one atomic
/// `fetch_add`) and fits kernels' cache-friendly tight loops; small enough
/// that skewed per-row costs still balance across workers.
pub const MORSEL_ROWS: usize = 1024;

/// A fixed-size fan-out/fan-in worker pool.
///
/// `WorkerPool::new(1)` (the default) executes every batch serially on the
/// calling thread, reproducing the exact behavior and output order of the
/// pre-parallel code; larger pools hand contiguous morsels out to scoped
/// worker threads and merge the per-morsel results back into morsel order,
/// so results are deterministic for **any** thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

impl WorkerPool {
    /// A pool of (at most) `threads` concurrent workers; `0` is clamped to 1.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The serial pool: every batch runs on the calling thread.
    pub fn serial() -> Self {
        WorkerPool::new(1)
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`),
    /// falling back to 1 when the parallelism cannot be determined.
    pub fn available() -> Self {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool runs everything on the calling thread.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// How many chunks to split a coarse batch of `len` work units into.
    fn coarse_parts(&self, len: usize) -> usize {
        if self.threads == 1 {
            1
        } else {
            self.threads.min(len.max(1))
        }
    }

    /// Fan `items` out as contiguous [`MORSEL_ROWS`]-sized morsels that idle
    /// workers claim dynamically, and collect one result per morsel, in
    /// morsel order.  The closure receives the morsel's starting offset
    /// within `items` and the morsel slice, so morsel-local indices can be
    /// translated to global ones.
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let ranges = morsel_ranges(items.len());
        self.run_morsels(&ranges, |range| f(range.start, &items[range]))
    }

    /// Dynamic fan-out over pre-cut ranges: workers repeatedly claim the next
    /// unclaimed range index from a shared counter, and the per-range results
    /// are merged back into range order (so output is independent of which
    /// worker ran which range).  Worker panics are re-raised on the caller.
    fn run_morsels<R, F>(&self, ranges: &[Range<usize>], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        if self.threads == 1 || ranges.len() <= 1 {
            return ranges.iter().map(|r| f(r.clone())).collect();
        }
        let next = AtomicUsize::new(0);
        let drain = |local: &mut Vec<(usize, R)>| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(range) = ranges.get(i) else { break };
            local.push((i, f(range.clone())));
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..self.threads.min(ranges.len()))
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        drain(&mut local);
                        local
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(ranges.len());
            drain(&mut all);
            for handle in handles {
                match handle.join() {
                    Ok(local) => all.extend(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            all.sort_unstable_by_key(|&(i, _)| i);
            all.into_iter().map(|(_, r)| r).collect()
        })
    }

    /// Map every item, preserving input order, for *coarse* work units
    /// (per-tuple confidence computations, per-group compositions):
    /// statically splits down to as few as one item per chunk instead of
    /// cutting [`MORSEL_ROWS`] morsels.
    pub fn map_coarse<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let ranges = chunk_ranges(items.len(), self.coarse_parts(items.len()));
        concat(run_ranges(&ranges, |_, range| {
            items[range].iter().map(&f).collect::<Vec<R>>()
        }))
    }
}

/// Split `0..len` into consecutive [`MORSEL_ROWS`]-sized ranges (the last
/// may be shorter).  `len == 0` yields a single empty range so callers still
/// receive one (empty) result.
pub fn morsel_ranges(len: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return vec![0..0; 1];
    }
    let mut ranges = Vec::with_capacity(len.div_ceil(MORSEL_ROWS));
    let mut start = 0;
    while start < len {
        let end = (start + MORSEL_ROWS).min(len);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Split `0..len` into `parts` contiguous ranges whose lengths differ by at
/// most one (earlier ranges are longer).  `parts` is clamped to `1..=len`
/// (except that `len == 0` yields a single empty range).
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        // One empty chunk, so callers still receive a single (empty) result.
        return vec![0..0; 1];
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Fan the ranges out to scoped threads (first range on the caller) and
/// collect the per-range results in range order, re-raising worker panics.
fn run_ranges<R, F>(ranges: &[Range<usize>], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    if ranges.len() <= 1 {
        return ranges
            .iter()
            .enumerate()
            .map(|(i, r)| f(i, r.clone()))
            .collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, r)| {
                let range = r.clone();
                scope.spawn(move || f(i, range))
            })
            .collect();
        let mut out = Vec::with_capacity(ranges.len());
        out.push(f(0, ranges[0].clone()));
        for handle in handles {
            match handle.join() {
                Ok(value) => out.push(value),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

fn concat<R>(parts: Vec<Vec<R>>) -> Vec<R> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_without_overlap() {
        for len in [0usize, 1, 2, 63, 64, 100, 1000] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, parts);
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start);
                    expected_start = r.end;
                }
                assert_eq!(expected_start, len);
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced chunks {sizes:?}");
            }
        }
    }

    #[test]
    fn map_matches_serial_for_every_thread_count() {
        let items: Vec<i64> = (0..1000).collect();
        let serial: Vec<i64> = items.iter().map(|x| x * 3).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.map_coarse(&items, |x| x * 3), serial);
        }
    }

    #[test]
    fn pool_constructors_and_introspection() {
        assert!(WorkerPool::default().is_serial());
        assert!(WorkerPool::new(0).is_serial());
        assert_eq!(WorkerPool::new(6).threads(), 6);
        assert!(WorkerPool::available().threads() >= 1);
        let small = WorkerPool::new(8);
        assert_eq!(small.coarse_parts(3), 3);
    }

    #[test]
    fn morsel_ranges_cover_without_overlap() {
        for len in [
            0usize,
            1,
            MORSEL_ROWS - 1,
            MORSEL_ROWS,
            MORSEL_ROWS + 1,
            10_000,
        ] {
            let ranges = morsel_ranges(len);
            let mut expected_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expected_start);
                assert!(r.len() <= MORSEL_ROWS);
                expected_start = r.end;
            }
            assert_eq!(expected_start, len);
            // Every range but the last is exactly one morsel.
            for r in &ranges[..ranges.len().saturating_sub(1)] {
                assert_eq!(r.len(), MORSEL_ROWS);
            }
        }
    }

    #[test]
    fn morsel_fan_out_matches_serial_across_many_morsels() {
        // More morsels than threads, so dynamic claiming actually rotates.
        let items: Vec<i64> = (0..(4 * MORSEL_ROWS as i64 + 7)).collect();
        let serial: Vec<i64> = items.iter().filter(|x| *x % 5 == 0).cloned().collect();
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let par: Vec<i64> = concat(pool.map_chunks(&items, |_, chunk| {
                chunk.iter().filter(|x| *x % 5 == 0).cloned().collect()
            }));
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(|| {
            pool.map_coarse(&[1, 2, 3, 4], |x| {
                assert!(*x != 3, "boom");
                *x
            })
        });
        assert!(result.is_err());
    }
}
