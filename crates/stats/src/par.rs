//! The one deterministic fan-out: [`fill`] splits an output slice into
//! fixed-width rows and fills them on scoped worker threads.
//!
//! Characterization (every cell × grid point), the golden path and wire
//! Monte Carlo and the yield engine's chunks all go through it. Workers
//! pull blocks of rows from one shared cursor, so the schedule varies from
//! run to run, but row `r` is always written by one call `f(r, state,
//! row)`. When `f` derives everything it draws from `r` alone (a
//! [`crate::rng::SeedStream::tagged_seed`] or [`crate::rng::CounterRng`]
//! stream per row) and a worker's `state` is scratch that carries no value
//! from one row to the next, the output is bit-identical for any worker
//! count and any schedule.

use std::sync::{Mutex, PoisonError};

/// Blocks each worker takes on average: enough to even out rows of uneven
/// cost, few enough that the cursor lock stays cold.
const BLOCKS_PER_WORKER: usize = 4;

/// A worker of [`fill`] panicked; the rows it had claimed are unfilled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPanicked;

impl std::fmt::Display for WorkerPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a parallel fill worker panicked")
    }
}

impl std::error::Error for WorkerPanicked {}

/// The host's available parallelism, or 1 if it cannot be read: the
/// worker count every fan-out uses unless its caller sets one.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Fills `out`, `width` values per row, by calling `f(row, state, slice)`
/// once per row on `min(states.len(), rows)` scoped workers, worker `w`
/// owning `states[w]`. An empty `out` spawns nothing.
///
/// Every worker is joined before this returns, also when one panics.
///
/// # Errors
///
/// [`WorkerPanicked`] if any call of `f` panicked.
///
/// # Panics
///
/// Panics if `width == 0`, if `out.len()` is not a multiple of `width`,
/// or if `states` is empty while `out` is not.
///
/// # Examples
///
/// ```
/// use nsigma_stats::par::fill;
///
/// let mut out = vec![0u64; 6];
/// let mut calls = vec![0usize; 2];
/// fill(&mut out, 2, &mut calls, |row, calls, pair| {
///     *calls += 1;
///     pair[0] = row as u64;
///     pair[1] = (row * row) as u64;
/// })
/// .expect("no row panics");
/// assert_eq!(out, [0, 0, 1, 1, 2, 4]);
/// assert_eq!(calls.iter().sum::<usize>(), 3);
/// ```
pub fn fill<T, S, F>(
    out: &mut [T],
    width: usize,
    states: &mut [S],
    f: F,
) -> Result<(), WorkerPanicked>
where
    T: Send,
    S: Send,
    F: Fn(usize, &mut S, &mut [T]) + Sync,
{
    assert!(width > 0, "rows must be at least one value wide");
    assert!(
        out.len().is_multiple_of(width),
        "output length {} is not a whole number of {width}-wide rows",
        out.len()
    );
    let rows = out.len() / width;
    if rows == 0 {
        return Ok(());
    }
    assert!(!states.is_empty(), "a non-empty fill needs a worker state");
    let workers = states.len().min(rows);
    let block = rows.div_ceil(workers * BLOCKS_PER_WORKER);
    let cursor = Mutex::new(out.chunks_mut(block * width).enumerate());
    let (cursor, f) = (&cursor, &f);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states[..workers]
            .iter_mut()
            .map(|state| {
                scope.spawn(move || loop {
                    // The guard drops at the end of this statement: no
                    // row runs under the lock, so a panic cannot poison it.
                    let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((b, rows)) = next else { break };
                    for (i, row) in rows.chunks_mut(width).enumerate() {
                        f(b * block + i, state, row);
                    }
                })
            })
            .collect();
        // Join every handle (no early exit) so a panic comes back as an
        // error instead of re-panicking out of the scope.
        let mut res = Ok(());
        for handle in handles {
            if handle.join().is_err() {
                res = Err(WorkerPanicked);
            }
        }
        res
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A row value that depends on the row index only.
    fn value(row: usize, k: usize) -> u64 {
        let mut z = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64;
        z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 29)
    }

    fn run(rows: usize, width: usize, workers: usize) -> Vec<u64> {
        let mut out = vec![0u64; rows * width];
        let mut states = vec![0usize; workers];
        fill(&mut out, width, &mut states, |row, seen, slice| {
            *seen += 1;
            for (k, v) in slice.iter_mut().enumerate() {
                *v = value(row, k);
            }
        })
        .expect("no row panics");
        assert_eq!(states.iter().sum::<usize>(), rows, "one call per row");
        out
    }

    #[test]
    fn output_is_independent_of_the_worker_count() {
        for width in [1, 3] {
            for rows in [1, 2, 7, 100, 1001] {
                let serial: Vec<u64> = (0..rows)
                    .flat_map(|r| (0..width).map(move |k| value(r, k)))
                    .collect();
                for workers in [1, 2, 3, 8] {
                    assert_eq!(
                        run(rows, width, workers),
                        serial,
                        "{rows} rows × {width}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_output_spawns_nothing() {
        let calls = AtomicUsize::new(0);
        for workers in [0, 4] {
            let mut out: Vec<f64> = Vec::new();
            let mut states = vec![0usize; workers];
            let res = fill(&mut out, 3, &mut states, |_, seen, _| {
                *seen += 1;
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(res, Ok(()));
            assert!(states.iter().all(|&s| s == 0));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_panicking_row_is_an_error_after_every_worker_joins() {
        const ROWS: usize = 64;
        const BAD: usize = 5;
        let done = AtomicUsize::new(0);
        let mut out = vec![0u64; ROWS];
        let mut states = vec![(); 4];
        let res = fill(&mut out, 1, &mut states, |row, _, slot| {
            if row == BAD {
                panic!("row {row} fails on purpose");
            }
            slot[0] = value(row, 0);
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(res, Err(WorkerPanicked));
        // The failed row's block stops at that row; every other block was
        // pulled and finished by a worker that `fill` joined before it
        // returned, so the count is exact here.
        let block = ROWS.div_ceil(4 * BLOCKS_PER_WORKER);
        let cut = block - BAD % block;
        assert_eq!(done.load(Ordering::SeqCst), ROWS - cut);
        for (row, &v) in out.iter().enumerate() {
            if row / block != BAD / block {
                assert_eq!(v, value(row, 0), "row {row}");
            }
        }
    }
}
