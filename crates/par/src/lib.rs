//! Deterministic parallel execution for the MEBL routing flow.
//!
//! The pool runs closures over slices with scoped threads
//! ([`std::thread::scope`]) and a lock-free chunk cursor, then reduces
//! every result **in input order**. The reduction order — and therefore
//! the output — is a pure function of the input, never of worker count
//! or OS scheduling. A route itself runs on one thread; the pool fans
//! out independent jobs, such as shard panels, so their merged output is
//! the same at every width (see `DESIGN.md` §9).
//!
//! Design constraints, enforced by `xtask lint`:
//! - zero dependencies; scoped `std` threads only, no detached spawns;
//! - no panics in library code — worker panics are *propagated* to the
//!   caller via [`std::panic::resume_unwind`], never silently swallowed
//!   (the one sanctioned recovery point is [`supervise`], which turns a
//!   panic into a typed `Err` for service supervision);
//! - clock-free: scheduling uses an atomic cursor, not timers.
//!
//! Cancellation is cooperative and stays with the caller: closures are
//! expected to check their `CancelToken` (crate `mebl-control`) at item
//! boundaries and return cheap placeholder results once cancelled, so a
//! latched budget drains the fan-out instead of deadlocking it.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker chunks are sized for roughly this many chunks per worker, so
/// the atomic cursor load-balances uneven items without shrinking
/// chunks to single elements. Chunk *boundaries* never influence
/// results — only which worker computes them.
const CHUNKS_PER_WORKER: usize = 4;

/// A fixed-width scoped thread pool.
///
/// `Pool` is plain configuration data (`Copy`, `Eq`): it owns no OS
/// threads. Each [`Pool::par_map_indexed`] call spawns scoped workers
/// that terminate before the call returns, so borrowing the surrounding
/// stage state (`&Circuit`, `&TileGraph`, …) needs no `Arc` and leaks
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    workers: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::serial()
    }
}

impl Pool {
    /// Pool with exactly `workers` workers (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Single-worker pool: [`Pool::par_map_indexed`] runs inline on the
    /// caller thread.
    #[must_use]
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Equivalent to `items.iter().enumerate().map(..).collect()` for
    /// every worker count; `f` gets the item index so callers can keep
    /// index-addressed side tables.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        let chunk = (n / (workers * CHUNKS_PER_WORKER)).max(1);
        let cursor = AtomicUsize::new(0);
        let mut parts: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| {
                    let mut out: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        let mut part = Vec::with_capacity(end - start);
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            part.push(f(i, item));
                        }
                        out.push((start, part));
                    }
                    out
                }));
            }
            let mut all: Vec<(usize, Vec<R>)> = Vec::new();
            let mut panicked = None;
            for handle in handles {
                match handle.join() {
                    Ok(worker_parts) => all.extend(worker_parts),
                    // Keep joining the remaining workers so the scope
                    // drains cleanly, then re-raise the first panic.
                    Err(payload) => panicked = panicked.or(Some(payload)),
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            all
        });

        parts.sort_unstable_by_key(|&(start, _)| start);
        let mut ordered = Vec::with_capacity(n);
        for (_, part) in parts {
            ordered.extend(part);
        }
        ordered
    }
}

/// Runs `f`, converting a panic into `Err` with the panic message.
///
/// This is the workspace's *only* sanctioned panic boundary: the rest
/// of this crate propagates worker panics to the caller, but a service
/// worker pool must survive one bad job. Supervision lives here — not
/// in each caller — so `catch_unwind` stays confined behind the pool
/// abstraction and the service layer deals only in a typed result.
pub fn supervise<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => Err(panic_message(payload.as_ref())),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_string()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f(role)` for every role in `0..roles` concurrently and joins
/// them all before returning.
///
/// Role 0 runs on the caller's thread; roles `1..roles` run on scoped
/// threads. This is the workspace's primitive for *heterogeneous*
/// long-lived concurrency — an acceptor loop plus a worker pool, a
/// server plus a client harness — where [`Pool`]'s homogeneous data
/// parallelism does not fit. Threads stay scoped (nothing outlives the
/// call) and panics propagate: if any role panics, `run_scoped` panics
/// after every other role has been joined, re-raising the first
/// payload.
///
/// Roles typically coordinate through shared state that tells the
/// others to finish (a latch, a closed queue); `run_scoped` itself
/// imposes no protocol beyond "all roles return".
pub fn run_scoped<F>(roles: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if roles <= 1 {
        if roles == 1 {
            f(0);
        }
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(roles - 1);
        for role in 1..roles {
            handles.push(scope.spawn(move || f(role)));
        }
        // Role 0 may itself panic; catch it so the scoped roles still
        // get joined (they would be joined by scope teardown anyway,
        // but explicit joins let us prefer role 0's payload and keep
        // the re-raise deterministic).
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        let mut panicked = own.err();
        for handle in handles {
            if let Err(payload) = handle.join() {
                panicked = panicked.or(Some(payload));
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn clamps_to_at_least_one_worker() {
        assert_eq!(Pool::new(0), Pool::serial());
        assert_eq!(Pool::default(), Pool::serial());
    }

    #[test]
    fn map_preserves_input_order_for_every_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 4, 8, 16, 1000, 2000] {
            let got = Pool::new(workers).par_map_indexed(&items, |_, &x| x * x + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn map_passes_the_item_index() {
        let items = ["a", "b", "c", "d", "e"];
        for workers in [1, 2, 5] {
            let got = Pool::new(workers).par_map_indexed(&items, |i, s| format!("{i}{s}"));
            assert_eq!(got, ["0a", "1b", "2c", "3d", "4e"], "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(Pool::new(8).par_map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(Pool::new(8).par_map_indexed(&[7u32], |_, &x| x + 1), [8]);
    }

    #[test]
    fn run_scoped_runs_every_role_once() {
        for roles in [0, 1, 2, 5] {
            let seen: Vec<AtomicU64> = (0..roles).map(|_| AtomicU64::new(0)).collect();
            run_scoped(roles, |role| {
                seen[role].fetch_add(1, Ordering::Relaxed);
            });
            for (role, count) in seen.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), 1, "roles={roles} role={role}");
            }
        }
    }

    #[test]
    fn run_scoped_propagates_role_panics() {
        // A spawned role panicking must not leave role 0 unjoined (and
        // vice versa) — both directions surface as a caller panic.
        for bad_role in [0, 2] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_scoped(3, |role| {
                    assert!(role != bad_role, "bad role");
                });
            }));
            assert!(result.is_err(), "bad_role = {bad_role}");
        }
    }

    #[test]
    fn supervise_passes_values_and_types_panics() {
        assert_eq!(supervise(|| 41 + 1), Ok(42));
        assert_eq!(
            supervise(|| -> u32 { panic!("boom") }),
            Err("boom".to_string())
        );
        assert_eq!(
            supervise(|| -> u32 { panic!("formatted {}", 7) }),
            Err("formatted 7".to_string())
        );
        let odd = supervise(|| -> u32 { std::panic::panic_any(1234u64) });
        assert_eq!(odd, Err("non-string panic payload".to_string()));
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let items: Vec<u32> = (0..64).collect();
        for workers in [1, 4] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                Pool::new(workers).par_map_indexed(&items, |_, &x| {
                    assert!(x != 13, "poisoned item");
                    x
                })
            }));
            assert!(result.is_err(), "workers = {workers}");
        }
    }
}
