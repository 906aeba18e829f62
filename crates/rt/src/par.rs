//! Scoped worker pool: `par_map` over an atomic work queue.
//!
//! Results come back in input order, so a pipeline that derives one RNG
//! seed per item (as the labeler and evaluator do) produces bit-identical
//! output regardless of thread count — the pool changes *when* each item
//! runs, never *what* it computes or where the result lands.
//!
//! Thread count comes from `std::thread::available_parallelism`, or the
//! `LOOPML_THREADS` environment variable when set; [`with_threads`] pins
//! it for one call on the calling thread (tests use it to compare worker
//! counts). Nested `par_map` calls from inside a worker run serially on
//! that worker — one level of parallelism is enough for labeling
//! (benchmarks × loops) and avoids quadratic thread explosions.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

use crate::fault::InjectedFault;

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// The count [`with_threads`] pinned on this thread, if any.
    static PINNED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Worker threads to use: the count [`with_threads`] pinned on the
/// calling thread, else `LOOPML_THREADS` if set to a positive integer,
/// otherwise the machine's available parallelism (1 if unknown). An
/// invalid `LOOPML_THREADS` value (zero, negative, non-numeric) warns
/// once to stderr and falls back to available parallelism.
pub fn num_threads() -> usize {
    if let Some(n) = PINNED.with(Cell::get) {
        return n;
    }
    if let Ok(s) = std::env::var("LOOPML_THREADS") {
        match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => {
                static WARNED: Once = Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "[loopml-rt] ignoring invalid LOOPML_THREADS={s:?} \
                         (want a positive integer); using available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with [`num_threads`] returning `threads` (at least 1) on the
/// calling thread, and restores the previous count when `f` returns or
/// unwinds. Pins nest. Threads spawned inside `f` do not see the pin;
/// `par_map` workers need not, since nested calls run serially.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let _ = PINNED.try_with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(PINNED.with(|p| p.replace(Some(threads.max(1)))));
    f()
}

/// Renders a panic payload as a human-readable message. Pass the
/// payload itself (`&*payload`): a `&Box<dyn Any>` would coerce to the
/// box and match no downcast.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        format!("injected fault at {} (key {:#x})", f.site, f.key)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A panic captured from one work item by [`par_map_result`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerError {
    /// Index of the item whose closure panicked.
    pub index: usize,
    /// Rendered panic message.
    pub message: String,
    /// The injection site, when the panic was a synthetic
    /// [`InjectedFault`] from the fault plane (`None` for genuine
    /// panics).
    pub injected: Option<&'static str>,
}

impl WorkerError {
    fn from_panic(index: usize, payload: Box<dyn std::any::Any + Send>) -> Self {
        WorkerError {
            index,
            message: panic_message(payload.as_ref()),
            injected: payload.downcast_ref::<InjectedFault>().map(|f| f.site),
        }
    }
}

/// Maps `f` over `items` on [`num_threads`] workers, preserving input
/// order in the result. Equivalent to `items.iter().map(f).collect()` for
/// any pure `f`; see the module docs for the determinism argument.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count, for callers that size
/// their own work split to the pool.
///
/// # Panics
///
/// Panics if `f` panics. On the serial path (one worker, at most one
/// item, or a call nested inside a worker) `f`'s own panic propagates
/// unchanged. On worker threads the panic is re-raised by
/// `std::thread::scope` once all workers finish, as "a scoped thread
/// panicked": the original payload does not reach the caller.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() <= 1 || IN_POOL.with(|c| c.get()) {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                IN_POOL.with(|c| c.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // Compute outside the lock; the lock guards only the
                    // store into the claimed slot.
                    let r = f(&items[i]);
                    slots.lock().expect("no poisoned slots")[i] = Some(r);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("no poisoned slots")
        .into_iter()
        .map(|slot| slot.expect("every slot filled"))
        .collect()
}

/// Panic-isolating sibling of [`par_map`]: maps `f` over `items` on
/// [`num_threads`] workers and returns one `Result` per item, in input
/// order. A panic inside `f` (genuine or injected by the fault plane)
/// becomes an `Err(WorkerError)` for that item alone — the worker
/// catches it and moves on to the next item instead of killing the
/// pool.
pub fn par_map_result<T, R, F>(items: &[T], f: F) -> Vec<Result<R, WorkerError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let isolated = |(i, item): &(usize, &T)| -> Result<R, WorkerError> {
        catch_unwind(AssertUnwindSafe(|| f(item)))
            .map_err(|payload| WorkerError::from_panic(*i, payload))
    };
    let indexed: Vec<(usize, &T)> = items.iter().enumerate().collect();
    par_map(&indexed, isolated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let par = par_map_threads(threads, &items, |&x| x * x + 1);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = vec![];
        assert_eq!(par_map_threads(4, &none, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map_threads(4, &[9u32], |&x| x + 1), vec![10]);
    }

    #[test]
    fn nested_calls_run_serially() {
        let outer: Vec<usize> = (0..4).collect();
        let result = par_map_threads(2, &outer, |&i| {
            // A nested call must not deadlock or explode; it degrades to
            // a serial map inside the worker.
            let inner: Vec<usize> = (0..8).collect();
            par_map_threads(4, &inner, |&j| i * 100 + j)
                .iter()
                .sum::<usize>()
        });
        let expect: Vec<usize> = outer
            .iter()
            .map(|&i| (0..8).map(|j| i * 100 + j).sum())
            .collect();
        assert_eq!(result, expect);
    }

    #[test]
    fn seeded_rng_per_item_is_thread_count_invariant() {
        // The pattern the labeler relies on: one RNG seeded per item.
        let items: Vec<u64> = (0..64).collect();
        let draw = |&i: &u64| {
            let mut rng = crate::Rng::seed_from_u64(0xABCD ^ i);
            (0..10).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        let one = par_map_threads(1, &items, draw);
        let four = par_map_threads(4, &items, draw);
        assert_eq!(one, four);
    }

    #[test]
    fn par_map_result_isolates_panics() {
        let items: Vec<u32> = (0..32).collect();
        for threads in [1, 2, 4] {
            let out = with_threads(threads, || {
                par_map_result(&items, |&x| {
                    if x % 7 == 3 {
                        panic!("boom on {x}");
                    }
                    x * 2
                })
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                if i % 7 == 3 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, i);
                    assert!(e.message.contains("boom"), "{e:?}");
                    assert_eq!(e.injected, None);
                } else {
                    assert_eq!(*r, Ok(i as u32 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn par_map_result_tags_injected_faults() {
        use crate::fault::{site, FaultPlane};
        let plane = FaultPlane::new(0, 1.0).only_keys(vec![5]);
        let items: Vec<u64> = (0..12).collect();
        let out = with_threads(3, || {
            par_map_result(&items, |&k| {
                plane.trip(site::LABEL_LOOP, k);
                k + 1
            })
        });
        for (i, r) in out.iter().enumerate() {
            if i == 5 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.injected, Some(site::LABEL_LOOP));
                assert!(e.message.contains("label.loop"), "{e:?}");
            } else {
                assert_eq!(*r, Ok(i as u64 + 1));
            }
        }
    }

    #[test]
    fn with_threads_pins_the_calling_thread_until_it_returns() {
        let env = num_threads();
        let pinned = with_threads(env + 3, || {
            let inner = with_threads(env + 7, num_threads);
            // Threads spawned under the pin read the environment.
            let spawned = std::thread::scope(|s| s.spawn(num_threads).join().unwrap());
            (num_threads(), inner, spawned, num_threads())
        });
        assert_eq!(pinned, (env + 3, env + 7, env, env + 3));
        assert_eq!(num_threads(), env, "the pin ends with the call");
        assert_eq!(
            with_threads(0, num_threads),
            1,
            "a zero pin means one worker"
        );
    }

    #[test]
    fn with_threads_restores_the_count_on_unwind() {
        let env = num_threads();
        let outer = with_threads(env + 2, || {
            let caught = catch_unwind(|| with_threads(env + 5, || panic!("boom")));
            assert!(caught.is_err());
            num_threads()
        });
        assert_eq!(outer, env + 2, "the inner pin unwound to the outer one");
        assert_eq!(num_threads(), env);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_threads(2, &items, |&x| {
                if x == 7 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(caught.is_err());
    }
}
