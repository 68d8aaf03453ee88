//! Scoped worker-thread fan-out with deterministic aggregation.

use scal_obs::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Work-item threshold below which spawning threads costs more than it buys.
const MIN_ITEMS_PER_THREAD: usize = 8;

/// Resolves a requested thread count (`0` = auto) to the worker count used
/// when work is plentiful: the machine's available parallelism for auto,
/// the request verbatim otherwise.
fn resolved_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Resolves a requested thread count against a concrete workload: like
/// `resolved_threads`, further clamped so no thread would receive fewer
/// than a handful of items. This is the worker count campaign fan-outs
/// actually use (and report in their `campaign_start` events).
#[must_use]
pub fn effective_threads(requested: usize, items: usize) -> usize {
    resolved_threads(requested)
        .min(items / MIN_ITEMS_PER_THREAD)
        .max(1)
}

/// Applies `f` to every item, fanning the work across `threads` scoped worker
/// threads (`0` = auto). Results are returned **in item order** regardless of
/// which worker produced them — campaigns stay deterministic.
///
/// Items are claimed dynamically through a shared atomic cursor, so uneven
/// per-item cost does not idle workers. With one effective thread the items
/// are processed inline with no thread machinery at all.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_cancellable(items, threads, None, |_| (), |(), _, i, t| f(i, t))
        .into_iter()
        .map(|r| r.expect("every item processed"))
        .collect()
}

/// Worker-attributed, cancellation-aware fan-out with per-worker state.
///
/// Like [`par_map`], but every worker owns a state built by `init(worker)`
/// on the calling thread before any item runs (one call inline), and `f`
/// receives that state plus the id of the worker that claimed the item
/// (always `0` inline). An optional [`CancelToken`] is checked before each
/// claim: once cancelled, no further items are started and their result
/// slots stay `None`. Items already in flight run to completion, so the
/// returned vector may have `Some` entries after the first `None` — callers
/// wanting a deterministic prefix should truncate at the first gap.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_map_cancellable<T, S, R, I, F>(
    items: &[T],
    threads: usize,
    cancel: Option<&CancelToken>,
    mut init: I,
    f: F,
) -> Vec<Option<R>>
where
    T: Sync,
    S: Send,
    R: Send,
    I: FnMut(usize) -> S,
    F: Fn(&mut S, usize, usize, &T) -> R + Sync,
{
    let threads = effective_threads(threads, items.len());
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    if threads <= 1 {
        let mut state = init(0);
        for (i, t) in items.iter().enumerate() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                break;
            }
            results[i] = Some(f(&mut state, 0, i, t));
        }
        return results;
    }
    let states: Vec<S> = (0..threads).map(&mut init).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(worker, mut state)| {
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        if cancel.is_some_and(CancelToken::is_cancelled) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&mut state, worker, i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, 4, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_fallback() {
        let items = [1, 2, 3];
        assert_eq!(par_map(&items, 1, |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn auto_thread_count_small_workload_stays_inline() {
        assert_eq!(effective_threads(0, 3), 1);
        assert_eq!(effective_threads(4, 1000), 4);
        assert_eq!(effective_threads(1, 1000), 1);
    }

    #[test]
    fn cancelled_token_leaves_tail_unprocessed() {
        let items: Vec<usize> = (0..50).collect();
        let token = CancelToken::new();
        token.cancel();
        let out = par_map_cancellable(&items, 1, Some(&token), |_| (), |(), _, _, &x| x);
        assert!(out.iter().all(Option::is_none));
        let live = CancelToken::new();
        let out = par_map_cancellable(
            &items,
            1,
            Some(&live),
            |_| (),
            |(), w, i, &x| {
                assert_eq!(w, 0);
                assert_eq!(i, x);
                x
            },
        );
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn every_worker_owns_its_state() {
        let items: Vec<usize> = (0..100).collect();
        let mut built = Vec::new();
        let out = par_map_cancellable(
            &items,
            4,
            None,
            |w| {
                built.push(w);
                0usize
            },
            |seen, w, _, &x| {
                *seen += 1;
                (w, *seen, x)
            },
        );
        assert_eq!(built, [0, 1, 2, 3]);
        let out: Vec<_> = out.into_iter().map(Option::unwrap).collect();
        assert!(out.iter().enumerate().all(|(i, &(_, _, x))| i == x));
        // Each worker's counter runs 1, 2, 3, … over the items it claimed.
        for w in 0..4 {
            let seen: Vec<usize> = out.iter().filter(|o| o.0 == w).map(|o| o.1).collect();
            assert_eq!(seen, (1..=seen.len()).collect::<Vec<_>>());
        }
    }
}
