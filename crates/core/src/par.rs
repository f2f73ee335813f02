//! Shared scaffolding for the explicit-pool parallel symbolic operations
//! ([`par_condition_in`](crate::condition::par_condition_in),
//! [`par_constrain_in`](crate::density::par_constrain_in), and the
//! translator's branch fan-out), plus [`default_threads`] for sizing
//! their pools.
//!
//! The closure theorem (Thm. 4.1, Lst. 6) makes the per-child recursions
//! at `Sum` and `Product` nodes independent subproblems: each child's
//! posterior (or constrained factor) is a pure function of the immutable
//! DAG and the event. The crate-private `ParCtx` carries an optional
//! reference to the vendored scoped pool down the recursion and hands it
//! to the *first* fan-out point wide enough to beat the scheduling
//! overhead; the jobs it spawns recurse sequentially (`ParCtx::seq`),
//! because nested `Pool::scoped` calls on one pool deadlock (a job
//! blocking on a scope occupies the very worker its sub-jobs need).
//! Results come back in **input order** (`fan_out_ordered`), so the
//! caller rebuilds exactly
//! the `(parts, weights)` sequence the sequential walk produces and
//! `Factory::sum` sees bit-identical inputs — parallelism never changes
//! an answer, only wall-clock time.

use scoped_threadpool::Pool;

/// Work-size cutoff: a fan-out point with fewer independent subproblems
/// than this stays on the calling thread. Scheduling a scoped job costs
/// on the order of a channel send plus a wakeup (~µs), while a narrow
/// node's subproblems are often single truncations (~100 ns), so narrow
/// nodes parallelize at a loss; wide mixtures — the workloads that
/// matter (10³-component sums, many-clause disjunctions) — clear this
/// bar immediately.
pub(crate) const PAR_MIN_WIDTH: usize = 16;

/// A default pool size: `SPPL_THREADS` when set to a positive integer,
/// otherwise the machine's available parallelism (one when even that is
/// unknown).
pub fn default_threads() -> usize {
    std::env::var("SPPL_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Parallelism context threaded through the symbolic recursions: either
/// a pool to fan out over, or sequential. `Copy`, so passing it down
/// costs nothing.
#[derive(Clone, Copy, Default)]
pub(crate) struct ParCtx<'p> {
    pool: Option<&'p Pool>,
}

impl<'p> ParCtx<'p> {
    /// Sequential execution — the default and the mode inside pool jobs.
    pub(crate) fn seq() -> ParCtx<'static> {
        ParCtx { pool: None }
    }

    /// Fan out over `pool` at the first sufficiently wide node. A
    /// single-worker pool degrades to sequential (scoped dispatch would
    /// be pure overhead).
    pub(crate) fn with_pool(pool: &'p Pool) -> ParCtx<'p> {
        ParCtx {
            pool: (pool.thread_count() > 1).then_some(pool),
        }
    }

    /// The pool to use for a fan-out of `width` independent subproblems,
    /// or `None` when the node is too narrow (see [`PAR_MIN_WIDTH`]) or
    /// the context is sequential. The caller's jobs must recurse with
    /// [`ParCtx::seq`]; the caller itself may keep using this context
    /// for later (sibling) fan-outs — scopes run to completion, so
    /// sequential re-use of one pool never nests.
    pub(crate) fn take(self, width: usize) -> Option<&'p Pool> {
        if width >= PAR_MIN_WIDTH {
            self.pool
        } else {
            None
        }
    }
}

/// Evaluates `f` over `items` on the pool's workers and returns the
/// results **in input order** — the property the callers' join steps
/// rely on for bit-identical rebuilds. Items are dispatched in
/// contiguous chunks (about four jobs per worker) so per-job overhead
/// amortizes over wide inputs. A
/// panicking `f` propagates out of the scope, matching the sequential
/// walk's behavior; the pool itself survives.
pub(crate) fn fan_out_ordered<T, R, F>(pool: &Pool, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = (pool.thread_count() as usize * 4).clamp(1, items.len().max(1));
    let chunk = items.len().div_ceil(jobs).max(1);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    pool.scoped(|scope| {
        let f = &f;
        for (ins, outs) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.execute(move || {
                for (item, slot) in ins.iter().zip(outs.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("scope joined every job, so every slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_input_order() {
        let pool = Pool::new(3);
        let items: Vec<u64> = (0..100).collect();
        let out = fan_out_ordered(&pool, &items, |&x| x * x);
        let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn fan_out_handles_tiny_inputs() {
        let pool = Pool::new(4);
        assert_eq!(
            fan_out_ordered(&pool, &[] as &[u64], |&x| x),
            Vec::<u64>::new()
        );
        assert_eq!(fan_out_ordered(&pool, &[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn take_respects_the_width_cutoff() {
        let pool = Pool::new(2);
        let ctx = ParCtx::with_pool(&pool);
        assert!(ctx.take(PAR_MIN_WIDTH - 1).is_none());
        assert!(ctx.take(PAR_MIN_WIDTH).is_some());
        assert!(ParCtx::seq().take(1000).is_none());
    }

    #[test]
    fn single_worker_pool_degrades_to_sequential() {
        let pool = Pool::new(1);
        assert!(ParCtx::with_pool(&pool).take(1000).is_none());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
