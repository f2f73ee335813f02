//! Shared scaffolding for parallel symbolic operations (`par_condition`,
//! `par_constrain`, and the translator's branch fan-out).
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

use std::sync::OnceLock;

use scoped_threadpool::Pool;

use crate::engine::global_pool;

/// Work-size cutoff: a fan-out point with fewer independent subproblems
/// than this stays on the calling thread. Scheduling a scoped job costs
/// on the order of a channel send plus a wakeup (~µs), while a narrow
/// node's subproblems are often single truncations (~100 ns), so narrow
/// nodes parallelize at a loss; wide mixtures — the workloads that
/// matter (10³-component sums, many-clause disjunctions) — clear this
/// bar immediately.
pub(crate) const PAR_MIN_WIDTH: usize = 16;

/// Worker-thread name prefix set by the vendored pool
/// (`crates/vendor/threadpool`); used to detect re-entry.
const POOL_THREAD_PREFIX: &str = "scoped-pool-";

/// True when the calling thread is itself a scoped-pool worker. The
/// env-gated entry points consult this so a plain `condition` call made
/// *inside* a pool job (e.g. from a translator branch worker) degrades
/// to sequential instead of deadlocking on a nested scope.
pub(crate) fn on_pool_worker() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with(POOL_THREAD_PREFIX))
}

/// Whether `SPPL_PAR_SYMBOLIC` opts the plain (non-`par_`) symbolic
/// entry points into the global pool. Read once per process, like
/// `SPPL_THREADS`: `1`/any non-empty value other than `0` enables.
fn env_opt_in() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var("SPPL_PAR_SYMBOLIC").is_ok_and(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
    })
}

/// The pool the *plain* symbolic entry points should fan out over, or
/// `None` to stay sequential. `Some` only when `SPPL_PAR_SYMBOLIC` is
/// set, the global pool has more than one worker, and the calling
/// thread is not itself a pool worker (re-entering the pool from one of
/// its own jobs would deadlock). Exposed publicly so downstream layers
/// (the translator) apply the same opt-in without re-reading the
/// environment.
pub fn symbolic_pool() -> Option<&'static Pool> {
    if env_opt_in() && !on_pool_worker() {
        let pool = global_pool();
        (pool.thread_count() > 1).then_some(pool)
    } else {
        None
    }
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

    /// The context for the plain entry points: [`symbolic_pool`]'s
    /// verdict on the `SPPL_PAR_SYMBOLIC` opt-in.
    pub(crate) fn env_default() -> ParCtx<'static> {
        match symbolic_pool() {
            Some(pool) => ParCtx::with_pool(pool),
            None => ParCtx::seq(),
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
    fn pool_workers_are_detected_by_name() {
        assert!(!on_pool_worker());
        let pool = Pool::new(1);
        let mut seen = false;
        pool.scoped(|scope| {
            scope.execute(|| {
                seen = on_pool_worker();
            });
        });
        assert!(seen, "jobs must observe that they run on a pool worker");
    }
}
