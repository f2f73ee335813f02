//! The memoized query engine: repeated and batched inference over one
//! compiled sum-product expression.
//!
//! `prob`/`condition` are already memoized *within* a call over the
//! deduplicated DAG ([`Factory::logprob`],
//! [`condition`](crate::condition::condition)); the
//! [`QueryEngine`] adds the *across-call* layer the paper's workflow
//! implies (Fig. 7a: translate once, then answer many queries). It wraps a
//! [`Factory`] plus a root [`Spe`] and memoizes whole-query results keyed
//! by the [canonicalized](Event::canonical) event fingerprint, on top of
//! the factory's persistent node-level tables, so:
//!
//! * a repeated query is a single hash lookup returning a bit-identical
//!   result;
//! * structurally equivalent events built in different operand orders hit
//!   the same entry;
//! * batched queries ([`QueryEngine::logprob_many`]) answer memo hits
//!   first and evaluate only the misses, in one pass over the
//!   [arena-compiled](ArenaModel) model;
//! * conditioning chains ([`QueryEngine::condition_chain`]) reuse both the
//!   factory's per-step memo and an engine-level prefix cache.
//!
//! # Concurrency
//!
//! The engine (and the factory underneath) is `Send + Sync`: every cache
//! is a sharded lock map and every counter an atomic, so one engine can be
//! shared by reference across threads. Inference is a pure function of
//! the DAG and the event, so concurrent callers see bit-identical
//! answers whichever of them fills a cache entry first.
//!
//! # Invalidation
//!
//! Invalidation is tied to [`Factory::clear_caches`] through the factory's
//! [cache generation](Factory::cache_generation): clearing the factory —
//! directly or via [`QueryEngine::clear_caches`] — drops the engine's
//! entries and resets its statistics. Every engine-cache entry is tagged
//! with the generation current when its computation began and is served
//! only while that tag matches, so a clear racing against in-flight
//! queries can never resurrect a pre-clear entry.
//!
//! Engines answering queries for the *same model* from different sessions
//! (even via separately compiled factories) can additionally share one
//! bounded [`SharedCache`] keyed by `(model digest, event fingerprint)` —
//! see [`QueryEngine::with_shared_cache`].
//!
//! # Example
//!
//! ```
//! use sppl_core::prelude::*;
//!
//! let f = Factory::new();
//! let x = f.leaf(
//!     Var::new("X"),
//!     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
//! );
//! let engine = QueryEngine::new(f, x);
//! let e = Event::le(Transform::id(Var::new("X")), 0.0);
//! let cold = engine.prob(&e).unwrap();
//! let warm = engine.prob(&e).unwrap();
//! assert_eq!(cold.to_bits(), warm.to_bits());
//! assert_eq!(engine.stats().hits, 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use scoped_threadpool::Pool;

use crate::arena::ArenaModel;
use crate::cache::SharedCache;
use crate::condition::condition_ctx;
use crate::digest::{Fingerprint, ModelDigest};
use crate::error::SpplError;
use crate::event::Event;
use crate::par::ParCtx;
use crate::spe::{Factory, Spe};
use crate::sync_map::ShardedMap;

/// Hit/miss/entry statistics for a memoization cache. Every cache layer
/// reports this shape; for the sharded [`SharedCache`] the counts are
/// aggregated across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh evaluation.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (zero when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The [`global_pool`] thread count: `SPPL_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism (one when even
/// that is unknown).
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

/// The process-wide pool used by [`QueryEngine::par_condition`] and the
/// other parallel symbolic operations, sized by [`default_threads`] at
/// first use. Exposed so benchmarks and servers can submit their own
/// scoped work to the same workers instead of spawning a second pool.
///
/// **Do not call the `par_*` methods (or open another scope on this
/// pool) from inside a job running on this pool**: the inner scope
/// would block its worker waiting for chunks only the occupied workers
/// could run — with all workers blocked the process deadlocks (the
/// vendored pool does not support nested scopes).
pub fn global_pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(default_threads().min(u32::MAX as usize) as u32))
}

/// A memoized query engine over one compiled SPE (see the [module
/// docs](self)).
///
/// The engine holds its [`Factory`] behind an `Arc`; build the model
/// first, then hand both over ([`QueryEngine::new`] accepts either an
/// owned factory or an existing `Arc<Factory>`, so engines can share one
/// factory — the [`Model`](crate::model::Model) session API relies on
/// this to give every posterior the same intern table and node-level
/// memos as its parent). All methods take `&self` and the engine is
/// `Send + Sync` — caches live behind sharded locks and atomics,
/// matching the factory's own memo tables.
pub struct QueryEngine {
    factory: Arc<Factory>,
    root: Spe,
    /// Deep model digest, computed lazily (used only by the shared cache).
    digest: OnceLock<ModelDigest>,
    /// Arena-compiled form of `root`, built on first use and then shared
    /// (the process-wide arena registry dedupes by digest underneath).
    arena: OnceLock<Arc<ArenaModel>>,
    /// Optional cross-engine result cache.
    shared: Option<Arc<SharedCache>>,
    /// Canonical event fingerprint → (generation tag, log-probability).
    logprob_cache: ShardedMap<Fingerprint, (u64, f64)>,
    /// Chain prefix key → (generation tag, posterior).
    cond_cache: ShardedMap<Fingerprint, (u64, Spe)>,
    hits: AtomicU64,
    misses: AtomicU64,
    seen_generation: AtomicU64,
}

/// Seed for conditioning-chain prefix keys; [`Fingerprint::chain`] keeps
/// every chained key distinct from any single-event fingerprint path.
const CHAIN_SEED: Fingerprint = Fingerprint::from_u128(0x51c5_a9b3_7f4e_d081);

impl QueryEngine {
    /// Wraps a factory and the root expression it built. Accepts either
    /// an owned [`Factory`] or an `Arc<Factory>` shared with other
    /// engines (posteriors conditioned from the same session keep the
    /// parent's intern table and node-level memos this way).
    pub fn new(factory: impl Into<Arc<Factory>>, root: Spe) -> QueryEngine {
        let factory = factory.into();
        let generation = factory.cache_generation();
        QueryEngine {
            factory,
            root,
            digest: OnceLock::new(),
            arena: OnceLock::new(),
            shared: None,
            logprob_cache: ShardedMap::new(),
            cond_cache: ShardedMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            seen_generation: AtomicU64::new(generation),
        }
    }

    /// Attaches a cross-engine [`SharedCache`]: `logprob`/`prob` lookups
    /// that miss this engine's own cache consult (and fill) the shared
    /// one, keyed by this model's [deep digest](Spe::digest). Engines over
    /// separately compiled copies of the same model share entries; shared
    /// hits still count as engine-level misses (the shared cache keeps its
    /// own statistics).
    pub fn with_shared_cache(mut self, cache: Arc<SharedCache>) -> QueryEngine {
        self.shared = Some(cache);
        self
    }

    /// The attached shared cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedCache>> {
        self.shared.as_ref()
    }

    /// The root expression's deep content digest — the model half of the
    /// shared-cache key, and the identity under which snapshot files
    /// persist results ([`Spe::digest`] documents the stability
    /// guarantee). Computed on first use and then cached.
    pub fn model_digest(&self) -> ModelDigest {
        *self.digest.get_or_init(|| self.root.digest())
    }

    /// The wrapped factory (for node-level cache statistics, or to build
    /// further expressions sharing the intern table).
    pub fn factory(&self) -> &Factory {
        &self.factory
    }

    /// The shared handle to the wrapped factory, for building further
    /// engines over the same intern table and node-level memos
    /// (`Arc::clone` is the whole cost).
    pub fn factory_arc(&self) -> &Arc<Factory> {
        &self.factory
    }

    /// The root expression queries are answered against.
    pub fn root(&self) -> &Spe {
        &self.root
    }

    /// The arena-compiled form of this engine's model, built on first
    /// use (see [`ArenaModel`]): a flat, topologically-ordered compile
    /// of the SPE whose batched evaluation is bit-identical to this
    /// engine's tree walker. Digest-equal engines share one arena
    /// through the process-wide registry.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let engine = QueryEngine::new(f, x);
    /// let e = Event::le(Transform::id(Var::new("X")), 0.0);
    /// assert_eq!(
    ///     engine.compile_arena().logprob(&e).unwrap().to_bits(),
    ///     engine.logprob(&e).unwrap().to_bits(),
    /// );
    /// ```
    pub fn compile_arena(&self) -> Arc<ArenaModel> {
        Arc::clone(self.arena.get_or_init(|| ArenaModel::compile(&self.root)))
    }

    /// Releases the factory handle and root. The factory comes back as
    /// the shared `Arc` — other engines built over it stay valid.
    pub fn into_parts(self) -> (Arc<Factory>, Spe) {
        (self.factory, self.root)
    }

    /// Drops engine entries when the factory's caches were cleared behind
    /// our back (engine keys pin no nodes, so stale entries would outlive
    /// the node-level tables they were derived from). Generation tags on
    /// the entries make this airtight under races: even before a lagging
    /// thread syncs, tagged lookups refuse entries from older generations.
    fn sync_generation(&self) {
        let current = self.factory.cache_generation();
        let mut seen = self.seen_generation.load(Ordering::SeqCst);
        // Only ever advance: a lagging thread that read an older factory
        // generation before a concurrent bump must not drag
        // `seen_generation` backwards (that would wipe freshly valid
        // entries and reset statistics a second time). Exactly one thread
        // wins the CAS per bump and performs the sweep.
        while seen < current {
            match self.seen_generation.compare_exchange(
                seen,
                current,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.logprob_cache.clear();
                    self.cond_cache.clear();
                    self.hits.store(0, Ordering::Relaxed);
                    self.misses.store(0, Ordering::Relaxed);
                    break;
                }
                Err(actual) => seen = actual,
            }
        }
    }

    /// Natural log of the probability of `event` under the root,
    /// memoized across calls (and across engines, when a shared cache is
    /// attached). A miss is evaluated by the tree walker over the
    /// factory's node-level memo.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spe::logprob`].
    pub fn logprob(&self, event: &Event) -> Result<f64, SpplError> {
        self.sync_generation();
        let generation = self.factory.cache_generation();
        let canonical = event.canonical();
        let key = canonical.fingerprint();
        if let Some(value) = self
            .memo_hit(key, generation)
            .or_else(|| self.shared_hit(key, generation))
        {
            return Ok(value);
        }
        let computed = self.factory.logprob(&self.root, &canonical)?;
        Ok(self.publish(key, generation, computed))
    }

    /// The probability of `event`, clamped to `[0, 1]` (see
    /// [`Spe::prob`] for why the clamp matters near one).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spe::logprob`].
    pub fn prob(&self, event: &Event) -> Result<f64, SpplError> {
        Ok(self.logprob(event)?.exp().clamp(0.0, 1.0))
    }

    /// Batched [`QueryEngine::logprob`], bit-identical to calling it per
    /// event. Each event is canonicalized and fingerprinted once and
    /// answered from the engine memo, from an earlier occurrence in the
    /// batch, or from the shared cache, with the same hit/miss counts a
    /// per-event loop records. The remaining misses are evaluated
    /// together in one pass over the [arena-compiled](Self::compile_arena)
    /// model — compiled only if there is a miss — and published to both
    /// caches under the keys `logprob` uses.
    ///
    /// # Errors
    ///
    /// The first failing event's error, as [`Spe::logprob`] reports it.
    /// The answers computed before it are still published; the lookups
    /// of the whole batch have been counted.
    pub fn logprob_many(&self, events: &[Event]) -> Result<Vec<f64>, SpplError> {
        self.sync_generation();
        let generation = self.factory.cache_generation();
        let mut out = vec![0.0; events.len()];
        // Misses to evaluate: batch index, key, and canonical event.
        let (mut miss_at, mut miss_keys, mut miss_events) = (Vec::new(), Vec::new(), Vec::new());
        // Key → position in the miss list, and the in-batch repeats of
        // a miss as (batch index, miss position).
        let mut first_miss: HashMap<Fingerprint, usize> = HashMap::new();
        let mut repeats = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let canonical = event.canonical();
            let key = canonical.fingerprint();
            if let Some(value) = self.memo_hit(key, generation) {
                out[i] = value;
            } else if let Some(&m) = first_miss.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                repeats.push((i, m));
            } else if let Some(value) = self.shared_hit(key, generation) {
                out[i] = value;
            } else {
                first_miss.insert(key, miss_at.len());
                miss_at.push(i);
                miss_keys.push(key);
                miss_events.push(canonical);
            }
        }
        if !miss_events.is_empty() {
            let (computed, status) = self.compile_arena().logprob_canonical(miss_events);
            for ((&i, &key), value) in miss_at.iter().zip(&miss_keys).zip(computed) {
                out[i] = self.publish(key, generation, value);
            }
            status?;
        }
        for (i, m) in repeats {
            out[i] = out[miss_at[m]];
        }
        Ok(out)
    }

    /// Batched [`QueryEngine::prob`] with the same clamping.
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::logprob_many`].
    pub fn prob_many(&self, events: &[Event]) -> Result<Vec<f64>, SpplError> {
        Ok(self
            .logprob_many(events)?
            .into_iter()
            .map(|lp| lp.exp().clamp(0.0, 1.0))
            .collect())
    }

    /// The engine memo's entry for `key`, counting an engine hit when it
    /// is current.
    fn memo_hit(&self, key: Fingerprint, generation: u64) -> Option<f64> {
        match self.logprob_cache.get(&key) {
            Some((tag, value)) if tag == generation => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            _ => None,
        }
    }

    /// Counts an engine miss, then consults the shared cache; a shared
    /// hit is promoted into the engine memo so the next lookup is
    /// lock-cheap.
    fn shared_hit(&self, key: Fingerprint, generation: u64) -> Option<f64> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = self.shared.as_ref()?.get(self.model_digest(), key)?;
        self.logprob_cache.insert(key, (generation, value));
        Some(value)
    }

    /// Stores a freshly computed answer and returns the value to serve.
    fn publish(&self, key: Fingerprint, generation: u64, computed: f64) -> f64 {
        // The shared cache is authoritative: serve whatever value is now
        // stored under the key. (Since sum-child order became content-
        // canonical, a racing engine computes identical bits anyway —
        // this discipline keeps consistency independent of that
        // invariant.)
        let value = match &self.shared {
            Some(shared) => shared.insert(self.model_digest(), key, computed),
            None => computed,
        };
        // Tagged with the generation read *before* computing: if a
        // clear_caches raced this evaluation, the tag is already stale and
        // the entry will never be served.
        self.logprob_cache.insert(key, (generation, value));
        value
    }

    /// Conditions the root on `event` (Thm. 4.1), memoized across calls.
    ///
    /// # Errors
    ///
    /// Same conditions as [`condition`](crate::condition::condition).
    pub fn condition(&self, event: &Event) -> Result<Spe, SpplError> {
        self.condition_chain(std::slice::from_ref(event))
    }

    /// Sequentially conditions the root on each event in turn — the
    /// filtering workflow `S | e₁ | e₂ | …`. Every prefix posterior is
    /// cached, so extending an already-computed chain pays only for the
    /// new suffix, and re-running a chain is pure lookups. An empty chain
    /// returns the root.
    ///
    /// # Errors
    ///
    /// Same conditions as [`condition`](crate::condition::condition); in particular
    /// [`SpplError::ZeroProbability`] if any prefix gives the next event
    /// probability zero.
    pub fn condition_chain(&self, events: &[Event]) -> Result<Spe, SpplError> {
        self.condition_chain_ctx(events, ParCtx::env_default())
    }

    /// [`QueryEngine::condition`] with wide `Sum`/`Product` fan-outs
    /// parallelized over the global pool. Bit-identical to the sequential
    /// walk (see [`crate::condition::par_condition`]); must not be called
    /// from inside a job running on the global pool.
    ///
    /// # Errors
    ///
    /// Same conditions as [`condition`](crate::condition::condition).
    pub fn par_condition(&self, event: &Event) -> Result<Spe, SpplError> {
        self.par_condition_chain(std::slice::from_ref(event))
    }

    /// [`QueryEngine::par_condition`] over a caller-supplied pool. A
    /// single-worker pool degrades to the sequential walk.
    ///
    /// # Errors
    ///
    /// Same conditions as [`condition`](crate::condition::condition).
    pub fn par_condition_in(&self, pool: &Pool, event: &Event) -> Result<Spe, SpplError> {
        self.par_condition_chain_in(pool, std::slice::from_ref(event))
    }

    /// [`QueryEngine::condition_chain`] with each conditioning step's
    /// wide fan-outs parallelized over the global pool. The chain itself
    /// stays sequential — step *k+1* conditions step *k*'s posterior —
    /// so parallelism lives inside each step, and every prefix posterior
    /// is cached exactly as in the sequential chain.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueryEngine::condition_chain`].
    pub fn par_condition_chain(&self, events: &[Event]) -> Result<Spe, SpplError> {
        self.condition_chain_ctx(events, ParCtx::with_pool(global_pool()))
    }

    /// [`QueryEngine::par_condition_chain`] over a caller-supplied pool.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QueryEngine::condition_chain`].
    pub fn par_condition_chain_in(&self, pool: &Pool, events: &[Event]) -> Result<Spe, SpplError> {
        self.condition_chain_ctx(events, ParCtx::with_pool(pool))
    }

    fn condition_chain_ctx(&self, events: &[Event], par: ParCtx<'_>) -> Result<Spe, SpplError> {
        self.sync_generation();
        let generation = self.factory.cache_generation();
        let mut current = self.root.clone();
        let mut key = CHAIN_SEED;
        for event in events {
            let canonical = event.canonical();
            key = key.chain(canonical.fingerprint());
            if let Some((tag, posterior)) = self.cond_cache.get(&key) {
                if tag == generation {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    current = posterior;
                    continue;
                }
            }
            current = condition_ctx(&self.factory, &current, &canonical, par)?;
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.cond_cache.insert(key, (generation, current.clone()));
        }
        Ok(current)
    }

    /// Engine-level cache statistics: hits and misses across the
    /// `logprob` and `condition` paths, and total entries stored. For the
    /// node-level tables underneath, see [`Factory::prob_cache_stats`] and
    /// [`Factory::cond_cache_stats`]; for the cross-engine layer, see
    /// [`SharedCache::stats`].
    pub fn stats(&self) -> CacheStats {
        self.sync_generation();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.logprob_cache.len() + self.cond_cache.len(),
        }
    }

    /// Clears the engine caches, the factory caches underneath, and all
    /// statistics. An attached [`SharedCache`] is *not* cleared — its
    /// entries are pure values shared with other engines; clear it
    /// explicitly via [`SharedCache::clear`] if the memory must go.
    pub fn clear_caches(&self) {
        self.factory.clear_caches();
        // clear_caches bumped the generation; syncing drops engine entries
        // and resets the engine counters.
        self.sync_generation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::Transform;
    use crate::var::Var;
    use sppl_dists::{Cdf, DistReal, Distribution};
    use sppl_num::float::approx_eq;
    use sppl_sets::Interval;

    fn normal(f: &Factory, name: &str, mu: f64) -> Spe {
        f.leaf(
            Var::new(name),
            Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
        )
    }

    fn engine_xy() -> QueryEngine {
        let f = Factory::new();
        let p = f
            .product(vec![normal(&f, "X", 0.0), normal(&f, "Y", 0.0)])
            .unwrap();
        QueryEngine::new(f, p)
    }

    fn le(name: &str, v: f64) -> Event {
        Event::le(Transform::id(Var::new(name)), v)
    }

    #[test]
    fn matches_direct_logprob() {
        let engine = engine_xy();
        let e = Event::and(vec![le("X", 0.0), le("Y", 0.0)]);
        let direct = engine.root().logprob(&e).unwrap();
        assert_eq!(engine.logprob(&e).unwrap(), direct);
        assert!(approx_eq(engine.prob(&e).unwrap(), 0.25, 1e-12));
    }

    /// The per-event tree walk over the canonical event, with a fresh
    /// memo — the oracle the batch path must match bit for bit.
    fn tree_walk(engine: &QueryEngine, e: &Event) -> Result<f64, SpplError> {
        engine.root().logprob(&e.canonical())
    }

    #[test]
    fn batched_equals_individual() {
        let engine = engine_xy();
        let events = vec![le("X", 0.0), le("Y", 1.0), le("X", -1.0)];
        let batch = engine.logprob_many(&events).unwrap();
        for (e, lp) in events.iter().zip(&batch) {
            assert_eq!(lp.to_bits(), tree_walk(&engine, e).unwrap().to_bits());
        }
        let probs = engine.prob_many(&events).unwrap();
        for (lp, p) in batch.iter().zip(&probs) {
            assert_eq!(lp.exp().clamp(0.0, 1.0).to_bits(), p.to_bits());
        }
    }

    #[test]
    fn batch_is_bit_identical_cold_and_warm() {
        let engine = engine_xy();
        let events: Vec<Event> = (0..96)
            .map(|i| le(if i % 2 == 0 { "X" } else { "Y" }, f64::from(i) / 16.0))
            .collect();
        let cold = engine.logprob_many(&events).unwrap();
        for (e, lp) in events.iter().zip(&cold) {
            assert_eq!(lp.to_bits(), tree_walk(&engine, e).unwrap().to_bits());
        }
        let warm = engine.logprob_many(&events).unwrap();
        engine.clear_caches();
        let recomputed = engine.logprob_many(&events).unwrap();
        for ((c, w), r) in cold.iter().zip(&warm).zip(&recomputed) {
            assert_eq!(c.to_bits(), w.to_bits());
            assert_eq!(c.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn batch_error_matches_per_event() {
        let engine = engine_xy();
        let mut events: Vec<Event> = (0..16).map(|i| le("X", f64::from(i))).collect();
        events.insert(7, le("Nope", 0.0));
        let err = engine.logprob_many(&events).unwrap_err();
        assert_eq!(err, tree_walk(&engine, &events[7]).unwrap_err());
        assert_eq!(err, engine.logprob(&events[7]).unwrap_err());
        // The answers before the failing event were published.
        let before = engine.stats();
        engine.logprob_many(&events[..7]).unwrap();
        assert_eq!(engine.stats().hits, before.hits + 7);
    }

    #[test]
    fn all_hit_or_empty_batch_leaves_arena_uncompiled() {
        let engine = engine_xy();
        assert!(engine.logprob_many(&[]).unwrap().is_empty());
        let events = vec![le("X", 0.5), le("Y", -0.5)];
        for e in &events {
            engine.logprob(e).unwrap();
        }
        let hits = engine.logprob_many(&events).unwrap();
        assert_eq!(engine.stats().hits, 2);
        assert!(engine.arena.get().is_none(), "no miss, no arena");
        for (e, lp) in events.iter().zip(&hits) {
            assert_eq!(lp.to_bits(), tree_walk(&engine, e).unwrap().to_bits());
        }
        engine.logprob_many(&[le("X", 2.0)]).unwrap();
        assert!(engine.arena.get().is_some(), "a miss compiles the arena");
    }

    #[test]
    fn condition_chain_matches_conjunction() {
        let engine = engine_xy();
        let e1 = le("X", 0.0);
        let e2 = le("Y", 0.0);
        let chained = engine.condition_chain(&[e1.clone(), e2.clone()]).unwrap();
        let joint = engine
            .condition(&Event::and(vec![e1.clone(), e2.clone()]))
            .unwrap();
        let probe = Event::and(vec![le("X", -1.0), le("Y", -1.0)]);
        assert!(approx_eq(
            chained.prob(&probe).unwrap(),
            joint.prob(&probe).unwrap(),
            1e-12
        ));
        // Empty chain is the prior.
        assert!(engine.condition_chain(&[]).unwrap().same(engine.root()));
    }

    #[test]
    fn chain_prefixes_are_cached() {
        let engine = engine_xy();
        let chain = [le("X", 0.0), le("Y", 0.0)];
        let a = engine.condition_chain(&chain).unwrap();
        let before = engine.stats();
        let b = engine.condition_chain(&chain).unwrap();
        let after = engine.stats();
        assert!(a.same(&b));
        assert_eq!(after.hits, before.hits + 2);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn zero_probability_chain_errors() {
        let engine = engine_xy();
        let impossible = Event::in_interval(
            Transform::id(Var::new("X")).pow_int(2),
            Interval::open(f64::NEG_INFINITY, 0.0),
        );
        assert!(matches!(
            engine.condition_chain(&[le("Y", 0.0), impossible]),
            Err(SpplError::ZeroProbability { .. })
        ));
    }

    #[test]
    fn unknown_variable_propagates() {
        let engine = engine_xy();
        assert!(matches!(
            engine.logprob(&le("Nope", 0.0)),
            Err(SpplError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn shared_cache_crosses_engines() {
        let cache = Arc::new(SharedCache::new(64));
        let a = {
            let f = Factory::new();
            let p = f
                .product(vec![normal(&f, "X", 0.0), normal(&f, "Y", 0.0)])
                .unwrap();
            QueryEngine::new(f, p).with_shared_cache(Arc::clone(&cache))
        };
        let b = {
            let f = Factory::new();
            let p = f
                .product(vec![normal(&f, "Y", 0.0), normal(&f, "X", 0.0)])
                .unwrap();
            QueryEngine::new(f, p).with_shared_cache(Arc::clone(&cache))
        };
        assert_eq!(
            a.model_digest(),
            b.model_digest(),
            "same model content must share one digest across factories"
        );
        let e = Event::and(vec![le("X", 0.25), le("Y", -0.5)]);
        let va = a.logprob(&e).unwrap();
        let before = cache.stats();
        let vb = b.logprob(&e).unwrap();
        let after = cache.stats();
        assert_eq!(va.to_bits(), vb.to_bits());
        assert_eq!(
            after.hits,
            before.hits + 1,
            "engine b must hit the shared cache"
        );
        // Engine b recorded an engine-level miss but never touched its
        // factory's evaluator for the whole query.
        assert_eq!(b.stats().misses, 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(global_pool().thread_count() >= 1);
    }

    #[test]
    fn hit_rate_reporting() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
        };
        assert!(approx_eq(s.hit_rate(), 0.75, 1e-12));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
