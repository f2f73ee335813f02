//! The [`Model`] session: one cheaply-cloneable handle that owns a
//! compiled sum-product expression together with everything needed to
//! query it fast, and — the point — stays closed under conditioning.
//!
//! The paper's central theorem (Thm. 4.1) says sum-product expressions
//! are closed under conditioning: the posterior of an SPE is again an
//! SPE. A public API should mirror that closure, so here
//! [`Model::condition`] and [`Model::constrain`] return *another
//! `Model`*, not a bare expression. The posterior model shares its
//! parent's [`Factory`] (pointer-identically, via `Arc`), so the intern
//! table and the node-level `prob`/`condition` memos stay warm across a
//! whole conditioning chain; and it inherits the parent's
//! [`SharedCache`] attachment, so whole-query results keep flowing
//! between sessions (keys never collide across distinct posteriors —
//! the model half of the key is the [deep content digest](Spe::digest),
//! which differs whenever the distribution does).
//!
//! # Caching
//!
//! `prob`/`condition` are already memoized *within* a call over the
//! deduplicated DAG ([`Factory::logprob`],
//! [`condition`]); a session adds the
//! *across-call* layer the paper's workflow implies (Fig. 7a: translate
//! once, then answer many queries). Whole-query results live in exactly
//! one bounded [`SharedCache`] per session: the one attached with
//! [`Model::with_shared_cache`], or else a private one created on the
//! first query and bounded to [`SharedCache::DEFAULT_CAPACITY`] entries.
//! Results are keyed by the model's [deep digest](Spe::digest) and the
//! [canonicalized](Event::canonical) event fingerprint, so:
//!
//! * a repeated query is a single cache lookup returning a bit-identical
//!   result;
//! * structurally equivalent events built in different operand orders hit
//!   the same entry;
//! * batched queries ([`Model::logprob_many`]) answer cache hits and
//!   in-batch repeats first and evaluate only the misses, in one pass
//!   over the [arena-compiled](ArenaModel) model;
//! * conditioning chains ([`Model::condition_chain`]) reuse both the
//!   factory's per-step memo and a session-level prefix cache.
//!
//! # Concurrency
//!
//! A `Model` is `Clone + Send + Sync` and all methods take `&self`:
//! clone it into as many threads or request handlers as needed — clones
//! share one set of session caches. Every cache is a sharded lock map
//! and every counter an atomic; inference is a pure function of the DAG
//! and the event, so concurrent callers see bit-identical answers
//! whichever of them fills a cache entry first.
//!
//! # Invalidation
//!
//! There is nothing to invalidate. A cached result is `ln P⟦S⟧ e`, a pure
//! function of the model content and the event, keyed by content hashes
//! of both, so no clear can make an entry stale. Clearing — via
//! [`Model::clear_caches`] or [`Factory::clear_caches`] — only releases
//! memory and resets statistics, and a clear racing in-flight queries
//! cannot change any answer.
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
//! let y = f.leaf(
//!     Var::new("Y"),
//!     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
//! );
//! let joint = f.product(vec![x, y]).unwrap();
//! let model = Model::new(f, joint);
//!
//! // Query the prior…
//! let p = model.prob(&(var("X").le(0.0) & var("Y").le(0.0))).unwrap();
//! assert!((p - 0.25).abs() < 1e-12);
//! assert_eq!(model.prob(&(var("Y").le(0.0) & var("X").le(0.0))).unwrap().to_bits(), p.to_bits());
//! assert_eq!(model.stats().hits, 1);
//!
//! // …condition, and query the posterior through the same kind of handle.
//! let posterior = model.condition(&var("X").le(0.0)).unwrap();
//! assert!(std::sync::Arc::ptr_eq(model.factory_arc(), posterior.factory_arc()));
//! assert!((posterior.prob(&var("X").gt(0.0)).unwrap()).abs() < 1e-12);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rand::Rng;

use crate::arena::ArenaModel;
use crate::cache::{CacheStats, SharedCache};
use crate::condition::condition;
use crate::density::{constrain, Assignment};
use crate::digest::{Fingerprint, ModelDigest};
use crate::error::SpplError;
use crate::event::Event;
use crate::simulate::Sample;
use crate::spe::{Factory, Spe};
use crate::sync_map::ShardedMap;

/// A queryable probabilistic-model session (see the [module docs](self)):
/// `Arc<Factory>` + root [`Spe`] + one bounded result cache, closed under
/// [`condition`](Model::condition) / [`constrain`](Model::constrain).
#[derive(Clone)]
pub struct Model {
    session: Arc<Session>,
}

/// The state every clone of one [`Model`] shares.
struct Session {
    factory: Arc<Factory>,
    root: Spe,
    /// Deep model digest, computed lazily (the model half of every
    /// result-cache key).
    digest: OnceLock<ModelDigest>,
    /// Arena-compiled form of `root`, built on first use and then shared
    /// (the process-wide arena registry dedupes by digest underneath).
    arena: OnceLock<Arc<ArenaModel>>,
    /// The attached cross-session result cache, if any.
    shared: Option<Arc<SharedCache>>,
    /// The result cache used when none is attached, created on first use.
    private: OnceLock<SharedCache>,
    /// Chain prefix key → posterior.
    cond_cache: ShardedMap<Fingerprint, Spe>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Seed for conditioning-chain prefix keys; [`Fingerprint::chain`] keeps
/// every chained key distinct from any single-event fingerprint path.
const CHAIN_SEED: Fingerprint = Fingerprint::from_u128(0x51c5_a9b3_7f4e_d081);

impl Session {
    fn new(factory: Arc<Factory>, root: Spe, shared: Option<Arc<SharedCache>>) -> Session {
        Session {
            factory,
            root,
            digest: OnceLock::new(),
            arena: OnceLock::new(),
            shared,
            private: OnceLock::new(),
            cond_cache: ShardedMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn model_digest(&self) -> ModelDigest {
        *self.digest.get_or_init(|| self.root.digest())
    }

    /// The one result cache this session answers from.
    fn cache(&self) -> &SharedCache {
        match &self.shared {
            Some(shared) => shared,
            None => self
                .private
                .get_or_init(|| SharedCache::new(SharedCache::DEFAULT_CAPACITY)),
        }
    }

    /// The cached answer for `key`, counting a hit or a miss.
    fn lookup(&self, key: Fingerprint) -> Option<f64> {
        let found = self.cache().get(self.model_digest(), key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a freshly computed answer and returns the value to serve:
    /// whatever the cache now holds under the key (first write wins, see
    /// [`SharedCache::insert`]).
    fn publish(&self, key: Fingerprint, computed: f64) -> f64 {
        self.cache().insert(self.model_digest(), key, computed)
    }
}

impl Model {
    /// Wraps a factory and the root expression it built into a session.
    /// Accepts an owned [`Factory`] or an `Arc<Factory>` shared with
    /// other sessions.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// assert!(model.root().is_leaf());
    /// ```
    pub fn new(factory: impl Into<Arc<Factory>>, root: Spe) -> Model {
        Model::from_session(Session::new(factory.into(), root, None))
    }

    fn from_session(session: Session) -> Model {
        Model {
            session: Arc::new(session),
        }
    }

    /// Attaches a cross-session [`SharedCache`] as this session's one
    /// result cache: `logprob`/`prob`/`logprob_many` look up (and fill)
    /// it, keyed by this model's [deep digest](Spe::digest), so sessions
    /// over separately compiled copies of the same model share entries.
    /// Posteriors derived from this model inherit the attachment. The
    /// returned model is a fresh session over the same factory and root:
    /// factory-level memos stay warm, while session statistics and chain
    /// prefixes start cold and any private cache is dropped.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let cache = Arc::new(SharedCache::new(128));
    /// let model = Model::new(f, x).with_shared_cache(Arc::clone(&cache));
    /// model.prob(&var("X").le(0.0)).unwrap();
    /// assert_eq!(cache.stats().entries, 1);
    /// ```
    pub fn with_shared_cache(self, cache: Arc<SharedCache>) -> Model {
        let s = &*self.session;
        Model::from_session(Session::new(
            Arc::clone(&s.factory),
            s.root.clone(),
            Some(cache),
        ))
    }

    /// The attached shared cache, if any.
    pub fn shared_cache(&self) -> Option<&Arc<SharedCache>> {
        self.session.shared.as_ref()
    }

    /// The factory this session builds in (for node-level cache
    /// statistics, or to construct further expressions over the same
    /// intern table).
    pub fn factory(&self) -> &Factory {
        &self.session.factory
    }

    /// The shared factory handle. Posteriors returned by
    /// [`Model::condition`] / [`Model::constrain`] satisfy
    /// `Arc::ptr_eq(parent.factory_arc(), posterior.factory_arc())`.
    pub fn factory_arc(&self) -> &Arc<Factory> {
        &self.session.factory
    }

    /// The compiled sum-product expression queries are answered against.
    pub fn root(&self) -> &Spe {
        &self.session.root
    }

    /// The root expression's deep content digest — the model half of the
    /// [`SharedCache`] key and the identity under which snapshots persist
    /// results. Equal for any two sessions over identical model content,
    /// across factories, processes, and builds of one
    /// [`DIGEST_VERSION`](crate::digest::DIGEST_VERSION).
    pub fn model_digest(&self) -> ModelDigest {
        self.session.model_digest()
    }

    /// Compiles this model (prior or posterior — any `Model`) into an
    /// [`ArenaModel`]: a flat, topologically-ordered arena whose batched
    /// `logprob_many`/`prob_many` answer bit-identically to this
    /// session's tree walker, without per-query cache traffic. The
    /// arena is built on first use, cached on the session, and shared
    /// across sessions by content digest, so calling this repeatedly —
    /// or from a digest-equal session — returns the same `Arc`.
    ///
    /// [`Model::logprob_many`] already evaluates its cache misses here;
    /// call this directly to evaluate a batch with no cache at all.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let arena = model.compile_arena();
    /// let batch = vec![var("X").le(0.0), var("X").gt(1.5)];
    /// let fast = arena.logprob_many(&batch).unwrap();
    /// for (event, fast) in batch.iter().zip(&fast) {
    ///     assert_eq!(fast.to_bits(), model.logprob(event).unwrap().to_bits());
    /// }
    /// ```
    pub fn compile_arena(&self) -> Arc<ArenaModel> {
        let s = &*self.session;
        Arc::clone(s.arena.get_or_init(|| ArenaModel::compile(&s.root)))
    }

    /// Natural log of the probability of `event`, cached across calls in
    /// the session's result cache (across sessions too, when a shared
    /// cache is attached). A miss is evaluated by the tree walker.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spe::logprob`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let lp = model.logprob(&var("X").le(0.0)).unwrap();
    /// assert!((lp - 0.5f64.ln()).abs() < 1e-12);
    /// ```
    pub fn logprob(&self, event: &Event) -> Result<f64, SpplError> {
        let s = &*self.session;
        let canonical = event.canonical();
        let key = canonical.fingerprint();
        if let Some(value) = s.lookup(key) {
            return Ok(value);
        }
        let computed = s.factory.logprob(&s.root, &canonical)?;
        Ok(s.publish(key, computed))
    }

    /// The probability of `event`, clamped to `[0, 1]` (see [`Spe::prob`]
    /// for why the clamp matters near one).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Spe::logprob`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// assert!((model.prob(&var("X").le(0.0)).unwrap() - 0.5).abs() < 1e-12);
    /// ```
    pub fn prob(&self, event: &Event) -> Result<f64, SpplError> {
        Ok(self.logprob(event)?.exp().clamp(0.0, 1.0))
    }

    /// Batched [`Model::logprob`], bit-identical to calling it per
    /// event. Each event is canonicalized and fingerprinted once and
    /// answered from an earlier occurrence in the batch or from the
    /// session's result cache, with the same hit/miss counts a per-event
    /// loop records. The remaining misses are evaluated together in one
    /// pass over the [arena](Model::compile_arena) — compiled only if
    /// there is a miss — and published under the keys `logprob` uses.
    ///
    /// # Errors
    ///
    /// The first failing event's error, as [`Spe::logprob`] reports it.
    /// The answers computed before it are still published; the lookups
    /// of the whole batch have been counted.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let lps = model.logprob_many(&[var("X").le(0.0), var("X").gt(0.0)]).unwrap();
    /// assert_eq!(lps.len(), 2);
    /// ```
    pub fn logprob_many(&self, events: &[Event]) -> Result<Vec<f64>, SpplError> {
        let s = &*self.session;
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
            if let Some(&m) = first_miss.get(&key) {
                s.hits.fetch_add(1, Ordering::Relaxed);
                repeats.push((i, m));
            } else if let Some(value) = s.lookup(key) {
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
                out[i] = s.publish(key, value);
            }
            status?;
        }
        // A repeat looks up the entry its first occurrence just published,
        // as it would in the per-event loop (the cache counts the hit and
        // refreshes recency); if that entry was already evicted, the
        // published value still answers.
        let digest = s.model_digest();
        for (i, m) in repeats {
            out[i] = s
                .cache()
                .get(digest, miss_keys[m])
                .unwrap_or(out[miss_at[m]]);
        }
        Ok(out)
    }

    /// Batched [`Model::prob`] with the same clamping.
    ///
    /// # Errors
    ///
    /// As [`Model::logprob_many`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let ps = model.prob_many(&[var("X").le(0.0), var("X").gt(0.0)]).unwrap();
    /// assert!((ps[0] + ps[1] - 1.0).abs() < 1e-12);
    /// ```
    pub fn prob_many(&self, events: &[Event]) -> Result<Vec<f64>, SpplError> {
        Ok(self
            .logprob_many(events)?
            .into_iter()
            .map(|lp| lp.exp().clamp(0.0, 1.0))
            .collect())
    }

    /// Conditions the model on a positive-probability `event` (Thm. 4.1)
    /// and returns the posterior **as another `Model`** — the closure
    /// property, surfaced. The posterior shares this session's factory
    /// pointer-identically (one intern table, warm node-level memos) and
    /// inherits its [`SharedCache`] attachment, so a conditioning chain
    /// never cools the caches. Conditioning itself is memoized: repeating
    /// a chain is pure lookups, and two posteriors conditioned on the
    /// same event share one underlying expression.
    ///
    /// # Errors
    ///
    /// Same conditions as [`condition`]; in
    /// particular [`SpplError::ZeroProbability`] when `P(event) = 0`.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let posterior = model.condition(&var("X").gt(0.0)).unwrap();
    /// assert!(Arc::ptr_eq(model.factory_arc(), posterior.factory_arc()));
    /// assert!((posterior.prob(&var("X").gt(0.0)).unwrap() - 1.0).abs() < 1e-9);
    /// ```
    pub fn condition(&self, event: &Event) -> Result<Model, SpplError> {
        self.condition_chain(std::slice::from_ref(event))
    }

    /// Sequentially conditions on each event in turn — the filtering
    /// workflow `S | e₁ | e₂ | …` — returning the final posterior as a
    /// `Model`. Every prefix posterior is cached in the session, so
    /// extending an already-computed chain pays only for the new suffix.
    /// **Empty-chain semantics**: `condition_chain(&[])` is the identity
    /// — it returns a model over this session's own root (matching
    /// [`Event::and`]'s empty conjunction being trivially true).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Model::condition`].
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let chained = model
    ///     .condition_chain(&[var("X").gt(-1.0), var("X").lt(1.0)])
    ///     .unwrap();
    /// let joint = model
    ///     .condition(&(var("X").gt(-1.0) & var("X").lt(1.0)))
    ///     .unwrap();
    /// let probe = var("X").le(0.5);
    /// assert!((chained.prob(&probe).unwrap() - joint.prob(&probe).unwrap()).abs() < 1e-12);
    /// // The empty chain is the identity.
    /// assert!(model.condition_chain(&[]).unwrap().root().same(model.root()));
    /// ```
    pub fn condition_chain(&self, events: &[Event]) -> Result<Model, SpplError> {
        let s = &*self.session;
        let mut current = s.root.clone();
        let mut key = CHAIN_SEED;
        for event in events {
            let canonical = event.canonical();
            key = key.chain(canonical.fingerprint());
            if let Some(posterior) = s.cond_cache.get(&key) {
                s.hits.fetch_add(1, Ordering::Relaxed);
                current = posterior;
                continue;
            }
            s.misses.fetch_add(1, Ordering::Relaxed);
            current = condition(&s.factory, &current, &canonical)?;
            s.cond_cache.insert(key, current.clone());
        }
        Ok(self.child(current))
    }

    /// Conditions on a conjunction of (possibly measure-zero) equality
    /// observations on base variables — the paper's `constrain` query
    /// (Lst. 7) — returning the posterior as a `Model` with the same
    /// factory/shared-cache inheritance as [`Model::condition`].
    ///
    /// # Errors
    ///
    /// Same conditions as the free [`constrain`] function.
    ///
    /// ```
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let y = f.leaf(
    ///     Var::new("Y"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let joint = f.product(vec![x, y]).unwrap();
    /// let model = Model::new(f, joint);
    /// let mut obs = Assignment::new();
    /// obs.insert(Var::new("X"), Outcome::Real(0.7));
    /// let posterior = model.constrain(&obs).unwrap();
    /// // X is observed; Y's marginal is untouched.
    /// assert!((posterior.prob(&var("Y").le(0.0)).unwrap() - 0.5).abs() < 1e-12);
    /// ```
    pub fn constrain(&self, assignment: &Assignment) -> Result<Model, SpplError> {
        Ok(self.child(constrain(self.factory(), self.root(), assignment)?))
    }

    /// Draws one joint ancestral sample of every variable in scope
    /// (Prop. A.1).
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let mut rng = StdRng::seed_from_u64(1);
    /// assert!(model.sample(&mut rng).real(&Var::new("X")).is_some());
    /// ```
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Sample {
        self.root().sample(rng)
    }

    /// Draws `n` independent joint samples.
    ///
    /// ```
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    /// use sppl_core::prelude::*;
    ///
    /// let f = Factory::new();
    /// let x = f.leaf(
    ///     Var::new("X"),
    ///     Distribution::Real(DistReal::new(Cdf::normal(0.0, 1.0), Interval::all()).unwrap()),
    /// );
    /// let model = Model::new(f, x);
    /// let mut rng = StdRng::seed_from_u64(1);
    /// assert_eq!(model.sample_many(&mut rng, 3).len(), 3);
    /// ```
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Sample> {
        self.root().sample_many(rng, n)
    }

    /// Session-level cache statistics. Hits count lookups answered by
    /// the session's result cache (attached or private), repeats within
    /// a [`logprob_many`](Model::logprob_many) batch, and cached chain
    /// prefixes; misses count evaluations. Entries are those of the
    /// result cache — for an attached cache, every session's — plus the
    /// chain prefixes. Shared by all clones of this handle, *not* by
    /// posteriors — each posterior model has its own session over the
    /// shared factory. For the node-level tables underneath, see
    /// [`Factory::prob_cache_stats`] and [`Factory::cond_cache_stats`];
    /// for an attached cache's own counts, see [`SharedCache::stats`].
    pub fn stats(&self) -> CacheStats {
        let s = &*self.session;
        CacheStats {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            entries: s.cache().stats().entries + s.cond_cache.len(),
        }
    }

    /// Clears the shared factory's node-level caches, this session's
    /// private result cache and chain prefixes, and this session's
    /// statistics. **The factory is shared**: sibling sessions and
    /// posteriors over the same factory lose its node memos too, but
    /// keep their own result caches. An attached [`SharedCache`] is not
    /// touched — its entries are pure values shared with other sessions;
    /// clear it explicitly via [`SharedCache::clear`] if the memory must
    /// go.
    pub fn clear_caches(&self) {
        let s = &*self.session;
        s.factory.clear_caches();
        if let Some(private) = s.private.get() {
            private.clear();
        }
        s.cond_cache.clear();
        s.hits.store(0, Ordering::Relaxed);
        s.misses.store(0, Ordering::Relaxed);
    }

    /// A posterior session over `root`, sharing this session's factory
    /// and shared-cache attachment.
    fn child(&self, root: Spe) -> Model {
        let s = &*self.session;
        Model::from_session(Session::new(Arc::clone(&s.factory), root, s.shared.clone()))
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("scope", &self.root().scope())
            .field("stats", &self.stats())
            .field("shared_cache", &self.shared_cache().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::var;
    use sppl_dists::{Cdf, DistReal, Distribution};
    use sppl_num::float::approx_eq;
    use sppl_sets::Interval;

    fn normal(f: &Factory, name: &str, mu: f64) -> Spe {
        f.leaf(
            crate::var::Var::new(name),
            Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
        )
    }

    fn xy_model() -> Model {
        let f = Factory::new();
        let p = f
            .product(vec![normal(&f, "X", 0.0), normal(&f, "Y", 0.0)])
            .unwrap();
        Model::new(f, p)
    }

    #[test]
    fn model_is_send_sync_clone() {
        fn assert_bounds<T: Send + Sync + Clone>() {}
        assert_bounds::<Model>();
    }

    #[test]
    fn clones_share_engine_caches() {
        let model = xy_model();
        let clone = model.clone();
        let e = var("X").le(0.0);
        model.prob(&e).unwrap();
        let stats = clone.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        clone.prob(&e).unwrap();
        assert_eq!(model.stats().hits, 1, "clone's query must hit the cache");
    }

    #[test]
    fn posterior_shares_factory_pointer() {
        let model = xy_model();
        let posterior = model.condition(&var("X").le(0.0)).unwrap();
        assert!(Arc::ptr_eq(model.factory_arc(), posterior.factory_arc()));
        let deeper = posterior.condition(&var("Y").le(0.0)).unwrap();
        assert!(Arc::ptr_eq(model.factory_arc(), deeper.factory_arc()));
    }

    #[test]
    fn condition_matches_bayes() {
        let model = xy_model();
        let e = var("X").le(0.0) & var("Y").le(0.0);
        let posterior = model.condition(&var("X").le(0.0)).unwrap();
        // P(Y ≤ 0 | X ≤ 0) = P(X ≤ 0 ∧ Y ≤ 0) / P(X ≤ 0).
        let lhs = posterior.prob(&var("Y").le(0.0)).unwrap();
        let rhs = model.prob(&e).unwrap() / model.prob(&var("X").le(0.0)).unwrap();
        assert!(approx_eq(lhs, rhs, 1e-12));
    }

    #[test]
    fn repeated_conditioning_reuses_memoized_posterior() {
        let model = xy_model();
        let e = var("X").le(0.0);
        let a = model.condition(&e).unwrap();
        let b = model.condition(&e).unwrap();
        assert!(
            a.root().same(b.root()),
            "memoized conditioning must hand both posteriors one expression"
        );
        assert_eq!(a.model_digest(), b.model_digest());
    }

    #[test]
    fn posterior_digest_differs_from_parent() {
        let model = xy_model();
        let posterior = model.condition(&var("X").le(0.0)).unwrap();
        assert_ne!(
            model.model_digest(),
            posterior.model_digest(),
            "distinct distributions must key the shared cache distinctly"
        );
    }

    #[test]
    fn shared_cache_inherited_by_posteriors() {
        let cache = Arc::new(SharedCache::new(64));
        let model = xy_model().with_shared_cache(Arc::clone(&cache));
        let posterior = model.condition(&var("X").le(0.0)).unwrap();
        assert!(posterior.shared_cache().is_some());
        posterior.prob(&var("Y").le(0.0)).unwrap();
        // The posterior's query landed in the shared cache under its own
        // digest.
        assert!(cache.stats().entries >= 1);
    }

    #[test]
    fn zero_probability_condition_errors() {
        let model = xy_model();
        let impossible = var("X").pow_int(2).lt(0.0);
        assert!(matches!(
            model.condition(&impossible),
            Err(SpplError::ZeroProbability { .. })
        ));
    }

    #[test]
    fn empty_condition_chain_is_identity() {
        let model = xy_model();
        let same = model.condition_chain(&[]).unwrap();
        assert!(same.root().same(model.root()));
        assert!(Arc::ptr_eq(model.factory_arc(), same.factory_arc()));
    }

    #[test]
    fn matches_direct_logprob() {
        let model = xy_model();
        let e = var("X").le(0.0) & var("Y").le(0.0);
        let direct = model.root().logprob(&e).unwrap();
        assert_eq!(model.logprob(&e).unwrap(), direct);
        assert!(approx_eq(model.prob(&e).unwrap(), 0.25, 1e-12));
    }

    /// The per-event tree walk over the canonical event, with a fresh
    /// memo — the oracle the batch path must match bit for bit.
    fn tree_walk(model: &Model, e: &Event) -> Result<f64, SpplError> {
        model.root().logprob(&e.canonical())
    }

    #[test]
    fn batched_equals_individual() {
        let model = xy_model();
        let events = vec![var("X").le(0.0), var("Y").le(1.0), var("X").le(-1.0)];
        let batch = model.logprob_many(&events).unwrap();
        for (e, lp) in events.iter().zip(&batch) {
            assert_eq!(lp.to_bits(), tree_walk(&model, e).unwrap().to_bits());
        }
        let probs = model.prob_many(&events).unwrap();
        for (lp, p) in batch.iter().zip(&probs) {
            assert_eq!(lp.exp().clamp(0.0, 1.0).to_bits(), p.to_bits());
        }
    }

    #[test]
    fn batch_is_bit_identical_cold_and_warm() {
        let model = xy_model();
        let events: Vec<Event> = (0..96)
            .map(|i| var(if i % 2 == 0 { "X" } else { "Y" }).le(f64::from(i) / 16.0))
            .collect();
        let cold = model.logprob_many(&events).unwrap();
        for (e, lp) in events.iter().zip(&cold) {
            assert_eq!(lp.to_bits(), tree_walk(&model, e).unwrap().to_bits());
        }
        let warm = model.logprob_many(&events).unwrap();
        model.clear_caches();
        let recomputed = model.logprob_many(&events).unwrap();
        for ((c, w), r) in cold.iter().zip(&warm).zip(&recomputed) {
            assert_eq!(c.to_bits(), w.to_bits());
            assert_eq!(c.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn batch_error_matches_per_event() {
        let model = xy_model();
        let mut events: Vec<Event> = (0..16).map(|i| var("X").le(f64::from(i))).collect();
        events.insert(7, var("Nope").le(0.0));
        let err = model.logprob_many(&events).unwrap_err();
        assert_eq!(err, tree_walk(&model, &events[7]).unwrap_err());
        assert_eq!(err, model.logprob(&events[7]).unwrap_err());
        // The answers before the failing event were published.
        let before = model.stats();
        model.logprob_many(&events[..7]).unwrap();
        assert_eq!(model.stats().hits, before.hits + 7);
    }

    #[test]
    fn all_hit_or_empty_batch_leaves_arena_uncompiled() {
        let model = xy_model();
        assert!(model.logprob_many(&[]).unwrap().is_empty());
        let events = vec![var("X").le(0.5), var("Y").le(-0.5)];
        for e in &events {
            model.logprob(e).unwrap();
        }
        let hits = model.logprob_many(&events).unwrap();
        assert_eq!(model.stats().hits, 2);
        assert!(model.session.arena.get().is_none(), "no miss, no arena");
        for (e, lp) in events.iter().zip(&hits) {
            assert_eq!(lp.to_bits(), tree_walk(&model, e).unwrap().to_bits());
        }
        model.logprob_many(&[var("X").le(2.0)]).unwrap();
        assert!(
            model.session.arena.get().is_some(),
            "a miss compiles the arena"
        );
    }

    #[test]
    fn condition_chain_matches_conjunction() {
        let model = xy_model();
        let (e1, e2) = (var("X").le(0.0), var("Y").le(0.0));
        let chained = model.condition_chain(&[e1.clone(), e2.clone()]).unwrap();
        let joint = model.condition(&(e1 & e2)).unwrap();
        let probe = var("X").le(-1.0) & var("Y").le(-1.0);
        assert!(approx_eq(
            chained.prob(&probe).unwrap(),
            joint.prob(&probe).unwrap(),
            1e-12
        ));
    }

    #[test]
    fn chain_prefixes_are_cached() {
        let model = xy_model();
        let chain = [var("X").le(0.0), var("Y").le(0.0)];
        let a = model.condition_chain(&chain).unwrap();
        let before = model.stats();
        let b = model.condition_chain(&chain).unwrap();
        let after = model.stats();
        assert!(a.root().same(b.root()));
        assert_eq!(after.hits, before.hits + 2);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn zero_probability_chain_errors() {
        let model = xy_model();
        let impossible = var("X").pow_int(2).lt(0.0);
        assert!(matches!(
            model.condition_chain(&[var("Y").le(0.0), impossible]),
            Err(SpplError::ZeroProbability { .. })
        ));
        // Both steps were evaluated, so both count as misses — the
        // failing one included.
        assert_eq!(model.stats().misses, 2);
    }

    #[test]
    fn unknown_variable_propagates() {
        let model = xy_model();
        assert!(matches!(
            model.logprob(&var("Nope").le(0.0)),
            Err(SpplError::UnknownVariable { .. })
        ));
    }

    #[test]
    fn shared_cache_crosses_sessions() {
        let cache = Arc::new(SharedCache::new(64));
        let session = |names: [&str; 2]| {
            let f = Factory::new();
            let p = f
                .product(vec![normal(&f, names[0], 0.0), normal(&f, names[1], 0.0)])
                .unwrap();
            Model::new(f, p).with_shared_cache(Arc::clone(&cache))
        };
        let (a, b) = (session(["X", "Y"]), session(["Y", "X"]));
        assert_eq!(
            a.model_digest(),
            b.model_digest(),
            "same model content must share one digest across factories"
        );
        let e = var("X").le(0.25) & var("Y").le(-0.5);
        let va = a.logprob(&e).unwrap();
        let before = cache.stats();
        let vb = b.logprob(&e).unwrap();
        let after = cache.stats();
        assert_eq!(va.to_bits(), vb.to_bits());
        assert_eq!(
            after.hits,
            before.hits + 1,
            "session b must hit the shared cache"
        );
        // Session b's one lookup was that shared hit: it never touched its
        // factory's evaluator for the whole query.
        let sb = b.stats();
        assert_eq!((sb.hits, sb.misses), (1, 0));
    }

    #[test]
    fn debug_is_informative() {
        let model = xy_model();
        let s = format!("{model:?}");
        assert!(s.contains("Model") && s.contains("scope"));
    }
}
