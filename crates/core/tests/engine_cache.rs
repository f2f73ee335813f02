//! Cache invariants of the [`Model`] session: repeated queries are
//! bit-identical hits, canonicalization folds structurally equivalent
//! events onto one entry, `clear_caches` empties the session, a batch
//! counts and fills the session's one result cache exactly as the
//! per-event loop does, and that cache never outgrows its bound.

use std::sync::Arc;

use sppl_core::prelude::*;

fn normal(f: &Factory, name: &str, mu: f64) -> Spe {
    f.leaf(
        Var::new(name),
        Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
    )
}

/// X ⊗ Y session (independent standard normals).
fn engine() -> Model {
    let f = Factory::new();
    let p = f
        .product(vec![normal(&f, "X", 0.0), normal(&f, "Y", 0.0)])
        .unwrap();
    Model::new(f, p)
}

fn le(name: &str, v: f64) -> Event {
    Event::le(Transform::id(Var::new(name)), v)
}

#[test]
fn repeated_query_is_a_bit_identical_hit() {
    let engine = engine();
    let e = Event::and(vec![le("X", 0.3), le("Y", -0.7)]);
    let cold = engine.logprob(&e).unwrap();
    let s1 = engine.stats();
    assert_eq!((s1.hits, s1.misses, s1.entries), (0, 1, 1));

    let warm = engine.logprob(&e).unwrap();
    let s2 = engine.stats();
    assert_eq!(cold.to_bits(), warm.to_bits());
    assert_eq!((s2.hits, s2.misses, s2.entries), (1, 1, 1));
}

#[test]
fn repeated_condition_is_a_hit_returning_the_same_node() {
    let engine = engine();
    let e = le("X", 0.0);
    let p1 = engine.condition(&e).unwrap();
    let p2 = engine.condition(&e).unwrap();
    assert!(
        p1.root().same(p2.root()),
        "cached posterior must be the same physical node"
    );
    let s = engine.stats();
    assert_eq!((s.hits, s.misses), (1, 1));
}

#[test]
fn structurally_equal_events_share_one_entry() {
    let engine = engine();
    let a = le("X", 0.0);
    let b = le("Y", 0.0);
    // Same predicate, built separately in opposite operand order and with
    // gratuitous nesting — raw fingerprints differ, canonical ones agree.
    let e1 = Event::And(vec![a.clone(), b.clone()]);
    let e2 = Event::And(vec![b.clone(), Event::And(vec![a.clone()])]);
    assert_ne!(e1.fingerprint(), e2.fingerprint());

    let v1 = engine.logprob(&e1).unwrap();
    let v2 = engine.logprob(&e2).unwrap();
    assert_eq!(v1.to_bits(), v2.to_bits());
    let s = engine.stats();
    assert_eq!(
        (s.hits, s.misses, s.entries),
        (1, 1, 1),
        "canonicalization must fold both spellings onto one cache entry"
    );
}

#[test]
fn clear_caches_resets_stats_and_entries() {
    let engine = engine();
    let e = le("X", 1.0);
    engine.logprob(&e).unwrap();
    engine.logprob(&e).unwrap();
    engine.condition(&e).unwrap();
    assert!(engine.stats().entries > 0);
    assert!(engine.factory().prob_cache_stats().entries > 0);

    engine.clear_caches();
    assert_eq!(engine.stats(), CacheStats::default());
    assert_eq!(engine.factory().prob_cache_stats(), CacheStats::default());
    assert_eq!(engine.factory().cond_cache_stats(), CacheStats::default());

    // The engine still answers (and repopulates) after a clear.
    let again = engine.logprob(&e).unwrap();
    assert_eq!(again.to_bits(), engine.logprob(&e).unwrap().to_bits());
    let s = engine.stats();
    assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
}

#[test]
fn batched_stats_account_every_lookup() {
    let engine = engine();
    let queries: Vec<Event> = (0..8).map(|i| le("X", f64::from(i) / 4.0)).collect();
    let cold = engine.logprob_many(&queries).unwrap();
    let warm = engine.logprob_many(&queries).unwrap();
    assert_eq!(cold, warm);
    let s = engine.stats();
    assert_eq!((s.hits, s.misses, s.entries), (8, 8, 8));
    // The second pass was answered entirely from cache.
    assert!((s.hit_rate() - 0.5).abs() < 1e-12);
}

/// A session over X ⊗ Y sharing `cache`, with `pre` queried by this
/// session and `shared` queried into the cache by a sibling session only.
fn primed(cache: &Arc<SharedCache>, pre: &[Event], shared: &[Event]) -> Model {
    let sibling = engine().with_shared_cache(Arc::clone(cache));
    for e in shared {
        sibling.logprob(e).unwrap();
    }
    let engine = engine().with_shared_cache(Arc::clone(cache));
    for e in pre {
        engine.logprob(e).unwrap();
    }
    engine
}

#[test]
fn batch_memo_semantics_match_the_per_event_loop() {
    let pre = [le("X", 0.1), Event::and(vec![le("X", 0.2), le("Y", 0.3)])];
    let shared = [le("Y", -0.4), le("X", 1.5)];
    let fresh = [le("Y", 0.9), Event::and(vec![le("Y", 0.5), le("X", -0.5)])];
    // Pre-cached, shared-only, and fresh events, each repeated in the
    // batch — one repeat in a different operand order.
    let batch = vec![
        pre[0].clone(),
        fresh[0].clone(),
        shared[0].clone(),
        fresh[0].clone(),
        pre[1].clone(),
        fresh[1].clone(),
        shared[0].clone(),
        Event::and(vec![le("X", -0.5), le("Y", 0.5)]),
        shared[1].clone(),
        pre[0].clone(),
    ];

    let loop_cache = Arc::new(SharedCache::new(64));
    let looped = primed(&loop_cache, &pre, &shared);
    let want: Vec<f64> = batch.iter().map(|e| looped.logprob(e).unwrap()).collect();

    let batch_cache = Arc::new(SharedCache::new(64));
    let batched = primed(&batch_cache, &pre, &shared);
    let got = batched.logprob_many(&batch).unwrap();

    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), w.to_bits());
    }
    assert_eq!(batched.stats(), looped.stats());
    assert_eq!(batch_cache.stats(), loop_cache.stats());
    // Hits: 3 on pre-cached events, 3 on events the sibling cached, 2 on
    // repeats of this batch's misses. Misses: 2 while priming, then 2
    // evaluations. Entries: the cache's 2 + 2 + 2.
    let s = batched.stats();
    assert_eq!((s.hits, s.misses, s.entries), (3 + 3 + 2, 2 + 2, 6));
}

#[test]
fn result_cache_stays_within_its_bound() {
    let cache = Arc::new(SharedCache::new(64));
    let engine = engine().with_shared_cache(Arc::clone(&cache));
    let oracle = |e: &Event| engine.root().logprob(&e.canonical()).unwrap();
    let bounded = |engine: &Model| {
        assert!(engine.stats().entries <= 64);
        assert!(cache.stats().entries <= 64);
    };
    // 1,000 distinct events: half one at a time, half in batches of 50.
    for i in 0..500 {
        let e = le("X", f64::from(i) / 100.0);
        assert_eq!(engine.logprob(&e).unwrap().to_bits(), oracle(&e).to_bits());
        bounded(&engine);
    }
    let events: Vec<Event> = (0..500).map(|i| le("Y", f64::from(i) / 100.0)).collect();
    for batch in events.chunks(50) {
        let got = engine.logprob_many(batch).unwrap();
        for (g, e) in got.iter().zip(batch) {
            assert_eq!(g.to_bits(), oracle(e).to_bits());
        }
        bounded(&engine);
    }
    assert_eq!(engine.stats().misses, 1000);
}
