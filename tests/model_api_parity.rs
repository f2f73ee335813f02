//! API-parity suite: every [`Model`] query must be **bit-identical** to
//! the free-function path (`Factory` + bare `Spe`) on the paper's
//! models — the session surface is a re-packaging, not a
//! re-implementation — and the explicit-pool fan-outs (`par_*_in`) must
//! be bit-identical to the sequential walk. Also pins the session's
//! headline guarantees: posteriors share the parent's factory
//! pointer-identically, and a conditioning chain keeps serving (and
//! filling) the parent's [`SharedCache`].

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl::core::{par_condition_in, par_constrain_in};
use sppl::lang::par_translate_in;
use sppl::models::{fairness, hmm, indian_gpa, psi_suite, rare_event};
use sppl::prelude::*;

mod common;
use common::{build_event, build_source, grid, lit_specs, var_spec};

/// The Fig. 2 evidence, in DSL form.
fn gpa_evidence() -> Event {
    (var("Nationality").eq("USA") & var("GPA").gt(3.0))
        | var("GPA").in_interval(Interval::open(8.0, 10.0))
}

/// A spread of Indian-GPA queries touching atoms, intervals, nominals,
/// and conjunctions/disjunctions.
fn gpa_queries() -> Vec<Event> {
    vec![
        var("GPA").le(4.0),
        var("GPA").lt(4.0),
        var("GPA").in_interval(Interval::open(8.0, 10.0)),
        var("Nationality").eq("India"),
        var("Perfect").eq(1.0),
        var("Perfect").eq(1.0) | (var("Nationality").eq("India") & var("GPA").gt(3.0)),
        gpa_evidence(),
    ]
}

#[test]
fn indian_gpa_model_matches_legacy_path_bit_for_bit() {
    let source = indian_gpa::model().source;

    // One compiled artifact, two API surfaces. (Bit-identity across
    // *separately compiled* copies is covered — also exactly — by
    // `independently_compiled_session_agrees_bit_for_bit`.)
    let factory = Arc::new(Factory::new());
    let spe = compile(&factory, &source).expect("compiles");

    // Legacy: hand-threaded (Factory, Spe) pair plus a separate engine.
    let legacy = Model::new(Arc::clone(&factory), spe.clone());

    // Session-first.
    let model = Model::new(factory, spe);

    for q in gpa_queries() {
        assert_eq!(
            legacy.logprob(&q).unwrap().to_bits(),
            model.logprob(&q).unwrap().to_bits(),
            "logprob diverged on {q}"
        );
        assert_eq!(
            legacy.prob(&q).unwrap().to_bits(),
            model.prob(&q).unwrap().to_bits(),
            "prob diverged on {q}"
        );
    }

    // Batched variants agree with each other and with the per-event
    // tree walk over the canonical event (a fresh memo per event).
    let batch = gpa_queries();
    let legacy_many = legacy.logprob_many(&batch).unwrap();
    let model_many = model.logprob_many(&batch).unwrap();
    let model_probs = model.prob_many(&batch).unwrap();
    for (i, q) in batch.iter().enumerate() {
        let tree = model.root().logprob(&q.canonical()).unwrap();
        assert_eq!(legacy_many[i].to_bits(), tree.to_bits());
        assert_eq!(model_many[i].to_bits(), tree.to_bits());
        assert_eq!(
            model_probs[i].to_bits(),
            tree.exp().clamp(0.0, 1.0).to_bits()
        );
    }

    // Posterior parity: legacy condition() hands back a bare Spe; the
    // model's posterior must answer identically (and from an identical
    // expression — conditioning is memoized in the shared factory).
    let evidence = gpa_evidence();
    let legacy_posterior = legacy.condition(&evidence).unwrap();
    let model_posterior = model.condition(&evidence).unwrap();
    for q in gpa_queries() {
        assert_eq!(
            legacy_posterior.logprob(&q).unwrap().to_bits(),
            model_posterior.logprob(&q).unwrap().to_bits(),
            "posterior logprob diverged on {q}"
        );
    }

    // Sampling parity: same structure + same seed ⇒ same draws.
    let mut rng_a = StdRng::seed_from_u64(7);
    let mut rng_b = StdRng::seed_from_u64(7);
    for _ in 0..32 {
        assert_eq!(
            legacy_posterior.sample(&mut rng_a),
            model_posterior.sample(&mut rng_b)
        );
    }
}

#[test]
fn hmm_smoothing_matches_legacy_path_bit_for_bit() {
    const N: usize = 12;
    let source = hmm::hierarchical_hmm(N).source;
    let mut rng = StdRng::seed_from_u64(4242);
    let trace = hmm::simulate_trace(&mut rng, N);
    let observations = hmm::observation_assignment(&trace.x, &trace.y);

    // One compiled artifact, two surfaces (see the Indian-GPA test).
    let factory = Arc::new(Factory::new());
    let spe = compile(&factory, &source).expect("compiles");

    // Legacy: constrain through the free function, query through an
    // engine built by hand over the posterior.
    let legacy_posterior = constrain(&factory, &spe, &observations).expect("positive density");
    let legacy = Model::new(Arc::clone(&factory), legacy_posterior);

    // Session-first: constrain returns the posterior session directly.
    let model = Model::new(factory, spe);
    let posterior = model.constrain(&observations).expect("positive density");

    let mut batch = hmm::smoothing_queries(N);
    batch.extend(hmm::pairwise_queries(N));
    let legacy_answers = legacy.logprob_many(&batch).unwrap();
    let model_answers = posterior.logprob_many(&batch).unwrap();
    for (i, q) in batch.iter().enumerate() {
        let tree = posterior.root().logprob(&q.canonical()).unwrap();
        assert_eq!(
            legacy_answers[i].to_bits(),
            tree.to_bits(),
            "smoothing query {i} diverged"
        );
        assert_eq!(model_answers[i].to_bits(), tree.to_bits());
    }

    // condition_chain parity against the engine's chain on the same
    // posterior, including the documented empty-chain identity.
    let chain = [hmm::hidden_state_event(0), hmm::hidden_state_event(1)];
    let legacy_chained = legacy.condition_chain(&chain).unwrap();
    let model_chained = posterior.condition_chain(&chain).unwrap();
    let probe = hmm::hidden_state_event(2);
    assert_eq!(
        legacy_chained.logprob(&probe).unwrap().to_bits(),
        model_chained.logprob(&probe).unwrap().to_bits()
    );
    assert!(posterior
        .condition_chain(&[])
        .unwrap()
        .root()
        .same(posterior.root()));
}

#[test]
fn independently_compiled_session_agrees_bit_for_bit() {
    // `Model::compile` builds its own factory; answers must agree with a
    // hand-threaded compilation *exactly*. Sum children are canonically
    // ordered by (content digest, weight) at construction, so evaluation
    // order — and therefore every log-sum-exp rounding — is a function of
    // model content alone, not of pointer addresses: separately compiled
    // copies of one source produce bit-identical answers, with no shared
    // cache papering over a last ulp.
    let source = indian_gpa::model().source;
    let factory = Factory::new();
    let spe = compile(&factory, &source).expect("compiles");
    let legacy = Model::new(factory, spe);
    let model = Model::compile(&source).expect("compiles");
    assert_eq!(legacy.model_digest(), model.model_digest());
    for q in gpa_queries() {
        let a = legacy.prob(&q).unwrap();
        let b = model.prob(&q).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "{q}: {a} vs {b}");
        let (la, lb) = (legacy.logprob(&q).unwrap(), model.logprob(&q).unwrap());
        assert_eq!(la.to_bits(), lb.to_bits(), "{q}: logprob {la} vs {lb}");
    }
    // The guarantee survives conditioning: posteriors derived in each
    // compilation answer identically too (condition re-normalizes sums,
    // which re-canonicalizes them by content).
    let legacy_post = legacy.condition(&gpa_evidence()).unwrap();
    let model_post = model.condition(&gpa_evidence()).unwrap();
    assert_eq!(
        legacy_post.root().digest(),
        model_post.root().digest(),
        "posterior content must be digest-identical across compiles"
    );
    for q in gpa_queries() {
        assert_eq!(
            legacy_post.logprob(&q).unwrap().to_bits(),
            model_post.logprob(&q).unwrap().to_bits(),
            "posterior diverged on {q}"
        );
    }
}

#[test]
fn condition_chain_shares_factory_and_serves_shared_cache_hits() {
    let cache = Arc::new(SharedCache::new(1024));
    let model = indian_gpa::model()
        .session()
        .expect("compiles")
        .with_shared_cache(Arc::clone(&cache));

    // A two-step conditioning chain; every link must keep the parent's
    // factory pointer-identically (one intern table, warm node memos).
    let step1 = model.condition(&var("GPA").gt(3.0)).unwrap();
    let step2 = step1.condition(&var("Nationality").eq("USA")).unwrap();
    assert!(Arc::ptr_eq(model.factory_arc(), step1.factory_arc()));
    assert!(Arc::ptr_eq(model.factory_arc(), step2.factory_arc()));
    assert!(step2.shared_cache().is_some());

    // The posterior's queries key the shared cache under the posterior's
    // own digest (≠ parent's, the distributions differ)…
    assert_ne!(model.model_digest(), step1.model_digest());
    assert_ne!(step1.model_digest(), step2.model_digest());
    let probe = var("Perfect").eq(1.0);
    let before = cache.stats();
    let first = step2.prob(&probe).unwrap();
    assert_eq!(
        cache.stats().entries,
        before.entries + 1,
        "posterior query must fill the shared cache"
    );

    // …so a *separately derived* copy of the same posterior — the second
    // session of a serving deployment re-running the same chain — is
    // answered from the shared cache without touching the evaluator.
    let twin = model
        .condition(&var("GPA").gt(3.0))
        .unwrap()
        .condition(&var("Nationality").eq("USA"))
        .unwrap();
    assert_eq!(twin.model_digest(), step2.model_digest());
    let hits_before = cache.stats().hits;
    let second = twin.prob(&probe).unwrap();
    assert_eq!(first.to_bits(), second.to_bits());
    assert_eq!(
        cache.stats().hits,
        hits_before + 1,
        "rerun chain must be served from the shared cache"
    );
    // The twin's one lookup was that shared hit: it never evaluated, and
    // the next call hits the same entry.
    let stats = twin.stats();
    assert_eq!((stats.hits, stats.misses), (1, 0));
    twin.prob(&probe).unwrap();
    assert_eq!(twin.stats().hits, 2);
}

#[test]
fn posterior_queries_reuse_parent_factory_node_memos() {
    // Conditioning chains stay warm at the node level too: the posterior
    // shares the factory, so sub-expressions shared between the prior and
    // the posterior (untouched product factors) hit the same memo table.
    let model = indian_gpa::model().session().expect("compiles");
    model.prob(&var("GPA").le(4.0)).unwrap();
    let node_entries_before = model.factory().prob_cache_stats().entries;
    assert!(node_entries_before > 0);
    let posterior = model.condition(&var("GPA").gt(3.0)).unwrap();
    posterior.prob(&var("GPA").le(4.0)).unwrap();
    let stats = posterior.factory().prob_cache_stats();
    assert!(
        stats.entries > node_entries_before,
        "posterior evaluation must extend the shared node-level memo, not a fresh one"
    );
    assert!(stats.hits > 0, "shared sub-expressions must hit");
}

// ---------------------------------------------------------------------------
// Parallel symbolic operations: the explicit-pool `par_*_in` fan-outs must
// be bit-identical to the sequential walk — parallelism changes wall-clock
// time, never an answer.
// ---------------------------------------------------------------------------

/// [`par_condition_in`] on a session's root, as a posterior session over
/// the same factory. The event is canonicalized first, as
/// [`Model::condition`] does, so both paths condition on one expression.
fn par_condition_model(model: &Model, pool: &Pool, event: &Event) -> Model {
    let posterior = par_condition_in(model.factory(), model.root(), &event.canonical(), pool)
        .expect("positive probability");
    Model::new(Arc::clone(model.factory_arc()), posterior)
}

#[test]
fn par_condition_matches_sequential_bit_for_bit_across_thread_counts() {
    let source = indian_gpa::model().source;
    let evidence = gpa_evidence();
    let chain = [var("GPA").gt(3.0), var("Nationality").eq("USA")];

    // Sequential reference in its own factory; each thread count gets a
    // *separately compiled* copy so the parallel walk really recomputes
    // (a shared factory would answer the second call from the cond
    // cache and prove nothing).
    let seq = Model::compile(&source).expect("compiles");
    let seq_post = seq.condition(&evidence).unwrap();
    let seq_chained = seq.condition_chain(&chain).unwrap();

    for threads in [1u32, 2, 4] {
        let pool = Pool::new(threads);
        let par = Model::compile(&source).expect("compiles");
        let par_post = par_condition_model(&par, &pool, &evidence);
        assert_eq!(
            seq_post.model_digest(),
            par_post.model_digest(),
            "posterior content diverged at {threads} threads"
        );
        for q in gpa_queries() {
            assert_eq!(
                seq_post.logprob(&q).unwrap().to_bits(),
                par_post.logprob(&q).unwrap().to_bits(),
                "posterior logprob diverged on {q} at {threads} threads"
            );
        }

        // A chain stays sequential; each step fans out internally.
        let par_chained = chain
            .iter()
            .fold(par.clone(), |m, e| par_condition_model(&m, &pool, e));
        assert_eq!(seq_chained.model_digest(), par_chained.model_digest());
        for q in gpa_queries() {
            assert_eq!(
                seq_chained.logprob(&q).unwrap().to_bits(),
                par_chained.logprob(&q).unwrap().to_bits(),
                "chained posterior diverged on {q} at {threads} threads"
            );
        }
    }

    // In one factory, the fan-out converges on the memoized posterior.
    let pool = Pool::new(2);
    assert!(seq_post
        .root()
        .same(par_condition_model(&seq, &pool, &evidence).root()));
}

#[test]
fn hmm_par_constrain_matches_sequential_bit_for_bit_across_thread_counts() {
    const N: usize = 10;
    let source = hmm::hierarchical_hmm(N).source;
    let mut rng = StdRng::seed_from_u64(4242);
    let trace = hmm::simulate_trace(&mut rng, N);
    let observations = hmm::observation_assignment(&trace.x, &trace.y);
    let mut batch = hmm::smoothing_queries(N);
    batch.extend(hmm::pairwise_queries(N));

    let seq = Model::compile(&source).expect("compiles");
    let seq_post = seq.constrain(&observations).expect("positive density");
    let reference = seq_post.logprob_many(&batch).unwrap();

    for threads in [1u32, 2, 4] {
        let pool = Pool::new(threads);
        let par = Model::compile(&source).expect("compiles");
        let par_post = Model::new(
            Arc::clone(par.factory_arc()),
            par_constrain_in(par.factory(), par.root(), &observations, &pool)
                .expect("positive density"),
        );
        assert_eq!(seq_post.model_digest(), par_post.model_digest());
        let answers = par_post.logprob_many(&batch).unwrap();
        for (i, (r, a)) in reference.iter().zip(&answers).enumerate() {
            assert_eq!(
                r.to_bits(),
                a.to_bits(),
                "smoothing query {i} diverged at {threads} threads"
            );
        }
    }

    // In one factory, the fan-out lands on the memoized posterior
    // pointer-identically.
    let pool = Pool::new(2);
    assert!(
        par_constrain_in(seq.factory(), seq.root(), &observations, &pool)
            .unwrap()
            .same(seq_post.root())
    );
}

/// Evidence for one paper program: an event to condition on, or an
/// assignment to constrain on.
enum Evidence {
    Event(Event),
    Observe(Assignment),
}

/// A paper program with its evidence and posterior queries.
struct PaperCase {
    name: String,
    source: String,
    evidence: Evidence,
    queries: Vec<Event>,
}

impl PaperCase {
    fn new(name: &str, source: String, evidence: Evidence, queries: Vec<Event>) -> PaperCase {
        PaperCase {
            name: name.to_string(),
            source,
            evidence,
            queries,
        }
    }
}

/// Every program behind the paper's figures and tables: Indian GPA
/// (Fig. 2), the hierarchical HMM (Fig. 3), the Fig. 8 chain network,
/// the fifteen fairness tasks (Table 2), and the PSI suite (Table 4), at
/// test sizes.
fn paper_cases() -> Vec<PaperCase> {
    let hmm_n = 10;
    let trace = hmm::simulate_trace(&mut StdRng::seed_from_u64(4242), hmm_n);
    let mut hmm_queries = hmm::smoothing_queries(hmm_n);
    hmm_queries.extend(hmm::pairwise_queries(hmm_n));
    let chain_n = 20;
    let state = |t: usize| var(Var::indexed("S", t).name()).eq(1.0);
    let mut cases = vec![
        PaperCase::new(
            "indian_gpa",
            indian_gpa::model().source,
            Evidence::Event(gpa_evidence()),
            gpa_queries(),
        ),
        PaperCase::new(
            "hierarchical_hmm",
            hmm::hierarchical_hmm(hmm_n).source,
            Evidence::Observe(hmm::observation_assignment(&trace.x, &trace.y)),
            hmm_queries,
        ),
        PaperCase::new(
            "fig8_chain",
            rare_event::chain_network(chain_n).source,
            Evidence::Event(rare_event::all_ones_event(8)),
            (0..chain_n)
                .map(state)
                .chain([rare_event::all_ones_event(13)])
                .collect(),
        ),
        PaperCase::new(
            "digit_recognition",
            psi_suite::digit_recognition(16).source,
            Evidence::Observe(psi_suite::digit_dataset(0, 3, 16)),
            (0..10).map(psi_suite::digit_query).collect(),
        ),
        PaperCase::new(
            "trueskill",
            psi_suite::trueskill().source,
            Evidence::Observe(psi_suite::trueskill_dataset(9)),
            (0..10).map(psi_suite::trueskill_query).collect(),
        ),
        PaperCase::new(
            "clinical_trial",
            psi_suite::clinical_trial(10, 10).source,
            Evidence::Observe(psi_suite::clinical_trial_dataset(1, 10, 10, 0.8, 0.3)),
            vec![psi_suite::clinical_trial_query()],
        ),
        PaperCase::new(
            "student_interviews",
            psi_suite::student_interviews(2).source,
            Evidence::Observe(psi_suite::student_interviews_dataset(0, 2)),
            vec![psi_suite::student_interviews_query()],
        ),
        PaperCase::new(
            "markov_switching",
            psi_suite::markov_switching(20).source,
            Evidence::Observe(psi_suite::markov_switching_dataset(0, 20)),
            vec![psi_suite::markov_switching_query(20)],
        ),
    ];
    for constraint in psi_suite::gamma_constraints() {
        cases.push(PaperCase::new(
            "gamma_transforms",
            psi_suite::gamma_transforms().source,
            Evidence::Event(constraint),
            vec![psi_suite::gamma_query()],
        ));
    }
    for task in fairness::all_tasks() {
        cases.push(PaperCase::new(
            &task.name,
            task.model.source,
            Evidence::Event(fairness::minority() & fairness::qualified()),
            vec![fairness::hired()],
        ));
    }
    cases
}

/// Translates `case` in a fresh factory and conditions (or constrains)
/// it on its evidence — sequentially without a pool, else through
/// `par_translate_in` and `par_condition_in`/`par_constrain_in`. Returns
/// the prior and posterior digests and the posterior answers' bits.
fn run_case(case: &PaperCase, pool: Option<&Pool>) -> (ModelDigest, ModelDigest, Vec<u64>) {
    let f = Factory::new();
    let program = parse(&case.source).expect("parses");
    let prior = match pool {
        Some(pool) => par_translate_in(&f, &program, pool),
        None => translate(&f, &program),
    }
    .expect("translates");
    let posterior = match (&case.evidence, pool) {
        (Evidence::Event(e), Some(pool)) => par_condition_in(&f, &prior, e, pool),
        (Evidence::Event(e), None) => condition(&f, &prior, e),
        (Evidence::Observe(a), Some(pool)) => par_constrain_in(&f, &prior, a, pool),
        (Evidence::Observe(a), None) => constrain(&f, &prior, a),
    }
    .expect("positive evidence");
    let answers = case
        .queries
        .iter()
        .map(|q| f.logprob(&posterior, q).expect("query").to_bits())
        .collect();
    (prior.digest(), posterior.digest(), answers)
}

#[test]
fn paper_programs_fan_out_bit_identically_across_pool_sizes() {
    for case in paper_cases() {
        let want = run_case(&case, None);
        for threads in [1u32, 2, 4] {
            let pool = Pool::new(threads);
            assert_eq!(
                run_case(&case, Some(&pool)),
                want,
                "{} diverged from the sequential walk at {threads} threads",
                case.name
            );
        }
    }
}

#[test]
fn dedup_off_twins_condition_to_digest_equal_posteriors() {
    use sppl::core::spe::FactoryOptions;

    // With dedup off, two compiles of one source are content-identical
    // but pointer-distinct, so each is conditioned on its own; the two
    // posteriors must still agree in content and in every answer.
    let factory = Arc::new(Factory::with_options(FactoryOptions {
        dedup: false,
        factorize: true,
        memoize: true,
    }));
    let source = indian_gpa::model().source;
    let a = compile(&factory, &source).expect("compiles");
    let b = compile(&factory, &source).expect("compiles");
    assert!(!a.same(&b), "dedup off: twin compiles are distinct nodes");
    assert_eq!(a.digest(), b.digest(), "…but content-identical");

    let evidence = gpa_evidence();
    let pa = condition(&factory, &a, &evidence).unwrap();
    let pb = condition(&factory, &b, &evidence).unwrap();
    assert_eq!(
        pa.digest(),
        pb.digest(),
        "posteriors must be content-identical"
    );

    let legacy = Model::new(Arc::clone(&factory), pa);
    let twin = Model::new(factory, pb);
    for q in gpa_queries() {
        assert_eq!(
            legacy.logprob(&q).unwrap().to_bits(),
            twin.logprob(&q).unwrap().to_bits(),
            "posterior answers diverged on {q}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mixed models: the parallel conditioning and constraining
    /// walks agree with the sequential ones bit for bit — posterior
    /// digests and query answers, or the error — across separately
    /// compiled copies.
    #[test]
    fn par_condition_agrees_with_sequential_on_random_models(
        spec in prop::collection::vec(var_spec(), 2..6),
        shapes in (0..3usize, 0..3usize),
        query_lits in lit_specs(),
        evidence_lits in lit_specs(),
        observed in lit_specs(),
    ) {
        let (source, discrete) = build_source(&spec);
        let query = build_event(&discrete, shapes.0, &query_lits);
        let evidence = build_event(&discrete, shapes.1, &evidence_lits);

        let seq = Model::compile(&source).expect("generated program compiles");
        let par = Model::compile(&source).expect("generated program compiles");
        let pool = Pool::new(3);
        if seq.prob(&evidence).unwrap() > 1e-9 {
            let seq_post = seq.condition(&evidence).unwrap();
            let par_post = par_condition_model(&par, &pool, &evidence);
            prop_assert_eq!(
                seq_post.model_digest(), par_post.model_digest(),
                "posterior digests diverged\n{}", source
            );
            let qs = seq_post.logprob(&query).unwrap();
            let qp = par_post.logprob(&query).unwrap();
            prop_assert_eq!(
                qs.to_bits(), qp.to_bits(),
                "posterior logprob diverged: {} vs {}\n{}", qs, qp, source
            );
        }

        // Observe discrete variables at 0/1 and continuous ones at a grid
        // point; zero-density assignments must fail identically.
        let assignment: Assignment = observed
            .iter()
            .map(|&(pick, sel)| {
                let i = pick % discrete.len();
                let value = if discrete[i] {
                    f64::from(u8::from(sel % 2 == 0))
                } else {
                    grid(sel) * 8.0 - 4.0
                };
                (Var::new(format!("V{i}")), Outcome::Real(value))
            })
            .collect();
        let seq_post = constrain(seq.factory(), seq.root(), &assignment);
        let par_post = par_constrain_in(par.factory(), par.root(), &assignment, &pool);
        match (seq_post, par_post) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(s.digest(), p.digest(), "constrained digests diverged\n{}", source);
                let qs = seq.factory().logprob(&s, &query);
                let qp = par.factory().logprob(&p, &query);
                prop_assert_eq!(
                    qs.map(f64::to_bits), qp.map(f64::to_bits),
                    "constrained logprob diverged\n{}", source
                );
            }
            (s, p) => prop_assert_eq!(
                s.map(|_| ()), p.map(|_| ()),
                "constrain outcome diverged\n{}", source
            ),
        }
    }
}
