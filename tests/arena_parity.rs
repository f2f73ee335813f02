//! Differential proptest: the arena evaluator ([`ArenaModel`]) and the
//! batch path built on it ([`Model::logprob_many`]) answer
//! bit-identically (`to_bits` equality) to the per-event tree walk
//! ([`Spe::logprob`] on the canonical event, with a fresh memo) — on
//! random mixed discrete/continuous models, on random event batteries
//! (conjunctions, disjunctions, transform literals, derived variables),
//! on *posteriors* obtained through `condition` and `condition_chain`,
//! on the paper's golden Indian-GPA values, and on the shapes of the
//! suite's `query_batch` workload. Errors must agree too: same variant,
//! same rendered message.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl::core::spe::Env;
use sppl::models::{hmm, rare_event};
use sppl::prelude::*;

/// A generated model: a mixture of two products over the same variables
/// (real mixture `X` with an optional derived `Y = X²`, an integer leaf
/// `N`, a nominal leaf `L`, an atomic leaf `A`), or — when `product` is
/// off — just the `X` mixture alone (exercising the product-free arena
/// path, where every node sees the full event).
#[derive(Debug, Clone)]
struct Spec {
    product: bool,
    env: bool,
    /// Per-branch real-mixture components as `(mean, weight)` codes.
    comps: Vec<(u32, u32)>,
    comps2: Vec<(u32, u32)>,
    int_dist: u32,
    label_w: (u32, u32),
    atom_loc: u32,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        (any::<bool>(), any::<bool>()),
        prop::collection::vec((0..80u32, 1..20u32), 1..4),
        prop::collection::vec((0..80u32, 1..20u32), 1..4),
        0..3u32,
        (1..10u32, 1..10u32),
        0..6u32,
    )
        .prop_map(
            |((product, env), comps, comps2, int_dist, label_w, atom_loc)| Spec {
                product,
                env,
                comps,
                comps2,
                int_dist,
                label_w,
                atom_loc,
            },
        )
}

fn real_mixture(f: &Factory, env: bool, comps: &[(u32, u32)]) -> Spe {
    let children: Vec<(Spe, f64)> = comps
        .iter()
        .map(|&(mean_code, w_code)| {
            let mean = f64::from(mean_code) / 10.0 - 4.0;
            let dist = Distribution::Real(
                DistReal::new(Cdf::normal(mean, 1.0), Interval::all()).expect("positive mass"),
            );
            let leaf = if env {
                f.leaf_env(
                    Var::new("X"),
                    dist,
                    Env::new().with(Var::new("Y"), var("X").pow_int(2)),
                )
                .expect("well-formed env")
            } else {
                f.leaf(Var::new("X"), dist)
            };
            (leaf, f64::from(w_code).ln())
        })
        .collect();
    f.sum(children).expect("well-formed mixture")
}

fn build_model(spec: &Spec) -> Model {
    let f = Factory::new();
    let root = if spec.product {
        let branch = |comps: &[(u32, u32)]| {
            let x = real_mixture(&f, spec.env, comps);
            let cdf = match spec.int_dist {
                0 => Cdf::poisson(3.0),
                1 => Cdf::discrete_uniform(0, 5),
                _ => Cdf::binomial(8, 0.4),
            };
            let n = f.leaf(
                Var::new("N"),
                Distribution::Int(DistInt::new(cdf, 0.0, f64::INFINITY).expect("positive mass")),
            );
            let (wa, wb) = spec.label_w;
            let l = f.leaf(
                Var::new("L"),
                Distribution::Str(
                    DistStr::new([("a", f64::from(wa)), ("b", f64::from(wb))])
                        .expect("positive mass"),
                ),
            );
            let a = f.leaf(
                Var::new("A"),
                Distribution::Atomic {
                    loc: f64::from(spec.atom_loc),
                },
            );
            f.product(vec![x, n, l, a]).expect("disjoint scopes")
        };
        let b1 = branch(&spec.comps);
        let b2 = branch(&spec.comps2);
        f.sum(vec![(b1, 0.4f64.ln()), (b2, 0.6f64.ln())])
            .expect("well-formed mixture of products")
    } else {
        real_mixture(&f, spec.env, &spec.comps)
    };
    Model::new(f, root)
}

/// The event battery for a generated model: atoms over every variable
/// (including transform literals and the derived `Y` when present),
/// conjunctions, disjunctions, nested combinations, tautologies, and
/// contradictions.
fn battery(spec: &Spec, t: f64) -> Vec<Event> {
    let mut atoms = vec![
        var("X").le(t),
        var("X").gt(t - 1.0),
        var("X").in_interval(Interval::open(t - 1.0, t + 1.0)),
        var("X").pow_int(2).le(t.abs() + 1.0),
        var("X").abs().gt(0.5),
    ];
    if spec.env {
        atoms.push(var("Y").le(t.abs() + 2.0));
        atoms.push(var("Y").gt(1.0));
    }
    if spec.product {
        atoms.push(var("N").eq(2.0));
        atoms.push(var("N").le(3.0));
        atoms.push(var("L").eq("a"));
        atoms.push(var("L").ne("b"));
        atoms.push(var("A").eq(f64::from(spec.atom_loc)));
        atoms.push(var("A").gt(f64::from(spec.atom_loc)));
    }
    let mut events = atoms.clone();
    let n = atoms.len();
    events.push(atoms[0].clone() & atoms[1 % n].clone());
    events.push(atoms[0].clone() | atoms[2 % n].clone());
    events.push((atoms[1 % n].clone() & atoms[3 % n].clone()) | atoms[n - 1].clone());
    events.push(atoms[n - 2].clone() & (atoms[0].clone() | atoms[n - 1].clone()));
    events.push(Event::and(atoms.clone()));
    events.push(Event::or(atoms));
    events.push(Event::always());
    events.push(Event::never());
    // A contradiction the clause solver must prune entirely.
    events.push(var("X").le(-1.0) & var("X").gt(1.0));
    events
}

/// The oracle: the tree walker on the canonical event (what the session
/// evaluates), with a fresh memo per event.
fn tree_walk(model: &Model, event: &Event) -> Result<f64, SpplError> {
    model.root().logprob(&event.canonical())
}

fn assert_bit_parity(model: &Model, events: &[Event]) {
    let arena = model.compile_arena();
    assert_eq!(arena.digest(), model.model_digest());
    let fast = arena.logprob_many(events).expect("battery evaluates");
    let cold = model.logprob_many(events).expect("battery evaluates");
    let warm = model.logprob_many(events).expect("battery evaluates");
    for (i, event) in events.iter().enumerate() {
        let slow = tree_walk(model, event).expect("battery evaluates");
        for (path, got) in [
            ("arena", fast[i]),
            ("cold batch", cold[i]),
            ("warm batch", warm[i]),
        ] {
            assert_eq!(
                got.to_bits(),
                slow.to_bits(),
                "{path} diverged from tree walker on {event:?} ({got} vs {slow})"
            );
        }
    }
    // The probability surface shares the same exp/clamp epilogue.
    let fast_p = arena.prob_many(events).expect("battery evaluates");
    let batch_p = model.prob_many(events).expect("battery evaluates");
    for ((event, fast_p), batch_p) in events.iter().zip(&fast_p).zip(&batch_p) {
        let slow_p = model
            .root()
            .prob(&event.canonical())
            .expect("battery evaluates");
        assert_eq!(fast_p.to_bits(), slow_p.to_bits(), "prob on {event:?}");
        assert_eq!(
            batch_p.to_bits(),
            slow_p.to_bits(),
            "batch prob on {event:?}"
        );
    }
}

/// A failing batch reports the per-event tree walk's first error, through
/// the arena and through the session's batch path alike.
fn assert_batch_error_parity(model: &Model, batch: &[Event]) {
    let first = batch
        .iter()
        .find_map(|e| tree_walk(model, e).err())
        .expect("the batch has a failing event");
    let fast = model
        .compile_arena()
        .logprob_many(batch)
        .expect_err("arena fails");
    let session = model.logprob_many(batch).expect_err("batch fails");
    assert_eq!(format!("{first}"), format!("{fast}"));
    assert_eq!(format!("{first}"), format!("{session}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_models_answer_bit_identically(spec in spec_strategy(), t_code in 0..60u32) {
        let t = f64::from(t_code) / 10.0 - 3.0;
        let model = build_model(&spec);
        assert_bit_parity(&model, &battery(&spec, t));
    }

    #[test]
    fn posteriors_answer_bit_identically(spec in spec_strategy(), t_code in 0..60u32) {
        let t = f64::from(t_code) / 10.0 - 3.0;
        let model = build_model(&spec);
        let events = battery(&spec, t);

        // condition: the posterior is itself a Model; its arena must
        // agree with its tree walker bit for bit.
        let evidence = var("X").le(t + 0.5);
        let posterior = model.condition(&evidence).expect("positive probability");
        assert_bit_parity(&posterior, &events);

        // condition_chain: same closure property, deeper posterior.
        if let Ok(chained) = model.condition_chain(&[
            var("X").gt(t - 2.0),
            var("X").le(t + 2.0),
        ]) {
            assert_bit_parity(&chained, &events);
        }
    }

    #[test]
    fn errors_agree_with_tree_walker(spec in spec_strategy(), t_code in 0..60u32) {
        let t = f64::from(t_code) / 10.0 - 3.0;
        let model = build_model(&spec);
        let arena = model.compile_arena();
        // Unknown variable, alone and mixed into valid structure: same
        // variant, same message, regardless of position.
        for bad in [
            var("Zzz").le(0.0),
            var("Zzz").le(0.0) & var("X").le(t),
            var("X").gt(t) | var("Zzz").eq(1.0),
        ] {
            let tree = model.logprob(&bad).expect_err("unknown variable");
            let fast = arena.logprob(&bad).expect_err("unknown variable");
            prop_assert_eq!(format!("{tree}"), format!("{fast}"));
        }
        // A failing batch reports the same first error.
        assert_batch_error_parity(&model, &[var("X").le(t), var("Zzz").le(0.0)]);
    }
}

/// The paper's golden values (Fig. 2, the Indian GPA problem) through
/// the arena: exact probabilities survive compilation, and every answer
/// still matches the tree walker bit for bit.
#[test]
fn paper_golden_values_through_the_arena() {
    let model = Model::compile(
        r#"
        Nationality ~ choice({'India': 0.5, 'USA': 0.5})
        if (Nationality == 'India') {
            Perfect ~ bernoulli(p=0.10)
            if (Perfect == 1) { GPA ~ atomic(10) } else { GPA ~ uniform(0, 10) }
        } else {
            Perfect ~ bernoulli(p=0.15)
            if (Perfect == 1) { GPA ~ atomic(4) } else { GPA ~ uniform(0, 4) }
        }
    "#,
    )
    .expect("paper model compiles");
    let arena = model.compile_arena();

    // P[GPA ≤ 4] = 0.68 exactly (atom at 4 included).
    let p = arena.prob(&var("GPA").le(4.0)).unwrap();
    assert!((p - 0.68).abs() < 1e-9, "got {p}");

    let queries = vec![
        var("GPA").le(4.0),
        var("GPA").lt(4.0),
        var("GPA").eq(10.0),
        var("GPA").in_interval(Interval::open(8.0, 10.0)),
        var("Nationality").eq("India"),
        (var("Nationality").eq("USA") & var("GPA").gt(3.0)) | var("GPA").gt(9.5),
    ];
    assert_bit_parity(&model, &queries);

    // The Fig. 2f/2g posterior, compiled to an arena from the posterior
    // Model: P[Nationality = India | evidence] ≈ 0.3318.
    let evidence = (var("Nationality").eq("USA") & var("GPA").gt(3.0))
        | var("GPA").in_interval(Interval::open(8.0, 10.0));
    let posterior = model.condition(&evidence).unwrap();
    let p_india = posterior
        .compile_arena()
        .prob(&var("Nationality").eq("India"))
        .unwrap();
    assert!((p_india - 0.3318).abs() < 1e-3, "got {p_india}");
    assert_bit_parity(&posterior, &queries);
}

fn id(name: &str, t: usize) -> Transform {
    Transform::id(Var::indexed(name, t))
}

/// The shapes of the suite's `query_batch` workload, scaled down: HMM
/// predictive and smoothing events on a half-observed posterior, chain
/// prefixes, and an `and` of 6 two-literal `or`s over 12 normals — with
/// an in-batch repeat, and an unknown variable in mid-batch.
#[test]
fn query_batch_shapes_answer_bit_identically() {
    const STEPS: usize = 16;
    const OBSERVED: usize = 8;
    let mut rng = StdRng::seed_from_u64(11);
    let trace = hmm::simulate_trace(&mut rng, STEPS);
    let prior = hmm::hierarchical_hmm(STEPS).session().expect("compiles");
    let posterior = prior
        .constrain(&hmm::observation_assignment(
            &trace.x[..OBSERVED],
            &trace.y[..OBSERVED],
        ))
        .expect("positive density");
    let mut events = Vec::new();
    for t in OBSERVED..STEPS - 1 {
        let c = 4.0 + t as f64 * 0.75;
        events.push(id("X", t).le(c));
        events.push(id("Z", t).eq(1.0) & id("X", t + 1).gt(c));
    }
    for (a, b, c) in [(0, 3, 9), (2, 8, 15), (5, 6, 7), (1, 10, 12)] {
        events.push(id("Z", a).eq(1.0) & id("Z", b).eq(0.0) & id("Z", c).eq(1.0));
    }
    events.push(events[1].clone());
    events.push(hmm::hidden_state_event(4));
    events.push(hmm::hidden_state_event(4));
    assert_bit_parity(&posterior, &events);
    let mut failing = events.clone();
    failing.insert(events.len() / 2, id("Q", 0).le(0.0));
    assert_batch_error_parity(&posterior, &failing);

    const CHAIN: usize = 10;
    let chain = rare_event::chain_network(CHAIN)
        .session()
        .expect("compiles");
    let mut prefixes: Vec<Event> = (1..=CHAIN).map(rare_event::all_ones_event).collect();
    for k in 4..=CHAIN {
        let pattern = (0..k).map(|t| id("O", t).eq(f64::from(u8::from(t % 3 != 1))));
        prefixes.push(Event::and(pattern.collect()));
    }
    prefixes.push(prefixes[3].clone());
    assert_bit_parity(&chain, &prefixes);

    let f = Factory::new();
    let normals = (0..12)
        .map(|i| {
            let dist = DistReal::new(Cdf::normal(i as f64 * 0.1 - 0.5, 1.0), Interval::all())
                .expect("positive mass");
            f.leaf(Var::indexed("N", i), Distribution::Real(dist))
        })
        .collect();
    let root = f.product(normals).expect("disjoint scopes");
    let wide = Model::new(f, root);
    let wide_event = |shift: f64| {
        Event::and(
            (0..6)
                .map(|j| {
                    id("N", 2 * j).le(shift - 0.3 * j as f64)
                        | id("N", 2 * j + 1).gt(0.2 * j as f64 - shift)
                })
                .collect(),
        )
    };
    let wide_batch = vec![
        wide_event(0.0),
        wide_event(0.5),
        wide_event(0.0),
        wide_event(-0.4),
    ];
    assert_bit_parity(&wide, &wide_batch);
}
