//! `paper_e2e`: a closed loop on one thread. Each pass runs the paper's
//! evaluation programs from source text to answers through the user's
//! path (`compile_model` → `constrain`/`condition` → `prob`/
//! `logprob_many`): Fig. 2 (Indian GPA), Fig. 3 HMM(100) smoothing (a
//! 199-event batch), Fig. 4, the Fig. 8 chain(20) prefixes, the 15
//! Table 2 fairness ratios, and the SPPL side of Table 4. Every pass
//! compiles text the process has not seen: Fig. 3/4/8 constants are
//! perturbed from the seed, and the other programs carry a fresh unused
//! constant, so the compile cache misses as it does for a new model.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use sppl_baseline::enumerative::Data;
use sppl_bench::suite::PsiBenchmark;
use sppl_core::{var, Event, Var};
use sppl_models::fairness::{self, FairnessTask};
use sppl_models::indian_gpa;
use sppl_sets::Outcome as Obs;

use crate::calib::Speed;
use crate::gen::{self, Ev};
use crate::layers;
use crate::oracle::{self, ChainParams, HmmParams, HmmPosterior};
use crate::stats::{median, peak_rss_mib, quantile, thread_cpu_s, BitsDigest};
use crate::trace::Tracer;
use crate::{Outcome, Run};

const HMM_STEPS: usize = 100;
const CHAIN_STEPS: usize = 20;
/// Table 4 datasets a pass draws from (per benchmark), and how many.
const T4_POOL: usize = 4;
const T4_PER_PASS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Catalog {
    table4: Vec<PsiBenchmark>,
    fairness: Vec<FairnessTask>,
}

fn catalog() -> Catalog {
    Catalog {
        table4: sppl_bench::suite::benchmarks(),
        fairness: fairness::all_tasks(),
    }
}

struct PassInput {
    hmm: HmmParams,
    hmm_text: String,
    hmm_obs: Vec<Option<(f64, f64)>>,
    gpa_text: String,
    fig4: (f64, f64),
    fig4_text: String,
    chain: ChainParams,
    chain_text: String,
    fairness_texts: Vec<String>,
    /// `(benchmark, text, dataset indices)`.
    table4: Vec<(usize, String, Vec<usize>)>,
}

fn pass_input(seed: u64, pass: u64, cat: &Catalog) -> PassInput {
    use rand::Rng;
    let mut rng = gen::rng(seed, 0x5041_5353_0000 + pass);
    let nonce = (seed << 24) ^ pass;
    let hmm = gen::hmm_params(&mut rng, HMM_STEPS);
    let hmm_obs = gen::hmm_observations(&mut rng, &hmm, HMM_STEPS);
    let fig4 = gen::fig4_params(&mut rng);
    let chain = gen::chain_params(&mut rng, CHAIN_STEPS);
    let table4 = cat
        .table4
        .iter()
        .enumerate()
        .map(|(b, bench)| {
            // Distinct datasets: a repeat would be answered from the
            // memo and make the pass cheaper by chance.
            let mut pool: Vec<usize> = (0..bench.datasets.len().min(T4_POOL)).collect();
            let ds = (0..T4_PER_PASS.min(pool.len()))
                .map(|_| pool.swap_remove(rng.gen_range(0..pool.len())))
                .collect();
            (b, gen::with_nonce(&bench.source, nonce), ds)
        })
        .collect();
    PassInput {
        hmm_text: gen::hmm_source(&hmm),
        hmm,
        hmm_obs,
        gpa_text: gen::with_nonce(&indian_gpa::model().source, nonce),
        fig4_text: gen::fig4_source(fig4.0, fig4.1),
        fig4,
        chain_text: gen::chain_source(&chain),
        chain,
        fairness_texts: cat
            .fairness
            .iter()
            .map(|t| gen::with_nonce(&t.model.source, nonce))
            .collect(),
        table4,
    }
}

#[derive(Default)]
struct PassOutput {
    hmm: Vec<f64>,
    gpa: Vec<f64>,
    fig4: Vec<f64>,
    chain: Vec<f64>,
    fairness: Vec<f64>,
    table4: Vec<Vec<f64>>,
    events: usize,
}

fn hmm_events(n: usize) -> Vec<Event> {
    let z = |t: usize| Ev::Eq(gen::idx("Z", t), 1.0);
    (0..n)
        .map(|t| z(t).event())
        .chain((0..n - 1).map(|t| Ev::And(vec![z(t), z(t + 1)]).event()))
        .collect()
}

fn fig4_events() -> (Event, Vec<Event>) {
    let z = var("Z");
    let evidence = Event::and(vec![z.clone().pow_int(2).le(4.0), z.ge(0.0)]);
    // Intervals enclosing the three preimage components.
    let parts = [(-2.5, -1.9), (-0.1, 0.5), (3.0, 5.0)]
        .iter()
        .map(|&(lo, hi)| Ev::In("X".into(), lo, hi).event())
        .collect();
    (evidence, parts)
}

fn chain_events() -> Vec<Event> {
    sppl_models::rare_event::figure8_prefixes()
        .into_iter()
        .map(sppl_models::rare_event::all_ones_event)
        .collect()
}

fn fairness_events() -> [Event; 4] {
    let (h, m, q) = (
        fairness::hired(),
        fairness::minority(),
        fairness::qualified(),
    );
    [
        Event::and(vec![h.clone(), m.clone(), q.clone()]),
        Event::and(vec![m.clone(), q.clone()]),
        Event::and(vec![h, m.negate(), q.clone()]),
        Event::and(vec![m.negate(), q]),
    ]
}

fn run_pass(
    tr: &mut Tracer,
    inp: &PassInput,
    cat: &Catalog,
    seen: &mut HashSet<sppl_core::ModelDigest>,
) -> Result<PassOutput, String> {
    let mut out = PassOutput::default();

    // Fig. 3: smoothing on a fully observed HMM(100).
    let model = layers::compile(tr, &inp.hmm_text, seen)?;
    let post = layers::constrain(tr, &model, &gen::hmm_assignment(&inp.hmm_obs))?;
    let events = hmm_events(HMM_STEPS);
    out.hmm = layers::logprob_many(tr, &post, &events)?;
    layers::disjoin_side(tr, &events);

    run_small(tr, inp, seen, &mut out)?;

    // Table 4: translate once, then condition and query per dataset.
    for (b, text, datasets) in &inp.table4 {
        let bench = &cat.table4[*b];
        let model = layers::compile(tr, text, seen)?;
        let mut values = Vec::new();
        for &d in datasets {
            let post = match &bench.datasets[d] {
                Data::Event(e) => layers::condition(tr, &model, e)?,
                Data::Assignment(a) => layers::constrain(tr, &model, a)?,
                Data::None => model.clone(),
            };
            values.push(layers::prob(tr, &post, &bench.query)?);
        }
        out.table4.push(values);
    }

    out.events = out.hmm.len()
        + out.gpa.len()
        + out.fig4.len()
        + out.chain.len()
        + 4 * out.fairness.len()
        + out.table4.iter().map(Vec::len).sum::<usize>();
    Ok(out)
}

/// The small programs of a pass: Figs. 2, 4 and 8 and Table 2.
fn run_small(
    tr: &mut Tracer,
    inp: &PassInput,
    seen: &mut HashSet<sppl_core::ModelDigest>,
    out: &mut PassOutput,
) -> Result<(), String> {
    // Fig. 2: prior queries, then the posterior.
    let model = layers::compile(tr, &inp.gpa_text, seen)?;
    let evidence = indian_gpa::condition_event();
    out.gpa.push(layers::prob(tr, &model, &var("GPA").le(4.0))?);
    out.gpa.push(layers::prob(tr, &model, &evidence)?);
    let post = layers::condition(tr, &model, &evidence)?;
    out.gpa
        .push(layers::prob(tr, &post, &var("Nationality").eq("India"))?);

    // Fig. 4: conditioning a many-to-one transform.
    let model = layers::compile(tr, &inp.fig4_text, seen)?;
    let (evidence, parts) = fig4_events();
    out.fig4.push(layers::prob(tr, &model, &evidence)?);
    let post = layers::condition(tr, &model, &evidence)?;
    for part in &parts {
        out.fig4.push(layers::prob(tr, &post, part)?);
    }

    // Fig. 8: rare-event prefixes of the chain.
    let model = layers::compile(tr, &inp.chain_text, seen)?;
    let events = chain_events();
    out.chain = layers::logprob_many(tr, &model, &events)?;
    layers::disjoin_side(tr, &events);

    // Table 2: the fifteen fairness ratios.
    let events = fairness_events();
    for text in &inp.fairness_texts {
        let model = layers::compile(tr, text, seen)?;
        let mut p = [0.0; 4];
        for (slot, e) in p.iter_mut().zip(&events) {
            *slot = layers::prob(tr, &model, e)?;
        }
        out.fairness.push((p[0] / p[1]) / (p[2] / p[3]));
    }
    Ok(())
}

/// Reference answers that do not depend on the pass (the nonce leaves
/// them unchanged), computed once per run.
#[derive(Default)]
struct Refs {
    fairness: HashMap<usize, Option<f64>>,
    table4: HashMap<(usize, usize), Option<f64>>,
}

fn markov_switching_ref(bench: &PsiBenchmark, a: &sppl_core::density::Assignment) -> Option<f64> {
    let n = a.keys().filter(|v| v.name().starts_with("X[")).count();
    let get = |base: &str, t: usize| match a.get(&Var::indexed(base, t)) {
        Some(Obs::Real(v)) => Some(*v),
        _ => None,
    };
    let obs: Option<Vec<_>> = (0..n)
        .map(|t| Some(Some((get("X", t)?, get("Y", t)?))))
        .collect();
    // `psi_suite::markov_switching` is the Fig. 3 program with the
    // paper's constants; its query is `Z[n-1] = 1`.
    let params = HmmParams {
        n,
        p_separated: 0.4,
        p_z0: 0.5,
        p_transition: [0.2, 0.8],
        mu_x: [[5.0, 7.0], [5.0, 15.0]],
        mu_y: [[5.0, 8.0], [3.0, 8.0]],
    };
    debug_assert!(bench.name.starts_with("Markov Switching"));
    Some(HmmPosterior::new(&params, &obs?).states(&[(n - 1, 1)]))
}

fn table4_ref(bench: &PsiBenchmark, d: usize) -> Option<f64> {
    match (&bench.datasets[d], bench.name.as_str()) {
        (Data::Assignment(a), name) if name.starts_with("Markov Switching") => {
            markov_switching_ref(bench, a)
        }
        // Beyond the enumerative engine's term limit.
        (_, "Student Interviews 6") => None,
        (data, _) => oracle::enumerative(&bench.source, data, &bench.query),
    }
}

/// Checks one pass; returns `(checks, failures)`.
fn check_pass(inp: &PassInput, out: &PassOutput, cat: &Catalog, refs: &mut Refs) -> (u64, u64) {
    let mut checks = 0u64;
    let mut failures = 0u64;
    let mut check = |ok: bool| {
        checks += 1;
        failures += u64::from(!ok);
    };

    let hmm = HmmPosterior::new(&inp.hmm, &inp.hmm_obs);
    for (i, lp) in out.hmm.iter().enumerate() {
        let want = if i < HMM_STEPS {
            hmm.states(&[(i, 1)])
        } else {
            let t = i - HMM_STEPS;
            hmm.states(&[(t, 1), (t + 1, 1)])
        };
        check(oracle::agrees(lp.exp(), want, 1e-6));
    }

    let gpa = [
        oracle::GPA_LE_4,
        oracle::GPA_EVIDENCE,
        oracle::GPA_INDIA_POSTERIOR,
    ];
    for (got, want) in out.gpa.iter().zip(gpa) {
        check((got - want).abs() < 1e-12);
    }

    let (mu, sigma) = inp.fig4;
    let masses = oracle::fig4_preimage().map(|(lo, hi)| oracle::normal_interval(mu, sigma, lo, hi));
    let total: f64 = masses.iter().sum();
    check(oracle::agrees(out.fig4[0], total, 1e-7));
    for (got, mass) in out.fig4[1..].iter().zip(masses) {
        check(oracle::agrees(*got, mass / total, 1e-7));
    }

    for (lp, k) in out
        .chain
        .iter()
        .zip(sppl_models::rare_event::figure8_prefixes())
    {
        let want = oracle::chain_logprob(&inp.chain, &vec![true; k]);
        check((lp - want).abs() <= 1e-9 * (1.0 + want.abs()));
    }

    let given = Event::and(vec![fairness::minority(), fairness::qualified()]);
    let given_not = Event::and(vec![fairness::minority().negate(), fairness::qualified()]);
    for (i, got) in out.fairness.iter().enumerate() {
        let want = *refs.fairness.entry(i).or_insert_with(|| {
            let src = &cat.fairness[i].model.source;
            let num = oracle::enumerative(src, &Data::Event(given.clone()), &fairness::hired())?;
            let den =
                oracle::enumerative(src, &Data::Event(given_not.clone()), &fairness::hired())?;
            Some(num / den)
        });
        if let Some(want) = want {
            check(oracle::agrees(*got, want, 1e-7));
        }
    }

    for ((b, _, datasets), values) in inp.table4.iter().zip(&out.table4) {
        for (&d, got) in datasets.iter().zip(values) {
            let want = *refs
                .table4
                .entry((*b, d))
                .or_insert_with(|| table4_ref(&cat.table4[*b], d));
            if let Some(want) = want {
                check(oracle::agrees(*got, want, 1e-7));
            }
        }
    }
    (checks, failures)
}

pub fn run(run: &Run, epoch: Instant) -> Result<Outcome, String> {
    // Set-up: the program catalog, then a warm-up pass on texts no
    // measured pass uses (first-use costs land here, not in a pass).
    let mut tr = Tracer::new(false, epoch);
    let mut seen = HashSet::new();
    let mut setups = Vec::new();
    let mut cat = None;
    let mut speed = Speed::new(epoch);
    for rep in 0..SETUP_REPS as u64 {
        speed.keep_up();
        let t = Instant::now();
        let c = catalog();
        let warm = pass_input(run.seed, u64::MAX - rep, &c);
        run_pass(&mut tr, &warm, &c, &mut seen)?;
        setups.push(t.elapsed().as_secs_f64());
        cat = Some(c);
    }
    let cat = cat.expect("at least one set-up");

    let mut done: Vec<(PassInput, Result<PassOutput, String>)> = Vec::new();
    let (mut plain_ms, mut plain_cpu_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut pass = 1u64;
    // At least two passes, so a traced run has one of each kind.
    while start.elapsed().as_secs_f64() < run.seconds || pass <= 2 {
        speed.keep_up();
        let inp = pass_input(run.seed, pass, &cat);
        // The traced run alternates traced and untraced passes to
        // measure its own overhead.
        let on = run.trace && pass % 2 == 1;
        tr.set_on(on);
        tr.begin_op(pass);
        let (t, c0) = (Instant::now(), thread_cpu_s());
        let out = tr.span("pass", |tr| run_pass(tr, &inp, &cat, &mut seen));
        if !on {
            plain_cpu_ms.push((thread_cpu_s() - c0) * 1e3);
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        done.push((inp, out));
        pass += 1;
    }
    tr.set_on(false);

    // Answer checks, untimed.
    let mut outcome = Outcome::default();
    let mut refs = Refs::default();
    let mut events = 0usize;
    let mut digest = BitsDigest::default();
    for (inp, out) in &done {
        outcome.attempted += 1;
        match out {
            Ok(out) => {
                let (checks, failures) = check_pass(inp, out, &cat, &mut refs);
                outcome.checks += checks;
                outcome.failed += u64::from(failures > 0);
                events += out.events;
                for v in out
                    .hmm
                    .iter()
                    .chain(&out.gpa)
                    .chain(&out.fig4)
                    .chain(&out.chain)
                {
                    digest.push(*v);
                }
                for v in out.fairness.iter().chain(out.table4.iter().flatten()) {
                    digest.push(*v);
                }
            }
            Err(e) => {
                eprintln!("paper_e2e pass failed: {e}");
                outcome.failed += 1;
            }
        }
    }
    outcome.digest = digest;

    let passes = plain_cpu_ms.len() as f64;
    let f = speed.factor();
    let pass_norm_ms: Vec<f64> = plain_cpu_ms.iter().map(|ms| ms * f).collect();
    let events_per_pass = events as f64 / done.len().max(1) as f64;
    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&setups) * f);
    m.insert("peak_rss_mib", peak_rss_mib("self").unwrap_or(0.0));
    m.insert("norm_op_ms_p50", median(&pass_norm_ms));
    m.insert("norm_op_ms_p90", quantile(&pass_norm_ms, 0.9));
    m.insert(
        "norm_events_per_s",
        events_per_pass * passes / (pass_norm_ms.iter().sum::<f64>() / 1e3).max(1e-9),
    );
    outcome.details.put("setup_wall_s", median(&setups), "s");
    outcome.details.put("pass_s", median(&plain_ms) / 1e3, "s");
    outcome
        .details
        .put("pass_cpu_s", median(&plain_cpu_ms) / 1e3, "s");
    outcome.details.put("passes", done.len() as f64, "count");
    outcome
        .details
        .put("events_per_pass", events_per_pass, "count");
    speed.report(&mut outcome.details);

    if run.trace {
        let mut layer = tr.common_layers("pass");
        // Wall time on both sides: a traced pass's side measurements
        // are spans, which time wall clock.
        let traced_ms: Vec<f64> = tr.op_ns("pass").iter().map(|ns| *ns as f64 / 1e6).collect();
        layer.insert(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&plain_ms),
        );
        outcome.metrics.extend(layer);
        outcome.tracer = Some(tr);
    }
    Ok(outcome)
}
