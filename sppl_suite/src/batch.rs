//! `query_batch`: a closed loop on one thread over models compiled and
//! conditioned during set-up. Each operation is one seeded batch of 256
//! events, answered through `Model::logprob_many`; every fourth batch is
//! then also answered through one loopback connection to `sppl-serve`
//! with its `logprob_many` op.
//!
//! The batch mixes, per operation:
//! - 128 predictive events with fresh constants on a half-observed
//!   HMM(100) posterior: 64 `X[t] <= c` and 64 `Z[t]=1 ∧ X[t+1] > c`;
//! - 64 smoothing events on the same posterior: 16 repeat a hot set
//!   fixed for the run (25% of the smoothing share), 48 are fresh
//!   three-state joints `Z[a]=1 ∧ Z[b]=0 ∧ Z[c]=1`;
//! - 60 Fig. 8 chain(20) prefixes with seeded emission patterns;
//! - 4 wide events, an and of 6 two-literal ors over 12 normals.

use std::collections::HashSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use sppl_core::{Event, Model, ModelDigest};
use sppl_serve::client::Client;
use sppl_serve::protocol::WireEvent;

use crate::calib::Speed;
use crate::daemon::Daemon;
use crate::gen::{self, Ev};
use crate::layers;
use crate::oracle::{self, ChainParams, HmmParams, HmmPosterior};
use crate::serve::wire_err;
use crate::stats::{median, peak_rss_mib, quantile, thread_cpu_s, BitsDigest};
use crate::trace::Tracer;
use crate::{Outcome, Run};

const HMM_STEPS: usize = 100;
const OBSERVED: usize = 50;
const CHAIN_STEPS: usize = 20;
const WIDE_NORMALS: usize = 12;
const WIDE_K: usize = 6;
const PREDICTIVE: usize = 128;
const HOT: usize = 16;
const FRESH_SMOOTHING: usize = 48;
const CHAIN_EVENTS: usize = 60;
const WIDE_EVENTS: usize = 4;
pub const BATCH: usize = PREDICTIVE + HOT + FRESH_SMOOTHING + CHAIN_EVENTS + WIDE_EVENTS;
const SETUP_REPS: usize = 3;
/// Every `WIRE_EVERY`-th batch (the first, then every fourth) also goes
/// through the daemon. Serving a batch takes about twice as long as
/// answering it in-process; serving every batch would leave too few
/// library batches in a run for a steady 90th percentile.
const WIRE_EVERY: u64 = 4;
/// `peak_rss_mib` is read after this many batches (8 of them served).
/// The memo tables keep growing with every distinct event, so a reading
/// at the end of the run would measure how many batches the machine
/// managed; this one measures the same work on every run.
const RSS_AFTER_OPS: u64 = 32;

/// Which reference answers an event.
#[derive(Clone)]
enum Ref {
    XLe(usize, f64),
    ZThenXGt(usize, f64),
    States(Vec<(usize, usize)>),
    Chain(Vec<bool>),
    Wide(Vec<(f64, f64, f64, f64)>),
}

/// One model's share of a batch.
struct Part {
    events: Vec<Event>,
    wire: Vec<WireEvent>,
    refs: Vec<Ref>,
}

impl Part {
    fn new() -> Part {
        Part {
            events: Vec::new(),
            wire: Vec::new(),
            refs: Vec::new(),
        }
    }

    fn push(&mut self, ev: Ev, r: Ref) {
        self.events.push(ev.event());
        self.wire.push(ev.wire());
        self.refs.push(r);
    }
}

/// The models a batch runs against, locally and on the daemon.
struct Setup {
    hmm: HmmParams,
    hmm_obs: Vec<Option<(f64, f64)>>,
    chain: ChainParams,
    wide_means: Vec<f64>,
    /// Posterior, chain, wide — local sessions and served digests.
    models: [Model; 3],
    digests: [ModelDigest; 3],
    daemon: Daemon,
    client: Client,
}

fn setup(
    run: &Run,
    rep: u64,
    tr: &mut Tracer,
    seen: &mut HashSet<ModelDigest>,
) -> Result<Setup, String> {
    let mut rng = gen::rng(run.seed, 0x5345_5455_0000 + rep);
    let hmm = gen::hmm_params(&mut rng, HMM_STEPS);
    let hmm_obs = gen::hmm_observations(&mut rng, &hmm, OBSERVED);
    let chain = gen::chain_params(&mut rng, CHAIN_STEPS);
    let wide_means = gen::wide_means(&mut rng, WIDE_NORMALS);
    let texts = [
        gen::hmm_source(&hmm),
        gen::chain_source(&chain),
        gen::wide_source(&wide_means),
    ];

    let prior = layers::compile(tr, &texts[0], seen)?;
    let post = layers::constrain(tr, &prior, &gen::hmm_assignment(&hmm_obs))?;
    let chain_model = layers::compile(tr, &texts[1], seen)?;
    let wide_model = layers::compile(tr, &texts[2], seen)?;
    let models = [post, chain_model, wide_model];

    let daemon = Daemon::spawn(&run.exe_dir, &[])?;
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let mut digests = Vec::new();
    for text in &texts {
        digests.push(client.register(text).map_err(wire_err)?.0);
    }
    let (posterior, _) = client
        .constrain(digests[0], &gen::hmm_wire_assignment(&hmm_obs))
        .map_err(wire_err)?;
    digests[0] = posterior;
    for (m, d) in models.iter().zip(&digests) {
        if m.model_digest() != *d {
            return Err("served model digest differs from the library's".into());
        }
    }
    if tr.on() {
        for m in &models {
            let arena = tr.span("core.arena.compile", |_| m.compile_arena());
            tr.count("core.arena.nodes", arena.node_count() as f64);
        }
    }
    Ok(Setup {
        hmm,
        hmm_obs,
        chain,
        wide_means,
        models,
        digests: [digests[0], digests[1], digests[2]],
        daemon,
        client,
    })
}

/// The run's hot smoothing set: `Z[t] = 1` at 16 seeded steps.
fn hot_set(seed: u64) -> Vec<usize> {
    let mut rng = gen::rng(seed, 0x484f_5400);
    (0..HOT).map(|_| rng.gen_range(0..HMM_STEPS)).collect()
}

fn batch(s: &Setup, hot: &[usize], rng: &mut StdRng) -> [Part; 3] {
    let mut parts = [Part::new(), Part::new(), Part::new()];
    let z = |t: usize, v: f64| Ev::Eq(gen::idx("Z", t), v);
    for i in 0..PREDICTIVE {
        // Within reach of every regime's mean, so `Φ` stays in its bulk.
        let c = gen::r4(rng.gen_range(2.0..18.0));
        if i % 2 == 0 {
            let t = rng.gen_range(OBSERVED..HMM_STEPS);
            parts[0].push(Ev::Le(gen::idx("X", t), c), Ref::XLe(t, c));
        } else {
            let t = rng.gen_range(OBSERVED - 1..HMM_STEPS - 1);
            parts[0].push(
                Ev::And(vec![z(t, 1.0), Ev::Gt(gen::idx("X", t + 1), c)]),
                Ref::ZThenXGt(t, c),
            );
        }
    }
    for &t in hot {
        parts[0].push(z(t, 1.0), Ref::States(vec![(t, 1)]));
    }
    for _ in 0..FRESH_SMOOTHING {
        let mut ts: Vec<usize> = Vec::new();
        while ts.len() < 3 {
            let t = rng.gen_range(0..HMM_STEPS);
            if !ts.contains(&t) {
                ts.push(t);
            }
        }
        ts.sort_unstable();
        let clamps = vec![(ts[0], 1), (ts[1], 0), (ts[2], 1)];
        let ev = Ev::And(clamps.iter().map(|&(t, v)| z(t, v as f64)).collect());
        parts[0].push(ev, Ref::States(clamps));
    }
    for _ in 0..CHAIN_EVENTS {
        let k = rng.gen_range(4..=CHAIN_STEPS);
        let pattern: Vec<bool> = (0..k).map(|_| rng.gen::<f64>() < 0.8).collect();
        parts[1].push(gen::chain_event(&pattern), Ref::Chain(pattern));
    }
    for _ in 0..WIDE_EVENTS {
        let (ev, clauses) = gen::wide_event(rng, &s.wide_means, WIDE_K);
        parts[2].push(ev, Ref::Wide(clauses));
    }
    parts
}

fn reference(s: &Setup, hmm: &HmmPosterior, r: &Ref) -> f64 {
    match r {
        Ref::XLe(t, c) => hmm.x_le(*t, *c).ln(),
        Ref::ZThenXGt(t, c) => hmm.z_then_x_gt(*t, *c).ln(),
        Ref::States(clamps) => hmm.states(clamps).ln(),
        Ref::Chain(pattern) => oracle::chain_logprob(&s.chain, pattern),
        Ref::Wide(clauses) => oracle::wide_and_of_or(clauses).ln(),
    }
}

pub fn run(run: &Run, epoch: Instant) -> Result<Outcome, String> {
    let mut tr = Tracer::new(run.trace, epoch);
    let mut seen = HashSet::new();
    let mut setups = Vec::new();
    let mut kept = None;
    let mut speed = Speed::new(epoch);
    for rep in 0..SETUP_REPS as u64 {
        speed.keep_up();
        // Only the kept (last) set-up is traced, as operation 0.
        tr.set_on(run.trace && rep + 1 == SETUP_REPS as u64);
        tr.begin_op(0);
        drop(kept.take());
        let t = Instant::now();
        let s = setup(run, rep, &mut tr, &mut seen)?;
        setups.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let mut s = kept.expect("at least one set-up");
    let hmm = HmmPosterior::new(&s.hmm, &s.hmm_obs);
    let hot = hot_set(run.seed);
    let stats_before = s.client.stats().map_err(wire_err)?;

    let mut outcome = Outcome::default();
    let (mut lib_ms, mut lib_cpu_ms) = (Vec::new(), Vec::new());
    let (mut wire_ms, mut traced_cpu_ms) = (Vec::new(), Vec::new());
    let mut overhead_us = Vec::new();
    let mut rss = 0.0;
    let mut digest = BitsDigest::default();
    let start = Instant::now();
    let mut op = 1u64;
    while start.elapsed().as_secs_f64() < run.seconds || op <= 2 {
        speed.keep_up();
        let mut rng = gen::rng(run.seed, 0x4241_5443_0000 + op);
        let parts = batch(&s, &hot, &mut rng);
        let on = run.trace && op % 2 == 1;
        tr.set_on(on);
        tr.begin_op(op);

        let (t0, c0) = (Instant::now(), thread_cpu_s());
        let lib: Result<Vec<Vec<f64>>, String> = tr.span("batch", |tr| {
            s.models
                .iter()
                .zip(&parts)
                .map(|(m, p)| layers::logprob_many(tr, m, &p.events))
                .collect()
        });
        let cpu_lib = (thread_cpu_s() - c0) * 1e3;
        let dt_lib = t0.elapsed().as_secs_f64() * 1e3;
        let wire = (op % WIRE_EVERY == 1).then(|| {
            let t1 = Instant::now();
            let wire: Result<Vec<Vec<f64>>, String> = tr.span("serve.wire_batch", |tr| {
                let mut out = Vec::new();
                for (d, p) in s.digests.iter().zip(&parts) {
                    out.push(s.client.logprob_many(*d, &p.wire).map_err(wire_err)?);
                    tr.count("serve.wire_events", p.wire.len() as f64);
                }
                Ok(out)
            });
            wire_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            wire
        });
        let mut side_ok = true;
        if on {
            traced_cpu_ms.push(cpu_lib);
            // Side measurements on the same events: event solving, and
            // the arena evaluator (bit-checked against the library).
            for p in &parts {
                layers::disjoin_side(&mut tr, &p.events);
            }
            if let Ok(lib) = &lib {
                for ((m, p), want) in s.models.iter().zip(&parts).zip(lib) {
                    let arena = m.compile_arena();
                    let got = tr.side("core.arena", |_| arena.logprob_many(&p.events));
                    tr.count("core.arena.events", p.events.len() as f64);
                    let same = got
                        .is_ok_and(|g| g.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()));
                    outcome.checks += 1;
                    if !same {
                        side_ok = false;
                        eprintln!("query_batch: arena answers differ from the library's");
                    }
                }
            }
            if let Err(e) = serve_probes(&mut tr, &mut s, &parts, &mut rng, &mut overhead_us) {
                side_ok = false;
                eprintln!("query_batch: serve probe failed: {e}");
            }
        } else {
            lib_ms.push(dt_lib);
            lib_cpu_ms.push(cpu_lib);
        }

        // Answer checks, untimed: references, then bit parity with the
        // served answers when the batch was served.
        outcome.attempted += 1;
        let ok = match (lib, wire.transpose()) {
            (Ok(lib), Ok(wire)) => {
                let mut ok = true;
                for (i, (p, l)) in parts.iter().zip(&lib).enumerate() {
                    for (j, (r, a)) in p.refs.iter().zip(l).enumerate() {
                        let want = reference(&s, &hmm, r);
                        ok &= (a - want).abs() <= 1e-6 * (1.0 + want.abs());
                        outcome.checks += 1;
                        if let Some(w) = &wire {
                            ok &= w[i].get(j).is_some_and(|b| a.to_bits() == b.to_bits());
                            outcome.checks += 1;
                        }
                        digest.push(*a);
                    }
                }
                ok
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("query_batch batch {op} failed: {e}");
                false
            }
        };
        outcome.failed += u64::from(!(ok && side_ok));
        if op == RSS_AFTER_OPS {
            rss = peak_rss_mib("self").unwrap_or(0.0) + s.daemon.peak_rss_mib();
        }
        op += 1;
    }
    tr.set_on(false);
    let stats_after = s.client.stats().map_err(wire_err)?;
    outcome.digest = digest;

    let f = speed.factor();
    let lib_norm_ms: Vec<f64> = lib_cpu_ms.iter().map(|ms| ms * f).collect();
    let wire_s: f64 = wire_ms.iter().sum::<f64>() / 1e3;
    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&setups) * f);
    m.insert(
        "peak_rss_mib",
        if rss > 0.0 {
            rss
        } else {
            peak_rss_mib("self").unwrap_or(0.0) + s.daemon.peak_rss_mib()
        },
    );
    m.insert("norm_op_ms_p50", median(&lib_norm_ms));
    m.insert("norm_op_ms_p90", quantile(&lib_norm_ms, 0.9));
    m.insert(
        "norm_events_per_s",
        (lib_norm_ms.len() * BATCH) as f64 / (lib_norm_ms.iter().sum::<f64>() / 1e3).max(1e-9),
    );
    let d = &mut outcome.details;
    d.put("setup_wall_s", median(&setups), "s");
    d.put("batch_ms_p50", median(&lib_ms), "ms");
    d.put("batch_cpu_ms_p50", median(&lib_cpu_ms), "ms");
    d.put("batch_ms_p95", quantile(&lib_ms, 0.95), "ms");
    d.put(
        "wire_events_per_s",
        (wire_ms.len() * BATCH) as f64 / wire_s.max(1e-9),
        "1/s",
    );
    d.put("wire_batch_ms_p50", median(&wire_ms), "ms");
    d.put("batches", (op - 1) as f64, "count");
    speed.report(d);

    if run.trace {
        let mut layer = tr.common_layers("batch");
        let wire_us: u64 = tr.ns_by_op("serve.wire_batch").values().sum();
        let wire_events = tr.counter_total("serve.wire_events");
        layer.insert(
            "serve.wire_batch_us_per_event",
            wire_us as f64 / 1e3 / wire_events.max(1.0),
        );
        let arena_ns: u64 = tr.ns_by_op("core.arena").values().sum();
        layer.insert(
            "core.arena.us_per_event",
            arena_ns as f64 / 1e3 / tr.counter_total("core.arena.events").max(1.0),
        );
        let compile_ns: u64 = tr.ns_by_op("core.arena.compile").values().sum();
        layer.insert("core.arena.compile_ms", compile_ns as f64 / 1e6);
        layer.insert("core.arena.nodes", tr.counter_total("core.arena.nodes"));
        layer.extend(crate::serve::serve_layers(
            &tr,
            &overhead_us,
            &stats_before,
            &stats_after,
        ));
        layer.insert(
            "trace.overhead_ratio",
            median(&traced_cpu_ms) / median(&lib_cpu_ms),
        );
        outcome.metrics.extend(layer);
        outcome.tracer = Some(tr);
    }
    Ok(outcome)
}

/// Side measurements of single requests on the batch's connection: a
/// `lookup` (transport and protocol alone), one served query against the
/// same query straight into the library, a `condition` on a fresh chain
/// event, and a `register` of a new small program.
fn serve_probes(
    tr: &mut Tracer,
    s: &mut Setup,
    parts: &[Part; 3],
    rng: &mut StdRng,
    overhead_us: &mut Vec<f64>,
) -> Result<(), String> {
    let (client, digests) = (&mut s.client, &s.digests);
    tr.side("serve.lookup", |_| client.lookup(digests[0]))
        .map_err(wire_err)?;
    let (event, wire) = (&parts[1].events[0], &parts[1].wire[0]);
    let t = Instant::now();
    let served = tr
        .side("serve.query", |_| client.logprob(digests[1], wire))
        .map_err(wire_err)?;
    let served_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let direct = tr
        .side("serve.direct", |_| s.models[1].logprob(event))
        .map_err(|e| e.to_string())?;
    overhead_us.push(served_us - t.elapsed().as_secs_f64() * 1e6);
    if served.to_bits() != direct.to_bits() {
        return Err("served single query differs from the library's".into());
    }
    let o = rng.gen_range(0..CHAIN_STEPS);
    let ev = Ev::Eq(gen::idx("O", o), f64::from(u8::from(rng.gen_bool(0.5))));
    tr.side("serve.condition", |_| {
        client.condition(digests[1], &ev.wire())
    })
    .map_err(wire_err)?;
    let text = crate::serve::new_program(rng);
    tr.side("serve.register", |_| client.register(&text))
        .map_err(wire_err)?;
    Ok(())
}
