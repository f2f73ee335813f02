//! `serve_mix`: an open loop against the `sppl-serve` daemon, started
//! with default flags plus a temporary `--compile-cache` directory.
//!
//! Two connections, one thread each, send requests on a fixed schedule;
//! a request's latency runs from when it was due, so a stall also
//! charges the requests queued behind it, and the generator's lateness
//! is recorded. The run has three phases: open loops at [`LOW_RATE`] and
//! [`HIGH_RATE`], then a saturation phase in which each connection sends
//! its next request as soon as the previous one returns. A closed loop
//! cannot build a backlog, so its throughput is the highest rate these
//! connections sustain; it counts as `max_rate` when its p99 meets
//! [`LATENCY_LIMIT_MS`].
//!
//! The mix, per request: [`CONDITION_SHARE`] `condition` on a fresh
//! event of a root model; [`REGISTER_SHARE`] `register`, half with a
//! known text (compile-cache hit) and half with a new small program
//! (translation plus a wire-format write to disk); the rest single
//! `logprob`/`prob` queries (half each) over the three registered models
//! (Fig. 2 Indian GPA, the Fig. 8 chain(20), 12 independent normals),
//! [`POSTERIOR_SHARE`] of them against posteriors this connection got
//! back from `condition`, [`HOT_SHARE`] of them repeating a hot set of
//! 16 events per model.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;
use sppl_core::{Model, ModelDigest};
use sppl_serve::client::Client;
use sppl_serve::protocol::StatsSnapshot;

use crate::daemon::Daemon;
use crate::gen::{self, r4, Ev};
use crate::layers;
use crate::oracle::{self, ChainParams};
use crate::stats::{median, quantile, BitsDigest};
use crate::trace::Tracer;
use crate::{Outcome, Run};

/// Client connections, one load-generator thread each.
pub const CONNECTIONS: usize = 2;
/// Offered rates (requests per second over both connections), fixed
/// from the capacity of the commit that introduced the suite.
pub const LOW_RATE: f64 = 200.0;
pub const HIGH_RATE: f64 = 800.0;
/// The p99 latency limit for `max_rate`.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
pub const CONDITION_SHARE: f64 = 0.005;
pub const REGISTER_SHARE: f64 = 0.005;
/// Models one connection may add to the daemon's registry (1024 by
/// default, shared by both connections and the three roots). At the
/// cap, `condition` repeats one of the connection's earlier events and
/// `register` sends a known text, so no request fails for a full
/// registry however fast the machine.
const CREATE_CAP: usize = 400;
pub const POSTERIOR_SHARE: f64 = 0.25;
/// Root-model queries that repeat a hot event, answered from the shared
/// cache without a batching window. Kept well away from one half and
/// one tenth so the reported median and p90 fall inside the window-bound
/// latency cluster instead of on the edge between the two clusters.
pub const HOT_SHARE: f64 = 0.25;
const HOT: usize = 16;
const SETUP_REPS: usize = 3;
/// Queries a set-up sends after registering the models.
const WARM_UP: usize = 200;
/// The measured window is a sequence of cycles of about [`CYCLE_S`]
/// seconds; each cycle spends these shares at the low rate, the high
/// rate, and saturated. A figure is the median over cycles of its value
/// within each, so a transient stall on a shared machine moves one slice
/// rather than a whole phase.
const SHARES: [f64; 3] = [0.25, 0.35, 0.40];
const CYCLE_S: f64 = 2.0;

/// The three root models: local sessions for the answer checks, served
/// digests, and what the reference evaluators need.
struct Models {
    texts: Vec<String>,
    local: Vec<Model>,
    digests: Vec<ModelDigest>,
    chain: ChainParams,
    wide_means: Vec<f64>,
    hot: Vec<Vec<(Ev, Option<Oracle>)>>,
}

/// A closed-form reference for a root-model query.
#[derive(Clone)]
enum Oracle {
    GpaLe(f64),
    Chain(Vec<bool>),
    NormalLe(f64, f64),
    NormalLeGt(f64, f64, f64, f64),
}

impl Oracle {
    fn prob(&self, chain: &ChainParams) -> f64 {
        let clamp = |x: f64| x.clamp(0.0, 1.0);
        match self {
            Oracle::GpaLe(c) => {
                let india = 0.1 * f64::from(u8::from(*c >= 10.0)) + 0.9 * clamp(c / 10.0);
                let usa = 0.15 * f64::from(u8::from(*c >= 4.0)) + 0.85 * clamp(c / 4.0);
                0.5 * india + 0.5 * usa
            }
            Oracle::Chain(pattern) => oracle::chain_logprob(chain, pattern).exp(),
            Oracle::NormalLe(mu, c) => oracle::phi(c - mu),
            Oracle::NormalLeGt(mu_a, c, mu_b, d) => {
                oracle::phi(c - mu_a) * (1.0 - oracle::phi(d - mu_b))
            }
        }
    }
}

enum Target {
    Root(usize),
    /// Index into the connection's posteriors.
    Post(usize),
}

enum Kind {
    Query {
        target: Target,
        ev: Ev,
        prob: bool,
        oracle: Option<Oracle>,
    },
    Condition {
        model: usize,
        ev: Ev,
    },
    Register {
        text: String,
    },
}

enum Answer {
    Value(f64),
    Digest(ModelDigest),
}

/// One request as sent and answered.
struct Sent {
    phase: usize,
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    kind: Kind,
    answer: Result<Answer, String>,
}

impl Sent {
    fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }
    fn late_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// A posterior a connection got back: root model, event, digest.
struct Posterior {
    model: usize,
    ev: Ev,
    digest: ModelDigest,
}

pub fn wire_err(e: sppl_serve::protocol::WireError) -> String {
    format!("sppl-serve: {e:?}")
}

/// A fresh event on root model `m`, with its reference when it has a
/// closed form.
fn fresh_event(m: usize, models: &Models, rng: &mut StdRng) -> (Ev, Option<Oracle>) {
    match m {
        0 => {
            let c = r4(rng.gen_range(0.0..12.0));
            if rng.gen_bool(0.5) {
                (Ev::Le("GPA".into(), c), Some(Oracle::GpaLe(c)))
            } else {
                let india = Ev::EqStr("Nationality".into(), "India".into());
                (Ev::And(vec![india, Ev::Gt("GPA".into(), c)]), None)
            }
        }
        1 => {
            // 120 patterns in all: after warm-up most repeat, so chain
            // queries are mostly shared-cache hits (their evaluation
            // costs ~10x a GPA or normals query).
            let k = rng.gen_range(3..=6);
            let pattern: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.5)).collect();
            (gen::chain_event(&pattern), Some(Oracle::Chain(pattern)))
        }
        _ => {
            let n = models.wide_means.len();
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let c = r4(rng.gen_range(-2.0..2.0));
            let d = r4(rng.gen_range(-2.0..2.0));
            let (mu_i, mu_j) = (models.wide_means[i], models.wide_means[j]);
            if i == j || rng.gen_bool(0.5) {
                (Ev::Le(gen::idx("N", i), c), Some(Oracle::NormalLe(mu_i, c)))
            } else {
                let ev = Ev::And(vec![
                    Ev::Le(gen::idx("N", i), c),
                    Ev::Gt(gen::idx("N", j), d),
                ]);
                (ev, Some(Oracle::NormalLeGt(mu_i, c, mu_j, d)))
            }
        }
    }
}

/// A fresh conditioning event of positive probability on root `m`.
fn condition_event(m: usize, models: &Models, rng: &mut StdRng) -> Ev {
    match m {
        0 => Ev::Gt("GPA".into(), r4(rng.gen_range(0.5..9.5))),
        1 => {
            let a = rng.gen_range(0..20);
            let b = (a + rng.gen_range(1..20)) % 20;
            Ev::And(vec![
                Ev::Eq(gen::idx("O", a), 1.0),
                Ev::Eq(gen::idx("O", b), 0.0),
            ])
        }
        _ => {
            let i = rng.gen_range(0..models.wide_means.len());
            Ev::Gt(gen::idx("N", i), r4(rng.gen_range(-1.5..1.5)))
        }
    }
}

/// A small new program: translation on the daemon, plus a payload
/// written to its compile cache.
pub fn new_program(rng: &mut StdRng) -> String {
    format!(
        "A ~ normal({}, {})\nB ~ bernoulli(p={})\nif (B == 1) {{ C ~ normal({}, 1) }} else {{ C ~ uniform({}, {}) }}\n",
        r4(rng.gen_range(-1.0..1.0)),
        r4(rng.gen_range(0.5..2.0)),
        r4(rng.gen_range(0.1..0.9)),
        r4(rng.gen_range(-1.0..1.0)),
        r4(rng.gen_range(-3.0..-1.0)),
        r4(rng.gen_range(1.0..3.0)),
    )
}

fn next_request(
    models: &Models,
    posteriors: &[Posterior],
    created: usize,
    rng: &mut StdRng,
) -> Kind {
    let at_cap = created >= CREATE_CAP && !posteriors.is_empty();
    let u: f64 = rng.gen();
    if u < CONDITION_SHARE {
        if at_cap {
            let p = &posteriors[rng.gen_range(0..posteriors.len())];
            return Kind::Condition {
                model: p.model,
                ev: p.ev.clone(),
            };
        }
        let model = rng.gen_range(0..models.local.len());
        return Kind::Condition {
            model,
            ev: condition_event(model, models, rng),
        };
    }
    if u < CONDITION_SHARE + REGISTER_SHARE {
        let text = if at_cap || rng.gen_bool(0.5) {
            models.texts[rng.gen_range(0..models.texts.len())].clone()
        } else {
            new_program(rng)
        };
        return Kind::Register { text };
    }
    let prob = rng.gen_bool(0.5);
    if !posteriors.is_empty() && rng.gen_bool(POSTERIOR_SHARE) {
        let j = rng.gen_range(0..posteriors.len());
        let (ev, _) = fresh_event(posteriors[j].model, models, rng);
        return Kind::Query {
            target: Target::Post(j),
            ev,
            prob,
            oracle: None,
        };
    }
    let m = rng.gen_range(0..models.local.len());
    let (ev, oracle) = if rng.gen_bool(HOT_SHARE) {
        models.hot[m][rng.gen_range(0..HOT)].clone()
    } else {
        fresh_event(m, models, rng)
    };
    Kind::Query {
        target: Target::Root(m),
        ev,
        prob,
        oracle,
    }
}

/// One phase of the schedule over `[start, end)` (ns since the epoch):
/// an open loop at `rate` requests per second over all connections, or
/// a closed loop when `rate` is `None`.
#[derive(Clone, Copy)]
struct Phase {
    start_ns: u64,
    end_ns: u64,
    rate: Option<f64>,
}

struct Conn {
    sent: Vec<Sent>,
    posteriors: Vec<Posterior>,
    /// Models this connection added to the registry.
    created: usize,
    tracer: Tracer,
    traced_ms: Vec<f64>,
    plain_ms: Vec<f64>,
    overhead_us: Vec<f64>,
}

/// Drives one connection through every phase.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: usize,
    addr: SocketAddr,
    models: &Models,
    phases: &[Phase],
    seed: u64,
    trace: bool,
    epoch: Instant,
) -> Result<Conn, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = gen::rng(seed, 0x5356_0000 + conn as u64);
    let mut out = Conn {
        sent: Vec::new(),
        posteriors: Vec::new(),
        created: 0,
        tracer: Tracer::new(false, epoch),
        traced_ms: Vec::new(),
        plain_ms: Vec::new(),
        overhead_us: Vec::new(),
    };
    let mut seen = HashSet::new();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut k = 0u64;
    for (p, phase) in phases.iter().enumerate() {
        // Each connection sends every `period`, the two offset by half
        // a period; a closed loop is due as soon as it can send.
        let period_ns = phase
            .rate
            .map_or(0, |r| (1e9 * CONNECTIONS as f64 / r) as u64);
        let mut due = phase.start_ns + period_ns * conn as u64 / CONNECTIONS as u64;
        while due < phase.end_ns {
            let kind = next_request(models, &out.posteriors, out.created, &mut rng);
            let wait = due.saturating_sub(now_ns());
            if wait > 0 {
                std::thread::sleep(Duration::from_nanos(wait));
            }
            k += 1;
            let on = trace && k % 2 == 1;
            let tr = &mut out.tracer;
            tr.set_on(on);
            tr.begin_op(((conn as u64 + 1) << 40) | k);
            let sent_ns = now_ns();
            let answer = tr.span("request", |tr| -> Result<Answer, String> {
                let answer = match &kind {
                    Kind::Query {
                        target, ev, prob, ..
                    } => {
                        let digest = match target {
                            Target::Root(m) => models.digests[*m],
                            Target::Post(j) => out.posteriors[*j].digest,
                        };
                        let (t, wire) = (Instant::now(), ev.wire());
                        let v = tr.span("serve.query", |_| {
                            if *prob {
                                client.prob(digest, &wire)
                            } else {
                                client.logprob(digest, &wire)
                            }
                        });
                        let served_us = t.elapsed().as_secs_f64() * 1e6;
                        if let (true, Target::Root(m)) = (tr.on(), target) {
                            // The same query straight into the library.
                            let e = ev.event();
                            let t = Instant::now();
                            let _ = tr
                                .side("serve.direct", |tr| layers::prob(tr, &models.local[*m], &e));
                            out.overhead_us
                                .push(served_us - t.elapsed().as_secs_f64() * 1e6);
                        }
                        Answer::Value(v.map_err(wire_err)?)
                    }
                    Kind::Condition { model, ev } => {
                        let (d, fresh) = tr
                            .span("serve.condition", |_| {
                                client.condition(models.digests[*model], &ev.wire())
                            })
                            .map_err(wire_err)?;
                        out.created += usize::from(fresh);
                        if tr.on() {
                            let e = ev.event();
                            let _ = tr.side("serve.direct", |tr| {
                                layers::condition(tr, &models.local[*model], &e)
                            });
                        }
                        Answer::Digest(d)
                    }
                    Kind::Register { text } => {
                        let (d, _, fresh) = tr
                            .span("serve.register", |_| client.register(text))
                            .map_err(wire_err)?;
                        out.created += usize::from(fresh);
                        if tr.on() {
                            let _ =
                                tr.side("serve.direct", |tr| layers::compile(tr, text, &mut seen));
                        }
                        Answer::Digest(d)
                    }
                };
                if tr.on() && k % 4 == 1 {
                    // Transport and protocol alone: a lookup evaluates nothing.
                    let _ = tr.side("serve.lookup", |_| client.lookup(models.digests[0]));
                }
                Ok(answer)
            });
            let done_ns = now_ns();
            let ms = (done_ns - sent_ns) as f64 / 1e6;
            if p % 3 == 1 {
                if on {
                    out.traced_ms.push(ms);
                } else {
                    out.plain_ms.push(ms);
                }
            }
            if let (Kind::Condition { model, ev }, Ok(Answer::Digest(d))) = (&kind, &answer) {
                out.posteriors.push(Posterior {
                    model: *model,
                    ev: ev.clone(),
                    digest: *d,
                });
            }
            out.sent.push(Sent {
                phase: p,
                due_ns: due,
                sent_ns,
                done_ns,
                kind,
                answer,
            });
            due = if phase.rate.is_some() {
                due + period_ns
            } else {
                done_ns
            };
        }
    }
    out.tracer.set_on(false);
    Ok(out)
}

struct Setup {
    daemon: Daemon,
    models: Models,
}

fn setup(run: &Run, rep: u64) -> Result<Setup, String> {
    let mut rng = gen::rng(run.seed, 0x5345_5256_0000 + rep);
    let chain = gen::chain_params(&mut rng, 20);
    let wide_means = gen::wide_means(&mut rng, 12);
    let texts = vec![
        sppl_models::indian_gpa::model().source,
        gen::chain_source(&chain),
        gen::wide_source(&wide_means),
    ];
    let dir = run.scratch(&format!("compile-cache-{rep}"));
    let dir_arg = dir.to_string_lossy().to_string();
    let daemon = Daemon::spawn(&run.exe_dir, &["--compile-cache", &dir_arg])?;
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let mut digests = Vec::new();
    for text in &texts {
        digests.push(client.register(text).map_err(wire_err)?.0);
    }
    let models = Models {
        texts,
        local: Vec::new(),
        digests,
        chain,
        wide_means,
        hot: Vec::new(),
    };
    // Warm the connection path and the daemon's lazy state.
    for i in 0..WARM_UP {
        let m = i % models.digests.len();
        let (ev, _) = fresh_event(m, &models, &mut rng);
        client
            .logprob(models.digests[m], &ev.wire())
            .map_err(wire_err)?;
    }
    Ok(Setup { daemon, models })
}

pub fn run(run: &Run, epoch: Instant) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(kept.take());
        let t = Instant::now();
        let s = setup(run, rep)?;
        setups.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let Setup { daemon, mut models } = kept.expect("at least one set-up");
    // Local sessions for the checks, and the hot sets (not timed).
    for (text, digest) in models.texts.iter().zip(&models.digests) {
        let m = sppl_analyze::compile_model(text).map_err(|e| e.to_string())?;
        if m.model_digest() != *digest {
            return Err("served model digest differs from the library's".into());
        }
        models.local.push(m);
    }
    let mut rng = gen::rng(run.seed, 0x484f_5453);
    models.hot = (0..models.local.len())
        .map(|m| {
            (0..HOT)
                .map(|_| fresh_event(m, &models, &mut rng))
                .collect()
        })
        .collect();

    let mut stats_client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let before = stats_client.stats().map_err(wire_err)?;
    // Read before the window: the shared cache grows with every distinct
    // event, so a later reading would measure how many requests the
    // machine managed rather than the footprint of the same work.
    let daemon_rss = daemon.peak_rss_mib();
    let rates = [Some(LOW_RATE), Some(HIGH_RATE), None];
    let cycles = (run.seconds / CYCLE_S).round().max(1.0) as usize;
    let cycle_ns = run.seconds * 1e9 / cycles as f64;
    let mut at = epoch.elapsed().as_nanos() as u64 + 20_000_000;
    let mut phases = Vec::new();
    for _ in 0..cycles {
        for (share, rate) in SHARES.iter().zip(rates) {
            let start_ns = at;
            at += (share * cycle_ns) as u64;
            phases.push(Phase {
                start_ns,
                end_ns: at,
                rate,
            });
        }
    }
    let conns: Vec<Result<Conn, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (models, phases) = (&models, &phases);
                scope.spawn(move || {
                    drive(c, daemon.addr, models, phases, run.seed, run.trace, epoch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let after = stats_client.stats().map_err(wire_err)?;
    drop(daemon);
    let conns: Vec<Conn> = conns.into_iter().collect::<Result<_, _>>()?;

    // Answer checks, untimed.
    let mut outcome = Outcome::default();
    let mut digest = BitsDigest::default();
    let mut local_posts: HashMap<(usize, usize), Result<Model, String>> = HashMap::new();
    for (c, conn) in conns.iter().enumerate() {
        for sent in &conn.sent {
            outcome.attempted += 1;
            let ok = match (&sent.kind, &sent.answer) {
                (
                    Kind::Query {
                        target,
                        ev,
                        prob,
                        oracle,
                    },
                    Ok(Answer::Value(v)),
                ) => {
                    digest.push(*v);
                    let model = match target {
                        Target::Root(m) => Ok(models.local[*m].clone()),
                        Target::Post(j) => local_posts
                            .entry((c, *j))
                            .or_insert_with(|| {
                                let p = &conn.posteriors[*j];
                                models.local[p.model]
                                    .condition(&p.ev.event())
                                    .map_err(|e| e.to_string())
                            })
                            .clone(),
                    };
                    let e = ev.event();
                    let local = model.and_then(|m| {
                        if *prob { m.prob(&e) } else { m.logprob(&e) }.map_err(|e| e.to_string())
                    });
                    outcome.checks += 1;
                    let mut ok = local.is_ok_and(|l| l.to_bits() == v.to_bits());
                    if let Some(o) = oracle {
                        outcome.checks += 1;
                        let p = if *prob { *v } else { v.exp() };
                        ok &= oracle::agrees(p, o.prob(&models.chain), 1e-9);
                    }
                    ok
                }
                (Kind::Condition { model, ev }, Ok(Answer::Digest(d))) => {
                    outcome.checks += 1;
                    models.local[*model]
                        .condition(&ev.event())
                        .is_ok_and(|m| m.model_digest() == *d)
                }
                (Kind::Register { text }, Ok(Answer::Digest(d))) => {
                    outcome.checks += 1;
                    sppl_analyze::compile_model(text).is_ok_and(|m| m.model_digest() == *d)
                }
                (_, Err(e)) => {
                    eprintln!("serve_mix request failed: {e}");
                    false
                }
                _ => false,
            };
            outcome.failed += u64::from(!ok);
        }
    }
    outcome.digest = digest;

    let all: Vec<&Sent> = conns.iter().flat_map(|c| &c.sent).collect();
    let lat = |kind: usize| -> Vec<f64> {
        all.iter()
            .filter(|s| s.phase % 3 == kind)
            .map(|s| s.latency_ms())
            .collect()
    };
    // Per-cycle figures: latency quantiles at the high rate, and the
    // saturated throughput.
    let (mut p50, mut p90, mut throughput) = (Vec::new(), Vec::new(), Vec::new());
    for (p, phase) in phases.iter().enumerate() {
        let slice: Vec<f64> = all
            .iter()
            .filter(|s| s.phase == p)
            .map(|s| s.latency_ms())
            .collect();
        match p % 3 {
            1 => {
                p50.push(median(&slice));
                p90.push(quantile(&slice, 0.9));
            }
            2 => {
                throughput
                    .push(slice.len() as f64 / ((phase.end_ns - phase.start_ns) as f64 / 1e9));
            }
            _ => {}
        }
    }
    let (low_ms, high_ms, saturated_ms) = (lat(0), lat(1), lat(2));
    let late: Vec<f64> = all
        .iter()
        .filter(|s| s.phase % 3 == 1)
        .map(|s| s.late_us())
        .collect();
    let max_rate = median(&throughput);

    let m = &mut outcome.metrics;
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mib", daemon_rss);
    m.insert("op_ms_p50", median(&p50));
    m.insert("op_ms_p90", median(&p90));
    m.insert("events_per_s", max_rate);
    let d = &mut outcome.details;
    d.put("lat_p50_us.low_rate", median(&low_ms) * 1e3, "us");
    d.put("lat_p99_us.low_rate", quantile(&low_ms, 0.99) * 1e3, "us");
    d.put("lat_p50_us.high_rate", median(&high_ms) * 1e3, "us");
    d.put("lat_p99_us.high_rate", quantile(&high_ms, 0.99) * 1e3, "us");
    d.put("max_rate_qps", max_rate, "1/s");
    d.put(
        "lat_p99_us.saturated",
        quantile(&saturated_ms, 0.99) * 1e3,
        "us",
    );
    d.put(
        "max_rate_meets_limit",
        f64::from(u8::from(quantile(&saturated_ms, 0.99) <= LATENCY_LIMIT_MS)),
        "bool",
    );
    d.put("generator.late_us_p99", quantile(&late, 0.99), "us");
    d.put("requests.low_rate", low_ms.len() as f64, "count");
    d.put("requests.high_rate", high_ms.len() as f64, "count");
    d.put("requests.saturated", saturated_ms.len() as f64, "count");
    d.put("cycles", cycles as f64, "count");

    if run.trace {
        let mut tr = Tracer::new(false, epoch);
        let (mut traced, mut plain, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
        for conn in conns {
            traced.extend(conn.traced_ms);
            plain.extend(conn.plain_ms);
            overhead.extend(conn.overhead_us);
            tr.absorb(conn.tracer);
        }
        let mut layer = tr.common_layers("request");
        layer.extend(serve_layers(&tr, &overhead, &before, &after));
        layer.insert("generator.late_us_p99", quantile(&late, 0.99));
        layer.insert("trace.overhead_ratio", median(&traced) / median(&plain));
        outcome.metrics.extend(layer);
        outcome.tracer = Some(tr);
    }
    Ok(outcome)
}

/// The per-layer serve metrics: request spans of the traced run, the
/// served-minus-direct overheads, and deltas of the daemon's `stats` op
/// (`before` and `after` the measured window).
pub fn serve_layers(
    tr: &Tracer,
    overhead_us: &[f64],
    before: &StatsSnapshot,
    after: &StatsSnapshot,
) -> Vec<(&'static str, f64)> {
    let d = |f: fn(&StatsSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let ratio = |n: f64, m: f64| if m > 0.0 { n / m } else { 0.0 };
    let batches = d(|s| s.batches);
    let batched = d(|s| s.batched_queries);
    let coalesced = d(|s| s.coalesced);
    let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
    let compiled = d(|s| s.compile_cache_hits + s.compile_cache_disk_hits);
    let overhead = if overhead_us.is_empty() {
        0.0
    } else {
        median(overhead_us)
    };
    vec![
        ("serve.floor_us_p50", tr.span_us_p50("serve.lookup")),
        ("serve.query_us_p50", tr.span_us_p50("serve.query")),
        ("serve.condition_us_p50", tr.span_us_p50("serve.condition")),
        ("serve.register_us_p50", tr.span_us_p50("serve.register")),
        ("serve.overhead_us_p50", overhead),
        (
            "serve.coalesce_ratio",
            ratio(coalesced, coalesced + batched),
        ),
        ("serve.batch_size_mean", ratio(batched, batches)),
        (
            "serve.arena_batch_ratio",
            ratio(d(|s| s.arena_batches), batches),
        ),
        ("serve.shared_cache.hit_ratio", ratio(hits, hits + misses)),
        ("serve.translations", d(|s| s.translations)),
        ("serve.errors", d(|s| s.errors)),
        (
            "analyze.compile_cache.hit_ratio",
            ratio(compiled, compiled + d(|s| s.compile_cache_misses)),
        ),
    ]
}
