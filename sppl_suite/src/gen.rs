//! Seeded inputs: program texts with perturbed constants, observation
//! traces, and events in both the library and the wire vocabulary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sppl_core::{var, Event};
use sppl_serve::protocol::WireEvent;

use crate::oracle::{ChainParams, HmmParams};

/// A generator stream for one purpose: `seed` is the run's seed, `tag`
/// keeps streams for different purposes independent.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `x` rounded to four decimals, so the text and the reference
/// evaluators hold the same double.
pub fn r4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// An event the suite can send down either path.
#[derive(Debug, Clone)]
pub enum Ev {
    Le(String, f64),
    Gt(String, f64),
    Eq(String, f64),
    EqStr(String, String),
    And(Vec<Ev>),
    Or(Vec<Ev>),
    In(String, f64, f64),
}

impl Ev {
    pub fn event(&self) -> Event {
        match self {
            Ev::Le(v, c) => var(v).le(*c),
            Ev::Gt(v, c) => var(v).gt(*c),
            Ev::Eq(v, c) => var(v).eq(*c),
            Ev::EqStr(v, s) => var(v).eq(s.as_str()),
            Ev::And(es) => Event::and(es.iter().map(Ev::event).collect()),
            Ev::Or(es) => Event::or(es.iter().map(Ev::event).collect()),
            Ev::In(v, lo, hi) => var(v).in_interval(sppl_sets::Interval::closed(*lo, *hi)),
        }
    }

    pub fn wire(&self) -> WireEvent {
        match self {
            Ev::Le(v, c) => WireEvent::le(v, *c),
            Ev::Gt(v, c) => WireEvent::gt(v, *c),
            Ev::Eq(v, c) => WireEvent::eq_real(v, *c),
            Ev::EqStr(v, s) => WireEvent::eq_str(v, s),
            Ev::And(es) => WireEvent::And(es.iter().map(Ev::wire).collect()),
            Ev::Or(es) => WireEvent::Or(es.iter().map(Ev::wire).collect()),
            Ev::In(v, lo, hi) => WireEvent::InInterval {
                var: v.clone(),
                lo: *lo,
                lo_closed: true,
                hi: *hi,
                hi_closed: true,
            },
        }
    }
}

pub fn idx(base: &str, t: usize) -> String {
    format!("{base}[{t}]")
}

/// Prepends an unused constant: the program's answers are unchanged to
/// the bit, but its text and normalized syntax tree are new, so the
/// compile cache misses and the program is translated again.
pub fn with_nonce(source: &str, nonce: u64) -> String {
    format!("suite_nonce = {nonce}\n{source}")
}

/// Fig. 3 constants perturbed around the paper's
/// (`mu_x = [[5,7],[5,15]]`, `mu_y = [[5,8],[3,8]]`,
/// `p_transition = [0.2, 0.8]`, `P(separated) = 0.4`, `P(Z[0]) = 0.5`).
pub fn hmm_params(rng: &mut StdRng, n: usize) -> HmmParams {
    let mut jitter = |x: f64, d: f64| r4(x + rng.gen_range(-d..d));
    HmmParams {
        n,
        p_separated: jitter(0.4, 0.05),
        p_z0: jitter(0.5, 0.05),
        p_transition: [jitter(0.2, 0.02), jitter(0.8, 0.02)],
        mu_x: [
            [jitter(5.0, 0.25), jitter(7.0, 0.25)],
            [jitter(5.0, 0.25), jitter(15.0, 0.25)],
        ],
        mu_y: [
            [jitter(5.0, 0.25), jitter(8.0, 0.25)],
            [jitter(3.0, 0.25), jitter(8.0, 0.25)],
        ],
    }
}

/// The Fig. 3a program text (same structure as
/// `sppl_models::hmm::hierarchical_hmm`) with `p`'s constants.
pub fn hmm_source(p: &HmmParams) -> String {
    let [[a, b], [c, d]] = p.mu_x;
    let [[e, f], [g, h]] = p.mu_y;
    format!(
        "
mu_x = [[{a}, {b}], [{c}, {d}]]
mu_y = [[{e}, {f}], [{g}, {h}]]
p_transition = [{t0}, {t1}]

Z = array({n})
X = array({n})
Y = array({n})

separated ~ bernoulli(p={ps})
switch separated cases (s in [0, 1]) {{
    Z[0] ~ bernoulli(p={pz})
    switch Z[0] cases (z in [0, 1]) {{
        X[0] ~ normal(mu_x[s][z], 1)
        Y[0] ~ poisson(mu_y[s][z])
    }}
    for t in range(1, {n}) {{
        switch Z[t-1] cases (zp in [0, 1]) {{
            Z[t] ~ bernoulli(p=p_transition[zp])
        }}
        switch Z[t] cases (z in [0, 1]) {{
            X[t] ~ normal(mu_x[s][z], 1)
            Y[t] ~ poisson(mu_y[s][z])
        }}
    }}
}}
",
        t0 = p.p_transition[0],
        t1 = p.p_transition[1],
        n = p.n,
        ps = p.p_separated,
        pz = p.p_z0,
    )
}

/// Observations of steps `0..observed` drawn from the model `p`
/// describes (the model's own generative process).
pub fn hmm_observations(
    rng: &mut StdRng,
    p: &HmmParams,
    observed: usize,
) -> Vec<Option<(f64, f64)>> {
    let s = usize::from(rng.gen::<f64>() < p.p_separated);
    let mut z = usize::from(rng.gen::<f64>() < p.p_z0);
    (0..p.n)
        .map(|t| {
            if t > 0 {
                z = usize::from(rng.gen::<f64>() < p.p_transition[z]);
            }
            // Box–Muller and Knuth's Poisson sampler; x is rounded so the
            // text of the observation is exact.
            let u1: f64 = rng.gen::<f64>().max(1e-12);
            let u2: f64 = rng.gen();
            let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let x = r4(p.mu_x[s][z] + noise);
            let limit = (-p.mu_y[s][z]).exp();
            let (mut k, mut prod) = (0.0, rng.gen::<f64>());
            while prod > limit {
                k += 1.0;
                prod *= rng.gen::<f64>();
            }
            (t < observed).then_some((x, k))
        })
        .collect()
}

/// The observed steps as a `constrain` assignment.
pub fn hmm_assignment(obs: &[Option<(f64, f64)>]) -> sppl_core::density::Assignment {
    let mut a = sppl_core::density::Assignment::new();
    for (t, o) in obs.iter().enumerate() {
        if let Some((x, y)) = o {
            a.insert(
                sppl_core::Var::indexed("X", t),
                sppl_sets::Outcome::Real(*x),
            );
            a.insert(
                sppl_core::Var::indexed("Y", t),
                sppl_sets::Outcome::Real(*y),
            );
        }
    }
    a
}

/// The same observations in the wire vocabulary (`constrain` op).
pub fn hmm_wire_assignment(
    obs: &[Option<(f64, f64)>],
) -> std::collections::BTreeMap<String, sppl_serve::protocol::WireOutcome> {
    use sppl_serve::protocol::WireOutcome;
    let mut a = std::collections::BTreeMap::new();
    for (t, o) in obs.iter().enumerate() {
        if let Some((x, y)) = o {
            a.insert(idx("X", t), WireOutcome::Real(*x));
            a.insert(idx("Y", t), WireOutcome::Real(*y));
        }
    }
    a
}

/// Fig. 8 constants perturbed around `P(S[0]) = 0.01`,
/// `P(O | S) = 0.03 / 0.70`, `P(S' | S) = 0.01 / 0.75`.
pub fn chain_params(rng: &mut StdRng, n: usize) -> ChainParams {
    let mut jitter = |x: f64, d: f64| r4(x + rng.gen_range(-d..d));
    ChainParams {
        n,
        p_s0: jitter(0.01, 0.004),
        e0: jitter(0.03, 0.01),
        de: jitter(0.67, 0.05),
        t0: jitter(0.01, 0.004),
        dt: jitter(0.74, 0.05),
    }
}

/// The Fig. 8 chain text (same structure as
/// `sppl_models::rare_event::chain_network`) with `p`'s constants.
pub fn chain_source(p: &ChainParams) -> String {
    let ChainParams {
        n, e0, de, t0, dt, ..
    } = *p;
    let mut src = format!(
        "S = array({n})\nO = array({n})\nS[0] ~ bernoulli(p={})\n",
        p.p_s0
    );
    src.push_str(&format!(
        "switch S[0] cases (z in [0, 1]) {{ O[0] ~ bernoulli(p={e0} + {de}*z) }}\n"
    ));
    for t in 1..n {
        src.push_str(&format!(
            "switch S[{p}] cases (zp in [0, 1]) {{ S[{t}] ~ bernoulli(p={t0} + {dt}*zp) }}\n",
            p = t - 1
        ));
        src.push_str(&format!(
            "switch S[{t}] cases (z in [0, 1]) {{ O[{t}] ~ bernoulli(p={e0} + {de}*z) }}\n"
        ));
    }
    src
}

/// `O[0..k] = pattern`.
pub fn chain_event(pattern: &[bool]) -> Ev {
    Ev::And(
        pattern
            .iter()
            .enumerate()
            .map(|(t, &o)| Ev::Eq(idx("O", t), f64::from(u8::from(o))))
            .collect(),
    )
}

/// The Fig. 4 program with `X ~ normal(mu, sigma)`.
pub fn fig4_source(mu: f64, sigma: f64) -> String {
    format!(
        "
X ~ normal({mu}, {sigma})
if (X < 1) {{ Z = -(X**3) + X**2 + 6*X }}
else {{ Z = -5*sqrt(X) + 11 }}
"
    )
}

/// Draws Fig. 4's `(mu, sigma)` around the paper's `(0, 2)`.
pub fn fig4_params(rng: &mut StdRng) -> (f64, f64) {
    (
        r4(rng.gen_range(-0.2..0.2)),
        r4(2.0 + rng.gen_range(-0.2..0.2)),
    )
}

/// The wide model: `count` independent unit normals `N[i]` with seeded
/// means.
pub fn wide_source(means: &[f64]) -> String {
    let mut src = format!("N = array({})\n", means.len());
    for (i, mu) in means.iter().enumerate() {
        src.push_str(&format!("N[{i}] ~ normal({mu}, 1)\n"));
    }
    src
}

pub fn wide_means(rng: &mut StdRng, count: usize) -> Vec<f64> {
    (0..count).map(|_| r4(rng.gen_range(-1.0..1.0))).collect()
}

/// An and of `k` two-literal ors over distinct normals:
/// `∧_j (N[2j] ≤ c_j ∨ N[2j+1] > d_j)`, with the clause constants for
/// the closed-form reference.
pub fn wide_event(rng: &mut StdRng, means: &[f64], k: usize) -> (Ev, Vec<(f64, f64, f64, f64)>) {
    let mut clauses = Vec::with_capacity(k);
    let mut ors = Vec::with_capacity(k);
    for j in 0..k {
        let c = r4(rng.gen_range(-1.0..1.0));
        let d = r4(rng.gen_range(-1.0..1.0));
        ors.push(Ev::Or(vec![
            Ev::Le(idx("N", 2 * j), c),
            Ev::Gt(idx("N", 2 * j + 1), d),
        ]));
        clauses.push((means[2 * j], c, means[2 * j + 1], d));
    }
    (Ev::And(ors), clauses)
}
