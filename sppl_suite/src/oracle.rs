//! Reference evaluators for the answer checks. None of them goes through
//! the sum-product machinery being timed: the normal CDF, the forward
//! recursions and the closed forms below are written out here, and the
//! Table 2/4 references come from the `sppl-baseline` enumerative
//! engine.

use std::f64::consts::PI;

use sppl_baseline::enumerative::{Data, EnumOutcome, EnumerativeEngine};
use sppl_core::Event;

/// `erfc(x)`: the all-positive series for `erf` below 3, a continued
/// fraction above (no cancellation on either side).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x < 3.0 {
        // erf(x) = 2/√π · e^{-x²} · Σ 2ⁿ x^{2n+1} / (1·3·…·(2n+1)).
        let mut term = x;
        let mut sum = x;
        let mut n = 0.0;
        while term > 1e-17 * sum {
            n += 1.0;
            term *= 2.0 * x * x / (2.0 * n + 1.0);
            sum += term;
        }
        1.0 - 2.0 / PI.sqrt() * (-x * x).exp() * sum
    } else {
        // erfc(x) = e^{-x²}/√π · 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + …)))).
        let mut t = x;
        for n in (1..=80).rev() {
            t = x + (f64::from(n) / 2.0) / t;
        }
        (-x * x).exp() / PI.sqrt() / t
    }
}

/// Standard normal CDF.
pub fn phi(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

fn ln_factorial(k: f64) -> f64 {
    (2..=k as u64).map(|i| (i as f64).ln()).sum()
}

/// Parameters of the Fig. 3 hierarchical HMM (the constants of
/// `sppl_models::hmm::hierarchical_hmm`, here seeded).
#[derive(Debug, Clone)]
pub struct HmmParams {
    pub n: usize,
    pub p_separated: f64,
    pub p_z0: f64,
    /// `P(Z[t] = 1 | Z[t-1] = zp)`.
    pub p_transition: [f64; 2],
    /// Normal means `mu_x[s][z]` (unit scale).
    pub mu_x: [[f64; 2]; 2],
    /// Poisson rates `mu_y[s][z]`.
    pub mu_y: [[f64; 2]; 2],
}

/// Posterior of the hierarchical HMM given observations at some steps:
/// `P(separated = s, Z[t_i] = v_i ∀i | obs)` by a scaled forward pass
/// per regime with the listed states clamped.
pub struct HmmPosterior {
    params: HmmParams,
    obs: Vec<Option<(f64, f64)>>,
    /// `ln P(obs)`.
    log_evidence: f64,
}

impl HmmPosterior {
    /// `obs[t]` is `Some((x, y))` at observed steps.
    pub fn new(params: &HmmParams, obs: &[Option<(f64, f64)>]) -> HmmPosterior {
        let mut post = HmmPosterior {
            params: params.clone(),
            obs: obs.to_vec(),
            log_evidence: 0.0,
        };
        let joint = [post.log_joint(0, &[]), post.log_joint(1, &[])];
        let top = joint[0].max(joint[1]);
        post.log_evidence = top + ((joint[0] - top).exp() + (joint[1] - top).exp()).ln();
        post
    }

    /// `ln P(separated = s, clamps, obs)`.
    fn log_joint(&self, s: usize, clamps: &[(usize, usize)]) -> f64 {
        let p = &self.params;
        let allowed = |t: usize, z: usize| clamps.iter().all(|&(ct, cz)| ct != t || cz == z);
        let emit = |t: usize, z: usize| -> f64 {
            match self.obs[t] {
                None => 1.0,
                Some((x, y)) => {
                    let (mx, my) = (p.mu_x[s][z], p.mu_y[s][z]);
                    let ln_n = -0.5 * (x - mx) * (x - mx) - 0.5 * (2.0 * PI).ln();
                    let ln_p = y * my.ln() - my - ln_factorial(y);
                    (ln_n + ln_p).exp()
                }
            }
        };
        let bern = |q: f64, z: usize| if z == 1 { q } else { 1.0 - q };
        let mut log_scale = if s == 1 {
            p.p_separated
        } else {
            1.0 - p.p_separated
        }
        .ln();
        let mut alpha = [0.0; 2];
        for t in 0..p.n {
            let mut next = [0.0; 2];
            for (z, slot) in next.iter_mut().enumerate() {
                if !allowed(t, z) {
                    continue;
                }
                let prior = if t == 0 {
                    bern(p.p_z0, z)
                } else {
                    (0..2).map(|a| alpha[a] * bern(p.p_transition[a], z)).sum()
                };
                *slot = prior * emit(t, z);
            }
            let total = next[0] + next[1];
            log_scale += total.ln();
            alpha = [next[0] / total, next[1] / total];
        }
        log_scale
    }

    /// `P(separated = s, Z[t_i] = v_i ∀i | obs)`.
    pub fn joint(&self, s: usize, clamps: &[(usize, usize)]) -> f64 {
        (self.log_joint(s, clamps) - self.log_evidence).exp()
    }

    /// `P(Z[t_i] = v_i ∀i | obs)`.
    pub fn states(&self, clamps: &[(usize, usize)]) -> f64 {
        self.joint(0, clamps) + self.joint(1, clamps)
    }

    /// `P(X[t] ≤ c | obs)` at an unobserved step.
    pub fn x_le(&self, t: usize, c: f64) -> f64 {
        (0..2)
            .flat_map(|s| (0..2).map(move |z| (s, z)))
            .map(|(s, z)| self.joint(s, &[(t, z)]) * phi(c - self.params.mu_x[s][z]))
            .sum()
    }

    /// `P(Z[t] = 1 ∧ X[t+1] > c | obs)` with step `t+1` unobserved.
    pub fn z_then_x_gt(&self, t: usize, c: f64) -> f64 {
        (0..2)
            .flat_map(|s| (0..2).map(move |b| (s, b)))
            .map(|(s, b)| {
                self.joint(s, &[(t, 1), (t + 1, b)]) * (1.0 - phi(c - self.params.mu_x[s][b]))
            })
            .sum()
    }
}

/// Parameters of the Fig. 8 two-state chain (`rare_event::chain_network`).
#[derive(Debug, Clone)]
pub struct ChainParams {
    pub n: usize,
    /// `P(S[0] = 1)`.
    pub p_s0: f64,
    /// `P(O[t] = 1 | S[t] = z) = e0 + de·z`, as the program text says.
    pub e0: f64,
    pub de: f64,
    /// `P(S[t] = 1 | S[t-1] = zp) = t0 + dt·zp`.
    pub t0: f64,
    pub dt: f64,
}

/// `ln P(O[0..k] = pattern)` by the forward recursion
/// `α_t(s') = Σ_s α_{t-1}(s)·T(s, s')·P(O_t | s')`.
pub fn chain_logprob(p: &ChainParams, pattern: &[bool]) -> f64 {
    let bern = |q: f64, one: bool| if one { q } else { 1.0 - q };
    let emit = [p.e0 + p.de * 0.0, p.e0 + p.de * 1.0];
    let trans = [p.t0 + p.dt * 0.0, p.t0 + p.dt * 1.0];
    let mut alpha = [
        bern(p.p_s0, false) * bern(emit[0], pattern[0]),
        bern(p.p_s0, true) * bern(emit[1], pattern[0]),
    ];
    for &o in &pattern[1..] {
        let next = |s2: usize| -> f64 {
            (0..2)
                .map(|s| alpha[s] * bern(trans[s], s2 == 1))
                .sum::<f64>()
                * bern(emit[s2], o)
        };
        alpha = [next(0), next(1)];
    }
    (alpha[0] + alpha[1]).ln()
}

/// `P(∧_j (A_j ≤ c_j ∨ B_j > d_j))` over independent unit normals, each
/// clause given as `(mu_a, c, mu_b, d)`.
pub fn wide_and_of_or(clauses: &[(f64, f64, f64, f64)]) -> f64 {
    clauses
        .iter()
        .map(|&(mu_a, c, mu_b, d)| 1.0 - (1.0 - phi(c - mu_a)) * phi(d - mu_b))
        .product()
}

/// The Fig. 4 transform `Z = -X³ + X² + 6X` (X < 1), `Z = -5√X + 11`
/// (X ≥ 1): the three X-intervals on which `0 ≤ Z ≤ 2`, found by
/// bisection on the closed forms.
pub fn fig4_preimage() -> [(f64, f64); 3] {
    let cubic = |x: f64| -x * x * x + x * x + 6.0 * x;
    let bisect = |mut lo: f64, mut hi: f64, target: f64| {
        // `cubic - target` changes sign on [lo, hi].
        let rising = cubic(hi) > cubic(lo);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if (cubic(mid) < target) == rising {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    [
        (bisect(-3.0, -2.0, 2.0), -2.0),
        (0.0, bisect(0.0, 1.0, 2.0)),
        (3.24, 4.84),
    ]
}

/// `P(X ∈ [lo, hi])` for `X ~ normal(mu, sigma)`.
pub fn normal_interval(mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    phi((hi - mu) / sigma) - phi((lo - mu) / sigma)
}

/// The published Fig. 2 constants: `P[GPA ≤ 4] = 0.68`,
/// `P[evidence] = 0.27125`, `P[India | evidence] = 72/217`.
pub const GPA_LE_4: f64 = 0.68;
pub const GPA_EVIDENCE: f64 = 0.27125;
pub const GPA_INDIA_POSTERIOR: f64 = 72.0 / 217.0;

/// The enumerative baseline's posterior probability of `query`, or
/// `None` when the flat expansion exceeds its term limit.
pub fn enumerative(source: &str, data: &Data, query: &Event) -> Option<f64> {
    match EnumerativeEngine::default().query(source, data, query) {
        Ok(EnumOutcome::Solved { value, .. }) => Some(value),
        _ => None,
    }
}

/// Relative agreement of two probabilities, compared in log space so
/// tiny probabilities are held to the same relative standard.
pub fn agrees(got: f64, want: f64, rel: f64) -> bool {
    if !(got.is_finite() && want.is_finite()) || got < 0.0 || want < 0.0 {
        return false;
    }
    if want < 1e-250 {
        return got < 1e-240;
    }
    (got - want).abs() <= rel * want
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-15);
        assert!((erfc(1.0) - 0.157_299_207_050_285_1).abs() < 1e-15);
        assert!((erfc(2.0) / 0.004_677_734_981_047_266 - 1.0).abs() < 1e-13);
        assert!((erfc(3.5) / 7.430_983_723_414_127e-7 - 1.0).abs() < 1e-13);
        assert!((phi(-1.0) - 0.158_655_253_931_457_05).abs() < 1e-15);
    }

    #[test]
    fn chain_recursion_matches_the_golden_values() {
        let p = ChainParams {
            n: 20,
            p_s0: 0.01,
            e0: 0.03,
            de: 0.67,
            t0: 0.01,
            dt: 0.74,
        };
        let got = chain_logprob(&p, &[true; 20]);
        assert!((got - -17.127_759_312_089_733).abs() < 1e-9);
    }
}
