//! Explicit-pool parallel conditioning (`par_condition_in`) vs the
//! sequential `condition`, on the two regimes the fan-out targets: a
//! **wide mixture** (many sum children, one conditioning pass fans out
//! per-child) and a **deep conditioning chain** over a moderately wide
//! mixture (the chain itself stays sequential — each posterior feeds the
//! next step — but every step fans out internally). Answers must be
//! bit-identical across every thread count (`bits_match` asserted); wall
//! time is the only thing parallelism is allowed to change.
//!
//! Each run builds a **fresh factory**: the cond cache would otherwise
//! answer the second run instantly and time nothing. Per thread-ladder
//! rung, sequential and parallel runs alternate (switching which goes
//! first) for `REPS` repetitions, and each side is reported as median
//! [min, max]. A rung with more
//! threads than the machine has cores is marked `core_bound` and gets no
//! speedup figure: on such a rung the threads time-share cores, so the
//! ratio says nothing about scaling.
//!
//! Flags:
//!
//! * `--test` — smoke mode: 200-component mixture, 60-step chain (CI).
//! * `--json` — additionally write `BENCH_condition.json`, recording the
//!   core count and the commit.
//! * `--threads N` — top rung of the thread ladder (default:
//!   `SPPL_THREADS` or the machine's available parallelism); the ladder
//!   always includes 1 and 2.

use sppl_bench::args::BenchArgs;
use sppl_bench::json::JsonObject;
use sppl_bench::{bits_match, fmt_secs, timed, Table};
use sppl_core::{condition, par_condition_in, Event, Factory, Pool, Spe, Transform, Var};
use sppl_dists::{Cdf, DistReal, Distribution};
use sppl_sets::Interval;

fn normal_leaf(f: &Factory, name: &str, mu: f64) -> Spe {
    f.leaf(
        Var::new(name),
        Distribution::Real(DistReal::new(Cdf::normal(mu, 1.0), Interval::all()).unwrap()),
    )
}

/// An `n`-component mixture of two-variable products with distinct
/// means (distinct, or dedup would collapse the components).
fn wide_mixture(f: &Factory, n: usize) -> Spe {
    let w = (1.0 / n as f64).ln();
    let comps: Vec<(Spe, f64)> = (0..n)
        .map(|i| {
            let mu = -4.0 + 8.0 * i as f64 / n as f64;
            let c = f
                .product(vec![normal_leaf(f, "X", mu), normal_leaf(f, "Y", -mu)])
                .unwrap();
            (c, w)
        })
        .collect();
    f.sum(comps).unwrap()
}

/// A disjunction so conditioning walks the clause (DNF) path, not just
/// a single truncation.
fn evidence() -> Event {
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    Event::or(vec![
        Event::le(x.clone(), 0.25),
        Event::and(vec![Event::gt(x, -1.0), Event::gt(y, 1.5)]),
    ])
}

/// Posterior probes answered after every run; their bits are the
/// equality witness.
fn probes() -> Vec<Event> {
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    vec![
        Event::le(x.clone(), 0.0),
        Event::gt(y.clone(), 0.0),
        Event::and(vec![Event::le(x.clone(), 1.0), Event::le(y.clone(), 1.0)]),
        Event::or(vec![Event::gt(x, 2.0), Event::le(y, -2.0)]),
    ]
}

fn probe_answers(f: &Factory, post: &Spe) -> Vec<f64> {
    probes()
        .iter()
        .map(|q| f.logprob(post, q).expect("probe"))
        .collect()
}

/// A slowly tightening alternating chain: step `k` truncates `X` (even)
/// or `Y` (odd) a little further, so every mixture component survives
/// every step and each step's sum stays wide enough to fan out.
fn chain_events(depth: usize) -> Vec<Event> {
    let x = Transform::id(Var::new("X"));
    let y = Transform::id(Var::new("Y"));
    (0..depth)
        .map(|k| {
            let shrink = 2.0 * k as f64 / depth as f64;
            if k % 2 == 0 {
                Event::le(x.clone(), 4.0 - shrink)
            } else {
                Event::gt(y.clone(), -4.0 + shrink)
            }
        })
        .collect()
}

/// Sequential and parallel runs alternated per ladder rung.
const REPS: usize = 5;

/// Conditions `m` on each event in turn — sequentially without a pool,
/// else through `par_condition_in` — and returns the final posterior.
fn condition_all(f: &Factory, m: &Spe, events: &[Event], pool: Option<&Pool>) -> Spe {
    events.iter().fold(m.clone(), |post, e| {
        match pool {
            Some(pool) => par_condition_in(f, &post, e, pool),
            None => condition(f, &post, e),
        }
        .expect("conditions")
    })
}

/// One timed run in a fresh factory: builds a `width`-component mixture,
/// conditions it on `events` (timed), and returns the probe answers.
fn run(width: usize, events: &[Event], pool: Option<&Pool>) -> (Vec<f64>, f64) {
    let f = Factory::new();
    let m = wide_mixture(&f, width);
    let (post, s) = timed(|| condition_all(&f, &m, events, pool));
    (probe_answers(&f, &post), s)
}

/// Median, min and max of a sample.
fn summary(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2], v[0], v[v.len() - 1])
}

/// One thread-ladder rung: alternated sequential/parallel wall times.
struct Rung {
    threads: u32,
    seq_s: Vec<f64>,
    par_s: Vec<f64>,
    /// More threads than available cores: no speedup is reported.
    core_bound: bool,
}

impl Rung {
    /// Median sequential over median parallel time, unless core-bound.
    fn speedup(&self) -> Option<f64> {
        (!self.core_bound).then(|| summary(&self.seq_s).0 / summary(&self.par_s).0)
    }
}

/// Measures every rung of `ladder` on one workload, asserting that each
/// parallel run's answers match the sequential reference bit for bit.
fn measure(width: usize, events: &[Event], ladder: &[u32], available: usize) -> Vec<Rung> {
    let (reference, _) = run(width, events, None);
    ladder
        .iter()
        .map(|&threads| {
            let pool = Pool::new(threads);
            let mut rung = Rung {
                threads,
                seq_s: Vec::new(),
                par_s: Vec::new(),
                core_bound: threads as usize > available,
            };
            for rep in 0..REPS {
                // Alternate which side runs first, so neither always
                // inherits the other's warm allocator or cold caches.
                let mut sides = [None, Some(&pool)];
                if rep % 2 == 1 {
                    sides.reverse();
                }
                for side in sides {
                    let (answers, s) = run(width, events, side);
                    assert!(
                        bits_match(&reference, &answers),
                        "parallel conditioning must be bit-identical at {threads} threads"
                    );
                    match side {
                        Some(_) => rung.par_s.push(s),
                        None => rung.seq_s.push(s),
                    }
                }
            }
            rung
        })
        .collect()
}

/// The checked-out commit (suffixed `-dirty` when the tree has
/// uncommitted changes), or `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn main() {
    let args = BenchArgs::parse();
    let top = (args.threads as u32).max(1);
    let mut ladder: Vec<u32> = vec![1, 2, top];
    ladder.sort_unstable();
    ladder.dedup();
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());

    let components = if args.test { 200 } else { 1000 };
    let (chain_width, chain_depth) = if args.test { (32, 60) } else { (100, 500) };

    let workloads = [
        (
            "mixture",
            format!("{components} components"),
            measure(components, &[evidence()], &ladder, available),
        ),
        (
            "chain",
            format!("{chain_depth} steps x {chain_width} wide"),
            measure(chain_width, &chain_events(chain_depth), &ladder, available),
        ),
    ];

    let fmt_runs = |xs: &[f64]| {
        let (med, min, max) = summary(xs);
        format!("{} [{}, {}]", fmt_secs(med), fmt_secs(min), fmt_secs(max))
    };
    let mut table = Table::new(["Workload", "Size", "Threads", "Seq", "Par", "Speedup"]);
    for (name, size, rungs) in &workloads {
        for rung in rungs {
            table.row([
                name.to_string(),
                size.clone(),
                rung.threads.to_string(),
                fmt_runs(&rung.seq_s),
                fmt_runs(&rung.par_s),
                rung.speedup()
                    .map_or_else(|| "core-bound".to_string(), |x| format!("{x:.2}x")),
            ]);
        }
    }
    println!(
        "par_condition_in vs sequential condition: median [min, max] of {REPS} \
         alternated runs per rung (bit-identity asserted)\n"
    );
    table.print();
    println!("\n{available} hardware thread(s) available; rungs above that are core-bound");

    if args.json {
        let mut json = JsonObject::new()
            .str("bench", "condition")
            .str("mode", args.mode())
            .int("nproc", available as u64)
            .str("commit", &commit())
            .int("reps", REPS as u64)
            .int("mixture_components", components as u64)
            .int("chain_depth", chain_depth as u64)
            .int("chain_width", chain_width as u64)
            .bool("bits_match", true);
        for (name, _, rungs) in &workloads {
            for rung in rungs {
                let key = format!("{name}_t{}", rung.threads);
                for (side, xs) in [("seq", &rung.seq_s), ("par", &rung.par_s)] {
                    let (med, min, max) = summary(xs);
                    json = json
                        .num(&format!("{key}_{side}_median_s"), med)
                        .num(&format!("{key}_{side}_min_s"), min)
                        .num(&format!("{key}_{side}_max_s"), max);
                }
                json = json.bool(&format!("{key}_core_bound"), rung.core_bound);
                if let Some(x) = rung.speedup() {
                    json = json.num(&format!("{key}_speedup"), x);
                }
            }
        }
        json.write("BENCH_condition.json")
            .expect("write BENCH_condition.json");
        println!("\nwrote BENCH_condition.json");
    }
}
