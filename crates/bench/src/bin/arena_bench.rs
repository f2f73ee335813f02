//! Arena evaluator vs the tree walker on the paper's batch workloads:
//! the Fig. 3 hierarchical-HMM smoothing posterior and the Fig. 8
//! rare-event chain network. Each workload compiles the session's model
//! into an [`ArenaModel`](sppl_core::ArenaModel) and answers the same
//! cold batch through the per-event tree walk ([`Spe::logprob`] on the
//! canonical event, a fresh memo per event), through the arena, and
//! through the session's cold `logprob_many` (cache probes, then the
//! misses on the arena). The answers must be bit-identical (that is the
//! arena's contract, enforced here with `bits_match`), and the table
//! reports per-event latency plus the arena's speedup over the tree
//! walk.
//!
//! Flags:
//!
//! * `--test` — smoke mode: smaller horizon / shorter chain (CI).
//! * `--json` — additionally write machine-readable results to
//!   `BENCH_arena.json` in the working directory.
//!
//! [`Spe::logprob`]: sppl_core::Spe::logprob

use rand::rngs::StdRng;
use rand::SeedableRng;
use sppl_bench::args::BenchArgs;
use sppl_bench::json::JsonObject;
use sppl_bench::{bits_match, fmt_secs, timed, Table};
use sppl_core::{Event, Model};
use sppl_models::{hmm, rare_event};

/// Measurements for one workload, all over the same cold batch.
struct Run {
    name: &'static str,
    events: usize,
    nodes: usize,
    compile_s: f64,
    tree_cold_s: f64,
    arena_s: f64,
    batch_cold_s: f64,
}

impl Run {
    fn per_event_ns(&self, total_s: f64) -> f64 {
        total_s * 1e9 / self.events as f64
    }
}

/// Answers `batch` through the per-event tree walk, through a freshly
/// compiled arena, and through the session's cold batch path, asserting
/// bit parity between all three.
fn measure(name: &'static str, model: &Model, batch: &[Event]) -> Run {
    // The tree walk gets a fresh memo per event, so every pass is cold;
    // the arena takes no caches at all.
    let tree_walk = || -> Vec<f64> {
        batch
            .iter()
            .map(|e| model.root().logprob(&e.canonical()).expect("tree walk"))
            .collect()
    };
    tree_walk(); // touch every code path once
    let (tree, tree_cold_s) = timed(tree_walk);

    let (arena, compile_s) = timed(|| model.compile_arena());
    let (fast, arena_s) = timed(|| arena.logprob_many(batch).expect("arena batch"));
    assert!(
        bits_match(&tree, &fast),
        "{name}: arena must answer bit-identically to the tree walker"
    );
    model.clear_caches();
    let (session, batch_cold_s) = timed(|| model.logprob_many(batch).expect("session batch"));
    assert!(
        bits_match(&tree, &session),
        "{name}: the session batch must answer bit-identically to the tree walker"
    );

    Run {
        name,
        events: batch.len(),
        nodes: arena.node_count(),
        compile_s,
        tree_cold_s,
        arena_s,
        batch_cold_s,
    }
}

fn main() {
    let args = BenchArgs::parse();

    // Fig. 3 workload: the smoothing + pairwise-persistence batch
    // against the HMM posterior (conditioning returns a Model, so the
    // posterior compiles to its own digest-keyed arena).
    let n = if args.test { 32 } else { 100 };
    let model = hmm::hierarchical_hmm(n).session().expect("compiles");
    let mut rng = StdRng::seed_from_u64(33);
    let trace = hmm::simulate_trace(&mut rng, n);
    let posterior = model
        .constrain(&hmm::observation_assignment(&trace.x, &trace.y))
        .expect("positive density");
    let batch: Vec<Event> = {
        let mut b = hmm::smoothing_queries(n);
        b.extend(hmm::pairwise_queries(n));
        b
    };
    let fig3 = measure("fig3_hmm_posterior", &posterior, &batch);

    // Fig. 8 workload: every prefix probability P[O[0..k] all 1] on the
    // chain network, through the prior model itself.
    let chain_len = if args.test { 12 } else { 20 };
    let chain = rare_event::chain_network(chain_len)
        .session()
        .expect("compiles");
    let prefixes: Vec<Event> = (1..=chain_len).map(rare_event::all_ones_event).collect();
    let fig8 = measure("fig8_chain", &chain, &prefixes);

    let mut table = Table::new([
        "Workload",
        "Events",
        "Nodes",
        "Compile",
        "Tree cold",
        "Arena",
        "Batch cold",
        "ns/event (tree)",
        "ns/event (arena)",
        "Speedup",
    ]);
    for run in [&fig3, &fig8] {
        table.row([
            run.name.to_string(),
            run.events.to_string(),
            run.nodes.to_string(),
            fmt_secs(run.compile_s),
            fmt_secs(run.tree_cold_s),
            fmt_secs(run.arena_s),
            fmt_secs(run.batch_cold_s),
            format!("{:.0}", run.per_event_ns(run.tree_cold_s)),
            format!("{:.0}", run.per_event_ns(run.arena_s)),
            format!("{:.2}x", run.tree_cold_s / run.arena_s),
        ]);
    }
    println!("arena evaluator vs cold tree walker (bit-identical answers asserted)\n");
    table.print();

    if args.json {
        let mut json = JsonObject::new()
            .str("bench", "arena")
            .str("mode", args.mode())
            .bool("bits_identical", true);
        for run in [&fig3, &fig8] {
            let k = run.name;
            json = json
                .int(&format!("{k}_events"), run.events as u64)
                .int(&format!("{k}_nodes"), run.nodes as u64)
                .num(&format!("{k}_compile_s"), run.compile_s)
                .num(&format!("{k}_tree_cold_s"), run.tree_cold_s)
                .num(&format!("{k}_arena_s"), run.arena_s)
                .num(&format!("{k}_batch_cold_s"), run.batch_cold_s)
                .num(
                    &format!("{k}_tree_ns_per_event"),
                    run.per_event_ns(run.tree_cold_s),
                )
                .num(
                    &format!("{k}_arena_ns_per_event"),
                    run.per_event_ns(run.arena_s),
                )
                .num(&format!("{k}_speedup"), run.tree_cold_s / run.arena_s);
        }
        json.write("BENCH_arena.json")
            .expect("write BENCH_arena.json");
        println!("\nwrote BENCH_arena.json");
    }
}
