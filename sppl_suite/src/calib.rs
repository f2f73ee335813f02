//! The reference kernel: a fixed piece of work owned by the suite, timed
//! between operations so operation times can be stated at a fixed
//! machine speed.
//!
//! On a shared host the processor time of the same work moves by up to
//! 2.5x, as other tenants load the cores and memory the machine shares;
//! thread CPU time does not leave that out, and no hardware counters are
//! exposed. The kernel does the kinds of work the program's operations
//! do — building and walking a sum-product tree of boxed nodes with a
//! memo, pointer chasing with hash-map probes, and chains of `ln`/`exp`
//! — so it slows with them: on the tuning machine its time tracked a
//! compile-and-query loop of the program within a few percent while the
//! loop's own time moved by 30%. It calls no code of the program, so no
//! change to the program moves it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{thread_cpu_s, Metrics};

/// What the kernel takes, in processor milliseconds, on the 2-vCPU
/// machine the suite was tuned on while no other tenant slowed it. The
/// gated times are stated at this speed.
pub const NOMINAL_MS: f64 = 7.0;

/// Share of a run's time the kernel takes.
const SHARE: f64 = 0.08;

/// The kernel's samples over one run.
pub struct Speed {
    epoch: Instant,
    samples: Vec<f64>,
    spent_s: f64,
}

impl Speed {
    /// `epoch` is the start of the run.
    pub fn new(epoch: Instant) -> Speed {
        Speed {
            epoch,
            samples: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Runs the kernel until it has taken `SHARE` of the run so far, and
    /// at least once. Called between operations, so the samples spread
    /// over the whole run.
    pub fn keep_up(&mut self) {
        loop {
            let ms = kernel_ms();
            self.samples.push(ms);
            self.spent_s += ms / 1e3;
            if self.spent_s >= SHARE * self.epoch.elapsed().as_secs_f64() {
                break;
            }
        }
    }

    /// The kernel's mean time over the run, in ms.
    pub fn mean_ms(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len().max(1) as f64
    }

    /// What a time measured in this run is multiplied by to state it at
    /// nominal speed. The mean over the whole run, not the median and
    /// not a mean over the samples next to each operation: the machine
    /// flips between a fast and a slow state many times a second, the
    /// mean follows the share of time spent slow, which is what
    /// stretches an operation, and on the tuning machine local means
    /// added more noise than they took away.
    pub fn factor(&self) -> f64 {
        NOMINAL_MS / self.mean_ms()
    }

    /// Puts the kernel's figures on a workload's detail line.
    pub fn report(&self, details: &mut Metrics) {
        details.put("kernel_ms_mean", self.mean_ms(), "ms");
        details.put("kernel_runs", self.samples.len() as f64, "count");
        details.put("speed_factor", self.factor(), "ratio");
    }
}

/// Runs the kernel once and returns its processor time in ms.
fn kernel_ms() -> f64 {
    let c0 = thread_cpu_s();
    black_box(tree_eval());
    black_box(chase());
    black_box(float_chain());
    (thread_cpu_s() - c0) * 1e3
}

/// A fixed xorshift stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A sum-product tree of boxed nodes, like an SPE.
enum Tree {
    Leaf(f64),
    Sum(Vec<Tree>),
    Product(Box<Tree>, Box<Tree>),
}

fn build(depth: u32, s: &mut Stream) -> Tree {
    let r = s.next();
    if depth == 0 {
        Tree::Leaf((r >> 11) as f64 / (1u64 << 53) as f64)
    } else if r >> 63 == 0 {
        Tree::Sum((0..3).map(|_| build(depth - 1, s)).collect())
    } else {
        Tree::Product(Box::new(build(depth - 1, s)), Box::new(build(depth - 1, s)))
    }
}

/// Log-density of the tree: log-sum-exp at sums, a memo keyed by leaf.
fn eval(t: &Tree, memo: &mut BTreeMap<u64, f64>) -> f64 {
    match t {
        Tree::Leaf(x) => *memo.entry(x.to_bits() >> 40).or_insert_with(|| x.ln_1p()),
        Tree::Sum(children) => {
            let xs: Vec<f64> = children.iter().map(|c| eval(c, memo)).collect();
            let m = xs.iter().copied().fold(f64::MIN, f64::max);
            m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
        }
        Tree::Product(a, b) => eval(a, memo) + eval(b, memo),
    }
}

/// Builds, evaluates and drops six trees.
fn tree_eval() -> f64 {
    let mut s = Stream(0x9e37_79b9_7f4a_7c15);
    (0..6)
        .map(|_| eval(&build(9, &mut s), &mut BTreeMap::new()))
        .sum()
}

/// Pointer chasing round a random cycle of 1024 boxed nodes, with a
/// hash-map memo.
fn chase() -> f64 {
    const NODES: usize = 1 << 10;
    struct Node {
        next: usize,
        weight: f64,
    }
    let mut s = Stream(0x2545_f491_4f6c_dd1d);
    let mut order: Vec<usize> = (0..NODES).collect();
    for i in (1..NODES).rev() {
        order.swap(i, (s.next() % (i as u64 + 1)) as usize);
    }
    let mut nodes: Vec<Box<Node>> = (0..NODES)
        .map(|i| {
            Box::new(Node {
                next: 0,
                weight: 1.0 + (i % 97) as f64 / 97.0,
            })
        })
        .collect();
    for w in order.windows(2) {
        nodes[w[0]].next = w[1];
    }
    nodes[order[NODES - 1]].next = order[0];
    let mut memo: HashMap<u64, f64> = HashMap::new();
    let (mut at, mut acc) = (order[0], 0.0f64);
    for i in 0..1 << 16 {
        let node = &nodes[at];
        let key = (at as u64).wrapping_mul(0x0100_0000_01b3) % 4096;
        let v = *memo
            .entry(key)
            .or_insert_with(|| (node.weight * (1.0 + f64::from(i) * 1e-6)).ln());
        acc += (v - acc * 1e-3).exp().min(4.0);
        at = node.next;
    }
    acc
}

/// A dependent chain of `ln`, `exp` and `sqrt`.
fn float_chain() -> f64 {
    let mut acc = 0.0f64;
    for i in 0..150_000 {
        let x = 1.0 + f64::from(i) * 1e-5;
        acc += (x.ln() * 0.5).exp().sqrt() / (1.0 + acc.abs() * 1e-9);
    }
    acc
}
