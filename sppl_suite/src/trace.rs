//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls the suite makes into each layer's
//! public functions; nothing inside the program is instrumented. Every
//! span carries its name, start and end (ns since the run began), the
//! index of its parent span, and the id of the operation it belongs to
//! (a pass, a batch, or a request). Counters are recorded at the same
//! boundaries. With tracing off every call is a plain pass-through.
//!
//! Spans stay in memory until the run ends; [`Tracer::write_jsonl`]
//! then writes one JSON object per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A side measurement: the same inputs re-run through another layer
    /// entry point to time it. Side spans are excluded from operation
    /// wall times.
    pub side: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one thread. Merge per-thread recorders with
/// [`Tracer::absorb`] before aggregating.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    /// `(op, counter)` → summed value.
    pub counters: BTreeMap<(u64, &'static str), f64>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between operations (the traced run
    /// alternates to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts operation `op`: later spans and counters belong to it.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, false, f)
    }

    /// Runs `f` as a side measurement (see [`Span::side`]).
    pub fn side<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, true, f)
    }

    fn record<T>(&mut self, name: &'static str, side: bool, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            side,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `value` to counter `name` of the current operation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counters.entry((self.op, name)).or_insert(0.0) += value;
        }
    }

    /// Moves another thread's spans and counters into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (key, value) in other.counters {
            *self.counters.entry(key).or_insert(0.0) += value;
        }
    }

    /// Summed nanoseconds of every span named `name`, per operation.
    pub fn ns_by_op(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0) += s.ns();
        }
        out
    }

    /// Summed value of counter `name` over every operation.
    pub fn counter_total(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, v)| v)
            .sum::<f64>()
            + 0.0
    }

    /// Median duration of the spans named `name`, in µs (0 when none).
    pub fn span_us_p50(&self, name: &str) -> f64 {
        let us: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        if us.is_empty() {
            0.0
        } else {
            crate::stats::median(&us)
        }
    }

    /// Root spans named `root`: one per traced operation.
    fn roots<'a>(&'a self, root: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == root && s.parent.is_none() && !s.side)
    }

    /// Per root span index: the ns of side measurements nested in it
    /// (outermost side spans only).
    fn side_ns(&self) -> BTreeMap<usize, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.side) {
            let mut at = s.parent;
            let mut nested = false;
            let mut root = None;
            while let Some(p) = at {
                nested |= self.spans[p].side;
                root = Some(p);
                at = self.spans[p].parent;
            }
            if let (false, Some(root)) = (nested, root) {
                *out.entry(root).or_insert(0) += s.ns();
            }
        }
        out
    }

    /// Wall ns of each traced operation, side measurements excluded.
    pub fn op_ns(&self, root: &str) -> Vec<u64> {
        let side = self.side_ns();
        self.roots(root)
            .map(|(i, s)| s.ns().saturating_sub(side.get(&i).copied().unwrap_or(0)))
            .collect()
    }

    /// Per operation: the root span's duration minus the time its direct
    /// children (side measurements included) cover, in ns.
    pub fn unattributed_ns(&self, root: &str) -> Vec<u64> {
        let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_insert(0) += s.ns();
            }
        }
        self.roots(root)
            .map(|(i, s)| {
                s.ns()
                    .saturating_sub(child_ns.get(&i).copied().unwrap_or(0))
            })
            .collect()
    }

    /// The per-layer metrics every workload derives the same way, from
    /// operations whose root span is named `root` (operation 0 is the
    /// set-up). A per-operation figure for a layer that runs only during
    /// set-up is the set-up's figure.
    pub fn common_layers(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let ops: Vec<u64> = self.roots(root).map(|(_, s)| s.op).collect();
        let n_ops = ops.len().max(1) as f64;
        let in_ops = |by_op: &BTreeMap<u64, f64>| -> f64 {
            let total: f64 = ops.iter().filter_map(|op| by_op.get(op)).sum();
            if total > 0.0 {
                total / n_ops
            } else {
                by_op.get(&0).copied().unwrap_or(0.0)
            }
        };
        let span_ms = |name: &str| -> f64 {
            let by_op = self
                .ns_by_op(name)
                .into_iter()
                .map(|(op, ns)| (op, ns as f64 / 1e6))
                .collect();
            in_ops(&by_op)
        };
        let counter = |name: &str| -> f64 {
            let by_op = self
                .counters
                .iter()
                .filter(|((_, n), _)| *n == name)
                .map(|((op, _), v)| (*op, *v))
                .collect();
            in_ops(&by_op)
        };
        let ratio = |num: &str, den: &str| -> f64 {
            let d = self.counter_total(den);
            if d > 0.0 {
                self.counter_total(num) / d
            } else {
                0.0
            }
        };
        let per_event_us = |span: &str, events: &str| -> f64 {
            let ns: u64 = self.ns_by_op(span).values().sum();
            let n = self.counter_total(events);
            if n > 0.0 {
                ns as f64 / 1e3 / n
            } else {
                0.0
            }
        };
        let mut out = BTreeMap::new();
        out.insert("lang.parse.ms", span_ms("lang.parse"));
        out.insert("analyze.ms", span_ms("analyze"));
        out.insert("lang.translate.ms", span_ms("lang.translate"));
        out.insert("lang.translate.nodes", counter("lang.translate.nodes"));
        out.insert(
            "analyze.compile_cache.hit_ratio",
            ratio(
                "analyze.compile_cache.hits",
                "analyze.compile_cache.lookups",
            ),
        );
        out.insert("core.constrain.ms", span_ms("core.constrain"));
        out.insert("core.condition.ms", span_ms("core.condition"));
        out.insert(
            "core.disjoin.us_per_event",
            per_event_us("core.disjoin", "core.disjoin.events"),
        );
        out.insert(
            "core.disjoin.clauses_per_event",
            ratio("core.disjoin.clauses", "core.disjoin.events"),
        );
        out.insert(
            "core.engine.us_per_event",
            per_event_us("core.engine", "core.engine.events"),
        );
        out.insert(
            "core.engine.hit_ratio",
            ratio("core.engine.hits", "core.engine.lookups"),
        );
        out.insert("core.wire.encode_ms", span_ms("core.wire.encode"));
        out.insert("core.wire.decode_ms", span_ms("core.wire.decode"));
        out.insert("core.wire.bytes", counter("core.wire.bytes"));
        let unattributed: Vec<f64> = self
            .unattributed_ns(root)
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect();
        out.insert("unattributed.ms", crate::stats::median(&unattributed));
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"side\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.side
            )?;
        }
        out.flush()
    }
}
