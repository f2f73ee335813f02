//! `sppl-suite`: the repository's benchmark.
//!
//! ```text
//! bash sppl_suite/run.sh --workload <paper_e2e|query_batch|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! bash sppl_suite/run.sh --smoke
//! ```
//!
//! Run from the repository root. `run.sh` builds this package (and the
//! `sppl-serve` daemon, from its own source file) and execs the binary.
//! Every input is generated from `--seed`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of the
//! traced run (`--trace 1`). The first line is a header recording the
//! machine and build; the line before the result holds the workload's
//! detail figures. See `README.md` for the workloads and metrics.

mod batch;
mod calib;
mod daemon;
mod gen;
mod layers;
mod oracle;
mod paper;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sppl_serve::Json;
use stats::{num, string, BitsDigest, Metrics};
use trace::Tracer;

/// End-to-end metrics of the gated workloads (`paper_e2e`,
/// `query_batch`). An operation's time is the processor time of the load
/// thread, which does all of the timed work. Every time is stated at the
/// nominal speed of the reference kernel (`calib.rs`), which the run
/// times beside its operations: on a shared host the same work takes up
/// to 2.5 times the processor time while other tenants load the machine.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("norm_op_ms_p50", "ms"),
    ("norm_op_ms_p90", "ms"),
    ("norm_events_per_s", "1/s"),
];

/// End-to-end metrics of `serve_mix`, which is not gated: its work runs
/// on the daemon's threads, so its latencies are wall time.
pub const SERVE_END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("events_per_s", "1/s"),
];

/// The end-to-end metrics `workload` reports.
fn end_to_end(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "serve_mix" => SERVE_END_TO_END,
        _ => END_TO_END,
    }
}

/// Per-layer metrics of the traced run; a layer that does no work on a
/// workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse.ms", "ms"),
    ("analyze.ms", "ms"),
    ("lang.translate.ms", "ms"),
    ("lang.translate.nodes", "count"),
    ("analyze.compile_cache.hit_ratio", "ratio"),
    ("core.constrain.ms", "ms"),
    ("core.condition.ms", "ms"),
    ("core.disjoin.us_per_event", "us"),
    ("core.disjoin.clauses_per_event", "count"),
    ("core.engine.us_per_event", "us"),
    ("core.engine.hit_ratio", "ratio"),
    ("core.arena.compile_ms", "ms"),
    ("core.arena.us_per_event", "us"),
    ("core.arena.nodes", "count"),
    ("core.wire.encode_ms", "ms"),
    ("core.wire.decode_ms", "ms"),
    ("core.wire.bytes", "bytes"),
    ("serve.floor_us_p50", "us"),
    ("serve.query_us_p50", "us"),
    ("serve.condition_us_p50", "us"),
    ("serve.register_us_p50", "us"),
    ("serve.overhead_us_p50", "us"),
    ("serve.wire_batch_us_per_event", "us"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.batch_size_mean", "count"),
    ("serve.arena_batch_ratio", "ratio"),
    ("serve.shared_cache.hit_ratio", "ratio"),
    ("serve.translations", "count"),
    ("serve.errors", "count"),
    ("unattributed.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("generator.late_us_p99", "us"),
];

pub const WORKLOADS: &[&str] = &["paper_e2e", "query_batch", "serve_mix"];

/// One run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the binaries live; scratch files go beside them, inside the
    /// build directory of the checkout.
    pub exe_dir: PathBuf,
}

impl Run {
    /// A scratch directory for this run (removed by the caller).
    pub fn scratch(&self, what: &str) -> PathBuf {
        self.exe_dir
            .join("sppl-suite-tmp")
            .join(format!("{what}-{}", std::process::id()))
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations run (passes, batches, or requests).
    pub attempted: u64,
    /// Operations with an error or a failed answer check.
    pub failed: u64,
    /// Answer checks made.
    pub checks: u64,
    /// Every named metric the workload measured (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures under the names the workload's design
    /// uses (printed on the detail line, not gated).
    pub details: Metrics,
    pub digest: BitsDigest,
    pub tracer: Option<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.smoke && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Threads and connections the load generator of `workload` uses.
fn load_width(workload: &str) -> usize {
    match workload {
        "serve_mix" => serve::CONNECTIONS,
        _ => 1,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout when it is a git work tree, read without
/// running git.
fn commit() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r)).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// FNV-1a over every file under `crates/` and `sppl_suite/src/` (sorted
/// paths), identifying the code under test when git is absent.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("sppl_suite/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn header(args: &Args) -> String {
    format!(
        "{{\"header\": {{\"suite\": \"sppl-suite\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"load_threads\": {}, \"commit\": {}, \"source_digest\": {}, \"rustc\": {}, \"profile\": {}}}}}",
        string(&args.workload),
        args.seed,
        num(args.seconds),
        u8::from(args.trace),
        nproc(),
        load_width(&args.workload),
        string(&commit()),
        string(&source_digest()),
        string(&rustc_version()),
        string(if cfg!(debug_assertions) { "debug" } else { "release" }),
    )
}

fn result_line(outcome: &Outcome, workload: &str, trace: bool) -> String {
    let names = if trace {
        PER_LAYER
    } else {
        end_to_end(workload)
    };
    let mut metrics = Metrics::default();
    for &(name, unit) in names {
        metrics.put(
            name,
            outcome.metrics.get(name).copied().unwrap_or(0.0),
            unit,
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.checks > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json()
    )
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        exe_dir: exe.parent().ok_or("binary has no directory")?.to_path_buf(),
    };
    let epoch = Instant::now();
    let result = match args.workload.as_str() {
        "paper_e2e" => paper::run(&run, epoch),
        "query_batch" => batch::run(&run, epoch),
        _ => serve::run(&run, epoch),
    };
    let _ = std::fs::remove_dir_all(run.exe_dir.join("sppl-suite-tmp"));
    let mut outcome = result?;
    if let Some(tr) = outcome.tracer.take() {
        let path = run
            .exe_dir
            .join("sppl-suite-traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outcome
            .details
            .put("trace_spans", tr.spans.len() as f64, "count");
        eprintln!("trace written to {}", path.display());
    }
    Ok(outcome)
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `list`.
fn listed_metrics(benchmark: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    benchmark
        .get(list)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {list}"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("a {list} entry lacks a name or unit"))
        })
        .collect()
}

/// Checks the metric lists against `BENCHMARK.json` (read from the
/// working directory, the repository root), then runs every workload
/// briefly, traced and untraced, as child processes and checks each
/// result line: answers correct, every named metric present with its
/// unit and a finite value, and end-to-end values non-zero.
fn smoke() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let listed = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    for (list, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        if listed_metrics(&listed, list)? != owned(ours) {
            return Err(format!(
                "the suite's {list} metrics differ from BENCHMARK.json"
            ));
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for workload in WORKLOADS {
        for (trace, names) in [("0", end_to_end(workload)), ("1", PER_LAYER)] {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "1",
                    "--seconds",
                    "2",
                    "--trace",
                    trace,
                ])
                .output()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            let fail = |why: String| format!("{workload} --trace {trace}: {why}");
            if !out.status.success() {
                let stderr = String::from_utf8_lossy(&out.stderr).to_string();
                return Err(fail(format!("exited with {}: {stderr}", out.status)));
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result = Json::parse(last).map_err(|e| fail(format!("result line: {e:?}")))?;
            if result.get("correct").and_then(Json::as_bool) != Some(true) {
                return Err(fail(format!("answers failed: {last}")));
            }
            let metrics = result.get("metrics").ok_or(fail("no metrics".into()))?;
            for (name, unit) in names {
                let m = metrics
                    .get(name)
                    .ok_or(fail(format!("metric {name} missing")))?;
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .filter(|v| v.is_finite());
                if m.get("unit").and_then(Json::as_str) != Some(*unit) {
                    return Err(fail(format!("metric {name} lacks unit {unit}")));
                }
                match value {
                    None => return Err(fail(format!("metric {name} is not a finite number"))),
                    Some(v) if trace == "0" && v == 0.0 => {
                        return Err(fail(format!("end-to-end metric {name} is 0")))
                    }
                    _ => {}
                }
            }
            println!("smoke ok: {workload} --trace {trace}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sppl-suite: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sppl-suite smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let width = load_width(&args.workload);
    if width > nproc() {
        eprintln!(
            "sppl-suite: {} needs {width} load threads and connections but nproc is {}; refusing to run",
            args.workload,
            nproc()
        );
        return ExitCode::from(2);
    }
    println!("{}", header(&args));
    match run_workload(&args) {
        Ok(mut outcome) => {
            outcome
                .details
                .put("checks", outcome.checks as f64, "count");
            outcome.details.put(
                "failed_ratio",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
                "ratio",
            );
            println!(
                "{{\"details\": {}, \"answer_digest\": {}}}",
                outcome.details.to_json(),
                string(&outcome.digest.hex())
            );
            println!("{}", result_line(&outcome, &args.workload, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sppl-suite: {e}");
            ExitCode::FAILURE
        }
    }
}
