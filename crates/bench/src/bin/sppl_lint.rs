//! `sppl-lint` — run the static analyzer over SPPL programs.
//!
//! ```text
//! sppl-lint [--json] [--deny-warnings] [--builtin] [FILE ...]
//! ```
//!
//! Each `FILE` is parsed and analyzed; diagnostics print as
//! `file:line:col-range: severity[CODE]: message` (or as a JSON array
//! with `--json`). `--builtin` additionally lints every SPPL program
//! shipped in `sppl-models` (the paper's figure and table workloads).
//! Exit status is 1 when any error was reported — or any warning under
//! `--deny-warnings` — and 0 otherwise.

use std::fmt::Write as _;
use std::process::ExitCode;

use sppl_analyze::{check, Diagnostic, Severity};
use sppl_models::{fairness, hmm, indian_gpa, networks, psi_suite, rare_event};

fn builtin_programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut add = |name: &str, source: String| out.push((format!("<{name}>"), source));
    let gpa = indian_gpa::model();
    add("fig2/indian_gpa", gpa.source.clone());
    add("fig3/hmm", hmm::hierarchical_hmm(100).source.clone());
    add(
        "fig8/rare_events",
        rare_event::chain_network(6).source.clone(),
    );
    for m in networks::table1_models() {
        add(&format!("table1/{}", m.name), m.source.clone());
    }
    add(
        "table4/digit_recognition",
        psi_suite::digit_recognition(4).source.clone(),
    );
    add("table4/trueskill", psi_suite::trueskill().source.clone());
    add(
        "table4/clinical_trial",
        psi_suite::clinical_trial(3, 3).source.clone(),
    );
    for task in fairness::all_tasks() {
        add(&format!("table2/{}", task.name), task.model.source.clone());
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_record(file: &str, d: &Diagnostic) -> String {
    format!(
        r#"{{"file":"{}","code":"{}","severity":"{}","line":{},"col":{},"end_line":{},"end_col":{},"message":"{}"}}"#,
        json_escape(file),
        d.code,
        d.severity,
        d.span.line,
        d.span.col,
        d.span.end_line,
        d.span.end_col,
        json_escape(&d.message),
    )
}

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut builtin = false;
    let mut files: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--builtin" => builtin = true,
            "--help" | "-h" => {
                println!("usage: sppl-lint [--json] [--deny-warnings] [--builtin] [FILE ...]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("sppl-lint: unknown flag {other}");
                return ExitCode::FAILURE;
            }
            file => files.push(file.to_string()),
        }
    }
    if !builtin && files.is_empty() {
        eprintln!("usage: sppl-lint [--json] [--deny-warnings] [--builtin] [FILE ...]");
        return ExitCode::FAILURE;
    }

    let mut programs: Vec<(String, String)> = Vec::new();
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(source) => programs.push((file.clone(), source)),
            Err(e) => {
                eprintln!("sppl-lint: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if builtin {
        programs.extend(builtin_programs());
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut records: Vec<String> = Vec::new();
    for (name, source) in &programs {
        for d in check(source) {
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
            if json {
                records.push(json_record(name, &d));
            } else {
                println!("{name}:{}", d.render());
            }
        }
    }
    if json {
        println!("[{}]", records.join(",\n "));
    } else if errors + warnings > 0 {
        eprintln!(
            "sppl-lint: {errors} error(s), {warnings} warning(s) across {} program(s)",
            programs.len()
        );
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
