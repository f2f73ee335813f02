//! Analyzer golden for the built-in workloads: every SPPL program that
//! `sppl-lint --builtin` lints, plus the paper-size Fig. 3 HMM, is
//! analyzed and its rendered diagnostics and the number of dead branch
//! bodies the analyzer gutted must match `tests/golden/analyze_builtin.expected`
//! exactly. It pins the analyzer's verdicts on long unrolled programs,
//! where the branch-join bookkeeping does most of its work.
//!
//! To regenerate after an intentional verdict change, print
//! [`rendered`] and replace the expected file with it.

use sppl::analyze::analyze;
use sppl::lang::ast::Command;
use sppl::models::{fairness, hmm, indian_gpa, networks, psi_suite, rare_event};
use sppl::prelude::*;

const EXPECTED: &str = include_str!("golden/analyze_builtin.expected");

fn builtin_programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut add = |name: &str, source: String| out.push((name.to_string(), source));
    add("fig2/indian_gpa", indian_gpa::model().source);
    add("fig3/hmm-5", hmm::hierarchical_hmm(5).source);
    add("fig3/hmm-100", hmm::hierarchical_hmm(100).source);
    add("fig8/rare_events", rare_event::chain_network(6).source);
    for m in networks::table1_models() {
        add(&format!("table1/{}", m.name), m.source);
    }
    add(
        "table4/digit_recognition",
        psi_suite::digit_recognition(4).source,
    );
    add("table4/trueskill", psi_suite::trueskill().source);
    add(
        "table4/clinical_trial",
        psi_suite::clinical_trial(3, 3).source,
    );
    for task in fairness::all_tasks() {
        add(&format!("table2/{}", task.name), task.model.source);
    }
    out
}

/// Branch bodies that are non-empty in `original` and empty in `pruned`.
fn gutted(original: &[Command], pruned: &[Command]) -> usize {
    let body = |a: &[Command], b: &[Command]| {
        if !a.is_empty() && b.is_empty() {
            1
        } else {
            gutted(a, b)
        }
    };
    original
        .iter()
        .zip(pruned)
        .map(|pair| match pair {
            (
                Command::If {
                    arms, otherwise, ..
                },
                Command::If {
                    arms: parms,
                    otherwise: pother,
                    ..
                },
            ) => {
                let in_arms: usize = arms
                    .iter()
                    .zip(parms)
                    .map(|((_, a), (_, b))| body(a, b))
                    .sum();
                let in_else = match (otherwise, pother) {
                    (Some(a), Some(b)) => body(a, b),
                    _ => 0,
                };
                in_arms + in_else
            }
            (Command::For { body: a, .. }, Command::For { body: b, .. })
            | (Command::Switch { body: a, .. }, Command::Switch { body: b, .. }) => gutted(a, b),
            _ => 0,
        })
        .sum()
}

fn rendered() -> String {
    let mut out = String::new();
    for (name, source) in builtin_programs() {
        let program = parse(&source).expect("built-in program parses");
        let analysis = analyze(&program);
        let count = gutted(&program.commands, &analysis.pruned.commands);
        out.push_str(&format!("== {name} gutted={count}\n"));
        for d in &analysis.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
    }
    out
}

#[test]
fn builtin_workloads_match_the_analyzer_golden() {
    let actual = rendered();
    for (a, e) in actual.lines().zip(EXPECTED.lines()) {
        assert_eq!(a, e, "analyzer verdicts drifted from the golden file");
    }
    assert_eq!(
        actual.lines().count(),
        EXPECTED.lines().count(),
        "analyzer verdicts drifted from the golden file:\n{actual}"
    );
}
