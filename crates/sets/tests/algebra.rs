//! Property-based tests: the OutcomeSet operations form a Boolean algebra
//! (relative to the `(-∞,∞) + all-strings` universe), and membership
//! distributes over the operations.

use proptest::prelude::*;
use sppl_sets::{Interval, OutcomeSet, RealSet, StringSet};

fn arb_interval() -> impl Strategy<Value = Interval> {
    (-50i32..50, 0i32..20, any::<bool>(), any::<bool>()).prop_map(|(lo, len, lc, hc)| {
        let lo = lo as f64 / 2.0;
        let hi = lo + len as f64 / 2.0;
        Interval::new(lo, lc, hi, hc).unwrap_or_else(|| Interval::point(lo))
    })
}

fn arb_real_set() -> impl Strategy<Value = RealSet> {
    prop::collection::vec(arb_interval(), 0..5).prop_map(RealSet::from_intervals)
}

fn arb_string_set() -> impl Strategy<Value = StringSet> {
    (
        prop::collection::btree_set(prop::sample::select(vec!["a", "b", "c", "d"]), 0..4),
        any::<bool>(),
    )
        .prop_map(|(names, cofinite)| {
            if cofinite {
                StringSet::cofinite(names)
            } else {
                StringSet::finite(names)
            }
        })
}

fn arb_outcome_set() -> impl Strategy<Value = OutcomeSet> {
    (arb_real_set(), arb_string_set())
        .prop_map(|(r, s)| OutcomeSet::from_reals(r).union(&OutcomeSet::from_strings(s)))
}

/// Interval unions with integer endpoints in `[0, 6]`: two such sets often
/// share or touch at an endpoint.
fn arb_coarse_real_set() -> impl Strategy<Value = RealSet> {
    let interval =
        (0i32..6, 0i32..3, any::<bool>(), any::<bool>()).prop_map(|(lo, len, lc, hc)| {
            let (lo, hi) = (f64::from(lo), f64::from(lo + len));
            Interval::new(lo, lc, hi, hc).unwrap_or_else(|| Interval::point(lo))
        });
    prop::collection::vec(interval, 0..3).prop_map(RealSet::from_intervals)
}

/// Sample membership probes covering interval endpoints, interiors, and
/// the string alphabet.
fn probe_points() -> Vec<f64> {
    let mut pts = vec![];
    for i in -100..=100 {
        pts.push(i as f64 / 4.0);
    }
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn union_membership(a in arb_outcome_set(), b in arb_outcome_set()) {
        let u = a.union(&b);
        for x in probe_points() {
            prop_assert_eq!(u.contains_real(x), a.contains_real(x) || b.contains_real(x));
        }
        for s in ["a", "b", "c", "d", "zz"] {
            prop_assert_eq!(u.contains_str(s), a.contains_str(s) || b.contains_str(s));
        }
    }

    #[test]
    fn intersection_membership(a in arb_outcome_set(), b in arb_outcome_set()) {
        let i = a.intersection(&b);
        for x in probe_points() {
            prop_assert_eq!(i.contains_real(x), a.contains_real(x) && b.contains_real(x));
        }
        for s in ["a", "b", "c", "d", "zz"] {
            prop_assert_eq!(i.contains_str(s), a.contains_str(s) && b.contains_str(s));
        }
    }

    #[test]
    fn complement_membership(a in arb_outcome_set()) {
        let c = a.complement();
        for x in probe_points() {
            prop_assert_eq!(c.contains_real(x), !a.contains_real(x));
        }
        for s in ["a", "b", "zz"] {
            prop_assert_eq!(c.contains_str(s), !a.contains_str(s));
        }
    }

    #[test]
    fn double_complement_is_identity(a in arb_outcome_set()) {
        // Finite real sets contain no infinite points here, so the
        // involution holds exactly on canonical forms.
        prop_assert_eq!(a.complement().complement(), a);
    }

    #[test]
    fn de_morgan_laws(a in arb_outcome_set(), b in arb_outcome_set()) {
        prop_assert_eq!(
            a.union(&b).complement(),
            a.complement().intersection(&b.complement())
        );
        prop_assert_eq!(
            a.intersection(&b).complement(),
            a.complement().union(&b.complement())
        );
    }

    #[test]
    fn idempotence_and_absorption(a in arb_outcome_set(), b in arb_outcome_set()) {
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.intersection(&a), a.clone());
        prop_assert_eq!(a.union(&a.intersection(&b)), a.clone());
        prop_assert_eq!(a.intersection(&a.union(&b)), a.clone());
    }

    #[test]
    fn commutativity(a in arb_outcome_set(), b in arb_outcome_set()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
    }

    #[test]
    fn associativity(a in arb_outcome_set(), b in arb_outcome_set(), c in arb_outcome_set()) {
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(
            a.intersection(&b).intersection(&c),
            a.intersection(&b.intersection(&c))
        );
    }

    #[test]
    fn complement_partitions(a in arb_outcome_set()) {
        let c = a.complement();
        prop_assert!(a.is_disjoint(&c));
        prop_assert_eq!(a.union(&c), OutcomeSet::all());
    }

    #[test]
    fn pieces_are_disjoint_and_cover(a in arb_outcome_set()) {
        let pieces = a.pieces();
        let mut rebuilt = OutcomeSet::empty();
        for (i, p) in pieces.iter().enumerate() {
            for q in &pieces[i + 1..] {
                prop_assert!(p.is_disjoint(q));
            }
            rebuilt = rebuilt.union(p);
        }
        prop_assert_eq!(rebuilt, a);
    }

    #[test]
    fn canonical_form_is_disjoint_sorted(s in arb_real_set()) {
        let iv = s.intervals();
        for w in iv.windows(2) {
            prop_assert!(w[0].hi() <= w[1].lo());
            prop_assert!(!w[0].mergeable(&w[1]));
        }
    }

    #[test]
    fn is_disjoint_iff_intersection_is_empty(
        ra in arb_coarse_real_set(),
        sa in arb_string_set(),
        rb in arb_coarse_real_set(),
        sb in arb_string_set()
    ) {
        let a = OutcomeSet::from_reals(ra).union(&OutcomeSet::from_strings(sa));
        let b = OutcomeSet::from_reals(rb).union(&OutcomeSet::from_strings(sb));
        // Real parts: interval unions on a coarse grid, so shared and
        // touching endpoints, open or closed, are common.
        prop_assert_eq!(
            a.reals().is_disjoint(b.reals()),
            a.reals().intersection(b.reals()).is_empty()
        );
        // String parts: every finite/cofinite pairing.
        prop_assert_eq!(
            a.strs().is_disjoint(b.strs()),
            a.strs().intersection(b.strs()).is_empty()
        );
        prop_assert_eq!(a.is_disjoint(&b), a.intersection(&b).is_empty());
        prop_assert_eq!(a.is_disjoint(&b), b.is_disjoint(&a));
    }
}
