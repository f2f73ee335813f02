//! The abstract state threaded through the analysis: per-variable support
//! over-approximations, compile-time constants, arrays, and the
//! derived-variable map, all kept per name in one [`Binding`].
//!
//! Soundness contract: every support an [`Env`] reports is an
//! **over-approximation** of the variable's true support at that program
//! point. Verdicts of the form "definitely unsatisfiable" / "definitely
//! dead" are therefore sound, while "may be satisfiable" is best-effort.
//!
//! # The journal
//!
//! Branches are walked in place, not on copies. [`Env::mark`] opens a
//! frame; while any frame is open, every write records `(name, binding
//! before the write)` in an undo log. [`Env::rollback`] closes the
//! innermost frame: it restores each written name to its state at the
//! mark and returns the frame's [`Delta`] (each written name with its
//! binding at the rollback). The invariant that makes this exact: **all
//! writes go through the `Env` methods that log them** — the fields are
//! private, and the only raw map writes are the log's own undo steps.
//!
//! A branch therefore costs its own writes twice (once to make, once to
//! undo), and a join or havoc costs the names the branches wrote. Names
//! no branch wrote keep the parent's binding verbatim, so the work per
//! branch does not grow with the size of the environment.

use std::collections::{HashMap, HashSet};

use sppl_core::transform::Transform;
use sppl_lang::translate::Value;
use sppl_sets::OutcomeSet;

/// A compile-time constant as the analyzer sees it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ConstVal {
    /// The exact value is known.
    Known(Value),
    /// The name is (possibly) defined but its value was lost at a join.
    Unknown,
}

/// Everything the analyzer knows about one name. A name with nothing
/// known is absent from the environment rather than stored empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Binding {
    /// Its compile-time constant value.
    const_val: Option<ConstVal>,
    /// Declared as an array; `None` size when lost at a join.
    array: Option<Option<usize>>,
    /// An array whose element set is unknown (declared inside an
    /// un-unrollable loop): uses and definitions of its elements are
    /// accepted without use-before-define / redefinition checks.
    havoc_array: bool,
    /// A definitely-defined random variable (base or derived).
    rv: bool,
    /// Defined on only *some* of the possibly-live paths of a join.
    /// Uses and redefinitions are accepted silently: the translator
    /// decides at runtime (a definitely-multi-survivor join is an R2
    /// violation it reports itself).
    maybe_rv: bool,
    /// Over-approximate support of a *base* random variable.
    support: Option<OutcomeSet>,
    /// A derived variable: (base variable, transform over that base).
    derived: Option<(String, Transform)>,
}

impl Binding {
    fn is_empty(&self) -> bool {
        self.const_val.is_none()
            && self.array.is_none()
            && !self.havoc_array
            && !self.rv
            && !self.maybe_rv
            && self.support.is_none()
            && self.derived.is_none()
    }

    fn support_or_all(&self) -> OutcomeSet {
        self.support.clone().unwrap_or_else(OutcomeSet::all)
    }

    /// The join of one name over the survivors of an `if`/`switch`,
    /// mirroring the translator's semantics: multiple survivors discard
    /// branch-local constant/array changes (the translator `mem::take`s
    /// the pre-branch maps) — except that, because the analyzer only
    /// knows *may*-liveness, values that might survive degrade to
    /// [`ConstVal::Unknown`] rather than disappearing (never a false
    /// use-before-define).
    fn join(parent: &Binding, ends: &[&Binding]) -> Binding {
        let mut out = Binding {
            const_val: parent.const_val.clone(),
            array: parent.array,
            havoc_array: parent.havoc_array,
            ..Binding::default()
        };
        for s in ends {
            // A constant any branch changed (or introduced) may or may
            // not survive the join at runtime. A branch that removed it
            // (a switch binder) leaves the parent's value.
            if let Some(val) = &s.const_val {
                if out.const_val.as_ref() != Some(val) {
                    out.const_val = Some(ConstVal::Unknown);
                }
            }
            if let Some(size) = s.array {
                out.array = match out.array {
                    Some(existing) if existing == size => Some(existing),
                    Some(_) => Some(None),
                    None => Some(size),
                };
            }
            out.havoc_array |= s.havoc_array;
        }
        if ends.iter().all(|s| s.rv) {
            // Defined on every path: derived entries survive only when
            // every branch agrees; otherwise supports union per base
            // variable, and mixed derived/base degrades to an
            // unconstrained base variable.
            out.rv = true;
            let first = ends[0].derived.as_ref();
            if first.is_some() && ends.iter().all(|s| s.derived.as_ref() == first) {
                out.derived = first.cloned();
            } else if ends.iter().any(|s| s.derived.is_some()) {
                out.support = Some(OutcomeSet::all());
            } else {
                let mut support = ends[0].support_or_all();
                for s in &ends[1..] {
                    support = support.union(&s.support_or_all());
                }
                out.support = Some(support);
            }
        } else {
            // Defined on only some paths: the translator reports a
            // definite mismatch as an R2 violation, but the analyzer only
            // knows *may*-liveness, so the name is merely maybe-defined.
            out.maybe_rv = ends.iter().any(|s| s.rv || s.maybe_rv);
        }
        out
    }

    /// The damage a havoc pass (a loop body walked once for an unknown
    /// number of iterations) does to one name: constants it wrote become
    /// unknown, variables it defined become maybe-defined, arrays it
    /// touched become havoc. The supports of pre-existing variables keep
    /// their pre-loop values: conditioning inside the body only narrows
    /// them, so the saved sets remain over-approximations.
    fn havoc(parent: &Binding, end: &Binding, binder: bool) -> Binding {
        let mut out = parent.clone();
        if let Some(val) = &end.const_val {
            if !binder && parent.const_val.as_ref() != Some(val) {
                out.const_val = Some(ConstVal::Unknown);
            }
        }
        if let Some(size) = end.array {
            if parent.array != Some(size) {
                out.array = Some(if parent.array.is_some() { None } else { size });
                out.havoc_array = true;
            }
        }
        out.havoc_array |= end.havoc_array;
        if (end.rv && !parent.rv) || end.maybe_rv {
            out.maybe_rv = true;
        }
        out
    }
}

/// What one journal frame wrote: each written name with its binding at
/// the [`Env::rollback`] that closed the frame.
#[derive(Debug)]
pub(crate) struct Delta(HashMap<String, Binding>);

/// The abstract environment at a program point.
#[derive(Debug, Default)]
pub(crate) struct Env {
    names: HashMap<String, Binding>,
    /// Undo log: `(name, binding before the write)` for every write made
    /// while a frame is open.
    journal: Vec<(String, Binding)>,
    /// The journal length at each open [`Env::mark`], innermost last.
    frames: Vec<usize>,
}

impl Env {
    pub(crate) fn new() -> Env {
        Env::default()
    }

    // ---- reads ----

    /// The constant bound to `name`, if any.
    pub(crate) fn const_of(&self, name: &str) -> Option<&ConstVal> {
        self.names.get(name)?.const_val.as_ref()
    }

    /// Whether `name` is a definitely-defined random variable.
    pub(crate) fn is_rv(&self, name: &str) -> bool {
        self.names.get(name).is_some_and(|b| b.rv)
    }

    /// Whether `name` is a random variable on at least one path.
    pub(crate) fn may_be_rv(&self, name: &str) -> bool {
        self.names.get(name).is_some_and(|b| b.rv || b.maybe_rv)
    }

    /// `Some(size)` when `name` is a declared array (`None` size when it
    /// was lost at a join).
    pub(crate) fn array_size(&self, name: &str) -> Option<Option<usize>> {
        self.names.get(name)?.array
    }

    /// Whether the element set of array `name` is unknown.
    pub(crate) fn is_havoc_array(&self, name: &str) -> bool {
        self.names.get(name).is_some_and(|b| b.havoc_array)
    }

    /// `(base, transform)` when `name` is a derived variable.
    pub(crate) fn derived_of(&self, name: &str) -> Option<&(String, Transform)> {
        self.names.get(name)?.derived.as_ref()
    }

    /// The over-approximate support of `name` (`all` when untracked —
    /// always a safe answer).
    pub(crate) fn support_of(&self, name: &str) -> OutcomeSet {
        self.names
            .get(name)
            .map_or_else(OutcomeSet::all, Binding::support_or_all)
    }

    /// The support of `name` at the end of the frame that produced
    /// `delta` (this environment must be that frame's parent).
    pub(crate) fn support_in(&self, delta: &Delta, name: &str) -> OutcomeSet {
        match delta.0.get(name) {
            Some(b) => b.support_or_all(),
            None => self.support_of(name),
        }
    }

    /// Rewrites a transform so it only mentions base variables.
    pub(crate) fn resolve_transform(&self, t: &Transform) -> Transform {
        let mut out = t.clone();
        for v in t.vars() {
            if let Some((_, bt)) = self.derived_of(v.name()) {
                out = out.substitute(&v, bt);
            }
        }
        out
    }

    // ---- logged writes ----

    /// The single write path: logs the prior binding when a frame is
    /// open, then applies `f`.
    fn update(&mut self, name: &str, f: impl FnOnce(&mut Binding)) {
        let (key, mut b) = self
            .names
            .remove_entry(name)
            .unwrap_or_else(|| (name.to_string(), Binding::default()));
        if !self.frames.is_empty() {
            self.journal.push((key.clone(), b.clone()));
        }
        f(&mut b);
        if !b.is_empty() {
            self.names.insert(key, b);
        }
    }

    /// Binds `name` to a constant.
    pub(crate) fn set_const(&mut self, name: &str, val: ConstVal) {
        self.update(name, |b| b.const_val = Some(val));
    }

    /// Unbinds the constant `name` (a loop variable or switch binder
    /// leaving scope).
    pub(crate) fn remove_const(&mut self, name: &str) {
        self.update(name, |b| b.const_val = None);
    }

    /// Declares array `name`; an unknown size also makes it havoc.
    pub(crate) fn declare_array(&mut self, name: &str, size: Option<usize>) {
        self.update(name, |b| {
            b.array = Some(size);
            b.havoc_array |= size.is_none();
        });
    }

    /// Marks array `name` as having an unknown element set.
    pub(crate) fn mark_havoc_array(&mut self, name: &str) {
        self.update(name, |b| b.havoc_array = true);
    }

    /// Defines `name` as a base random variable with the given support.
    pub(crate) fn define_base(&mut self, name: &str, support: OutcomeSet) {
        self.update(name, |b| {
            b.rv = true;
            b.maybe_rv = false;
            b.derived = None;
            b.support = Some(support);
        });
    }

    /// Defines `name` as `t(base)`.
    pub(crate) fn define_derived(&mut self, name: &str, base: &str, t: Transform) {
        self.update(name, |b| {
            b.rv = true;
            b.maybe_rv = false;
            b.support = None;
            b.derived = Some((base.to_string(), t));
        });
    }

    /// Replaces the support of `name` (a refinement by an event).
    pub(crate) fn set_support(&mut self, name: &str, support: OutcomeSet) {
        self.update(name, |b| b.support = Some(support));
    }

    // ---- frames ----

    /// Opens a journal frame.
    pub(crate) fn mark(&mut self) {
        self.frames.push(self.journal.len());
    }

    /// Closes the innermost frame: restores every name written since its
    /// [`Env::mark`] and returns what the frame wrote.
    pub(crate) fn rollback(&mut self) -> Delta {
        let start = self.frames.pop().expect("rollback without a mark");
        let mut delta = HashMap::new();
        for (name, before) in self.journal.drain(start..).rev() {
            let end = self.names.remove(&name).unwrap_or_default();
            if !before.is_empty() {
                self.names.insert(name.clone(), before);
            }
            // Undoing newest-first, the first sighting of a name holds
            // its binding at the end of the frame.
            delta.entry(name).or_insert(end);
        }
        Delta(delta)
    }

    /// Replaces the binding of `name` through the log.
    fn replace(&mut self, name: &str, new: Binding) {
        self.update(name, |b| *b = new);
    }

    /// Joins the deltas of the possibly-live branches of an
    /// `if`/`switch` into this (the pre-branch) environment: a single
    /// survivor keeps all of its writes; with several, every name some
    /// survivor wrote gets [`Binding::join`] over all survivors, and
    /// names none wrote keep their binding.
    pub(crate) fn join(&mut self, mut survivors: Vec<Delta>) {
        if survivors.len() == 1 {
            let Delta(writes) = survivors.pop().expect("len checked");
            for (name, b) in writes {
                self.replace(&name, b);
            }
            return;
        }
        let touched: HashSet<&String> = survivors.iter().flat_map(|d| d.0.keys()).collect();
        let empty = Binding::default();
        let joined: Vec<(String, Binding)> = touched
            .into_iter()
            .map(|name| {
                let parent = self.names.get(name).unwrap_or(&empty);
                let ends: Vec<&Binding> = survivors
                    .iter()
                    .map(|d| d.0.get(name).unwrap_or(parent))
                    .collect();
                (name.clone(), Binding::join(parent, &ends))
            })
            .collect();
        for (name, b) in joined {
            self.replace(&name, b);
        }
    }

    /// Applies a havoc pass's delta to this (the pre-loop) environment;
    /// see [`Binding::havoc`]. The constants of `binders` are left alone.
    pub(crate) fn havoc(&mut self, pass: Delta, binders: &[&str]) {
        let empty = Binding::default();
        let damaged: Vec<(String, Binding)> = pass
            .0
            .into_iter()
            .map(|(name, end)| {
                let parent = self.names.get(&name).unwrap_or(&empty);
                let b = Binding::havoc(parent, &end, binders.contains(&name.as_str()));
                (name, b)
            })
            .collect();
        for (name, b) in damaged {
            self.replace(&name, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sppl_core::var::Var;

    fn known(x: f64) -> ConstVal {
        ConstVal::Known(Value::Num(x))
    }

    fn points(xs: &[f64]) -> OutcomeSet {
        OutcomeSet::real_points(xs.iter().copied())
    }

    /// Walks each branch as the walker does — mark, write, rollback —
    /// then joins the survivors.
    fn branches(env: &mut Env, bodies: &[&dyn Fn(&mut Env)]) {
        let deltas = bodies
            .iter()
            .map(|body| {
                env.mark();
                body(env);
                env.rollback()
            })
            .collect();
        env.join(deltas);
    }

    fn parent() -> Env {
        let mut env = Env::new();
        env.set_const("c", known(1.0));
        env.define_base("X", points(&[0.0, 1.0]));
        env.declare_array("A", Some(3));
        env
    }

    #[test]
    fn rollback_restores_the_state_before_the_branch() {
        let mut env = parent();
        let before = env.names.clone();
        env.mark();
        env.set_const("c", known(2.0));
        env.define_base("Y", points(&[5.0]));
        env.set_support("X", points(&[0.0]));
        let outer = env.names.clone();
        env.mark();
        env.remove_const("c");
        env.define_derived("D", "X", Transform::id(Var::new("X")).exp());
        env.mark_havoc_array("A");
        env.set_support("X", points(&[]));
        let inner = env.rollback();
        assert_eq!(env.names, outer, "inner rollback restores the outer frame");
        assert!(inner.0["c"].const_val.is_none());
        assert!(inner.0["D"].derived.is_some());
        let delta = env.rollback();
        assert_eq!(env.names, before, "outer rollback restores the parent");
        assert!(env.journal.is_empty() && env.frames.is_empty());
        assert_eq!(delta.0["c"].const_val, Some(known(2.0)));
        assert_eq!(delta.0["X"].support, Some(points(&[0.0])));
        assert!(delta.0["Y"].rv);
        assert_eq!(delta.0.len(), 3);
    }

    #[test]
    fn writes_outside_a_frame_are_not_logged() {
        let mut env = parent();
        assert!(env.journal.is_empty());
        env.mark();
        env.set_const("c", known(2.0));
        assert_eq!(env.journal.len(), 1);
        env.rollback();
    }

    #[test]
    fn constant_changed_in_one_of_two_survivors_becomes_unknown() {
        let mut env = parent();
        env.set_const("k", known(4.0));
        branches(
            &mut env,
            &[
                &|e: &mut Env| e.set_const("c", known(2.0)),
                &|e: &mut Env| e.set_const("k", known(4.0)),
            ],
        );
        assert_eq!(env.const_of("c"), Some(&ConstVal::Unknown));
        // Rewritten with the parent's value: unchanged.
        assert_eq!(env.const_of("k"), Some(&known(4.0)));
        // A constant introduced by one branch may exist afterwards.
        branches(
            &mut env,
            &[
                &|e: &mut Env| e.set_const("new", known(0.0)),
                &|_: &mut Env| {},
            ],
        );
        assert_eq!(env.const_of("new"), Some(&ConstVal::Unknown));
    }

    #[test]
    fn removed_switch_binder_keeps_the_parent_value() {
        let mut env = parent();
        env.set_const("z", known(7.0));
        let case = |v: f64| {
            move |e: &mut Env| {
                e.set_const("z", known(v));
                e.define_base(&format!("Y{v}"), points(&[v]));
                e.remove_const("z");
            }
        };
        branches(&mut env, &[&case(0.0), &case(1.0)]);
        assert_eq!(env.const_of("z"), Some(&known(7.0)));
        // Without a parent binding the binder disappears again.
        env.remove_const("z");
        branches(&mut env, &[&case(3.0), &case(4.0)]);
        assert_eq!(env.const_of("z"), None);
        // A single survivor keeps all of its writes, the removal included.
        env.set_const("z", known(7.0));
        branches(&mut env, &[&case(2.0)]);
        assert_eq!(env.const_of("z"), None);
        assert!(env.is_rv("Y2"));
    }

    #[test]
    fn variable_defined_on_one_survivor_only_is_maybe_defined() {
        let mut env = parent();
        branches(
            &mut env,
            &[
                &|e: &mut Env| e.define_base("Y", points(&[1.0])),
                &|e: &mut Env| e.set_support("X", points(&[1.0])),
            ],
        );
        assert!(!env.is_rv("Y") && env.may_be_rv("Y"));
        assert_eq!(env.support_of("Y"), OutcomeSet::all());
        // Defined in both: a base variable with the union of supports.
        branches(
            &mut env,
            &[
                &|e: &mut Env| e.define_base("W", points(&[1.0])),
                &|e: &mut Env| e.define_base("W", points(&[2.0])),
            ],
        );
        assert!(env.is_rv("W"));
        assert_eq!(env.support_of("W"), points(&[1.0, 2.0]));
        // X was narrowed on one path only: the union is the parent's.
        assert_eq!(env.support_of("X"), points(&[0.0, 1.0]));
    }

    #[test]
    fn derived_transforms_survive_only_when_every_survivor_agrees() {
        let exp = Transform::id(Var::new("X")).exp();
        let neg = Transform::id(Var::new("X")).neg();
        let mut env = parent();
        let (e1, e2) = (exp.clone(), exp.clone());
        branches(
            &mut env,
            &[
                &move |e: &mut Env| e.define_derived("D", "X", e1.clone()),
                &move |e: &mut Env| e.define_derived("D", "X", e2.clone()),
            ],
        );
        assert_eq!(env.derived_of("D"), Some(&("X".to_string(), exp.clone())));
        let (e1, n1) = (exp.clone(), neg.clone());
        branches(
            &mut env,
            &[
                &move |e: &mut Env| e.define_derived("E", "X", e1.clone()),
                &move |e: &mut Env| e.define_derived("E", "X", n1.clone()),
            ],
        );
        assert!(env.is_rv("E") && env.derived_of("E").is_none());
        assert_eq!(env.support_of("E"), OutcomeSet::all());
        // Derived on one path, base on the other: unconstrained base.
        branches(
            &mut env,
            &[
                &move |e: &mut Env| e.define_derived("F", "X", neg.clone()),
                &|e: &mut Env| e.define_base("F", points(&[3.0])),
            ],
        );
        assert!(env.is_rv("F") && env.derived_of("F").is_none());
        assert_eq!(env.support_of("F"), OutcomeSet::all());
    }

    #[test]
    fn single_survivor_keeps_all_of_its_writes() {
        let mut env = parent();
        env.mark();
        env.set_const("c", known(9.0));
        env.define_base("Y", points(&[2.0]));
        env.set_support("X", points(&[1.0]));
        env.declare_array("B", None);
        let expected = env.names.clone();
        let delta = env.rollback();
        env.join(vec![delta]);
        assert_eq!(env.names, expected);
    }

    #[test]
    fn havoc_loop_with_unknown_bound_damages_what_its_body_wrote() {
        let mut env = parent();
        env.set_const("i", known(-1.0));
        let before_x = env.support_of("X");
        env.mark();
        env.set_const("i", ConstVal::Unknown);
        env.set_const("c", known(2.0));
        env.set_const("local", known(3.0));
        env.define_base("Y", points(&[1.0]));
        env.set_support("X", points(&[0.0]));
        env.declare_array("A", Some(4));
        env.declare_array("B", Some(2));
        let pass = env.rollback();
        env.havoc(pass, &["i"]);
        // The binder keeps its pre-loop value; every other written
        // constant is unknown.
        assert_eq!(env.const_of("i"), Some(&known(-1.0)));
        assert_eq!(env.const_of("c"), Some(&ConstVal::Unknown));
        assert_eq!(env.const_of("local"), Some(&ConstVal::Unknown));
        assert!(!env.is_rv("Y") && env.may_be_rv("Y"));
        assert_eq!(env.support_of("X"), before_x);
        assert_eq!(env.array_size("A"), Some(None));
        assert!(env.is_havoc_array("A"));
        assert_eq!(env.array_size("B"), Some(Some(2)));
        assert!(env.is_havoc_array("B"));
    }
}
