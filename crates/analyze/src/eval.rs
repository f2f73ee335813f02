//! Abstract expression evaluation: a diagnostics-emitting mirror of the
//! translator's evaluator. Where the translator would hard-error, the
//! abstract evaluator either emits a catalogued [`LintCode`] diagnostic
//! or degrades to [`AbsValue::Top`] and lets the translator report the
//! condition with its own message.

use std::collections::HashMap;

use sppl_core::event::Event;
use sppl_core::transform::Transform;
use sppl_core::var::Var;
use sppl_lang::ast::{BinOp, CmpOp, Expr, UnOp};
use sppl_lang::diagnostics::{LintCode, Span};
use sppl_lang::translate::Value;
use sppl_num::Polynomial;
use sppl_sets::{Interval, OutcomeSet};

use crate::dists::{self, DistVerdict, Param};
use crate::env::ConstVal;
use crate::walk::Walker;

/// The analyzer's counterpart of the translator's `Evaluated`.
#[derive(Debug, Clone)]
pub(crate) enum AbsValue {
    /// A known compile-time constant.
    Const(Value),
    /// A transform of random variables (not yet resolved to base vars).
    Rv(Transform),
    /// A distribution whose samples lie in the given support.
    Dist(OutcomeSet),
    /// A predicate.
    Event(Event),
    /// Unknown value (lost at a join, or a form the analyzer does not
    /// model); suppresses all downstream diagnostics.
    Top,
}

fn bad_log_inputs() -> OutcomeSet {
    OutcomeSet::from(Interval::below(0.0, true).expect("0 is a valid bound"))
}

fn bad_even_root_inputs() -> OutcomeSet {
    OutcomeSet::from(Interval::below(0.0, false).expect("0 is a valid bound"))
}

impl Walker {
    pub(crate) fn eval(&mut self, expr: &Expr) -> AbsValue {
        match expr {
            Expr::Num(n, _) => AbsValue::Const(Value::Num(*n)),
            Expr::Str(s, _) => AbsValue::Const(Value::Str(s.clone())),
            Expr::Bool(b, _) => AbsValue::Const(Value::Bool(*b)),
            Expr::Ident(name, span) => self.eval_ident(name, *span),
            Expr::List(items, _) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    match self.eval(item) {
                        AbsValue::Const(v) => out.push(v),
                        _ => return AbsValue::Top,
                    }
                }
                AbsValue::Const(Value::List(out))
            }
            Expr::Dict(..) => AbsValue::Top,
            Expr::Index(recv, idx, span) => self.eval_index(recv, idx, *span),
            Expr::Call {
                func,
                args,
                kwargs,
                span,
            } => self.eval_call(func, args, kwargs, *span),
            Expr::MethodCall {
                recv, method, args, ..
            } => self.eval_method(recv, method, args),
            Expr::Unary(op, inner, _) => {
                let v = self.eval(inner);
                match (op, v) {
                    (UnOp::Neg, AbsValue::Const(Value::Num(n))) => AbsValue::Const(Value::Num(-n)),
                    (UnOp::Neg, AbsValue::Rv(t)) => AbsValue::Rv(t.neg()),
                    (UnOp::Not, v) => match self.coerce_event(v) {
                        Some(e) => AbsValue::Event(e.negate()),
                        None => AbsValue::Top,
                    },
                    (_, _) => AbsValue::Top,
                }
            }
            Expr::Binary(op, lhs, rhs, span) => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                self.eval_binary(*op, a, b, *span)
            }
            Expr::Compare(first, chain, span) => self.eval_compare(first, chain, *span),
        }
    }

    /// Use of a name: constants, random variables, then use-before-define.
    fn eval_ident(&mut self, name: &str, span: Span) -> AbsValue {
        if let Some(c) = self.env.const_of(name).cloned() {
            self.mark_used(name);
            return match c {
                ConstVal::Known(v) => AbsValue::Const(v),
                ConstVal::Unknown => AbsValue::Top,
            };
        }
        if self.env.may_be_rv(name) {
            return AbsValue::Rv(Transform::id(Var::new(name)));
        }
        if self.env.array_size(name).is_some() {
            self.diag(
                LintCode::UseBeforeDefine,
                span,
                format!("array `{name}` cannot be used without an index"),
            );
            return AbsValue::Top;
        }
        self.diag(
            LintCode::UseBeforeDefine,
            span,
            format!("use of undefined variable `{name}`"),
        );
        AbsValue::Top
    }

    fn eval_index(&mut self, recv: &Expr, idx: &Expr, span: Span) -> AbsValue {
        if let Expr::Ident(name, _) = recv {
            if self.env.array_size(name).is_some() {
                return match self.element_name(name, idx, span) {
                    Some(element) => {
                        if self.env.may_be_rv(&element) || self.env.is_havoc_array(name) {
                            AbsValue::Rv(Transform::id(Var::new(&element)))
                        } else {
                            self.diag(
                                LintCode::UseBeforeDefine,
                                span,
                                format!("array element {element} is not yet sampled"),
                            );
                            AbsValue::Top
                        }
                    }
                    None => AbsValue::Top,
                };
            }
        }
        // Constant list indexing.
        let list = match self.eval(recv) {
            AbsValue::Const(Value::List(vs)) => vs,
            _ => return AbsValue::Top,
        };
        match self.eval(idx) {
            AbsValue::Const(Value::Num(n)) if n.fract() == 0.0 => {
                let i = n as i64;
                if i < 0 || i as usize >= list.len() {
                    self.diag(
                        LintCode::IndexOutOfBounds,
                        span,
                        format!("index {i} out of bounds (len {})", list.len()),
                    );
                    return AbsValue::Top;
                }
                AbsValue::Const(list[i as usize].clone())
            }
            _ => AbsValue::Top,
        }
    }

    /// Resolves `name[idx]` to the element's variable name, checking
    /// declared bounds. `None` when the index is unknown (the enclosing
    /// array is marked havoc so element accesses stay permissive).
    pub(crate) fn element_name(&mut self, name: &str, idx: &Expr, span: Span) -> Option<String> {
        let size = self.env.array_size(name)?;
        match self.eval(idx) {
            AbsValue::Const(Value::Num(n)) if n.fract() == 0.0 => {
                let i = n as i64;
                if let Some(size) = size {
                    if i < 0 || i as usize >= size {
                        self.diag(
                            LintCode::IndexOutOfBounds,
                            span,
                            format!("index {i} out of bounds for array {name} of size {size}"),
                        );
                        return None;
                    }
                }
                Some(format!("{name}[{i}]"))
            }
            _ => {
                self.env.mark_havoc_array(name);
                None
            }
        }
    }

    fn eval_method(&mut self, recv: &Expr, method: &str, _args: &[Expr]) -> AbsValue {
        let r = self.eval(recv);
        match (r, method) {
            (AbsValue::Const(Value::Bin { lo, hi, .. }), "mean") => {
                AbsValue::Const(Value::Num((lo + hi) / 2.0))
            }
            (AbsValue::Const(Value::Bin { lo, .. }), "lo") => AbsValue::Const(Value::Num(lo)),
            (AbsValue::Const(Value::Bin { hi, .. }), "hi") => AbsValue::Const(Value::Num(hi)),
            (AbsValue::Const(Value::List(vs)), "len") => {
                AbsValue::Const(Value::Num(vs.len() as f64))
            }
            _ => AbsValue::Top,
        }
    }

    fn eval_binary(&mut self, op: BinOp, a: AbsValue, b: AbsValue, span: Span) -> AbsValue {
        use AbsValue::{Const, Rv};
        match op {
            BinOp::And | BinOp::Or => {
                let (Some(ea), Some(eb)) = (self.coerce_event(a), self.coerce_event(b)) else {
                    return AbsValue::Top;
                };
                AbsValue::Event(match op {
                    BinOp::And => Event::and(vec![ea, eb]),
                    _ => Event::or(vec![ea, eb]),
                })
            }
            _ => match (a, b) {
                (Const(Value::Num(x)), Const(Value::Num(y))) => {
                    let v = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => {
                            if y == 0.0 {
                                return AbsValue::Top;
                            }
                            x / y
                        }
                        BinOp::Pow => x.powf(y),
                        BinOp::And | BinOp::Or => unreachable!("handled above"),
                    };
                    if v.is_nan() {
                        self.diag(
                            LintCode::NonFiniteConstant,
                            span,
                            "constant arithmetic produces NaN (undefined value)",
                        );
                        return AbsValue::Top;
                    }
                    Const(Value::Num(v))
                }
                (Rv(t), Const(Value::Num(c))) => self.rv_const_op(op, t, c, false, span),
                (Const(Value::Num(c)), Rv(t)) => self.rv_const_op(op, t, c, true, span),
                (Rv(ta), Rv(tb)) => rv_rv_op(op, ta, tb),
                _ => AbsValue::Top,
            },
        }
    }

    fn rv_const_op(
        &mut self,
        op: BinOp,
        t: Transform,
        c: f64,
        flipped: bool,
        span: Span,
    ) -> AbsValue {
        let out = match (op, flipped) {
            (BinOp::Add, _) => t.add_const(c),
            (BinOp::Sub, false) => t.add_const(-c),
            (BinOp::Sub, true) => t.neg().add_const(c),
            (BinOp::Mul, _) => t.mul_const(c),
            (BinOp::Div, false) => {
                if c == 0.0 {
                    return AbsValue::Top;
                }
                t.mul_const(1.0 / c)
            }
            (BinOp::Div, true) => {
                self.check_domain(
                    &t,
                    OutcomeSet::real_point(0.0),
                    "division by a possibly zero random value",
                    span,
                );
                t.recip().mul_const(c)
            }
            (BinOp::Pow, false) => {
                if c >= 0.0 && c.fract() == 0.0 {
                    t.pow_int(c as u32)
                } else if c == 0.5 {
                    self.check_domain(
                        &t,
                        bad_even_root_inputs(),
                        "sqrt of a possibly negative random value",
                        span,
                    );
                    t.sqrt()
                } else if c == -1.0 {
                    self.check_domain(
                        &t,
                        OutcomeSet::real_point(0.0),
                        "division by a possibly zero random value",
                        span,
                    );
                    t.recip()
                } else if c < 0.0 && c.fract() == 0.0 {
                    self.check_domain(
                        &t,
                        OutcomeSet::real_point(0.0),
                        "division by a possibly zero random value",
                        span,
                    );
                    t.pow_int((-c) as u32).recip()
                } else if c > 0.0 && (1.0 / c).fract().abs() < 1e-12 {
                    let n = (1.0 / c) as u32;
                    if n % 2 == 0 {
                        self.check_domain(
                            &t,
                            bad_even_root_inputs(),
                            "even root of a possibly negative random value",
                            span,
                        );
                    }
                    t.root(n)
                } else {
                    return AbsValue::Top;
                }
            }
            (BinOp::Pow, true) => {
                if c <= 0.0 || c == 1.0 {
                    return AbsValue::Top;
                }
                t.exp_base(c)
            }
            (BinOp::And | BinOp::Or, _) => return AbsValue::Top,
        };
        AbsValue::Rv(out)
    }

    /// `W104`: warn when a partial transform is applied to a value whose
    /// inferred support overlaps the transform's undefined/bad region.
    fn check_domain(&mut self, t: &Transform, bad: OutcomeSet, what: &str, span: Span) {
        let resolved = self.env.resolve_transform(t);
        if let Some(v) = resolved.the_var() {
            let overlap = resolved
                .preimage_full(&bad)
                .intersection(&self.env.support_of(v.name()));
            if !overlap.is_empty() {
                self.diag(LintCode::InvalidTransformDomain, span, what);
            }
        }
    }

    fn eval_compare(&mut self, first: &Expr, chain: &[(CmpOp, Expr)], span: Span) -> AbsValue {
        let mut operands = vec![self.eval(first)];
        for (_, e) in chain {
            operands.push(self.eval(e));
        }
        let mut events: Vec<Event> = Vec::new();
        let mut statically_false = false;
        for (i, (op, _)) in chain.iter().enumerate() {
            match self.compare_pair(*op, &operands[i], &operands[i + 1], span) {
                Some(CompareResult::Event(e)) => events.push(e),
                Some(CompareResult::Static(true)) => {}
                Some(CompareResult::Static(false)) => statically_false = true,
                None => return AbsValue::Top,
            }
        }
        if statically_false {
            return AbsValue::Event(Event::never());
        }
        if events.is_empty() {
            return AbsValue::Const(Value::Bool(true));
        }
        AbsValue::Event(Event::and(events))
    }

    fn compare_pair(
        &mut self,
        op: CmpOp,
        lhs: &AbsValue,
        rhs: &AbsValue,
        span: Span,
    ) -> Option<CompareResult> {
        use AbsValue::{Const, Rv};
        match (lhs, rhs) {
            (Const(a), Const(b)) => static_compare(op, a, b).map(CompareResult::Static),
            (Rv(t), Const(v)) => self.rv_compare(op, t, v, false, span),
            (Const(v), Rv(t)) => self.rv_compare(op, t, v, true, span),
            _ => None,
        }
    }

    fn rv_compare(
        &mut self,
        op: CmpOp,
        t: &Transform,
        v: &Value,
        flipped: bool,
        span: Span,
    ) -> Option<CompareResult> {
        let op = if flipped {
            match op {
                CmpOp::Lt => CmpOp::Gt,
                CmpOp::Le => CmpOp::Ge,
                CmpOp::Gt => CmpOp::Lt,
                CmpOp::Ge => CmpOp::Le,
                other => other,
            }
        } else {
            op
        };
        if let Value::Num(r) = v {
            if !r.is_finite() {
                self.diag(
                    LintCode::NonFiniteConstant,
                    span,
                    format!("comparison against a non-finite constant ({r})"),
                );
                return None;
            }
        }
        let ev = match (op, v) {
            (CmpOp::Lt, Value::Num(r)) => Event::lt(t.clone(), *r),
            (CmpOp::Le, Value::Num(r)) => Event::le(t.clone(), *r),
            (CmpOp::Gt, Value::Num(r)) => Event::gt(t.clone(), *r),
            (CmpOp::Ge, Value::Num(r)) => Event::ge(t.clone(), *r),
            (CmpOp::Eq, Value::Num(r)) => Event::eq_real(t.clone(), *r),
            (CmpOp::Ne, Value::Num(r)) => Event::eq_real(t.clone(), *r).negate(),
            (CmpOp::Eq, Value::Str(s)) => Event::eq_str(t.clone(), s),
            (CmpOp::Ne, Value::Str(s)) => Event::eq_str(t.clone(), s).negate(),
            (CmpOp::Eq, Value::Bool(b)) => Event::eq_real(t.clone(), f64::from(*b)),
            (CmpOp::Ne, Value::Bool(b)) => Event::eq_real(t.clone(), f64::from(*b)).negate(),
            (CmpOp::In, Value::List(items)) => {
                let set = self.values_to_set(items, span)?;
                Event::in_set(t.clone(), set)
            }
            (CmpOp::In, Value::Bin { lo, hi, last }) => {
                Event::in_set(t.clone(), bin_set(*lo, *hi, *last))
            }
            _ => return None,
        };
        Some(CompareResult::Event(ev))
    }

    fn values_to_set(&mut self, items: &[Value], span: Span) -> Option<OutcomeSet> {
        let mut out = OutcomeSet::empty();
        for item in items {
            let piece = match item {
                Value::Num(n) if !n.is_finite() => {
                    self.diag(
                        LintCode::NonFiniteConstant,
                        span,
                        "membership sets must contain finite numbers",
                    );
                    return None;
                }
                Value::Num(n) => OutcomeSet::real_point(*n),
                Value::Str(s) => OutcomeSet::strings([s.as_str()]),
                Value::Bool(b) => OutcomeSet::real_point(f64::from(*b)),
                Value::Bin { lo, hi, last } => bin_set(*lo, *hi, *last),
                Value::List(_) => return None,
            };
            out = out.union(&piece);
        }
        Some(out)
    }

    fn eval_call(
        &mut self,
        func: &str,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        span: Span,
    ) -> AbsValue {
        if let "exp" | "ln" | "log" | "sqrt" | "abs" = func {
            if args.len() != 1 || !kwargs.is_empty() {
                return AbsValue::Top;
            }
            return match self.eval(&args[0]) {
                AbsValue::Const(Value::Num(x)) => {
                    let v = match func {
                        "exp" => x.exp(),
                        "ln" | "log" => x.ln(),
                        "sqrt" => x.sqrt(),
                        _ => x.abs(),
                    };
                    if v.is_nan() {
                        self.diag(
                            LintCode::NonFiniteConstant,
                            span,
                            format!("{func}({x}) is undefined (argument outside the domain)"),
                        );
                        return AbsValue::Top;
                    }
                    AbsValue::Const(Value::Num(v))
                }
                AbsValue::Rv(t) => {
                    let out = match func {
                        "exp" => t.exp(),
                        "ln" | "log" => {
                            self.check_domain(
                                &t,
                                bad_log_inputs(),
                                "log of a possibly non-positive random value",
                                span,
                            );
                            t.ln()
                        }
                        "sqrt" => {
                            self.check_domain(
                                &t,
                                bad_even_root_inputs(),
                                "sqrt of a possibly negative random value",
                                span,
                            );
                            t.sqrt()
                        }
                        _ => t.abs(),
                    };
                    AbsValue::Rv(out)
                }
                _ => AbsValue::Top,
            };
        }
        match func {
            "range" => {
                let (lo, hi) = match args.len() {
                    1 => (Some(0), self.eval_integer(&args[0])),
                    2 => (self.eval_integer(&args[0]), self.eval_integer(&args[1])),
                    _ => return AbsValue::Top,
                };
                let (Some(lo), Some(hi)) = (lo, hi) else {
                    return AbsValue::Top;
                };
                if hi < lo {
                    return AbsValue::Top;
                }
                AbsValue::Const(Value::List(
                    (lo..hi).map(|i| Value::Num(i as f64)).collect(),
                ))
            }
            "binspace" => {
                let mut pos = Vec::new();
                for a in args {
                    match self.eval_number(a) {
                        Some(Some(v)) => pos.push(v),
                        _ => return AbsValue::Top,
                    }
                }
                let mut n = None;
                for (k, v) in kwargs {
                    if k == "n" {
                        match self.eval_number(v) {
                            Some(Some(v)) => n = Some(v as usize),
                            _ => return AbsValue::Top,
                        }
                    } else {
                        return AbsValue::Top;
                    }
                }
                let (&[lo, hi], Some(n)) = (pos.as_slice(), n) else {
                    return AbsValue::Top;
                };
                if !lo.is_finite() || !hi.is_finite() || n == 0 || hi <= lo {
                    return AbsValue::Top;
                }
                let step = (hi - lo) / n as f64;
                AbsValue::Const(Value::List(
                    (0..n)
                        .map(|i| Value::Bin {
                            lo: lo + step * i as f64,
                            hi: if i + 1 == n {
                                hi
                            } else {
                                lo + step * (i + 1) as f64
                            },
                            last: i + 1 == n,
                        })
                        .collect(),
                ))
            }
            "array" => AbsValue::Top,
            _ => self.eval_distribution(func, args, kwargs, span),
        }
    }

    /// Evaluates an expression expected to be a constant number.
    /// `Some(Some(v))` known, `Some(None)` unknown, `None` invalid
    /// (non-numeric or random — an R4 violation for parameters).
    fn eval_number(&mut self, e: &Expr) -> Option<Param> {
        match self.eval(e) {
            AbsValue::Const(Value::Num(n)) => Some(Some(n)),
            AbsValue::Top => Some(None),
            _ => None,
        }
    }

    pub(crate) fn eval_integer(&mut self, e: &Expr) -> Option<i64> {
        match self.eval(e) {
            AbsValue::Const(Value::Num(n)) if n.fract() == 0.0 => Some(n as i64),
            _ => None,
        }
    }

    fn eval_distribution(
        &mut self,
        func: &str,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        span: Span,
    ) -> AbsValue {
        let mut pos: Vec<Param> = Vec::new();
        let mut dict: Option<Vec<(Value, Param)>> = None;
        let mut r4_violation = false;
        for a in args {
            if let Expr::Dict(items, _) = a {
                let mut pairs = Vec::new();
                for (k, v) in items {
                    let key = match self.eval(k) {
                        AbsValue::Const(c) => c,
                        _ => return AbsValue::Top,
                    };
                    let w = match self.eval_number(v) {
                        Some(w) => w,
                        None => {
                            r4_violation = true;
                            None
                        }
                    };
                    pairs.push((key, w));
                }
                dict = Some(pairs);
            } else {
                match self.eval_number(a) {
                    Some(p) => pos.push(p),
                    None => {
                        self.diag(
                            LintCode::InvalidParameter,
                            a.span(),
                            "distribution parameters must be compile-time constants (R4)",
                        );
                        r4_violation = true;
                        pos.push(None);
                    }
                }
            }
        }
        let mut named: HashMap<&str, Param> = HashMap::new();
        for (k, v) in kwargs {
            match self.eval_number(v) {
                Some(p) => {
                    named.insert(k.as_str(), p);
                }
                None => {
                    self.diag(
                        LintCode::InvalidParameter,
                        v.span(),
                        "distribution parameters must be compile-time constants (R4)",
                    );
                    r4_violation = true;
                    named.insert(k.as_str(), None);
                }
            }
        }
        match dists::infer(func, &pos, &named, dict.as_deref()) {
            DistVerdict::Ok(support) => AbsValue::Dist(support),
            DistVerdict::Invalid(msg, fallback) => {
                if !r4_violation {
                    self.diag(LintCode::InvalidParameter, span, msg);
                }
                AbsValue::Dist(fallback)
            }
            DistVerdict::UnknownName => {
                self.diag(
                    LintCode::UseBeforeDefine,
                    span,
                    format!("unknown function or distribution `{func}`"),
                );
                AbsValue::Top
            }
        }
    }

    /// Coerces a value to a predicate, mirroring the translator's
    /// truthiness rules. `None` when unknown.
    pub(crate) fn coerce_event(&mut self, v: AbsValue) -> Option<Event> {
        match v {
            AbsValue::Event(e) => Some(e),
            AbsValue::Const(Value::Bool(b)) => {
                Some(if b { Event::always() } else { Event::never() })
            }
            AbsValue::Const(Value::Num(n)) => Some(if n != 0.0 {
                Event::always()
            } else {
                Event::never()
            }),
            AbsValue::Rv(t) => Some(Event::eq_real(t, 0.0).negate()),
            _ => None,
        }
    }
}

enum CompareResult {
    Event(Event),
    Static(bool),
}

fn static_compare(op: CmpOp, a: &Value, b: &Value) -> Option<bool> {
    match (a, b) {
        (Value::Num(x), Value::Num(y)) => Some(match op {
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::In => return None,
        }),
        (Value::Str(x), Value::Str(y)) => match op {
            CmpOp::Eq => Some(x == y),
            CmpOp::Ne => Some(x != y),
            _ => None,
        },
        (Value::Bool(x), Value::Bool(y)) => match op {
            CmpOp::Eq => Some(x == y),
            CmpOp::Ne => Some(x != y),
            _ => None,
        },
        (v, Value::List(items)) if op == CmpOp::In => Some(items.iter().any(|i| i == v)),
        (Value::Num(x), Value::Bin { lo, hi, last }) if op == CmpOp::In => {
            Some(*x >= *lo && (*x < *hi || (*last && *x <= *hi)))
        }
        _ => None,
    }
}

fn rv_rv_op(op: BinOp, ta: Transform, tb: Transform) -> AbsValue {
    let (ia, pa) = poly_view(&ta);
    let (ib, pb) = poly_view(&tb);
    if ia != ib {
        return AbsValue::Top;
    }
    let p = match op {
        BinOp::Add => pa.add(&pb),
        BinOp::Sub => pa.sub(&pb),
        BinOp::Mul => pa.mul(&pb),
        _ => return AbsValue::Top,
    };
    AbsValue::Rv(Transform::poly(ia.clone(), p))
}

fn poly_view(t: &Transform) -> (&Transform, Polynomial) {
    match t {
        Transform::Poly(inner, p) => (inner, p.clone()),
        other => (other, Polynomial::identity()),
    }
}

pub(crate) fn bin_set(lo: f64, hi: f64, last: bool) -> OutcomeSet {
    let iv = if last {
        Interval::closed(lo, hi)
    } else {
        Interval::closed_open(lo, hi)
    };
    OutcomeSet::from(iv)
}

/// Case value → guard event for `switch` desugaring (mirrors the
/// translator's `case_event`).
pub(crate) fn case_event(t: &Transform, case: &Value) -> Option<Event> {
    match case {
        Value::Num(n) if !n.is_finite() => None,
        Value::Num(n) => Some(Event::eq_real(t.clone(), *n)),
        Value::Str(s) => Some(Event::eq_str(t.clone(), s)),
        Value::Bool(b) => Some(Event::eq_real(t.clone(), f64::from(*b))),
        Value::Bin { lo, hi, last } => Some(Event::in_set(t.clone(), bin_set(*lo, *hi, *last))),
        Value::List(_) => None,
    }
}

/// Static case matching for constant switch subjects.
pub(crate) fn static_case_matches(subject: &Value, case: &Value) -> bool {
    match (subject, case) {
        (Value::Num(x), Value::Bin { lo, hi, last }) => {
            *x >= *lo && (*x < *hi || (*last && *x <= *hi))
        }
        (a, b) => a == b,
    }
}
