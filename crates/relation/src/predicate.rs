//! Selection predicates and their satisfiability.
//!
//! Horizontal fragments are defined as `Di = σ_Fi(D)` for Boolean
//! predicates `Fi` (§II-B of the paper). The paper's "partitioning
//! condition" optimization (§IV-A) skips a site entirely when
//! `Fi ∧ Fφ` is unsatisfiable, where `Fφ` is the conjunction of the
//! constants in a pattern tuple's LHS. This module provides predicates in
//! disjunctive normal form and a **sound** satisfiability test: whenever
//! [`Conjunction::is_satisfiable`] returns `false` the formula truly has
//! no satisfying tuple, so skipping the site is always safe. (The test is
//! conservative for exotic combinations of string inequalities, which
//! never arise from fragmentation predicates in practice.)

use crate::schema::AttrId;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// Comparison operator of an atomic condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Evaluates `left op right` under the total order on [`Value`].
    /// Comparisons involving `Null` are false except `Null = Null` /
    /// `Null ≠ v`.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            _ => {
                if left.is_null() || right.is_null() {
                    return false;
                }
                matches!(
                    (self, left.cmp(right)),
                    (CmpOp::Lt, Less)
                        | (CmpOp::Le, Less | Equal)
                        | (CmpOp::Gt, Greater)
                        | (CmpOp::Ge, Greater | Equal)
                )
            }
        }
    }

    /// Symbol for display.
    pub const fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An atomic condition `A op c` over one attribute and one constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Attribute being constrained.
    pub attr: AttrId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Constant operand.
    pub value: Value,
}

impl Atom {
    /// Creates an atom.
    pub fn new(attr: AttrId, op: CmpOp, value: impl Into<Value>) -> Self {
        Atom { attr, op, value: value.into() }
    }

    /// `A = c` shorthand.
    pub fn eq(attr: AttrId, value: impl Into<Value>) -> Self {
        Atom::new(attr, CmpOp::Eq, value)
    }

    /// Evaluates the atom on a tuple.
    pub fn eval(&self, t: &Tuple) -> bool {
        self.op.eval(t.get(self.attr), &self.value)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.attr, self.op.symbol(), self.value)
    }
}

/// A conjunction (AND) of atoms. The empty conjunction is `true`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Conjunction {
    atoms: Vec<Atom>,
}

impl Conjunction {
    /// The always-true conjunction.
    pub fn always() -> Self {
        Conjunction { atoms: Vec::new() }
    }

    /// Builds a conjunction from atoms.
    pub fn of(atoms: Vec<Atom>) -> Self {
        Conjunction { atoms }
    }

    /// Adds another atom (builder style).
    pub fn and(mut self, atom: Atom) -> Self {
        self.atoms.push(atom);
        self
    }

    /// The atoms of this conjunction.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Evaluates the conjunction on a tuple.
    pub fn eval(&self, t: &Tuple) -> bool {
        self.atoms.iter().all(|a| a.eval(t))
    }

    /// Conjoins two conjunctions.
    pub fn conjoin(&self, other: &Conjunction) -> Conjunction {
        let mut atoms = Vec::with_capacity(self.atoms.len() + other.atoms.len());
        atoms.extend_from_slice(&self.atoms);
        atoms.extend_from_slice(&other.atoms);
        Conjunction { atoms }
    }

    /// Sound satisfiability test.
    ///
    /// Returns `false` only if the conjunction provably has no satisfying
    /// tuple. Per attribute it maintains: a pinned equality value, an
    /// integer interval `[lo, hi]`, and a set of excluded values.
    /// Contradictions detected:
    ///
    /// * two distinct pinned equalities,
    /// * a pinned equality violating the interval or an exclusion,
    /// * an empty integer interval,
    /// * an interval collapsed to a point that is excluded.
    ///
    /// Order constraints on strings are handled conservatively (assumed
    /// satisfiable) unless combined with a pinned equality.
    pub fn is_satisfiable(&self) -> bool {
        #[derive(Default)]
        struct Domain {
            pinned: Option<Value>,
            lo: Option<i64>,
            hi: Option<i64>,
            excluded: Vec<Value>,
            // String order constraints we check only against pins.
            str_bounds: Vec<(CmpOp, Value)>,
        }

        let mut domains: BTreeMap<AttrId, Domain> = BTreeMap::new();
        for atom in &self.atoms {
            let d = domains.entry(atom.attr).or_default();
            match (&atom.op, &atom.value) {
                (CmpOp::Eq, v) => match &d.pinned {
                    Some(p) if p != v => return false,
                    _ => d.pinned = Some(v.clone()),
                },
                (CmpOp::Ne, v) => d.excluded.push(v.clone()),
                (op, Value::Int(c)) => {
                    // Normalize to closed integer bounds.
                    match op {
                        CmpOp::Lt => d.hi = Some(d.hi.map_or(c - 1, |h| h.min(c - 1))),
                        CmpOp::Le => d.hi = Some(d.hi.map_or(*c, |h| h.min(*c))),
                        CmpOp::Gt => d.lo = Some(d.lo.map_or(c + 1, |l| l.max(c + 1))),
                        CmpOp::Ge => d.lo = Some(d.lo.map_or(*c, |l| l.max(*c))),
                        _ => unreachable!(),
                    }
                }
                (op, v) => d.str_bounds.push((*op, v.clone())),
            }
        }

        for d in domains.values() {
            if let (Some(lo), Some(hi)) = (d.lo, d.hi) {
                if lo > hi {
                    return false;
                }
                if lo == hi && d.excluded.contains(&Value::Int(lo)) && d.pinned.is_none() {
                    return false;
                }
            }
            if let Some(p) = &d.pinned {
                if d.excluded.contains(p) {
                    return false;
                }
                if let Value::Int(i) = p {
                    if d.lo.is_some_and(|lo| *i < lo) || d.hi.is_some_and(|hi| *i > hi) {
                        return false;
                    }
                }
                for (op, bound) in &d.str_bounds {
                    if !op.eval(p, bound) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl fmt::Display for Conjunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// A predicate in disjunctive normal form: an OR of conjunctions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    disjuncts: Vec<Conjunction>,
}

impl Predicate {
    /// The always-true predicate.
    pub fn always() -> Self {
        Predicate { disjuncts: vec![Conjunction::always()] }
    }

    /// The always-false predicate (empty disjunction).
    pub fn never() -> Self {
        Predicate { disjuncts: Vec::new() }
    }

    /// A predicate with one conjunction.
    pub fn from_conjunction(c: Conjunction) -> Self {
        Predicate { disjuncts: vec![c] }
    }

    /// A single-atom predicate.
    pub fn atom(a: Atom) -> Self {
        Predicate::from_conjunction(Conjunction::of(vec![a]))
    }

    /// The disjuncts.
    pub fn disjuncts(&self) -> &[Conjunction] {
        &self.disjuncts
    }

    /// Evaluates the predicate on a tuple.
    pub fn eval(&self, t: &Tuple) -> bool {
        self.disjuncts.iter().any(|c| c.eval(t))
    }

    /// Disjoins two predicates.
    pub fn or(mut self, other: Predicate) -> Predicate {
        self.disjuncts.extend(other.disjuncts);
        self
    }

    /// Conjoins two predicates by distributing over the disjuncts.
    pub fn and(&self, other: &Predicate) -> Predicate {
        let mut disjuncts = Vec::with_capacity(self.disjuncts.len() * other.disjuncts.len());
        for a in &self.disjuncts {
            for b in &other.disjuncts {
                disjuncts.push(a.conjoin(b));
            }
        }
        Predicate { disjuncts }
    }

    /// Sound satisfiability test: satisfiable iff some disjunct is.
    pub fn is_satisfiable(&self) -> bool {
        self.disjuncts.iter().any(Conjunction::is_satisfiable)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.disjuncts.is_empty() {
            return write!(f, "false");
        }
        for (i, c) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " OR ")?;
            }
            write!(f, "({c})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleId;
    use crate::vals;

    fn t(vs: Vec<Value>) -> Tuple {
        Tuple::new(TupleId(0), vs)
    }

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    #[test]
    fn cmp_eval_total_order() {
        assert!(CmpOp::Eq.eval(&Value::Int(1), &Value::Int(1)));
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Ge.eval(&Value::str("b"), &Value::str("a")));
        assert!(!CmpOp::Lt.eval(&Value::Null, &Value::Int(1)));
        assert!(CmpOp::Eq.eval(&Value::Null, &Value::Null));
        assert!(CmpOp::Ne.eval(&Value::Null, &Value::Int(1)));
    }

    #[test]
    fn atom_and_conjunction_eval() {
        let tup = t(vals![44, "MTS"]);
        let c = Conjunction::of(vec![Atom::eq(A, 44), Atom::eq(B, "MTS")]);
        assert!(c.eval(&tup));
        let c2 = c.clone().and(Atom::new(A, CmpOp::Gt, 50));
        assert!(!c2.eval(&tup));
        assert!(Conjunction::always().eval(&tup));
    }

    #[test]
    fn sat_contradictory_equalities() {
        let c = Conjunction::of(vec![Atom::eq(A, "MTS"), Atom::eq(A, "VP")]);
        assert!(!c.is_satisfiable());
        let c = Conjunction::of(vec![Atom::eq(A, "MTS"), Atom::eq(A, "MTS")]);
        assert!(c.is_satisfiable());
    }

    #[test]
    fn sat_interval_reasoning() {
        let c = Conjunction::of(vec![Atom::new(A, CmpOp::Gt, 10), Atom::new(A, CmpOp::Lt, 11)]);
        assert!(!c.is_satisfiable()); // no integer strictly between 10 and 11
        let c = Conjunction::of(vec![Atom::new(A, CmpOp::Ge, 10), Atom::new(A, CmpOp::Le, 10)]);
        assert!(c.is_satisfiable());
        let c = Conjunction::of(vec![
            Atom::new(A, CmpOp::Ge, 10),
            Atom::new(A, CmpOp::Le, 10),
            Atom::new(A, CmpOp::Ne, 10),
        ]);
        assert!(!c.is_satisfiable());
    }

    #[test]
    fn sat_pin_vs_interval_and_exclusions() {
        let c = Conjunction::of(vec![Atom::eq(A, 5), Atom::new(A, CmpOp::Gt, 10)]);
        assert!(!c.is_satisfiable());
        let c = Conjunction::of(vec![Atom::eq(A, 5), Atom::new(A, CmpOp::Ne, 5)]);
        assert!(!c.is_satisfiable());
        let c = Conjunction::of(vec![Atom::eq(A, "x"), Atom::new(A, CmpOp::Lt, "a")]);
        assert!(!c.is_satisfiable()); // pinned "x" violates < "a"
    }

    #[test]
    fn sat_is_conservative_for_pure_string_bounds() {
        // No pin: we cannot refute, so we must answer satisfiable.
        let c = Conjunction::of(vec![Atom::new(A, CmpOp::Lt, "a"), Atom::new(A, CmpOp::Gt, "z")]);
        assert!(c.is_satisfiable());
    }

    #[test]
    fn sat_independent_attributes_do_not_interact() {
        let c = Conjunction::of(vec![Atom::eq(A, 1), Atom::eq(B, "x")]);
        assert!(c.is_satisfiable());
    }

    #[test]
    fn predicate_dnf_eval_and_combinators() {
        let title_mts = Predicate::atom(Atom::eq(B, "MTS"));
        let title_vp = Predicate::atom(Atom::eq(B, "VP"));
        let either = title_mts.clone().or(title_vp);
        assert!(either.eval(&t(vals![1, "MTS"])));
        assert!(either.eval(&t(vals![1, "VP"])));
        assert!(!either.eval(&t(vals![1, "DMTS"])));

        let cc44 = Predicate::atom(Atom::eq(A, 44));
        let both = either.and(&cc44);
        assert!(both.eval(&t(vals![44, "MTS"])));
        assert!(!both.eval(&t(vals![31, "MTS"])));
        assert_eq!(both.disjuncts().len(), 2);
    }

    #[test]
    fn predicate_sat_through_and() {
        // Fi: title = MTS ; Fφ: title = VP  →  unsat (partitioning condition).
        let fi = Predicate::atom(Atom::eq(B, "MTS"));
        let fphi = Predicate::atom(Atom::eq(B, "VP"));
        assert!(!fi.and(&fphi).is_satisfiable());
        // Compatible pattern stays satisfiable.
        let fphi2 = Predicate::atom(Atom::eq(A, 44));
        assert!(fi.and(&fphi2).is_satisfiable());
    }

    #[test]
    fn never_and_always() {
        let tup = t(vals![1, "x"]);
        assert!(Predicate::always().eval(&tup));
        assert!(!Predicate::never().eval(&tup));
        assert!(Predicate::always().is_satisfiable());
        assert!(!Predicate::never().is_satisfiable());
    }

    #[test]
    fn display_round_trip_strings() {
        let p = Predicate::from_conjunction(Conjunction::of(vec![
            Atom::eq(A, 44),
            Atom::new(B, CmpOp::Ne, "VP"),
        ]));
        let s = p.to_string();
        assert!(s.contains("#0 = 44"));
        assert!(s.contains("#1 != VP"));
    }
}
