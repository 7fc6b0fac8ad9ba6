//! Tuples: value rows with stable identifiers.

use crate::schema::AttrId;
use crate::value::Value;
use std::fmt;

/// A stable identifier for a tuple of the *original* (unfragmented)
/// relation.
///
/// Fragmentation preserves tuple ids, so a tuple shipped between sites can
/// always be traced back, and violation sets computed by different
/// algorithms can be compared for equality in tests. This mirrors the
/// paper's assumption of "system assigned tuple IDs" (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u64);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A tuple: an id plus one [`Value`] per schema attribute.
///
/// Values are stored in a boxed slice (two words, no spare capacity); with
/// `Value` clones being O(1), cloning a tuple for shipment costs one small
/// allocation plus reference-count bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    /// Stable id of the tuple in the original relation.
    pub tid: TupleId,
    values: Box<[Value]>,
}

impl Tuple {
    /// Creates a tuple from an id and values.
    pub fn new(tid: TupleId, values: Vec<Value>) -> Self {
        Tuple { tid, values: values.into_boxed_slice() }
    }

    /// The value of attribute `A`: `t[A]`.
    #[inline]
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.values[attr.index()]
    }

    /// All values in schema order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values (matches the schema arity).
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The projection `t[X]` onto an attribute list, cloning values
    /// (cheaply — see [`Value`]) into a fresh vector.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs.iter().map(|&a| self.values[a.index()].clone()).collect()
    }

    /// Tests `t1[X] = t2[X]` for an attribute list without materializing
    /// the projections.
    pub fn eq_on(&self, other: &Tuple, attrs: &[AttrId]) -> bool {
        attrs.iter().all(|&a| self.values[a.index()] == other.values[a.index()])
    }

    /// Approximate wire size in bytes when shipping this tuple whole.
    pub fn wire_size(&self) -> usize {
        8 + self.values.iter().map(Value::wire_size).sum::<usize>()
    }

    /// Approximate wire size in bytes when shipping only `attrs`.
    pub fn wire_size_of(&self, attrs: &[AttrId]) -> usize {
        8 + attrs.iter().map(|&a| self.values[a.index()].wire_size()).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.tid)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vals;

    fn t(id: u64, vs: Vec<Value>) -> Tuple {
        Tuple::new(TupleId(id), vs)
    }

    #[test]
    fn get_and_project() {
        let tup = t(1, vals![44, "EDI", "EH2"]);
        assert_eq!(tup.get(AttrId(0)), &Value::Int(44));
        assert_eq!(tup.project(&[AttrId(2), AttrId(0)]), vals!["EH2", 44]);
    }

    #[test]
    fn eq_on_subset() {
        let a = t(1, vals![44, "EDI", "x"]);
        let b = t(2, vals![44, "EDI", "y"]);
        assert!(a.eq_on(&b, &[AttrId(0), AttrId(1)]));
        assert!(!a.eq_on(&b, &[AttrId(2)]));
        assert!(a.eq_on(&b, &[])); // vacuous
    }

    #[test]
    fn tuple_identity_vs_content() {
        let a = t(1, vals![1]);
        let b = t(2, vals![1]);
        assert_ne!(a, b); // same content, different tid
        assert!(a.eq_on(&b, &[AttrId(0)]));
    }

    #[test]
    fn wire_sizes() {
        let tup = t(1, vals![44, "abc"]);
        assert_eq!(tup.wire_size(), 8 + 8 + 5);
        assert_eq!(tup.wire_size_of(&[AttrId(0)]), 16);
    }

    #[test]
    fn display() {
        let tup = t(7, vals![1, "a"]);
        assert_eq!(tup.to_string(), "t7(1, a)");
    }
}
