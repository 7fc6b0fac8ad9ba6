//! Dynamically typed cell values.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single cell value in a relation.
///
/// Strings are reference-counted (`Arc<str>`) so that projecting and
/// shipping tuples around the simulated network never deep-copies string
/// payloads; cloning a [`Value`] is always O(1).
///
/// `Null` is used by `Vioπ` (the X-projected violation view of §II-C of
/// the paper) for the attributes outside `X`, and compares equal only to
/// itself — adequate for detection, which never joins on nulls.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// SQL NULL / "no value".
    #[default]
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// Interned UTF-8 string.
    Str(Arc<str>),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Creates an integer value.
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Returns `true` iff this value is [`Value::Null`].
    pub const fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the integer payload if this is an `Int`.
    pub const fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name of the runtime type, for error messages.
    pub const fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Int(_) => "Int",
            Value::Str(_) => "Str",
        }
    }

    /// Approximate wire size of the value in bytes, used by the network
    /// simulator to account for shipped data volume.
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Str(s) => 2 + s.len(),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: `Null < Int(_) < Str(_)`; integers numerically,
    /// strings lexicographically. A total order (rather than SQL's
    /// three-valued comparisons) keeps sorting and deduplication simple.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) => Ordering::Greater,
            (Str(a), Str(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(String::from("y")), Value::str("y"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::str("a").as_str(), Some("a"));
        assert_eq!(Value::Null.as_int(), None);
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn ordering_is_total_and_stratified() {
        let mut vs =
            vec![Value::str("b"), Value::Int(10), Value::Null, Value::Int(-1), Value::str("a")];
        vs.sort();
        assert_eq!(
            vs,
            vec![Value::Null, Value::Int(-1), Value::Int(10), Value::str("a"), Value::str("b")]
        );
    }

    #[test]
    fn equality_is_by_content_not_pointer() {
        let a = Value::str("hello");
        let b = Value::str(String::from("hello"));
        assert_eq!(a, b);
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Value::str("some long string that would be expensive to copy");
        let b = a.clone();
        assert_eq!(a, b);
        if let (Value::Str(x), Value::Str(y)) = (&a, &b) {
            assert!(Arc::ptr_eq(x, y), "clone should share the allocation");
        }
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("EDI").to_string(), "EDI");
    }

    #[test]
    fn wire_size_accounts_for_payload() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Int(1).wire_size(), 8);
        assert_eq!(Value::str("abcd").wire_size(), 6);
    }
}
