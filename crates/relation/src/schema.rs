//! Relation schemas: named, typed attributes plus key metadata.

use crate::error::RelationError;
use crate::fxhash::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// Index of an attribute inside its schema (`attr(R)` position).
///
/// A `u16` is plenty: the paper's widest schema (the Theorem 4 reduction)
/// has `m² + m + 1` attributes for small `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The position as a usize, for indexing into tuple value slices.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Declared type of an attribute's domain `dom(A)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit integers.
    Int,
    /// UTF-8 strings.
    Str,
}

impl ValueType {
    /// Human-readable type name.
    pub const fn name(self) -> &'static str {
        match self {
            ValueType::Int => "Int",
            ValueType::Str => "Str",
        }
    }
}

/// A single attribute: a name and the type of its domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, unique within a schema.
    pub name: String,
    /// Declared domain type.
    pub ty: ValueType,
}

/// A relation schema `R` over a set of attributes `attr(R)`, with an
/// optional key `key(R)`.
///
/// Schemas are immutable once built and shared via `Arc`, so fragments of
/// the same relation (which all carry the same schema in the horizontal
/// case, §II-B) share one allocation.
#[derive(Debug, Clone)]
pub struct Schema {
    name: String,
    attrs: Vec<Attribute>,
    key: Vec<AttrId>,
    by_name: FxHashMap<String, AttrId>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        // `by_name` is derived from `attrs`, so comparing it is redundant.
        self.name == other.name && self.attrs == other.attrs && self.key == other.key
    }
}

impl Eq for Schema {}

impl Schema {
    /// Starts building a schema for relation `name`.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder { name: name.into(), attrs: Vec::new(), key: Vec::new() }
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All attributes, in declaration order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes (the relation's arity).
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The declared key attributes `key(R)` (may be empty).
    pub fn key(&self) -> &[AttrId] {
        &self.key
    }

    /// Looks up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Looks up an attribute id by name, erroring if absent.
    pub fn require(&self, name: &str) -> Result<AttrId, RelationError> {
        self.attr_id(name).ok_or_else(|| RelationError::UnknownAttribute {
            name: name.to_string(),
            schema: self.name.clone(),
        })
    }

    /// Resolves a list of attribute names to ids, erroring on the first
    /// unknown name.
    pub fn require_all(&self, names: &[&str]) -> Result<Vec<AttrId>, RelationError> {
        names.iter().map(|n| self.require(n)).collect()
    }

    /// The attribute at `id`. Panics if `id` is out of range (ids should
    /// only ever come from this schema).
    pub fn attr(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.index()]
    }

    /// Name of the attribute at `id`.
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attrs[id.index()].name
    }

    /// All attribute ids, in declaration order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> + '_ {
        (0..self.attrs.len()).map(|i| AttrId(i as u16))
    }

    /// Builds a derived schema containing only `keep` (in the given
    /// order), named `name`. The key is retained iff all key attributes
    /// are kept. Used for vertical fragmentation and projections.
    pub fn project(
        &self,
        name: impl Into<String>,
        keep: &[AttrId],
    ) -> Result<Arc<Schema>, RelationError> {
        let mut b = Schema::builder(name);
        for &id in keep {
            if id.index() >= self.attrs.len() {
                return Err(RelationError::UnknownAttribute {
                    name: format!("{id}"),
                    schema: self.name.clone(),
                });
            }
            let a = self.attr(id);
            b = b.attr(&a.name, a.ty);
        }
        let key_names: Vec<&str> =
            self.key.iter().filter(|k| keep.contains(k)).map(|&k| self.attr_name(k)).collect();
        if key_names.len() == self.key.len() && !key_names.is_empty() {
            b = b.key(&key_names);
        }
        b.build()
    }

    fn from_parts(name: String, attrs: Vec<Attribute>, key: Vec<AttrId>) -> Self {
        let by_name =
            attrs.iter().enumerate().map(|(i, a)| (a.name.clone(), AttrId(i as u16))).collect();
        Schema { name, attrs, key, by_name }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", a.name, a.ty.name())?;
        }
        write!(f, ")")
    }
}

/// Incremental builder for [`Schema`].
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    name: String,
    attrs: Vec<Attribute>,
    key: Vec<String>,
}

impl SchemaBuilder {
    /// Appends an attribute.
    pub fn attr(mut self, name: impl Into<String>, ty: ValueType) -> Self {
        self.attrs.push(Attribute { name: name.into(), ty });
        self
    }

    /// Appends several attributes of the same type.
    pub fn attrs(mut self, names: &[&str], ty: ValueType) -> Self {
        for n in names {
            self.attrs.push(Attribute { name: (*n).to_string(), ty });
        }
        self
    }

    /// Declares the key attributes by name (replacing any previous key).
    pub fn key(mut self, names: &[&str]) -> Self {
        self.key = names.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Validates and builds the schema, wrapped in an `Arc` since schemas
    /// are shared by relations, fragments and shipped tuple batches.
    pub fn build(self) -> Result<Arc<Schema>, RelationError> {
        let mut seen = crate::fxhash::FxHashSet::default();
        for a in &self.attrs {
            if !seen.insert(a.name.as_str()) {
                return Err(RelationError::DuplicateAttribute { name: a.name.clone() });
            }
        }
        let mut key_ids = Vec::with_capacity(self.key.len());
        for k in &self.key {
            match self.attrs.iter().position(|a| &a.name == k) {
                Some(i) => key_ids.push(AttrId(i as u16)),
                None => {
                    return Err(RelationError::InvalidKey {
                        detail: format!("key attribute `{k}` is not declared in the schema"),
                    })
                }
            }
        }
        Ok(Arc::new(Schema::from_parts(self.name, self.attrs, key_ids)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> Arc<Schema> {
        Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("name", ValueType::Str)
            .attr("cc", ValueType::Int)
            .key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let s = emp();
        assert_eq!(s.attr_id("id"), Some(AttrId(0)));
        assert_eq!(s.attr_id("cc"), Some(AttrId(2)));
        assert_eq!(s.attr_id("nope"), None);
        assert!(s.require("nope").is_err());
        assert_eq!(s.require_all(&["cc", "name"]).unwrap(), vec![AttrId(2), AttrId(1)]);
    }

    #[test]
    fn key_resolution() {
        let s = emp();
        assert_eq!(s.key(), &[AttrId(0)]);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = Schema::builder("r")
            .attr("a", ValueType::Int)
            .attr("a", ValueType::Str)
            .build()
            .unwrap_err();
        assert!(matches!(err, RelationError::DuplicateAttribute { .. }));
    }

    #[test]
    fn unknown_key_rejected() {
        let err = Schema::builder("r").attr("a", ValueType::Int).key(&["b"]).build().unwrap_err();
        assert!(matches!(err, RelationError::InvalidKey { .. }));
    }

    #[test]
    fn projection_keeps_key_iff_complete() {
        let s = emp();
        // Keep id + cc: key survives.
        let p = s.project("emp_v", &[AttrId(0), AttrId(2)]).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.key().len(), 1);
        assert_eq!(p.attr_name(p.key()[0]), "id");
        // Drop the key attribute: no key on the projection.
        let p = s.project("emp_nok", &[AttrId(1), AttrId(2)]).unwrap();
        assert!(p.key().is_empty());
    }

    #[test]
    fn display_formats_schema() {
        let s = emp();
        assert_eq!(s.to_string(), "emp(id: Int, name: Str, cc: Int)");
    }

    #[test]
    fn attrs_bulk_builder() {
        let s = Schema::builder("r").attrs(&["a", "b", "c"], ValueType::Str).build().unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.attr(AttrId(1)).ty, ValueType::Str);
    }
}
