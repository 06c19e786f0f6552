//! Typed values stored in tuple fields.
//!
//! Besides ordinary constants the paper's representations need two special
//! markers:
//!
//! * `⊥` ([`Value::Bottom`]) — used inside world-set relations and WSD
//!   components to mark a field of a *deleted/absent* tuple (§3: "any tuple
//!   that has at least one symbol ⊥ is a t⊥ tuple").
//! * `?` ([`Value::Unknown`]) — used inside template relations of WSDTs and
//!   UWSDTs as a placeholder for a field on which the possible worlds
//!   disagree (§3, "Adding Template Relations").

use std::fmt;
use std::sync::Arc;

/// A single field value.
///
/// Probabilities are *not* values: component-tuple probabilities are stored
/// separately (as `f64`) so that `Value` can stay `Eq + Ord + Hash`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// The `⊥` marker: this field belongs to a tuple that is absent in the
    /// worlds described by the enclosing component tuple.
    Bottom,
    /// The `?` placeholder used in template relations: the possible worlds
    /// disagree on this field; the component relations define its values.
    Unknown,
    /// A boolean constant.
    Bool(bool),
    /// A 64-bit signed integer constant.  All census attributes are coded as
    /// small integers, as in the IPUMS extract used by the paper.
    Int(i64),
    /// A string constant (cheaply cloneable).  A thin `Arc<String>` rather
    /// than a fat `Arc<str>` keeps a `Value` at 16 bytes instead of 24, and
    /// every tuple a third smaller.
    Text(Arc<String>),
}

impl Value {
    /// Build a text value from anything string-like.
    pub fn text(s: impl AsRef<str>) -> Self {
        Value::Text(Arc::new(s.as_ref().to_string()))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Returns `true` iff this is the `⊥` marker.
    pub fn is_bottom(&self) -> bool {
        matches!(self, Value::Bottom)
    }

    /// Returns `true` iff this is the `?` template placeholder.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Value::Unknown)
    }

    /// Returns `true` iff this is an ordinary constant (neither `⊥` nor `?`).
    pub fn is_constant(&self) -> bool {
        !self.is_bottom() && !self.is_unknown()
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The text payload, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(t) => Some(t.as_str()),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compare two values with the comparison semantics used by selections.
    ///
    /// Comparisons involving `⊥` or `?` are *undefined* and return `None`;
    /// the world-set operators never compare against these markers directly
    /// (they test for them explicitly first).  Comparisons between values of
    /// different runtime types are also undefined.
    pub fn partial_cmp_sql(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Bottom, _) | (_, Bottom) | (Unknown, _) | (_, Unknown) => None,
            (Bool(a), Bool(b)) => a.partial_cmp(b),
            (Int(a), Int(b)) => a.partial_cmp(b),
            (Text(a), Text(b)) => a.partial_cmp(b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bottom => write!(f, "⊥"),
            Value::Unknown => write!(f, "?"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(t) => write!(f, "{t}"),
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

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::text(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(Arc::new(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Value::int(7).as_int(), Some(7));
        assert_eq!(Value::text("x").as_text(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("abc"), Value::text("abc"));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(String::from("s")), Value::text("s"));
    }

    /// Every tuple is a vector of values: their size is the memory of every
    /// template, world and lineage relation.
    #[test]
    fn values_stay_two_words() {
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn bottom_and_unknown_markers() {
        assert!(Value::Bottom.is_bottom());
        assert!(!Value::Bottom.is_constant());
        assert!(Value::Unknown.is_unknown());
        assert!(!Value::Unknown.is_constant());
        assert!(Value::int(1).is_constant());
    }

    #[test]
    fn sql_comparison_defined_only_on_same_typed_constants() {
        assert_eq!(
            Value::int(1).partial_cmp_sql(&Value::int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::text("b").partial_cmp_sql(&Value::text("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(Value::int(1).partial_cmp_sql(&Value::text("1")), None);
        assert_eq!(Value::Bottom.partial_cmp_sql(&Value::int(1)), None);
        assert_eq!(Value::Unknown.partial_cmp_sql(&Value::Unknown), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Bottom.to_string(), "⊥");
        assert_eq!(Value::Unknown.to_string(), "?");
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::text("Smith").to_string(), "Smith");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }

    #[test]
    fn ordering_is_total_for_collection_use() {
        // Values are used as BTreeMap/BTreeSet keys; Ord must be total.
        let mut vals = vec![
            Value::text("z"),
            Value::int(5),
            Value::Bottom,
            Value::Unknown,
            Value::Bool(true),
        ];
        vals.sort();
        // Sorting twice gives the same order (total, deterministic).
        let again = {
            let mut v = vals.clone();
            v.sort();
            v
        };
        assert_eq!(vals, again);
    }
}
