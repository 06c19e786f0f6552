//! Columnar batches: the vectorized executor's in-flight representation.
//!
//! MayBMS inherited vectorizable, column-sliceable execution for free by
//! compiling U-relational queries onto PostgreSQL; our native engine gets the
//! same effect with [`ColumnBatch`]: a relation's rows transposed into flat,
//! type-specialized columns that the kernels in [`crate::kernels`] stream
//! over with selection vectors instead of `Tuple` clones.
//!
//! Layout:
//!
//! * a column whose values are all [`Value::Int`] is stored as a flat
//!   `Vec<i64>` ([`Column::Int`]) — the census workload is entirely in this
//!   fast path;
//! * any other column is **dictionary-encoded** ([`Column::Dict`]): distinct
//!   values (including the `⊥`/`?` markers and interned strings, which are
//!   `Arc<String>` and cheap to hold) are assigned dense `u32` codes in order of
//!   first appearance, and the column stores one code per row.  Predicates
//!   over dictionary columns evaluate once per *distinct value* instead of
//!   once per row.
//!
//! A batch carries the **full logical schema** of its expression while
//! physically holding only the columns downstream operators will touch
//! (`cols[i] = None` for pruned attributes).  This keeps schema-level errors
//! (unknown attributes, duplicate product attributes, union compatibility)
//! byte-identical to the reference evaluator while letting leaf scans
//! skip encoding untouched columns.  [`Relation`]/[`Tuple`] remain the
//! materialization boundary: batches exist only inside one plan execution.

use crate::error::Result;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// One encoded column of a [`ColumnBatch`].
#[derive(Clone, Debug)]
pub enum Column {
    /// A column whose every value is [`Value::Int`], stored flat.
    Int(Vec<i64>),
    /// A dictionary-encoded column: `codes[row]` indexes into `dict`, which
    /// lists the distinct values in order of first appearance.
    Dict {
        /// One dense dictionary code per row.
        codes: Vec<u32>,
        /// The distinct values, indexed by code.
        dict: Vec<Value>,
    },
}

impl Column {
    /// Encode one attribute of `rows` (the values at `pos`).
    ///
    /// Tries the flat-integer fast path first and falls back to dictionary
    /// encoding on the first non-`Int` value.
    pub fn encode(rows: &[Tuple], pos: usize) -> Column {
        Column::encode_values(rows.iter().map(|row| &row[pos]))
    }

    /// [`Column::encode`] restricted to the rows listed in `sel`, in `sel`
    /// order — the late-materialization path: encode a filtered base
    /// relation's column without ever materializing the filtered rows.
    pub fn encode_sel(rows: &[Tuple], pos: usize, sel: &[u32]) -> Column {
        Column::encode_values(sel.iter().map(|&i| &rows[i as usize][pos]))
    }

    fn encode_values<'a, I>(values: I) -> Column
    where
        I: Iterator<Item = &'a Value> + Clone,
    {
        let (lower, _) = values.size_hint();
        let mut ints = Vec::with_capacity(lower);
        for value in values.clone() {
            match value {
                Value::Int(i) => ints.push(*i),
                _ => return Column::encode_dict_values(values),
            }
        }
        Column::Int(ints)
    }

    fn encode_dict_values<'a, I>(values: I) -> Column
    where
        I: Iterator<Item = &'a Value>,
    {
        let (lower, _) = values.size_hint();
        let mut codes = Vec::with_capacity(lower);
        let mut dict: Vec<Value> = Vec::new();
        let mut seen: HashMap<Value, u32> = HashMap::new();
        for value in values {
            let code = match seen.get(value) {
                Some(&code) => code,
                None => {
                    let code = u32::try_from(dict.len()).expect("dictionary exceeds u32 codes");
                    seen.insert(value.clone(), code);
                    dict.push(value.clone());
                    code
                }
            };
            codes.push(code);
        }
        Column::Dict { codes, dict }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The decoded value of one row (clones are cheap: ints are `Copy`,
    /// text is `Arc<String>`).
    pub fn value_at(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Dict { codes, dict } => dict[codes[row] as usize].clone(),
        }
    }

    /// Keep only the rows listed in `sel` (ascending), in `sel` order.
    pub fn gather(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Dict { codes, dict } => Column::Dict {
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
                dict: dict.clone(),
            },
        }
    }

    /// The column of a product's **left** operand: every value repeated
    /// `times` consecutive rows (left-major order).
    pub fn repeat_each(&self, times: usize) -> Column {
        match self {
            Column::Int(v) => {
                let mut out = Vec::with_capacity(v.len() * times);
                for &x in v {
                    out.resize(out.len() + times, x);
                }
                Column::Int(out)
            }
            Column::Dict { codes, dict } => {
                let mut out = Vec::with_capacity(codes.len() * times);
                for &c in codes {
                    out.resize(out.len() + times, c);
                }
                Column::Dict {
                    codes: out,
                    dict: dict.clone(),
                }
            }
        }
    }

    /// The column of a product's **right** operand: the whole column tiled
    /// `times` times (left-major order).
    pub fn tile(&self, times: usize) -> Column {
        match self {
            Column::Int(v) => {
                let mut out = Vec::with_capacity(v.len() * times);
                for _ in 0..times {
                    out.extend_from_slice(v);
                }
                Column::Int(out)
            }
            Column::Dict { codes, dict } => {
                let mut out = Vec::with_capacity(codes.len() * times);
                for _ in 0..times {
                    out.extend_from_slice(codes);
                }
                Column::Dict {
                    codes: out,
                    dict: dict.clone(),
                }
            }
        }
    }
}

/// A batch: the full logical schema of one (sub-)expression plus the encoded
/// columns the rest of the plan actually reads (`None` = pruned).
#[derive(Clone, Debug)]
pub struct ColumnBatch {
    schema: Schema,
    cols: Vec<Option<Column>>,
    len: usize,
}

impl ColumnBatch {
    /// Encode `relation`, materializing only the attributes in `needed`
    /// (all of them when `needed` is `None`).  The batch keeps the full
    /// schema either way, so downstream schema checks see every attribute.
    pub fn from_relation(
        relation: &Relation,
        needed: Option<&std::collections::BTreeSet<String>>,
    ) -> ColumnBatch {
        let schema = relation.schema().clone();
        let rows = relation.rows();
        let cols = schema
            .attrs()
            .iter()
            .enumerate()
            .map(|(pos, attr)| match needed {
                Some(set) if !set.contains(attr.as_ref()) => None,
                _ => Some(Column::encode(rows, pos)),
            })
            .collect();
        ColumnBatch {
            schema,
            cols,
            len: rows.len(),
        }
    }

    /// [`ColumnBatch::from_relation`] restricted to the rows listed in `sel`
    /// (in `sel` order): encodes each needed column straight off the filtered
    /// base rows, skipping the unfiltered encode + gather roundtrip.
    pub fn from_relation_sel(
        relation: &Relation,
        sel: &[u32],
        needed: Option<&std::collections::BTreeSet<String>>,
    ) -> ColumnBatch {
        let schema = relation.schema().clone();
        let rows = relation.rows();
        let cols = schema
            .attrs()
            .iter()
            .enumerate()
            .map(|(pos, attr)| match needed {
                Some(set) if !set.contains(attr.as_ref()) => None,
                _ => Some(Column::encode_sel(rows, pos, sel)),
            })
            .collect();
        ColumnBatch {
            schema,
            cols,
            len: sel.len(),
        }
    }

    /// A batch from parts; every present column must have `len` rows.
    pub fn from_parts(schema: Schema, cols: Vec<Option<Column>>, len: usize) -> ColumnBatch {
        debug_assert_eq!(schema.arity(), cols.len());
        debug_assert!(cols.iter().flatten().all(|c| { c.len() == len }));
        ColumnBatch { schema, cols, len }
    }

    /// The full logical schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The physically present columns (one slot per schema attribute).
    pub fn cols(&self) -> &[Option<Column>] {
        &self.cols
    }

    /// The column at `pos`; panics if it was pruned (the executor's
    /// needed-attribute propagation guarantees referenced columns are
    /// present).
    pub fn col(&self, pos: usize) -> &Column {
        self.cols[pos]
            .as_ref()
            .expect("column pruned away but referenced by a kernel")
    }

    /// Consume the batch, returning its column slots.
    pub fn into_cols(self) -> Vec<Option<Column>> {
        self.cols
    }

    /// Keep only the rows listed in `sel` (ascending), in `sel` order.
    pub fn gather(&self, sel: &[u32]) -> ColumnBatch {
        ColumnBatch {
            schema: self.schema.clone(),
            cols: self
                .cols
                .iter()
                .map(|c| c.as_ref().map(|col| col.gather(sel)))
                .collect(),
            len: sel.len(),
        }
    }

    /// Decode into tuples, in row order.  All columns must be present.
    pub fn decode_rows(&self) -> Vec<Tuple> {
        let cols: Vec<&Column> = (0..self.cols.len()).map(|i| self.col(i)).collect();
        (0..self.len)
            .map(|row| Tuple::new(cols.iter().map(|c| c.value_at(row)).collect()))
            .collect()
    }

    /// Materialize as a [`Relation`] (the engine's row-level boundary).
    pub fn into_relation(self) -> Result<Relation> {
        let rows = self.decode_rows();
        Relation::with_rows(self.schema, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn relation() -> Relation {
        let schema = Schema::new("R", &["A", "B", "C"]).unwrap();
        let rows = vec![
            Tuple::new(vec![Value::int(1), Value::text("x"), Value::int(10)]),
            Tuple::new(vec![Value::int(2), Value::text("y"), Value::int(20)]),
            Tuple::new(vec![Value::int(3), Value::text("x"), Value::int(30)]),
        ];
        Relation::with_rows(schema, rows).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let rel = relation();
        let batch = ColumnBatch::from_relation(&rel, None);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert!(matches!(batch.col(0), Column::Int(_)));
        // The text column dictionary-encodes with first-appearance codes.
        match batch.col(1) {
            Column::Dict { codes, dict } => {
                assert_eq!(codes, &[0, 1, 0]);
                assert_eq!(dict.len(), 2);
            }
            c => panic!("expected dict column, got {c:?}"),
        }
        let roundtrip = batch.into_relation().unwrap();
        assert_eq!(roundtrip.rows(), rel.rows());
    }

    #[test]
    fn pruned_columns_are_absent_but_schema_is_full() {
        let rel = relation();
        let needed: BTreeSet<String> = ["A".to_string()].into();
        let batch = ColumnBatch::from_relation(&rel, Some(&needed));
        assert_eq!(batch.schema().arity(), 3);
        assert!(batch.cols()[0].is_some());
        assert!(batch.cols()[1].is_none());
        assert!(batch.cols()[2].is_none());
    }

    #[test]
    fn gather_repeat_and_tile_preserve_order() {
        let rel = relation();
        let batch = ColumnBatch::from_relation(&rel, None);
        let picked = batch.gather(&[2, 0]);
        assert_eq!(picked.len(), 2);
        assert_eq!(picked.col(0).value_at(0), Value::int(3));
        assert_eq!(picked.col(0).value_at(1), Value::int(1));
        assert_eq!(picked.col(1).value_at(0), Value::text("x"));

        let left = batch.col(0).repeat_each(2);
        assert_eq!(left.len(), 6);
        assert_eq!(left.value_at(0), Value::int(1));
        assert_eq!(left.value_at(1), Value::int(1));
        assert_eq!(left.value_at(2), Value::int(2));

        let right = batch.col(1).tile(2);
        assert_eq!(right.len(), 6);
        assert_eq!(right.value_at(3), Value::text("x"));
        assert!(!right.is_empty());
    }

    #[test]
    fn markers_and_mixed_types_dictionary_encode() {
        let schema = Schema::new("S", &["X"]).unwrap();
        let rows = vec![
            Tuple::new(vec![Value::int(1)]),
            Tuple::new(vec![Value::Bottom]),
            Tuple::new(vec![Value::Unknown]),
            Tuple::new(vec![Value::int(1)]),
        ];
        let rel = Relation::with_rows(schema, rows.clone()).unwrap();
        let batch = ColumnBatch::from_relation(&rel, None);
        assert!(matches!(batch.col(0), Column::Dict { .. }));
        assert_eq!(batch.decode_rows(), rows);
    }
}
