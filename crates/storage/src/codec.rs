//! The hand-rolled binary codec of the persistence layer.
//!
//! The build environment is offline, so there is no serde: every type that
//! crosses the durability boundary — the five backend representations, the
//! update language, predicates and dependencies — is encoded by hand through
//! a tiny [`Writer`]/[`Reader`] pair.  The format is deliberately boring:
//!
//! * fixed-width little-endian integers (`u8`/`u32`/`u64`),
//! * `f64` as its IEEE-754 bit pattern (`to_bits`/`from_bits`, so
//!   probabilities round-trip *exactly* — a renormalized component must
//!   recover bit-identically, not approximately),
//! * length-prefixed UTF-8 strings,
//! * one tag byte per enum variant.
//!
//! Decoding is defensive: every length is checked against the remaining
//! input before allocating, unknown tags are [`StorageError::Corrupt`], and
//! trailing garbage after a complete value is rejected by
//! [`Reader::finish`].  Checksums live one layer up (snapshot files and WAL
//! records carry a CRC-32 over their payload; see [`mod@crate::crc32`],
//! [`crate::snapshot`] and [`crate::wal`]) — the codec itself only promises
//! `decode(encode(x)) == x`.

use crate::error::{Result, StorageError};
use std::collections::{BTreeSet, HashMap};
use ws_core::ops::update::UpdateExpr;
use ws_core::{Component, FieldId, LocalWorld, RelationMeta, WorldSet, Wsd};
use ws_relational::lineage::{Clause, LineageRelation, VarTable};
use ws_relational::{
    AttrComparison, CmpOp, Database, Dependency, EqualityGeneratingDependency,
    FunctionalDependency, Predicate, RaExpr, Relation, Schema, Tuple, Value,
};
use ws_urel::UDatabase;
use ws_uwsdt::{PresenceCondition, Uwsdt, UwsdtSnapshot, WorldEntry};

/// Hard ceiling on any decoded collection length; combined with the
/// per-element minimum of one byte this bounds allocation on corrupt input.
const MAX_LEN: u64 = 1 << 32;

/// How many levels a predicate or plan may nest: the root is level 1, and
/// every operand, input or selection predicate sits one level below its
/// parent.  The decoders recurse once per level on the caller's stack, so
/// they refuse deeper input as corrupt instead of overflowing the stack,
/// and [`check_nesting`] refuses to log an update they could not read back.
pub const MAX_NESTING: usize = 128;

/// The error for a value nested past [`MAX_NESTING`] levels.
fn too_deep(what: &str) -> String {
    format!("{what} nests deeper than {MAX_NESTING} levels")
}

// ---------------------------------------------------------------------------
// Writer / Reader
// ---------------------------------------------------------------------------

/// An append-only byte sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn len_of(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_of(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A bounds-checked byte cursor.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn short(&self, what: &str) -> StorageError {
        StorageError::corrupt(format!(
            "unexpected end of input while reading {what} at offset {}",
            self.pos
        ))
    }

    /// Read `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.short(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Look at the next byte without consuming it.
    pub fn peek_u8(&self, what: &str) -> Result<u8> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.short(what))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a collection length, bounded by the remaining input: every
    /// element of every encoded collection occupies at least one byte, so a
    /// length exceeding the unconsumed input is corrupt — rejected *before*
    /// any allocation is sized from it.
    pub fn len_of(&mut self, what: &str) -> Result<usize> {
        let n = self.u64(what)?;
        if n > MAX_LEN || n > self.remaining() as u64 {
            return Err(StorageError::corrupt(format!(
                "implausible length {n} for {what} at offset {}",
                self.pos
            )));
        }
        Ok(n as usize)
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a boolean byte (strictly 0 or 1).
    pub fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StorageError::corrupt(format!(
                "byte {b} is not a boolean for {what}"
            ))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String> {
        let n = self.len_of(what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::corrupt(format!("{what} is not valid UTF-8")))
    }

    /// Assert that the input is fully consumed.
    pub fn finish(&self, what: &str) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StorageError::corrupt(format!(
                "{} trailing byte(s) after {what}",
                self.remaining()
            )))
        }
    }
}

fn bad_tag(what: &str, tag: u8) -> StorageError {
    StorageError::corrupt(format!("unknown tag {tag} for {what}"))
}

// ---------------------------------------------------------------------------
// Relational substrate: values, tuples, schemas, relations, predicates
// ---------------------------------------------------------------------------

/// Encode one field value.
pub fn enc_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Bottom => w.u8(0),
        Value::Unknown => w.u8(1),
        Value::Bool(b) => {
            w.u8(2);
            w.bool(*b);
        }
        Value::Int(i) => {
            w.u8(3);
            w.u64(*i as u64);
        }
        Value::Text(t) => {
            w.u8(4);
            w.str(t);
        }
    }
}

/// Decode one field value.
pub fn dec_value(r: &mut Reader) -> Result<Value> {
    match r.u8("value tag")? {
        0 => Ok(Value::Bottom),
        1 => Ok(Value::Unknown),
        2 => Ok(Value::Bool(r.bool("bool value")?)),
        3 => Ok(Value::Int(r.u64("int value")? as i64)),
        4 => Ok(Value::text(r.str("text value")?)),
        t => Err(bad_tag("value", t)),
    }
}

/// Encode a tuple.
pub fn enc_tuple(w: &mut Writer, t: &Tuple) {
    w.len_of(t.arity());
    for v in t.values() {
        enc_value(w, v);
    }
}

/// Decode a tuple.
pub fn dec_tuple(r: &mut Reader) -> Result<Tuple> {
    let n = r.len_of("tuple arity")?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(dec_value(r)?);
    }
    Ok(Tuple::new(values))
}

/// Encode a schema (relation name + ordered attributes).
pub fn enc_schema(w: &mut Writer, s: &Schema) {
    w.str(s.relation());
    w.len_of(s.arity());
    for a in s.attrs() {
        w.str(a);
    }
}

/// Decode a schema.  Duplicate attributes are rejected.
pub fn dec_schema(r: &mut Reader) -> Result<Schema> {
    let name = r.str("relation name")?;
    let n = r.len_of("attribute count")?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        attrs.push(r.str("attribute name")?);
    }
    Schema::new(&name, &attrs)
        .map_err(|e| StorageError::corrupt(format!("invalid schema `{name}`: {e}")))
}

/// Encode a relation (schema + rows in stored order).
pub fn enc_relation(w: &mut Writer, rel: &Relation) {
    enc_schema(w, rel.schema());
    w.len_of(rel.len());
    for row in rel.rows() {
        enc_tuple(w, row);
    }
}

/// Decode a relation.
pub fn dec_relation(r: &mut Reader) -> Result<Relation> {
    let schema = dec_schema(r)?;
    let n = r.len_of("row count")?;
    let mut rel = Relation::new(schema);
    for _ in 0..n {
        let row = dec_tuple(r)?;
        rel.push(row)
            .map_err(|e| StorageError::corrupt(format!("row does not fit its schema: {e}")))?;
    }
    Ok(rel)
}

/// Encode a single-world database (relations in sorted name order).
pub fn enc_database(w: &mut Writer, db: &Database) {
    w.len_of(db.len());
    for (_, rel) in db.iter() {
        enc_relation(w, rel);
    }
}

/// Decode a single-world database.
pub fn dec_database(r: &mut Reader) -> Result<Database> {
    let n = r.len_of("relation count")?;
    let mut db = Database::new();
    for _ in 0..n {
        db.insert_relation(dec_relation(r)?);
    }
    Ok(db)
}

fn enc_cmp_op(w: &mut Writer, op: CmpOp) {
    w.u8(match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    });
}

fn dec_cmp_op(r: &mut Reader) -> Result<CmpOp> {
    Ok(match r.u8("comparison operator")? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(bad_tag("comparison operator", t)),
    })
}

/// Encode a selection predicate.
pub fn enc_predicate(w: &mut Writer, p: &Predicate) {
    match p {
        Predicate::AttrConst { attr, op, value } => {
            w.u8(0);
            w.str(attr);
            enc_cmp_op(w, *op);
            enc_value(w, value);
        }
        Predicate::AttrAttr { left, op, right } => {
            w.u8(1);
            w.str(left);
            enc_cmp_op(w, *op);
            w.str(right);
        }
        Predicate::And(ps) => {
            w.u8(2);
            w.len_of(ps.len());
            for p in ps {
                enc_predicate(w, p);
            }
        }
        Predicate::Or(ps) => {
            w.u8(3);
            w.len_of(ps.len());
            for p in ps {
                enc_predicate(w, p);
            }
        }
        Predicate::Not(p) => {
            w.u8(4);
            enc_predicate(w, p);
        }
    }
}

/// Decode a selection predicate.
pub fn dec_predicate(r: &mut Reader) -> Result<Predicate> {
    dec_predicate_at(r, 1)
}

/// Decode a predicate whose root sits at nesting level `depth`.
fn dec_predicate_at(r: &mut Reader, depth: usize) -> Result<Predicate> {
    if depth > MAX_NESTING {
        return Err(StorageError::corrupt(too_deep("predicate")));
    }
    Ok(match r.u8("predicate tag")? {
        0 => Predicate::AttrConst {
            attr: r.str("predicate attribute")?,
            op: dec_cmp_op(r)?,
            value: dec_value(r)?,
        },
        1 => Predicate::AttrAttr {
            left: r.str("predicate left attribute")?,
            op: dec_cmp_op(r)?,
            right: r.str("predicate right attribute")?,
        },
        tag @ (2 | 3) => {
            let n = r.len_of("predicate operand count")?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(dec_predicate_at(r, depth + 1)?);
            }
            if tag == 2 {
                Predicate::And(ps)
            } else {
                Predicate::Or(ps)
            }
        }
        4 => Predicate::Not(Box::new(dec_predicate_at(r, depth + 1)?)),
        t => return Err(bad_tag("predicate", t)),
    })
}

/// Encode a relational-algebra plan (the wire protocol's `prepare` payload;
/// plans never touch the durability files, which store states and updates).
pub fn enc_ra(w: &mut Writer, e: &RaExpr) {
    match e {
        RaExpr::Rel(name) => {
            w.u8(0);
            w.str(name);
        }
        RaExpr::Select { pred, input } => {
            w.u8(1);
            enc_predicate(w, pred);
            enc_ra(w, input);
        }
        RaExpr::Project { attrs, input } => {
            w.u8(2);
            w.len_of(attrs.len());
            for a in attrs {
                w.str(a);
            }
            enc_ra(w, input);
        }
        RaExpr::Product { left, right } => {
            w.u8(3);
            enc_ra(w, left);
            enc_ra(w, right);
        }
        RaExpr::Union { left, right } => {
            w.u8(4);
            enc_ra(w, left);
            enc_ra(w, right);
        }
        RaExpr::Difference { left, right } => {
            w.u8(5);
            enc_ra(w, left);
            enc_ra(w, right);
        }
        RaExpr::Rename { from, to, input } => {
            w.u8(6);
            w.str(from);
            w.str(to);
            enc_ra(w, input);
        }
    }
}

/// Decode a relational-algebra plan.
pub fn dec_ra(r: &mut Reader) -> Result<RaExpr> {
    dec_ra_at(r, 1)
}

/// Decode a plan whose root sits at nesting level `depth`.
fn dec_ra_at(r: &mut Reader, depth: usize) -> Result<RaExpr> {
    if depth > MAX_NESTING {
        return Err(StorageError::corrupt(too_deep("plan")));
    }
    let below = depth + 1;
    Ok(match r.u8("plan tag")? {
        0 => RaExpr::Rel(r.str("relation name")?),
        1 => RaExpr::Select {
            pred: dec_predicate_at(r, below)?,
            input: Box::new(dec_ra_at(r, below)?),
        },
        2 => {
            let n = r.len_of("projection attribute count")?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                attrs.push(r.str("projection attribute")?);
            }
            RaExpr::Project {
                attrs,
                input: Box::new(dec_ra_at(r, below)?),
            }
        }
        tag @ 3..=5 => {
            let left = Box::new(dec_ra_at(r, below)?);
            let right = Box::new(dec_ra_at(r, below)?);
            match tag {
                3 => RaExpr::Product { left, right },
                4 => RaExpr::Union { left, right },
                _ => RaExpr::Difference { left, right },
            }
        }
        6 => RaExpr::Rename {
            from: r.str("rename source")?,
            to: r.str("rename target")?,
            input: Box::new(dec_ra_at(r, below)?),
        },
        t => return Err(bad_tag("plan", t)),
    })
}

// ---------------------------------------------------------------------------
// Dependencies and the update language
// ---------------------------------------------------------------------------

fn enc_attr_comparison(w: &mut Writer, a: &AttrComparison) {
    w.str(&a.attr);
    enc_cmp_op(w, a.op);
    enc_value(w, &a.value);
}

fn dec_attr_comparison(r: &mut Reader) -> Result<AttrComparison> {
    Ok(AttrComparison {
        attr: r.str("comparison attribute")?,
        op: dec_cmp_op(r)?,
        value: dec_value(r)?,
    })
}

/// Encode an integrity constraint.
pub fn enc_dependency(w: &mut Writer, d: &Dependency) {
    match d {
        Dependency::Fd(fd) => {
            w.u8(0);
            w.str(&fd.relation);
            w.len_of(fd.lhs.len());
            for a in &fd.lhs {
                w.str(a);
            }
            w.len_of(fd.rhs.len());
            for a in &fd.rhs {
                w.str(a);
            }
        }
        Dependency::Egd(egd) => {
            w.u8(1);
            w.str(&egd.relation);
            w.len_of(egd.body.len());
            for a in &egd.body {
                enc_attr_comparison(w, a);
            }
            enc_attr_comparison(w, &egd.head);
        }
    }
}

/// Decode an integrity constraint.
pub fn dec_dependency(r: &mut Reader) -> Result<Dependency> {
    Ok(match r.u8("dependency tag")? {
        0 => {
            let relation = r.str("FD relation")?;
            let nl = r.len_of("FD lhs count")?;
            let mut lhs = Vec::with_capacity(nl);
            for _ in 0..nl {
                lhs.push(r.str("FD lhs attribute")?);
            }
            let nr = r.len_of("FD rhs count")?;
            let mut rhs = Vec::with_capacity(nr);
            for _ in 0..nr {
                rhs.push(r.str("FD rhs attribute")?);
            }
            Dependency::Fd(FunctionalDependency::new(relation, lhs, rhs))
        }
        1 => {
            let relation = r.str("EGD relation")?;
            let nb = r.len_of("EGD body count")?;
            let mut body = Vec::with_capacity(nb);
            for _ in 0..nb {
                body.push(dec_attr_comparison(r)?);
            }
            let head = dec_attr_comparison(r)?;
            Dependency::Egd(EqualityGeneratingDependency::new(relation, body, head))
        }
        t => return Err(bad_tag("dependency", t)),
    })
}

/// Refuse an update [`dec_update`] could not read back: one whose predicate
/// nests past [`MAX_NESTING`] levels.  The durable write path calls this
/// before logging, so the WAL never holds a record recovery would refuse.
pub fn check_nesting(u: &UpdateExpr) -> Result<()> {
    fn within(p: &Predicate, depth: usize) -> bool {
        depth <= MAX_NESTING
            && match p {
                Predicate::And(ps) | Predicate::Or(ps) => ps.iter().all(|p| within(p, depth + 1)),
                Predicate::Not(p) => within(p, depth + 1),
                Predicate::AttrConst { .. } | Predicate::AttrAttr { .. } => true,
            }
    }
    match u {
        UpdateExpr::Delete { pred, .. } | UpdateExpr::Modify { pred, .. } if !within(pred, 1) => {
            Err(StorageError::invalid(too_deep("update predicate")))
        }
        _ => Ok(()),
    }
}

/// Encode one update of the update language — the WAL's record payload.
pub fn enc_update(w: &mut Writer, u: &UpdateExpr) {
    match u {
        UpdateExpr::InsertCertain { relation, tuple } => {
            w.u8(0);
            w.str(relation);
            enc_tuple(w, tuple);
        }
        UpdateExpr::InsertPossible {
            relation,
            tuple,
            prob,
        } => {
            w.u8(1);
            w.str(relation);
            enc_tuple(w, tuple);
            w.f64(*prob);
        }
        UpdateExpr::Delete { relation, pred } => {
            w.u8(2);
            w.str(relation);
            enc_predicate(w, pred);
        }
        UpdateExpr::Modify {
            relation,
            pred,
            assignments,
        } => {
            w.u8(3);
            w.str(relation);
            enc_predicate(w, pred);
            w.len_of(assignments.len());
            for (attr, value) in assignments {
                w.str(attr);
                enc_value(w, value);
            }
        }
        UpdateExpr::Condition { constraints } => {
            w.u8(4);
            w.len_of(constraints.len());
            for d in constraints {
                enc_dependency(w, d);
            }
        }
    }
}

/// Decode one update of the update language.
pub fn dec_update(r: &mut Reader) -> Result<UpdateExpr> {
    Ok(match r.u8("update tag")? {
        0 => UpdateExpr::InsertCertain {
            relation: r.str("update relation")?,
            tuple: dec_tuple(r)?,
        },
        1 => UpdateExpr::InsertPossible {
            relation: r.str("update relation")?,
            tuple: dec_tuple(r)?,
            prob: r.f64("insert probability")?,
        },
        2 => UpdateExpr::Delete {
            relation: r.str("update relation")?,
            pred: dec_predicate(r)?,
        },
        3 => {
            let relation = r.str("update relation")?;
            let pred = dec_predicate(r)?;
            let n = r.len_of("assignment count")?;
            let mut assignments = Vec::with_capacity(n);
            for _ in 0..n {
                let attr = r.str("assignment attribute")?;
                assignments.push((attr, dec_value(r)?));
            }
            UpdateExpr::Modify {
                relation,
                pred,
                assignments,
            }
        }
        4 => {
            let n = r.len_of("constraint count")?;
            let mut constraints = Vec::with_capacity(n);
            for _ in 0..n {
                constraints.push(dec_dependency(r)?);
            }
            UpdateExpr::Condition { constraints }
        }
        t => return Err(bad_tag("update", t)),
    })
}

// ---------------------------------------------------------------------------
// WSD internals: fields, components, relation metadata
// ---------------------------------------------------------------------------

fn enc_field(w: &mut Writer, f: &FieldId) {
    w.str(&f.relation);
    w.u64(f.tuple.0 as u64);
    w.str(&f.attr);
}

fn dec_field(r: &mut Reader) -> Result<FieldId> {
    let relation = r.str("field relation")?;
    let tuple = r.u64("field tuple")? as usize;
    let attr = r.str("field attribute")?;
    Ok(FieldId::new(relation, tuple, attr))
}

fn enc_component(w: &mut Writer, c: &Component) {
    w.len_of(c.fields.len());
    for f in &c.fields {
        enc_field(w, f);
    }
    w.len_of(c.rows.len());
    for row in &c.rows {
        for v in &row.values {
            enc_value(w, v);
        }
        w.f64(row.prob);
    }
}

fn dec_component(r: &mut Reader) -> Result<Component> {
    let nf = r.len_of("component field count")?;
    let mut fields = Vec::with_capacity(nf);
    for _ in 0..nf {
        fields.push(dec_field(r)?);
    }
    let nr = r.len_of("component row count")?;
    let mut component = Component::new(fields);
    for _ in 0..nr {
        let mut values = Vec::with_capacity(nf);
        for _ in 0..nf {
            values.push(dec_value(r)?);
        }
        let prob = r.f64("local-world probability")?;
        component.rows.push(LocalWorld::new(values, prob));
    }
    Ok(component)
}

/// Encode a world-set decomposition (metadata + raw component slots,
/// including the `None` holes — slot indices are structural identity).
pub fn enc_wsd(w: &mut Writer, wsd: &Wsd) {
    let metas: Vec<(&str, &RelationMeta)> = wsd.relation_metas().collect();
    w.len_of(metas.len());
    for (name, meta) in metas {
        w.str(name);
        w.len_of(meta.attrs.len());
        for a in &meta.attrs {
            w.str(a);
        }
        w.u64(meta.tuple_count as u64);
        w.len_of(meta.removed.len());
        for t in &meta.removed {
            w.u64(*t as u64);
        }
    }
    let slots = wsd.raw_components();
    w.len_of(slots.len());
    for slot in slots {
        match slot {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                enc_component(w, c);
            }
        }
    }
}

/// Decode a world-set decomposition (validated on reconstruction).
pub fn dec_wsd(r: &mut Reader) -> Result<Wsd> {
    let nr = r.len_of("WSD relation count")?;
    let mut relations = Vec::with_capacity(nr);
    for _ in 0..nr {
        let name = r.str("WSD relation name")?;
        let na = r.len_of("WSD attribute count")?;
        let mut attrs = Vec::with_capacity(na);
        for _ in 0..na {
            attrs.push(std::sync::Arc::from(r.str("WSD attribute")?.as_str()));
        }
        let tuple_count = r.u64("WSD tuple count")? as usize;
        let nrem = r.len_of("WSD removed count")?;
        let mut removed = BTreeSet::new();
        for _ in 0..nrem {
            removed.insert(r.u64("WSD removed slot")? as usize);
        }
        relations.push((
            name,
            RelationMeta {
                attrs,
                tuple_count,
                removed,
            },
        ));
    }
    let ns = r.len_of("WSD component slot count")?;
    let mut components = Vec::with_capacity(ns);
    for _ in 0..ns {
        components.push(match r.u8("component slot tag")? {
            0 => None,
            1 => Some(dec_component(r)?),
            t => return Err(bad_tag("component slot", t)),
        });
    }
    Wsd::from_raw_parts(relations, components)
        .map_err(|e| StorageError::corrupt(format!("invalid WSD snapshot: {e}")))
}

// ---------------------------------------------------------------------------
// UWSDT (via its deterministic snapshot view)
// ---------------------------------------------------------------------------

/// Encode a UWSDT through [`Uwsdt::to_snapshot`]'s canonical ordering.
pub fn enc_uwsdt(w: &mut Writer, u: &Uwsdt) {
    let s = u.to_snapshot();
    w.len_of(s.templates.len());
    for t in &s.templates {
        enc_relation(w, t);
    }
    w.len_of(s.components.len());
    for (cid, worlds, fields) in &s.components {
        w.u64(*cid as u64);
        w.len_of(worlds.len());
        for entry in worlds {
            w.u64(entry.lwid as u64);
            w.f64(entry.prob);
        }
        w.len_of(fields.len());
        for f in fields {
            enc_field(w, f);
        }
    }
    w.len_of(s.values.len());
    for (field, values) in &s.values {
        enc_field(w, field);
        w.len_of(values.len());
        for (lwid, value) in values {
            w.u64(*lwid as u64);
            enc_value(w, value);
        }
    }
    w.len_of(s.presence.len());
    for (relation, tuple, conditions) in &s.presence {
        w.str(relation);
        w.u64(*tuple as u64);
        w.len_of(conditions.len());
        for cond in conditions {
            w.u64(cond.cid as u64);
            w.len_of(cond.lwids.len());
            for l in &cond.lwids {
                w.u64(*l as u64);
            }
        }
    }
    w.u64(s.next_cid as u64);
}

/// Decode a UWSDT through [`Uwsdt::from_snapshot`] (re-validated).
pub fn dec_uwsdt(r: &mut Reader) -> Result<Uwsdt> {
    let nt = r.len_of("UWSDT template count")?;
    let mut templates = Vec::with_capacity(nt);
    for _ in 0..nt {
        templates.push(dec_relation(r)?);
    }
    let nc = r.len_of("UWSDT component count")?;
    let mut components = Vec::with_capacity(nc);
    for _ in 0..nc {
        let cid = r.u64("UWSDT component id")? as usize;
        let nw = r.len_of("UWSDT local-world count")?;
        let mut worlds = Vec::with_capacity(nw);
        for _ in 0..nw {
            let lwid = r.u64("UWSDT lwid")? as usize;
            let prob = r.f64("UWSDT local-world probability")?;
            worlds.push(WorldEntry { lwid, prob });
        }
        let nf = r.len_of("UWSDT component field count")?;
        let mut fields = Vec::with_capacity(nf);
        for _ in 0..nf {
            fields.push(dec_field(r)?);
        }
        components.push((cid, worlds, fields));
    }
    let nv = r.len_of("UWSDT C-entry count")?;
    let mut values = Vec::with_capacity(nv);
    for _ in 0..nv {
        let field = dec_field(r)?;
        let n = r.len_of("UWSDT value count")?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            let lwid = r.u64("UWSDT value lwid")? as usize;
            vals.push((lwid, dec_value(r)?));
        }
        values.push((field, vals));
    }
    let np = r.len_of("UWSDT presence count")?;
    let mut presence = Vec::with_capacity(np);
    for _ in 0..np {
        let relation = r.str("UWSDT presence relation")?;
        let tuple = r.u64("UWSDT presence tuple")? as usize;
        let ncond = r.len_of("UWSDT presence condition count")?;
        let mut conditions = Vec::with_capacity(ncond);
        for _ in 0..ncond {
            let cid = r.u64("UWSDT presence cid")? as usize;
            let nl = r.len_of("UWSDT presence lwid count")?;
            let mut lwids = BTreeSet::new();
            for _ in 0..nl {
                lwids.insert(r.u64("UWSDT presence lwid")? as usize);
            }
            conditions.push(PresenceCondition { cid, lwids });
        }
        presence.push((relation, tuple, conditions));
    }
    let next_cid = r.u64("UWSDT next cid")? as usize;
    Uwsdt::from_snapshot(UwsdtSnapshot {
        templates,
        components,
        values,
        presence,
        next_cid,
    })
    .map_err(|e| StorageError::corrupt(format!("invalid UWSDT snapshot: {e}")))
}

// ---------------------------------------------------------------------------
// U-relations
// ---------------------------------------------------------------------------

/// Encode a U-relational database: the world table (each variable by name
/// with its distribution), then every U-relation's rows, each clause as its
/// bindings by variable name.
pub fn enc_udatabase(w: &mut Writer, db: &UDatabase) {
    let vars = db.vars();
    w.len_of(vars.len());
    for var in 0..vars.len() as u32 {
        w.str(vars.name(var));
        let dist = vars.dist(var);
        w.len_of(dist.len());
        for p in dist {
            w.f64(*p);
        }
    }
    let names = db.relation_names();
    w.len_of(names.len());
    for name in names {
        let rel = db.relation(name).expect("listed relation");
        enc_schema(w, rel.schema());
        w.len_of(rel.len());
        for (tuple, clause) in rel.rows() {
            enc_tuple(w, tuple);
            w.len_of(clause.atoms().len());
            for &(var, choice) in clause.atoms() {
                w.str(vars.name(var));
                w.u64(choice as u64);
            }
        }
    }
}

/// Decode a U-relational database (clauses re-validated against the
/// decoded world table).
pub fn dec_udatabase(r: &mut Reader) -> Result<UDatabase> {
    let mut vars = VarTable::new();
    let mut by_name = HashMap::new();
    let nv = r.len_of("world-table variable count")?;
    for _ in 0..nv {
        let name = r.str("world-table variable")?;
        let nd = r.len_of("world-table domain size")?;
        let mut dist = Vec::with_capacity(nd);
        for _ in 0..nd {
            dist.push(r.f64("world-table probability")?);
        }
        let var = vars
            .add_var(name.clone(), dist)
            .map_err(|e| StorageError::corrupt(format!("invalid variable `{name}`: {e}")))?;
        if by_name.insert(name.clone(), var).is_some() {
            return Err(StorageError::corrupt(format!(
                "variable `{name}` declared twice"
            )));
        }
    }
    let mut db = UDatabase::new();
    *db.vars_mut() = vars;
    let nr = r.len_of("U-relation count")?;
    for _ in 0..nr {
        let schema = dec_schema(r)?;
        let n = r.len_of("U-relation row count")?;
        let mut rel = LineageRelation::new(schema);
        for _ in 0..n {
            let tuple = dec_tuple(r)?;
            let nb = r.len_of("descriptor binding count")?;
            let mut bindings = Vec::with_capacity(nb);
            for _ in 0..nb {
                let name = r.str("descriptor variable")?;
                let var = *by_name.get(&name).ok_or_else(|| {
                    StorageError::corrupt(format!("descriptor binds unknown variable `{name}`"))
                })?;
                let choice = u32::try_from(r.u64("descriptor index")?)
                    .map_err(|_| StorageError::corrupt("descriptor index out of range"))?;
                bindings.push((var, choice));
            }
            let clause = Clause::from_bindings(bindings)
                .ok_or_else(|| StorageError::corrupt("descriptor binds a variable twice"))?;
            rel.push(tuple, clause)
                .map_err(|e| StorageError::corrupt(format!("invalid U-relation row: {e}")))?;
        }
        db.insert_relation(rel);
    }
    db.validate()
        .map_err(|e| StorageError::corrupt(format!("invalid U-database snapshot: {e}")))?;
    Ok(db)
}

// ---------------------------------------------------------------------------
// Explicit world-sets
// ---------------------------------------------------------------------------

/// Encode an explicit world-set verbatim (world order is preserved — it
/// determines the canonical order of streamed possible tuples).
pub fn enc_worldset(w: &mut Writer, ws: &WorldSet) {
    w.len_of(ws.len());
    for (db, p) in ws.worlds() {
        enc_database(w, db);
        w.f64(*p);
    }
}

/// Decode an explicit world-set without re-merging worlds.
pub fn dec_worldset(r: &mut Reader) -> Result<WorldSet> {
    let n = r.len_of("world count")?;
    let mut worlds = Vec::with_capacity(n);
    for _ in 0..n {
        let db = dec_database(r)?;
        let p = r.f64("world probability")?;
        worlds.push((db, p));
    }
    Ok(WorldSet::from_raw_worlds(worlds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T, E, D>(value: &T, enc: E, dec: D) -> T
    where
        E: Fn(&mut Writer, &T),
        D: Fn(&mut Reader) -> Result<T>,
    {
        let mut w = Writer::new();
        enc(&mut w, value);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let decoded = dec(&mut r).expect("decodes");
        r.finish("roundtrip value").expect("fully consumed");
        decoded
    }

    #[test]
    fn primitive_values_roundtrip() {
        for v in [
            Value::Bottom,
            Value::Unknown,
            Value::Bool(true),
            Value::int(-42),
            Value::int(i64::MAX),
            Value::text("Smith ⊥ ?"),
        ] {
            assert_eq!(roundtrip(&v, enc_value, dec_value), v);
        }
        let t = Tuple::from_iter([Value::int(1), Value::Bottom, Value::text("x")]);
        assert_eq!(roundtrip(&t, enc_tuple, dec_tuple), t);
    }

    #[test]
    fn predicates_and_updates_roundtrip() {
        let pred = Predicate::and(vec![
            Predicate::eq_const("A", 1i64),
            Predicate::or(vec![
                Predicate::cmp_attr("A", CmpOp::Lt, "B"),
                Predicate::not(Predicate::cmp_const("B", CmpOp::Ge, 3i64)),
            ]),
        ]);
        assert_eq!(roundtrip(&pred, enc_predicate, dec_predicate), pred);

        let updates = vec![
            UpdateExpr::insert("R", Tuple::from_iter([1i64, 2])),
            UpdateExpr::insert_possible("R", Tuple::from_iter([3i64, 4]), 0.25),
            UpdateExpr::delete("S", pred.clone()),
            UpdateExpr::modify("R", pred, vec![("B".to_string(), Value::int(7))]),
            UpdateExpr::condition(vec![
                Dependency::Fd(FunctionalDependency::new("R", vec!["A"], vec!["B"])),
                Dependency::Egd(EqualityGeneratingDependency::implies(
                    "R",
                    "A",
                    1i64,
                    "B",
                    CmpOp::Ne,
                    2i64,
                )),
            ]),
        ];
        for u in updates {
            assert_eq!(roundtrip(&u, enc_update, dec_update), u);
        }
    }

    #[test]
    fn plans_roundtrip() {
        let plan = RaExpr::Project {
            attrs: vec!["S".into(), "N".into()],
            input: Box::new(RaExpr::Select {
                pred: Predicate::eq_const("M", 1i64),
                input: Box::new(RaExpr::Union {
                    left: Box::new(RaExpr::Rename {
                        from: "A".into(),
                        to: "S".into(),
                        input: Box::new(RaExpr::rel("R")),
                    }),
                    right: Box::new(RaExpr::Difference {
                        left: Box::new(RaExpr::Product {
                            left: Box::new(RaExpr::rel("S")),
                            right: Box::new(RaExpr::rel("T")),
                        }),
                        right: Box::new(RaExpr::rel("U")),
                    }),
                }),
            }),
        };
        assert_eq!(roundtrip(&plan, enc_ra, dec_ra), plan);

        // Unknown plan tags are corrupt, not trusted.
        let mut w = Writer::new();
        enc_ra(&mut w, &RaExpr::rel("R"));
        let mut bytes = w.into_bytes();
        bytes[0] = 42;
        assert!(dec_ra(&mut Reader::new(&bytes)).is_err());
    }

    /// `levels` nested `Not`s around one comparison: `levels + 1` levels.
    fn nots(levels: usize) -> Predicate {
        (0..levels).fold(Predicate::eq_const("A", 1i64), |p, _| Predicate::not(p))
    }

    #[test]
    fn nesting_past_the_bound_is_refused_on_both_sides() {
        // Predicates: exactly MAX_NESTING levels decode, one more does not.
        let deepest = nots(MAX_NESTING - 1);
        assert_eq!(roundtrip(&deepest, enc_predicate, dec_predicate), deepest);
        let mut w = Writer::new();
        enc_predicate(&mut w, &nots(MAX_NESTING));
        let bytes = w.into_bytes();
        assert!(matches!(
            dec_predicate(&mut Reader::new(&bytes)),
            Err(StorageError::Corrupt(_))
        ));

        // Plans: a selection's predicate sits one level below it.
        let at_bound = RaExpr::rel("R").select(nots(MAX_NESTING - 2));
        assert_eq!(roundtrip(&at_bound, enc_ra, dec_ra), at_bound);
        let mut w = Writer::new();
        enc_ra(&mut w, &RaExpr::rel("R").select(nots(MAX_NESTING - 1)));
        let bytes = w.into_bytes();
        assert!(matches!(
            dec_ra(&mut Reader::new(&bytes)),
            Err(StorageError::Corrupt(_))
        ));
        let renames = (1..MAX_NESTING).fold(RaExpr::rel("R"), |e, _| e.rename("A", "A"));
        assert_eq!(roundtrip(&renames, enc_ra, dec_ra), renames);
        let mut w = Writer::new();
        enc_ra(&mut w, &renames.rename("A", "A"));
        assert!(dec_ra(&mut Reader::new(&w.into_bytes())).is_err());

        // A selection over 10 000 nested negations, cut short: refused at
        // the bound, long before the stack or the input runs out.
        let mut hostile = vec![1u8];
        hostile.extend(std::iter::repeat(4u8).take(10_000));
        assert!(matches!(
            dec_ra(&mut Reader::new(&hostile)),
            Err(StorageError::Corrupt(_))
        ));

        // The write side refuses an update the decoder would refuse.
        let ok = UpdateExpr::delete("R", nots(MAX_NESTING - 1));
        assert_eq!(check_nesting(&ok), Ok(()));
        let too_deep = UpdateExpr::modify("R", nots(MAX_NESTING), vec![]);
        assert!(matches!(
            check_nesting(&too_deep),
            Err(StorageError::Invalid(_))
        ));
    }

    #[test]
    fn wsd_roundtrips_through_raw_parts() {
        let wsd = ws_core::wsd::example_census_wsd();
        let decoded = roundtrip(&wsd, enc_wsd, dec_wsd);
        decoded.validate().unwrap();
        assert!(wsd
            .rep()
            .unwrap()
            .same_distribution(&decoded.rep().unwrap(), 0.0));
        // Determinism: encoding the decoded value reproduces the bytes.
        let mut a = Writer::new();
        enc_wsd(&mut a, &wsd);
        let mut b = Writer::new();
        enc_wsd(&mut b, &decoded);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    /// The U-database payload names variables, so clauses decode by name
    /// whatever order the variables were written in — the layout stores
    /// written before U-relations became lineage databases still use.
    #[test]
    fn udatabase_payload_decodes_bindings_by_name() {
        let payload = |vars: &[(&str, &[f64])], rows: &[(i64, &[(&str, u64)])]| {
            let mut w = Writer::new();
            w.len_of(vars.len());
            for (name, dist) in vars {
                w.str(name);
                w.len_of(dist.len());
                for p in *dist {
                    w.f64(*p);
                }
            }
            w.len_of(1);
            enc_schema(&mut w, &Schema::new("R", &["A"]).unwrap());
            w.len_of(rows.len());
            for (a, bindings) in rows {
                enc_tuple(&mut w, &Tuple::from_iter([*a]));
                w.len_of(bindings.len());
                for (name, choice) in *bindings {
                    w.str(name);
                    w.u64(*choice);
                }
            }
            w.into_bytes()
        };
        let vars: &[(&str, &[f64])] = &[("__ins0", &[0.5, 0.5]), ("c1", &[0.25, 0.75])];
        let bytes = payload(vars, &[(1, &[("c1", 1)]), (2, &[("c1", 0), ("__ins0", 1)])]);
        let db = dec_udatabase(&mut Reader::new(&bytes)).unwrap();
        let (ins, c1) = (
            db.vars().lookup("__ins0").unwrap(),
            db.vars().lookup("c1").unwrap(),
        );
        assert_eq!(db.vars().dist(c1), &[0.25, 0.75]);
        let rows = db.relation("R").unwrap().rows();
        assert_eq!(rows[0].1, Clause::of(c1, 1));
        assert_eq!(
            rows[1].1,
            Clause::from_bindings([(c1, 0), (ins, 1)]).unwrap()
        );
        let again = roundtrip(&db, enc_udatabase, dec_udatabase);
        assert_eq!(again, db);

        // A name bound but never declared, or declared twice, is corrupt.
        let unknown = payload(vars, &[(1, &[("nope", 0)])]);
        assert!(dec_udatabase(&mut Reader::new(&unknown)).is_err());
        let twice = payload(&[("x", &[1.0]), ("x", &[1.0])], &[]);
        assert!(dec_udatabase(&mut Reader::new(&twice)).is_err());
    }

    #[test]
    fn corrupt_input_is_rejected_not_trusted() {
        let mut w = Writer::new();
        enc_value(&mut w, &Value::int(5));
        let mut bytes = w.into_bytes();
        bytes[0] = 99; // unknown tag
        assert!(dec_value(&mut Reader::new(&bytes)).is_err());

        // Truncated tuple.
        let mut w = Writer::new();
        enc_tuple(&mut w, &Tuple::from_iter([1i64, 2, 3]));
        let bytes = w.into_bytes();
        assert!(dec_tuple(&mut Reader::new(&bytes[..bytes.len() - 1])).is_err());

        // Implausible length prefix.
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).len_of("count").is_err());

        // Trailing garbage.
        let mut w = Writer::new();
        enc_value(&mut w, &Value::Bottom);
        w.u8(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        dec_value(&mut r).unwrap();
        assert!(r.finish("value").is_err());
    }
}
