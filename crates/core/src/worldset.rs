//! Explicit world-sets and world-set relations.
//!
//! A *world-set* is a finite set of databases over a common schema (§2).  A
//! *world-set relation* stores each world as one wide tuple obtained by the
//! `inline` encoding (§3): the concatenation of all tuples of all relations,
//! padded with the `t⊥` tuple up to `|R|max` per relation.  These explicit
//! representations are exponential in general; they exist here as the
//! semantic ground truth against which WSDs are defined and tested, and as
//! the naive baseline of the benchmarks.

use crate::component::Component;
use crate::error::{Result, WsError};
use crate::field::{FieldId, TupleId};
use crate::wsd::Wsd;
use std::collections::BTreeMap;
use std::sync::Arc;
use ws_relational::{Database, Relation, Schema, Tuple, Value};

/// A finite set of possible worlds, each carrying a probability.
///
/// Non-probabilistic world-sets are modeled with uniform probabilities.
#[derive(Clone, Debug, Default)]
pub struct WorldSet {
    worlds: Vec<(Database, f64)>,
}

impl WorldSet {
    /// Create an empty world-set.
    pub fn new() -> Self {
        WorldSet::default()
    }

    /// Build a world-set from equally likely worlds.
    pub fn from_worlds(worlds: Vec<Database>) -> Self {
        let n = worlds.len().max(1) as f64;
        WorldSet::from_weighted_worlds(worlds.into_iter().map(|w| (w, 1.0 / n)).collect())
    }

    /// Build a world-set from weighted worlds, merging duplicate worlds and
    /// summing their probabilities.
    pub fn from_weighted_worlds(worlds: Vec<(Database, f64)>) -> Self {
        let mut merged: Vec<(Database, f64)> = Vec::new();
        for (db, p) in worlds {
            match merged.iter_mut().find(|(w, _)| w.world_eq(&db)) {
                Some((_, q)) => *q += p,
                None => merged.push((db, p)),
            }
        }
        WorldSet { worlds: merged }
    }

    /// Rebuild a world-set from an already-merged world list *without* the
    /// quadratic duplicate merge of [`WorldSet::from_weighted_worlds`].
    ///
    /// Used by the persistence codec, whose input is the verbatim
    /// [`WorldSet::worlds`] slice of a live world-set: re-merging would be
    /// wasted work and could reorder worlds, and the decoded state must be
    /// structurally identical to the encoded one.
    pub fn from_raw_worlds(worlds: Vec<(Database, f64)>) -> Self {
        WorldSet { worlds }
    }

    /// The worlds with their probabilities.
    pub fn worlds(&self) -> &[(Database, f64)] {
        &self.worlds
    }

    /// Number of distinct worlds.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// Whether the world-set is empty (inconsistent).
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    /// Total probability mass (≈ 1 for a well-formed probabilistic world-set).
    pub fn total_probability(&self) -> f64 {
        self.worlds.iter().map(|(_, p)| p).sum()
    }

    /// Add one world with a probability.
    pub fn push(&mut self, world: Database, prob: f64) {
        match self.worlds.iter_mut().find(|(w, _)| w.world_eq(&world)) {
            Some((_, q)) => *q += prob,
            None => self.worlds.push((world, prob)),
        }
    }

    /// The probability of a world equal (as a set of relations of sets of
    /// tuples) to the given database.
    pub fn probability_of(&self, world: &Database) -> f64 {
        self.worlds
            .iter()
            .filter(|(w, _)| w.world_eq(world))
            .map(|(_, p)| p)
            .sum()
    }

    /// Whether the world-set contains a world equal to the given database.
    pub fn contains(&self, world: &Database) -> bool {
        self.worlds.iter().any(|(w, _)| w.world_eq(world))
    }

    /// Set-of-worlds equality, ignoring probabilities.
    pub fn same_worlds(&self, other: &WorldSet) -> bool {
        self.len() == other.len() && self.worlds.iter().all(|(w, _)| other.contains(w))
    }

    /// Distribution equality: same worlds with (approximately) the same
    /// probabilities.
    pub fn same_distribution(&self, other: &WorldSet, epsilon: f64) -> bool {
        self.len() == other.len()
            && self
                .worlds
                .iter()
                .all(|(w, p)| (other.probability_of(w) - p).abs() <= epsilon)
    }

    /// Apply a per-world transformation, keeping probabilities.
    pub fn map_worlds<F>(&self, mut f: F) -> Result<WorldSet>
    where
        F: FnMut(&Database) -> Result<Database>,
    {
        let mut out = Vec::with_capacity(self.worlds.len());
        for (w, p) in &self.worlds {
            out.push((f(w)?, *p));
        }
        Ok(WorldSet::from_weighted_worlds(out))
    }

    /// Keep only the worlds satisfying a predicate, renormalizing the
    /// probabilities of the survivors (conditioning).  Errors with
    /// [`WsError::Inconsistent`] if no world survives.
    pub fn filter_worlds<F>(&self, mut keep: F) -> Result<WorldSet>
    where
        F: FnMut(&Database) -> bool,
    {
        let surviving: Vec<(Database, f64)> = self
            .worlds
            .iter()
            .filter(|(w, _)| keep(w))
            .cloned()
            .collect();
        let mass: f64 = surviving.iter().map(|(_, p)| p).sum();
        if surviving.is_empty() || mass <= 0.0 {
            return Err(WsError::Inconsistent);
        }
        Ok(WorldSet::from_weighted_worlds(
            surviving.into_iter().map(|(w, p)| (w, p / mass)).collect(),
        ))
    }

    /// `|R|max` for every relation name appearing in any world.
    pub fn max_cardinalities(&self) -> BTreeMap<String, usize> {
        let mut out: BTreeMap<String, usize> = BTreeMap::new();
        for (db, _) in &self.worlds {
            for (name, rel) in db.iter() {
                let e = out.entry(name.to_string()).or_default();
                *e = (*e).max(rel.len());
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The explicit world-enumeration backend of the unified query engine: the
// whole plan is evaluated in each world separately — infeasible at scale
// (which is the paper's point) but the semantic ground truth the decomposed
// representations are validated against.
// ---------------------------------------------------------------------------

impl ws_relational::SchemaCatalog for WorldSet {
    fn schema_of(&self, relation: &str) -> ws_relational::Result<Schema> {
        let Some((db, _)) = self.worlds().first() else {
            return Err(ws_relational::RelationalError::UnknownRelation(
                relation.to_string(),
            ));
        };
        db.relation(relation)
            .map(|r| r.schema().clone())
            .map_err(|_| ws_relational::RelationalError::UnknownRelation(relation.to_string()))
    }

    fn contains_relation(&self, relation: &str) -> bool {
        self.worlds()
            .first()
            .map(|(db, _)| db.contains_relation(relation))
            .unwrap_or(false)
    }
}

impl ws_relational::QueryBackend for WorldSet {
    type Error = WsError;

    /// The oracle's own definition of a query: the set-semantics result of
    /// `plan` in every world ([`ws_relational::evaluate_set`]), stored as
    /// `out` in that world.  Worlds are extended in place rather than
    /// rebuilt, and only once every world has evaluated, so a failing plan
    /// leaves no partial result behind.
    fn execute_plan(&mut self, plan: &ws_relational::RaExpr, out: &str) -> Result<()> {
        use ws_relational::SchemaCatalog;
        if let Some(missing) = plan
            .base_relations()
            .into_iter()
            .find(|name| !self.contains_relation(name))
        {
            return Err(
                ws_relational::RelationalError::UnknownRelation(missing.to_string()).into(),
            );
        }
        let results = self
            .worlds
            .iter()
            .map(|(db, _)| ws_relational::evaluate_set(db, plan))
            .collect::<ws_relational::Result<Vec<_>>>()?;
        for ((db, _), mut result) in self.worlds.iter_mut().zip(results) {
            let renamed = result.schema().renamed_relation(out);
            *result.schema_mut() = renamed;
            db.insert_relation(result);
        }
        Ok(())
    }

    fn drop_scratch(&mut self, name: &str) {
        for (db, _) in &mut self.worlds {
            db.remove_relation(name);
        }
    }
}

// ---------------------------------------------------------------------------
// The explicit world-enumeration backend of the update language: every verb
// is applied to each world separately — the literal reading of the "apply
// the update in every possible world" contract, and therefore the semantic
// ground truth the decomposed WriteBackend implementations are tested
// against.
// ---------------------------------------------------------------------------

impl ws_relational::WriteBackend for WorldSet {
    fn insert_certain(&mut self, relation: &str, tuple: &Tuple) -> Result<()> {
        let updated = self.map_worlds(|db| {
            let mut db = db.clone();
            db.insert_certain(relation, tuple)?;
            Ok(db)
        })?;
        *self = updated;
        Ok(())
    }

    fn insert_possible(&mut self, relation: &str, tuple: &Tuple, prob: f64) -> Result<()> {
        ws_relational::engine::check_probability(prob).map_err(WsError::from)?;
        let mut split: Vec<(Database, f64)> = Vec::with_capacity(self.worlds.len() * 2);
        for (db, p) in &self.worlds {
            ws_relational::engine::check_insertable(db.relation(relation)?.schema(), tuple)
                .map_err(WsError::from)?;
            if prob < 1.0 {
                split.push((db.clone(), p * (1.0 - prob)));
            }
            if prob > 0.0 {
                let mut with = db.clone();
                with.relation_mut(relation)?.insert(tuple.clone())?;
                split.push((with, p * prob));
            }
        }
        *self = WorldSet::from_weighted_worlds(split);
        Ok(())
    }

    fn delete_where(&mut self, relation: &str, pred: &ws_relational::Predicate) -> Result<()> {
        let updated = self.map_worlds(|db| {
            let mut db = db.clone();
            db.delete_where(relation, pred)?;
            Ok(db)
        })?;
        *self = updated;
        Ok(())
    }

    fn modify_where(
        &mut self,
        relation: &str,
        pred: &ws_relational::Predicate,
        assignments: &[(String, Value)],
    ) -> Result<()> {
        let updated = self.map_worlds(|db| {
            let mut db = db.clone();
            db.modify_where(relation, pred, assignments)?;
            Ok(db)
        })?;
        *self = updated;
        Ok(())
    }

    fn apply_condition(&mut self, constraints: &[ws_relational::Dependency]) -> Result<f64> {
        // One pass: decide each world's fate and accumulate the surviving
        // mass together (FD satisfaction is quadratic in a world's rows, so
        // re-checking inside a second filtering pass would double the
        // dominant cost of conditioning the explicit representation).
        let total = self.total_probability();
        let mut surviving: Vec<(Database, f64)> = Vec::with_capacity(self.worlds.len());
        let mut mass = 0.0;
        for (db, p) in &self.worlds {
            let mut satisfied = true;
            for dep in constraints {
                match ws_relational::world_satisfies(db, dep) {
                    Ok(true) => {}
                    Ok(false) => {
                        satisfied = false;
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if satisfied {
                surviving.push((db.clone(), *p));
                mass += p;
            }
        }
        if surviving.is_empty() || mass <= 0.0 {
            return Err(WsError::Inconsistent);
        }
        for (_, p) in surviving.iter_mut() {
            *p /= mass;
        }
        *self = WorldSet::from_weighted_worlds(surviving);
        Ok(if total > 0.0 { mass / total } else { 0.0 })
    }
}

/// A world-set relation: the explicit inlined encoding of a world-set.
#[derive(Clone, Debug)]
pub struct WorldSetRelation {
    /// Column identities `R.t.A` (the schema of the world-set relation).
    pub columns: Vec<FieldId>,
    /// One row per world, with the world's probability.
    pub rows: Vec<(Tuple, f64)>,
    /// The attribute lists of the encoded relations, by name.
    pub relation_attrs: BTreeMap<String, Vec<Arc<str>>>,
}

impl WorldSetRelation {
    /// The `inline` encoding of a world-set (§3).
    ///
    /// Tuples of a relation are concatenated in their stored order and padded
    /// with `t⊥` tuples up to `|R|max`.  All worlds must share the same
    /// relation names and schemas.
    pub fn from_world_set(ws: &WorldSet) -> Result<Self> {
        if ws.is_empty() {
            return Err(WsError::invalid(
                "cannot inline an empty world-set (no schema to derive)",
            ));
        }
        let max_cards = ws.max_cardinalities();
        // Derive the per-relation attribute lists from the first world.
        let first = &ws.worlds()[0].0;
        let mut relation_attrs: BTreeMap<String, Vec<Arc<str>>> = BTreeMap::new();
        for (name, rel) in first.iter() {
            relation_attrs.insert(name.to_string(), rel.schema().attrs().to_vec());
        }
        let mut columns = Vec::new();
        for (name, attrs) in &relation_attrs {
            let count = *max_cards.get(name).unwrap_or(&0);
            for t in 0..count {
                for a in attrs {
                    columns.push(FieldId::from_parts(
                        Arc::from(name.as_str()),
                        TupleId(t),
                        a.clone(),
                    ));
                }
            }
        }
        let mut rows = Vec::with_capacity(ws.len());
        for (db, p) in ws.worlds() {
            let mut values = Vec::with_capacity(columns.len());
            for (name, attrs) in &relation_attrs {
                let rel = db.relation(name)?;
                if rel.schema().attrs() != attrs.as_slice() {
                    return Err(WsError::invalid(format!(
                        "worlds disagree on the schema of `{name}`"
                    )));
                }
                let count = *max_cards.get(name).unwrap_or(&0);
                for t in 0..count {
                    match rel.rows().get(t) {
                        Some(tuple) => values.extend(tuple.values().iter().cloned()),
                        None => values.extend(std::iter::repeat(Value::Bottom).take(attrs.len())),
                    }
                }
            }
            rows.push((Tuple::new(values), *p));
        }
        Ok(WorldSetRelation {
            columns,
            rows,
            relation_attrs,
        })
    }

    /// Number of worlds (rows).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the world-set relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The arity of the world-set relation (total number of fields).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The `inline⁻¹` decoding (§3): rebuild the world-set.
    pub fn to_world_set(&self) -> Result<WorldSet> {
        let mut worlds = Vec::with_capacity(self.rows.len());
        for (row, p) in &self.rows {
            worlds.push((self.decode_world(row)?, *p));
        }
        Ok(WorldSet::from_weighted_worlds(worlds))
    }

    /// Decode a single inlined row into a database, dropping `t⊥` tuples.
    pub fn decode_world(&self, row: &Tuple) -> Result<Database> {
        let mut db = Database::new();
        for (name, attrs) in &self.relation_attrs {
            let schema = Schema::from_parts(Arc::from(name.as_str()), attrs.clone());
            let mut rel = Relation::new(schema);
            // Collect the per-tuple values from this relation's columns.
            let mut per_tuple: BTreeMap<usize, Vec<Value>> = BTreeMap::new();
            for (pos, col) in self.columns.iter().enumerate() {
                if col.in_relation(name) {
                    per_tuple
                        .entry(col.tuple.0)
                        .or_default()
                        .push(row[pos].clone());
                }
            }
            for (_, values) in per_tuple {
                let tuple = Tuple::new(values);
                if !tuple.has_bottom() && !rel.contains(&tuple) {
                    rel.push(tuple)?;
                }
            }
            db.insert_relation(rel);
        }
        Ok(db)
    }

    /// View the world-set relation as a trivial 1-WSD: a single component
    /// over every field, with one local world per world (Proposition 1).
    pub fn to_1wsd(&self) -> Result<Wsd> {
        let mut wsd = Wsd::new();
        let max_per_rel: BTreeMap<&str, usize> = self
            .columns
            .iter()
            .map(|c| (c.relation.as_ref(), c.tuple.0 + 1))
            .fold(BTreeMap::new(), |mut m, (r, t)| {
                let e = m.entry(r).or_default();
                *e = (*e).max(t);
                m
            });
        for (name, attrs) in &self.relation_attrs {
            let attr_names: Vec<&str> = attrs.iter().map(|a| a.as_ref()).collect();
            wsd.register_relation(
                name,
                &attr_names,
                *max_per_rel.get(name.as_str()).unwrap_or(&0),
            )?;
        }
        let mut comp = Component::new(self.columns.clone());
        for (row, p) in &self.rows {
            comp.push_row(row.values().to_vec(), *p)?;
        }
        wsd.add_component(comp)?;
        Ok(wsd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wsd::example_census_wsd;

    fn small_world(values: &[(i64, i64)]) -> Database {
        let mut rel = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        for (a, b) in values {
            rel.push_values([*a, *b]).unwrap();
        }
        let mut db = Database::new();
        db.insert_relation(rel);
        db
    }

    #[test]
    fn world_set_merging_and_probabilities() {
        let w1 = small_world(&[(1, 2)]);
        let w2 = small_world(&[(1, 2)]);
        let w3 = small_world(&[(3, 4)]);
        let ws = WorldSet::from_weighted_worlds(vec![(w1, 0.25), (w2, 0.25), (w3, 0.5)]);
        assert_eq!(ws.len(), 2);
        assert!((ws.total_probability() - 1.0).abs() < 1e-9);
        assert!((ws.probability_of(&small_world(&[(1, 2)])) - 0.5).abs() < 1e-9);
        assert!(ws.contains(&small_world(&[(3, 4)])));
        assert!(!ws.contains(&small_world(&[(9, 9)])));
        assert!(!ws.is_empty());
    }

    #[test]
    fn uniform_world_set_and_push() {
        let mut ws = WorldSet::from_worlds(vec![small_world(&[(1, 1)]), small_world(&[(2, 2)])]);
        assert!((ws.probability_of(&small_world(&[(1, 1)])) - 0.5).abs() < 1e-9);
        ws.push(small_world(&[(1, 1)]), 0.5);
        assert_eq!(ws.len(), 2);
        assert!((ws.probability_of(&small_world(&[(1, 1)])) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn filter_worlds_conditions_and_detects_inconsistency() {
        let ws = WorldSet::from_weighted_worlds(vec![
            (small_world(&[(1, 2)]), 0.3),
            (small_world(&[(3, 4)]), 0.7),
        ]);
        let filtered = ws
            .filter_worlds(|db| {
                db.relation("R")
                    .unwrap()
                    .contains(&Tuple::from_iter([3i64, 4]))
            })
            .unwrap();
        assert_eq!(filtered.len(), 1);
        assert!((filtered.total_probability() - 1.0).abs() < 1e-9);
        assert!(ws.filter_worlds(|_| false).is_err());
    }

    #[test]
    fn map_worlds_preserves_probabilities() {
        let ws = WorldSet::from_weighted_worlds(vec![
            (small_world(&[(1, 2)]), 0.3),
            (small_world(&[(3, 4)]), 0.7),
        ]);
        let mapped = ws
            .map_worlds(|db| {
                let mut db = db.clone();
                db.remove_relation("R");
                Ok(db)
            })
            .unwrap();
        // Both worlds become the empty database and merge.
        assert_eq!(mapped.len(), 1);
        assert!((mapped.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inline_round_trip_on_equal_sized_worlds() {
        let wsd = example_census_wsd();
        let ws = wsd.rep().unwrap();
        let wsr = WorldSetRelation::from_world_set(&ws).unwrap();
        assert_eq!(wsr.len(), ws.len());
        assert_eq!(wsr.arity(), 6); // 2 tuples × 3 attributes
        let back = wsr.to_world_set().unwrap();
        assert!(ws.same_worlds(&back));
        assert!(ws.same_distribution(&back, 1e-9));
    }

    #[test]
    fn inline_round_trip_on_worlds_of_different_sizes() {
        // One world has two tuples, the other a single tuple (Fig. 15 style).
        let ws = WorldSet::from_weighted_worlds(vec![
            (small_world(&[(1, 2), (3, 4)]), 0.5),
            (small_world(&[(5, 6)]), 0.5),
        ]);
        let wsr = WorldSetRelation::from_world_set(&ws).unwrap();
        assert_eq!(wsr.arity(), 4);
        // Padding of the smaller world uses ⊥.
        assert!(wsr.rows.iter().any(|(row, _)| row.has_bottom()));
        let back = wsr.to_world_set().unwrap();
        assert!(ws.same_worlds(&back));
        assert_eq!(ws.max_cardinalities().get("R"), Some(&2));
    }

    #[test]
    fn one_wsd_represents_the_same_world_set() {
        let wsd = example_census_wsd();
        let ws = wsd.rep().unwrap();
        let wsr = WorldSetRelation::from_world_set(&ws).unwrap();
        let one = wsr.to_1wsd().unwrap();
        one.validate().unwrap();
        assert_eq!(one.component_count(), 1);
        let back = one.rep().unwrap();
        assert!(ws.same_worlds(&back));
        assert!(ws.same_distribution(&back, 1e-9));
    }

    #[test]
    fn empty_world_set_cannot_be_inlined() {
        assert!(WorldSetRelation::from_world_set(&WorldSet::new()).is_err());
    }
}
