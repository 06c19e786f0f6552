//! The U-database: one variable table (the world table) plus a catalog of
//! U-relations, kept as a [`LineageDb`].

use std::collections::BTreeSet;

use ws_relational::lineage::{LineageDb, LineageRelation, Var, VarTable};
use ws_relational::{Database, Relation};

use crate::error::{Result, UrelError};

/// A complete U-relational database: the shared [`VarTable`] and the named
/// [`LineageRelation`]s whose clauses (ws-descriptors) bind its variables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UDatabase {
    lineage: LineageDb,
}

impl UDatabase {
    /// An empty U-database (one world, no relations).
    pub fn new() -> Self {
        UDatabase::default()
    }

    /// A U-database over an existing lineage database.
    pub fn from_lineage(lineage: LineageDb) -> Self {
        UDatabase { lineage }
    }

    /// The database as lineage: what the evaluator and the confidence tiers
    /// read.
    pub fn as_lineage(&self) -> &LineageDb {
        &self.lineage
    }

    /// Mutable access to the lineage database (the update verbs).
    pub(crate) fn lineage_mut(&mut self) -> &mut LineageDb {
        &mut self.lineage
    }

    /// The world table.
    pub fn vars(&self) -> &VarTable {
        self.lineage.vars()
    }

    /// Mutable access to the world table (for declaring variables).
    pub fn vars_mut(&mut self) -> &mut VarTable {
        self.lineage.vars_mut()
    }

    /// Insert (or replace) a U-relation under the name of its schema.
    pub fn insert_relation(&mut self, relation: LineageRelation) {
        self.lineage.insert_relation(relation);
    }

    /// Look up a relation by name.
    pub fn relation(&self, name: &str) -> Result<&LineageRelation> {
        self.lineage
            .relation(name)
            .map_err(|_| UrelError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to a relation (used by the update verbs).
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut LineageRelation> {
        self.lineage
            .relation_mut(name)
            .map_err(|_| UrelError::UnknownRelation(name.to_string()))
    }

    /// Whether a relation is present.
    pub fn contains_relation(&self, name: &str) -> bool {
        self.lineage.relation(name).is_ok()
    }

    /// Remove a relation, returning it if present.
    pub fn remove_relation(&mut self, name: &str) -> Option<LineageRelation> {
        self.lineage.remove_relation(name)
    }

    /// The names of all relations, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.lineage.relation_names().collect()
    }

    /// Total number of annotated rows across all relations — the
    /// representation size the blow-up comparisons report.
    pub fn total_rows(&self) -> usize {
        self.lineage
            .relation_names()
            .filter_map(|name| self.lineage.relation(name).ok())
            .map(LineageRelation::len)
            .sum()
    }

    /// Validate that every clause binds only declared variables to
    /// in-range choices.
    pub fn validate(&self) -> Result<()> {
        let vars = self.vars();
        for name in self.lineage.relation_names() {
            for (_, clause) in self.lineage.relation(name)?.rows() {
                for &(var, choice) in clause.atoms() {
                    if var as usize >= vars.len() {
                        return Err(UrelError::invalid(format!(
                            "a clause of `{name}` binds undeclared variable {var}"
                        )));
                    }
                    let size = vars.domain_size(var);
                    if choice as usize >= size {
                        return Err(UrelError::invalid(format!(
                            "a clause of `{name}` binds `{}` to {choice}, outside its domain of size {size}",
                            vars.name(var)
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of represented worlds: the number of total assignments of the
    /// world table (saturating).
    pub fn world_count(&self) -> u128 {
        let vars = self.vars();
        (0..vars.len() as Var).fold(1u128, |acc, v| {
            acc.saturating_mul(vars.domain_size(v) as u128)
        })
    }

    /// Enumerate every world with its probability (testing / oracle use).
    /// Fails when more than `limit` worlds would be produced.
    pub fn enumerate_worlds(&self, limit: u128) -> Result<Vec<(Database, f64)>> {
        let count = self.world_count();
        if count > limit {
            return Err(UrelError::invalid(format!(
                "{count} worlds exceed the enumeration limit {limit}"
            )));
        }
        let vars = self.vars();
        let mut choice = vec![0u32; vars.len()];
        let mut out = Vec::with_capacity(count as usize);
        loop {
            let p: f64 = choice
                .iter()
                .enumerate()
                .map(|(v, &c)| vars.prob(v as Var, c))
                .product();
            let mut world = Database::new();
            for name in self.lineage.relation_names() {
                let rel = self.lineage.relation(name)?;
                let mut instance = Relation::new(rel.schema().clone());
                let mut seen = BTreeSet::new();
                for (tuple, clause) in rel.rows() {
                    let holds = clause.atoms().iter().all(|&(v, c)| choice[v as usize] == c);
                    if holds && seen.insert(tuple) {
                        instance.push(tuple.clone())?;
                    }
                }
                world.insert_relation(instance);
            }
            out.push((world, p));
            // Advance the odometer (last variable fastest).
            let mut pos = choice.len();
            loop {
                if pos == 0 {
                    return Ok(out);
                }
                pos -= 1;
                choice[pos] += 1;
                if (choice[pos] as usize) < vars.domain_size(pos as Var) {
                    break;
                }
                choice[pos] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_relational::lineage::Clause;
    use ws_relational::{Schema, Tuple, Value};

    fn sample() -> UDatabase {
        let mut db = UDatabase::new();
        let x = db.vars_mut().add_var("x", vec![0.3, 0.7]).unwrap();
        let mut r = LineageRelation::new(Schema::new("R", &["A"]).unwrap());
        r.push(Tuple::from_iter([Value::int(1)]), Clause::of(x, 0))
            .unwrap();
        r.push(Tuple::from_iter([Value::int(2)]), Clause::of(x, 1))
            .unwrap();
        r.push(Tuple::from_iter([Value::int(3)]), Clause::empty())
            .unwrap();
        db.insert_relation(r);
        db
    }

    #[test]
    fn catalog_management() {
        let mut db = sample();
        assert_eq!(db.relation_names(), vec!["R"]);
        assert!(db.contains_relation("R"));
        assert!(db.relation("R").is_ok());
        assert!(matches!(
            db.relation("S"),
            Err(UrelError::UnknownRelation(_))
        ));
        assert_eq!(db.total_rows(), 3);
        assert!(db.remove_relation("R").is_some());
        assert!(db.remove_relation("R").is_none());
        assert!(db.relation_names().is_empty());
    }

    #[test]
    fn validation_catches_out_of_range_clauses() {
        let mut db = sample();
        assert!(db.validate().is_ok());
        let mut bad = LineageRelation::new(Schema::new("S", &["B"]).unwrap());
        bad.push(Tuple::from_iter([Value::int(9)]), Clause::of(0, 5))
            .unwrap();
        db.insert_relation(bad);
        assert!(db.validate().is_err());
        let mut unknown = LineageRelation::new(Schema::new("S", &["B"]).unwrap());
        unknown
            .push(Tuple::from_iter([Value::int(9)]), Clause::of(7, 0))
            .unwrap();
        db.insert_relation(unknown);
        assert!(db.validate().is_err());
    }

    #[test]
    fn enumeration_matches_the_clause_semantics() {
        let db = sample();
        assert_eq!(db.world_count(), 2);
        assert!(db.enumerate_worlds(1).is_err());
        let worlds = db.enumerate_worlds(16).unwrap();
        assert_eq!(worlds.len(), 2);
        let total: f64 = worlds.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // World x=0 contains tuples 1 and 3; world x=1 contains 2 and 3.
        for (world, _) in &worlds {
            let r = world.relation("R").unwrap();
            assert_eq!(r.len(), 2);
            assert!(r.contains(&Tuple::from_iter([Value::int(3)])));
        }
    }
}
