//! The lineage vocabulary: finite-domain world variables, conjunctive
//! clauses, DNFs and lineage-annotated relations.
//!
//! Every possible-worlds representation of this repository decomposes its
//! uncertainty into *independent finite-domain choices*: a WSD component
//! picks one of its local worlds, a UWSDT component picks one `Lwid`, an
//! explicit `WorldSet` picks one world.  A [`Var`] is one such choice; a
//! [`VarTable`] holds one probability distribution per variable.  A
//! [`Clause`] is a consistent partial assignment `x₁ = c₁ ∧ … ∧ xₖ = cₖ`,
//! and a [`Dnf`] (disjunction of clauses) is the lineage of one output
//! tuple: the tuple exists in a world iff some clause is satisfied by the
//! world's choices.
//!
//! This is also the U-relational model itself (Antova–Jansen–Koch–Olteanu,
//! ICDE 2008): a U-relation is a [`LineageRelation`], its world table is a
//! [`VarTable`] and its ws-descriptors are [`Clause`]s.  `ws_urel` keeps its
//! databases in exactly these types, so the other backends' lineage views
//! are translations into U-relations and the U-relational one is the
//! database itself.

use crate::error::{RelationalError, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Index of a world variable in a [`VarTable`].
pub type Var = u32;

/// A disjunction of clauses: one output tuple's lineage.
pub type Dnf = Vec<Clause>;

/// The probability distributions of a set of independent finite-domain
/// world variables.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VarTable {
    /// `dists[v][c]` = probability that variable `v` takes choice `c`.
    dists: Vec<Vec<f64>>,
    /// Diagnostic name per variable (component id, world-table name, …).
    names: Vec<String>,
}

impl VarTable {
    /// An empty table (certain database: no uncertainty at all).
    pub fn new() -> Self {
        VarTable::default()
    }

    /// Register a variable with the given choice distribution.  The
    /// distribution must be non-empty, each probability must lie in
    /// `[0, 1]`, and the probabilities must sum to 1 (within `1e-6`).
    pub fn add_var(&mut self, name: impl Into<String>, dist: Vec<f64>) -> Result<Var> {
        let name = name.into();
        if dist.is_empty() {
            return Err(RelationalError::Invalid(format!(
                "world variable `{name}` has an empty distribution"
            )));
        }
        if dist.iter().any(|&p| !(0.0..=1.0).contains(&p)) {
            return Err(RelationalError::Invalid(format!(
                "world variable `{name}` has a probability outside [0, 1]"
            )));
        }
        let total: f64 = dist.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(RelationalError::Invalid(format!(
                "world variable `{name}` distribution sums to {total}, not 1"
            )));
        }
        let var = self.dists.len() as Var;
        self.dists.push(dist);
        self.names.push(name);
        Ok(var)
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.dists.len()
    }

    /// Whether no variable is registered (a certain database).
    pub fn is_empty(&self) -> bool {
        self.dists.is_empty()
    }

    /// The distribution of one variable.
    pub fn dist(&self, var: Var) -> &[f64] {
        &self.dists[var as usize]
    }

    /// The diagnostic name of one variable.
    pub fn name(&self, var: Var) -> &str {
        &self.names[var as usize]
    }

    /// The domain size of one variable.
    pub fn domain_size(&self, var: Var) -> usize {
        self.dists[var as usize].len()
    }

    /// `P(var = choice)`.
    pub fn prob(&self, var: Var, choice: u32) -> f64 {
        self.dists[var as usize][choice as usize]
    }

    /// The variable registered under `name`, if any (the first one when
    /// names repeat).
    pub fn lookup(&self, name: &str) -> Option<Var> {
        self.names.iter().position(|n| n == name).map(|v| v as Var)
    }
}

/// A conjunction of variable bindings `x₁ = c₁ ∧ … ∧ xₖ = cₖ`, kept sorted
/// by variable with at most one binding per variable.
///
/// The empty clause is the constant **true** (a certain derivation).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clause {
    atoms: Vec<(Var, u32)>,
}

impl Clause {
    /// The always-true clause (no bindings).
    pub fn empty() -> Self {
        Clause::default()
    }

    /// A single binding `var = choice`.
    pub fn of(var: Var, choice: u32) -> Self {
        Clause {
            atoms: vec![(var, choice)],
        }
    }

    /// Build a clause from bindings; returns `None` when the same variable
    /// is bound to two different choices (inconsistent conjunction).
    pub fn from_bindings(bindings: impl IntoIterator<Item = (Var, u32)>) -> Option<Self> {
        let mut clause = Clause::empty();
        for (var, choice) in bindings {
            clause = clause.conjoin(&Clause::of(var, choice))?;
        }
        Some(clause)
    }

    /// The bindings, sorted by variable.
    pub fn atoms(&self) -> &[(Var, u32)] {
        &self.atoms
    }

    /// Whether this is the always-true clause.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The variables bound by this clause, ascending.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.atoms.iter().map(|&(v, _)| v)
    }

    /// The choice this clause binds `var` to, if any.
    pub fn binding(&self, var: Var) -> Option<u32> {
        self.atoms
            .binary_search_by_key(&var, |&(v, _)| v)
            .ok()
            .map(|i| self.atoms[i].1)
    }

    /// Conjoin two clauses; `None` when they bind a shared variable to
    /// different choices (the combined derivation is impossible).
    pub fn conjoin(&self, other: &Clause) -> Option<Clause> {
        let mut atoms = Vec::with_capacity(self.atoms.len() + other.atoms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.atoms.len() && j < other.atoms.len() {
            let (lv, lc) = self.atoms[i];
            let (rv, rc) = other.atoms[j];
            match lv.cmp(&rv) {
                std::cmp::Ordering::Less => {
                    atoms.push((lv, lc));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    atoms.push((rv, rc));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    if lc != rc {
                        return None;
                    }
                    atoms.push((lv, lc));
                    i += 1;
                    j += 1;
                }
            }
        }
        atoms.extend_from_slice(&self.atoms[i..]);
        atoms.extend_from_slice(&other.atoms[j..]);
        Some(Clause { atoms })
    }

    /// Whether two clauses bind some shared variable to different choices
    /// (they can never hold in the same world).
    pub fn conflicts(&self, other: &Clause) -> bool {
        self.conjoin(other).is_none()
    }

    /// Whether the clauses bind no variable in common.
    pub fn var_disjoint(&self, other: &Clause) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.atoms.len() && j < other.atoms.len() {
            match self.atoms[i].0.cmp(&other.atoms[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return false,
            }
        }
        true
    }

    /// Whether every world satisfying `other` satisfies `self` too: `self`'s
    /// bindings are a subset of `other`'s (absorption: `x=1` subsumes
    /// `x=1 ∧ y=0`).
    fn subsumes(&self, other: &Clause) -> bool {
        self.atoms.iter().all(|&(v, c)| other.binding(v) == Some(c))
    }

    /// The probability of the clause under independent variables: the
    /// product of its atom probabilities.
    pub fn probability(&self, vars: &VarTable) -> f64 {
        self.atoms.iter().map(|&(v, c)| vars.prob(v, c)).product()
    }
}

/// One base relation annotated with lineage: each row carries the clause
/// under which it exists.
#[derive(Clone, Debug, PartialEq)]
pub struct LineageRelation {
    schema: Schema,
    rows: Vec<(Tuple, Clause)>,
}

impl LineageRelation {
    /// An empty annotated relation.
    pub fn new(schema: Schema) -> Self {
        LineageRelation {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append a row existing under `clause`.
    pub fn push(&mut self, tuple: Tuple, clause: Clause) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: self.schema.relation().to_string(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        self.rows.push((tuple, clause));
        Ok(())
    }

    /// The annotated rows, in insertion order.
    pub fn rows(&self) -> &[(Tuple, Clause)] {
        &self.rows
    }

    /// Mutable access to the annotated rows (the caller keeps every tuple's
    /// arity equal to the schema's).
    pub fn rows_mut(&mut self) -> &mut Vec<(Tuple, Clause)> {
        &mut self.rows
    }

    /// The same rows under `schema`, which has the schema's arity.
    pub(crate) fn with_schema(mut self, schema: Schema) -> Self {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        self.schema = schema;
        self
    }

    /// Remove redundant rows: exact duplicates, and rows whose clause is
    /// subsumed by another clause of the same tuple (`t@x=1` makes
    /// `t@x=1 ∧ y=0` redundant).  Neither changes any tuple's lineage.
    /// Survivors keep their relative order.
    pub fn absorb(&mut self) {
        let mut kept: Vec<Option<(Tuple, Clause)>> = Vec::with_capacity(self.rows.len());
        // Indices into `kept` of each tuple's surviving rows.
        let mut by_tuple: HashMap<Tuple, Vec<usize>> = HashMap::new();
        for (tuple, clause) in self.rows.drain(..) {
            let group = by_tuple.entry(tuple.clone()).or_default();
            if group
                .iter()
                .any(|&i| matches!(&kept[i], Some((_, k)) if k.subsumes(&clause)))
            {
                continue;
            }
            // Equal clauses were caught above, so every kept clause the new
            // one subsumes is strictly less general: drop it.
            group.retain(|&i| {
                let absorbed = matches!(&kept[i], Some((_, k)) if clause.subsumes(k));
                if absorbed {
                    kept[i] = None;
                }
                !absorbed
            });
            group.push(kept.len());
            kept.push(Some((tuple, clause)));
        }
        self.rows = kept.into_iter().flatten().collect();
    }

    /// Number of annotated rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A plain relation of the possible tuples (deduplicated, in `Tuple`
    /// order), dropping the annotations.
    pub fn possible(&self) -> Result<Relation> {
        let possible: BTreeSet<&Tuple> = self.rows.iter().map(|(tuple, _)| tuple).collect();
        let mut out = Relation::new(self.schema.clone());
        for tuple in possible {
            out.push(tuple.clone())?;
        }
        Ok(out)
    }
}

/// A lineage view of a set of base relations: the variable distributions
/// plus one annotated relation per base table.  This is the common shape
/// every backend's uncertainty is translated into before the tiered
/// confidence evaluators run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LineageDb {
    vars: VarTable,
    relations: BTreeMap<String, LineageRelation>,
}

impl LineageDb {
    /// An empty lineage database.
    pub fn new(vars: VarTable) -> Self {
        LineageDb {
            vars,
            relations: BTreeMap::new(),
        }
    }

    /// The variable table.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Mutable access to the variable table (registering variables).
    pub fn vars_mut(&mut self) -> &mut VarTable {
        &mut self.vars
    }

    /// Retire the `retired` variables (conditioning merges them into one
    /// composite variable) and renumber the rest, remapping every clause.
    /// The caller has already rewritten every clause that bound a retired
    /// variable.
    pub fn retire_vars(&mut self, retired: &BTreeSet<Var>) {
        let vars = std::mem::take(&mut self.vars);
        let mut remap: Vec<Option<Var>> = Vec::with_capacity(vars.len());
        for (var, (dist, name)) in vars.dists.into_iter().zip(vars.names).enumerate() {
            if retired.contains(&(var as Var)) {
                remap.push(None);
            } else {
                remap.push(Some(self.vars.len() as Var));
                self.vars.dists.push(dist);
                self.vars.names.push(name);
            }
        }
        for relation in self.relations.values_mut() {
            for (_, clause) in &mut relation.rows {
                for atom in &mut clause.atoms {
                    atom.0 = remap[atom.0 as usize].expect("no clause binds a retired variable");
                }
            }
        }
    }

    /// Insert an annotated relation under its schema name.
    pub fn insert_relation(&mut self, relation: LineageRelation) {
        self.relations
            .insert(relation.schema().relation().to_string(), relation);
    }

    /// Look up an annotated relation.
    pub fn relation(&self, name: &str) -> Result<&LineageRelation> {
        self.relations
            .get(name)
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_string()))
    }

    /// Mutable access to an annotated relation.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut LineageRelation> {
        self.relations
            .get_mut(name)
            .ok_or_else(|| RelationalError::UnknownRelation(name.to_string()))
    }

    /// Every annotated relation, mutably, in name order.
    pub fn relations_mut(&mut self) -> impl Iterator<Item = &mut LineageRelation> {
        self.relations.values_mut()
    }

    /// Remove an annotated relation, returning it if present.
    pub fn remove_relation(&mut self, name: &str) -> Option<LineageRelation> {
        self.relations.remove(name)
    }

    /// The registered relation names, sorted.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_table_validates_distributions() {
        let mut vars = VarTable::new();
        assert!(vars.add_var("empty", vec![]).is_err());
        assert!(vars.add_var("neg", vec![-0.1, 1.1]).is_err());
        assert!(vars.add_var("short", vec![0.25, 0.25]).is_err());
        let v = vars.add_var("ok", vec![0.25, 0.75]).unwrap();
        assert_eq!(vars.domain_size(v), 2);
        assert_eq!(vars.prob(v, 1), 0.75);
        assert_eq!(vars.name(v), "ok");
        assert_eq!(vars.len(), 1);
        assert!(!vars.is_empty());
    }

    #[test]
    fn clause_conjoin_merge_and_conflict() {
        let a = Clause::from_bindings([(0, 1), (2, 0)]).unwrap();
        let b = Clause::from_bindings([(1, 3), (2, 0)]).unwrap();
        let ab = a.conjoin(&b).unwrap();
        assert_eq!(ab.atoms(), &[(0, 1), (1, 3), (2, 0)]);
        let c = Clause::of(2, 1);
        assert!(a.conflicts(&c));
        assert!(a.conjoin(&c).is_none());
        assert!(Clause::from_bindings([(0, 1), (0, 2)]).is_none());
        assert!(a.var_disjoint(&Clause::of(5, 0)));
        assert!(!a.var_disjoint(&b));
        assert_eq!(a.binding(2), Some(0));
        assert_eq!(a.binding(1), None);
        // The empty clause is true and conjoins with anything.
        assert_eq!(Clause::empty().conjoin(&a).unwrap(), a);
    }

    #[test]
    fn clause_probability_is_the_atom_product() {
        let mut vars = VarTable::new();
        let x = vars.add_var("x", vec![0.5, 0.5]).unwrap();
        let y = vars.add_var("y", vec![0.25, 0.75]).unwrap();
        let c = Clause::from_bindings([(x, 0), (y, 1)]).unwrap();
        assert_eq!(c.probability(&vars), 0.375);
        assert_eq!(Clause::empty().probability(&vars), 1.0);
    }

    #[test]
    fn var_lookup_and_retirement_renumber_clauses() {
        let mut vars = VarTable::new();
        for name in ["a", "b", "c", "d"] {
            vars.add_var(name, vec![0.5, 0.5]).unwrap();
        }
        assert_eq!(vars.lookup("c"), Some(2));
        assert_eq!(vars.lookup("z"), None);
        let mut db = LineageDb::new(vars);
        let mut rel = LineageRelation::new(Schema::new("R", &["A"]).unwrap());
        rel.push(
            Tuple::from_iter([1i64]),
            Clause::from_bindings([(0, 1), (3, 0)]).unwrap(),
        )
        .unwrap();
        rel.push(Tuple::from_iter([2i64]), Clause::of(2, 1))
            .unwrap();
        db.insert_relation(rel);
        db.retire_vars(&BTreeSet::from([1]));
        assert_eq!(db.vars().len(), 3);
        assert_eq!(db.vars().lookup("d"), Some(2));
        assert_eq!(db.vars().lookup("b"), None);
        let rows = db.relation("R").unwrap().rows();
        assert_eq!(rows[0].1.atoms(), &[(0, 1), (2, 0)]);
        assert_eq!(rows[1].1.atoms(), &[(1, 1)]);
    }

    #[test]
    fn absorb_keeps_the_most_general_clause_per_tuple() {
        let general = Clause::of(0, 1);
        let specific = Clause::from_bindings([(0, 1), (1, 0)]).unwrap();
        assert!(general.subsumes(&specific));
        assert!(!specific.subsumes(&general));
        assert!(Clause::empty().subsumes(&general));
        let mut rel = LineageRelation::new(Schema::new("R", &["A"]).unwrap());
        let one = Tuple::from_iter([1i64]);
        let two = Tuple::from_iter([2i64]);
        rel.push(one.clone(), specific.clone()).unwrap();
        rel.push(two.clone(), specific.clone()).unwrap();
        rel.push(one.clone(), general.clone()).unwrap();
        rel.push(one.clone(), general.clone()).unwrap();
        rel.push(one.clone(), Clause::of(1, 1)).unwrap();
        rel.absorb();
        // Tuple 1's specific row and the duplicate go; tuple 2 keeps its own.
        assert_eq!(
            rel.rows(),
            &[
                (two, specific),
                (one.clone(), general),
                (one, Clause::of(1, 1))
            ]
        );
    }

    #[test]
    fn lineage_relation_checks_arity_and_dedups_possible() {
        let schema = Schema::new("R", &["A"]).unwrap();
        let mut rel = LineageRelation::new(schema);
        rel.push(Tuple::from_iter([1i64]), Clause::of(0, 0))
            .unwrap();
        rel.push(Tuple::from_iter([1i64]), Clause::of(0, 1))
            .unwrap();
        rel.push(Tuple::from_iter([2i64]), Clause::empty()).unwrap();
        assert!(rel
            .push(Tuple::from_iter([1i64, 2i64]), Clause::empty())
            .is_err());
        assert_eq!(rel.len(), 3);
        assert_eq!(rel.possible().unwrap().len(), 2);

        let mut db = LineageDb::new(VarTable::new());
        db.insert_relation(rel);
        assert!(db.relation("R").is_ok());
        assert!(db.relation("S").is_err());
        assert_eq!(db.relation_names().collect::<Vec<_>>(), vec!["R"]);
    }
}
