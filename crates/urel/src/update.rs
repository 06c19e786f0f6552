//! The update language on U-relations: the [`WriteBackend`] implementation.
//!
//! U-relations make the *data* half of updates purely relational — every row
//! carries concrete values, so deletes and modifications are ordinary row
//! edits whose world-scope is already recorded in the row's descriptor.  The
//! intensional work is concentrated in two places:
//!
//! * **possible inserts** declare a fresh independent world-table variable
//!   `z ~ (1 − p, p)` and annotate the inserted tuple with the clause
//!   `z = 1`;
//! * **conditioning** rewrites the world table itself.  A violation of a
//!   constraint is witnessed by a *clause* — the conjunction of the
//!   descriptors of the offending tuples — and the worlds to eliminate are
//!   the disjunction (DNF) of all clauses.  Since the world table can only
//!   hold independent variables, the variables mentioned by the DNF are
//!   merged into one composite variable whose domain enumerates the
//!   *surviving* joint assignments (renormalized by the surviving mass
//!   `P(ψ)`), every clause binding one of the merged variables is expanded
//!   into one row per consistent surviving assignment, and the merged
//!   variables are retired — the DNF-to-composite-variable rewrite.

use crate::convert::{combo_count, decode_choice};
use crate::database::UDatabase;
use crate::error::{Result, UrelError};
use std::collections::BTreeSet;
use ws_relational::engine::{check_assignments, check_insertable, check_probability};
use ws_relational::lineage::{Clause, Var};
use ws_relational::{Dependency, Predicate, Tuple, Value, WriteBackend};

/// Cap on the joint assignments enumerated while conditioning; beyond this
/// the exact rewrite is refused (mirroring exact confidence computation).
pub const CONDITION_ASSIGNMENT_LIMIT: usize = 1 << 20;

/// A fresh world-table variable name with the given prefix.
fn fresh_variable(db: &UDatabase, prefix: &str) -> String {
    (0..)
        .map(|n| format!("__{prefix}{n}"))
        .find(|name| db.vars().lookup(name).is_none())
        .expect("some suffix is free")
}

impl WriteBackend for UDatabase {
    fn insert_certain(&mut self, relation: &str, tuple: &Tuple) -> Result<()> {
        let rel = self.relation_mut(relation)?;
        check_insertable(rel.schema(), tuple)?;
        rel.push(tuple.clone(), Clause::empty())?;
        rel.absorb();
        Ok(())
    }

    fn insert_possible(&mut self, relation: &str, tuple: &Tuple, prob: f64) -> Result<()> {
        check_probability(prob)?;
        check_insertable(self.relation(relation)?.schema(), tuple)?;
        if prob <= 0.0 {
            return Ok(());
        }
        if prob >= 1.0 {
            return self.insert_certain(relation, tuple);
        }
        let name = fresh_variable(self, "ins");
        let var = self.vars_mut().add_var(name, vec![1.0 - prob, prob])?;
        self.relation_mut(relation)?
            .push(tuple.clone(), Clause::of(var, 1))?;
        Ok(())
    }

    fn delete_where(&mut self, relation: &str, pred: &Predicate) -> Result<()> {
        let rel = self.relation_mut(relation)?;
        let schema = rel.schema().clone();
        for a in pred.referenced_attrs() {
            schema.position_of(a)?;
        }
        // A row's values are world-independent, so a matching row is deleted
        // from every world its clause reaches: drop the row.
        let keep: Vec<bool> = rel
            .rows()
            .iter()
            .map(|(t, _)| pred.eval(&schema, t).map(|m| !m))
            .collect::<ws_relational::Result<_>>()?;
        let mut it = keep.into_iter();
        rel.rows_mut().retain(|_| it.next().unwrap_or(true));
        Ok(())
    }

    fn modify_where(
        &mut self,
        relation: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<()> {
        check_assignments(assignments)?;
        let rel = self.relation_mut(relation)?;
        let schema = rel.schema().clone();
        let positions: Vec<(usize, &Value)> = assignments
            .iter()
            .map(|(attr, value)| Ok((schema.position_of(attr)?, value)))
            .collect::<Result<_>>()?;
        let matches: Vec<bool> = rel
            .rows()
            .iter()
            .map(|(t, _)| pred.eval(&schema, t))
            .collect::<ws_relational::Result<_>>()?;
        for ((tuple, _), matched) in rel.rows_mut().iter_mut().zip(matches) {
            if matched {
                for &(pos, value) in &positions {
                    tuple.set(pos, value.clone());
                }
            }
        }
        rel.absorb();
        Ok(())
    }

    fn apply_condition(&mut self, constraints: &[Dependency]) -> Result<f64> {
        // 1. Collect the violation clauses: conjunctions whose worlds must
        //    be eliminated.
        let mut clauses: Vec<Clause> = Vec::new();
        for dep in constraints {
            match dep {
                Dependency::Egd(egd) => {
                    let rel = self.relation(&egd.relation)?;
                    let schema = rel.schema();
                    for atom in egd.body.iter().chain(std::iter::once(&egd.head)) {
                        schema.position_of(&atom.attr)?;
                    }
                    for (tuple, clause) in rel.rows() {
                        let body = egd.body.iter().all(|atom| {
                            let pos = schema.position(&atom.attr).unwrap();
                            atom.eval(&tuple[pos])
                        });
                        let head_pos = schema.position(&egd.head.attr).unwrap();
                        if body && !egd.head.eval(&tuple[head_pos]) {
                            clauses.push(clause.clone());
                        }
                    }
                }
                Dependency::Fd(fd) => {
                    let rel = self.relation(&fd.relation)?;
                    let schema = rel.schema();
                    let lhs: Vec<usize> = fd
                        .lhs
                        .iter()
                        .map(|a| schema.position_of(a))
                        .collect::<ws_relational::Result<_>>()?;
                    let rhs: Vec<usize> = fd
                        .rhs
                        .iter()
                        .map(|a| schema.position_of(a))
                        .collect::<ws_relational::Result<_>>()?;
                    let rows = rel.rows();
                    for (i, (s, cs)) in rows.iter().enumerate() {
                        for (t, ct) in &rows[i + 1..] {
                            let agree_lhs = lhs.iter().all(|&p| s[p] == t[p]);
                            let agree_rhs = rhs.iter().all(|&p| s[p] == t[p]);
                            if agree_lhs && !agree_rhs {
                                // Both tuples present together violate the
                                // FD; a conflicting conjunction means they
                                // never co-exist.
                                if let Some(both) = cs.conjoin(ct) {
                                    clauses.push(both);
                                }
                            }
                        }
                    }
                }
            }
        }
        clauses.sort();
        clauses.dedup();
        if clauses.is_empty() {
            return Ok(1.0);
        }
        if clauses.iter().any(Clause::is_empty) {
            // A violation that holds in every world: nothing survives.
            return Err(UrelError::Inconsistent);
        }

        // 2. Enumerate the joint assignments of the variables the DNF
        //    mentions and keep the ones no violation clause holds in.
        let merged: BTreeSet<Var> = clauses.iter().flat_map(Clause::vars).collect();
        let merged_list: Vec<Var> = merged.iter().copied().collect();
        let position = |v: Var| merged_list.binary_search(&v).ok();
        let radices: Vec<usize> = merged_list
            .iter()
            .map(|&v| self.vars().domain_size(v))
            .collect();
        let combos = combo_count(&radices, CONDITION_ASSIGNMENT_LIMIT).ok_or_else(|| {
            UrelError::invalid(format!(
                "conditioning needs more than {CONDITION_ASSIGNMENT_LIMIT} joint assignments"
            ))
        })?;
        let holds = |clause: &Clause, choice: &[usize]| {
            clause
                .atoms()
                .iter()
                .filter_map(|&(v, c)| position(v).map(|i| (i, c)))
                .all(|(i, c)| choice[i] == c as usize)
        };
        let mut surviving: Vec<(Vec<usize>, f64)> = Vec::new();
        let mut choice = vec![0usize; merged_list.len()];
        for code in 0..combos {
            decode_choice(code, &radices, &mut choice);
            if !clauses.iter().any(|clause| holds(clause, &choice)) {
                let p = merged_list
                    .iter()
                    .zip(&choice)
                    .map(|(&v, &c)| self.vars().prob(v, c as u32))
                    .product();
                surviving.push((choice.clone(), p));
            }
        }
        let mass: f64 = surviving.iter().map(|(_, p)| p).sum();
        if surviving.is_empty() || mass <= 0.0 {
            return Err(UrelError::Inconsistent);
        }

        // 3. Merge the involved variables into one composite variable whose
        //    domain indexes the surviving joint assignments, renormalized.
        let name = fresh_variable(self, "cond");
        let z = self
            .vars_mut()
            .add_var(name, surviving.iter().map(|(_, p)| p / mass).collect())?;

        // 4. Rewrite every clause binding a merged variable into one row per
        //    consistent surviving assignment (DNF expansion), leaving rows
        //    over untouched variables alone; then retire the merged
        //    variables.
        for rel in self.lineage_mut().relations_mut() {
            let old_rows = std::mem::take(rel.rows_mut());
            let mut rewritten = Vec::with_capacity(old_rows.len());
            for (tuple, clause) in old_rows {
                if !clause.vars().any(|v| merged.contains(&v)) {
                    rewritten.push((tuple, clause));
                    continue;
                }
                let rest: Vec<(Var, u32)> = clause
                    .atoms()
                    .iter()
                    .copied()
                    .filter(|(v, _)| !merged.contains(v))
                    .collect();
                for (k, (assignment, _)) in surviving.iter().enumerate() {
                    if holds(&clause, assignment) {
                        let bindings = rest.iter().copied().chain([(z, k as u32)]);
                        let clause = Clause::from_bindings(bindings)
                            .expect("disjoint binding sets cannot conflict");
                        rewritten.push((tuple.clone(), clause));
                    }
                }
            }
            *rel.rows_mut() = rewritten;
            rel.absorb();
        }
        self.lineage_mut().retire_vars(&merged);
        Ok(mass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::from_wsd;
    use ws_core::ops::update::{apply_update, UpdateExpr};
    use ws_core::wsd::example_census_wsd;
    use ws_core::WorldSet;
    use ws_relational::{CmpOp, EqualityGeneratingDependency, FunctionalDependency};

    fn oracle(updates: &[UpdateExpr]) -> WorldSet {
        let wsd = example_census_wsd();
        let mut worlds = WorldSet::from_weighted_worlds(wsd.enumerate_worlds(1 << 20).unwrap());
        for u in updates {
            apply_update(&mut worlds, u).unwrap();
        }
        worlds
    }

    fn updated(updates: &[UpdateExpr]) -> WorldSet {
        let mut udb = from_wsd(&example_census_wsd()).unwrap();
        for u in updates {
            apply_update(&mut udb, u).unwrap();
        }
        udb.validate().unwrap();
        WorldSet::from_weighted_worlds(udb.enumerate_worlds(1 << 20).unwrap())
    }

    fn check(updates: &[UpdateExpr]) {
        let expected = oracle(updates);
        let actual = updated(updates);
        assert!(
            expected.same_worlds(&actual) && expected.same_distribution(&actual, 1e-9),
            "U-relations disagree with the per-world oracle for {updates:?}"
        );
    }

    #[test]
    fn inserts_deletes_and_modifies_match_the_oracle() {
        check(&[UpdateExpr::insert(
            "R",
            Tuple::from_iter([Value::int(999), Value::text("New"), Value::int(1)]),
        )]);
        check(&[UpdateExpr::insert_possible(
            "R",
            Tuple::from_iter([Value::int(999), Value::text("New"), Value::int(1)]),
            0.25,
        )]);
        check(&[UpdateExpr::delete("R", Predicate::eq_const("M", 1i64))]);
        check(&[UpdateExpr::modify(
            "R",
            Predicate::eq_const("S", 785i64),
            vec![("M".to_string(), Value::int(1))],
        )]);
        check(&[
            UpdateExpr::insert_possible(
                "R",
                Tuple::from_iter([Value::int(500), Value::text("Maybe"), Value::int(3)]),
                0.5,
            ),
            UpdateExpr::modify(
                "R",
                Predicate::cmp_const("M", CmpOp::Ge, 3i64),
                vec![("M".to_string(), Value::int(0))],
            ),
            UpdateExpr::delete("R", Predicate::eq_const("M", 0i64)),
        ]);
    }

    #[test]
    fn egd_conditioning_rewrites_the_world_table() {
        let dep = Dependency::Egd(EqualityGeneratingDependency::implies(
            "R",
            "S",
            785i64,
            "M",
            CmpOp::Eq,
            1i64,
        ));
        let mut udb = from_wsd(&example_census_wsd()).unwrap();
        let mass = apply_update(&mut udb, &UpdateExpr::condition(vec![dep.clone()])).unwrap();
        udb.validate().unwrap();
        // Oracle mass + distribution.
        let worlds = example_census_wsd().enumerate_worlds(1 << 20).unwrap();
        let surviving: Vec<_> = worlds
            .into_iter()
            .filter(|(db, _)| ws_relational::world_satisfies(db, &dep).unwrap())
            .collect();
        let expected_mass: f64 = surviving.iter().map(|(_, p)| p).sum();
        assert!((mass - expected_mass).abs() < 1e-9);
        let expected = WorldSet::from_weighted_worlds(
            surviving
                .into_iter()
                .map(|(db, p)| (db, p / expected_mass))
                .collect(),
        );
        let actual = WorldSet::from_weighted_worlds(udb.enumerate_worlds(1 << 20).unwrap());
        assert!(expected.same_worlds(&actual));
        assert!(expected.same_distribution(&actual, 1e-9));
    }

    #[test]
    fn fd_conditioning_eliminates_joint_violations() {
        // Make SSN a key: worlds where both tuples share an SSN but differ
        // elsewhere must die.  In Fig. 4's WSD the SSNs never collide, so
        // build a colliding variant through a possible insert instead.
        let fd = Dependency::Fd(FunctionalDependency::new("R", vec!["S"], vec!["N", "M"]));
        let updates = [
            UpdateExpr::insert_possible(
                "R",
                Tuple::from_iter([Value::int(185), Value::text("Clone"), Value::int(2)]),
                0.5,
            ),
            UpdateExpr::condition(vec![fd.clone()]),
        ];
        let mut udb = from_wsd(&example_census_wsd()).unwrap();
        apply_update(&mut udb, &updates[0]).unwrap();
        let mass = apply_update(&mut udb, &updates[1]).unwrap();
        assert!(mass > 0.0 && mass < 1.0, "the key must bite: {mass}");
        udb.validate().unwrap();
        let actual = WorldSet::from_weighted_worlds(udb.enumerate_worlds(1 << 20).unwrap());
        let expected = oracle(&updates);
        assert!(expected.same_worlds(&actual));
        assert!(expected.same_distribution(&actual, 1e-9));
    }

    #[test]
    fn unsatisfiable_conditioning_is_inconsistent() {
        let mut udb = from_wsd(&example_census_wsd()).unwrap();
        // Names are certain: "Smith ⇒ Smith ≠ Smith" can never hold.
        let impossible = Dependency::Egd(EqualityGeneratingDependency::implies(
            "R",
            "N",
            "Smith",
            "N",
            CmpOp::Ne,
            "Smith",
        ));
        assert!(matches!(
            apply_update(&mut udb, &UpdateExpr::condition(vec![impossible])),
            Err(UrelError::Inconsistent)
        ));
    }

    #[test]
    fn tautological_conditioning_is_a_mass_one_noop() {
        let mut udb = from_wsd(&example_census_wsd()).unwrap();
        let before = WorldSet::from_weighted_worlds(udb.enumerate_worlds(1 << 20).unwrap());
        let mass = apply_update(&mut udb, &UpdateExpr::condition(vec![])).unwrap();
        assert_eq!(mass, 1.0);
        let after = WorldSet::from_weighted_worlds(udb.enumerate_worlds(1 << 20).unwrap());
        assert!(before.same_worlds(&after));
    }
}
