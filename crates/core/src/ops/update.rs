//! The update language over world-set decompositions (the paper's second
//! half): possible and certain inserts, deletes, modifications and
//! conditioning by constraints, as one small [`UpdateExpr`] AST.
//!
//! The semantics contract is *"apply the update in every possible world,
//! then re-decompose"*: an update `u` maps the represented world-set
//! `{A1, …, An}` to `{u(A1), …, u(An)}` (deletes/modifies/inserts world by
//! world; a possible insert with probability `p` splits every world in two;
//! conditioning drops the worlds violating the constraints and
//! renormalizes).  [`apply_update`] dispatches the AST onto the per-verb
//! [`WriteBackend`] operators, so every representation of the stack —
//! single-world databases, WSDs, UWSDTs, U-relations and the explicit
//! world-enumeration oracle — speaks the same update language through the
//! same door that `maybms::Session::apply` opens.
//!
//! This module also implements [`WriteBackend`] for [`Wsd`] itself: deletes
//! and modifications compose exactly the components a tuple needs, rewrite
//! their local worlds in place, and a final normalization pass re-splits the
//! touched components into independent factors (the *re-decompose* half of
//! the contract).  Conditioning is the §8 chase.

use crate::error::{Result, WsError};
use crate::field::FieldId;
use crate::normalize;
use crate::wsd::Wsd;
use std::fmt;
use std::sync::Arc;
use ws_relational::engine::{check_assignments, check_insertable, check_probability};
use ws_relational::{Dependency, Predicate, Schema, Tuple, Value, WriteBackend};

/// One update of the paper's update language.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateExpr {
    /// Insert a tuple into every world with probability `prob`,
    /// independently of everything else.
    InsertPossible {
        /// The target relation.
        relation: String,
        /// The inserted tuple (no `⊥`/`?` markers).
        tuple: Tuple,
        /// The insertion probability in `[0, 1]`.
        prob: f64,
    },
    /// Insert a tuple into every world.
    InsertCertain {
        /// The target relation.
        relation: String,
        /// The inserted tuple (no `⊥`/`?` markers).
        tuple: Tuple,
    },
    /// Delete, in every world, the tuples satisfying the predicate.
    Delete {
        /// The target relation.
        relation: String,
        /// The per-tuple deletion condition.
        pred: Predicate,
    },
    /// Overwrite attributes of every tuple satisfying the predicate, in
    /// every world.
    Modify {
        /// The target relation.
        relation: String,
        /// The per-tuple modification condition.
        pred: Predicate,
        /// `attr ↦ new value` assignments.
        assignments: Vec<(String, Value)>,
    },
    /// Keep only the worlds satisfying every dependency, renormalized.
    Condition {
        /// The integrity constraints to condition on (an empty list is `⊤`).
        constraints: Vec<Dependency>,
    },
}

impl UpdateExpr {
    /// A certain insert.
    pub fn insert(relation: impl Into<String>, tuple: Tuple) -> UpdateExpr {
        UpdateExpr::InsertCertain {
            relation: relation.into(),
            tuple,
        }
    }

    /// A possible insert with probability `prob`.
    pub fn insert_possible(relation: impl Into<String>, tuple: Tuple, prob: f64) -> UpdateExpr {
        UpdateExpr::InsertPossible {
            relation: relation.into(),
            tuple,
            prob,
        }
    }

    /// A predicated delete.
    pub fn delete(relation: impl Into<String>, pred: Predicate) -> UpdateExpr {
        UpdateExpr::Delete {
            relation: relation.into(),
            pred,
        }
    }

    /// A predicated modification.
    pub fn modify(
        relation: impl Into<String>,
        pred: Predicate,
        assignments: Vec<(String, Value)>,
    ) -> UpdateExpr {
        UpdateExpr::Modify {
            relation: relation.into(),
            pred,
            assignments,
        }
    }

    /// Conditioning on a set of constraints (empty = the tautology `⊤`).
    pub fn condition(constraints: Vec<Dependency>) -> UpdateExpr {
        UpdateExpr::Condition { constraints }
    }
}

impl fmt::Display for UpdateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn tuple_list(f: &mut fmt::Formatter<'_>, tuple: &Tuple) -> fmt::Result {
            write!(f, "(")?;
            for (i, v) in tuple.values().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, ")")
        }
        match self {
            UpdateExpr::InsertPossible {
                relation,
                tuple,
                prob,
            } => {
                write!(f, "INSERT INTO {relation} VALUES ")?;
                tuple_list(f, tuple)?;
                write!(f, " PROB {prob}")
            }
            UpdateExpr::InsertCertain { relation, tuple } => {
                write!(f, "INSERT INTO {relation} VALUES ")?;
                tuple_list(f, tuple)
            }
            UpdateExpr::Delete { relation, pred } => {
                write!(f, "DELETE FROM {relation} WHERE {pred}")
            }
            UpdateExpr::Modify {
                relation,
                pred,
                assignments,
            } => {
                write!(f, "UPDATE {relation} SET ")?;
                for (i, (attr, value)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{attr} = {value}")?;
                }
                write!(f, " WHERE {pred}")
            }
            UpdateExpr::Condition { constraints } => {
                if constraints.is_empty() {
                    return write!(f, "CONDITION ON ⊤");
                }
                write!(f, "CONDITION ON ")?;
                for (i, dep) in constraints.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "[{dep}]")?;
                }
                Ok(())
            }
        }
    }
}

/// Apply one update through a backend's [`WriteBackend`] verbs.
///
/// Returns the surviving probability mass: `P(ψ)` for conditioning, `1.0`
/// for every other verb (inserts/deletes/modifications never remove worlds).
pub fn apply_update<B: WriteBackend>(
    backend: &mut B,
    update: &UpdateExpr,
) -> std::result::Result<f64, B::Error> {
    match update {
        UpdateExpr::InsertPossible {
            relation,
            tuple,
            prob,
        } => backend.insert_possible(relation, tuple, *prob).map(|_| 1.0),
        UpdateExpr::InsertCertain { relation, tuple } => {
            backend.insert_certain(relation, tuple).map(|_| 1.0)
        }
        UpdateExpr::Delete { relation, pred } => backend.delete_where(relation, pred).map(|_| 1.0),
        UpdateExpr::Modify {
            relation,
            pred,
            assignments,
        } => backend
            .modify_where(relation, pred, assignments)
            .map(|_| 1.0),
        UpdateExpr::Condition { constraints } => backend.apply_condition(constraints),
    }
}

// ---------------------------------------------------------------------------
// The WSD write path.
// ---------------------------------------------------------------------------

/// The fields of one tuple slot, in schema order.
fn slot_fields(relation: &str, attrs: &[Arc<str>], tuple: usize) -> Vec<FieldId> {
    attrs
        .iter()
        .map(|a| FieldId::from_parts(Arc::from(relation), crate::field::TupleId(tuple), a.clone()))
        .collect()
}

/// Check that every attribute a predicate (or assignment list) mentions is
/// part of the relation's schema, so the per-local-world evaluation below
/// cannot fail halfway through a mutation.
fn check_attrs<'a>(
    relation: &str,
    attrs: &[Arc<str>],
    mentioned: impl IntoIterator<Item = &'a str>,
) -> Result<()> {
    for a in mentioned {
        if !attrs.iter().any(|b| b.as_ref() == a) {
            return Err(WsError::Relational(
                ws_relational::RelationalError::UnknownAttribute {
                    attr: a.to_string(),
                    relation: relation.to_string(),
                },
            ));
        }
    }
    Ok(())
}

impl WriteBackend for Wsd {
    fn insert_certain(&mut self, relation: &str, tuple: &Tuple) -> Result<()> {
        let meta = self.meta(relation)?;
        check_insertable(&meta.schema(relation), tuple)?;
        let attrs = meta.attrs.clone();
        let t = self.append_tuple_slot(relation)?;
        for (field, value) in slot_fields(relation, &attrs, t)
            .into_iter()
            .zip(tuple.values())
        {
            self.set_certain(field, value.clone())?;
        }
        Ok(())
    }

    fn insert_possible(&mut self, relation: &str, tuple: &Tuple, prob: f64) -> Result<()> {
        check_probability(prob)?;
        let meta = self.meta(relation)?;
        check_insertable(&meta.schema(relation), tuple)?;
        if prob <= 0.0 {
            return Ok(());
        }
        if prob >= 1.0 {
            return self.insert_certain(relation, tuple);
        }
        // One new component covering the whole slot: the tuple's values with
        // mass `prob`, the all-⊥ (absent) local world with mass `1 − prob`.
        let attrs = meta.attrs.clone();
        let t = self.append_tuple_slot(relation)?;
        let mut component = crate::component::Component::new(slot_fields(relation, &attrs, t));
        component.push_row(tuple.values().to_vec(), prob)?;
        component.push_row(vec![Value::Bottom; attrs.len()], 1.0 - prob)?;
        self.add_component(component)
    }

    fn delete_where(&mut self, relation: &str, pred: &Predicate) -> Result<()> {
        let meta = self.meta(relation)?.clone();
        check_attrs(relation, &meta.attrs, pred.referenced_attrs())?;
        let schema = meta.schema(relation);
        for t in meta.live_tuples() {
            // Fast path: if every attribute the predicate mentions is certain
            // for this slot, the tuple is deleted everywhere or nowhere — no
            // composition needed.
            if let Some(decided) = certain_match(self, relation, t, pred)? {
                if decided {
                    self.remove_tuple(relation, t)?;
                }
                continue;
            }
            // General path: compose every component covering the slot, blank
            // the tuple out (all fields ⊥) in exactly the local worlds whose
            // values match the predicate.
            let fields = slot_fields(relation, &meta.attrs, t);
            let slot = self.compose_fields(&fields)?;
            let comp = self.component_mut(slot)?;
            let positions: Vec<usize> = fields
                .iter()
                .map(|f| {
                    comp.position(f)
                        .expect("composed component covers the slot")
                })
                .collect();
            let matches: Vec<bool> = comp
                .rows
                .iter()
                .map(|row| {
                    if positions.iter().any(|&p| row.values[p].is_bottom()) {
                        // Absent in this local world: nothing to delete.
                        return Ok(false);
                    }
                    let values: Vec<Value> =
                        positions.iter().map(|&p| row.values[p].clone()).collect();
                    pred.eval(&schema, &Tuple::new(values))
                })
                .collect::<ws_relational::Result<_>>()?;
            for (row, matched) in comp.rows.iter_mut().zip(matches) {
                if matched {
                    for &p in &positions {
                        row.values[p] = Value::Bottom;
                    }
                }
            }
            comp.compress();
        }
        // Re-decompose: blanked slots may now be invalid everywhere, and the
        // composed components usually split back into independent factors.
        normalize::normalize(self)
    }

    fn modify_where(
        &mut self,
        relation: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<()> {
        let meta = self.meta(relation)?.clone();
        check_attrs(
            relation,
            &meta.attrs,
            pred.referenced_attrs()
                .into_iter()
                .chain(assignments.iter().map(|(a, _)| a.as_str())),
        )?;
        check_assignments(assignments)?;
        for t in meta.live_tuples() {
            if let Some(decided) = certain_match(self, relation, t, pred)? {
                if !decided {
                    continue;
                }
            }
            // Compose the components of the predicate's and the assignments'
            // fields for this slot (the predicate decides *per local world*
            // whether the assigned fields change, so the two sets must share
            // one component).
            let mut involved: Vec<&str> = pred.referenced_attrs();
            involved.extend(assignments.iter().map(|(a, _)| a.as_str()));
            involved.sort_unstable();
            involved.dedup();
            let fields: Vec<FieldId> = involved
                .iter()
                .map(|a| FieldId::new(relation, t, a))
                .collect();
            let mini_schema = Schema::from_parts(
                Arc::from(relation),
                involved.iter().map(|a| Arc::from(*a)).collect(),
            );
            let slot = self.compose_fields(&fields)?;
            let comp = self.component_mut(slot)?;
            let positions: Vec<usize> = fields
                .iter()
                .map(|f| {
                    comp.position(f)
                        .expect("composed component covers the fields")
                })
                .collect();
            let assigned_positions: Vec<(usize, &Value)> = assignments
                .iter()
                .map(|(attr, value)| {
                    let idx = involved
                        .iter()
                        .position(|a| a == attr)
                        .expect("assignment attr is involved");
                    (positions[idx], value)
                })
                .collect();
            let matches: Vec<bool> = comp
                .rows
                .iter()
                .map(|row| {
                    if positions.iter().any(|&p| row.values[p].is_bottom()) {
                        // The tuple is absent in this local world.
                        return Ok(false);
                    }
                    let values: Vec<Value> =
                        positions.iter().map(|&p| row.values[p].clone()).collect();
                    pred.eval(&mini_schema, &Tuple::new(values))
                })
                .collect::<ws_relational::Result<_>>()?;
            for (row, matched) in comp.rows.iter_mut().zip(matches) {
                if matched {
                    for &(p, value) in &assigned_positions {
                        row.values[p] = value.clone();
                    }
                }
            }
            comp.compress();
        }
        normalize::normalize(self)
    }

    fn apply_condition(&mut self, constraints: &[Dependency]) -> Result<f64> {
        crate::chase::chase(self, constraints)
    }
}

/// If every attribute `pred` mentions is certain for slot `t`, evaluate the
/// predicate once and return the verdict; `None` means at least one involved
/// field is uncertain (or encodes a possible absence) and the caller must
/// take the per-local-world path.
fn certain_match(wsd: &Wsd, relation: &str, t: usize, pred: &Predicate) -> Result<Option<bool>> {
    let mut attrs: Vec<&str> = pred.referenced_attrs();
    attrs.sort_unstable();
    attrs.dedup();
    let mut values: Vec<(Arc<str>, Value)> = Vec::with_capacity(attrs.len());
    for a in &attrs {
        let field = FieldId::new(relation, t, a);
        match wsd.certain_value(&field)? {
            Some(v) if v.is_bottom() => return Ok(Some(false)), // absent everywhere
            Some(v) => values.push((Arc::from(*a), v)),
            None => return Ok(None),
        }
    }
    // A field outside the predicate may still make the tuple absent in some
    // worlds; that is fine for both delete (absent tuples cannot match) and
    // modify (changes to absent tuples are invisible).
    let mini_schema = Schema::from_parts(
        Arc::from(relation),
        values.iter().map(|(a, _)| a.clone()).collect(),
    );
    let tuple = Tuple::new(values.into_iter().map(|(_, v)| v).collect());
    Ok(Some(pred.eval(&mini_schema, &tuple)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wsd::example_census_wsd;
    use ws_relational::{CmpOp, Database};

    /// Oracle: apply the update to every enumerated world separately.
    fn oracle_worlds(wsd: &Wsd, updates: &[UpdateExpr]) -> Vec<(Database, f64)> {
        let mut worlds =
            crate::worldset::WorldSet::from_weighted_worlds(wsd.enumerate_worlds(1 << 20).unwrap());
        for u in updates {
            apply_update(&mut worlds, u).unwrap();
        }
        worlds.worlds().to_vec()
    }

    fn same_world_set(wsd: &Wsd, oracle: Vec<(Database, f64)>) -> bool {
        let ours = wsd.rep().unwrap();
        let theirs = crate::worldset::WorldSet::from_weighted_worlds(oracle);
        ours.same_worlds(&theirs) && ours.same_distribution(&theirs, 1e-9)
    }

    #[test]
    fn certain_insert_reaches_every_world() {
        let mut wsd = example_census_wsd();
        let u = UpdateExpr::insert(
            "R",
            Tuple::from_iter([Value::int(999), Value::text("New"), Value::int(1)]),
        );
        let oracle = oracle_worlds(&example_census_wsd(), std::slice::from_ref(&u));
        apply_update(&mut wsd, &u).unwrap();
        wsd.validate().unwrap();
        assert!(same_world_set(&wsd, oracle));
    }

    #[test]
    fn possible_insert_splits_every_world() {
        let mut wsd = example_census_wsd();
        let before = wsd.world_count();
        let u = UpdateExpr::insert_possible(
            "R",
            Tuple::from_iter([Value::int(999), Value::text("New"), Value::int(1)]),
            0.25,
        );
        let oracle = oracle_worlds(&example_census_wsd(), std::slice::from_ref(&u));
        apply_update(&mut wsd, &u).unwrap();
        wsd.validate().unwrap();
        assert_eq!(wsd.world_count(), before * 2);
        assert!(same_world_set(&wsd, oracle));
        // Degenerate probabilities take the short paths: p = 0 leaves the
        // world-set untouched, p = 1 is a certain insert.
        let mut wsd = example_census_wsd();
        apply_update(
            &mut wsd,
            &UpdateExpr::insert_possible("R", Tuple::from_iter([1i64, 2, 3]), 0.0),
        )
        .unwrap();
        assert_eq!(wsd.world_count(), 24);
        apply_update(
            &mut wsd,
            &UpdateExpr::insert_possible("R", Tuple::from_iter([1i64, 2, 3]), 1.0),
        )
        .unwrap();
        assert_eq!(wsd.world_count(), 24);
        assert_eq!(wsd.meta("R").unwrap().tuple_count, 3);
    }

    #[test]
    fn delete_blanks_matching_tuples_per_world() {
        let mut wsd = example_census_wsd();
        // Delete the married persons — M is uncertain, so this must split on
        // the marital components.
        let u = UpdateExpr::delete("R", Predicate::eq_const("M", 1i64));
        let oracle = oracle_worlds(&example_census_wsd(), std::slice::from_ref(&u));
        apply_update(&mut wsd, &u).unwrap();
        wsd.validate().unwrap();
        assert!(same_world_set(&wsd, oracle));
    }

    #[test]
    fn delete_with_certain_predicate_takes_the_fast_path() {
        let mut wsd = example_census_wsd();
        let u = UpdateExpr::delete("R", Predicate::eq_const("N", "Smith"));
        let oracle = oracle_worlds(&example_census_wsd(), std::slice::from_ref(&u));
        apply_update(&mut wsd, &u).unwrap();
        wsd.validate().unwrap();
        assert!(same_world_set(&wsd, oracle));
        let meta = wsd.meta("R").unwrap();
        assert_eq!(meta.live_tuples().count(), 1, "Smith's slot is gone");
    }

    #[test]
    fn modify_rewrites_exactly_the_matching_worlds() {
        let mut wsd = example_census_wsd();
        // Everyone with SSN 785 gets married: correlates M with the SSN
        // component.
        let u = UpdateExpr::modify(
            "R",
            Predicate::eq_const("S", 785i64),
            vec![("M".to_string(), Value::int(1))],
        );
        let oracle = oracle_worlds(&example_census_wsd(), std::slice::from_ref(&u));
        apply_update(&mut wsd, &u).unwrap();
        wsd.validate().unwrap();
        assert!(same_world_set(&wsd, oracle));
    }

    #[test]
    fn conditioning_reports_the_satisfying_mass() {
        let mut wsd = example_census_wsd();
        let dep = Dependency::Egd(ws_relational::EqualityGeneratingDependency::implies(
            "R",
            "S",
            785i64,
            "M",
            CmpOp::Eq,
            1i64,
        ));
        let expected =
            crate::conditional::satisfaction_probability(&wsd, std::slice::from_ref(&dep)).unwrap();
        let mass = apply_update(&mut wsd, &UpdateExpr::condition(vec![dep])).unwrap();
        assert!((mass - expected).abs() < 1e-9);
        // Conditioning on ⊤ afterwards is a mass-1 no-op.
        let before = wsd.rep().unwrap();
        let mass = apply_update(&mut wsd, &UpdateExpr::condition(vec![])).unwrap();
        assert_eq!(mass, 1.0);
        assert!(before.same_worlds(&wsd.rep().unwrap()));
    }

    #[test]
    fn invalid_updates_are_rejected_before_mutation() {
        let mut wsd = example_census_wsd();
        assert!(apply_update(
            &mut wsd,
            &UpdateExpr::insert("NOPE", Tuple::from_iter([1i64]))
        )
        .is_err());
        assert!(
            apply_update(&mut wsd, &UpdateExpr::insert("R", Tuple::from_iter([1i64]))).is_err()
        );
        assert!(apply_update(
            &mut wsd,
            &UpdateExpr::insert_possible("R", Tuple::from_iter([1i64, 2, 3]), 1.5)
        )
        .is_err());
        assert!(apply_update(
            &mut wsd,
            &UpdateExpr::delete("R", Predicate::eq_const("Z", 1i64))
        )
        .is_err());
        assert!(apply_update(
            &mut wsd,
            &UpdateExpr::modify(
                "R",
                Predicate::eq_const("M", 1i64),
                vec![("M".to_string(), Value::Bottom)]
            )
        )
        .is_err());
        // Nothing above changed the WSD.
        wsd.validate().unwrap();
        assert_eq!(wsd.world_count(), 24);
    }

    #[test]
    fn update_displays_read_like_sql() {
        let u = UpdateExpr::insert("R", Tuple::from_iter([1i64, 2]));
        assert_eq!(u.to_string(), "INSERT INTO R VALUES (1, 2)");
        let u = UpdateExpr::insert_possible("R", Tuple::from_iter([1i64]), 0.5);
        assert!(u.to_string().contains("PROB 0.5"));
        let u = UpdateExpr::delete("R", Predicate::eq_const("A", 1i64));
        assert!(u.to_string().starts_with("DELETE FROM R WHERE"));
        let u = UpdateExpr::modify(
            "R",
            Predicate::eq_const("A", 1i64),
            vec![("B".to_string(), Value::int(2))],
        );
        assert!(u.to_string().contains("SET B = 2"));
        assert_eq!(UpdateExpr::condition(vec![]).to_string(), "CONDITION ON ⊤");
        let dep = Dependency::Fd(ws_relational::FunctionalDependency::new(
            "R",
            vec!["A"],
            vec!["B"],
        ));
        let u = UpdateExpr::condition(vec![dep]);
        assert!(u.to_string().contains("A → B"));
    }
}
