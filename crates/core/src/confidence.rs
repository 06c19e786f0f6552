//! Confidence computation and possible-tuple queries (§6, Figures 17–19).
//!
//! The confidence of a tuple `t` in a relation `R` is the sum of the
//! probabilities of the worlds in which `t ∈ R`.  Iterating over the worlds
//! is infeasible, so the algorithm works on a *tuple-level* view of the WSD:
//! components are composed (virtually, without mutating the input WSD) until
//! all fields of any given tuple live in the same component.  Within one
//! component the local worlds are mutually exclusive, and distinct components
//! are independent, so
//!
//! `conf(t) = 1 − Π_C (1 − conf_C(t))`,
//!
//! where `conf_C(t)` sums the probabilities of `C`'s local worlds that define
//! some tuple equal to `t`.  The tuple-level composition may be exponential
//! in the worst case — unavoidable, since deciding tuple certainty is already
//! NP-hard on WSDs \[9\] — but stays small when components span few tuples.
//!
//! [`TupleLevelView::possible_with_confidence`] is the WSD's native exact
//! path; the (ε, δ) estimate of a WSD query answer runs on its
//! lineage instead (`maybms::Session::confidence_approx` over
//! `ws_relational::approx`), which never composes components either.

use crate::component::Component;
use crate::error::Result;
use crate::field::FieldId;
use crate::wsd::Wsd;
use std::collections::{BTreeMap, BTreeSet};
use ws_relational::{Relation, Schema, Tuple, Value};

/// A tuple-level view of one relation of a WSD: every tuple slot's fields are
/// gathered into a single (composed) component.
///
/// Building the view performs the composition once; `conf`, `possible` and
/// `possible_with_confidence` then run over the composed groups.
#[derive(Clone, Debug)]
pub struct TupleLevelView {
    relation: String,
    attrs: Vec<std::sync::Arc<str>>,
    /// The composed component of each group, together with the tuple slots
    /// whose fields it defines.
    groups: Vec<(Component, Vec<usize>)>,
}

impl TupleLevelView {
    /// Build the tuple-level view of `relation` within `wsd`.
    pub fn new(wsd: &Wsd, relation: &str) -> Result<Self> {
        let meta = wsd.meta(relation)?.clone();
        // Group component slots: two slots belong together if they define
        // fields of the same tuple of `relation`.
        let mut slot_groups: Vec<BTreeSet<usize>> = Vec::new();
        let mut tuple_slots: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for t in meta.live_tuples() {
            let mut slots = BTreeSet::new();
            for a in &meta.attrs {
                slots.insert(wsd.slot_of(&FieldId::new(relation, t, a.as_ref()))?);
            }
            tuple_slots.insert(t, slots);
        }
        for slots in tuple_slots.values() {
            // Merge with any existing group sharing a slot.
            let mut merged = slots.clone();
            let mut remaining = Vec::new();
            for g in slot_groups.drain(..) {
                if g.intersection(&merged).next().is_some() {
                    merged.extend(g);
                } else {
                    remaining.push(g);
                }
            }
            remaining.push(merged);
            slot_groups = remaining;
        }
        // Compose each group's components (functionally) and record which
        // tuples it covers completely.
        let mut groups = Vec::with_capacity(slot_groups.len());
        for slots in slot_groups {
            let mut iter = slots.iter();
            let first = *iter.next().expect("groups are non-empty");
            let mut composed = wsd.component(first)?.clone();
            for &slot in iter {
                composed = composed.compose(wsd.component(slot)?);
            }
            let covered: Vec<usize> = tuple_slots
                .iter()
                .filter(|(_, ts)| ts.is_subset(&slots))
                .map(|(t, _)| *t)
                .collect();
            groups.push((composed, covered));
        }
        Ok(TupleLevelView {
            relation: relation.to_string(),
            attrs: meta.attrs.clone(),
            groups,
        })
    }

    /// The relation this view is over.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Number of composed groups (independent blocks of tuples).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The confidence of `tuple`: the probability that some world contains it.
    pub fn conf(&self, tuple: &Tuple) -> Result<f64> {
        if tuple.arity() != self.attrs.len() {
            return Err(crate::error::WsError::invalid(format!(
                "tuple arity {} does not match relation `{}` arity {}",
                tuple.arity(),
                self.relation,
                self.attrs.len()
            )));
        }
        let mut not_contained = 1.0;
        for (comp, tuples) in &self.groups {
            let mut conf_c = 0.0;
            for row in &comp.rows {
                if self.row_defines_tuple(comp, &row.values, tuples, tuple) {
                    conf_c += row.prob;
                }
            }
            not_contained *= 1.0 - conf_c;
        }
        Ok(1.0 - not_contained)
    }

    /// Whether a local world of a composed group defines some tuple slot whose
    /// values equal `tuple`.
    fn row_defines_tuple(
        &self,
        comp: &Component,
        values: &[Value],
        tuples: &[usize],
        tuple: &Tuple,
    ) -> bool {
        tuples.iter().any(|&t| {
            self.attrs.iter().enumerate().all(|(i, a)| {
                comp.position(&FieldId::new(&self.relation, t, a.as_ref()))
                    .map(|pos| values[pos] == tuple[i])
                    .unwrap_or(false)
            })
        })
    }

    /// The `possible` operator (Fig. 18): every tuple appearing in at least
    /// one world, in `Tuple` order.  A local world of probability 0 is still
    /// a world: its tuples are possible, with confidence 0.
    pub fn possible(&self) -> Result<Relation> {
        let schema = Schema::from_parts(
            std::sync::Arc::from(self.relation.as_str()),
            self.attrs.clone(),
        );
        let mut possible: BTreeSet<Tuple> = BTreeSet::new();
        for (comp, tuples) in &self.groups {
            for row in &comp.rows {
                for &t in tuples {
                    let mut values = Vec::with_capacity(self.attrs.len());
                    let mut dropped = false;
                    for a in &self.attrs {
                        let pos = comp
                            .position(&FieldId::new(&self.relation, t, a.as_ref()))
                            .expect("group covers all fields of its tuples");
                        let v = row.values[pos].clone();
                        if v.is_bottom() {
                            dropped = true;
                            break;
                        }
                        values.push(v);
                    }
                    if !dropped {
                        possible.insert(Tuple::new(values));
                    }
                }
            }
        }
        let mut out = Relation::new(schema);
        for tuple in possible {
            out.push(tuple)?;
        }
        Ok(out)
    }

    /// The `possibleᵖ` operator (Fig. 19): possible tuples with confidences.
    pub fn possible_with_confidence(&self) -> Result<Vec<(Tuple, f64)>> {
        self.possible()?
            .rows()
            .iter()
            .map(|tuple| Ok((tuple.clone(), self.conf(tuple)?)))
            .collect()
    }
}

/// Convenience wrapper: the confidence of one tuple in one relation.
pub fn conf(wsd: &Wsd, relation: &str, tuple: &Tuple) -> Result<f64> {
    TupleLevelView::new(wsd, relation)?.conf(tuple)
}

/// Convenience wrapper: the set of possible tuples of a relation.
pub fn possible(wsd: &Wsd, relation: &str) -> Result<Relation> {
    TupleLevelView::new(wsd, relation)?.possible()
}

/// Convenience wrapper: the possible tuples of a relation with confidences.
pub fn possible_with_confidence(wsd: &Wsd, relation: &str) -> Result<Vec<(Tuple, f64)>> {
    TupleLevelView::new(wsd, relation)?.possible_with_confidence()
}

/// A tuple is *certain* iff it appears in every world, i.e. its confidence is
/// 1 (up to floating-point tolerance).
pub fn is_certain(wsd: &Wsd, relation: &str, tuple: &Tuple) -> Result<bool> {
    Ok(conf(wsd, relation, tuple)? >= 1.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::wsd::example_census_wsd;
    use ws_relational::{CmpOp, Database};

    /// Oracle: confidence by explicit world enumeration.
    fn oracle_conf(wsd: &Wsd, relation: &str, tuple: &Tuple) -> f64 {
        wsd.enumerate_worlds(1_000_000)
            .unwrap()
            .into_iter()
            .filter(|(db, _): &(Database, f64)| db.relation(relation).unwrap().contains(tuple))
            .map(|(_, p)| p)
            .sum()
    }

    #[test]
    fn example11_projection_confidences() {
        // Example 11: Q = π_S(R) over the Fig. 4 WSD; conf(185)=0.6,
        // conf(186)=0.6, conf(785)=0.8.
        let mut wsd = example_census_wsd();
        ops::project(&mut wsd, "R", "Q", &["S"]).unwrap();
        let view = TupleLevelView::new(&wsd, "Q").unwrap();
        let expected = [(185i64, 0.6), (186, 0.6), (785, 0.8)];
        for (value, p) in expected {
            let t = Tuple::from_iter([value]);
            assert!(
                (view.conf(&t).unwrap() - p).abs() < 1e-9,
                "conf({value}) should be {p}"
            );
        }
        let with_conf = view.possible_with_confidence().unwrap();
        assert_eq!(with_conf.len(), 3);
        let total_possible = view.possible().unwrap();
        assert_eq!(total_possible.len(), 3);
    }

    #[test]
    fn confidence_matches_world_enumeration_oracle() {
        let wsd = example_census_wsd();
        let view = TupleLevelView::new(&wsd, "R").unwrap();
        for (tuple, _) in view.possible_with_confidence().unwrap() {
            let ours = view.conf(&tuple).unwrap();
            let oracle = oracle_conf(&wsd, "R", &tuple);
            assert!(
                (ours - oracle).abs() < 1e-9,
                "conf({tuple}) = {ours}, oracle = {oracle}"
            );
        }
    }

    #[test]
    fn confidence_of_impossible_and_certain_tuples() {
        let wsd = example_census_wsd();
        let absent = Tuple::from_iter([Value::int(999), Value::text("Nobody"), Value::int(1)]);
        assert!(conf(&wsd, "R", &absent).unwrap().abs() < 1e-9);
        assert!(!is_certain(&wsd, "R", &absent).unwrap());

        // A relation with no uncertainty: its single tuple is certain.
        let mut certain_rel = Relation::new(Schema::new("S", &["X"]).unwrap());
        certain_rel.push_values([5i64]).unwrap();
        let mut wsd2 = Wsd::new();
        wsd2.add_certain_relation(&certain_rel).unwrap();
        assert!(is_certain(&wsd2, "S", &Tuple::from_iter([5i64])).unwrap());
    }

    #[test]
    fn tuple_arity_mismatch_is_an_error() {
        let wsd = example_census_wsd();
        assert!(conf(&wsd, "R", &Tuple::from_iter([1i64])).is_err());
        assert!(conf(&wsd, "NOPE", &Tuple::from_iter([1i64])).is_err());
    }

    #[test]
    fn possible_after_selection_matches_union_of_worlds() {
        let mut wsd = example_census_wsd();
        ops::select_const(&mut wsd, "R", "P", "M", CmpOp::Eq, &Value::int(1)).unwrap();
        let possible_tuples = possible(&wsd, "P").unwrap();
        // Oracle: union of P over all worlds.
        let mut expected: BTreeSet<Tuple> = BTreeSet::new();
        for (db, _) in wsd.enumerate_worlds(1_000_000).unwrap() {
            for t in db.relation("P").unwrap().rows() {
                expected.insert(t.clone());
            }
        }
        assert_eq!(possible_tuples.row_set(), expected);
        // And each possible tuple's confidence matches the oracle.
        for t in &expected {
            let ours = conf(&wsd, "P", t).unwrap();
            let oracle = oracle_conf(&wsd, "P", t);
            assert!((ours - oracle).abs() < 1e-9);
        }
    }

    #[test]
    fn group_count_reflects_tuple_correlation() {
        let wsd = example_census_wsd();
        // Both R tuples share the SSN component, so there is a single group.
        let view = TupleLevelView::new(&wsd, "R").unwrap();
        assert_eq!(view.group_count(), 1);
        assert_eq!(view.relation(), "R");

        // Two independent certain tuples give two groups.
        let mut rel = Relation::new(Schema::new("S", &["X"]).unwrap());
        rel.push_values([1i64]).unwrap();
        rel.push_values([2i64]).unwrap();
        let mut wsd2 = Wsd::new();
        wsd2.add_certain_relation(&rel).unwrap();
        let view2 = TupleLevelView::new(&wsd2, "S").unwrap();
        assert_eq!(view2.group_count(), 2);
    }
}
