//! Confidence computation and possible tuples on UWSDTs (§6 applied to the
//! uniform representation).
//!
//! The algorithms mirror `ws-core::confidence`: all placeholders of a tuple
//! are gathered into a tuple-level view (composing components virtually,
//! without mutating the store), local worlds of one component are mutually
//! exclusive, and distinct components are independent, so
//! `conf(t) = 1 − Π_C (1 − conf_C(t))`.
//!
//! Certain tuples (no placeholders, no presence conditions) short-circuit to
//! confidence 1 when they equal `t`, which is what makes confidence queries
//! cheap on sparse UWSDTs: only the few uncertain tuples ever touch the
//! component tables.

use crate::error::{Result, UwsdtError};
use crate::model::{Cid, Lwid, Uwsdt};
use crate::ops::possible_tuples;
use std::collections::{BTreeMap, BTreeSet};
use ws_core::FieldId;
use ws_relational::Tuple;

/// The confidence of `tuple` in `relation`: the probability that some world
/// contains it.
pub fn conf(uwsdt: &Uwsdt, relation: &str, tuple: &Tuple) -> Result<f64> {
    let template = uwsdt.template(relation)?;
    if tuple.arity() != template.schema().arity() {
        return Err(UwsdtError::invalid(format!(
            "tuple arity {} does not match relation `{relation}` arity {}",
            tuple.arity(),
            template.schema().arity()
        )));
    }
    // Collect the candidate template tuples (those whose certain fields match)
    // together with the components they depend on.
    struct Candidate {
        placeholders: Vec<(usize, FieldId)>,
        presence_tuple: usize,
        cids: Vec<Cid>,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    'tuples: for (t, row) in template.rows().iter().enumerate() {
        for (i, v) in row.values().iter().enumerate() {
            if !v.is_unknown() && *v != tuple[i] {
                continue 'tuples;
            }
        }
        let placeholders: Vec<(usize, FieldId)> = template
            .schema()
            .attrs()
            .iter()
            .enumerate()
            .filter(|(i, _)| row[*i].is_unknown())
            .map(|(i, a)| (i, FieldId::new(relation, t, a.as_ref())))
            .collect();
        let presence = uwsdt.presence_of(relation, t);
        if placeholders.is_empty() && presence.is_empty() {
            // The tuple is certain and equals `t` in every world.
            return Ok(1.0);
        }
        let mut cids: Vec<Cid> = placeholders
            .iter()
            .filter_map(|(_, f)| uwsdt.component_of(f))
            .chain(presence.iter().map(|c| c.cid))
            .collect();
        cids.sort_unstable();
        cids.dedup();
        candidates.push(Candidate {
            placeholders,
            presence_tuple: t,
            cids,
        });
    }
    // Group candidates sharing components (they are correlated); distinct
    // groups are independent and combine with 1 − Π(1 − conf_group).
    let mut groups: Vec<(BTreeSet<Cid>, Vec<usize>)> = Vec::new();
    for (idx, candidate) in candidates.iter().enumerate() {
        let mut cids: BTreeSet<Cid> = candidate.cids.iter().copied().collect();
        let mut members = vec![idx];
        let mut remaining = Vec::new();
        for (gcids, gmembers) in groups.drain(..) {
            if gcids.intersection(&cids).next().is_some() {
                cids.extend(gcids);
                members.extend(gmembers);
            } else {
                remaining.push((gcids, gmembers));
            }
        }
        remaining.push((cids, members));
        groups = remaining;
    }
    let mut not_contained = 1.0f64;
    for (cids, members) in groups {
        let cids: Vec<Cid> = cids.into_iter().collect();
        // Probability that, in a joint local world of this group's
        // components, at least one member tuple equals `tuple`.
        let p = joint_probability(uwsdt, &cids, |chosen| {
            members.iter().any(|&idx| {
                let candidate = &candidates[idx];
                let presence = uwsdt.presence_of(relation, candidate.presence_tuple);
                for cond in presence {
                    if !cond.lwids.contains(&chosen[&cond.cid]) {
                        return false;
                    }
                }
                candidate.placeholders.iter().all(|(i, field)| {
                    let cid = uwsdt
                        .component_of(field)
                        .expect("placeholder has a component");
                    uwsdt
                        .placeholder_values(field)
                        .and_then(|vals| vals.get(&chosen[&cid]))
                        .is_some_and(|v| *v == tuple[*i])
                })
            })
        })?;
        not_contained *= 1.0 - p;
    }
    Ok(1.0 - not_contained)
}

/// Sum of the probabilities of the joint local worlds of `cids` satisfying
/// the predicate.
fn joint_probability(
    uwsdt: &Uwsdt,
    cids: &[Cid],
    satisfied: impl Fn(&BTreeMap<Cid, Lwid>) -> bool,
) -> Result<f64> {
    let mut total = 0.0;
    let mut chosen: BTreeMap<Cid, Lwid> = BTreeMap::new();
    fn recurse(
        uwsdt: &Uwsdt,
        cids: &[Cid],
        depth: usize,
        prob: f64,
        chosen: &mut BTreeMap<Cid, Lwid>,
        satisfied: &impl Fn(&BTreeMap<Cid, Lwid>) -> bool,
        total: &mut f64,
    ) -> Result<()> {
        if depth == cids.len() {
            if satisfied(chosen) {
                *total += prob;
            }
            return Ok(());
        }
        let cid = cids[depth];
        for w in uwsdt.component_worlds(cid)?.to_vec() {
            chosen.insert(cid, w.lwid);
            recurse(
                uwsdt,
                cids,
                depth + 1,
                prob * w.prob,
                chosen,
                satisfied,
                total,
            )?;
        }
        chosen.remove(&cid);
        Ok(())
    }
    recurse(uwsdt, cids, 0, 1.0, &mut chosen, &satisfied, &mut total)?;
    Ok(total)
}

/// The `possibleᵖ` operator on UWSDTs: every tuple appearing in at least one
/// world, together with its confidence.
pub fn possible_with_confidence(uwsdt: &Uwsdt, relation: &str) -> Result<Vec<(Tuple, f64)>> {
    let tuples = possible_tuples(uwsdt, relation)?;
    let mut out = Vec::with_capacity(tuples.len());
    for tuple in tuples {
        let c = conf(uwsdt, relation, &tuple)?;
        out.push((tuple, c));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{from_or_relation, from_wsd, OrField};
    use ws_relational::{CmpOp, Predicate, RaExpr, Relation, Schema, Value};

    #[test]
    fn example11_confidences_via_the_uwsdt() {
        // π_S over the Figure 4 world-set: conf(185)=0.6, conf(186)=0.6,
        // conf(785)=0.8, matching Example 11.
        let wsd = ws_core::wsd::example_census_wsd();
        let mut uwsdt = from_wsd(&wsd).unwrap();
        ws_relational::engine::evaluate_query(
            &mut uwsdt,
            &RaExpr::rel("R").project(vec!["S"]),
            "Q",
        )
        .unwrap();
        let answers = possible_with_confidence(&uwsdt, "Q").unwrap();
        let lookup = |v: i64| {
            answers
                .iter()
                .find(|(t, _)| t[0] == Value::int(v))
                .map(|(_, c)| *c)
                .unwrap()
        };
        assert!((lookup(185) - 0.6).abs() < 1e-9);
        assert!((lookup(186) - 0.6).abs() < 1e-9);
        assert!((lookup(785) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn confidence_matches_world_enumeration() {
        let mut base = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        base.push_values([1i64, 10]).unwrap();
        base.push_values([2i64, 20]).unwrap();
        base.push_values([1i64, 30]).unwrap();
        let noise = vec![
            OrField::uniform(0, "B", vec![Value::int(10), Value::int(30)]),
            OrField::uniform(2, "A", vec![Value::int(1), Value::int(2)]),
        ];
        let mut uwsdt = from_or_relation(&base, &noise).unwrap();
        ws_relational::engine::evaluate_query(
            &mut uwsdt,
            &RaExpr::rel("R").select(Predicate::cmp_const("B", CmpOp::Ge, 20i64)),
            "Q",
        )
        .unwrap();
        for relation in ["R", "Q"] {
            let worlds = uwsdt.enumerate_worlds(10_000).unwrap();
            for (tuple, confidence) in possible_with_confidence(&uwsdt, relation).unwrap() {
                let oracle: f64 = worlds
                    .iter()
                    .filter(|(db, _)| db.relation(relation).unwrap().contains(&tuple))
                    .map(|(_, p)| p)
                    .sum();
                assert!(
                    (confidence - oracle).abs() < 1e-9,
                    "{relation}: conf({tuple}) = {confidence}, oracle {oracle}"
                );
            }
        }
    }

    #[test]
    fn conf_rejects_bad_arity_and_unknown_relations() {
        let mut base = Relation::new(Schema::new("R", &["A"]).unwrap());
        base.push_values([1i64]).unwrap();
        let uwsdt = from_or_relation(&base, &[]).unwrap();
        assert!(conf(&uwsdt, "R", &Tuple::from_iter([1i64, 2])).is_err());
        assert!(conf(&uwsdt, "NOPE", &Tuple::from_iter([1i64])).is_err());
    }
}
