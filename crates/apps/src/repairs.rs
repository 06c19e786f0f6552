//! Minimal repairs of inconsistent databases as world-sets (§10).
//!
//! A database violating a key or functional dependency admits a set of
//! *minimal repairs*: consistent instances obtained by deleting a minimal set
//! of tuples.  The number of repairs is exponential in the number of conflict
//! clusters, but the repairs overlap almost everywhere — exactly the data
//! pattern WSDs are designed for.  This module materializes the repair
//! world-set as a WSD:
//!
//! * every tuple outside a conflict is stored in certain (one-row)
//!   components,
//! * every conflict cluster becomes one component whose local worlds are the
//!   possible resolutions (keep one agreeing subgroup, mark the rest `⊥`).
//!
//! Consistent query answering (the certain answers of \[10\]) then reduces to
//! certain-tuple computation, while — unlike certain-answer-only systems —
//! the full repair set remains available for further querying and cleaning.

use std::collections::BTreeMap;

use ws_core::{confidence, Component, FieldId, Result, WsError, Wsd};
use ws_relational::{engine, RaExpr, Relation, Tuple, Value};

/// Summary of a repair construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairReport {
    /// Tuples that participate in no conflict.
    pub clean_tuples: usize,
    /// Number of conflict clusters (violating determinant groups).
    pub conflict_clusters: usize,
    /// Tuples involved in some conflict.
    pub conflicting_tuples: usize,
    /// Number of minimal repairs (possible worlds), saturating.
    pub repair_count: u128,
}

/// Build the WSD of all minimal repairs of `relation` under the functional
/// dependency `lhs → rhs`.
///
/// Within each group of tuples agreeing on `lhs`, the tuples are partitioned
/// by their `rhs` values; a minimal repair keeps exactly one of those
/// subgroups (deleting fewer tuples cannot restore consistency, deleting more
/// is not minimal).  Groups with a single subgroup are conflict-free.
pub fn repair_fd_violations(
    relation: &Relation,
    lhs: &[&str],
    rhs: &[&str],
) -> Result<(Wsd, RepairReport)> {
    if lhs.is_empty() || rhs.is_empty() {
        return Err(WsError::invalid(
            "a functional dependency needs non-empty determinant and dependent attribute lists",
        ));
    }
    let schema = relation.schema();
    let name = schema.relation().to_string();
    let attrs: Vec<&str> = schema.attrs().iter().map(|a| a.as_ref()).collect();
    let lhs_pos: Vec<usize> = lhs
        .iter()
        .map(|a| schema.position_of(a).map_err(WsError::from))
        .collect::<Result<_>>()?;
    let rhs_pos: Vec<usize> = rhs
        .iter()
        .map(|a| schema.position_of(a).map_err(WsError::from))
        .collect::<Result<_>>()?;

    // Group tuple indices by determinant value, then split by dependent value.
    let mut groups: BTreeMap<Vec<Value>, BTreeMap<Vec<Value>, Vec<usize>>> = BTreeMap::new();
    for (i, row) in relation.rows().iter().enumerate() {
        let key: Vec<Value> = lhs_pos.iter().map(|&p| row[p].clone()).collect();
        let dependent: Vec<Value> = rhs_pos.iter().map(|&p| row[p].clone()).collect();
        groups
            .entry(key)
            .or_default()
            .entry(dependent)
            .or_default()
            .push(i);
    }

    let mut wsd = Wsd::new();
    wsd.register_relation(&name, &attrs, relation.len())?;

    let mut report = RepairReport {
        clean_tuples: 0,
        conflict_clusters: 0,
        conflicting_tuples: 0,
        repair_count: 1,
    };

    for subgroups in groups.values() {
        if subgroups.len() == 1 {
            // No conflict: every tuple of this group is certain.
            for &t in subgroups.values().next().expect("non-empty group") {
                report.clean_tuples += 1;
                for (a, attr) in attrs.iter().enumerate() {
                    wsd.set_certain(FieldId::new(&name, t, attr), relation.rows()[t][a].clone())?;
                }
            }
            continue;
        }

        // Conflict cluster: one component spanning every field of every tuple
        // in the cluster; one local world per surviving subgroup.
        let cluster_tuples: Vec<usize> = subgroups.values().flatten().copied().collect();
        report.conflict_clusters += 1;
        report.conflicting_tuples += cluster_tuples.len();
        report.repair_count = report.repair_count.saturating_mul(subgroups.len() as u128);

        let mut fields = Vec::with_capacity(cluster_tuples.len() * attrs.len());
        for &t in &cluster_tuples {
            for attr in &attrs {
                fields.push(FieldId::new(&name, t, attr));
            }
        }
        let mut component = Component::new(fields);
        let prob = 1.0 / subgroups.len() as f64;
        for kept in subgroups.values() {
            let mut values = Vec::with_capacity(cluster_tuples.len() * attrs.len());
            for &t in &cluster_tuples {
                let keep = kept.contains(&t);
                for (a, _) in attrs.iter().enumerate() {
                    values.push(if keep {
                        relation.rows()[t][a].clone()
                    } else {
                        Value::Bottom
                    });
                }
            }
            component.push_row(values, prob)?;
        }
        wsd.add_component(component)?;
    }

    wsd.validate()?;
    Ok((wsd, report))
}

/// Build the WSD of all minimal repairs of `relation` under a key constraint:
/// `key → all other attributes`.
pub fn repair_key_violations(relation: &Relation, key: &[&str]) -> Result<(Wsd, RepairReport)> {
    let non_key: Vec<&str> = relation
        .schema()
        .attrs()
        .iter()
        .map(|a| a.as_ref())
        .filter(|a| !key.contains(a))
        .collect();
    if non_key.is_empty() {
        return Err(WsError::invalid(
            "key covers every attribute; duplicates under a full key are not repairable by deletion",
        ));
    }
    repair_fd_violations(relation, key, &non_key)
}

/// The *consistent answers* of a query over the repair world-set: the tuples
/// contained in the answer of every repair (certain tuples).
pub fn consistent_answers(repairs: &Wsd, query: &RaExpr) -> Result<Relation> {
    let mut scratch = repairs.clone();
    let out = engine::fresh_scratch_name(|n| scratch.contains_relation(n), &mut 0, "repair_q");
    engine::evaluate_query(&mut scratch, query, &out)?;
    let mut result = confidence::possible(&scratch, &out)?;
    let certain: Vec<Tuple> = confidence::possible_with_confidence(&scratch, &out)?
        .into_iter()
        .filter(|(_, c)| *c >= 1.0 - 1e-9)
        .map(|(t, _)| t)
        .collect();
    result.retain(|t| certain.contains(t));
    Ok(result)
}

/// The *possible answers* of a query over the repair world-set: the tuples
/// contained in the answer of at least one repair.
pub fn possible_answers(repairs: &Wsd, query: &RaExpr) -> Result<Relation> {
    let mut scratch = repairs.clone();
    let out = engine::fresh_scratch_name(|n| scratch.contains_relation(n), &mut 0, "repair_q");
    engine::evaluate_query(&mut scratch, query, &out)?;
    confidence::possible(&scratch, &out)
}

/// The possible answers annotated with the fraction of repairs containing
/// them (a useful ranking signal the certain-answer systems cannot provide).
pub fn answers_with_support(repairs: &Wsd, query: &RaExpr) -> Result<Vec<(Tuple, f64)>> {
    let mut scratch = repairs.clone();
    let out = engine::fresh_scratch_name(|n| scratch.contains_relation(n), &mut 0, "repair_q");
    engine::evaluate_query(&mut scratch, query, &out)?;
    confidence::possible_with_confidence(&scratch, &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_relational::{Predicate, Schema};

    /// An employee relation with two key violations on EMP.
    fn dirty_employees() -> Relation {
        let schema = Schema::new("Emp", &["EMP", "DEPT", "SALARY"]).unwrap();
        let mut rel = Relation::new(schema);
        // Conflict cluster 1: alice appears with two departments.
        rel.push_values([Value::text("alice"), Value::text("sales"), Value::int(10)])
            .unwrap();
        rel.push_values([Value::text("alice"), Value::text("eng"), Value::int(10)])
            .unwrap();
        // Conflict cluster 2: bob appears with three salaries.
        rel.push_values([Value::text("bob"), Value::text("eng"), Value::int(20)])
            .unwrap();
        rel.push_values([Value::text("bob"), Value::text("eng"), Value::int(30)])
            .unwrap();
        rel.push_values([Value::text("bob"), Value::text("eng"), Value::int(40)])
            .unwrap();
        // Clean tuple.
        rel.push_values([Value::text("carol"), Value::text("hr"), Value::int(50)])
            .unwrap();
        rel
    }

    #[test]
    fn repair_counts_and_report() {
        let rel = dirty_employees();
        let (wsd, report) = repair_key_violations(&rel, &["EMP"]).unwrap();
        assert_eq!(report.clean_tuples, 1);
        assert_eq!(report.conflict_clusters, 2);
        assert_eq!(report.conflicting_tuples, 5);
        assert_eq!(report.repair_count, 6); // 2 × 3
        assert_eq!(wsd.world_count(), 6);

        // Every repair satisfies the key and keeps carol.
        for (world, _) in wsd.enumerate_worlds(100).unwrap() {
            let emp = world.relation("Emp").unwrap();
            assert_eq!(emp.len(), 3, "one tuple per employee in every repair");
            let mut keys: Vec<Value> = emp.rows().iter().map(|r| r[0].clone()).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), 3, "keys are unique in every repair");
        }
    }

    #[test]
    fn consistent_and_possible_answers_match_the_repair_semantics() {
        let rel = dirty_employees();
        let (wsd, _) = repair_key_violations(&rel, &["EMP"]).unwrap();
        let query = RaExpr::rel("Emp").project(vec!["EMP"]);
        // Every repair keeps one tuple per employee, so all three names are
        // consistent answers.
        let consistent = consistent_answers(&wsd, &query).unwrap();
        assert_eq!(consistent.len(), 3);

        // Department of alice: "sales" and "eng" are possible but not
        // consistent answers.
        let dept_query = RaExpr::rel("Emp")
            .select(Predicate::eq_const("EMP", "alice"))
            .project(vec!["DEPT"]);
        let consistent = consistent_answers(&wsd, &dept_query).unwrap();
        assert!(consistent.is_empty());
        let possible = possible_answers(&wsd, &dept_query).unwrap();
        assert_eq!(possible.len(), 2);
        let support = answers_with_support(&wsd, &dept_query).unwrap();
        assert_eq!(support.len(), 2);
        for (_, share) in support {
            assert!(
                (share - 0.5).abs() < 1e-9,
                "both repairs are equally likely"
            );
        }
    }

    #[test]
    fn oracle_check_against_explicit_repair_enumeration() {
        let rel = dirty_employees();
        let (wsd, _) = repair_key_violations(&rel, &["EMP"]).unwrap();
        let query = RaExpr::rel("Emp")
            .select(Predicate::eq_const("DEPT", "eng"))
            .project(vec!["EMP"]);
        let consistent = consistent_answers(&wsd, &query).unwrap();
        let possible = possible_answers(&wsd, &query).unwrap();

        // Oracle: evaluate in every repair explicitly.
        let repairs = wsd.enumerate_worlds(100).unwrap();
        let answers: Vec<_> = repairs
            .iter()
            .map(|(db, _)| ws_relational::evaluate_set(db, &query).unwrap())
            .collect();
        for tuple in possible.rows() {
            assert!(answers.iter().any(|a| a.contains(tuple)));
        }
        for tuple in consistent.rows() {
            assert!(answers.iter().all(|a| a.contains(tuple)));
        }
        // bob is always an eng employee; alice only in half the repairs.
        assert!(consistent.contains(&Tuple::from_iter([Value::text("bob")])));
        assert!(!consistent.contains(&Tuple::from_iter([Value::text("alice")])));
        assert!(possible.contains(&Tuple::from_iter([Value::text("alice")])));
    }

    #[test]
    fn fd_repairs_group_by_dependent_values() {
        // DEPT → LOCATION with two conflicting locations for eng.
        let schema = Schema::new("Dept", &["DEPT", "LOCATION"]).unwrap();
        let mut rel = Relation::new(schema);
        rel.push_values([Value::text("eng"), Value::text("vienna")])
            .unwrap();
        rel.push_values([Value::text("eng"), Value::text("vienna")])
            .unwrap();
        rel.push_values([Value::text("eng"), Value::text("oxford")])
            .unwrap();
        rel.push_values([Value::text("hr"), Value::text("ithaca")])
            .unwrap();
        let (wsd, report) = repair_fd_violations(&rel, &["DEPT"], &["LOCATION"]).unwrap();
        assert_eq!(report.repair_count, 2);
        assert_eq!(report.clean_tuples, 1);
        // One repair keeps the vienna location for eng, the other oxford;
        // both keep the clean hr tuple (worlds are sets, so the duplicate
        // vienna tuple collapses into one).
        let worlds = wsd.enumerate_worlds(10).unwrap();
        assert_eq!(worlds.len(), 2);
        let eng_location = |db: &ws_relational::Database| {
            db.relation("Dept")
                .unwrap()
                .rows()
                .iter()
                .find(|r| r[0] == Value::text("eng"))
                .map(|r| r[1].clone())
                .unwrap()
        };
        let mut locations: Vec<Value> = worlds.iter().map(|(db, _)| eng_location(db)).collect();
        locations.sort();
        assert_eq!(
            locations,
            vec![Value::text("oxford"), Value::text("vienna")]
        );
        for (db, _) in &worlds {
            assert!(db.relation("Dept").unwrap().contains(&Tuple::from_iter([
                Value::text("hr"),
                Value::text("ithaca")
            ])));
        }
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let rel = dirty_employees();
        assert!(repair_fd_violations(&rel, &[], &["DEPT"]).is_err());
        assert!(repair_fd_violations(&rel, &["EMP"], &[]).is_err());
        assert!(repair_key_violations(&rel, &["EMP", "DEPT", "SALARY"]).is_err());
        assert!(repair_key_violations(&rel, &["NOPE"]).is_err());
    }
}
