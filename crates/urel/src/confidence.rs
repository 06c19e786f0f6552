//! Exact confidence computation on U-relations.
//!
//! The confidence of a tuple is the probability of its lineage: the
//! disjunction ([`Dnf`]) of the clauses of the rows carrying it.  [`conf`]
//! and [`possible_with_confidence`] compute it exactly by
//! [`enumerate_probability`]: the joint assignments of the variables the DNF
//! mentions (all other variables marginalize out), up to
//! [`DEFAULT_ENUM_LIMIT`] assignments.  This is U-relations' native exact
//! path.  Exact computation is #P-hard in general; the (ε, δ) estimate runs
//! on the same DNFs through `maybms::Session::confidence_approx` and the one
//! Monte-Carlo estimator, `ws_relational::approx`.

use std::collections::BTreeMap;

use ws_relational::lineage::enumerate::DEFAULT_ENUM_LIMIT;
use ws_relational::lineage::{enumerate_probability, Dnf, LineageRelation};
use ws_relational::Tuple;

use crate::database::UDatabase;
use crate::error::Result;

/// The DNF of `tuple` in `relation`: the clauses of its rows (empty when
/// the tuple is impossible).
fn dnf_of(udb: &UDatabase, relation: &str, tuple: &Tuple) -> Result<Dnf> {
    Ok(udb
        .relation(relation)?
        .rows()
        .iter()
        .filter(|(t, _)| t == tuple)
        .map(|(_, clause)| clause.clone())
        .collect())
}

/// Every possible tuple of `relation` with its DNF, in `Tuple` order.
fn dnfs_of(relation: &LineageRelation) -> Vec<(&Tuple, Dnf)> {
    let mut groups: BTreeMap<&Tuple, Dnf> = BTreeMap::new();
    for (tuple, clause) in relation.rows() {
        groups.entry(tuple).or_default().push(clause.clone());
    }
    groups.into_iter().collect()
}

/// Exact confidence of `tuple` in `relation`.
pub fn conf(udb: &UDatabase, relation: &str, tuple: &Tuple) -> Result<f64> {
    let dnf = dnf_of(udb, relation, tuple)?;
    Ok(enumerate_probability(&dnf, udb.vars(), DEFAULT_ENUM_LIMIT)?)
}

/// The possible tuples of a relation together with their exact confidences.
pub fn possible_with_confidence(udb: &UDatabase, relation: &str) -> Result<Vec<(Tuple, f64)>> {
    dnfs_of(udb.relation(relation)?)
        .into_iter()
        .map(|(tuple, dnf)| {
            let conf = enumerate_probability(&dnf, udb.vars(), DEFAULT_ENUM_LIMIT)?;
            Ok((tuple.clone(), conf))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::from_wsd;
    use ws_core::wsd::example_census_wsd;
    use ws_relational::engine::evaluate_query;
    use ws_relational::{Predicate, RaExpr, Value};

    #[test]
    fn example11_projection_confidences_match_the_paper() {
        // Q = π_S(R) over the Fig. 4 WSD: conf(185)=0.6, conf(186)=0.6,
        // conf(785)=0.8 (Example 11).
        let mut udb = from_wsd(&example_census_wsd()).unwrap();
        evaluate_query(&mut udb, &RaExpr::rel("R").project(vec!["S"]), "Q").unwrap();
        for (value, expected) in [(185i64, 0.6), (186, 0.6), (785, 0.8)] {
            let t = Tuple::from_iter([Value::int(value)]);
            let c = conf(&udb, "Q", &t).unwrap();
            assert!(
                (c - expected).abs() < 1e-9,
                "conf({value}) = {c}, want {expected}"
            );
        }
    }

    #[test]
    fn confidence_matches_the_wsd_layer_on_query_answers() {
        let wsd = example_census_wsd();
        let mut udb = from_wsd(&wsd).unwrap();
        let query = RaExpr::rel("R")
            .select(Predicate::eq_const("M", 1i64))
            .project(vec!["S", "M"]);
        evaluate_query(&mut udb, &query, "Q").unwrap();

        let mut wsd_q = wsd.clone();
        evaluate_query(&mut wsd_q, &query, "Q").unwrap();
        let expected = ws_core::confidence::possible_with_confidence(&wsd_q, "Q").unwrap();
        assert!(!expected.is_empty());
        let ours = possible_with_confidence(&udb, "Q").unwrap();
        assert_eq!(ours.len(), expected.len());
        for (tuple, c) in expected {
            let mine = conf(&udb, "Q", &tuple).unwrap();
            assert!((mine - c).abs() < 1e-9, "conf({tuple}) = {mine}, want {c}");
        }
    }

    #[test]
    fn missing_and_certain_tuples() {
        let udb = from_wsd(&example_census_wsd()).unwrap();
        let absent = Tuple::from_iter([Value::int(999), Value::text("Nobody"), Value::int(1)]);
        assert_eq!(conf(&udb, "R", &absent).unwrap(), 0.0);
        assert!(conf(&udb, "NOPE", &absent).is_err());

        // A certain tuple (empty clause) has confidence one.
        let mut rel =
            ws_relational::Relation::new(ws_relational::Schema::new("S", &["X"]).unwrap());
        rel.push_values([5i64]).unwrap();
        let mut wsd = ws_core::Wsd::new();
        wsd.add_certain_relation(&rel).unwrap();
        let udb2 = from_wsd(&wsd).unwrap();
        let five = Tuple::from_iter([5i64]);
        assert_eq!(conf(&udb2, "S", &five).unwrap(), 1.0);
    }
}
