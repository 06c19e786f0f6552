//! U-relations vs. WSDs: the two representations must describe the same
//! world-set, give the same possible query answers and the same tuple
//! confidences on positive relational algebra.

use maybms::prelude::*;
use maybms::urel;
use proptest::prelude::*;

/// Strategy: a small or-set relation R[A, B] with weighted alternatives.
fn orset_rows() -> impl Strategy<Value = Vec<Vec<Vec<i64>>>> {
    let field = proptest::collection::btree_set(0i64..4, 1..=3)
        .prop_map(|s| s.into_iter().collect::<Vec<i64>>());
    let row = proptest::collection::vec(field, 2);
    proptest::collection::vec(row, 1..=3)
}

fn wsd_from(rows: &[Vec<Vec<i64>>]) -> Wsd {
    let mut wsd = Wsd::new();
    wsd.register_relation("R", &["A", "B"], rows.len()).unwrap();
    for (t, row) in rows.iter().enumerate() {
        for (i, attr) in ["A", "B"].iter().enumerate() {
            let values: Vec<Value> = row[i].iter().map(|v| Value::int(*v)).collect();
            wsd.set_uniform(FieldId::new("R", t, *attr), values)
                .unwrap();
        }
    }
    wsd
}

fn positive_queries() -> Vec<RaExpr> {
    vec![
        RaExpr::rel("R").select(Predicate::eq_const("A", 1i64)),
        RaExpr::rel("R").project(vec!["A"]),
        RaExpr::rel("R").select(Predicate::cmp_attr("A", CmpOp::Eq, "B")),
        RaExpr::rel("R")
            .select(Predicate::cmp_const("A", CmpOp::Gt, 0i64))
            .project(vec!["B"])
            .union(RaExpr::rel("R").project(vec!["B"])),
        RaExpr::rel("R")
            .project(vec!["A"])
            .rename("A", "X")
            .product(RaExpr::rel("R").project(vec!["B"]).rename("B", "Y"))
            .select(Predicate::cmp_attr("X", CmpOp::Ne, "Y")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn u_relations_represent_the_same_world_set(rows in orset_rows()) {
        let wsd = wsd_from(&rows);
        let udb = urel::from_wsd(&wsd).unwrap();
        prop_assert_eq!(udb.world_count(), wsd.world_count());
        let wsd_worlds = wsd.enumerate_worlds(1 << 16).unwrap();
        let u_worlds = udb.enumerate_worlds(1 << 16).unwrap();
        prop_assert_eq!(wsd_worlds.len(), u_worlds.len());
        // Every WSD world appears in the U-relation enumeration with the same
        // total probability.
        for (db, p) in &wsd_worlds {
            let mass: f64 = u_worlds
                .iter()
                .filter(|(u, _)| u.relation("R").unwrap().set_eq(db.relation("R").unwrap()))
                .map(|(_, q)| q)
                .sum();
            let expected: f64 = wsd_worlds
                .iter()
                .filter(|(w, _)| w.relation("R").unwrap().set_eq(db.relation("R").unwrap()))
                .map(|(_, q)| q)
                .sum();
            prop_assert!((mass - expected).abs() < 1e-9, "{} vs {} (p={})", mass, expected, p);
        }
    }

    #[test]
    fn positive_queries_agree_between_wsd_and_u_relations(rows in orset_rows()) {
        let wsd = wsd_from(&rows);
        let udb = urel::from_wsd(&wsd).unwrap();
        for query in positive_queries() {
            // WSD evaluation.
            let mut wsd_q = wsd.clone();
            maybms::relational::evaluate_query(&mut wsd_q, &query, "Q").unwrap();
            let wsd_answers = possible_with_confidence(&wsd_q, "Q").unwrap();

            // U-relation evaluation.
            let mut udb_q = udb.clone();
            maybms::relational::evaluate_query(&mut udb_q, &query, "Q").unwrap();
            let urel_answers = urel::possible_with_confidence(&udb_q, "Q").unwrap();

            prop_assert_eq!(
                wsd_answers.len(),
                urel_answers.len(),
                "different possible-answer sets for {}",
                query
            );
            for (tuple, confidence) in &wsd_answers {
                let other = urel_answers
                    .iter()
                    .find(|(t, _)| t == tuple)
                    .map(|(_, c)| *c);
                prop_assert!(other.is_some(), "{} missing from the U-relation answer", tuple);
                prop_assert!(
                    (other.unwrap() - confidence).abs() < 1e-9,
                    "conf({}) differs: {} vs {}",
                    tuple,
                    confidence,
                    other.unwrap()
                );
            }
        }
    }

    #[test]
    fn monte_carlo_confidence_is_close_to_exact(rows in orset_rows()) {
        let wsd = wsd_from(&rows);
        let udb = urel::from_wsd(&wsd).unwrap();
        let exact = urel::possible_with_confidence(&udb, "R").unwrap();
        // δ = 1e-8 per tuple (≈ 3800 trials): a miss across every case is
        // vanishingly unlikely.
        let config = ApproxConfig::new(0.05, 1e-8).with_seed(11);
        let mut session = Session::new(udb);
        let prepared = session.prepare(RaExpr::rel("R")).unwrap();
        let approx = session.confidence_approx(&prepared, &config).unwrap();
        prop_assert_eq!(approx.len(), exact.len());
        for ((tuple, exact), (t2, estimate)) in exact.iter().zip(&approx) {
            prop_assert_eq!(tuple, t2);
            prop_assert!(
                (estimate - exact).abs() <= config.epsilon,
                "MC estimate {} too far from {}",
                estimate,
                exact
            );
        }
    }
}

#[test]
fn census_example_q5_style_join_agrees() {
    // A join of two projections of the running example, evaluated on both
    // representations (non-property smoke test with a fixed seed).
    let wsd = maybms::core::wsd::example_census_wsd();
    let udb = urel::from_wsd(&wsd).unwrap();
    let query = RaExpr::rel("R")
        .select(Predicate::eq_const("M", 1i64))
        .project(vec!["S"])
        .rename("S", "S1")
        .product(RaExpr::rel("R").project(vec!["S"]).rename("S", "S2"))
        .select(Predicate::cmp_attr("S1", CmpOp::Ne, "S2"));

    let mut wsd_q = wsd.clone();
    maybms::relational::evaluate_query(&mut wsd_q, &query, "Q").unwrap();
    let wsd_answers = possible_with_confidence(&wsd_q, "Q").unwrap();

    let mut udb_q = udb.clone();
    maybms::relational::evaluate_query(&mut udb_q, &query, "Q").unwrap();
    let urel_answers = urel::possible_with_confidence(&udb_q, "Q").unwrap();

    assert_eq!(wsd_answers.len(), urel_answers.len());
    for (tuple, confidence) in wsd_answers {
        let other = urel_answers
            .iter()
            .find(|(t, _)| *t == tuple)
            .map(|(_, c)| *c)
            .unwrap();
        assert!((other - confidence).abs() < 1e-9);
    }
}

#[test]
fn difference_queries_are_rejected_on_u_relations() {
    let wsd = maybms::core::wsd::example_census_wsd();
    let mut udb = urel::from_wsd(&wsd).unwrap();
    let query = RaExpr::rel("R").difference(RaExpr::rel("R"));
    assert!(maybms::relational::evaluate_query(&mut udb, &query, "Q").is_err());
}
