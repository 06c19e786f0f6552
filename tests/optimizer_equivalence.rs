//! The plan rewrites of the optimizer (§5-style selection pushdown and
//! operator merging) must never change query answers — neither on ordinary
//! one-world databases nor when the rewritten plan is evaluated over a
//! world-set representation.

use std::collections::BTreeSet;

use maybms::prelude::*;
use proptest::prelude::*;
use ws_relational::optimizer;

/// Row contents of two small relations R[A, B] and S[B2, C].
type TwoRelationRows = (Vec<(i64, i64)>, Vec<(i64, i64)>);

/// Strategy: contents of two small relations R[A, B] and S[B2, C].
fn database_rows() -> impl Strategy<Value = TwoRelationRows> {
    let r = proptest::collection::vec((0i64..5, 0i64..5), 0..6);
    let s = proptest::collection::vec((0i64..5, 0i64..5), 0..6);
    (r, s)
}

fn database_from(rows: &TwoRelationRows) -> Database {
    let mut db = Database::new();
    let mut r = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
    for (a, b) in &rows.0 {
        r.push(Tuple::from_iter([Value::int(*a), Value::int(*b)]))
            .unwrap();
    }
    let mut s = Relation::new(Schema::new("S", &["B2", "C"]).unwrap());
    for (b, c) in &rows.1 {
        s.push(Tuple::from_iter([Value::int(*b), Value::int(*c)]))
            .unwrap();
    }
    db.insert_relation(r);
    db.insert_relation(s);
    db
}

fn query_suite() -> Vec<RaExpr> {
    vec![
        // Join with pushable local conjuncts.
        RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(Predicate::and(vec![
                Predicate::cmp_attr("B", CmpOp::Eq, "B2"),
                Predicate::cmp_const("A", CmpOp::Gt, 1i64),
                Predicate::cmp_const("C", CmpOp::Lt, 4i64),
            ])),
        // Stacked selections + projections.
        RaExpr::rel("R")
            .select(Predicate::cmp_const("A", CmpOp::Ge, 1i64))
            .select(Predicate::cmp_const("B", CmpOp::Le, 3i64))
            .project(vec!["A", "B"])
            .project(vec!["B"]),
        // Selection over a union of renamed projections.
        RaExpr::rel("R")
            .project(vec!["B"])
            .union(RaExpr::rel("S").rename("B2", "B").project(vec!["B"]))
            .select(Predicate::cmp_const("B", CmpOp::Ne, 2i64)),
        // Selection over a difference.
        RaExpr::rel("R")
            .project(vec!["B"])
            .difference(RaExpr::rel("S").rename("B2", "B").project(vec!["B"]))
            .select(Predicate::cmp_const("B", CmpOp::Gt, 0i64)),
        // Disjunctive predicate (not decomposable into conjuncts).
        RaExpr::rel("R").select(Predicate::or(vec![
            Predicate::eq_const("A", 0i64),
            Predicate::eq_const("B", 4i64),
        ])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn optimized_plans_return_the_same_answers(rows in database_rows()) {
        let db = database_from(&rows);
        for query in query_suite() {
            let plain = ws_relational::evaluate_set(&db, &query).unwrap();
            let plan = optimizer::optimize(&db, &query).unwrap();
            let optimized = ws_relational::evaluate_set(&db, &plan).unwrap();
            prop_assert!(
                plain.set_eq(&optimized),
                "answers differ for {}: {} vs {} (plan {})",
                query, plain, optimized, plan
            );
            // The cost model stays finite and non-negative on every plan (it
            // is a heuristic, so no ordering between the two is asserted on
            // arbitrary — possibly empty — inputs).
            let before = optimizer::estimated_cost(&db, &query).unwrap();
            let after = optimizer::estimated_cost(&db, &plan).unwrap();
            prop_assert!(before.is_finite() && before >= 0.0);
            prop_assert!(after.is_finite() && after >= 0.0);
        }
    }
}

/// The Fig. 29 census queries plus an explicitly join-shaped one: married
/// people working in the state of their birth, paired with PhD holders of
/// the same state.
fn census_queries() -> Vec<(&'static str, RaExpr)> {
    let relation = maybms::census::RELATION_NAME;
    let mut queries = maybms::census::all_queries();
    queries.push((
        "QJ",
        RaExpr::rel(relation)
            .select(Predicate::eq_const("MARITAL", 1i64))
            .project(vec!["POWSTATE"])
            .rename("POWSTATE", "P1")
            .product(
                RaExpr::rel(relation)
                    .select(Predicate::eq_const("YEARSCH", 17i64))
                    .project(vec!["POWSTATE"])
                    .rename("POWSTATE", "P2"),
            )
            .select(Predicate::cmp_attr("P1", CmpOp::Eq, "P2")),
    ));
    queries
}

/// Evaluate `query` naively and its optimized `plan` through the default
/// pipeline on `backend`, and assert both have the same possible answers.
fn assert_same_possible_answers<B>(
    backend: &mut B,
    label: &str,
    name: &str,
    query: &RaExpr,
    plan: &RaExpr,
    possible: impl Fn(&B, &str) -> Vec<Tuple>,
) where
    B: ws_relational::QueryBackend,
    B::Error: std::fmt::Debug,
{
    // The plain arm must bypass the engine's default optimizing pipeline,
    // or both arms would execute the same rewritten plan.
    let out_plain = ws_relational::evaluate_query_with(
        backend,
        query,
        &format!("{name}_plain"),
        ws_relational::EngineConfig::naive(),
    )
    .unwrap();
    let out_opt = ws_relational::evaluate_query(backend, plan, &format!("{name}_opt")).unwrap();
    let plain: BTreeSet<Tuple> = possible(backend, &out_plain).into_iter().collect();
    let optimized: BTreeSet<Tuple> = possible(backend, &out_opt).into_iter().collect();
    assert_eq!(
        plain, optimized,
        "possible answers differ for {name} on {label}"
    );
}

#[test]
fn optimized_plans_agree_on_world_set_representations() {
    // Evaluate original and optimized census queries on small UWSDT,
    // U-relation and WSD stores and compare the possible answers — the
    // rewriting must commute with the possible-worlds semantics.  The WSD
    // keeps one component per field, so it gets a smaller, noisier slice
    // and a fresh copy per query.
    let scenario = CensusScenario::new(300, 0.002, 0xFEED);
    let world = scenario.one_world();
    let mut uwsdt = scenario.dirty_uwsdt().unwrap();
    let mut udb = ws_urel::from_wsd(&scenario.dirty_wsd().unwrap()).unwrap();
    let wsd = CensusScenario::new(60, 0.01, 0xFEED).dirty_wsd().unwrap();
    for (name, query) in census_queries() {
        let plan = optimizer::optimize(&world, &query).unwrap();
        assert_same_possible_answers(&mut uwsdt, "uwsdt", name, &query, &plan, |b, out| {
            ws_uwsdt::ops::possible_tuples(b, out).unwrap()
        });
        assert_same_possible_answers(&mut udb, "urel", name, &query, &plan, |b, out| {
            ws_urel::ops::possible_tuples(b, out).unwrap()
        });
        // Join-shaped plans force pairwise component compositions on WSDs —
        // the §4 blow-up U-relations avoid — so the WSD sits those out.
        if !matches!(name, "Q5" | "QJ") {
            assert_same_possible_answers(&mut wsd.clone(), "wsd", name, &query, &plan, |b, out| {
                ws_core::confidence::possible(b, out)
                    .unwrap()
                    .rows()
                    .to_vec()
            });
        }
    }
}

#[test]
fn one_world_census_queries_are_unchanged_by_optimization() {
    let scenario = CensusScenario::new(1_000, 0.0, 0xBEEF);
    let world = scenario.one_world();
    for (name, query) in census_queries() {
        let plain = ws_relational::evaluate_set(&world, &query).unwrap();
        let optimized = ws_relational::evaluate_optimized(&world, &query).unwrap();
        let mut optimized = optimized;
        optimized.dedup();
        assert!(plain.set_eq(&optimized), "answers differ for {name}");
        // The engine's physical operators, with and without the rewrites.
        for config in [EngineConfig::naive(), EngineConfig::default()] {
            let mut db = world.clone();
            let out = ws_relational::evaluate_query_with(&mut db, &query, "OUT", config).unwrap();
            assert!(
                plain.set_eq(db.relation(&out).unwrap()),
                "engine answers differ for {name} under {}",
                config.summary()
            );
        }
    }
}
