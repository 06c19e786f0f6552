//! Cross-backend equivalence of the unified query engine.
//!
//! Randomly generated (well-typed) relational-algebra plans are evaluated
//! through the shared `optimize → execute` pipeline on every backend — WSD,
//! UWSDT, U-relation, explicit world-set, and the single-world database —
//! and the sets of possible answer tuples are compared against the explicit
//! world-enumeration oracle, each plan both optimized and as written.  A
//! session arm sends the same plans through `Session::execute` on all five
//! backends, bare and durable, and checks the answer, its order and which
//! path answered.

use std::collections::BTreeSet;

use maybms::prelude::*;
use maybms::AnyBackend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{all_backends, evaluate_under, plan_has_difference, random_wsd, Generator};

/// Oracle: the possible answer tuples by explicit world enumeration, outside
/// the engine entirely.
fn oracle_possible(wsd: &Wsd, query: &RaExpr) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    for (db, _) in wsd.enumerate_worlds(1 << 20).unwrap() {
        let answer = maybms::relational::evaluate_set(&db, query).unwrap();
        out.extend(answer.rows().iter().cloned());
    }
    out
}

fn tuple_set(rows: &[Tuple]) -> BTreeSet<Tuple> {
    rows.iter().cloned().collect()
}

/// The two ways a plan reaches a backend: optimized, or as written.
fn arms() -> [(&'static str, bool); 2] {
    [("optimized", true), ("as written", false)]
}

/// Prepare `query` on `session` and execute it twice: both answers, which
/// must agree, and how many executes the lineage answered.
fn session_answer<B>(mut session: Session<B>, query: &RaExpr) -> maybms::Result<(Vec<Tuple>, u64)>
where
    B: SessionBackend,
    B::Error: Into<maybms::Error>,
{
    let prepared = session.prepare(query)?;
    let first: Vec<Tuple> = session.execute(&prepared)?.collect();
    let second: Vec<Tuple> = session.execute(&prepared)?.collect();
    assert_eq!(
        first, second,
        "a repeated execute changed the answer of {query}"
    );
    Ok((first, session.stats().exec_lineage))
}

/// The session arm: `Session::execute` on every backend, bare and durable,
/// lists `expected` (the oracle's set) in strictly increasing `Tuple` order.
/// Both executes come from the lineage on a positive plan over a world-set
/// backend, and neither does on the `Database` or on a plan with a
/// difference.  U-relations reject a difference on either path.
fn check_sessions(
    wsd: &Wsd,
    query: &RaExpr,
    oracle: &BTreeSet<Tuple>,
    single_world: &BTreeSet<Tuple>,
) {
    let has_difference = plan_has_difference(query);
    for (name, backend) in all_backends(wsd) {
        let is_database = matches!(backend, AnyBackend::Db(_));
        let is_urel = matches!(backend, AnyBackend::Urel(_));
        let expected = if is_database { single_world } else { oracle };
        let expected_lineage = if is_database || has_difference { 0 } else { 2 };
        let durable = Session::create_durable_on(Box::new(MemVfs::new()), backend.clone())
            .expect("in-memory store initializes");
        let sessions = [
            ("bare", session_answer(Session::over(backend), query)),
            ("durable", session_answer(durable, query)),
        ];
        for (arm, answer) in sessions {
            let context = format!("[session {arm} {name}] {query}");
            if is_urel && has_difference {
                assert!(
                    answer.is_err(),
                    "{context}: U-relations must reject a difference"
                );
                continue;
            }
            let (rows, exec_lineage) = answer.unwrap_or_else(|e| panic!("{context}: {e}"));
            assert!(
                rows.windows(2).all(|w| w[0] < w[1]),
                "{context}: rows not in strictly increasing Tuple order: {rows:?}"
            );
            assert_eq!(
                &tuple_set(&rows),
                expected,
                "{context}: disagrees with the oracle"
            );
            assert_eq!(exec_lineage, expected_lineage, "{context}: exec_lineage");
        }
    }
}

#[test]
fn all_backends_agree_with_the_world_enumeration_oracle() {
    let mut rng = StdRng::seed_from_u64(0xE9517A1E);
    let mut generator = Generator::new(0x5EED5);
    let mut difference_plans = 0usize;
    for round in 0..25 {
        let wsd = random_wsd(&mut rng);
        let allow_difference = round % 3 == 0;
        let plan = generator.expr(rng.gen_range(1..=3usize), allow_difference);
        let query = &plan.expr;
        let has_difference = plan_has_difference(query);
        difference_plans += has_difference as usize;
        let oracle = oracle_possible(&wsd, query);
        let (first_world, _) = &wsd.enumerate_worlds(1 << 20).unwrap()[0];
        let single_world = maybms::relational::evaluate_set(first_world, query).unwrap();
        check_sessions(&wsd, query, &oracle, &tuple_set(single_world.rows()));

        for (label, optimize) in arms() {
            // WSD backend.
            let mut wsd_backend = wsd.clone();
            let out = evaluate_under(&mut wsd_backend, query, "OUT", optimize).unwrap();
            let wsd_rows = maybms::core::prelude::possible(&wsd_backend, &out)
                .unwrap_or_else(|e| panic!("[{label}] WSD possible() failed for {query}: {e:?}"));
            assert_eq!(
                tuple_set(wsd_rows.rows()),
                oracle,
                "[{label}] WSD disagrees with the oracle for {query}"
            );

            // UWSDT backend.
            let mut uwsdt = maybms::uwsdt::from_wsd(&wsd).unwrap();
            let out = evaluate_under(&mut uwsdt, query, "OUT", optimize)
                .unwrap_or_else(|e| panic!("[{label}] UWSDT evaluation failed for {query}: {e:?}"));
            let uwsdt_rows = maybms::uwsdt::ops::possible_tuples(&uwsdt, &out).unwrap();
            assert_eq!(
                tuple_set(&uwsdt_rows),
                oracle,
                "[{label}] UWSDT disagrees with the oracle for {query}"
            );

            // U-relation backend (positive algebra only).
            let mut udb = maybms::urel::from_wsd(&wsd).unwrap();
            let urel_result = evaluate_under(&mut udb, query, "OUT", optimize);
            if has_difference {
                assert!(
                    urel_result.is_err(),
                    "[{label}] U-relations must reject the non-positive {query}"
                );
            } else {
                let out = urel_result.unwrap();
                let urel_rows = maybms::urel::ops::possible_tuples(&udb, &out).unwrap();
                assert_eq!(
                    tuple_set(&urel_rows),
                    oracle,
                    "[{label}] U-relations disagree with the oracle for {query}"
                );
            }

            // Explicit world-set backend — driven directly so this arm's
            // plan applies (query_worlds always optimizes).
            let mut ws_backend = wsd.rep().unwrap();
            evaluate_under(&mut ws_backend, query, "OUT", optimize).unwrap();
            let ws_rows = maybms::baselines::possible_tuples(&ws_backend, "OUT").unwrap();
            assert_eq!(
                tuple_set(&ws_rows),
                oracle,
                "[{label}] explicit worlds disagree with the oracle for {query}"
            );

            // Single-world backend: engine result equals the reference
            // evaluator in each individual world.
            let mut db = first_world.clone();
            let out = evaluate_under(&mut db, query, "OUT", optimize).unwrap();
            let mut engine_result = db.relation(&out).unwrap().clone();
            engine_result.dedup();
            assert!(
                single_world.set_eq(&engine_result),
                "[{label}] single-world engine disagrees with the evaluator for {query}"
            );
        }
    }
    assert!(
        difference_plans > 0,
        "the generator never produced a difference"
    );
}

/// A single-world database with `n` rows in `R` (plus a small join partner
/// `S`), for exercising the columnar executor's batch boundaries.
fn batch_boundary_db(n: usize) -> Database {
    let mut r = Relation::new(Schema::new("R", &["A", "B", "C"]).unwrap());
    for i in 0..n {
        r.push_values([i as i64, (i % 7) as i64, (i % 3) as i64])
            .unwrap();
    }
    let mut s = Relation::new(Schema::new("S", &["K", "D"]).unwrap());
    for k in 0..7i64 {
        s.push_values([k, k * 10]).unwrap();
    }
    let mut db = Database::new();
    db.insert_relation(r);
    db.insert_relation(s);
    db
}

/// Plans covering every columnar kernel: σ-chains (selective, all-filtering,
/// attribute-attribute), projections, product, the equi-join shape, union
/// and difference.
fn batch_boundary_plans() -> Vec<RaExpr> {
    vec![
        RaExpr::rel("R"),
        RaExpr::rel("R").select(Predicate::eq_const("B", 3i64)),
        // Filters every row out — an empty selection vector.
        RaExpr::rel("R").select(Predicate::eq_const("A", -1i64)),
        RaExpr::rel("R")
            .select(Predicate::cmp_const("B", CmpOp::Ge, 2i64))
            .select(Predicate::cmp_attr("B", CmpOp::Gt, "C")),
        RaExpr::rel("R").project(vec!["B", "A"]),
        RaExpr::rel("R")
            .select(Predicate::and(vec![
                Predicate::eq_const("C", 1i64),
                Predicate::or(vec![
                    Predicate::eq_const("B", 1i64),
                    Predicate::eq_const("B", 4i64),
                ]),
            ]))
            .project(vec!["C"]),
        // The equi-join shape, which the executor runs as a hash join.
        RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(Predicate::cmp_attr("B", CmpOp::Eq, "K")),
        RaExpr::rel("R")
            .project(vec!["B"])
            .union(RaExpr::rel("S").rename("K", "B").project(vec!["B"])),
        RaExpr::rel("R")
            .project(vec!["B"])
            .difference(RaExpr::rel("S").rename("K", "B").project(vec!["B"])),
    ]
}

// The `Database` executor's answers equal the reference evaluator at the
// batch boundaries, on each plan as written and optimized.
#[test]
fn columnar_and_row_paths_are_bit_identical_at_batch_boundaries() {
    // The empty relation, a single row, the sizes straddling 1024 rows, and
    // a relation of several thousand rows.
    for n in [0usize, 1, 1023, 1024, 1025, 2500] {
        let db = batch_boundary_db(n);
        for query in &batch_boundary_plans() {
            let reference = maybms::relational::evaluate_set(&db, query).unwrap();
            for optimize in [false, true] {
                let mut exec_db = db.clone();
                let out = evaluate_under(&mut exec_db, query, "OUT", optimize).unwrap();
                let mut answer = exec_db.relation(&out).unwrap().clone();
                answer.dedup();
                assert!(
                    reference.set_eq(&answer),
                    "n={n} optimize={optimize}: answer differs from the reference for {query}"
                );
            }
        }
    }
}
