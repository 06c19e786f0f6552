//! Parallel-executor identity and (ε, δ)-approximation accuracy.
//!
//! Two properties of the PR-2 parallel subsystem, checked on the same random
//! well-typed plans as `tests/engine_equivalence.rs`:
//!
//! 1. **Thread-count identity** — for threads ∈ {2, 4, 8}, every backend's
//!    result is identical to `threads = 1`: bit-identical rows *and row
//!    order* for the single-world `Database` backend (whose operators
//!    actually fan out), and identical possible-tuple sets plus world counts
//!    for the world-set backends driven through the same executor.
//! 2. **Approximation accuracy** — the Monte-Carlo confidence estimators
//!    land within ε of the exact §6 algorithm, on tuple-independent WSDs
//!    (every field its own component) and on small-component WSDs
//!    (components spanning tuples, as in the paper's running example).

use std::collections::BTreeSet;

use maybms::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{random_wsd, Generator};

fn thread_counts() -> [usize; 3] {
    [2, 4, 8]
}

#[test]
fn parallel_executor_output_is_identical_to_serial() {
    let mut rng = StdRng::seed_from_u64(0x9A51);
    let mut generator = Generator::new(0x7EAD5);
    for round in 0..15 {
        let wsd = random_wsd(&mut rng);
        let plan = generator.expr(rng.gen_range(1..=3usize), round % 3 == 0);
        let query = &plan.expr;

        // Single-world backend: rows and row order must be bit-identical.
        let (world, _) = wsd.enumerate_worlds(1 << 20).unwrap().remove(0);
        let mut serial_db = world.clone();
        let out =
            evaluate_query_with(&mut serial_db, query, "OUT", EngineConfig::default()).unwrap();
        let serial_rows = serial_db.relation(&out).unwrap().rows().to_vec();

        // WSD backend: possible tuples and world count as the serial anchor.
        let mut serial_wsd = wsd.clone();
        evaluate_query_with(&mut serial_wsd, query, "OUT", EngineConfig::default()).unwrap();
        let serial_possible = maybms::core::confidence::possible(&serial_wsd, "OUT")
            .unwrap()
            .row_set();
        let serial_worlds = serial_wsd.world_count();

        for threads in thread_counts() {
            let config = EngineConfig::with_threads(threads);

            let mut db = world.clone();
            let out = evaluate_query_with(&mut db, query, "OUT", config).unwrap();
            assert_eq!(
                db.relation(&out).unwrap().rows(),
                &serial_rows[..],
                "[{threads} threads] Database rows (or order) changed for {query}"
            );

            let mut wsd_backend = wsd.clone();
            evaluate_query_with(&mut wsd_backend, query, "OUT", config).unwrap();
            assert_eq!(
                maybms::core::confidence::possible(&wsd_backend, "OUT")
                    .unwrap()
                    .row_set(),
                serial_possible,
                "[{threads} threads] WSD possible tuples changed for {query}"
            );
            assert_eq!(wsd_backend.world_count(), serial_worlds);
        }
    }
}

#[test]
fn database_fan_out_is_identical_across_threads_at_morsel_boundaries() {
    // The executor fans contiguous 1024-row morsels out to the worker pool;
    // relations sized right at the boundary (and an all-filtering selection,
    // whose morsels all come back empty) must produce the reference answer
    // and bit-identical rows at every thread count.
    let morsel = maybms::relational::par::MORSEL_ROWS;
    for n in [0usize, 1, morsel - 1, morsel, morsel + 1, 2 * morsel + 452] {
        let mut r = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        for i in 0..n {
            r.push_values([i as i64, (i % 11) as i64]).unwrap();
        }
        let mut db = Database::new();
        db.insert_relation(r);

        let queries = [
            RaExpr::rel("R").select(Predicate::cmp_const("B", CmpOp::Lt, 4i64)),
            RaExpr::rel("R").select(Predicate::eq_const("B", 99i64)),
            RaExpr::rel("R")
                .select(Predicate::cmp_attr("A", CmpOp::Gt, "B"))
                .project(vec!["B"]),
        ];
        for query in &queries {
            let mut serial_db = db.clone();
            let out =
                evaluate_query_with(&mut serial_db, query, "OUT", EngineConfig::default()).unwrap();
            let serial = serial_db.relation(&out).unwrap().clone();
            let mut answer = serial.clone();
            answer.dedup();
            let reference = maybms::relational::evaluate_set(&db, query).unwrap();
            assert!(
                reference.set_eq(&answer),
                "n={n}: answer differs from the reference for {query}"
            );

            for threads in [2usize, 4] {
                let mut par_db = db.clone();
                let config = EngineConfig::with_threads(threads);
                let out = evaluate_query_with(&mut par_db, query, "OUT", config).unwrap();
                assert_eq!(
                    par_db.relation(&out).unwrap().rows(),
                    serial.rows(),
                    "n={n} threads={threads}: rows (or order) changed for {query}"
                );
            }
        }
    }
}

/// A tuple-independent WSD: every field is its own component, so tuples are
/// pairwise independent (the or-set / tuple-independent baseline shape).
fn tuple_independent_wsd(rng: &mut StdRng) -> Wsd {
    let mut wsd = Wsd::new();
    let tuples = 4usize;
    wsd.register_relation("T", &["A", "B"], tuples).unwrap();
    for t in 0..tuples {
        for attr in ["A", "B"] {
            let field = FieldId::new("T", t, attr);
            if rng.gen_bool(0.5) {
                let n = rng.gen_range(2..=3usize);
                let mut alternatives: BTreeSet<i64> = BTreeSet::new();
                while alternatives.len() < n {
                    alternatives.insert(rng.gen_range(0..5i64));
                }
                wsd.set_uniform(field, alternatives.into_iter().map(Value::int).collect())
                    .unwrap();
            } else {
                wsd.set_certain(field, Value::int(rng.gen_range(0..5i64)))
                    .unwrap();
            }
        }
    }
    wsd.validate().unwrap();
    wsd
}

#[test]
fn approximate_confidence_is_within_epsilon_of_exact() {
    let mut rng = StdRng::seed_from_u64(0xAB5);
    let config = ApproxConfig::new(0.03, 0.01);
    let pool = WorkerPool::new(4);

    // Tuple-independent WSDs (every field independent) …
    let mut cases: Vec<(&str, Wsd)> = (0..3)
        .map(|_| ("tuple-independent", tuple_independent_wsd(&mut rng)))
        .collect();
    // … and small-component WSDs: the paper's running example, whose SSN
    // component spans both tuples, plus random correlated WSDs.
    cases.push(("census example", maybms::core::wsd::example_census_wsd()));

    for (label, wsd) in &cases {
        let relation = wsd.relation_names()[0].to_string();
        let exact = possible_with_confidence(wsd, &relation).unwrap();
        assert!(!exact.is_empty(), "{label}: no possible tuples");
        for (tuple, exact_conf) in &exact {
            for estimate in [
                maybms::core::confidence::approx::conf(wsd, &relation, tuple, &config).unwrap(),
                maybms::core::confidence::approx::conf_with(wsd, &relation, tuple, &config, &pool)
                    .unwrap(),
            ] {
                assert!(
                    (estimate - exact_conf).abs() <= config.epsilon,
                    "{label}: approx conf({tuple}) = {estimate}, exact = {exact_conf}"
                );
            }
        }

        // The U-relational estimator agrees with the U-relational exact
        // evaluator on the same world-set.
        let udb = maybms::urel::from_wsd(wsd).unwrap();
        let exact_u = maybms::urel::possible_with_confidence(&udb, &relation).unwrap();
        let approx_u = maybms::urel::confidence::approx::possible_with_confidence_with(
            &udb, &relation, &config, &pool,
        )
        .unwrap();
        assert_eq!(exact_u.len(), approx_u.len());
        for ((t1, exact_conf), (t2, estimate)) in exact_u.iter().zip(approx_u.iter()) {
            assert_eq!(t1, t2);
            assert!(
                (estimate - exact_conf).abs() <= config.epsilon,
                "{label}: U-rel approx conf({t1}) = {estimate}, exact = {exact_conf}"
            );
        }
    }
}

#[test]
fn approximate_confidence_is_thread_count_invariant_end_to_end() {
    // One correlated query answer, estimated at every thread count: the
    // (ε, δ) sampler must return the identical estimate.
    let mut wsd = maybms::core::wsd::example_census_wsd();
    maybms::relational::evaluate_query(&mut wsd, &RaExpr::rel("R").project(vec!["S"]), "Q")
        .unwrap();
    let config = ApproxConfig::default();
    let serial =
        maybms::core::confidence::approx::possible_with_confidence(&wsd, "Q", &config).unwrap();
    for threads in thread_counts() {
        let pool = WorkerPool::new(threads);
        let parallel = maybms::core::confidence::approx::possible_with_confidence_with(
            &wsd, "Q", &config, &pool,
        )
        .unwrap();
        assert_eq!(parallel, serial, "estimate drifted at {threads} threads");
    }
}
