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
//! 2. **Approximation accuracy** — `Session::confidence_approx`, the one
//!    Monte-Carlo estimator, lands within ε of the exact §6 algorithm on WSDs
//!    and their U-relations, tuple-independent (every field its own
//!    component) and small-component (components spanning tuples, as in the
//!    paper's running example), and its estimates are bit-identical at every
//!    thread count.

use std::collections::BTreeSet;

use maybms::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{all_backends, random_wsd, Generator};

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

/// `query`'s approximate confidences through a session over `backend` at
/// `threads` worker threads.
fn approx_rows(
    backend: AnyBackend,
    query: &RaExpr,
    config: &ApproxConfig,
    threads: usize,
) -> Vec<(Tuple, f64)> {
    let mut session = Session::with_config(backend, EngineConfig::with_threads(threads));
    let prepared = session.prepare(query.clone()).unwrap();
    session.confidence_approx(&prepared, config).unwrap()
}

#[test]
fn approximate_confidence_is_within_epsilon_of_exact() {
    let mut rng = StdRng::seed_from_u64(0xAB5);
    let config = ApproxConfig::new(0.03, 0.01);

    // Tuple-independent WSDs (every field independent) …
    let mut cases: Vec<(&str, Wsd)> = (0..3)
        .map(|_| ("tuple-independent", tuple_independent_wsd(&mut rng)))
        .collect();
    // … and small-component WSDs: the paper's running example, whose SSN
    // component spans both tuples, plus random correlated WSDs.
    cases.push(("census example", maybms::core::wsd::example_census_wsd()));

    for (label, wsd) in &cases {
        let relation = wsd.relation_names()[0].to_string();
        let query = RaExpr::rel(relation.as_str());
        // The one estimator answers both the WSD and its U-relational
        // translation, serial and fanned out, against each one's exact
        // enumerator.
        let backends = [
            ("wsd", AnyBackend::from(wsd.clone())),
            (
                "urel",
                AnyBackend::from(maybms::urel::from_wsd(wsd).unwrap()),
            ),
        ];
        for (name, backend) in backends {
            let mut exact_session = Session::over(backend.clone());
            exact_session.set_confidence_strategy(ConfidenceStrategy::ExactOnly);
            let prepared = exact_session.prepare(query.clone()).unwrap();
            let exact = exact_session.confidence(&prepared).unwrap();
            assert!(!exact.is_empty(), "{label}: no possible tuples");
            for threads in [1usize, 4] {
                let approx = approx_rows(backend.clone(), &query, &config, threads);
                assert_eq!(
                    exact.len(),
                    approx.len(),
                    "{label} {name}: tuple sets differ"
                );
                for ((tuple, exact_conf), (t2, estimate)) in exact.iter().zip(&approx) {
                    assert_eq!(tuple, t2, "{label} {name}: tuple order differs");
                    assert!(
                        (estimate - exact_conf).abs() <= config.epsilon,
                        "{label} {name} ({threads} threads): approx conf({tuple}) = \
                         {estimate}, exact = {exact_conf}"
                    );
                }
            }
        }
    }
}

#[test]
fn approximate_confidence_is_thread_count_invariant_end_to_end() {
    // One correlated query answer, estimated at every thread count on every
    // backend: the (ε, δ) estimator must return the identical estimates.
    let wsd = maybms::core::wsd::example_census_wsd();
    let query = RaExpr::rel("R").project(vec!["S"]);
    let config = ApproxConfig::default();
    for (name, backend) in all_backends(&wsd) {
        let serial = approx_rows(backend.clone(), &query, &config, 1);
        assert!(!serial.is_empty());
        for threads in thread_counts() {
            let parallel = approx_rows(backend.clone(), &query, &config, threads);
            let bits = |rows: &[(Tuple, f64)]| -> Vec<(Tuple, u64)> {
                rows.iter().map(|(t, c)| (t.clone(), c.to_bits())).collect()
            };
            assert_eq!(
                bits(&parallel),
                bits(&serial),
                "{name}: estimate drifted at {threads} threads"
            );
        }
    }
}
