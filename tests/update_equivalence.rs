//! The differential update oracle: randomized interleaved update/query
//! sequences applied through `Session::{apply, condition}` on every
//! possible-worlds backend, checked step by step against hand-rolled
//! per-world semantics on the explicitly enumerated world list
//! (`tests/common::oracle_apply_update`).
//!
//! Every backend must be *bit-identical* to the oracle: the sorted possible
//! answer tuples of every interleaved query agree, conditioning reports the
//! same surviving mass, and an update sequence that empties the world-set is
//! reported as inconsistent by every backend at the same step.  Queries
//! prepared before an update stay in the session's plan cache, so later
//! steps also run cached plans over the updated store.

use std::collections::BTreeSet;

use maybms::prelude::*;
use maybms::{q, Session, UpdateExpr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{
    all_backends, assert_valid, census_queries, census_uwsdt, oracle_apply_update,
    oracle_possible_query, random_census_update, random_update, random_wsd, Generator,
};

/// One step of an interleaved sequence.
enum Step {
    Update(UpdateExpr),
    Query(RaExpr),
}

/// What the per-world oracle says happens at each step.
enum Expected {
    /// The update applies, surviving with this mass.
    Mass(f64),
    /// Conditioning empties the world-set: the backend must error with an
    /// inconsistency diagnosis and the round stops here.
    Inconsistent,
    /// The query's possible answer tuples.
    Possible(BTreeSet<Tuple>),
}

/// Generate a random interleaved sequence and its oracle verdicts.
fn generate_round(
    rng: &mut StdRng,
    generator: &mut Generator,
    wsd: &Wsd,
) -> (Vec<Step>, Vec<Expected>) {
    let mut worlds = wsd.enumerate_worlds(1 << 20).unwrap();
    let mut steps = Vec::new();
    let mut expected = Vec::new();
    let mut fractional_inserts = 0usize;
    let n_steps = rng.gen_range(3..=6usize);
    for i in 0..n_steps {
        // Interleave: updates and queries in random order, always ending on
        // a query so every round checks post-update state.
        let is_query = i + 1 == n_steps || rng.gen_bool(0.35);
        if is_query {
            // Difference-free so U-relations stay comparable.
            let plan = generator.expr(rng.gen_range(1..=2usize), false);
            expected.push(Expected::Possible(oracle_possible_query(
                &worlds, &plan.expr,
            )));
            steps.push(Step::Query(plan.expr));
            continue;
        }
        // Cap world-doubling fractional inserts so the oracle stays small.
        let allow_fractional = fractional_inserts < 2;
        let update = if rng.gen_bool(0.06) {
            // An unsatisfiable constraint: R's values live in 0..5 and every
            // world keeps at least one R tuple only if nothing was deleted —
            // so first make sure one exists, then demand the impossible.
            let anchor = UpdateExpr::insert("R", Tuple::from_iter([2i64, 2]));
            oracle_apply_update(&mut worlds, &anchor).unwrap();
            steps.push(Step::Update(anchor));
            expected.push(Expected::Mass(1.0));
            UpdateExpr::condition(vec![Dependency::Egd(
                EqualityGeneratingDependency::implies("R", "A", 2i64, "B", CmpOp::Gt, 100i64),
            )])
        } else {
            random_update(generator, rng, allow_fractional, true)
        };
        if matches!(&update, UpdateExpr::InsertPossible { prob, .. } if *prob > 0.0 && *prob < 1.0)
        {
            fractional_inserts += 1;
        }
        match oracle_apply_update(&mut worlds, &update) {
            Some(mass) => expected.push(Expected::Mass(mass)),
            None => {
                expected.push(Expected::Inconsistent);
                steps.push(Step::Update(update));
                return (steps, expected);
            }
        }
        steps.push(Step::Update(update));
    }
    (steps, expected)
}

/// Replay one sequence on one backend session, asserting each step against
/// the oracle verdicts.  A query prepared before an update stays cached, so
/// later steps also check that a cached plan reads the updated store.
fn replay(label: &str, backend: AnyBackend, steps: &[Step], expected: &[Expected]) {
    let mut session = Session::new(backend);
    for (step, verdict) in steps.iter().zip(expected) {
        match (step, verdict) {
            (Step::Update(update), Expected::Mass(mass)) => {
                let reported = session
                    .apply(update)
                    .unwrap_or_else(|e| panic!("[{label}] {update} failed: {e}"));
                assert!(
                    (reported - mass).abs() < 1e-9,
                    "[{label}] {update}: mass {reported} vs oracle {mass}"
                );
                assert_valid(session.backend(), &format!("{label}: {update}"));
            }
            (Step::Update(update), Expected::Inconsistent) => {
                let err = session
                    .apply(update)
                    .expect_err("oracle says the world-set became empty");
                assert!(
                    err.is_inconsistent(),
                    "[{label}] {update}: expected an inconsistency error, got {err}"
                );
                assert_valid(session.backend(), &format!("{label}: {update}"));
                return;
            }
            (Step::Query(query), Expected::Possible(oracle)) => {
                let prepared = session
                    .prepare(query)
                    .unwrap_or_else(|e| panic!("[{label}] prepare {query} failed: {e}"));
                let rows: BTreeSet<Tuple> = session
                    .execute(&prepared)
                    .unwrap_or_else(|e| panic!("[{label}] execute {query} failed: {e}"))
                    .collect();
                assert_eq!(
                    &rows, oracle,
                    "[{label}] possible answers of {query} diverge from the oracle"
                );
            }
            _ => unreachable!("steps and verdicts are generated in lockstep"),
        }
    }
}

#[test]
fn all_backends_agree_with_the_update_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0DDC0FFE);
    let mut generator = Generator::new(0x5EED6);
    let mut conditioned_rounds = 0usize;
    let mut inconsistent_rounds = 0usize;
    // 50 replayed interleaved sequences per backend.
    for _ in 0..50 {
        let wsd = random_wsd(&mut rng);
        let (steps, expected) = generate_round(&mut rng, &mut generator, &wsd);
        conditioned_rounds += steps
            .iter()
            .any(|s| matches!(s, Step::Update(UpdateExpr::Condition { .. })))
            as usize;
        inconsistent_rounds +=
            expected.iter().any(|e| matches!(e, Expected::Inconsistent)) as usize;
        for (name, backend) in all_backends(&wsd) {
            if name == "database" {
                // The single world cannot represent fractional inserts or
                // survive multi-world conditioning; it has its own
                // differential test below.
                continue;
            }
            replay(name, backend, &steps, &expected);
        }
    }
    assert!(
        conditioned_rounds > 5,
        "the generator produced too few conditioning steps"
    );
    assert!(
        inconsistent_rounds > 0,
        "no round exercised the inconsistent outcome"
    );
}

/// A random interleaved sequence on a census-shaped store and its oracle
/// verdicts: census updates, with Q1–Q6 and a placeholder selection as the
/// queries.  At most one possible insert doubles the enumerated worlds.
fn generate_census_round(rng: &mut StdRng, uwsdt: &Uwsdt) -> (Vec<Step>, Vec<Expected>) {
    let mut worlds = uwsdt.enumerate_worlds(1 << 20).unwrap();
    let queries = census_queries(rng, uwsdt);
    let mut steps = Vec::new();
    let mut expected = Vec::new();
    let mut fractional = false;
    let n_steps = rng.gen_range(3..=6usize);
    for i in 0..n_steps {
        if i + 1 == n_steps || rng.gen_bool(0.35) {
            let query = queries[rng.gen_range(0..queries.len())].clone();
            expected.push(Expected::Possible(oracle_possible_query(&worlds, &query)));
            steps.push(Step::Query(query));
            continue;
        }
        let update = random_census_update(rng, uwsdt, !fractional);
        fractional |= matches!(update, UpdateExpr::InsertPossible { .. });
        let verdict = match oracle_apply_update(&mut worlds, &update) {
            Some(mass) => Expected::Mass(mass),
            None => Expected::Inconsistent,
        };
        let inconsistent = matches!(verdict, Expected::Inconsistent);
        steps.push(Step::Update(update));
        expected.push(verdict);
        if inconsistent {
            break;
        }
    }
    (steps, expected)
}

/// The census shape the benchmark serves — a chased UWSDT with
/// presence-conditioned templates — against world enumeration; every update
/// must leave a UWSDT that validates.
#[test]
fn census_shaped_stores_agree_with_the_update_oracle() {
    let mut rng = StdRng::seed_from_u64(0xCE05_0DDC);
    let mut conditioned_rounds = 0usize;
    for round in 0..8 {
        let uwsdt = census_uwsdt(&mut rng);
        let (steps, expected) = generate_census_round(&mut rng, &uwsdt);
        conditioned_rounds += steps
            .iter()
            .any(|s| matches!(s, Step::Update(UpdateExpr::Condition { .. })))
            as usize;
        let label = format!("census round {round}");
        replay(&label, uwsdt.into(), &steps, &expected);
    }
    assert!(
        conditioned_rounds > 0,
        "no census round conditioned on the dependencies"
    );
}

#[test]
fn the_single_world_backend_agrees_on_certain_updates() {
    let mut rng = StdRng::seed_from_u64(0xDBDBDB);
    let mut generator = Generator::new(0x5EED7);
    for _ in 0..40 {
        let wsd = random_wsd(&mut rng);
        let first_world = wsd.enumerate_worlds(1 << 20).unwrap()[0].0.clone();
        // Its oracle is the degenerate one-world list.
        let mut worlds = vec![(first_world.clone(), 1.0)];
        let mut steps = Vec::new();
        let mut expected = Vec::new();
        for i in 0..4 {
            if i == 3 {
                let plan = generator.expr(2, true);
                expected.push(Expected::Possible(oracle_possible_query(
                    &worlds, &plan.expr,
                )));
                steps.push(Step::Query(plan.expr));
                break;
            }
            let update = random_update(&mut generator, &mut rng, false, true);
            match oracle_apply_update(&mut worlds, &update) {
                Some(mass) => expected.push(Expected::Mass(mass)),
                None => {
                    expected.push(Expected::Inconsistent);
                    steps.push(Step::Update(update));
                    break;
                }
            }
            steps.push(Step::Update(update));
        }
        replay("database", AnyBackend::from(first_world), &steps, &expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Property: for any random WSD and any random update, applying the
    // update and then conditioning on the tautology ⊤ changes nothing and
    // reports mass 1 — on every multi-world backend.
    #[test]
    fn apply_then_tautological_condition_is_a_noop(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut generator = Generator::new(seed ^ 0x5EED8);
        let wsd = random_wsd(&mut rng);
        let update = random_update(&mut generator, &mut rng, true, false);
        for (name, backend) in all_backends(&wsd) {
            if name == "database" {
                continue;
            }
            let mut session = Session::over(backend);
            session.apply(&update).unwrap();
            assert_valid(session.backend(), &format!("{name}: {update}"));
            let snapshot = |session: &mut Session<AnyBackend>| {
                ["R", "S"]
                    .iter()
                    .map(|rel| {
                        let p = session.prepare(q(*rel)).unwrap();
                        session.execute(&p).unwrap().collect::<BTreeSet<Tuple>>()
                    })
                    .collect::<Vec<_>>()
            };
            let before = snapshot(&mut session);
            let mass = session.condition(&[]).unwrap();
            assert_valid(session.backend(), &format!("{name}: ⊤"));
            prop_assert_eq!(mass, 1.0, "[{}] ⊤ must not remove mass", name);
            let after = snapshot(&mut session);
            prop_assert_eq!(&before, &after, "[{}] conditioning on ⊤ changed {}", name, update);
        }
    }

    // Property: inserting a fresh tuple (certainly or possibly) and then
    // deleting exactly it restores the possible tuples of the relation.
    #[test]
    fn insert_then_delete_round_trips(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x101D);
        let wsd = random_wsd(&mut rng);
        // Values 9/9 are outside the generator's 0..5 domain, so the delete
        // predicate hits exactly the inserted tuple.
        let tuple = Tuple::from_iter([9i64, 9]);
        let pred = Predicate::and(vec![
            Predicate::eq_const("A", 9i64),
            Predicate::eq_const("B", 9i64),
        ]);
        for (name, backend) in all_backends(&wsd) {
            let mut session = Session::over(backend);
            let possible_r = |session: &mut Session<AnyBackend>| {
                let p = session.prepare(q("R")).unwrap();
                session.execute(&p).unwrap().collect::<BTreeSet<Tuple>>()
            };
            let before = possible_r(&mut session);
            let prob = if name == "database" || rng.gen_bool(0.5) {
                1.0
            } else {
                0.5
            };
            session
                .apply(&UpdateExpr::insert_possible("R", tuple.clone(), prob))
                .unwrap();
            assert_valid(session.backend(), &format!("{name}: insert"));
            prop_assert!(
                possible_r(&mut session).contains(&tuple),
                "[{}] the inserted tuple must be possible",
                name
            );
            session.apply(&UpdateExpr::delete("R", pred.clone())).unwrap();
            assert_valid(session.backend(), &format!("{name}: delete"));
            let after = possible_r(&mut session);
            prop_assert_eq!(&before, &after, "[{}] insert→delete must round-trip", name);
        }
    }
}
