//! Properties of the `maybms::Session` front door.
//!
//! * Every random well-typed plan round-trips through the fluent builder:
//!   rebuilding it combinator by combinator from `q` gives the same plan,
//!   and the same plan modulo normalization.
//! * Prepared re-execution is **bit-identical** to fresh evaluation: on all
//!   five backends, `prepare` + `execute` twice
//!   (the second prepare a guaranteed plan-cache hit) streams exactly the
//!   rows two independent engine evaluations produce — same tuples, same
//!   order.
//! * Errors keep their plan context across the dynamic backend.
//! * Prepared plans survive every update verb (insert, possible insert,
//!   delete, modify, condition): re-preparing is a cache hit, and the cached
//!   plan answers what a fresh session answers, on all five backends, bare
//!   and durable.
//! * Sessions leave the catalog as they found it: every read verb drops its
//!   result and intermediates on all five backends, bare and durable, and
//!   `apply` drops what `materialize` left behind.

use maybms::prelude::*;
use maybms::storage::MemVfs;
use maybms::{q, AnyBackend, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::{all_backends, random_wsd, rebuild_with_builder, Generator};

#[test]
fn every_generated_plan_round_trips_through_the_builder() {
    let mut rng = StdRng::seed_from_u64(0xB01D);
    let mut generator = Generator::new(0x0B01);
    for round in 0..200 {
        let plan = generator.expr(rng.gen_range(0..=3usize), true).expr;
        let rebuilt = rebuild_with_builder(&plan);
        // The builder adds no structure of its own…
        assert_eq!(rebuilt, plan, "round {round}: builder changed the tree");
        // …and the normalized (cache-key) forms agree as well.
        assert_eq!(
            maybms::relational::normalize_plan(&rebuilt),
            maybms::relational::normalize_plan(&plan),
            "round {round}: normalization disagrees"
        );
    }
}

/// Fresh evaluation through the engine, with the backend-appropriate
/// possible-tuple extraction — the pre-session calling convention.
fn fresh_possible(backend: &mut AnyBackend, query: &RaExpr) -> Vec<Tuple> {
    let out = evaluate_query(backend, query, "FRESH_OUT").unwrap();
    match backend {
        AnyBackend::Db(db) => {
            let mut rel = db.relation(&out).unwrap().clone();
            rel.dedup();
            rel.rows().to_vec()
        }
        AnyBackend::Wsd(wsd) => possible(wsd, &out).unwrap().rows().to_vec(),
        AnyBackend::Uwsdt(uwsdt) => maybms::uwsdt::ops::possible_tuples(uwsdt, &out).unwrap(),
        AnyBackend::Urel(udb) => maybms::urel::ops::possible_tuples(udb, &out).unwrap(),
        AnyBackend::Worlds(ws) => maybms::baselines::possible_tuples(ws, &out).unwrap(),
    }
}

#[test]
fn prepared_reexecution_is_bit_identical_to_fresh_evaluation() {
    let mut rng = StdRng::seed_from_u64(0x5E5510);
    let mut generator = Generator::new(0xCAC4E);
    for round in 0..8 {
        let wsd = random_wsd(&mut rng);
        // U-relations reject difference; keep the plans positive so all five
        // backends run them.
        let plan = generator.expr(rng.gen_range(1..=3usize), false).expr;
        for (name, backend) in all_backends(&wsd) {
            // Two *fresh* evaluations on two copies of the backend.
            let fresh_a = fresh_possible(&mut backend.clone(), &plan);
            let fresh_b = fresh_possible(&mut backend.clone(), &plan);
            assert_eq!(
                fresh_a, fresh_b,
                "[{name}] round {round}: fresh evaluation is not deterministic for {plan}"
            );

            // One session: prepare, execute, re-prepare (cache hit),
            // re-execute.
            let mut session = Session::new(backend);
            let p1 = session.prepare(rebuild_with_builder(&plan)).unwrap();
            let first: Vec<Tuple> = session.execute(&p1).unwrap().collect();
            let p2 = session.prepare(plan.clone()).unwrap();
            let second: Vec<Tuple> = session.execute(&p2).unwrap().collect();

            let stats = session.stats();
            assert_eq!(
                stats.cache_hits, 1,
                "[{name}] round {round}: re-preparing {plan} missed the cache"
            );
            assert_eq!(p1.plan(), p2.plan());
            assert_eq!(
                first, second,
                "[{name}] round {round}: cached re-execution differs for {plan}"
            );
            assert_eq!(
                first, fresh_a,
                "[{name}] round {round}: session differs from fresh evaluation for {plan}"
            );
        }
    }
}

#[test]
fn difference_fails_on_urel_with_plan_context() {
    let wsd = maybms::core::wsd::example_census_wsd();
    let plan = q("R").difference(q("R"));
    let mut session = Session::over(maybms::urel::from_wsd(&wsd).unwrap());
    let prepared = session.prepare(plan).unwrap();
    let err = session.execute(&prepared).unwrap_err();
    assert!(
        err.plan().is_some(),
        "execution errors must carry the plan: {err}"
    );
    assert!(matches!(err.kind(), maybms::ErrorKind::Urel(_)));
}

#[test]
fn confidence_and_streaming_agree_on_the_census_example() {
    let wsd = maybms::core::wsd::example_census_wsd();
    let query = q("R").select(Predicate::eq_const("M", 1i64)).project(["S"]);
    let mut reference: Option<Vec<(Tuple, f64)>> = None;
    for (name, backend) in all_backends(&wsd) {
        if matches!(backend, AnyBackend::Db(_)) {
            continue; // one world carries no distribution
        }
        let mut session = Session::over(backend);
        let prepared = session.prepare(query.clone()).unwrap();
        let streamed: Vec<Tuple> = session.execute(&prepared).unwrap().collect();
        let mut with_conf = session.confidence(&prepared).unwrap();
        with_conf.sort_by(|a, b| a.0.cmp(&b.0));
        let mut streamed_sorted = streamed;
        streamed_sorted.sort();
        assert_eq!(
            streamed_sorted,
            with_conf.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>(),
            "[{name}] confidence() and execute() disagree on the possible tuples"
        );
        match &reference {
            None => reference = Some(with_conf),
            Some(expected) => {
                assert_eq!(expected.len(), with_conf.len(), "[{name}] arity mismatch");
                for ((t1, c1), (t2, c2)) in expected.iter().zip(&with_conf) {
                    assert_eq!(t1, t2, "[{name}] tuples differ");
                    assert!(
                        (c1 - c2).abs() < 1e-9,
                        "[{name}] confidence differs on {t1}: {c1} vs {c2}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prepared plans across updates.
// ---------------------------------------------------------------------------

/// R(A, B) with two tuples and S(C) with two, where the functional
/// dependency `A → B` on R holds in some worlds but not in all: t0 = (1, 10
/// or 20), t1 = (2 or 1, 20), S = {1, 2 or 3}.
fn fd_wsd() -> Wsd {
    let mut wsd = Wsd::new();
    wsd.register_relation("R", &["A", "B"], 2).unwrap();
    wsd.register_relation("S", &["C"], 2).unwrap();
    let int = Value::int;
    wsd.set_certain(FieldId::new("R", 0, "A"), int(1)).unwrap();
    wsd.set_uniform(FieldId::new("R", 0, "B"), vec![int(10), int(20)])
        .unwrap();
    wsd.set_uniform(FieldId::new("R", 1, "A"), vec![int(2), int(1)])
        .unwrap();
    wsd.set_certain(FieldId::new("R", 1, "B"), int(20)).unwrap();
    wsd.set_certain(FieldId::new("S", 0, "C"), int(1)).unwrap();
    wsd.set_uniform(FieldId::new("S", 1, "C"), vec![int(2), int(3)])
        .unwrap();
    wsd.validate().unwrap();
    wsd
}

/// Prepare `plans`, then apply `verbs` in turn.  A plan depends on the
/// catalog's schemas only, which no verb changes, so after each verb
/// re-preparing is a cache hit that returns the same plan, and executing it
/// answers what a fresh session over a copy of the updated backend answers.
/// A condition must remove worlds where the backend holds more than one.
/// `backend_mut` is where a schema can change: the next prepare misses.
fn cached_plans_survive_updates<B>(
    label: &str,
    mut session: Session<B>,
    inner: impl Fn(&B) -> &AnyBackend,
    plans: &[RaExpr],
    verbs: &[UpdateExpr],
    multi_world: bool,
) where
    B: SessionBackend + WriteBackend,
    B::Error: Into<maybms::Error>,
{
    let prepared: Vec<Prepared> = plans.iter().map(|p| session.prepare(p).unwrap()).collect();
    for verb in verbs {
        let mass = session
            .apply(verb)
            .unwrap_or_else(|e| panic!("[{label}] {verb} failed: {e}"));
        if matches!(verb, UpdateExpr::Condition { .. }) && multi_world {
            assert!(mass < 1.0, "[{label}] the FD must remove some worlds");
        }
        let mut fresh = Session::new(inner(session.backend()).clone());
        for (plan, before) in plans.iter().zip(&prepared) {
            let misses = session.stats().plans_prepared;
            let again = session.prepare(plan).unwrap();
            assert_eq!(
                session.stats().plans_prepared,
                misses,
                "[{label}] re-preparing {plan} after {verb} must hit the cache"
            );
            assert_eq!(
                &again, before,
                "[{label}] {verb} changed the plan of {plan}"
            );
            let want = fresh.prepare(plan).unwrap();
            let rows: Vec<Tuple> = session.execute(&again).unwrap().collect();
            let fresh_rows: Vec<Tuple> = fresh.execute(&want).unwrap().collect();
            assert_eq!(rows, fresh_rows, "[{label}] execute {plan} after {verb}");
            assert_eq!(
                session.confidence(&again).unwrap(),
                fresh.confidence(&want).unwrap(),
                "[{label}] confidence of {plan} after {verb}"
            );
        }
    }
    let misses = session.stats().plans_prepared;
    session.backend_mut();
    session.prepare(&plans[0]).unwrap();
    assert_eq!(
        session.stats().plans_prepared,
        misses + 1,
        "[{label}] the first prepare after backend_mut must miss the cache"
    );
}

/// An equi-join over R and S with a pushable conjunct, and one plan over
/// each relation alone.
fn fd_plans() -> [RaExpr; 3] {
    [
        RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(Predicate::and(vec![
                Predicate::cmp_attr("A", CmpOp::Eq, "C"),
                Predicate::cmp_const("B", CmpOp::Ge, 10i64),
            ]))
            .project(vec!["B"]),
        RaExpr::rel("R").project(vec!["A"]),
        RaExpr::rel("S"),
    ]
}

/// Run `cached_plans_survive_updates` with the verbs `verbs(prob)` on all
/// five backends over `fd_wsd`, bare and durable.  `prob` is the
/// probability a possible insert may use: the single world represents only
/// the degenerate one.
fn on_all_backends(verbs: impl Fn(f64) -> Vec<UpdateExpr>) {
    let wsd = fd_wsd();
    let plans = fd_plans();
    for (name, backend) in all_backends(&wsd) {
        let multi_world = name != "database";
        let verbs = verbs(if multi_world { 0.5 } else { 1.0 });
        cached_plans_survive_updates(
            name,
            Session::new(backend.clone()),
            |b| b,
            &plans,
            &verbs,
            multi_world,
        );
        cached_plans_survive_updates(
            &format!("durable {name}"),
            Session::create_durable_on(Box::new(MemVfs::new()), backend).unwrap(),
            |b| b.inner(),
            &plans,
            &verbs,
            multi_world,
        );
    }
}

/// Updates change data, never a schema, so none of them invalidates a
/// cached plan, not even a plan over the relation it touched: a certain
/// insert on S, then a possible insert, a delete and a modify on R.
#[test]
fn updates_invalidate_cached_plans_by_touched_relation() {
    on_all_backends(|prob| {
        vec![
            UpdateExpr::insert("S", Tuple::from_iter([2i64])),
            UpdateExpr::insert_possible("R", Tuple::from_iter([3i64, 20]), prob),
            UpdateExpr::delete("R", Predicate::eq_const("A", 2i64)),
            UpdateExpr::modify(
                "R",
                Predicate::eq_const("A", 3i64),
                vec![("B".to_string(), Value::int(30))],
            ),
        ]
    });
}

/// Conditioning reweights worlds but changes no schema, so it keeps every
/// cached plan too; the join over R and S stays cached after an insert on
/// one operand and after conditioning on the FD `A → B`.
#[test]
fn conditioning_and_joins_invalidate_conservatively() {
    on_all_backends(|_| {
        let fd = Dependency::Fd(FunctionalDependency::new("R", vec!["A"], vec!["B"]));
        vec![
            UpdateExpr::insert("R", Tuple::from_iter([3i64, 20])),
            UpdateExpr::condition(vec![fd]),
        ]
    });
}

// ---------------------------------------------------------------------------
// Scratch hygiene: reads leave the catalog as they found it.
// ---------------------------------------------------------------------------

/// The relation names of whichever representation is inside, sorted.
fn catalog(backend: &AnyBackend) -> Vec<String> {
    let mut names: Vec<String> = match backend {
        AnyBackend::Db(db) => db.relation_names().into_iter().map(String::from).collect(),
        AnyBackend::Wsd(wsd) => wsd.relation_names().into_iter().map(String::from).collect(),
        AnyBackend::Uwsdt(u) => u.relation_names().into_iter().map(String::from).collect(),
        AnyBackend::Urel(udb) => udb.relation_names().into_iter().map(String::from).collect(),
        AnyBackend::Worlds(ws) => {
            let mut names = std::collections::BTreeSet::new();
            for (db, _) in ws.worlds() {
                names.extend(db.relation_names().into_iter().map(String::from));
            }
            names.into_iter().collect()
        }
    };
    names.sort();
    names
}

/// The representation's own integrity check, where it has one.
fn validate(backend: &AnyBackend) -> Result<(), String> {
    match backend {
        AnyBackend::Wsd(wsd) => wsd.validate().map_err(|e| e.to_string()),
        AnyBackend::Uwsdt(u) => u.validate().map_err(|e| e.to_string()),
        AnyBackend::Urel(udb) => udb.validate().map_err(|e| e.to_string()),
        AnyBackend::Db(_) | AnyBackend::Worlds(_) => Ok(()),
    }
}

/// Run every read verb of `plans` on `session` and check after each one that
/// the backend holds exactly its base relations and still validates.
fn reads_leave_the_catalog_as_they_found_it<B>(
    label: &str,
    mut session: Session<B>,
    inner: impl Fn(&B) -> &AnyBackend,
    plans: &[RaExpr],
) where
    B: SessionBackend + WriteBackend,
    B::Error: Into<maybms::Error>,
{
    let base = catalog(inner(session.backend()));
    let check = |session: &Session<B>, verb: &str, plan: &RaExpr| {
        let backend = inner(session.backend());
        assert_eq!(
            catalog(backend),
            base,
            "[{label}] {verb} of {plan} left scratch relations behind"
        );
        if let Err(e) = validate(backend) {
            panic!("[{label}] {verb} of {plan} broke the representation: {e}");
        }
    };
    let approx = ApproxConfig::new(0.1, 0.1);
    for plan in plans {
        let prepared = session.prepare(plan.clone()).unwrap();
        let rows = session.execute(&prepared).unwrap().count();
        check(&session, "execute", plan);
        assert_eq!(session.confidence(&prepared).unwrap().len(), rows);
        check(&session, "confidence", plan);
        session.confidence_approx(&prepared, &approx).unwrap();
        check(&session, "confidence_approx", plan);
        assert_eq!(
            session.explain_analyze(&prepared).unwrap().rows,
            rows as u64
        );
        check(&session, "explain_analyze", plan);
    }
}

/// Every read verb, on every backend bare and durable, copies its answer out
/// and drops its `__session_q*` result and every intermediate before it
/// returns — including plans whose selections compose components.
#[test]
fn sessions_leave_the_catalog_as_they_found_it() {
    let mut rng = StdRng::seed_from_u64(0xC1EA);
    let mut generator = Generator::new(0xC1EA5);
    for round in 0..4 {
        let wsd = random_wsd(&mut rng);
        let mut plans = vec![
            // Compares two fields of one tuple, so WSD and UWSDT selections
            // compose the components holding them.
            RaExpr::rel("R").select(Predicate::cmp_attr("A", CmpOp::Eq, "B")),
            RaExpr::rel("R")
                .product(RaExpr::rel("S"))
                .select(Predicate::cmp_attr("A", CmpOp::Le, "C"))
                .project(vec!["B", "C"]),
        ];
        // U-relations reject difference; keep the random plans positive.
        plans.extend((0..4).map(|_| generator.expr(rng.gen_range(1..=3usize), false).expr));
        for (name, backend) in all_backends(&wsd) {
            reads_leave_the_catalog_as_they_found_it(
                &format!("{name} round {round}"),
                Session::new(backend.clone()),
                |b| b,
                &plans,
            );
            reads_leave_the_catalog_as_they_found_it(
                &format!("durable {name} round {round}"),
                Session::create_durable_on(Box::new(MemVfs::new()), backend).unwrap(),
                |b| b.inner(),
                &plans,
            );
        }
    }
}

/// The staleness rule of `Session::apply`: `materialize` is the one verb that
/// leaves its result registered, and the next update drops it, so
/// update-heavy sessions do not accumulate scratch relations.
fn apply_drops_what_materialize_left<B>(
    label: &str,
    mut session: Session<B>,
    inner: impl Fn(&B) -> &AnyBackend,
    plan: &RaExpr,
) where
    B: SessionBackend + WriteBackend,
    B::Error: Into<maybms::Error>,
{
    let base = catalog(inner(session.backend()));
    let prepared = session.prepare(plan.clone()).unwrap();
    let out = session.materialize(&prepared).unwrap();
    assert!(
        inner(session.backend()).contains_relation(&out),
        "[{label}] materialize must register its result"
    );
    session
        .apply(&maybms::UpdateExpr::insert("S", Tuple::from_iter([3i64])))
        .unwrap();
    let backend = inner(session.backend());
    assert!(
        !backend.contains_relation(&out),
        "[{label}] apply must drop the stale materialized result"
    );
    assert_eq!(
        catalog(backend),
        base,
        "[{label}] apply left scratch relations behind"
    );
    if let Err(e) = validate(backend) {
        panic!("[{label}] materialize + apply broke the representation: {e}");
    }
}

#[test]
fn apply_drops_stale_scratch_results() {
    let mut rng = StdRng::seed_from_u64(0xCAC50);
    let wsd = random_wsd(&mut rng);
    let plan = RaExpr::rel("R").project(vec!["A"]);
    for (name, backend) in all_backends(&wsd) {
        apply_drops_what_materialize_left(name, Session::new(backend.clone()), |b| b, &plan);
        apply_drops_what_materialize_left(
            &format!("durable {name}"),
            Session::create_durable_on(Box::new(MemVfs::new()), backend).unwrap(),
            |b| b.inner(),
            &plan,
        );
    }
}
