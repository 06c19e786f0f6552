//! The tiered-confidence equivalence suite: on every backend, for every
//! strategy, [`Session::confidence`] must produce **bit-identical** numbers.
//!
//! The inputs are *dyadic* world-sets — every probability is one of
//! 1/4, 1/2, 3/4 or 1 (two mantissa bits), with small joint spaces — so every
//! exact algorithm (lineage evaluation plus the d-tree compiler, each
//! backend's native enumeration) computes sums and products of exactly
//! representable `f64`s with no rounding anywhere.  Equality is therefore
//! checked with `f64::to_bits`, not a tolerance: the tiers are proven to be
//! the *same function*, across all five representations.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::{all_backends, native_confidences, Generator};
use maybms::obs::Observer;
use maybms::prelude::*;
use maybms::{AnyBackend, Session, SessionBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small random WSD over `R[A, B]` and `S[C]` whose or-set fields have 2 or
/// 4 uniform alternatives — all probabilities dyadic, joint space ≤ 4^5.
fn dyadic_wsd(rng: &mut StdRng) -> Wsd {
    let mut wsd = Wsd::new();
    let r_tuples = rng.gen_range(2..=3usize);
    let s_tuples = rng.gen_range(1..=2usize);
    wsd.register_relation("R", &["A", "B"], r_tuples).unwrap();
    wsd.register_relation("S", &["C"], s_tuples).unwrap();
    let mut fields: Vec<FieldId> = Vec::new();
    for t in 0..r_tuples {
        fields.push(FieldId::new("R", t, "A"));
        fields.push(FieldId::new("R", t, "B"));
    }
    for t in 0..s_tuples {
        fields.push(FieldId::new("S", t, "C"));
    }
    let mut or_fields = 0usize;
    for field in fields {
        if or_fields < 5 && rng.gen_bool(0.4) {
            or_fields += 1;
            // 2 or 4 uniform alternatives: probabilities 1/2 or 1/4.
            let n = if rng.gen_bool(0.75) { 2 } else { 4 };
            let mut alternatives: BTreeSet<i64> = BTreeSet::new();
            while alternatives.len() < n {
                alternatives.insert(rng.gen_range(0..8i64));
            }
            wsd.set_uniform(field, alternatives.into_iter().map(Value::int).collect())
                .unwrap();
        } else {
            wsd.set_certain(field, Value::int(rng.gen_range(0..8i64)))
                .unwrap();
        }
    }
    wsd.validate().unwrap();
    wsd
}

/// `Session::confidence`'s rows of `query`, with the session's tier
/// counters.
fn conf_rows(backend: AnyBackend, query: &RaExpr) -> (Vec<(Tuple, f64)>, SessionStats) {
    let mut session = Session::new(backend);
    let prepared = session.prepare(query.clone()).unwrap();
    let rows = session.confidence(&prepared).unwrap();
    (rows, session.stats())
}

/// The backend's native exact rows of `query` ([`native_confidences`]),
/// with the session's counters.
fn native_rows(backend: AnyBackend, query: &RaExpr) -> (Vec<(Tuple, f64)>, SessionStats) {
    let mut session = Session::new(backend);
    let prepared = session.prepare(query.clone()).unwrap();
    let rows = native_confidences(&mut session, &prepared);
    (rows, session.stats())
}

fn assert_bit_identical(
    expected: &[(Tuple, f64)],
    got: &[(Tuple, f64)],
    context: &dyn std::fmt::Display,
) {
    assert_eq!(
        expected.len(),
        got.len(),
        "[{context}] possible-tuple sets differ"
    );
    for ((te, ce), (tg, cg)) in expected.iter().zip(got) {
        assert_eq!(te, tg, "[{context}] tuple order differs");
        assert_eq!(
            ce.to_bits(),
            cg.to_bits(),
            "[{context}] conf({te}) = {cg}, exact {ce}"
        );
    }
}

/// Each answer lists distinct tuples in strictly increasing `Tuple` order.
fn assert_strictly_increasing<T>(rows: &[(Tuple, T)], context: &dyn std::fmt::Display) {
    assert!(
        rows.windows(2).all(|pair| pair[0].0 < pair[1].0),
        "[{context}] tuples out of order"
    );
}

/// The tentpole proof: random positive plans on dyadic world-sets — for
/// every backend, the tiered confidences are bit-identical to the native
/// exact enumeration.
#[test]
fn tiers_are_bit_identical_to_exact_enumeration_on_dyadic_inputs() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xD1AD_0000 + seed);
        let wsd = dyadic_wsd(&mut rng);
        let mut generator = Generator::new(0xBEEF_0000 + seed);
        let gen = generator.expr(2, false);
        for (name, backend) in all_backends(&wsd) {
            let context = format!("seed {seed} backend {name} plan {}", gen.expr);
            let (exact, exact_stats) = native_rows(backend.clone(), &gen.expr);
            assert_eq!(
                (exact_stats.executions, exact_stats.conf_compiled),
                (1, 0),
                "[{context}] the reference ran on the backend"
            );
            let (rows, stats) = conf_rows(backend, &gen.expr);
            assert_bit_identical(&exact, &rows, &context);
            assert_eq!(
                stats.conf_compiled + stats.conf_exact,
                1,
                "[{context}] exactly one tier must fire"
            );
            assert_eq!(stats.conf_safe, 0, "[{context}] the safe tier is gone");
        }
    }
}

/// Plans with difference have no DNF lineage: every strategy must agree by
/// falling back to the native exact path.
#[test]
fn difference_plans_fall_back_to_the_native_exact_path() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0001);
    let wsd = dyadic_wsd(&mut rng);
    let query = RaExpr::rel("R")
        .select(Predicate::cmp_const("A", CmpOp::Le, 3i64))
        .difference(RaExpr::rel("R").select(Predicate::cmp_const("B", CmpOp::Ge, 2i64)));
    for (name, backend) in all_backends(&wsd) {
        if name == "urel" {
            // U-relations reject difference outright (it is not a positive
            // operator there); the tier question does not arise.
            continue;
        }
        let (exact, _) = native_rows(backend.clone(), &query);
        let (rows, stats) = conf_rows(backend, &query);
        assert_bit_identical(&exact, &rows, &format!("difference on {name}"));
        assert_eq!(
            stats.conf_exact, 1,
            "[{name}] difference must use the exact tier"
        );
        assert_eq!(stats.conf_compiled, 0);
    }
}

/// A hierarchical (safe) plan on a tuple-independent U-relation has
/// read-once lineage: the compiled tier answers it, bit-identical to the
/// native enumeration.
#[test]
fn hierarchical_plans_answer_from_the_compiled_tier() {
    let mut udb = UDatabase::new();
    let mut rel = LineageRelation::new(Schema::new("T", &["A", "B"]).unwrap());
    for i in 0..12i64 {
        let var = udb
            .vars_mut()
            .add_var(format!("x{i}"), vec![0.25, 0.75])
            .unwrap();
        rel.push(Tuple::from_iter([i, i % 3]), Clause::of(var, 1))
            .unwrap();
    }
    udb.insert_relation(rel);
    let query = RaExpr::rel("T")
        .select(Predicate::cmp_const("A", CmpOp::Lt, 9i64))
        .project(vec!["B"]);
    let backend = AnyBackend::from(udb);
    let (exact, _) = native_rows(backend.clone(), &query);
    let (tiered, stats) = conf_rows(backend, &query);
    assert_eq!(
        stats.conf_compiled, 1,
        "hierarchical plan must hit the compiled tier"
    );
    assert_eq!(stats.conf_safe, 0, "the safe tier is gone");
    assert_bit_identical(&exact, &tiered, &"compiled tier");
}

/// A self-join is not hierarchical, so its lineage need not be read-once:
/// the d-tree compiler answers it through Shannon expansion, still
/// bit-identical.
#[test]
fn unsafe_plans_compile_lineage_instead() {
    let mut udb = UDatabase::new();
    let mut rel = LineageRelation::new(Schema::new("T", &["A", "B"]).unwrap());
    for (i, (a, b)) in [(1i64, 1i64), (1, 2), (2, 1), (2, 2)]
        .into_iter()
        .enumerate()
    {
        let var = udb
            .vars_mut()
            .add_var(format!("x{i}"), vec![0.5, 0.5])
            .unwrap();
        rel.push(Tuple::from_iter([a, b]), Clause::of(var, 1))
            .unwrap();
    }
    udb.insert_relation(rel);
    // π_A(T) ⋈ π_B-renamed(T): the same relation twice — not hierarchical.
    let query = RaExpr::rel("T")
        .project(vec!["A"])
        .product(RaExpr::rel("T").project(vec!["B"]).rename("B", "B2"))
        .select(Predicate::cmp_attr("A", CmpOp::Eq, "B2"));
    let backend = AnyBackend::from(udb);
    let (exact, _) = native_rows(backend.clone(), &query);
    let (tiered, stats) = conf_rows(backend, &query);
    assert_eq!(
        stats.conf_compiled, 1,
        "self-join must answer from the compiled tier"
    );
    assert_bit_identical(&exact, &tiered, &"compiled tier on self-join");
}

/// `confidence(Q)` then `confidence_approx(Q)` in one session, with the
/// stats between the two calls and after them.
fn exact_then_approx<B>(
    mut session: Session<B>,
    query: &RaExpr,
    config: &ApproxConfig,
) -> [(Vec<(Tuple, f64)>, SessionStats); 2]
where
    B: SessionBackend,
    B::Error: Into<maybms::Error>,
{
    let prepared = session.prepare(query.clone()).unwrap();
    let exact = session.confidence(&prepared).unwrap();
    let between = session.stats();
    let approx = session.confidence_approx(&prepared, config).unwrap();
    [(exact, between), (approx, session.stats())]
}

/// The Monte-Carlo estimator runs the confidence ladder: on every backend,
/// bare and durable, `confidence_approx` returns exactly `confidence`'s
/// tuples in `confidence`'s (strictly increasing) order, each estimate
/// within ε, and the call moves only the approx counter.  Every backend but
/// the single-world database samples its lineage, through a durable
/// wrapper too.
#[test]
fn approx_stays_within_epsilon_of_every_exact_tier() {
    let mut rng = StdRng::seed_from_u64(0xA11C_0007);
    let wsd = dyadic_wsd(&mut rng);
    let queries = [
        RaExpr::rel("R").project(vec!["B"]),
        RaExpr::rel("R")
            .product(RaExpr::rel("S"))
            .select(Predicate::cmp_attr("A", CmpOp::Le, "C"))
            .project(vec!["B", "C"]),
    ];
    let config = ApproxConfig::new(0.05, 0.01);
    for (name, backend) in all_backends(&wsd) {
        for query in &queries {
            let durable = Durable::create(Box::new(MemVfs::new()), backend.clone()).unwrap();
            for (label, [(exact, between), (approx, after)]) in [
                (
                    "bare",
                    exact_then_approx(Session::over(backend.clone()), query, &config),
                ),
                (
                    "durable",
                    exact_then_approx(Session::new(durable), query, &config),
                ),
            ] {
                let context = format!("{label} {name} {query}");
                assert_strictly_increasing(&exact, &context);
                assert_eq!(
                    exact.iter().map(|(t, _)| t).collect::<Vec<_>>(),
                    approx.iter().map(|(t, _)| t).collect::<Vec<_>>(),
                    "[{context}] approx must list confidence's tuples in its order"
                );
                for ((tuple, ce), (_, ca)) in exact.iter().zip(&approx) {
                    assert!(
                        (ce - ca).abs() <= config.epsilon,
                        "[{context}] approx conf({tuple}) = {ca}, exact {ce}"
                    );
                }
                if exact.iter().any(|(_, c)| *c > 0.0 && *c < 1.0) {
                    assert!(
                        exact.iter().zip(&approx).any(|((_, ce), (_, ca))| ce != ca),
                        "[{context}] uncertain answers must be sampled, not computed exactly"
                    );
                }
                assert_eq!(after.conf_approx, between.conf_approx + 1, "[{context}]");
                assert_eq!(
                    (after.conf_compiled, after.conf_exact),
                    (between.conf_compiled, between.conf_exact),
                    "[{context}] approx moved an exact tier counter"
                );
            }
        }
    }
}

/// A difference has no DNF lineage, so a WSD's approx answers on the native
/// exact path: bit-identical to the backend's native confidences, counted
/// only as an approx call.
#[test]
fn difference_plans_estimate_on_the_native_exact_path() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_0002);
    let wsd = dyadic_wsd(&mut rng);
    let query = RaExpr::rel("R")
        .select(Predicate::cmp_const("A", CmpOp::Le, 5i64))
        .difference(RaExpr::rel("R").select(Predicate::cmp_const("B", CmpOp::Ge, 4i64)));
    let mut session = Session::new(wsd);
    let prepared = session.prepare(query).unwrap();
    let exact = native_confidences(&mut session, &prepared);
    assert!(!exact.is_empty(), "the difference keeps some tuples");
    let before = session.stats();
    let approx = session
        .confidence_approx(&prepared, &ApproxConfig::new(0.05, 0.01))
        .unwrap();
    assert_bit_identical(&exact, &approx, &"approx of a difference on a WSD");
    let after = session.stats();
    assert_eq!(after.conf_approx, 1);
    assert_eq!(
        (after.conf_compiled, after.conf_exact),
        (before.conf_compiled, before.conf_exact)
    );
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

/// `Session::confidence_approx`, the one Monte-Carlo estimator, lands within
/// ε of the exact §6 algorithm on WSDs and their U-relations:
/// tuple-independent (every field its own component) and small-component
/// (components spanning tuples, as in the paper's running example).
#[test]
fn approximate_confidence_is_within_epsilon_of_exact() {
    let mut rng = StdRng::seed_from_u64(0xAB5);
    let config = ApproxConfig::new(0.03, 0.01);

    // Tuple-independent WSDs (every field independent) …
    let mut cases: Vec<(&str, Wsd)> = (0..3)
        .map(|_| ("tuple-independent", tuple_independent_wsd(&mut rng)))
        .collect();
    // … and the paper's running example, whose SSN component spans both
    // tuples.
    cases.push(("census example", maybms::core::wsd::example_census_wsd()));

    for (label, wsd) in &cases {
        let relation = wsd.relation_names()[0].to_string();
        let query = RaExpr::rel(relation.as_str());
        // The one estimator answers both the WSD and its U-relational
        // translation, against each one's exact enumerator.
        let backends = [
            ("wsd", AnyBackend::from(wsd.clone())),
            (
                "urel",
                AnyBackend::from(maybms::urel::from_wsd(wsd).unwrap()),
            ),
        ];
        for (name, backend) in backends {
            let mut exact_session = Session::over(backend.clone());
            let prepared = exact_session.prepare(query.clone()).unwrap();
            let exact = native_confidences(&mut exact_session, &prepared);
            assert!(!exact.is_empty(), "{label}: no possible tuples");
            let mut session = Session::over(backend);
            let prepared = session.prepare(query.clone()).unwrap();
            let approx = session.confidence_approx(&prepared, &config).unwrap();
            assert_eq!(
                exact.len(),
                approx.len(),
                "{label} {name}: tuple sets differ"
            );
            for ((tuple, exact_conf), (t2, estimate)) in exact.iter().zip(&approx) {
                assert_eq!(tuple, t2, "{label} {name}: tuple order differs");
                assert!(
                    (estimate - exact_conf).abs() <= config.epsilon,
                    "{label} {name}: approx conf({tuple}) = {estimate}, exact = {exact_conf}"
                );
            }
        }
    }
}

/// `R[A, B]` with two uncertain `B` fields (1/2 each) and one certain tuple,
/// so every step of [`every_mutation_empties_the_lineage_memo`] moves some
/// confidence of `π_B(R)` — a stale lineage memo would answer with the old
/// number.
fn memo_wsd() -> Wsd {
    let mut wsd = Wsd::new();
    wsd.register_relation("R", &["A", "B"], 3).unwrap();
    for (t, a) in [1i64, 2, 3].into_iter().enumerate() {
        wsd.set_certain(FieldId::new("R", t, "A"), Value::int(a))
            .unwrap();
    }
    // The first enumerated world is B = 1, 3, 4: it satisfies the EGD below,
    // so the single-world backend survives the conditioning step.
    wsd.set_uniform(
        FieldId::new("R", 0, "B"),
        vec![Value::int(1), Value::int(2)],
    )
    .unwrap();
    wsd.set_uniform(
        FieldId::new("R", 1, "B"),
        vec![Value::int(3), Value::int(2)],
    )
    .unwrap();
    wsd.set_certain(FieldId::new("R", 2, "B"), Value::int(4))
        .unwrap();
    wsd.validate().unwrap();
    wsd
}

/// `query`'s confidences by world enumeration: each answer tuple's summed
/// world weight.
fn oracle_confidences(
    worlds: &[(Database, f64)],
    query: &RaExpr,
) -> std::collections::BTreeMap<Tuple, f64> {
    let mut conf = std::collections::BTreeMap::new();
    for (db, p) in worlds {
        for tuple in maybms::relational::evaluate_set(db, query)
            .unwrap()
            .into_rows()
        {
            *conf.entry(tuple).or_insert(0.0) += p;
        }
    }
    conf
}

/// The session's lineage memo never outlives the state it was extracted
/// from.  On every backend a warm `confidence(Q)` is followed by an insert,
/// a conditioning step, a delete, a modify and one direct `backend_mut()`
/// edit; after each, `confidence(Q)` equals the world-enumeration oracle bit
/// for bit and is answered from a fresh extraction.
#[test]
fn every_mutation_empties_the_lineage_memo() {
    let wsd = memo_wsd();
    let query = RaExpr::rel("R").project(vec!["B"]);
    let egd = Dependency::Egd(EqualityGeneratingDependency::implies(
        "R",
        "A",
        2i64,
        "B",
        CmpOp::Ne,
        2i64,
    ));
    let steps = [
        (
            "insert",
            UpdateExpr::insert("R", Tuple::from_iter([5i64, 1])),
        ),
        ("condition", UpdateExpr::condition(vec![egd])),
        (
            "delete",
            UpdateExpr::delete("R", Predicate::eq_const("A", 5i64)),
        ),
        (
            "modify",
            UpdateExpr::modify(
                "R",
                Predicate::eq_const("A", 3i64),
                vec![("B".to_string(), Value::int(1))],
            ),
        ),
    ];
    let edit = UpdateExpr::delete("R", Predicate::eq_const("A", 3i64));
    for (name, backend) in all_backends(&wsd) {
        let mut worlds = match name {
            "database" => vec![(wsd.enumerate_worlds(1 << 20).unwrap().remove(0).0, 1.0)],
            _ => wsd.enumerate_worlds(1 << 20).unwrap(),
        };
        let mut session = Session::over(backend);
        let prepared = session.prepare(query.clone()).unwrap();
        let check = |session: &mut Session<AnyBackend>,
                     worlds: &[(Database, f64)],
                     step: &str,
                     extractions: u64| {
            let context = format!("{name} after {step}");
            let rows = session.confidence(&prepared).unwrap();
            let expected = oracle_confidences(worlds, &query);
            assert_eq!(
                rows.iter().map(|(t, _)| t.clone()).collect::<BTreeSet<_>>(),
                expected.keys().cloned().collect::<BTreeSet<_>>(),
                "[{context}] possible-tuple sets differ"
            );
            for (tuple, conf) in &rows {
                assert_eq!(
                    conf.to_bits(),
                    expected[tuple].to_bits(),
                    "[{context}] conf({tuple}) = {conf}, oracle {}",
                    expected[tuple]
                );
            }
            let stats = session.stats();
            if name == "database" {
                // A single certain world has no lineage: its native path
                // answers.
                assert_eq!(stats.conf_compiled, 0, "[{context}] no lineage");
            } else {
                assert_eq!(
                    stats.conf_exact, 0,
                    "[{context}] a lineage tier must answer"
                );
            }
            assert_eq!(
                stats.lineage_extractions, extractions,
                "[{context}] lineage extractions"
            );
        };
        // Warm the memo: the second call reads it.
        check(&mut session, &worlds, "the first call", 1);
        check(&mut session, &worlds, "a memo hit", 1);
        let mut extractions = 1;
        for (step, update) in &steps {
            session.apply(update).unwrap();
            assert!(
                common::oracle_apply_update(&mut worlds, update).is_some(),
                "[{name}] {step} must stay consistent"
            );
            extractions += 1;
            check(&mut session, &worlds, step, extractions);
            check(&mut session, &worlds, step, extractions);
        }
        apply_update(session.backend_mut(), &edit).unwrap();
        common::oracle_apply_update(&mut worlds, &edit).unwrap();
        check(&mut session, &worlds, "a backend_mut edit", extractions + 1);
    }
}

/// `execute`'s tuples and the confidence rows of `query` in one session —
/// `confidence`'s, or under `native` the backend's own
/// ([`native_confidences`]) — with the session's stats.
fn answers<B>(
    mut session: Session<B>,
    query: &RaExpr,
    native: bool,
) -> (Vec<Tuple>, Vec<(Tuple, f64)>, SessionStats)
where
    B: SessionBackend,
    B::Error: Into<maybms::Error>,
{
    let prepared = session.prepare(query.clone()).unwrap();
    let tuples = session.execute(&prepared).unwrap().collect();
    let rows = if native {
        native_confidences(&mut session, &prepared)
    } else {
        session.confidence(&prepared).unwrap()
    };
    (tuples, rows, session.stats())
}

/// A local world of probability 0 is still a world: its tuples are
/// possible, with confidence 0.  On every backend, bare and durable, through
/// `confidence` and the native path, `execute` and the confidences list the
/// world enumeration's
/// tuples in `Tuple` order — the confidence-0 tuple included on every
/// world-set — with its confidences bit for bit.
#[test]
fn zero_probability_worlds_keep_their_tuples() {
    let mut wsd = Wsd::new();
    wsd.register_relation("R", &["A", "B"], 2).unwrap();
    wsd.set_certain(FieldId::new("R", 0, "A"), Value::int(1))
        .unwrap();
    wsd.set_alternatives(
        FieldId::new("R", 0, "B"),
        vec![(Value::int(1), 1.0), (Value::int(2), 0.0)],
    )
    .unwrap();
    wsd.set_certain(FieldId::new("R", 1, "A"), Value::int(2))
        .unwrap();
    wsd.set_uniform(
        FieldId::new("R", 1, "B"),
        vec![Value::int(3), Value::int(4)],
    )
    .unwrap();
    wsd.validate().unwrap();
    let worlds = wsd.enumerate_worlds(1 << 20).unwrap();
    let queries = [
        RaExpr::rel("R"),
        RaExpr::rel("R").project(vec!["B"]),
        RaExpr::rel("R").select(Predicate::eq_const("B", 2i64)),
    ];
    for query in &queries {
        for (name, backend) in all_backends(&wsd) {
            let expected = match name {
                "database" => oracle_confidences(&[(worlds[0].0.clone(), 1.0)], query),
                _ => oracle_confidences(&worlds, query),
            };
            let expected: Vec<(Tuple, f64)> = expected.into_iter().collect();
            if name != "database" {
                assert!(
                    expected.iter().any(|(_, c)| *c == 0.0),
                    "[{name} {query}] the oracle lists the confidence-0 tuple"
                );
            }
            for native in [false, true] {
                let durable = Durable::create(Box::new(MemVfs::new()), backend.clone()).unwrap();
                for (label, (tuples, rows, stats)) in [
                    (
                        "bare",
                        answers(Session::over(backend.clone()), query, native),
                    ),
                    ("durable", answers(Session::new(durable), query, native)),
                ] {
                    let context = format!("{label} {name} native={native} {query}");
                    assert_bit_identical(&expected, &rows, &context);
                    assert_eq!(
                        tuples,
                        rows.iter().map(|(t, _)| t.clone()).collect::<Vec<_>>(),
                        "[{context}] execute lists confidence's tuples"
                    );
                    let compiled = name != "database";
                    let tiers = if native {
                        (0, 0)
                    } else {
                        (u64::from(compiled), u64::from(!compiled))
                    };
                    assert_eq!(
                        (stats.conf_compiled, stats.conf_exact),
                        tiers,
                        "[{context}] tier counts"
                    );
                }
            }
        }
    }
}

/// `confidence(query)` in `session`, with the (compiled, exact) tier counts
/// the call added.
fn confidence_in<B>(session: &mut Session<B>, query: &RaExpr) -> (Vec<(Tuple, f64)>, (u64, u64))
where
    B: SessionBackend,
    B::Error: Into<maybms::Error>,
{
    let prepared = session.prepare(query.clone()).unwrap();
    let before = session.stats();
    let rows = session.confidence(&prepared).unwrap();
    let after = session.stats();
    let tiers = (
        after.conf_compiled - before.conf_compiled,
        after.conf_exact - before.conf_exact,
    );
    (rows, tiers)
}

/// The census shape the benchmark serves — a chased UWSDT with
/// presence-conditioned templates and non-dyadic probabilities — under
/// `Session::confidence`'s stated contract: the compiled tier lists the
/// native exact path's tuples in its (strictly increasing) order, each
/// confidence within 1e-12 absolute, and a durable session answers bit for
/// bit as a bare one, from the compiled tier.
#[test]
fn census_tiers_agree_within_the_stated_tolerance() {
    for seed in 1..=3u64 {
        let uwsdt = maybms::census::CensusScenario::new(500, 0.001, seed)
            .chased_uwsdt()
            .unwrap();
        let backend = AnyBackend::from(uwsdt);
        let durable = Durable::create(Box::new(MemVfs::new()), backend.clone()).unwrap();
        let mut durable = Session::new(durable);
        let mut tiered = Session::over(backend.clone());
        let mut exact = Session::over(backend);
        for (label, query) in maybms::census::all_queries() {
            let context = format!("census seed {seed} {label}");
            let prepared = exact.prepare(query.clone()).unwrap();
            let want = native_confidences(&mut exact, &prepared);
            let (got, tiers) = confidence_in(&mut tiered, &query);
            assert_eq!(tiers, (1, 0), "[{context}] bare tier counts");
            assert_strictly_increasing(&got, &context);
            assert_eq!(
                got.iter().map(|(t, _)| t).collect::<Vec<_>>(),
                want.iter().map(|(t, _)| t).collect::<Vec<_>>(),
                "[{context}] the compiled tier must list the native tuples in their order"
            );
            for ((tuple, cg), (_, cw)) in got.iter().zip(&want) {
                assert!(
                    (cg - cw).abs() <= 1e-12,
                    "[{context}] conf({tuple}) = {cg}, exact {cw}"
                );
            }
            let (stored, tiers) = confidence_in(&mut durable, &query);
            assert_eq!(tiers, (1, 0), "[{context}] durable tier counts");
            assert_bit_identical(&got, &stored, &format!("durable {context}"));
        }
    }
}

/// The names of a WSD's or a UWSDT's relations.
fn relation_names(backend: &AnyBackend) -> Vec<String> {
    let names = match backend {
        AnyBackend::Wsd(wsd) => wsd.relation_names(),
        AnyBackend::Uwsdt(uwsdt) => uwsdt.relation_names(),
        _ => unreachable!("only WSDs and UWSDTs are probed"),
    };
    names.into_iter().map(str::to_string).collect()
}

/// A compiled-tier confidence reads only the lineage.  On a WSD and a
/// UWSDT with an observer attached, `confidence` records no executor
/// operator sample and leaves the backend's relations as they were, yet it
/// still counts one execution and traces one `query` span.  An `execute`
/// of the same positive plan reads the lineage too: still no operator
/// sample, and exactly one `exec.tier.lineage.hits`.  An `execute` of a
/// plan with a difference runs on the backend and does record operator
/// samples, so the probe sees a backend execution when there is one.
#[test]
fn compiled_confidences_execute_nothing_on_the_backend() {
    let mut rng = StdRng::seed_from_u64(0xE0E0_0003);
    let wsd = dyadic_wsd(&mut rng);
    let query = RaExpr::rel("R")
        .product(RaExpr::rel("S"))
        .select(Predicate::cmp_attr("A", CmpOp::Le, "C"))
        .project(vec!["B", "C"]);
    let operator_samples = |observer: &Observer| -> u64 {
        let snapshot = observer.metrics().snapshot();
        snapshot
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("exec.op."))
            .map(|(_, summary)| summary.count)
            .sum()
    };
    for (name, backend) in all_backends(&wsd) {
        if !matches!(backend, AnyBackend::Wsd(_) | AnyBackend::Uwsdt(_)) {
            continue;
        }
        let relations = relation_names(&backend);
        let observer = Arc::new(Observer::new());
        let mut session = Session::over(backend);
        session.set_observer(Arc::clone(&observer));
        let prepared = session.prepare(query.clone()).unwrap();
        session.confidence(&prepared).unwrap();
        let stats = session.stats();
        assert_eq!(stats.conf_compiled, 1, "[{name}] the compiled tier answers");
        assert_eq!(stats.executions, 1, "[{name}] one query answered");
        assert_eq!(
            operator_samples(&observer),
            0,
            "[{name}] a compiled-tier confidence ran executor operators"
        );
        assert_eq!(
            relation_names(session.backend()),
            relations,
            "[{name}] a compiled-tier confidence changed the backend's relations"
        );
        let spans = observer.metrics().snapshot().histograms["span.query.ns"].count;
        assert_eq!(spans, 1, "[{name}] one query span");
        assert!(session.execute(&prepared).unwrap().count() > 0);
        assert_eq!(
            operator_samples(&observer),
            0,
            "[{name}] a lineage-answered execute ran executor operators"
        );
        let lineage_hits = observer.metrics().snapshot().counters["exec.tier.lineage.hits"];
        assert_eq!(lineage_hits, 1, "[{name}] the lineage answers the execute");
        assert_eq!(session.stats().exec_lineage, 1, "[{name}] exec_lineage");
        let negated = session
            .prepare(query.clone().difference(query.clone()))
            .unwrap();
        session.execute(&negated).unwrap().for_each(drop);
        assert!(
            operator_samples(&observer) > 0,
            "[{name}] execute records operator samples"
        );
    }
}
