//! The tiered-confidence equivalence suite: on every backend, for every
//! strategy, [`Session::confidence`] must produce **bit-identical** numbers.
//!
//! The inputs are *dyadic* world-sets — every probability is one of
//! 1/4, 1/2, 3/4 or 1 (two mantissa bits), with small joint spaces — so every
//! exact algorithm (lineage evaluation plus the d-tree compiler, each
//! backend's native enumeration) computes sums and products of exactly
//! representable `f64`s with no rounding anywhere.  Equality is therefore
//! checked with `f64::to_bits`, not a tolerance: the tiers are proven to be
//! the *same function*, across all five representations, with the optimizer
//! on and off, at one and four threads.

mod common;

use std::collections::BTreeSet;

use common::{all_backends, Generator};
use maybms::prelude::*;
use maybms::{AnyBackend, ConfidenceStrategy, Session};
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

/// Confidence rows of `query` under one configuration, with the strategy's
/// tier counters.
fn conf_rows(
    backend: AnyBackend,
    query: &RaExpr,
    strategy: ConfidenceStrategy,
    threads: usize,
    optimize: bool,
) -> (Vec<(Tuple, f64)>, SessionStats) {
    let config = EngineConfig {
        optimize,
        ..EngineConfig::with_threads(threads)
    };
    let mut session = Session::with_config(backend, config);
    session.set_confidence_strategy(strategy);
    let prepared = session.prepare(query.clone()).unwrap();
    let rows = session.confidence(&prepared).unwrap();
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

/// The tentpole proof: random positive plans on dyadic world-sets — for
/// every backend × thread count × optimizer setting, the tiered confidences
/// are bit-identical to the native exact enumeration.
#[test]
fn tiers_are_bit_identical_to_exact_enumeration_on_dyadic_inputs() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(0xD1AD_0000 + seed);
        let wsd = dyadic_wsd(&mut rng);
        let mut generator = Generator::new(0xBEEF_0000 + seed);
        let gen = generator.expr(2, false);
        for (name, backend) in all_backends(&wsd) {
            for threads in [1usize, 4] {
                for optimize in [true, false] {
                    let context = format!(
                        "seed {seed} backend {name} threads {threads} optimize {optimize} \
                         plan {}",
                        gen.expr
                    );
                    let (exact, exact_stats) = conf_rows(
                        backend.clone(),
                        &gen.expr,
                        ConfidenceStrategy::ExactOnly,
                        threads,
                        optimize,
                    );
                    assert_eq!(exact_stats.conf_exact, 1, "[{context}] ExactOnly tier");
                    let (rows, stats) = conf_rows(
                        backend.clone(),
                        &gen.expr,
                        ConfidenceStrategy::Tiered,
                        threads,
                        optimize,
                    );
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
        let (exact, _) = conf_rows(
            backend.clone(),
            &query,
            ConfidenceStrategy::ExactOnly,
            1,
            true,
        );
        let (rows, stats) = conf_rows(backend, &query, ConfidenceStrategy::Tiered, 1, true);
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
    let (exact, _) = conf_rows(
        backend.clone(),
        &query,
        ConfidenceStrategy::ExactOnly,
        1,
        true,
    );
    let (tiered, stats) = conf_rows(backend, &query, ConfidenceStrategy::Tiered, 1, true);
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
    let (exact, _) = conf_rows(
        backend.clone(),
        &query,
        ConfidenceStrategy::ExactOnly,
        1,
        true,
    );
    let (tiered, stats) = conf_rows(backend, &query, ConfidenceStrategy::Tiered, 1, true);
    assert_eq!(
        stats.conf_compiled, 1,
        "self-join must answer from the compiled tier"
    );
    assert_bit_identical(&exact, &tiered, &"compiled tier on self-join");
}

/// The Monte-Carlo tier is untouched by the strategy: estimates stay within
/// ε of the exact confidences and the approx counter records the call.
#[test]
fn approx_stays_within_epsilon_of_every_exact_tier() {
    let mut rng = StdRng::seed_from_u64(0xA11C_0007);
    let wsd = dyadic_wsd(&mut rng);
    let query = RaExpr::rel("R").project(vec!["B"]);
    let config = ApproxConfig::new(0.05, 0.01);
    for (name, backend) in all_backends(&wsd) {
        let (exact, _) = conf_rows(backend.clone(), &query, ConfidenceStrategy::Tiered, 1, true);
        let mut session = Session::over(backend);
        let prepared = session.prepare(query.clone()).unwrap();
        let approx = session.confidence_approx(&prepared, &config).unwrap();
        assert_eq!(session.stats().conf_approx, 1);
        assert_eq!(exact.len(), approx.len(), "[{name}] possible sets differ");
        // The Monte-Carlo evaluators order tuples their own way; compare as
        // maps.
        let estimates: std::collections::BTreeMap<Tuple, f64> = approx.into_iter().collect();
        for (tuple, ce) in &exact {
            let ca = estimates
                .get(tuple)
                .unwrap_or_else(|| panic!("[{name}] {tuple} missing from approx"));
            assert!(
                (ce - ca).abs() <= config.epsilon,
                "[{name}] approx conf({tuple}) = {ca}, exact {ce}"
            );
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
            assert_eq!(
                stats.conf_exact, 0,
                "[{context}] a lineage tier must answer"
            );
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
