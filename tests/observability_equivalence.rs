//! Observability must be a *pure* observer: turning it on changes nothing
//! about what the engine computes.
//!
//! Four suites pin that down:
//!
//! * **Bit-identity** — for random world-sets and random plans, a session
//!   with an [`Observer`] attached (slow-query threshold 0, so every code
//!   path that can fire does fire) streams the identical answer tuples and
//!   the identical confidence *bit patterns* as an unobserved session, on
//!   all five backends.
//! * **Profile consistency** — [`Session::explain_analyze`] reports row
//!   counts that match the materialized results it profiles: the root
//!   node's `rows_out`, the profile's `rows`, and the confidence step's
//!   inputs/outputs all agree with independently executed queries, on bare
//!   and on `Durable`-wrapped backends alike; the world-set backends name
//!   the `lineage` node that answered in place of an operator tree.
//! * **Decline reasons** — each way the compiled confidence tier declines
//!   (no lineage, a difference, the d-tree budget) bumps its own
//!   `conf.tier.lineage.declined.<reason>` counter, and only that one.
//! * **Histogram algebra** (proptest) — merging folded histograms is
//!   associative and agrees with recording the concatenated samples into
//!   one histogram, so per-thread shards can be folded in any order.

mod common;

use std::sync::Arc;

use common::{all_backends, random_wsd, Generator};
use maybms::obs::{Histogram, HistogramSummary, Observer};
use maybms::prelude::*;
use maybms::{AnyBackend, Session};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Answers and confidence bit patterns of one plan, on one session.
fn probe(
    backend: AnyBackend,
    observer: Option<Arc<Observer>>,
    plan: &RaExpr,
) -> (Vec<Tuple>, Vec<(Tuple, u64)>) {
    let mut session = Session::new(backend);
    if let Some(observer) = observer {
        observer.set_slow_query_threshold(Some(std::time::Duration::ZERO));
        session.set_observer(observer);
    }
    let prepared = session.prepare(plan.clone()).expect("plan prepares");
    let rows: Vec<Tuple> = session.execute(&prepared).expect("plan runs").collect();
    let confidences = session
        .confidence(&prepared)
        .expect("confidence runs")
        .into_iter()
        .map(|(t, p)| (t, p.to_bits()))
        .collect();
    (rows, confidences)
}

// Observed and unobserved sessions agree bit-for-bit: same tuples in the
// same order, same confidence doubles, on every backend.
#[test]
fn observation_is_bit_identical_across_backends() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E);
        let wsd = random_wsd(&mut rng);
        let mut generator = Generator::new(seed.wrapping_mul(31) + 7);
        // No difference operator: the U-relational backend rejects it.
        let plans: Vec<RaExpr> = (0..3).map(|_| generator.expr(2, false).expr).collect();
        for plan in &plans {
            for (name, backend) in all_backends(&wsd) {
                let baseline = probe(backend.clone(), None, plan);
                let observed = probe(backend, Some(Arc::new(Observer::new())), plan);
                assert_eq!(
                    baseline, observed,
                    "[{name} seed={seed}] observation changed the answer of {plan}"
                );
            }
        }
    }
}

// The observer actually observed something while staying pure: the metrics
// registry is non-empty after an observed query, and a second observed run
// still matches the baseline (the registry is not consulted by the engine).
// A positive plan on the WSD is answered from the lineage — one
// `exec.tier.lineage.hits`, no operator sample — so the operator timings
// come from a plan with a difference, which runs on the backend.
#[test]
fn observed_sessions_populate_the_registry() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let wsd = random_wsd(&mut rng);
    let observer = Arc::new(Observer::new());
    let (_, backend) = all_backends(&wsd).remove(1); // the WSD itself
    let (rows, _) = probe(
        backend.clone(),
        Some(Arc::clone(&observer)),
        &RaExpr::rel("R"),
    );
    assert!(!rows.is_empty());
    let snapshot = observer.metrics().snapshot();
    assert_eq!(snapshot.counters.get("exec.tier.lineage.hits"), Some(&1));
    assert!(
        !snapshot.render_prometheus().contains("ws_exec_op_"),
        "a lineage-answered execute ran executor operators"
    );
    let difference =
        RaExpr::rel("R").difference(RaExpr::rel("R").select(Predicate::eq_const("A", 0i64)));
    probe(backend, Some(Arc::clone(&observer)), &difference);
    let snapshot = observer.metrics().snapshot();
    let rendered = snapshot.render_prometheus();
    assert!(
        rendered.contains("ws_exec_op_"),
        "no operator timings were recorded:\n{rendered}"
    );
    assert!(
        !observer.slow_queries().is_empty(),
        "threshold 0 must log every query"
    );
}

/// Profile `plan` on one session and check the profile's row counts against
/// independently materialized results.  A single-world backend must answer
/// on its columnar executor: a wrapper that does not forward it falls back
/// to the operator path (`"row"`).  A world-set backend answers the
/// positive `plan` from the lineage: the profile is one `lineage` node.
fn check_profile<B: SessionBackend>(label: &str, backend: B, plan: &RaExpr, single_world: bool)
where
    B::Error: Into<maybms::Error>,
{
    let mut session = Session::new(backend);
    let prepared = session.prepare(plan.clone()).expect("plan prepares");
    let rows = session.execute(&prepared).expect("plan runs").count() as u64;
    let confidences = session
        .confidence(&prepared)
        .expect("confidence runs")
        .len() as u64;
    let profile = session
        .explain_analyze(&prepared)
        .expect("explain_analyze runs");
    assert_eq!(
        profile.rows, rows,
        "[{label}] profile rows vs materialized rows of {plan}"
    );
    assert_eq!(
        profile.root.rows_out, rows,
        "[{label}] root operator rows_out"
    );
    assert_eq!(
        profile.confidence.rows_in, rows,
        "[{label}] confidence step consumes the answer stream"
    );
    assert_eq!(
        profile.confidence.rows_out, confidences,
        "[{label}] confidence step output count"
    );
    assert_eq!(
        profile.cache, "hit",
        "[{label}] the plan was prepared above"
    );
    // The rendered tree mentions the root and the confidence tier.
    let rendered = profile.to_string();
    assert!(rendered.contains("tier="), "{rendered}");
    if single_world {
        assert_ne!(
            profile.root.path, "row",
            "[{label}] the plan {plan} left the columnar executor:\n{rendered}"
        );
    } else {
        assert_eq!(
            (profile.root.op.as_str(), profile.root.path),
            ("lineage", "lineage"),
            "[{label}] the lineage must answer {plan}:\n{rendered}"
        );
        assert!(
            profile.root.children.is_empty(),
            "[{label}] no operator ran:\n{rendered}"
        );
    }
}

// explain_analyze's numbers are not decorative: they match independently
// materialized results on every backend, bare and wrapped for durability.
#[test]
fn profile_row_counts_match_materialized_results() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAA17);
        let wsd = random_wsd(&mut rng);
        let mut generator = Generator::new(seed.wrapping_mul(17) + 3);
        let plan = generator.expr(2, false).expr;
        for (name, backend) in all_backends(&wsd) {
            let single_world = matches!(backend, AnyBackend::Db(_));
            let durable = Durable::create(Box::new(MemVfs::new()), backend.clone())
                .expect("in-memory store initializes");
            check_profile(&format!("{name} seed={seed}"), backend, &plan, single_world);
            let label = format!("durable {name} seed={seed}");
            check_profile(&label, durable, &plan, single_world);
        }
    }
}

/// A U-database of `2¹⁶ + 1` independent uncertain tuples: one query over
/// it compiles one d-tree node per answer, one more than the compiler's
/// default node budget allows.
fn over_budget_udb() -> UDatabase {
    let mut udb = UDatabase::new();
    let mut rel = LineageRelation::new(Schema::new("T", &["A"]).unwrap());
    for i in 0..=(1i64 << 16) {
        let var = udb
            .vars_mut()
            .add_var(format!("x{i}"), vec![0.5, 0.5])
            .unwrap();
        rel.push(Tuple::from_iter([i]), Clause::of(var, 1)).unwrap();
    }
    udb.insert_relation(rel);
    udb
}

// Every way the compiled tier declines has its own counter: a backend
// without lineage, a plan with a difference and a d-tree over its node
// budget each bump `conf.tier.lineage.declined.<reason>` once, and the
// native exact path answers.  An execute shares the lineage step, so the
// first two bump `exec.tier.lineage.declined.<reason>` too; a d-tree budget
// never binds an execute, which the lineage answers.
#[test]
fn lineage_declines_are_counted_by_reason() {
    let mut rng = StdRng::seed_from_u64(0xDEC1);
    let wsd = random_wsd(&mut rng);
    let mut backends = all_backends(&wsd);
    let database = backends.remove(0).1;
    let wsd = backends.remove(0).1;
    let difference =
        RaExpr::rel("R").difference(RaExpr::rel("R").select(Predicate::eq_const("A", 0i64)));
    let cases = [
        ("no_lineage", database, RaExpr::rel("R")),
        ("negation", wsd, difference),
        (
            "budget",
            AnyBackend::from(over_budget_udb()),
            RaExpr::rel("T"),
        ),
    ];
    for (reason, backend, plan) in cases {
        let observer = Arc::new(Observer::new());
        let mut session = Session::over(backend);
        session.set_observer(Arc::clone(&observer));
        let prepared = session.prepare(plan).expect("plan prepares");
        session.confidence(&prepared).expect("confidence runs");
        session
            .execute(&prepared)
            .expect("execute runs")
            .for_each(drop);
        assert_eq!(
            session.stats().conf_exact,
            1,
            "[{reason}] the native exact path answers"
        );
        let counters = observer.metrics().snapshot().counters;
        for counted in ["no_lineage", "negation", "budget"] {
            let name = format!("conf.tier.lineage.declined.{counted}");
            let expected = (counted == reason).then_some(1);
            assert_eq!(counters.get(&name).copied(), expected, "[{reason}] {name}");
            let name = format!("exec.tier.lineage.declined.{counted}");
            let expected = (counted == reason && reason != "budget").then_some(1);
            assert_eq!(counters.get(&name).copied(), expected, "[{reason}] {name}");
        }
        let lineage_hits = counters.get("exec.tier.lineage.hits").copied();
        let expected = (reason == "budget").then_some(1);
        assert_eq!(lineage_hits, expected, "[{reason}] exec.tier.lineage.hits");
        assert_eq!(session.stats().exec_lineage, expected.unwrap_or(0));
    }
}

/// Record samples into a fresh histogram and fold it.
fn folded(samples: &[u64]) -> HistogramSummary {
    let histogram = Histogram::new();
    for &s in samples {
        histogram.record(s);
    }
    histogram.fold()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Property: merging is associative, commutative, and equal to folding
    // the concatenated samples — the algebra that makes per-thread shards
    // and cross-process scrapes sound in any fold order.
    #[test]
    fn histogram_merge_is_associative(
        samples in proptest::collection::vec(0u64..1 << 40, 0..72)
    ) {
        // Three shards from one sample stream, round-robin — the shape the
        // per-thread histogram shards produce.
        let shard = |k: usize| -> Vec<u64> {
            samples.iter().copied().skip(k).step_by(3).collect()
        };
        let (a, b, c) = (shard(0), shard(1), shard(2));
        let (fa, fb, fc) = (folded(&a), folded(&b), folded(&c));
        let left = fa.merged(&fb).merged(&fc);
        let right = fa.merged(&fb.merged(&fc));
        prop_assert_eq!(&left, &right, "associativity");
        prop_assert_eq!(&fb.merged(&fa), &fa.merged(&fb), "commutativity");

        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        prop_assert_eq!(&left, &folded(&all), "merge == fold of concatenation");

        // The identity element really is the empty summary.
        prop_assert_eq!(&fa.merged(&HistogramSummary::default()), &fa, "identity");
    }
}
