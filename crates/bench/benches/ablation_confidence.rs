//! Ablation: confidence computation — exact vs. approximate, and the tiers.
//!
//! Section 6 defines (NP-hard) exact confidence computation on tuple-level
//! WSDs; the U-relation extension evaluates the same operator over DNF
//! descriptors, and `Session::confidence_approx` estimates it by Monte-Carlo
//! over any backend's lineage.  This bench measures the time to compute the
//! confidences of all possible tuples of a projection query, exact vs.
//! (ε, δ)-approximate: the §6 / DNF algorithms on the evaluated answer
//! against one `Session::confidence_approx` call at ε = 0.02, δ = 0.01 on a
//! fresh session over the WSD and over the U-database.  The approximate time
//! is end to end: lineage extraction and evaluation, and sampling (the plan
//! does not run on the backend).  Every estimate is asserted within ε of the
//! exact confidence.
//!
//! The UWSDT evaluator is kept as the cross-representation reference point.
//! A second section answers one hierarchical query through
//! `Session::confidence` (the compiled-lineage tier) and through the native
//! exact path it falls back to (`materialize` + `confidence_rows`), and
//! asserts the compiled tier is at least `COMPILED_SPEEDUP_REQUIRED` (3×)
//! faster at every variable count, so a violated bound exits the bench
//! non-zero.  Run with:
//! `cargo bench -p ws-bench --bench ablation_confidence`
//! (`WS_BENCH_QUICK=1` for the CI smoke grid).

use std::collections::BTreeMap;

use maybms::{AnyBackend, Session, SessionBackend};
use ws_bench::{is_quick, print_header, print_row, secs, time_once};
use ws_census::CensusScenario;
use ws_relational::lineage::{Clause, LineageRelation};
use ws_relational::{ApproxConfig, QueryBackend, RaExpr, Schema, Tuple};
use ws_urel::UDatabase;

/// The compiled-lineage tier must beat native exact enumeration by this
/// factor.
const COMPILED_SPEEDUP_REQUIRED: f64 = 3.0;

fn main() {
    let approx = ApproxConfig::new(0.02, 0.01);
    println!("# Confidence computation: exact vs. approximate");
    println!(
        "(census scenarios; query π_CITIZEN,IMMIGR(R); times cover all possible tuples; \
         approximate = Monte-Carlo with ε = {}, δ = {})",
        approx.epsilon, approx.delta
    );
    print_header(&[
        "tuples",
        "density",
        "possible tuples",
        "WSD exact (s)",
        "UWSDT exact (s)",
        "U-rel exact (s)",
        "WSD approx (s)",
        "U-rel approx (s)",
    ]);

    let query = RaExpr::rel(ws_census::RELATION_NAME).project(vec!["CITIZEN", "IMMIGR"]);

    let grid: &[(usize, f64, &str)] = if is_quick() {
        &[(150, 0.001, "0.1%"), (300, 0.001, "0.1%")]
    } else {
        &[
            (200, 0.0005, "0.05%"),
            (200, 0.001, "0.1%"),
            (500, 0.001, "0.1%"),
            (1000, 0.001, "0.1%"),
        ]
    };

    for &(tuples, density, label) in grid {
        let scenario = CensusScenario::new(tuples, density, 0xC0FFEE);
        let wsd = scenario.dirty_wsd().unwrap();

        // Evaluate the query once per representation.
        let mut wsd_q = wsd.clone();
        let out_wsd = ws_relational::evaluate_query(&mut wsd_q, &query, "Q").unwrap();
        let mut uwsdt = scenario.dirty_uwsdt().unwrap();
        let out_uw = ws_relational::evaluate_query(&mut uwsdt, &query, "Q").unwrap();
        let u_base = ws_urel::from_wsd(&wsd).unwrap();
        let mut udb = u_base.clone();
        let out_u = ws_relational::evaluate_query(&mut udb, &query, "Q").unwrap();

        let (uw_conf, uw_time) =
            time_once(|| ws_uwsdt::possible_with_confidence(&uwsdt, &out_uw).unwrap());
        let (wsd_conf, wsd_time) =
            time_once(|| ws_core::confidence::possible_with_confidence(&wsd_q, &out_wsd).unwrap());
        let (u_conf, u_time) =
            time_once(|| ws_urel::possible_with_confidence(&udb, &out_u).unwrap());

        // One `confidence_approx` call on a fresh session.
        let timed_approx = |backend: AnyBackend| {
            let mut session = Session::new(backend);
            let prepared = session.prepare(query.clone()).unwrap();
            time_once(|| session.confidence_approx(&prepared, &approx).unwrap())
        };
        let (wsd_mc, wsd_mc_time) = timed_approx(AnyBackend::from(wsd.clone()));
        let (u_mc, u_mc_time) = timed_approx(AnyBackend::from(u_base.clone()));

        assert_eq!(wsd_conf.len(), uw_conf.len());
        assert_eq!(wsd_conf.len(), u_conf.len());
        // Every estimate lands within ε of the exact confidence.
        let exact: BTreeMap<&Tuple, f64> = wsd_conf.iter().map(|(t, c)| (t, *c)).collect();
        for (tuple, estimate) in wsd_mc.iter().chain(&u_mc) {
            let truth = exact[tuple];
            assert!(
                (estimate - truth).abs() <= approx.epsilon,
                "approx conf({tuple}) = {estimate}, exact {truth}"
            );
        }
        assert_eq!(wsd_mc.len(), wsd_conf.len());
        assert_eq!(u_mc.len(), u_conf.len());

        print_row(&[
            tuples.to_string(),
            label.to_string(),
            wsd_conf.len().to_string(),
            secs(wsd_time),
            secs(uw_time),
            secs(u_time),
            secs(wsd_mc_time),
            secs(u_mc_time),
        ]);
    }

    // ----------------------------------------------------------------------
    // Tier ablation: the same hierarchical query answered by each
    // Session::confidence tier.  A tuple-independent relation with n
    // variables all projecting onto one output tuple is the worst case for
    // native exact enumeration (2^n joint assignments) and the best case for
    // the compiled d-tree (read-once lineage: one independent-component
    // split, one 1 − Π(1 − p) pass, no Shannon expansion).  Both tiers must
    // produce bit-identical numbers — the probabilities are dyadic (1/4,
    // 3/4), so no exact algorithm rounds anywhere.
    // ----------------------------------------------------------------------
    println!();
    println!("# Confidence tiers: compiled lineage vs native exact");
    println!("(tuple-independent U-relation, query π_B(σ_A<n(T)); n independent variables)");
    print_header(&["variables", "compiled (s)", "exact (s)", "exact/compiled"]);
    let var_counts: &[usize] = if is_quick() {
        &[14, 16]
    } else {
        &[14, 16, 18, 20]
    };
    for &n in var_counts {
        let mut udb = UDatabase::new();
        let mut rel = LineageRelation::new(Schema::new("T", &["A", "B"]).unwrap());
        for i in 0..n {
            let var = udb
                .vars_mut()
                .add_var(format!("x{i}"), vec![0.25, 0.75])
                .unwrap();
            rel.push(Tuple::from_iter([i as i64, 0i64]), Clause::of(var, 1))
                .unwrap();
        }
        udb.insert_relation(rel);
        let query = RaExpr::rel("T")
            .select(ws_relational::Predicate::cmp_const(
                "A",
                ws_relational::CmpOp::Lt,
                n as i64,
            ))
            .project(vec!["B"]);

        let mut session = Session::over(AnyBackend::from(udb.clone()));
        let prepared = session.prepare(query.clone()).unwrap();
        let (compiled_rows, compiled_time) = time_once(|| session.confidence(&prepared).unwrap());
        let compiled_stats = session.stats();
        // The native exact path, as `confidence` runs it on a decline: the
        // plan materialized on the backend, then the backend's own
        // enumeration over the result.
        let mut session = Session::over(AnyBackend::from(udb.clone()));
        let prepared = session.prepare(query.clone()).unwrap();
        let (exact_rows, exact_time) = time_once(|| {
            let out = session.materialize(&prepared).unwrap();
            let rows = session.backend().confidence_rows(&out).unwrap();
            session.backend_mut().drop_scratch(&out);
            rows
        });

        // The compiled tier must fire, and agree bit-for-bit with the native
        // path.
        assert_eq!(
            (compiled_stats.conf_compiled, compiled_stats.conf_exact),
            (1, 0),
            "compiled tier did not fire"
        );
        assert_eq!(compiled_rows.len(), exact_rows.len());
        for ((tc, cc), (te, ce)) in compiled_rows.iter().zip(exact_rows.iter()) {
            assert_eq!(tc, te, "tiers disagree on the possible tuples");
            assert_eq!(cc.to_bits(), ce.to_bits(), "tiers are not bit-identical");
        }
        print_row(&[
            n.to_string(),
            secs(compiled_time),
            secs(exact_time),
            format!(
                "{:.1}x",
                exact_time.as_secs_f64() / compiled_time.as_secs_f64().max(1e-9)
            ),
        ]);
        // The acceptance bound: on hierarchical queries the compiled tier is
        // at least COMPILED_SPEEDUP_REQUIRED× faster than native exact
        // enumeration.
        assert!(
            compiled_time.as_secs_f64() * COMPILED_SPEEDUP_REQUIRED <= exact_time.as_secs_f64(),
            "compiled tier ({compiled_time:?}) is not {COMPILED_SPEEDUP_REQUIRED}× faster \
             than exact ({exact_time:?}) at n = {n}",
        );
    }
}
