//! Ablation: confidence computation — threads × {exact, approximate}.
//!
//! Section 6 defines (NP-hard) exact confidence computation on tuple-level
//! WSDs; the U-relation extension evaluates the same operator over DNF
//! descriptors, and PR 2 adds (ε, δ)-approximate Monte-Carlo evaluators for
//! both plus a worker pool the per-tuple work fans out on.  This bench
//! measures the time to compute the confidences of all possible tuples of a
//! projection query along two axes:
//!
//! * **threads ∈ {1, N}** — the serial baseline against the machine-sized
//!   pool (at least 2 workers); exact results are asserted bit-identical
//!   across thread counts,
//! * **exact vs. (ε, δ)-approximate** — the §6 / DNF algorithms against the
//!   Monte-Carlo estimators at ε = 0.02, δ = 0.01.
//!
//! The UWSDT evaluator (serial only) is kept as the cross-representation
//! reference point.  A second section answers one hierarchical query through
//! each `Session::confidence` tier and asserts the compiled-lineage tier is
//! at least `COMPILED_SPEEDUP_REQUIRED` (3×) faster than native exact
//! enumeration at every variable count, so a violated bound exits the bench
//! non-zero.  Run with:
//! `cargo bench -p ws-bench --bench ablation_confidence`
//! (`WS_BENCH_QUICK=1` for the CI smoke grid).

use maybms::{AnyBackend, ConfidenceStrategy, Session};
use ws_bench::{is_quick, print_header, print_row, secs, time_once};
use ws_census::CensusScenario;
use ws_core::confidence::approx::ApproxConfig;
use ws_relational::lineage::{Clause, LineageRelation};
use ws_relational::{EngineConfig, RaExpr, Schema, Tuple, WorkerPool};
use ws_urel::UDatabase;

/// The compiled-lineage tier must beat native exact enumeration by this
/// factor.
const COMPILED_SPEEDUP_REQUIRED: f64 = 3.0;

fn main() {
    let par_threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .max(2);
    let approx = ApproxConfig::new(0.02, 0.01);
    println!("# Confidence computation: threads x {{exact, approximate}}");
    println!(
        "(census scenarios; query π_CITIZEN,IMMIGR(R); times cover all possible tuples; \
         approximate = Monte-Carlo with ε = {}, δ = {})",
        approx.epsilon, approx.delta
    );
    println!(
        "serial config: {} | parallel config: {}",
        EngineConfig::default().summary(),
        EngineConfig::with_threads(par_threads).summary()
    );
    print_header(&[
        "tuples",
        "density",
        "possible tuples",
        "threads",
        "WSD exact (s)",
        "UWSDT exact, serial (s)",
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
        let mut udb = ws_urel::from_wsd(&wsd).unwrap();
        let out_u = ws_relational::evaluate_query(&mut udb, &query, "Q").unwrap();

        // The serial UWSDT reference point (no parallel API), once per grid
        // cell.
        let (uw_conf, uw_time) =
            time_once(|| ws_uwsdt::possible_with_confidence(&uwsdt, &out_uw).unwrap());

        let mut serial_exact = None;
        for threads in [1usize, par_threads] {
            let pool = WorkerPool::new(threads);
            let (wsd_conf, wsd_time) = time_once(|| {
                ws_core::confidence::possible_with_confidence_with(&wsd_q, &out_wsd, &pool).unwrap()
            });
            let (u_conf, u_time) =
                time_once(|| ws_urel::possible_with_confidence_with(&udb, &out_u, &pool).unwrap());
            let (_, wsd_mc_time) = time_once(|| {
                ws_core::confidence::approx::possible_with_confidence_with(
                    &wsd_q, &out_wsd, &approx, &pool,
                )
                .unwrap()
            });
            let (_, u_mc_time) = time_once(|| {
                ws_urel::confidence::approx::possible_with_confidence_with(
                    &udb, &out_u, &approx, &pool,
                )
                .unwrap()
            });

            assert_eq!(wsd_conf.len(), uw_conf.len());
            assert_eq!(wsd_conf.len(), u_conf.len());
            // Acceptance gate: exact results are bit-identical across thread
            // counts.
            match &serial_exact {
                None => serial_exact = Some((wsd_conf.clone(), u_conf.clone())),
                Some((wsd_serial, u_serial)) => {
                    assert_eq!(
                        &wsd_conf, wsd_serial,
                        "WSD exact drifted at {threads} threads"
                    );
                    assert_eq!(
                        &u_conf, u_serial,
                        "U-rel exact drifted at {threads} threads"
                    );
                }
            }

            print_row(&[
                tuples.to_string(),
                label.to_string(),
                wsd_conf.len().to_string(),
                threads.to_string(),
                secs(wsd_time),
                secs(uw_time),
                secs(u_time),
                secs(wsd_mc_time),
                secs(u_mc_time),
            ]);
        }
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

        let timed_tier = |strategy: ConfidenceStrategy| {
            let mut session = Session::over(AnyBackend::from(udb.clone()));
            session.set_confidence_strategy(strategy);
            let prepared = session.prepare(query.clone()).unwrap();
            let (rows, t) = time_once(|| session.confidence(&prepared).unwrap());
            (rows, session.stats(), t)
        };
        let (compiled_rows, compiled_stats, compiled_time) = timed_tier(ConfidenceStrategy::Tiered);
        let (exact_rows, exact_stats, exact_time) = timed_tier(ConfidenceStrategy::ExactOnly);

        // Each strategy must hit its intended tier and agree bit-for-bit.
        assert_eq!(
            compiled_stats.conf_compiled, 1,
            "compiled tier did not fire"
        );
        assert_eq!(exact_stats.conf_exact, 1, "exact tier did not fire");
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
