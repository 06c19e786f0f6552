//! Ablation: the observability layer (`ws-obs`) — what does watching cost?
//!
//! The same mixed query workload (prepare, execute, tuple confidence over a
//! synthetic census-shaped WSD) runs twice per size: once on a plain
//! session, once with an [`Observer`] attached — per-operator timing
//! histograms, selection survival rates, query spans, and a
//! slow-query threshold armed high enough never to fire (the common
//! production setting).  Both runs use fresh sessions so the plan cache
//! starts cold on each side.
//!
//! The bench asserts the acceptance bound at every size: the observed run
//! must stay within `OBS_OVERHEAD_LIMIT` (1.10×) of the baseline plus
//! `NOISE_FLOOR` (5 ms, which keeps sub-5ms noise from flapping CI), so a
//! violated bound exits the bench non-zero.  Each side is the *minimum* of
//! several repeats — the right estimator for an overhead bound, since noise
//! only ever inflates a minimum.
//!
//! Run with: `cargo bench -p ws-bench --bench ablation_observability`
//! (`WS_BENCH_QUICK=1` for the CI smoke grid).

use std::sync::Arc;
use std::time::Duration;

use maybms::obs::Observer;
use maybms::{q, AnyBackend, Session};
use ws_bench::{is_quick, print_header, print_row, secs, time_once};
use ws_core::{FieldId, Wsd};
use ws_relational::CmpOp;
use ws_relational::{Predicate, Value};

/// An observed session may cost at most this multiple of the baseline…
const OBS_OVERHEAD_LIMIT: f64 = 1.10;

/// …plus this additive floor, which absorbs scheduler noise on short runs.
const NOISE_FLOOR: Duration = Duration::from_millis(5);

/// A WSD over R[A, B, C] with an uncertain `A` every tenth tuple — the
/// sparse-uncertainty shape the other ablations use.
fn synthetic_wsd(tuples: usize) -> Wsd {
    let mut wsd = Wsd::new();
    wsd.register_relation("R", &["A", "B", "C"], tuples)
        .unwrap();
    for t in 0..tuples {
        for (i, attr) in ["A", "B", "C"].iter().enumerate() {
            let field = FieldId::new("R", t, *attr);
            let base = (t * 3 + i) as i64 % 10;
            if i == 0 && t % 10 == 0 {
                wsd.set_uniform(
                    field,
                    vec![Value::int(base), Value::int(base + 1), Value::int(base + 2)],
                )
                .unwrap();
            } else {
                wsd.set_certain(field, Value::int(base)).unwrap();
            }
        }
    }
    wsd
}

/// The mixed workload: a fresh session, two plans, `rounds` of execute +
/// confidence each.  Returns a use-the-result row count.
fn workload(backend: AnyBackend, observer: Option<&Arc<Observer>>, rounds: usize) -> usize {
    let mut session = Session::new(backend);
    if let Some(observer) = observer {
        session.set_observer(Arc::clone(observer));
    }
    let select = session
        .prepare(
            q("R")
                .select(Predicate::cmp_const("B", CmpOp::Lt, 7i64))
                .project(["A", "B"]),
        )
        .unwrap();
    let project = session.prepare(q("R").project(["A"])).unwrap();
    let mut rows = 0;
    for _ in 0..rounds {
        rows += session.execute(&select).unwrap().count();
        rows += session.confidence(&project).unwrap().len();
    }
    rows
}

/// Minimum wall-clock over `repeats` runs of `f` (noise only inflates).
fn min_time(repeats: usize, mut f: impl FnMut() -> usize) -> (usize, Duration) {
    let mut best = Duration::MAX;
    let mut result = 0;
    for _ in 0..repeats {
        let (rows, elapsed) = time_once(&mut f);
        result = rows;
        best = best.min(elapsed);
    }
    (result, best)
}

fn main() {
    println!("# Observability: the cost of watching (baseline vs observed session)");

    let sizes: &[usize] = if is_quick() { &[400] } else { &[400, 1200] };
    let repeats = if is_quick() { 3 } else { 5 };
    let rounds = if is_quick() { 30 } else { 60 };

    print_header(&[
        "tuples",
        "rounds",
        "baseline (s)",
        "observed (s)",
        "overhead",
    ]);
    for &tuples in sizes {
        let backend = AnyBackend::from(synthetic_wsd(tuples));
        // Production arming: spans flow, the slow-query ring stays silent.
        let observer = Arc::new(Observer::new());
        observer.set_slow_query_threshold(Some(Duration::from_secs(3600)));

        // Warm both paths once so lazy init lands in neither measurement.
        let warm = workload(backend.clone(), Some(&observer), 2);
        assert!(warm > 0, "the synthetic workload answered nothing");

        let (rows_base, baseline) = min_time(repeats, || workload(backend.clone(), None, rounds));
        let (rows_obs, observed) = min_time(repeats, || {
            workload(backend.clone(), Some(&observer), rounds)
        });
        assert_eq!(rows_base, rows_obs, "observation changed the answers");

        print_row(&[
            tuples.to_string(),
            rounds.to_string(),
            secs(baseline),
            secs(observed),
            format!(
                "{:.3}x",
                observed.as_secs_f64() / baseline.as_secs_f64().max(1e-9)
            ),
        ]);
        assert!(
            observed <= baseline.mul_f64(OBS_OVERHEAD_LIMIT) + NOISE_FLOOR,
            "observed session ({observed:?}) exceeds {OBS_OVERHEAD_LIMIT}× the unobserved \
             baseline ({baseline:?}) + {NOISE_FLOOR:?} at {tuples} tuples"
        );
    }
}
