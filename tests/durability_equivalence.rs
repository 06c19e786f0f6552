//! The differential crash-recovery oracle: random update sequences applied
//! through a **durable** session (write-ahead logged onto a fault-injecting
//! in-memory medium), with a simulated crash after every prefix of WAL
//! records — plus torn mid-record tails — and recovery checked against the
//! uninterrupted in-memory run of the same prefix.
//!
//! For every backend, every crash point, with the optimizer on and off at 1
//! and 4 worker threads, the recovered state must answer queries
//! *bit-identically* to the in-memory reference: the same possible tuples,
//! the same exact confidences (compared by `f64::to_bits`), the same
//! reported conditioning masses, and the same `Inconsistent` outcomes at
//! the same step.
//!
//! A proptest half covers the codec beneath it all: for random world-sets,
//! `decode(encode(x))` re-encodes to the identical bytes on all five
//! representations, and the decoded state answers like the original.

use maybms::prelude::*;
use maybms::{q, AnyBackend, Durable, Persist, Session, UpdateExpr};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ws_storage::wal::{self, WAL_FILE};

mod common;
use common::{all_backends, assert_valid, random_update, random_wsd, GenExpr, Generator};

fn boxed(vfs: &MemVfs) -> Box<dyn Vfs> {
    Box::new(vfs.clone())
}

/// The probe queries of one round: the two base relations plus two random
/// difference-free plans (so U-relations stay comparable).
fn probe_queries(generator: &mut Generator, rng: &mut StdRng) -> Vec<RaExpr> {
    let mut queries = vec![RaExpr::rel("R"), RaExpr::rel("S")];
    for _ in 0..2 {
        let GenExpr { expr, .. } = generator.expr(rng.gen_range(1..=2usize), false);
        queries.push(expr);
    }
    queries
}

/// Sorted possible answers + exact confidences of every probe query, under
/// one engine configuration.  Confidences are kept as raw bits so equality
/// is bit-identity, not an epsilon.
fn probe(backend: AnyBackend, config: EngineConfig, queries: &[RaExpr]) -> Vec<Vec<(Tuple, u64)>> {
    let mut session = Session::with_config(backend, config);
    queries
        .iter()
        .map(|query| {
            let prepared = session.prepare(query).expect("probe query typechecks");
            let mut rows: Vec<(Tuple, u64)> = session
                .confidence(&prepared)
                .expect("probe query evaluates")
                .into_iter()
                .map(|(t, c)| (t, c.to_bits()))
                .collect();
            rows.sort();
            rows
        })
        .collect()
}

/// The four engine configurations of the acceptance matrix.
fn configs() -> Vec<(String, EngineConfig)> {
    let mut out = Vec::new();
    for (label, base) in [
        ("optimized", EngineConfig::default()),
        ("naive", EngineConfig::naive()),
    ] {
        for threads in [1usize, 4] {
            out.push((
                format!("{label}/t{threads}"),
                EngineConfig { threads, ..base },
            ));
        }
    }
    out
}

/// Run one update sequence through a durable session and an in-memory
/// oracle session side by side, asserting identical per-step outcomes.
/// Returns the medium holding the full WAL.
fn run_side_by_side(label: &str, backend: &AnyBackend, updates: &[UpdateExpr]) -> MemVfs {
    let vfs = MemVfs::new();
    let mut durable = Session::create_durable_on(boxed(&vfs), backend.clone()).unwrap();
    let mut oracle = Session::over(backend.clone());
    for update in updates {
        let outcomes = (durable.apply(update), oracle.apply(update));
        assert_valid(
            durable.backend().inner(),
            &format!("{label} durable: {update}"),
        );
        assert_valid(oracle.backend(), &format!("{label} in-memory: {update}"));
        match outcomes {
            (Ok(a), Ok(b)) => assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "[{label}] {update}: durable mass {a} vs in-memory {b}"
            ),
            (Err(a), Err(b)) => {
                // Failures must be the *same* deterministic failure — an
                // inconsistent conditioning step on both sides, or the same
                // backend diagnosis verbatim.
                assert_eq!(
                    a.is_inconsistent(),
                    b.is_inconsistent(),
                    "[{label}] {update}: inconsistency verdicts disagree"
                );
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "[{label}] {update}: error diagnoses disagree"
                );
            }
            (a, b) => panic!(
                "[{label}] {update}: durable says {:?}, in-memory says {:?}",
                a.map(|_| "ok").map_err(|e| e.to_string()),
                b.map(|_| "ok").map_err(|e| e.to_string()),
            ),
        }
    }
    assert_eq!(durable.stats().wal_records, updates.len() as u64);
    durable.close().unwrap();
    vfs
}

/// The in-memory state after applying a prefix of the sequence, failures
/// reproduced in place (an inconsistent conditioning step leaves its
/// deterministic partial state behind, exactly like live and like replay).
fn reference_state(backend: &AnyBackend, prefix: &[UpdateExpr]) -> AnyBackend {
    let mut state = backend.clone();
    for update in prefix {
        let _ = maybms::apply_update(&mut state, update);
        assert_valid(&state, update);
    }
    state
}

/// Crash the medium at `cut` WAL bytes, recover, and compare against the
/// reference prefix state under every engine configuration.
fn crash_and_compare(
    label: &str,
    vfs: &MemVfs,
    cut: usize,
    backend: &AnyBackend,
    prefix: &[UpdateExpr],
    queries: &[RaExpr],
) {
    let image = vfs.fork();
    {
        let mut handle = image.clone();
        Vfs::truncate(&mut handle, WAL_FILE, cut as u64).unwrap();
    }
    let recovered = Durable::<AnyBackend>::open(Box::new(image))
        .unwrap_or_else(|e| panic!("[{label}] recovery at cut {cut} failed: {e}"));
    assert_eq!(
        recovered.stats().recovered_records,
        prefix.len() as u64,
        "[{label}] cut {cut} must replay exactly the logged prefix"
    );
    let recovered = recovered.into_inner();
    let reference = reference_state(backend, prefix);
    for (config_label, config) in configs() {
        let got = probe(recovered.clone(), config, queries);
        let want = probe(reference.clone(), config, queries);
        assert_eq!(
            got,
            want,
            "[{label}/{config_label}] answers diverge after crash at {} of {} update(s)",
            prefix.len(),
            vfs.bytes(WAL_FILE).map(|b| b.len()).unwrap_or(0),
        );
    }
}

#[test]
fn recovery_is_bit_identical_at_every_wal_record_boundary() {
    let mut rng = StdRng::seed_from_u64(0xD0_5AFE);
    let mut generator = Generator::new(0x5EED9);
    let mut inconsistent_sequences = 0usize;
    let mut conditioned_sequences = 0usize;
    for round in 0..10 {
        let wsd = random_wsd(&mut rng);
        let queries = probe_queries(&mut generator, &mut rng);
        // Update-only sequence; queries run at the crash points. Fractional
        // inserts are capped so the explicit-worlds backend stays small.
        let n_updates = rng.gen_range(3..=5usize);
        let mut fractional = 0usize;
        let updates: Vec<UpdateExpr> = (0..n_updates)
            .map(|_| {
                let u = random_update(&mut generator, &mut rng, fractional < 2, true);
                if matches!(&u, UpdateExpr::InsertPossible { prob, .. } if *prob > 0.0 && *prob < 1.0)
                {
                    fractional += 1;
                }
                u
            })
            .collect();
        let has_fractional = fractional > 0;
        conditioned_sequences += updates
            .iter()
            .any(|u| matches!(u, UpdateExpr::Condition { .. }))
            as usize;

        for (name, backend) in all_backends(&wsd) {
            if name == "database" && has_fractional {
                // A single world cannot split; it gets certain-only rounds.
                continue;
            }
            let label = format!("round {round}/{name}");
            let vfs = run_side_by_side(&label, &backend, &updates);
            let full = vfs.bytes(WAL_FILE).unwrap();
            let scanned = wal::scan(&full).unwrap();
            assert_eq!(scanned.records.len(), updates.len());
            inconsistent_sequences += {
                let mut probe_state = backend.clone();
                updates
                    .iter()
                    .any(|u| maybms::apply_update(&mut probe_state, u).is_err())
                    as usize
            };

            // Crash after every record boundary (0 records .. all records).
            for i in 0..=updates.len() {
                let cut = if i < updates.len() {
                    scanned.offsets[i]
                } else {
                    scanned.valid_len
                };
                crash_and_compare(&label, &vfs, cut, &backend, &updates[..i], &queries);
                // And mid-record: the torn tail must truncate back to the
                // same prefix.
                if i < updates.len() {
                    crash_and_compare(&label, &vfs, cut + 3, &backend, &updates[..i], &queries);
                }
            }
        }
    }
    assert!(
        conditioned_sequences > 2,
        "the generator produced too few conditioning steps"
    );
    assert!(
        inconsistent_sequences > 0,
        "no sequence exercised the inconsistent outcome"
    );
}

#[test]
fn checkpoints_move_the_recovery_base_without_changing_answers() {
    let mut rng = StdRng::seed_from_u64(0xC0C0A);
    let mut generator = Generator::new(0x5EEDA);
    for _ in 0..6 {
        let wsd = random_wsd(&mut rng);
        let queries = probe_queries(&mut generator, &mut rng);
        let before: Vec<UpdateExpr> = (0..2)
            .map(|_| random_update(&mut generator, &mut rng, false, false))
            .collect();
        let after: Vec<UpdateExpr> = (0..2)
            .map(|_| random_update(&mut generator, &mut rng, false, false))
            .collect();
        for (name, backend) in all_backends(&wsd) {
            let vfs = MemVfs::new();
            let mut durable = Session::create_durable_on(boxed(&vfs), backend.clone()).unwrap();
            for u in &before {
                durable.apply(u).unwrap();
                assert_valid(durable.backend().inner(), &format!("{name}: {u}"));
            }
            // Leave a live scratch result registered, then checkpoint: the
            // snapshot must hold base relations only.
            let p = durable.prepare(q("R")).unwrap();
            let _ = durable.materialize(&p).unwrap();
            let generation = durable.checkpoint().unwrap();
            assert_eq!(generation, 1, "[{name}] first checkpoint");
            assert_eq!(durable.stats().wal_records, 0);
            for u in &after {
                durable.apply(u).unwrap();
                assert_valid(durable.backend().inner(), &format!("{name}: {u}"));
            }
            durable.close().unwrap();

            let recovered = Durable::<AnyBackend>::open(boxed(&vfs)).unwrap();
            assert_eq!(recovered.generation(), 1);
            assert_eq!(
                recovered.stats().recovered_records,
                after.len() as u64,
                "[{name}] only the post-checkpoint tail replays"
            );
            let mut reference = backend.clone();
            for u in before.iter().chain(&after) {
                maybms::apply_update(&mut reference, u).unwrap();
                assert_valid(&reference, &format!("{name} reference: {u}"));
            }
            let config = EngineConfig::default();
            assert_eq!(
                probe(recovered.into_inner(), config, &queries),
                probe(reference, config, &queries),
                "[{name}] checkpointed recovery diverges"
            );
        }
    }
}

/// A delete that matches nothing still normalizes the chased census UWSDT.
/// Normalization must never drop a component a presence condition still
/// names: the checkpointed store has to reopen, validate, and answer Q1–Q6
/// exactly as before the delete.
#[test]
fn a_no_op_delete_on_the_chased_census_survives_checkpoint_and_reopen() {
    let relation = maybms::census::RELATION_NAME;
    let delete = UpdateExpr::delete(relation, Predicate::eq_const("CITIZEN", 1_000_000i64));
    let queries: Vec<RaExpr> = maybms::census::all_queries()
        .into_iter()
        .map(|(_, query)| query)
        .collect();
    for seed in 101..=110u64 {
        let scenario = CensusScenario::new(10_000, 0.001, seed);
        let before = AnyBackend::from(scenario.chased_uwsdt().expect("the census chase succeeds"));
        let vfs = MemVfs::new();
        let mut durable = Session::create_durable_on(boxed(&vfs), before.clone()).unwrap();
        durable.apply(&delete).unwrap();
        assert_valid(durable.backend().inner(), &format!("seed {seed}: {delete}"));
        durable.checkpoint().unwrap();
        let written = durable.backend().inner().clone();
        durable.close().unwrap();

        let reopened = Durable::<AnyBackend>::open(boxed(&vfs))
            .unwrap_or_else(|e| panic!("[seed {seed}] the checkpointed store reopens: {e}"))
            .into_inner();
        let AnyBackend::Uwsdt(recovered) = &reopened else {
            panic!("[seed {seed}] the store reopens as a UWSDT");
        };
        recovered
            .validate()
            .unwrap_or_else(|e| panic!("[seed {seed}] the reopened UWSDT validates: {e}"));
        // The UWSDT's own exact path: the compiled tier would add nothing
        // here but time.
        let confidences = |backend: AnyBackend| {
            let mut session = Session::over(backend);
            session.set_confidence_strategy(ConfidenceStrategy::ExactOnly);
            queries
                .iter()
                .map(|query| {
                    let prepared = session.prepare(query).expect("Q1–Q6 typecheck");
                    let rows = session.confidence(&prepared).expect("Q1–Q6 evaluate");
                    rows.into_iter()
                        .map(|(tuple, c)| (tuple, c.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let expected = confidences(before);
        assert_eq!(
            confidences(written),
            expected,
            "[seed {seed}] a delete that matches nothing changes Q1–Q6"
        );
        assert_eq!(
            confidences(reopened),
            expected,
            "[seed {seed}] Q1–Q6 confidences change across checkpoint and reopen"
        );
    }
}

/// A one-world store whose only base relation is named like a scratch
/// result, plus the row the round trips below insert into it.
fn audit_store() -> (Database, Tuple, Vec<Tuple>) {
    let mut audit = Relation::new(Schema::new("__audit", &["WHO", "WHAT"]).unwrap());
    audit.push_values(["alice", "login"]).unwrap();
    let mut db = Database::new();
    db.insert_relation(audit);
    let inserted = Tuple::from_iter(["bob", "logout"]);
    let mut expected = vec![Tuple::from_iter(["alice", "login"]), inserted.clone()];
    expected.sort();
    (db, inserted, expected)
}

// A checkpoint snapshots what the store holds: a *base* relation whose name
// starts with `__` survives create → insert → close → reopen, on a bare
// durable session and through the concurrent store's checkpoint.
#[test]
fn double_underscore_base_relations_survive_recovery() {
    let (db, inserted, expected) = audit_store();
    let vfs = MemVfs::new();
    let mut session = Session::create_durable_on(boxed(&vfs), db.clone()).unwrap();
    session
        .apply(&UpdateExpr::insert("__audit", inserted.clone()))
        .unwrap();
    session.close().unwrap();
    let mut reopened = Session::open_durable_on(boxed(&vfs)).unwrap();
    assert_eq!(reopened.stats().wal_records, 1, "the insert replays");
    let plan = reopened
        .prepare(q("__audit"))
        .expect("the reopened session still holds __audit");
    let mut rows: Vec<Tuple> = reopened.execute(&plan).unwrap().collect();
    rows.sort();
    assert_eq!(rows, expected, "durable session lost __audit rows");

    use ws_server::ConcurrentStore;
    use ws_storage::SyncPolicy;
    let vfs = MemVfs::new();
    let store: ConcurrentStore<AnyBackend> =
        ConcurrentStore::create(boxed(&vfs), db.into(), SyncPolicy::EveryRecord).unwrap();
    store
        .update(UpdateExpr::insert("__audit", inserted))
        .unwrap();
    assert_eq!(store.checkpoint().unwrap(), 1);
    store.close().unwrap();
    let store: ConcurrentStore<AnyBackend> =
        ConcurrentStore::open(boxed(&vfs), SyncPolicy::EveryRecord).unwrap();
    let snapshot = store.snapshot();
    let mut session = Session::new(snapshot.backend.clone());
    let plan = session
        .prepare(q("__audit"))
        .expect("the reopened store still holds __audit");
    let mut rows: Vec<Tuple> = session.execute(&plan).unwrap().collect();
    rows.sort();
    assert_eq!(rows, expected, "checkpointed store lost __audit rows");
    store.close().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Property: on every backend, the snapshot codec round-trips exactly —
    // re-encoding the decoded state reproduces the identical bytes, and the
    // decoded state answers queries identically to the original.
    #[test]
    fn codec_roundtrips_every_backend(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DEC);
        let wsd = random_wsd(&mut rng);
        let queries = vec![RaExpr::rel("R"), RaExpr::rel("S")];
        for (name, backend) in all_backends(&wsd) {
            let bytes = backend.encode_to_vec();
            let decoded = AnyBackend::decode_from_slice(&bytes)
                .unwrap_or_else(|e| panic!("[{name}] decode failed: {e}"));
            prop_assert_eq!(
                decoded.encode_to_vec(),
                bytes,
                "[{}] decode(encode(x)) must re-encode identically",
                name
            );
            let config = EngineConfig::default();
            prop_assert_eq!(
                probe(decoded, config, &queries),
                probe(backend, config, &queries),
                "[{}] decoded state answers differently",
                name
            );
        }
    }

    // Property: a WAL tail torn at *any* byte position recovers to some
    // record-boundary prefix — never an error, never a half-applied record.
    #[test]
    fn torn_tails_always_recover_to_a_record_boundary(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7047);
        let mut generator = Generator::new(seed ^ 0x5EEDB);
        let wsd = random_wsd(&mut rng);
        let backend = AnyBackend::from(wsd);
        let updates: Vec<UpdateExpr> = (0..3)
            .map(|_| random_update(&mut generator, &mut rng, true, false))
            .collect();
        let vfs = run_side_by_side("torn", &backend, &updates);
        let full = vfs.bytes(WAL_FILE).unwrap();
        let scanned = wal::scan(&full).unwrap();
        let cut = rng.gen_range(wal::WAL_HEADER_LEN..=full.len());
        let image = vfs.fork();
        {
            let mut handle = image.clone();
            Vfs::truncate(&mut handle, WAL_FILE, cut as u64).unwrap();
        }
        let recovered = Durable::<AnyBackend>::open(Box::new(image)).unwrap();
        let replayed = recovered.stats().recovered_records as usize;
        prop_assert!(replayed <= updates.len());
        // The replayed count is exactly the number of whole records below
        // the cut.
        let whole = scanned
            .offsets
            .iter()
            .enumerate()
            .take_while(|(i, &off)| {
                let end = scanned
                    .offsets
                    .get(i + 1)
                    .copied()
                    .unwrap_or(scanned.valid_len);
                end <= cut && off < cut
            })
            .count();
        prop_assert_eq!(replayed, whole, "cut at {} of {}", cut, full.len());
    }
}

/// Satellite of the ws-server PR: a reader that pins a snapshot and then
/// sits through checkpoint churn must keep its image even after keep-2
/// pruning has removed that generation's file from disk — MVCC pinning is
/// `Arc` liveness, not file liveness.
#[test]
fn pinned_readers_survive_checkpoint_churn_past_keep_2_pruning() {
    use std::time::Duration;
    use ws_server::ConcurrentStore;
    use ws_storage::snapshot::snapshot_name;
    use ws_storage::SyncPolicy;

    const CHURN: usize = 4;
    let mut rng = StdRng::seed_from_u64(0xC8A9);
    let mut generator = Generator::new(0x5EEDE);
    let wsd = random_wsd(&mut rng);
    let queries = probe_queries(&mut generator, &mut rng);
    let updates: Vec<UpdateExpr> = (0..CHURN)
        .map(|_| random_update(&mut generator, &mut rng, false, false))
        .collect();

    for (name, backend) in all_backends(&wsd) {
        let vfs = MemVfs::new();
        let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create_recording(
            boxed(&vfs),
            backend.clone(),
            SyncPolicy::GroupCommit {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
            },
        )
        .unwrap();

        // Pin one snapshot per generation while churning through
        // update+checkpoint cycles.
        let mut pinned = vec![store.snapshot()];
        for update in &updates {
            store.update(update.clone()).unwrap();
            store.checkpoint().unwrap();
            pinned.push(store.snapshot());
        }
        let history = store.history();
        store.close().unwrap();

        // Keep-2 pruning has removed the early generations from disk…
        let files = {
            let mut handle = vfs.clone();
            Vfs::list(&mut handle).unwrap()
        };
        assert!(
            !files.contains(&snapshot_name(0)) && !files.contains(&snapshot_name(1)),
            "[{name}] early snapshot generations should be pruned, files: {files:?}"
        );
        assert!(
            files.contains(&snapshot_name(CHURN as u64)),
            "[{name}] the newest generation must exist"
        );

        // …yet every pinned image still answers exactly as the serial
        // prefix it was pinned at, bit-identically.
        let config = EngineConfig::default();
        for snap in pinned {
            assert_eq!(
                snap.generation, snap.seq,
                "[{name}] one checkpoint per update in this schedule"
            );
            let reference = reference_state(&backend, &history[..snap.seq as usize]);
            assert_eq!(
                probe(snap.backend.clone(), config, &queries),
                probe(reference, config, &queries),
                "[{name}] the image pinned at generation {} drifted",
                snap.generation
            );
        }
    }
}
