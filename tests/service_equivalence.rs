//! The concurrent differential oracle of the ws-server subsystem: readers
//! pinning MVCC snapshots while writer threads race through the
//! group-commit committer must never observe anything other than a **serial
//! prefix** of the committed update sequence — bit-identically, on all five
//! backends.
//!
//! Three properties are proven here:
//!
//! 1. *Snapshot = serial prefix.* Every snapshot any reader pins carries a
//!    sequence number `s`, and its answers (possible tuples + exact
//!    confidences, compared by `f64::to_bits`) equal an in-memory replay of
//!    the first `s` committed updates, in commit (WAL) order.
//! 2. *Group commit is an interleaving.* The committed history is a
//!    permutation of the submitted updates that preserves each writer's own
//!    submission order.
//! 3. *Batches are atomic under crashes.* Cutting the WAL at any byte
//!    inside a group-commit batch frame recovers the state at the previous
//!    batch boundary — a strict subset of a batch is never visible.
//!
//! The wire protocol gets the same treatment end to end: a TCP server and
//! concurrent clients must agree with a local session replaying the same
//! updates, and reader connections racing writer connections must answer
//! like the serial replay of some prefix of the history while the
//! published image stays exactly the replay of the whole history.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use maybms::prelude::*;
use maybms::{AnyBackend, Session, UpdateExpr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ws_server::{Client, ConcurrentStore};
use ws_storage::wal::{self, WAL_FILE};
use ws_storage::SyncPolicy;

mod common;
use common::{all_backends, plan_has_difference, random_update, random_wsd, GenExpr, Generator};

fn boxed(vfs: &MemVfs) -> Box<dyn Vfs> {
    Box::new(vfs.clone())
}

/// Two base-relation probes plus two random difference-free plans.
fn probe_queries(generator: &mut Generator, rng: &mut StdRng) -> Vec<RaExpr> {
    let mut queries = vec![RaExpr::rel("R"), RaExpr::rel("S")];
    for _ in 0..2 {
        let GenExpr { expr, .. } = generator.expr(rng.gen_range(1..=2usize), false);
        queries.push(expr);
    }
    queries
}

/// Sorted possible answers + exact confidence bit patterns per probe query.
fn probe(backend: AnyBackend, queries: &[RaExpr]) -> Vec<Vec<(Tuple, u64)>> {
    let mut session = Session::new(backend);
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

/// The in-memory state after serially applying a prefix of the history.
fn reference_state(backend: &AnyBackend, prefix: &[UpdateExpr]) -> AnyBackend {
    let mut state = backend.clone();
    for update in prefix {
        let _ = maybms::apply_update(&mut state, update);
    }
    state
}

/// `sub` appears within `all` as a (not necessarily contiguous)
/// subsequence.
fn is_subsequence(sub: &[UpdateExpr], all: &[UpdateExpr]) -> bool {
    let mut it = all.iter();
    sub.iter().all(|u| it.any(|v| v == u))
}

#[test]
fn every_pinned_snapshot_is_a_serial_prefix_on_all_backends() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 3;
    let mut rng = StdRng::seed_from_u64(0x5E71CE);
    let mut generator = Generator::new(0x5EEDB);
    for round in 0..2 {
        let wsd = random_wsd(&mut rng);
        let queries = probe_queries(&mut generator, &mut rng);
        // Certain-only updates keep all five backends in the matrix and
        // every probe well-defined at every prefix.
        let plans: Vec<Vec<UpdateExpr>> = (0..WRITERS)
            .map(|_| {
                (0..PER_WRITER)
                    .map(|_| random_update(&mut generator, &mut rng, false, false))
                    .collect()
            })
            .collect();

        for (name, backend) in all_backends(&wsd) {
            let label = format!("round {round}/{name}");
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

            // Writers race their private slices through the committer while
            // readers keep pinning whatever is published.
            let mut threads = Vec::new();
            for writer in plans.clone() {
                let store = store.clone();
                threads.push(std::thread::spawn(move || {
                    for update in writer {
                        store.update(update).unwrap();
                    }
                }));
            }
            let mut readers = Vec::new();
            for _ in 0..2 {
                let store = store.clone();
                readers.push(std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    loop {
                        let snap = store.snapshot();
                        let done = snap.seq == (WRITERS * PER_WRITER) as u64;
                        seen.push(snap);
                        if done {
                            return seen;
                        }
                        std::thread::yield_now();
                    }
                }));
            }
            for t in threads {
                t.join().unwrap();
            }
            let mut observed: Vec<Arc<ws_server::StoreSnapshot<AnyBackend>>> = readers
                .into_iter()
                .flat_map(|r| r.join().unwrap())
                .collect();
            observed.push(store.snapshot());
            let history = store.history().unwrap();
            store.close().unwrap();

            // Property 2: the history interleaves the writers.
            assert_eq!(history.len(), WRITERS * PER_WRITER, "[{label}]");
            for writer in &plans {
                assert!(
                    is_subsequence(writer, &history),
                    "[{label}] a writer's submission order was reordered"
                );
            }

            // Property 1: each distinct observed snapshot answers exactly
            // like the serial replay of its prefix, bit-identically.
            observed.sort_by_key(|s| s.seq);
            observed.dedup_by_key(|s| s.seq);
            for snap in observed {
                let reference = reference_state(&backend, &history[..snap.seq as usize]);
                assert_eq!(
                    probe(snap.backend.clone(), &queries),
                    probe(reference, &queries),
                    "[{label}] snapshot at seq {} is not the serial prefix",
                    snap.seq
                );
            }
        }
    }
}

#[test]
fn a_torn_group_commit_batch_recovers_to_the_batch_boundary() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let mut generator = Generator::new(0x5EEDC);
    let wsd = random_wsd(&mut rng);
    let queries = probe_queries(&mut generator, &mut rng);
    let updates: Vec<UpdateExpr> = (0..8)
        .map(|_| random_update(&mut generator, &mut rng, false, false))
        .collect();

    for (name, backend) in all_backends(&wsd) {
        let vfs = MemVfs::new();
        let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create(
            boxed(&vfs),
            backend.clone(),
            SyncPolicy::GroupCommit {
                max_batch: 4,
                max_wait: Duration::from_millis(10),
            },
        )
        .unwrap();
        // Race all updates so the committer forms real multi-update batches.
        let mut threads = Vec::new();
        for update in updates.clone() {
            let store = store.clone();
            threads.push(std::thread::spawn(move || store.update(update).unwrap()));
        }
        for t in threads {
            t.join().unwrap();
        }
        store.close().unwrap();

        let full = vfs.bytes(WAL_FILE).unwrap();
        let scanned = wal::scan(&full).unwrap();
        assert_eq!(scanned.update_count(), updates.len(), "[{name}]");
        let last = scanned.records.last().expect("at least one record");
        let last_start = *scanned.offsets.last().unwrap();

        // The state at the last batch boundary: everything except the final
        // record's updates.
        let committed_before_last: Vec<UpdateExpr> = scanned
            .records
            .iter()
            .take(scanned.records.len() - 1)
            .flat_map(|r| r.updates.iter().cloned())
            .collect();
        let boundary = reference_state(&backend, &committed_before_last);
        let want = probe(boundary, &queries);

        // Cut strictly inside the final record's frame — the first and last
        // interior byte plus a sampled stride in between: the torn batch
        // must vanish whole at every one of them.
        let mut cuts: Vec<usize> = ((last_start + 1)..scanned.valid_len).step_by(13).collect();
        cuts.push(scanned.valid_len - 1);
        cuts.dedup();
        for cut in cuts {
            let crashed = vfs.fork();
            {
                let mut handle = crashed.clone();
                Vfs::truncate(&mut handle, WAL_FILE, cut as u64).unwrap();
            }
            let recovered = maybms::Durable::<AnyBackend>::open(boxed(&crashed)).unwrap();
            assert_eq!(
                recovered.stats().recovered_records,
                committed_before_last.len() as u64,
                "[{name}] cut at {cut}: a partial batch replayed ({} updates in the torn record)",
                last.updates.len(),
            );
            assert_eq!(
                probe(recovered.into_inner(), &queries),
                want,
                "[{name}] cut at {cut}: recovery is not the batch boundary"
            );
        }
    }
}

#[test]
fn the_wire_protocol_round_trips_the_session_verbs_concurrently() {
    let mut rng = StdRng::seed_from_u64(0x713E);
    let mut generator = Generator::new(0x5EEDD);
    let wsd = random_wsd(&mut rng);
    let updates: Vec<UpdateExpr> = (0..6)
        .map(|_| random_update(&mut generator, &mut rng, false, false))
        .collect();

    let backend = AnyBackend::from(wsd.clone());
    let vfs = MemVfs::new();
    let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create_recording(
        boxed(&vfs),
        backend.clone(),
        SyncPolicy::GroupCommit {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        },
    )
    .unwrap();
    let handle = ws_server::spawn("127.0.0.1:0", store.clone()).unwrap();
    let addr = handle.addr();

    // Three clients apply updates concurrently over TCP.
    let mut writers = Vec::new();
    for chunk in updates.chunks(2) {
        let chunk = chunk.to_vec();
        writers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for update in &chunk {
                client.apply(update).unwrap();
            }
            client.close().unwrap();
        }));
    }
    for w in writers {
        w.join().unwrap();
    }

    // One client queries the settled state; a local session over the serial
    // replay must agree bit-identically.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.seq(), updates.len() as u64);
    let plan = client.prepare(maybms::q("R")).unwrap();
    let mut remote_rows = client.execute(&plan).unwrap();
    remote_rows.sort();
    let mut remote_conf: Vec<(Tuple, u64)> = client
        .confidence(&plan)
        .unwrap()
        .into_iter()
        .map(|(t, c)| (t, c.to_bits()))
        .collect();
    remote_conf.sort();

    let reference = reference_state(&backend, &store.history().unwrap());
    let mut session = Session::over(reference);
    let prepared = session.prepare(maybms::q("R")).unwrap();
    let mut local_rows: Vec<Tuple> = session.execute(&prepared).unwrap().collect();
    local_rows.sort();
    assert_eq!(remote_rows, local_rows, "possible tuples diverge over TCP");
    let mut local_conf: Vec<(Tuple, u64)> = session
        .confidence(&prepared)
        .unwrap()
        .into_iter()
        .map(|(t, c)| (t, c.to_bits()))
        .collect();
    local_conf.sort();
    assert_eq!(remote_conf, local_conf, "confidences diverge over TCP");

    // Service counters made it into the remote summary.
    let summary = client.stats().unwrap();
    assert!(
        summary.contains("commit-batches=") && summary.contains("wire-bytes-in="),
        "service counters missing from {summary:?}"
    );
    let generation = client.checkpoint().unwrap();
    assert!(generation >= 1);
    client.shutdown_server().unwrap();
    handle.shutdown().unwrap();
    store.close().unwrap();
}

/// One read as a client sees it: the sorted possible tuples, or the sorted
/// confidences as bit patterns.
#[derive(Debug, PartialEq)]
enum Answer {
    Rows(Vec<Tuple>),
    Confidences(Vec<(Tuple, u64)>),
}

fn rows_answer(mut rows: Vec<Tuple>) -> Answer {
    rows.sort();
    Answer::Rows(rows)
}

fn confidence_answer(rows: Vec<(Tuple, f64)>) -> Answer {
    let mut bits: Vec<(Tuple, u64)> = rows.into_iter().map(|(t, c)| (t, c.to_bits())).collect();
    bits.sort();
    Answer::Confidences(bits)
}

/// Every answer a local session over `backend` gives to `plans`: an
/// execute and a confidence per plan, in that order.
fn local_answers(backend: AnyBackend, plans: &[RaExpr]) -> Vec<Answer> {
    let mut session = Session::new(backend);
    plans
        .iter()
        .flat_map(|plan| {
            let prepared = session.prepare(plan).expect("a reader plan typechecks");
            let rows = session.execute(&prepared).expect("a reader plan runs");
            let rows = rows_answer(rows.collect());
            let confidences = session.confidence(&prepared).expect("a reader plan runs");
            [rows, confidence_answer(confidences)]
        })
        .collect()
}

/// Readers and writers share the server: two reader connections execute
/// and confidence positive plans and plans with a difference (which build
/// a scratch result on the reader's copy of its pinned image) while two
/// writer connections commit.  Each answer equals the serial replay of some
/// prefix of the committed history, and the published image ends up
/// encoding exactly like the replay of all of it, on every backend.
/// U-relations reject differences, so their readers run the positive plans
/// only.
#[test]
fn wire_reads_racing_commits_answer_a_serial_prefix_on_all_backends() {
    const READS_AFTER_COMMITS: usize = 2;
    let mut rng = StdRng::seed_from_u64(0x4ACE);
    let mut generator = Generator::new(0x5EEDE);
    let wsd = random_wsd(&mut rng);
    let positive = probe_queries(&mut generator, &mut rng);
    let ab = ["A".to_string(), "B".to_string()];
    let mut differences =
        vec![RaExpr::rel("R").difference(RaExpr::rel("R").select(generator.predicate(&ab, 1)))];
    while differences.len() < 2 {
        let GenExpr { expr, .. } = generator.expr(2, true);
        if plan_has_difference(&expr) {
            differences.push(expr);
        }
    }
    let updates: Vec<UpdateExpr> = (0..8)
        .map(|_| random_update(&mut generator, &mut rng, false, false))
        .collect();

    for (name, backend) in all_backends(&wsd) {
        let mut plans = positive.clone();
        if name != "urel" {
            plans.extend(differences.iter().cloned());
        }
        let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create_recording(
            Box::new(MemVfs::new()),
            backend.clone(),
            SyncPolicy::GroupCommit {
                max_batch: 4,
                max_wait: Duration::from_millis(1),
            },
        )
        .unwrap();
        let handle = ws_server::spawn("127.0.0.1:0", store.clone()).unwrap();
        let addr = handle.addr();
        let committing = Arc::new(AtomicBool::new(true));
        // Each reader answers every plan once before the writers start.
        let start = Arc::new(Barrier::new(4));

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (plans, committing, start) =
                    (plans.clone(), Arc::clone(&committing), Arc::clone(&start));
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let remote: Vec<_> = plans.iter().map(|p| client.prepare(p).unwrap()).collect();
                    let mut answers = Vec::new();
                    let mut read_all = |client: &mut Client| {
                        for plan in &remote {
                            answers.push(rows_answer(client.execute(plan).unwrap()));
                            answers.push(confidence_answer(client.confidence(plan).unwrap()));
                        }
                    };
                    read_all(&mut client);
                    start.wait();
                    while committing.load(Ordering::SeqCst) {
                        read_all(&mut client);
                    }
                    for _ in 0..READS_AFTER_COMMITS {
                        read_all(&mut client);
                    }
                    client.close().unwrap();
                    answers
                })
            })
            .collect();
        let writers: Vec<_> = updates
            .chunks(updates.len() / 2)
            .map(|chunk| {
                let (chunk, start) = (chunk.to_vec(), Arc::clone(&start));
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    start.wait();
                    for update in &chunk {
                        client.apply(update).unwrap();
                        // Spreads the commits over the readers' loop; the
                        // check holds for every interleaving.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    client.close().unwrap();
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        committing.store(false, Ordering::SeqCst);
        let observed: Vec<Vec<Answer>> = readers
            .into_iter()
            .map(|reader| reader.join().unwrap())
            .collect();
        handle.shutdown().unwrap();
        let history = store.history().unwrap();
        assert_eq!(history.len(), updates.len(), "[{name}]");

        // The answers of the serial replay at every prefix, per plan verb.
        let per_prefix: Vec<Vec<Answer>> = (0..=history.len())
            .map(|k| local_answers(reference_state(&backend, &history[..k]), &plans))
            .collect();
        let verbs = 2 * plans.len();
        for answers in &observed {
            for (i, answer) in answers.iter().enumerate() {
                assert!(
                    per_prefix.iter().any(|serial| serial[i % verbs] == *answer),
                    "[{name}] read {i} ({}) matches no serial prefix: {answer:?}",
                    plans[(i % verbs) / 2]
                );
            }
            // Reads after the last commit re-pin the newest image.
            assert_eq!(
                answers[answers.len() - verbs..],
                per_prefix[history.len()][..],
                "[{name}] a read after the last commit missed it"
            );
        }
        assert_eq!(
            store.snapshot().backend.encode_to_vec(),
            reference_state(&backend, &history).encode_to_vec(),
            "[{name}] the published image is not the serial replay"
        );
        store.close().unwrap();
    }
}

/// A connection keeps its session — and with it the lineage memo — for as
/// long as the store does not move: two connections running 12 confidences
/// each over the same relation extract lineage once apiece, and the wire
/// `Stats` reply says so.
#[test]
fn a_connection_extracts_lineage_once_per_snapshot() {
    let mut rng = StdRng::seed_from_u64(0x11E4);
    let wsd = random_wsd(&mut rng);
    let backend = AnyBackend::from(maybms::uwsdt::from_wsd(&wsd).unwrap());
    let vfs = MemVfs::new();
    let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create_recording(
        boxed(&vfs),
        backend,
        SyncPolicy::GroupCommit {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        },
    )
    .unwrap();
    let handle = ws_server::spawn("127.0.0.1:0", store.clone()).unwrap();
    let addr = handle.addr();
    let readers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Two plans over the same base relation share one memo entry.
                let plans = [
                    client.prepare(maybms::q("R")).unwrap(),
                    client.prepare(maybms::q("R").project(["B"])).unwrap(),
                ];
                for i in 0..12 {
                    client.confidence(&plans[i % 2]).unwrap();
                }
                let summary = client.stats().unwrap();
                client.close().unwrap();
                summary
            })
        })
        .collect();
    for reader in readers {
        let summary = reader.join().unwrap();
        assert!(
            summary
                .split_whitespace()
                .any(|kv| kv == "lineage-extractions=1"),
            "one extraction per connection expected in {summary:?}"
        );
        assert!(
            summary.split_whitespace().any(|kv| kv == "conf-exact=0"),
            "the compiled tier must answer: {summary:?}"
        );
    }
    assert_eq!(store.seq(), 0, "the store never moved");
    handle.shutdown().unwrap();
    store.close().unwrap();
}
