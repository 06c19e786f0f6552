//! Ablation: the service layer (`ws-server`) — MVCC snapshot read scaling
//! and the group-commit throughput win over per-record fsync.
//!
//! Two sections:
//!
//! * **read_scaling** — the same batch of confidence queries answered (a)
//!   serially, (b) across the machine's available parallelism (at least 2)
//!   in reader threads, and
//!   (c) serially again while a writer churns durable updates through a
//!   2 ms-per-sync medium.  Every reader works on its own pinned
//!   [`ws_server::StoreSnapshot`], so readers never block each other (the
//!   only shared state is one `Arc` clone per pin) and — the MVCC point —
//!   never wait for a writer parked inside `fsync`: the contended burst
//!   stays close to the idle one even though every concurrent commit
//!   stalls the log for 2 ms.
//! * **group_commit** — eight writer threads race updates into a
//!   [`ws_server::ConcurrentStore`] over a [`ws_storage::LatencyVfs`] that
//!   charges a fixed cost per `sync`.  `EveryRecord` pays that cost once per
//!   update; `GroupCommit` pays it once per coalesced batch.  The bench
//!   asserts the acceptance bound: the batcher must coalesce and be at least
//!   `GROUP_COMMIT_SPEEDUP_REQUIRED` (2×) faster, so a violated bound exits
//!   the bench non-zero.
//!
//! The latency wrapper makes the comparison deterministic across CI hosts —
//! on tmpfs a real fsync is nearly free and the batching win would drown in
//! scheduler noise.
//!
//! Run with: `cargo bench -p ws-bench --bench ablation_service`
//! (`WS_BENCH_QUICK=1` for the CI smoke grid).

use std::sync::atomic::Ordering;
use std::time::Duration;

use maybms::{q, AnyBackend, Session, UpdateExpr};
use ws_bench::{is_quick, print_header, print_row, secs, time_once};
use ws_core::{FieldId, Wsd};
use ws_relational::{Tuple, Value};
use ws_server::ConcurrentStore;
use ws_storage::{LatencyVfs, MemVfs, SyncPolicy, Vfs};

/// Group commit must beat per-record fsync by this factor (measured over
/// `LatencyVfs`, so the ratio is deterministic across hosts).
const GROUP_COMMIT_SPEEDUP_REQUIRED: f64 = 2.0;

/// A WSD over R[A, B, C] with `tuples` slots and an uncertain `A` every
/// tenth tuple — the sparse-uncertainty shape of the census workload (same
/// generator as `ablation_observability`).
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

/// One read transaction: pin the newest image, open a session over it and
/// answer the projection's tuple confidences.
fn one_read(store: &ConcurrentStore<AnyBackend>) -> usize {
    let snapshot = store.snapshot();
    let mut session = Session::new(snapshot.backend.clone());
    let plan = session.prepare(q("R").project(["A"])).unwrap();
    session.confidence(&plan).unwrap().len()
}

/// Answer `total` read transactions across `threads` readers; returns the
/// number of confidence rows seen (a use-the-result guard).
fn read_burst(store: &ConcurrentStore<AnyBackend>, threads: usize, total: usize) -> usize {
    if threads <= 1 {
        return (0..total).map(|_| one_read(store)).sum();
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..threads {
            let share = total / threads + usize::from(worker < total % threads);
            handles.push(scope.spawn(move || (0..share).map(|_| one_read(store)).sum::<usize>()));
        }
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn bench_read_scaling() {
    let tuples = if is_quick() { 200 } else { 600 };
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .max(2);
    let total = threads * if is_quick() { 3 } else { 6 };

    println!("\n## Snapshot read scaling ({total} confidence queries, R[{tuples} tuples])");
    print_header(&[
        "tuples",
        "queries",
        "threads",
        "serial (s)",
        "parallel (s)",
        "write-contended (s)",
    ]);

    // The store lives on a 2ms-per-sync medium: reads never touch it, but
    // the contended burst's concurrent commits each stall the log on it.
    let latency = LatencyVfs::new(Box::new(MemVfs::new()), Duration::from_millis(2));
    let backend = AnyBackend::from(synthetic_wsd(tuples));
    let store: ConcurrentStore<AnyBackend> =
        ConcurrentStore::create(Box::new(latency), backend, SyncPolicy::EveryRecord).unwrap();

    // Warm both paths once so lazy init does not land in either measurement.
    let rows = one_read(&store);
    assert!(rows > 0, "the synthetic store answered nothing");

    let (serial_rows, serial) = time_once(|| read_burst(&store, 1, total));
    let (parallel_rows, parallel) = time_once(|| read_burst(&store, threads, total));
    assert_eq!(serial_rows, parallel_rows);

    // The same serial burst while a writer commits as fast as the medium
    // lets it.  Readers stay on their pinned snapshots, so they never queue
    // behind the 2ms fsync stalls.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (contended_rows, contended) = std::thread::scope(|scope| {
        let writer_store = &store;
        let writer_stop = &stop;
        let writer = scope.spawn(move || {
            let mut n = 0i64;
            while !writer_stop.load(Ordering::Relaxed) {
                let update = UpdateExpr::insert(
                    "R",
                    Tuple::from_iter([500_000 + n, 600_000 + n, 700_000 + n]),
                );
                writer_store.update(update).unwrap();
                n += 1;
            }
            n
        });
        let result = time_once(|| read_burst(&store, 1, total));
        stop.store(true, Ordering::Relaxed);
        let committed = writer.join().unwrap();
        assert!(committed > 0, "the churn writer never committed");
        result
    });
    assert!(contended_rows >= serial_rows);

    print_row(&[
        tuples.to_string(),
        total.to_string(),
        threads.to_string(),
        secs(serial),
        secs(parallel),
        secs(contended),
    ]);
    store.close().unwrap();
}

/// Race `writers` threads, each durably applying `per_writer` inserts, and
/// return the wall-clock plus the number of syncs the medium charged.
fn write_storm(policy: SyncPolicy, writers: usize, per_writer: usize) -> (Duration, u64) {
    let latency = LatencyVfs::new(Box::new(MemVfs::new()), Duration::from_millis(2));
    let syncs = latency.sync_counter();
    let vfs: Box<dyn Vfs> = Box::new(latency);
    let backend = AnyBackend::from(synthetic_wsd(50));
    let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create(vfs, backend, policy).unwrap();
    let synced_before = syncs.load(Ordering::Relaxed);

    let (_, elapsed) = time_once(|| {
        std::thread::scope(|scope| {
            for worker in 0..writers {
                let store = &store;
                scope.spawn(move || {
                    for n in 0..per_writer {
                        let row = (worker * per_writer + n) as i64;
                        let update = UpdateExpr::insert(
                            "R",
                            Tuple::from_iter([1_000 + row, 2_000 + row, 3_000 + row]),
                        );
                        store.update(update).unwrap();
                    }
                });
            }
        })
    });

    assert_eq!(store.seq(), (writers * per_writer) as u64);
    let synced = syncs.load(Ordering::Relaxed) - synced_before;
    store.close().unwrap();
    (elapsed, synced)
}

fn bench_group_commit() {
    let writers = 8;
    let per_writer = if is_quick() { 8 } else { 25 };
    let total = writers * per_writer;

    println!("\n## Group commit vs per-record fsync ({writers} writers × {per_writer} updates, 2ms/sync)");
    print_header(&["policy", "updates", "syncs", "elapsed (s)", "updates/s"]);

    let policies = [
        ("every_record", SyncPolicy::EveryRecord),
        (
            "group_commit",
            SyncPolicy::GroupCommit {
                max_batch: 64,
                max_wait: Duration::from_millis(1),
            },
        ),
    ];
    let [(every, _), (batched, batched_syncs)] = policies.map(|(label, policy)| {
        let (elapsed, synced) = write_storm(policy, writers, per_writer);
        print_row(&[
            label.to_string(),
            total.to_string(),
            synced.to_string(),
            secs(elapsed),
            format!("{:.0}", total as f64 / elapsed.as_secs_f64().max(1e-9)),
        ]);
        (elapsed, synced)
    });

    // The acceptance bound: batching must actually coalesce (strictly fewer
    // syncs than updates) and beat per-record fsync by
    // GROUP_COMMIT_SPEEDUP_REQUIRED×.
    assert!(
        batched_syncs < total as u64,
        "group commit never coalesced: {batched_syncs} syncs for {total} updates"
    );
    assert!(
        batched.as_secs_f64() * GROUP_COMMIT_SPEEDUP_REQUIRED <= every.as_secs_f64(),
        "group commit ({batched:?}) is not {GROUP_COMMIT_SPEEDUP_REQUIRED}× faster than \
         per-record fsync ({every:?})"
    );
}

fn main() {
    println!("# Service layer: snapshot read scaling / group-commit throughput");
    bench_read_scaling();
    bench_group_commit();
}
