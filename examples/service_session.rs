//! The service layer end to end: start a `ws-server` over a durable store,
//! talk to it through the binary wire protocol from several concurrent
//! clients, watch the group-commit batcher coalesce their writes, and prove
//! the store recovers to the served state after a restart.
//!
//! Run with: `cargo run --example service_session -p maybms [store-dir]`
//! (the store defaults to `target/service-session-demo`).

use std::time::Duration;

use maybms::prelude::*;
use maybms::storage::{DirVfs, SyncPolicy, Vfs};
use maybms::{q, AnyBackend, UpdateExpr};
use ws_server::{spawn, Client, ConcurrentStore, Pinned};

const WRITERS: usize = 4;
const PER_WRITER: i64 = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/service-session-demo".to_string());
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // --------------------------------------------------------------
    // 1. Start the service: a durable store on disk, writes coalesced
    //    by the group-commit batcher, served on an ephemeral TCP port.
    // --------------------------------------------------------------
    let backend = AnyBackend::Wsd(maybms::core::wsd::example_census_wsd());
    let vfs: Box<dyn Vfs> = Box::new(DirVfs::open(&dir)?);
    let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create(
        vfs,
        backend,
        SyncPolicy::GroupCommit {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
        },
    )?;
    let handle = spawn("127.0.0.1:0", store.clone())?;
    let addr = handle.addr();
    println!("serving {dir} on {addr}");

    // --------------------------------------------------------------
    // 2. A read session: prepare once, execute against the newest
    //    committed snapshot (the server re-pins per request).
    // --------------------------------------------------------------
    let mut reader = Client::connect(addr)?;
    println!("connected to a {} store", reader.backend_name());
    let names = reader.prepare(q("R").project(["N"]))?;
    println!("prepared: {}", names.display());
    let before = reader.execute(&names)?;
    println!("{} possible names before the writers run", before.len());

    // --------------------------------------------------------------
    // 3. Concurrent writers: each with its own connection, racing
    //    inserts into the same relation.  The committer coalesces
    //    them — watch commit-batches stay well under the update count.
    // --------------------------------------------------------------
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        let mut workers = Vec::new();
        for writer in 0..WRITERS {
            workers.push(
                scope.spawn(move || -> Result<f64, ws_server::ServiceError> {
                    let mut client = Client::connect(addr)?;
                    let mut mass = 0.0;
                    for n in 0..PER_WRITER {
                        let row = writer as i64 * PER_WRITER + n;
                        mass += client.apply(&UpdateExpr::insert(
                            "R",
                            Tuple::from_iter([
                                Value::int(9_000 + row),
                                Value::text(format!("Writer{writer}-{n}")),
                                Value::int(row % 4),
                            ]),
                        ))?;
                    }
                    client.close()?;
                    Ok(mass)
                }),
            );
        }
        for worker in workers {
            worker.join().expect("a writer panicked")?;
        }
        Ok(())
    })?;
    let total = WRITERS as i64 * PER_WRITER;
    println!("{WRITERS} writers committed {total} inserts");

    let after = reader.execute(&names)?;
    assert_eq!(after.len(), before.len() + total as usize);
    println!(
        "{} possible names after (snapshot re-pinned per request)",
        after.len()
    );

    let stats = store.stats();
    println!(
        "store counters: {} updates in {} commit batches (mean batch {:.1})",
        stats.batched_updates,
        stats.commit_batches,
        stats.mean_batch()
    );
    println!("session stats: {}", reader.stats()?);

    // --------------------------------------------------------------
    // 4. Checkpoint, stop the service, and recover the store from
    //    disk: the reopened image must answer exactly like the
    //    served one.
    // --------------------------------------------------------------
    let generation = reader.checkpoint()?;
    println!("checkpointed as snapshot generation {generation}");
    let served_seq = store.seq();
    reader.close()?;
    handle.shutdown()?;
    store.close()?;
    println!("-- service stopped --");

    let vfs: Box<dyn Vfs> = Box::new(DirVfs::open(&dir)?);
    let reopened: ConcurrentStore<AnyBackend> =
        ConcurrentStore::open(vfs, SyncPolicy::EveryRecord)?;
    let snapshot = reopened.snapshot();
    assert_eq!(snapshot.generation, generation);
    // The session reads the recovered image in place.
    let mut session = maybms::Session::new(Pinned::from(snapshot));
    let plan = session.prepare(q("R").project(["N"]))?;
    let recovered = session.execute(&plan)?.count();
    assert_eq!(
        recovered,
        after.len(),
        "recovery must answer like the service"
    );
    reopened.close()?;
    println!(
        "recovered generation {generation} (served seq {served_seq}): \
         {recovered} names, identical to the served answer ✓"
    );
    Ok(())
}
