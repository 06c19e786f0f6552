//! Observability end to end: run an *observed* ws-server over an in-memory
//! store, push a mixed read/write workload through it from concurrent
//! clients, then read everything the observer saw — the Prometheus scrape
//! (over the wire verb *and* over plain HTTP), the slow-query log, and an
//! `explain_analyze` profile of the workload's main query.
//!
//! Run with: `cargo run --example observed_service -p maybms`

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use maybms::obs::Observer;
use maybms::prelude::*;
use maybms::storage::{MemVfs, SyncPolicy, Vfs};
use maybms::{q, AnyBackend, Session, UpdateExpr};
use ws_server::{serve_metrics, spawn, Client, ConcurrentStore, Pinned};

const CLIENTS: usize = 3;
const ROUNDS: i64 = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --------------------------------------------------------------
    // 1. One Observer for the whole service: WAL timings, committer
    //    batch sizes, per-operator kernel histograms and query spans
    //    all land in this registry.  Threshold 0 records every query
    //    in the slow-query ring so the demo has something to show.
    // --------------------------------------------------------------
    let observer = Arc::new(Observer::new());
    observer.set_slow_query_threshold(Some(Duration::ZERO));

    let backend = AnyBackend::Wsd(maybms::core::wsd::example_census_wsd());
    let vfs: Box<dyn Vfs> = Box::new(MemVfs::new());
    let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create_observed(
        vfs,
        backend,
        SyncPolicy::GroupCommit {
            max_batch: 16,
            max_wait: Duration::from_millis(2),
        },
        Arc::clone(&observer),
    )?;
    let handle = spawn("127.0.0.1:0", store.clone())?;
    let scrape = serve_metrics("127.0.0.1:0", Arc::clone(&observer))?;
    println!(
        "serving on {}, metrics on http://{}/metrics",
        handle.addr(),
        scrape.addr()
    );

    // --------------------------------------------------------------
    // 2. A mixed workload: concurrent clients interleaving reads
    //    (execute + tuple confidence) with durable inserts.
    // --------------------------------------------------------------
    let answered: usize = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..CLIENTS {
            let addr = handle.addr();
            workers.push(
                scope.spawn(move || -> Result<usize, ws_server::ServiceError> {
                    let mut client = Client::connect(addr)?;
                    let plan = client.prepare(q("R").project(["S"]))?;
                    let mut rows = 0;
                    for round in 0..ROUNDS {
                        rows += client.execute(&plan)?.len();
                        rows += client.confidence(&plan)?.len();
                        let id = worker as i64 * ROUNDS + round;
                        client.apply(&UpdateExpr::insert(
                            "R",
                            Tuple::from_iter([200 + id, 300 + id, 400 + id]),
                        ))?;
                    }
                    client.close()?;
                    Ok(rows)
                }),
            );
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread").expect("client round-trip"))
            .sum()
    });
    println!("{CLIENTS} clients answered {answered} rows over {ROUNDS} rounds each");

    // --------------------------------------------------------------
    // 3. Scrape the registry both ways: the wire verb and plain HTTP.
    // --------------------------------------------------------------
    let mut client = Client::connect(handle.addr())?;
    let wire_text = client.metrics()?;
    let mut http = std::net::TcpStream::connect(scrape.addr())?;
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: demo\r\n\r\n")?;
    let mut http_text = String::new();
    http.read_to_string(&mut http_text)?;
    assert!(http_text.starts_with("HTTP/1.1 200 OK"));

    println!("\n== metrics (a selection of the scrape) ==");
    for line in wire_text.lines().filter(|l| {
        [
            "ws_exec_",
            "ws_wal_",
            "ws_store_commit_batch_size",
            "ws_span_",
        ]
        .iter()
        .any(|p| l.starts_with(p))
            && (l.contains("_count ") || !l.contains("quantile"))
    }) {
        println!("  {line}");
    }

    // --------------------------------------------------------------
    // 4. The slow-query log: threshold 0 means every query is "slow",
    //    each with its session/request ids and rendered plan.
    // --------------------------------------------------------------
    println!("\n== slow-query log (threshold 0, newest last) ==");
    for event in observer.slow_queries() {
        println!("  {}", event.render_line());
    }

    // --------------------------------------------------------------
    // 5. explain_analyze: a local session over the *served* state
    //    (the newest snapshot, read in place), profiling the workload's
    //    main query — one `lineage` node, since the lineage answers it
    //    and no operator runs.
    // --------------------------------------------------------------
    let mut session = Session::new(Pinned::from(store.snapshot()));
    let prepared = session.prepare(q("R").project(["S"]))?;
    let profile = session.explain_analyze(&prepared)?;
    println!("\n== explain_analyze over the served state ==");
    print!("{profile}");

    client.shutdown_server()?;
    handle.shutdown()?;
    scrape.shutdown()?;
    store.close()?;
    println!("\ndone.");
    Ok(())
}
