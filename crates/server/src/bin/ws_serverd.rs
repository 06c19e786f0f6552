//! `ws-serverd` — serve a durable world-set store over TCP.
//!
//! ```text
//! ws-serverd serve <store-dir> [addr] [--group-commit N,WAIT_MS]
//!                  [--slow-query MS] [--metrics [ADDR]]
//!     Serve an existing store directory (create it with the library or the
//!     `smoke` subcommand first).  Default addr 127.0.0.1:7878.
//!
//!     --group-commit N,WAIT_MS   Coalesce up to N updates per WAL batch,
//!                                waiting at most WAIT_MS for stragglers.
//!     --slow-query MS            Trace spans to stderr and record queries
//!                                slower than MS milliseconds in the
//!                                slow-query ring (use 0 to log every query).
//!     --metrics [ADDR]           Serve the metrics registry as Prometheus
//!                                text over HTTP at ADDR (default
//!                                127.0.0.1:9187); implies observation.
//!
//! ws-serverd smoke
//!     Self-test: bind an ephemeral port over an in-memory observed store,
//!     run one client round-trip (hello, prepare, execute, apply,
//!     confidence, checkpoint, metrics, stats, shutdown), send one `Prepare`
//!     frame nested 10 000 levels deep on a raw connection (it must be
//!     refused, and the connection must keep answering), scrape the HTTP
//!     metrics endpoint, and exit 0 iff every step answered correctly.
//!     Positive executes must come from the lineage (`exec-lineage=` > 0,
//!     `ws_exec_tier_lineage_hits` on the wire) and read the pinned image in
//!     place (`ws_server_snapshot_copies` 0, `ws_server_repin_ns` on the
//!     wire); one execute of a plan with a difference must run the
//!     operators (`ws_exec_op_`) on a copy of the image
//!     (`ws_server_snapshot_copies` ≥ 1).
//! ```

use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use maybms::{q, AnyBackend, UpdateExpr};
use ws_obs::{LineSink, Observer};
use ws_relational::Predicate;
use ws_server::wire::{read_frame, write_frame};
use ws_server::{serve, serve_metrics, spawn, Client, ConcurrentStore, Request, Response};
use ws_storage::{DirVfs, MemVfs, SyncPolicy, Vfs};

const USAGE: &str = "usage: ws-serverd serve <store-dir> [addr] [--group-commit N,WAIT_MS] \
                     [--slow-query MS] [--metrics [ADDR]]\n       ws-serverd smoke\n       \
                     ws-serverd --help";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("smoke") => cmd_smoke(),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            println!();
            println!("  --group-commit N,WAIT_MS  coalesce up to N updates per WAL batch,");
            println!("                            waiting at most WAIT_MS for stragglers");
            println!("  --slow-query MS           trace query spans to stderr and keep queries");
            println!("                            slower than MS ms in the slow-query ring");
            println!("                            (0 logs every query)");
            println!("  --metrics [ADDR]          serve Prometheus text metrics over HTTP at");
            println!("                            ADDR (default 127.0.0.1:9187)");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ws-serverd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_policy(args: &[String]) -> Result<SyncPolicy, String> {
    for (i, a) in args.iter().enumerate() {
        if a == "--group-commit" {
            let spec = args
                .get(i + 1)
                .ok_or("--group-commit needs N,WAIT_MS".to_string())?;
            let (n, wait) = spec
                .split_once(',')
                .ok_or(format!("bad --group-commit spec {spec:?}"))?;
            let max_batch: usize = n.parse().map_err(|e| format!("bad batch size: {e}"))?;
            let wait_ms: u64 = wait.parse().map_err(|e| format!("bad wait: {e}"))?;
            return Ok(SyncPolicy::GroupCommit {
                max_batch,
                max_wait: Duration::from_millis(wait_ms),
            });
        }
    }
    Ok(SyncPolicy::EveryRecord)
}

/// `--slow-query MS` → the slow-query threshold.
fn parse_slow_query(args: &[String]) -> Result<Option<Duration>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == "--slow-query" {
            let ms: u64 = args
                .get(i + 1)
                .ok_or("--slow-query needs MS".to_string())?
                .parse()
                .map_err(|e| format!("bad --slow-query threshold: {e}"))?;
            return Ok(Some(Duration::from_millis(ms)));
        }
    }
    Ok(None)
}

/// `--metrics [ADDR]` → the scrape address (the value is optional).
fn parse_metrics(args: &[String]) -> Option<String> {
    for (i, a) in args.iter().enumerate() {
        if a == "--metrics" {
            let addr = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") && v.contains(':') => v.clone(),
                _ => "127.0.0.1:9187".to_string(),
            };
            return Some(addr);
        }
    }
    None
}

/// Flag values that must not be mistaken for the positional `addr`.
fn is_flag_value(args: &[String], i: usize) -> bool {
    i > 0
        && matches!(
            args[i - 1].as_str(),
            "--group-commit" | "--slow-query" | "--metrics"
        )
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let dir = args.first().ok_or("missing <store-dir>")?;
    let addr = args
        .iter()
        .enumerate()
        .skip(1)
        .find(|(i, a)| !a.starts_with("--") && !a.contains(',') && !is_flag_value(args, *i))
        .map(|(_, a)| a.as_str())
        .unwrap_or("127.0.0.1:7878");
    let policy = parse_policy(args)?;
    let slow = parse_slow_query(args)?;
    let metrics_addr = parse_metrics(args);
    let vfs: Box<dyn Vfs> = Box::new(DirVfs::open(dir)?);

    // Any observability flag switches the store to the observed path; spans
    // go to stderr as one line each, so they interleave with our own logs.
    let observer = if slow.is_some() || metrics_addr.is_some() {
        let observer = Arc::new(Observer::with_sink(Box::new(LineSink::new(
            std::io::stderr(),
        ))));
        observer.set_slow_query_threshold(slow);
        Some(observer)
    } else {
        None
    };
    let store: ConcurrentStore<AnyBackend> = match &observer {
        Some(observer) => ConcurrentStore::open_observed(vfs, policy, Arc::clone(observer))?,
        None => ConcurrentStore::open(vfs, policy)?,
    };
    let _metrics = match (&observer, metrics_addr) {
        (Some(observer), Some(addr)) => {
            let handle = serve_metrics(addr.as_str(), Arc::clone(observer))?;
            println!("ws-serverd: metrics on http://{}/metrics", handle.addr());
            Some(handle)
        }
        _ => None,
    };

    let listener = std::net::TcpListener::bind(addr)?;
    println!("ws-serverd: serving {dir} on {}", listener.local_addr()?);
    let stop = Arc::new(AtomicBool::new(false));
    serve(listener, store.clone(), stop)?;
    store.close()?;
    println!("ws-serverd: stopped");
    Ok(())
}

fn cmd_smoke() -> Result<(), Box<dyn std::error::Error>> {
    use std::io::{Read, Write};

    let backend = AnyBackend::Wsd(maybms::core::wsd::example_census_wsd());
    let vfs: Box<dyn Vfs> = Box::new(MemVfs::new());
    let observer = Arc::new(Observer::new());
    // Threshold 0: every query lands in the slow-query ring.
    observer.set_slow_query_threshold(Some(Duration::ZERO));
    let store: ConcurrentStore<AnyBackend> = ConcurrentStore::create_observed(
        vfs,
        backend,
        SyncPolicy::GroupCommit {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        },
        Arc::clone(&observer),
    )?;
    let handle = spawn("127.0.0.1:0", store.clone())?;
    let addr = handle.addr();
    let scrape = serve_metrics("127.0.0.1:0", Arc::clone(&observer))?;
    println!("smoke: serving on {addr}, metrics on {}", scrape.addr());

    let mut client = Client::connect(addr)?;
    println!("smoke: connected to a {} store", client.backend_name());
    let plan = client.prepare(q("R").project(["S"]))?;
    let rows_before = client.execute(&plan)?.len();
    let confidences = client.confidence(&plan)?;
    let mass = client.apply(&UpdateExpr::delete("R", Predicate::eq_const("M", 4i64)))?;
    let rows_after = client.execute(&plan)?.len();

    // A difference has no lineage, so this execute runs the operators, on a
    // copy of the pinned image: the store still publishes that image (no
    // checkpoint has re-published it), so the connection shares it.
    let lineage_metrics = client.metrics()?;
    let difference =
        client.prepare(q("R").difference(q("R").select(Predicate::eq_const("M", 4i64))))?;
    client.execute(&difference)?;

    let generation = client.checkpoint()?;
    let summary = client.stats()?;
    let exec_lineage: u64 = summary
        .split_whitespace()
        .find_map(|field| field.strip_prefix("exec-lineage="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("smoke: no exec-lineage counter in {summary:?}"))?;
    println!("smoke: rows {rows_before} -> {rows_after}, {} confidences, mass {mass}, generation {generation}", confidences.len());
    println!("smoke: {summary}");
    let over_deep_refused = over_deep_frame_is_refused(addr)?;
    println!("smoke: over-deep Prepare frame refused: {over_deep_refused}");

    // The registry over the wire verb and over HTTP must agree on content.
    let wire_metrics = client.metrics()?;
    let mut http = std::net::TcpStream::connect(scrape.addr())?;
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: smoke\r\n\r\n")?;
    let mut http_response = String::new();
    http.read_to_string(&mut http_response)?;
    let slow = observer.slow_queries();
    for event in &slow {
        println!("smoke: slow-query {}", event.render_line());
    }

    client.shutdown_server()?;
    handle.shutdown()?;
    scrape.shutdown()?;
    store.close()?;

    if rows_before == 0 || confidences.is_empty() {
        return Err("smoke: the example store answered nothing".into());
    }
    if exec_lineage == 0 {
        return Err(format!("smoke: no execute was answered from the lineage: {summary}").into());
    }
    if !lineage_metrics.contains("ws_exec_tier_lineage_hits") {
        return Err(format!("smoke: no lineage executes on the wire:\n{lineage_metrics}").into());
    }
    if !wire_metrics.contains("ws_exec_op_") {
        return Err(format!("smoke: no operator metrics on the wire:\n{wire_metrics}").into());
    }
    if !lineage_metrics.contains("ws_server_repin_ns") {
        return Err(format!("smoke: no re-pin timings on the wire:\n{lineage_metrics}").into());
    }
    let (copies_before, copies_after) = (
        snapshot_copies(&lineage_metrics),
        snapshot_copies(&wire_metrics),
    );
    if copies_before != 0 || copies_after == 0 {
        return Err(format!(
            "smoke: the pinned image was copied {copies_before} times before the difference \
             and {copies_after} times after it (want 0, then at least 1)"
        )
        .into());
    }
    if !http_response.starts_with("HTTP/1.1 200 OK") || !http_response.contains("ws_wal_append_ns")
    {
        return Err(format!("smoke: bad metrics scrape:\n{http_response}").into());
    }
    if slow.is_empty() {
        return Err("smoke: a zero threshold logged no slow queries".into());
    }
    if !over_deep_refused {
        return Err("smoke: an over-deep Prepare frame was not refused cleanly".into());
    }
    println!("smoke: OK");
    Ok(())
}

/// The `ws_server_snapshot_copies` counter in a Prometheus scrape (0 while
/// nothing copied, which leaves the counter out of the registry).
fn snapshot_copies(scrape: &str) -> u64 {
    scrape
        .lines()
        .find_map(|line| line.strip_prefix("ws_server_snapshot_copies "))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or(0)
}

/// Send one `Prepare` frame whose plan nests 10 000 levels deep on a raw
/// connection: the server must answer `Error`, then still answer `Stats` on
/// the same connection.
fn over_deep_frame_is_refused(addr: SocketAddr) -> Result<bool, Box<dyn std::error::Error>> {
    let mut raw = TcpStream::connect(addr)?;
    let reply = |raw: &mut TcpStream, trace: u64, payload: &[u8]| {
        write_frame(raw, trace, payload)?;
        match read_frame(raw)? {
            Some((_, bytes)) => Ok::<_, Box<dyn std::error::Error>>(Response::decode(&bytes)?),
            None => Err("the server hung up".into()),
        }
    };
    // Tags: request Prepare (1), plan Select (1), then predicate Not (4)
    // 10 000 times, the frame ending before any comparison.
    let mut frame = vec![1u8, 1];
    frame.extend(std::iter::repeat(4u8).take(10_000));
    let refused = matches!(reply(&mut raw, 1, &frame)?, Response::Error { .. });
    let answered = matches!(
        reply(&mut raw, 2, &Request::Stats.encode())?,
        Response::Stats { .. }
    );
    Ok(refused && answered)
}
