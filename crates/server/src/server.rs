//! The TCP server: one [`ConcurrentStore`] served to many connections.
//!
//! Each connection runs on its own thread and owns a private [`Session`]
//! over a [`Pinned`] view of a store snapshot: the plan cache, lineage memo
//! and counters are the connection's own, while the image it reads is
//! shared in place with every connection pinning the same snapshot (a read
//! that must build a scratch result copies it first, see [`Pinned`]).
//! Queries (`Prepare`/`Execute`/`Confidence`) run against that pinned image
//! without taking any store lock; before each query the connection compares
//! its pinned sequence number with the store's and, if writers have
//! committed in the meantime, re-pins the newest snapshot: one `Arc::clone`
//! and a fresh session.  Its [`Prepared`] plans carry over unchanged: no
//! wire verb changes a schema, and the optimizer reads only schemas, so a
//! plan prepared on one snapshot is valid on every later one.  Writes
//! (`Apply`/`Condition`/`Checkpoint`) go straight to the store's
//! group-commit committer, so concurrent connections' updates coalesce into
//! shared WAL batches.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use maybms::{AnyBackend, Prepared, Session, SessionBackend, SessionStats, UpdateExpr};
use ws_relational::Tuple;

use crate::pinned::Pinned;
use crate::store::ConcurrentStore;
use crate::wire::{
    push_frame, read_frame, write_frame, CountingStream, Request, Response, WIRE_VERSION,
};

/// Rows per [`Response::RowBatch`] frame.
const ROW_BATCH: usize = 256;

/// Serve `store` on `listener` until `stop` is raised (by a client
/// `Shutdown` verb or [`ServerHandle::shutdown`]).
///
/// Blocks the calling thread; connection handlers run on their own threads.
/// Once `stop` is raised, every connection still open is shut down — a
/// handler waiting on an idle client wakes with end-of-stream — and every
/// handler is joined before this returns.  The store itself is *not*
/// closed — the caller decides when the committer stops.
pub fn serve(
    listener: TcpListener,
    store: ConcurrentStore<AnyBackend>,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    let addr = listener.local_addr()?;
    // Each live connection's handler, beside a handle on its socket.
    let mut workers: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else {
            continue;
        };
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        // Forget the connections whose clients already hung up.
        workers.retain(|(worker, _)| !worker.is_finished());
        let store = store.clone();
        let stop = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            // A connection error tears down that one connection only.
            let _ = handle_connection(stream, store, stop, addr);
        });
        workers.push((worker, socket));
    }
    for (_, socket) in &workers {
        let _ = socket.shutdown(Shutdown::Both);
    }
    for (worker, _) in workers {
        let _ = worker.join();
    }
    Ok(())
}

/// A running server: its address, its stop flag, and the accept thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<io::Result<()>>>,
}

/// Bind `addr` (use port 0 for an ephemeral port) and serve `store` on a
/// background thread.
pub fn spawn(
    addr: impl ToSocketAddrs,
    store: ConcurrentStore<AnyBackend>,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let serve_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("ws-server-accept".into())
        .spawn(move || serve(listener, store, serve_stop))?;
    Ok(ServerHandle {
        addr: local,
        stop,
        join: Some(join),
    })
}

impl ServerHandle {
    /// The bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the accept loop, and join it; connections
    /// still open are shut down (see [`serve`]).
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        // A throwaway connection unblocks the blocking accept.
        let _ = TcpStream::connect(self.addr);
        match self.join.take() {
            Some(join) => join
                .join()
                .map_err(|_| io::Error::other("the accept thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
            let _ = join.join();
        }
    }
}

/// Per-connection state: the pinned read session and the registered plans.
struct Conn {
    store: ConcurrentStore<AnyBackend>,
    /// The session over the pinned snapshot, which it shares with every
    /// other connection pinning the same one, and this connection's own
    /// lineage memo over it.  Rebuilt lazily when the store moves on.
    session: Option<Session<Pinned<AnyBackend>>>,
    /// Plan handle → the prepared plan.  Survives re-pins: the optimizer
    /// reads only schemas, and no wire verb changes one.
    prepared: HashMap<u64, Prepared>,
    next_plan: u64,
    /// Counters accumulated by sessions this connection already retired
    /// (each snapshot re-pin rebuilds the session, zeroing its counters).
    carried: SessionStats,
}

impl Conn {
    fn new(store: ConcurrentStore<AnyBackend>) -> Conn {
        Conn {
            store,
            session: None,
            prepared: HashMap::new(),
            next_plan: 1,
            carried: SessionStats::default(),
        }
    }

    /// Pin the newest snapshot if the committed sequence moved, and return
    /// the pinned session.  Prepared plans carry over as they are.  The
    /// re-pin — retiring the old session (whose drop may free the last
    /// reference to an old image), pinning, opening the new session — is
    /// timed into `server.repin.ns` when the store is observed.
    fn session(&mut self) -> &mut Session<Pinned<AnyBackend>> {
        let tip = self.store.seq();
        match self.session.take() {
            Some(current) if current.backend().snapshot().seq == tip => {
                self.session.insert(current)
            }
            retired => {
                let started = Instant::now();
                if let Some(old) = retired {
                    self.carried.absorb(&old.stats());
                }
                let mut session = Session::new(Pinned::from(self.store.snapshot()));
                if let Some(observer) = self.store.observer() {
                    session.set_observer(Arc::clone(observer));
                    observer
                        .metrics()
                        .histogram("server.repin.ns")
                        .record_duration(started.elapsed());
                }
                self.session.insert(session)
            }
        }
    }
}

fn error_response(e: &maybms::Error) -> Response {
    Response::Error {
        inconsistent: e.is_inconsistent(),
        message: e.to_string(),
    }
}

fn unknown_plan(plan: u64) -> Response {
    Response::Error {
        inconsistent: false,
        message: format!("unknown plan handle {plan}"),
    }
}

fn storage_error_response(e: &impl std::fmt::Display) -> Response {
    Response::Error {
        inconsistent: false,
        message: e.to_string(),
    }
}

fn handle_connection(
    stream: TcpStream,
    store: ConcurrentStore<AnyBackend>,
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut stream = CountingStream::new(stream);
    let mut conn = Conn::new(store);
    loop {
        // The trace id from the frame header is echoed on every response
        // frame of this request, so a client (or a wire capture) can match
        // responses to in-flight requests.
        let (trace, payload) = match read_frame(&mut stream)? {
            Some(p) => p,
            None => return Ok(()), // clean hang-up
        };
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                let resp = storage_error_response(&e).encode();
                write_frame(&mut stream, trace, &resp)?;
                continue;
            }
        };
        match request {
            Request::Hello { version } => {
                let resp = if version != WIRE_VERSION {
                    Response::Error {
                        inconsistent: false,
                        message: format!(
                            "wire version mismatch: client speaks {version}, server speaks {WIRE_VERSION}"
                        ),
                    }
                } else {
                    Response::HelloOk {
                        version: WIRE_VERSION,
                        backend: conn.session().backend().backend_name().to_string(),
                        seq: conn.store.seq(),
                    }
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Prepare { plan } => {
                let resp = match conn.session().prepare(plan) {
                    Ok(p) => {
                        let id = conn.next_plan;
                        conn.next_plan += 1;
                        let resp = Response::Prepared {
                            plan: id,
                            display: p.key().to_string(),
                            attrs: p.attrs().to_vec(),
                        };
                        conn.prepared.insert(id, p);
                        resp
                    }
                    Err(e) => error_response(&e),
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Execute { plan } => {
                let rows = match conn.prepared.get(&plan).cloned() {
                    Some(p) => match conn.session().execute(&p) {
                        Ok(cursor) => Ok(cursor.collect::<Vec<_>>()),
                        Err(e) => Err(error_response(&e)),
                    },
                    None => Err(unknown_plan(plan)),
                };
                match rows {
                    Ok(rows) => {
                        // Every batch frame of the answer leaves in one write;
                        // an empty answer is one empty final batch.
                        let batches: Vec<&[Tuple]> = if rows.is_empty() {
                            vec![&[]]
                        } else {
                            rows.chunks(ROW_BATCH).collect()
                        };
                        let mut reply = Vec::new();
                        for (i, batch) in batches.iter().enumerate() {
                            let resp = Response::RowBatch {
                                rows: batch.to_vec(),
                                done: i + 1 == batches.len(),
                            };
                            push_frame(&mut reply, trace, &resp.encode());
                        }
                        stream.write_all(&reply)?;
                        stream.flush()?;
                    }
                    Err(resp) => write_frame(&mut stream, trace, &resp.encode())?,
                }
            }
            Request::Confidence { plan } => {
                let resp = match conn.prepared.get(&plan).cloned() {
                    Some(p) => match conn.session().confidence(&p) {
                        Ok(rows) => Response::Confidences { rows },
                        Err(e) => error_response(&e),
                    },
                    None => unknown_plan(plan),
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Apply { update } => {
                let resp = apply_through_store(&conn.store, update);
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Condition { constraints } => {
                let resp = apply_through_store(&conn.store, UpdateExpr::condition(constraints));
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Checkpoint => {
                let resp = match conn.store.checkpoint() {
                    Ok(generation) => Response::Checkpointed { generation },
                    Err(e) => storage_error_response(&e),
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Stats => {
                let session_stats = conn.session().stats();
                let mut stats = conn.carried;
                stats.absorb(&session_stats);
                let store_stats = conn.store.stats();
                stats.snapshots_pinned = store_stats.snapshots_pinned;
                stats.commit_batches = store_stats.commit_batches;
                stats.batched_updates = store_stats.batched_updates;
                stats.wire_bytes_in = stream.bytes_in();
                stats.wire_bytes_out = stream.bytes_out();
                let resp = Response::Stats {
                    summary: stats.to_string(),
                };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Metrics => {
                let text = match conn.store.observer() {
                    Some(observer) => observer.metrics().snapshot().render_prometheus(),
                    None => String::new(),
                };
                let resp = Response::Metrics { text };
                write_frame(&mut stream, trace, &resp.encode())?;
            }
            Request::Close => {
                write_frame(&mut stream, trace, &Response::Bye.encode())?;
                return Ok(());
            }
            Request::Shutdown => {
                write_frame(&mut stream, trace, &Response::Bye.encode())?;
                stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so the flag is observed.
                let _ = TcpStream::connect(addr);
                return Ok(());
            }
        }
    }
}

/// Route one update through the committer and render the outcome.
fn apply_through_store(store: &ConcurrentStore<AnyBackend>, update: UpdateExpr) -> Response {
    match store.update(update) {
        Ok(mass) => Response::Applied {
            mass,
            seq: store.seq(),
        },
        Err(ws_storage::DurableError::Backend(e)) => error_response(&e),
        Err(ws_storage::DurableError::Storage(e)) => storage_error_response(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use std::time::{Duration, Instant};
    use ws_obs::Observer;
    use ws_relational::{Database, Predicate, RaExpr, Relation, Schema};
    use ws_storage::codec::MAX_NESTING;
    use ws_storage::{MemVfs, Persist, SyncPolicy};

    fn median_of_20(mut round_trip: impl FnMut()) -> Duration {
        let mut samples: Vec<Duration> = (0..20)
            .map(|_| {
                let start = Instant::now();
                round_trip();
                start.elapsed()
            })
            .collect();
        samples.sort();
        samples[samples.len() / 2]
    }

    /// A frame split over several writes, or an answer sent one batch per
    /// write, waits out Nagle's algorithm against the peer's 40 ms delayed
    /// ACK on every exchange; loopback round trips must stay far below that.
    #[test]
    fn loopback_round_trips_do_not_wait_for_delayed_acks() {
        let mut rel = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        for a in 0..700i64 {
            rel.push_values([a, a % 7]).unwrap();
        }
        let mut db = Database::new();
        db.insert_relation(rel);
        let store = ConcurrentStore::create(
            Box::new(MemVfs::new()),
            AnyBackend::from(db),
            SyncPolicy::EveryRecord,
        )
        .unwrap();
        let server = spawn("127.0.0.1:0", store.clone()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        let metrics = median_of_20(|| assert_eq!(client.metrics().unwrap(), ""));
        let plan = client.prepare(maybms::q("R")).unwrap();
        // 700 rows travel as three RowBatch frames.
        let execute = median_of_20(|| assert_eq!(client.execute(&plan).unwrap().len(), 700));
        assert!(
            metrics < Duration::from_millis(10),
            "Metrics p50 {metrics:?}"
        );
        assert!(
            execute < Duration::from_millis(20),
            "Execute p50 {execute:?}"
        );

        client.close().unwrap();
        server.shutdown().unwrap();
        store.close().unwrap();
    }

    /// A client that connects and then sends nothing leaves its handler
    /// blocked on a read; shutting the server down must still return, and
    /// promptly.  The shutdown runs on a helper thread so a regression fails
    /// this test instead of hanging the suite.
    #[test]
    fn shutdown_returns_while_an_idle_client_stays_connected() {
        let store = ConcurrentStore::create(
            Box::new(MemVfs::new()),
            AnyBackend::from(Database::new()),
            SyncPolicy::EveryRecord,
        )
        .unwrap();
        let server = spawn("127.0.0.1:0", store.clone()).unwrap();
        let idle = TcpStream::connect(server.addr()).unwrap();
        // A finished connection before it, so the handler list has one to
        // forget when the idle client is accepted.
        Client::connect(server.addr()).unwrap().close().unwrap();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut raw, 1, &Request::Stats.encode()).unwrap();
        read_frame(&mut raw).unwrap().unwrap();

        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(server.shutdown());
        });
        let outcome = finished
            .recv_timeout(Duration::from_secs(5))
            .expect("shutdown still blocked behind an idle client after 5 s");
        outcome.unwrap();
        // The idle connection was hung up by the server.
        assert!(read_frame(&mut raw).unwrap().is_none());
        drop(idle);
        store.close().unwrap();
    }

    /// `server.snapshot.copies` as the observer counted it so far.
    fn copies(observer: &Observer) -> u64 {
        observer.metrics().counter("server.snapshot.copies").get()
    }

    /// Whether the connection still reads the store's published image.
    fn reads_in_place(conn: &mut Conn) -> bool {
        let published = conn.store.snapshot();
        Arc::ptr_eq(conn.session().backend().snapshot(), &published)
    }

    /// What a connection answered before it shared the pinned image: a
    /// session over its own copy of the newest snapshot.
    fn answers_of_a_copy(
        store: &ConcurrentStore<AnyBackend>,
        plan: &RaExpr,
    ) -> (Vec<Tuple>, Vec<(Tuple, f64)>) {
        let mut session = Session::new(store.snapshot().backend.clone());
        let prepared = session.prepare(plan).unwrap();
        let rows = session.execute(&prepared).unwrap().collect();
        (rows, session.confidence(&prepared).unwrap())
    }

    /// A connection's answers, which must equal [`answers_of_a_copy`].
    fn answers(conn: &mut Conn, plan: &RaExpr) -> (Vec<Tuple>, Vec<(Tuple, f64)>) {
        let prepared = conn.session().prepare(plan).unwrap();
        let rows = conn.session().execute(&prepared).unwrap().collect();
        (rows, conn.session().confidence(&prepared).unwrap())
    }

    /// Positive plans read the pinned UWSDT image in place; the first plan
    /// with a difference copies it once, for this connection only, and the
    /// published image neither changes nor keeps a scratch result.
    #[test]
    fn a_connection_copies_the_pinned_image_only_to_build_a_scratch_result() {
        let uwsdt = maybms::uwsdt::from_wsd(&maybms::core::wsd::example_census_wsd()).unwrap();
        let observer = Arc::new(Observer::new());
        let store = ConcurrentStore::create_observed(
            Box::new(MemVfs::new()),
            AnyBackend::from(uwsdt),
            SyncPolicy::EveryRecord,
            Arc::clone(&observer),
        )
        .unwrap();
        let published = store.snapshot().backend.encode_to_vec();
        let mut conn = Conn::new(store.clone());

        let m4 = Predicate::eq_const("M", 4i64);
        let positive = [
            maybms::q("R"),
            maybms::q("R").project(["S"]),
            maybms::q("R").select(m4.clone()).project(["N"]),
        ];
        for plan in &positive {
            assert_eq!(answers(&mut conn, plan), answers_of_a_copy(&store, plan));
        }
        assert!(
            reads_in_place(&mut conn),
            "a positive read copied the image"
        );
        assert_eq!(copies(&observer), 0);

        let difference = maybms::q("R").difference(maybms::q("R").select(m4));
        assert_eq!(
            answers(&mut conn, &difference),
            answers_of_a_copy(&store, &difference)
        );
        assert!(!reads_in_place(&mut conn));
        assert_eq!(copies(&observer), 1);
        let copy = Arc::as_ptr(conn.session().backend().snapshot());
        assert_eq!(
            answers(&mut conn, &difference),
            answers_of_a_copy(&store, &difference)
        );
        for plan in &positive {
            assert_eq!(answers(&mut conn, plan), answers_of_a_copy(&store, plan));
        }
        assert_eq!(Arc::as_ptr(conn.session().backend().snapshot()), copy);
        assert_eq!(copies(&observer), 1, "the private copy is reused");

        let snapshot = store.snapshot();
        assert_eq!(snapshot.backend.encode_to_vec(), published);
        let AnyBackend::Uwsdt(image) = &snapshot.backend else {
            panic!("the store holds a {}", snapshot.backend.backend_name());
        };
        assert!(
            image
                .relation_names()
                .iter()
                .all(|name| !name.starts_with("__session_q")),
            "a scratch result leaked into the published image: {:?}",
            image.relation_names()
        );
        drop(snapshot);
        store.close().unwrap();
    }

    /// On a single-world store every read runs on the backend: the first
    /// execute after each pin copies the image, the next one does not.
    #[test]
    fn a_database_connection_copies_once_per_pin() {
        let mut rel = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        for a in 0..20i64 {
            rel.push_values([a, a % 3]).unwrap();
        }
        let mut db = Database::new();
        db.insert_relation(rel);
        let observer = Arc::new(Observer::new());
        let store = ConcurrentStore::create_observed(
            Box::new(MemVfs::new()),
            AnyBackend::from(db),
            SyncPolicy::EveryRecord,
            Arc::clone(&observer),
        )
        .unwrap();
        let mut conn = Conn::new(store.clone());
        let plan = maybms::q("R").select(Predicate::eq_const("B", 1i64));
        for pin in 1..=2 {
            assert!(reads_in_place(&mut conn), "pin {pin} starts shared");
            assert_eq!(answers(&mut conn, &plan), answers_of_a_copy(&store, &plan));
            assert!(!reads_in_place(&mut conn));
            assert_eq!(copies(&observer), pin);
            assert_eq!(answers(&mut conn, &plan), answers_of_a_copy(&store, &plan));
            assert_eq!(copies(&observer), pin, "pin {pin} copied twice");
            store
                .update(UpdateExpr::delete(
                    "R",
                    Predicate::eq_const("A", pin as i64),
                ))
                .unwrap();
        }
        // The first pin and one re-pin; nothing read after the last update.
        let repins = &observer.metrics().snapshot().histograms["server.repin.ns"];
        assert_eq!(repins.count, 2);
        store.close().unwrap();
    }

    /// `levels` nested negations of `M = 1`: `levels + 1` predicate levels.
    fn nots(levels: usize) -> Predicate {
        (0..levels).fold(Predicate::eq_const("M", 1i64), |p, _| Predicate::not(p))
    }

    /// The plan decoder recurses once per nesting level on the connection
    /// thread's stack.  A frame nested past the codec's bound is answered
    /// with an error and the connection keeps serving; a plan at exactly the
    /// bound goes through every read verb.
    #[test]
    fn over_deep_frames_are_refused_and_the_connection_survives() {
        let store = ConcurrentStore::create(
            Box::new(MemVfs::new()),
            AnyBackend::from(maybms::core::wsd::example_census_wsd()),
            SyncPolicy::EveryRecord,
        )
        .unwrap();
        let server = spawn("127.0.0.1:0", store.clone()).unwrap();

        // Prepare(Select(Not(Not(… 10 000 levels, cut short.
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        let mut frame = vec![1u8, 1];
        frame.extend(std::iter::repeat(4u8).take(10_000));
        write_frame(&mut raw, 1, &frame).unwrap();
        let (_, reply) = read_frame(&mut raw).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&reply).unwrap(),
            Response::Error { .. }
        ));
        write_frame(&mut raw, 2, &Request::Stats.encode()).unwrap();
        let (_, reply) = read_frame(&mut raw).unwrap().unwrap();
        assert!(matches!(
            Response::decode(&reply).unwrap(),
            Response::Stats { .. }
        ));
        drop(raw);

        // The selection is level 1, so its predicate may hold MAX_NESTING - 2
        // negations; an even number of them leaves `M = 1`.
        let mut client = Client::connect(server.addr()).unwrap();
        let plain = client.prepare(maybms::q("R").select(nots(0))).unwrap();
        let deepest = maybms::q("R").select(nots(MAX_NESTING - 2));
        let plan = client.prepare(deepest).unwrap();
        let rows = client.execute(&plan).unwrap();
        assert!(!rows.is_empty());
        assert_eq!(rows, client.execute(&plain).unwrap());
        assert_eq!(
            client.confidence(&plan).unwrap(),
            client.confidence(&plain).unwrap()
        );
        let err = client
            .prepare(maybms::q("R").select(nots(MAX_NESTING - 1)))
            .unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "got {err}");
        assert!(client.stats().unwrap().contains("plans-prepared="));

        client.close().unwrap();
        server.shutdown().unwrap();
        store.close().unwrap();
    }
}
