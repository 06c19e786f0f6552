//! The per-layer probe: every layer timed on its own through its public
//! functions, over the workload's own data.  Nothing inside the program is
//! instrumented and `ws-obs` stays off; a traced run calls this once, after
//! the measured window, so it competes with nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use maybms::{apply_update, AnyBackend, Durable, Prepared, Session, SessionBackend, UpdateExpr};
use ws_census::{all_queries, RELATION_NAME};
use ws_relational::{optimizer, Tuple};
use ws_server::wire::{read_frame, write_frame, Request, Response};
use ws_server::{Client, ConcurrentStore};
use ws_storage::{snapshot, wal, MemVfs, Vfs};

use crate::ops::{marker_tuple, MARKER_BASE};
use crate::replay::encode_row_batches;
use crate::setup::{durable_in_memory, fresh_medium, ms, work_dir, Workload, POLICY};
use crate::stats::median;

/// Median wall time of `reps` calls, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f()?);
        samples.push(ms(t.elapsed()));
    }
    Ok(median(&samples))
}

/// Mean wall time of one call in a tight loop of `iters`, in microseconds —
/// for calls too short to time one by one.
fn loop_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Fresh marker inserts that collide with no workload's own.
fn probe_updates(n: usize, offset: i64) -> Vec<UpdateExpr> {
    (0..n as i64)
        .map(|i| UpdateExpr::insert(RELATION_NAME, marker_tuple(MARKER_BASE * 100 + offset + i)))
        .collect()
}

/// Median latency of durable applies on `vfs`, with the WAL counters after.
fn durable_applies(
    vfs: Box<dyn Vfs>,
    backend: &AnyBackend,
    updates: &[UpdateExpr],
) -> Result<(f64, Durable<AnyBackend>), String> {
    let mut durable = Durable::create(vfs, backend.clone()).map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    for update in updates {
        let t = Instant::now();
        apply_update(&mut durable, update).map_err(|e| e.to_string())?;
        samples.push(ms(t.elapsed()));
    }
    Ok((median(&samples), durable))
}

/// maybms session: prepare, execute and confidence per query.  Also returns
/// the real Q6 answer, the payload of the wire probes.
fn probe_session<B: SessionBackend>(
    mut session: Session<B>,
) -> Result<(Metrics, Vec<Tuple>), String>
where
    B::Error: Into<maybms::Error>,
{
    let mut m = Metrics::new();
    let fail = |e: maybms::Error| e.to_string();
    let queries = all_queries();
    let mut cold = Vec::new();
    let mut hit = Vec::new();
    let mut plans: Vec<Prepared> = Vec::new();
    for _ in 0..5 {
        session.clear_plan_cache();
        plans.clear();
        for (_, q) in &queries {
            let t = Instant::now();
            plans.push(session.prepare(q).map_err(fail)?);
            cold.push(t.elapsed().as_secs_f64() * 1e6);
        }
        for (_, q) in &queries {
            let t = Instant::now();
            std::hint::black_box(session.prepare(q).map_err(fail)?);
            hit.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    put(&mut m, "session.prepare_cold_us", median(&cold));
    put(&mut m, "session.prepare_hit_us", median(&hit));

    let mut rows_total = 0.0;
    let mut execute_total_ms = 0.0;
    let mut last_rows: Vec<Tuple> = Vec::new();
    for ((label, _), plan) in queries.iter().zip(&plans) {
        let execute_ms = median_ms(5, || {
            last_rows = session.execute(plan).map_err(fail)?.collect();
            Ok(())
        })?;
        put(&mut m, &format!("session.execute_ms.{label}"), execute_ms);
        rows_total += last_rows.len() as f64;
        execute_total_ms += execute_ms;
        let confidence_ms = median_ms(3, || session.confidence(plan).map_err(fail))?;
        put(
            &mut m,
            &format!("session.confidence_ms.{label}"),
            confidence_ms,
        );
    }
    put(&mut m, "session.rows_per_ms", rows_total / execute_total_ms);
    Ok((m, last_rows))
}

type Metrics = BTreeMap<String, f64>;

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

/// ws-relational and maybms outside a session: the optimizer alone, lineage
/// extraction, and what a connection does when the store has moved on.
fn probe_engine(backend: &AnyBackend, m: &mut Metrics) -> Result<(), String> {
    let queries = all_queries();
    let per_query: Vec<f64> = queries
        .iter()
        .map(|(_, q)| loop_us(50, || optimizer::optimize(backend, q)))
        .collect();
    put(m, "relational.optimize_us", median(&per_query));
    let relations = BTreeSet::from([RELATION_NAME.to_string()]);
    let extract_ms = median_ms(3, || Ok(backend.lineage(&relations).is_some()))?;
    put(m, "lineage.extract_ms", extract_ms);
    let repin_ms = median_ms(5, || {
        let mut fresh = Session::new(backend.clone());
        for (_, q) in &queries {
            fresh.prepare(q).map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;
    put(m, "session.repin_ms", repin_ms);
    Ok(())
}

/// ws-server wire: codec and framing in memory (an `Apply` request, the
/// real Q6 answer as `RowBatch` frames), then one real round trip.
fn probe_wire(backend: &AnyBackend, q6_rows: &[Tuple], m: &mut Metrics) -> Result<(), String> {
    let request = Request::Apply {
        update: probe_updates(1, 0).remove(0),
    };
    let encoded = request.encode();
    put(
        m,
        "wire.request_encode_us",
        loop_us(2_000, || request.encode()),
    );
    put(
        m,
        "wire.request_decode_us",
        loop_us(2_000, || Request::decode(&encoded)),
    );
    let rows = q6_rows.len().max(1) as f64;
    let payloads = encode_row_batches(q6_rows);
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let encode_us = loop_us(20, || encode_row_batches(q6_rows));
    put(m, "wire.rows_encode_us_per_krow", encode_us * 1e3 / rows);
    let decode_us = loop_us(20, || {
        payloads
            .iter()
            .filter(|p| Response::decode(p).is_ok())
            .count()
    });
    put(m, "wire.rows_decode_us_per_krow", decode_us * 1e3 / rows);
    put(m, "wire.bytes_per_row", payload_bytes as f64 / rows);
    let frame_us = loop_us(50, || {
        let mut buf = Vec::with_capacity(payload_bytes + 16 * payloads.len());
        for p in &payloads {
            write_frame(&mut buf, 1, p).expect("writing to memory");
        }
        let mut reader = &buf[..];
        let mut frames = 0;
        while let Ok(Some(_)) = read_frame(&mut reader) {
            frames += 1;
        }
        frames
    });
    let mib = payload_bytes.max(1) as f64 / (1 << 20) as f64;
    put(m, "wire.frame_us_per_mib", frame_us / mib);

    let store = ConcurrentStore::create(Box::new(MemVfs::new()), backend.clone(), POLICY)
        .map_err(|e| e.to_string())?;
    let server = ws_server::spawn("127.0.0.1:0", store.clone()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    // `Metrics` on an unobserved store answers with an empty string: framing,
    // TCP and the thread hand-off, nothing else.
    let rtt_ms = median_ms(9, || client.metrics().map_err(|e| e.to_string()))?;
    put(m, "wire.rtt_ms", rtt_ms);
    client.close().map_err(|e| e.to_string())?;
    server.shutdown().map_err(|e| e.to_string())?;
    store.close().map(|_| ()).map_err(|e| e.to_string())
}

/// ws-server store: in process, one caller, on a directory medium.
fn probe_store(backend: &AnyBackend, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let store = ConcurrentStore::create(fresh_medium(dir)?, backend.clone(), POLICY)
        .map_err(|e| e.to_string())?;
    let mut next = probe_updates(30, 1_000).into_iter();
    let update_ms = median_ms(30, || {
        let update = next.next().expect("thirty updates for thirty calls");
        store.update(update).map_err(|e| e.to_string())
    })?;
    put(m, "store.update_ms", update_ms);
    put(
        m,
        "store.snapshot_pin_us",
        loop_us(2_000, || store.snapshot().seq),
    );
    put(
        m,
        "store.publish_clone_ms",
        median_ms(5, || Ok(backend.clone()))?,
    );
    let checkpoint_ms = median_ms(3, || store.checkpoint().map_err(|e| e.to_string()))?;
    put(m, "store.checkpoint_ms", checkpoint_ms);
    store.close().map(|_| ()).map_err(|e| e.to_string())
}

/// ws-storage: the log, the snapshot and the recovery replay on their own.
fn probe_storage(backend: &AnyBackend, dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let updates = probe_updates(200, 0);
    put(
        m,
        "storage.wal.encode_us",
        loop_us(2_000, || wal::record_bytes(&updates[0])),
    );
    let memory = MemVfs::new();
    let (memory_ms, in_memory) = durable_applies(Box::new(memory.clone()), backend, &updates)?;
    let (dir_ms, on_disk) = durable_applies(fresh_medium(dir)?, backend, &updates)?;
    put(m, "storage.wal.append_us", memory_ms * 1e3);
    put(m, "storage.wal.sync_us", (dir_ms - memory_ms) * 1e3);
    let logged = on_disk.stats();
    let bytes_per_update = logged.wal_bytes as f64 / logged.wal_records.max(1) as f64;
    put(m, "storage.wal.bytes_per_update", bytes_per_update);
    let syncs_per_update = memory.sync_count() as f64 / updates.len() as f64;
    put(m, "storage.syncs_per_update", syncs_per_update);
    in_memory.close().map_err(|e| e.to_string())?;

    let mut image = Vec::new();
    let encode_ms = median_ms(3, || {
        image = snapshot::encode_snapshot(0, backend);
        Ok(())
    })?;
    put(m, "storage.snapshot.encode_ms", encode_ms);
    put(m, "storage.snapshot.bytes", image.len() as f64);
    let decode_ms = median_ms(3, || {
        snapshot::decode_snapshot::<AnyBackend>(&image).map_err(|e| e.to_string())
    })?;
    put(m, "storage.snapshot.decode_ms", decode_ms);

    // Recovery replay on its own: scan the log the applies above left on
    // the directory medium and run it against the state it extends.  (A
    // reopen spends nearly all its time decoding the snapshot, measured
    // above; the replay would drown in that.)
    on_disk.close().map_err(|e| e.to_string())?;
    let log = std::fs::read(dir.join(wal::WAL_FILE)).map_err(|e| e.to_string())?;
    let mut state = backend.clone();
    let t = Instant::now();
    let scanned = wal::scan(&log).map_err(|e| e.to_string())?;
    for update in scanned.records.iter().flat_map(|r| &r.updates) {
        apply_update(&mut state, update).map_err(|e| e.to_string())?;
    }
    put(m, "storage.recover.replay_ms", ms(t.elapsed()));
    put(m, "storage.recover.updates", scanned.update_count() as f64);
    Ok(())
}

/// Every workload-independent per-layer metric, over `backend`.
pub fn probe(workload: Workload, backend: &AnyBackend) -> Result<Metrics, String> {
    let dir = work_dir(workload, "probe");
    // The session runs in the kind of session the workload itself uses.
    let (mut m, q6_rows) = if workload.served() {
        probe_session(Session::new(backend.clone()))?
    } else {
        probe_session(durable_in_memory(backend.clone())?)?
    };
    probe_engine(backend, &mut m)?;
    probe_wire(backend, &q6_rows, &mut m)?;
    probe_store(backend, &dir.join("store"), &mut m)?;
    probe_storage(backend, &dir.join("durable"), &mut m)?;
    Ok(m)
}
