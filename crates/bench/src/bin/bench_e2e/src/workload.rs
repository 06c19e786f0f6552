//! Running one workload: repeated timed set-up, warm-up, the measured
//! closed-loop window, the end-of-run answer and durability checks, and the
//! timed reopen from the medium.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use maybms::{AnyBackend, Durable, Prepared, Session, UpdateExpr};
use ws_census::{all_queries, RELATION_NAME};
use ws_relational::{CmpOp, Predicate, Tuple};
use ws_server::ConcurrentStore;

use crate::check::{Digest, Reference};
use crate::layers;
use crate::ops::{marker_tuple, Op, OpStream, WriteKind, MARKER_ATTR, MARKER_BASE};
use crate::replay;
use crate::setup::{self, Conn, Env, Workload};
use crate::stats::{checked_percentile, highest_supported, median, percentile, sorted};
use crate::trace::{self, now_ns, Span};

/// The verbs, in the order latencies are kept.
pub const VERBS: [&str; 4] = ["execute", "confidence", "apply", "checkpoint"];

/// One op in this many of the traced window is replayed step by step.
const REPLAY_ONE_IN: u64 = 10;

/// A traced run alternates plain and traced slices of this length.
const TRACE_SLICE_NS: u64 = 1_000_000_000;

/// A write workload closes with a checkpoint followed by this many inserts,
/// so the log every `recover_s` replays has the same length.
const LOG_TAIL_UPDATES: i64 = 16;

/// `rss_peak_mb` is read when this many ops of the window have completed
/// (the slowest workloads complete ~290 in theirs).
const RSS_AFTER_OPS: u64 = 200;

/// How a run is shaped.  The benchmark proper uses [`Shape::standard`]; the
/// smoke test shrinks it.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Discarded lead-in of the closed loop.
    pub warmup: Duration,
    /// The measured window.  A traced run alternates plain and traced
    /// slices within it, so one process yields the overhead ratio.
    pub window: Duration,
    /// Reopens from the medium; `recover_s` is their median.
    pub recover_reps: usize,
    /// Record spans, replay a sample, probe the layers.
    pub trace: bool,
}

impl Shape {
    pub fn standard(workload: Workload, seconds: u64, trace: bool) -> Shape {
        // An embedded set-up takes a tenth of a second or less, a served one
        // over a second: the short one is the noisier and the cheaper to
        // repeat.  A traced run reports neither `setup_s` nor `recover_s`.
        let setup_reps = match (trace, workload.served()) {
            (true, _) => 1,
            (false, true) => 3,
            (false, false) => 15,
        };
        Shape {
            setup_reps,
            warmup: Duration::from_secs(2),
            window: Duration::from_secs(seconds),
            recover_reps: if trace { 1 } else { 21 },
            trace,
        }
    }
}

/// What one call into the system returned, before it is checked.
pub enum Raw {
    Rows(Vec<Tuple>),
    Confidences(Vec<(Tuple, f64)>),
    Done,
}

/// The blocking caller of a closed loop: an in-process session or a client
/// connection.
trait Caller {
    fn call(&mut self, op: &Op) -> Result<Raw, String>;

    /// Bytes this caller has received over the wire so far.
    fn wire_bytes_in(&self) -> u64 {
        0
    }
}

struct Local<'a> {
    session: &'a mut Session<Durable<AnyBackend>>,
    plans: &'a [Prepared],
}

impl Caller for Local<'_> {
    fn call(&mut self, op: &Op) -> Result<Raw, String> {
        let fail = |e: maybms::Error| e.to_string();
        Ok(match op {
            Op::Execute(q) => Raw::Rows(
                self.session
                    .execute(&self.plans[*q])
                    .map_err(fail)?
                    .collect(),
            ),
            Op::Confidence(q) => {
                Raw::Confidences(self.session.confidence(&self.plans[*q]).map_err(fail)?)
            }
            Op::Apply(_, update) => self
                .session
                .apply(update)
                .map(|_| Raw::Done)
                .map_err(fail)?,
            Op::Checkpoint => self.session.checkpoint().map(|_| Raw::Done).map_err(fail)?,
        })
    }
}

impl Caller for Conn {
    fn call(&mut self, op: &Op) -> Result<Raw, String> {
        let fail = |e: ws_server::ServiceError| e.to_string();
        Ok(match op {
            Op::Execute(q) => Raw::Rows(self.client.execute(&self.plans[*q]).map_err(fail)?),
            Op::Confidence(q) => {
                Raw::Confidences(self.client.confidence(&self.plans[*q]).map_err(fail)?)
            }
            Op::Apply(_, update) => self.client.apply(update).map(|_| Raw::Done).map_err(fail)?,
            Op::Checkpoint => self.client.checkpoint().map(|_| Raw::Done).map_err(fail)?,
        })
    }

    fn wire_bytes_in(&self) -> u64 {
        self.client.wire_bytes().0
    }
}

fn verb_index(op: &Op) -> usize {
    VERBS
        .iter()
        .position(|v| *v == op.verb())
        .expect("every verb is listed")
}

/// Whether the call returned the reference answer.
fn verified(op: &Op, out: &Result<Raw, String>, reference: &Reference) -> bool {
    match (op, out) {
        (Op::Execute(q), Ok(Raw::Rows(rows))) => Digest::of_rows(rows) == reference.execute[*q],
        (Op::Confidence(q), Ok(Raw::Confidences(rows))) => {
            Digest::of_confidences(rows) == reference.confidence[*q]
        }
        (Op::Apply(..) | Op::Checkpoint, Ok(Raw::Done)) => true,
        _ => false,
    }
}

/// What one thread measured in one phase of the loop.
#[derive(Default)]
pub struct PhaseLog {
    pub latency_ms: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
    /// From the start of the first op to the end of the last, summed over
    /// the slices this log was driven for.
    elapsed_ns: u64,
    /// Time inside calls, for the harness's own per-op overhead.
    busy_ns: u64,
    /// Bytes the server sent this caller.
    wire_bytes: u64,
    pub spans: Vec<Span>,
    pub sampled: Vec<(u64, Op)>,
    /// Peak resident set of the process, read when the `rss_after`-th op
    /// of this log completed.
    rss_peak_mb: Option<f64>,
}

impl PhaseLog {
    /// Verified ops per second over this thread's own span of the phase:
    /// from the start of its first op to the end of its last, so ops that
    /// straddle the nominal deadline are neither lost nor over-counted.
    fn ops_per_s(&self) -> f64 {
        if self.elapsed_ns > 0 {
            (self.attempted - self.failed) as f64 * 1e9 / self.elapsed_ns as f64
        } else {
            0.0
        }
    }
}

/// Acknowledged writes of one connection since set-up.
#[derive(Default, Clone, Copy)]
pub struct Acks {
    applies: u64,
    inserts: u64,
}

/// When the warm-up and the window end, on the process clock.
#[derive(Clone, Copy)]
struct Deadlines {
    warmup_ns: u64,
    end_ns: u64,
}

struct ThreadResult {
    plain: PhaseLog,
    /// The traced share of the window; empty on a plain run.
    traced: PhaseLog,
    acks: Acks,
}

/// One closed loop: a caller, its op stream, and what it has acknowledged.
struct Loop<'a> {
    caller: &'a mut (dyn Caller + Send),
    stream: OpStream,
    reference: &'a Reference,
    conn: u64,
    acks: Acks,
}

impl Loop<'_> {
    /// Drive the loop into `log` until `until_ns`.  With `trace`, record a
    /// span per op and keep one op in [`REPLAY_ONE_IN`] for the replay;
    /// `rss_after` reads the peak resident set once the log holds that many
    /// ops.
    fn phase(&mut self, until_ns: u64, log: &mut PhaseLog, trace: bool, rss_after: Option<u64>) {
        let mut span_ns: Option<(u64, u64)> = None;
        let wire_bytes_before = self.caller.wire_bytes_in();
        while now_ns() < until_ns {
            let op = self.stream.next().expect("the op stream is endless");
            let start_ns = now_ns();
            let out = self.caller.call(&op);
            let end_ns = now_ns();
            let ok = verified(&op, &out, self.reference);
            span_ns = Some((span_ns.map_or(start_ns, |(first, _)| first), end_ns));
            log.busy_ns += end_ns - start_ns;
            log.attempted += 1;
            log.failed += u64::from(!ok);
            log.latency_ms[verb_index(&op)].push((end_ns - start_ns) as f64 / 1e6);
            if rss_after == Some(log.attempted) {
                log.rss_peak_mb = rss_peak_mb().ok();
            }
            if let (true, Op::Apply(kind, _)) = (ok, &op) {
                self.acks.applies += 1;
                self.acks.inserts += u64::from(*kind != WriteKind::Modify);
            }
            if trace {
                let id = (self.conn + 1) << 32 | log.attempted;
                log.spans.push(Span {
                    id,
                    parent: None,
                    op: id,
                    name: format!("op.{}", op.verb()),
                    detail: op.detail(),
                    start_ns,
                    end_ns,
                });
                if log.attempted.is_multiple_of(REPLAY_ONE_IN) {
                    log.sampled.push((id, op));
                }
            }
        }
        if let Some((first, last)) = span_ns {
            log.elapsed_ns += last - first;
        }
        log.wire_bytes += self.caller.wire_bytes_in() - wire_bytes_before;
    }

    /// Warm up, then drive the window.  A traced run alternates plain and
    /// traced slices, so both see the same drift (a session slows as its
    /// scratch results pile up) and their ratio is the tracing overhead.
    fn run(mut self, deadlines: Deadlines, trace: bool, rss_after: Option<u64>) -> ThreadResult {
        let mut warmup = PhaseLog::default();
        self.phase(deadlines.warmup_ns, &mut warmup, false, None);
        let mut plain = PhaseLog::default();
        let mut traced = PhaseLog::default();
        if trace {
            let mut until_ns = deadlines.warmup_ns;
            let mut traced_turn = false;
            while until_ns < deadlines.end_ns {
                until_ns = (until_ns + TRACE_SLICE_NS).min(deadlines.end_ns);
                let log = if traced_turn { &mut traced } else { &mut plain };
                self.phase(until_ns, log, traced_turn, None);
                traced_turn = !traced_turn;
            }
        } else {
            self.phase(deadlines.end_ns, &mut plain, false, rss_after);
        }
        // Warm-up failures are still failures of the run.
        plain.attempted += warmup.failed;
        plain.failed += warmup.failed;
        ThreadResult {
            plain,
            traced,
            acks: self.acks,
        }
    }
}

/// One `key=value` counter of a rendered `SessionStats` summary.
fn stat(summary: &str, key: &str) -> Result<f64, String> {
    summary
        .split_whitespace()
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no counter `{key}` in `{summary}`"))
}

/// Total size of the files in a medium directory.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let fail = |e: std::io::Error| format!("sizing {}: {e}", dir.display());
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(fail)? {
        total += entry.map_err(fail)?.metadata().map_err(fail)?.len();
    }
    Ok(total)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Everything one run of one workload produced.
pub struct Outcome {
    /// Every metric this run can report, end-to-end and per-layer alike;
    /// the caller picks the declared ones.
    pub metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Harness errors (a percentile without enough samples): the run's
    /// numbers must not be used.
    pub errors: Vec<String>,
    /// Human-readable lines: sample counts, ungated percentiles, failed
    /// checks, the attribution table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An end-of-run check: one more attempt, failed unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes
                .push(format!("FAILED end-of-run check: {}", what()));
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

/// Counters of the system read after the writers quiesced; all zero for an
/// embedded workload except the confidence tiers.
#[derive(Default)]
struct Counters {
    repins: f64,
    plans_reprepared: f64,
    /// `Session::confidence` calls by tier since set-up: safe, compiled,
    /// exact.
    conf: [f64; 3],
    commit_batches: f64,
    mean_batch: f64,
}

/// The digests of Q1–Q6 as `conn` sees them now; an errored call leaves the
/// empty digest, which matches no reference.
fn answers_over_the_wire(conn: &mut Conn) -> Reference {
    let mut wire = Reference::default();
    for q in 0..all_queries().len() {
        if let Ok(Raw::Rows(rows)) = conn.call(&Op::Execute(q)) {
            wire.execute[q] = Digest::of_rows(&rows);
        }
        if let Ok(Raw::Confidences(rows)) = conn.call(&Op::Confidence(q)) {
            wire.confidence[q] = Digest::of_confidences(&rows);
        }
    }
    wire
}

/// The marker tuples of the write mix: `σ CITIZEN ≥ 1 000 000 (R)`.
fn marker_query() -> maybms::Query {
    maybms::q(RELATION_NAME).select(Predicate::cmp_const(MARKER_ATTR, CmpOp::Ge, MARKER_BASE))
}

/// After the writers quiesced on a served workload: read the counters,
/// check the answers over the wire against the set-up reference (returning
/// them as what the reopened store must answer), and on a write workload
/// check that every acknowledged write is counted and visible, then leave a
/// log tail of fixed length behind a checkpoint so that every run's
/// `recover_s` replays the same amount.
fn quiesce_served(
    workload: Workload,
    store: &ConcurrentStore<AnyBackend>,
    conns: &mut [Conn],
    reference: &Reference,
    acks: &mut Acks,
    out: &mut Outcome,
) -> Result<(Counters, Reference), String> {
    // `Stats` itself re-pins a connection the store has moved past
    // (re-preparing its six plans); the pins it causes are not the
    // workload's, so read the pin count first and take them off.
    let pinned = store.stats().snapshots_pinned;
    let mut plans_prepared = 0.0;
    let mut conf = [0.0; 3];
    for conn in conns.iter_mut() {
        let summary = conn.client.stats().map_err(|e| e.to_string())?;
        plans_prepared += stat(&summary, "plans-prepared")?;
        for (i, key) in ["conf-safe", "conf-compiled", "conf-exact"]
            .iter()
            .enumerate()
        {
            conf[i] += stat(&summary, key)?;
        }
    }
    let store_stats = store.stats();
    let own_pins = conns.len() as u64 + store_stats.snapshots_pinned - pinned;
    let counters = Counters {
        repins: pinned as f64,
        plans_reprepared: plans_prepared - (own_pins * all_queries().len() as u64) as f64,
        conf,
        commit_batches: store_stats.commit_batches as f64,
        mean_batch: store_stats.mean_batch(),
    };

    let conn = &mut conns[0];
    if workload.writes() {
        if conn.call(&Op::Checkpoint).is_err() {
            out.check(false, || "the closing checkpoint failed".to_string());
        }
        for i in 0..LOG_TAIL_UPDATES {
            let marker = marker_tuple(MARKER_BASE * (setup::CONNECTIONS as i64 + 1) + i);
            let update = UpdateExpr::insert(RELATION_NAME, marker);
            let ok = conn.call(&Op::Apply(WriteKind::Insert, update)).is_ok();
            out.check(ok, || format!("log-tail insert {i} failed"));
            acks.applies += u64::from(ok);
            acks.inserts += u64::from(ok);
        }
        let seq = store.seq();
        out.check(acks.applies == seq, || {
            format!("{} applies acknowledged, store.seq() = {seq}", acks.applies)
        });
        // The writes are visible although Q1–Q6 never see them.
        let plan = conn
            .client
            .prepare(marker_query())
            .map_err(|e| e.to_string())?;
        let visible = conn.client.execute(&plan).map_err(|e| e.to_string())?.len() as u64;
        out.check(visible == acks.inserts, || {
            format!(
                "{visible} marker tuples visible, {} inserts acknowledged",
                acks.inserts
            )
        });
    }
    let wire = answers_over_the_wire(conn);
    let wrong = wire.mismatches(reference);
    out.check(wrong == 0, || {
        format!("{wrong} of 12 answers over the wire differ from the set-up reference")
    });
    Ok((counters, wire))
}

/// Reopen the medium and answer Q1: the time from nothing in memory to the
/// first answer.  Returns the reopened session for the final verification.
fn reopen(dir: &Path) -> Result<(Duration, Session<Durable<AnyBackend>>), String> {
    let vfs = setup::open_medium(dir)?;
    let (_, q1) = all_queries().swap_remove(0);
    let t = Instant::now();
    let mut session = Session::open_durable_on(vfs).map_err(|e| e.to_string())?;
    let plan = session.prepare(q1).map_err(|e| e.to_string())?;
    let first: Vec<Tuple> = session.execute(&plan).map_err(|e| e.to_string())?.collect();
    let elapsed = t.elapsed();
    std::hint::black_box(first);
    Ok((elapsed, session))
}

/// After the clean close: reopen the medium `reps` times (`recover_s` is the
/// median), then check that the reopened store gives the `expected` answers
/// and still holds every acknowledged insert.
fn recover(
    workload: Workload,
    dir: &Path,
    reps: usize,
    expected: &Reference,
    acked_inserts: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut recover_s = Vec::new();
    let mut reopened: Option<Session<Durable<AnyBackend>>> = None;
    for _ in 0..reps.max(1) {
        if let Some(session) = reopened.take() {
            session.close().map_err(|e| e.to_string())?;
        }
        let (elapsed, session) = reopen(dir)?;
        recover_s.push(elapsed.as_secs_f64());
        reopened = Some(session);
    }
    out.put("recover_s", median(&recover_s));
    let mut session = reopened.expect("at least one reopen ran");
    // Answered by the kind of session the workload itself ran on.
    let recovered = if workload.served() {
        let backend = session.into_backend().close().map_err(|e| e.to_string())?;
        let mut plain = Session::new(backend);
        let markers: Vec<Tuple> = plain
            .query(marker_query())
            .map_err(|e| e.to_string())?
            .collect();
        out.check(markers.len() as u64 == acked_inserts, || {
            format!(
                "{} marker tuples after the reopen, {acked_inserts} inserts acknowledged",
                markers.len()
            )
        });
        Reference::take(&mut plain)?
    } else {
        let recovered = Reference::take(&mut session)?;
        session.close().map_err(|e| e.to_string())?;
        recovered
    };
    let wrong = recovered.mismatches(expected);
    out.check(wrong == 0, || {
        format!("{wrong} of 12 answers differ after reopening the medium")
    });
    Ok(())
}

/// The workload-specific per-layer metrics of a traced run: the caller's
/// view of each verb, the served counters, the replay and its attribution.
fn traced_metrics(
    workload: Workload,
    results: &[ThreadResult],
    counters: &Counters,
    backend: &AnyBackend,
    out: &mut Outcome,
) -> Result<(), String> {
    let traced: Vec<&PhaseLog> = results.iter().map(|r| &r.traced).collect();
    let plain_rate: f64 = results.iter().map(|r| r.plain.ops_per_s()).sum();
    let traced_rate: f64 = traced.iter().map(|p| p.ops_per_s()).sum();
    out.put("trace.overhead_ratio", traced_rate / plain_rate);
    let ops = traced.iter().map(|p| p.attempted).sum::<u64>().max(1) as f64;
    let idle_ns: u64 = traced.iter().map(|p| p.elapsed_ns - p.busy_ns).sum();
    out.put("harness.loop_overhead_us", idle_ns as f64 / 1e3 / ops);
    let wire_bytes: u64 = traced.iter().map(|p| p.wire_bytes).sum();
    out.put("server.wire_bytes_out_per_op", wire_bytes as f64 / ops);

    let mut verb_p50 = BTreeMap::new();
    for (v, verb) in VERBS.iter().enumerate() {
        let samples: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.latency_ms[v].iter().copied())
            .collect();
        let ordered = sorted(&samples);
        let at = |p: f64| {
            if ordered.is_empty() {
                0.0
            } else {
                percentile(&ordered, p)
            }
        };
        out.put(format!("client.{verb}.p50_ms"), at(50.0));
        out.put(format!("client.{verb}.p95_ms"), at(95.0));
        out.put(format!("client.{verb}.count"), ordered.len() as f64);
        if !ordered.is_empty() {
            verb_p50.insert(*verb, at(50.0));
        }
    }

    for (i, name) in ["safe", "compiled", "exact"].iter().enumerate() {
        out.put(format!("session.conf_{name}"), counters.conf[i]);
    }
    out.put("server.repins", counters.repins);
    out.put("server.plans_reprepared", counters.plans_reprepared);
    out.put("store.commit_batches", counters.commit_batches);
    out.put("store.mean_batch", counters.mean_batch);

    // Replay the sample step by step, now that the window has closed.
    let mut spans: Vec<Span> = traced
        .iter()
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    let sampled: Vec<(u64, Op)> = traced
        .iter()
        .flat_map(|p| p.sampled.iter().cloned())
        .collect();
    let steps = replay::replay(workload, backend, &sampled)?;
    let table = replay::attribution(&steps, &verb_p50);
    out.put(
        "server.unattributed_ms",
        replay::unattributed_ms(&table, workload.mix()),
    );
    out.notes.extend(replay::render(&table));
    spans.extend(steps);
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let path = setup::output_dir().join(format!("trace_{}.jsonl", workload.name()));
    trace::write_jsonl(&path, &spans)?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}

pub fn run(workload: Workload, seed: u64, shape: &Shape) -> Result<Outcome, String> {
    let dir = setup::work_dir(workload, "store");
    let mut out = Outcome {
        metrics: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        notes: Vec::new(),
    };

    // Set-up, several times; the last one stays up.
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..shape.setup_reps.max(1) {
        if let Some(setup::SetUp { env, .. }) = last.take() {
            setup::tear_down(env)?;
        }
        let up = setup::set_up(workload, shape.trace)?;
        setup_s.push(up.elapsed.as_secs_f64());
        last = Some(up);
    }
    let setup::SetUp { mut env, data, .. } = last.expect("at least one set-up ran");
    out.put("setup_s", median(&setup_s));

    // Reference answers from a local session that never touches the wire.
    let reference = Reference::local(data.backend.clone(), !workload.served())?;

    // The closed loop: one harness thread per caller.
    let warmup_ns = now_ns() + shape.warmup.as_nanos() as u64;
    let deadlines = Deadlines {
        warmup_ns,
        end_ns: warmup_ns + shape.window.as_nanos() as u64,
    };
    let mix = workload.mix();
    let trace = shape.trace;
    // Memory is read at a fixed amount of work, not at the end of the
    // window: session scratch results pile up per op, so the peak at the
    // end would grow with the very speed the run measures.
    let rss_after = |conn: usize| (conn == 0).then_some(RSS_AFTER_OPS / workload.callers() as u64);
    let results: Vec<ThreadResult> = match &mut env {
        Env::Embedded { session, plans } => {
            let work = Loop {
                caller: &mut Local { session, plans },
                stream: OpStream::new(mix, seed, 0),
                reference: &reference,
                conn: 0,
                acks: Acks::default(),
            };
            vec![work.run(deadlines, trace, rss_after(0))]
        }
        Env::Served { conns, .. } => {
            let reference = &reference;
            std::thread::scope(|scope| {
                let handles: Vec<_> = conns
                    .iter_mut()
                    .enumerate()
                    .map(|(c, conn)| {
                        let work = Loop {
                            caller: conn,
                            stream: OpStream::new(mix, seed, c as u64),
                            reference,
                            conn: c as u64,
                            acks: Acks::default(),
                        };
                        scope.spawn(move || work.run(deadlines, trace, rss_after(c)))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|_| "a load thread panicked".to_string()))
                    .collect::<Result<_, _>>()
            })?
        }
    };
    out.attempted = results
        .iter()
        .map(|r| r.plain.attempted + r.traced.attempted)
        .sum();
    out.failed = results
        .iter()
        .map(|r| r.plain.failed + r.traced.failed)
        .sum();

    // End-to-end latency and throughput come from the plain share only.
    let all_ms: Vec<f64> = results
        .iter()
        .flat_map(|r| r.plain.latency_ms.iter().flatten().copied())
        .collect();
    if all_ms.is_empty() {
        return Err("the measured window completed no operation".to_string());
    }
    let ordered = sorted(&all_ms);
    out.put(
        "ops_per_s",
        results.iter().map(|r| r.plain.ops_per_s()).sum(),
    );
    out.put("lat_p50_ms", percentile(&ordered, 50.0));
    // The gated tail is the p90, not the p95: the served latencies are
    // quantised by the 40 ms delayed-ACK timer, and with ~290 samples the
    // p95 falls between two of their clusters and hops from one to the
    // other between runs of the same code (180 or 204 ms on `served_read`),
    // while the p90 stays inside one.
    out.put("lat_p90_ms", percentile(&ordered, 90.0));
    // A traced run reports no end-to-end metric, so its shorter plain share
    // need not support one.
    if let (false, Err(e)) = (trace, checked_percentile(&all_ms, 90.0)) {
        out.errors.push(format!("lat_p90_ms: {e}"));
    }
    out.notes.push(format!(
        "latency over {} samples: p50 {:.3} ms, p90 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, \
         max {:.3} ms (highest percentile the sample supports: p{})",
        ordered.len(),
        percentile(&ordered, 50.0),
        percentile(&ordered, 90.0),
        percentile(&ordered, 95.0),
        percentile(&ordered, 99.0),
        ordered[ordered.len() - 1],
        highest_supported(ordered.len()).map_or("none".to_string(), |p| p.to_string()),
    ));
    let rss = match results[0].plain.rss_peak_mb {
        Some(at_fixed_work) => at_fixed_work,
        None => rss_peak_mb()?,
    };
    out.put("rss_peak_mb", rss);

    // Counters and checks after the writers quiesced.
    let mut acks = results.iter().fold(Acks::default(), |a, r| Acks {
        applies: a.applies + r.acks.applies,
        inserts: a.inserts + r.acks.inserts,
    });
    let (counters, expected) = match &mut env {
        Env::Embedded { session, .. } => {
            // Set-up only prepares, so the session's counts are the loop's.
            let stats = session.stats();
            let conf = [stats.conf_safe, stats.conf_compiled, stats.conf_exact].map(|n| n as f64);
            (
                Counters {
                    conf,
                    ..Counters::default()
                },
                reference.clone(),
            )
        }
        Env::Served { store, conns, .. } => {
            quiesce_served(workload, store, conns, &reference, &mut acks, &mut out)?
        }
    };
    let stored_bytes = dir_bytes(&dir)?;

    // Clean close, then reopen from the medium until the first answer.
    setup::tear_down(env)?;
    recover(
        workload,
        &dir,
        shape.recover_reps,
        &expected,
        acks.inserts,
        &mut out,
    )?;

    if trace {
        traced_metrics(workload, &results, &counters, &data.backend, &mut out)?;
        out.put(
            "storage.bytes_per_user_byte",
            stored_bytes as f64 / (setup::TUPLES * ws_census::ATTRIBUTE_COUNT * 8) as f64,
        );
        out.put("census.generate_ms", data.generate_ms);
        out.put("uwsdt.build_ms", data.build_ms);
        out.put("uwsdt.chase_ms", data.chase_ms);
        out.put("uwsdt.components", data.components as f64);
        out.put("uwsdt.template_rows", data.template_rows as f64);
        out.metrics.extend(layers::probe(workload, &data.backend)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_read_off_the_rendered_summary() {
        let summary = "plans-prepared=14 cache-hits=0 conf-safe=5 mean-batch=1.5 wire-bytes-out=77";
        assert_eq!(stat(summary, "plans-prepared"), Ok(14.0));
        assert_eq!(stat(summary, "conf-safe"), Ok(5.0));
        assert_eq!(stat(summary, "mean-batch"), Ok(1.5));
        assert!(stat(summary, "conf").is_err());
        assert!(stat(summary, "snapshots-pinned").is_err());
    }
}
