//! The step-by-step replay of sampled operations and the attribution table
//! built from it.
//!
//! The harness cannot see inside a served request, so after the window has
//! closed it runs a one-in-ten sample of the traced operations again,
//! in-process, one layer call at a time, each under its own span.  The
//! replay steals no load from the measured window, and what the steps do
//! not explain of the caller's median is reported as unattributed.

use std::collections::BTreeMap;
use std::path::Path;

use maybms::{AnyBackend, Prepared, Session, SessionBackend, UpdateExpr};
use ws_census::all_queries;
use ws_relational::{RaExpr, Tuple};
use ws_server::wire::{read_frame, write_frame, Request, Response};
use ws_server::ConcurrentStore;
use ws_storage::wal;

use crate::ops::{Mix, Op};
use crate::setup::{self, Workload, POLICY};
use crate::trace::{median_self_ms, now_ns, Span};

/// Rows per `RowBatch` frame, as the server chunks them.
const ROW_BATCH: usize = 256;

/// Replay span ids start here, clear of the per-connection op ids.
const REPLAY_IDS: u64 = 1 << 48;

/// The share of a verb's median the steps may leave unexplained before the
/// table flags it.
const UNATTRIBUTED_FLAG: f64 = 0.20;

struct Recorder {
    spans: Vec<Span>,
    next_id: u64,
}

impl Recorder {
    fn push(
        &mut self,
        parent: Option<u64>,
        op: u64,
        name: &str,
        detail: &str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name: name.to_string(),
            detail: detail.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Time `f` as a step of the replay `root`.
    fn step<T>(&mut self, root: u64, op: u64, name: &str, f: impl FnOnce() -> T) -> T {
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        self.push(Some(root), op, name, "", start_ns, end_ns);
        out
    }
}

/// One payload through `write_frame` and back through `read_frame` (CRC on
/// both sides) over an in-memory buffer.
fn frame_round_trip(payloads: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, String> {
    let mut buf = Vec::new();
    for p in payloads {
        write_frame(&mut buf, 1, p).map_err(|e| e.to_string())?;
    }
    let mut reader = &buf[..];
    let mut out = Vec::new();
    while let Some((_, payload)) = read_frame(&mut reader).map_err(|e| e.to_string())? {
        out.push(payload);
    }
    Ok(out)
}

/// An answer as the server frames it: `RowBatch` payloads of at most
/// [`ROW_BATCH`] rows, the last one marked done (an empty answer is one
/// empty, done batch).
pub fn encode_row_batches(rows: &[Tuple]) -> Vec<Vec<u8>> {
    let batch = |rows: &[Tuple], done| {
        Response::RowBatch {
            rows: rows.to_vec(),
            done,
        }
        .encode()
    };
    let mut chunks = rows.chunks(ROW_BATCH).peekable();
    let mut out = Vec::new();
    while let Some(chunk) = chunks.next() {
        out.push(batch(chunk, chunks.peek().is_none()));
    }
    if out.is_empty() {
        out.push(batch(&[], true));
    }
    out
}

struct Replayer<'a, B: SessionBackend> {
    rec: Recorder,
    wire: bool,
    session: Session<B>,
    exprs: Vec<RaExpr>,
    plans: Vec<Prepared>,
    /// A store of its own for replayed writes, created on first use over
    /// `backend` in `dir`.
    store: Option<ConcurrentStore<AnyBackend>>,
    backend: &'a AnyBackend,
    dir: &'a Path,
}

impl<B: SessionBackend> Replayer<'_, B>
where
    B::Error: Into<maybms::Error>,
{
    fn request_steps(&mut self, root: u64, op: u64, request: &Request) -> Result<(), String> {
        if !self.wire {
            return Ok(());
        }
        let payload = self
            .rec
            .step(root, op, "wire.encode_request", || request.encode());
        let framed = self.rec.step(root, op, "wire.frame.request", || {
            frame_round_trip(&[payload])
        })?;
        self.rec
            .step(root, op, "wire.decode_request", || {
                Request::decode(&framed[0]).map(|_| ())
            })
            .map_err(|e| e.to_string())
    }

    fn response_steps(
        &mut self,
        root: u64,
        op: u64,
        what: &str,
        encode: impl FnOnce() -> Vec<Vec<u8>>,
    ) -> Result<(), String> {
        if !self.wire {
            return Ok(());
        }
        let payloads = self
            .rec
            .step(root, op, &format!("wire.encode_{what}"), encode);
        let framed = self.rec.step(root, op, "wire.frame.response", || {
            frame_round_trip(&payloads)
        })?;
        self.rec.step(root, op, &format!("wire.decode_{what}"), || {
            framed
                .iter()
                .try_for_each(|p| Response::decode(p).map(|_| ()))
                .map_err(|e| e.to_string())
        })
    }

    fn read(&mut self, root: u64, op: u64, q: usize, confidence: bool) -> Result<(), String> {
        let request = if confidence {
            Request::Confidence { plan: q as u64 + 1 }
        } else {
            Request::Execute { plan: q as u64 + 1 }
        };
        self.request_steps(root, op, &request)?;
        let session = &mut self.session;
        let expr = &self.exprs[q];
        self.rec
            .step(root, op, "session.plan_lookup", || {
                session.prepare(expr.clone()).map(|_| ())
            })
            .map_err(|e| e.to_string())?;
        let plan = &self.plans[q];
        if confidence {
            let rows = self
                .rec
                .step(root, op, "session.confidence", || session.confidence(plan))
                .map_err(|e| e.to_string())?;
            self.response_steps(root, op, "rows", || {
                vec![Response::Confidences { rows }.encode()]
            })
        } else {
            let rows = self
                .rec
                .step(root, op, "session.execute", || {
                    session
                        .execute(plan)
                        .map(|cursor| cursor.collect::<Vec<_>>())
                })
                .map_err(|e| e.to_string())?;
            self.response_steps(root, op, "rows", || encode_row_batches(&rows))
        }
    }

    fn store(&mut self) -> Result<ConcurrentStore<AnyBackend>, String> {
        if self.store.is_none() {
            let vfs = setup::fresh_medium(self.dir)?;
            let store = ConcurrentStore::create(vfs, self.backend.clone(), POLICY)
                .map_err(|e| e.to_string())?;
            self.store = Some(store);
        }
        Ok(self.store.clone().expect("just created"))
    }

    fn apply(&mut self, root: u64, op: u64, update: &UpdateExpr) -> Result<(), String> {
        let store = self.store()?;
        self.request_steps(
            root,
            op,
            &Request::Apply {
                update: update.clone(),
            },
        )?;
        let start_ns = now_ns();
        let outcome = store.update(update.clone());
        let end_ns = now_ns();
        let mass = outcome.map_err(|e| e.to_string())?;
        let parent = self
            .rec
            .push(Some(root), op, "store.update", "", start_ns, end_ns);
        // Two parts of the commit the harness can time on their own, measured
        // again right after it and laid inside its interval: encoding the
        // log record (first thing the committer does) and cloning the
        // backend for publication (last thing).
        let t = now_ns();
        std::hint::black_box(wal::record_bytes(update));
        let encode_ns = (now_ns() - t).min(end_ns - start_ns);
        self.rec.push(
            Some(parent),
            op,
            "storage.wal.encode",
            "re-measured",
            start_ns,
            start_ns + encode_ns,
        );
        let snapshot = store.snapshot();
        let t = now_ns();
        std::hint::black_box(snapshot.backend.clone());
        let clone_ns = (now_ns() - t).min(end_ns - start_ns - encode_ns);
        self.rec.push(
            Some(parent),
            op,
            "store.publish_clone",
            "re-measured",
            end_ns - clone_ns,
            end_ns,
        );
        let seq = store.seq();
        self.response_steps(root, op, "ack", || {
            vec![Response::Applied { mass, seq }.encode()]
        })
    }

    fn checkpoint(&mut self, root: u64, op: u64) -> Result<(), String> {
        let store = self.store()?;
        self.request_steps(root, op, &Request::Checkpoint)?;
        let generation = self
            .rec
            .step(root, op, "store.checkpoint", || store.checkpoint())
            .map_err(|e| e.to_string())?;
        self.response_steps(root, op, "ack", || {
            vec![Response::Checkpointed { generation }.encode()]
        })
    }
}

/// Replay `sampled` against `backend`, returning a `replay.<verb>` root span
/// per op (sharing the op's identifier) with one child span per step.  Reads
/// run in a local session of the workload's own kind; an embedded workload
/// has no wire steps.
pub fn replay(
    workload: Workload,
    backend: &AnyBackend,
    sampled: &[(u64, Op)],
) -> Result<Vec<Span>, String> {
    let dir = setup::work_dir(workload, "replay");
    if workload.served() {
        replay_in(Session::new(backend.clone()), true, backend, sampled, &dir)
    } else {
        let session = setup::durable_in_memory(backend.clone())?;
        replay_in(session, false, backend, sampled, &dir)
    }
}

fn replay_in<B: SessionBackend>(
    mut session: Session<B>,
    wire: bool,
    backend: &AnyBackend,
    sampled: &[(u64, Op)],
    dir: &Path,
) -> Result<Vec<Span>, String>
where
    B::Error: Into<maybms::Error>,
{
    let exprs: Vec<RaExpr> = all_queries().into_iter().map(|(_, q)| q).collect();
    let plans = exprs
        .iter()
        .map(|q| session.prepare(q.clone()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut r = Replayer {
        rec: Recorder {
            spans: Vec::new(),
            next_id: REPLAY_IDS,
        },
        wire,
        session,
        exprs,
        plans,
        store: None,
        backend,
        dir,
    };
    for (op_id, op) in sampled {
        let root = r.rec.next_id;
        r.rec.next_id += 1;
        let start_ns = now_ns();
        match op {
            Op::Execute(q) => r.read(root, *op_id, *q, false)?,
            Op::Confidence(q) => r.read(root, *op_id, *q, true)?,
            Op::Apply(_, update) => r.apply(root, *op_id, update)?,
            Op::Checkpoint => r.checkpoint(root, *op_id)?,
        }
        r.rec.spans.push(Span {
            id: root,
            parent: None,
            op: *op_id,
            name: format!("replay.{}", op.verb()),
            detail: op.detail(),
            start_ns,
            end_ns: now_ns(),
        });
    }
    if let Some(store) = r.store.take() {
        store.close().map_err(|e| e.to_string())?;
    }
    Ok(r.rec.spans)
}

/// One verb's row group of the attribution table.
pub struct Attribution {
    pub verb: String,
    /// Median self time of each step over the replayed ops of this verb.
    pub steps: Vec<(String, f64)>,
    pub caller_p50_ms: f64,
}

impl Attribution {
    pub fn explained_ms(&self) -> f64 {
        self.steps.iter().map(|(_, ms)| ms).sum()
    }

    pub fn unattributed_ms(&self) -> f64 {
        self.caller_p50_ms - self.explained_ms()
    }
}

/// Group the replay's step spans by verb and set them against the median
/// the caller saw for that verb.
pub fn attribution(spans: &[Span], caller_p50_ms: &BTreeMap<&str, f64>) -> Vec<Attribution> {
    let verb_of: BTreeMap<u64, &str> = spans
        .iter()
        .filter_map(|s| Some((s.id, s.name.strip_prefix("replay.")?)))
        .collect();
    // A step's verb is its root's; `store.update`'s children hang one deeper.
    let parent_of: BTreeMap<u64, u64> = spans
        .iter()
        .filter_map(|s| Some((s.id, s.parent?)))
        .collect();
    let root_verb = |s: &Span| {
        let mut at = s.parent?;
        while let Some(up) = parent_of.get(&at) {
            at = *up;
        }
        verb_of.get(&at).copied()
    };
    let medians = median_self_ms(spans, |s| Some((root_verb(s)?.to_string(), s.name.clone())));
    let mut table: Vec<Attribution> = Vec::new();
    for ((verb, step), self_ms) in medians {
        if !table.iter().any(|a| a.verb == verb) {
            table.push(Attribution {
                caller_p50_ms: caller_p50_ms.get(verb.as_str()).copied().unwrap_or(0.0),
                verb: verb.clone(),
                steps: Vec::new(),
            });
        }
        let group = table
            .iter_mut()
            .find(|a| a.verb == verb)
            .expect("just ensured");
        group.steps.push((step, self_ms));
    }
    table
}

/// `server.unattributed_ms`: what the steps leave unexplained of the median
/// of the workload's main verb (apply for the write mix, execute otherwise).
pub fn unattributed_ms(table: &[Attribution], mix: Mix) -> f64 {
    let verb = if mix == Mix::Write {
        "apply"
    } else {
        "execute"
    };
    table
        .iter()
        .find(|a| a.verb == verb)
        .map_or(0.0, Attribution::unattributed_ms)
}

/// The table as printed under a traced run.
pub fn render(table: &[Attribution]) -> Vec<String> {
    let mut lines = vec![
        "attribution (median self time of replayed steps against the caller's p50):".to_string(),
    ];
    for a in table {
        lines.push(format!("  {}:", a.verb));
        for (step, self_ms) in &a.steps {
            lines.push(format!("    {step:<28} {self_ms:>10.3} ms"));
        }
        let share = if a.caller_p50_ms > 0.0 {
            a.unattributed_ms() / a.caller_p50_ms
        } else {
            0.0
        };
        lines.push(format!(
            "    {:<28} {:>10.3} ms",
            "sum of steps",
            a.explained_ms()
        ));
        lines.push(format!(
            "    {:<28} {:>10.3} ms ({:.0} % of the caller's p50 {:.3} ms){}",
            "server.unattributed_ms",
            a.unattributed_ms(),
            share * 100.0,
            a.caller_p50_ms,
            if share > UNATTRIBUTED_FLAG {
                "  <-- more than 20 % unexplained"
            } else {
                ""
            },
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 7,
            name: name.to_string(),
            detail: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn steps_plus_unattributed_equal_the_callers_median() {
        let ms = 1_000_000;
        let spans = vec![
            span(1, None, "replay.apply", 0, 10 * ms),
            span(2, Some(1), "wire.encode_request", 0, ms),
            span(3, Some(1), "store.update", ms, 9 * ms),
            span(4, Some(3), "store.publish_clone", 5 * ms, 9 * ms),
            span(5, None, "replay.execute", 20 * ms, 23 * ms),
            span(6, Some(5), "session.execute", 20 * ms, 22 * ms),
        ];
        let p50 = BTreeMap::from([("apply", 12.0), ("execute", 2.5)]);
        let table = attribution(&spans, &p50);
        assert_eq!(table.len(), 2);
        let apply = &table[0];
        assert_eq!(apply.verb, "apply");
        assert_eq!(
            apply.steps,
            vec![
                ("wire.encode_request".to_string(), 1.0),
                ("store.update".to_string(), 4.0),
                ("store.publish_clone".to_string(), 4.0),
            ]
        );
        assert_eq!(apply.explained_ms() + apply.unattributed_ms(), 12.0);
        assert_eq!(unattributed_ms(&table, Mix::Write), 3.0);
        assert_eq!(unattributed_ms(&table, Mix::Read), 0.5);
        assert!(render(&table).iter().any(|l| l.contains("more than 20 %")));
    }
}
