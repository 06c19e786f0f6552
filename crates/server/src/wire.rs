//! The binary wire protocol: length-prefixed, CRC-framed request/response
//! messages over any byte stream.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! ┌──────────────┬──────────────┬──────────────────┬───────────────────┐
//! │ len: u32 LE  │ crc: u32 LE  │ request: u64 LE  │ payload (len B)   │
//! └──────────────┴──────────────┴──────────────────┴───────────────────┘
//! ```
//!
//! `crc` is the CRC-32 of the payload (the same polynomial the ws-storage
//! WAL uses); a frame whose checksum or length does not hold is a protocol
//! error, not a panic.  `request` is the trace id the client stamps on each
//! request (0 = untraced); the server echoes it on every response frame of
//! that request and threads it through its spans and the slow-query log, so
//! a wire exchange and the server-side trace line it produced correlate.  Payloads are encoded with the ws-storage
//! [`codec`](ws_storage::codec) primitives — the same hand-rolled,
//! version-tagged binary vocabulary the snapshot and WAL files speak, so
//! plans ([`RaExpr`]), updates ([`UpdateExpr`]), constraints
//! ([`Dependency`]) and tuples need no second serialization layer.
//!
//! One request yields one response, except [`Request::Execute`], which
//! streams the answer as a sequence of [`Response::RowBatch`] frames whose
//! last frame has `done = true`.
//!
//! Every exchange costs one round trip, not one per small write: a frame
//! leaves in a single `write_all` (header and payload assembled first), the
//! server sends all `RowBatch` frames of one answer in a single write, and
//! both ends set `TCP_NODELAY`.  Split writes on a Nagle socket wait for the
//! peer's delayed ACK (40 ms on Linux) before the rest of a frame may leave.

use std::io::{Read, Write};

use ws_core::ops::update::UpdateExpr;
use ws_relational::{Dependency, RaExpr, Tuple};
use ws_storage::codec::{
    dec_dependency, dec_ra, dec_tuple, dec_update, enc_dependency, enc_ra, enc_tuple, enc_update,
    Reader, Writer,
};
use ws_storage::{crc32, StorageError};

/// Protocol revision; [`Request::Hello`] carries it and the server rejects a
/// mismatch rather than mis-decoding.  Version 2 added the `request` trace
/// id to the frame header and the [`Request::Metrics`] verb.
pub const WIRE_VERSION: u32 = 2;

/// Upper bound on a single frame, preventing an implausible length prefix
/// from sizing an allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Everything a client can ask.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open the conversation; the server answers [`Response::HelloOk`].
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u32,
    },
    /// Register a relational-algebra plan; the server answers
    /// [`Response::Prepared`] with the handle for later execution.
    Prepare {
        /// The lowered plan.
        plan: RaExpr,
    },
    /// Stream the rows of a prepared plan over the caller's read snapshot.
    Execute {
        /// The handle from [`Response::Prepared`].
        plan: u64,
    },
    /// Tuple confidence for a prepared plan.
    Confidence {
        /// The handle from [`Response::Prepared`].
        plan: u64,
    },
    /// Durably apply one update through the group-commit path.
    Apply {
        /// The update to commit.
        update: UpdateExpr,
    },
    /// Condition the world set on integrity constraints.
    Condition {
        /// The constraints (an empty list is `⊤`).
        constraints: Vec<Dependency>,
    },
    /// Snapshot + WAL truncation.
    Checkpoint,
    /// The server-side session summary for this connection.
    Stats,
    /// The server's metrics registry in Prometheus text exposition format.
    Metrics,
    /// End this connection (the store keeps serving others).
    Close,
    /// Stop the whole server after answering.
    Shutdown,
}

/// Everything the server can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The conversation is open.
    HelloOk {
        /// The server's [`WIRE_VERSION`].
        version: u32,
        /// Which representation backs the store (`"wsd"`, `"urel"`, …).
        backend: String,
        /// The committed update sequence number at connect time.
        seq: u64,
    },
    /// A plan handle.
    Prepared {
        /// The handle to pass to `Execute`/`Confidence`.
        plan: u64,
        /// The plan rendered for humans.
        display: String,
        /// The output schema attribute names.
        attrs: Vec<String>,
    },
    /// One batch of answer rows; `done` marks the final batch.
    RowBatch {
        /// The rows of this batch (possibly empty on the final frame).
        rows: Vec<Tuple>,
        /// Whether the stream is complete.
        done: bool,
    },
    /// Tuple confidences, exact bit patterns preserved.
    Confidences {
        /// `(tuple, P(tuple ∈ answer))` pairs.
        rows: Vec<(Tuple, f64)>,
    },
    /// An update (or conditioning) committed.
    Applied {
        /// The surviving probability mass the verb reported.
        mass: f64,
        /// The committed sequence number after this update.
        seq: u64,
    },
    /// A checkpoint completed.
    Checkpointed {
        /// The new snapshot generation.
        generation: u64,
    },
    /// The rendered session summary.
    Stats {
        /// `SessionStats` display form, service counters included.
        summary: String,
    },
    /// The metrics scrape.
    Metrics {
        /// Prometheus text exposition (counters, gauges, histogram
        /// summaries), empty when the server runs unobserved.
        text: String,
    },
    /// The request failed; the connection stays usable.
    Error {
        /// Whether this is the deterministic *inconsistent worlds* outcome
        /// of a conditioning step (as opposed to an I/O or plan error).
        inconsistent: bool,
        /// The rendered diagnosis.
        message: String,
    },
    /// Goodbye (answer to `Close` and `Shutdown`).
    Bye,
}

// ---------------------------------------------------------------------------
// Message payload codec.
// ---------------------------------------------------------------------------

const REQ_HELLO: u8 = 0;
const REQ_PREPARE: u8 = 1;
const REQ_EXECUTE: u8 = 2;
const REQ_CONFIDENCE: u8 = 3;
const REQ_APPLY: u8 = 4;
const REQ_CONDITION: u8 = 5;
const REQ_CHECKPOINT: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_CLOSE: u8 = 8;
const REQ_SHUTDOWN: u8 = 9;
const REQ_METRICS: u8 = 10;

const RESP_HELLO_OK: u8 = 0;
const RESP_PREPARED: u8 = 1;
const RESP_ROW_BATCH: u8 = 2;
const RESP_CONFIDENCES: u8 = 3;
const RESP_APPLIED: u8 = 4;
const RESP_CHECKPOINTED: u8 = 5;
const RESP_STATS: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_BYE: u8 = 8;
const RESP_METRICS: u8 = 9;

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Hello { version } => {
                w.u8(REQ_HELLO);
                w.u32(*version);
            }
            Request::Prepare { plan } => {
                w.u8(REQ_PREPARE);
                enc_ra(&mut w, plan);
            }
            Request::Execute { plan } => {
                w.u8(REQ_EXECUTE);
                w.u64(*plan);
            }
            Request::Confidence { plan } => {
                w.u8(REQ_CONFIDENCE);
                w.u64(*plan);
            }
            Request::Apply { update } => {
                w.u8(REQ_APPLY);
                enc_update(&mut w, update);
            }
            Request::Condition { constraints } => {
                w.u8(REQ_CONDITION);
                w.len_of(constraints.len());
                for d in constraints {
                    enc_dependency(&mut w, d);
                }
            }
            Request::Checkpoint => w.u8(REQ_CHECKPOINT),
            Request::Stats => w.u8(REQ_STATS),
            Request::Metrics => w.u8(REQ_METRICS),
            Request::Close => w.u8(REQ_CLOSE),
            Request::Shutdown => w.u8(REQ_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, StorageError> {
        let mut r = Reader::new(payload);
        let req = match r.u8("request tag")? {
            REQ_HELLO => Request::Hello {
                version: r.u32("wire version")?,
            },
            REQ_PREPARE => Request::Prepare {
                plan: dec_ra(&mut r)?,
            },
            REQ_EXECUTE => Request::Execute {
                plan: r.u64("plan handle")?,
            },
            REQ_CONFIDENCE => Request::Confidence {
                plan: r.u64("plan handle")?,
            },
            REQ_APPLY => Request::Apply {
                update: dec_update(&mut r)?,
            },
            REQ_CONDITION => {
                let n = r.len_of("constraint count")?;
                let mut constraints = Vec::with_capacity(n);
                for _ in 0..n {
                    constraints.push(dec_dependency(&mut r)?);
                }
                Request::Condition { constraints }
            }
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_STATS => Request::Stats,
            REQ_METRICS => Request::Metrics,
            REQ_CLOSE => Request::Close,
            REQ_SHUTDOWN => Request::Shutdown,
            t => {
                return Err(StorageError::corrupt(format!(
                    "unknown request tag {t} on the wire"
                )))
            }
        };
        r.finish("request")?;
        Ok(req)
    }
}

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::HelloOk {
                version,
                backend,
                seq,
            } => {
                w.u8(RESP_HELLO_OK);
                w.u32(*version);
                w.str(backend);
                w.u64(*seq);
            }
            Response::Prepared {
                plan,
                display,
                attrs,
            } => {
                w.u8(RESP_PREPARED);
                w.u64(*plan);
                w.str(display);
                w.len_of(attrs.len());
                for a in attrs {
                    w.str(a);
                }
            }
            Response::RowBatch { rows, done } => {
                w.u8(RESP_ROW_BATCH);
                w.bool(*done);
                w.len_of(rows.len());
                for t in rows {
                    enc_tuple(&mut w, t);
                }
            }
            Response::Confidences { rows } => {
                w.u8(RESP_CONFIDENCES);
                w.len_of(rows.len());
                for (t, p) in rows {
                    enc_tuple(&mut w, t);
                    w.f64(*p);
                }
            }
            Response::Applied { mass, seq } => {
                w.u8(RESP_APPLIED);
                w.f64(*mass);
                w.u64(*seq);
            }
            Response::Checkpointed { generation } => {
                w.u8(RESP_CHECKPOINTED);
                w.u64(*generation);
            }
            Response::Stats { summary } => {
                w.u8(RESP_STATS);
                w.str(summary);
            }
            Response::Metrics { text } => {
                w.u8(RESP_METRICS);
                w.str(text);
            }
            Response::Error {
                inconsistent,
                message,
            } => {
                w.u8(RESP_ERROR);
                w.bool(*inconsistent);
                w.str(message);
            }
            Response::Bye => w.u8(RESP_BYE),
        }
        w.into_bytes()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, StorageError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8("response tag")? {
            RESP_HELLO_OK => Response::HelloOk {
                version: r.u32("wire version")?,
                backend: r.str("backend name")?,
                seq: r.u64("sequence number")?,
            },
            RESP_PREPARED => {
                let plan = r.u64("plan handle")?;
                let display = r.str("plan display")?;
                let n = r.len_of("attribute count")?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    attrs.push(r.str("attribute")?);
                }
                Response::Prepared {
                    plan,
                    display,
                    attrs,
                }
            }
            RESP_ROW_BATCH => {
                let done = r.bool("done flag")?;
                let n = r.len_of("row count")?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(dec_tuple(&mut r)?);
                }
                Response::RowBatch { rows, done }
            }
            RESP_CONFIDENCES => {
                let n = r.len_of("row count")?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let t = dec_tuple(&mut r)?;
                    let p = r.f64("confidence")?;
                    rows.push((t, p));
                }
                Response::Confidences { rows }
            }
            RESP_APPLIED => Response::Applied {
                mass: r.f64("mass")?,
                seq: r.u64("sequence number")?,
            },
            RESP_CHECKPOINTED => Response::Checkpointed {
                generation: r.u64("generation")?,
            },
            RESP_STATS => Response::Stats {
                summary: r.str("summary")?,
            },
            RESP_METRICS => Response::Metrics {
                text: r.str("metrics text")?,
            },
            RESP_ERROR => Response::Error {
                inconsistent: r.bool("inconsistent flag")?,
                message: r.str("message")?,
            },
            RESP_BYE => Response::Bye,
            t => {
                return Err(StorageError::corrupt(format!(
                    "unknown response tag {t} on the wire"
                )))
            }
        };
        r.finish("response")?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Bytes of a frame header: length, checksum, request trace id.
const HEADER_LEN: usize = 16;

/// Payload bytes reserved before any arrive; larger payloads grow the buffer
/// as they are read, so a lying length prefix cannot size an allocation.
const READ_RESERVE: u32 = 64 << 10;

/// Append one frame (length, checksum, request trace id, payload) to `buf`.
pub(crate) fn push_frame(buf: &mut Vec<u8>, request: u64, payload: &[u8]) {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    buf.reserve(HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(&request.to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Write one frame in a single `write_all` and flush.
pub fn write_frame(stream: &mut impl Write, request: u64, payload: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::new();
    push_frame(&mut frame, request, payload);
    stream.write_all(&frame)?;
    stream.flush()
}

/// Read one frame, verifying length plausibility and checksum; returns the
/// request trace id alongside the payload.
///
/// Returns `Ok(None)` on a clean end-of-stream *before* the first header
/// byte (the peer hung up between messages); any torn or corrupt frame is an
/// error.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<(u64, Vec<u8>)>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        let n = stream.read(&mut header[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "the stream ended inside a frame header",
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let request = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("implausible frame length {len}"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE) as usize);
    stream.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "the stream ended inside a frame payload",
        ));
    }
    if crc32(&payload) != crc {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some((request, payload)))
}

// ---------------------------------------------------------------------------
// Byte accounting.
// ---------------------------------------------------------------------------

/// A byte stream that counts what passes through it, feeding the
/// `wire_bytes_in`/`wire_bytes_out` session counters on both ends.
#[derive(Debug)]
pub struct CountingStream<S> {
    inner: S,
    bytes_in: u64,
    bytes_out: u64,
}

impl<S> CountingStream<S> {
    /// Wrap a stream with zeroed counters.
    pub fn new(inner: S) -> Self {
        CountingStream {
            inner,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    /// Bytes read so far.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Bytes written so far.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: Read> Read for CountingStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes_in += n as u64;
        Ok(n)
    }
}

impl<S: Write> Write for CountingStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes_out += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_relational::{CmpOp, Predicate, Value};

    fn sample_plan() -> RaExpr {
        RaExpr::Project {
            attrs: vec!["S".into()],
            input: Box::new(RaExpr::Select {
                pred: Predicate::AttrConst {
                    attr: "M".into(),
                    op: CmpOp::Eq,
                    value: Value::int(4),
                },
                input: Box::new(RaExpr::Rel("R".into())),
            }),
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Hello {
                version: WIRE_VERSION,
            },
            Request::Prepare {
                plan: sample_plan(),
            },
            Request::Execute { plan: 7 },
            Request::Confidence { plan: 7 },
            Request::Apply {
                update: UpdateExpr::delete("R", Predicate::eq_const("M", 4i64)),
            },
            Request::Condition {
                constraints: vec![],
            },
            Request::Checkpoint,
            Request::Stats,
            Request::Metrics,
            Request::Close,
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::HelloOk {
                version: WIRE_VERSION,
                backend: "wsd".into(),
                seq: 3,
            },
            Response::Prepared {
                plan: 7,
                display: "π_S(σ_{M=4}(R))".into(),
                attrs: vec!["S".into()],
            },
            Response::RowBatch {
                rows: vec![Tuple::from_iter([Value::int(1), Value::text("x")])],
                done: false,
            },
            Response::Confidences {
                rows: vec![(Tuple::from_iter([Value::int(1)]), 0.25f64)],
            },
            Response::Applied { mass: 0.5, seq: 4 },
            Response::Checkpointed { generation: 2 },
            Response::Stats {
                summary: "queries=1".into(),
            },
            Response::Metrics {
                text: "# TYPE ws_span_slow counter\nws_span_slow 0\n".into(),
            },
            Response::Error {
                inconsistent: true,
                message: "conditioning emptied the world set".into(),
            },
            Response::Bye,
        ];
        for resp in resps {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn frames_detect_corruption() {
        let payload = Request::Checkpoint.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, 42, &payload).unwrap();
        // Intact frame reads back, trace id included.
        let (request, got) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(request, 42);
        assert_eq!(got, payload);
        // A flipped payload byte fails the checksum.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert!(read_frame(&mut bad.as_slice()).is_err());
        // A clean hang-up between frames is Ok(None).
        assert!(read_frame(&mut [][..].as_ref()).unwrap().is_none());
        // A torn header is an error.
        assert!(read_frame(&mut buf[..4].as_ref()).is_err());
        // So is a torn payload.
        let err = read_frame(&mut buf[..buf.len() - 1].as_ref()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_lying_length_prefix_costs_only_the_bytes_that_arrive() {
        let mut header = Vec::new();
        header.extend_from_slice(&MAX_FRAME.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&7u64.to_le_bytes());
        let err = read_frame(&mut header.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
