//! # ws-server — a concurrent multi-session service over the world-set stack
//!
//! Everything below PR 8 was a library: one thread, one [`Session`], one
//! process.  The paper's pitch — managing `10^(10^6)` worlds *as a database
//! system* — implies the other half of a database system: many sessions at
//! once, isolation between them, and a client/server seam.  This crate adds
//! that half in three layers:
//!
//! * [`store`] — [`ConcurrentStore<B>`]: MVCC-style snapshot reads (readers
//!   pin an `Arc` image and never block on writers; old generations are
//!   reclaimed when the last reader drops) over a single *committer* thread
//!   that owns the [`Durable<B>`](ws_storage::Durable) store and coalesces
//!   concurrent updates into group-commit WAL batches — one batch frame, one
//!   fsync, per-caller outcomes.  The WAL append is the commit point, so a
//!   crash tears whole batches, never splits them.
//! * [`wire`] — a length-prefixed, CRC-framed binary protocol carrying the
//!   prepared-plan Session verbs (hello / prepare / execute with streamed
//!   row batches / confidence / apply / condition / checkpoint / stats),
//!   encoded with the same ws-storage codec the snapshot and WAL files use.
//! * [`server`] + [`client`] — a thread-per-connection TCP [`server`] whose
//!   connections read the pinned image in place through a [`Pinned`] view,
//!   re-pin snapshots when writers commit and keep their prepared plans
//!   across re-pins, and a blocking [`Client`] mirroring the Session API
//!   remotely.
//!
//! The `ws-serverd` binary serves a store directory; the repository-level
//! `tests/service_equivalence.rs` suite proves the concurrency story
//! differentially: every reader-observed snapshot equals a serial prefix of
//! the committed update sequence, bit-identically, on all five backends.
//!
//! ## Observability
//!
//! An observed store ([`ConcurrentStore::create_observed`] /
//! [`ConcurrentStore::open_observed`]) threads one
//! [`Observer`](ws_obs::Observer) through every layer: the WAL reports
//! append/fsync/checkpoint/recovery timings, the committer reports batch
//! sizes and coalesce waits, snapshot generations report their lifetimes,
//! and each connection's session reports per-operator kernel timings and
//! query spans.  The registry is scrapeable two ways: the
//! [`Request::Metrics`] wire verb, and the [`metrics_http`] endpoint
//! (Prometheus text over plain HTTP, `ws-serverd serve --metrics`).
//!
//! [`Session`]: maybms::Session

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics_http;
pub mod pinned;
pub mod server;
pub mod store;
pub mod wire;

pub use client::{Client, RemotePlan, ServiceError};
pub use metrics_http::{serve_metrics, MetricsHandle};
pub use pinned::Pinned;
pub use server::{serve, spawn, ServerHandle};
pub use store::{ConcurrentStore, StoreSnapshot, StoreStats, UpdateOutcome};
pub use wire::{Request, Response, WIRE_VERSION};
