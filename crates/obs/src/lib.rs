//! # ws-obs — hand-rolled observability for the world-set stack
//!
//! Dependency-free (the build environment is offline, like the codec and the
//! CRC in `ws-storage`) metrics, tracing and profiling shared by every layer:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   latency [`Histogram`]s (p50/p95/p99/max, mergeable, recorded lock-free
//!   into per-thread shards and folded on scrape), renderable in the
//!   Prometheus text format;
//! * [`Span`] — an RAII trace guard carrying the session/request ids,
//!   emitted to a pluggable [`TraceSink`] ([`RingSink`] for tests and the
//!   slow-query log, [`LineSink`] for `ws-serverd`) and mirrored into a
//!   `span.<name>.ns` histogram;
//! * [`profile`] — the thread-local per-operator collector behind
//!   `Session::explain_analyze`.
//!
//! The [`Observer`] bundles one registry, one sink and the slow-query log;
//! layers hold it as `Arc<Observer>`.  The executor takes nothing but the
//! plan and its result name, so a session [`attach`]es a thread-local
//! [`Scope`] around each query, and the executor reads it back with
//! [`scope`] once where a plan starts: an attached scope, or an installed
//! [`profile`] collector, turns that plan's instrumentation on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod metrics;
pub mod profile;
pub mod trace;

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use hist::{Histogram, HistogramSummary};
pub use metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use profile::ProfileNode;
pub use trace::{LineSink, NullSink, RingSink, TraceEvent, TraceSink};

/// How many spans the in-process slow-query log retains.
pub const SLOW_QUERY_RING: usize = 128;

/// One observability domain: a metrics registry, a trace sink, the
/// slow-query log and the session/request id wells.  Shared as
/// `Arc<Observer>` by every instrumented layer.
pub struct Observer {
    metrics: MetricsRegistry,
    sink: Box<dyn TraceSink>,
    slow: RingSink,
    /// Slow-query threshold in nanoseconds; `u64::MAX` disables the log.
    slow_threshold_ns: AtomicU64,
    sessions: AtomicU64,
    requests: AtomicU64,
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("slow_threshold_ns", &self.slow_threshold_ns)
            .field("slow_queries", &self.slow.len())
            .finish_non_exhaustive()
    }
}

impl Default for Observer {
    fn default() -> Self {
        Observer::new()
    }
}

impl Observer {
    /// An observer that drops trace events ([`NullSink`]) but still counts.
    pub fn new() -> Observer {
        Observer::with_sink(Box::new(NullSink))
    }

    /// An observer emitting finished spans to `sink`.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Observer {
        Observer {
            metrics: MetricsRegistry::new(),
            sink,
            slow: RingSink::new(SLOW_QUERY_RING),
            slow_threshold_ns: AtomicU64::new(u64::MAX),
            sessions: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Arm (or, with `None`, disarm) the slow-query log: any span at least
    /// this slow is retained in [`Observer::slow_queries`] and counted in
    /// the `span.slow` counter.
    pub fn set_slow_query_threshold(&self, threshold: Option<Duration>) {
        let ns = threshold
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(u64::MAX);
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The armed slow-query threshold, if any.
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        match self.slow_threshold_ns.load(Ordering::Relaxed) {
            u64::MAX => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// The retained slow spans, oldest first.
    pub fn slow_queries(&self) -> Vec<TraceEvent> {
        self.slow.events()
    }

    /// A fresh session id (1-based).
    pub fn next_session_id(&self) -> u64 {
        self.sessions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// A fresh request id (1-based).
    pub fn next_request_id(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Open a span; it emits on drop (or [`Span::finish`]).  Ids default to
    /// the current [`Scope`]'s, when one is attached.
    pub fn span(self: &Arc<Self>, name: &str) -> Span {
        let (session, request) = match scope() {
            Some(s) => (s.session, s.request),
            None => (0, 0),
        };
        Span {
            observer: Arc::clone(self),
            name: name.to_string(),
            session,
            request,
            fields: Vec::new(),
            start: Instant::now(),
            emitted: false,
        }
    }
}

/// An RAII trace guard: measures from creation to drop, then emits a
/// [`TraceEvent`] to the observer's sink, records `span.<name>.ns`, and —
/// when at least as slow as the armed threshold — lands in the slow-query
/// log and the `span.slow` counter.
#[derive(Debug)]
pub struct Span {
    observer: Arc<Observer>,
    name: String,
    session: u64,
    request: u64,
    fields: Vec<(String, String)>,
    start: Instant,
    emitted: bool,
}

impl Span {
    /// Attach a `key=value` annotation.
    pub fn field(mut self, key: &str, value: impl fmt::Display) -> Span {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Override the session/request ids (servers stamp the wire ids here).
    pub fn ids(mut self, session: u64, request: u64) -> Span {
        self.session = session;
        self.request = request;
        self
    }

    /// Close the span now instead of at end of scope.
    pub fn finish(mut self) {
        self.emit();
    }

    fn emit(&mut self) {
        if self.emitted {
            return;
        }
        self.emitted = true;
        let elapsed_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let event = TraceEvent {
            name: std::mem::take(&mut self.name),
            session: self.session,
            request: self.request,
            elapsed_ns,
            fields: std::mem::take(&mut self.fields),
        };
        self.observer
            .metrics
            .histogram(&format!("span.{}.ns", event.name))
            .record(elapsed_ns);
        if elapsed_ns >= self.observer.slow_threshold_ns.load(Ordering::Relaxed) {
            self.observer.metrics.counter("span.slow").inc();
            self.observer.slow.emit(&event);
        }
        self.observer.sink.emit(&event);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit();
    }
}

/// The thread-local observation context a session attaches around a query:
/// the observer plus the ids instrumented hot paths stamp on their spans.
#[derive(Clone, Debug)]
pub struct Scope {
    /// The observer every metric and span of this query goes to.
    pub observer: Arc<Observer>,
    /// The session id (stable across the session's queries).
    pub session: u64,
    /// The request id (fresh per query).
    pub request: u64,
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Install `scope` on this thread until the returned guard drops (the prior
/// scope, if any, is restored — attachment nests).
pub fn attach(scope: Scope) -> ScopeGuard {
    let prev = SCOPE.with(|slot| slot.borrow_mut().replace(scope));
    ScopeGuard { prev }
}

/// The current thread's scope, if one is attached.
pub fn scope() -> Option<Scope> {
    SCOPE.with(|slot| slot.borrow().clone())
}

/// The current scope's observer, if one is attached.
pub fn scoped_observer() -> Option<Arc<Observer>> {
    SCOPE.with(|slot| slot.borrow().as_ref().map(|s| Arc::clone(&s.observer)))
}

/// Restores the previously attached [`Scope`] on drop.
#[derive(Debug)]
#[must_use = "dropping the guard immediately detaches the scope"]
pub struct ScopeGuard {
    prev: Option<Scope>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        SCOPE.with(|slot| *slot.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_emit_once_and_feed_the_histogram() {
        let observer = Arc::new(Observer::with_sink(Box::new(RingSink::new(8))));
        observer
            .span("query")
            .field("plan", "π_S(R)")
            .ids(3, 9)
            .finish();
        drop(observer.span("query")); // implicit emit on drop
        let snapshot = observer.metrics().snapshot();
        assert_eq!(snapshot.histograms["span.query.ns"].count, 2);
        // The slow log stays empty while disarmed.
        assert!(observer.slow_queries().is_empty());
        assert_eq!(observer.slow_query_threshold(), None);
    }

    #[test]
    fn slow_query_log_catches_spans_over_threshold() {
        let observer = Arc::new(Observer::new());
        observer.set_slow_query_threshold(Some(Duration::ZERO));
        assert_eq!(observer.slow_query_threshold(), Some(Duration::ZERO));
        observer.span("query").field("plan", "R").finish();
        let slow = observer.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].name, "query");
        assert_eq!(slow[0].fields, vec![("plan".into(), "R".into())]);
        assert_eq!(observer.metrics().snapshot().counters["span.slow"], 1);
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert!(scope().is_none());
        let outer_observer = Arc::new(Observer::new());
        let guard = attach(Scope {
            observer: Arc::clone(&outer_observer),
            session: 1,
            request: 10,
        });
        assert_eq!(scope().unwrap().request, 10);
        {
            let _inner = attach(Scope {
                observer: Arc::clone(&outer_observer),
                session: 1,
                request: 11,
            });
            assert_eq!(scope().unwrap().request, 11);
        }
        assert_eq!(scope().unwrap().request, 10);
        assert!(scoped_observer().is_some());
        drop(guard);
        assert!(scope().is_none());
    }

    #[test]
    fn spans_inherit_scope_ids() {
        let observer = Arc::new(Observer::with_sink(Box::new(RingSink::new(4))));
        let _guard = attach(Scope {
            observer: Arc::clone(&observer),
            session: 7,
            request: 42,
        });
        observer.span("exec").finish();
        // Read the ring back through the sink the observer owns.
        let snapshot = observer.metrics().snapshot();
        assert_eq!(snapshot.histograms["span.exec.ns"].count, 1);
    }

    #[test]
    fn id_wells_are_monotone() {
        let observer = Observer::new();
        assert_eq!(observer.next_session_id(), 1);
        assert_eq!(observer.next_session_id(), 2);
        assert_eq!(observer.next_request_id(), 1);
        assert_eq!(observer.next_request_id(), 2);
    }
}
