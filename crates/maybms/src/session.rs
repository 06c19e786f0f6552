//! The MayBMS-style front door: open a [`Session`] on any possible-worlds
//! backend, build queries fluently, prepare once / execute many, iterate the
//! answers.
//!
//! Every representation of this repository evaluates queries through the one
//! `optimize → execute` pipeline of [`ws_relational::engine`]; what used to
//! differ per backend was the *calling convention* — five `evaluate_query`
//! free functions, separate exact/approximate confidence entry points, and
//! hand-managed result-relation names.  A session hides all of that behind
//! four verbs:
//!
//! ```
//! use maybms::{q, Session};
//! use maybms::prelude::Predicate;
//!
//! let wsd = maybms::core::wsd::example_census_wsd();
//! let mut session = Session::new(wsd);
//! let married = session
//!     .prepare(q("R").select(Predicate::eq_const("M", 1i64)).project(["S"]))
//!     .unwrap();
//! let answers: Vec<_> = session.execute(&married).unwrap().collect();
//! let confidences = session.confidence(&married).unwrap();
//! assert_eq!(answers.len(), confidences.len());
//! ```
//!
//! * [`Session::prepare`] typechecks the plan against the backend's catalog
//!   ([`crate::builder::typecheck`]), normalizes and fingerprints it
//!   ([`mod@ws_relational::fingerprint`]), and runs the rule-based optimizer
//!   **once** per distinct plan: re-preparing the same query — even written
//!   with its conjuncts in a different order — is a cache hit.
//! * [`Session::execute`] answers the cached physical plan with its
//!   distinct possible tuples, as owned rows in a [`Rows`] iterator.
//! * [`Session::confidence`] / [`Session::confidence_approx`] compute the
//!   paper's §6 tuple confidences on the same prepared plan: exact, or
//!   (ε, δ)-approximate by the one Monte-Carlo estimator over the plan's
//!   lineage ([`ws_relational::approx`]).
//!
//! Every read takes one lineage step first.  Wherever the backend maps onto
//! lineage and the plan is positive, [`lineage::evaluate_lineage`] over the
//! session's memoized [`LineageDb`] *is* the answer — its distinct tuples
//! for an execute, its per-tuple DNFs compiled or sampled for a confidence
//! — and nothing runs on the backend.  Every read that step declines (the
//! `Database`, a plan with a difference, a backend without a lineage
//! mapping, a d-tree over budget) builds the plan's result as a
//! `__session_q*` relation inside the backend, copies the answer out, and
//! drops the result before the call returns.  Only [`Session::materialize`]
//! always runs on the backend, and it alone leaves a result behind.
//!
//! [`Session::over`] wraps the five concrete representations in one dynamic
//! [`AnyBackend`], so code that picks a backend at run time still goes
//! through the same typed session.

use crate::builder::{typecheck, typecheck_update, IntoQuery};
use crate::error::{Error, Result};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use ws_core::ops::update::{apply_update, UpdateExpr};
use ws_core::{WorldSet, Wsd};
use ws_obs::{Observer, ProfileNode};
use ws_relational::approx::{self, ApproxConfig};
use ws_relational::engine::{self, QueryBackend, SchemaCatalog};
use ws_relational::lineage::{self, Dnf, DtreeCompiler, LineageDb, LineageOutput};
use ws_relational::{
    fingerprint, optimizer, Database, Dependency, Predicate, RaExpr, Schema, Tuple, Value,
    WriteBackend,
};
use ws_storage::DurabilityStats;
use ws_urel::UDatabase;
use ws_uwsdt::Uwsdt;

// ---------------------------------------------------------------------------
// Backend capabilities beyond QueryBackend.
// ---------------------------------------------------------------------------

/// What a [`Session`] needs from a backend on top of
/// [`QueryBackend::execute_plan`]: answer extraction, exact confidence and
/// lineage.  Approximate confidence needs nothing more:
/// [`Session::confidence_approx`] samples the lineage, and answers with
/// [`SessionBackend::confidence_rows`] where there is none.
///
/// `possible_rows` and `confidence_rows` read a result relation `out` the
/// executor just built and return an owned answer; the session drops `out`
/// afterwards.  Both list the *distinct* possible tuples in `Tuple` order —
/// the order of [`lineage::LineageOutput::dnfs`], so an answer reads the
/// same whichever path computed it.  A tuple is possible when some
/// represented world contains it, a world of probability 0 included: such
/// a tuple is listed, with confidence 0.  No method has a default body, so
/// a wrapper backend cannot silently skip one.
///
/// Implemented for the five representations ([`Database`], [`Wsd`],
/// [`Uwsdt`], [`UDatabase`], [`WorldSet`]), for the dynamic [`AnyBackend`]
/// and for the persistent `Durable<B>`.
pub trait SessionBackend: QueryBackend {
    /// Short name used in stats and diagnostics.
    fn backend_name(&self) -> &'static str;

    /// The distinct possible tuples of result `out`, in `Tuple` order.
    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>>;

    /// The possible tuples of result `out` with their exact confidences, in
    /// `Tuple` order.
    fn confidence_rows(&self, out: &str) -> Result<Vec<(Tuple, f64)>>;

    /// The durability counters of a persistent backend; `None` for the
    /// in-memory representations.  [`Session::stats`] folds these into
    /// [`SessionStats`] so WAL and checkpoint activity shows up next to the
    /// query counters.
    fn durability(&self) -> Option<DurabilityStats>;

    /// Extract a [`LineageDb`] covering `relations` — a faithful mapping of
    /// this representation onto independent finite-domain variables, feeding
    /// the compiled-lineage confidence tier and the Monte-Carlo estimator.
    /// `None` opts the backend out (the session then uses
    /// [`SessionBackend::confidence_rows`] directly, for approximate
    /// confidences too), which is always safe; see [`crate::lineage`].
    fn lineage(&self, relations: &BTreeSet<String>) -> Option<LineageDb>;
}

impl SessionBackend for Database {
    fn backend_name(&self) -> &'static str {
        "database"
    }

    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>> {
        // The single world's answer uses set semantics, matching the
        // possible-tuple extraction of the world-set backends.  Deduplicating
        // by reference clones each distinct row exactly once.
        let rows = self.relation(out).map_err(Error::from)?.rows();
        let distinct: BTreeSet<&Tuple> = rows.iter().collect();
        Ok(distinct.into_iter().cloned().collect())
    }

    fn confidence_rows(&self, out: &str) -> Result<Vec<(Tuple, f64)>> {
        // One world: every distinct answer tuple is certain.
        let rows = self.possible_rows(out)?;
        Ok(rows.into_iter().map(|t| (t, 1.0)).collect())
    }

    fn durability(&self) -> Option<DurabilityStats> {
        None
    }

    /// One certain world has nothing to compile: the native path answers.
    fn lineage(&self, _relations: &BTreeSet<String>) -> Option<LineageDb> {
        None
    }
}

impl SessionBackend for Wsd {
    fn backend_name(&self) -> &'static str {
        "wsd"
    }

    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>> {
        Ok(ws_core::confidence::possible(self, out)?.into_rows())
    }

    fn confidence_rows(&self, out: &str) -> Result<Vec<(Tuple, f64)>> {
        Ok(ws_core::confidence::possible_with_confidence(self, out)?)
    }

    fn durability(&self) -> Option<DurabilityStats> {
        None
    }

    fn lineage(&self, relations: &BTreeSet<String>) -> Option<LineageDb> {
        crate::lineage::wsd_lineage(self, relations)
    }
}

impl SessionBackend for Uwsdt {
    fn backend_name(&self) -> &'static str {
        "uwsdt"
    }

    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>> {
        Ok(ws_uwsdt::ops::possible_tuples(self, out)?)
    }

    fn confidence_rows(&self, out: &str) -> Result<Vec<(Tuple, f64)>> {
        Ok(ws_uwsdt::confidence::possible_with_confidence(self, out)?)
    }

    fn durability(&self) -> Option<DurabilityStats> {
        None
    }

    fn lineage(&self, relations: &BTreeSet<String>) -> Option<LineageDb> {
        crate::lineage::uwsdt_lineage(self, relations)
    }
}

impl SessionBackend for UDatabase {
    fn backend_name(&self) -> &'static str {
        "urel"
    }

    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>> {
        Ok(ws_urel::ops::possible_tuples(self, out)?)
    }

    fn confidence_rows(&self, out: &str) -> Result<Vec<(Tuple, f64)>> {
        Ok(ws_urel::confidence::possible_with_confidence(self, out)?)
    }

    fn durability(&self) -> Option<DurabilityStats> {
        None
    }

    fn lineage(&self, relations: &BTreeSet<String>) -> Option<LineageDb> {
        crate::lineage::urel_lineage(self, relations)
    }
}

impl SessionBackend for WorldSet {
    fn backend_name(&self) -> &'static str {
        "worlds"
    }

    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>> {
        Ok(ws_baselines::possible_tuples(self, out)?)
    }

    fn confidence_rows(&self, out: &str) -> Result<Vec<(Tuple, f64)>> {
        let possible = ws_baselines::possible_tuples(self, out)?;
        possible
            .into_iter()
            .map(|t| {
                let c = ws_baselines::confidence(self, out, &t)?;
                Ok((t, c))
            })
            .collect()
    }

    fn durability(&self) -> Option<DurabilityStats> {
        None
    }

    fn lineage(&self, relations: &BTreeSet<String>) -> Option<LineageDb> {
        crate::lineage::worldset_lineage(self, relations)
    }
}

// ---------------------------------------------------------------------------
// The dynamic backend.
// ---------------------------------------------------------------------------

/// Any of the five possible-worlds representations behind one type, for code
/// that picks its backend at run time ([`Session::over`]).
///
/// `AnyBackend` implements the full backend stack ([`SchemaCatalog`],
/// [`QueryBackend`], [`SessionBackend`]) by dispatch, with every error
/// converted into the unified [`Error`].
#[derive(Clone, Debug)]
pub enum AnyBackend {
    /// One ordinary single-world database.
    Db(Database),
    /// A world-set decomposition (§3–§5).
    Wsd(Wsd),
    /// The uniform WSDT representation (§7).
    Uwsdt(Uwsdt),
    /// U-relations (the intensional follow-up representation).
    Urel(UDatabase),
    /// The explicit world-enumeration oracle.
    Worlds(WorldSet),
}

impl From<Database> for AnyBackend {
    fn from(b: Database) -> Self {
        AnyBackend::Db(b)
    }
}

impl From<Wsd> for AnyBackend {
    fn from(b: Wsd) -> Self {
        AnyBackend::Wsd(b)
    }
}

impl From<Uwsdt> for AnyBackend {
    fn from(b: Uwsdt) -> Self {
        AnyBackend::Uwsdt(b)
    }
}

impl From<UDatabase> for AnyBackend {
    fn from(b: UDatabase) -> Self {
        AnyBackend::Urel(b)
    }
}

impl From<WorldSet> for AnyBackend {
    fn from(b: WorldSet) -> Self {
        AnyBackend::Worlds(b)
    }
}

/// Dispatch a method call to whichever representation is inside.
macro_rules! dispatch {
    ($self:expr, $b:ident => $body:expr) => {
        match $self {
            AnyBackend::Db($b) => $body,
            AnyBackend::Wsd($b) => $body,
            AnyBackend::Uwsdt($b) => $body,
            AnyBackend::Urel($b) => $body,
            AnyBackend::Worlds($b) => $body,
        }
    };
}

impl SchemaCatalog for AnyBackend {
    fn schema_of(&self, relation: &str) -> ws_relational::Result<Schema> {
        dispatch!(self, b => b.schema_of(relation))
    }

    fn contains_relation(&self, relation: &str) -> bool {
        dispatch!(self, b => b.contains_relation(relation))
    }
}

impl QueryBackend for AnyBackend {
    type Error = Error;

    fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> Result<()> {
        dispatch!(self, b => b.execute_plan(plan, out).map_err(Error::from))
    }

    fn drop_scratch(&mut self, name: &str) {
        dispatch!(self, b => b.drop_scratch(name))
    }
}

impl WriteBackend for AnyBackend {
    fn insert_certain(&mut self, relation: &str, tuple: &Tuple) -> Result<()> {
        dispatch!(self, b => b.insert_certain(relation, tuple).map_err(Error::from))
    }

    fn insert_possible(&mut self, relation: &str, tuple: &Tuple, prob: f64) -> Result<()> {
        dispatch!(self, b => b.insert_possible(relation, tuple, prob).map_err(Error::from))
    }

    fn delete_where(&mut self, relation: &str, pred: &Predicate) -> Result<()> {
        dispatch!(self, b => b.delete_where(relation, pred).map_err(Error::from))
    }

    fn modify_where(
        &mut self,
        relation: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> Result<()> {
        dispatch!(self, b => b.modify_where(relation, pred, assignments).map_err(Error::from))
    }

    fn apply_condition(&mut self, constraints: &[Dependency]) -> Result<f64> {
        dispatch!(self, b => b.apply_condition(constraints).map_err(Error::from))
    }
}

impl SessionBackend for AnyBackend {
    fn backend_name(&self) -> &'static str {
        dispatch!(self, b => b.backend_name())
    }

    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>> {
        dispatch!(self, b => b.possible_rows(out))
    }

    fn confidence_rows(&self, out: &str) -> Result<Vec<(Tuple, f64)>> {
        dispatch!(self, b => b.confidence_rows(out))
    }

    fn durability(&self) -> Option<DurabilityStats> {
        dispatch!(self, b => b.durability())
    }

    fn lineage(&self, relations: &BTreeSet<String>) -> Option<LineageDb> {
        dispatch!(self, b => b.lineage(relations))
    }
}

// ---------------------------------------------------------------------------
// Prepared plans and stats.
// ---------------------------------------------------------------------------

/// A typechecked, optimized, fingerprinted plan — prepare once, execute many.
#[derive(Clone, Debug, PartialEq)]
pub struct Prepared {
    display: String,
    plan: RaExpr,
    key: String,
    fingerprint: u64,
    attrs: Vec<String>,
}

impl Prepared {
    /// The physical (already optimized) plan the executor replays.
    pub fn plan(&self) -> &RaExpr {
        &self.plan
    }

    /// The (ordered) output attributes, as resolved by the typechecker.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// The compact 64-bit digest of the normalized plan.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The collision-proof cache key (the normalized plan, rendered).
    pub fn key(&self) -> &str {
        &self.key
    }
}

impl fmt::Display for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [#{:016x}]", self.display, self.fingerprint)
    }
}

/// Counters of one session's lifetime, for benches and capacity planning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Optimizer runs — [`Session::prepare`] calls that missed the cache.
    pub plans_prepared: u64,
    /// [`Session::prepare`] calls answered from the prepared-plan cache.
    pub cache_hits: u64,
    /// Queries answered ([`Session::execute`], [`Session::confidence`],
    /// [`Session::confidence_approx`], [`Session::materialize`]), whether
    /// the backend ran the plan or the lineage answered it
    /// ([`SessionStats::exec_lineage`] and the `conf_*` fields say which).
    pub executions: u64,
    /// Rows pulled through [`Rows`] cursors and confidence calls.
    pub rows_streamed: u64,
    /// Updates applied through [`Session::apply`] / [`Session::apply_all`] /
    /// [`Session::condition`].
    pub updates_applied: u64,
    /// Write-ahead-log records appended since the last checkpoint (durable
    /// sessions only; 0 on in-memory backends).
    pub wal_records: u64,
    /// Write-ahead-log bytes appended since the last checkpoint (durable
    /// sessions only).
    pub wal_bytes: u64,
    /// Checkpoints taken through [`Session::checkpoint`] (durable sessions
    /// only).
    pub checkpoints: u64,
    /// Always 0: the safe-plan tier is gone (the compiled tier answers
    /// hierarchical plans).  Kept for `bench_e2e` and the wire summary's
    /// `conf-safe=` field.
    pub conf_safe: u64,
    /// [`Session::confidence`] calls answered by the compiled-lineage
    /// (d-tree) tier.
    pub conf_compiled: u64,
    /// [`Session::confidence`] calls answered by the backend's native exact
    /// path (the compiled tier declined).
    pub conf_exact: u64,
    /// [`Session::confidence_approx`] calls (Monte-Carlo or the backend's
    /// exact fallback).
    pub conf_approx: u64,
    /// Lineage extractions the reads asked the backend for — executes and
    /// confidences alike, one per relation set the plans read, until the
    /// backend changes (every other read takes the session's memo; see
    /// [`Session::confidence`]).
    pub lineage_extractions: u64,
    /// Read snapshots pinned from a concurrent store (ws-server sessions
    /// only; 0 on plain sessions).
    pub snapshots_pinned: u64,
    /// Group-commit batches the concurrent store's committer flushed.
    pub commit_batches: u64,
    /// Updates carried by those batches; `mean_batch()` is the ratio.
    pub batched_updates: u64,
    /// Bytes received over the wire protocol (ws-server only).
    pub wire_bytes_in: u64,
    /// Bytes sent over the wire protocol (ws-server only).
    pub wire_bytes_out: u64,
    /// [`Session::execute`] calls the lineage answered: the plan evaluated
    /// over the memoized lineage, nothing run on the backend.  An execute
    /// the lineage step declines runs on the backend and is not counted.
    pub exec_lineage: u64,
}

impl SessionStats {
    /// Fold another stats block into this one, field by field.  The server
    /// carries a connection's counters across snapshot re-pins with this:
    /// each re-pin rebuilds the session (zeroing its counters), so the old
    /// session's stats are absorbed first and the remote `summary()` keeps
    /// accumulating — matching what a local session would report.
    pub fn absorb(&mut self, other: &SessionStats) {
        self.plans_prepared += other.plans_prepared;
        self.cache_hits += other.cache_hits;
        self.executions += other.executions;
        self.rows_streamed += other.rows_streamed;
        self.updates_applied += other.updates_applied;
        self.wal_records += other.wal_records;
        self.wal_bytes += other.wal_bytes;
        self.checkpoints += other.checkpoints;
        self.conf_safe += other.conf_safe;
        self.conf_compiled += other.conf_compiled;
        self.conf_exact += other.conf_exact;
        self.conf_approx += other.conf_approx;
        self.lineage_extractions += other.lineage_extractions;
        self.snapshots_pinned += other.snapshots_pinned;
        self.commit_batches += other.commit_batches;
        self.batched_updates += other.batched_updates;
        self.wire_bytes_in += other.wire_bytes_in;
        self.wire_bytes_out += other.wire_bytes_out;
        self.exec_lineage += other.exec_lineage;
    }

    /// Mean updates per group-commit batch (0.0 before the first batch) —
    /// the amortization factor each batch fsync buys.
    pub fn mean_batch(&self) -> f64 {
        if self.commit_batches == 0 {
            0.0
        } else {
            self.batched_updates as f64 / self.commit_batches as f64
        }
    }
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plans-prepared={} cache-hits={} executions={} rows-streamed={} \
             updates-applied={} wal-records={} wal-bytes={} \
             checkpoints={} conf-safe={} conf-compiled={} conf-exact={} conf-approx={} \
             lineage-extractions={}",
            self.plans_prepared,
            self.cache_hits,
            self.executions,
            self.rows_streamed,
            self.updates_applied,
            self.wal_records,
            self.wal_bytes,
            self.checkpoints,
            self.conf_safe,
            self.conf_compiled,
            self.conf_exact,
            self.conf_approx,
            self.lineage_extractions,
        )?;
        // The service counters print unconditionally (0 on plain sessions),
        // so a local and a remote `summary()` always show the same fields.
        write!(
            f,
            " snapshots-pinned={} commit-batches={} mean-batch={:.1} \
             wire-bytes-in={} wire-bytes-out={} exec-lineage={}",
            self.snapshots_pinned,
            self.commit_batches,
            self.mean_batch(),
            self.wire_bytes_in,
            self.wire_bytes_out,
            self.exec_lineage,
        )
    }
}

/// What [`Session::explain_analyze`] returns: real measurements of one
/// profiled execution — a per-operator tree, or the one lineage step that
/// answered, plus the query-level facts (row count, confidence tier,
/// plan-cache hit).
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// The profiled plan, rendered.
    pub plan: String,
    /// Where the lineage answered the execute, one `lineage` node: rows out
    /// = the answer rows, wall-clock = the evaluation, path `"lineage"`.
    /// Otherwise the per-operator execution tree: rows in/out, batches,
    /// wall-clock and the columnar-vs-row path each operator took.
    pub root: ProfileNode,
    /// The confidence step: rows in = streamed answers, rows out = distinct
    /// tuples with confidences, detail = the tier that fired.
    pub confidence: ProfileNode,
    /// Which confidence tier answered: `"compiled"` or `"exact"`.
    pub tier: &'static str,
    /// Whether the plan was in the prepared-plan cache: `"hit"` or `"miss"`.
    pub cache: &'static str,
    /// Rows the execution materialized (matches the streamed answer count).
    pub rows: u64,
}

impl fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query: {}", self.plan)?;
        writeln!(
            f,
            "rows={} tier={} plan-cache={}",
            self.rows, self.tier, self.cache
        )?;
        f.write_str(&self.root.render())?;
        f.write_str(&self.confidence.render())
    }
}

// ---------------------------------------------------------------------------
// The session.
// ---------------------------------------------------------------------------

/// A stateful connection to one possible-worlds backend: catalog,
/// prepared-plan cache and usage stats in one place.
#[derive(Debug)]
pub struct Session<B: SessionBackend> {
    backend: B,
    /// Optimized plans by normalized plan key.  A plan depends on the
    /// catalog's schemas only, which no update verb changes, so entries
    /// live until [`Session::backend_mut`] or [`Session::clear_plan_cache`].
    plans: HashMap<String, RaExpr>,
    stats: SessionStats,
    scratch: usize,
    /// Results handed out by [`Session::materialize`] — the only scratch
    /// relations a session leaves in its backend (see [`Session::apply`]
    /// for the staleness rule).
    materialized: Vec<String>,
    /// The lineage the reads extracted, keyed by the base relations a plan
    /// reads; `None` memoizes a decline.  Emptied wherever the backend can
    /// change under the session: [`Session::apply`] and
    /// [`Session::backend_mut`].
    lineage: BTreeMap<BTreeSet<String>, Option<Arc<LineageDb>>>,
    /// The observability domain queries report into, when one was attached
    /// with [`Session::set_observer`].
    observer: Option<Arc<Observer>>,
    /// This session's id in the observer's trace stream (0 when unobserved).
    session_id: u64,
}

impl Session<AnyBackend> {
    /// Open a session over a run-time-chosen backend.
    pub fn over(backend: impl Into<AnyBackend>) -> Session<AnyBackend> {
        Session::new(backend.into())
    }
}

impl<B: SessionBackend> Session<B>
where
    B::Error: Into<Error>,
{
    /// Open a session over `backend`.
    pub fn new(backend: B) -> Session<B> {
        Session {
            backend,
            plans: HashMap::new(),
            stats: SessionStats::default(),
            scratch: 0,
            materialized: Vec::new(),
            lineage: BTreeMap::new(),
            observer: None,
            session_id: 0,
        }
    }

    /// Attach an observability domain: queries and updates emit trace spans
    /// and metrics to `observer` from here on.  Each query runs inside the
    /// observer's scope, which turns the engine's hot-path instrumentation
    /// on for that query ([`ws_relational::ExecContext::observe`] — results
    /// stay bit-identical).
    pub fn set_observer(&mut self, observer: Arc<Observer>) {
        self.session_id = observer.next_session_id();
        self.observer = Some(observer);
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.observer.as_ref()
    }

    /// This session's id in the observer's trace stream (0 when unobserved).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Shared access to the underlying backend (for representation-specific
    /// inspection: stats, world counts, …).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the underlying backend (loading data, chasing
    /// dependencies, adding or dropping relations).  This is the one place a
    /// schema can change under the session, so the prepared-plan cache and
    /// the lineage memo every read takes are both emptied here:
    /// the next [`Session::prepare`] re-optimizes against the new catalog.
    /// [`Prepared`] plans handed out earlier are not tracked; re-prepare
    /// them after a schema change.
    pub fn backend_mut(&mut self) -> &mut B {
        self.plans.clear();
        self.lineage.clear();
        &mut self.backend
    }

    /// Tear the session down and hand the backend back.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Lifetime counters: plans prepared, cache hits, executions, rows
    /// streamed — plus, on durable sessions, the WAL/checkpoint counters of
    /// the persistence layer.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.stats;
        if let Some(durability) = self.backend.durability() {
            stats.wal_records = durability.wal_records;
            stats.wal_bytes = durability.wal_bytes;
            stats.checkpoints = durability.checkpoints;
            stats.commit_batches = durability.commit_batches;
            stats.batched_updates = durability.batched_updates;
        }
        stats
    }

    /// A one-line description of the session for bench output: backend and
    /// usage counters.
    pub fn summary(&self) -> String {
        format!(
            "backend={} | {} cached-plans={}",
            self.backend.backend_name(),
            self.stats(),
            self.plans.len(),
        )
    }

    /// Number of distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Drop every cached plan, so the next [`Session::prepare`] of each
    /// plan misses (benches time cold prepares this way).  Never needed for
    /// correctness: [`Session::backend_mut`] already empties the cache.
    pub fn clear_plan_cache(&mut self) {
        self.plans.clear();
    }

    /// Typecheck, normalize, fingerprint and (on a cache miss) optimize a
    /// query into a [`Prepared`] plan.
    ///
    /// Accepts anything [`IntoQuery`]: a query built with [`crate::q`], or
    /// any [`RaExpr`], owned or borrowed.
    pub fn prepare(&mut self, query: impl IntoQuery) -> Result<Prepared> {
        let expr = query.into_query();
        let attrs = typecheck(&self.backend, &expr)?;
        let key = fingerprint::plan_key(&expr);
        let digest = fingerprint::fingerprint(&expr);
        let plan = if let Some(cached) = self.plans.get(&key) {
            self.stats.cache_hits += 1;
            cached.clone()
        } else {
            let planned = optimizer::optimize(&self.backend, &expr)
                .map_err(|e| Error::from(e).with_plan(&expr))?;
            self.plans.insert(key.clone(), planned.clone());
            self.stats.plans_prepared += 1;
            planned
        };
        Ok(Prepared {
            display: expr.to_string(),
            plan,
            key,
            fingerprint: digest,
            attrs,
        })
    }

    /// Answer a prepared plan with its distinct possible tuples, in `Tuple`
    /// order.
    ///
    /// Where the backend maps onto lineage and the plan is positive, the
    /// answer is the distinct tuples of [`lineage::evaluate_lineage`] over
    /// the session's memoized lineage (the memo [`Session::confidence`]
    /// reads), and nothing runs on the backend
    /// ([`SessionStats::exec_lineage`] counts these).  Otherwise — the
    /// `Database`, a plan with a difference, a backend that declines — the
    /// result is built inside the backend under a fresh scratch name, its
    /// distinct possible tuples are copied out, and the scratch result is
    /// dropped before this returns.  Both paths list the same tuples in the
    /// same order.  The [`Rows`] iterator owns the answer and counts the
    /// rows consumed from it.
    pub fn execute(&mut self, prepared: &Prepared) -> Result<Rows<'_>> {
        let rows = self.traced(prepared, |session| session.possible_answer(prepared))?;
        Ok(Rows {
            rows: rows.into_iter(),
            stats: &mut self.stats,
        })
    }

    /// [`Session::execute`]'s answer: the lineage step first, the backend's
    /// result path where it declines.
    fn possible_answer(&mut self, prepared: &Prepared) -> Result<Vec<Tuple>> {
        let started = Instant::now();
        match self.lineage_output(prepared) {
            Ok((_, output)) => {
                let rows = output.into_possible();
                self.stats.exec_lineage += 1;
                self.observe_tier("exec.tier.lineage", started);
                Ok(rows)
            }
            Err(reason) => {
                self.count_decline("exec", reason);
                self.read_result(prepared, |session, out| session.backend.possible_rows(out))
            }
        }
    }

    /// Prepare and execute in one step (still cached: repeated one-shot
    /// queries hit the plan cache).
    pub fn query(&mut self, query: impl IntoQuery) -> Result<Rows<'_>> {
        let prepared = self.prepare(query)?;
        self.execute(&prepared)
    }

    /// Execute a prepared plan and leave its result *materialized in the
    /// backend* under the returned scratch name, without copying anything
    /// out — for callers that want to inspect the result representation
    /// (UWSDT stats, component counts) or chain further queries over it.
    ///
    /// This is the one verb that leaves a result behind.  It stays
    /// registered until the caller drops it through [`Session::backend_mut`]
    /// or the next [`Session::apply`] drops it (the staleness rule).
    pub fn materialize(&mut self, prepared: &Prepared) -> Result<String> {
        let out = self.traced(prepared, |session| session.run(prepared))?;
        self.materialized.push(out.clone());
        Ok(out)
    }

    /// The possible answer tuples of a prepared plan with their **exact**
    /// confidences (§6), in `Tuple` order.
    ///
    /// Exact confidence computation is `#P`-hard in general, but large
    /// classes of plans and inputs admit cheaper *exact* evaluation.  The
    /// session tries, in order:
    ///
    /// 1. **Compiled lineage** — the plan is evaluated over the backend's
    ///    extracted lineage ([`lineage::evaluate_lineage`]) and each output
    ///    tuple's DNF is compiled to a Shannon-expansion d-tree with
    ///    independent-component splits and memoized cofactor sharing
    ///    ([`DtreeCompiler`]), within a node budget.  Hierarchical (safe)
    ///    plans have read-once lineage, which the component split compiles
    ///    in one pass.  The evaluated lineage is the whole answer: the plan
    ///    does not run on the backend.
    /// 2. **Native exact** — when the backend has no lineage mapping, the
    ///    plan has a difference, or the d-tree exceeds its budget, the plan
    ///    runs on the backend and its own exact enumeration
    ///    ([`SessionBackend::confidence_rows`]) answers.
    ///
    /// Both tiers are exact and list the same tuples in the same (`Tuple`)
    /// order.  Their sums may round differently: each confidence agrees
    /// within 1e-12 absolute, and bit for bit where every probability is
    /// dyadic.  [`SessionStats`] records which tier fired.  To read the
    /// native path directly (the oracle the equivalence suites pin the
    /// compiled tier to), [`Session::materialize`] the plan and call
    /// [`SessionBackend::confidence_rows`] on the result.
    ///
    /// The lineage is extracted once per set of base relations the plan
    /// reads and kept until the backend changes ([`Session::apply`],
    /// [`Session::backend_mut`]); a backend that declines is not asked again
    /// either.  [`Session::execute`] reads the same memo, and running a plan
    /// on the backend never touches a base relation's possible worlds, so
    /// every later read on the same relations takes the memo
    /// ([`SessionStats::lineage_extractions`] counts the extractions).
    pub fn confidence(&mut self, prepared: &Prepared) -> Result<Vec<(Tuple, f64)>> {
        let rows = self.traced(prepared, |session| {
            session.confidence_ladder(prepared, None)
        })?;
        self.stats.rows_streamed += rows.len() as u64;
        Ok(rows)
    }

    /// The possible answer tuples of a prepared plan with (ε, δ)-approximate
    /// confidences: [`Session::confidence`]'s ladder with the Monte-Carlo
    /// estimator of [`ws_relational::approx`] in place of the d-tree.
    ///
    /// Each answer's lineage DNF is estimated from its own seeded trial
    /// stream, and the tuples are those of [`Session::confidence`], in its
    /// order.  Where there is no lineage — a plan with a difference, a
    /// backend that declines (a WSD tuple with more than
    /// [`crate::lineage::MAX_TUPLE_COMBOS`] joint choices, a single-world
    /// database) — the backend's native exact path answers, and the
    /// guarantee holds trivially.  Errors on an (ε, δ) outside `(0, 1)`.
    pub fn confidence_approx(
        &mut self,
        prepared: &Prepared,
        config: &ApproxConfig,
    ) -> Result<Vec<(Tuple, f64)>> {
        config.samples()?;
        let rows = self.traced(prepared, |session| {
            session.confidence_ladder(prepared, Some(config))
        })?;
        self.stats.conf_approx += 1;
        self.stats.rows_streamed += rows.len() as u64;
        Ok(rows)
    }

    /// The one confidence ladder, behind [`Session::confidence`] (`approx`
    /// is `None`) and [`Session::confidence_approx`]: the lineage path
    /// first, the backend's native exact path as the unconditional
    /// fallback.  Only an exact call counts its tier; an estimate counts as
    /// `conf_approx`.
    fn confidence_ladder(
        &mut self,
        prepared: &Prepared,
        approx: Option<&ApproxConfig>,
    ) -> Result<Vec<(Tuple, f64)>> {
        let started = Instant::now();
        let declined = match self.lineage_confidences(prepared, approx)? {
            Ok(rows) if approx.is_some() => return Ok(rows),
            Ok(rows) => {
                self.stats.conf_compiled += 1;
                self.observe_tier("conf.tier.compiled", started);
                return Ok(rows);
            }
            Err(reason) => reason,
        };
        let started = Instant::now();
        let rows = self.read_result(prepared, |session, out| {
            session.backend.confidence_rows(out)
        })?;
        if approx.is_none() {
            self.stats.conf_exact += 1;
            self.count_decline("conf", declined);
            self.observe_tier("conf.tier.exact", started);
        }
        Ok(rows)
    }

    /// Report the tier that answered a read to the observer, if one is
    /// attached: `<tier>.hits` and `<tier>.ns`.
    fn observe_tier(&self, tier: &str, started: Instant) {
        let Some(observer) = &self.observer else {
            return;
        };
        let metrics = observer.metrics();
        metrics.counter(&format!("{tier}.hits")).inc();
        metrics
            .histogram(&format!("{tier}.ns"))
            .record_duration(started.elapsed());
    }

    /// Count why the lineage step declined a read (`read` is `exec` or
    /// `conf`): `<read>.tier.lineage.declined.<reason>`.
    fn count_decline(&self, read: &str, reason: &str) {
        if let Some(observer) = &self.observer {
            observer
                .metrics()
                .counter(&format!("{read}.tier.lineage.declined.{reason}"))
                .inc();
        }
    }

    /// The lineage step of every read: `prepared` evaluated over the
    /// memoized lineage of the base relations it reads.  Nothing runs on
    /// the backend.  `Err` names why the step declined: `"no_lineage"` (the
    /// backend has no lineage for those relations) or `"negation"` (the plan
    /// has a difference).
    fn lineage_output(
        &mut self,
        prepared: &Prepared,
    ) -> std::result::Result<(Arc<LineageDb>, LineageOutput), &'static str> {
        let relations: BTreeSet<String> = prepared
            .plan
            .base_relations()
            .into_iter()
            .map(str::to_string)
            .collect();
        let db = self.lineage_of(relations).ok_or("no_lineage")?;
        // A typechecked plan fails to evaluate over lineage only for a
        // difference: negation has no DNF lineage.
        let output = lineage::evaluate_lineage(&db, &prepared.plan).map_err(|_| "negation")?;
        Ok((db, output))
    }

    /// The confidence half of the lineage path: [`Session::lineage_output`]
    /// with each distinct output tuple's DNF compiled to a d-tree — or,
    /// under `approx`, sampled — in the `Tuple` order of
    /// [`lineage::LineageOutput::dnfs`].  Nothing runs on the backend.
    /// `Err` names why the path declined: the lineage step's reasons, or
    /// `"budget"` when the d-tree ran out of nodes.
    fn lineage_confidences(
        &mut self,
        prepared: &Prepared,
        approx: Option<&ApproxConfig>,
    ) -> Result<std::result::Result<Vec<(Tuple, f64)>, &'static str>> {
        let (db, output) = match self.lineage_output(prepared) {
            Ok(answer) => answer,
            Err(reason) => return Ok(Err(reason)),
        };
        let (tuples, dnfs): (Vec<Tuple>, Vec<Dnf>) = output.dnfs().into_iter().unzip();
        let probs = match approx {
            Some(config) => approx::estimate_probabilities(&dnfs, db.vars(), config)?,
            None => {
                let mut compiler = DtreeCompiler::new(db.vars());
                let compiled: ws_relational::Result<Vec<f64>> =
                    dnfs.iter().map(|dnf| compiler.probability(dnf)).collect();
                match compiled {
                    Ok(probs) => probs,
                    Err(_) => return Ok(Err("budget")),
                }
            }
        };
        Ok(Ok(tuples.into_iter().zip(probs).collect()))
    }

    /// The lineage of `relations`, from the memo or — on a miss — extracted
    /// from the backend and memoized, a decline included.
    fn lineage_of(&mut self, relations: BTreeSet<String>) -> Option<Arc<LineageDb>> {
        let metrics = self.observer.as_ref().map(|observer| observer.metrics());
        if let Some(memo) = self.lineage.get(&relations) {
            if let Some(metrics) = metrics {
                metrics.counter("conf.lineage.memo.hits").inc();
            }
            return memo.clone();
        }
        let started = Instant::now();
        let db = self.backend.lineage(&relations).map(Arc::new);
        self.stats.lineage_extractions += 1;
        if let Some(metrics) = metrics {
            metrics
                .histogram("conf.lineage.extract.ns")
                .record_duration(started.elapsed());
        }
        self.lineage.insert(relations, db.clone());
        db
    }

    /// Execute `prepared` with profiling on and return a [`QueryProfile`]:
    /// rows in/out, batches, wall-clock and the columnar-vs-row path of
    /// every operator — or, where the lineage answered the execute, one
    /// `lineage` node in place of the operator tree — plus which confidence
    /// tier answered and whether the plan cache held the plan.  The query is
    /// answered twice — once streamed for the profile tree and the row
    /// count, once by [`Session::confidence`] for the confidence step — so
    /// every number is a real measurement, not an estimate.
    ///
    /// Works with or without an attached observer: the profile collector
    /// installed for the first pass is what turns the engine's
    /// instrumentation on, for this call only.
    pub fn explain_analyze(&mut self, prepared: &Prepared) -> Result<QueryProfile> {
        let cache = if self.plans.contains_key(prepared.key()) {
            "hit"
        } else {
            "miss"
        };
        // First pass: stream the answer under a profile collector.  The
        // stats deltas identify the lineage answer here and the confidence
        // tier below.
        let before = self.stats;
        ws_obs::profile::begin();
        let started = Instant::now();
        let counted = self.execute(prepared).map(|rows| rows.count() as u64);
        let exec_elapsed = started.elapsed();
        let children = ws_obs::profile::take();
        let rows = counted?;
        // Second pass: the confidence ladder (no collector — the tree above
        // already covers the plan).
        let started = Instant::now();
        let confidences = self.confidence(prepared)?.len() as u64;
        let conf_elapsed = started.elapsed();
        let tier = if self.stats.conf_compiled > before.conf_compiled {
            "compiled"
        } else {
            "exact"
        };
        let mut root = if self.stats.exec_lineage > before.exec_lineage {
            // No operator ran: the lineage evaluation is the whole answer.
            let mut lineage = ProfileNode::new("lineage", prepared.display.clone());
            lineage.path = "lineage";
            lineage.elapsed_ns = nanos(exec_elapsed);
            lineage
        } else {
            let mut query = ProfileNode::new("query", prepared.display.clone());
            query.path = if children.iter().any(|c| c.path != "row") {
                "columnar"
            } else {
                "row"
            };
            query.elapsed_ns = children.iter().map(|c| c.elapsed_ns).sum();
            query.children = children;
            query
        };
        root.rows_out = rows;
        root.batches = 1;
        root.derive_rows_in();
        let mut confidence = ProfileNode::new("confidence", format!("tier={tier}"));
        confidence.rows_in = rows;
        confidence.rows_out = confidences;
        confidence.batches = 1;
        confidence.path = "row";
        confidence.elapsed_ns = nanos(conf_elapsed);
        Ok(QueryProfile {
            plan: prepared.display.clone(),
            root,
            confidence,
            tier,
            cache,
            rows,
        })
    }

    /// Answer one query the way observers see it: with an observer
    /// attached, scope the work (the engine's hooks read the scope back
    /// thread-locally) and trace it as one `query` span, which emits on
    /// drop, errors included.  A query answered counts one execution,
    /// whether the backend ran the plan or the lineage answered it.
    fn traced<T>(
        &mut self,
        prepared: &Prepared,
        answer: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        let _trace = self.observer.as_ref().map(|observer| {
            let guard = ws_obs::attach(ws_obs::Scope {
                observer: Arc::clone(observer),
                session: self.session_id,
                request: observer.next_request_id(),
            });
            let span = observer.span("query").field("plan", &prepared.display);
            (span, guard)
        });
        let answer = answer(self)?;
        self.stats.executions += 1;
        Ok(answer)
    }

    /// The backend's result path: execute `prepared` into a fresh scratch
    /// result, let `read` copy the answer out, and drop the result before
    /// returning — whether `read` succeeded or not.
    fn read_result<T>(
        &mut self,
        prepared: &Prepared,
        read: impl FnOnce(&mut Self, &str) -> Result<T>,
    ) -> Result<T> {
        let out = self.run(prepared)?;
        let answer = read(self, &out);
        self.backend.drop_scratch(&out);
        answer.map_err(|e| e.with_plan(&prepared.display))
    }

    /// Execute the prepared (already optimized) plan into a fresh scratch
    /// result, returning its name.
    fn run(&mut self, prepared: &Prepared) -> Result<String> {
        let out = engine::fresh_scratch_name(
            |name| self.backend.contains_relation(name),
            &mut self.scratch,
            "session_q",
        );
        self.backend
            .execute_plan(&prepared.plan, &out)
            .map_err(|e| Into::<Error>::into(e).with_plan(&prepared.display))?;
        Ok(out)
    }

    /// Drop every result [`Session::materialize`] handed out — the
    /// staleness rule's cleanup before updates, and the pre-checkpoint sweep
    /// of durable sessions.
    pub(crate) fn drop_materialized(&mut self) {
        for out in std::mem::take(&mut self.materialized) {
            self.backend.drop_scratch(&out);
        }
    }
}

/// A duration in whole nanoseconds, saturating.
fn nanos(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// The update verbs.
// ---------------------------------------------------------------------------

impl<B: SessionBackend + WriteBackend> Session<B>
where
    B::Error: Into<Error>,
{
    /// Apply one update (insert / delete / modify / condition) to the
    /// backend, in every possible world at once.
    ///
    /// The update is typechecked against the catalog first
    /// ([`crate::builder::typecheck_update`]), so a malformed update never
    /// mutates the store.  On success the returned value is the surviving
    /// probability mass: `P(ψ)` for [`UpdateExpr::Condition`], `1.0` for
    /// every other verb.
    ///
    /// **Staleness rule.** Applying an update invalidates everything derived
    /// from the pre-update *data*; nothing derived from the catalog goes
    /// stale, because no verb changes a schema:
    ///
    /// * prepared plans stay cached and valid — re-preparing one is a cache
    ///   hit, and executing it reads the updated backend;
    /// * results of [`Session::materialize`] — the only scratch relations a
    ///   session leaves in its backend — are dropped before the update runs.
    ///   Names returned by `materialize` must therefore not be read after an
    ///   `apply`; re-execute the plan instead.  Every other read verb has
    ///   already copied its answer out and dropped its result;
    /// * the lineage memo is emptied whole, so the next execute or
    ///   confidence re-extracts from the updated backend.
    pub fn apply(&mut self, update: &UpdateExpr) -> Result<f64> {
        let _span = self.observer.as_ref().map(|observer| {
            observer
                .span("apply")
                .ids(self.session_id, observer.next_request_id())
                .field("update", update)
        });
        typecheck_update(&self.backend, update)?;
        // Drop materialized results *before* mutating: on component-sharing
        // backends a registered result relation would otherwise be updated
        // (and, under conditioning, chased) along with the base relations.
        self.drop_materialized();
        self.lineage.clear();
        let mass = apply_update(&mut self.backend, update)
            .map_err(|e| Into::<Error>::into(e).with_plan(update))?;
        self.stats.updates_applied += 1;
        Ok(mass)
    }

    /// Apply a sequence of updates in order, returning the product of the
    /// surviving masses (the joint `P(ψ1 ∧ ψ2 ∧ …)` of all conditioning
    /// steps, each taken on the state its predecessors left behind).
    ///
    /// Stops at the first failing update; updates already applied stay
    /// applied (clone the backend first for transactional behavior).
    pub fn apply_all(&mut self, updates: &[UpdateExpr]) -> Result<f64> {
        let mut mass = 1.0;
        for update in updates {
            mass *= self.apply(update)?;
        }
        Ok(mass)
    }

    /// Condition the backend on integrity constraints: keep exactly the
    /// worlds satisfying every dependency, renormalized, and return `P(ψ)`.
    ///
    /// Sugar for [`Session::apply`] with [`UpdateExpr::Condition`]; an empty
    /// constraint list is the tautology `⊤` (mass 1, no change).
    pub fn condition(&mut self, constraints: &[Dependency]) -> Result<f64> {
        self.apply(&UpdateExpr::condition(constraints.to_vec()))
    }
}

// ---------------------------------------------------------------------------
// The answer iterator.
// ---------------------------------------------------------------------------

/// One execution's possible answer tuples, already copied out of the
/// backend.
///
/// Consume it with the [`Iterator`] combinators (`collect()`, `count()`,
/// `take(n)`, …); every row consumed counts towards
/// [`SessionStats::rows_streamed`].
#[derive(Debug)]
pub struct Rows<'s> {
    rows: std::vec::IntoIter<Tuple>,
    stats: &'s mut SessionStats,
}

impl Iterator for Rows<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let row = self.rows.next();
        if row.is_some() {
            self.stats.rows_streamed += 1;
        }
        row
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rows.size_hint()
    }
}

impl ExactSizeIterator for Rows<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q;
    use ws_relational::{CmpOp, Relation};

    fn db() -> Database {
        let mut d = Database::new();
        let mut r = Relation::new(Schema::new("R", &["A", "B"]).unwrap());
        for (a, b) in [(1i64, 10i64), (2, 20), (3, 10), (4, 30), (2, 20)] {
            r.push_values([a, b]).unwrap();
        }
        d.insert_relation(r);
        d
    }

    #[test]
    fn prepare_execute_streams_deduplicated_rows_and_cleans_up() {
        let mut session = Session::new(db());
        let plan = session
            .prepare(q("R").select(Predicate::cmp_const("A", CmpOp::Ge, 2i64)))
            .unwrap();
        assert_eq!(plan.attrs(), ["A", "B"]);
        let rows: Vec<Tuple> = session.execute(&plan).unwrap().collect();
        assert_eq!(rows.len(), 3, "duplicate (2, 20) must collapse");
        // The scratch result is gone afterwards.
        assert_eq!(session.backend().relation_names(), vec!["R"]);
        let stats = session.stats();
        assert_eq!(stats.plans_prepared, 1);
        assert_eq!(stats.executions, 1);
        assert_eq!(stats.rows_streamed, 3);
    }

    #[test]
    fn preparing_twice_hits_the_cache_even_with_reordered_conjuncts() {
        let mut session = Session::new(db());
        let a = Predicate::cmp_const("A", CmpOp::Ge, 2i64);
        let b = Predicate::cmp_const("B", CmpOp::Le, 20i64);
        let p1 = session
            .prepare(q("R").select(Predicate::and(vec![a.clone(), b.clone()])))
            .unwrap();
        let p2 = session
            .prepare(q("R").select(Predicate::and(vec![b, a])))
            .unwrap();
        assert_eq!(p1.key(), p2.key());
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        assert_eq!(p1.plan(), p2.plan());
        let stats = session.stats();
        assert_eq!((stats.plans_prepared, stats.cache_hits), (1, 1));
        assert_eq!(session.cached_plans(), 1);
        session.clear_plan_cache();
        assert_eq!(session.cached_plans(), 0);
    }

    #[test]
    fn typecheck_failures_carry_plan_context() {
        let mut session = Session::new(db());
        let err = session.prepare(q("R").project(["Z"])).unwrap_err();
        assert!(err.plan().is_some());
        let err = session.prepare(q("NOPE")).unwrap_err();
        assert!(err.to_string().contains("NOPE"));
    }

    #[test]
    fn single_world_confidence_is_always_one() {
        let mut session = Session::new(db());
        let plan = session.prepare(q("R").project(["B"])).unwrap();
        let conf = session.confidence(&plan).unwrap();
        assert_eq!(conf.len(), 3);
        assert!(conf.iter().all(|(_, c)| *c == 1.0));
        let approx = session
            .confidence_approx(&plan, &ApproxConfig::new(0.05, 0.05))
            .unwrap();
        assert_eq!(conf, approx, "database backend answers exactly");
    }

    #[test]
    fn dynamic_sessions_agree_with_typed_sessions() {
        let wsd = ws_core::wsd::example_census_wsd();
        let query = q("R").select(Predicate::eq_const("M", 1i64)).project(["S"]);

        let mut typed = Session::new(wsd.clone());
        let p = typed.prepare(query.clone()).unwrap();
        let typed_rows: Vec<Tuple> = typed.execute(&p).unwrap().collect();

        let mut dynamic = Session::over(wsd);
        assert_eq!(dynamic.backend().backend_name(), "wsd");
        let p = dynamic.prepare(query).unwrap();
        let dynamic_rows: Vec<Tuple> = dynamic.execute(&p).unwrap().collect();
        assert_eq!(typed_rows, dynamic_rows);
    }

    #[test]
    fn uwsdt_sessions_drop_their_scratch_results() {
        let base = ws_uwsdt::from_wsd(&ws_core::wsd::example_census_wsd()).unwrap();
        let base_relations: Vec<String> = base
            .relation_names()
            .into_iter()
            .map(String::from)
            .collect();
        let mut session = Session::new(base);
        // The lineage answers the positive plans; the difference runs on
        // the backend, and its condition spans two components, so executing
        // it composes base components.
        let spanning = q("R").select(Predicate::and(vec![
            Predicate::eq_const("M", 1i64),
            Predicate::cmp_const("S", CmpOp::Ge, 500i64),
        ]));
        let plans = [
            q("R").select(Predicate::eq_const("M", 1i64)).project(["S"]),
            spanning.clone(),
            q("R").difference(spanning),
        ]
        .map(|query| session.prepare(query).unwrap());
        let answers = |session: &mut Session<Uwsdt>| {
            plans
                .iter()
                .map(|plan| {
                    let rows: Vec<Tuple> = session.execute(plan).unwrap().collect();
                    (rows, session.confidence(plan).unwrap())
                })
                .collect::<Vec<_>>()
        };
        let first = answers(&mut session);
        for _ in 0..50 {
            assert_eq!(answers(&mut session), first);
        }
        assert_eq!(session.backend().relation_names(), base_relations);
        session.backend().validate().unwrap();
    }

    #[test]
    fn summary_names_backend_config_and_counters() {
        let session = Session::new(db());
        let summary = session.summary();
        assert!(summary.contains("backend=database"));
        assert!(!summary.contains("plan-cache="));
        assert!(summary.contains("plans-prepared=0"));
        assert!(summary.contains("cached-plans=0"));
    }
}
