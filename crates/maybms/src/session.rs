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
//! * [`Session::execute`] replays the cached physical plan, copies the
//!   possible answers out as owned rows and returns them as a [`Rows`]
//!   iterator.
//! * [`Session::confidence`] / [`Session::confidence_approx`] compute the
//!   paper's §6 tuple confidences (exact, or (ε, δ)-approximate where the
//!   backend has a Monte-Carlo evaluator) on the same prepared plan.
//!
//! Every read verb takes the same path on every backend: the plan's result
//! is built as a `__session_q*` relation inside the backend, the answer is
//! copied out, and the result is dropped before the call returns.  Only
//! [`Session::materialize`] leaves a result behind.
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
use ws_core::confidence::approx::ApproxConfig;
use ws_core::ops::update::{apply_update, UpdateExpr};
use ws_core::{WorldSet, Wsd};
use ws_obs::{Observer, ProfileNode};
use ws_relational::engine::{self, EngineConfig, QueryBackend, SchemaCatalog};
use ws_relational::lineage::{self, DtreeCompiler, LineageDb};
use ws_relational::{
    fingerprint, optimizer, Database, Dependency, Predicate, RaExpr, Schema, Tuple, Value,
    WorkerPool, WriteBackend,
};
use ws_storage::DurabilityStats;
use ws_urel::UDatabase;
use ws_uwsdt::Uwsdt;

// ---------------------------------------------------------------------------
// Backend capabilities beyond QueryBackend.
// ---------------------------------------------------------------------------

/// What a [`Session`] needs from a backend on top of
/// [`QueryBackend::execute_plan`]: answer extraction and confidence.
///
/// Every method reads a result relation `out` the executor just built and
/// returns an owned answer; the session drops `out` afterwards.  No method
/// has a default body, so a wrapper backend cannot silently skip one.
///
/// Implemented for the five representations ([`Database`], [`Wsd`],
/// [`Uwsdt`], [`UDatabase`], [`WorldSet`]), for the dynamic [`AnyBackend`]
/// and for the persistent `Durable<B>`.
pub trait SessionBackend: QueryBackend {
    /// Short name used in stats and diagnostics.
    fn backend_name(&self) -> &'static str;

    /// The distinct possible tuples of result `out`, in the backend's
    /// canonical order.
    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>>;

    /// The possible tuples of result `out` with their exact confidences.
    fn confidence_rows(&self, out: &str, pool: &WorkerPool) -> Result<Vec<(Tuple, f64)>>;

    /// The possible tuples of result `out` with (ε, δ)-approximate
    /// confidences.  Backends without a Monte-Carlo evaluator (UWSDT, the
    /// explicit world-set oracle, the single-world database) answer with
    /// the exact computation — the approximation guarantee then holds
    /// trivially.
    fn confidence_rows_approx(
        &self,
        out: &str,
        config: &ApproxConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<(Tuple, f64)>>;

    /// The durability counters of a persistent backend; `None` for the
    /// in-memory representations.  [`Session::stats`] folds these into
    /// [`SessionStats`] so WAL and checkpoint activity shows up next to the
    /// query counters.
    fn durability(&self) -> Option<DurabilityStats>;

    /// Extract a [`LineageDb`] covering `relations` — a faithful mapping of
    /// this representation onto independent finite-domain variables, feeding
    /// the compiled-lineage confidence tier.  `None` opts the backend out
    /// (the session then uses [`SessionBackend::confidence_rows`] directly),
    /// which is always safe; see [`crate::lineage`].
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

    fn confidence_rows(&self, out: &str, _pool: &WorkerPool) -> Result<Vec<(Tuple, f64)>> {
        // One world: every distinct answer tuple is certain.
        let rows = self.possible_rows(out)?;
        Ok(rows.into_iter().map(|t| (t, 1.0)).collect())
    }

    fn confidence_rows_approx(
        &self,
        out: &str,
        _config: &ApproxConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<(Tuple, f64)>> {
        self.confidence_rows(out, pool)
    }

    fn durability(&self) -> Option<DurabilityStats> {
        None
    }

    fn lineage(&self, relations: &BTreeSet<String>) -> Option<LineageDb> {
        crate::lineage::database_lineage(self, relations)
    }
}

impl SessionBackend for Wsd {
    fn backend_name(&self) -> &'static str {
        "wsd"
    }

    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>> {
        Ok(ws_core::confidence::possible(self, out)?.into_rows())
    }

    fn confidence_rows(&self, out: &str, pool: &WorkerPool) -> Result<Vec<(Tuple, f64)>> {
        Ok(ws_core::confidence::possible_with_confidence_with(
            self, out, pool,
        )?)
    }

    fn confidence_rows_approx(
        &self,
        out: &str,
        config: &ApproxConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<(Tuple, f64)>> {
        Ok(ws_core::confidence::approx::possible_with_confidence_with(
            self, out, config, pool,
        )?)
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

    fn confidence_rows(&self, out: &str, _pool: &WorkerPool) -> Result<Vec<(Tuple, f64)>> {
        Ok(ws_uwsdt::confidence::possible_with_confidence(self, out)?)
    }

    fn confidence_rows_approx(
        &self,
        out: &str,
        _config: &ApproxConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<(Tuple, f64)>> {
        self.confidence_rows(out, pool)
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

    fn confidence_rows(&self, out: &str, pool: &WorkerPool) -> Result<Vec<(Tuple, f64)>> {
        Ok(ws_urel::confidence::possible_with_confidence_with(
            self, out, pool,
        )?)
    }

    fn confidence_rows_approx(
        &self,
        out: &str,
        config: &ApproxConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<(Tuple, f64)>> {
        Ok(ws_urel::confidence::approx::possible_with_confidence_with(
            self, out, config, pool,
        )?)
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

    fn confidence_rows(&self, out: &str, _pool: &WorkerPool) -> Result<Vec<(Tuple, f64)>> {
        let possible = ws_baselines::possible_tuples(self, out)?;
        possible
            .into_iter()
            .map(|t| {
                let c = ws_baselines::confidence(self, out, &t)?;
                Ok((t, c))
            })
            .collect()
    }

    fn confidence_rows_approx(
        &self,
        out: &str,
        _config: &ApproxConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<(Tuple, f64)>> {
        self.confidence_rows(out, pool)
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

    fn execute_plan(&mut self, plan: &RaExpr, out: &str, config: &EngineConfig) -> Result<()> {
        dispatch!(self, b => b.execute_plan(plan, out, config).map_err(Error::from))
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

    fn confidence_rows(&self, out: &str, pool: &WorkerPool) -> Result<Vec<(Tuple, f64)>> {
        dispatch!(self, b => b.confidence_rows(out, pool))
    }

    fn confidence_rows_approx(
        &self,
        out: &str,
        config: &ApproxConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<(Tuple, f64)>> {
        dispatch!(self, b => b.confidence_rows_approx(out, config, pool))
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

/// How [`Session::confidence`] picks its evaluation tier.
///
/// Exact confidence computation is `#P`-hard in general, but large classes of
/// plans and inputs admit cheaper *exact* evaluation.  The session tries, in
/// order:
///
/// 1. **Compiled lineage** — the plan is evaluated over the backend's
///    extracted lineage ([`lineage::evaluate_lineage`]) and each output
///    tuple's DNF is compiled to a Shannon-expansion d-tree with
///    independent-component splits and memoized cofactor sharing
///    ([`DtreeCompiler`]), within a node budget.  Hierarchical (safe) plans
///    have read-once lineage, which the component split compiles in one
///    pass.
/// 2. **Native exact** — when the backend has no lineage mapping, the plan
///    has a difference, or the d-tree exceeds its budget, the backend's own
///    exact enumeration answers.
///
/// Both tiers are exact; the strategy only chooses *how* the same numbers
/// are computed, and [`SessionStats`] records which tier fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConfidenceStrategy {
    /// Compiled lineage, then the native exact path.
    #[default]
    Tiered,
    /// Always use the backend's native exact enumeration (the oracle the
    /// equivalence suites pin the compiled tier to).
    ExactOnly,
}

/// Counters of one session's lifetime, for benches and capacity planning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Optimizer runs — [`Session::prepare`] calls that missed the cache.
    pub plans_prepared: u64,
    /// [`Session::prepare`] calls answered from the prepared-plan cache.
    pub cache_hits: u64,
    /// Plan executions ([`Session::execute`], [`Session::confidence`],
    /// [`Session::confidence_approx`]).
    pub executions: u64,
    /// Rows pulled through [`Rows`] cursors and confidence calls.
    pub rows_streamed: u64,
    /// Updates applied through [`Session::apply`] / [`Session::apply_all`] /
    /// [`Session::condition`].
    pub updates_applied: u64,
    /// Prepared-plan cache entries evicted because an update touched one of
    /// their base relations.
    pub plans_invalidated: u64,
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
    /// path (the compiled tier declined or was disabled).
    pub conf_exact: u64,
    /// [`Session::confidence_approx`] calls (Monte-Carlo or the backend's
    /// exact fallback).
    pub conf_approx: u64,
    /// Lineage extractions the confidence tiers asked the backend for — one
    /// per relation set the plans read, until the backend changes (every
    /// other call reads the session's memo; see [`Session::confidence`]).
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
        self.plans_invalidated += other.plans_invalidated;
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
             updates-applied={} plans-invalidated={} wal-records={} wal-bytes={} \
             checkpoints={} conf-safe={} conf-compiled={} conf-exact={} conf-approx={} \
             lineage-extractions={}",
            self.plans_prepared,
            self.cache_hits,
            self.executions,
            self.rows_streamed,
            self.updates_applied,
            self.plans_invalidated,
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
             wire-bytes-in={} wire-bytes-out={}",
            self.snapshots_pinned,
            self.commit_batches,
            self.mean_batch(),
            self.wire_bytes_in,
            self.wire_bytes_out,
        )
    }
}

/// What [`Session::explain_analyze`] returns: real measurements of one
/// profiled execution — a per-operator tree plus the query-level facts
/// (row count, confidence tier, plan-cache hit).
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// The profiled plan, rendered.
    pub plan: String,
    /// The per-operator execution tree: rows in/out, batches, wall-clock
    /// and the columnar-vs-row path each operator took.
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

/// One prepared-plan cache entry: the optimized plan plus the metadata the
/// update verbs need to invalidate it (its fingerprint and the base
/// relations it reads).
#[derive(Clone, Debug)]
struct CachedPlan {
    plan: RaExpr,
    fingerprint: u64,
    relations: BTreeSet<String>,
}

// ---------------------------------------------------------------------------
// The session.
// ---------------------------------------------------------------------------

/// A stateful connection to one possible-worlds backend: catalog, engine
/// configuration, prepared-plan cache and usage stats in one place.
#[derive(Debug)]
pub struct Session<B: SessionBackend> {
    backend: B,
    config: EngineConfig,
    plans: HashMap<String, CachedPlan>,
    stats: SessionStats,
    strategy: ConfidenceStrategy,
    scratch: usize,
    /// Results handed out by [`Session::materialize`] — the only scratch
    /// relations a session leaves in its backend (see [`Session::apply`]
    /// for the staleness rule).
    materialized: Vec<String>,
    /// The lineage the confidence tiers extracted, keyed by the base
    /// relations a plan reads; `None` memoizes a decline.  Emptied wherever
    /// the backend can change under the session: [`Session::apply`] and
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
    /// Open a session with the default [`EngineConfig`].
    pub fn new(backend: B) -> Session<B> {
        Session::with_config(backend, EngineConfig::default())
    }

    /// Open a session with explicit engine knobs (threads, optimizer,
    /// plan-cache, …).
    pub fn with_config(backend: B, config: EngineConfig) -> Session<B> {
        Session {
            backend,
            config,
            plans: HashMap::new(),
            stats: SessionStats::default(),
            strategy: ConfidenceStrategy::default(),
            scratch: 0,
            materialized: Vec::new(),
            lineage: BTreeMap::new(),
            observer: None,
            session_id: 0,
        }
    }

    /// Attach an observability domain: queries and updates emit trace spans
    /// and metrics to `observer` from here on, and the engine's hot-path
    /// instrumentation turns on ([`EngineConfig::observe`] is set — results
    /// stay bit-identical).
    pub fn set_observer(&mut self, observer: Arc<Observer>) {
        self.session_id = observer.next_session_id();
        self.config.observe = true;
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

    /// The engine configuration the session plans and executes under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Shared access to the underlying backend (for representation-specific
    /// inspection: stats, world counts, …).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the underlying backend (loading data, chasing
    /// dependencies).  Structural changes to *schemas* invalidate prepared
    /// plans; call [`Session::clear_plan_cache`] afterwards.  The lineage
    /// memo of [`Session::confidence`] is emptied here, since the caller may
    /// change any relation.
    pub fn backend_mut(&mut self) -> &mut B {
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

    /// A one-line description of the session for bench output: backend,
    /// engine configuration and usage counters.
    pub fn summary(&self) -> String {
        format!(
            "backend={} {} | {} cached-plans={}",
            self.backend.backend_name(),
            self.config.summary(),
            self.stats(),
            self.plans.len(),
        )
    }

    /// How [`Session::confidence`] picks its evaluation tier (default
    /// [`ConfidenceStrategy::Tiered`]).
    pub fn confidence_strategy(&self) -> ConfidenceStrategy {
        self.strategy
    }

    /// Change the confidence evaluation strategy.  Every strategy computes
    /// the same exact numbers; this only selects which machinery does.
    pub fn set_confidence_strategy(&mut self, strategy: ConfidenceStrategy) {
        self.strategy = strategy;
    }

    /// Number of distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Drop every cached plan (required after schema-changing backend
    /// mutations).
    pub fn clear_plan_cache(&mut self) {
        self.plans.clear();
    }

    /// Typecheck, normalize, fingerprint and (on a cache miss) optimize a
    /// query into a [`Prepared`] plan.
    ///
    /// Accepts anything [`IntoQuery`]: a fluent [`crate::builder::Query`] or
    /// a raw [`RaExpr`].
    pub fn prepare(&mut self, query: impl IntoQuery) -> Result<Prepared> {
        let expr = query.into_query().lower();
        let attrs = typecheck(&self.backend, &expr)?;
        let key = fingerprint::plan_key(&expr);
        let digest = fingerprint::fingerprint(&expr);
        let plan = if self.config.plan_cache {
            if let Some(cached) = self.plans.get(&key) {
                self.stats.cache_hits += 1;
                cached.plan.clone()
            } else {
                let planned = self.optimize(&expr)?;
                self.plans.insert(
                    key.clone(),
                    CachedPlan {
                        plan: planned.clone(),
                        fingerprint: digest,
                        relations: expr
                            .base_relations()
                            .into_iter()
                            .map(str::to_string)
                            .collect(),
                    },
                );
                self.stats.plans_prepared += 1;
                planned
            }
        } else {
            self.stats.plans_prepared += 1;
            self.optimize(&expr)?
        };
        Ok(Prepared {
            display: expr.to_string(),
            plan,
            key,
            fingerprint: digest,
            attrs,
        })
    }

    fn optimize(&self, expr: &RaExpr) -> Result<RaExpr> {
        if self.config.optimize {
            optimizer::optimize(&self.backend, expr).map_err(|e| Error::from(e).with_plan(expr))
        } else {
            Ok(expr.clone())
        }
    }

    /// Replay a prepared plan and return its possible answer tuples.
    ///
    /// The result is built inside the backend under a fresh scratch name,
    /// its distinct possible tuples are copied out, and the scratch result
    /// is dropped before this returns.  The [`Rows`] iterator owns the
    /// answer and counts the rows consumed from it.
    pub fn execute(&mut self, prepared: &Prepared) -> Result<Rows<'_>> {
        let rows = self.read_result(prepared, |session, out| session.backend.possible_rows(out))?;
        Ok(Rows {
            rows: rows.into_iter(),
            stats: &mut self.stats,
        })
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
        let out = self.run(prepared)?;
        self.materialized.push(out.clone());
        Ok(out)
    }

    /// The possible answer tuples of a prepared plan with their **exact**
    /// confidences (§6).
    ///
    /// Under the default [`ConfidenceStrategy::Tiered`] the session
    /// shadow-evaluates the plan over the backend's extracted lineage and
    /// compiles each answer's lineage to a d-tree, falling back to the
    /// backend's native exact enumeration (on the session's worker pool)
    /// whenever the compiled tier declines.  Both tiers compute the same
    /// numbers; [`SessionStats`] records which one fired.
    ///
    /// The lineage is extracted once per set of base relations the plan
    /// reads and kept until the backend changes ([`Session::apply`],
    /// [`Session::backend_mut`]); a backend that declines is not asked again
    /// either.  Executing a plan never touches a base relation's possible
    /// worlds, so every later call on the same relations reads the memo
    /// ([`SessionStats::lineage_extractions`] counts the extractions).
    pub fn confidence(&mut self, prepared: &Prepared) -> Result<Vec<(Tuple, f64)>> {
        let rows = self.read_result(prepared, |session, out| {
            session.confidence_rows_tiered(out, prepared)
        })?;
        self.stats.rows_streamed += rows.len() as u64;
        Ok(rows)
    }

    /// The tier ladder behind [`Session::confidence`]: the compiled tier
    /// first (unless [`ConfidenceStrategy::ExactOnly`]), the backend's
    /// native exact path as the unconditional fallback.
    fn confidence_rows_tiered(
        &mut self,
        out: &str,
        prepared: &Prepared,
    ) -> Result<Vec<(Tuple, f64)>> {
        let observer = self.observer.clone();
        if self.strategy != ConfidenceStrategy::ExactOnly {
            let started = Instant::now();
            if let Some(probs) = self.lineage_probabilities(prepared) {
                if let Some(rows) = self.lineage_rows(out, &probs)? {
                    self.stats.conf_compiled += 1;
                    if let Some(observer) = &observer {
                        let metrics = observer.metrics();
                        metrics.counter("conf.tier.compiled.hits").inc();
                        metrics
                            .histogram("conf.tier.compiled.ns")
                            .record_duration(started.elapsed());
                    }
                    return Ok(rows);
                }
            }
            if let Some(observer) = &observer {
                // The compiled tier was tried and declined; the native
                // exact path below answers.
                observer
                    .metrics()
                    .counter("conf.tier.lineage.declined")
                    .inc();
            }
        }
        self.stats.conf_exact += 1;
        let started = Instant::now();
        let pool = WorkerPool::new(self.config.threads);
        let rows = self.backend.confidence_rows(out, &pool);
        if let Some(observer) = &observer {
            let metrics = observer.metrics();
            metrics.counter("conf.tier.exact.hits").inc();
            metrics
                .histogram("conf.tier.exact.ns")
                .record_duration(started.elapsed());
        }
        rows
    }

    /// Shadow-evaluate `prepared` over the backend's lineage, returning each
    /// possible output tuple's exact probability by the d-tree compiler.
    /// `None` when the compiled tier does not apply (no mapping, negation in
    /// the plan, compiler budget exhausted).
    fn lineage_probabilities(&mut self, prepared: &Prepared) -> Option<BTreeMap<Tuple, f64>> {
        let relations: BTreeSet<String> = prepared
            .plan
            .base_relations()
            .into_iter()
            .map(str::to_string)
            .collect();
        let db = self.lineage_of(relations)?;
        let output = lineage::evaluate_lineage(&db, &prepared.plan).ok()?;
        let mut compiler = DtreeCompiler::new(db.vars());
        let mut probs = BTreeMap::new();
        for (tuple, dnf) in output.dnfs() {
            probs.insert(tuple, compiler.probability(&dnf).ok()?);
        }
        Some(probs)
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

    /// Pair the result's distinct possible tuples (in their canonical
    /// order) with the lineage-computed probabilities.  `None` when any
    /// tuple is missing from the map — the native exact path then answers,
    /// so a divergence can never produce wrong numbers.
    fn lineage_rows(
        &self,
        out: &str,
        probs: &BTreeMap<Tuple, f64>,
    ) -> Result<Option<Vec<(Tuple, f64)>>> {
        Ok(self
            .backend
            .possible_rows(out)?
            .into_iter()
            .map(|tuple| probs.get(&tuple).map(|&p| (tuple, p)))
            .collect())
    }

    /// The possible answer tuples of a prepared plan with (ε, δ)-approximate
    /// confidences, where the backend has a Monte-Carlo evaluator (WSDs,
    /// U-relations); other backends answer exactly.
    pub fn confidence_approx(
        &mut self,
        prepared: &Prepared,
        config: &ApproxConfig,
    ) -> Result<Vec<(Tuple, f64)>> {
        let pool = WorkerPool::new(self.config.threads);
        let rows = self.read_result(prepared, |session, out| {
            session.backend.confidence_rows_approx(out, config, &pool)
        })?;
        self.stats.conf_approx += 1;
        self.stats.rows_streamed += rows.len() as u64;
        Ok(rows)
    }

    /// Execute `prepared` with profiling on and return a [`QueryProfile`]:
    /// rows in/out, batches, wall-clock and the columnar-vs-row path of
    /// every operator, plus which confidence tier answered and whether the
    /// plan cache held the plan.  The query runs twice — once streamed for
    /// the per-operator tree and the row count, once for the confidence
    /// step — so every number is a real measurement, not an estimate.
    ///
    /// Works with or without an attached observer; profiling is scoped to
    /// this call and [`EngineConfig::observe`] is restored afterwards.
    pub fn explain_analyze(&mut self, prepared: &Prepared) -> Result<QueryProfile> {
        let saved = self.config.observe;
        self.config.observe = true;
        let result = self.explain_analyze_profiled(prepared);
        self.config.observe = saved;
        result
    }

    fn explain_analyze_profiled(&mut self, prepared: &Prepared) -> Result<QueryProfile> {
        let cache = if self.plans.contains_key(prepared.key()) {
            "hit"
        } else {
            "miss"
        };
        // First pass: stream the answer under a profile collector.
        ws_obs::profile::begin();
        let counted = self.execute(prepared).map(|rows| rows.count() as u64);
        let children = ws_obs::profile::take();
        let rows = counted?;
        // Second pass: the confidence tiers (no collector — the tree above
        // already covers the plan; the stats delta identifies the tier).
        let before = self.stats;
        let started = Instant::now();
        let confidences = self
            .read_result(prepared, |session, out| {
                session.confidence_rows_tiered(out, prepared)
            })?
            .len() as u64;
        let conf_elapsed = started.elapsed();
        let tier = if self.stats.conf_compiled > before.conf_compiled {
            "compiled"
        } else {
            "exact"
        };
        let mut root = ProfileNode::new("query", prepared.display.clone());
        root.rows_out = rows;
        root.batches = 1;
        root.path = if children.iter().any(|c| c.path != "row") {
            "columnar"
        } else {
            "row"
        };
        root.elapsed_ns = children.iter().map(|c| c.elapsed_ns).sum();
        root.children = children;
        root.derive_rows_in();
        let mut confidence = ProfileNode::new("confidence", format!("tier={tier}"));
        confidence.rows_in = rows;
        confidence.rows_out = confidences;
        confidence.batches = 1;
        confidence.path = "row";
        confidence.elapsed_ns = u64::try_from(conf_elapsed.as_nanos()).unwrap_or(u64::MAX);
        Ok(QueryProfile {
            plan: prepared.display.clone(),
            root,
            confidence,
            tier,
            cache,
            rows,
        })
    }

    /// The one result path of every read verb: execute `prepared` into a
    /// fresh scratch result, let `read` copy the answer out, and drop the
    /// result before returning — whether `read` succeeded or not.
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

    /// Execute the physical plan into a fresh scratch result, returning its
    /// name.
    fn run(&mut self, prepared: &Prepared) -> Result<String> {
        let out = loop {
            let candidate = format!("__session_q{}", self.scratch);
            self.scratch += 1;
            if !self.backend.contains_relation(&candidate) {
                break candidate;
            }
        };
        // The plan is already optimized; replay it as-is.
        let exec = EngineConfig {
            optimize: false,
            ..self.config
        };
        // With an observer attached, scope this execution (the engine's
        // hooks read the scope back thread-locally) and trace it as a
        // `query` span; the span emits on drop, errors included.
        let _guard = self.observer.as_ref().map(|observer| {
            ws_obs::attach(ws_obs::Scope {
                observer: Arc::clone(observer),
                session: self.session_id,
                request: observer.next_request_id(),
            })
        });
        let _span = self
            .observer
            .as_ref()
            .map(|observer| observer.span("query").field("plan", &prepared.display));
        engine::evaluate_query_with(&mut self.backend, &prepared.plan, &out, exec)
            .map_err(|e| Into::<Error>::into(e).with_plan(&prepared.display))?;
        self.stats.executions += 1;
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
    /// from the pre-update state:
    ///
    /// * prepared-plan cache entries whose base relations the update touches
    ///   are evicted by fingerprint (conditioning evicts *all* entries —
    ///   removing worlds reweights every correlated relation), so the next
    ///   [`Session::prepare`] of such a plan re-optimizes (a cache miss in
    ///   [`SessionStats`]);
    /// * results of [`Session::materialize`] — the only scratch relations a
    ///   session leaves in its backend — are dropped before the update runs.
    ///   Names returned by `materialize` must therefore not be read after an
    ///   `apply`; re-execute the plan instead.  Every other read verb has
    ///   already copied its answer out and dropped its result;
    /// * the lineage memo of [`Session::confidence`] is emptied whole, so the
    ///   next confidence call re-extracts from the updated backend.
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
        self.invalidate_plans(update);
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

    /// Evict the cache entries the update invalidates, counting them.
    fn invalidate_plans(&mut self, update: &UpdateExpr) {
        let before = self.plans.len();
        match update {
            // Conditioning reweights (and can empty) every correlated
            // relation, so no cached plan survives it.
            UpdateExpr::Condition { .. } => self.plans.clear(),
            _ => {
                let touched: BTreeSet<&str> = update.relations().into_iter().collect();
                self.plans.retain(|_, cached| {
                    cached
                        .relations
                        .iter()
                        .all(|r| !touched.contains(r.as_str()))
                });
            }
        }
        self.stats.plans_invalidated += (before - self.plans.len()) as u64;
    }

    /// The fingerprints of the currently cached plans (diagnostics; the
    /// invalidation unit tests assert eviction through this).
    pub fn cached_fingerprints(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.plans.values().map(|c| c.fingerprint).collect();
        out.sort_unstable();
        out
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
    fn plan_cache_can_be_disabled() {
        let config = EngineConfig {
            plan_cache: false,
            ..EngineConfig::default()
        };
        let mut session = Session::with_config(db(), config);
        let query = q("R").project(["A"]);
        session.prepare(query.clone()).unwrap();
        session.prepare(query).unwrap();
        let stats = session.stats();
        assert_eq!((stats.plans_prepared, stats.cache_hits), (2, 0));
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
        // The second plan's condition spans two components, so executing it
        // composes base components.
        let plans = [
            q("R").select(Predicate::eq_const("M", 1i64)).project(["S"]),
            q("R").select(Predicate::and(vec![
                Predicate::eq_const("M", 1i64),
                Predicate::cmp_const("S", CmpOp::Ge, 500i64),
            ])),
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
        assert!(summary.contains("plan-cache=on"));
        assert!(summary.contains("plans-prepared=0"));
        assert!(summary.contains("cached-plans=0"));
    }
}
