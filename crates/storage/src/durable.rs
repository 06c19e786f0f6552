//! [`Durable<B>`]: the log-then-apply wrapper that makes any
//! [`WriteBackend`] survive a process crash.
//!
//! Write path — every update verb:
//!
//! 1. encodes itself as one CRC-framed [`crate::wal`] record and appends it
//!    to the log (**log first**),
//! 2. then applies through the wrapped backend's existing [`WriteBackend`]
//!    verb (**apply second**).
//!
//! If the log write fails, the backend is untouched.  If the process dies
//! after the log write, recovery replays the record — applying it then has
//! the same (deterministic) outcome it would have had live, *including* a
//! deterministic failure: a conditioning step that emptied the world-set
//! errored live, and it errors identically on replay, leaving the state
//! bit-identical to the crashed process's.
//!
//! Read path ([`ws_relational::QueryBackend`]) is pass-through and never
//! logged: a query's scratch result lives only until its caller drops it
//! (`maybms::Session` does so before every read verb returns, and drops
//! what `Session::materialize` handed out before it checkpoints), so a
//! snapshot encodes exactly what the store holds.
//!
//! [`Durable::checkpoint`] writes snapshot generation `g+1` atomically, then
//! resets the log to `g+1`; [`Durable::open`] loads the newest valid
//! snapshot and replays whatever log tail extends it.  The crash-safety
//! argument for every interleaving is in the [`crate::wal`] docs.
//!
//! When appends reach *stable* storage is a separate axis, chosen by
//! [`SyncPolicy`]:
//!
//! * [`SyncPolicy::EveryRecord`] — fsync before each update is
//!   acknowledged (the default; power-cut durable per update),
//! * [`SyncPolicy::GroupCommit`] — coalesce concurrent updates into one
//!   batch frame via [`Durable::apply_batch`] and fsync once per batch,
//!   acknowledging every update in the batch after that single fsync,
//! * [`SyncPolicy::OnCheckpoint`] — defer fsyncs to
//!   checkpoint/sync/close.

use crate::codec;
use crate::error::{DurableError, Result, StorageError};
use crate::persist::Persist;
use crate::snapshot;
use crate::vfs::{DirVfs, Vfs};
use crate::wal::{Wal, WAL_HEADER_LEN};
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use ws_core::ops::update::{apply_update, UpdateExpr};
use ws_relational::engine::{QueryBackend, SchemaCatalog, WriteBackend};
use ws_relational::{Dependency, Predicate, RaExpr, Schema, Tuple, Value};

/// Durability counters, surfaced through `maybms::SessionStats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Records appended to the WAL since the last checkpoint (after
    /// recovery: the replayed tail it opened with).
    pub wal_records: u64,
    /// Bytes appended to the WAL since the last checkpoint.
    pub wal_bytes: u64,
    /// Checkpoints taken through this handle.
    pub checkpoints: u64,
    /// The snapshot generation the log currently extends.
    pub snapshot_generation: u64,
    /// WAL records replayed by the last [`Durable::open`].
    pub recovered_records: u64,
    /// Replayed records whose application failed live too (deterministic
    /// failures such as an inconsistency-reporting conditioning step).
    pub replayed_failures: u64,
    /// Torn trailing bytes truncated off the WAL on open.
    pub torn_bytes_truncated: u64,
    /// Batches appended through [`Durable::apply_batch`] (each batch is one
    /// WAL frame + at most one fsync).
    pub commit_batches: u64,
    /// Updates carried by those batches; the mean batch size is
    /// `batched_updates / commit_batches`.
    pub batched_updates: u64,
}

/// When WAL appends reach stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended record (default): an update acknowledged
    /// with `Ok` survives a power cut, not just a process crash.
    #[default]
    EveryRecord,
    /// Coalesce updates into batch frames: [`Durable::apply_batch`] appends
    /// at most `max_batch` updates per [`crate::wal::RECORD_BATCH`] frame
    /// and fsyncs **once per call**, so every update in the batch becomes
    /// power-cut durable with one fsync.  `max_wait` is read by concurrent
    /// batchers (the ws-server committer) as the longest a leader waits for
    /// followers to coalesce; the single-threaded write path ignores it.
    GroupCommit {
        /// Most updates allowed in one batch frame (0 is treated as 1).
        max_batch: usize,
        /// How long a concurrent batcher waits to fill a batch.
        max_wait: Duration,
    },
    /// Only flush to the OS per record; fsync happens at
    /// [`Durable::checkpoint`], [`Durable::sync`] and [`Durable::close`].
    /// Faster, but acknowledged updates between syncs can be lost to a
    /// power cut (never torn — the per-record CRC still truncates cleanly).
    OnCheckpoint,
}

/// A write-ahead-logged, snapshot-checkpointed backend.
pub struct Durable<B> {
    inner: B,
    vfs: Box<dyn Vfs>,
    wal: Wal,
    stats: DurabilityStats,
    sync_policy: SyncPolicy,
    /// Set when the log and the snapshot line diverged (a checkpoint wrote
    /// its snapshot but could not reset the log): further appends would be
    /// silently discarded by recovery, so the write path refuses them.
    poisoned: Option<String>,
    /// Observability domain for the WAL latency histograms
    /// (`wal.append_ns`, `wal.fsync_ns`, `wal.checkpoint_ns`,
    /// `wal.recovery_replay_ns`); `None` records nothing.
    observer: Option<Arc<ws_obs::Observer>>,
}

impl<B> fmt::Debug for Durable<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Durable")
            .field("generation", &self.wal.generation())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<B: Persist + WriteBackend> Durable<B> {
    /// Initialize a fresh store on `vfs`: snapshot generation 0 of the given
    /// backend plus an empty log.
    ///
    /// Refuses a medium that already holds a store (any snapshot file):
    /// writing generation 0 next to existing higher generations would make
    /// the *old* state win the next recovery and silently discard
    /// everything logged through this handle.  Recover an existing store
    /// with [`Durable::open`], or remove its files explicitly first.  A
    /// `backend` that fails its own validation
    /// ([`Persist::validate_state`]) is refused before anything is written.
    pub fn create(mut vfs: Box<dyn Vfs>, backend: B) -> Result<Self> {
        let existing: Vec<String> = vfs
            .list()?
            .into_iter()
            .filter(|name| snapshot::parse_snapshot_name(name).is_some())
            .collect();
        if !existing.is_empty() {
            return Err(StorageError::corrupt(format!(
                "refusing to initialize over an existing store (found {}); \
                 open it with Durable::open or delete it first",
                existing.join(", ")
            )));
        }
        backend.validate_state()?;
        snapshot::write_snapshot(vfs.as_mut(), 0, &backend)?;
        let wal = Wal::reset(vfs.as_mut(), 0)?;
        Ok(Durable {
            inner: backend,
            vfs,
            wal,
            stats: DurabilityStats::default(),
            sync_policy: SyncPolicy::default(),
            poisoned: None,
            observer: None,
        })
    }

    /// [`Durable::create`] on a filesystem directory.
    pub fn create_dir(dir: impl AsRef<Path>, backend: B) -> Result<Self> {
        Self::create(Box::new(DirVfs::open(dir.as_ref())?), backend)
    }

    /// Snapshot the current state — every relation the store holds — as the
    /// next generation and reset the log.  Returns the new generation.
    ///
    /// The state is validated first ([`Persist::validate_state`]): a state
    /// recovery would refuse is never encoded, and the refusal leaves the log
    /// and the previous snapshot untouched.
    ///
    /// If the snapshot lands but the log reset fails, the handle is
    /// **poisoned**: recovery would load the new snapshot and discard the
    /// stale-generation log, so accepting further appends would silently
    /// lose them — the write path refuses instead (reads keep working, and
    /// everything logged so far is safely inside the new snapshot).
    pub fn checkpoint(&mut self) -> Result<u64> {
        let started = Instant::now();
        self.inner.validate_state()?;
        let generation = self.wal.generation() + 1;
        snapshot::write_snapshot(self.vfs.as_mut(), generation, &self.inner)?;
        match Wal::reset(self.vfs.as_mut(), generation) {
            Ok(wal) => self.wal = wal,
            Err(e) => {
                self.poisoned = Some(format!(
                    "snapshot generation {generation} is durable but the log \
                     could not be reset to it: {e}"
                ));
                return Err(e);
            }
        }
        snapshot::prune_old(self.vfs.as_mut(), generation);
        self.stats.checkpoints += 1;
        self.stats.snapshot_generation = generation;
        self.stats.wal_records = 0;
        self.stats.wal_bytes = 0;
        self.record_ns("wal.checkpoint_ns", started.elapsed());
        Ok(generation)
    }

    /// Recover a store from `vfs`: load the newest valid snapshot, truncate
    /// the WAL's torn tail, and replay the remaining records through the
    /// wrapped backend's own [`WriteBackend`] verbs.
    pub fn open(vfs: Box<dyn Vfs>) -> Result<Self> {
        Self::open_with(vfs, None)
    }

    /// [`Durable::open`] with an observer attached from the first replayed
    /// record on: recovery replay is timed into `wal.recovery_replay_ns`
    /// and the handle keeps recording WAL latencies afterwards.
    pub fn open_observed(vfs: Box<dyn Vfs>, observer: Arc<ws_obs::Observer>) -> Result<Self> {
        Self::open_with(vfs, Some(observer))
    }

    fn open_with(mut vfs: Box<dyn Vfs>, observer: Option<Arc<ws_obs::Observer>>) -> Result<Self> {
        let (generation, mut inner) = snapshot::load_newest::<B>(vfs.as_mut())?;
        let (wal, scanned) = Wal::open(vfs.as_mut(), generation)?;
        let mut stats = DurabilityStats {
            snapshot_generation: generation,
            recovered_records: scanned.update_count() as u64,
            torn_bytes_truncated: scanned.torn_bytes as u64,
            wal_records: scanned.update_count() as u64,
            wal_bytes: scanned.valid_len.saturating_sub(WAL_HEADER_LEN) as u64,
            ..DurabilityStats::default()
        };
        let replay_started = Instant::now();
        for record in &scanned.records {
            // A record that failed live fails identically on replay (the
            // verbs are deterministic); reproducing the failure reproduces
            // the crashed process's state, so replay continues past it.  A
            // batch frame replays all of its updates in order — the frame
            // either validated whole or was truncated whole, so recovery
            // always lands on a batch boundary.
            for update in &record.updates {
                if apply_update(&mut inner, update).is_err() {
                    stats.replayed_failures += 1;
                }
            }
        }
        if let Some(observer) = &observer {
            observer
                .metrics()
                .histogram("wal.recovery_replay_ns")
                .record_duration(replay_started.elapsed());
            observer
                .metrics()
                .counter("wal.recovery.records")
                .add(stats.recovered_records);
        }
        Ok(Durable {
            inner,
            vfs,
            wal,
            stats,
            sync_policy: SyncPolicy::default(),
            poisoned: None,
            observer,
        })
    }

    /// [`Durable::open`] on a filesystem directory.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open(Box::new(DirVfs::open(dir.as_ref())?))
    }
}

impl<B> Durable<B> {
    /// Shared access to the wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Tear the wrapper down without syncing, handing the backend back.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The snapshot generation the log currently extends.
    pub fn generation(&self) -> u64 {
        self.wal.generation()
    }

    /// The durability counters.
    pub fn stats(&self) -> DurabilityStats {
        self.stats
    }

    /// Force the log to stable storage (fsync).
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync(self.vfs.as_mut())
    }

    /// Flush and fsync the log, surfacing I/O errors, then hand the backend
    /// back — the drop-with-result teardown `Session::close` builds on.
    ///
    /// Closing a **poisoned** handle (a checkpoint's snapshot landed but
    /// its log reset failed) is an error that reports the whole cause
    /// chain: the original poison cause first, then the final sync's
    /// outcome if that failed too — not just whichever error happened
    /// last.  The backend's state is still recoverable via
    /// [`Durable::open`] (it lives in the durable snapshot).
    pub fn close(mut self) -> Result<B> {
        let synced = self.wal.sync(self.vfs.as_mut());
        match (self.poisoned.take(), synced) {
            (None, Ok(())) => Ok(self.inner),
            (None, Err(e)) => Err(e),
            (Some(why), Ok(())) => {
                Err(StorageError::io(format!("closing a poisoned store: {why}")))
            }
            (Some(why), Err(e)) => Err(StorageError::io(format!(
                "closing a poisoned store: {why}; the final sync failed too: {e}"
            ))),
        }
    }

    /// How WAL appends reach stable storage (default:
    /// [`SyncPolicy::EveryRecord`]).
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync_policy
    }

    /// Trade per-update fsyncs for throughput (see [`SyncPolicy`]).
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.sync_policy = policy;
    }

    /// Attach an observability domain: WAL appends, fsyncs and checkpoints
    /// record latency histograms on it from here on.
    pub fn set_observer(&mut self, observer: Arc<ws_obs::Observer>) {
        self.observer = Some(observer);
    }

    /// Record `elapsed` into the named histogram, when observed.
    fn record_ns(&self, name: &str, elapsed: Duration) {
        if let Some(observer) = &self.observer {
            observer.metrics().histogram(name).record_duration(elapsed);
        }
    }

    /// Append one record to the log (the *log* half of log-then-apply).
    /// An update recovery could not decode is refused before anything is
    /// written ([`codec::check_nesting`]).
    fn log(&mut self, update: &UpdateExpr) -> std::result::Result<(), StorageError> {
        if let Some(why) = &self.poisoned {
            return Err(StorageError::io(format!(
                "store refuses writes: {why}; reopen it to resume"
            )));
        }
        codec::check_nesting(update)?;
        let started = Instant::now();
        let bytes = self.wal.append(self.vfs.as_mut(), update)?;
        self.record_ns("wal.append_ns", started.elapsed());
        if self.sync_policy == SyncPolicy::EveryRecord {
            let started = Instant::now();
            self.wal.sync(self.vfs.as_mut())?;
            self.record_ns("wal.fsync_ns", started.elapsed());
        }
        self.stats.wal_records += 1;
        self.stats.wal_bytes += bytes as u64;
        Ok(())
    }
}

impl<B: WriteBackend> Durable<B> {
    /// The group-commit entry point: log the whole batch, fsync **once**
    /// (unless the policy is [`SyncPolicy::OnCheckpoint`]), then apply each
    /// update, returning the per-update outcomes in submission order.
    ///
    /// The batch is framed as one [`crate::wal::RECORD_BATCH`] record (split
    /// at the policy's `max_batch`), so a crash mid-append tears the frame's
    /// CRC and recovery drops the batch whole — callers whose updates were
    /// in a torn batch were never acknowledged, and no prefix of a batch is
    /// ever replayed.
    ///
    /// Per-update failures (e.g. a deterministic `Inconsistent` conditioning
    /// outcome) are *values* in the returned vector, not errors of the call:
    /// they are logged and replayed like any other update.  The outer error
    /// is reserved for log I/O failures and for a batch holding an update
    /// recovery could not decode ([`codec::check_nesting`]); in both cases
    /// no update of the batch touched the backend.
    pub fn apply_batch(
        &mut self,
        updates: &[UpdateExpr],
    ) -> Result<Vec<std::result::Result<f64, B::Error>>> {
        if let Some(why) = &self.poisoned {
            return Err(StorageError::io(format!(
                "store refuses writes: {why}; reopen it to resume"
            )));
        }
        if updates.is_empty() {
            return Ok(Vec::new());
        }
        for update in updates {
            codec::check_nesting(update)?;
        }
        let max_batch = match self.sync_policy {
            SyncPolicy::GroupCommit { max_batch, .. } => max_batch.max(1),
            _ => updates.len(),
        };
        let mut bytes = 0usize;
        let started = Instant::now();
        for chunk in updates.chunks(max_batch) {
            bytes += if chunk.len() == 1 {
                self.wal.append(self.vfs.as_mut(), &chunk[0])?
            } else {
                self.wal.append_batch(self.vfs.as_mut(), chunk)?
            };
        }
        self.record_ns("wal.append_ns", started.elapsed());
        if !matches!(self.sync_policy, SyncPolicy::OnCheckpoint) {
            let started = Instant::now();
            self.wal.sync(self.vfs.as_mut())?;
            self.record_ns("wal.fsync_ns", started.elapsed());
        }
        self.stats.wal_records += updates.len() as u64;
        self.stats.wal_bytes += bytes as u64;
        self.stats.commit_batches += 1;
        self.stats.batched_updates += updates.len() as u64;
        Ok(updates
            .iter()
            .map(|update| apply_update(&mut self.inner, update))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Engine plumbing: reads pass through, writes log first.
// ---------------------------------------------------------------------------

impl<B: SchemaCatalog> SchemaCatalog for Durable<B> {
    fn schema_of(&self, relation: &str) -> ws_relational::Result<Schema> {
        self.inner.schema_of(relation)
    }

    fn contains_relation(&self, relation: &str) -> bool {
        self.inner.contains_relation(relation)
    }
}

impl<B: QueryBackend> QueryBackend for Durable<B> {
    type Error = DurableError<B::Error>;

    fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> std::result::Result<(), Self::Error> {
        self.inner
            .execute_plan(plan, out)
            .map_err(DurableError::Backend)
    }

    fn drop_scratch(&mut self, name: &str) {
        self.inner.drop_scratch(name);
    }
}

impl<B: WriteBackend> WriteBackend for Durable<B> {
    fn insert_certain(
        &mut self,
        relation: &str,
        tuple: &Tuple,
    ) -> std::result::Result<(), Self::Error> {
        self.log(&UpdateExpr::insert(relation, tuple.clone()))?;
        self.inner
            .insert_certain(relation, tuple)
            .map_err(DurableError::Backend)
    }

    fn insert_possible(
        &mut self,
        relation: &str,
        tuple: &Tuple,
        prob: f64,
    ) -> std::result::Result<(), Self::Error> {
        self.log(&UpdateExpr::insert_possible(relation, tuple.clone(), prob))?;
        self.inner
            .insert_possible(relation, tuple, prob)
            .map_err(DurableError::Backend)
    }

    fn delete_where(
        &mut self,
        relation: &str,
        pred: &Predicate,
    ) -> std::result::Result<(), Self::Error> {
        self.log(&UpdateExpr::delete(relation, pred.clone()))?;
        self.inner
            .delete_where(relation, pred)
            .map_err(DurableError::Backend)
    }

    fn modify_where(
        &mut self,
        relation: &str,
        pred: &Predicate,
        assignments: &[(String, Value)],
    ) -> std::result::Result<(), Self::Error> {
        self.log(&UpdateExpr::modify(
            relation,
            pred.clone(),
            assignments.to_vec(),
        ))?;
        self.inner
            .modify_where(relation, pred, assignments)
            .map_err(DurableError::Backend)
    }

    fn apply_condition(
        &mut self,
        constraints: &[Dependency],
    ) -> std::result::Result<f64, Self::Error> {
        self.log(&UpdateExpr::condition(constraints.to_vec()))?;
        self.inner
            .apply_condition(constraints)
            .map_err(DurableError::Backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use ws_core::Wsd;
    use ws_relational::{CmpOp, EqualityGeneratingDependency, Relation};
    use ws_uwsdt::Uwsdt;

    fn boxed(vfs: &MemVfs) -> Box<dyn Vfs> {
        Box::new(vfs.clone())
    }

    #[test]
    fn updates_survive_a_reopen() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd.clone()).unwrap();
        durable
            .insert_certain(
                "R",
                &Tuple::from_iter([Value::int(999), Value::text("New"), Value::int(1)]),
            )
            .unwrap();
        durable
            .delete_where("R", &Predicate::eq_const("N", "Smith"))
            .unwrap();
        let live = durable.inner().rep().unwrap();
        assert_eq!(durable.stats().wal_records, 2);

        let recovered = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(recovered.stats().recovered_records, 2);
        assert_eq!(recovered.stats().replayed_failures, 0);
        let rec = recovered.inner().rep().unwrap();
        assert!(live.same_worlds(&rec) && live.same_distribution(&rec, 0.0));
    }

    #[test]
    fn checkpoint_truncates_the_log_and_bumps_the_generation() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd).unwrap();
        durable
            .modify_where(
                "R",
                &Predicate::eq_const("S", 785i64),
                &[("M".to_string(), Value::int(1))],
            )
            .unwrap();
        assert_eq!(durable.checkpoint().unwrap(), 1);
        let stats = durable.stats();
        assert_eq!((stats.wal_records, stats.checkpoints), (0, 1));
        let live = durable.inner().rep().unwrap();

        let recovered = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(recovered.generation(), 1);
        assert_eq!(recovered.stats().recovered_records, 0);
        assert!(live.same_distribution(&recovered.inner().rep().unwrap(), 0.0));
    }

    #[test]
    fn an_inconsistent_condition_replays_as_the_same_failure() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd).unwrap();
        // No world satisfies S=185 ⇒ M > 100.
        let impossible = Dependency::Egd(EqualityGeneratingDependency::implies(
            "R",
            "N",
            "Smith",
            "M",
            CmpOp::Gt,
            100i64,
        ));
        assert!(durable
            .apply_condition(std::slice::from_ref(&impossible))
            .is_err());
        let live = durable.inner().clone();

        let recovered = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(recovered.stats().replayed_failures, 1);
        // The failure left the same (partially chased) state behind.
        assert_eq!(recovered.inner().encode_to_vec(), live.encode_to_vec());
    }

    #[test]
    fn failed_log_writes_never_touch_the_backend() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd.clone()).unwrap();
        vfs.set_write_budget(Some(3));
        let err = durable
            .insert_certain(
                "R",
                &Tuple::from_iter([Value::int(1), Value::text("x"), Value::int(1)]),
            )
            .unwrap_err();
        assert!(matches!(err, DurableError::Storage(_)));
        assert_eq!(durable.inner().world_count(), wsd.world_count());
        vfs.set_write_budget(None);

        // The torn record is truncated away on the next open, leaving the
        // snapshot state.
        let recovered = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(recovered.stats().recovered_records, 0);
        assert!(recovered.stats().torn_bytes_truncated > 0);
    }

    #[test]
    fn create_refuses_an_existing_store() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd.clone()).unwrap();
        durable.checkpoint().unwrap();
        // Re-initializing over generations {0, 1} would make the old state
        // win the next recovery; it must be refused, store intact.
        let err = Durable::create(boxed(&vfs), wsd).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err}");
        let reopened = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(reopened.generation(), 1);
    }

    /// A template with a `?` cell and no `F` entry: a UWSDT that fails its
    /// own validation (and that decoding would refuse).
    fn unregistered_placeholder() -> Uwsdt {
        let mut template = Relation::new(Schema::new("R", &["A"]).unwrap());
        template.push(Tuple::new(vec![Value::Unknown])).unwrap();
        let mut uwsdt = Uwsdt::new();
        uwsdt.add_template(template).unwrap();
        assert!(uwsdt.validate().is_err());
        uwsdt
    }

    #[test]
    fn invalid_states_are_never_encoded() {
        let vfs = MemVfs::new();
        let err = Durable::create(boxed(&vfs), unregistered_placeholder()).unwrap_err();
        assert!(matches!(err, StorageError::Invalid(_)), "got {err}");
        assert!(
            vfs.clone().list().unwrap().is_empty(),
            "create wrote a file"
        );

        let mut valid = Relation::new(Schema::new("R", &["A"]).unwrap());
        valid.push_values([1i64]).unwrap();
        let valid = ws_uwsdt::from_or_relation(&valid, &[]).unwrap();
        let mut durable = Durable::create(boxed(&vfs), valid).unwrap();
        durable
            .insert_certain("R", &Tuple::from_iter([2i64]))
            .unwrap();
        let logged = durable.inner().encode_to_vec();
        let files = |vfs: &MemVfs| {
            let mut names = vfs.clone().list().unwrap();
            names.sort();
            names
                .into_iter()
                .map(|name| (vfs.bytes(&name), name))
                .collect::<Vec<_>>()
        };
        let before = files(&vfs);
        durable.inner = unregistered_placeholder();
        let err = durable.checkpoint().unwrap_err();
        assert!(matches!(err, StorageError::Invalid(_)), "got {err}");
        assert_eq!(files(&vfs), before, "the refused checkpoint wrote");
        assert_eq!(durable.generation(), 0);

        let reopened = Durable::<Uwsdt>::open(boxed(&vfs)).unwrap();
        assert_eq!(reopened.generation(), 0);
        assert_eq!(reopened.stats().recovered_records, 1);
        assert_eq!(reopened.inner().encode_to_vec(), logged);
    }

    #[test]
    fn updates_recovery_could_not_decode_are_never_logged() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd.clone()).unwrap();
        let wal = |vfs: &MemVfs| vfs.bytes(crate::wal::WAL_FILE);
        let before = wal(&vfs);
        let too_deep =
            (0..codec::MAX_NESTING).fold(Predicate::eq_const("S", 1i64), |p, _| Predicate::not(p));
        let err = durable.delete_where("R", &too_deep).unwrap_err();
        assert!(
            matches!(err, DurableError::Storage(StorageError::Invalid(_))),
            "got {err}"
        );
        // A batch holding it is refused whole: its sibling is not applied.
        let sibling = UpdateExpr::delete("R", Predicate::eq_const("S", 185i64));
        let err = durable
            .apply_batch(&[sibling, UpdateExpr::delete("R", too_deep)])
            .unwrap_err();
        assert!(matches!(err, StorageError::Invalid(_)), "got {err}");
        assert_eq!(wal(&vfs), before, "a refused update reached the log");
        assert_eq!(durable.stats().wal_records, 0);
        assert_eq!(durable.inner().encode_to_vec(), wsd.encode_to_vec());
        let reopened = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(reopened.stats().recovered_records, 0);
    }

    #[test]
    fn a_failed_log_reset_poisons_the_write_path() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd.clone()).unwrap();
        // Budget exactly the next snapshot image: the checkpoint's snapshot
        // lands, the 20-byte log reset tears.
        let image = crate::snapshot::encode_snapshot(1, &wsd);
        vfs.set_write_budget(Some(image.len()));
        assert!(durable.checkpoint().is_err());
        vfs.set_write_budget(None);
        // Appends are refused — recovery would discard them silently.
        let err = durable
            .insert_certain(
                "R",
                &Tuple::from_iter([Value::int(1), Value::text("x"), Value::int(1)]),
            )
            .unwrap_err();
        assert!(matches!(err, DurableError::Storage(_)), "got {err}");
        assert_eq!(durable.inner().world_count(), wsd.world_count());
        // Reopening resumes from the durable snapshot.
        let reopened = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(reopened.generation(), 1);
        assert_eq!(reopened.stats().recovered_records, 0);
    }

    #[test]
    fn sync_policy_defaults_to_every_record() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd).unwrap();
        assert_eq!(durable.sync_policy(), SyncPolicy::EveryRecord);
        durable.set_sync_policy(SyncPolicy::OnCheckpoint);
        durable
            .delete_where("R", &Predicate::eq_const("N", "Smith"))
            .unwrap();
        assert_eq!(durable.stats().wal_records, 1);
    }

    #[test]
    fn group_commit_fsyncs_once_per_batch() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd).unwrap();
        durable.set_sync_policy(SyncPolicy::GroupCommit {
            max_batch: 64,
            max_wait: std::time::Duration::from_millis(2),
        });
        let updates: Vec<UpdateExpr> = (0..5)
            .map(|i| {
                UpdateExpr::insert(
                    "R",
                    Tuple::from_iter([Value::int(1000 + i), Value::text("x"), Value::int(1)]),
                )
            })
            .collect();
        let before = vfs.sync_count();
        let outcomes = durable.apply_batch(&updates).unwrap();
        assert_eq!(outcomes.len(), 5);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(vfs.sync_count(), before + 1, "one fsync for the batch");
        assert_eq!(durable.stats().commit_batches, 1);
        assert_eq!(durable.stats().batched_updates, 5);

        // The per-record default pays one fsync per update instead.
        durable.set_sync_policy(SyncPolicy::EveryRecord);
        let before = vfs.sync_count();
        for update in &updates[..3] {
            durable.apply_batch(std::slice::from_ref(update)).unwrap();
        }
        assert_eq!(vfs.sync_count(), before + 3);
    }

    #[test]
    fn apply_batch_splits_frames_at_max_batch() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd).unwrap();
        durable.set_sync_policy(SyncPolicy::GroupCommit {
            max_batch: 2,
            max_wait: std::time::Duration::ZERO,
        });
        let updates: Vec<UpdateExpr> = (0..5)
            .map(|i| {
                UpdateExpr::insert(
                    "R",
                    Tuple::from_iter([Value::int(2000 + i), Value::text("y"), Value::int(1)]),
                )
            })
            .collect();
        durable.apply_batch(&updates).unwrap();
        let scan = crate::wal::scan(&vfs.bytes(crate::wal::WAL_FILE).unwrap()).unwrap();
        // 2 + 2 + 1: two batch frames and one singleton.
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.update_count(), 5);
        assert_eq!(durable.stats().wal_records, 5);

        // Recovery replays every update of every frame.
        let recovered = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(recovered.stats().recovered_records, 5);
        let live = durable.inner().rep().unwrap();
        let rec = recovered.inner().rep().unwrap();
        assert!(live.same_worlds(&rec) && live.same_distribution(&rec, 0.0));
    }

    #[test]
    fn a_batched_inconsistency_is_an_outcome_not_an_error() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd).unwrap();
        durable.set_sync_policy(SyncPolicy::GroupCommit {
            max_batch: 8,
            max_wait: std::time::Duration::ZERO,
        });
        let impossible = Dependency::Egd(EqualityGeneratingDependency::implies(
            "R",
            "N",
            "Smith",
            "M",
            CmpOp::Gt,
            100i64,
        ));
        let batch = vec![
            UpdateExpr::insert(
                "R",
                Tuple::from_iter([Value::int(7), Value::text("z"), Value::int(0)]),
            ),
            UpdateExpr::condition(vec![impossible]),
        ];
        let outcomes = durable.apply_batch(&batch).unwrap();
        assert!(outcomes[0].is_ok());
        assert!(
            outcomes[1].is_err(),
            "the inconsistency is a per-update outcome"
        );
        let live = durable.inner().clone();

        // Replay reproduces the same partial state, failure included.
        let recovered = Durable::<Wsd>::open(boxed(&vfs)).unwrap();
        assert_eq!(recovered.stats().recovered_records, 2);
        assert_eq!(recovered.stats().replayed_failures, 1);
        assert_eq!(recovered.inner().encode_to_vec(), live.encode_to_vec());
    }

    #[test]
    fn closing_a_poisoned_store_reports_the_cause_chain() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut durable = Durable::create(boxed(&vfs), wsd.clone()).unwrap();
        let image = crate::snapshot::encode_snapshot(1, &wsd);
        vfs.set_write_budget(Some(image.len()));
        assert!(durable.checkpoint().is_err());
        vfs.set_write_budget(None);
        let err = durable.close().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("poisoned"), "got: {msg}");
        assert!(
            msg.contains("could not be reset"),
            "the poison cause must survive into close's error: {msg}"
        );
    }

    #[test]
    fn close_surfaces_sync_and_hands_the_backend_back() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let durable = Durable::create(boxed(&vfs), wsd.clone()).unwrap();
        let back = durable.close().unwrap();
        assert_eq!(back.world_count(), wsd.world_count());
    }
}
