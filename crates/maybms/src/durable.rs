//! Durable sessions: the `ws_storage` persistence subsystem mounted behind
//! the [`Session`] front door.
//!
//! ```no_run
//! use maybms::{q, Session};
//! use maybms::prelude::Predicate;
//!
//! // First run: initialize a store directory from an in-memory backend.
//! let wsd = maybms::core::wsd::example_census_wsd();
//! let mut session = Session::create_durable("census.store", wsd)?;
//! session.apply(&maybms::UpdateExpr::delete(
//!     "R",
//!     Predicate::eq_const("M", 4i64),
//! ))?;                        // write-ahead logged, then applied
//! session.checkpoint()?;      // snapshot + WAL truncation
//! session.close()?;           // fsync, surfacing I/O errors
//!
//! // Any later run (including after a crash): recover and keep going.
//! let mut session = Session::open_durable("census.store")?;
//! let plan = session.prepare(q("R").project(["S"]))?;
//! let rows: Vec<_> = session.execute(&plan)?.collect();
//! # let _ = rows;
//! # Ok::<(), maybms::Error>(())
//! ```
//!
//! A durable session is an ordinary `Session<Durable<AnyBackend>>`: every
//! `apply`/`apply_all`/`condition` routes through the [`Durable`] wrapper's
//! log-then-apply verbs, queries pass straight through to the wrapped
//! representation, and [`SessionStats`](crate::SessionStats) picks up the WAL/checkpoint
//! counters.  For explicit control over the engine configuration or the
//! storage medium, build the wrapper yourself and hand it to
//! [`Session::with_config`] — `Durable<AnyBackend>` (or `Durable<Wsd>`,
//! `Durable<UDatabase>`, …) is a first-class [`SessionBackend`].

use crate::error::{Error, Result};
use crate::session::{AnyBackend, Session, SessionBackend};
use std::collections::BTreeSet;
use std::path::Path;
use ws_core::confidence::approx::ApproxConfig;
use ws_core::{WorldSet, Wsd};
use ws_relational::lineage::LineageDb;
use ws_relational::{Database, Tuple, WorkerPool, WriteBackend};
use ws_storage::codec::{Reader, Writer};
use ws_storage::persist::{TAG_DATABASE, TAG_UREL, TAG_UWSDT, TAG_WORLDS, TAG_WSD};
use ws_storage::vfs::Vfs;
use ws_storage::{DurabilityStats, Durable, Persist, StorageError};
use ws_urel::UDatabase;
use ws_uwsdt::Uwsdt;

// ---------------------------------------------------------------------------
// AnyBackend is persistable: encode dispatches, decode reads the tag.
// ---------------------------------------------------------------------------

impl Persist for AnyBackend {
    fn encode_state(&self, w: &mut Writer) {
        match self {
            AnyBackend::Db(b) => b.encode_state(w),
            AnyBackend::Wsd(b) => b.encode_state(w),
            AnyBackend::Uwsdt(b) => b.encode_state(w),
            AnyBackend::Urel(b) => b.encode_state(w),
            AnyBackend::Worlds(b) => b.encode_state(w),
        }
    }

    fn decode_state(r: &mut Reader) -> ws_storage::error::Result<Self> {
        match r.peek_u8("representation tag")? {
            TAG_DATABASE => Database::decode_state(r).map(AnyBackend::Db),
            TAG_WSD => Wsd::decode_state(r).map(AnyBackend::Wsd),
            TAG_UWSDT => Uwsdt::decode_state(r).map(AnyBackend::Uwsdt),
            TAG_UREL => UDatabase::decode_state(r).map(AnyBackend::Urel),
            TAG_WORLDS => WorldSet::decode_state(r).map(AnyBackend::Worlds),
            tag => Err(StorageError::corrupt(format!(
                "snapshot holds unknown representation tag {tag}"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// A durable backend is a session backend: reads delegate, stats surface.
// ---------------------------------------------------------------------------

impl<B: SessionBackend> SessionBackend for Durable<B> {
    fn backend_name(&self) -> &'static str {
        self.inner().backend_name()
    }

    fn possible_rows(&self, out: &str) -> Result<Vec<Tuple>> {
        self.inner().possible_rows(out)
    }

    fn confidence_rows(&self, out: &str, pool: &WorkerPool) -> Result<Vec<(Tuple, f64)>> {
        self.inner().confidence_rows(out, pool)
    }

    fn confidence_rows_approx(
        &self,
        out: &str,
        config: &ApproxConfig,
        pool: &WorkerPool,
    ) -> Result<Vec<(Tuple, f64)>> {
        self.inner().confidence_rows_approx(out, config, pool)
    }

    fn durability(&self) -> Option<DurabilityStats> {
        Some(self.stats())
    }

    /// Deliberately not forwarded: durable sessions answer confidence by the
    /// backend's native exact path.  A compiled-tier confidence still
    /// executes the plan on the backend before it evaluates the lineage, so
    /// on the chased census UWSDT it would cost about as much as native
    /// exact; forward this once the compiled tier answers from the lineage
    /// alone.
    fn lineage(&self, _relations: &BTreeSet<String>) -> Option<LineageDb> {
        None
    }
}

// ---------------------------------------------------------------------------
// The session verbs of durability.
// ---------------------------------------------------------------------------

impl Session<Durable<AnyBackend>> {
    /// Initialize a store *directory* from an in-memory backend and open a
    /// durable session over it: snapshot generation 0 is written
    /// immediately, and every subsequent [`Session::apply`] is write-ahead
    /// logged before it touches the representation.
    pub fn create_durable(path: impl AsRef<Path>, backend: impl Into<AnyBackend>) -> Result<Self> {
        Ok(Session::new(Durable::create_dir(path, backend.into())?))
    }

    /// Recover a durable session from a store directory: newest valid
    /// snapshot, torn WAL tail truncated, remaining records replayed through
    /// the backend's own update verbs.
    pub fn open_durable(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Session::new(Durable::open_dir(path)?))
    }

    /// [`Session::create_durable`] on an explicit storage medium (e.g. the
    /// fault-injecting [`ws_storage::MemVfs`] of the crash-recovery tests).
    pub fn create_durable_on(vfs: Box<dyn Vfs>, backend: impl Into<AnyBackend>) -> Result<Self> {
        Ok(Session::new(Durable::create(vfs, backend.into())?))
    }

    /// [`Session::open_durable`] on an explicit storage medium.
    pub fn open_durable_on(vfs: Box<dyn Vfs>) -> Result<Self> {
        Ok(Session::new(Durable::open(vfs)?))
    }
}

impl<B> Session<Durable<B>>
where
    B: SessionBackend + WriteBackend + Persist,
    B::Error: Into<Error>,
{
    /// Checkpoint the durable backend: drop the session's materialized
    /// results, snapshot every relation the store then holds as the next
    /// generation, and truncate the WAL.  Returns the new snapshot
    /// generation.
    pub fn checkpoint(&mut self) -> Result<u64> {
        // Materialized results are derived state; a snapshot must only ever
        // hold base relations (re-execute plans after recovery instead).
        self.drop_materialized();
        Ok(self.backend_mut().checkpoint()?)
    }

    /// Tear the session down with a result: flush and fsync the WAL,
    /// surfacing I/O errors that a plain `Drop` would have to swallow.
    pub fn close(mut self) -> Result<()> {
        self.drop_materialized();
        self.into_backend().close()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::q;
    use crate::session::SessionStats;
    use crate::UpdateExpr;
    use ws_relational::Predicate;
    use ws_storage::MemVfs;

    fn boxed(vfs: &MemVfs) -> Box<dyn Vfs> {
        Box::new(vfs.clone())
    }

    #[test]
    fn durable_sessions_log_apply_and_recover() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let query = q("R").project(["S"]);

        let mut session = Session::create_durable_on(boxed(&vfs), wsd.clone()).unwrap();
        assert_eq!(session.backend().backend_name(), "wsd");
        session
            .apply(&UpdateExpr::delete("R", Predicate::eq_const("N", "Brown")))
            .unwrap();
        let stats = session.stats();
        assert_eq!((stats.updates_applied, stats.wal_records), (1, 1));
        assert!(stats.wal_bytes > 0);
        let p = session.prepare(query.clone()).unwrap();
        let live: Vec<_> = session.execute(&p).unwrap().collect();
        session.close().unwrap();

        let mut recovered = Session::open_durable_on(boxed(&vfs)).unwrap();
        let p = recovered.prepare(query).unwrap();
        let rows: Vec<_> = recovered.execute(&p).unwrap().collect();
        assert_eq!(rows, live, "recovery must reproduce the possible answers");
        assert_eq!(
            recovered.stats().wal_records,
            1,
            "the WAL tail was replayed"
        );
    }

    #[test]
    fn checkpoint_resets_wal_counters_and_survives_reopen() {
        let vfs = MemVfs::new();
        let wsd = ws_core::wsd::example_census_wsd();
        let mut session = Session::create_durable_on(boxed(&vfs), wsd).unwrap();
        session
            .apply(&UpdateExpr::insert(
                "R",
                ws_relational::Tuple::from_iter([
                    ws_relational::Value::int(7),
                    ws_relational::Value::text("Eve"),
                    ws_relational::Value::int(2),
                ]),
            ))
            .unwrap();
        // A live materialized result must not leak into the snapshot.
        let p = session.prepare(q("R")).unwrap();
        let out = session.materialize(&p).unwrap();
        assert!(out.starts_with("__"));
        assert_eq!(session.checkpoint().unwrap(), 1);
        let stats = session.stats();
        assert_eq!((stats.wal_records, stats.checkpoints), (0, 1));
        assert!(session.summary().contains("checkpoints=1"));

        let recovered = Session::open_durable_on(boxed(&vfs)).unwrap();
        let names = match recovered.backend().inner() {
            AnyBackend::Wsd(wsd) => wsd.relation_names(),
            other => panic!("expected a WSD, got {}", other.backend_name()),
        };
        assert!(
            names.iter().all(|n| !n.starts_with("__")),
            "snapshot embalmed scratch relations: {names:?}"
        );
    }

    #[test]
    fn open_durable_on_an_empty_medium_is_not_found() {
        let err = Session::open_durable_on(Box::new(MemVfs::new())).unwrap_err();
        assert!(matches!(
            err.kind(),
            crate::ErrorKind::Storage(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn default_stats_have_zero_durability_counters() {
        let stats = SessionStats::default();
        assert_eq!(
            (stats.wal_records, stats.wal_bytes, stats.checkpoints),
            (0, 0, 0)
        );
        let rendered = stats.to_string();
        assert!(rendered.contains("wal-records=0"));
        assert!(rendered.contains("checkpoints=0"));
    }
}
