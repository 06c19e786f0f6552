//! # maybms — one fluent, prepared API over every possible-worlds backend
//!
//! This crate is the front door of the *"10^(10^6) Worlds and Beyond"*
//! reproduction, mirroring how the paper's prototype system (MayBMS) packaged
//! WSD-based incomplete-information management: the representation systems
//! are interchangeable backends behind **one query surface**.
//!
//! ## The session API
//!
//! Open a [`Session`] on any backend, build queries with [`q`], prepare once,
//! execute many, iterate the answers:
//!
//! ```
//! use maybms::{q, Session};
//! use maybms::prelude::Predicate;
//!
//! // Any of the five representations works here: an ordinary Database, a
//! // Wsd, a Uwsdt, a UDatabase (U-relations) or an explicit WorldSet.
//! let wsd = maybms::core::wsd::example_census_wsd();
//! let mut session = Session::new(wsd);
//!
//! // Fluent, typed query building; `prepare` typechecks against the
//! // session's catalog and runs the optimizer once per distinct plan.
//! let married = session
//!     .prepare(q("R").select(Predicate::eq_const("M", 1i64)).project(["S"]))?;
//!
//! // Execution copies the answer out of the backend; `Rows` iterates it.
//! let answers: Vec<_> = session.execute(&married)?.collect();
//! assert!(!answers.is_empty());
//!
//! // Tuple confidences (§6) on the same prepared plan.
//! let with_conf = session.confidence(&married)?;
//! assert_eq!(answers.len(), with_conf.len());
//!
//! // Re-preparing the same query is a plan-cache hit — no second
//! // optimizer run.
//! let again = session.prepare(q("R").select(Predicate::eq_const("M", 1i64)).project(["S"]))?;
//! assert_eq!(again.plan(), married.plan());
//! assert_eq!(session.stats().cache_hits, 1);
//! # Ok::<(), maybms::Error>(())
//! ```
//!
//! [`Session::over`] wraps a run-time-chosen backend in [`AnyBackend`];
//! [`Session::confidence_approx`] switches to (ε, δ)-approximate §6
//! confidences: the same lineage ladder, sampled instead of compiled.  Errors from every layer surface as
//! one [`Error`] carrying the plan they belong to.
//!
//! ## The representation crates
//!
//! * [`relational`] — the in-memory relational substrate (stand-in for
//!   PostgreSQL) **and the unified query engine**: the rule-based optimizer,
//!   the shared executor behind every representation, plan
//!   normalization/fingerprinting ([`mod@relational::fingerprint`]) and the
//!   columnar executor of the single-world backend
//!   ([`relational::kernels`]),
//! * [`core`] — world-set decompositions: representation, relational algebra,
//!   normalization, confidence computation and the chase,
//! * [`uwsdt`] — the uniform, RDBMS-friendly representation used at scale,
//! * [`urel`] — U-relations, the intensional (blow-up-free) refinement the
//!   paper points to for join-heavy workloads,
//! * [`storage`] — durability: a hand-rolled binary codec for every
//!   representation, atomic snapshots and the update-language write-ahead
//!   log behind [`Session::open_durable`] / [`Session::checkpoint`] (see
//!   the [`durable`] module),
//! * [`census`] — the synthetic IPUMS-like evaluation workload,
//! * [`apps`] — the §10 application scenarios (minimal repairs / consistent
//!   query answering, linked medical data), and
//! * [`baselines`] — or-sets, tuple-independent probabilistic databases,
//!   ULDB-style x-relations and the explicit world-enumeration oracle.
//!
//! ## Under the hood
//!
//! Sessions drive the `optimize → execute` pipeline (§5 of the paper) of
//! [`relational::engine`]; a confidence on a world-set backend is read from
//! the plan's lineage instead (see [`mod@lineage`]).  The single-world
//! executor evaluates whole plans column-at-a-time with selection vectors,
//! serially and in a deterministic row order, so prepared re-execution is
//! bit-identical.  The NP-hard §6 confidence computation additionally has
//! one (ε, δ)-approximate Monte-Carlo estimator over lineage
//! ([`relational::approx`]), driven by [`prelude::ApproxConfig`].
//!
//! The repository-level `examples/` and `tests/` directories are compiled as
//! part of this crate; see the README for a guided tour and the old-API →
//! new-API migration table.

pub mod builder;
pub mod durable;
pub mod error;
pub mod lineage;
pub mod session;

pub use builder::{q, typecheck, typecheck_update, IntoQuery, Query};
pub use error::{Error, ErrorKind, Result};
pub use session::{
    AnyBackend, Prepared, QueryProfile, Rows, Session, SessionBackend, SessionStats,
};
pub use ws_core::ops::update::{apply_update, UpdateExpr};
pub use ws_storage::{DurabilityStats, Durable, Persist, StorageError};

pub use ws_apps as apps;
pub use ws_baselines as baselines;
pub use ws_census as census;
pub use ws_core as core;
pub use ws_obs as obs;
pub use ws_relational as relational;
pub use ws_storage as storage;
pub use ws_urel as urel;
pub use ws_uwsdt as uwsdt;

/// One-stop prelude for examples and downstream users.
pub mod prelude {
    pub use crate::builder::{q, typecheck, typecheck_update, IntoQuery, Query};
    pub use crate::error::{Error, ErrorKind};
    pub use crate::session::{
        AnyBackend, Prepared, QueryProfile, Rows, Session, SessionBackend, SessionStats,
    };
    pub use ws_apps::{
        consistent_answers, possible_answers, repair_key_violations, MedicalScenario,
        PatientRecord, RepairReport,
    };
    pub use ws_baselines::{
        OrSet, OrSetRelation, TupleIndependentDb, TupleIndependentRelation, UldbRelation, XTuple,
    };
    pub use ws_census::CensusScenario;
    pub use ws_core::{
        chase::{
            chase, AttrComparison, Dependency, EqualityGeneratingDependency, FunctionalDependency,
        },
        conditional::{conditional_conf, joint_probability, satisfaction_probability},
        confidence::{conf, possible, possible_with_confidence, TupleLevelView},
        interval::{IntervalView, ProbInterval},
        normalize::normalize,
        ops::update::{apply_update, UpdateExpr},
        Component, FieldId, LocalWorld, TupleId, WorldSet, WorldSetRelation, WsError, Wsd, Wsdt,
    };
    pub use ws_obs::{
        HistogramSummary, LineSink, MetricsRegistry, MetricsSnapshot, NullSink, Observer,
        ProfileNode, RingSink, TraceEvent, TraceSink,
    };
    pub use ws_relational::{
        engine, evaluate_query, hoeffding_samples, world_satisfies, ApproxConfig, Clause, CmpOp,
        Database, DtreeCompiler, ExecContext, LineageDb, LineageRelation, Predicate, QueryBackend,
        RaExpr, Relation, Schema, SchemaCatalog, Tuple, Value, VarTable, WriteBackend,
    };
    pub use ws_storage::{
        DirVfs, DurabilityStats, Durable, DurableError, MemVfs, Persist, StorageError, Vfs,
    };
    pub use ws_urel::UDatabase;
    pub use ws_uwsdt::{
        from_or_relation, from_wsd, from_wsdt, stats_for, OrField, Uwsdt, UwsdtError, UwsdtStats,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired_up() {
        let wsd = crate::core::wsd::example_census_wsd();
        assert_eq!(wsd.world_count(), 24);
        assert_eq!(crate::census::ATTRIBUTE_COUNT, 50);
        let db = crate::baselines::figure6_database();
        assert_eq!(db.world_count(), 8);
        let uwsdt = crate::uwsdt::from_wsd(&wsd).unwrap();
        assert_eq!(uwsdt.world_count(), 24);
    }

    #[test]
    fn every_backend_opens_a_session() {
        use crate::{q, Session};
        let wsd = crate::core::wsd::example_census_wsd();
        let query = q("R").project(["S"]);
        let mut expected: Option<Vec<crate::prelude::Tuple>> = None;
        let backends: Vec<crate::AnyBackend> = vec![
            wsd.enumerate_worlds(1 << 20).unwrap()[0].0.clone().into(),
            wsd.clone().into(),
            crate::uwsdt::from_wsd(&wsd).unwrap().into(),
            crate::urel::from_wsd(&wsd).unwrap().into(),
            wsd.rep().unwrap().into(),
        ];
        for backend in backends {
            let single_world = matches!(backend, crate::AnyBackend::Db(_));
            let mut session = Session::over(backend);
            let prepared = session.prepare(query.clone()).unwrap();
            let mut rows: Vec<_> = session.execute(&prepared).unwrap().collect();
            rows.sort();
            if single_world {
                // One world sees a subset of the possible answers.
                assert!(!rows.is_empty());
            } else {
                match &expected {
                    None => expected = Some(rows),
                    Some(e) => assert_eq!(e, &rows, "backends disagree on π_S(R)"),
                }
            }
        }
    }
}
