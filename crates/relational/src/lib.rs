//! # ws-relational — in-memory relational engine substrate
//!
//! The paper's prototype (MayBMS) is implemented as a layer on top of
//! PostgreSQL.  This crate is the from-scratch substitute for that substrate:
//! a small but complete in-memory relational engine providing
//!
//! * typed [`Value`]s (including the special `⊥` and `?` markers used by
//!   world-set decompositions and template relations),
//! * named [`Schema`]s and [`Relation`]s with both set and bag semantics,
//! * boolean [`Predicate`]s over tuples,
//! * a relational-algebra AST ([`RaExpr`]) with the named-perspective
//!   operators used in the paper (selection, projection, product, union,
//!   difference, renaming) and a straightforward single-world evaluator,
//! * hash [`Index`]es used by the higher layers for join and chase
//!   acceleration,
//! * a [`Database`] catalog mapping relation names to relations, and
//! * the **unified query engine** ([`engine`]): the catalog-generic
//!   rule-based [`optimizer`] and the [`QueryBackend`] trait whose one
//!   method, [`QueryBackend::execute_plan`], every possible-worlds
//!   representation of this repository (single-world, WSD, UWSDT,
//!   U-relations, explicit worlds) evaluates queries through; the two
//!   decompositions (WSD, UWSDT) implement it with the shared operator
//!   walker ([`engine::walk`] over [`engine::Operators`]), U-relations with
//!   the lineage evaluator, and
//! * the **vectorized columnar executor** ([`batch`], [`kernels`]): the one
//!   executor of the single-world [`Database`] backend.  Whole plans
//!   evaluate batch-at-a-time over flat `i64` / dictionary-encoded columns
//!   with selection vectors, and
//! * the **lineage layer** ([`lineage`]): boolean provenance over
//!   finite-domain world variables with an annotated executor and a
//!   Shannon-expansion d-tree compiler — the engine-side half of
//!   `Session::confidence`'s compiled tier — plus
//!   the shared Hoeffding (ε, δ) sample planner ([`approx`]) every
//!   Monte-Carlo confidence estimator draws its trial blocks from, and
//! * the deterministic fan-out/fan-in [`par::WorkerPool`] behind
//!   [`engine::EngineConfig::threads`]: the columnar kernels hand out row
//!   morsels across cores with output canonicalized to the serial order for
//!   any thread count.
//!
//! Everything in the world-set stack (`ws-core`, `ws-uwsdt`, `ws-census`,
//! `ws-baselines`) is built on top of these types; the single-world evaluator
//! in [`algebra`] doubles as the "0% density / one world" baseline of the
//! paper's Figure 30.

pub mod algebra;
pub mod approx;
pub mod batch;
pub mod constraint;
pub mod database;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod index;
pub mod kernels;
pub mod lineage;
pub mod optimizer;
pub mod par;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use algebra::{evaluate, evaluate_checked, evaluate_set, RaExpr};
pub use approx::{hoeffding_samples, ApproxConfig};
pub use batch::{Column, ColumnBatch};
pub use constraint::{
    world_satisfies, AttrComparison, Dependency, EqualityGeneratingDependency, FunctionalDependency,
};
pub use database::Database;
pub use engine::{
    evaluate_query, evaluate_query_with, execute, EngineConfig, ExecContext, QueryBackend,
    SchemaCatalog, TempNames, WriteBackend,
};
pub use error::{RelationalError, Result};
pub use fingerprint::{fingerprint, normalize_plan, normalize_predicate, plan_key};
pub use index::Index;
pub use lineage::{Clause, DtreeCompiler, LineageDb, LineageRelation, VarTable};
pub use optimizer::{estimated_cost, estimated_rows, evaluate_optimized, optimize, output_attrs};
pub use par::WorkerPool;
pub use predicate::{CmpOp, CompiledPredicate, Predicate};
pub use relation::Relation;
pub use schema::{AttrName, RelName, Schema};
pub use tuple::Tuple;
pub use value::Value;
