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
//!   [`approx`], the one Monte-Carlo estimator: a DNF sampler with its
//!   Hoeffding (ε, δ) sample planner.
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
pub mod kernels;
pub mod lineage;
pub mod optimizer;
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
pub use engine::{evaluate_query, ExecContext, QueryBackend, SchemaCatalog, WriteBackend};
pub use error::{RelationalError, Result};
pub use fingerprint::{fingerprint, normalize_plan, normalize_predicate, plan_key};
pub use lineage::{Clause, DtreeCompiler, LineageDb, LineageRelation, VarTable};
pub use optimizer::{optimize, output_attrs};
pub use predicate::{CmpOp, CompiledPredicate, Predicate};
pub use relation::Relation;
pub use schema::{AttrName, RelName, Schema};
pub use tuple::Tuple;
pub use value::Value;
