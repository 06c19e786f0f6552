//! Boolean provenance (lineage) over finite-domain world variables, and the
//! exact confidence evaluators built on it.
//!
//! Confidence computation is the paper's #P-hard hot path: the probability
//! that a query answer holds is the probability of its *lineage* — the
//! boolean provenance expression describing which combinations of
//! uncertainty choices derive the tuple.  This module makes that lineage a
//! first-class engine object, independent of which possible-worlds
//! representation produced it:
//!
//! * [`model`] — the vocabulary: finite-domain world [`model::Var`]iables
//!   with probability distributions ([`model::VarTable`]), conjunctive
//!   [`model::Clause`]s (partial variable assignments, e.g. WSD local-world
//!   choices), DNFs, and lineage-annotated relations
//!   ([`model::LineageDb`]).  This is the U-relational model: `ws_urel`
//!   stores its databases in these types.
//! * [`eval`] — the annotated executor: evaluates any positive
//!   [`RaExpr`](crate::RaExpr) plan over a [`model::LineageDb`], propagating
//!   one clause per derivation (products conjoin, inconsistent derivations
//!   drop out) and returning each output tuple's full DNF.  It is the query
//!   executor of U-relations.
//! * [`dtree`] — the Shannon-expansion d-tree compiler: cofactor a DNF on
//!   its most-shared variable, recurse, memoize shared cofactors, and split
//!   independent components, under an explicit node budget.  The component
//!   split compiles read-once lineage — which every hierarchical (safe)
//!   query has (Dalvi–Suciu) — in one pass, so no separate extensional
//!   evaluator is needed.
//! * [`enumerate`] — brute-force exact probability over the joint
//!   assignments of a DNF's variables: U-relations' exact confidence, and
//!   the oracle the test suites pin the other evaluators to.
//!
//! The session layer (`maybms::Session::confidence`) extracts a
//! [`model::LineageDb`] view of each backend's base relations and answers
//! from [`eval`] + [`dtree`] (the compiled tier), falling back to the
//! backend's native exact enumeration when no lineage applies.

pub mod dtree;
pub mod enumerate;
pub mod eval;
pub mod model;

pub use dtree::{DtreeBudget, DtreeCompiler};
pub use enumerate::enumerate_probability;
pub use eval::{evaluate_lineage, LineageOutput};
pub use model::{Clause, Dnf, LineageDb, LineageRelation, Var, VarTable};
