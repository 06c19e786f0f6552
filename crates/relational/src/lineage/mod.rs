//! Boolean provenance (lineage) over finite-domain world variables, and the
//! tiered confidence evaluators built on it.
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
//! * [`safe`] — the extensional (safe-plan) evaluator: a hierarchical-plan
//!   test over the normalized fingerprint form plus an exact
//!   independent-AND / disjoint-OR evaluation that pushes the probability
//!   aggregation into the plan itself; it either returns the exact answer
//!   or declines — it never approximates.
//! * [`dtree`] — the Shannon-expansion d-tree compiler for unsafe plans:
//!   cofactor a DNF on its most-shared variable, recurse, memoize shared
//!   cofactors, and split independent components, under an explicit node
//!   budget.
//! * [`enumerate`] — brute-force exact probability over the joint
//!   assignments of a DNF's variables: U-relations' exact confidence, and
//!   the oracle the test suites pin the other evaluators to.
//!
//! The session layer (`maybms::Session::confidence`) extracts a
//! [`model::LineageDb`] view of each backend's base relations and picks the
//! cheapest tier that is exact for the prepared plan: safe plan →
//! compiled d-tree → the backend's native exact enumeration.

pub mod dtree;
pub mod enumerate;
pub mod eval;
pub mod model;
pub mod safe;

pub use dtree::{DtreeBudget, DtreeCompiler};
pub use enumerate::enumerate_probability;
pub use eval::{evaluate_lineage, LineageOutput};
pub use model::{Clause, Dnf, LineageDb, LineageRelation, Var, VarTable};
pub use safe::{is_safe_shape, safe_probabilities};
