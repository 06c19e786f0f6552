//! # ws-urel — U-relations, the intensional refinement of WSDs
//!
//! The paper's discussion of query evaluation (§4) notes that join
//! selections, projections and differences can force WSD components to be
//! composed, blowing the representation up exponentially in the worst case,
//! and points to **U-relations** (Antova, Jansen, Koch, Olteanu, ICDE 2008)
//! as the follow-up representation that "encodes correlations in a more
//! intensional way" and thereby keeps every positive operator purely
//! relational.
//!
//! A U-relation is a relation whose rows carry a conjunction of bindings of
//! independent finite variables — which is exactly a lineage-annotated
//! relation.  This crate therefore keeps no model of its own: a
//! [`UDatabase`] is a [`ws_relational::lineage::LineageDb`] (the world table
//! is its [`VarTable`](ws_relational::lineage::VarTable), the ws-descriptors
//! are [`Clause`](ws_relational::lineage::Clause)s), and it adds the
//! U-relational verbs on top:
//!
//! * [`convert`] — the WSD → U-relation translation (the same one the
//!   session's compiled confidence tier uses for WSDs),
//! * [`ops`] — queries: a whole plan is one call to
//!   [`evaluate_lineage`](ws_relational::lineage::evaluate_lineage),
//! * [`update`] — the update language (inserts, deletes, modifications,
//!   conditioning by world-table DNF rewriting) as the
//!   [`ws_relational::WriteBackend`] implementation, and
//! * [`confidence`] — exact confidence by
//!   [`enumerate_probability`](ws_relational::lineage::enumerate_probability)
//!   and the Monte-Carlo estimators.

pub mod confidence;
pub mod convert;
pub mod database;
pub mod error;
pub mod ops;
pub mod update;

pub use confidence::{approx_conf, conf, possible_with_confidence, possible_with_confidence_with};
pub use convert::from_wsd;
pub use database::UDatabase;
pub use error::{Result, UrelError};
