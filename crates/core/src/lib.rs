//! # ws-core — world-set decompositions
//!
//! This crate implements the primary contribution of *"10^(10^6) Worlds and
//! Beyond: Efficient Representation and Processing of Incomplete
//! Information"* (Antova, Koch, Olteanu): **world-set decompositions**
//! (WSDs), a space-efficient and complete representation system for finite
//! sets of possible worlds, together with
//!
//! * the explicit [`worldset`] semantics (world-set relations, `inline` /
//!   `inline⁻¹`),
//! * relational algebra evaluated directly on WSDs ([`ops`], §4) — the
//!   physical operators of Figure 9, driven by the unified
//!   `optimize → execute` pipeline of `ws_relational::engine` (open a
//!   `maybms::Session` on the WSD, or call
//!   `ws_relational::engine::evaluate_query` directly),
//! * confidence computation and the `possible` operator ([`confidence`], §6),
//! * normalization: invalid-tuple removal, compression and relational
//!   factorization ([`normalize`], §7),
//! * the chase for functional and equality-generating dependencies
//!   ([`chase`], §8), and
//! * template relations ([`wsdt`]), the stepping stone to the uniform
//!   UWSDT representation implemented in the companion crate `ws-uwsdt`.
//!
//! ## Quick example
//!
//! ```
//! use ws_relational::{Predicate, RaExpr, Tuple, Value};
//!
//! // The running census example of the paper (Figure 4).
//! let mut wsd = ws_core::wsd::example_census_wsd();
//! assert_eq!(wsd.world_count(), 24);
//!
//! // Evaluate π_S(σ_{M=1}(R)) on all worlds at once.
//! let query = RaExpr::rel("R")
//!     .select(Predicate::eq_const("M", 1i64))
//!     .project(vec!["S"]);
//! ws_relational::engine::evaluate_query(&mut wsd, &query, "Q").unwrap();
//!
//! // Confidence of the answer tuple (185).
//! let c = ws_core::confidence::conf(&wsd, "Q", &Tuple::from_iter([Value::int(185)])).unwrap();
//! assert!(c > 0.0 && c < 1.0);
//! ```

pub mod chase;
pub mod component;
pub mod conditional;
pub mod confidence;
pub mod error;
pub mod field;
pub mod interval;
pub mod normalize;
pub mod ops;
pub mod worldset;
pub mod wsd;
pub mod wsdt;

pub use chase::{AttrComparison, Dependency, EqualityGeneratingDependency, FunctionalDependency};
pub use component::{Component, LocalWorld};
pub use conditional::{
    conditional_conf, conditional_query_conf, joint_probability, satisfaction_probability,
};
pub use confidence::TupleLevelView;
pub use error::{Result, WsError};
pub use field::{FieldId, TupleId};
pub use interval::{IntervalView, ProbInterval};
pub use ops::update::{apply_update, UpdateExpr};
pub use worldset::{WorldSet, WorldSetRelation};
pub use wsd::{RelationMeta, Wsd};
pub use wsdt::Wsdt;

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::chase::{
        chase, AttrComparison, Dependency, EqualityGeneratingDependency, FunctionalDependency,
    };
    pub use crate::component::{Component, LocalWorld};
    pub use crate::conditional::{
        conditional_conf, conditional_query_conf, joint_probability, satisfaction_probability,
    };
    pub use crate::confidence::{conf, possible, possible_with_confidence, TupleLevelView};
    pub use crate::error::{Result, WsError};
    pub use crate::field::{FieldId, TupleId};
    pub use crate::interval::{conf_bounds, IntervalView, ProbInterval};
    pub use crate::normalize::normalize;
    pub use crate::ops;
    pub use crate::ops::update::{apply_update, UpdateExpr};
    pub use crate::worldset::{WorldSet, WorldSetRelation};
    pub use crate::wsd::Wsd;
    pub use crate::wsdt::Wsdt;
}
