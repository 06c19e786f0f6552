//! # ws-urel — U-relations, the intensional refinement of WSDs
//!
//! The paper's discussion of query evaluation (§4) notes that join
//! selections, projections and differences can force WSD components to be
//! composed, blowing the representation up exponentially in the worst case,
//! and points to **U-relations** (Antova, Jansen, Koch, Olteanu, ICDE 2008)
//! as the follow-up representation that "encodes correlations in a more
//! intensional way" and thereby keeps every positive operator purely
//! relational.  This crate implements that representation as an extension of
//! the reproduction:
//!
//! * a [`world::WorldTable`] of independent finite variables (one per
//!   uncertain WSD component),
//! * [`descriptor::WsDescriptor`]s — partial variable assignments annotating
//!   tuples with the worlds they belong to,
//! * [`urelation::URelation`] / [`database::UDatabase`] — annotated relations
//!   and their catalog,
//! * [`convert::from_wsd`] — the WSD → U-relation translation,
//! * [`ops`] — positive relational algebra (selection, projection, product /
//!   θ-join, union, renaming) with pairwise descriptor conjunction,
//! * [`update`] — the update language (inserts, deletes, modifications,
//!   conditioning by world-table DNF rewriting) as the
//!   [`ws_relational::WriteBackend`] implementation, and
//! * [`confidence`] — exact and Monte-Carlo confidence computation.

pub mod confidence;
pub mod convert;
pub mod database;
pub mod descriptor;
pub mod error;
pub mod ops;
pub mod update;
pub mod urelation;
pub mod world;

pub use confidence::{
    approx_conf, conf, expected_cardinality, is_certain, possible_with_confidence,
    possible_with_confidence_with,
};
pub use convert::from_wsd;
pub use database::UDatabase;
pub use descriptor::WsDescriptor;
pub use error::{Result, UrelError};
pub use ops::possible_answer;
pub use urelation::URelation;
pub use world::{Assignment, WorldTable};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::confidence::{
        approx_conf, conf, expected_cardinality, is_certain, possible_with_confidence,
    };
    pub use crate::convert::from_wsd;
    pub use crate::database::UDatabase;
    pub use crate::descriptor::WsDescriptor;
    pub use crate::error::{Result, UrelError};
    pub use crate::ops::{possible_answer, possible_tuples};
    pub use crate::urelation::URelation;
    pub use crate::world::{Assignment, WorldTable};
}
