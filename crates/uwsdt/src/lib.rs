//! # ws-uwsdt — uniform world-set decompositions with template relations
//!
//! UWSDTs (§3/§5 of the paper) store a world-set in a form a conventional
//! RDBMS can hold: fixed-schema component relations
//! `C[FID,LWID,VAL]`, `F[FID,CID]`, `W[CID,LWID,PR]` plus one template
//! relation per represented relation.  The template carries everything that
//! is certain; placeholders (`?`) mark the few fields on which the worlds
//! disagree.  This is the representation the paper's MayBMS prototype uses on
//! top of PostgreSQL and the one all large-scale experiments (§9) run on; in
//! this reproduction the substrate is the in-memory engine of
//! `ws-relational`.
//!
//! The crate provides
//!
//! * the [`model::Uwsdt`] store with component composition, local-world
//!   removal and world enumeration,
//! * loaders from "dirty" or-relations and from WSD/WSDTs ([`build`]),
//! * relational algebra with single-world-like cost on the templates
//!   ([`ops`], [`query`]),
//! * the update language (inserts, deletes, modifications, conditioning) as
//!   the [`ws_relational::WriteBackend`] implementation ([`update`]),
//! * the chase for data cleaning ([`chase`]), and
//! * the representation statistics reported in the paper's evaluation
//!   ([`stats`]).

pub mod build;
pub mod chase;
pub mod confidence;
pub mod error;
pub mod model;
pub mod normalize;
pub mod ops;
pub mod query;
pub mod stats;
pub mod update;

pub use build::{from_or_relation, from_wsd, from_wsdt, OrField};
pub use confidence::{conf, possible_with_confidence};
pub use error::{Result, UwsdtError};
pub use model::{Cid, Lwid, PresenceCondition, Uwsdt, UwsdtSnapshot, WorldEntry};
pub use normalize::{normalize, NormalizationReport};
pub use stats::{component_size_histogram, stats_for, UwsdtStats};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::build::{from_or_relation, from_wsd, from_wsdt, OrField};
    pub use crate::chase::{chase, chase_egd, chase_fd};
    pub use crate::confidence::{conf, possible_with_confidence};
    pub use crate::error::{Result, UwsdtError};
    pub use crate::model::{Cid, Lwid, PresenceCondition, Uwsdt, WorldEntry};
    pub use crate::normalize::{normalize, NormalizationReport};
    pub use crate::ops;
    pub use crate::stats::{
        bucketed_histogram, component_size_histogram, stats_all, stats_for, UwsdtStats,
    };
}
