//! # ws-baselines — the representation systems the paper compares against
//!
//! * [`orset`] — or-set relations \[21\]: the incomplete-information format the
//!   introduction starts from; expressive enough for dirty input data but not
//!   closed under queries or cleaning.
//! * [`tuple_independent`] — tuple-independent probabilistic databases
//!   (Dalvi & Suciu \[15\]), which probabilistic WSDs strictly generalize
//!   (Example 5 / Figure 7).
//! * [`uldb`] — ULDB-style x-relations (tuples with alternatives, \[11\]/\[28\]),
//!   used to reproduce the representation-size comparison of the related-work
//!   discussion (or-set relations are linear as WSDs, exponential as
//!   x-relations).
//! * [`explicit`] — the explicit world-enumeration engine: the naive
//!   baseline and the correctness oracle used throughout the test suite.

pub mod explicit;
pub mod orset;
pub mod tuple_independent;
pub mod uldb;

pub use explicit::{chase_worlds, confidence, possible_tuples, query_distribution, query_worlds};
pub use orset::{tightest_orset_cover, OrSet, OrSetRelation};
pub use tuple_independent::{figure6_database, TupleIndependentDb, TupleIndependentRelation};
pub use uldb::{UldbRelation, XTuple};
