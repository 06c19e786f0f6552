//! Relational algebra on world-set decompositions (§4, Figure 9).
//!
//! Every operation takes the WSD by mutable reference, evaluates the
//! operation *conceptually in every world*, and extends the WSD with a new
//! result relation; the input relations remain represented so that correlated
//! sub-query results stay correlated (the `σ_{A=1}(R) ∪ σ_{B=2}(R)` example of
//! §4).  The operators never need to look at probabilities except where
//! components are composed, in which case the composed probabilities are the
//! products of the inputs' (Remark 2).

mod copy;
mod difference;
mod product;
mod project;
mod query;
mod rename;
mod select;
mod union;
pub mod update;

pub use copy::copy;
pub use difference::difference;
pub use product::product;
pub use project::project;
pub use rename::rename;
pub use select::{select_attr, select_const};
pub use union::union;
pub use update::{apply_update, UpdateExpr};

#[cfg(test)]
mod tests;
