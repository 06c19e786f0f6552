//! The read view a connection's session runs over: one pinned store image,
//! shared in place.
//!
//! A published [`StoreSnapshot`] is immutable and `Arc`-shared, and most
//! reads never write into a backend: a positive plan on a world-set
//! backend is answered from the session's lineage memo, which reads the
//! image through `&self`.  So [`Pinned<B>`] reads the pinned image in
//! place, and a re-pin is one `Arc::clone`.  The reads that must build a
//! scratch result inside the backend — a plan with a difference, any
//! backend-run read on a single-world `Database`, a backend that declines
//! lineage — go through [`Arc::make_mut`]: the first such read copies the
//! image once for this view (the copy carries no lifetime guard), and the
//! shared image is never written.

use std::collections::BTreeSet;
use std::sync::Arc;

use maybms::{DurabilityStats, SessionBackend};
use ws_relational::lineage::LineageDb;
use ws_relational::{QueryBackend, RaExpr, Schema, SchemaCatalog, Tuple};

use crate::store::StoreSnapshot;

/// A session backend over one pinned [`StoreSnapshot`]: reads delegate to
/// the shared image, and the first write of a scratch result copies it
/// (counted as `server.snapshot.copies` when the store is observed).
#[derive(Debug)]
pub struct Pinned<B> {
    snapshot: Arc<StoreSnapshot<B>>,
}

impl<B> From<Arc<StoreSnapshot<B>>> for Pinned<B> {
    fn from(snapshot: Arc<StoreSnapshot<B>>) -> Self {
        Pinned { snapshot }
    }
}

impl<B> Pinned<B> {
    /// The image this view reads: the pinned snapshot itself until the
    /// first scratch result copied it, this view's private copy after.
    pub fn snapshot(&self) -> &Arc<StoreSnapshot<B>> {
        &self.snapshot
    }
}

impl<B: Clone> Pinned<B> {
    /// The backend to build a scratch result in: the pinned image while
    /// this view holds the only reference to it, a private copy otherwise.
    fn image_mut(&mut self) -> &mut B {
        let shared = Arc::as_ptr(&self.snapshot);
        // Taken before `make_mut`: a copy carries no observer.
        let observer = self.snapshot.observer().cloned();
        let image = Arc::make_mut(&mut self.snapshot);
        if !std::ptr::eq(shared, image) {
            if let Some(observer) = observer {
                observer.metrics().counter("server.snapshot.copies").inc();
            }
        }
        &mut image.backend
    }
}

impl<B: SchemaCatalog> SchemaCatalog for Pinned<B> {
    fn schema_of(&self, relation: &str) -> ws_relational::Result<Schema> {
        self.snapshot.backend.schema_of(relation)
    }

    fn contains_relation(&self, relation: &str) -> bool {
        self.snapshot.backend.contains_relation(relation)
    }
}

impl<B: QueryBackend + Clone> QueryBackend for Pinned<B> {
    type Error = B::Error;

    fn execute_plan(&mut self, plan: &RaExpr, out: &str) -> Result<(), Self::Error> {
        self.image_mut().execute_plan(plan, out)
    }

    fn drop_scratch(&mut self, name: &str) {
        self.image_mut().drop_scratch(name);
    }
}

impl<B: SessionBackend + Clone> SessionBackend for Pinned<B> {
    fn backend_name(&self) -> &'static str {
        self.snapshot.backend.backend_name()
    }

    fn possible_rows(&self, out: &str) -> maybms::Result<Vec<Tuple>> {
        self.snapshot.backend.possible_rows(out)
    }

    fn confidence_rows(&self, out: &str) -> maybms::Result<Vec<(Tuple, f64)>> {
        self.snapshot.backend.confidence_rows(out)
    }

    fn durability(&self) -> Option<DurabilityStats> {
        self.snapshot.backend.durability()
    }

    fn lineage(&self, relations: &BTreeSet<String>) -> Option<LineageDb> {
        self.snapshot.backend.lineage(relations)
    }
}
