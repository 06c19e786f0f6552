//! The concurrent store: MVCC-style snapshot reads over a single durable
//! writer, with group commit.
//!
//! A [`ConcurrentStore<B>`] wraps one [`Durable<B>`] store behind two access
//! paths with very different contention profiles:
//!
//! * **Readers** call [`ConcurrentStore::snapshot`] and get an
//!   `Arc<StoreSnapshot<B>>` — an immutable, reference-counted image of the
//!   backend as of some committed update sequence number.  Pinning is one
//!   mutex-protected `Arc::clone`; after that the reader takes no lock
//!   again.  Every reader of one image reads it in place through a
//!   [`Pinned`](crate::Pinned) view, and a reader that must build a scratch
//!   result copies the image for itself first, so the shared image is never
//!   written and query work scales with reader threads.  An old generation
//!   stays alive exactly as long as some reader pins it: when the last
//!   `Arc` drops, the image is reclaimed.  Readers are never blocked by
//!   writers and never observe a half-applied batch.
//! * **Writers** call [`ConcurrentStore::update`], which enqueues the
//!   [`UpdateExpr`] to a single *committer thread* owning the `Durable<B>`.
//!   Under [`SyncPolicy::GroupCommit`] the committer coalesces every update
//!   waiting in the queue (up to `max_batch`, waiting at most `max_wait` for
//!   stragglers) into **one** WAL batch frame and **one** fsync, applies
//!   them in arrival order, then publishes the next snapshot atomically and
//!   wakes each caller with its own outcome.  A deterministic failure (a
//!   conditioning step that empties the world set) is an *outcome* delivered
//!   to that one caller; the rest of the batch commits normally.
//!
//! The commit point is the WAL append: a crash mid-batch tears the single
//! CRC-framed batch record, recovery drops it whole, and the store reopens
//! at the previous batch boundary — there is no state in which a reader (or
//! recovery) sees a strict subset of a batch.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ws_core::ops::update::UpdateExpr;
use ws_obs::Observer;
use ws_relational::WriteBackend;
use ws_storage::{DurabilityStats, Durable, DurableError, Persist, StorageError, SyncPolicy, Vfs};

/// How long a caller waits on the committer before diagnosing a stall.
///
/// The committer answers every ticket, including on failure; this bound only
/// exists so a committer *panic* (a bug, not an I/O condition) surfaces as an
/// error instead of a deadlock.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Lock `mutex`, recovering the guard if a thread panicked while holding
/// it.  Every mutex this is used on guards a value that is only ever
/// replaced whole — the published snapshot, a slot's answer, the
/// committer's sender and join handle — so a panic cannot leave it
/// half-written, and one panicking thread must not take every later reader
/// and writer down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One immutable image of the backend, pinned by any number of readers.
///
/// Readers share one image in place ([`Pinned`](crate::Pinned)).  Cloning a
/// snapshot copies the whole backend into an image of its own, which
/// measures no lifetime: a view clones only to build a scratch result.
#[derive(Debug)]
pub struct StoreSnapshot<B> {
    /// The backend state at this point of the commit sequence.
    pub backend: B,
    /// How many updates (in WAL order, failures included) precede this image.
    pub seq: u64,
    /// The durable checkpoint generation backing this image.
    pub generation: u64,
    /// Measures how long this image stays alive (publish to last-pin drop)
    /// into `store.snapshot.lifetime_ns`, when the store is observed: a
    /// server connection holds its pin until it re-pins.  Also where a
    /// [`Pinned`](crate::Pinned) view finds the observer to count its copy.
    pin: Option<PinGuard>,
}

impl<B: Clone> Clone for StoreSnapshot<B> {
    fn clone(&self) -> Self {
        StoreSnapshot {
            backend: self.backend.clone(),
            seq: self.seq,
            generation: self.generation,
            pin: None,
        }
    }
}

impl<B> StoreSnapshot<B> {
    /// The observability domain of the store that published this image;
    /// `None` for an unobserved store and for a copy.
    pub(crate) fn observer(&self) -> Option<&Arc<Observer>> {
        self.pin.as_ref().map(|pin| &pin.observer)
    }
}

/// Records the owning snapshot's lifetime on drop — i.e. when the *last*
/// `Arc` pinning the image (the published slot or a reader) lets go.
struct PinGuard {
    observer: Arc<Observer>,
    born: Instant,
}

impl std::fmt::Debug for PinGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinGuard")
            .field("born", &self.born)
            .finish()
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.observer
            .metrics()
            .histogram("store.snapshot.lifetime_ns")
            .record_duration(self.born.elapsed());
    }
}

fn pin_guard(observer: &Option<Arc<Observer>>) -> Option<PinGuard> {
    observer.as_ref().map(|observer| PinGuard {
        observer: Arc::clone(observer),
        born: Instant::now(),
    })
}

/// Counters of the concurrent store, all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Snapshots handed to readers.
    pub snapshots_pinned: u64,
    /// Commit batches the committer flushed (one fsync each, except under
    /// [`SyncPolicy::OnCheckpoint`]).
    pub commit_batches: u64,
    /// Updates carried by those batches.
    pub batched_updates: u64,
}

impl StoreStats {
    /// Mean updates per commit batch (0 before the first batch).
    pub fn mean_batch(&self) -> f64 {
        if self.commit_batches == 0 {
            0.0
        } else {
            self.batched_updates as f64 / self.commit_batches as f64
        }
    }
}

/// A one-shot rendezvous: the committer fills it, the submitting caller
/// blocks until it is filled.
struct Slot<T> {
    value: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            value: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, v: T) {
        let mut slot = lock(&self.value);
        *slot = Some(v);
        self.ready.notify_all();
    }

    fn wait(&self) -> Option<T> {
        let deadline = Instant::now() + STALL_TIMEOUT;
        let mut slot = lock(&self.value);
        loop {
            if let Some(v) = slot.take() {
                return Some(v);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let (next, _) = self
                .ready
                .wait_timeout(slot, left)
                .unwrap_or_else(PoisonError::into_inner);
            slot = next;
        }
    }
}

/// What a writer outcome looks like: the probability mass the update
/// reported, or whichever layer rejected it.
pub type UpdateOutcome<E> = Result<f64, DurableError<E>>;

enum Command<B: WriteBackend> {
    Update(UpdateExpr, Arc<Slot<UpdateOutcome<B::Error>>>),
    Checkpoint(Arc<Slot<Result<u64, StorageError>>>),
    Shutdown(Arc<Slot<Result<DurabilityStats, StorageError>>>),
}

struct Shared<B> {
    published: Mutex<Arc<StoreSnapshot<B>>>,
    snapshots_pinned: AtomicU64,
    commit_batches: AtomicU64,
    batched_updates: AtomicU64,
    /// The committed update sequence, in WAL order, kept only when history
    /// recording is on (the concurrent differential oracle replays it).  A
    /// panic while extending it may leave a partial batch, so a poisoned
    /// history is reported, never read.
    history: Mutex<Vec<UpdateExpr>>,
    record_history: bool,
    /// The observability domain the committer and snapshot pins report into.
    observer: Option<Arc<Observer>>,
}

/// A cloneable handle to one durable store shared by many sessions.
///
/// All clones address the same store; [`ConcurrentStore::close`] (on any
/// clone) stops the committer, after which the remaining clones' writes fail
/// with a *service stopped* error while their pinned snapshots stay valid.
pub struct ConcurrentStore<B: WriteBackend> {
    shared: Arc<Shared<B>>,
    tx: Arc<Mutex<Option<Sender<Command<B>>>>>,
    committer: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl<B: WriteBackend> Clone for ConcurrentStore<B> {
    fn clone(&self) -> Self {
        ConcurrentStore {
            shared: Arc::clone(&self.shared),
            tx: Arc::clone(&self.tx),
            committer: Arc::clone(&self.committer),
        }
    }
}

impl<B: WriteBackend> std::fmt::Debug for ConcurrentStore<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentStore")
            .field("seq", &lock(&self.shared.published).seq)
            .field(
                "commit_batches",
                &self.shared.commit_batches.load(Ordering::Relaxed),
            )
            .finish()
    }
}

fn stopped<T>() -> Result<T, StorageError> {
    Err(StorageError::io(
        "the service committer has stopped; no further writes are possible",
    ))
}

impl<B> ConcurrentStore<B>
where
    B: Persist + WriteBackend + Clone + Send + Sync + 'static,
    B::Error: Send,
{
    /// Initialize a fresh store on `vfs` and start the committer.
    pub fn create(vfs: Box<dyn Vfs>, backend: B, policy: SyncPolicy) -> Result<Self, StorageError> {
        let mut durable = Durable::create(vfs, backend)?;
        durable.set_sync_policy(policy);
        Self::start(durable, false)
    }

    /// [`ConcurrentStore::create`] with an observability domain attached:
    /// the WAL, the committer and snapshot pins record into `observer`.
    pub fn create_observed(
        vfs: Box<dyn Vfs>,
        backend: B,
        policy: SyncPolicy,
        observer: Arc<Observer>,
    ) -> Result<Self, StorageError> {
        let mut durable = Durable::create(vfs, backend)?;
        durable.set_sync_policy(policy);
        durable.set_observer(Arc::clone(&observer));
        Self::start_observed(durable, false, Some(observer))
    }

    /// Recover an existing store from `vfs` and start the committer.
    pub fn open(vfs: Box<dyn Vfs>, policy: SyncPolicy) -> Result<Self, StorageError> {
        let mut durable = Durable::open(vfs)?;
        durable.set_sync_policy(policy);
        Self::start(durable, false)
    }

    /// [`ConcurrentStore::open`] with an observability domain attached from
    /// recovery replay on.
    pub fn open_observed(
        vfs: Box<dyn Vfs>,
        policy: SyncPolicy,
        observer: Arc<Observer>,
    ) -> Result<Self, StorageError> {
        let mut durable = Durable::open_observed(vfs, Arc::clone(&observer))?;
        durable.set_sync_policy(policy);
        Self::start_observed(durable, false, Some(observer))
    }

    /// Like [`ConcurrentStore::create`], additionally recording every
    /// committed update so [`ConcurrentStore::history`] can replay the
    /// serial order (test/oracle instrumentation).
    pub fn create_recording(
        vfs: Box<dyn Vfs>,
        backend: B,
        policy: SyncPolicy,
    ) -> Result<Self, StorageError> {
        let mut durable = Durable::create(vfs, backend)?;
        durable.set_sync_policy(policy);
        Self::start(durable, true)
    }

    /// Wrap an already-built durable store (any policy, any medium).  Fails
    /// only when the committer thread cannot be spawned.
    pub fn start(durable: Durable<B>, record_history: bool) -> Result<Self, StorageError> {
        Self::start_observed(durable, record_history, None)
    }

    /// [`ConcurrentStore::start`] with an optional observability domain.
    pub fn start_observed(
        durable: Durable<B>,
        record_history: bool,
        observer: Option<Arc<Observer>>,
    ) -> Result<Self, StorageError> {
        let snapshot = Arc::new(StoreSnapshot {
            backend: durable.inner().clone(),
            seq: 0,
            generation: durable.generation(),
            pin: pin_guard(&observer),
        });
        let shared = Arc::new(Shared {
            published: Mutex::new(snapshot),
            snapshots_pinned: AtomicU64::new(0),
            commit_batches: AtomicU64::new(0),
            batched_updates: AtomicU64::new(0),
            history: Mutex::new(Vec::new()),
            record_history,
            observer,
        });
        let (tx, rx) = mpsc::channel();
        let worker_shared = Arc::clone(&shared);
        let committer = std::thread::Builder::new()
            .name("ws-committer".into())
            .spawn(move || commit_loop(durable, rx, worker_shared))
            .map_err(|e| StorageError::io(format!("spawning the committer thread: {e}")))?;
        Ok(ConcurrentStore {
            shared,
            tx: Arc::new(Mutex::new(Some(tx))),
            committer: Arc::new(Mutex::new(Some(committer))),
        })
    }

    /// Pin the newest committed image.  Lock-free against other readers and
    /// against in-flight commits (one short mutex hold to clone the `Arc`).
    pub fn snapshot(&self) -> Arc<StoreSnapshot<B>> {
        self.shared.snapshots_pinned.fetch_add(1, Ordering::Relaxed);
        if let Some(observer) = &self.shared.observer {
            observer.metrics().counter("store.snapshot.pinned").inc();
        }
        Arc::clone(&lock(&self.shared.published))
    }

    /// The observability domain this store reports into, if any.
    pub fn observer(&self) -> Option<&Arc<Observer>> {
        self.shared.observer.as_ref()
    }

    /// The committed update sequence number of the newest image.
    pub fn seq(&self) -> u64 {
        lock(&self.shared.published).seq
    }

    /// The checkpoint generation of the newest image.
    pub fn generation(&self) -> u64 {
        lock(&self.shared.published).generation
    }

    /// Store-level counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            snapshots_pinned: self.shared.snapshots_pinned.load(Ordering::Relaxed),
            commit_batches: self.shared.commit_batches.load(Ordering::Relaxed),
            batched_updates: self.shared.batched_updates.load(Ordering::Relaxed),
        }
    }

    /// The committed updates in serial (WAL) order.  Empty unless the store
    /// was built with history recording; an error if a thread panicked
    /// while recording them.
    pub fn history(&self) -> Result<Vec<UpdateExpr>, StorageError> {
        self.shared
            .history
            .lock()
            .map(|history| history.clone())
            .map_err(|_| {
                StorageError::io("the recorded history is incomplete: its recorder panicked")
            })
    }

    fn submit(&self, cmd: Command<B>) -> Result<(), StorageError> {
        let guard = lock(&self.tx);
        match guard.as_ref() {
            Some(tx) => tx.send(cmd).map_err(|_| {
                StorageError::io(
                    "the service committer has stopped; no further writes are possible",
                )
            }),
            None => stopped(),
        }
    }

    /// Durably apply one update through the group-commit path.  Blocks until
    /// the batch carrying this update has hit the log (and, outside
    /// [`SyncPolicy::OnCheckpoint`], been fsynced).
    pub fn update(&self, update: UpdateExpr) -> UpdateOutcome<B::Error> {
        // Refused here, an update the log could not take never joins (and
        // fails) a batch of other callers' updates.
        ws_storage::codec::check_nesting(&update).map_err(DurableError::Storage)?;
        let slot = Slot::new();
        self.submit(Command::Update(update, Arc::clone(&slot)))
            .map_err(DurableError::Storage)?;
        match slot.wait() {
            Some(outcome) => outcome,
            None => Err(DurableError::Storage(StorageError::io(
                "the committer did not answer within the stall timeout",
            ))),
        }
    }

    /// Snapshot-and-truncate through the committer (serialized with the
    /// update stream).  Returns the new generation.
    pub fn checkpoint(&self) -> Result<u64, StorageError> {
        let slot = Slot::new();
        self.submit(Command::Checkpoint(Arc::clone(&slot)))?;
        match slot.wait() {
            Some(res) => res,
            None => Err(StorageError::io(
                "the committer did not answer within the stall timeout",
            )),
        }
    }

    /// Stop the committer and close the underlying durable store, surfacing
    /// any final-sync or poison diagnosis.  Returns the closing durability
    /// counters.  Snapshots already pinned stay readable.
    pub fn close(&self) -> Result<DurabilityStats, StorageError> {
        let slot = Slot::new();
        {
            let mut guard = lock(&self.tx);
            match guard.take() {
                Some(tx) => tx
                    .send(Command::Shutdown(Arc::clone(&slot)))
                    .map_err(|_| StorageError::io("the service committer has already stopped"))?,
                None => return stopped(),
            }
        }
        let result = match slot.wait() {
            Some(res) => res,
            None => Err(StorageError::io(
                "the committer did not answer the shutdown within the stall timeout",
            )),
        };
        if let Some(handle) = lock(&self.committer).take() {
            let _ = handle.join();
        }
        result
    }
}

/// The committer: the only thread that touches the [`Durable`] store.
fn commit_loop<B>(mut durable: Durable<B>, rx: Receiver<Command<B>>, shared: Arc<Shared<B>>)
where
    B: Persist + WriteBackend + Clone + Send + Sync + 'static,
{
    let (max_batch, max_wait) = match durable.sync_policy() {
        SyncPolicy::GroupCommit {
            max_batch,
            max_wait,
        } => (max_batch.max(1), max_wait),
        _ => (1, Duration::ZERO),
    };
    // Non-update commands observed while assembling a batch commit *after*
    // that batch, preserving the arrival order of durability boundaries.
    let mut deferred: VecDeque<Command<B>> = VecDeque::new();
    loop {
        let cmd = match deferred.pop_front() {
            Some(c) => c,
            None => match rx.recv() {
                Ok(c) => c,
                // Every handle dropped its sender without a shutdown: stop
                // quietly, best-effort closing the log.
                Err(_) => {
                    let _ = durable.close();
                    return;
                }
            },
        };
        match cmd {
            Command::Shutdown(slot) => {
                let stats = durable.stats();
                slot.fill(durable.close().map(|_| stats));
                return;
            }
            Command::Checkpoint(slot) => {
                let res = durable.checkpoint();
                if res.is_ok() {
                    publish(&durable, &shared, &[]);
                }
                slot.fill(res);
            }
            Command::Update(first, first_slot) => {
                let coalesce_started = Instant::now();
                let mut updates = vec![first];
                let mut slots = vec![first_slot];
                if max_batch > 1 {
                    let deadline = Instant::now() + max_wait;
                    while updates.len() < max_batch {
                        let left = deadline.saturating_duration_since(Instant::now());
                        let next = if left.is_zero() {
                            match rx.try_recv() {
                                Ok(c) => c,
                                Err(_) => break,
                            }
                        } else {
                            match rx.recv_timeout(left) {
                                Ok(c) => c,
                                Err(RecvTimeoutError::Timeout) => break,
                                Err(RecvTimeoutError::Disconnected) => break,
                            }
                        };
                        match next {
                            Command::Update(u, s) => {
                                updates.push(u);
                                slots.push(s);
                            }
                            other => {
                                // A durability boundary: seal the batch here.
                                deferred.push_back(other);
                                break;
                            }
                        }
                    }
                }
                if let Some(observer) = &shared.observer {
                    let metrics = observer.metrics();
                    metrics
                        .histogram("store.commit.coalesce_ns")
                        .record_duration(coalesce_started.elapsed());
                    metrics
                        .histogram("store.commit.batch_size")
                        .record(updates.len() as u64);
                }
                let apply_started = Instant::now();
                match durable.apply_batch(&updates) {
                    Ok(outcomes) => {
                        if let Some(observer) = &shared.observer {
                            observer
                                .metrics()
                                .histogram("store.commit.apply_ns")
                                .record_duration(apply_started.elapsed());
                        }
                        shared.commit_batches.fetch_add(1, Ordering::Relaxed);
                        shared
                            .batched_updates
                            .fetch_add(updates.len() as u64, Ordering::Relaxed);
                        publish(&durable, &shared, &updates);
                        for (slot, outcome) in slots.into_iter().zip(outcomes) {
                            slot.fill(outcome.map_err(DurableError::Backend));
                        }
                    }
                    Err(e) => {
                        // The log itself failed: nothing was applied, every
                        // waiter learns the same storage diagnosis.
                        for slot in slots {
                            slot.fill(Err(DurableError::Storage(e.clone())));
                        }
                    }
                }
            }
        }
    }
}

fn publish<B>(durable: &Durable<B>, shared: &Shared<B>, committed: &[UpdateExpr])
where
    B: Persist + WriteBackend + Clone,
{
    let mut published = lock(&shared.published);
    let seq = published.seq + committed.len() as u64;
    if shared.record_history && !committed.is_empty() {
        // A poisoned history stays poisoned: `history()` reports it.
        if let Ok(mut history) = shared.history.lock() {
            history.extend(committed.iter().cloned());
        }
    }
    *published = Arc::new(StoreSnapshot {
        backend: durable.inner().clone(),
        seq,
        generation: durable.generation(),
        pin: pin_guard(&shared.observer),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_core::wsd::example_census_wsd;
    use ws_core::Wsd;
    use ws_relational::Predicate;
    use ws_storage::MemVfs;

    fn boxed(vfs: &MemVfs) -> Box<dyn Vfs> {
        Box::new(vfs.clone())
    }

    fn delete(m: i64) -> UpdateExpr {
        UpdateExpr::delete("R", Predicate::eq_const("M", m))
    }

    #[test]
    fn snapshots_are_immutable_and_pinned_across_commits() {
        let vfs = MemVfs::new();
        let store: ConcurrentStore<Wsd> =
            ConcurrentStore::create(boxed(&vfs), example_census_wsd(), SyncPolicy::EveryRecord)
                .unwrap();
        let before = store.snapshot();
        assert_eq!(before.seq, 0);
        // An update the log could not take is refused before it is queued.
        let too_deep = (0..ws_storage::codec::MAX_NESTING)
            .fold(Predicate::eq_const("M", 4i64), |p, _| Predicate::not(p));
        assert!(matches!(
            store.update(UpdateExpr::delete("R", too_deep)),
            Err(DurableError::Storage(StorageError::Invalid(_)))
        ));
        assert_eq!(store.seq(), 0);
        let mass = store.update(delete(4)).unwrap();
        assert!(mass > 0.0);
        let after = store.snapshot();
        assert_eq!(after.seq, 1);
        // The pinned image still shows the pre-update state.
        assert_eq!(
            before.backend.encode_to_vec(),
            example_census_wsd().encode_to_vec()
        );
        assert_ne!(
            before.backend.encode_to_vec(),
            after.backend.encode_to_vec()
        );
        assert_eq!(store.stats().snapshots_pinned, 2);
        store.close().unwrap();
    }

    #[test]
    fn a_panic_holding_the_published_snapshot_stops_no_reader_or_writer() {
        let vfs = MemVfs::new();
        let store: ConcurrentStore<Wsd> =
            ConcurrentStore::create(boxed(&vfs), example_census_wsd(), SyncPolicy::EveryRecord)
                .unwrap();
        let poisoner = store.clone();
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.shared.published.lock().unwrap();
            panic!("a bug while the published snapshot is locked");
        })
        .join();
        assert!(panicked.is_err());
        assert!(store.shared.published.is_poisoned());
        let pinned = store.snapshot();
        assert_eq!((pinned.seq, store.seq()), (0, 0));
        store.update(delete(4)).unwrap();
        assert_eq!(store.seq(), 1);
        assert_eq!(store.snapshot().seq, 1);
        assert_eq!(pinned.seq, 0, "the pinned image stays as it was");
        store.close().unwrap();
    }

    #[test]
    fn group_commit_coalesces_concurrent_writers() {
        let vfs = MemVfs::new();
        let store: ConcurrentStore<Wsd> = ConcurrentStore::create_recording(
            boxed(&vfs),
            example_census_wsd(),
            SyncPolicy::GroupCommit {
                max_batch: 16,
                max_wait: Duration::from_millis(20),
            },
        )
        .unwrap();
        let synced_before = vfs.sync_count();
        let mut threads = Vec::new();
        for m in [1i64, 2, 3, 4, 9] {
            let store = store.clone();
            threads.push(std::thread::spawn(move || store.update(delete(m))));
        }
        for t in threads {
            t.join().unwrap().unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.batched_updates, 5);
        assert!(
            stats.commit_batches <= 5,
            "batches {} should not exceed updates",
            stats.commit_batches
        );
        // Each batch costs exactly one fsync.
        assert_eq!(
            vfs.sync_count() - synced_before,
            stats.commit_batches,
            "one fsync per commit batch"
        );
        assert_eq!(store.seq(), 5);
        assert_eq!(store.history().unwrap().len(), 5);
        store.close().unwrap();

        // Recovery agrees with the published tail snapshot.
        let reopened: Durable<Wsd> = Durable::open(boxed(&vfs)).unwrap();
        let mut serial = example_census_wsd();
        for u in store.history().unwrap() {
            let _ = ws_core::ops::update::apply_update(&mut serial, &u);
        }
        assert_eq!(
            reopened.inner().encode_to_vec(),
            serial.encode_to_vec(),
            "recovered state equals the serial replay of the history"
        );
    }

    #[test]
    fn a_failed_update_is_delivered_to_its_caller_only() {
        let vfs = MemVfs::new();
        let store: ConcurrentStore<Wsd> = ConcurrentStore::create(
            boxed(&vfs),
            example_census_wsd(),
            SyncPolicy::GroupCommit {
                max_batch: 8,
                max_wait: Duration::from_millis(5),
            },
        )
        .unwrap();
        // An update against a relation that does not exist is rejected by
        // the backend: a deterministic failure, delivered as this one
        // caller's outcome (not as a batch-wide storage error).
        let bad = UpdateExpr::delete("NoSuchRelation", Predicate::eq_const("M", 4i64));
        let out = store.update(bad);
        assert!(matches!(out, Err(DurableError::Backend(_))));
        // The store still accepts and commits good updates afterwards.
        store.update(delete(4)).unwrap();
        store.close().unwrap();
    }

    #[test]
    fn writes_after_close_fail_cleanly_but_snapshots_survive() {
        let vfs = MemVfs::new();
        let store: ConcurrentStore<Wsd> =
            ConcurrentStore::create(boxed(&vfs), example_census_wsd(), SyncPolicy::EveryRecord)
                .unwrap();
        let other = store.clone();
        let pinned = other.snapshot();
        store.close().unwrap();
        let out = other.update(delete(4));
        assert!(matches!(out, Err(DurableError::Storage(_))));
        assert_eq!(
            pinned.backend.encode_to_vec(),
            example_census_wsd().encode_to_vec()
        );
    }
}
