//! Streaming serving front-end: bounded admission, request coalescing,
//! deadlines, backpressure, graceful shutdown.
//!
//! [`RecommenderEngine::recommend_batch`] serves one materialised batch
//! at a time; continuous traffic needs an admission layer in front of
//! it. [`Server`] is that layer: a bounded MPMC queue of group requests
//! feeding the existing worker pool directly — dispatchers are
//! fire-and-forget jobs (`rayon::spawn`) on the pool the engine's
//! parallel stages already run on, not dedicated threads.
//!
//! ## Admission
//!
//! [`Server::submit`] runs entirely under one admission lock and either
//!
//! * rejects immediately with a typed error — [`ServerShutdown`] after
//!   shutdown, [`DeadlineExpired`] when the request's budget already
//!   lapsed, [`QueueFull`] when the queue is at capacity (backpressure:
//!   the caller sheds load *now* instead of queueing unboundedly),
//! * **coalesces** onto an identical in-flight request (below), or
//! * enqueues a fresh request slot and, when fewer than
//!   [`ServerConfig::workers`] dispatchers are live, spawns one.
//!
//! ## Coalescing, keyed under the generation token
//!
//! Identical `(group members, z)` requests in flight share one
//! computation: the joining request adds a waiter to the existing slot
//! and every waiter receives a clone of the same
//! `Arc<GroupRecommendation>`. A slot still queued is always joinable —
//! its computation has not started, so it will run against current
//! data. A slot already **computing** is joinable only while the peer
//! backend's generation token still equals the token recorded when its
//! computation began: a warm or ingest mid-stream bumps the token, and
//! a request admitted *after* the bump must not be handed a result
//! computed *before* it (the merged result would be stale for the new
//! request). Compatible distinct requests are batched — a dispatcher
//! drains up to [`ServerConfig::max_batch`] slots and fans them out in
//! a single [`RecommenderEngine::recommend_requests`] call, so
//! per-batch setup is amortised across continuous traffic.
//!
//! ## Deadlines
//!
//! A request's [`Deadline`] is enforced three times: at admission
//! (pre-expired requests never enter the queue), at dispatch (a
//! dispatcher triages each claimed slot's waiters against one clock
//! reading and rejects the lapsed ones **before** spending kernel time
//! — a slot with no live waiters left is dropped uncomputed), and by
//! the waiting caller ([`Ticket::wait`] gives up when the budget runs
//! out even if the result later arrives).
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] flips the admission flag (new submits are
//! rejected), then **drains**: the shutting-down thread runs the
//! dispatch loop inline until the queue is empty and waits for live
//! dispatchers to deliver their in-flight batches. Every request
//! admitted before shutdown is therefore served (or deadline-rejected),
//! never dropped. Dropping the server shuts it down.
//!
//! `workers: 0` is allowed and documented: no dispatcher is ever
//! spawned, so the queue only drains on shutdown. That mode makes
//! queue states fully deterministic — the rejection, coalescing, and
//! triage tests below rely on it.

use crate::engine::{GroupRecommendation, RecommenderEngine};
use fairrec_core::group::Group;
use fairrec_types::{Deadline, FairrecError, Result, UserId};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks `mutex`, recovering from poison instead of amplifying the
/// poisoning panic. Server state behind these locks is a plain value
/// store (queues, maps, counters, option cells) that is never left
/// mid-transition by the code that holds the lock, so the recovered
/// guard is safe to use — and a waiter blocked on a poisoned lock gets
/// its result (or a typed error) instead of a secondary panic.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Knobs of the streaming front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bounded admission-queue capacity: distinct request slots that may
    /// wait for a dispatcher at once. Coalesced joins consume no
    /// capacity. Clamped to ≥ 1.
    pub queue_capacity: usize,
    /// Most request slots one dispatcher claims per fan-out. Clamped to
    /// ≥ 1.
    pub max_batch: usize,
    /// Most concurrent dispatcher jobs on the worker pool. `0` is valid:
    /// requests queue but only drain on [`Server::shutdown`] (the
    /// deterministic-test mode).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            max_batch: 16,
            workers: 2,
        }
    }
}

/// Never-decreasing counters of one server's life, snapshotted by
/// [`Server::stats`]. Rejection counters are server-side decisions;
/// a caller-side [`Ticket::wait`] timeout is not counted (the server
/// may still triage the same request later — one rejection, one count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests admitted as fresh slots.
    pub submitted: u64,
    /// Requests that joined an in-flight identical slot.
    pub coalesced: u64,
    /// Request slots computed and delivered.
    pub completed: u64,
    /// Dispatcher fan-outs run (each covers up to `max_batch` slots).
    pub batches: u64,
    /// Requests rejected because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Requests rejected at admission or dispatch with a lapsed deadline.
    pub rejected_deadline: u64,
    /// Dispatcher panics caught and converted to typed rejections (the
    /// dispatcher survives; every waiter of the batch gets an error).
    pub panics_caught: u64,
    /// Requests skipped by the mid-batch deadline-budget checkpoint:
    /// their waiters had all lapsed after dispatch started, so no
    /// further kernel time was spent on them.
    pub budget_cancelled: u64,
}

#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    coalesced: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    panics_caught: AtomicU64,
    budget_cancelled: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            submitted: self.submitted.load(Ordering::Acquire),
            coalesced: self.coalesced.load(Ordering::Acquire),
            completed: self.completed.load(Ordering::Acquire),
            batches: self.batches.load(Ordering::Acquire),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Acquire),
            rejected_deadline: self.rejected_deadline.load(Ordering::Acquire),
            panics_caught: self.panics_caught.load(Ordering::Acquire),
            budget_cancelled: self.budget_cancelled.load(Ordering::Acquire),
        }
    }
}

/// The coalescing identity of a request: same members, same `z` ⇒ same
/// answer (a [`GroupRecommendation`] carries no group id).
type CoalesceKey = (Vec<UserId>, usize);

/// Where a slot is in its life. Transitions happen under the admission
/// lock, so `submit`'s join decision and the dispatcher's claim cannot
/// interleave.
#[derive(Debug, Clone, Copy)]
enum SlotPhase {
    /// Waiting in the queue; joinable unconditionally (its computation
    /// will run against current data).
    Queued,
    /// Claimed by a dispatcher; joinable only while the backend's
    /// generation still equals the recorded token.
    Computing {
        /// The peer backend's generation when the fan-out was assembled.
        generation: u64,
    },
}

struct SlotInner {
    phase: SlotPhase,
    waiters: Vec<Arc<Waiter>>,
    /// Set by the first delivery; makes `finish_slot` idempotent so a
    /// redelivery (e.g. along a panic-recovery path) cannot double-count
    /// completions or re-notify waiters.
    finished: bool,
}

/// One admitted `(group, z)` computation and everyone waiting on it.
struct RequestSlot {
    group: Group,
    z: usize,
    inner: Mutex<SlotInner>,
}

impl RequestSlot {
    fn key(&self) -> CoalesceKey {
        (self.group.members().to_vec(), self.z)
    }
}

/// One caller's stake in a slot: their deadline and their response cell.
struct Waiter {
    deadline: Deadline,
    result: Mutex<Option<Result<Arc<GroupRecommendation>>>>,
    ready: Condvar,
}

impl Waiter {
    fn new(deadline: Deadline) -> Self {
        Self {
            deadline,
            result: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// First completion wins; later completions (benign races between a
    /// triage rejection and a delivery) are dropped. Poison on the cell
    /// is recovered — a delivery must never be lost to someone else's
    /// panic.
    fn complete(&self, outcome: Result<Arc<GroupRecommendation>>) {
        let mut cell = lock_recover(&self.result);
        if cell.is_none() {
            *cell = Some(outcome);
            self.ready.notify_all();
        }
    }
}

/// The admission state: the bounded queue **is** the MPMC queue of the
/// front-end, and the pending map is the coalescing index over it. One
/// lock guards both, so capacity checks, joins, claims, and the
/// dispatcher head-count can never disagree.
struct Admission {
    queue: VecDeque<Arc<RequestSlot>>,
    pending: HashMap<CoalesceKey, Arc<RequestSlot>>,
    dispatchers: usize,
    shutdown: bool,
}

struct ServerCore {
    engine: Arc<RecommenderEngine>,
    config: ServerConfig,
    state: Mutex<Admission>,
    /// Signalled when the last live dispatcher exits (shutdown waits on
    /// it).
    idle: Condvar,
    stats: Stats,
    /// Runs inside the panic containment before each batch computation,
    /// with the batch's sequence number: lets tests panic or stall a
    /// dispatch.
    #[cfg(test)]
    dispatch_hook: Option<Box<dyn Fn(u64) + Send + Sync>>,
}

/// A submitted request's claim ticket: wait on it for the result.
pub struct Ticket {
    waiter: Arc<Waiter>,
    coalesced: bool,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("coalesced", &self.coalesced)
            .field("deadline", &self.waiter.deadline)
            .finish()
    }
}

impl Ticket {
    /// Whether this request joined an in-flight identical computation
    /// instead of enqueueing its own.
    pub fn coalesced(&self) -> bool {
        self.coalesced
    }

    /// Blocks until the result arrives or this request's deadline
    /// lapses.
    ///
    /// # Errors
    /// [`FairrecError::DeadlineExpired`] when the budget ran out first;
    /// [`FairrecError::Internal`] when the response cell was poisoned by
    /// a panicking completer (the waiter degrades to a typed error
    /// instead of amplifying the panic); otherwise whatever the
    /// computation produced (a rejection recorded by the server arrives
    /// through the same channel).
    pub fn wait(self) -> Result<Arc<GroupRecommendation>> {
        // A poisoned cell means a completer panicked mid-delivery; any
        // result already stored is still readable, but waiting further
        // could hang forever — surface a typed error instead.
        let poisoned = || FairrecError::internal("response cell poisoned by a panicking completer");
        let mut cell = match self.waiter.result.lock() {
            Ok(cell) => cell,
            Err(poison) => {
                let cell = poison.into_inner();
                return match cell.as_ref() {
                    Some(outcome) => outcome.clone(),
                    None => Err(poisoned()),
                };
            }
        };
        loop {
            if let Some(outcome) = cell.as_ref() {
                return outcome.clone();
            }
            match self.waiter.deadline.remaining() {
                None => {
                    cell = self.waiter.ready.wait(cell).map_err(|_| poisoned())?;
                }
                Some(left) if left.is_zero() => return Err(FairrecError::DeadlineExpired),
                Some(left) => {
                    cell = self
                        .waiter
                        .ready
                        .wait_timeout(cell, left)
                        .map_err(|_| poisoned())?
                        .0;
                }
            }
        }
    }
}

/// The streaming serving front-end over a shared
/// [`RecommenderEngine`]. See the module docs for the admission,
/// coalescing, deadline, and shutdown contracts.
pub struct Server {
    core: Arc<ServerCore>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock_recover(&self.core.state);
        f.debug_struct("Server")
            .field("config", &self.core.config)
            .field("queued", &state.queue.len())
            .field("dispatchers", &state.dispatchers)
            .field("shutdown", &state.shutdown)
            .finish()
    }
}

impl Server {
    /// A front-end over `engine` (shared: the engine keeps serving
    /// direct calls too). Capacity and batch size are clamped to ≥ 1;
    /// `workers: 0` is honoured as the drain-on-shutdown mode.
    pub fn new(engine: Arc<RecommenderEngine>, config: ServerConfig) -> Self {
        let config = ServerConfig {
            queue_capacity: config.queue_capacity.max(1),
            max_batch: config.max_batch.max(1),
            workers: config.workers,
        };
        Self {
            core: Arc::new(ServerCore {
                engine,
                config,
                state: Mutex::new(Admission {
                    queue: VecDeque::new(),
                    pending: HashMap::new(),
                    dispatchers: 0,
                    shutdown: false,
                }),
                idle: Condvar::new(),
                stats: Stats::default(),
                #[cfg(test)]
                dispatch_hook: None,
            }),
        }
    }

    /// [`new`](Self::new) with `hook` run before each batch computation.
    #[cfg(test)]
    fn with_dispatch_hook(
        engine: Arc<RecommenderEngine>,
        config: ServerConfig,
        hook: impl Fn(u64) + Send + Sync + 'static,
    ) -> Self {
        let mut server = Self::new(engine, config);
        Arc::get_mut(&mut server.core)
            .expect("a new server's core is unshared")
            .dispatch_hook = Some(Box::new(hook));
        server
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<RecommenderEngine> {
        &self.core.engine
    }

    /// Submits one group request; returns a [`Ticket`] to wait on.
    ///
    /// # Errors
    /// [`FairrecError::ServerShutdown`] after [`shutdown`](Self::shutdown),
    /// [`FairrecError::DeadlineExpired`] for a pre-lapsed deadline,
    /// [`FairrecError::QueueFull`] when the bounded queue is at capacity
    /// and the request coalesces with nothing in flight.
    pub fn submit(&self, group: Group, z: usize, deadline: Deadline) -> Result<Ticket> {
        let core = &self.core;
        let mut state = lock_recover(&core.state);
        if state.shutdown {
            return Err(FairrecError::ServerShutdown);
        }
        if deadline.expired() {
            core.stats.rejected_deadline.fetch_add(1, Ordering::AcqRel);
            return Err(FairrecError::DeadlineExpired);
        }
        let key: CoalesceKey = (group.members().to_vec(), z);
        if let Some(slot) = state.pending.get(&key) {
            let joinable = match lock_recover(&slot.inner).phase {
                SlotPhase::Queued => true,
                // The generation key: a computation started under an
                // older token must not absorb requests admitted after a
                // warm/ingest bumped it.
                SlotPhase::Computing { generation } => {
                    generation == core.engine.peer_index().generation()
                }
            };
            if joinable {
                let waiter = Arc::new(Waiter::new(deadline));
                lock_recover(&slot.inner).waiters.push(Arc::clone(&waiter));
                core.stats.coalesced.fetch_add(1, Ordering::AcqRel);
                return Ok(Ticket {
                    waiter,
                    coalesced: true,
                });
            }
            // Stale in-flight slot: fall through and enqueue a fresh one.
            // The pending insert below displaces the stale entry; its
            // delivery only unregisters itself (pointer-checked), so the
            // fresh slot stays registered.
        }
        if state.queue.len() >= core.config.queue_capacity {
            core.stats
                .rejected_queue_full
                .fetch_add(1, Ordering::AcqRel);
            return Err(FairrecError::QueueFull {
                capacity: core.config.queue_capacity,
            });
        }
        let waiter = Arc::new(Waiter::new(deadline));
        let slot = Arc::new(RequestSlot {
            group,
            z,
            inner: Mutex::new(SlotInner {
                phase: SlotPhase::Queued,
                waiters: vec![Arc::clone(&waiter)],
                finished: false,
            }),
        });
        state.pending.insert(key, Arc::clone(&slot));
        state.queue.push_back(slot);
        core.stats.submitted.fetch_add(1, Ordering::AcqRel);
        // Dispatcher head-count and the exit-decrement in
        // `dispatcher_loop` serialize under this same lock, so a
        // wake-up can never be lost: either a live dispatcher will see
        // this slot, or we spawn one here.
        if state.dispatchers < core.config.workers {
            state.dispatchers += 1;
            let core = Arc::clone(core);
            rayon::spawn(move || ServerCore::dispatcher_loop(&core));
        }
        Ok(Ticket {
            waiter,
            coalesced: false,
        })
    }

    /// Submit-and-wait convenience: one blocking request.
    ///
    /// # Errors
    /// As [`submit`](Self::submit) and [`Ticket::wait`].
    pub fn recommend(
        &self,
        group: Group,
        z: usize,
        deadline: Deadline,
    ) -> Result<Arc<GroupRecommendation>> {
        self.submit(group, z, deadline)?.wait()
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.core.stats.snapshot()
    }

    /// Graceful shutdown: rejects new submits, drains every queued
    /// request (the calling thread helps compute them), waits for live
    /// dispatchers to deliver their in-flight batches, and returns the
    /// final counters. Idempotent — later calls just re-wait and
    /// re-snapshot.
    pub fn shutdown(&self) -> ServerStats {
        let core = &self.core;
        {
            let mut state = lock_recover(&core.state);
            state.shutdown = true;
        }
        // Help drain inline: with the flag up nothing new is admitted,
        // so an empty queue is a terminal state (this is also the only
        // drain under `workers: 0`).
        loop {
            let batch = {
                let mut state = lock_recover(&core.state);
                if state.queue.is_empty() {
                    break;
                }
                core.claim_batch(&mut state)
            };
            core.compute_and_deliver(&batch);
        }
        let mut state = lock_recover(&core.state);
        while state.dispatchers > 0 {
            state = core
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        core.stats.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Unwind safety net for a dispatcher job: if the loop leaves by panic
/// (nothing inside is expected to — computation panics are caught per
/// batch), the head-count still drops and shutdown still wakes, instead
/// of waiting forever on a dispatcher that no longer exists.
struct DispatcherGuard<'a> {
    core: &'a Arc<ServerCore>,
    armed: bool,
}

impl Drop for DispatcherGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = lock_recover(&self.core.state);
            state.dispatchers = state.dispatchers.saturating_sub(1);
            if state.dispatchers == 0 {
                self.core.idle.notify_all();
            }
        }
    }
}

impl ServerCore {
    /// Body of one dispatcher job on the worker pool: claim → fan out →
    /// deliver, until the queue is empty. The exit decision and the
    /// decrement happen under the admission lock, pairing exactly with
    /// `submit`'s spawn check; [`DispatcherGuard`] covers the
    /// never-expected unwind path.
    fn dispatcher_loop(self: &Arc<Self>) {
        let mut guard = DispatcherGuard {
            core: self,
            armed: true,
        };
        loop {
            let batch = {
                let mut state = lock_recover(&self.state);
                if state.queue.is_empty() {
                    state.dispatchers -= 1;
                    if state.dispatchers == 0 {
                        self.idle.notify_all();
                    }
                    guard.armed = false;
                    return;
                }
                self.claim_batch(&mut state)
            };
            self.compute_and_deliver(&batch);
        }
    }

    /// Claims up to `max_batch` slots off the queue (admission lock
    /// held): triages each slot's waiters against one clock reading —
    /// lapsed waiters are rejected with [`FairrecError::DeadlineExpired`]
    /// right here, **before** any kernel time is spent — drops slots
    /// with no live waiter left, and marks the survivors `Computing`
    /// under the current generation token.
    fn claim_batch(&self, state: &mut Admission) -> Vec<Arc<RequestSlot>> {
        let generation = self.engine.peer_index().generation();
        let now = Instant::now();
        let mut batch = Vec::new();
        while batch.len() < self.config.max_batch {
            let Some(slot) = state.queue.pop_front() else {
                break;
            };
            let live = {
                let mut inner = lock_recover(&slot.inner);
                let before = inner.waiters.len();
                inner.waiters.retain(|w| {
                    if w.deadline.expired_at(now) {
                        w.complete(Err(FairrecError::DeadlineExpired));
                        false
                    } else {
                        true
                    }
                });
                let dropped = (before - inner.waiters.len()) as u64;
                if dropped > 0 {
                    self.stats
                        .rejected_deadline
                        .fetch_add(dropped, Ordering::AcqRel);
                }
                if inner.waiters.is_empty() {
                    false
                } else {
                    inner.phase = SlotPhase::Computing { generation };
                    true
                }
            };
            if live {
                batch.push(slot);
            } else {
                Self::unregister(state, &slot);
            }
        }
        batch
    }

    /// Removes `slot`'s coalescing entry — only if it is still *this*
    /// slot's (a stale slot displaced by a fresh one must not evict the
    /// replacement).
    fn unregister(state: &mut Admission, slot: &Arc<RequestSlot>) {
        let key = slot.key();
        if state
            .pending
            .get(&key)
            .is_some_and(|cur| Arc::ptr_eq(cur, slot))
        {
            state.pending.remove(&key);
        }
    }

    /// One fan-out over the claimed batch, then per-slot delivery.
    ///
    /// Two degradation mechanisms run here. A panic inside the engine is
    /// caught and delivered as a typed [`FairrecError::Internal`] to every
    /// waiter of the batch — the dispatcher survives. And the fan-out runs
    /// through the engine's deadline-budget checkpoints: before each
    /// request's kernel work starts, the dispatcher re-checks whether
    /// that slot still has a live waiter, so a batch whose waiters all
    /// lapsed mid-dispatch stops burning kernel time instead of running
    /// to completion.
    fn compute_and_deliver(self: &Arc<Self>, batch: &[Arc<RequestSlot>]) {
        if batch.is_empty() {
            return;
        }
        #[cfg_attr(not(test), allow(unused_variables))]
        let batch_seq = self.stats.batches.fetch_add(1, Ordering::AcqRel);
        let specs: Vec<(Group, usize)> = batch
            .iter()
            .map(|slot| (slot.group.clone(), slot.z))
            .collect();
        let skipped = AtomicU64::new(0);
        let should_compute = |idx: usize| -> bool {
            let inner = lock_recover(&batch[idx].inner);
            let live = inner.waiters.iter().any(|w| !w.deadline.expired());
            if !live {
                skipped.fetch_add(1, Ordering::AcqRel);
            }
            live
        };
        let outcomes = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if let Some(hook) = &self.dispatch_hook {
                hook(batch_seq);
            }
            self.engine
                .recommend_requests_budgeted(&specs, &should_compute)
        }));
        let cancelled = skipped.load(Ordering::Acquire);
        if cancelled > 0 {
            self.stats
                .budget_cancelled
                .fetch_add(cancelled, Ordering::AcqRel);
        }
        match outcomes {
            Ok(outcomes) => {
                for (slot, outcome) in batch.iter().zip(outcomes) {
                    self.finish_slot(slot, outcome.map(Arc::new));
                }
            }
            Err(_) => {
                self.stats.panics_caught.fetch_add(1, Ordering::AcqRel);
                let err = FairrecError::internal("request computation panicked; batch rejected");
                for slot in batch {
                    self.finish_slot(slot, Err(err.clone()));
                }
            }
        }
    }

    /// Delivers one slot's outcome to every waiter. The coalescing
    /// entry is unregistered (under the admission lock) **before** the
    /// waiters are taken: joins only happen through the pending map
    /// under that same lock, so no waiter can be added after the
    /// take — nobody is left undelivered. Idempotent: a second delivery
    /// for the same slot is a no-op (the `finished` flag), so
    /// panic-recovery redelivery cannot double-count completions.
    fn finish_slot(&self, slot: &Arc<RequestSlot>, outcome: Result<Arc<GroupRecommendation>>) {
        {
            let mut state: MutexGuard<'_, Admission> = lock_recover(&self.state);
            Self::unregister(&mut state, slot);
        }
        let waiters = {
            let mut inner = lock_recover(&slot.inner);
            if inner.finished {
                return;
            }
            inner.finished = true;
            std::mem::take(&mut inner.waiters)
        };
        for waiter in waiters {
            waiter.complete(outcome.clone());
        }
        self.stats.completed.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use fairrec_data::{SyntheticConfig, SyntheticDataset};
    use fairrec_ontology::snomed::clinical_fragment;
    use fairrec_types::GroupId;
    use std::time::Duration;

    fn engine() -> Arc<RecommenderEngine> {
        let ontology = clinical_fragment();
        let data = SyntheticDataset::generate(
            SyntheticConfig {
                num_users: 40,
                num_items: 80,
                num_communities: 4,
                ratings_per_user: 15,
                seed: 7,
                ..Default::default()
            },
            &ontology,
        )
        .unwrap();
        Arc::new(
            RecommenderEngine::new(
                data.matrix,
                data.profiles,
                ontology,
                EngineConfig::default(),
            )
            .unwrap(),
        )
    }

    fn group(id: u32) -> Group {
        Group::new(
            GroupId::new(id),
            [UserId::new(id * 3), UserId::new(id * 3 + 1)],
        )
        .unwrap()
    }

    /// No dispatchers: every queue state is deterministic.
    fn frozen_server(engine: &Arc<RecommenderEngine>, capacity: usize) -> Server {
        Server::new(
            Arc::clone(engine),
            ServerConfig {
                queue_capacity: capacity,
                max_batch: 16,
                workers: 0,
            },
        )
    }

    #[test]
    fn coalesced_submits_share_one_computation() {
        let e = engine();
        let server = frozen_server(&e, 8);
        let a = server.submit(group(0), 5, Deadline::none()).unwrap();
        let b = server.submit(group(0), 5, Deadline::none()).unwrap();
        let c = server.submit(group(0), 4, Deadline::none()).unwrap(); // different z
        assert!(!a.coalesced());
        assert!(b.coalesced());
        assert!(!c.coalesced());
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.completed, 2);
        let (ra, rb, rc) = (a.wait().unwrap(), b.wait().unwrap(), c.wait().unwrap());
        assert!(
            Arc::ptr_eq(&ra, &rb),
            "coalesced waiters share the same result allocation"
        );
        assert_eq!(ra.items.len(), 5);
        assert_eq!(rc.items.len(), 4);
        assert_eq!(
            *ra,
            e.recommend_for_group(&group(0), 5).unwrap(),
            "served result equals the direct call"
        );
    }

    #[test]
    fn queue_full_rejects_immediately_but_coalesced_joins_still_land() {
        let e = engine();
        let server = frozen_server(&e, 2);
        let _a = server.submit(group(0), 5, Deadline::none()).unwrap();
        let _b = server.submit(group(1), 5, Deadline::none()).unwrap();
        let rejected = server.submit(group(2), 5, Deadline::none());
        assert_eq!(
            rejected.unwrap_err(),
            FairrecError::QueueFull { capacity: 2 }
        );
        // A join consumes no capacity, so it is admitted at a full queue.
        let joined = server.submit(group(0), 5, Deadline::none()).unwrap();
        assert!(joined.coalesced());
        let stats = server.shutdown();
        assert_eq!(stats.rejected_queue_full, 1);
        assert_eq!(stats.completed, 2);
        assert!(joined.wait().is_ok());
    }

    #[test]
    fn lapsed_deadlines_are_rejected_at_admission_and_at_dispatch() {
        let e = engine();
        let server = frozen_server(&e, 8);
        // Admission-time: already lapsed.
        let pre = server.submit(group(0), 5, Deadline::at(Instant::now()));
        assert_eq!(pre.unwrap_err(), FairrecError::DeadlineExpired);
        // Dispatch-time: lapses while queued (workers: 0 — nothing
        // drains until shutdown), so the drain triages it away without
        // computing anything.
        let t = server
            .submit(group(1), 5, Deadline::within(Duration::from_millis(5)))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let stats = server.shutdown();
        assert_eq!(stats.rejected_deadline, 2);
        assert_eq!(stats.batches, 0, "no kernel time for lapsed requests");
        assert_eq!(stats.completed, 0);
        assert_eq!(t.wait().unwrap_err(), FairrecError::DeadlineExpired);
    }

    #[test]
    fn waiting_callers_give_up_when_the_budget_runs_out() {
        let e = engine();
        let server = frozen_server(&e, 8);
        let t = server
            .submit(group(0), 5, Deadline::within(Duration::from_millis(10)))
            .unwrap();
        // Nothing will ever drain this (workers: 0, no shutdown), so
        // the wait must return on its own budget.
        assert_eq!(t.wait().unwrap_err(), FairrecError::DeadlineExpired);
    }

    #[test]
    fn shutdown_rejects_new_submits_and_drains_queued_ones() {
        let e = engine();
        let server = frozen_server(&e, 8);
        let a = server.submit(group(0), 5, Deadline::none()).unwrap();
        let b = server.submit(group(1), 6, Deadline::none()).unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.completed, 2, "queued requests drain on shutdown");
        assert_eq!(
            server.submit(group(2), 5, Deadline::none()).unwrap_err(),
            FairrecError::ServerShutdown
        );
        assert_eq!(a.wait().unwrap().items.len(), 5);
        assert_eq!(b.wait().unwrap().items.len(), 6);
    }

    /// The generation key, pinned deterministically: a slot marked
    /// `Computing` under the current token is joinable; after a
    /// maintenance bump it is not — the next identical submit gets a
    /// fresh slot that displaces the stale coalescing entry.
    #[test]
    fn coalescing_is_keyed_under_the_generation_token() {
        let e = engine();
        e.warm_peer_index();
        let server = frozen_server(&e, 8);
        let _t = server.submit(group(0), 5, Deadline::none()).unwrap();
        // Simulate a dispatcher having claimed the slot mid-compute.
        {
            let state = server.core.state.lock().unwrap();
            let slot = state
                .pending
                .get(&(group(0).members().to_vec(), 5))
                .unwrap();
            slot.inner.lock().unwrap().phase = SlotPhase::Computing {
                generation: e.peer_index().generation(),
            };
        }
        let same_gen = server.submit(group(0), 5, Deadline::none()).unwrap();
        assert!(same_gen.coalesced(), "same token: join the computation");
        // A warm/ingest mid-stream bumps the token …
        e.invalidate_peers();
        e.warm_peer_index();
        // … so the identical request must NOT absorb the stale result.
        let after_bump = server.submit(group(0), 5, Deadline::none()).unwrap();
        assert!(
            !after_bump.coalesced(),
            "bumped token: a fresh slot is enqueued"
        );
        let stats = server.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.coalesced, 1);
        // The fresh slot displaced the stale pending entry; shutdown
        // drains both queued slots (the stale one was hand-marked, its
        // waiters still deliver through the drain).
        let final_stats = server.shutdown();
        assert_eq!(final_stats.completed, 2);
        assert!(after_bump.wait().is_ok());
    }

    #[test]
    fn live_dispatchers_serve_without_shutdown() {
        let e = engine();
        let server = Server::new(
            Arc::clone(&e),
            ServerConfig {
                queue_capacity: 64,
                max_batch: 4,
                workers: 2,
            },
        );
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| server.submit(group(i), 5, Deadline::none()).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t.wait().unwrap();
            assert_eq!(
                *got,
                e.recommend_for_group(&group(i as u32), 5).unwrap(),
                "request {i}"
            );
        }
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert!(
            stats.batches >= 2,
            "6 slots at max_batch 4 need ≥ 2 fan-outs"
        );
    }

    /// The panic-containment and deadline-budget contracts, driven by
    /// the dispatch hook.
    mod chaos {
        use super::*;
        use std::sync::atomic::AtomicBool;
        use std::sync::Once;

        fn quiet_injected_panics() {
            static HOOK: Once = Once::new();
            HOOK.call_once(|| {
                let previous = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    let payload = info.payload();
                    let message = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("");
                    if !message.starts_with("injected fault") {
                        previous(info);
                    }
                }));
            });
        }

        #[test]
        fn dispatcher_panics_are_contained_and_every_ticket_resolves() {
            quiet_injected_panics();
            let engine = engine();
            // Every batch computation panics while armed — batch sizing
            // varies with dispatcher timing, so only an all-or-nothing
            // rate is deterministic. (Recovery of the same server is
            // probed below, once the hook is disarmed.)
            let armed = Arc::new(AtomicBool::new(true));
            let server = {
                let armed = Arc::clone(&armed);
                Server::with_dispatch_hook(
                    Arc::clone(&engine),
                    ServerConfig {
                        queue_capacity: 256,
                        max_batch: 4,
                        workers: 2,
                    },
                    move |batch| {
                        if armed.load(Ordering::Acquire) {
                            panic!("injected fault: dispatch batch {batch}");
                        }
                    },
                )
            };

            // 48 submissions over 8 distinct groups: coalescing plus
            // small batches, every one of which the dispatcher must
            // survive.
            let tickets: Vec<_> = (0..48)
                .map(|i| {
                    server
                        .submit(group(i % 8), 5, Deadline::within(Duration::from_secs(30)))
                        .unwrap()
                })
                .collect();
            let mut internal = 0usize;
            for ticket in tickets {
                match ticket.wait() {
                    Err(FairrecError::Internal { .. }) => internal += 1,
                    outcome => panic!("expected a typed Internal rejection, got {outcome:?}"),
                }
            }
            assert_eq!(internal, 48, "every ticket must resolve, none may hang");

            // Disarmed: the same server (same dispatchers, same locks)
            // must answer cleanly — the panics leaked no poisoned state.
            armed.store(false, Ordering::Release);
            let healthy = server
                .recommend(group(3), 5, Deadline::none())
                .expect("server must stay serviceable after contained panics");
            assert!(!healthy.items.is_empty());

            let stats = server.shutdown();
            assert!(stats.panics_caught > 0, "{stats:?}");
            assert_eq!(
                stats.completed, stats.submitted,
                "every admitted slot must be delivered exactly once: {stats:?}"
            );
        }

        #[test]
        fn stalled_batch_is_cut_short_by_the_deadline_budget() {
            let engine = engine();
            // Every batch stalls 200 ms before computing; the requests
            // carry 50 ms deadlines, so they are alive at claim time but
            // lapsed at every budget checkpoint. `workers: 0`: nothing
            // drains until shutdown, so claim happens deterministically
            // after all three submits.
            let server = Server::with_dispatch_hook(
                Arc::clone(&engine),
                ServerConfig {
                    queue_capacity: 64,
                    max_batch: 16,
                    workers: 0,
                },
                |_| std::thread::sleep(Duration::from_millis(200)),
            );
            let tickets: Vec<_> = (0..3)
                .map(|i| {
                    server
                        .submit(group(i), 4, Deadline::within(Duration::from_millis(50)))
                        .unwrap()
                })
                .collect();
            let stats = server.shutdown();

            assert_eq!(stats.batches, 1, "one claimed batch: {stats:?}");
            assert_eq!(
                stats.budget_cancelled, 3,
                "all three requests lapsed mid-batch: {stats:?}"
            );
            assert_eq!(stats.completed, 3, "skipped slots still resolve: {stats:?}");
            for ticket in tickets {
                assert!(
                    matches!(ticket.wait(), Err(FairrecError::DeadlineExpired)),
                    "a budget-cancelled request resolves to DeadlineExpired"
                );
            }
        }

        #[test]
        fn shutdown_drains_even_when_every_batch_panics() {
            quiet_injected_panics();
            let engine = engine();
            let server = Server::with_dispatch_hook(
                Arc::clone(&engine),
                ServerConfig {
                    queue_capacity: 64,
                    max_batch: 16,
                    workers: 0,
                },
                |batch| panic!("injected fault: dispatch batch {batch}"),
            );
            let tickets: Vec<_> = (0..5)
                .map(|i| server.submit(group(i), 5, Deadline::none()).unwrap())
                .collect();
            // The inline drain's only batch panics; shutdown must still
            // terminate with every slot delivered a typed rejection.
            let stats = server.shutdown();

            assert_eq!(stats.panics_caught, 1, "{stats:?}");
            assert_eq!(stats.completed, 5, "{stats:?}");
            for ticket in tickets {
                assert!(
                    matches!(ticket.wait(), Err(FairrecError::Internal { .. })),
                    "a panicked batch resolves every waiter with a typed Internal error"
                );
            }
        }
    }
}
