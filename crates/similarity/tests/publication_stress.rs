//! Seeded multi-threaded stress suite for the published peer slots —
//! the headline proof of the serve-through-maintenance contract.
//!
//! N reader threads hammer recommend-shaped lookups (per-member
//! `cached_full` slot loads plus the mask+cap serving view) while one
//! maintenance thread drives the full update-path repertoire over a
//! precomputed chain of matrix states: symmetric and lazy warms,
//! per-user and blanket invalidations, exact `apply_delta` splices, and
//! blanket state jumps (the batch-ingestion shape). The suite pins:
//!
//! * **Per-generation snapshot consistency** — a reader samples the
//!   generation token, reads a group's lists, and re-samples the token;
//!   when the token did not move, every non-cold list it observed must
//!   be bitwise the oracle list of the state published under that
//!   token. A torn warm, a stale in-flight fill landing after an
//!   invalidation, or a half-applied delta would all surface as a
//!   mixed-generation snapshot here.
//! * **No deadlock / no reader exclusion** — a read waits at most for
//!   one slot's replace, never for a whole warm, so readers keep serving
//!   throughout full warms and assert they actually verified windows.
//! * **Bitwise-equal final state** — after the churn, the surviving
//!   index warms to exactly what a cold rebuild over the final matrix
//!   serves, list for list.
//!
//! Runs over the monolithic [`PeerIndex`] and the sharded
//! [`ShardedPeerIndex`], uncapped and with a saturating `max_peers`
//! cap (the dense fixture pushes full lists past the cache bound, so
//! the capped runs exercise the top-cap heap and the saturated splice
//! rules under contention). Seeded via `FAIRREC_FAULT_SEED` (the CI
//! chaos matrix), defaulting to 42.
//!
//! Random churn rarely lands a maintenance write inside the short
//! window between a fill's version observation and its version CAS, so
//! the stale-fill rule also has **forced interleavings**: a measure
//! wrapper parks a lazy fill inside its kernel pass (after the
//! observation, before the CAS) while the test changes the data and
//! runs an `invalidate_all` or a co-rater's `apply_delta` (on a warm
//! and on a fully cold index); once released, the fill's stale list
//! must not be published.

use fairrec_similarity::{
    BulkUserSimilarity, DeltaOutcome, PeerIndex, PeerSelector, Peers, RatingsSimilarity,
    ShardedPeerIndex, ShardedRatingsSimilarity, SimScratch, UserSimilarity,
};
use fairrec_types::{
    ItemId, Parallelism, Rating, RatingMatrix, RatingMatrixBuilder, ShardSpec, ShardedRatingMatrix,
    UserId,
};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Dense enough that uncapped full lists (up to 79 peers) blow past the
/// capped runs' cache bound, so stored-list saturation is actually hit.
const NUM_USERS: u32 = 80;
const NUM_ITEMS: u32 = 16;
const RATINGS_PER_USER: usize = 10;
/// States in the precomputed edit chain (state `j+1` = state `j` plus
/// one point edit by a known editor).
const NUM_STATES: usize = 16;
const READERS: usize = 4;
const MAINT_OPS: usize = 160;

fn env_seed() -> u64 {
    std::env::var("FAIRREC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A chain of matrix states differing by one rating event each — the
/// shared script both the live index (via `apply_delta`) and the
/// oracle (via cold warms) replay.
struct Chain {
    matrices: Vec<Arc<RatingMatrix>>,
    /// `editors[j]` made the edit taking state `j` to state `j + 1`.
    editors: Vec<UserId>,
}

fn build_chain(seed: u64) -> Chain {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = RatingMatrixBuilder::new().reserve_ids(NUM_USERS, NUM_ITEMS);
    for u in 0..NUM_USERS {
        let mut items: Vec<u32> = (0..NUM_ITEMS).collect();
        items.shuffle(&mut rng);
        for &i in items.iter().take(RATINGS_PER_USER) {
            let score = Rating::new(rng.gen_range(1.0..=5.0)).unwrap();
            b.add(UserId::new(u), ItemId::new(i), score);
        }
    }
    let mut matrices = vec![Arc::new(b.build().unwrap())];
    let mut editors = Vec::new();
    for _ in 1..NUM_STATES {
        let mut m = matrices.last().unwrap().as_ref().clone();
        let user = UserId::new(rng.gen_range(0..NUM_USERS));
        let item = ItemId::new(rng.gen_range(0..NUM_ITEMS));
        if m.has_rated(user, item) {
            if m.degree_of(user) > 2 && rng.gen_bool(0.4) {
                m.remove_rating(user, item).unwrap();
            } else {
                let score = Rating::new(rng.gen_range(1.0..=5.0)).unwrap();
                m.update_rating(user, item, score).unwrap();
            }
        } else {
            let score = Rating::new(rng.gen_range(1.0..=5.0)).unwrap();
            m.insert_rating(user, item, score).unwrap();
        }
        editors.push(user);
        matrices.push(Arc::new(m));
    }
    Chain { matrices, editors }
}

/// The oracle: every user's cached list after a cold symmetric warm of
/// a fresh index over `matrix` — what any generation publishing that
/// state must serve, bitwise.
fn oracle_lists(matrix: &Arc<RatingMatrix>, selector: PeerSelector) -> Vec<Arc<Peers>> {
    let index = PeerIndex::new(selector, NUM_USERS);
    index.warm_symmetric(
        &RatingsSimilarity::new(Arc::clone(matrix)),
        Parallelism::Sequential,
    );
    (0..NUM_USERS)
        .map(|u| {
            index
                .cached_full(UserId::new(u))
                .expect("warm index caches every user")
        })
        .collect()
}

/// The index surface the stress suite drives — both index shapes serve
/// it, each with the Pearson measure of its own store shape.
trait StressedIndex: Send + Sync + 'static {
    /// Pearson over one chain state, in this index's store shape.
    type Measure: BulkUserSimilarity + Send + Sync + 'static;
    fn measure(matrix: &Arc<RatingMatrix>, shards: ShardSpec) -> Self::Measure;
    fn generation(&self) -> u64;
    fn num_cached(&self) -> usize;
    /// One member's cached full list.
    fn cached_full(&self, user: UserId) -> Option<Arc<Peers>>;
    fn full_peers<M: BulkUserSimilarity + ?Sized>(&self, measure: &M, user: UserId) -> Arc<Peers>;
    fn warm<M: BulkUserSimilarity + Sync + ?Sized>(&self, measure: &M);
    fn warm_symmetric(&self, measure: &Self::Measure);
    /// Drops one user's list (the sharded surface has no single-user
    /// invalidation and drops everything).
    fn invalidate_user(&self, user: UserId);
    fn invalidate_all(&self);
    fn apply_delta<M: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &M,
        user: UserId,
    ) -> DeltaOutcome;
}

impl StressedIndex for PeerIndex {
    type Measure = RatingsSimilarity<Arc<RatingMatrix>>;
    fn measure(matrix: &Arc<RatingMatrix>, _: ShardSpec) -> Self::Measure {
        RatingsSimilarity::new(Arc::clone(matrix))
    }
    fn generation(&self) -> u64 {
        PeerIndex::generation(self)
    }
    fn num_cached(&self) -> usize {
        PeerIndex::num_cached(self)
    }
    fn cached_full(&self, user: UserId) -> Option<Arc<Peers>> {
        PeerIndex::cached_full(self, user)
    }
    fn full_peers<M: BulkUserSimilarity + ?Sized>(&self, measure: &M, user: UserId) -> Arc<Peers> {
        PeerIndex::full_peers(self, measure, user)
    }
    fn warm<M: BulkUserSimilarity + Sync + ?Sized>(&self, measure: &M) {
        PeerIndex::warm(self, measure, Parallelism::Sequential);
    }
    fn warm_symmetric(&self, measure: &Self::Measure) {
        PeerIndex::warm_symmetric(self, measure, Parallelism::Sequential);
    }
    fn invalidate_user(&self, user: UserId) {
        PeerIndex::invalidate_user(self, user);
    }
    fn invalidate_all(&self) {
        PeerIndex::invalidate_all(self);
    }
    fn apply_delta<M: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &M,
        user: UserId,
    ) -> DeltaOutcome {
        PeerIndex::apply_delta(self, measure, user)
    }
}

impl StressedIndex for ShardedPeerIndex {
    type Measure = ShardedRatingsSimilarity;
    fn measure(matrix: &Arc<RatingMatrix>, shards: ShardSpec) -> Self::Measure {
        ShardedRatingsSimilarity::new(Arc::new(
            ShardedRatingMatrix::from_matrix(matrix, shards).unwrap(),
        ))
    }
    fn generation(&self) -> u64 {
        ShardedPeerIndex::generation(self)
    }
    fn num_cached(&self) -> usize {
        ShardedPeerIndex::num_cached(self)
    }
    fn cached_full(&self, user: UserId) -> Option<Arc<Peers>> {
        ShardedPeerIndex::cached_full(self, user)
    }
    fn full_peers<M: BulkUserSimilarity + ?Sized>(&self, measure: &M, user: UserId) -> Arc<Peers> {
        ShardedPeerIndex::full_peers(self, measure, user)
    }
    fn warm<M: BulkUserSimilarity + Sync + ?Sized>(&self, measure: &M) {
        ShardedPeerIndex::warm(self, measure, Parallelism::Sequential);
    }
    fn warm_symmetric(&self, measure: &Self::Measure) {
        ShardedPeerIndex::warm_symmetric(self, measure, Parallelism::Sequential);
    }
    fn invalidate_user(&self, _: UserId) {
        ShardedPeerIndex::invalidate_all(self);
    }
    fn invalidate_all(&self) {
        ShardedPeerIndex::invalidate_all(self);
    }
    fn apply_delta<M: BulkUserSimilarity + ?Sized>(
        &self,
        measure: &M,
        user: UserId,
    ) -> DeltaOutcome {
        ShardedPeerIndex::apply_delta(self, measure, user)
    }
}

type GenTable = Arc<Mutex<HashMap<u64, usize>>>;

/// Spawns the reader threads. Each loops until `done`: sample the
/// generation, read a random group's lists (and their serving views),
/// re-sample the generation, and — when the window was
/// generation-stable and the generation is a published one — assert
/// every observed non-cold list is bitwise the oracle list of that
/// generation's state. Returns the per-reader verified-window counts.
fn spawn_readers<I: StressedIndex>(
    index: &Arc<I>,
    table: &GenTable,
    oracles: &Arc<Vec<Vec<Arc<Peers>>>>,
    selector: PeerSelector,
    done: &Arc<AtomicBool>,
    seed: u64,
) -> Vec<JoinHandle<usize>> {
    (0..READERS)
        .map(|r| {
            let index = Arc::clone(index);
            let table = Arc::clone(table);
            let oracles = Arc::clone(oracles);
            let done = Arc::clone(done);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (0xD1F_F00D + r as u64));
                let mut verified = 0usize;
                while !done.load(Ordering::Acquire) {
                    let g1 = index.generation();
                    let Some(state) = table.lock().unwrap().get(&g1).copied() else {
                        // Mid-publication: the maintenance thread has
                        // bumped but not yet recorded. Unverifiable —
                        // but also guaranteed to fail the g2 re-check.
                        continue;
                    };
                    let group: Vec<UserId> = (0..3)
                        .map(|_| UserId::new(rng.gen_range(0..NUM_USERS)))
                        .collect();
                    let observed: Vec<(UserId, Option<Arc<Peers>>)> =
                        group.iter().map(|&u| (u, index.cached_full(u))).collect();
                    if index.generation() != g1 {
                        // Maintenance moved mid-window: the snapshot
                        // spans generations by construction — discard.
                        continue;
                    }
                    for (u, got) in observed {
                        let Some(list) = got else { continue };
                        let want = &oracles[state][u.index()];
                        assert_eq!(
                            &list, want,
                            "mixed-generation snapshot: user {u} under generation {g1} \
                             (state {state}) served a list from another state"
                        );
                        // The recommend-shaped tail: the serving view is
                        // a pure mask+cap over the snapshot.
                        assert_eq!(selector.view(&list, &group), selector.view(want, &group));
                    }
                    verified += 1;
                }
                verified
            })
        })
        .collect()
}

/// Drives the seeded maintenance script: symmetric and lazy warms,
/// per-user and blanket invalidations, exact deltas along the chain and
/// blanket jumps, recording each published generation's state.
fn churn<I: StressedIndex>(
    index: &I,
    measures: &[I::Measure],
    editors: &[UserId],
    table: &GenTable,
    seed: u64,
) -> usize {
    let record = |state: usize| {
        table.lock().unwrap().insert(index.generation(), state);
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut state = 0usize;
    for _ in 0..MAINT_OPS {
        match rng.gen_range(0u32..10) {
            0 | 1 => index.warm_symmetric(&measures[state]),
            2 => index.warm(&measures[state]),
            3 | 4 => {
                for _ in 0..4 {
                    let u = UserId::new(rng.gen_range(0..NUM_USERS));
                    let _ = index.full_peers(&measures[state], u);
                }
            }
            5 => {
                index.invalidate_user(UserId::new(rng.gen_range(0..NUM_USERS)));
                record(state);
            }
            6 => {
                index.invalidate_all();
                record(state);
            }
            _ if state + 1 < measures.len() => {
                // One exact delta along the chain: cache the editor's
                // pre-change list (the exactness precondition), advance
                // the data, splice.
                let editor = editors[state];
                if index.num_cached() > 0 {
                    let _ = index.full_peers(&measures[state], editor);
                }
                state += 1;
                let _ = index.apply_delta(&measures[state], editor);
                record(state);
            }
            _ => {
                // Chain exhausted: blanket jump back to a random state —
                // the batch-ingestion shape (drop everything, new data).
                state = rng.gen_range(0..measures.len());
                index.invalidate_all();
                record(state);
            }
        }
    }
    state
}

/// One full run: spawn readers, churn, assert verified windows and the
/// bitwise-equal final state — against the monolithic oracle for either
/// index shape (the sharded index is bitwise interchangeable for any
/// shard count).
fn stress<I: StressedIndex>(index: I, shards: ShardSpec, selector: PeerSelector, seed: u64) {
    let chain = build_chain(seed);
    let measures: Vec<I::Measure> = chain
        .matrices
        .iter()
        .map(|m| I::measure(m, shards))
        .collect();
    let oracles: Arc<Vec<Vec<Arc<Peers>>>> = Arc::new(
        chain
            .matrices
            .iter()
            .map(|m| oracle_lists(m, selector))
            .collect(),
    );
    let index = Arc::new(index);
    let table: GenTable = Arc::new(Mutex::new(HashMap::new()));
    table.lock().unwrap().insert(index.generation(), 0);
    let done = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&index, &table, &oracles, selector, &done, seed);

    let final_state = churn(index.as_ref(), &measures, &chain.editors, &table, seed);

    done.store(true, Ordering::Release);
    let verified: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        verified > 0,
        "readers must verify generation-stable windows, not just spin"
    );

    // Bitwise-equal final state vs a cold rebuild: fill the cold slots
    // through the ordinary lazy path and compare list for list.
    index.warm(&measures[final_state]);
    for (u, want) in oracles[final_state].iter().enumerate() {
        assert_eq!(
            index.cached_full(UserId::new(u as u32)).as_ref(),
            Some(want),
            "final list of user {u} diverged from the cold rebuild"
        );
    }
}

fn stress_mono(selector: PeerSelector, seed: u64) {
    let index = PeerIndex::new(selector, NUM_USERS);
    stress(index, ShardSpec::new(1).unwrap(), selector, seed);
}

fn stress_sharded(selector: PeerSelector, num_shards: u32, seed: u64) {
    let spec = ShardSpec::new(num_shards).unwrap();
    stress(
        ShardedPeerIndex::new(selector, spec, NUM_USERS),
        spec,
        selector,
        seed,
    );
}

#[test]
fn mono_readers_never_see_torn_warms_uncapped() {
    stress_mono(PeerSelector::new(0.0).unwrap(), env_seed());
}

#[test]
fn mono_readers_never_see_torn_warms_capped() {
    // Cap 3 → cache bound 67 < the dense fixture's ~79-entry lists:
    // stored lists saturate, so the capped splice rules (patch /
    // invalidate / provably-untouched) and the top-cap heap all run
    // under contention.
    stress_mono(
        PeerSelector::new(0.0).unwrap().with_max_peers(3),
        env_seed(),
    );
}

#[test]
fn sharded_readers_never_see_torn_warms_uncapped() {
    stress_sharded(PeerSelector::new(0.0).unwrap(), 3, env_seed());
}

#[test]
fn sharded_readers_never_see_torn_warms_capped() {
    stress_sharded(
        PeerSelector::new(0.0).unwrap().with_max_peers(3),
        3,
        env_seed(),
    );
}

type Measure = Arc<dyn BulkUserSimilarity + Send + Sync>;

/// A measure over swappable data whose kernel pass for `target` parks
/// once — after computing its output from the data it started on, i.e.
/// after the fill's version observation and before its CAS — until the
/// test releases it.
struct Parked {
    data: Mutex<Measure>,
    target: UserId,
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl Parked {
    fn current(&self) -> Measure {
        Arc::clone(&self.data.lock().unwrap())
    }
}

impl UserSimilarity for Parked {
    fn similarity(&self, u: UserId, v: UserId) -> Option<f64> {
        self.current().similarity(u, v)
    }

    fn name(&self) -> &'static str {
        "parked"
    }
}

impl BulkUserSimilarity for Parked {
    fn similarities_from(
        &self,
        u: UserId,
        num_users: u32,
        scratch: &mut SimScratch,
        out: &mut Vec<(UserId, f64)>,
    ) {
        self.current().similarities_from(u, num_users, scratch, out);
        if u == self.target {
            if let Some((entered, release)) = self.gate.lock().unwrap().take() {
                entered.send(()).unwrap();
                release.recv().unwrap();
            }
        }
    }

    fn is_symmetric(&self) -> bool {
        self.current().is_symmetric()
    }
}

/// What runs while the fill is parked.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Interleaved {
    /// The blanket path after a bulk data change.
    InvalidateAll,
    /// The exact delta of an editor who co-rates the parked user.
    CoRaterDelta,
    /// The same editor's delta on a fully cold index (no pre-warm): the
    /// delta has nothing to splice and answers `ColdIndex`.
    ColdDelta,
}

/// The first chain edit and a user whose list it changes: the editor
/// co-rates them, so their state-0 and state-1 oracle lists differ.
struct Interleaving {
    chain: Chain,
    editor: UserId,
    target: UserId,
    /// The target's state-1 list.
    want: Arc<Peers>,
}

impl Interleaving {
    fn new() -> Self {
        let chain = build_chain(env_seed());
        let selector = PeerSelector::new(0.0).unwrap();
        let [old, new] = [0, 1].map(|j| oracle_lists(&chain.matrices[j], selector));
        let editor = chain.editors[0];
        let target = old[editor.index()]
            .iter()
            .map(|&(v, _)| v)
            .find(|v| old[v.index()] != new[v.index()])
            .expect("the edit changes some co-rater's list");
        let want = Arc::clone(&new[target.index()]);
        Self {
            chain,
            editor,
            target,
            want,
        }
    }

    /// Parks a lazy fill of the target on state-0 data, moves the data
    /// to state 1 and runs `step` while it is parked, releases it, and
    /// asserts that the fill's stale list was not published: the slot
    /// is cold or holds the state-1 list, and serving reads the state-1
    /// list.
    fn run<I: StressedIndex>(&self, index: I, shards: ShardSpec, step: Interleaved) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let [before, after] =
            [0, 1].map(|j| Arc::new(I::measure(&self.chain.matrices[j], shards)) as Measure);
        let parked = Arc::new(Parked {
            data: Mutex::new(before),
            target: self.target,
            gate: Mutex::new(None),
        });
        if step == Interleaved::CoRaterDelta {
            // `apply_delta`'s precondition: the editor's pre-change list
            // is cached (which also keeps the index out of the cold
            // no-op).
            let _ = index.full_peers(&parked, self.editor);
        }
        *parked.gate.lock().unwrap() = Some((entered_tx, release_rx));
        let index = Arc::new(index);
        let filler = {
            let (index, parked, target) = (Arc::clone(&index), Arc::clone(&parked), self.target);
            std::thread::spawn(move || index.full_peers(&parked, target))
        };
        entered_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the fill of the target parks inside its kernel pass");
        *parked.data.lock().unwrap() = after;
        match step {
            Interleaved::InvalidateAll => index.invalidate_all(),
            Interleaved::CoRaterDelta => {
                let outcome = index.apply_delta(parked.as_ref(), self.editor);
                assert!(
                    matches!(outcome, DeltaOutcome::Spliced { .. }),
                    "the delta must splice, got {outcome:?}"
                );
            }
            Interleaved::ColdDelta => {
                let outcome = index.apply_delta(parked.as_ref(), self.editor);
                assert_eq!(outcome, DeltaOutcome::ColdIndex);
            }
        }
        release_tx.send(()).unwrap();
        filler.join().unwrap();
        if let Some(cached) = index.cached_full(self.target) {
            assert_eq!(
                cached, self.want,
                "{step:?}: a fill computed before the change was published after it"
            );
        }
        assert_eq!(
            index.full_peers(parked.as_ref(), self.target),
            self.want,
            "{step:?}"
        );
    }
}

#[test]
fn parked_fills_lose_to_concurrent_maintenance() {
    let interleaving = Interleaving::new();
    let selector = PeerSelector::new(0.0).unwrap();
    for step in [
        Interleaved::InvalidateAll,
        Interleaved::CoRaterDelta,
        Interleaved::ColdDelta,
    ] {
        let one = ShardSpec::new(1).unwrap();
        interleaving.run(PeerIndex::new(selector, NUM_USERS), one, step);
        for num_shards in [1, 4] {
            let spec = ShardSpec::new(num_shards).unwrap();
            interleaving.run(ShardedPeerIndex::new(selector, spec, NUM_USERS), spec, step);
        }
    }
}
