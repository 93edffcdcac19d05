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

use fairrec_similarity::{
    PeerIndex, PeerSelector, Peers, RatingsSimilarity, ShardedPeerIndex, ShardedRatingsSimilarity,
};
use fairrec_types::{
    ItemId, Parallelism, Rating, RatingMatrix, RatingMatrixBuilder, ShardSpec, ShardedRatingMatrix,
    UserId,
};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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

/// The read surface the stress readers exercise — both index shapes
/// serve it.
trait SnapshotRead: Send + Sync + 'static {
    fn generation(&self) -> u64;
    /// One member's cached full list.
    fn cached_full(&self, user: UserId) -> Option<Arc<Peers>>;
}

impl SnapshotRead for PeerIndex {
    fn generation(&self) -> u64 {
        PeerIndex::generation(self)
    }
    fn cached_full(&self, user: UserId) -> Option<Arc<Peers>> {
        PeerIndex::cached_full(self, user)
    }
}

impl SnapshotRead for ShardedPeerIndex {
    fn generation(&self) -> u64 {
        ShardedPeerIndex::generation(self)
    }
    fn cached_full(&self, user: UserId) -> Option<Arc<Peers>> {
        ShardedPeerIndex::cached_full(self, user)
    }
}

type GenTable = Arc<Mutex<HashMap<u64, usize>>>;

/// Spawns the reader threads. Each loops until `done`: sample the
/// generation, read a random group's lists (and their serving views),
/// re-sample the generation, and — when the window was
/// generation-stable and the generation is a published one — assert
/// every observed non-cold list is bitwise the oracle list of that
/// generation's state. Returns the per-reader verified-window counts.
fn spawn_readers<I: SnapshotRead>(
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

/// Drives the seeded maintenance script against the monolithic index.
fn churn_mono(index: &PeerIndex, chain: &Chain, table: &GenTable, seed: u64) -> usize {
    let measure = |state: usize| RatingsSimilarity::new(Arc::clone(&chain.matrices[state]));
    let record = |state: usize| {
        table.lock().unwrap().insert(index.generation(), state);
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut state = 0usize;
    for _ in 0..MAINT_OPS {
        match rng.gen_range(0u32..10) {
            0 | 1 => {
                index.warm_symmetric(&measure(state), Parallelism::Sequential);
            }
            2 => {
                index.warm(&measure(state), Parallelism::Sequential);
            }
            3 | 4 => {
                for _ in 0..4 {
                    let u = UserId::new(rng.gen_range(0..NUM_USERS));
                    let _ = index.full_peers(&measure(state), u);
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
            _ if state + 1 < chain.matrices.len() => {
                // One exact delta along the chain: cache the editor's
                // pre-change list (the exactness precondition), advance
                // the data, splice.
                let editor = chain.editors[state];
                if index.num_cached() > 0 {
                    let _ = index.full_peers(&measure(state), editor);
                }
                state += 1;
                let _ = index.apply_delta(&measure(state), editor);
                record(state);
            }
            _ => {
                // Chain exhausted: blanket jump back to a random state —
                // the batch-ingestion shape (drop everything, new data).
                state = rng.gen_range(0..chain.matrices.len());
                index.invalidate_all();
                record(state);
            }
        }
    }
    state
}

/// Drives the same script against the sharded index (per-user
/// invalidation degrades to the blanket — the sharded surface has no
/// single-user invalidation).
fn churn_sharded(
    index: &ShardedPeerIndex,
    chain: &[Arc<ShardedRatingMatrix>],
    editors: &[UserId],
    table: &GenTable,
    seed: u64,
) -> usize {
    let measure = |state: usize| ShardedRatingsSimilarity::new(Arc::clone(&chain[state]));
    let record = |state: usize| {
        table.lock().unwrap().insert(index.generation(), state);
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut state = 0usize;
    for _ in 0..MAINT_OPS {
        match rng.gen_range(0u32..10) {
            0 | 1 => {
                index.warm_symmetric(&measure(state), Parallelism::Sequential);
            }
            2 => {
                index.warm(&measure(state), Parallelism::Sequential);
            }
            3 | 4 => {
                for _ in 0..4 {
                    let u = UserId::new(rng.gen_range(0..NUM_USERS));
                    let _ = index.full_peers(&measure(state), u);
                }
            }
            5 | 6 => {
                index.invalidate_all();
                record(state);
            }
            _ if state + 1 < chain.len() => {
                let editor = editors[state];
                index.prepare_delta(&measure(state), editor);
                state += 1;
                let _ = index.apply_delta(&measure(state), editor);
                record(state);
            }
            _ => {
                state = rng.gen_range(0..chain.len());
                index.invalidate_all();
                record(state);
            }
        }
    }
    state
}

/// One full mono run: spawn readers, churn, assert verified windows and
/// the bitwise-equal final state.
fn stress_mono(selector: PeerSelector, seed: u64) {
    let chain = build_chain(seed);
    let oracles: Arc<Vec<Vec<Arc<Peers>>>> = Arc::new(
        chain
            .matrices
            .iter()
            .map(|m| oracle_lists(m, selector))
            .collect(),
    );
    let index = Arc::new(PeerIndex::new(selector, NUM_USERS));
    let table: GenTable = Arc::new(Mutex::new(HashMap::new()));
    table.lock().unwrap().insert(index.generation(), 0);
    let done = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&index, &table, &oracles, selector, &done, seed);

    let final_state = churn_mono(&index, &chain, &table, seed);

    done.store(true, Ordering::Release);
    let verified: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        verified > 0,
        "readers must verify generation-stable windows, not just spin"
    );

    // Bitwise-equal final state vs a cold rebuild: fill the cold slots
    // through the ordinary lazy path and compare list for list.
    let measure = RatingsSimilarity::new(Arc::clone(&chain.matrices[final_state]));
    index.warm(&measure, Parallelism::Sequential);
    for (u, want) in oracles[final_state].iter().enumerate() {
        assert_eq!(
            index.cached_full(UserId::new(u as u32)).as_ref(),
            Some(want),
            "final list of user {u} diverged from the cold rebuild"
        );
    }
}

/// One full sharded run, against the same monolithic oracle (the
/// sharded index is bitwise interchangeable for any shard count).
fn stress_sharded(selector: PeerSelector, num_shards: u32, seed: u64) {
    let chain = build_chain(seed);
    let spec = ShardSpec::new(num_shards).unwrap();
    let sharded: Vec<Arc<ShardedRatingMatrix>> = chain
        .matrices
        .iter()
        .map(|m| Arc::new(ShardedRatingMatrix::from_matrix(m, spec).unwrap()))
        .collect();
    let oracles: Arc<Vec<Vec<Arc<Peers>>>> = Arc::new(
        chain
            .matrices
            .iter()
            .map(|m| oracle_lists(m, selector))
            .collect(),
    );
    let index = Arc::new(ShardedPeerIndex::new(selector, spec, NUM_USERS));
    let table: GenTable = Arc::new(Mutex::new(HashMap::new()));
    table.lock().unwrap().insert(index.generation(), 0);
    let done = Arc::new(AtomicBool::new(false));
    let readers = spawn_readers(&index, &table, &oracles, selector, &done, seed);

    let final_state = churn_sharded(&index, &sharded, &chain.editors, &table, seed);

    done.store(true, Ordering::Release);
    let verified: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        verified > 0,
        "readers must verify generation-stable windows, not just spin"
    );

    let measure = ShardedRatingsSimilarity::new(Arc::clone(&sharded[final_state]));
    index.warm(&measure, Parallelism::Sequential);
    for (u, want) in oracles[final_state].iter().enumerate() {
        assert_eq!(
            index.cached_full(UserId::new(u as u32)).as_ref(),
            Some(want),
            "final list of user {u} diverged from the cold rebuild"
        );
    }
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
