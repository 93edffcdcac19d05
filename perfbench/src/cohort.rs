//! Seeded cohorts, their TSV form, and the timed set-up that turns the
//! TSV bytes into a warm engine.

use crate::rng::Rng;
use fairrec_data::{tsv, SyntheticConfig, SyntheticDataset};
use fairrec_engine::{EngineConfig, RecommenderEngine};
use fairrec_ontology::snomed::clinical_fragment;
use fairrec_ontology::Ontology;
use fairrec_types::{ItemId, RatingMatrix, Result, UserId};
use std::time::{Duration, Instant};

/// Cohort shape: users × ratings per user, over `items` documents in
/// `communities` planted communities.
#[derive(Debug, Clone, Copy)]
pub struct CohortSpec {
    pub users: u32,
    pub items: u32,
    pub communities: u32,
    pub ratings_per_user: u32,
}

/// The cohort every workload times its set-up on (`setup_s`), each with
/// its own engine configuration. At 5000 × 40 the parse, tf-idf build
/// and symmetric warm take well over 100 ms, long enough to time
/// steadily; the 1000-user stores that `serve_open` and `churn_sharded`
/// serve set up in ≈30 ms, which page faults and allocator state swing
/// by a third between launches.
pub const SETUP_SPEC: CohortSpec = CohortSpec {
    users: 5000,
    items: 10000,
    communities: 4,
    ratings_per_user: 40,
};

/// Seed of every workload's patient population. The population is
/// fixed like a benchmark dataset; `--seed` draws the traffic over it
/// (groups, arrival times, ingest batches). A seeded population would
/// swing the served-quality means by several percent between seeds.
pub const COHORT_SEED: u64 = 2017;

/// A generated cohort in the form the program loads: TSV bytes plus the
/// ontology the profiles reference. Generation is not timed.
pub struct Cohort {
    pub spec: CohortSpec,
    pub ratings_tsv: Vec<u8>,
    pub profiles_tsv: Vec<u8>,
    pub ontology: Ontology,
    /// Users of each planted community, ascending.
    pub community_users: Vec<Vec<UserId>>,
    /// Items of each planted community, ascending.
    pub community_items: Vec<Vec<ItemId>>,
    pub user_community: Vec<u32>,
    pub item_community: Vec<u32>,
}

impl Cohort {
    pub fn generate(spec: CohortSpec) -> Result<Self> {
        let ontology = clinical_fragment();
        let data = SyntheticDataset::generate(
            SyntheticConfig {
                num_users: spec.users,
                num_items: spec.items,
                num_communities: spec.communities,
                ratings_per_user: spec.ratings_per_user,
                seed: COHORT_SEED,
                ..Default::default()
            },
            &ontology,
        )?;
        let mut ratings_tsv = Vec::new();
        tsv::write_ratings(&data.matrix, &mut ratings_tsv)?;
        let mut profiles_tsv = Vec::new();
        tsv::write_profiles(&data.profiles, &ontology, &mut profiles_tsv)?;
        let model = &data.communities;
        Ok(Self {
            spec,
            ratings_tsv,
            profiles_tsv,
            ontology,
            community_users: (0..spec.communities)
                .map(|c| model.users_of_community(c))
                .collect(),
            community_items: (0..spec.communities)
                .map(|c| model.items_of_community(c))
                .collect(),
            user_community: (0..spec.users)
                .map(|u| model.user_community(UserId::new(u)))
                .collect(),
            item_community: (0..spec.items)
                .map(|i| model.item_community(ItemId::new(i)))
                .collect(),
        })
    }

    /// Parses the ratings TSV (untimed helper for oracles).
    pub fn matrix(&self) -> Result<RatingMatrix> {
        tsv::read_ratings(&self.ratings_tsv[..], Some(self.id_space()))
    }

    pub fn id_space(&self) -> (u32, u32) {
        (self.spec.users, self.spec.items)
    }

    /// A caregiver group of `size` distinct members, each drawn from a
    /// uniformly chosen community (so groups mix communities).
    pub fn draw_group(&self, rng: &mut Rng, size: usize) -> Vec<UserId> {
        let mut members: Vec<UserId> = Vec::with_capacity(size);
        while members.len() < size {
            let community = &self.community_users[rng.below(self.community_users.len())];
            if community.is_empty() {
                continue;
            }
            let user = community[rng.below(community.len())];
            if !members.contains(&user) {
                members.push(user);
            }
        }
        members.sort_unstable();
        members
    }

    /// A new rating by `user` under the generator's own model: an item of
    /// the user's community with probability 0.8, scored by
    /// [`score`](Self::score), so ingested ratings keep the population's
    /// shape.
    pub fn draw_rating(&self, rng: &mut Rng, user: UserId) -> (UserId, ItemId, f64) {
        let pool = &self.community_items[self.user_community[user.index()] as usize];
        let item = if rng.unit() < SyntheticConfig::default().in_community_bias && !pool.is_empty()
        {
            pool[rng.below(pool.len())]
        } else {
            ItemId::new(rng.below(self.spec.items as usize) as u32)
        };
        (user, item, self.score(rng, user, item))
    }

    /// The generator's score for `user` on `item`: around 4.3 inside the
    /// user's community and 1.8 outside (±0.7, rounded, clamped to 1–5).
    pub fn score(&self, rng: &mut Rng, user: UserId, item: ItemId) -> f64 {
        let defaults = SyntheticConfig::default();
        let base = if self.item_community[item.index()] == self.user_community[user.index()] {
            defaults.in_community_mean
        } else {
            defaults.out_community_mean
        };
        let noise = (2.0 * rng.unit() - 1.0) * defaults.rating_noise;
        (base + noise).round().clamp(1.0, 5.0)
    }
}

/// Package sizes of the request mix; with groups of 2–8 members, z = 3
/// and z = 5 often fall below |G|, where Definition 3 can drop below 1.
pub const Z_MIX: [usize; 3] = [3, 5, 10];

/// Group size of the `k`-th request: 2–8 in a fixed cycle, so every
/// seed offers the same mix of sizes and only the members vary.
pub fn mix_size(k: usize) -> usize {
    2 + k % 7
}

/// `(group size, z)` of the `k`-th request: every size meets every z
/// once per 21 requests.
pub fn mix(k: usize) -> (usize, usize) {
    (mix_size(k), Z_MIX[(k / 7) % Z_MIX.len()])
}

/// `(group size, z)` of every freshness request: fixed, so `fresh_p50_ms`
/// compares like with like across seeds; z = |G|.
pub const FRESH_SHAPE: (usize, usize) = (5, 5);

/// Where one set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parse: Duration,
    pub build: Duration,
    pub warm: Duration,
    pub warm_lists: usize,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.parse + self.build + self.warm
    }
}

/// The timed set-up: parse the TSV bytes, build the engine, warm its
/// peer index. Returns the engine and the set-up's start instant.
pub fn load(
    cohort: &Cohort,
    config: EngineConfig,
) -> Result<(RecommenderEngine, SetupTimes, Instant)> {
    let ontology = cohort.ontology.clone();
    let start = Instant::now();
    let matrix = tsv::read_ratings(&cohort.ratings_tsv[..], Some(cohort.id_space()))?;
    let profiles = tsv::read_profiles(&cohort.profiles_tsv[..], &ontology)?;
    let parsed = Instant::now();
    let engine = RecommenderEngine::new(matrix, profiles, ontology, config)?;
    let built = Instant::now();
    let warm_lists = engine.warm_peer_index();
    let warmed = Instant::now();
    Ok((
        engine,
        SetupTimes {
            parse: parsed - start,
            build: built - parsed,
            warm: warmed - built,
            warm_lists,
        },
        start,
    ))
}

#[cfg(test)]
pub(crate) fn tiny() -> Cohort {
    Cohort::generate(CohortSpec {
        users: 120,
        items: 240,
        communities: 4,
        ratings_per_user: 25,
    })
    .expect("valid cohort")
}
