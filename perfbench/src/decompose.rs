//! The traced decomposition of one group request into the public calls
//! of each layer, timed from outside the program:
//!
//! similarity (`full_peers` per member) → core (`predictions_for`,
//! `CandidatePool::from_predictions`, `FairnessEvaluator::new` +
//! `algorithm1`) → engine (`recommend_for_group`, whose remainder is
//! assembly) → metrics (`FairnessMonitor::observe_recommendation`).
//!
//! The package rebuilt from the stage outputs must equal the package
//! `recommend_for_group` returns, so the stages provably are the request.

use crate::check::digest;
use fairrec_core::{algorithm1, plain_top_z, CandidatePool, FairnessEvaluator, Group};
use fairrec_engine::RecommendationObserver;
use fairrec_engine::{GroupRecommendation, RecommenderEngine, SelectionAlgorithm};
use fairrec_metrics::FairnessMonitor;
use std::time::Instant;

/// Stage times of one replayed request, in seconds unless noted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// First `full_peers` lookup of every member (fills cold slots).
    pub peers: f64,
    /// Members whose list was not cached before the lookup.
    pub cold_members: usize,
    pub members: usize,
    /// `predictions_for` minus the warm peer lookups it repeats:
    /// Equation 1.
    pub predict: f64,
    pub pool: f64,
    pub pool_items: usize,
    /// `FairnessEvaluator::new` + `algorithm1` + padding to z.
    pub select: f64,
    /// `observe_recommendation` on the installed monitor (0 without).
    pub observe: f64,
    /// `recommend_for_group` minus every stage above it re-ran.
    pub assemble: f64,
    /// The request as served: peers + predict + pool + select + observe
    /// + assemble.
    pub request: f64,
}

/// Replays `(group, z)` stage by stage on `engine` and checks the
/// rebuilt package against `recommend_for_group`. Returns the stage
/// times and the package's digest.
pub fn decompose(
    engine: &RecommenderEngine,
    group: &Group,
    z: usize,
    monitor: Option<&FairnessMonitor>,
) -> Result<(Stages, u64), String> {
    let config = engine.config();
    if config.algorithm != SelectionAlgorithm::Greedy {
        return Err("the decomposition replays Algorithm 1 only".to_owned());
    }
    let index = engine.peer_index();
    let members = group.members();
    let cold_members = members
        .iter()
        .filter(|&&m| index.cached_full(m).is_none())
        .count();

    let t0 = Instant::now();
    for &m in members {
        std::hint::black_box(index.full_peers(engine.measure(), m));
    }
    let t1 = Instant::now();
    for &m in members {
        std::hint::black_box(index.full_peers(engine.measure(), m));
    }
    let t2 = Instant::now();
    let predictions = engine.predictions_for(group).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let pool = CandidatePool::from_predictions(&predictions, config.pool_size)
        .map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    let evaluator = FairnessEvaluator::new(&pool, config.k).map_err(|e| e.to_string())?;
    let mut positions = algorithm1(&pool, z, config.k).positions;
    let target = z.min(pool.num_items());
    if config.pad_to_z && positions.len() < target {
        for j in plain_top_z(&pool, pool.num_items()).positions {
            if positions.len() >= target {
                break;
            }
            if !positions.contains(&j) {
                positions.push(j);
            }
        }
    }
    let t5 = Instant::now();
    let rec = engine
        .recommend_for_group(group, z)
        .map_err(|e| e.to_string())?;
    let t6 = Instant::now();
    let observe = match monitor {
        Some(monitor) => {
            let t = Instant::now();
            monitor.observe_recommendation(group, z, &rec, engine.ratings().reads());
            t.elapsed().as_secs_f64()
        }
        None => 0.0,
    };
    same_package(&rec, &pool, &evaluator, &positions)?;

    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let peers = secs(t0, t1);
    let warm_lookup = secs(t1, t2);
    let predictions_call = secs(t2, t3);
    let pool_time = secs(t3, t4);
    let select = secs(t4, t5);
    let served = secs(t5, t6);
    Ok((
        Stages {
            peers,
            cold_members,
            members: members.len(),
            predict: predictions_call - warm_lookup,
            pool: pool_time,
            pool_items: pool.num_items(),
            select,
            observe,
            assemble: served - predictions_call - pool_time - select - observe,
            request: served + peers - warm_lookup,
        },
        digest(&rec),
    ))
}

/// The package rebuilt from the stage outputs equals the served one:
/// same items in the same order, same Definition-3 fairness and value
/// bits, same pool size.
fn same_package(
    rec: &GroupRecommendation,
    pool: &CandidatePool,
    evaluator: &FairnessEvaluator,
    positions: &[usize],
) -> Result<(), String> {
    let items: Vec<_> = positions.iter().map(|&j| pool.items()[j]).collect();
    let served: Vec<_> = rec.items.iter().map(|i| i.item).collect();
    if items != served
        || evaluator.fairness(positions).to_bits() != rec.fairness.to_bits()
        || evaluator.value(pool, positions).to_bits() != rec.value.to_bits()
        || pool.num_items() != rec.pool_size
    {
        return Err(format!(
            "decomposed package {items:?} (fairness {}) differs from recommend_for_group {served:?} (fairness {})",
            evaluator.fairness(positions),
            rec.fairness
        ));
    }
    Ok(())
}

/// Means of the stage times over a replay, in the per-layer units.
#[derive(Debug, Default)]
pub struct StageSums {
    sum: Stages,
    n: usize,
}

impl StageSums {
    pub fn add(&mut self, s: &Stages) {
        let t = &mut self.sum;
        t.peers += s.peers;
        t.cold_members += s.cold_members;
        t.members += s.members;
        t.predict += s.predict;
        t.pool += s.pool;
        t.pool_items += s.pool_items;
        t.select += s.select;
        t.observe += s.observe;
        t.assemble += s.assemble;
        t.request += s.request;
        self.n += 1;
    }

    pub fn report(&self, report: &mut crate::report::Report) {
        let n = self.n.max(1) as f64;
        let t = &self.sum;
        report.metric("similarity.peers_us", t.peers / n * 1e6, "us");
        report.metric(
            "similarity.cold_frac",
            t.cold_members as f64 / t.members.max(1) as f64,
            "ratio",
        );
        report.metric("core.predict_ms", t.predict / n * 1e3, "ms");
        report.metric("core.predict_share", t.predict / t.request, "ratio");
        report.metric("core.pool_us", t.pool / n * 1e6, "us");
        report.metric("core.pool_items", t.pool_items as f64 / n, "count");
        report.metric("core.select_us", t.select / n * 1e6, "us");
        report.metric("metrics.observe_us", t.observe / n * 1e6, "us");
        report.metric("engine.assemble_us", t.assemble / n * 1e6, "us");
        report.metric("engine.request_ms", t.request / n * 1e3, "ms");
        let stage_sum = t.peers + t.predict + t.pool + t.select + t.observe + t.assemble;
        report.meta("replayed_requests", self.n);
        report.meta(
            "replay_stage_sum_ms",
            crate::report::json_num(stage_sum / n * 1e3),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::{load, mix, tiny};
    use crate::rng::Rng;
    use fairrec_engine::EngineConfig;
    use fairrec_types::GroupId;

    #[test]
    fn the_decomposition_equals_recommend_for_group_on_mono_and_sharded() {
        let cohort = tiny();
        for num_shards in [None, Some(4)] {
            let config = EngineConfig {
                num_shards,
                ..EngineConfig::default()
            };
            let (engine, _, _) = load(&cohort, config).unwrap();
            // A cold twin exercises the cold-fill path of the peers stage.
            let cold =
                crate::check::oracle_engine(&cohort, cohort.matrix().unwrap(), config).unwrap();
            let mut rng = Rng::new(5, 0);
            for k in 0..21 {
                let (size, z) = mix(k);
                let group =
                    Group::new(GroupId::new(k as u32), cohort.draw_group(&mut rng, size)).unwrap();
                let served = digest(&engine.recommend_for_group(&group, z).unwrap());
                let (warm_stages, d) = decompose(&engine, &group, z, None).unwrap();
                assert_eq!(d, served, "{num_shards:?} group {k}");
                assert_eq!(warm_stages.cold_members, 0);
                let (cold_stages, d) = decompose(&cold, &group, z, None).unwrap();
                assert_eq!(d, served, "{num_shards:?} cold group {k}");
                assert!(cold_stages.cold_members > 0 || k > 0);
                let s = cold_stages;
                let sum = s.peers + s.predict + s.pool + s.select + s.observe + s.assemble;
                assert!((sum - s.request).abs() <= 1e-9 * s.request.max(1.0));
            }
        }
    }
}
