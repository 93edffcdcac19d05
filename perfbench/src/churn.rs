//! `churn_sharded`: one closed-loop client over a 4-shard store that
//! alternates a fixed number of requests with one rating-ingest batch.
//!
//! Ingests sit at fixed request indices, never on a wall clock, so the
//! served packages depend only on the seed. Most batches are small and
//! take the delta route; every [`BLANKET_EVERY`]th rewrites one rating
//! of every user and takes the blanket route, after which a background
//! thread re-warms the peer index while the client keeps serving, so
//! reads overlap a publication.

use crate::check::{digest, oracle_check, oracle_engine, Quality};
use crate::cohort::{load, mix, Cohort, CohortSpec, SetupTimes, FRESH_SHAPE, SETUP_SPEC};
use crate::decompose::{decompose, StageSums};
use crate::report::{json_num, Report};
use crate::rng::Rng;
use crate::stats::{mean, median, tail};
use crate::trace::SpanLog;
use crate::Args;
use fairrec_core::Group;
use fairrec_engine::{BatchPeerMaintenance, EngineConfig, RecommenderEngine};
use fairrec_types::{GroupId, ItemId, RatingMatrix, RatingMatrixBuilder, Result, UserId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const SPEC: CohortSpec = CohortSpec {
    users: 1000,
    items: 2000,
    communities: 4,
    ratings_per_user: 40,
};
pub const SHARDS: u32 = 4;
/// The ingest mix is assumed, not taken from a trace (none is published
/// for caregiver platforms): 48 batches a pass, every
/// [`BLANKET_EVERY`]th a blanket, the rest [`DELTA_USERS`] ×
/// [`DELTA_EVENTS_PER_USER`] new ratings, each followed by
/// [`REQUESTS_PER_SEGMENT`] requests. These values set
/// `engine.ingest_delta_frac` and `engine.delta_touched` by construction.
/// 48 segments give each pass 48 distinct freshness samples, so the
/// `fresh_p50_ms` median does not hinge on a few drawn groups.
const BATCHES: usize = 48;
const REQUESTS_PER_SEGMENT: usize = 10;
const BLANKET_EVERY: usize = 4;
/// A delta batch: this many users, each writing this many ratings.
const DELTA_USERS: usize = 2;
const DELTA_EVENTS_PER_USER: usize = 2;
/// Enough passes that each request's median over them is a middle value.
const MIN_PASSES: usize = 3;
/// Set-ups timed on the set-up cohort before the passes.
const SETUPS: usize = 9;
/// Requests per ingest epoch the oracle recomputes (the first is the
/// freshness request, which holds an ingested user).
const ORACLE_PER_EPOCH: usize = 3;

pub fn config() -> EngineConfig {
    EngineConfig {
        num_shards: Some(SHARDS),
        parallelism: fairrec_types::Parallelism::Sequential,
        ..EngineConfig::default()
    }
}

type Event = (UserId, ItemId, f64);

/// The seeded pass: `BATCHES + 1` request segments separated by ingest
/// batches.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub segments: Vec<Vec<(Vec<UserId>, usize)>>,
    pub batches: Vec<Vec<Event>>,
}

fn is_blanket(batch: usize) -> bool {
    batch % BLANKET_EVERY == BLANKET_EVERY - 1
}

/// The seeded plan over the cohort's `initial` relation. Delta batches
/// add new ratings; a blanket batch re-scores one existing rating of
/// every user, which rewrites enough of the relation to take the blanket
/// route while keeping its co-rating structure.
pub fn plan(cohort: &Cohort, initial: &RatingMatrix, seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 3);
    let users = cohort.spec.users as usize;
    let mut segments = Vec::with_capacity(BATCHES + 1);
    let mut batches: Vec<Vec<Event>> = Vec::with_capacity(BATCHES);
    for s in 0..=BATCHES {
        let mut segment: Vec<(Vec<UserId>, usize)> = (0..REQUESTS_PER_SEGMENT)
            .map(|j| {
                let (size, z) = match j {
                    0 => FRESH_SHAPE,
                    _ => mix(s * REQUESTS_PER_SEGMENT + j),
                };
                (cohort.draw_group(&mut rng, size), z)
            })
            .collect();
        if let Some(batch) = s.checked_sub(1).map(|b| &batches[b]) {
            // The freshness request holds a user the batch just wrote.
            let ingested = batch[rng.below(batch.len())].0;
            let members = &mut segment[0].0;
            if !members.contains(&ingested) {
                members[0] = ingested;
                members.sort_unstable();
            }
        }
        segments.push(segment);
        if s == BATCHES {
            break;
        }
        let batch = if is_blanket(s) {
            (0..users)
                .map(|u| {
                    let user = UserId::new(u as u32);
                    let rated = initial.items_of(user);
                    let item = rated[rng.below(rated.len())];
                    (user, item, cohort.score(&mut rng, user, item))
                })
                .collect()
        } else {
            (0..DELTA_USERS)
                .flat_map(|_| {
                    let user = UserId::new(rng.below(users) as u32);
                    (0..DELTA_EVENTS_PER_USER)
                        .map(|_| cohort.draw_rating(&mut rng, user))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        batches.push(batch);
    }
    Plan { segments, batches }
}

/// What the client does with each request of a pass.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `recommend_for_group`, timed.
    Serve,
    /// The stage-by-stage replay.
    Decompose,
}

#[derive(Default)]
struct Pass {
    /// Per request in plan order: the latency, `None` when it failed.
    latency_ms: Vec<Option<f64>>,
    fresh_ms: Vec<f64>,
    /// Per request in plan order: the package digest.
    served: Vec<Option<u64>>,
    quality: Quality,
    /// Per batch: route, touched lists, wall time.
    ingests: Vec<(BatchPeerMaintenance, usize, f64)>,
    /// Background warms: lists, wall time.
    rewarms: Vec<(usize, f64)>,
    /// Client time: requests plus ingests, set-up excluded.
    busy: Duration,
    failed: usize,
    stages: StageSums,
    errors: Vec<String>,
}

/// One pass of the plan on a freshly set-up engine; `spans` records the
/// calls of a traced pass.
fn run_pass(
    cohort: &Cohort,
    plan: &Plan,
    mode: Mode,
    mut spans: Option<&mut SpanLog>,
) -> Result<Pass> {
    let (mut engine, _, _) = load(cohort, config())?;
    let mut pass = Pass::default();
    let began = Instant::now();
    let mut ingest_start: Option<Instant> = None;
    let mut id = 0u32;
    for (s, segment) in plan.segments.iter().enumerate() {
        let rewarm = s > 0 && is_blanket(s - 1);
        let engine_ref: &RecommenderEngine = &engine;
        let warm = std::thread::scope(|scope| {
            let warm = rewarm.then(|| {
                scope.spawn(move || {
                    let t = Instant::now();
                    let lists = engine_ref.warm_peer_index();
                    (lists, t, Instant::now())
                })
            });
            for (j, (members, z)) in segment.iter().enumerate() {
                let group = Group::new(GroupId::new(id), members.iter().copied())
                    .expect("drawn groups are non-empty");
                id += 1;
                let t = Instant::now();
                let outcome = match mode {
                    Mode::Serve => engine_ref
                        .recommend_for_group(&group, *z)
                        .map(|rec| (Some(rec), 0))
                        .map_err(|e| e.to_string()),
                    Mode::Decompose => decompose(engine_ref, &group, *z, None).map(|(st, d)| {
                        pass.stages.add(&st);
                        (None, d)
                    }),
                };
                let done = Instant::now();
                if let Some(log) = spans.as_deref_mut() {
                    log.record("engine.recommend_for_group", u64::from(id), t, done);
                }
                match outcome {
                    Ok((rec, replayed)) => {
                        pass.latency_ms.push(Some((done - t).as_secs_f64() * 1e3));
                        if j == 0 {
                            if let Some(ingested) = ingest_start {
                                pass.fresh_ms.push((done - ingested).as_secs_f64() * 1e3);
                            }
                        }
                        pass.served.push(Some(match rec {
                            Some(rec) => {
                                pass.quality.record(&rec);
                                digest(&rec)
                            }
                            None => replayed,
                        }));
                    }
                    Err(e) => {
                        pass.failed += 1;
                        pass.errors.push(e);
                        pass.latency_ms.push(None);
                        pass.served.push(None);
                    }
                }
            }
            warm.map(|h| h.join().expect("background warm panicked"))
        });
        if let Some((lists, start, end)) = warm {
            if let Some(log) = spans.as_deref_mut() {
                log.record("similarity.warm_peer_index", s as u64, start, end);
            }
            pass.rewarms.push((lists, (end - start).as_secs_f64()));
        }
        if let Some(batch) = plan.batches.get(s) {
            let t = Instant::now();
            ingest_start = Some(t);
            let report = engine.ingest_ratings(batch.iter().copied());
            if let Some(log) = spans.as_deref_mut() {
                log.record("engine.ingest_ratings", s as u64, t, Instant::now());
            }
            match report {
                Ok(r) => {
                    let touched = match r.peers {
                        BatchPeerMaintenance::DeltaReplayed { touched } => touched,
                        _ => 0,
                    };
                    pass.ingests
                        .push((r.peers, touched, t.elapsed().as_secs_f64()));
                }
                Err(e) => {
                    pass.failed += 1;
                    pass.errors.push(format!("ingest {s}: {e}"));
                }
            }
        }
    }
    pass.busy = began.elapsed();
    Ok(pass)
}

/// The rating relation after the first `epoch` batches, as a matrix.
fn state_at(
    base: &BTreeMap<(u32, u32), f64>,
    plan: &Plan,
    epoch: usize,
    id_space: (u32, u32),
) -> Result<RatingMatrix> {
    let mut ratings = base.clone();
    for batch in &plan.batches[..epoch] {
        for &(u, i, score) in batch {
            ratings.insert((u.raw(), i.raw()), score);
        }
    }
    let mut builder =
        RatingMatrixBuilder::with_capacity(ratings.len()).reserve_ids(id_space.0, id_space.1);
    for ((u, i), score) in ratings {
        builder.add_raw(UserId::new(u), ItemId::new(i), score)?;
    }
    builder.build()
}

pub fn run(args: &Args, report: &mut Report) -> Result<()> {
    let cohort = Cohort::generate(SPEC)?;
    let initial = cohort.matrix()?;
    let plan = plan(&cohort, &initial, args.seed);
    let began = Instant::now();
    let setup_cohort = Cohort::generate(SETUP_SPEC)?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut breakdown: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (engine, times, start) = load(&setup_cohort, config())?;
        setups.push(start.elapsed().as_secs_f64());
        breakdown.push(times);
        drop(engine);
    }
    drop(setup_cohort);
    let mut passes: Vec<Pass> = Vec::new();
    let budget = if args.trace { 0.0 } else { args.seconds };
    // Start another pass only while it is expected to end inside the
    // budget, so a run lasts about `--seconds` whatever the pass length.
    let passes_began = Instant::now();
    loop {
        let elapsed = began.elapsed().as_secs_f64();
        let per_pass = passes_began.elapsed().as_secs_f64() / passes.len().max(1) as f64;
        if passes.len() >= MIN_PASSES && elapsed + per_pass > budget {
            break;
        }
        passes.push(run_pass(&cohort, &plan, Mode::Serve, None)?);
    }
    let traced = if args.trace {
        let mut spans = SpanLog::default();
        let t = run_pass(&cohort, &plan, Mode::Serve, Some(&mut spans))?;
        spans.write(&format!("churn_sharded-s{}", args.seed));
        let replay = run_pass(&cohort, &plan, Mode::Decompose, None)?;
        Some((t, replay))
    } else {
        None
    };

    let first = &passes[0];
    for (p, pass) in passes.iter().enumerate() {
        report.attempted += pass.served.len() as u64 + plan.batches.len() as u64;
        report.failed += pass.failed as u64;
        for e in &pass.errors {
            eprintln!("perfbench: churn_sharded pass {p}: {e}");
        }
        let same = pass.served.iter().zip(&first.served).all(|(a, b)| a == b);
        if !same {
            report.error(format!("pass {p} served different packages than pass 0"));
        }
    }
    // Every pass replays the same requests, so a request's latency is its
    // median over the passes: a host stall that hits one pass stays out
    // of the tail, while work every pass repeats (cold fills after a
    // blanket, a re-warm competing for the cores) sets it.
    let latencies: Vec<f64> = (0..first.latency_ms.len())
        .filter_map(|r| {
            let times: Vec<f64> = passes.iter().filter_map(|p| p.latency_ms[r]).collect();
            (!times.is_empty()).then(|| median(&times))
        })
        .collect();
    let fresh: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.fresh_ms.iter().copied())
        .collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.latency_ms.iter().flatten().count() as f64 / p.busy.as_secs_f64())
        .collect();
    let (p_tail, q) = tail(&latencies);
    report.metric("setup_s", median(&setups), "s");
    report.metric("latency_p50_ms", median(&latencies), "ms");
    report.metric("latency_p99_ms", p_tail, "ms");
    report.metric("groups_per_s", median(&rates), "1/s");
    report.metric("fresh_p50_ms", median(&fresh), "ms");
    first.quality.report(
        report,
        &format!("churn_sharded-s{}-trace{}", args.seed, u8::from(args.trace)),
    );

    // Oracle: every ingest epoch of the first pass, recomputed on a
    // fresh sequential cold-cache engine over that epoch's relation.
    let base: BTreeMap<(u32, u32), f64> = initial
        .to_triples()
        .into_iter()
        .map(|t| ((t.user.raw(), t.item.raw()), t.rating.value()))
        .collect();
    let mut offset = 0;
    let mut oracle_checked = 0;
    for (epoch, segment) in plan.segments.iter().enumerate() {
        let oracle = oracle_engine(
            &cohort,
            state_at(&base, &plan, epoch, cohort.id_space())?,
            config(),
        )?;
        for (j, (members, z)) in segment.iter().enumerate().take(ORACLE_PER_EPOCH) {
            if let Some(d) = first.served[offset + j] {
                let group = Group::new(GroupId::new((offset + j) as u32), members.iter().copied())?;
                oracle_check(
                    &oracle,
                    &group,
                    *z,
                    d,
                    report,
                    &format!("churn_sharded epoch {epoch}"),
                );
                oracle_checked += 1;
            }
        }
        offset += segment.len();
    }

    let delta = first
        .ingests
        .iter()
        .filter(|i| matches!(i.0, BatchPeerMaintenance::DeltaReplayed { .. }))
        .count();
    report.meta("cohort_users", SPEC.users);
    report.meta("cohort_items", SPEC.items);
    report.meta("ratings_per_user", SPEC.ratings_per_user);
    report.meta("num_shards", SHARDS);
    report.meta("engine_threads", config().parallelism.num_workers());
    report.meta("loadgen_threads", 1);
    report.meta("setup_cohort_users", SETUP_SPEC.users);
    report.meta("setups", setups.len());
    report.meta("passes", passes.len());
    report.meta("requests_per_pass", first.served.len());
    report.meta("ingests_per_pass", plan.batches.len());
    report.meta("delta_ingests_per_pass", delta);
    report.meta("rewarms_per_pass", first.rewarms.len());
    report.meta("sent", report.attempted);
    report.meta("succeeded", report.attempted - report.failed);
    report.meta("failed", report.failed);
    report.meta("latency_samples", latencies.len());
    report.meta("latency_tail_quantile", json_num(q));
    report.meta("fresh_samples", fresh.len());
    report.meta("oracle_checked", oracle_checked);

    if let Some((traced, replay)) = traced {
        let untraced_busy = mean(
            &passes
                .iter()
                .map(|p| p.busy.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        report.metric(
            "trace.overhead",
            traced.busy.as_secs_f64() / untraced_busy,
            "ratio",
        );
        crate::setup_breakdown(report, &breakdown);
        let route = |delta: bool| -> Vec<f64> {
            traced
                .ingests
                .iter()
                .filter(|i| matches!(i.0, BatchPeerMaintenance::DeltaReplayed { .. }) == delta)
                .map(|i| i.2 * 1e3)
                .collect()
        };
        let (deltas, blankets) = (route(true), route(false));
        report.metric("engine.ingest_delta_ms", mean(&deltas), "ms");
        report.metric("engine.ingest_blanket_ms", mean(&blankets), "ms");
        report.metric(
            "engine.ingest_delta_frac",
            deltas.len() as f64 / traced.ingests.len().max(1) as f64,
            "ratio",
        );
        report.metric(
            "engine.delta_touched",
            traced.ingests.iter().map(|i| i.1 as f64).sum::<f64>() / deltas.len().max(1) as f64,
            "count",
        );
        replay.stages.report(report);
        for (what, pass) in [("traced pass", &traced), ("stage replay", &replay)] {
            if pass.failed > 0 || pass.served != first.served {
                report.error(format!(
                    "the {what} served different packages than the timed pass"
                ));
            }
        }
        report.meta(
            "rewarm_ms",
            json_num(mean(
                &traced.rewarms.iter().map(|r| r.1 * 1e3).collect::<Vec<_>>(),
            )),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::tiny;

    #[test]
    fn the_plan_is_reproducible_and_shaped_for_its_routes() {
        let cohort = tiny();
        let initial = cohort.matrix().unwrap();
        let p = plan(&cohort, &initial, 3);
        assert_eq!(p, plan(&cohort, &initial, 3));
        assert_ne!(p, plan(&cohort, &initial, 4));
        assert_eq!(p.segments.len(), BATCHES + 1);
        assert_eq!(p.batches.len(), BATCHES);
        for (b, batch) in p.batches.iter().enumerate() {
            let expected = if is_blanket(b) {
                cohort.spec.users as usize
            } else {
                DELTA_USERS * DELTA_EVENTS_PER_USER
            };
            assert_eq!(batch.len(), expected);
            if is_blanket(b) {
                assert!(batch.iter().all(|&(u, i, _)| initial.has_rated(u, i)));
            }
            // The freshness request after each batch holds a writer.
            let first = &p.segments[b + 1][0].0;
            assert!(batch.iter().any(|(u, _, _)| first.contains(u)));
        }
    }

    #[test]
    fn epoch_states_replay_the_batches_in_order() {
        let cohort = tiny();
        let initial = cohort.matrix().unwrap();
        let p = plan(&cohort, &initial, 3);
        let base: BTreeMap<(u32, u32), f64> = cohort
            .matrix()
            .unwrap()
            .to_triples()
            .into_iter()
            .map(|t| ((t.user.raw(), t.item.raw()), t.rating.value()))
            .collect();
        let epoch0 = state_at(&base, &p, 0, cohort.id_space()).unwrap();
        assert_eq!(epoch0.num_ratings(), base.len());
        let last = state_at(&base, &p, BATCHES, cohort.id_space()).unwrap();
        let (u, i, score) = *p.batches[BATCHES - 1].last().unwrap();
        assert_eq!(last.rating(u, i), Some(score));
    }
}
