//! `batch_offline`: one caller runs `recommend_batch` over the whole
//! nightly group set, fanned out across every core, on a cohort large
//! enough that set-up (parse, tf-idf build, full symmetric warm) takes
//! hundreds of milliseconds. No server, no ingest, no observer: a
//! serving-layer change must read "no change" here.

use crate::check::{digest, oracle_check, oracle_engine, Quality};
use crate::cohort::{load, mix_size, Cohort, CohortSpec, SetupTimes};
use crate::decompose::{decompose, StageSums};
use crate::report::{json_num, Report};
use crate::rng::Rng;
use crate::stats::{median, tail};
use crate::Args;
use fairrec_core::Group;
use fairrec_engine::{EngineConfig, RecommenderEngine};
use fairrec_types::{GroupId, Result};
use std::time::Instant;

/// The nightly population is the set-up cohort itself.
pub const SPEC: CohortSpec = crate::cohort::SETUP_SPEC;
/// Groups per night, and the distinct nights a run cycles through: the
/// quality means fold the first pass over all nights (512 packages).
pub const GROUPS: usize = 32;
pub const NIGHTS: usize = 16;
/// One package size for the whole night; below |G| for groups of 6–8.
pub const Z: usize = 5;
const SETUPS: usize = 10;
/// The oracle recomputes every `ORACLE_STRIDE`th group of each night.
const ORACLE_STRIDE: usize = 8;

/// The group sets of every night.
pub fn nightly_groups(cohort: &Cohort, seed: u64) -> Vec<Vec<Group>> {
    let mut rng = Rng::new(seed, 4);
    (0..NIGHTS)
        .map(|_| {
            (0..GROUPS)
                .map(|g| {
                    let members = cohort.draw_group(&mut rng, mix_size(g));
                    Group::new(GroupId::new(g as u32), members).expect("drawn groups are non-empty")
                })
                .collect()
        })
        .collect()
}

/// Every nightly batch of a run: for each night's first batch, its
/// packages — later batches of that night must serve the same bits.
#[derive(Default)]
struct Nights {
    reference: Vec<Option<Vec<u64>>>,
    quality: Quality,
    attempted: u64,
    failed: u64,
}

impl Nights {
    /// Runs the next night of the cycle on `engine`; returns the batch's
    /// time in seconds, or `None` when it failed.
    fn run(
        &mut self,
        engine: &RecommenderEngine,
        groups: &[Vec<Group>],
        report: &mut Report,
    ) -> Option<f64> {
        let night = (self.attempted as usize / GROUPS) % NIGHTS;
        self.attempted += GROUPS as u64;
        let t = Instant::now();
        let out = engine.recommend_batch(&groups[night], Z);
        let elapsed = t.elapsed();
        match out {
            Ok(recs) => {
                let digests: Vec<u64> = recs.iter().map(digest).collect();
                self.reference.resize(NIGHTS, None);
                match &self.reference[night] {
                    None => {
                        for rec in &recs {
                            self.quality.record(rec);
                        }
                        self.reference[night] = Some(digests);
                    }
                    Some(r) if *r != digests => {
                        report.error(format!(
                            "night {night} served different packages than before"
                        ));
                    }
                    Some(_) => {}
                }
                Some(elapsed.as_secs_f64())
            }
            Err(e) => {
                self.failed += GROUPS as u64;
                eprintln!("perfbench: batch_offline: {e}");
                None
            }
        }
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<()> {
    let cohort = Cohort::generate(SPEC)?;
    let groups = nightly_groups(&cohort, args.seed);
    let began = Instant::now();
    let mut setups = Vec::new();
    let mut breakdown: Vec<SetupTimes> = Vec::new();
    let mut fresh_ms = Vec::new();
    let mut nights = Nights::default();
    let mut engine = None;

    // Each set-up is followed by the next night's batch: freshness is
    // the time from the set-up's end to that night's packages.
    for _ in 0..SETUPS {
        drop(engine.take());
        let (e, times, start) = load(&cohort, EngineConfig::default())?;
        setups.push(start.elapsed().as_secs_f64());
        breakdown.push(times);
        if let Some(s) = nights.run(&e, &groups, report) {
            fresh_ms.push(s * 1e3);
        }
        engine = Some(e);
    }
    let engine = engine.expect("at least one set-up");
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut batch_s = Vec::new();
    while batch_s.len() < NIGHTS || began.elapsed().as_secs_f64() < budget {
        batch_s.extend(nights.run(&engine, &groups, report));
        if nights.failed == nights.attempted {
            break;
        }
    }
    let mut traced_s = Vec::new();
    if args.trace {
        // The traced pass: the same cycle of nights, each batch a span.
        let mut spans = crate::trace::SpanLog::default();
        let t_start = Instant::now();
        while traced_s.len() < batch_s.len() && t_start.elapsed().as_secs_f64() < budget {
            let t = Instant::now();
            traced_s.extend(nights.run(&engine, &groups, report));
            spans.record(
                "engine.recommend_batch",
                traced_s.len() as u64,
                t,
                Instant::now(),
            );
        }
        spans.write(&format!("batch_offline-s{}", args.seed));
    }
    report.attempted += nights.attempted;
    report.failed += nights.failed;
    if nights.reference.iter().any(Option::is_none) || nights.reference.len() < NIGHTS {
        report.error("some night never served its packages");
        return Ok(());
    }
    let reference: Vec<&Vec<u64>> = nights.reference.iter().flatten().collect();

    let batch_ms: Vec<f64> = batch_s.iter().map(|s| s * 1e3).collect();
    let (p_tail, q) = tail(&batch_ms);
    report.metric("setup_s", median(&setups), "s");
    report.metric("latency_p50_ms", median(&batch_ms), "ms");
    report.metric("latency_p99_ms", p_tail, "ms");
    // Throughput over the whole timed loop: the slow batches count in
    // full, where the latency median discounts them.
    report.metric(
        "groups_per_s",
        (GROUPS * batch_s.len()) as f64 / batch_s.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("fresh_p50_ms", median(&fresh_ms), "ms");
    nights.quality.report(
        report,
        &format!("batch_offline-s{}-trace{}", args.seed, u8::from(args.trace)),
    );

    let oracle = oracle_engine(&cohort, cohort.matrix()?, EngineConfig::default())?;
    let mut oracle_checked = 0;
    for night in 0..NIGHTS {
        for g in (night % ORACLE_STRIDE..GROUPS).step_by(ORACLE_STRIDE) {
            oracle_check(
                &oracle,
                &groups[night][g],
                Z,
                reference[night][g],
                report,
                "batch_offline",
            );
            oracle_checked += 1;
        }
    }

    report.meta("cohort_users", SPEC.users);
    report.meta("cohort_items", SPEC.items);
    report.meta("ratings_per_user", SPEC.ratings_per_user);
    report.meta("groups_per_night", GROUPS);
    report.meta("nights", NIGHTS);
    report.meta("z", Z);
    report.meta(
        "engine_threads",
        EngineConfig::default().parallelism.num_workers(),
    );
    report.meta("loadgen_threads", 1);
    report.meta("setups", SETUPS);
    report.meta("batches", batch_s.len());
    report.meta("fresh_samples", fresh_ms.len());
    report.meta("latency_samples", batch_ms.len());
    report.meta("latency_tail_quantile", json_num(q));
    report.meta("sent", report.attempted);
    report.meta("succeeded", report.attempted - report.failed);
    report.meta("failed", report.failed);
    report.meta("oracle_checked", oracle_checked);

    if args.trace {
        crate::setup_breakdown(report, &breakdown);
        if !traced_s.is_empty() {
            report.metric(
                "trace.overhead",
                median(&traced_s) / median(&batch_s),
                "ratio",
            );
        }
        let mut sums = StageSums::default();
        for (g, group) in groups[0].iter().enumerate() {
            match decompose(&engine, group, Z, None) {
                Ok((stages, d)) if d == reference[0][g] => sums.add(&stages),
                Ok(_) => report.error(format!(
                    "replay of group {g} differs from its batch package"
                )),
                Err(e) => report.error(format!("replay of group {g}: {e}")),
            }
        }
        sums.report(report);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::tiny;

    #[test]
    fn the_nights_are_reproducible_for_a_seed() {
        let cohort = tiny();
        let a = nightly_groups(&cohort, 1);
        assert_eq!(a, nightly_groups(&cohort, 1));
        assert_ne!(a, nightly_groups(&cohort, 2));
        assert_eq!(a.len(), NIGHTS);
        assert!(a.iter().all(|night| night.len() == GROUPS));
    }
}
