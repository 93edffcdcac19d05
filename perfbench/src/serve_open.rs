//! `serve_open`: an open loop of caregiver requests against the
//! streaming `Server` over a static, warm, monitored mono store.
//!
//! One generator thread submits a seeded Poisson schedule at a fixed
//! rate; one collector thread waits on the tickets in submit order.
//! Latency runs from each request's *scheduled* send time to the moment
//! the engine finished its package, which the observer hook stamps, so
//! neither a slow ticket ahead in the collector's order nor the
//! collector's own wake-up adds to a request's latency.
//!
//! Capacity (`groups_per_s`) comes from saturating bursts after the open
//! loop: the open loop runs far below capacity by design, so its own
//! completion rate only echoes the offered rate.

use crate::check::{digest, oracle_check, oracle_engine, Quality};
use crate::cohort::{load, mix, Cohort, CohortSpec, SetupTimes, FRESH_SHAPE, SETUP_SPEC};
use crate::decompose::{decompose, StageSums};
use crate::report::{json_num, Report};
use crate::rng::Rng;
use crate::stats::{mean, median, tail};
use crate::trace::SpanLog;
use crate::Args;
use fairrec_core::Group;
use fairrec_engine::{
    EngineConfig, GroupRecommendation, RecommendationObserver, Server, ServerConfig, ServerStats,
    Ticket,
};
use fairrec_metrics::{FairnessMonitor, MonitorConfig};
use fairrec_types::{Deadline, GroupId, RatingsRead, Result, UserId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub const SPEC: CohortSpec = CohortSpec {
    users: 1000,
    items: 2000,
    communities: 4,
    ratings_per_user: 40,
};
/// Offered rate. A request costs ≈5–7 ms of one core, so the two
/// dispatchers run about a fifth busy: compute, not queueing, sets the
/// p50, and the generator rarely finds both cores taken.
pub const RATE_PER_S: f64 = 60.0;
/// Share of requests followed by an identical one inside the
/// coalescing window. An assumed value (no trace of caregiver traffic
/// gives one): it sets `serving.coalesced_frac` by construction.
const REPEAT_SHARE: f64 = 0.1;
/// How soon a repeat follows; assumed, short enough that the repeat
/// finds its twin still queued or computing.
const REPEAT_LAG: Duration = Duration::from_micros(500);
/// Generous enough that a request lapses only when the server stalls.
const DEADLINE: Duration = Duration::from_secs(5);
/// Set-ups timed on the set-up cohort.
const SETUPS: usize = 9;
/// Servers brought up on the workload's own store, each answering one
/// first request (the freshness sample).
const FRESH: usize = 30;
/// Untraced replays of the schedule. Each request's latency is its median
/// over the replays: a host stall that hits one replay stays out of the
/// tail, while queueing that the schedule causes recurs in every replay.
const REPLAYS: usize = 3;
/// Requests one capacity burst submits back to back (well inside the
/// default queue capacity of 1024), and the share of `--seconds` the
/// bursts take; the open loop takes the rest. At least `MIN_BURSTS` run.
const BURST: usize = 128;
const BURST_SHARE: f64 = 0.2;
const MIN_BURSTS: usize = 5;
const ORACLE_SAMPLE: usize = 120;
const REPLAY: usize = 300;

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub at: Duration,
    pub members: Vec<UserId>,
    pub z: usize,
}

/// The seeded schedule over `[0, duration)`: Poisson arrivals at
/// [`RATE_PER_S`], a [`REPEAT_SHARE`] of them repeated [`REPEAT_LAG`]
/// later.
pub fn schedule(cohort: &Cohort, seed: u64, duration: Duration) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 2);
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    for k in 0.. {
        t += rng.exp(RATE_PER_S);
        let at = Duration::from_secs_f64(t);
        if at >= duration {
            break;
        }
        let (size, z) = mix(k);
        let members = cohort.draw_group(&mut rng, size);
        if rng.unit() < REPEAT_SHARE {
            arrivals.push(Arrival {
                at: at + REPEAT_LAG,
                members: members.clone(),
                z,
            });
        }
        arrivals.push(Arrival { at, members, z });
    }
    arrivals.sort_by_key(|a| a.at);
    arrivals
}

/// The observer installed on the engine: forwards to the
/// `FairnessMonitor` and stamps when each request's package was done.
struct Stamped {
    monitor: FairnessMonitor,
    base: Instant,
    /// Nanoseconds after `base` (+1; 0 = not yet), indexed by group id.
    done: Vec<AtomicU64>,
    /// Time spent in the monitor, summed while `traced` is set.
    traced: AtomicBool,
    observe_ns: AtomicU64,
    observed: AtomicU64,
}

impl RecommendationObserver for Stamped {
    fn observe_recommendation(
        &self,
        group: &Group,
        z: usize,
        recommendation: &GroupRecommendation,
        reads: &dyn RatingsRead,
    ) {
        if self.traced.load(Ordering::Relaxed) {
            let t = Instant::now();
            self.monitor
                .observe_recommendation(group, z, recommendation, reads);
            self.observe_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.observed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.monitor
                .observe_recommendation(group, z, recommendation, reads);
        }
        // Relaxed: the collector reads the stamp only after the ticket's
        // result, whose mutex hand-off orders it after this store.
        if let Some(slot) = self.done.get(group.id().raw() as usize) {
            slot.store(self.base.elapsed().as_nanos() as u64 + 1, Ordering::Relaxed);
        }
    }
}

impl Stamped {
    fn done_at(&self, slot: usize) -> Option<Instant> {
        match self.done[slot].load(Ordering::Relaxed) {
            0 => None,
            ns => Some(self.base + Duration::from_nanos(ns - 1)),
        }
    }
}

struct Serving {
    server: Server,
    observer: Arc<Stamped>,
}

/// The timed set-up: parse, build, warm, then install the monitor and
/// start the server. Returns the set-up's times and its total.
fn bring_up(
    cohort: &Cohort,
    slots: usize,
    server_config: ServerConfig,
) -> Result<(Serving, SetupTimes, Duration)> {
    let (mut engine, times, start) = load(cohort, EngineConfig::default())?;
    let observer = Arc::new(Stamped {
        monitor: FairnessMonitor::new(MonitorConfig::default(), engine.ratings().reads()),
        base: Instant::now(),
        done: (0..slots).map(|_| AtomicU64::new(0)).collect(),
        traced: AtomicBool::new(false),
        observe_ns: AtomicU64::new(0),
        observed: AtomicU64::new(0),
    });
    engine.set_observer(Arc::clone(&observer) as Arc<dyn RecommendationObserver>);
    let server = Server::new(Arc::new(engine), server_config);
    Ok((Serving { server, observer }, times, start.elapsed()))
}

/// What one pass of the open loop measured.
struct LoopRun {
    /// Requests refused at submit, lapsed or failed while waiting.
    failed: usize,
    /// Per arrival: the package, or `None` when the request failed.
    served: Vec<Option<Arc<GroupRecommendation>>>,
    latency_ms: Vec<Option<f64>>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    coalesced: usize,
    /// Served requests with no completion stamp, timed by the ticket's
    /// return instead (none are expected).
    unstamped: usize,
    stats: ServerStats,
}

/// The slot each request was computed in: a coalesced request joined the
/// latest fresh request with the same (members, z) before it.
fn slots(arrivals: &[Arrival], coalesced: &[bool]) -> Vec<usize> {
    let mut latest: HashMap<(&[UserId], usize), usize> = HashMap::new();
    arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let key = (&a.members[..], a.z);
            match (coalesced[i], latest.get(&key)) {
                (true, Some(&j)) => j,
                _ => {
                    latest.insert(key, i);
                    i
                }
            }
        })
        .collect()
}

/// Runs the schedule once; `spans` records the calls of a traced pass.
fn open_loop(
    serving: &Serving,
    arrivals: &[Arrival],
    deadline: Duration,
    mut spans: Option<&mut SpanLog>,
) -> LoopRun {
    let server = &serving.server;
    let observer = &serving.observer;
    for slot in &observer.done {
        slot.store(0, Ordering::Relaxed);
    }
    let stats_before = server.stats();
    let n = arrivals.len();
    let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
    let mut due = Vec::with_capacity(n);
    let mut late_ms = Vec::with_capacity(n);
    let mut submit_us = Vec::with_capacity(n);
    let mut coalesced = vec![false; n];
    let start = Instant::now() + Duration::from_millis(5);

    let waits: Vec<(usize, Instant, Result<Arc<GroupRecommendation>>)> =
        std::thread::scope(|scope| {
            let collector = scope.spawn(move || {
                rx.into_iter()
                    .map(|(i, ticket)| {
                        let result = ticket.wait();
                        (i, Instant::now(), result)
                    })
                    .collect()
            });
            for (i, arrival) in arrivals.iter().enumerate() {
                let when = start + arrival.at;
                let now = Instant::now();
                if when > now {
                    std::thread::sleep(when - now);
                }
                let sent = Instant::now();
                due.push(when);
                late_ms.push((sent - when).as_secs_f64() * 1e3);
                let group = Group::new(GroupId::new(i as u32), arrival.members.iter().copied())
                    .expect("drawn groups are non-empty");
                let submitted = server.submit(group, arrival.z, Deadline::at(when + deadline));
                let accepted = Instant::now();
                submit_us.push((accepted - sent).as_secs_f64() * 1e6);
                if let Some(log) = spans.as_deref_mut() {
                    log.record("serving.submit", i as u64, sent, accepted);
                }
                // A refused request gets no ticket and counts as failed.
                if let Ok(ticket) = submitted {
                    coalesced[i] = ticket.coalesced();
                    tx.send((i, ticket))
                        .expect("the collector outlives the generator");
                }
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        });

    let slot_of = slots(arrivals, &coalesced);
    let mut served = vec![None; n];
    let mut latency_ms = vec![None; n];
    let mut unstamped = 0;
    for (i, returned, result) in waits {
        let Ok(rec) = result else { continue };
        let done = observer.done_at(slot_of[i]).unwrap_or_else(|| {
            unstamped += 1;
            returned
        });
        if let Some(log) = spans.as_deref_mut() {
            log.record("serving.request", i as u64, due[i], done);
        }
        latency_ms[i] = Some(done.saturating_duration_since(due[i]).as_secs_f64() * 1e3);
        served[i] = Some(rec);
    }
    let stats_after = server.stats();
    LoopRun {
        failed: served.iter().filter(|s| s.is_none()).count(),
        served,
        latency_ms,
        late_ms,
        submit_us,
        coalesced: coalesced.iter().filter(|&&c| c).count(),
        unstamped,
        stats: ServerStats {
            submitted: stats_after.submitted - stats_before.submitted,
            coalesced: stats_after.coalesced - stats_before.coalesced,
            completed: stats_after.completed - stats_before.completed,
            batches: stats_after.batches - stats_before.batches,
            rejected_queue_full: stats_after.rejected_queue_full - stats_before.rejected_queue_full,
            rejected_deadline: stats_after.rejected_deadline - stats_before.rejected_deadline,
            panics_caught: stats_after.panics_caught - stats_before.panics_caught,
            budget_cancelled: stats_after.budget_cancelled - stats_before.budget_cancelled,
        },
    }
}

/// One saturating burst: `requests` submitted back to back with no
/// deadline, timed from the first submit to the last package. Returns
/// the completion rate and each request's outcome.
fn burst(
    server: &Server,
    requests: &[(GroupId, &Arrival)],
) -> (f64, Vec<Result<Arc<GroupRecommendation>>>) {
    let t = Instant::now();
    let tickets: Vec<Result<Ticket>> = requests
        .iter()
        .map(|(id, a)| {
            let group =
                Group::new(*id, a.members.iter().copied()).expect("drawn groups are non-empty");
            server.submit(group, a.z, Deadline::none())
        })
        .collect();
    let outcomes: Vec<_> = tickets
        .into_iter()
        .map(|ticket| ticket.and_then(Ticket::wait))
        .collect();
    (requests.len() as f64 / t.elapsed().as_secs_f64(), outcomes)
}

pub fn run(args: &Args, report: &mut Report) -> Result<()> {
    let cohort = Cohort::generate(SPEC)?;
    // A traced run replays the schedule once more, traced.
    let measured = args.seconds * (1.0 - BURST_SHARE) / (REPLAYS + usize::from(args.trace)) as f64;
    let arrivals = schedule(&cohort, args.seed, Duration::from_secs_f64(measured));

    // Set-up, timed on the set-up cohort.
    let setup_cohort = Cohort::generate(SETUP_SPEC)?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut breakdown = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let (serving, times, total) = bring_up(&setup_cohort, 0, ServerConfig::default())?;
        setups.push(total.as_secs_f64());
        breakdown.push(times);
        drop(serving);
    }
    drop(setup_cohort);
    report.metric("setup_s", median(&setups), "s");

    // Freshness: servers brought up on the workload's store each answer
    // a first request; the last one serves the open loop.
    let mut rng = Rng::new(args.seed, 5);
    let mut fresh_ms = Vec::with_capacity(FRESH);
    let mut serving = None;
    for _ in 0..FRESH {
        drop(serving.take());
        let (s, _, _) = bring_up(&cohort, arrivals.len(), ServerConfig::default())?;
        let (size, z) = FRESH_SHAPE;
        let group = Group::new(GroupId::new(u32::MAX), cohort.draw_group(&mut rng, size))?;
        let t = Instant::now();
        s.server.recommend(group, z, Deadline::none())?;
        fresh_ms.push(t.elapsed().as_secs_f64() * 1e3);
        serving = Some(s);
    }
    let serving = serving.expect("at least one server");
    report.metric("fresh_p50_ms", median(&fresh_ms), "ms");

    let runs: Vec<LoopRun> = (0..REPLAYS)
        .map(|_| open_loop(&serving, &arrivals, DEADLINE, None))
        .collect();
    let run = &runs[0];
    let traced_run = args.trace.then(|| {
        let mut spans = SpanLog::default();
        serving.observer.traced.store(true, Ordering::Relaxed);
        let traced = open_loop(&serving, &arrivals, DEADLINE, Some(&mut spans));
        serving.observer.traced.store(false, Ordering::Relaxed);
        spans.write(&format!("serve_open-s{}", args.seed));
        traced
    });

    // Capacity: saturating bursts over the schedule's requests, under
    // group ids past the schedule's so no completion stamp is touched.
    let n = arrivals.len();
    let mut rates = Vec::new();
    let mut burst_served = Vec::new();
    let bursts_began = Instant::now();
    let burst_budget = args.seconds * BURST_SHARE;
    for k in 0.. {
        if k >= MIN_BURSTS && bursts_began.elapsed().as_secs_f64() >= burst_budget {
            break;
        }
        let requests: Vec<(GroupId, &Arrival)> = (k * BURST..(k + 1) * BURST)
            .map(|j| (GroupId::new((n + j) as u32), &arrivals[j % n]))
            .collect();
        let (rate, outcomes) = burst(&serving.server, &requests);
        rates.push(rate);
        for ((_, a), outcome) in requests.iter().zip(outcomes) {
            burst_served.push((*a, outcome.ok()));
        }
    }
    let burst_failed = burst_served.iter().filter(|(_, r)| r.is_none()).count();

    // End-to-end metrics come from the untraced replays.
    let latencies: Vec<f64> = (0..n)
        .filter_map(|i| {
            let times: Vec<f64> = runs.iter().filter_map(|r| r.latency_ms[i]).collect();
            (!times.is_empty()).then(|| median(&times))
        })
        .collect();
    let loop_failed: usize = runs.iter().map(|r| r.failed).sum();
    report.attempted += (n * REPLAYS + burst_served.len()) as u64;
    report.failed += (loop_failed + burst_failed) as u64;
    let unstamped: usize = runs.iter().map(|r| r.unstamped).sum();
    if unstamped > 0 {
        report.error(format!(
            "{unstamped} served requests carry no completion stamp"
        ));
    }
    if latencies.is_empty() {
        report.error("no request succeeded");
        return Ok(());
    }
    let (p_tail, q) = tail(&latencies);
    report.metric("latency_p50_ms", median(&latencies), "ms");
    report.metric("latency_p99_ms", p_tail, "ms");
    report.metric("groups_per_s", median(&rates), "1/s");
    let mut quality = Quality::default();
    for rec in run.served.iter().flatten() {
        quality.record(rec);
    }
    quality.report(
        report,
        &format!(
            "serve_open-s{}-t{}-trace{}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
    );

    // Every package served for one (members, z) on the static store, in
    // any replay or burst, must be identical, and a sample must equal the
    // sequential oracle.
    let mut by_key: HashMap<(&[UserId], usize), u64> = HashMap::new();
    let open = runs
        .iter()
        .flat_map(|r| arrivals.iter().zip(r.served.iter().cloned()));
    for (a, rec) in open.chain(burst_served) {
        if let Some(rec) = rec {
            let d = digest(&rec);
            if *by_key.entry((&a.members[..], a.z)).or_insert(d) != d {
                report.error(format!(
                    "{:?} z={} served two different packages",
                    a.members, a.z
                ));
            }
        }
    }
    let oracle = oracle_engine(&cohort, cohort.matrix()?, EngineConfig::default())?;
    let step = (n / ORACLE_SAMPLE).max(1);
    let mut oracle_checked = 0;
    for i in (0..n).step_by(step) {
        if let Some(rec) = &run.served[i] {
            let group = Group::new(GroupId::new(i as u32), arrivals[i].members.iter().copied())?;
            oracle_check(
                &oracle,
                &group,
                arrivals[i].z,
                digest(rec),
                report,
                "serve_open",
            );
            oracle_checked += 1;
        }
    }

    report.meta("cohort_users", SPEC.users);
    report.meta("cohort_items", SPEC.items);
    report.meta("ratings_per_user", SPEC.ratings_per_user);
    report.meta("offered_rate_per_s", json_num(RATE_PER_S));
    report.meta("measured_s", json_num(measured));
    report.meta(
        "engine_threads",
        EngineConfig::default().parallelism.num_workers(),
    );
    report.meta("server_workers", ServerConfig::default().workers);
    report.meta("server_max_batch", ServerConfig::default().max_batch);
    // The generator and the collector.
    report.meta("loadgen_threads", 2);
    report.meta("setup_cohort_users", SETUP_SPEC.users);
    report.meta("setups", SETUPS);
    report.meta("fresh_samples", FRESH);
    report.meta("latency_samples", latencies.len());
    report.meta("latency_tail_quantile", json_num(q));
    report.meta("replays", REPLAYS);
    report.meta("sent", n * REPLAYS);
    report.meta("succeeded", n * REPLAYS - loop_failed);
    report.meta("failed", loop_failed);
    report.meta("coalesced", runs.iter().map(|r| r.coalesced).sum::<usize>());
    report.meta("bursts", rates.len());
    report.meta("burst_sent", rates.len() * BURST);
    report.meta("burst_failed", burst_failed);
    let stat = |f: fn(&ServerStats) -> u64| runs.iter().map(|r| f(&r.stats)).sum::<u64>();
    report.meta("rejected_queue_full", stat(|s| s.rejected_queue_full));
    report.meta("rejected_deadline", stat(|s| s.rejected_deadline));
    let late: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.late_ms.iter().copied())
        .collect();
    report.meta("loadgen_late_p99_ms", json_num(tail(&late).0));
    report.meta("oracle_checked", oracle_checked);

    if let Some(traced) = traced_run {
        trace_metrics(report, &serving, &arrivals, run, &traced, &breakdown)?;
    }
    Ok(())
}

/// The per-layer metrics of the traced pass plus the stage replay.
fn trace_metrics(
    report: &mut Report,
    serving: &Serving,
    arrivals: &[Arrival],
    untraced: &LoopRun,
    traced: &LoopRun,
    breakdown: &[SetupTimes],
) -> Result<()> {
    crate::setup_breakdown(report, breakdown);
    let lat = |r: &LoopRun| -> Vec<f64> { r.latency_ms.iter().flatten().copied().collect() };
    report.metric(
        "trace.overhead",
        median(&lat(traced)) / median(&lat(untraced)),
        "ratio",
    );
    report.metric("serving.submit_us", median(&traced.submit_us), "us");
    let s = traced.stats;
    report.metric(
        "serving.coalesced_frac",
        s.coalesced as f64 / (s.submitted + s.coalesced).max(1) as f64,
        "ratio",
    );
    report.metric(
        "serving.batch_mean",
        s.completed as f64 / s.batches.max(1) as f64,
        "count",
    );
    report.metric("loadgen.late_p99_ms", tail(&traced.late_ms).0, "ms");
    let observer = &serving.observer;
    let observed = observer.observed.load(Ordering::Relaxed).max(1);
    let observe_us = observer.observe_ns.load(Ordering::Relaxed) as f64 / observed as f64 / 1e3;

    // Replay the first requests stage by stage on the same warm engine.
    let engine = serving.server.engine();
    let mut sums = StageSums::default();
    let mut waits = Vec::new();
    for (i, a) in arrivals.iter().enumerate().take(REPLAY) {
        let group = Group::new(GroupId::new(i as u32), a.members.iter().copied())?;
        match decompose(engine, &group, a.z, Some(&observer.monitor)) {
            Ok((stages, d)) => {
                sums.add(&stages);
                if let (Some(rec), Some(l)) = (&traced.served[i], traced.latency_ms[i]) {
                    if digest(rec) != d {
                        report.error(format!(
                            "replay of request {i} differs from its served package"
                        ));
                    }
                    waits.push(l - stages.request * 1e3);
                }
            }
            Err(e) => report.error(format!("replay of request {i}: {e}")),
        }
    }
    sums.report(report);
    report.meta("observe_in_server_us", json_num(observe_us));
    if !waits.is_empty() {
        report.metric("serving.wait_ms", median(&waits), "ms");
    }
    report.meta("traced_coalesced", traced.coalesced);
    report.meta("traced_mean_latency_ms", json_num(mean(&lat(traced))));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::tiny;

    #[test]
    fn the_schedule_is_reproducible_for_a_seed() {
        let cohort = tiny();
        let a = schedule(&cohort, 9, Duration::from_secs(3));
        assert_eq!(a, schedule(&cohort, 9, Duration::from_secs(3)));
        assert_ne!(a, schedule(&cohort, 10, Duration::from_secs(3)));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        // About RATE_PER_S × 3 s arrivals plus the repeats.
        let expected = RATE_PER_S * 3.0 * (1.0 + REPEAT_SHARE);
        let n = a.len() as f64;
        assert!(
            n > 0.75 * expected && n < 1.25 * expected,
            "{n} vs {expected}"
        );
        assert!(a.iter().all(|r| (2..=8).contains(&r.members.len())));
        let repeats = a
            .windows(2)
            .filter(|w| w[0].members == w[1].members && w[0].z == w[1].z);
        assert!(repeats.count() > 0);
    }

    #[test]
    fn failed_frac_counts_queue_full_refusals_and_lapsed_deadlines() {
        let cohort = tiny();
        // No dispatcher and room for two slots: the first two requests
        // queue and lapse, the third is refused with QueueFull.
        let config = ServerConfig {
            queue_capacity: 2,
            max_batch: 16,
            workers: 0,
        };
        let (serving, _, _) = bring_up(&cohort, 3, config).unwrap();
        let arrivals: Vec<Arrival> = (0..3u32)
            .map(|i| Arrival {
                at: Duration::from_millis(u64::from(i)),
                members: vec![UserId::new(i), UserId::new(i + 10)],
                z: 3,
            })
            .collect();
        let run = open_loop(&serving, &arrivals, Duration::from_millis(30), None);
        assert_eq!(run.failed, 3);
        assert_eq!(run.stats.rejected_queue_full, 1);
        assert!(run.latency_ms.iter().all(Option::is_none));
        let mut report = Report::default();
        report.attempted = arrivals.len() as u64;
        report.failed = run.failed as u64;
        assert_eq!(report.failed_frac(), 1.0);
    }
}
