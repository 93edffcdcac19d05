//! Chaos suite for the streaming serving front-end.
//!
//! Installs seeded [`FaultPlan`]s at the `Dispatch` site and asserts the
//! serving robustness contracts:
//!
//! * a panicking dispatcher batch is contained — every waiter of the
//!   batch gets a **typed** [`FairrecError::Internal`] rejection, the
//!   dispatcher survives, and no ticket ever hangs;
//! * after the plan is gone the same server keeps answering correctly
//!   (panics did not leak poisoned state);
//! * a stalled batch whose deadlines lapse mid-flight is cut short by
//!   the deadline-budget checkpoints: the skipped requests are counted
//!   in `budget_cancelled` and their waiters resolve with
//!   [`FairrecError::DeadlineExpired`];
//! * shutdown drains every admitted slot even when every drain batch
//!   panics.
//!
//! Dedicated integration binary: the process-global plan must not leak
//! into the crate's other tests.

use fairrec_core::group::Group;
use fairrec_data::{SyntheticConfig, SyntheticDataset};
use fairrec_engine::{EngineConfig, RecommenderEngine, Server, ServerConfig};
use fairrec_mapreduce::{FaultKind, FaultPlan, FaultRule, FaultSite};
use fairrec_types::{Deadline, FairrecError, GroupId, UserId};
use std::sync::{Arc, Once};
use std::time::Duration;

const NUM_USERS: u32 = 40;

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

fn env_seed() -> u64 {
    std::env::var("FAIRREC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Small synthetic engine, same shape as the serving suite's.
fn engine() -> Arc<RecommenderEngine> {
    let ontology = fairrec_ontology::snomed::clinical_fragment();
    let data = SyntheticDataset::generate(
        SyntheticConfig {
            num_users: NUM_USERS,
            num_items: 80,
            num_communities: 4,
            ratings_per_user: 15,
            seed: 23,
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

fn group(g: u32) -> Group {
    let base = (g * 5) % (NUM_USERS - 3);
    Group::new(
        GroupId::new(g),
        [
            UserId::new(base),
            UserId::new(base + 1),
            UserId::new(base + 2),
        ],
    )
    .unwrap()
}

#[test]
fn dispatcher_panics_are_contained_and_every_ticket_resolves() {
    quiet_injected_panics();
    let engine = engine();
    // Every batch computation panics — batch sizing varies with
    // dispatcher timing, so only an all-or-nothing rate is
    // deterministic. (Recovery of the same server is probed below, once
    // the plan is gone.)
    let plan = FaultPlan::new(env_seed()).with_rule(FaultRule {
        site: FaultSite::Dispatch,
        kind: FaultKind::Panic,
        rate_ppm: 1_000_000,
        first_attempt_only: false,
    });
    let guard = plan.install();
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 256,
            max_batch: 4,
            workers: 2,
        },
    );

    // 48 submissions over 8 distinct groups: coalescing plus small
    // batches, every one of which the dispatcher must survive.
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

    // The plan is gone: the same server (same dispatchers, same locks)
    // must answer cleanly — the panics leaked no poisoned state. A
    // rule-free plan stays installed for the probe: it keeps the install
    // lock, so another test's plan cannot reach this server meanwhile.
    drop(guard);
    let _quiet = FaultPlan::new(env_seed()).install();
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
    quiet_injected_panics();
    let engine = engine();
    // Every batch stalls 200 ms before computing; the requests carry
    // 50 ms deadlines, so they are alive at claim time but lapsed at
    // every budget checkpoint.
    let plan = FaultPlan::new(env_seed()).with_rule(FaultRule {
        site: FaultSite::Dispatch,
        kind: FaultKind::Stall { millis: 200 },
        rate_ppm: 1_000_000,
        first_attempt_only: false,
    });
    let guard = plan.install();
    // `workers: 0`: nothing drains until shutdown, so claim happens
    // deterministically after all three submits.
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 64,
            max_batch: 16,
            workers: 0,
        },
    );
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(group(i), 4, Deadline::within(Duration::from_millis(50)))
                .unwrap()
        })
        .collect();
    let stats = server.shutdown();
    drop(guard);

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
    let plan = FaultPlan::new(env_seed()).with_rule(FaultRule {
        site: FaultSite::Dispatch,
        kind: FaultKind::Panic,
        rate_ppm: 1_000_000,
        first_attempt_only: false,
    });
    let guard = plan.install();
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 64,
            max_batch: 16,
            workers: 0,
        },
    );
    let tickets: Vec<_> = (0..5)
        .map(|i| server.submit(group(i), 5, Deadline::none()).unwrap())
        .collect();
    // The inline drain's only batch panics; shutdown must still
    // terminate with every slot delivered a typed rejection.
    let stats = server.shutdown();
    drop(guard);

    assert_eq!(stats.panics_caught, 1, "{stats:?}");
    assert_eq!(stats.completed, 5, "{stats:?}");
    for ticket in tickets {
        assert!(
            matches!(ticket.wait(), Err(FairrecError::Internal { .. })),
            "a panicked batch resolves every waiter with a typed Internal error"
        );
    }
}
