//! The seeded chaos matrix: the whole stack — directory-less gateway,
//! replicated mortgage services sharing a ledger, the mortgage saga
//! with compensation — driven under deterministic fault schedules, on
//! the in-memory network and over real TCP through the fault proxy.
//!
//! These are the invariants the resilience layers exist to uphold:
//! every run resolves within its deadline, no logical application is
//! ever executed twice (idempotency keys absorb retries/hedges/replays),
//! compensation exactly balances completed steps and runs in reverse
//! order, and the gateway's breakers close again once faults clear.

use std::time::Duration;

use soc::chaos::{live_threads, run_mem_chaos, run_tcp_chaos, ChaosConfig};

/// Drive `seeds` campaigns, `parallel` at a time (campaigns are
/// independent stacks; running them concurrently just overlaps their
/// breaker cool-down waits).
fn sweep(
    seeds: std::ops::Range<u64>,
    parallel: usize,
    cfg: ChaosConfig,
) -> Vec<soc::chaos::ChaosReport> {
    let mut reports = Vec::new();
    let seeds: Vec<u64> = seeds.collect();
    for chunk in seeds.chunks(parallel.max(1)) {
        let handles: Vec<_> = chunk
            .iter()
            .map(|&seed| {
                let cfg = ChaosConfig { seed, ..cfg.clone() };
                std::thread::spawn(move || run_mem_chaos(&cfg))
            })
            .collect();
        for h in handles {
            reports.push(h.join().expect("campaign panicked"));
        }
    }
    reports
}

/// The CI seed matrix: 32 pinned seeds at the 20% fault budget, every
/// invariant upheld on each, and ≥99% of runs client-visibly fine
/// (completed or cleanly compensated) in aggregate.
#[test]
fn mem_chaos_32_pinned_seeds_uphold_invariants() {
    let cfg = ChaosConfig {
        runs: 12,
        fault_pct: 0.2,
        deadline: Duration::from_secs(5),
        ..ChaosConfig::default()
    };
    let reports = sweep(1..33, 8, cfg);
    assert_eq!(reports.len(), 32);

    let mut total = 0usize;
    let mut good = 0usize;
    let mut deduped = 0u64;
    for report in &reports {
        let violations = report.violations();
        assert!(
            violations.is_empty(),
            "seed {:#x} violated invariants: {violations:?}\n{}",
            report.seed,
            report.summary()
        );
        total += report.outcomes.len();
        good += report.completed() + report.compensated_clean();
        deduped += report.deduped_replays;
    }
    let ratio = good as f64 / total as f64;
    assert!(ratio >= 0.99, "success-or-clean-compensation {ratio:.4} below 0.99 over {total} runs");
    // Evidence the idempotency plane is actually absorbing replays, not
    // just idle: across 384 runs at 20% faults, some POST retried into
    // the ledger cache.
    assert!(deduped > 0, "no deduped replays across the whole matrix — keys not exercised?");
}

/// A pinned seed that drives the mortgage workflow into compensation:
/// finalize is fully down, so every run rolls back — compensators run
/// in reverse topological order (`notify` before `apply`) exactly once
/// each, and the ledger ends balanced: all applications cancelled,
/// no orphan cancels.
#[test]
fn compensation_runs_in_reverse_order_exactly_once() {
    let cfg = ChaosConfig {
        seed: 0x5EED,
        runs: 4,
        fault_pct: 0.0,
        finalize_offline: true,
        partition: false,
        deadline: Duration::from_secs(5),
        ..ChaosConfig::default()
    };
    let report = run_mem_chaos(&cfg);
    let violations = report.violations();
    assert!(violations.is_empty(), "{violations:?}");

    assert_eq!(report.completed(), 0, "finalize is down; nothing may complete");
    assert_eq!(report.compensated_clean(), 4, "every run must compensate cleanly");
    for outcome in &report.outcomes {
        assert_eq!(outcome.failed_at.as_deref(), Some("finalize"));
        // Reverse topological order, exactly once each: the graph is
        // application → apply → notify → finalize, so rollback is
        // notify first, then apply.
        assert_eq!(
            outcome.compensated,
            vec!["notify".to_string(), "apply".to_string()],
            "run {}",
            outcome.run
        );
    }
    assert_eq!(report.open_applications, 0, "every application must be cancelled");
    assert_eq!(report.cancelled_app_ids.len(), 4);
    assert_eq!(report.orphan_cancels, 0);
    assert_eq!(report.open_notifications, 0, "every notification must be cancelled");
}

/// The same 20%-fault schedule over real TCP sockets: replicas fronted
/// by fault proxies injecting delay, mid-header resets, and mid-body
/// truncation on the wire. Invariants hold, ≥99% of runs are fine, and
/// the proxies leak no tunnels after shutdown.
#[test]
fn tcp_chaos_upholds_invariants_without_leaking_tunnels() {
    let mut total = 0usize;
    let mut good = 0usize;
    for seed in [0xAC1D, 0xBEEF] {
        let cfg = ChaosConfig {
            seed,
            runs: 10,
            replicas: 2,
            fault_pct: 0.2,
            deadline: Duration::from_secs(8),
            ..ChaosConfig::default()
        };
        let (report, open_tunnels) = run_tcp_chaos(&cfg);
        let violations = report.violations();
        assert!(violations.is_empty(), "seed {seed:#x}: {violations:?}\n{}", report.summary());
        assert!(
            open_tunnels.iter().all(|&n| n == 0),
            "seed {seed:#x}: leaked proxy tunnels: {open_tunnels:?}"
        );
        total += report.outcomes.len();
        good += report.completed() + report.compensated_clean();
    }
    let ratio = good as f64 / total as f64;
    assert!(ratio >= 0.99, "TCP success-or-clean-compensation {ratio:.4} below 0.99");
}

/// A campaign must not leak threads: every hedge arm and proxy tunnel
/// is joined by the time the report is in hand, and saga attempts run
/// on the caller's thread. (Other tests run concurrently in this
/// binary, so the check polls — the count must *settle* back to the
/// baseline.)
#[test]
fn chaos_campaign_does_not_leak_threads() {
    let Some(before) = live_threads() else {
        return; // not on Linux — nothing to measure
    };
    let cfg = ChaosConfig {
        seed: 0x7EAD,
        runs: 8,
        fault_pct: 0.3,
        deadline: Duration::from_secs(5),
        ..ChaosConfig::default()
    };
    let report = run_mem_chaos(&cfg);
    assert!(report.violations().is_empty());

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let after = live_threads().unwrap();
        // Slack for the concurrent test threads in this binary.
        if after <= before + 4 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "thread count did not settle: {before} before, {after} after"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
