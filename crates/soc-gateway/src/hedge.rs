//! Hedged requests: racing a backup attempt against a slow primary.
//!
//! "The Tail at Scale" observation: when one replica in a set stalls,
//! waiting it out costs the caller the whole stall, while sending a
//! *backup* request to a second replica after a p95-shaped delay costs
//! ~5% extra load and collapses the tail. The gateway arms a hedge
//! per attempt: if the picked replica's observed p95 elapses with no
//! answer, a second, breaker-admitted replica gets the same request
//! and the first success wins.
//!
//! The primary runs inline on the caller's thread, inside
//! [`soc_http::send_until`] with the hedge point as its yield point. A
//! primary that answers by then never leaves the caller's thread and
//! never touches the hedge [`ThreadPool`]. Only one still waiting at
//! the hedge point parks, and [`hedged_race`] then races the parked
//! rest of it against a backup, both on the pool.
//!
//! Cancellation is cooperative-by-neglect: the blocking transports
//! here cannot abort an in-flight send, so the losing arm simply runs
//! to completion on the pool and its result is dropped. Each arm
//! therefore carries its *own* accounting (breaker, monitor, stats)
//! inside its closure — a loser still reports its outcome, it just
//! doesn't answer the caller.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use soc_parallel::ThreadPool;

/// Tuning for request hedging.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Master switch; `false` never hedges.
    pub enabled: bool,
    /// Worker threads in the gateway's hedge pool, which runs backups
    /// and the rests of parked primaries. Those *block* on their sends,
    /// so this is sized for concurrent parked or backup arms (including
    /// losers sleeping out a stall), not for CPU cores — on a 1-core
    /// host a cores-sized pool could never run a backup while a parked
    /// primary blocks.
    pub threads: usize,
    /// Observed-latency samples a replica needs before its p95 is
    /// trusted as a hedge trigger. Below this, no hedge arms.
    pub min_samples: usize,
    /// Floor on the hedge delay: even a microsecond-fast replica set
    /// waits at least this long before spending a backup request.
    pub min_delay: Duration,
    /// Ceiling on the hedge delay, so one pathological p95 cannot
    /// defer hedging past the request deadline.
    pub max_delay: Duration,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: true,
            threads: 8,
            min_samples: 8,
            min_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(250),
        }
    }
}

impl HedgeConfig {
    /// The delay after which a hedge fires for a replica whose recent
    /// p95 is `p95` over `samples` observations, or `None` when the
    /// evidence is too thin (or hedging is off).
    pub fn hedge_delay(&self, p95: Option<Duration>, samples: usize) -> Option<Duration> {
        if !self.enabled || samples < self.min_samples {
            return None;
        }
        Some(p95?.clamp(self.min_delay, self.max_delay))
    }
}

/// What [`hedged_race`] produced.
pub enum HedgeOutcome<R> {
    /// An arm delivered `result`. `hedged` says whether a backup was
    /// launched at all; `backup_won` whether the backup's answer is
    /// the one returned.
    Finished { result: R, hedged: bool, backup_won: bool },
    /// The deadline lapsed with no arm finished. Any in-flight arms
    /// keep running detached and report to their own accounting.
    DeadlineExpired { hedged: bool },
}

/// Race `primary` — the parked rest of an arm that outlived its hedge
/// point — against a backup arm from `backup` (which returns `None`
/// when no second replica can be admitted), both on `pool`, returning
/// the first result `is_success` likes. A failing arm is held until the
/// other arm answers — a fast failure never beats a slow success unless
/// both fail. Past `deadline`, gives up; a primary parked at or after
/// the deadline is detached without spending a backup.
pub fn hedged_race<R, P, B>(
    pool: &ThreadPool,
    primary: P,
    deadline: Instant,
    backup: impl FnOnce() -> Option<B>,
    is_success: impl Fn(&R) -> bool,
) -> HedgeOutcome<R>
where
    R: Send + 'static,
    P: FnOnce() -> R + Send + 'static,
    B: FnOnce() -> R + Send + 'static,
{
    let (tx, rx) = mpsc::channel::<(bool, R)>();
    let expired = Instant::now() >= deadline;
    // Hedge point: the primary is officially slow. The backup is queued
    // ahead of the rest: a pool worker that takes both jobs in one
    // batch then runs the backup before the rest blocks it.
    let hedged = match (!expired).then(backup).flatten() {
        Some(arm) => {
            let backup_tx = tx.clone();
            pool.spawn_detached(move || {
                let _ = backup_tx.send((true, arm()));
            });
            true
        }
        None => false,
    };
    pool.spawn_detached(move || {
        let _ = tx.send((false, primary()));
    });
    if expired {
        return HedgeOutcome::DeadlineExpired { hedged: false };
    }

    let mut pending = if hedged { 2u8 } else { 1 };
    let mut last_failure: Option<(bool, R)> = None;
    while pending > 0 {
        let wait = deadline.saturating_duration_since(Instant::now());
        if wait.is_zero() {
            break;
        }
        match rx.recv_timeout(wait) {
            Ok((backup_won, result)) => {
                pending -= 1;
                if is_success(&result) || pending == 0 {
                    return HedgeOutcome::Finished { result, hedged, backup_won };
                }
                last_failure = Some((backup_won, result));
            }
            Err(_) => break,
        }
    }
    match last_failure {
        Some((backup_won, result)) => HedgeOutcome::Finished { result, hedged, backup_won },
        None => HedgeOutcome::DeadlineExpired { hedged },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    // Each race starts at the hedge point, with `primary` standing for
    // the parked rest of the primary arm.
    //
    // A private pool per test: arms block (sleep) in these tests, and
    // sharing the fixed-size global pool with other tests would let an
    // unrelated sleeping arm delay this race's backup.
    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn ok(v: i32) -> Result<i32, i32> {
        Ok(v)
    }

    #[test]
    fn slow_primary_loses_to_the_backup() {
        let p = pool();
        let out = hedged_race(
            &p,
            || {
                std::thread::sleep(Duration::from_millis(100));
                ok(1)
            },
            far(),
            || Some(|| ok(2)),
            |r| r.is_ok(),
        );
        match out {
            HedgeOutcome::Finished { result, hedged, backup_won } => {
                assert_eq!(result, Ok(2));
                assert!(hedged);
                assert!(backup_won);
            }
            _ => panic!("expected a finish"),
        }
    }

    #[test]
    fn failing_backup_waits_for_the_slow_primary() {
        let p = pool();
        let out = hedged_race(
            &p,
            || {
                std::thread::sleep(Duration::from_millis(40));
                ok(1)
            },
            far(),
            || Some(|| Err(9)),
            |r: &Result<i32, i32>| r.is_ok(),
        );
        match out {
            HedgeOutcome::Finished { result, hedged, backup_won } => {
                assert_eq!(result, Ok(1), "a fast failure must not beat a slow success");
                assert!(hedged);
                assert!(!backup_won);
            }
            _ => panic!("expected a finish"),
        }
    }

    #[test]
    fn both_failing_returns_a_failure() {
        let p = pool();
        let out = hedged_race(
            &p,
            || {
                std::thread::sleep(Duration::from_millis(20));
                Err::<i32, i32>(1)
            },
            far(),
            || Some(|| Err(2)),
            |r| r.is_ok(),
        );
        match out {
            HedgeOutcome::Finished { result, hedged, .. } => {
                assert!(result.is_err());
                assert!(hedged);
            }
            _ => panic!("expected a finish"),
        }
    }

    #[test]
    fn no_admissible_backup_still_waits_for_the_primary() {
        let p = pool();
        let out = hedged_race(
            &p,
            || {
                std::thread::sleep(Duration::from_millis(30));
                ok(7)
            },
            far(),
            || None::<fn() -> Result<i32, i32>>,
            |r| r.is_ok(),
        );
        match out {
            HedgeOutcome::Finished { result, hedged, backup_won } => {
                assert_eq!(result, Ok(7));
                assert!(!hedged, "no backup was admitted");
                assert!(!backup_won);
            }
            _ => panic!("expected a finish"),
        }
    }

    #[test]
    fn deadline_expiry_abandons_the_race() {
        let p = pool();
        let out = hedged_race(
            &p,
            || {
                std::thread::sleep(Duration::from_millis(200));
                ok(1)
            },
            Instant::now() + Duration::from_millis(30),
            || {
                Some(|| {
                    std::thread::sleep(Duration::from_millis(200));
                    ok(2)
                })
            },
            |r| r.is_ok(),
        );
        assert!(matches!(out, HedgeOutcome::DeadlineExpired { hedged: true }));
    }

    #[test]
    fn a_primary_parked_past_the_deadline_spends_no_backup() {
        let p = pool();
        let out = hedged_race(
            &p,
            || ok(1),
            Instant::now() - Duration::from_millis(1),
            || -> Option<fn() -> Result<i32, i32>> { panic!("no backup past the deadline") },
            |r| r.is_ok(),
        );
        assert!(matches!(out, HedgeOutcome::DeadlineExpired { hedged: false }));
    }

    #[test]
    fn hedge_delay_gates_on_evidence() {
        let cfg = HedgeConfig::default();
        let p95 = Some(Duration::from_millis(10));
        assert_eq!(cfg.hedge_delay(p95, 100), Some(Duration::from_millis(10)));
        assert_eq!(cfg.hedge_delay(p95, 3), None, "thin evidence must not arm a hedge");
        assert_eq!(cfg.hedge_delay(None, 100), None);
        // Clamping at both ends.
        assert_eq!(cfg.hedge_delay(Some(Duration::from_micros(5)), 100), Some(cfg.min_delay));
        assert_eq!(cfg.hedge_delay(Some(Duration::from_secs(5)), 100), Some(cfg.max_delay));
        let off = HedgeConfig { enabled: false, ..cfg };
        assert_eq!(off.hedge_delay(p95, 100), None);
    }
}
