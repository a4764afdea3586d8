//! Load-balancing policies and outlier ejection.
//!
//! Three classic policies, selectable per gateway:
//!
//! * **Round-robin** — fair rotation, oblivious to load.
//! * **Random two-choice** — pick two replicas at random, send to the
//!   less loaded one. The "power of two choices" gets most of the
//!   benefit of full load tracking at a fraction of the coordination.
//! * **Least-latency** — send to the replica with the lowest observed
//!   mean latency, as its record measures it from every proxied
//!   request.
//!
//! Orthogonal to the policy, the [`OutlierEjector`] removes replicas
//! whose recent error rate or p95 latency sits far above the replica
//! set's median — the "one slow machine dictates the tail" problem —
//! and re-admits them after a cool-off so recovery is discovered. Both
//! read each candidate's [`UpstreamStats`] record, which the candidate's
//! [`UpstreamView`] carries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use soc_http::FaultRng;

use crate::stats::UpstreamStats;

/// Which balancing policy a gateway runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Rotate through replicas in order.
    RoundRobin,
    /// Two random candidates; the less loaded wins.
    RandomTwoChoice,
    /// Lowest observed mean latency wins; unmeasured replicas are
    /// explored first.
    LeastLatency,
}

impl Policy {
    /// Lower-case label for stats output.
    pub fn as_str(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::RandomTwoChoice => "random-two-choice",
            Policy::LeastLatency => "least-latency",
        }
    }
}

/// What the balancer knows about one candidate replica at pick time.
#[derive(Clone)]
pub struct UpstreamView {
    /// The replica's record.
    pub replica: Arc<UpstreamStats>,
    /// Requests currently in flight to it through this gateway.
    pub in_flight: usize,
    /// Mean latency over its successes, when any.
    pub mean_latency: Option<Duration>,
}

/// The policy engine: holds per-service round-robin cursors and the
/// RNG for two-choice sampling.
pub struct Balancer {
    policy: Policy,
    cursors: Mutex<HashMap<String, usize>>,
    rng: Mutex<FaultRng>,
}

impl Balancer {
    /// A balancer running `policy`, with a deterministic seed for
    /// reproducible experiments.
    pub fn new(policy: Policy, seed: u64) -> Self {
        Balancer {
            policy,
            cursors: Mutex::new(HashMap::new()),
            rng: Mutex::new(FaultRng::new(seed)),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Pick one of `candidates` for `service`. Returns an index into
    /// `candidates`, or `None` when there are none.
    pub fn pick(&self, service: &str, candidates: &[UpstreamView]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        if candidates.len() == 1 {
            return Some(0);
        }
        match self.policy {
            Policy::RoundRobin => {
                let mut cursors = self.cursors.lock();
                let turn = match cursors.get_mut(service) {
                    Some(cursor) => std::mem::replace(cursor, cursor.wrapping_add(1)),
                    None => {
                        cursors.insert(service.to_string(), 1);
                        0
                    }
                };
                Some(turn % candidates.len())
            }
            Policy::RandomTwoChoice => {
                let (a, b) = {
                    let mut rng = self.rng.lock();
                    let a = rng.below(candidates.len());
                    let mut b = rng.below(candidates.len() - 1);
                    if b >= a {
                        b += 1;
                    }
                    (a, b)
                };
                Some(less_loaded(candidates, a, b))
            }
            Policy::LeastLatency => {
                // Unmeasured replicas first — otherwise a replica with
                // no traffic never earns a measurement.
                if let Some(i) = candidates.iter().position(|c| c.mean_latency.is_none()) {
                    return Some(i);
                }
                candidates
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| (c.mean_latency.unwrap_or_default(), c.in_flight))
                    .map(|(i, _)| i)
            }
        }
    }
}

/// Two-choice tie-break order: fewer in-flight, then lower latency,
/// then first.
fn less_loaded(candidates: &[UpstreamView], a: usize, b: usize) -> usize {
    let (ca, cb) = (&candidates[a], &candidates[b]);
    let key = |c: &UpstreamView| (c.in_flight, c.mean_latency.unwrap_or_default());
    if key(cb) < key(ca) {
        b
    } else {
        a
    }
}

/// Eject when a replica's recent p95 exceeds this multiple of the
/// replica-set median p95 (and [`OutlierConfig::min_latency`]).
const LATENCY_FACTOR: f64 = 3.0;
/// Eject when a replica's recent error rate exceeds the set's median
/// error rate by this margin (absolute, 0.0–1.0).
const ERROR_MARGIN: f64 = 0.5;

/// Tuning for [`OutlierEjector`]. The defaults are deliberately
/// conservative: a replica must look *much* worse than its peers, over
/// a meaningful sample, before it is pulled from rotation.
#[derive(Debug, Clone)]
pub struct OutlierConfig {
    /// Master switch; `false` keeps every replica in rotation.
    pub enabled: bool,
    /// Re-evaluate the replica set at most this often per service.
    pub eval_interval: Duration,
    /// Minimum recent observations a replica needs before it can be
    /// judged — thin evidence never ejects.
    pub min_samples: usize,
    /// A replica is ejected for latency only when its recent p95 is
    /// also at least this large in absolute terms (as well as exceeding
    /// three times the set's median p95), so µs-scale jitter between
    /// healthy replicas never triggers ejection.
    pub min_latency: Duration,
    /// How long an ejected replica stays out before re-admission.
    /// After expiry it rejoins rotation — live traffic is the probe —
    /// and is re-ejected if still an outlier at the next evaluation.
    pub eject_duration: Duration,
    /// Never eject more than this fraction of a replica set (rounded
    /// down, but an eligible set of ≥ 2 always allows one ejection).
    pub max_eject_fraction: f64,
}

impl Default for OutlierConfig {
    fn default() -> Self {
        OutlierConfig {
            enabled: true,
            eval_interval: Duration::from_millis(100),
            min_samples: 16,
            min_latency: Duration::from_millis(2),
            eject_duration: Duration::from_secs(5),
            max_eject_fraction: 0.5,
        }
    }
}

struct ServiceEjections {
    last_eval: Option<Instant>,
    /// endpoint → instant the ejection lapses.
    ejected: HashMap<String, Instant>,
}

/// Removes statistical outliers from a replica set before balancing.
///
/// Ejection is *relative*: a replica is compared against the median of
/// its peers, not an absolute SLO, so the ejector adapts to whatever
/// baseline the service actually has. Decisions are cached per service
/// for [`OutlierConfig::eval_interval`] to keep the hot path cheap, and
/// the ejector fails open — if ejection would leave no candidates, the
/// full set is returned untouched.
pub struct OutlierEjector {
    config: OutlierConfig,
    services: Mutex<HashMap<String, ServiceEjections>>,
    ejections: AtomicU64,
}

impl OutlierEjector {
    /// An ejector with the given tuning.
    pub fn new(config: OutlierConfig) -> Self {
        OutlierEjector {
            config,
            services: Mutex::new(HashMap::new()),
            ejections: AtomicU64::new(0),
        }
    }

    /// The active tuning.
    pub fn config(&self) -> &OutlierConfig {
        &self.config
    }

    /// Total ejection events since construction (re-ejections count).
    pub fn total_ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// Is `endpoint` currently ejected for any service?
    pub fn is_ejected(&self, endpoint: &str) -> bool {
        let now = Instant::now();
        self.services
            .lock()
            .values()
            .any(|s| s.ejected.get(endpoint).is_some_and(|until| *until > now))
    }

    /// Endpoints of `service` currently held out of rotation, sorted.
    pub fn ejected_endpoints(&self, service: &str) -> Vec<String> {
        let now = Instant::now();
        let services = self.services.lock();
        let Some(state) = services.get(service) else { return Vec::new() };
        let mut out: Vec<String> = state
            .ejected
            .iter()
            .filter(|(_, until)| **until > now)
            .map(|(e, _)| e.clone())
            .collect();
        out.sort();
        out
    }

    /// Partition `candidates` into (kept, ejected-endpoint-names) for
    /// `service`, re-evaluating outlier status against the candidates'
    /// recent windows when the cached decision is stale. Fails open: if
    /// every candidate would be ejected, all are kept.
    pub fn filter(
        &self,
        service: &str,
        candidates: Vec<UpstreamView>,
    ) -> (Vec<UpstreamView>, Vec<String>) {
        if !self.config.enabled || candidates.len() < 2 {
            return (candidates, Vec::new());
        }
        let now = Instant::now();
        let mut services = self.services.lock();
        if !services.contains_key(service) {
            let fresh = ServiceEjections { last_eval: None, ejected: HashMap::new() };
            services.insert(service.to_string(), fresh);
        }
        let state = services.get_mut(service).expect("inserted above");

        let stale =
            state.last_eval.is_none_or(|t| now.duration_since(t) >= self.config.eval_interval);
        if stale {
            state.last_eval = Some(now);
            self.evaluate(state, &candidates, now);
        }

        // Expired ejections fall out of the map here: the replica
        // rejoins rotation, and live traffic serves as its re-admission
        // probe until the next evaluation passes judgement again.
        state.ejected.retain(|_, until| *until > now);

        // Fail open: an empty replica set is strictly worse than a
        // suspect one, so if ejection would remove everyone, keep all.
        if candidates.iter().all(|c| state.ejected.contains_key(c.replica.endpoint())) {
            state.ejected.clear();
            return (candidates, Vec::new());
        }

        let mut kept = Vec::with_capacity(candidates.len());
        let mut out = Vec::new();
        for c in candidates {
            if state.ejected.contains_key(c.replica.endpoint()) {
                out.push(c.replica.endpoint().to_string());
            } else {
                kept.push(c);
            }
        }
        (kept, out)
    }

    /// Re-judge `candidates`, adding fresh ejections to `state`.
    fn evaluate(&self, state: &mut ServiceEjections, candidates: &[UpstreamView], now: Instant) {
        #[derive(Clone, Copy)]
        struct Judged<'a> {
            endpoint: &'a str,
            /// `None` when the replica's window holds no successful
            /// (latency-sampled) answer — an all-failing replica.
            p95: Option<Duration>,
            err: f64,
        }
        let mut judged: Vec<Judged> = Vec::new();
        for c in candidates {
            let recent = c.replica.recent();
            if recent.observations < self.config.min_samples {
                continue;
            }
            let Some(err) = recent.error_rate else { continue };
            judged.push(Judged { endpoint: c.replica.endpoint(), p95: recent.p95, err });
        }
        if judged.len() < 2 {
            return; // no peer group to compare against
        }

        // Lower median, so that in a 2-replica set a candidate is
        // compared against its *peer*, not against itself.
        let median_p95 = {
            let mut v: Vec<Duration> = judged.iter().filter_map(|j| j.p95).collect();
            v.sort();
            if v.is_empty() {
                Duration::ZERO
            } else {
                v[(v.len() - 1) / 2]
            }
        };
        let median_err = {
            let mut v: Vec<f64> = judged.iter().map(|j| j.err).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            v[(v.len() - 1) / 2]
        };

        // Budget: how many of this set may be out at once.
        let max_out = ((candidates.len() as f64 * self.config.max_eject_fraction) as usize).max(1);

        // Worst offenders first so the budget goes to the clearest outliers.
        let mut offenders: Vec<(Judged, f64)> = judged
            .iter()
            .filter_map(|j| {
                let latency_out = j.p95.is_some_and(|p95| {
                    median_p95 > Duration::ZERO
                        && p95.as_secs_f64() > median_p95.as_secs_f64() * LATENCY_FACTOR
                        && p95 >= self.config.min_latency
                });
                let error_out = j.err > median_err + ERROR_MARGIN;
                if !(latency_out || error_out) {
                    return None;
                }
                let severity = match (j.p95, median_p95 > Duration::ZERO) {
                    (Some(p95), true) => p95.as_secs_f64() / median_p95.as_secs_f64() + j.err,
                    _ => 1.0 + j.err,
                };
                Some((*j, severity))
            })
            .collect();
        offenders.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        for (j, _) in offenders {
            let already_out = state.ejected.values().filter(|until| **until > now).count();
            if already_out >= max_out {
                break;
            }
            let until = now + self.config.eject_duration;
            let fresh =
                state.ejected.insert(j.endpoint.to_string(), until).is_none_or(|prev| prev <= now);
            if fresh {
                self.ejections.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GatewayStats;

    fn view(
        stats: &GatewayStats,
        endpoint: &str,
        in_flight: usize,
        latency_ms: Option<u64>,
    ) -> UpstreamView {
        UpstreamView {
            replica: stats.upstream(endpoint),
            in_flight,
            mean_latency: latency_ms.map(Duration::from_millis),
        }
    }

    #[test]
    fn round_robin_cycles_per_service() {
        let stats = GatewayStats::default();
        let b = Balancer::new(Policy::RoundRobin, 7);
        let c = vec![
            view(&stats, "a", 0, None),
            view(&stats, "b", 0, None),
            view(&stats, "c", 0, None),
        ];
        let picks: Vec<usize> = (0..6).map(|_| b.pick("svc", &c).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Another service has its own cursor.
        assert_eq!(b.pick("other", &c), Some(0));
    }

    #[test]
    fn two_choice_prefers_the_less_loaded() {
        let stats = GatewayStats::default();
        let b = Balancer::new(Policy::RandomTwoChoice, 42);
        // One idle replica among loaded ones: with two random probes it
        // must win every comparison it appears in, so it gets picked
        // far more often than 1/3 of the time.
        let c = vec![
            view(&stats, "busy1", 10, None),
            view(&stats, "idle", 0, None),
            view(&stats, "busy2", 10, None),
        ];
        let idle_picks = (0..300).filter(|_| b.pick("svc", &c) == Some(1)).count();
        assert!(idle_picks > 120, "idle replica picked only {idle_picks}/300");
    }

    #[test]
    fn least_latency_picks_the_fastest_known() {
        let stats = GatewayStats::default();
        let b = Balancer::new(Policy::LeastLatency, 1);
        let c = vec![
            view(&stats, "slow", 0, Some(80)),
            view(&stats, "fast", 0, Some(5)),
            view(&stats, "mid", 0, Some(20)),
        ];
        assert_eq!(b.pick("svc", &c), Some(1));
    }

    #[test]
    fn least_latency_explores_unmeasured_replicas() {
        let stats = GatewayStats::default();
        let b = Balancer::new(Policy::LeastLatency, 1);
        let c = vec![view(&stats, "fast", 0, Some(5)), view(&stats, "new", 0, None)];
        assert_eq!(b.pick("svc", &c), Some(1));
    }

    #[test]
    fn empty_and_singleton_candidate_sets() {
        let stats = GatewayStats::default();
        let b = Balancer::new(Policy::RoundRobin, 1);
        assert_eq!(b.pick("svc", &[]), None);
        assert_eq!(b.pick("svc", &[view(&stats, "only", 3, None)]), Some(0));
    }

    fn feed(stats: &GatewayStats, endpoint: &str, n: usize, ok: bool, latency: Duration) {
        let replica = stats.upstream(endpoint);
        for _ in 0..n {
            replica.observe(ok, latency);
        }
    }

    fn eager_config() -> OutlierConfig {
        OutlierConfig {
            eval_interval: Duration::ZERO,
            min_samples: 8,
            min_latency: Duration::from_micros(1),
            eject_duration: Duration::from_secs(60),
            ..OutlierConfig::default()
        }
    }

    #[test]
    fn slow_outlier_is_ejected_and_counted() {
        let stats = GatewayStats::default();
        feed(&stats, "a", 32, true, Duration::from_millis(1));
        feed(&stats, "b", 32, true, Duration::from_millis(1));
        feed(&stats, "slow", 32, true, Duration::from_millis(20));
        let ej = OutlierEjector::new(eager_config());
        let views = vec![
            view(&stats, "a", 0, Some(1)),
            view(&stats, "b", 0, Some(1)),
            view(&stats, "slow", 0, Some(20)),
        ];
        let (kept, out) = ej.filter("svc", views);
        assert_eq!(out, vec!["slow".to_string()]);
        assert_eq!(kept.len(), 2);
        assert_eq!(ej.total_ejections(), 1);
        assert_eq!(ej.ejected_endpoints("svc"), vec!["slow".to_string()]);
    }

    #[test]
    fn erroring_outlier_is_ejected() {
        let stats = GatewayStats::default();
        feed(&stats, "a", 32, true, Duration::from_millis(1));
        feed(&stats, "b", 32, true, Duration::from_millis(1));
        feed(&stats, "bad", 32, false, Duration::from_millis(1));
        let ej = OutlierEjector::new(eager_config());
        let views = vec![
            view(&stats, "a", 0, None),
            view(&stats, "b", 0, None),
            view(&stats, "bad", 0, None),
        ];
        let (kept, out) = ej.filter("svc", views);
        assert_eq!(out, vec!["bad".to_string()]);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn thin_evidence_never_ejects() {
        let stats = GatewayStats::default();
        feed(&stats, "a", 32, true, Duration::from_millis(1));
        feed(&stats, "slow", 4, true, Duration::from_millis(50)); // < min_samples
        let ej = OutlierEjector::new(eager_config());
        let views = vec![view(&stats, "a", 0, None), view(&stats, "slow", 0, None)];
        let (kept, out) = ej.filter("svc", views);
        assert!(out.is_empty());
        assert_eq!(kept.len(), 2);
        assert_eq!(ej.total_ejections(), 0);
    }

    #[test]
    fn max_eject_fraction_bounds_ejections() {
        let stats = GatewayStats::default();
        feed(&stats, "good", 32, true, Duration::from_millis(1));
        feed(&stats, "slow1", 32, true, Duration::from_millis(40));
        feed(&stats, "slow2", 32, true, Duration::from_millis(50));
        feed(&stats, "slow3", 32, true, Duration::from_millis(60));
        let ej = OutlierEjector::new(OutlierConfig {
            max_eject_fraction: 0.25, // of 4 replicas → at most 1 out
            ..eager_config()
        });
        let views = vec![
            view(&stats, "good", 0, None),
            view(&stats, "slow1", 0, None),
            view(&stats, "slow2", 0, None),
            view(&stats, "slow3", 0, None),
        ];
        let (kept, out) = ej.filter("svc", views);
        // Only the single worst offender goes; the median (a slow one)
        // protects the rest anyway, but the budget is the hard cap.
        assert!(out.len() <= 1, "ejected {out:?}");
        assert!(kept.len() >= 3);
    }

    #[test]
    fn fails_open_when_everyone_is_an_outlier() {
        let stats = GatewayStats::default();
        feed(&stats, "a", 32, true, Duration::from_millis(1));
        feed(&stats, "slow", 32, true, Duration::from_millis(30));
        let ej = OutlierEjector::new(OutlierConfig { max_eject_fraction: 1.0, ..eager_config() });
        // First pass ejects "slow"; present only "slow" next — filter
        // must fail open rather than return an empty set.
        let views = vec![view(&stats, "a", 0, None), view(&stats, "slow", 0, None)];
        let (_, out) = ej.filter("svc", views);
        assert_eq!(out, vec!["slow".to_string()]);
        let (kept, out) = ej.filter("svc", vec![view(&stats, "slow", 0, None)]);
        assert!(out.is_empty());
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn disabled_ejector_keeps_everyone() {
        let stats = GatewayStats::default();
        feed(&stats, "a", 32, true, Duration::from_millis(1));
        feed(&stats, "slow", 32, true, Duration::from_millis(30));
        let ej = OutlierEjector::new(OutlierConfig { enabled: false, ..eager_config() });
        let views = vec![view(&stats, "a", 0, None), view(&stats, "slow", 0, None)];
        let (kept, out) = ej.filter("svc", views);
        assert!(out.is_empty());
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn ejection_lapses_after_eject_duration() {
        let stats = GatewayStats::default();
        feed(&stats, "a", 32, true, Duration::from_millis(1));
        feed(&stats, "b", 32, true, Duration::from_millis(1));
        feed(&stats, "slow", 32, true, Duration::from_millis(30));
        let ej = OutlierEjector::new(OutlierConfig {
            eject_duration: Duration::from_millis(30),
            // Long eval interval: the lapse is observed between evals,
            // exercising the re-admission (not re-judgement) path.
            eval_interval: Duration::from_secs(60),
            ..eager_config()
        });
        let mk = || {
            vec![
                view(&stats, "a", 0, None),
                view(&stats, "b", 0, None),
                view(&stats, "slow", 0, None),
            ]
        };
        let (_, out) = ej.filter("svc", mk());
        assert_eq!(out, vec!["slow".to_string()]);
        std::thread::sleep(Duration::from_millis(60));
        let (kept, out) = ej.filter("svc", mk());
        assert!(out.is_empty(), "lapsed ejection must re-admit");
        assert_eq!(kept.len(), 3);
        assert!(ej.ejected_endpoints("svc").is_empty());
    }
}
