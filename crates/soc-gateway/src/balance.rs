//! Load-balancing policies and outlier ejection.
//!
//! Three classic policies, selectable per gateway:
//!
//! * **Round-robin** — fair rotation, oblivious to load.
//! * **Random two-choice** — pick two replicas at random, send to the
//!   less loaded one. The "power of two choices" gets most of the
//!   benefit of full load tracking at a fraction of the coordination.
//! * **Least-latency** — send to the replica with the lowest observed
//!   mean latency, as measured by the shared [`QosMonitor`] that the
//!   gateway feeds with every proxied request.
//!
//! Orthogonal to the policy, the [`OutlierEjector`] removes replicas
//! whose recent error rate or p95 latency sits far above the replica
//! set's median — the "one slow machine dictates the tail" problem —
//! and re-admits them after a cool-off so recovery is discovered.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use soc_http::FaultRng;
use soc_registry::monitor::QosMonitor;

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
#[derive(Debug, Clone)]
pub struct UpstreamView {
    /// The replica's endpoint URL.
    pub endpoint: String,
    /// Requests currently in flight to it through this gateway.
    pub in_flight: usize,
    /// Mean latency observed by the QoS monitor, when any.
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
                let cursor = cursors.entry(service.to_string()).or_insert(0);
                let i = *cursor % candidates.len();
                *cursor = cursor.wrapping_add(1);
                Some(i)
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
    /// Eject when recent p95 exceeds `latency_factor ×` the replica-set
    /// median p95 …
    pub latency_factor: f64,
    /// … and is also at least this large in absolute terms, so µs-scale
    /// jitter between healthy replicas never triggers ejection.
    pub min_latency: Duration,
    /// Eject when recent error rate exceeds the set's median error rate
    /// by this margin (absolute, 0.0–1.0).
    pub error_margin: f64,
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
            latency_factor: 3.0,
            min_latency: Duration::from_millis(2),
            error_margin: 0.5,
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
    /// `service`, re-evaluating outlier status against `monitor` when
    /// the cached decision is stale. Fails open: if every candidate
    /// would be ejected, all are kept.
    pub fn filter(
        &self,
        service: &str,
        candidates: Vec<UpstreamView>,
        monitor: &QosMonitor,
    ) -> (Vec<UpstreamView>, Vec<String>) {
        if !self.config.enabled || candidates.len() < 2 {
            return (candidates, Vec::new());
        }
        let now = Instant::now();
        let mut services = self.services.lock();
        let state = services
            .entry(service.to_string())
            .or_insert_with(|| ServiceEjections { last_eval: None, ejected: HashMap::new() });

        let stale =
            state.last_eval.is_none_or(|t| now.duration_since(t) >= self.config.eval_interval);
        if stale {
            state.last_eval = Some(now);
            self.evaluate(state, &candidates, monitor, now);
        }

        // Expired ejections fall out of the map here: the replica
        // rejoins rotation, and live traffic serves as its re-admission
        // probe until the next evaluation passes judgement again.
        state.ejected.retain(|_, until| *until > now);

        // Fail open: an empty replica set is strictly worse than a
        // suspect one, so if ejection would remove everyone, keep all.
        if candidates.iter().all(|c| state.ejected.contains_key(&c.endpoint)) {
            state.ejected.clear();
            return (candidates, Vec::new());
        }

        let mut kept = Vec::with_capacity(candidates.len());
        let mut out = Vec::new();
        for c in candidates {
            if state.ejected.contains_key(&c.endpoint) {
                out.push(c.endpoint);
            } else {
                kept.push(c);
            }
        }
        (kept, out)
    }

    /// Re-judge `candidates`, adding fresh ejections to `state`.
    fn evaluate(
        &self,
        state: &mut ServiceEjections,
        candidates: &[UpstreamView],
        monitor: &QosMonitor,
        now: Instant,
    ) {
        #[derive(Clone)]
        struct Judged {
            endpoint: String,
            /// `None` when the replica has produced no successful
            /// (latency-sampled) answers — an all-failing replica.
            p95: Option<Duration>,
            err: f64,
        }
        let mut judged: Vec<Judged> = Vec::new();
        for c in candidates {
            let samples = monitor.recent_observations(&c.endpoint);
            if samples < self.config.min_samples {
                continue;
            }
            let Some(err) = monitor.recent_error_rate(&c.endpoint) else { continue };
            judged.push(Judged {
                endpoint: c.endpoint.clone(),
                p95: monitor.recent_p95(&c.endpoint),
                err,
            });
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
                        && p95.as_secs_f64() > median_p95.as_secs_f64() * self.config.latency_factor
                        && p95 >= self.config.min_latency
                });
                let error_out = j.err > median_err + self.config.error_margin;
                if !(latency_out || error_out) {
                    return None;
                }
                let severity = match (j.p95, median_p95 > Duration::ZERO) {
                    (Some(p95), true) => p95.as_secs_f64() / median_p95.as_secs_f64() + j.err,
                    _ => 1.0 + j.err,
                };
                Some((j.clone(), severity))
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
                state.ejected.insert(j.endpoint.clone(), until).is_none_or(|prev| prev <= now);
            if fresh {
                self.ejections.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(endpoint: &str, in_flight: usize, latency_ms: Option<u64>) -> UpstreamView {
        UpstreamView {
            endpoint: endpoint.to_string(),
            in_flight,
            mean_latency: latency_ms.map(Duration::from_millis),
        }
    }

    #[test]
    fn round_robin_cycles_per_service() {
        let b = Balancer::new(Policy::RoundRobin, 7);
        let c = vec![view("a", 0, None), view("b", 0, None), view("c", 0, None)];
        let picks: Vec<usize> = (0..6).map(|_| b.pick("svc", &c).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Another service has its own cursor.
        assert_eq!(b.pick("other", &c), Some(0));
    }

    #[test]
    fn two_choice_prefers_the_less_loaded() {
        let b = Balancer::new(Policy::RandomTwoChoice, 42);
        // One idle replica among loaded ones: with two random probes it
        // must win every comparison it appears in, so it gets picked
        // far more often than 1/3 of the time.
        let c = vec![view("busy1", 10, None), view("idle", 0, None), view("busy2", 10, None)];
        let idle_picks = (0..300).filter(|_| b.pick("svc", &c) == Some(1)).count();
        assert!(idle_picks > 120, "idle replica picked only {idle_picks}/300");
    }

    #[test]
    fn least_latency_picks_the_fastest_known() {
        let b = Balancer::new(Policy::LeastLatency, 1);
        let c = vec![view("slow", 0, Some(80)), view("fast", 0, Some(5)), view("mid", 0, Some(20))];
        assert_eq!(b.pick("svc", &c), Some(1));
    }

    #[test]
    fn least_latency_explores_unmeasured_replicas() {
        let b = Balancer::new(Policy::LeastLatency, 1);
        let c = vec![view("fast", 0, Some(5)), view("new", 0, None)];
        assert_eq!(b.pick("svc", &c), Some(1));
    }

    #[test]
    fn empty_and_singleton_candidate_sets() {
        let b = Balancer::new(Policy::RoundRobin, 1);
        assert_eq!(b.pick("svc", &[]), None);
        assert_eq!(b.pick("svc", &[view("only", 3, None)]), Some(0));
    }

    fn test_monitor() -> QosMonitor {
        QosMonitor::new(std::sync::Arc::new(soc_http::mem::MemNetwork::new()))
    }

    fn feed(monitor: &QosMonitor, endpoint: &str, n: usize, ok: bool, latency: Duration) {
        for _ in 0..n {
            monitor.record(endpoint, ok, latency);
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
        let monitor = test_monitor();
        feed(&monitor, "a", 32, true, Duration::from_millis(1));
        feed(&monitor, "b", 32, true, Duration::from_millis(1));
        feed(&monitor, "slow", 32, true, Duration::from_millis(20));
        let ej = OutlierEjector::new(eager_config());
        let views = vec![view("a", 0, Some(1)), view("b", 0, Some(1)), view("slow", 0, Some(20))];
        let (kept, out) = ej.filter("svc", views, &monitor);
        assert_eq!(out, vec!["slow".to_string()]);
        assert_eq!(kept.len(), 2);
        assert_eq!(ej.total_ejections(), 1);
        assert_eq!(ej.ejected_endpoints("svc"), vec!["slow".to_string()]);
    }

    #[test]
    fn erroring_outlier_is_ejected() {
        let monitor = test_monitor();
        feed(&monitor, "a", 32, true, Duration::from_millis(1));
        feed(&monitor, "b", 32, true, Duration::from_millis(1));
        feed(&monitor, "bad", 32, false, Duration::from_millis(1));
        let ej = OutlierEjector::new(eager_config());
        let views = vec![view("a", 0, None), view("b", 0, None), view("bad", 0, None)];
        let (kept, out) = ej.filter("svc", views, &monitor);
        assert_eq!(out, vec!["bad".to_string()]);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn thin_evidence_never_ejects() {
        let monitor = test_monitor();
        feed(&monitor, "a", 32, true, Duration::from_millis(1));
        feed(&monitor, "slow", 4, true, Duration::from_millis(50)); // < min_samples
        let ej = OutlierEjector::new(eager_config());
        let views = vec![view("a", 0, None), view("slow", 0, None)];
        let (kept, out) = ej.filter("svc", views, &monitor);
        assert!(out.is_empty());
        assert_eq!(kept.len(), 2);
        assert_eq!(ej.total_ejections(), 0);
    }

    #[test]
    fn max_eject_fraction_bounds_ejections() {
        let monitor = test_monitor();
        feed(&monitor, "good", 32, true, Duration::from_millis(1));
        feed(&monitor, "slow1", 32, true, Duration::from_millis(40));
        feed(&monitor, "slow2", 32, true, Duration::from_millis(50));
        feed(&monitor, "slow3", 32, true, Duration::from_millis(60));
        let ej = OutlierEjector::new(OutlierConfig {
            max_eject_fraction: 0.25, // of 4 replicas → at most 1 out
            ..eager_config()
        });
        let views = vec![
            view("good", 0, None),
            view("slow1", 0, None),
            view("slow2", 0, None),
            view("slow3", 0, None),
        ];
        let (kept, out) = ej.filter("svc", views, &monitor);
        // Only the single worst offender goes; the median (a slow one)
        // protects the rest anyway, but the budget is the hard cap.
        assert!(out.len() <= 1, "ejected {out:?}");
        assert!(kept.len() >= 3);
    }

    #[test]
    fn fails_open_when_everyone_is_an_outlier() {
        let monitor = test_monitor();
        feed(&monitor, "a", 32, true, Duration::from_millis(1));
        feed(&monitor, "slow", 32, true, Duration::from_millis(30));
        let ej = OutlierEjector::new(OutlierConfig { max_eject_fraction: 1.0, ..eager_config() });
        // First pass ejects "slow"; present only "slow" next — filter
        // must fail open rather than return an empty set.
        let views = vec![view("a", 0, None), view("slow", 0, None)];
        let (_, out) = ej.filter("svc", views, &monitor);
        assert_eq!(out, vec!["slow".to_string()]);
        let (kept, out) = ej.filter("svc", vec![view("slow", 0, None)], &monitor);
        assert!(out.is_empty());
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn disabled_ejector_keeps_everyone() {
        let monitor = test_monitor();
        feed(&monitor, "a", 32, true, Duration::from_millis(1));
        feed(&monitor, "slow", 32, true, Duration::from_millis(30));
        let ej = OutlierEjector::new(OutlierConfig { enabled: false, ..eager_config() });
        let views = vec![view("a", 0, None), view("slow", 0, None)];
        let (kept, out) = ej.filter("svc", views, &monitor);
        assert!(out.is_empty());
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn ejection_lapses_after_eject_duration() {
        let monitor = test_monitor();
        feed(&monitor, "a", 32, true, Duration::from_millis(1));
        feed(&monitor, "b", 32, true, Duration::from_millis(1));
        feed(&monitor, "slow", 32, true, Duration::from_millis(30));
        let ej = OutlierEjector::new(OutlierConfig {
            eject_duration: Duration::from_millis(30),
            // Long eval interval: the lapse is observed between evals,
            // exercising the re-admission (not re-judgement) path.
            eval_interval: Duration::from_secs(60),
            ..eager_config()
        });
        let mk = || vec![view("a", 0, None), view("b", 0, None), view("slow", 0, None)];
        let (_, out) = ej.filter("svc", mk(), &monitor);
        assert_eq!(out, vec!["slow".to_string()]);
        std::thread::sleep(Duration::from_millis(60));
        let (kept, out) = ej.filter("svc", mk(), &monitor);
        assert!(out.is_empty(), "lapsed ejection must re-admit");
        assert_eq!(kept.len(), 3);
        assert!(ej.ejected_endpoints("svc").is_empty());
    }
}
