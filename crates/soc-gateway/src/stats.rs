//! The gateway's per-replica records, snapshotted as JSON on
//! `/gateway/stats`.
//!
//! One [`UpstreamStats`] per replica endpoint holds everything the
//! gateway knows about it: counters, latency histogram, circuit
//! breaker, recent [`Window`] and cumulative success-latency mean. An
//! attempt resolves its replica's record once and reads and writes
//! only that record from then on.
//!
//! The histogram implementation lives in [`soc_observe`] — the gateway
//! was its first customer and the type moved down the stack when the
//! metrics plane was unified. The alias keeps the original name; the
//! per-upstream histograms are registered in the process-wide
//! [`soc_observe::MetricsRegistry`], so the same series the JSON
//! snapshot reports also shows up as
//! `soc_gateway_upstream_latency_us{upstream="…"}` on
//! `/observe/metrics`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use soc_json::Value;
use soc_registry::monitor::{OutcomeSeries, Window};

use crate::breaker::{BreakerConfig, CircuitBreaker};

pub use soc_observe::{Histogram as LatencyHistogram, LATENCY_BUCKETS_US};

/// Observations each replica's recent window keeps: the evidence for
/// hedge delays, outlier ejection and discovery ranking.
pub const RECENT_WINDOW: usize = 256;

/// One read of a replica's recent window, taken under its lock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecentQos {
    /// Observations in the window, successes and failures.
    pub observations: usize,
    /// Successes among them: the samples `p95` ranks.
    pub successes: usize,
    /// Nearest-rank p95 latency of those successes, if any.
    pub p95: Option<Duration>,
    /// Failure fraction over the window, if it holds anything.
    pub error_rate: Option<f64>,
}

/// Everything the gateway tracks about one upstream replica.
pub struct UpstreamStats {
    /// Proxied requests sent (including retries).
    pub requests: AtomicU64,
    /// Requests answered without an upstream failure.
    pub successes: AtomicU64,
    /// 5xx answers and transport errors.
    pub failures: AtomicU64,
    /// Requests that were retry attempts (second try onward).
    pub retries: AtomicU64,
    /// Requests in flight right now.
    pub in_flight: AtomicUsize,
    /// Latency of every proxied request; shared with the global metrics
    /// registry.
    pub histogram: Arc<LatencyHistogram>,
    /// The replica's circuit breaker.
    pub breaker: CircuitBreaker,
    endpoint: String,
    /// Latency summed over every success, for the cumulative mean.
    success_nanos: AtomicU64,
    recent: Mutex<Window>,
    /// `soc_qos_observations_total{service=<endpoint>}`, registered at
    /// the first observation, so only attempted replicas export it.
    outcomes: OnceLock<OutcomeSeries>,
}

impl UpstreamStats {
    fn new(endpoint: &str, breaker: BreakerConfig) -> Self {
        UpstreamStats {
            requests: AtomicU64::new(0),
            successes: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            histogram: soc_observe::metrics()
                .histogram("soc_gateway_upstream_latency_us", &[("upstream", endpoint)]),
            breaker: CircuitBreaker::new(breaker),
            endpoint: endpoint.to_string(),
            success_nanos: AtomicU64::new(0),
            recent: Mutex::new(Window::new(RECENT_WINDOW)),
            outcomes: OnceLock::new(),
        }
    }

    /// The replica's endpoint URL.
    pub(crate) fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Count one finished attempt: a success (with its latency) or a
    /// failure.
    pub(crate) fn observe(&self, ok: bool, latency: Duration) {
        if ok {
            let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
            self.success_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.successes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.recent.lock().record(ok, latency);
        self.outcomes.get_or_init(|| OutcomeSeries::new(&self.endpoint)).count(ok);
    }

    /// Mean latency over every success, or `None` before the first.
    pub(crate) fn mean_latency(&self) -> Option<Duration> {
        let n = self.successes.load(Ordering::Relaxed);
        (n > 0).then(|| Duration::from_nanos(self.success_nanos.load(Ordering::Relaxed) / n))
    }

    /// The recent window's figures.
    pub(crate) fn recent(&self) -> RecentQos {
        let mut window = self.recent.lock();
        RecentQos {
            observations: window.len(),
            successes: window.successes(),
            p95: window.percentile(0.95),
            error_rate: window.error_rate(),
        }
    }
}

/// Gateway-wide counters plus the per-replica table.
#[derive(Default)]
pub struct GatewayStats {
    upstreams: RwLock<HashMap<String, Arc<UpstreamStats>>>,
    /// Tuning for the breaker each new record gets.
    breaker: BreakerConfig,
    /// Requests admitted past rate limiting and the concurrency cap.
    pub admitted: AtomicU64,
    /// Requests shed by the token bucket.
    pub shed_rate: AtomicU64,
    /// Requests shed by the concurrency cap.
    pub shed_load: AtomicU64,
    /// Requests shed by a per-service admission quota.
    pub shed_service: AtomicU64,
    /// Requests that ran out of deadline inside the gateway.
    pub deadline_exceeded: AtomicU64,
    /// Requests for services with no known replicas.
    pub no_upstream: AtomicU64,
    /// Backup requests launched because a primary crossed its hedge
    /// delay.
    pub hedges_launched: AtomicU64,
    /// Hedged requests where the backup's answer won the race.
    pub hedges_won: AtomicU64,
    /// Shard-map publishes rejected because their version was older
    /// than the map already routing (a delayed rebalance publish).
    pub shard_map_rejects: AtomicU64,
    /// `not_primary` redirect hops followed for shard-keyed requests.
    pub shard_redirects: AtomicU64,
}

impl GatewayStats {
    /// Fresh, all-zero stats whose replicas get breakers tuned by
    /// `breaker`.
    pub fn new(breaker: BreakerConfig) -> Self {
        GatewayStats { breaker, ..Self::default() }
    }

    /// The record for `endpoint`, created on first use.
    pub fn upstream(&self, endpoint: &str) -> Arc<UpstreamStats> {
        if let Some(s) = self.get(endpoint) {
            return s;
        }
        self.upstreams
            .write()
            .entry(endpoint.to_string())
            .or_insert_with(|| Arc::new(UpstreamStats::new(endpoint, self.breaker)))
            .clone()
    }

    /// The record for `endpoint`, if it has been seen.
    pub fn get(&self, endpoint: &str) -> Option<Arc<UpstreamStats>> {
        self.upstreams.read().get(endpoint).cloned()
    }

    /// Endpoints seen so far, sorted.
    pub fn upstream_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.upstreams.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Total requests shed for any reason.
    pub fn shed_total(&self) -> u64 {
        self.shed_rate.load(Ordering::Relaxed)
            + self.shed_load.load(Ordering::Relaxed)
            + self.shed_service.load(Ordering::Relaxed)
    }

    /// Snapshot as JSON. `ejections` is the outlier ejector's event
    /// count; `ejected` says whether a replica is currently held out of
    /// balancing.
    pub fn to_json(&self, policy: &str, ejections: u64, ejected: impl Fn(&str) -> bool) -> Value {
        let mut shed = Value::Object(vec![]);
        shed.set("rate", self.shed_rate.load(Ordering::Relaxed) as i64);
        shed.set("load", self.shed_load.load(Ordering::Relaxed) as i64);
        shed.set("service_quota", self.shed_service.load(Ordering::Relaxed) as i64);
        shed.set("total", self.shed_total() as i64);

        let mut hedges = Value::Object(vec![]);
        hedges.set("launched", self.hedges_launched.load(Ordering::Relaxed) as i64);
        hedges.set("won", self.hedges_won.load(Ordering::Relaxed) as i64);

        let mut upstreams = Value::Object(vec![]);
        for name in self.upstream_names() {
            let s = self.upstream(&name);
            let mut u = Value::Object(vec![]);
            u.set("requests", s.requests.load(Ordering::Relaxed) as i64);
            u.set("successes", s.successes.load(Ordering::Relaxed) as i64);
            u.set("failures", s.failures.load(Ordering::Relaxed) as i64);
            u.set("retries", s.retries.load(Ordering::Relaxed) as i64);
            u.set("in_flight", s.in_flight.load(Ordering::Relaxed) as i64);
            u.set("breaker", s.breaker.state().as_str());
            u.set("ejected", ejected(&name));
            u.set("mean_latency_us", s.histogram.mean_us() as i64);
            if let Some(p50) = s.histogram.quantile_us(0.50) {
                u.set("p50_latency_us", p50 as i64);
            }
            if let Some(p99) = s.histogram.quantile_us(0.99) {
                u.set("p99_latency_us", p99 as i64);
            }
            let buckets: Vec<Value> = s
                .histogram
                .buckets()
                .into_iter()
                .map(|(bound, n)| {
                    Value::Array(vec![
                        bound.map(|b| Value::from(b as i64)).unwrap_or(Value::Null),
                        Value::from(n as i64),
                    ])
                })
                .collect();
            u.set("latency_buckets_us", Value::Array(buckets));
            upstreams.set(name, u);
        }

        let mut root = Value::Object(vec![]);
        root.set("policy", policy);
        root.set("admitted", self.admitted.load(Ordering::Relaxed) as i64);
        root.set("shed", shed);
        root.set("deadline_exceeded", self.deadline_exceeded.load(Ordering::Relaxed) as i64);
        root.set("no_upstream", self.no_upstream.load(Ordering::Relaxed) as i64);
        root.set("hedges", hedges);
        root.set("ejections", ejections as i64);
        let mut shard = Value::Object(vec![]);
        shard.set("map_rejects", self.shard_map_rejects.load(Ordering::Relaxed) as i64);
        shard.set("redirects", self.shard_redirects.load(Ordering::Relaxed) as i64);
        root.set("shard", shard);
        root.set("upstreams", upstreams);
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        for ms in [1u64, 1, 1, 2, 4, 9, 40, 400] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 8);
        // Rank 4 of 8: three 1 ms samples fill the 1000 µs bucket, the
        // 2 ms sample tips the median into the 2500 µs bucket.
        assert_eq!(h.quantile_us(0.5), Some(2_500));
        assert_eq!(h.quantile_us(1.0), Some(500_000));
        assert!(h.mean_us() > 0);
        let total: u64 = h.buckets().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_secs(5));
        let buckets = h.buckets();
        assert_eq!(buckets, vec![(None, 1)]);
        assert_eq!(h.quantile_us(0.5), Some(1_000_000));
    }

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.mean_us(), 0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn stats_json_snapshot() {
        let stats = GatewayStats::default();
        stats.admitted.fetch_add(3, Ordering::Relaxed);
        stats.shed_rate.fetch_add(1, Ordering::Relaxed);
        stats.shed_service.fetch_add(2, Ordering::Relaxed);
        stats.hedges_launched.fetch_add(4, Ordering::Relaxed);
        stats.hedges_won.fetch_add(1, Ordering::Relaxed);
        let up = stats.upstream("mem://a");
        up.requests.fetch_add(3, Ordering::Relaxed);
        up.successes.fetch_add(2, Ordering::Relaxed);
        up.failures.fetch_add(1, Ordering::Relaxed);
        up.histogram.record(Duration::from_millis(2));
        let v = stats.to_json("round-robin", 1, |_| true);
        let text = v.to_string();
        assert!(text.contains("\"policy\""));
        let parsed = Value::parse(&text).unwrap();
        assert_eq!(
            parsed.pointer("/upstreams/mem:~1~1a/requests").and_then(Value::as_i64),
            Some(3)
        );
        assert_eq!(v.pointer("/admitted").and_then(Value::as_i64), Some(3));
        assert_eq!(v.pointer("/shed/service_quota").and_then(Value::as_i64), Some(2));
        assert_eq!(v.pointer("/shed/total").and_then(Value::as_i64), Some(3));
        assert_eq!(v.pointer("/hedges/launched").and_then(Value::as_i64), Some(4));
        assert_eq!(v.pointer("/hedges/won").and_then(Value::as_i64), Some(1));
        assert_eq!(v.pointer("/ejections").and_then(Value::as_i64), Some(1));
        assert_eq!(
            v.pointer("/upstreams/mem:~1~1a/breaker").and_then(Value::as_str),
            Some("closed")
        );
        assert_eq!(v.pointer("/upstreams/mem:~1~1a/ejected").and_then(Value::as_bool), Some(true));
    }
}
