//! QoS / availability monitoring of published services.
//!
//! Section V motivates the ASU repository with the failure modes of free
//! public services: *"The performance of some of the services is not
//! adequate... The availability, reliability, and maintainability are
//! not warranted. Services are often offline or removed without
//! notice."* The monitor measures exactly those properties: per-service
//! probe success rate, latency statistics, and lease-based liveness for
//! providers that are supposed to heartbeat.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use soc_http::mem::Transport;
use soc_http::Request;

/// Rolled-up quality metrics for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct QosReport {
    /// Service id.
    pub id: String,
    /// Probes sent.
    pub probes: u64,
    /// Probes that returned a 2xx.
    pub successes: u64,
    /// Availability in [0, 1].
    pub availability: f64,
    /// Mean latency over successful probes.
    pub mean_latency: Duration,
    /// Worst observed latency.
    pub max_latency: Duration,
    /// Median latency over successful probes.
    pub p50_latency: Duration,
    /// 95th-percentile latency over successful probes.
    pub p95_latency: Duration,
    /// 99th-percentile latency over successful probes.
    pub p99_latency: Duration,
}

/// Cap on retained latency samples per service; past it, the oldest
/// samples are overwritten so the percentile window slides forward.
const SAMPLE_CAP: usize = 8_192;

/// Window for the cheap "recent" accessors ([`QosMonitor::recent_percentile`],
/// [`QosMonitor::recent_error_rate`]) that load balancers consult on the
/// hot path: small enough to sort per call, fresh enough to track a
/// replica that just turned slow or flaky.
pub const RECENT_WINDOW: usize = 256;

struct Track {
    /// This service's `soc_qos_observations_total{outcome="ok"}` and
    /// `{outcome="error"}` series, resolved once when the track is
    /// created so recording an observation never touches the registry.
    ok_total: soc_observe::Counter,
    error_total: soc_observe::Counter,
    probes: u64,
    successes: u64,
    total_latency: Duration,
    max_latency: Duration,
    /// Success latencies in nanoseconds, a bounded sliding window.
    samples: Vec<u64>,
    /// Next overwrite position once `samples` hits [`SAMPLE_CAP`].
    next_slot: usize,
    /// Outcomes (ok / failed) of the last [`RECENT_WINDOW`] observations.
    recent_outcomes: std::collections::VecDeque<bool>,
}

impl Track {
    fn new(id: &str) -> Track {
        let series = |outcome| {
            soc_observe::metrics()
                .counter("soc_qos_observations_total", &[("service", id), ("outcome", outcome)])
        };
        Track {
            ok_total: series("ok"),
            error_total: series("error"),
            probes: 0,
            successes: 0,
            total_latency: Duration::ZERO,
            max_latency: Duration::ZERO,
            samples: Vec::new(),
            next_slot: 0,
            recent_outcomes: std::collections::VecDeque::new(),
        }
    }

    fn push_sample(&mut self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(nanos);
        } else {
            self.samples[self.next_slot] = nanos;
            self.next_slot = (self.next_slot + 1) % SAMPLE_CAP;
        }
    }

    fn push_outcome(&mut self, ok: bool) {
        self.recent_outcomes.push_back(ok);
        while self.recent_outcomes.len() > RECENT_WINDOW {
            self.recent_outcomes.pop_front();
        }
    }

    /// Nearest-rank percentile (`q` in [0, 1]) over the sample window.
    fn percentile(&self, q: f64) -> Duration {
        Self::percentile_of(&self.samples, q)
    }

    fn percentile_of(samples: &[u64], q: f64) -> Duration {
        if samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Duration::from_nanos(sorted[rank - 1])
    }

    /// The last up-to-[`RECENT_WINDOW`] success latencies, in insertion
    /// order (the ring buffer makes "last" a two-segment walk).
    fn recent_samples(&self) -> Vec<u64> {
        if self.samples.len() < SAMPLE_CAP {
            let start = self.samples.len().saturating_sub(RECENT_WINDOW);
            return self.samples[start..].to_vec();
        }
        // Full ring: `next_slot` is the oldest entry; the freshest
        // RECENT_WINDOW entries end just before it.
        let mut out = Vec::with_capacity(RECENT_WINDOW);
        for i in 0..RECENT_WINDOW {
            let idx = (self.next_slot + SAMPLE_CAP - RECENT_WINDOW + i) % SAMPLE_CAP;
            out.push(self.samples[idx]);
        }
        out
    }
}

/// Probes service endpoints and accumulates QoS statistics.
pub struct QosMonitor {
    transport: Arc<dyn Transport>,
    tracks: Mutex<HashMap<String, Track>>,
}

impl QosMonitor {
    /// Monitor over a transport.
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        QosMonitor { transport, tracks: Mutex::new(HashMap::new()) }
    }

    /// Probe `endpoint` once on behalf of service `id` (a plain GET; any
    /// 2xx counts as up). Returns whether the probe succeeded.
    pub fn probe(&self, id: &str, endpoint: &str) -> bool {
        let start = Instant::now();
        let ok = match self.transport.send(Request::get(endpoint)) {
            Ok(resp) => resp.status.is_success(),
            Err(_) => false,
        };
        self.record(id, ok, start.elapsed());
        ok
    }

    /// Record an externally observed outcome for service `id` — the same
    /// bookkeeping as [`QosMonitor::probe`] but with the caller supplying
    /// the result. Lets a gateway or client feed live traffic into the
    /// same QoS statistics the monitor's own probes populate.
    pub fn record(&self, id: &str, ok: bool, latency: Duration) {
        let mut tracks = self.tracks.lock();
        if !tracks.contains_key(id) {
            tracks.insert(id.to_string(), Track::new(id));
        }
        let t = tracks.get_mut(id).expect("track inserted above");
        // Mirror every observation into the process-wide metrics plane
        // so `/observe/metrics` reports availability next to the
        // gateway's latency histograms.
        let series = if ok { &t.ok_total } else { &t.error_total };
        series.inc();
        t.probes += 1;
        t.push_outcome(ok);
        if ok {
            t.successes += 1;
            t.total_latency += latency;
            t.max_latency = t.max_latency.max(latency);
            t.push_sample(latency);
        }
    }

    /// Probe a service `n` times in a row.
    pub fn probe_n(&self, id: &str, endpoint: &str, n: usize) {
        for _ in 0..n {
            self.probe(id, endpoint);
        }
    }

    /// Report for one service, if it has ever been probed.
    pub fn report(&self, id: &str) -> Option<QosReport> {
        let tracks = self.tracks.lock();
        let t = tracks.get(id)?;
        Some(QosReport {
            id: id.to_string(),
            probes: t.probes,
            successes: t.successes,
            availability: if t.probes == 0 { 0.0 } else { t.successes as f64 / t.probes as f64 },
            mean_latency: if t.successes == 0 {
                Duration::ZERO
            } else {
                t.total_latency / t.successes as u32
            },
            max_latency: t.max_latency,
            p50_latency: t.percentile(0.50),
            p95_latency: t.percentile(0.95),
            p99_latency: t.percentile(0.99),
        })
    }

    /// Mean latency over successful observations of `id`, without the
    /// percentile computation a full [`QosMonitor::report`] pays for —
    /// cheap enough to consult on every load-balancing decision.
    pub fn mean_latency(&self, id: &str) -> Option<Duration> {
        let tracks = self.tracks.lock();
        let t = tracks.get(id)?;
        if t.successes == 0 {
            None
        } else {
            Some(t.total_latency / t.successes as u32)
        }
    }

    /// Nearest-rank `q`-quantile latency over the last
    /// [`RECENT_WINDOW`] *successful* observations of `id`, or `None`
    /// when none were recorded. Cheap enough (sorts at most
    /// [`RECENT_WINDOW`] numbers) to consult per request — this is the
    /// feed for hedged-request triggers and outlier ejection.
    pub fn recent_percentile(&self, id: &str, q: f64) -> Option<Duration> {
        let tracks = self.tracks.lock();
        let t = tracks.get(id)?;
        let recent = t.recent_samples();
        if recent.is_empty() {
            None
        } else {
            Some(Track::percentile_of(&recent, q))
        }
    }

    /// 95th-percentile latency over the recent success window — the
    /// hedging trigger's "this should have answered by now" threshold.
    pub fn recent_p95(&self, id: &str) -> Option<Duration> {
        self.recent_percentile(id, 0.95)
    }

    /// Failure fraction over the last [`RECENT_WINDOW`] observations
    /// (successes *and* failures), or `None` when `id` has never been
    /// observed. Unlike cumulative availability, this tracks a replica
    /// that just started failing.
    pub fn recent_error_rate(&self, id: &str) -> Option<f64> {
        let tracks = self.tracks.lock();
        let t = tracks.get(id)?;
        if t.recent_outcomes.is_empty() {
            return None;
        }
        let failures = t.recent_outcomes.iter().filter(|ok| !**ok).count();
        Some(failures as f64 / t.recent_outcomes.len() as f64)
    }

    /// Successful latency samples currently retained for `id` (bounded
    /// by the sliding window cap). Gates percentile-driven decisions so
    /// one lucky sample cannot steer them.
    pub fn success_samples(&self, id: &str) -> usize {
        self.tracks.lock().get(id).map(|t| t.samples.len()).unwrap_or(0)
    }

    /// Observations (success or failure) in the recent outcome window.
    pub fn recent_observations(&self, id: &str) -> usize {
        self.tracks.lock().get(id).map(|t| t.recent_outcomes.len()).unwrap_or(0)
    }

    /// Reports for every probed service, sorted by id.
    pub fn all_reports(&self) -> Vec<QosReport> {
        let ids: Vec<String> = {
            let tracks = self.tracks.lock();
            tracks.keys().cloned().collect()
        };
        let mut reports: Vec<QosReport> = ids.iter().filter_map(|id| self.report(id)).collect();
        reports.sort_by(|a, b| a.id.cmp(&b.id));
        reports
    }
}

/// One registration lease: when it lapses, and (optionally) where the
/// provider serves from — the feed `soc-store`'s shard map hashes over.
#[derive(Debug, Clone)]
struct Lease {
    expiry: u64,
    endpoint: Option<String>,
}

/// Lease-based liveness: providers renew a lease; services whose lease
/// lapses are considered gone ("removed without notice") and expire out
/// of listings. Time is injected as a logical tick count so tests and
/// benches are deterministic.
#[derive(Default)]
pub struct LeaseTable {
    /// id → lease.
    leases: Mutex<HashMap<String, Lease>>,
}

impl LeaseTable {
    /// Empty table.
    pub fn new() -> Self {
        LeaseTable::default()
    }

    /// Grant or renew a lease until `now + duration_ticks`, keeping
    /// any previously advertised endpoint.
    pub fn renew(&self, id: &str, now: u64, duration_ticks: u64) {
        self.renew_with_endpoint(id, now, duration_ticks, None);
    }

    /// Grant or renew a lease, optionally (re)advertising the
    /// provider's endpoint. `None` preserves the previous endpoint, so
    /// steady-state heartbeats don't need to repeat it.
    pub fn renew_with_endpoint(
        &self,
        id: &str,
        now: u64,
        duration_ticks: u64,
        endpoint: Option<&str>,
    ) {
        let mut leases = self.leases.lock();
        let expiry = now.saturating_add(duration_ticks);
        match leases.get_mut(id) {
            Some(lease) => {
                lease.expiry = expiry;
                if let Some(ep) = endpoint {
                    lease.endpoint = Some(ep.to_string());
                }
            }
            None => {
                leases.insert(
                    id.to_string(),
                    Lease { expiry, endpoint: endpoint.map(str::to_string) },
                );
            }
        }
    }

    /// Is the lease current at `now`?
    pub fn is_live(&self, id: &str, now: u64) -> bool {
        self.leases.lock().get(id).is_some_and(|lease| lease.expiry > now)
    }

    /// Drop expired leases, returning the ids that lapsed.
    pub fn expire(&self, now: u64) -> Vec<String> {
        let mut leases = self.leases.lock();
        let dead: Vec<String> = leases
            .iter()
            .filter(|(_, lease)| lease.expiry <= now)
            .map(|(id, _)| id.clone())
            .collect();
        for id in &dead {
            leases.remove(id);
        }
        let mut dead = dead;
        dead.sort();
        dead
    }

    /// Drop `id`'s lease outright, returning whether it was live at
    /// `now` (a provider deliberately going away, as opposed to
    /// lapsing).
    pub fn revoke(&self, id: &str, now: u64) -> bool {
        self.leases.lock().remove(id).is_some_and(|lease| lease.expiry > now)
    }

    /// Live ids at `now`, sorted.
    pub fn live(&self, now: u64) -> Vec<String> {
        let mut ids: Vec<String> = self
            .leases
            .lock()
            .iter()
            .filter(|(_, lease)| lease.expiry > now)
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort();
        ids
    }

    /// `(id, endpoint)` for live leases that advertised one, sorted by
    /// id — the shard-map construction input.
    pub fn live_endpoints(&self, now: u64) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .leases
            .lock()
            .iter()
            .filter(|(_, lease)| lease.expiry > now)
            .filter_map(|(id, lease)| lease.endpoint.clone().map(|ep| (id.clone(), ep)))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_http::mem::{FaultConfig, MemNetwork};
    use soc_http::{Request as Rq, Response};

    fn net() -> MemNetwork {
        let net = MemNetwork::new();
        net.host("up", |_r: Rq| Response::text("ok"));
        net.host("flaky", |_r: Rq| Response::text("ok"));
        net.set_fault("flaky", FaultConfig { fail_every: 2, ..Default::default() });
        net
    }

    #[test]
    fn record_moves_each_outcome_series_exactly() {
        // The registry is process-global: a service id no other test
        // uses keeps the two series this test's alone.
        let id = "qos-series-exact";
        let series = |outcome| {
            soc_observe::metrics()
                .counter("soc_qos_observations_total", &[("service", id), ("outcome", outcome)])
        };
        let (ok_before, error_before) = (series("ok").get(), series("error").get());
        let monitor = QosMonitor::new(Arc::new(net()));
        for i in 0..7 {
            monitor.record(id, true, Duration::from_micros(i));
        }
        for _ in 0..3 {
            monitor.record(id, false, Duration::ZERO);
        }
        assert_eq!(series("ok").get() - ok_before, 7);
        assert_eq!(series("error").get() - error_before, 3);
    }

    #[test]
    fn availability_of_healthy_service_is_one() {
        let monitor = QosMonitor::new(Arc::new(net()));
        monitor.probe_n("up", "mem://up/health", 10);
        let r = monitor.report("up").unwrap();
        assert_eq!(r.probes, 10);
        assert_eq!(r.successes, 10);
        assert!((r.availability - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flaky_service_availability_measured() {
        let monitor = QosMonitor::new(Arc::new(net()));
        monitor.probe_n("flaky", "mem://flaky/health", 10);
        let r = monitor.report("flaky").unwrap();
        assert_eq!(r.successes, 5);
        assert!((r.availability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn offline_service_availability_zero() {
        let network = net();
        network.set_fault("up", FaultConfig { offline: true, ..Default::default() });
        let monitor = QosMonitor::new(Arc::new(network));
        monitor.probe_n("up", "mem://up/health", 4);
        let r = monitor.report("up").unwrap();
        assert_eq!(r.successes, 0);
        assert_eq!(r.availability, 0.0);
        assert_eq!(r.mean_latency, Duration::ZERO);
    }

    #[test]
    fn unknown_service_has_no_report() {
        let monitor = QosMonitor::new(Arc::new(net()));
        assert!(monitor.report("ghost").is_none());
    }

    #[test]
    fn all_reports_sorted() {
        let monitor = QosMonitor::new(Arc::new(net()));
        monitor.probe("up", "mem://up/");
        monitor.probe("flaky", "mem://flaky/");
        let ids: Vec<String> = monitor.all_reports().into_iter().map(|r| r.id).collect();
        assert_eq!(ids, vec!["flaky", "up"]);
    }

    #[test]
    fn record_feeds_percentiles() {
        let monitor = QosMonitor::new(Arc::new(net()));
        // 1ms..=100ms, one sample each: percentiles land on exact ranks.
        for ms in 1..=100u64 {
            monitor.record("svc", true, Duration::from_millis(ms));
        }
        let r = monitor.report("svc").unwrap();
        assert_eq!(r.probes, 100);
        assert_eq!(r.successes, 100);
        assert_eq!(r.p50_latency, Duration::from_millis(50));
        assert_eq!(r.p95_latency, Duration::from_millis(95));
        assert_eq!(r.p99_latency, Duration::from_millis(99));
        assert_eq!(r.max_latency, Duration::from_millis(100));
    }

    #[test]
    fn failures_do_not_skew_latency_percentiles() {
        let monitor = QosMonitor::new(Arc::new(net()));
        monitor.record("svc", true, Duration::from_millis(10));
        monitor.record("svc", false, Duration::from_secs(5));
        let r = monitor.report("svc").unwrap();
        assert_eq!(r.successes, 1);
        assert_eq!(r.p99_latency, Duration::from_millis(10));
        assert!((r.availability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_empty_when_never_successful() {
        let monitor = QosMonitor::new(Arc::new(net()));
        monitor.record("down", false, Duration::from_millis(1));
        let r = monitor.report("down").unwrap();
        assert_eq!(r.p50_latency, Duration::ZERO);
        assert_eq!(r.p95_latency, Duration::ZERO);
        assert_eq!(r.p99_latency, Duration::ZERO);
    }

    #[test]
    fn sample_window_slides_past_cap() {
        let monitor = QosMonitor::new(Arc::new(net()));
        // Overfill the window with slow samples, then fully replace them
        // with fast ones: old samples must age out of the percentile.
        for _ in 0..SAMPLE_CAP {
            monitor.record("svc", true, Duration::from_millis(100));
        }
        for _ in 0..SAMPLE_CAP {
            monitor.record("svc", true, Duration::from_millis(1));
        }
        let r = monitor.report("svc").unwrap();
        assert_eq!(r.p99_latency, Duration::from_millis(1));
    }

    #[test]
    fn recent_percentile_tracks_the_fresh_window() {
        let monitor = QosMonitor::new(Arc::new(net()));
        assert_eq!(monitor.recent_percentile("svc", 0.95), None);
        // Fill far beyond the recent window with slow samples, then
        // exactly one recent window of fast ones: the recent view must
        // see only the fast tail while the full report still remembers
        // the slow past.
        for _ in 0..(RECENT_WINDOW * 3) {
            monitor.record("svc", true, Duration::from_millis(50));
        }
        for _ in 0..RECENT_WINDOW {
            monitor.record("svc", true, Duration::from_millis(2));
        }
        assert_eq!(monitor.recent_p95("svc"), Some(Duration::from_millis(2)));
        assert_eq!(monitor.report("svc").unwrap().p95_latency, Duration::from_millis(50));
        assert_eq!(monitor.success_samples("svc"), RECENT_WINDOW * 4);
    }

    #[test]
    fn recent_percentile_spans_the_ring_wraparound() {
        let monitor = QosMonitor::new(Arc::new(net()));
        // Overfill the full sample cap, then add half a recent window of
        // fast samples: the recent window must straddle old and new.
        for _ in 0..SAMPLE_CAP {
            monitor.record("svc", true, Duration::from_millis(10));
        }
        for _ in 0..(RECENT_WINDOW / 2) {
            monitor.record("svc", true, Duration::from_millis(1));
        }
        // Median of the recent window: half 10 ms, half 1 ms → 1 ms at
        // q=0.5 by nearest rank (rank 128 of 256 lands on the fast half).
        assert_eq!(monitor.recent_percentile("svc", 0.5), Some(Duration::from_millis(1)));
        assert_eq!(monitor.recent_p95("svc"), Some(Duration::from_millis(10)));
    }

    #[test]
    fn recent_error_rate_sees_a_replica_turn_sick() {
        let monitor = QosMonitor::new(Arc::new(net()));
        assert_eq!(monitor.recent_error_rate("svc"), None);
        for _ in 0..RECENT_WINDOW {
            monitor.record("svc", true, Duration::from_millis(1));
        }
        assert_eq!(monitor.recent_error_rate("svc"), Some(0.0));
        // The replica turns fully sick: a full window of failures must
        // drive the recent rate to 1.0 even though cumulative
        // availability is still 0.5.
        for _ in 0..RECENT_WINDOW {
            monitor.record("svc", false, Duration::ZERO);
        }
        assert_eq!(monitor.recent_error_rate("svc"), Some(1.0));
        assert!((monitor.report("svc").unwrap().availability - 0.5).abs() < 1e-9);
        assert_eq!(monitor.recent_observations("svc"), RECENT_WINDOW);
    }

    #[test]
    fn lease_lifecycle() {
        let table = LeaseTable::new();
        table.renew("svc-a", 0, 10);
        table.renew("svc-b", 0, 3);
        assert!(table.is_live("svc-a", 5));
        assert!(!table.is_live("svc-b", 5));
        assert!(!table.is_live("ghost", 0));
        assert_eq!(table.expire(5), vec!["svc-b"]);
        assert_eq!(table.live(5), vec!["svc-a"]);
        // Renewal extends.
        table.renew("svc-a", 5, 10);
        assert!(table.is_live("svc-a", 14));
        assert!(!table.is_live("svc-a", 15));
    }

    #[test]
    fn lease_endpoints_survive_plain_renewals() {
        let table = LeaseTable::new();
        table.renew_with_endpoint("svc-a", 0, 10, Some("http://127.0.0.1:7001"));
        table.renew("svc-b", 0, 10);
        // A heartbeat without an endpoint keeps the advertised one.
        table.renew("svc-a", 5, 10);
        assert_eq!(
            table.live_endpoints(6),
            vec![("svc-a".to_string(), "http://127.0.0.1:7001".to_string())]
        );
        // A re-advertisement replaces it.
        table.renew_with_endpoint("svc-a", 6, 10, Some("http://127.0.0.1:7002"));
        assert_eq!(table.live_endpoints(7)[0].1, "http://127.0.0.1:7002");
        // Expired leases drop out of the endpoint view too.
        assert!(table.live_endpoints(40).is_empty());
    }

    #[test]
    fn expire_is_idempotent() {
        let table = LeaseTable::new();
        table.renew("x", 0, 1);
        assert_eq!(table.expire(2), vec!["x"]);
        assert!(table.expire(2).is_empty());
    }

    #[test]
    fn revoke_reports_liveness() {
        let table = LeaseTable::new();
        table.renew("live", 0, 10);
        table.renew("lapsed", 0, 2);
        assert!(table.revoke("live", 5));
        // Already expired at revocation time: removed, but not "live".
        assert!(!table.revoke("lapsed", 5));
        assert!(!table.revoke("ghost", 5));
        assert!(table.live(5).is_empty());
    }
}
