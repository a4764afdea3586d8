//! # soc-gateway — a QoS-aware service gateway
//!
//! The paper's recurring complaint about real-world service-oriented
//! computing is that free public services are slow, overloaded, and
//! "often offline or removed without notice". This crate is the
//! dependability layer the course builds on top of that reality: one
//! gateway endpoint fronting any number of registered replicas, adding
//!
//! * **endpoint resolution** against the service directory, cached per
//!   lease interval ([`resolver`]);
//! * **load balancing** — round-robin, random-two-choice, or
//!   least-latency fed by the shared QoS monitor ([`balance`]);
//! * **circuit breaking** per upstream replica ([`breaker`]);
//! * **retries** with exponential backoff, jitter, and a per-request
//!   deadline budget — idempotent methods only, by default;
//! * **hedged requests** — a primary that outlives its replica's
//!   observed p95 races a backup on a second replica, and the first
//!   success answers ([`hedge`]);
//! * **outlier ejection** — replicas far slower or more error-prone
//!   than their peers' median are pulled from balancing until a
//!   cool-off lapses ([`balance::OutlierEjector`]);
//! * **admission control** — token-bucket rate limiting (global and
//!   per-service quota) plus a concurrency cap, shedding with `503`
//!   + `Retry-After` ([`limit`]);
//! * **observability** — per-upstream counters, breaker states,
//!   hedge/ejection counters, and latency histograms on
//!   `/gateway/stats` ([`stats`]).
//!
//! The gateway is itself a [`Handler`], so it runs anywhere a service
//! does: hosted on a [`MemNetwork`](soc_http::MemNetwork) for
//! deterministic in-process topologies, or bound to a TCP port with
//! [`HttpServer`](soc_http::HttpServer). Likewise it forwards through
//! any [`Transport`], so upstreams may be in-memory or real sockets.
//!
//! ```
//! use std::sync::Arc;
//! use soc_http::{MemNetwork, Request, Response, Transport};
//! use soc_gateway::{Gateway, GatewayConfig};
//!
//! let net = MemNetwork::new();
//! net.host("a", |_req: Request| Response::text("from a"));
//! net.host("b", |_req: Request| Response::text("from b"));
//!
//! let gw = Gateway::new(Arc::new(net.clone()), GatewayConfig::default());
//! gw.register("echo", &["mem://a", "mem://b"]);
//! net.host("gw", gw);
//!
//! let resp = net.send(Request::get("mem://gw/svc/echo/hello")).unwrap();
//! assert!(resp.status.is_success());
//! ```

pub mod balance;
pub mod breaker;
pub mod hedge;
pub mod limit;
pub mod resolver;
pub mod stats;

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use soc_http::mem::Transport;
use soc_http::{FaultRng, Handler, Request, Response, Sent, Status};
use soc_json::Value;
use soc_observe::{SpanKind, TraceContext};
use soc_registry::monitor::QosMonitor;
use soc_store::ShardMap;

pub use balance::{Balancer, OutlierConfig, OutlierEjector, Policy, UpstreamView};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker, Pass};
pub use hedge::{HedgeConfig, HedgeOutcome};
pub use limit::{ConcurrencyLimit, ConcurrencyPermit, KeyedBuckets, TokenBucket};
pub use resolver::{RegistryResolver, Resolve, StaticResolver};
pub use stats::{GatewayStats, LatencyHistogram, UpstreamStats};

/// Everything tunable about a gateway.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Load-balancing policy.
    pub policy: Policy,
    /// Extra attempts after the first (so `3` means up to 4 sends).
    pub max_retries: u32,
    /// First backoff pause; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling (before jitter).
    pub max_backoff: Duration,
    /// Whole-request budget: resolution, all attempts, and backoff
    /// pauses together. Expired budget answers `504`.
    pub request_deadline: Duration,
    /// Retry non-idempotent methods too. Off by default: replaying a
    /// `POST` that may have half-happened is the caller's call, not
    /// the gateway's.
    pub retry_non_idempotent: bool,
    /// Circuit-breaker tuning, applied per upstream.
    pub breaker: BreakerConfig,
    /// Request-hedging tuning.
    pub hedge: HedgeConfig,
    /// Outlier-ejection tuning.
    pub outlier: OutlierConfig,
    /// Token-bucket burst size.
    pub rate_capacity: f64,
    /// Token-bucket refill, tokens per second.
    pub rate_refill_per_sec: f64,
    /// Per-service quota burst size, layered under the global bucket.
    /// Non-positive (the default) disables per-service quotas.
    pub service_rate_capacity: f64,
    /// Per-service quota refill, tokens per second.
    pub service_rate_refill_per_sec: f64,
    /// Concurrent in-flight request cap.
    pub max_concurrent: usize,
    /// PRNG seed for jitter and two-choice sampling.
    pub seed: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            policy: Policy::RoundRobin,
            max_retries: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            request_deadline: Duration::from_secs(2),
            retry_non_idempotent: false,
            breaker: BreakerConfig::default(),
            hedge: HedgeConfig::default(),
            outlier: OutlierConfig::default(),
            rate_capacity: 10_000.0,
            rate_refill_per_sec: 10_000.0,
            service_rate_capacity: 0.0,
            service_rate_refill_per_sec: 0.0,
            max_concurrent: 1_024,
            seed: 0x50C6_A7E0,
        }
    }
}

/// Observe-plane counters mirroring the JSON stats, resolved from the
/// global registry once at construction so the hot path pays an atomic
/// increment, not a registry lookup.
struct ObsMetrics {
    admitted: soc_observe::Counter,
    shed_rate: soc_observe::Counter,
    shed_load: soc_observe::Counter,
    shed_service: soc_observe::Counter,
    hedges_launched: soc_observe::Counter,
    hedges_won: soc_observe::Counter,
    shard_map_rejects: soc_observe::Counter,
    shard_redirects: soc_observe::Counter,
}

impl ObsMetrics {
    fn new() -> Self {
        let m = soc_observe::metrics();
        ObsMetrics {
            admitted: m.counter("soc_gateway_admitted_total", &[]),
            shed_rate: m.counter("soc_gateway_shed_total", &[("reason", "rate")]),
            shed_load: m.counter("soc_gateway_shed_total", &[("reason", "concurrency")]),
            shed_service: m.counter("soc_gateway_shed_total", &[("reason", "service_quota")]),
            hedges_launched: m.counter("soc_gateway_hedges_total", &[("event", "launched")]),
            hedges_won: m.counter("soc_gateway_hedges_total", &[("event", "won")]),
            shard_map_rejects: m.counter("soc_gateway_shard_map_rejects_total", &[]),
            shard_redirects: m.counter("soc_gateway_shard_redirects_total", &[]),
        }
    }
}

struct Inner {
    transport: Arc<dyn Transport>,
    resolver: Arc<dyn Resolve>,
    static_resolver: Option<Arc<StaticResolver>>,
    config: GatewayConfig,
    balancer: Balancer,
    breakers: RwLock<HashMap<String, Arc<CircuitBreaker>>>,
    bucket: TokenBucket,
    service_buckets: KeyedBuckets,
    limit: ConcurrencyLimit,
    ejector: OutlierEjector,
    stats: GatewayStats,
    obs: ObsMetrics,
    monitor: Arc<QosMonitor>,
    /// Per-service shard maps for key-affine routing: a request that
    /// carries `X-Shard-Key` against a mapped service goes to the
    /// key's owners (writes: primary only) instead of the balancer's
    /// pick. See [`Gateway::set_shard_map`].
    shard_maps: RwLock<HashMap<String, Arc<ShardMap>>>,
    rng: Mutex<FaultRng>,
    /// Lazily built on the first parked primary: most gateways (and
    /// most requests) never pay for it. Sized by `config.hedge.threads`,
    /// NOT by cores — arms block in sends, and on a small host a
    /// cores-sized pool could never run a backup beside a parked
    /// primary's rest.
    hedge_pool: std::sync::OnceLock<soc_parallel::ThreadPool>,
}

impl Inner {
    fn hedge_pool(&self) -> &soc_parallel::ThreadPool {
        self.hedge_pool
            .get_or_init(|| soc_parallel::ThreadPool::new(self.config.hedge.threads.max(2)))
    }

    fn breaker_for(&self, endpoint: &str) -> Arc<CircuitBreaker> {
        if let Some(b) = self.breakers.read().get(endpoint) {
            return b.clone();
        }
        self.breakers
            .write()
            .entry(endpoint.to_string())
            .or_insert_with(|| Arc::new(CircuitBreaker::new(self.config.breaker)))
            .clone()
    }
}

/// The gateway. Cheap to clone (shared internals); host a clone on a
/// [`MemNetwork`](soc_http::MemNetwork) or an
/// [`HttpServer`](soc_http::HttpServer) and keep one for inspection.
///
/// Routes:
/// * `/svc/{service}/{path...}` — proxy to a replica of `{service}`,
///   forwarding `{path...}` plus the query string.
/// * `/gateway/stats` — JSON snapshot of the counters.
/// * `/observe/metrics`, `/observe/traces`, `/observe/traces/{id}` —
///   the process-wide metrics and trace endpoints
///   ([`soc_http::ObserveEndpoints`]).
#[derive(Clone)]
pub struct Gateway {
    inner: Arc<Inner>,
}

impl Gateway {
    /// A gateway over `transport` with a built-in [`StaticResolver`]
    /// programmed via [`Gateway::register`].
    pub fn new(transport: Arc<dyn Transport>, config: GatewayConfig) -> Self {
        let static_resolver = Arc::new(StaticResolver::new());
        Self::build(transport, static_resolver.clone(), Some(static_resolver), config)
    }

    /// A gateway resolving upstreams through `resolver` — typically a
    /// [`RegistryResolver`] watching a live service directory.
    pub fn with_resolver(
        transport: Arc<dyn Transport>,
        resolver: Arc<dyn Resolve>,
        config: GatewayConfig,
    ) -> Self {
        Self::build(transport, resolver, None, config)
    }

    fn build(
        transport: Arc<dyn Transport>,
        resolver: Arc<dyn Resolve>,
        static_resolver: Option<Arc<StaticResolver>>,
        config: GatewayConfig,
    ) -> Self {
        let monitor = Arc::new(QosMonitor::new(transport.clone()));
        Gateway {
            inner: Arc::new(Inner {
                transport,
                resolver,
                static_resolver,
                balancer: Balancer::new(config.policy, config.seed),
                bucket: TokenBucket::new(config.rate_capacity, config.rate_refill_per_sec),
                service_buckets: KeyedBuckets::new(
                    config.service_rate_capacity,
                    config.service_rate_refill_per_sec,
                ),
                limit: ConcurrencyLimit::new(config.max_concurrent),
                ejector: OutlierEjector::new(config.outlier.clone()),
                stats: GatewayStats::new(),
                obs: ObsMetrics::new(),
                monitor,
                shard_maps: RwLock::new(HashMap::new()),
                rng: Mutex::new(FaultRng::new(config.seed ^ 0xBACC_0FF5)),
                breakers: RwLock::new(HashMap::new()),
                hedge_pool: std::sync::OnceLock::new(),
                config,
            }),
        }
    }

    /// Register replicas for `service` on the built-in static
    /// resolver.
    ///
    /// # Panics
    /// When the gateway was built with [`Gateway::with_resolver`]; a
    /// directory-backed gateway learns replicas from the directory.
    pub fn register(&self, service: &str, endpoints: &[&str]) {
        self.inner
            .static_resolver
            .as_ref()
            .expect("register() needs the built-in static resolver; this gateway resolves via a directory")
            .set(service, endpoints);
    }

    /// The QoS monitor fed by every proxied request — share it to see
    /// live per-replica latency, or to drive a least-latency policy
    /// from external probes too.
    pub fn monitor(&self) -> Arc<QosMonitor> {
        self.inner.monitor.clone()
    }

    /// Publish (or replace) the shard map for `service`. From then on
    /// a request carrying an `X-Shard-Key` header routes by the key:
    /// writes (anything but GET/HEAD) go only to the key's primary,
    /// reads may land on any owner. Requests without the header — and
    /// services without a map — keep the normal balanced path.
    ///
    /// Rebalancing is a re-publish: derive a fresh map from the
    /// current lease table ([`ShardMap::from_leases`]) whenever the
    /// directory version moves, and in-flight routing picks it up on
    /// the next request.
    ///
    /// Publishes compare-and-swap on the map version: an install older
    /// than what the gateway already routes by is rejected (returns
    /// `false` and counts in `shard_map_rejects`), so a delayed publish
    /// from a slow rebalancer can never roll routing back to a
    /// pre-failover map.
    pub fn set_shard_map(&self, service: &str, map: Arc<ShardMap>) -> bool {
        let mut maps = self.inner.shard_maps.write();
        if let Some(current) = maps.get(service) {
            if map.version() < current.version() {
                self.inner.stats.shard_map_rejects.fetch_add(1, Ordering::Relaxed);
                self.inner.obs.shard_map_rejects.inc();
                return false;
            }
        }
        maps.insert(service.to_string(), map);
        true
    }

    /// The shard map currently published for `service`.
    pub fn shard_map(&self, service: &str) -> Option<Arc<ShardMap>> {
        self.inner.shard_maps.read().get(service).cloned()
    }

    /// Shard-affine candidate endpoints for `req`, when they apply:
    /// the service has a published map, the request names a shard key,
    /// and the map yields owners. Writes narrow to the primary alone —
    /// forwarding a write to a replica would bounce off
    /// `not_primary` — while reads fan across all owners.
    fn shard_candidates(&self, service: &str, req: &Request) -> Option<Vec<String>> {
        let key = req.headers.get("X-Shard-Key")?;
        let map = self.inner.shard_maps.read().get(service)?.clone();
        let owners = map.owners(key);
        if owners.is_empty() {
            return None;
        }
        let write = !matches!(req.method, soc_http::Method::Get | soc_http::Method::Head);
        if write {
            Some(vec![owners[0].endpoint.clone()])
        } else {
            Some(owners.iter().map(|n| n.endpoint.clone()).collect())
        }
    }

    /// Chase a store node's `not_primary` redirect hint. Returns the
    /// follow-up response when `resp` is a 409 `not_primary` for a
    /// shard-keyed request and a hinted hop produced something better,
    /// `None` to fall through to the original response. Hops are
    /// bounded: a routing disagreement between nodes (both claiming
    /// the other owns the key) must surface, not loop.
    fn follow_not_primary(&self, req: &Request, rest: &str, resp: &Response) -> Option<Response> {
        const MAX_REDIRECT_HOPS: usize = 2;
        req.headers.get("X-Shard-Key")?;
        let mut hint = not_primary_hint(resp)?;
        let mut visited = Vec::new();
        let mut best = None;
        for _ in 0..MAX_REDIRECT_HOPS {
            if visited.contains(&hint) {
                break;
            }
            visited.push(hint.clone());
            self.inner.stats.shard_redirects.fetch_add(1, Ordering::Relaxed);
            self.inner.obs.shard_redirects.inc();
            let mut hop = req.clone();
            hop.target = join_target(&hint, rest);
            match self.inner.transport.send(hop) {
                Ok(r) => match not_primary_hint(&r) {
                    Some(next) => {
                        best = Some(r);
                        hint = next;
                    }
                    None if r.status.0 < 500 => return Some(r),
                    None => break,
                },
                Err(_) => break,
            }
        }
        best
    }

    /// The breaker state for one upstream endpoint, if it has been
    /// seen.
    pub fn breaker_state(&self, endpoint: &str) -> Option<BreakerState> {
        self.inner.breakers.read().get(endpoint).map(|b| b.state())
    }

    /// Replicas of `service` currently held out of balancing by the
    /// outlier ejector.
    pub fn ejected_endpoints(&self, service: &str) -> Vec<String> {
        self.inner.ejector.ejected_endpoints(service)
    }

    /// Gateway counters as JSON (the `/gateway/stats` payload).
    pub fn stats_json(&self) -> Value {
        // The ejector owns the authoritative event count; mirror it
        // into the stats snapshot.
        self.inner.stats.ejections.store(self.inner.ejector.total_ejections(), Ordering::Relaxed);
        self.inner.stats.to_json(
            self.inner.config.policy.as_str(),
            |endpoint| {
                self.inner
                    .breakers
                    .read()
                    .get(endpoint)
                    .map(|b| b.state().as_str())
                    .unwrap_or("closed")
            },
            |endpoint| self.inner.ejector.is_ejected(endpoint),
        )
    }

    /// Raw counters, for assertions and dashboards.
    pub fn stats(&self) -> &GatewayStats {
        &self.inner.stats
    }

    /// Proxy `req` to a replica of `service`, programmatically. The
    /// request's `target` is interpreted as the path (plus query) on
    /// the upstream service.
    pub fn call(&self, service: &str, req: Request) -> Response {
        let rest = req.target.trim_start_matches('/').to_string();
        self.dispatch(service, &rest, req)
    }

    fn breaker_for(&self, endpoint: &str) -> Arc<CircuitBreaker> {
        self.inner.breaker_for(endpoint)
    }

    fn shed(&self, reason: &str) -> Response {
        Response::error(
            Status::SERVICE_UNAVAILABLE,
            &format!("gateway shedding load ({reason}); retry shortly"),
        )
        .with_header("Retry-After", "1")
    }

    /// Exponential backoff with jitter, clipped to the deadline.
    fn backoff(&self, attempt: u32, deadline: Instant) {
        let cfg = &self.inner.config;
        let exp = cfg.base_backoff.saturating_mul(1u32 << attempt.min(16));
        // Jitter factor in `[0.5, 1.5)`.
        let jitter = 0.5 + (self.inner.rng.lock().next_u64() % 1_000) as f64 / 1_000.0;
        let pause = exp.min(cfg.max_backoff).mul_f64(jitter);
        let pause = pause.min(deadline.saturating_duration_since(Instant::now()));
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }

    fn dispatch(&self, service: &str, rest: &str, req: Request) -> Response {
        let inner = &self.inner;
        // The request's span: child of whatever the server layer (or a
        // workflow engine) activated, root otherwise. Every attempt —
        // retries and hedge backups included — hangs off this span, so
        // one trace shows the whole race.
        let mut gw_span = soc_observe::span("gateway.request", SpanKind::Internal);
        gw_span.set_text("service", service);
        let _active = gw_span.activate();
        let attempt_parent = gw_span.context();
        if !inner.bucket.try_acquire() {
            inner.stats.shed_rate.fetch_add(1, Ordering::Relaxed);
            inner.obs.shed_rate.inc();
            gw_span.set_error("shed: rate limit");
            return self.shed("rate limit");
        }
        // Per-service quota under the global bucket: one hot service
        // exhausts its own allowance without starving the others.
        if !inner.service_buckets.try_acquire(service) {
            inner.stats.shed_service.fetch_add(1, Ordering::Relaxed);
            inner.obs.shed_service.inc();
            gw_span.set_error("shed: service quota");
            return self.shed("service quota");
        }
        // Shared with every arm of this request: an arm still running
        // after the caller gave up (a parked primary's rest, a hedge
        // loser) keeps counting against the cap until it finishes.
        let permit = match inner.limit.try_acquire() {
            Some(p) => Arc::new(p),
            None => {
                inner.stats.shed_load.fetch_add(1, Ordering::Relaxed);
                inner.obs.shed_load.inc();
                gw_span.set_error("shed: concurrency cap");
                return self.shed("concurrency cap");
            }
        };
        inner.stats.admitted.fetch_add(1, Ordering::Relaxed);
        inner.obs.admitted.inc();

        let deadline = Instant::now() + inner.config.request_deadline;
        // A POST carrying an Idempotency-Key is replay-safe: the
        // origin deduplicates on the key, so retrying (and hedging,
        // below) cannot double-execute its side effect.
        let retryable = req.is_replay_safe() || inner.config.retry_non_idempotent;
        let attempts = if retryable { inner.config.max_retries + 1 } else { 1 };
        let mut last: Option<Response> = None;

        for attempt in 0..attempts {
            if Instant::now() >= deadline {
                inner.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                gw_span.set_error("deadline exceeded");
                return Response::error(
                    Status::GATEWAY_TIMEOUT,
                    &format!("gateway deadline exceeded calling '{service}'"),
                );
            }
            // Re-resolve on every attempt: a retry should see replicas
            // that joined (or leases that expired) since the last try —
            // or, for a shard-keyed request, a re-published map.
            let endpoints = match self.shard_candidates(service, &req) {
                Some(eps) => {
                    gw_span.set_attr("shard_routed", true);
                    eps
                }
                None => inner.resolver.resolve(service),
            };
            if endpoints.is_empty() {
                inner.stats.no_upstream.fetch_add(1, Ordering::Relaxed);
                gw_span.set_error("no upstream");
                return Response::error(
                    Status::SERVICE_UNAVAILABLE,
                    &format!("no upstream registered for '{service}'"),
                );
            }
            let mut admitted: Vec<(String, Arc<CircuitBreaker>, Pass)> = endpoints
                .into_iter()
                .filter_map(|ep| {
                    let b = self.breaker_for(&ep);
                    b.try_pass().map(|pass| (ep, b, pass))
                })
                .collect();
            if admitted.is_empty() {
                last = Some(
                    Response::error(
                        Status::SERVICE_UNAVAILABLE,
                        &format!("all replicas of '{service}' are circuit-broken"),
                    )
                    .with_header("Retry-After", "1"),
                );
                // Waiting may let a cool-down elapse and a breaker
                // half-open.
                if attempt + 1 < attempts {
                    self.backoff(attempt, deadline);
                }
                continue;
            }

            let views: Vec<UpstreamView> = admitted
                .iter()
                .map(|(ep, _, _)| {
                    let s = inner.stats.upstream(ep);
                    UpstreamView {
                        endpoint: ep.clone(),
                        in_flight: s.in_flight.load(Ordering::Relaxed),
                        mean_latency: inner.monitor.mean_latency(ep),
                    }
                })
                .collect();
            // Statistical outliers leave the candidate set; their
            // claimed passes go straight back. `filter` fails open, so
            // `views` stays non-empty while `admitted` is.
            let (views, ejected) = inner.ejector.filter(service, views, &inner.monitor);
            if !ejected.is_empty() {
                admitted.retain(|(ep, b, pass)| {
                    if ejected.contains(ep) {
                        b.release_pass(*pass);
                        false
                    } else {
                        true
                    }
                });
            }
            let Some(idx) = inner.balancer.pick(service, &views) else {
                // No viable pick: hand back every claimed pass rather
                // than wedging half-open breakers, then retry.
                for (_, b, pass) in &admitted {
                    b.release_pass(*pass);
                }
                if attempt + 1 < attempts {
                    self.backoff(attempt, deadline);
                }
                continue;
            };
            // Unpicked candidates hand back any half-open probe slot
            // their try_pass claimed; a hedge backup re-admits itself
            // at hedge time instead of squatting on a slot.
            let mut backup_pool = Vec::with_capacity(admitted.len() - 1);
            for (i, (ep, b, pass)) in admitted.iter().enumerate() {
                if i != idx {
                    b.release_pass(*pass);
                    backup_pool.push(ep.clone());
                }
            }
            let (endpoint, breaker, pass) = admitted.swap_remove(idx);
            let mut upstream_req = req.clone();
            upstream_req.target = join_target(&endpoint, rest);

            // Hedge only when the request can be replayed safely, the
            // picked replica has earned a p95, and a second replica
            // exists to race against. A keyless POST never hedges —
            // the losing arm's side effect would be a duplicate.
            let hedge_delay = if backup_pool.is_empty() || !retryable {
                None
            } else {
                inner.config.hedge.hedge_delay(
                    inner.monitor.recent_p95(&endpoint),
                    inner.monitor.success_samples(&endpoint),
                )
            };
            // The primary runs on this thread and yields at the hedge
            // point, or at the deadline when no hedge can arm; then no
            // backup is admitted and a parked primary is abandoned.
            let at = match hedge_delay {
                Some(delay) => (Instant::now() + delay).min(deadline),
                None => {
                    backup_pool.clear();
                    deadline
                }
            };
            let arm =
                Arm::start(inner, &permit, attempt_parent, attempt, false, endpoint, breaker, pass);
            let sent = {
                // Active while the transport runs, so the client
                // injects the arm's span id as the outgoing traceparent.
                let _active = arm.span.activate();
                soc_http::send_until(at, || inner.transport.send(upstream_req))
            };
            let (used_endpoint, result) = match sent {
                Sent::Done(result) => arm.finish(result),
                Sent::Parked(parked) => {
                    // Runs on this thread at the hedge point: admit a
                    // backup replica through its breaker *then*, when
                    // the primary is known to be slow.
                    let backup_factory = || {
                        for ep in backup_pool {
                            let b = inner.breaker_for(&ep);
                            let Some(bpass) = b.try_pass() else { continue };
                            inner.stats.hedges_launched.fetch_add(1, Ordering::Relaxed);
                            inner.obs.hedges_launched.inc();
                            let mut breq = req.clone();
                            breq.target = join_target(&ep, rest);
                            let inner = inner.clone();
                            let permit = permit.clone();
                            return Some(move || {
                                Arm::start(
                                    &inner,
                                    &permit,
                                    attempt_parent,
                                    attempt,
                                    true,
                                    ep,
                                    b,
                                    bpass,
                                )
                                .run(|| inner.transport.send(breq))
                            });
                        }
                        None
                    };
                    match hedge::hedged_race(
                        inner.hedge_pool(),
                        move || arm.run(|| parked.finish()),
                        deadline,
                        backup_factory,
                        |(_, r)| matches!(r, Ok(resp) if resp.status.0 < 500),
                    ) {
                        HedgeOutcome::Finished { result, backup_won, .. } => {
                            if backup_won {
                                inner.stats.hedges_won.fetch_add(1, Ordering::Relaxed);
                                inner.obs.hedges_won.inc();
                            }
                            result
                        }
                        HedgeOutcome::DeadlineExpired { .. } => {
                            inner.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                            gw_span.set_error("deadline exceeded");
                            return Response::error(
                                Status::GATEWAY_TIMEOUT,
                                &format!("gateway deadline exceeded calling '{service}'"),
                            );
                        }
                    }
                }
            };

            // 4xx is the upstream working correctly on a bad request:
            // a success for health accounting, and never retried.
            let ok = matches!(&result, Ok(r) if r.status.0 < 500);
            match result {
                Ok(resp) if ok => {
                    // A shard-keyed request that bounced off the wrong
                    // primary (the node's map is ahead of ours) chases
                    // the redirect hint instead of surfacing the 409.
                    if let Some(better) = self.follow_not_primary(&req, rest, &resp) {
                        gw_span.set_attr("shard_redirected", true);
                        gw_span.set_attr("http.status", better.status.0);
                        return better;
                    }
                    gw_span.set_attr("http.status", resp.status.0);
                    return resp;
                }
                Ok(resp) => {
                    last = Some(resp);
                }
                Err(e) => {
                    last = Some(Response::error(
                        Status(502),
                        &format!("upstream {used_endpoint} unreachable: {e}"),
                    ));
                }
            }
            if attempt + 1 < attempts {
                self.backoff(attempt, deadline);
            }
        }
        gw_span.set_error("all attempts failed");
        last.unwrap_or_else(|| {
            Response::error(Status::SERVICE_UNAVAILABLE, "gateway produced no response")
        })
    }
}

/// What one attempt arm produced: the endpoint it went to and the
/// transport's result.
type ArmResult = (String, soc_http::HttpResult<Response>);

/// One attempt arm, from its start to its accounting. Every piece of
/// per-attempt accounting — in-flight gauge, histogram, breaker
/// verdict, QoS record, success/failure tally — happens in the arm, so
/// a hedge loser nobody is waiting on still reports its outcome; it
/// just doesn't answer the caller. It holds the request's concurrency
/// permit until it finishes, so upstream work nobody waits on still
/// counts against `max_concurrent`.
///
/// Each arm is its own client span under `parent` (passed explicitly:
/// backups and parked primaries finish on pool threads where no
/// thread-local context is active), so a hedged request shows up as
/// sibling attempts with `hedge=false` / `hedge=true` under one
/// `gateway.request`.
struct Arm {
    span: soc_observe::Span,
    endpoint: String,
    breaker: Arc<CircuitBreaker>,
    pass: Pass,
    ustats: Arc<UpstreamStats>,
    start: Instant,
    inner: Arc<Inner>,
    _permit: Arc<ConcurrencyPermit>,
}

impl Arm {
    /// Open the arm's span, count its request and start its clock.
    #[allow(clippy::too_many_arguments)]
    fn start(
        inner: &Arc<Inner>,
        permit: &Arc<ConcurrencyPermit>,
        parent: TraceContext,
        attempt: u32,
        hedge: bool,
        endpoint: String,
        breaker: Arc<CircuitBreaker>,
        pass: Pass,
    ) -> Arm {
        let mut span = soc_observe::child_span(parent, "gateway.attempt", SpanKind::Client);
        span.set_text("upstream", &endpoint);
        span.set_attr("attempt", attempt);
        span.set_attr("hedge", hedge);
        let ustats = inner.stats.upstream(&endpoint);
        ustats.requests.fetch_add(1, Ordering::Relaxed);
        if attempt > 0 && !hedge {
            ustats.retries.fetch_add(1, Ordering::Relaxed);
        }
        ustats.in_flight.fetch_add(1, Ordering::Relaxed);
        Arm {
            span,
            endpoint,
            breaker,
            pass,
            ustats,
            start: Instant::now(),
            inner: inner.clone(),
            _permit: permit.clone(),
        }
    }

    /// Run the rest of the arm's exchange — a whole blocking send, or a
    /// parked one's rest — on this thread, then account for it.
    fn run(self, exchange: impl FnOnce() -> soc_http::HttpResult<Response>) -> ArmResult {
        let result = {
            let _active = self.span.activate();
            exchange()
        };
        self.finish(result)
    }

    /// Stop the clock and record the outcome everywhere it is counted.
    fn finish(mut self, result: soc_http::HttpResult<Response>) -> ArmResult {
        let elapsed = self.start.elapsed();
        self.ustats.in_flight.fetch_sub(1, Ordering::Relaxed);
        self.ustats.histogram.record(elapsed);

        let ok = matches!(&result, Ok(r) if r.status.0 < 500);
        match &result {
            Ok(r) => {
                self.span.set_attr("http.status", r.status.0);
                if !ok {
                    self.span.set_error(format!("upstream answered {}", r.status));
                }
            }
            Err(e) => self.span.set_error(e.to_string()),
        }
        self.breaker.on_result(self.pass, ok);
        self.inner.monitor.record(&self.endpoint, ok, elapsed);
        if ok {
            self.ustats.successes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.ustats.failures.fetch_add(1, Ordering::Relaxed);
        }
        (self.endpoint, result)
    }
}

/// The primary endpoint hinted by a store node's 409 `not_primary`
/// answer, when `resp` is one.
fn not_primary_hint(resp: &Response) -> Option<String> {
    if resp.status.0 != 409 {
        return None;
    }
    let body = Value::parse(std::str::from_utf8(&resp.body).ok()?).ok()?;
    if body.get("error").and_then(Value::as_str) != Some("not_primary") {
        return None;
    }
    body.get("primary").and_then(Value::as_str).map(str::to_string)
}

/// `mem://replica` + `quote?fast=1` → `mem://replica/quote?fast=1`.
fn join_target(endpoint: &str, rest: &str) -> String {
    let base = endpoint.trim_end_matches('/');
    if rest.is_empty() {
        format!("{base}/")
    } else {
        format!("{base}/{rest}")
    }
}

impl Handler for Gateway {
    fn handle(&self, req: Request) -> Response {
        let path = req.path().to_string();
        if path == "/gateway/stats" {
            return Response::json(&self.stats_json().to_string());
        }
        // The gateway doubles as the observability front door: its
        // metrics and traces cover every service behind it.
        if let Some(resp) = soc_http::ObserveEndpoints::try_handle(&req) {
            return resp;
        }
        if let Some(tail) = path.strip_prefix("/svc/") {
            let (service, rest) = match tail.find('/') {
                Some(i) => (&tail[..i], &tail[i + 1..]),
                None => (tail, ""),
            };
            if service.is_empty() {
                return Response::error(Status::NOT_FOUND, "missing service name after /svc/");
            }
            let rest_with_query = match req.target.split_once('?') {
                Some((_, query)) => format!("{rest}?{query}"),
                None => rest.to_string(),
            };
            let service = service.to_string();
            return self.dispatch(&service, &rest_with_query, req);
        }
        Response::error(
            Status::NOT_FOUND,
            "gateway routes: /svc/{service}/{path}, /gateway/stats, and /observe/*",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_http::mem::FaultConfig;
    use soc_http::{MemNetwork, Method};

    fn fast_config() -> GatewayConfig {
        GatewayConfig {
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
            request_deadline: Duration::from_secs(5),
            ..GatewayConfig::default()
        }
    }

    fn two_replicas() -> (MemNetwork, Gateway) {
        let net = MemNetwork::new();
        net.host("r0", |_req: Request| Response::text("pong from r0"));
        net.host("r1", |_req: Request| Response::text("pong from r1"));
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("ping", &["mem://r0", "mem://r1"]);
        (net, gw)
    }

    #[test]
    fn proxies_and_round_robins() {
        let (net, gw) = two_replicas();
        net.host("gw", gw);
        for _ in 0..4 {
            let resp = net.send(Request::get("mem://gw/svc/ping/hit")).unwrap();
            assert!(resp.status.is_success());
        }
        assert_eq!(net.hits("r0"), 2);
        assert_eq!(net.hits("r1"), 2);
    }

    #[test]
    fn query_string_and_path_are_forwarded() {
        let net = MemNetwork::new();
        net.host("echo", |req: Request| Response::text(req.target.clone()));
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("echo", &["mem://echo"]);
        net.host("gw", gw);
        // The mem network delivers origin-form targets, so the echoed
        // target proves both path suffix and query crossed the gateway.
        let resp = net.send(Request::get("mem://gw/svc/echo/a/b?x=1&y=2")).unwrap();
        assert_eq!(resp.text_body().unwrap(), "/a/b?x=1&y=2");
    }

    #[test]
    fn retries_mask_intermittent_faults() {
        let (net, gw) = two_replicas();
        // Every 2nd request to r0 fails; retries go elsewhere.
        net.set_fault("r0", FaultConfig { fail_every: 2, ..Default::default() });
        net.host("gw", gw.clone());
        for _ in 0..20 {
            let resp = net.send(Request::get("mem://gw/svc/ping/x")).unwrap();
            assert!(resp.status.is_success());
        }
        let retries = gw.stats().upstream("mem://r1").retries.load(Ordering::Relaxed)
            + gw.stats().upstream("mem://r0").retries.load(Ordering::Relaxed);
        assert!(retries > 0, "some requests must have been retried");
    }

    #[test]
    fn non_idempotent_methods_are_not_retried() {
        let net = MemNetwork::new();
        net.host("flaky", |_req: Request| Response::error(Status::INTERNAL_SERVER_ERROR, "boom"));
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("orders", &["mem://flaky"]);
        let resp = gw.call("orders", Request::post("/create", b"{}".to_vec()));
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
        assert_eq!(net.hits("flaky"), 1, "a POST must be sent exactly once");
        assert_eq!(
            gw.call("orders", Request::new(Method::Get, "/probe")).status,
            Status::INTERNAL_SERVER_ERROR
        );
        assert!(net.hits("flaky") > 2, "GETs are retried");
    }

    #[test]
    fn client_errors_pass_through_untouched_and_unretried() {
        let net = MemNetwork::new();
        net.host("picky", |_req: Request| Response::error(Status::UNPROCESSABLE, "bad payload"));
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("picky", &["mem://picky"]);
        let resp = gw.call("picky", Request::get("/x"));
        assert_eq!(resp.status, Status::UNPROCESSABLE);
        assert_eq!(net.hits("picky"), 1);
        assert_eq!(gw.breaker_state("mem://picky"), Some(BreakerState::Closed));
    }

    #[test]
    fn dead_replica_trips_its_breaker_and_traffic_routes_around() {
        let (net, gw) = two_replicas();
        net.set_fault("r0", FaultConfig { offline: true, ..Default::default() });
        net.host("gw", gw.clone());
        for _ in 0..30 {
            let resp = net.send(Request::get("mem://gw/svc/ping/x")).unwrap();
            assert!(resp.status.is_success(), "r1 keeps the service up");
        }
        assert_eq!(gw.breaker_state("mem://r0"), Some(BreakerState::Open));
        let before = net.hits("r1");
        for _ in 0..10 {
            net.send(Request::get("mem://gw/svc/ping/x")).unwrap();
        }
        // With r0's breaker open, every request lands on r1 directly.
        assert_eq!(net.hits("r1"), before + 10);
    }

    #[test]
    fn unknown_service_is_503() {
        let (_net, gw) = two_replicas();
        let resp = gw.call("ghost", Request::get("/x"));
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        assert_eq!(gw.stats().no_upstream.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rate_limit_sheds_with_retry_after() {
        let net = MemNetwork::new();
        net.host("r", |_req: Request| Response::text("ok"));
        let gw = Gateway::new(
            Arc::new(net.clone()),
            GatewayConfig { rate_capacity: 2.0, rate_refill_per_sec: 0.0, ..fast_config() },
        );
        gw.register("svc", &["mem://r"]);
        assert!(gw.call("svc", Request::get("/1")).status.is_success());
        assert!(gw.call("svc", Request::get("/2")).status.is_success());
        let shed = gw.call("svc", Request::get("/3"));
        assert_eq!(shed.status, Status::SERVICE_UNAVAILABLE);
        assert_eq!(shed.headers.get("Retry-After"), Some("1"));
        assert_eq!(gw.stats().shed_total(), 1);
    }

    #[test]
    fn stats_endpoint_reports_upstreams() {
        let (net, gw) = two_replicas();
        net.host("gw", gw);
        for _ in 0..6 {
            net.send(Request::get("mem://gw/svc/ping/x")).unwrap();
        }
        let resp = net.send(Request::get("mem://gw/gateway/stats")).unwrap();
        let v = Value::parse(resp.text_body().unwrap()).unwrap();
        assert_eq!(v.pointer("/policy").and_then(Value::as_str), Some("round-robin"));
        assert_eq!(v.pointer("/admitted").and_then(Value::as_i64), Some(6));
        assert_eq!(v.pointer("/upstreams/mem:~1~1r0/requests").and_then(Value::as_i64), Some(3));
        assert_eq!(
            v.pointer("/upstreams/mem:~1~1r0/breaker").and_then(Value::as_str),
            Some("closed")
        );
    }

    #[test]
    fn unknown_route_is_404() {
        let (net, gw) = two_replicas();
        net.host("gw", gw);
        let resp = net.send(Request::get("mem://gw/elsewhere")).unwrap();
        assert_eq!(resp.status, Status::NOT_FOUND);
    }

    #[test]
    fn least_latency_prefers_the_faster_replica() {
        let net = MemNetwork::new();
        net.host("fast", |_req: Request| Response::text("f"));
        net.host("slow", |_req: Request| Response::text("s"));
        net.set_fault(
            "slow",
            FaultConfig { latency: Duration::from_millis(15), ..Default::default() },
        );
        let gw = Gateway::new(
            Arc::new(net.clone()),
            GatewayConfig { policy: Policy::LeastLatency, ..fast_config() },
        );
        gw.register("svc", &["mem://fast", "mem://slow"]);
        // Warm-up explores both; steady state then favors the fast one.
        for _ in 0..10 {
            gw.call("svc", Request::get("/x"));
        }
        let fast_before = net.hits("fast");
        for _ in 0..10 {
            gw.call("svc", Request::get("/x"));
        }
        assert_eq!(net.hits("fast"), fast_before + 10);
    }

    #[test]
    fn monitor_sees_proxied_traffic() {
        let (_net, gw) = two_replicas();
        for _ in 0..4 {
            gw.call("ping", Request::get("/x"));
        }
        let report = gw.monitor().report("mem://r0").unwrap();
        assert_eq!(report.probes, 2);
        assert_eq!(report.successes, 2);
    }

    #[test]
    fn service_quota_sheds_one_hot_service_only() {
        let net = MemNetwork::new();
        net.host("a", |_req: Request| Response::text("a"));
        net.host("b", |_req: Request| Response::text("b"));
        let gw = Gateway::new(
            Arc::new(net.clone()),
            GatewayConfig {
                service_rate_capacity: 2.0,
                service_rate_refill_per_sec: 0.0,
                ..fast_config()
            },
        );
        gw.register("hot", &["mem://a"]);
        gw.register("cold", &["mem://b"]);
        assert!(gw.call("hot", Request::get("/1")).status.is_success());
        assert!(gw.call("hot", Request::get("/2")).status.is_success());
        let shed = gw.call("hot", Request::get("/3"));
        assert_eq!(shed.status, Status::SERVICE_UNAVAILABLE);
        assert_eq!(shed.headers.get("Retry-After"), Some("1"));
        // The cold service is untouched by the hot one's quota.
        assert!(gw.call("cold", Request::get("/1")).status.is_success());
        assert_eq!(gw.stats().shed_service.load(Ordering::Relaxed), 1);
        assert_eq!(gw.stats().shed_total(), 1);
    }

    #[test]
    fn hedge_masks_a_stalling_replica() {
        let net = MemNetwork::new();
        net.host("steady", |_req: Request| Response::text("steady"));
        net.host("laggy", |_req: Request| Response::text("laggy"));
        let gw = Gateway::new(
            Arc::new(net.clone()),
            GatewayConfig {
                // Judge on little evidence, hedge aggressively, and
                // keep the ejector out of the way so the hedge path
                // itself is what's exercised.
                hedge: HedgeConfig { min_samples: 4, ..HedgeConfig::default() },
                outlier: OutlierConfig { enabled: false, ..OutlierConfig::default() },
                request_deadline: Duration::from_secs(10),
                ..fast_config()
            },
        );
        gw.register("svc", &["mem://steady", "mem://laggy"]);
        // Warm up both replicas while they are healthy so each earns a
        // sub-millisecond p95 (and enough samples to arm the hedge).
        for _ in 0..16 {
            assert!(gw.call("svc", Request::get("/warm")).status.is_success());
        }
        // Now one replica stalls hard. Every request that round-robins
        // onto it crosses its (tiny) p95 and hedges onto the healthy
        // one, so callers never wait out the stall.
        net.set_fault(
            "laggy",
            FaultConfig { latency: Duration::from_millis(250), ..Default::default() },
        );
        for _ in 0..6 {
            let start = Instant::now();
            let resp = gw.call("svc", Request::get("/x"));
            assert!(resp.status.is_success());
            assert!(
                start.elapsed() < Duration::from_millis(200),
                "hedge must answer well before the 250 ms stall ({:?})",
                start.elapsed()
            );
        }
        let launched = gw.stats().hedges_launched.load(Ordering::Relaxed);
        let won = gw.stats().hedges_won.load(Ordering::Relaxed);
        assert!(launched >= 3, "stalled primaries must hedge (launched {launched})");
        assert!(won >= 3, "backups must win against a 250 ms stall (won {won})");
        let v = gw.stats_json();
        assert_eq!(v.pointer("/hedges/launched").and_then(Value::as_i64), Some(launched as i64));
    }

    #[test]
    fn a_hedge_armed_pick_answers_on_the_callers_thread() {
        let net = MemNetwork::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        for name in ["r0", "r1"] {
            let seen = seen.clone();
            net.host(name, move |_req: Request| {
                seen.lock().push(std::thread::current().id());
                Response::text("ok")
            });
        }
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("svc", &["mem://r0", "mem://r1"]);
        // Past min_samples on both replicas: every GET from here on
        // arms a hedge.
        for _ in 0..20 {
            assert!(gw.call("svc", Request::get("/warm")).status.is_success());
        }
        let min = HedgeConfig::default().min_samples;
        assert!(gw.monitor().success_samples("mem://r0") >= min);
        assert!(gw.monitor().success_samples("mem://r1") >= min);
        seen.lock().clear();
        for _ in 0..4 {
            assert!(gw.call("svc", Request::get("/x")).status.is_success());
        }
        let me = std::thread::current().id();
        let seen = seen.lock();
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|id| *id == me), "a fast primary must run on the caller's thread");
        assert_eq!(gw.stats().hedges_launched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unhedged_attempts_answer_504_at_the_request_deadline() {
        let net = MemNetwork::new();
        for name in ["slow0", "slow1"] {
            net.host(name, |_req: Request| {
                Response::error(Status::INTERNAL_SERVER_ERROR, "late and failing")
            });
            net.set_fault(
                name,
                FaultConfig { latency: Duration::from_millis(800), ..Default::default() },
            );
        }
        let gw = Gateway::new(
            Arc::new(net.clone()),
            GatewayConfig {
                request_deadline: Duration::from_millis(100),
                // One late failure is enough evidence to open.
                breaker: BreakerConfig { min_samples: 1, ..BreakerConfig::default() },
                ..fast_config()
            },
        );
        gw.register("svc", &["mem://slow0", "mem://slow1"]);
        // A keyless POST never hedges, and a GET on replicas with no
        // samples yet cannot: both attempts run unhedged.
        for req in [Request::post("/orders", b"{}".to_vec()), Request::get("/quote")] {
            let start = Instant::now();
            let resp = gw.call("svc", req);
            assert_eq!(resp.status, Status::GATEWAY_TIMEOUT);
            assert!(
                start.elapsed() < Duration::from_millis(150),
                "the deadline must bound an unhedged attempt ({:?})",
                start.elapsed()
            );
        }
        assert_eq!(gw.stats().deadline_exceeded.load(Ordering::Relaxed), 2);
        // The abandoned attempts finish detached and still report.
        let landed = |ep: &str| gw.monitor().report(ep).is_some_and(|r| r.probes == 1);
        let until = Instant::now() + Duration::from_secs(5);
        while !(landed("mem://slow0") && landed("mem://slow1")) && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(20));
        }
        for ep in ["mem://slow0", "mem://slow1"] {
            let report = gw.monitor().report(ep).expect("the late outcome landed");
            assert_eq!((report.probes, report.successes), (1, 0), "{ep}");
            assert_eq!(gw.breaker_state(ep), Some(BreakerState::Open), "{ep}");
        }
        assert_eq!(net.hits("slow0") + net.hits("slow1"), 2, "each attempt was sent once");
    }

    #[test]
    fn a_parked_attempt_holds_its_permit_so_the_cap_sheds_past_it() {
        let net = MemNetwork::new();
        net.host("hung", |_req: Request| Response::text("late"));
        net.set_fault(
            "hung",
            FaultConfig { latency: Duration::from_millis(400), ..Default::default() },
        );
        let gw = Gateway::new(
            Arc::new(net.clone()),
            GatewayConfig {
                max_concurrent: 2,
                request_deadline: Duration::from_millis(50),
                ..fast_config()
            },
        );
        gw.register("svc", &["mem://hung"]);
        let order = || Request::post("/orders", b"{}".to_vec());
        for _ in 0..2 {
            assert_eq!(gw.call("svc", order()).status, Status::GATEWAY_TIMEOUT);
        }
        // Both abandoned attempts are still upstream, each holding its
        // request's permit: request 3 is shed, not queued behind them.
        let start = Instant::now();
        let shed = gw.call("svc", order());
        assert_eq!(shed.status, Status::SERVICE_UNAVAILABLE);
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "shed at once ({:?})",
            start.elapsed()
        );
        assert_eq!(gw.stats().shed_load.load(Ordering::Relaxed), 1);
        assert_eq!(net.hits("hung"), 0, "neither abandoned attempt has landed yet");
        // Once they land, their permits come back and requests are
        // admitted again.
        let until = Instant::now() + Duration::from_secs(5);
        while gw.inner.limit.in_flight() > 0 && Instant::now() < until {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(net.hits("hung"), 2);
        assert_eq!(gw.inner.limit.in_flight(), 0, "the landed attempts released their permits");
        assert_eq!(gw.call("svc", order()).status, Status::GATEWAY_TIMEOUT);
        assert_eq!(gw.stats().shed_load.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn shard_keyed_writes_route_to_the_primary_only() {
        use soc_store::ShardNode;
        let net = MemNetwork::new();
        for n in ["s0", "s1", "s2"] {
            net.host(n, |_req: Request| Response::text("ok"));
        }
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("store", &["mem://s0", "mem://s1", "mem://s2"]);
        let map = Arc::new(ShardMap::build(
            1,
            vec![
                ShardNode { id: "s0".into(), endpoint: "mem://s0".into() },
                ShardNode { id: "s1".into(), endpoint: "mem://s1".into() },
                ShardNode { id: "s2".into(), endpoint: "mem://s2".into() },
            ],
            2,
        ));
        let primary = map.primary("order-42").unwrap().id.clone();
        gw.set_shard_map("store", map.clone());
        for _ in 0..6 {
            let req = Request::put("/store/order-42", b"{}".to_vec())
                .with_header("X-Shard-Key", "order-42");
            assert!(gw.call("store", req).status.is_success());
        }
        // Every write landed on the key's primary; nothing strayed.
        for n in ["s0", "s1", "s2"] {
            let expected = if n == primary { 6 } else { 0 };
            assert_eq!(net.hits(n), expected, "host {n}");
        }
        // Reads fan across the owner set, never beyond it.
        let owners: Vec<String> = map.owners("order-42").iter().map(|o| o.id.clone()).collect();
        for _ in 0..6 {
            let req = Request::get("/store/order-42").with_header("X-Shard-Key", "order-42");
            assert!(gw.call("store", req).status.is_success());
        }
        for n in ["s0", "s1", "s2"] {
            if !owners.contains(&n.to_string()) {
                assert_eq!(net.hits(n), 0, "non-owner {n} must see no shard-keyed traffic");
            }
        }
    }

    #[test]
    fn requests_without_a_shard_key_keep_the_balanced_path() {
        use soc_store::ShardNode;
        let net = MemNetwork::new();
        net.host("a", |_req: Request| Response::text("a"));
        net.host("b", |_req: Request| Response::text("b"));
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("svc", &["mem://a", "mem://b"]);
        gw.set_shard_map(
            "svc",
            Arc::new(ShardMap::build(
                1,
                vec![ShardNode { id: "a".into(), endpoint: "mem://a".into() }],
                1,
            )),
        );
        for _ in 0..4 {
            assert!(gw.call("svc", Request::get("/x")).status.is_success());
        }
        // No header → round-robin across both replicas as before.
        assert_eq!(net.hits("a"), 2);
        assert_eq!(net.hits("b"), 2);
    }

    #[test]
    fn republished_shard_map_moves_keys() {
        use soc_store::ShardNode;
        let net = MemNetwork::new();
        net.host("only", |_req: Request| Response::text("ok"));
        net.host("next", |_req: Request| Response::text("ok"));
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("store", &["mem://only", "mem://next"]);
        gw.set_shard_map(
            "store",
            Arc::new(ShardMap::build(
                1,
                vec![ShardNode { id: "only".into(), endpoint: "mem://only".into() }],
                1,
            )),
        );
        let req = || Request::put("/store/k", b"{}".to_vec()).with_header("X-Shard-Key", "k");
        assert!(gw.call("store", req()).status.is_success());
        assert_eq!(net.hits("only"), 1);
        // Rebalance: the old node's lease lapsed, a new map names its
        // successor; the very next request follows it.
        gw.set_shard_map(
            "store",
            Arc::new(ShardMap::build(
                2,
                vec![ShardNode { id: "next".into(), endpoint: "mem://next".into() }],
                1,
            )),
        );
        assert!(gw.call("store", req()).status.is_success());
        assert_eq!(net.hits("only"), 1);
        assert_eq!(net.hits("next"), 1);
    }

    #[test]
    fn stale_shard_map_publish_is_rejected() {
        use soc_store::ShardNode;
        let net = MemNetwork::new();
        net.host("cur", |_req: Request| Response::text("ok"));
        net.host("old", |_req: Request| Response::text("ok"));
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("store", &["mem://cur"]);
        let current = Arc::new(ShardMap::build(
            5,
            vec![ShardNode { id: "cur".into(), endpoint: "mem://cur".into() }],
            1,
        ));
        assert!(gw.set_shard_map("store", current.clone()));
        // A delayed publish from before the failover must not win.
        let stale = Arc::new(ShardMap::build(
            3,
            vec![ShardNode { id: "old".into(), endpoint: "mem://old".into() }],
            1,
        ));
        assert!(!gw.set_shard_map("store", stale));
        assert_eq!(gw.shard_map("store").unwrap().version(), 5);
        assert_eq!(gw.stats().shard_map_rejects.load(Ordering::Relaxed), 1);
        assert_eq!(gw.stats_json().pointer("/shard/map_rejects").and_then(Value::as_i64), Some(1));
        // Same-version and newer publishes still land.
        assert!(gw.set_shard_map("store", current));
    }

    #[test]
    fn not_primary_redirect_is_followed_to_the_real_primary() {
        use soc_store::ShardNode;
        let net = MemNetwork::new();
        // "stale" still answers as if it lost the shard: a 409 with a
        // hint naming the real primary. The gateway's map is behind and
        // routes the write there first.
        net.host("stale", |_req: Request| {
            Response::new(Status(409)).with_text(
                "application/json",
                r#"{"error":"not_primary","key":"k","primary":"mem://fresh","map_version":2}"#,
            )
        });
        net.host("fresh", |_req: Request| Response::text("stored"));
        let gw = Gateway::new(Arc::new(net.clone()), fast_config());
        gw.register("store", &["mem://stale", "mem://fresh"]);
        gw.set_shard_map(
            "store",
            Arc::new(ShardMap::build(
                1,
                vec![ShardNode { id: "stale".into(), endpoint: "mem://stale".into() }],
                1,
            )),
        );
        let req = Request::put("/store/k", b"{}".to_vec()).with_header("X-Shard-Key", "k");
        let resp = gw.call("store", req);
        assert!(resp.status.is_success(), "redirect hop must answer: {}", resp.status);
        assert_eq!(net.hits("fresh"), 1);
        assert_eq!(gw.stats().shard_redirects.load(Ordering::Relaxed), 1);
        // Without a shard key the 409 passes through untouched.
        let resp = gw.call("store", Request::put("/store/k", b"{}".to_vec()));
        assert_eq!(resp.status.0, 409);
        assert_eq!(gw.stats().shard_redirects.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn outlier_replica_is_ejected_and_bypassed() {
        let net = MemNetwork::new();
        net.host("ok0", |_req: Request| Response::text("0"));
        net.host("ok1", |_req: Request| Response::text("1"));
        net.host("slow", |_req: Request| Response::text("s"));
        let gw = Gateway::new(
            Arc::new(net.clone()),
            GatewayConfig {
                hedge: HedgeConfig { enabled: false, ..HedgeConfig::default() },
                outlier: OutlierConfig {
                    eval_interval: Duration::ZERO,
                    min_samples: 8,
                    // Well under the injected 8 ms but above scheduling
                    // noise: a healthy replica descheduled under a
                    // loaded test run must not become eligible.
                    min_latency: Duration::from_millis(2),
                    eject_duration: Duration::from_secs(30),
                    ..OutlierConfig::default()
                },
                ..fast_config()
            },
        );
        gw.register("svc", &["mem://ok0", "mem://ok1", "mem://slow"]);
        net.set_fault(
            "slow",
            FaultConfig { latency: Duration::from_millis(8), ..Default::default() },
        );
        // Enough traffic for every replica to earn min_samples.
        for _ in 0..30 {
            assert!(gw.call("svc", Request::get("/x")).status.is_success());
        }
        assert_eq!(gw.ejected_endpoints("svc"), vec!["mem://slow".to_string()]);
        // Ejected replica stops receiving traffic entirely.
        let before = net.hits("slow");
        for _ in 0..12 {
            assert!(gw.call("svc", Request::get("/x")).status.is_success());
        }
        assert_eq!(net.hits("slow"), before, "an ejected replica must see no traffic");
        let v = gw.stats_json();
        assert_eq!(v.pointer("/ejections").and_then(Value::as_i64), Some(1));
        assert_eq!(
            v.pointer("/upstreams/mem:~1~1slow/ejected").and_then(Value::as_bool),
            Some(true)
        );
    }
}
