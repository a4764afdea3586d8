//! An in-memory virtual network of hosts.
//!
//! Most of the paper's scenarios are *topologies*: a client consuming a
//! provider that consumes a third-party service; a crawler walking
//! several directories; a registry monitoring flaky upstreams. This
//! module hosts any number of [`Handler`]s under `mem://` names inside
//! one process, so those topologies run deterministically, with
//! controllable fault injection standing in for the paper's unreliable
//! free public services ("services are too slow... often offline or
//! removed without notice").

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use crate::client::HttpClient;
use crate::fault::{FaultRng, FaultVerdict};
use crate::server::Handler;
use crate::types::{HttpError, HttpResult, Request, Response, Status};
use crate::url::Url;

pub use crate::fault::{FaultConfig, FaultWindow};

/// Origin name used for requests that do not come from a hosted
/// handler (i.e. test drivers and clients outside the network).
pub const CLIENT_ORIGIN: &str = "client";

thread_local! {
    // Stack of hosts currently serving on this thread: a handler that
    // calls back into the network sends *as* its host, so directional
    // partitions can cut e.g. gateway→replica while client→gateway
    // stays up.
    static ORIGIN: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn current_origin() -> String {
    ORIGIN.with(|o| o.borrow().last().cloned()).unwrap_or_else(|| CLIENT_ORIGIN.to_string())
}

struct OriginGuard;

impl Drop for OriginGuard {
    fn drop(&mut self) {
        ORIGIN.with(|o| {
            o.borrow_mut().pop();
        });
    }
}

fn push_origin(host: &str) -> OriginGuard {
    ORIGIN.with(|o| o.borrow_mut().push(host.to_string()));
    OriginGuard
}

/// Anything that can exchange request/response pairs: the TCP client,
/// the in-memory network, or the combined [`UniClient`]. Service-layer
/// code is written against this, so every binding works over both real
/// sockets and the virtual network.
pub trait Transport: Send + Sync {
    /// Send a request to an absolute URL target.
    fn send(&self, req: Request) -> HttpResult<Response>;
}

impl Transport for HttpClient {
    fn send(&self, req: Request) -> HttpResult<Response> {
        HttpClient::send(self, req)
    }
}

struct HostEntry {
    handler: Arc<dyn Handler>,
    fault: FaultConfig,
    hits: AtomicU64,
    rng: Mutex<FaultRng>,
}

/// A registry of named in-memory hosts addressed as `mem://name/path`.
#[derive(Clone, Default)]
pub struct MemNetwork {
    hosts: Arc<RwLock<HashMap<String, Arc<HostEntry>>>>,
    // Directional (from, to) pairs currently cut at the network level.
    partitions: Arc<RwLock<HashSet<(String, String)>>>,
}

impl MemNetwork {
    /// An empty network.
    pub fn new() -> Self {
        MemNetwork::default()
    }

    /// Register (or replace) a host.
    pub fn host(&self, name: &str, handler: impl Handler) {
        self.hosts.write().insert(
            name.to_string(),
            Arc::new(HostEntry {
                handler: Arc::new(handler),
                fault: FaultConfig::default(),
                hits: AtomicU64::new(0),
                rng: Mutex::new(FaultRng::new(0)),
            }),
        );
    }

    /// Remove a host (it "goes offline without notice").
    pub fn unhost(&self, name: &str) {
        self.hosts.write().remove(name);
    }

    /// Configure fault injection for an existing host.
    pub fn set_fault(&self, name: &str, fault: FaultConfig) -> bool {
        let hosts = self.hosts.read();
        let Some(entry) = hosts.get(name) else { return false };
        let entry = entry.clone();
        drop(hosts);
        let mut hosts = self.hosts.write();
        let rng = Mutex::new(FaultRng::new(fault.seed));
        hosts.insert(
            name.to_string(),
            Arc::new(HostEntry {
                handler: entry.handler.clone(),
                fault,
                hits: AtomicU64::new(entry.hits.load(Ordering::Relaxed)),
                rng,
            }),
        );
        true
    }

    /// Cut traffic from `from` to `to` (directional). `from` is either
    /// a hosted name (for handler-to-handler calls) or
    /// [`CLIENT_ORIGIN`] for external callers.
    pub fn partition(&self, from: &str, to: &str) {
        self.partitions.write().insert((from.to_string(), to.to_string()));
    }

    /// Restore traffic from `from` to `to`.
    pub fn heal(&self, from: &str, to: &str) {
        self.partitions.write().remove(&(from.to_string(), to.to_string()));
    }

    /// Remove every partition.
    pub fn heal_all(&self) {
        self.partitions.write().clear();
    }

    /// Names of all registered hosts.
    pub fn host_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.hosts.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Requests a host has received.
    pub fn hits(&self, name: &str) -> u64 {
        self.hosts.read().get(name).map(|e| e.hits.load(Ordering::Relaxed)).unwrap_or(0)
    }
}

impl Transport for MemNetwork {
    /// Deliver `req` to its host. The handler runs on the caller's
    /// thread, so within [`send_until`](crate::send_until) only injected
    /// latency can park the exchange: the handler itself never yields.
    fn send(&self, req: Request) -> HttpResult<Response> {
        let at = crate::yield_point::take();
        let url = Url::parse(&req.target)?;
        if url.scheme != "mem" {
            return Err(HttpError::BadUrl(format!(
                "MemNetwork only routes mem://, got {}",
                url.scheme
            )));
        }
        // Network-level partition: the caller can't tell whether the
        // host exists, the packets just never arrive.
        if !self.partitions.read().is_empty() {
            let origin = current_origin();
            if self.partitions.read().contains(&(origin.clone(), url.host.clone())) {
                return Err(HttpError::Io(format!("partitioned: {origin} -> {}", url.host)));
            }
        }
        let entry = self
            .hosts
            .read()
            .get(&url.host)
            .cloned()
            .ok_or_else(|| HttpError::UnknownHost(url.host.clone()))?;

        if entry.fault.offline {
            return Err(HttpError::Io(format!("host {} is offline", url.host)));
        }
        // The handler sees origin-form targets, exactly like over TCP.
        let mut inner = req;
        inner.target = url.path_and_query();
        // Same trace plumbing as the TCP path: inject the caller's
        // context now, while it is active on this thread.
        crate::observe::inject_traceparent(&mut inner.headers);
        if !entry.fault.latency.is_zero() {
            let due = Instant::now() + entry.fault.latency;
            match at {
                // The injected latency outlasts the yield point: wait
                // until it, and leave the rest of the wait, and the
                // delivery, to the parked rest.
                Some(at) if at < due => {
                    sleep_until(at);
                    return Err(crate::yield_point::park(move || {
                        sleep_until(due);
                        entry.deliver(&url.host, inner)
                    }));
                }
                _ => sleep_until(due),
            }
        }
        entry.deliver(&url.host, inner)
    }
}

fn sleep_until(at: Instant) {
    let left = at.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        std::thread::sleep(left);
    }
}

impl HostEntry {
    /// The request arriving at the host: count the hit, draw the fault
    /// verdict, and serve it inside a server span on the "remote" side.
    fn deliver(&self, host: &str, req: Request) -> HttpResult<Response> {
        let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if self.fault.fail_every > 0 && n.is_multiple_of(self.fault.fail_every) {
            return Ok(Response::error(Status::SERVICE_UNAVAILABLE, "injected fault"));
        }
        let verdict = self.fault.verdict(n, &mut self.rng.lock());
        if verdict == FaultVerdict::FailEarly {
            return Ok(Response::error(Status::SERVICE_UNAVAILABLE, "injected fault"));
        }
        // Nested sends from inside the handler originate at this host.
        let _origin = push_origin(host);
        let mut resp = crate::observe::serve_with_span(req, "mem.server", |req| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.handler.handle(req)))
                .unwrap_or_else(|_| {
                    Response::error(Status::INTERNAL_SERVER_ERROR, "handler panicked")
                })
        });
        // Post-handler faults: side effects already happened on the
        // host; only the response suffers.
        match verdict {
            FaultVerdict::Reset => {
                Err(HttpError::Io(format!("connection reset by {host} (injected)")))
            }
            FaultVerdict::Truncate => Err(HttpError::UnexpectedEof),
            FaultVerdict::Corrupt => {
                crate::fault::corrupt_body(&mut resp.body);
                Ok(resp)
            }
            FaultVerdict::Clean | FaultVerdict::FailEarly => Ok(resp),
        }
    }
}

/// A transport that routes `mem://` to a [`MemNetwork`] and `http://`
/// to a real [`HttpClient`] — application code stays
/// deployment-agnostic, which is the SOA platform-independence story.
#[derive(Clone)]
pub struct UniClient {
    net: MemNetwork,
    http: HttpClient,
}

impl UniClient {
    /// Combine a virtual network with a TCP client.
    pub fn new(net: MemNetwork) -> Self {
        UniClient { net, http: HttpClient::new() }
    }

    /// Override the TCP client (timeouts, body limits).
    pub fn with_http(mut self, http: HttpClient) -> Self {
        self.http = http;
        self
    }
}

impl Transport for UniClient {
    fn send(&self, req: Request) -> HttpResult<Response> {
        let url = Url::parse(&req.target)?;
        match url.scheme.as_str() {
            "mem" => self.net.send(req),
            "http" => self.http.send(req),
            other => Err(HttpError::BadUrl(format!("unsupported scheme {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_net() -> MemNetwork {
        let net = MemNetwork::new();
        net.host("echo", |req: Request| Response::text(format!("{} {}", req.method, req.target)));
        net
    }

    #[test]
    fn routes_to_named_host() {
        let net = echo_net();
        let resp = net.send(Request::get("mem://echo/a/b?x=1")).unwrap();
        assert_eq!(resp.text_body().unwrap(), "GET /a/b?x=1");
        assert_eq!(net.hits("echo"), 1);
    }

    #[test]
    fn unknown_host_errors() {
        let net = echo_net();
        assert!(matches!(
            net.send(Request::get("mem://ghost/")),
            Err(HttpError::UnknownHost(h)) if h == "ghost"
        ));
    }

    #[test]
    fn unhost_takes_service_offline() {
        let net = echo_net();
        net.unhost("echo");
        assert!(net.send(Request::get("mem://echo/")).is_err());
        assert!(net.host_names().is_empty());
    }

    #[test]
    fn fault_injection_fail_every() {
        let net = echo_net();
        assert!(net.set_fault("echo", FaultConfig { fail_every: 3, ..Default::default() }));
        let mut failures = 0;
        for _ in 0..9 {
            let resp = net.send(Request::get("mem://echo/")).unwrap();
            if resp.status == Status::SERVICE_UNAVAILABLE {
                failures += 1;
            }
        }
        assert_eq!(failures, 3);
    }

    #[test]
    fn offline_fault_is_io_error() {
        let net = echo_net();
        net.set_fault("echo", FaultConfig { offline: true, ..Default::default() });
        assert!(matches!(net.send(Request::get("mem://echo/")), Err(HttpError::Io(_))));
    }

    #[test]
    fn set_fault_on_missing_host_is_false() {
        let net = MemNetwork::new();
        assert!(!net.set_fault("nope", FaultConfig::default()));
    }

    #[test]
    fn panicking_handler_is_500_not_poison() {
        let net = MemNetwork::new();
        net.host("bad", |_req: Request| -> Response { panic!("bug") });
        let resp = net.send(Request::get("mem://bad/")).unwrap();
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
        // Network still usable.
        let resp = net.send(Request::get("mem://bad/")).unwrap();
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let net = echo_net();
            net.set_fault("echo", FaultConfig::seeded(seed).with_fail(0.3));
            (0..64)
                .map(|_| net.send(Request::get("mem://echo/")).unwrap().status.is_success())
                .collect()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let failures = run(5).iter().filter(|ok| !**ok).count();
        assert!((5..=35).contains(&failures), "got {failures}");
    }

    #[test]
    fn reset_runs_handler_but_loses_response() {
        let net = MemNetwork::new();
        let hits = Arc::new(AtomicU64::new(0));
        let handler_hits = hits.clone();
        net.host("flaky", move |_req: Request| {
            handler_hits.fetch_add(1, Ordering::SeqCst);
            Response::text("done")
        });
        net.set_fault("flaky", FaultConfig::seeded(1).with_reset(1.0));
        let err = net.send(Request::post("mem://flaky/", b"x".to_vec()));
        assert!(matches!(err, Err(HttpError::Io(_))));
        // The side effect happened even though the client saw an error.
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn corruption_and_truncation() {
        let net = echo_net();
        net.set_fault("echo", FaultConfig::seeded(2).with_corrupt(1.0));
        let resp = net.send(Request::get("mem://echo/x")).unwrap();
        assert!(resp.status.is_success());
        assert_ne!(resp.body, b"GET /x".to_vec());
        net.set_fault("echo", FaultConfig::seeded(2).with_truncate(1.0));
        assert!(matches!(net.send(Request::get("mem://echo/x")), Err(HttpError::UnexpectedEof)));
    }

    #[test]
    fn burst_window_gates_faults() {
        let net = echo_net();
        // Blackout on the first 2 of every 4 requests (positions 0,1).
        net.set_fault(
            "echo",
            FaultConfig::default().with_window(FaultWindow { period: 4, faulty: 2, offset: 0 }),
        );
        let ok: Vec<bool> = (1..=8u64)
            .map(|_| net.send(Request::get("mem://echo/")).unwrap().status.is_success())
            .collect();
        assert_eq!(ok, vec![false, true, true, false, false, true, true, false]);
    }

    #[test]
    fn partitions_are_directional_and_heal() {
        let net = MemNetwork::new();
        let backend_net = net.clone();
        net.host("frontend", move |_req: Request| {
            match backend_net.send(Request::get("mem://backend/")) {
                Ok(r) => r,
                Err(e) => Response::error(Status(502), &e.to_string()),
            }
        });
        net.host("backend", |_req: Request| Response::text("pong"));

        // Cut frontend→backend: the client still reaches the frontend,
        // which now cannot reach its backend.
        net.partition("frontend", "backend");
        let resp = net.send(Request::get("mem://frontend/")).unwrap();
        assert_eq!(resp.status, Status(502));
        // Direct client→backend is unaffected (directional).
        assert!(net.send(Request::get("mem://backend/")).unwrap().status.is_success());
        // Client→backend can be cut independently.
        net.partition(CLIENT_ORIGIN, "backend");
        assert!(net.send(Request::get("mem://backend/")).is_err());
        net.heal_all();
        assert!(net.send(Request::get("mem://frontend/")).unwrap().status.is_success());
    }

    #[test]
    fn uniclient_dispatches_by_scheme() {
        let net = echo_net();
        let uni = UniClient::new(net);
        assert!(uni.send(Request::get("mem://echo/ok")).is_ok());
        assert!(uni.send(Request::get("ftp://x/")).is_err());
    }

    #[test]
    fn hosts_are_concurrent() {
        let net = Arc::new(echo_net());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    net.send(Request::get("mem://echo/")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(net.hits("echo"), 200);
    }
}
