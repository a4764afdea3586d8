//! The directory's REST binding and its typed client.
//!
//! A directory exposes:
//!
//! | Route | Method | Meaning |
//! |---|---|---|
//! | `/services` | GET | list all descriptors |
//! | `/services` | POST | register a descriptor (the paper's "registration page") |
//! | `/services/{id}` | GET / DELETE | fetch / unregister |
//! | `/categories` | GET | distinct categories |
//! | `/search?q=…` | GET | ranked tf·idf search (see [`crate::search`]) |
//! | `/semantic-search?category=…` | GET | ontology-expanded category match (CSE446 unit 6) |
//! | `/directory/peers` | GET | federation referral: peer base URLs plus this directory's lease version |
//! | `/leases` | GET | lease table version + live service ids |
//! | `/leases/{id}` | POST / DELETE | renew / revoke a registration lease |
//! | `/leases/{id}/fenced` | POST | renew an infrastructure node's fenced lease (returns the fencing epoch) |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use soc_http::{Handler, Request, Response, Status};
use soc_json::Value;
use soc_rest::router::Router;

use crate::descriptor::ServiceDescriptor;
use crate::repository::Repository;

/// A hosted directory service wrapping a [`Repository`].
pub struct DirectoryService {
    router: Router,
}

/// Default lease duration when the renewer doesn't ask for one.
pub const DEFAULT_LEASE_TTL_MS: u64 = 30_000;

/// Shared state behind the routes.
pub struct DirectoryState {
    /// The backing repository.
    pub repository: Repository,
    /// Peer directory URLs (e.g. `mem://dir-b`).
    pub peers: RwLock<Vec<String>>,
    /// Category ontology backing `/semantic-search`.
    pub ontology: crate::ontology::Ontology,
    /// Registration leases: a provider that stops renewing drops out of
    /// the live set even though its descriptor stays published.
    pub leases: crate::monitor::LeaseTable,
    /// Bumped whenever the live set changes (renewal of a lapsed lease,
    /// expiry, revocation). Resolvers poll this cheaply instead of
    /// refetching descriptors on a wall-clock timer.
    pub lease_version: AtomicU64,
    started: Instant,
}

impl DirectoryState {
    /// Milliseconds since the directory started — the lease clock.
    pub fn lease_now(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Expire lapsed leases, then return `(version, live ids)`.
    pub fn lease_snapshot(&self) -> (u64, Vec<String>) {
        let now = self.lease_now();
        if !self.leases.expire(now).is_empty() {
            self.lease_version.fetch_add(1, Ordering::AcqRel);
        }
        (self.lease_version.load(Ordering::Acquire), self.leases.live(now))
    }

    /// Live `(id, endpoint)` pairs for providers that advertised one —
    /// what `soc-store` hashes into its shard ring.
    pub fn lease_endpoints(&self) -> Vec<(String, String)> {
        self.leases.live_endpoints(self.lease_now())
    }

    /// Renew `id`'s lease for `ttl_ms`, returning the (possibly bumped)
    /// version. Only a *newly* live id changes the set, so steady-state
    /// renewals leave the version untouched.
    pub fn renew_lease(&self, id: &str, ttl_ms: u64) -> u64 {
        self.renew_lease_with_endpoint(id, ttl_ms, None)
    }

    /// Renew `id`'s lease, optionally advertising the provider's
    /// serving endpoint. A changed or newly advertised endpoint bumps
    /// the version too: shard maps must rebuild when a provider moves,
    /// not just when it appears or disappears.
    pub fn renew_lease_with_endpoint(&self, id: &str, ttl_ms: u64, endpoint: Option<&str>) -> u64 {
        let now = self.lease_now();
        let was_live = self.leases.is_live(id, now);
        let endpoints_before =
            if endpoint.is_some() { self.leases.live_endpoints(now) } else { Vec::new() };
        self.leases.renew_with_endpoint(id, now, ttl_ms, endpoint);
        let moved = endpoint.is_some() && self.leases.live_endpoints(now) != endpoints_before;
        if !was_live || moved {
            self.lease_version.fetch_add(1, Ordering::AcqRel);
        }
        self.lease_version.load(Ordering::Acquire)
    }

    /// Revoke `id`'s lease; returns whether it was live.
    pub fn revoke_lease(&self, id: &str) -> bool {
        let was_live = self.leases.revoke(id, self.lease_now());
        if was_live {
            self.lease_version.fetch_add(1, Ordering::AcqRel);
        }
        was_live
    }
}

impl DirectoryService {
    /// Build a directory over `repository` that advertises `peers`,
    /// with the default service-domain ontology.
    pub fn new(repository: Repository, peers: Vec<String>) -> (Self, Arc<DirectoryState>) {
        Self::with_ontology(repository, peers, crate::ontology::Ontology::service_domain())
    }

    /// Build with an explicit category ontology.
    pub fn with_ontology(
        repository: Repository,
        peers: Vec<String>,
        ontology: crate::ontology::Ontology,
    ) -> (Self, Arc<DirectoryState>) {
        let state = Arc::new(DirectoryState {
            repository,
            peers: RwLock::new(peers),
            ontology,
            leases: crate::monitor::LeaseTable::new(),
            lease_version: AtomicU64::new(0),
            started: Instant::now(),
        });
        let mut router = Router::new();

        {
            let st = state.clone();
            router.get("/services", move |_req, _p| {
                let items: Vec<Value> =
                    st.repository.list().into_iter().map(|d| d.to_json()).collect();
                Response::json(&Value::Array(items).to_compact())
            });
        }
        {
            let st = state.clone();
            router.post("/services", move |req, _p| {
                let Ok(text) = req.text() else {
                    return Response::error(Status::BAD_REQUEST, "body is not UTF-8");
                };
                let v = match Value::parse(text) {
                    Ok(v) => v,
                    Err(e) => return Response::error(Status::BAD_REQUEST, &e.to_string()),
                };
                let d = match ServiceDescriptor::from_json(&v) {
                    Ok(d) => d,
                    Err(e) => return Response::error(Status::UNPROCESSABLE, &e),
                };
                match st.repository.publish(d.clone()) {
                    Ok(()) => {
                        let mut resp = Response::json(&d.to_json().to_compact());
                        resp.status = Status::CREATED;
                        resp
                    }
                    Err(e) => Response::error(Status::CONFLICT, &e),
                }
            });
        }
        {
            let st = state.clone();
            router.get("/services/{id}", move |_req, p| {
                match st.repository.get(p.get("id").unwrap_or("")) {
                    Some(d) => Response::json(&d.to_json().to_compact()),
                    None => Response::error(Status::NOT_FOUND, "no such service"),
                }
            });
        }
        {
            let st = state.clone();
            router.delete("/services/{id}", move |_req, p| {
                let id = p.get("id").unwrap_or("");
                if st.repository.unpublish(id) {
                    // An unpublished service can't stay live.
                    st.revoke_lease(id);
                    Response::new(Status::NO_CONTENT)
                } else {
                    Response::error(Status::NOT_FOUND, "no such service")
                }
            });
        }
        {
            let st = state.clone();
            router.get("/leases", move |_req, _p| {
                let (version, live) = st.lease_snapshot();
                let mut v = Value::object();
                v.set("version", version as i64);
                v.set("live", Value::Array(live.into_iter().map(Value::from).collect()));
                let mut eps = Value::object();
                for (id, endpoint) in st.lease_endpoints() {
                    eps.set(id.as_str(), endpoint);
                }
                v.set("endpoints", eps);
                Response::json(&v.to_compact())
            });
        }
        {
            let st = state.clone();
            router.post("/leases/{id}", move |req, p| {
                let id = p.get("id").unwrap_or("");
                if st.repository.get(id).is_none() {
                    return Response::error(Status::NOT_FOUND, "no such service");
                }
                let ttl_ms = req
                    .query("ttl_ms")
                    .and_then(|t| t.parse::<u64>().ok())
                    .unwrap_or(DEFAULT_LEASE_TTL_MS);
                let endpoint = req.query("endpoint");
                let version = st.renew_lease_with_endpoint(id, ttl_ms, endpoint.as_deref());
                let mut v = Value::object();
                v.set("version", version as i64);
                v.set("ttl_ms", ttl_ms as i64);
                Response::json(&v.to_compact())
            });
        }
        {
            // Fenced lease renewal for infrastructure nodes (store
            // shards). Unlike `/leases/{id}` there is no repository
            // membership check — a store node is not a published
            // service descriptor — and the returned version doubles as
            // the node's fencing epoch: replicas refuse replication
            // traffic carrying an older epoch, so a primary that can no
            // longer renew here can no longer be obeyed.
            let st = state.clone();
            router.post("/leases/{id}/fenced", move |req, p| {
                let id = p.get("id").unwrap_or("");
                if id.is_empty() {
                    return Response::error(Status::BAD_REQUEST, "missing lease id");
                }
                let ttl_ms = req
                    .query("ttl_ms")
                    .and_then(|t| t.parse::<u64>().ok())
                    .unwrap_or(DEFAULT_LEASE_TTL_MS);
                let endpoint = req.query("endpoint");
                let version = st.renew_lease_with_endpoint(id, ttl_ms, endpoint.as_deref());
                let mut v = Value::object();
                v.set("version", version as i64);
                v.set("ttl_ms", ttl_ms as i64);
                Response::json(&v.to_compact())
            });
        }
        {
            let st = state.clone();
            router.delete("/leases/{id}", move |_req, p| {
                if st.revoke_lease(p.get("id").unwrap_or("")) {
                    Response::new(Status::NO_CONTENT)
                } else {
                    Response::error(Status::NOT_FOUND, "no live lease")
                }
            });
        }
        {
            let st = state.clone();
            router.get("/categories", move |_req, _p| {
                let cats: Vec<Value> =
                    st.repository.categories().into_iter().map(Value::from).collect();
                Response::json(&Value::Array(cats).to_compact())
            });
        }
        {
            let st = state.clone();
            router.get("/search", move |req, _p| {
                let Some(q) = req.query("q") else {
                    return Response::error(Status::BAD_REQUEST, "missing query parameter q");
                };
                let limit = req.query("limit").and_then(|l| l.parse::<usize>().ok()).unwrap_or(10);
                // The index is rebuilt per query; directories are small
                // and registrations are frequent.
                let hits: Vec<Value> = crate::search::search(&st.repository.list(), &q, limit)
                    .into_iter()
                    .map(|h| {
                        let mut v = h.service.to_json();
                        v.set("score", h.score);
                        v
                    })
                    .collect();
                Response::json(&Value::Array(hits).to_compact())
            });
        }
        {
            let st = state.clone();
            router.get("/semantic-search", move |req, _p| {
                let Some(category) = req.query("category") else {
                    return Response::error(
                        Status::BAD_REQUEST,
                        "missing query parameter category",
                    );
                };
                let services = st.repository.list();
                let hits: Vec<Value> = st
                    .ontology
                    .services_in(&category, &services)
                    .into_iter()
                    .map(|d| d.to_json())
                    .collect();
                Response::json(&Value::Array(hits).to_compact())
            });
        }
        {
            // Federation referral: which other directories this one
            // knows about, stamped with the local lease version so a
            // crawler can skip an unchanged directory on re-crawl.
            let st = state.clone();
            router.get("/directory/peers", move |_req, _p| {
                let (version, _live) = st.lease_snapshot();
                let peers: Vec<Value> = st.peers.read().iter().cloned().map(Value::from).collect();
                let mut v = Value::object();
                v.set("version", version as i64);
                v.set("peers", Value::Array(peers));
                Response::json(&v.to_compact())
            });
        }

        (DirectoryService { router }, state)
    }
}

impl Handler for DirectoryService {
    fn handle(&self, req: Request) -> Response {
        self.router.handle(req)
    }
}

/// Errors surfaced by [`DirectoryClient`] calls.
#[derive(Debug)]
pub enum DirectoryError {
    /// The transport failed before the directory answered (offline host,
    /// connection refused, malformed reply, …).
    Transport(soc_http::HttpError),
    /// The directory answered with a non-success status.
    Status {
        /// The status returned.
        status: Status,
        /// Response body text, best effort.
        body: String,
    },
    /// The directory answered 2xx but the payload didn't decode.
    Decode(String),
}

impl DirectoryError {
    /// The HTTP status the directory answered with, if it answered.
    pub fn status(&self) -> Option<Status> {
        match self {
            DirectoryError::Status { status, .. } => Some(*status),
            _ => None,
        }
    }
}

impl std::fmt::Display for DirectoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirectoryError::Transport(e) => write!(f, "directory unreachable: {e}"),
            DirectoryError::Status { status, body } => {
                write!(f, "directory error {status}: {body}")
            }
            DirectoryError::Decode(d) => write!(f, "bad payload from directory: {d}"),
        }
    }
}

impl std::error::Error for DirectoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DirectoryError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<soc_rest::RestError> for DirectoryError {
    fn from(e: soc_rest::RestError) -> Self {
        match e {
            soc_rest::RestError::Transport(t) => DirectoryError::Transport(t),
            soc_rest::RestError::Status { status, body } => DirectoryError::Status { status, body },
            soc_rest::RestError::Decode(d) => DirectoryError::Decode(d),
        }
    }
}

/// Result alias for directory calls.
pub type DirectoryResult<T> = Result<T, DirectoryError>;

/// Typed client for a directory.
#[derive(Clone)]
pub struct DirectoryClient {
    rest: soc_rest::RestClient,
    base: String,
}

impl DirectoryClient {
    /// Client for the directory at `base` (e.g. `mem://dir-a`).
    pub fn new(transport: Arc<dyn soc_http::mem::Transport>, base: &str) -> Self {
        DirectoryClient {
            rest: soc_rest::RestClient::new(transport),
            base: base.trim_end_matches('/').to_string(),
        }
    }

    /// Register a descriptor.
    pub fn register(&self, d: &ServiceDescriptor) -> DirectoryResult<()> {
        self.rest.post(&format!("{}/services", self.base), &d.to_json())?;
        Ok(())
    }

    /// Unregister by id.
    pub fn unregister(&self, id: &str) -> DirectoryResult<()> {
        self.rest.delete(&format!("{}/services/{id}", self.base))?;
        Ok(())
    }

    /// All descriptors.
    pub fn list(&self) -> DirectoryResult<Vec<ServiceDescriptor>> {
        let v = self.rest.get(&format!("{}/services", self.base))?;
        decode_list(&v)
    }

    /// One descriptor.
    pub fn get(&self, id: &str) -> DirectoryResult<ServiceDescriptor> {
        let v = self.rest.get(&format!("{}/services/{id}", self.base))?;
        ServiceDescriptor::from_json(&v).map_err(DirectoryError::Decode)
    }

    /// Ranked search.
    pub fn search(&self, query: &str) -> DirectoryResult<Vec<ServiceDescriptor>> {
        let url = format!("{}/search?q={}", self.base, soc_http::url::percent_encode(query));
        let v = self.rest.get(&url)?;
        decode_list(&v)
    }

    /// Ontology-expanded category search.
    pub fn semantic_search(&self, category: &str) -> DirectoryResult<Vec<ServiceDescriptor>> {
        let url = format!(
            "{}/semantic-search?category={}",
            self.base,
            soc_http::url::percent_encode(category)
        );
        let v = self.rest.get(&url)?;
        decode_list(&v)
    }

    /// Federation referral: peer directory base URLs plus this
    /// directory's lease version (see `/directory/peers`).
    pub fn referrals(&self) -> DirectoryResult<Referral> {
        let v = self.rest.get(&format!("{}/directory/peers", self.base))?;
        let version = v
            .pointer("/version")
            .and_then(Value::as_i64)
            .ok_or_else(|| DirectoryError::Decode("referral missing version".into()))?
            as u64;
        let peers = v
            .pointer("/peers")
            .and_then(Value::as_array)
            .ok_or_else(|| DirectoryError::Decode("referral missing peers".into()))?
            .iter()
            .filter_map(Value::as_str)
            .map(str::to_string)
            .collect();
        Ok(Referral { version, peers })
    }

    /// Renew `id`'s lease for `ttl_ms`; returns the lease-table version.
    pub fn renew_lease(&self, id: &str, ttl_ms: u64) -> DirectoryResult<u64> {
        self.renew_lease_at(id, ttl_ms, None)
    }

    /// Renew `id`'s lease, advertising the provider's serving endpoint
    /// so shard maps built from this directory can route to it.
    pub fn renew_lease_at(
        &self,
        id: &str,
        ttl_ms: u64,
        endpoint: Option<&str>,
    ) -> DirectoryResult<u64> {
        let mut url =
            format!("{}/leases/{}?ttl_ms={ttl_ms}", self.base, soc_http::url::percent_encode(id));
        if let Some(ep) = endpoint {
            url.push_str(&format!("&endpoint={}", soc_http::url::percent_encode(ep)));
        }
        let v = self.rest.post(&url, &Value::object())?;
        v.pointer("/version")
            .and_then(Value::as_i64)
            .map(|n| n as u64)
            .ok_or_else(|| DirectoryError::Decode("lease renewal missing version".into()))
    }

    /// Renew a *fenced* lease for an infrastructure node (no published
    /// descriptor required). Returns the lease-table version, which is
    /// the node's fencing epoch.
    pub fn renew_fenced_lease(
        &self,
        id: &str,
        ttl_ms: u64,
        endpoint: Option<&str>,
    ) -> DirectoryResult<u64> {
        let mut url = format!(
            "{}/leases/{}/fenced?ttl_ms={ttl_ms}",
            self.base,
            soc_http::url::percent_encode(id)
        );
        if let Some(ep) = endpoint {
            url.push_str(&format!("&endpoint={}", soc_http::url::percent_encode(ep)));
        }
        let v = self.rest.post(&url, &Value::object())?;
        v.pointer("/version")
            .and_then(Value::as_i64)
            .map(|n| n as u64)
            .ok_or_else(|| DirectoryError::Decode("fenced lease renewal missing version".into()))
    }

    /// Current lease-table version plus the live service ids.
    pub fn leases(&self) -> DirectoryResult<LeaseSnapshot> {
        let v = self.rest.get(&format!("{}/leases", self.base))?;
        let version = v
            .pointer("/version")
            .and_then(Value::as_i64)
            .ok_or_else(|| DirectoryError::Decode("lease snapshot missing version".into()))?
            as u64;
        let live = v
            .pointer("/live")
            .and_then(Value::as_array)
            .ok_or_else(|| DirectoryError::Decode("lease snapshot missing live set".into()))?
            .iter()
            .filter_map(Value::as_str)
            .map(str::to_string)
            .collect();
        // Endpoints are optional on the wire: older directories (and
        // providers that never advertise one) simply yield none.
        let mut endpoints: Vec<(String, String)> = v
            .pointer("/endpoints")
            .and_then(Value::as_object)
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|(id, ep)| ep.as_str().map(|e| (id.clone(), e.to_string())))
                    .collect()
            })
            .unwrap_or_default();
        endpoints.sort();
        Ok(LeaseSnapshot { version, live, endpoints })
    }

    /// Revoke `id`'s lease (deliberate shutdown).
    pub fn revoke_lease(&self, id: &str) -> DirectoryResult<()> {
        self.rest.delete(&format!("{}/leases/{}", self.base, soc_http::url::percent_encode(id)))?;
        Ok(())
    }
}

/// A federation referral: where else to crawl, and how fresh the
/// referring directory itself is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Referral {
    /// The referring directory's lease-table version — unchanged
    /// version ⇒ unchanged live set, so a re-crawl can skip it.
    pub version: u64,
    /// Peer directory base URLs.
    pub peers: Vec<String>,
}

/// One observation of a directory's lease table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseSnapshot {
    /// Change counter: unchanged version ⇒ unchanged live set.
    pub version: u64,
    /// Service ids with unexpired leases, sorted.
    pub live: Vec<String>,
    /// `(id, endpoint)` for live providers that advertised a serving
    /// endpoint, sorted — the input `soc-store`'s shard map hashes.
    pub endpoints: Vec<(String, String)>,
}

fn decode_list(v: &Value) -> DirectoryResult<Vec<ServiceDescriptor>> {
    v.as_array()
        .ok_or_else(|| DirectoryError::Decode("expected a JSON array".into()))?
        .iter()
        .map(|d| ServiceDescriptor::from_json(d).map_err(DirectoryError::Decode))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Binding;
    use soc_http::MemNetwork;

    fn setup() -> (MemNetwork, DirectoryClient) {
        let net = MemNetwork::new();
        let (dir, _state) = DirectoryService::new(Repository::new(), vec!["mem://dir-b".into()]);
        net.host("dir-a", dir);
        let client = DirectoryClient::new(Arc::new(net.clone()), "mem://dir-a");
        (net, client)
    }

    fn svc(id: &str) -> ServiceDescriptor {
        ServiceDescriptor::new(
            id,
            &format!("{id} service"),
            &format!("mem://svc/{id}"),
            Binding::Rest,
        )
        .describe("a test service for the directory")
        .category("testing")
    }

    #[test]
    fn register_list_get_unregister() {
        let (_net, client) = setup();
        client.register(&svc("alpha")).unwrap();
        client.register(&svc("beta")).unwrap();
        assert_eq!(client.list().unwrap().len(), 2);
        assert_eq!(client.get("alpha").unwrap().name, "alpha service");
        client.unregister("alpha").unwrap();
        assert_eq!(client.list().unwrap().len(), 1);
        assert!(client.get("alpha").is_err());
    }

    #[test]
    fn duplicate_registration_conflicts() {
        let (_net, client) = setup();
        client.register(&svc("dup")).unwrap();
        let err = client.register(&svc("dup")).unwrap_err();
        assert_eq!(err.status(), Some(Status::CONFLICT), "{err}");
        assert!(err.to_string().contains("409"), "{err}");
    }

    #[test]
    fn offline_directory_is_a_transport_error() {
        let (net, client) = setup();
        net.set_fault("dir-a", soc_http::mem::FaultConfig { offline: true, ..Default::default() });
        let err = client.list().unwrap_err();
        assert!(matches!(err, DirectoryError::Transport(_)), "{err}");
        assert!(err.status().is_none());
        // DirectoryError is a real std error with a source chain.
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.source().is_some());
    }

    #[test]
    fn search_over_http_binding() {
        let (_net, client) = setup();
        client.register(&svc("guess").describe("random number guessing game")).unwrap();
        client.register(&svc("cart").describe("shopping cart totals")).unwrap();
        let hits = client.search("guessing game").unwrap();
        assert_eq!(hits[0].id, "guess");
    }

    #[test]
    fn referral_endpoint_carries_lease_version() {
        let (_net, client) = setup();
        let r = client.referrals().unwrap();
        assert_eq!(r, Referral { version: 0, peers: vec!["mem://dir-b".to_string()] });
        // A live-set change is visible in the referral version too.
        client.register(&svc("alpha")).unwrap();
        client.renew_lease("alpha", 60_000).unwrap();
        assert!(client.referrals().unwrap().version > 0);
    }

    #[test]
    fn malformed_registration_rejected() {
        let (net, _client) = setup();
        let resp = soc_http::mem::Transport::send(
            &net,
            soc_http::Request::post("mem://dir-a/services", Vec::new())
                .with_text("application/json", "{\"id\": \"x\"}"),
        )
        .unwrap();
        assert_eq!(resp.status, Status::UNPROCESSABLE);
        let resp = soc_http::mem::Transport::send(
            &net,
            soc_http::Request::post("mem://dir-a/services", Vec::new())
                .with_text("application/json", "{nope"),
        )
        .unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
    }

    #[test]
    fn lease_lifecycle_over_http() {
        let (_net, client) = setup();
        client.register(&svc("credit#0")).unwrap();
        client.register(&svc("credit#1")).unwrap();

        // Nothing live until someone renews; version starts at 0.
        let snap = client.leases().unwrap();
        assert_eq!(snap, LeaseSnapshot { version: 0, live: vec![], endpoints: vec![] });

        // First renewals bump the version once each ('#' in the id must
        // survive percent-encoding through the router).
        let v1 = client.renew_lease("credit#0", 60_000).unwrap();
        let v2 = client.renew_lease_at("credit#1", 60_000, Some("http://127.0.0.1:7001")).unwrap();
        assert!(v2 > v1);
        let snap = client.leases().unwrap();
        assert_eq!(snap.version, v2);
        assert_eq!(snap.live, vec!["credit#0".to_string(), "credit#1".to_string()]);
        // Only the advertising provider shows an endpoint; the URL
        // survives percent-encoding both ways.
        assert_eq!(
            snap.endpoints,
            vec![("credit#1".to_string(), "http://127.0.0.1:7001".to_string())]
        );
        // Advertising a *moved* endpoint bumps the version: shard maps
        // keyed on it must rebuild.
        let v3 = client.renew_lease_at("credit#1", 60_000, Some("http://127.0.0.1:7002")).unwrap();
        assert!(v3 > v2);
        assert_eq!(client.leases().unwrap().endpoints[0].1, "http://127.0.0.1:7002");

        // Steady-state renewal of an already-live id: same version.
        assert_eq!(client.renew_lease("credit#0", 60_000).unwrap(), v3);

        // Revocation removes the id and bumps the version.
        client.revoke_lease("credit#0").unwrap();
        let snap = client.leases().unwrap();
        assert!(snap.version > v3);
        assert_eq!(snap.live, vec!["credit#1".to_string()]);

        // Revoking a lease that isn't live is a 404, as is renewing an
        // unregistered service.
        assert_eq!(client.revoke_lease("credit#0").unwrap_err().status(), Some(Status::NOT_FOUND));
        assert_eq!(
            client.renew_lease("ghost", 1_000).unwrap_err().status(),
            Some(Status::NOT_FOUND)
        );
    }

    #[test]
    fn fenced_lease_needs_no_descriptor() {
        let (_net, client) = setup();
        // An ordinary renewal for an unregistered id is a 404 …
        assert_eq!(
            client.renew_lease("store-0", 1_000).unwrap_err().status(),
            Some(Status::NOT_FOUND)
        );
        // … but a fenced renewal succeeds and advertises an endpoint.
        let epoch =
            client.renew_fenced_lease("store-0", 60_000, Some("http://127.0.0.1:9001")).unwrap();
        assert!(epoch > 0);
        let snap = client.leases().unwrap();
        assert_eq!(snap.live, vec!["store-0".to_string()]);
        assert_eq!(
            snap.endpoints,
            vec![("store-0".to_string(), "http://127.0.0.1:9001".to_string())]
        );
        // Steady-state renewal keeps the epoch; a second joining node
        // bumps it — the epoch is the lease-table version.
        assert_eq!(client.renew_fenced_lease("store-0", 60_000, None).unwrap(), epoch);
        let e2 =
            client.renew_fenced_lease("store-1", 60_000, Some("http://127.0.0.1:9002")).unwrap();
        assert!(e2 > epoch);
    }

    #[test]
    fn unregister_revokes_lease() {
        let (_net, client) = setup();
        client.register(&svc("gone")).unwrap();
        client.renew_lease("gone", 60_000).unwrap();
        assert_eq!(client.leases().unwrap().live, vec!["gone".to_string()]);
        client.unregister("gone").unwrap();
        assert!(client.leases().unwrap().live.is_empty());
    }

    #[test]
    fn search_requires_query() {
        let (net, _client) = setup();
        let resp =
            soc_http::mem::Transport::send(&net, soc_http::Request::get("mem://dir-a/search"))
                .unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
    }
}

#[cfg(test)]
mod semantic_tests {
    use super::*;
    use crate::descriptor::Binding;
    use soc_http::MemNetwork;

    #[test]
    fn semantic_search_expands_subclasses_over_http() {
        let net = MemNetwork::new();
        let repo = Repository::new();
        for (id, cat) in
            [("enc", "cryptography"), ("login", "authentication"), ("cart", "commerce")]
        {
            repo.publish(
                ServiceDescriptor::new(id, id, &format!("mem://s/{id}"), Binding::Rest)
                    .category(cat),
            )
            .unwrap();
        }
        let (dir, _) = DirectoryService::new(repo, vec![]);
        net.host("dir", dir);
        let client = DirectoryClient::new(Arc::new(net), "mem://dir");
        // "security" has no exact matches, but subsumes two services.
        let hits = client.semantic_search("security").unwrap();
        let ids: Vec<&str> = hits.iter().map(|h| h.id.as_str()).collect();
        assert_eq!(ids, vec!["enc", "login"]);
        // The root class subsumes everything.
        assert_eq!(client.semantic_search("service").unwrap().len(), 3);
        // Unknown class: only exact matches (none).
        assert!(client.semantic_search("quantum").unwrap().is_empty());
        // Keyword search would have missed these entirely.
        assert!(client.search("security").unwrap().is_empty());
    }
}
