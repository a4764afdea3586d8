//! The federated directory crawler.
//!
//! Starting from a handful of root directories, the crawler walks the
//! federation's referral links (`GET /directory/peers`), pulls each
//! directory's service listing, follows every descriptor's `wsdl` link
//! and parses it into typed operation signatures. Everything goes
//! through a [`Gateway`], so crawling inherits the same retries,
//! circuit breakers, and tracing as production traffic — a directory
//! behind a flaky link degrades into a `unreachable` stats entry, not a
//! hung crawl.
//!
//! Three behaviors matter for a *federation* (vs. a single registry):
//!
//! - **Referral cycles.** Directories refer to each other freely —
//!   `a → b → c → a` is the norm, not an error. A visited set makes
//!   every crawl terminate.
//! - **Incremental re-crawls.** The referral response carries the
//!   directory's lease version. A re-crawl that sees an unchanged
//!   version skips the listing and the WSDL fetches for that directory
//!   entirely (but still follows its referrals).
//! - **Politeness.** An optional fixed delay between directory visits
//!   keeps a wide crawl from dogpiling the federation.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

use soc_gateway::Gateway;
use soc_http::{Request, Url};
use soc_json::Value;
use soc_observe::SpanKind;
use soc_registry::ServiceDescriptor;

use crate::catalog::{Catalog, DiscoveredService, TypedOperation};

/// Crawl tuning.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Stop after this many directories (visited, skipped, or failed).
    pub max_directories: usize,
    /// Fixed pause before each directory visit.
    pub politeness: Duration,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig { max_directories: 64, politeness: Duration::ZERO }
    }
}

/// What one crawl did, per directory and in aggregate.
#[derive(Debug, Clone, Default)]
pub struct CrawlStats {
    /// Directories fully listed this crawl.
    pub visited: Vec<String>,
    /// Directories skipped because their lease version was unchanged.
    pub skipped_unchanged: Vec<String>,
    /// Directories that could not be reached (through the gateway's
    /// full retry budget).
    pub unreachable: Vec<String>,
    /// WSDL links that failed to fetch or parse: `(url, error)`. The
    /// service is still cataloged, just without typed operations.
    pub wsdl_errors: Vec<(String, String)>,
    /// Descriptors seen across all listings (before id-merging).
    pub services_seen: usize,
}

impl CrawlStats {
    /// Directories handled in any way this crawl.
    pub fn directories(&self) -> usize {
        self.visited.len() + self.skipped_unchanged.len() + self.unreachable.len()
    }
}

/// The crawler. Holds per-directory lease versions between crawls so
/// re-crawls are incremental; create a fresh one for a cold crawl.
pub struct Crawler {
    gateway: Gateway,
    config: CrawlConfig,
    last_versions: HashMap<String, u64>,
    registered: HashSet<String>,
}

/// The origin (`scheme://authority`) of a URL, if it parses.
pub(crate) fn origin_of(url: &str) -> Option<String> {
    let u = Url::parse(url).ok()?;
    Some(format!("{}://{}", u.scheme, u.authority()))
}

impl Crawler {
    /// A crawler that fetches through `gateway`.
    pub fn new(gateway: Gateway, config: CrawlConfig) -> Self {
        Crawler { gateway, config, last_versions: HashMap::new(), registered: HashSet::new() }
    }

    /// The gateway the crawler fetches through.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// GET `path` from `origin`, through the gateway. Each origin is
    /// registered as its own single-replica gateway service, so
    /// breaker and QoS state is tracked per host.
    fn fetch(&mut self, origin: &str, path: &str) -> Result<String, String> {
        let svc = format!("origin:{origin}");
        if self.registered.insert(svc.clone()) {
            self.gateway.register(&svc, &[origin]);
        }
        let resp = self.gateway.call(&svc, Request::get(path));
        if !resp.status.is_success() {
            return Err(format!("GET {origin}{path}: status {}", resp.status));
        }
        resp.text_body().map(str::to_string).map_err(|e| e.to_string())
    }

    /// The directory's referral record: `(lease version, peers)`.
    fn referral(&mut self, base: &str) -> Result<(u64, Vec<String>), String> {
        let text = self.fetch(base, "/directory/peers")?;
        let v = Value::parse(&text).map_err(|e| e.to_string())?;
        let version =
            v.pointer("/version")
                .and_then(Value::as_i64)
                .ok_or_else(|| format!("{base}: referral missing version"))? as u64;
        let peers = match v.pointer("/peers") {
            Some(Value::Array(items)) => {
                items.iter().filter_map(Value::as_str).map(str::to_string).collect()
            }
            _ => Vec::new(),
        };
        Ok((version, peers))
    }

    /// The directory's full service listing.
    fn listing(&mut self, base: &str) -> Result<Vec<ServiceDescriptor>, String> {
        let text = self.fetch(base, "/services")?;
        let v = Value::parse(&text).map_err(|e| e.to_string())?;
        let Value::Array(items) = v else {
            return Err(format!("{base}: /services is not an array"));
        };
        items.iter().map(ServiceDescriptor::from_json).collect()
    }

    /// Describe one advertised service: follow its WSDL link (through
    /// the gateway) and recover typed operations. A relative WSDL
    /// `location` (leading `/`) resolves against the origin the WSDL
    /// was fetched from — services behind a host-agnostic router
    /// advertise themselves that way.
    fn describe(
        &mut self,
        dir: &str,
        d: ServiceDescriptor,
        stats: &mut CrawlStats,
    ) -> DiscoveredService {
        let mut svc = DiscoveredService {
            namespace: String::new(),
            base_path: Url::parse(&d.endpoint).map(|u| u.path).unwrap_or_else(|_| "/".into()),
            operations: Vec::new(),
            replicas: origin_of(&d.endpoint).into_iter().collect(),
            directories: vec![dir.to_string()],
            descriptor: d,
        };
        let Some(wsdl_url) = svc.descriptor.wsdl.clone() else {
            return svc;
        };
        let fetched = Url::parse(&wsdl_url).map_err(|e| e.to_string()).and_then(|u| {
            let origin = format!("{}://{}", u.scheme, u.authority());
            let xml = self.fetch(&origin, &u.path_and_query())?;
            let parsed = soc_soap::wsdl::parse(&xml)?;
            Ok((origin, parsed))
        });
        match fetched {
            Ok((wsdl_origin, parsed)) => {
                svc.namespace = parsed.contract.namespace.clone();
                svc.operations =
                    parsed.contract.operations.iter().map(TypedOperation::from).collect();
                if parsed.endpoint.starts_with('/') {
                    svc.base_path = parsed.endpoint.clone();
                    svc.replicas = vec![wsdl_origin];
                } else if let Ok(u) = Url::parse(&parsed.endpoint) {
                    svc.base_path = u.path.clone();
                    svc.replicas = vec![format!("{}://{}", u.scheme, u.authority())];
                }
            }
            Err(e) => stats.wsdl_errors.push((wsdl_url, e)),
        }
        svc
    }

    /// Crawl the federation reachable from `roots`, merging what is
    /// found into `catalog`. Returns per-crawl stats; lease versions
    /// are remembered so the next crawl is incremental.
    pub fn crawl(&mut self, roots: &[&str], catalog: &mut Catalog) -> CrawlStats {
        let mut crawl_span = soc_observe::span("discover.crawl", SpanKind::Internal);
        let _active = crawl_span.activate();
        let mut stats = CrawlStats::default();
        let mut seen: HashSet<String> = HashSet::new();
        let mut queue: VecDeque<String> = roots
            .iter()
            .map(|r| r.trim_end_matches('/').to_string())
            .filter(|r| seen.insert(r.clone()))
            .collect();

        while let Some(base) = queue.pop_front() {
            if stats.directories() >= self.config.max_directories {
                break;
            }
            if !self.config.politeness.is_zero() {
                std::thread::sleep(self.config.politeness);
            }
            let mut dir_span = soc_observe::span("discover.directory", SpanKind::Client);
            dir_span.set_attr("directory", base.as_str());
            let _dir_active = dir_span.activate();

            // Referral first: one round trip yields both the peers to
            // follow and the lease version that gates a full listing.
            let (version, peers) = match self.referral(&base) {
                Ok(r) => r,
                Err(e) => {
                    dir_span.set_error(e);
                    stats.unreachable.push(base);
                    continue;
                }
            };
            for peer in peers {
                let peer = peer.trim_end_matches('/').to_string();
                if seen.insert(peer.clone()) {
                    queue.push_back(peer);
                }
            }
            if self.last_versions.get(&base) == Some(&version) {
                dir_span.set_attr("unchanged", "true");
                stats.skipped_unchanged.push(base);
                continue;
            }
            match self.listing(&base) {
                Ok(descriptors) => {
                    dir_span.set_attr("services", descriptors.len().to_string());
                    for d in descriptors {
                        stats.services_seen += 1;
                        let described = self.describe(&base, d, &mut stats);
                        catalog.merge(described);
                    }
                    self.last_versions.insert(base.clone(), version);
                    stats.visited.push(base);
                }
                Err(e) => {
                    dir_span.set_error(e);
                    stats.unreachable.push(base);
                }
            }
        }

        crawl_span.set_attr("visited", stats.visited.len().to_string());
        crawl_span.set_attr("services", catalog.len().to_string());
        let m = soc_observe::metrics();
        m.counter("soc_discover_directories_total", &[("outcome", "visited")])
            .add(stats.visited.len() as u64);
        m.counter("soc_discover_directories_total", &[("outcome", "unchanged")])
            .add(stats.skipped_unchanged.len() as u64);
        m.counter("soc_discover_directories_total", &[("outcome", "unreachable")])
            .add(stats.unreachable.len() as u64);
        m.counter("soc_discover_wsdl_errors_total", &[]).add(stats.wsdl_errors.len() as u64);
        m.gauge("soc_discover_catalog_services", &[]).set(catalog.len() as i64);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use soc_gateway::GatewayConfig;
    use soc_http::mem::MemNetwork;
    use std::sync::Arc;

    /// A crawl of the demo federation (`dir-a → dir-b → dir-c → dir-a`).
    fn crawl(roots: &[&str], config: CrawlConfig) -> (CrawlStats, Catalog) {
        let net = MemNetwork::new();
        let _federation = demo::host_mem(&net);
        let gateway = Gateway::new(Arc::new(net), GatewayConfig::default());
        let mut catalog = Catalog::new();
        let stats = Crawler::new(gateway, config).crawl(roots, &mut catalog);
        (stats, catalog)
    }

    #[test]
    fn directory_count_limit() {
        let config = CrawlConfig { max_directories: 2, ..CrawlConfig::default() };
        let (stats, _) = crawl(&["mem://dir-a"], config);
        assert_eq!(stats.visited.len(), 2, "{stats:?}");
        assert_eq!(stats.directories(), 2, "{stats:?}");
    }

    #[test]
    fn empty_seed_list() {
        let (stats, catalog) = crawl(&[], CrawlConfig::default());
        assert!(catalog.is_empty());
        assert!(stats.visited.is_empty());
        assert_eq!(stats.directories(), 0);
    }

    #[test]
    fn duplicate_roots_are_visited_once() {
        let (stats, _) = crawl(&["mem://dir-a", "mem://dir-a/"], CrawlConfig::default());
        assert_eq!(stats.visited, vec!["mem://dir-a", "mem://dir-b", "mem://dir-c"]);
        assert!(stats.skipped_unchanged.is_empty(), "{stats:?}");
    }
}
