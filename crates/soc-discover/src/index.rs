//! The search side of discovery: an inverted index over everything the
//! crawler learned, ranked by a fusion of text relevance and *live*
//! QoS.
//!
//! Relevance alone reproduces the classic UDDI failure mode the paper
//! complains about: the top hit is a beautifully described service that
//! is slow or down. The index therefore scores
//! `relevance × health`, where health is read at query time from a
//! [`QosFeed`] — in production, [`GatewayQos`] taps the gateway's own
//! QoS monitor and outlier ejector, so the ranking reflects the last
//! few seconds of real traffic, not a static registration.
//!
//! The same index answers the planner's narrower question — *who can
//! produce a `score: int`?* — via [`SearchIndex::producers_of`], which
//! matches on exact `(name, type)` signatures.

use std::collections::HashMap;

use soc_gateway::Gateway;
use soc_registry::search::{descriptor_fields, TfIdf};
use soc_soap::contract::Param;

use crate::catalog::{Catalog, DiscoveredService, TypedOperation};

/// A point-in-time health reading for one service.
#[derive(Debug, Clone, Default)]
pub struct QosSnapshot {
    /// Best recent p95 latency across replicas, in milliseconds.
    pub p95_ms: Option<f64>,
    /// Worst recent error rate across replicas, `0.0..=1.0`.
    pub error_rate: Option<f64>,
    /// Every replica is currently ejected — the service is effectively
    /// down as far as the gateway is concerned.
    pub ejected: bool,
}

impl QosSnapshot {
    /// The ranking multiplier this snapshot earns, in `(0, 1]`.
    /// Neutral (no data) is `1.0`; a fully ejected service is floored
    /// near zero so it ranks below any live alternative.
    pub fn health(&self) -> f64 {
        if self.ejected {
            return 0.01;
        }
        let latency = match self.p95_ms {
            Some(ms) => 100.0 / (100.0 + ms.max(0.0)),
            None => 1.0,
        };
        let errors = 1.0 - self.error_rate.unwrap_or(0.0).clamp(0.0, 1.0);
        (latency * errors).max(0.01)
    }
}

/// Source of live QoS readings, consulted at query/plan time.
pub trait QosFeed {
    /// Health of `service_id`, served by `replicas`.
    fn snapshot(&self, service_id: &str, replicas: &[String]) -> QosSnapshot;
}

/// A feed with no opinion: every service is healthy. Useful for tests
/// and for ranking a cold catalog before any traffic has flowed.
pub struct NoQos;

impl QosFeed for NoQos {
    fn snapshot(&self, _service_id: &str, _replicas: &[String]) -> QosSnapshot {
        QosSnapshot::default()
    }
}

/// Live QoS from a [`Gateway`]: recent p95 and error rate from its
/// [`QosMonitor`](soc_registry::QosMonitor) (keyed per replica
/// endpoint, exactly as the gateway records them) plus the outlier
/// ejector's verdict.
pub struct GatewayQos {
    gateway: Gateway,
}

impl GatewayQos {
    /// A feed over `gateway`'s monitor and ejector.
    pub fn new(gateway: Gateway) -> Self {
        GatewayQos { gateway }
    }
}

impl QosFeed for GatewayQos {
    fn snapshot(&self, service_id: &str, replicas: &[String]) -> QosSnapshot {
        let monitor = self.gateway.monitor();
        let mut best_p95: Option<f64> = None;
        let mut worst_err: Option<f64> = None;
        for replica in replicas {
            if let Some(p95) = monitor.recent_p95(replica) {
                let ms = p95.as_secs_f64() * 1_000.0;
                best_p95 = Some(best_p95.map_or(ms, |b: f64| b.min(ms)));
            }
            if let Some(err) = monitor.recent_error_rate(replica) {
                worst_err = Some(worst_err.map_or(err, |w: f64| w.max(err)));
            }
        }
        let ejected = if replicas.is_empty() {
            false
        } else {
            let out = self.gateway.ejected_endpoints(service_id);
            replicas.iter().all(|r| out.contains(r))
        };
        QosSnapshot { p95_ms: best_p95, error_rate: worst_err, ejected }
    }
}

/// One ranked search result.
#[derive(Debug, Clone)]
pub struct SearchHit {
    /// The matching service.
    pub service_id: String,
    /// Text relevance (tf·idf over names, operations, parameters,
    /// types, and descriptor metadata).
    pub relevance: f64,
    /// QoS multiplier in `(0, 1]` (see [`QosSnapshot::health`]).
    pub health: f64,
    /// Final score: `relevance × health`.
    pub score: f64,
}

/// The inverted index. Built from a [`Catalog`] snapshot; owns its own
/// copy of the catalog entries so searches and planning never touch
/// the network.
pub struct SearchIndex {
    services: Vec<DiscoveredService>,
    /// Document `i` is `services[i]`.
    text: TfIdf,
    /// `(name, type)` signature key → `(service idx, op idx)`.
    producers: HashMap<String, Vec<(usize, usize)>>,
}

/// Signature key for exact-match production: lowercased name plus type.
pub(crate) fn param_key(p: &Param) -> String {
    format!("{}:{}", p.name.to_lowercase(), p.ty.xsd_name())
}

impl SearchIndex {
    /// Index every service in `catalog`.
    pub fn build(catalog: &Catalog) -> Self {
        let services: Vec<DiscoveredService> = catalog.services().cloned().collect();
        let mut text = TfIdf::default();
        let mut producers: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        for (si, svc) in services.iter().enumerate() {
            let mut fields = descriptor_fields(&svc.descriptor);
            for (oi, op) in svc.operations.iter().enumerate() {
                fields.push((&op.name, 3.0));
                if let Some(doc) = &op.doc {
                    fields.push((doc, 1.0));
                }
                for p in op.inputs.iter().chain(&op.outputs) {
                    fields.push((&p.name, 2.0));
                    fields.push((p.ty.xsd_name(), 0.5));
                }
                for p in &op.outputs {
                    producers.entry(param_key(p)).or_default().push((si, oi));
                }
            }
            text.add(fields);
        }
        SearchIndex { services, text, producers }
    }

    /// Number of indexed services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// The indexed entry for a service id.
    pub fn service(&self, id: &str) -> Option<&DiscoveredService> {
        self.services.iter().find(|s| s.descriptor.id == id)
    }

    /// Free-text search, ranked by `relevance × health`. Deterministic
    /// for a given index and feed: ties break on service id.
    pub fn search(&self, query: &str, qos: &dyn QosFeed, limit: usize) -> Vec<SearchHit> {
        let mut hits: Vec<SearchHit> = self
            .text
            .scores(query)
            .into_iter()
            .map(|(si, rel)| {
                let svc = &self.services[si];
                let health = qos.snapshot(&svc.descriptor.id, &svc.replicas).health();
                SearchHit {
                    service_id: svc.descriptor.id.clone(),
                    relevance: rel,
                    health,
                    score: rel * health,
                }
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score.total_cmp(&a.score).then_with(|| a.service_id.cmp(&b.service_id))
        });
        hits.truncate(limit);
        hits
    }

    /// Every operation that produces an output exactly matching
    /// `param` (same name, case-insensitive, and same type), in
    /// catalog order.
    pub fn producers_of(&self, param: &Param) -> Vec<(&DiscoveredService, &TypedOperation)> {
        match self.producers.get(&param_key(param)) {
            Some(refs) => refs
                .iter()
                .map(|&(si, oi)| (&self.services[si], &self.services[si].operations[oi]))
                .collect(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use soc_registry::{Binding, ServiceDescriptor};
    use soc_soap::XsdType;

    fn entry(id: &str, op: &str, outs: &[(&str, XsdType)]) -> DiscoveredService {
        DiscoveredService {
            descriptor: ServiceDescriptor::new(id, id, &format!("mem://{id}/api"), Binding::Rest)
                .describe("demo service")
                .keywords(&["lending"]),
            namespace: "urn:test".into(),
            base_path: "/api".into(),
            operations: vec![TypedOperation {
                name: op.into(),
                inputs: vec![],
                outputs: outs.iter().map(|(n, t)| Param { name: n.to_string(), ty: *t }).collect(),
                doc: None,
            }],
            replicas: vec![format!("mem://{id}")],
            directories: vec![],
        }
    }

    fn index() -> SearchIndex {
        let mut cat = Catalog::new();
        cat.merge(entry("risk-model", "AssessRisk", &[("risk", XsdType::Double)]));
        cat.merge(entry("risk-model-alt", "AssessRisk", &[("risk", XsdType::Double)]));
        cat.merge(entry("credit-check", "Score", &[("score", XsdType::Int)]));
        SearchIndex::build(&cat)
    }

    struct Down(&'static str);
    impl QosFeed for Down {
        fn snapshot(&self, id: &str, _replicas: &[String]) -> QosSnapshot {
            QosSnapshot { ejected: id == self.0, ..QosSnapshot::default() }
        }
    }

    #[test]
    fn camel_case_operations_match_plain_words() {
        let idx = index();
        let hits = idx.search("assess risk", &NoQos, 10);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.service_id.starts_with("risk-model")));
    }

    #[test]
    fn ejection_demotes_an_otherwise_equal_service() {
        let idx = index();
        let hits = idx.search("risk", &Down("risk-model"), 10);
        assert_eq!(hits[0].service_id, "risk-model-alt");
        assert!(hits[1].health < 0.1, "ejected service keeps only a floor score");
    }

    #[test]
    fn directory_search_and_index_rank_a_descriptor_catalog_identically() {
        use soc_http::mem::Transport;
        use soc_registry::directory::DirectoryService;
        use soc_registry::Repository;

        let corpus = [
            ("enc", "Encryption Service", "encrypts text with a shared secret key", "security"),
            ("img", "Image Verifier", "a random string image for human verification", "security"),
            ("cart", "Shopping Cart", "add items and compute totals", "commerce"),
            ("mortgage", "Mortgage Approval", "approval using a credit score service", "finance"),
            ("credit-check", "CreditCheck", "credit score lookup by ssn", "finance"),
        ];
        let repo = Repository::new();
        let mut cat = Catalog::new();
        for (id, name, description, category) in corpus {
            let d = ServiceDescriptor::new(id, name, &format!("mem://{id}/api"), Binding::Rest)
                .describe(description)
                .category(category)
                .keywords(&["demo"]);
            repo.publish(d.clone()).unwrap();
            cat.merge(DiscoveredService {
                descriptor: d,
                namespace: String::new(),
                base_path: "/api".into(),
                operations: vec![],
                replicas: vec![],
                directories: vec![],
            });
        }
        let net = soc_http::MemNetwork::new();
        net.host("dir", DirectoryService::new(repo, vec![]).0);
        let idx = SearchIndex::build(&cat);

        for query in ["encrypt secret", "security", "credit score", "check service", "demo"] {
            let url = format!("mem://dir/search?q={}", soc_http::url::percent_encode(query));
            let resp = net.send(soc_http::Request::get(&url)).unwrap();
            let served = soc_json::Value::parse(resp.text_body().unwrap()).unwrap();
            let served: Vec<(&str, f64)> = served
                .as_array()
                .unwrap()
                .iter()
                .map(|h| {
                    let id = h.get("id").and_then(soc_json::Value::as_str).unwrap();
                    (id, h.get("score").and_then(soc_json::Value::as_f64).unwrap())
                })
                .collect();
            let indexed = idx.search(query, &NoQos, 10);
            let ids: Vec<&str> = indexed.iter().map(|h| h.service_id.as_str()).collect();
            assert!(!ids.is_empty(), "{query:?} matches nothing");
            assert_eq!(served.iter().map(|h| h.0).collect::<Vec<_>>(), ids, "{query:?}");
            for ((_, served), hit) in served.iter().zip(&indexed) {
                assert!((served - hit.score).abs() < 1e-9, "{query:?}: {served} vs {hit:?}");
            }
        }
    }

    #[test]
    fn producers_match_on_name_and_type() {
        let idx = index();
        let both = idx.producers_of(&Param { name: "risk".into(), ty: XsdType::Double });
        assert_eq!(both.len(), 2);
        // Same name, wrong type: no producer.
        let none = idx.producers_of(&Param { name: "risk".into(), ty: XsdType::Int });
        assert!(none.is_empty());
    }
}
