//! Cross-crate integration tests: whole topologies of the paper's
//! system — provider + broker + consumer, crawler federations, workflow
//! compositions, and the dependability scenarios — exercised through
//! the public API only.

use std::sync::Arc;

use soc::discover::{Catalog, CrawlConfig, Crawler, NoQos, SearchIndex};
use soc::gateway::{Gateway, GatewayConfig};
use soc::http::mem::{FaultConfig, Transport};
use soc::http::MemNetwork;
use soc::json::{json, Value};
use soc::registry::directory::{DirectoryClient, DirectoryService};
use soc::registry::monitor::QosMonitor;
use soc::registry::Repository;
use soc::rest::RestClient;
use soc::soap::client::SoapClient;

/// Build the standard topology: services + a directory listing them.
fn marketplace() -> (MemNetwork, Arc<dyn Transport>) {
    let net = MemNetwork::new();
    let catalog = soc::services::bindings::host_all(&net, 1);
    let repo = Repository::new();
    for d in catalog {
        repo.publish(d).unwrap();
    }
    let (dir, _) = DirectoryService::new(repo, vec![]);
    net.host("directory", dir);
    let t: Arc<dyn Transport> = Arc::new(net.clone());
    (net, t)
}

#[test]
fn discover_then_invoke_rest_service() {
    let (_net, transport) = marketplace();
    // Discovery: find the cart service by free-text search.
    let dir = DirectoryClient::new(transport.clone(), "mem://directory");
    let hits = dir.search("shopping cart totals").unwrap();
    assert_eq!(hits[0].id, "cart");
    // Invocation: drive the discovered endpoint's API root.
    let rest = RestClient::new(transport);
    let created = rest.post("mem://services.asu/carts", &json!({})).unwrap();
    let id = created.get("cart").and_then(Value::as_i64).unwrap();
    rest.post(
        &format!("mem://services.asu/carts/{id}/items"),
        &json!({ "sku": "x", "name": "textbook", "unit_price": 100, "quantity": 3 }),
    )
    .unwrap();
    let receipt =
        rest.post(&format!("mem://services.asu/carts/{id}/checkout"), &json!({})).unwrap();
    assert_eq!(receipt.get("total").and_then(Value::as_i64), Some(300));
}

#[test]
fn discover_then_invoke_soap_service() {
    let (_net, transport) = marketplace();
    let dir = DirectoryClient::new(transport.clone(), "mem://directory");
    let hits = dir.search("credit score soap wsdl").unwrap();
    let soap_hit = hits.iter().find(|h| h.id == "credit-soap").expect("soap service found");
    // WSDL-driven call against the *discovered* endpoint.
    let soap = SoapClient::new(transport);
    let out =
        soap.discover_and_call(&soap_hit.endpoint, "GetScore", &[("ssn", "111-22-3333")]).unwrap();
    let score: u32 = out["score"].parse().unwrap();
    assert_eq!(score, soc::services::mortgage::CreditScoreService::score("111-22-3333"));
}

#[test]
fn rest_and_soap_bindings_of_encryption_interoperate() {
    let (_net, transport) = marketplace();
    let rest = RestClient::new(transport.clone());
    let soap = SoapClient::new(transport);
    // Encrypt over SOAP, decrypt over REST.
    let contract = soc::services::bindings::encryption_contract();
    let enc = soap
        .call(
            "mem://soap.asu/crypto",
            &contract,
            "Encrypt",
            &[("passphrase", "pw"), ("plaintext", "cross-binding payload")],
        )
        .unwrap();
    let dec = rest
        .post(
            "mem://services.asu/crypto/decrypt",
            &json!({ "passphrase": "pw", "ciphertext": (enc["ciphertext"].clone()) }),
        )
        .unwrap();
    assert_eq!(dec.get("plaintext").and_then(Value::as_str), Some("cross-binding payload"));
}

#[test]
fn crawler_feeds_search_feeds_invocation() {
    // Federation: directory A (services) ← peer — directory B (empty).
    let net = MemNetwork::new();
    let catalog = soc::services::bindings::host_all(&net, 2);
    let repo_a = Repository::new();
    for d in catalog {
        repo_a.publish(d).unwrap();
    }
    let (dir_a, _) = DirectoryService::new(repo_a, vec!["mem://dir-b".into()]);
    net.host("dir-a", dir_a);
    let (dir_b, _) = DirectoryService::new(Repository::new(), vec!["mem://dir-a".into()]);
    net.host("dir-b", dir_b);

    let transport: Arc<dyn Transport> = Arc::new(net);
    let gateway = Gateway::new(transport.clone(), GatewayConfig::default());
    let mut catalog = Catalog::new();
    let stats = Crawler::new(gateway, CrawlConfig::default()).crawl(&["mem://dir-b"], &mut catalog);
    assert_eq!(stats.visited.len(), 2);
    assert_eq!(catalog.len(), 12);

    let index = SearchIndex::build(&catalog);
    let top = &index.search("guessing game", &NoQos, 1)[0];
    let hit = &index.service(&top.service_id).unwrap().descriptor;
    // The discovered endpoint is live: start a game through it.
    let rest = RestClient::new(transport);
    let base = hit.endpoint.trim_end_matches("/guess/start");
    let v = rest.post(&format!("{base}/guess/start"), &json!({ "max": 10 })).unwrap();
    assert!(v.get("game").and_then(Value::as_i64).is_some());
}

#[test]
fn qos_monitor_detects_degradation_after_fault_injection() {
    let (net, transport) = marketplace();
    let monitor = QosMonitor::new(transport);
    monitor.probe_n("svc", "mem://services.asu/health", 10);
    assert!((monitor.report("svc").unwrap().availability - 1.0).abs() < 1e-9);
    // Now the provider degrades (every 2nd request fails).
    net.set_fault("services.asu", FaultConfig { fail_every: 2, ..Default::default() });
    monitor.probe_n("svc", "mem://services.asu/health", 10);
    let r = monitor.report("svc").unwrap();
    assert_eq!(r.probes, 20);
    assert!(r.availability < 0.8 && r.availability > 0.6, "{}", r.availability);
}

#[test]
fn workflow_invokes_discovered_service() {
    use soc::workflow::bpel::{Process, Scope, Step};
    let (_net, transport) = marketplace();
    // A BPEL process that calls the credit service then branches.
    let process = Process::new(
        Step::Sequence(vec![
            Step::Invoke {
                endpoint: "mem://services.asu/credit/score?ssn=123-45-6789".into(),
                input_var: None,
                output_var: "credit".into(),
            },
            Step::If {
                cond: Arc::new(|s: &Scope| {
                    s["credit"].get("score").and_then(Value::as_i64).unwrap_or(0) >= 600
                }),
                then: Box::new(Step::set("verdict", "qualified")),
                otherwise: Box::new(Step::set("verdict", "not qualified")),
            },
        ]),
        transport,
    );
    let scope = process.run(Scope::new()).unwrap();
    let expected = if soc::services::mortgage::CreditScoreService::score("123-45-6789") >= 600 {
        "qualified"
    } else {
        "not qualified"
    };
    assert_eq!(scope["verdict"].as_str(), Some(expected));
}

#[test]
fn robot_service_composes_with_directory() {
    let net = MemNetwork::new();
    net.host("robot", soc::robotics::raas::RaasService::new());
    let repo = Repository::new();
    repo.publish(
        soc::registry::ServiceDescriptor::new(
            "raas",
            "Robot as a Service",
            "mem://robot/sessions",
            soc::registry::Binding::Rest,
        )
        .describe("maze robot sessions: sensors, moves, and whole algorithms")
        .category("robotics"),
    )
    .unwrap();
    let (dir, _) = DirectoryService::new(repo, vec![]);
    net.host("directory", dir);

    let transport: Arc<dyn Transport> = Arc::new(net);
    let hits =
        DirectoryClient::new(transport.clone(), "mem://directory").search("maze robot").unwrap();
    let rest = RestClient::new(transport);
    let session =
        rest.post(&hits[0].endpoint, &json!({ "width": 9, "height": 9, "seed": 5 })).unwrap();
    let id = session.get("id").and_then(Value::as_i64).unwrap();
    let run = rest
        .post(
            &format!("mem://robot/sessions/{id}/run"),
            &json!({ "algorithm": "wall-follow-right", "max_ticks": 4000 }),
        )
        .unwrap();
    assert_eq!(run.get("reached").and_then(Value::as_bool), Some(true));
}

#[test]
fn offline_provider_breaks_consumers_until_rehosted() {
    let (net, transport) = marketplace();
    let rest = RestClient::new(transport);
    assert!(rest.get("mem://services.asu/health").is_ok());
    net.unhost("services.asu");
    assert!(rest.get("mem://services.asu/health").is_err());
    // Re-publish ("maintain the server to keep the high availability").
    soc::services::bindings::host_all(&net, 1);
    assert!(rest.get("mem://services.asu/health").is_ok());
}

#[test]
fn xml_documents_flow_through_the_whole_stack() {
    // Repository → XML → re-load → directory → search: the registry
    // document format is an interchange format, not just persistence.
    let catalog = {
        let net = MemNetwork::new();
        soc::services::bindings::host_all(&net, 3)
    };
    let repo = Repository::new();
    for d in catalog {
        repo.publish(d).unwrap();
    }
    let xml = repo.to_xml();
    assert!(xml.contains("<repository>"));
    let restored = Repository::from_xml(&xml).unwrap();
    assert_eq!(restored.list(), repo.list());
    // XPath over the document finds the SOAP services.
    let doc = soc::xml::Document::parse_str(&xml).unwrap();
    let soap_nodes = soc::xml::xpath::eval("/repository/service[@binding='soap']", &doc).unwrap();
    assert_eq!(soap_nodes.len(), 2);
}

#[test]
fn middleware_hardens_a_directory() {
    use soc::rest::middleware;
    use std::collections::HashMap;
    // A directory wrapped with auth: the registration flow then needs a
    // key, reads stay open (split: auth only guards the POST router).
    let net = MemNetwork::new();
    let repo = Repository::new();
    let (dir, _) = DirectoryService::new(repo, vec![]);
    // Wrap the whole directory behind an API key.
    let mut keys = HashMap::new();
    keys.insert("k-1".to_string(), "staff".to_string());
    let mut guard = soc::rest::router::Router::new();
    guard.wrap(middleware::api_key_auth(keys));
    // Delegate everything to the directory.
    let dir = Arc::new(dir);
    {
        let dir = dir.clone();
        guard.get("/{rest...}", move |req, _p| soc::http::Handler::handle(&*dir, req));
    }
    {
        let dir = dir.clone();
        guard.post("/{rest...}", move |req, _p| soc::http::Handler::handle(&*dir, req));
    }
    net.host("secure-dir", guard);

    let transport: Arc<dyn Transport> = Arc::new(net);
    let anon = RestClient::new(transport.clone());
    assert!(anon.get("mem://secure-dir/services").is_err());
    let staff = RestClient::new(transport).with_api_key("k-1");
    assert!(staff.get("mem://secure-dir/services").is_ok());
}

#[test]
fn semantic_discovery_finds_what_keywords_miss() {
    // The ASU catalog tags the captcha service "security"; the ontology
    // knows "security" ⊑ "service" and "cryptography" ⊑ "security".
    let net = MemNetwork::new();
    let catalog = soc::services::bindings::host_all(&net, 21);
    let repo = Repository::new();
    for mut d in catalog {
        // Re-tag the crypto services with the *subclass* category.
        if d.id.starts_with("crypto") {
            d.category = "cryptography".to_string();
        }
        repo.publish(d).unwrap();
    }
    let (dir, _) = DirectoryService::new(repo, vec![]);
    net.host("directory", dir);
    let client = DirectoryClient::new(Arc::new(net), "mem://directory");
    // Exact-category listing misses the re-tagged services…
    let exact: Vec<_> =
        client.list().unwrap().into_iter().filter(|d| d.category == "security").collect();
    // …while the semantic search subsumes cryptography under security.
    let semantic = client.semantic_search("security").unwrap();
    assert!(semantic.len() > exact.len());
    assert!(semantic.iter().any(|d| d.category == "cryptography"));
}
