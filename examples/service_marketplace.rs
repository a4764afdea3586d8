//! The Section V scenario at full scale: three federated directories, a
//! crawler that discovers every service across them through a gateway,
//! a tf·idf search index over the result, and a QoS monitor that
//! watches a flaky upstream — the paper's motivation for hosting a
//! reliable repository.
//!
//! ```sh
//! cargo run --example service_marketplace
//! ```

use std::sync::Arc;
use std::time::Duration;

use soc::discover::{Catalog, CrawlConfig, Crawler, NoQos, SearchIndex};
use soc::gateway::{Gateway, GatewayConfig};
use soc::http::mem::{FaultConfig, Transport};
use soc::http::MemNetwork;
use soc::registry::directory::{DirectoryClient, DirectoryService};
use soc::registry::monitor::QosMonitor;
use soc::registry::{Binding, Repository, ServiceDescriptor};

fn main() {
    let net = MemNetwork::new();

    // The ASU repository hosts the real services.
    let catalog = soc::services::bindings::host_all(&net, 9);

    // Directory A: the ASU services. Peers with B.
    let repo_a = Repository::new();
    for d in catalog {
        repo_a.publish(d).unwrap();
    }
    let (dir_a, _) = DirectoryService::new(repo_a, vec!["mem://xmethods.example".into()]);
    net.host("asu.directory", dir_a);

    // Directory B: "free public services" (some of them now dead links).
    let repo_b = Repository::new();
    for (id, name, desc) in [
        ("tempconv", "Temperature Conversion", "convert celsius fahrenheit kelvin"),
        ("stock", "Stock Quote Lookup", "delayed stock quotes by ticker symbol"),
        ("zip", "Zip Code Lookup", "city and state for a US zip code"),
    ] {
        repo_b
            .publish(
                ServiceDescriptor::new(id, name, &format!("mem://free-{id}/api"), Binding::Rest)
                    .describe(desc)
                    .category("public")
                    .provider("xmethods.example"),
            )
            .unwrap();
    }
    let (dir_b, _) = DirectoryService::new(repo_b, vec!["mem://remotemethods.example".into()]);
    net.host("xmethods.example", dir_b);

    // Directory C: exists in B's peer list but is offline — the paper's
    // "services are often offline or be removed without notice".
    let (dir_c, _) = DirectoryService::new(Repository::new(), vec![]);
    net.host("remotemethods.example", dir_c);
    net.set_fault("remotemethods.example", FaultConfig { offline: true, ..Default::default() });

    let transport: Arc<dyn Transport> = Arc::new(net.clone());

    // Crawl the federation.
    let gateway = Gateway::new(transport.clone(), GatewayConfig::default());
    let mut catalog = Catalog::new();
    let stats =
        Crawler::new(gateway, CrawlConfig::default()).crawl(&["mem://asu.directory"], &mut catalog);
    println!(
        "crawler: visited {} directories, found {} services, {} unreachable",
        stats.visited.len(),
        catalog.len(),
        stats.unreachable.len()
    );
    for url in &stats.unreachable {
        println!("  unreachable: {url}");
    }

    // Search what the crawler found (the `/sse/` service engine).
    let index = SearchIndex::build(&catalog);
    for query in ["password strong random", "credit score", "zip code city"] {
        println!("\nsearch: {query:?}");
        for hit in index.search(query, &NoQos, 3) {
            let name = &index.service(&hit.service_id).unwrap().descriptor.name;
            println!("  {:>6.3}  [{}] {}", hit.score, hit.service_id, name);
        }
    }

    // Monitor availability of one healthy and one flaky endpoint.
    net.host("flaky.example", |_req: soc::http::Request| soc::http::Response::text("ok"));
    net.set_fault(
        "flaky.example",
        FaultConfig { fail_every: 3, latency: Duration::from_millis(1), ..Default::default() },
    );
    let monitor = QosMonitor::new(transport);
    monitor.probe_n("asu-services", "mem://services.asu/health", 12);
    monitor.probe_n("flaky-free-service", "mem://flaky.example/health", 12);
    println!("\nQoS reports:");
    for r in monitor.all_reports() {
        println!(
            "  {:<20} availability {:>5.1}%  probes {}  mean latency {:?}",
            r.id,
            r.availability * 100.0,
            r.probes,
            r.mean_latency
        );
    }

    // Publish a new service through the registration API (the paper's
    // "registration page").
    let client = DirectoryClient::new(Arc::new(net), "mem://asu.directory");
    client
        .register(
            &ServiceDescriptor::new(
                "robot",
                "Robot as a Service",
                "mem://robot/sessions",
                Binding::Rest,
            )
            .describe("maze navigation robot sessions with sensors and algorithms")
            .category("robotics")
            .keywords(&["robot", "maze", "raas"]),
        )
        .unwrap();
    println!(
        "\nregistered 'Robot as a Service'; directory now lists {} services",
        client.list().unwrap().len()
    );

    // Semantic search (CSE446 unit 6): "security" subsumes the
    // repository's security-category services through the ontology even
    // when keyword search would rank them poorly.
    let semantic = client.semantic_search("security").unwrap();
    println!("\nsemantic search for category 'security' ({} hits):", semantic.len());
    for d in semantic.iter().take(4) {
        println!("  [{}] {} (category: {})", d.id, d.name, d.category);
    }
}
