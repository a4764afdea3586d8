//! Discovery-layer overheads: what crawling, indexing, searching, and
//! planning cost.
//!
//! Discovery sits on the control path, not the data path — a crawl runs
//! per refresh interval, a plan runs once per goal — so the budgets are
//! generous. What they guard against is asymptotic accidents: a crawl
//! that re-fetches WSDL for unchanged directories, an index rebuild
//! that goes quadratic in the catalog, a planner whose backtracking
//! blows up on a deep dependency chain. Each row pins one such path and
//! the budgets are **asserted**, so `cargo bench --bench discover` is
//! an executable acceptance check.

use std::hint::black_box;
use std::sync::Arc;

use soc_bench::Record;
use soc_discover::catalog::{Catalog, DiscoveredService, TypedOperation};
use soc_discover::{demo, CrawlConfig, Discovery, Goal, NoQos, Planner, SearchIndex};
use soc_gateway::GatewayConfig;
use soc_http::mem::{MemNetwork, UniClient};
use soc_registry::{Binding, ServiceDescriptor};
use soc_soap::contract::Param;
use soc_soap::XsdType;

/// A linear dependency chain of `depth` services: service i consumes
/// `p{i}` and produces `p{i+1}`, so planning `have p0 → want p{depth}`
/// instantiates every node.
fn chain_catalog(depth: usize) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 0..depth {
        let id = format!("chain-{i:03}");
        catalog.merge(DiscoveredService {
            descriptor: ServiceDescriptor::new(&id, &id, &format!("mem://{id}/api"), Binding::Rest),
            namespace: format!("urn:chain:{i}"),
            base_path: "/api".into(),
            operations: vec![TypedOperation {
                name: format!("Step{i}"),
                inputs: vec![Param { name: format!("p{i}"), ty: XsdType::Int }],
                outputs: vec![Param { name: format!("p{}", i + 1), ty: XsdType::Int }],
                doc: None,
            }],
            replicas: vec![format!("mem://{id}")],
            directories: vec!["mem://dir".into()],
        });
    }
    catalog
}

fn main() {
    let mut rec = Record::new("discover");

    let net = MemNetwork::new();
    let _federation = demo::host_mem(&net);
    let roots = ["mem://dir-a"];

    // Cold crawl: 3 directories, 5 WSDL fetches, full catalog + index
    // rebuild, all through the gateway on the in-memory network.
    rec.time("crawl_cold", || {
        let mut disc = Discovery::new(
            Arc::new(UniClient::new(net.clone())),
            GatewayConfig::default(),
            CrawlConfig::default(),
        );
        let stats = disc.crawl(&roots);
        assert_eq!(black_box(stats).visited.len(), 3);
    })
    .max(20_000_000.0);

    // Warm re-crawl: lease versions unchanged, every directory skipped;
    // the price of polling the federation when nothing moved. It only
    // re-reads lease versions, so it must be far cheaper than the cold
    // crawl that fetches and parses every WSDL.
    let mut warm_disc = Discovery::new(
        Arc::new(UniClient::new(net.clone())),
        GatewayConfig::default(),
        CrawlConfig::default(),
    );
    warm_disc.crawl(&roots);
    rec.time("crawl_warm", || {
        let stats = warm_disc.crawl(&roots);
        assert_eq!(black_box(stats).skipped_unchanged.len(), 3);
    })
    .max(2_000_000.0);

    let catalog = warm_disc.catalog().clone();
    rec.time("index_build", || SearchIndex::build(black_box(&catalog))).max(2_000_000.0);

    let index = SearchIndex::build(&catalog);
    rec.time("search_query", || {
        let hits = index.search(black_box("assess loan risk"), &NoQos, 10);
        assert!(!black_box(hits).is_empty());
    })
    .max(100_000.0);

    // The demo composition: 3-node credit → risk → underwriting plan.
    let goal = Goal::new()
        .have("ssn", XsdType::String)
        .have("amount", XsdType::Int)
        .have("income", XsdType::Int)
        .want("approved", XsdType::Boolean)
        .want("rate_bps", XsdType::Int);
    rec.time("plan_demo", || {
        let plan = Planner::new(&index, &NoQos).plan(black_box(&goal)).unwrap();
        assert_eq!(black_box(&plan).nodes.len(), 3);
    })
    .max(500_000.0);

    // A 48-deep dependency chain: every node instantiated, then the
    // full static check (wiring, types, coverage, acyclicity) on top.
    // The planner's worst committed shape must stay in milliseconds.
    const DEPTH: usize = 48;
    let chain = chain_catalog(DEPTH);
    let chain_index = SearchIndex::build(&chain);
    let chain_goal = Goal::new()
        .have("p0", XsdType::Int)
        .want(&format!("p{DEPTH}"), XsdType::Int)
        .max_nodes(DEPTH);
    rec.time("plan_chain_checked", || {
        let plan = Planner::new(&chain_index, &NoQos).plan(black_box(&chain_goal)).unwrap();
        assert_eq!(plan.nodes.len(), DEPTH);
        assert!(soc_discover::check(black_box(&plan), &chain_goal).is_empty());
    })
    .max(3_000_000.0);

    rec.finish();
}
