//! The discovery loop end to end: crawl a federated directory mesh
//! (referral cycles included), search the typed catalog with QoS-fused
//! ranking, state a goal and let the planner compose a verified
//! workflow, execute it as a saga through the gateway — then partition
//! the preferred provider and watch the loop re-plan around it.
//!
//! ```sh
//! cargo run --example service_discovery
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use soc::discover::{demo, AchieveConfig, CrawlConfig, Discovery, Goal};
use soc::gateway::GatewayConfig;
use soc::http::mem::{MemNetwork, UniClient, CLIENT_ORIGIN};
use soc::json::Value;
use soc::soap::XsdType;

fn main() {
    let net = MemNetwork::new();
    let federation = demo::host_mem(&net);

    // One Discovery stack over one gateway: crawling, searching, and
    // executing all share the same replica records (breakers, recent
    // windows) and traces.
    let mut disc = Discovery::new(
        Arc::new(UniClient::new(net.clone())),
        GatewayConfig::default(),
        CrawlConfig::default(),
    );

    // -- Crawl -----------------------------------------------------------
    // One root; `/directory/peers` referrals walk dir-b and dir-c, and
    // the c → a back-edge exercises cycle detection.
    let stats = disc.crawl(&["mem://dir-a"]);
    println!("crawl: visited {:?}", stats.visited);
    println!("       {} services cataloged", disc.catalog().len());
    for svc in disc.catalog().services() {
        let ops: Vec<&str> = svc.operations.iter().map(|o| o.name.as_str()).collect();
        println!("       {:16} replicas={:?} ops={:?}", svc.descriptor.id, svc.replicas, ops);
    }

    // A second crawl is incremental: no lease moved, nothing re-fetched.
    let again = disc.crawl(&["mem://dir-a"]);
    println!("recrawl: skipped {} unchanged directories\n", again.skipped_unchanged.len());

    // -- Search ----------------------------------------------------------
    for query in ["assess loan risk", "underwriting approval"] {
        let hits = disc.search(query, 3);
        println!("search {query:?}:");
        for h in hits {
            println!(
                "       {:16} relevance={:.2} health={:.2} score={:.2}",
                h.service_id, h.relevance, h.health, h.score
            );
        }
    }

    // -- Plan ------------------------------------------------------------
    let goal = Goal::new()
        .have("ssn", XsdType::String)
        .have("amount", XsdType::Int)
        .have("income", XsdType::Int)
        .want("approved", XsdType::Boolean)
        .want("rate_bps", XsdType::Int);
    let plan = disc.plan(&goal).unwrap();
    println!("\nplan ({} nodes, statically verified):", plan.nodes.len());
    for (i, node) in plan.nodes.iter().enumerate() {
        println!("       [{i}] {}::{} via {:?}", node.service_id, node.operation, node.binding);
    }

    // -- Execute ---------------------------------------------------------
    let inputs = HashMap::from([
        ("ssn".to_string(), Value::from("123-45-6789")),
        ("amount".to_string(), Value::from(25_000)),
        ("income".to_string(), Value::from(90_000)),
    ]);
    let achieved = disc.achieve(&goal, &inputs, &AchieveConfig::default()).unwrap();
    println!(
        "\nexecute: approved={} rate_bps={} (attempts: {})",
        achieved.outputs["approved"], achieved.outputs["rate_bps"], achieved.attempts
    );

    // -- Re-plan under partition ----------------------------------------
    // Cut the caller off from the preferred risk provider: the saga
    // fails at that node, compensates, and the re-plan routes through
    // the alternative model.
    net.partition(CLIENT_ORIGIN, "risk-0");
    let rerouted = disc.achieve(&goal, &inputs, &AchieveConfig::default()).unwrap();
    let services: Vec<&str> = rerouted.plan.nodes.iter().map(|n| n.service_id.as_str()).collect();
    println!(
        "\nwith risk-0 partitioned: approved={} after {} attempts (denylisted {:?})",
        rerouted.outputs["approved"], rerouted.attempts, rerouted.replanned
    );
    println!("       rerouted plan: {services:?}");
    net.heal_all();

    drop(federation);
}
