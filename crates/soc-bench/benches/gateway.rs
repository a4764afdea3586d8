//! Gateway overhead and policy throughput.
//!
//! Measures (1) the cost the gateway adds over dispatching straight to
//! an upstream on the in-memory network, (2) per-request cost of each
//! load-balancing policy over three replicas, and (3) the fully-loaded
//! path: retries against a flaky replica set.

use std::sync::Arc;
use std::time::Duration;

use soc_bench::Record;
use soc_gateway::{Gateway, GatewayConfig, Policy};
use soc_http::mem::{FaultConfig, Transport};
use soc_http::{MemNetwork, Request, Response};

fn replicated_net() -> MemNetwork {
    let net = MemNetwork::new();
    for name in ["r0", "r1", "r2"] {
        net.host(name, |_req: Request| Response::text("pong"));
    }
    net
}

fn gateway_with(net: &MemNetwork, policy: Policy) -> Gateway {
    let gw = Gateway::new(
        Arc::new(net.clone()),
        GatewayConfig {
            policy,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(500),
            ..GatewayConfig::default()
        },
    );
    gw.register("ping", &["mem://r0", "mem://r1", "mem://r2"]);
    gw
}

fn main() {
    let mut rec = Record::new("gateway");

    // Baseline: the same request straight to one replica.
    let net = replicated_net();
    let direct =
        rec.time("direct_dispatch", || net.send(Request::get("mem://r0/ping")).unwrap()).value;

    // Gateway overhead per policy, healthy replicas. Round-robin is the
    // default policy and the headline. Its requests arm a hedge once
    // each replica has samples, so a primary handed off to the hedge
    // pool instead of answered on the caller's thread breaks both the
    // ceiling and the ratio over a direct dispatch.
    for policy in [Policy::RoundRobin, Policy::RandomTwoChoice, Policy::LeastLatency] {
        let net = replicated_net();
        let gw = gateway_with(&net, policy);
        net.host("gw", gw);
        let row = rec.time(&format!("via_gateway/{}", policy.as_str()), || {
            net.send(Request::get("mem://gw/svc/ping/x")).unwrap()
        });
        if policy == Policy::RoundRobin {
            let via = row.max(20_000.0).value;
            rec.value("via_gateway_over_direct", via / direct, "ratio").max(5.0);
        }
    }

    // The resilience path: 20% of requests to each replica fail, so the
    // measured cost includes breaker accounting, retries, and backoff.
    let net = replicated_net();
    for name in ["r0", "r1", "r2"] {
        net.set_fault(name, FaultConfig { fail_every: 5, ..Default::default() });
    }
    let gw = gateway_with(&net, Policy::RoundRobin);
    net.host("gw", gw);
    rec.time("via_gateway/20pct_faults_with_retries", || {
        net.send(Request::get("mem://gw/svc/ping/x")).unwrap()
    });

    rec.finish();
}
