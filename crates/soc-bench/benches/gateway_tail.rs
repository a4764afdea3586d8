//! Tail-latency ablation for the gateway's hedging + ejection layer.
//!
//! Three replicas, one of which develops a 15 ms stall after warm-up —
//! the paper's "too slow" public service. With the tail layer off,
//! round-robin sends every third request into the stall and p95/p99 sit
//! at the stall; with it on, hedges mask the stall immediately and the
//! outlier ejector then removes the replica from rotation. The p99 cut
//! the layer makes is budgeted above 2x on both transports, so
//! `cargo bench --bench gateway_tail` is an executable acceptance
//! check, not just a table. The rows are latency percentiles, not mean
//! times per call: the whole point here is the p99.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use soc_bench::{percentile, Record};
use soc_gateway::{Gateway, GatewayConfig, HedgeConfig, OutlierConfig};
use soc_http::mem::FaultConfig;
use soc_http::{HttpClient, HttpServer, MemNetwork, Request, Response};
use soc_json::Value;

const STALL: Duration = Duration::from_millis(15);
const WARMUP: usize = 30;
const REQUESTS: usize = 240;

fn config(tail_on: bool) -> GatewayConfig {
    GatewayConfig {
        hedge: if tail_on {
            HedgeConfig { min_samples: 4, ..HedgeConfig::default() }
        } else {
            HedgeConfig { enabled: false, ..HedgeConfig::default() }
        },
        outlier: if tail_on {
            OutlierConfig {
                eval_interval: Duration::ZERO,
                min_samples: 8,
                min_latency: Duration::from_millis(1),
                eject_duration: Duration::from_secs(60),
                ..OutlierConfig::default()
            }
        } else {
            OutlierConfig { enabled: false, ..OutlierConfig::default() }
        },
        request_deadline: Duration::from_secs(5),
        ..GatewayConfig::default()
    }
}

struct Summary {
    p50: Duration,
    p95: Duration,
    p99: Duration,
    hedges_launched: i64,
    hedges_won: i64,
    ejections: i64,
}

/// Warm the replica set, trip the stall, then measure the client-seen
/// latency distribution through the gateway.
fn measure(gw: &Gateway, trip_stall: impl FnOnce()) -> Summary {
    for _ in 0..WARMUP {
        assert!(gw.call("svc", Request::get("/warm")).status.is_success());
    }
    trip_stall();
    let mut samples = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let start = Instant::now();
        let resp = gw.call("svc", Request::get("/x"));
        assert!(resp.status.is_success());
        samples.push(start.elapsed());
    }
    samples.sort_unstable();
    let stats = gw.stats_json();
    let get = |p: &str| stats.pointer(p).and_then(Value::as_i64).unwrap_or(0);
    Summary {
        p50: percentile(&samples, 0.50),
        p95: percentile(&samples, 0.95),
        p99: percentile(&samples, 0.99),
        hedges_launched: get("/hedges/launched"),
        hedges_won: get("/hedges/won"),
        ejections: get("/ejections"),
    }
}

fn run_mem(tail_on: bool) -> Summary {
    let net = MemNetwork::new();
    for name in ["r0", "r1", "rslow"] {
        net.host(name, |_req: Request| Response::text("pong"));
    }
    let gw = Gateway::new(Arc::new(net.clone()), config(tail_on));
    gw.register("svc", &["mem://r0", "mem://r1", "mem://rslow"]);
    measure(&gw, || {
        net.set_fault("rslow", FaultConfig { latency: STALL, ..Default::default() });
    })
}

fn run_tcp(tail_on: bool) -> Summary {
    let fast0 = HttpServer::bind("127.0.0.1:0", 2, |_req: Request| Response::text("r0")).unwrap();
    let fast1 = HttpServer::bind("127.0.0.1:0", 2, |_req: Request| Response::text("r1")).unwrap();
    let stalling = Arc::new(AtomicBool::new(false));
    let flag = stalling.clone();
    // Hedge losers hold a worker for the whole stall; give the slow
    // replica headroom so queueing doesn't inflate the measurement.
    let slow = HttpServer::bind("127.0.0.1:0", 8, move |_req: Request| {
        if flag.load(Ordering::Relaxed) {
            std::thread::sleep(STALL);
        }
        Response::text("slow")
    })
    .unwrap();
    let gw = Gateway::new(Arc::new(HttpClient::new()), config(tail_on));
    gw.register("svc", &[&fast0.url(), &fast1.url(), &slow.url()]);
    measure(&gw, || stalling.store(true, Ordering::Relaxed))
}

fn main() {
    println!(
        "gateway tail latency: 3 replicas, one stalling {} ms after warm-up, {REQUESTS} requests",
        STALL.as_millis()
    );
    let mut rec = Record::new("gateway_tail");
    for (transport, run) in
        [("mem", run_mem as fn(bool) -> Summary), ("tcp", run_tcp as fn(bool) -> Summary)]
    {
        let off = run(false);
        let on = run(true);
        for (layer, s) in [("off", &off), ("on", &on)] {
            for (q, latency) in [("p50", s.p50), ("p95", s.p95), ("p99", s.p99)] {
                rec.value(&format!("{transport}/{layer}/{q}"), latency.as_secs_f64() * 1e3, "ms");
            }
        }
        rec.value(&format!("{transport}/on/hedges_launched"), on.hedges_launched as f64, "count");
        rec.value(&format!("{transport}/on/hedges_won"), on.hedges_won as f64, "count");
        rec.value(&format!("{transport}/on/ejections"), on.ejections as f64, "count");
        let cut = off.p99.as_secs_f64() / on.p99.as_secs_f64().max(1e-9);
        rec.value(&format!("{transport}/p99_cut"), cut, "ratio").min(2.0);
        assert!(on.hedges_launched > 0, "{transport}: the tail layer never hedged");
        assert!(on.ejections > 0, "{transport}: the stalling replica was never ejected");
    }
    rec.finish();
}
