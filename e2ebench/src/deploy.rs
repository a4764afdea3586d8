//! One deployment of the real stack over loopback TCP, and the
//! journals it recovers from.
//!
//! Two REST replicas (`ServiceHost`) share one durable submission
//! ledger; two SOAP credit-score replicas run beside them; one gateway
//! fronts both services; three store nodes hold the cart key space at
//! replication 2. Every server runs the reactor transport with two
//! workers. Handlers and transports are wrapped in the benchmark's
//! timers ([`crate::trace`]), which do nothing unless recording.

use std::path::Path;
use std::sync::Arc;

use soc_gateway::{Gateway, GatewayConfig};
use soc_http::{
    Handler, HttpClient, HttpServer, MemNetwork, Request, ServerConfig, ServerTransport,
};
use soc_services::bindings::{credit_score_soap, ServiceHost};
use soc_services::ledger::SubmissionLedger;
use soc_store::{
    FsyncPolicy, ShardMap, ShardNode, StoreClient, StoreNode, StoreNodeConfig, WalConfig,
};

use crate::inputs::{self, Stream, CART_KEYS, PREWRITTEN_APPLICATIONS};
use crate::trace::{Kind, TracedHandler, TracedTransport};

const REST_REPLICAS: usize = 2;
const SOAP_REPLICAS: usize = 2;
const STORE_NODES: usize = 3;
const REPLICATION: usize = 2;
const SERVER_WORKERS: usize = 2;

fn node_id(i: usize) -> String {
    format!("s{i}")
}

fn fail(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Every journal's WAL settings: the defaults, group commit included,
/// but without the device flush. The journals live in the benchmark's
/// own directory, which may sit on a disk shared with other tenants;
/// leaving the flush out keeps that disk out of the figures, as a
/// RAM-backed directory would. With the default flush per batch,
/// `apply`'s throughput and p50 spread three times as wide over seeds.
fn unflushed() -> WalConfig {
    WalConfig { fsync: FsyncPolicy::Never, ..WalConfig::default() }
}

/// Write the journals every set-up recovers from into `dir`: the ledger
/// with [`PREWRITTEN_APPLICATIONS`] applications submitted through the
/// REST handler, and the store nodes with every cart key written once
/// through a store client.
pub fn prepare(dir: &Path, seed: u64) -> Result<(), String> {
    {
        let ledger = SubmissionLedger::durable(dir.join("ledger"), unflushed())
            .map_err(|e| fail("open ledger", e))?;
        let ledger = Arc::new(ledger);
        let host = ServiceHost::with_ledger(seed, ledger.clone());
        for j in 0..PREWRITTEN_APPLICATIONS {
            let app = inputs::application(seed, Stream::Prewritten, j);
            let resp = host.handle(
                Request::post("/mortgage/apply", Vec::new())
                    .with_text("application/json", &app.body)
                    .with_idempotency_key(&app.key),
            );
            if !resp.status.is_success() {
                return Err(format!("pre-written application {j} answered {}", resp.status));
            }
        }
        if ledger.total_executions() != PREWRITTEN_APPLICATIONS {
            return Err("pre-written ledger lost applications".into());
        }
    }
    let net = MemNetwork::new();
    let mut nodes = Vec::new();
    for i in 0..STORE_NODES {
        let cfg = StoreNodeConfig { id: node_id(i), wal: unflushed() };
        let node = StoreNode::open(cfg, dir.join(node_id(i)), Arc::new(net.clone()))
            .map_err(|e| fail("open store node", e))?;
        net.host(&node_id(i), node.router());
        nodes.push(node);
    }
    let map = Arc::new(ShardMap::build(
        1,
        (0..STORE_NODES)
            .map(|i| ShardNode { id: node_id(i), endpoint: format!("mem://{}", node_id(i)) })
            .collect(),
        REPLICATION,
    ));
    for node in &nodes {
        node.set_map(map.clone());
    }
    let client = StoreClient::new(Arc::new(net.clone()));
    client.set_map(map);
    for k in 0..CART_KEYS {
        client
            .put(&inputs::cart_name(k), &inputs::cart_doc(seed, Stream::Prewritten, k))
            .map_err(|e| fail("pre-write cart", e))?;
    }
    Ok(())
}

/// Copy the directory tree `from` to `to`.
pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn serve(handler: impl Handler) -> Result<HttpServer, String> {
    let cfg = ServerConfig {
        workers: SERVER_WORKERS,
        transport: ServerTransport::Reactor,
        ..ServerConfig::default()
    };
    HttpServer::bind_with("127.0.0.1:0", cfg, handler).map_err(|e| fail("bind", e))
}

fn classify_rest(req: &Request) -> Kind {
    if req.path().ends_with("/mortgage/apply") {
        Kind::RestApply
    } else {
        Kind::RestScore
    }
}

/// A running deployment. Dropping it stops every server.
pub struct Deployment {
    pub ledger: Arc<SubmissionLedger>,
    pub nodes: Vec<StoreNode>,
    pub gateway: Gateway,
    /// The gateway's pooled upstream client.
    pub gateway_client: HttpClient,
    pub gateway_url: String,
    pub map: Arc<ShardMap>,
    servers: Vec<HttpServer>,
}

/// Where a deployment's start-up time went, in seconds.
pub struct StartTimes {
    pub ledger_recover_s: f64,
    pub store_recover_s: f64,
}

impl Deployment {
    /// Recover the journals in `dir` and start every server.
    pub fn start(dir: &Path, seed: u64) -> Result<(Deployment, StartTimes), String> {
        let t = std::time::Instant::now();
        let ledger = SubmissionLedger::durable(dir.join("ledger"), unflushed())
            .map_err(|e| fail("recover ledger", e))?;
        let ledger = Arc::new(ledger);
        let ledger_recover_s = t.elapsed().as_secs_f64();

        let t = std::time::Instant::now();
        let mut nodes = Vec::new();
        for i in 0..STORE_NODES {
            let push = TracedTransport::new(HttpClient::new(), Kind::Push);
            let cfg = StoreNodeConfig { id: node_id(i), wal: unflushed() };
            let node = StoreNode::open(cfg, dir.join(node_id(i)), push)
                .map_err(|e| fail("recover store node", e))?;
            nodes.push(node);
        }
        let store_recover_s = t.elapsed().as_secs_f64();

        let mut servers = Vec::new();
        let mut rest = Vec::new();
        for r in 0..REST_REPLICAS {
            let host = ServiceHost::with_ledger(seed ^ r as u64, ledger.clone());
            servers.push(serve(TracedHandler::new(host, classify_rest))?);
            rest.push(servers.last().expect("just pushed").url());
        }
        let mut soap = Vec::new();
        for _ in 0..SOAP_REPLICAS {
            let svc = credit_score_soap("http://127.0.0.1/credit");
            servers.push(serve(TracedHandler::new(svc, |_| Kind::Soap))?);
            soap.push(servers.last().expect("just pushed").url());
        }
        let mut shard_nodes = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            servers.push(serve(TracedHandler::new(node.router(), |_| Kind::Node))?);
            let endpoint = servers.last().expect("just pushed").url();
            shard_nodes.push(ShardNode { id: node_id(i), endpoint });
        }

        // Admission buckets sit above any reachable rate, so refusals
        // never stand in for work.
        let config = GatewayConfig {
            rate_capacity: 1e12,
            rate_refill_per_sec: 1e12,
            service_rate_capacity: 1e12,
            service_rate_refill_per_sec: 1e12,
            ..GatewayConfig::default()
        };
        let gateway_client = HttpClient::new();
        let gateway =
            Gateway::new(TracedTransport::new(gateway_client.clone(), Kind::GatewaySend), config);
        gateway.register("asu", &rest.iter().map(String::as_str).collect::<Vec<_>>());
        gateway.register("credit", &soap.iter().map(String::as_str).collect::<Vec<_>>());
        servers.push(serve(TracedHandler::new(gateway.clone(), |_| Kind::Gateway))?);
        let gateway_url = servers.last().expect("just pushed").url();

        let map = Arc::new(ShardMap::build(1, shard_nodes, REPLICATION));
        let publisher = HttpClient::new();
        let body = map.to_json().to_compact();
        for node in map.nodes() {
            let req = Request::post(format!("{}/store/map", node.endpoint), Vec::new())
                .with_text("application/json", &body);
            let resp = publisher.send(req).map_err(|e| fail("publish shard map", e))?;
            if !resp.status.is_success() {
                return Err(format!("shard map publish answered {}", resp.status));
            }
        }

        let dep = Deployment { ledger, nodes, gateway, gateway_client, gateway_url, map, servers };
        Ok((dep, StartTimes { ledger_recover_s, store_recover_s }))
    }

    /// Stop every server and wait for their event loops to end.
    pub fn stop(mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}
