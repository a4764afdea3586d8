//! Elasticity chaos: campaigns that attack the store fleet's *control
//! plane* — lease-fenced elections and registry-driven rebalancing —
//! rather than its disks.
//!
//! Two campaign families, each reporting violations the same way the
//! kill campaigns do (an empty [`FencingReport::violations`] /
//! [`RebalanceChaosReport::violations`] is a pass):
//!
//! * **Fencing** ([`run_mem_fencing`]) — a fleet of lease-keeping store
//!   nodes behind a live registry. Mid-write-load the campaign
//!   partitions one primary from the registry (its keeper stops
//!   renewing). The invariants: the partitioned primary must refuse
//!   every write once its lease lapses (zero rogue acks), replicas must
//!   refuse shipments carrying its stale epoch, writes must keep
//!   flowing through the re-elected fleet, and healing the partition
//!   must converge the map back to full membership with no acked write
//!   lost.
//! * **Rebalance** ([`run_mem_rebalance`] / [`run_tcp_rebalance`]) — a
//!   node *joins* mid-write-load and is killed mid-hand-off (SIGKILL
//!   over TCP; unhost-and-drop in memory, with injected latency pinning
//!   the kill inside the transfer window). The invariants: the fleet
//!   must converge back to full membership once the joiner restarts,
//!   every pair of nodes must end fully replicated (anti-entropy runs
//!   until dry), and no acked write may be lost.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use soc_http::{FaultConfig, HttpClient, HttpServer, MemNetwork, Transport};
use soc_json::{json, Value};
use soc_registry::directory::{DirectoryClient, DirectoryService};
use soc_registry::repository::Repository;
use soc_rest::{RestClient, RestError};
use soc_store::wal::Lsn;
use soc_store::{
    RebalanceConfig, Rebalancer, ShardMap, StoreClient, StoreError, StoreNode, StoreNodeConfig,
    TempDir,
};

use crate::process::{put_with_retry, Victim};

fn elastic_key(seed: u64, k: usize) -> String {
    format!("ek{seed:x}-{k}")
}

/// Poll `f` every 20 ms until it returns true or `budget` runs out.
fn wait_until(budget: Duration, mut f: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + budget;
    loop {
        if f() {
            return true;
        }
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Read back every acked `(value, version)` pair through `client`,
/// appending violations to the three lists.
fn read_back(
    client: &StoreClient,
    expected: &HashMap<String, (Value, Lsn)>,
    lost: &mut Vec<String>,
    mismatched: &mut Vec<String>,
    stale: &mut Vec<String>,
) {
    for (key, (value, ver)) in expected {
        match client.get(key) {
            Ok(Some((got, gv))) => {
                if got != *value {
                    mismatched.push(key.clone());
                }
                if gv < *ver {
                    stale.push(key.clone());
                }
            }
            Ok(None) | Err(_) => lost.push(key.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// Fencing campaign
// ---------------------------------------------------------------------------

/// Knobs for the lease-fencing partition campaign.
#[derive(Debug, Clone)]
pub struct FencingConfig {
    /// Seeds key names and payloads.
    pub seed: u64,
    /// Store nodes in the fleet.
    pub nodes: usize,
    /// N-way replication factor.
    pub replication: usize,
    /// Distinct keys written each round.
    pub keys: usize,
    /// Lease TTL — the self-fencing deadline for a partitioned primary.
    pub lease_ttl: Duration,
    /// Keeper renewal cadence (must be well under the TTL).
    pub renew_interval: Duration,
}

impl Default for FencingConfig {
    fn default() -> FencingConfig {
        FencingConfig {
            seed: 0xFE11CE,
            nodes: 3,
            replication: 2,
            keys: 12,
            lease_ttl: Duration::from_millis(200),
            renew_interval: Duration::from_millis(40),
        }
    }
}

/// What the fencing campaign observed.
#[derive(Debug, Default)]
pub struct FencingReport {
    /// Writes the client saw acknowledged.
    pub acked: usize,
    /// Id of the partitioned primary.
    pub partitioned: String,
    /// Direct writes the partitioned primary refused under its lapsed
    /// lease.
    pub fenced_refusals: usize,
    /// Writes the partitioned primary wrongly acknowledged after its
    /// lease lapsed — any of these is split-brain.
    pub rogue_acks: usize,
    /// Crafted shipments at the partitioned primary's stale epoch that
    /// a survivor refused.
    pub stale_epoch_refusals: usize,
    /// Stale shipments a survivor *accepted* — each one is an old
    /// primary being obeyed past its fence.
    pub stale_epoch_accepted: usize,
    /// Fleet size after the partition healed.
    pub healed_nodes: usize,
    /// Fleet size the heal must converge to.
    pub expected_nodes: usize,
    /// Acked keys unreadable at the end.
    pub lost: Vec<String>,
    /// Acked keys that read back a different value.
    pub mismatched: Vec<String>,
    /// Acked keys that read back an older version than acknowledged.
    pub stale: Vec<String>,
}

impl FencingReport {
    /// Invariant violations; empty means the campaign passed.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.rogue_acks > 0 {
            v.push(format!(
                "partitioned primary acknowledged {} writes under a lapsed lease",
                self.rogue_acks
            ));
        }
        if self.fenced_refusals == 0 {
            v.push("partition window never exercised a fenced refusal".to_string());
        }
        if self.stale_epoch_accepted > 0 {
            v.push(format!(
                "replicas accepted {} shipments at a stale epoch",
                self.stale_epoch_accepted
            ));
        }
        if self.stale_epoch_refusals == 0 {
            v.push("stale-epoch shipment was never refused".to_string());
        }
        if self.healed_nodes != self.expected_nodes {
            v.push(format!(
                "heal converged to {} nodes, wanted {}",
                self.healed_nodes, self.expected_nodes
            ));
        }
        if !self.lost.is_empty() {
            v.push(format!("acked writes lost: {:?}", self.lost));
        }
        if !self.mismatched.is_empty() {
            v.push(format!("acked writes read back wrong values: {:?}", self.mismatched));
        }
        if !self.stale.is_empty() {
            v.push(format!("reads regressed below acked versions: {:?}", self.stale));
        }
        v
    }
}

/// The fencing campaign on the in-memory transport: partition one
/// primary from the registry mid-write-load, prove it self-fences and
/// cannot be obeyed, then heal and prove convergence.
pub fn run_mem_fencing(cfg: &FencingConfig) -> io::Result<FencingReport> {
    let net = Arc::new(MemNetwork::new());
    let (dir_svc, _dir_state) = DirectoryService::new(Repository::new(), vec![]);
    net.host("fence-dir", dir_svc);
    let directory = DirectoryClient::new(net.clone() as Arc<dyn Transport>, "mem://fence-dir");

    let ids: Vec<String> = (0..cfg.nodes).map(|i| format!("fstore-{i}")).collect();
    let dirs: Vec<TempDir> = (0..cfg.nodes).map(|i| TempDir::new(&format!("fence-{i}"))).collect();
    let mut nodes = Vec::new();
    let mut keepers = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let node = StoreNode::open(
            StoreNodeConfig::new(id),
            dirs[i].path(),
            net.clone() as Arc<dyn Transport>,
        )
        .map_err(|e| io::Error::other(format!("open {id}: {e:?}")))?;
        net.host(id, node.router());
        keepers.push(Some(node.start_lease_keeper(
            directory.clone(),
            &format!("mem://{id}"),
            cfg.lease_ttl,
            cfg.renew_interval,
        )));
        nodes.push(node);
    }

    let reb = Rebalancer::new(
        directory.clone(),
        net.clone() as Arc<dyn Transport>,
        RebalanceConfig {
            replication: cfg.replication,
            lease_ttl: cfg.lease_ttl,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(20),
            ..RebalanceConfig::default()
        },
    );
    if !wait_until(Duration::from_secs(5), || {
        let _ = reb.tick();
        reb.map().nodes().len() == cfg.nodes
    }) {
        return Err(io::Error::other("fleet never reached full membership"));
    }
    let client = StoreClient::new(net.clone() as Arc<dyn Transport>);
    client.set_map(reb.map());

    let mut report = FencingReport { expected_nodes: cfg.nodes, ..FencingReport::default() };
    let mut expected: HashMap<String, (Value, Lsn)> = HashMap::new();
    let write_round = |client: &StoreClient,
                       expected: &mut HashMap<String, (Value, Lsn)>,
                       round: i64|
     -> io::Result<usize> {
        let mut acked = 0;
        for k in 0..cfg.keys {
            let key = elastic_key(cfg.seed, k);
            let value = json!({ "seed": (cfg.seed as i64), "k": (k as i64), "round": round });
            let ver = put_with_retry(client, &key, &value, 40)?;
            expected.insert(key, (value, ver));
            acked += 1;
        }
        Ok(acked)
    };

    report.acked += write_round(&client, &mut expected, 0)?;

    // Partition: the primary of key 0 stops renewing. Its fence lapses
    // within one TTL; the registry expires its lease; the next tick
    // re-elects around it.
    let victim_key = elastic_key(cfg.seed, 0);
    let victim_id = client.map().primary(&victim_key).expect("ring has nodes").id.clone();
    let vidx = ids.iter().position(|id| *id == victim_id).expect("known id");
    report.partitioned = victim_id.clone();
    let stale_epoch = nodes[vidx].fence().epoch();
    keepers[vidx].take();

    if !wait_until(cfg.lease_ttl * 20, || !nodes[vidx].fence().is_valid()) {
        return Err(io::Error::other("partitioned primary's fence never lapsed"));
    }
    // Zero writes under a lapsed lease: the old primary may still hold
    // a map naming it primary, but it must refuse.
    for _ in 0..3 {
        match nodes[vidx].put(&victim_key, &json!({ "rogue": true })) {
            Err(StoreError::Fenced { .. }) => report.fenced_refusals += 1,
            Ok(_) => report.rogue_acks += 1,
            Err(_) => {}
        }
    }

    // The fleet re-elects: the lease table expires the victim and the
    // rebalancer hands its shards to the survivors.
    if !wait_until(Duration::from_secs(5), || {
        let _ = reb.tick();
        reb.map().nodes().len() == cfg.nodes - 1
    }) {
        return Err(io::Error::other("fleet never re-elected around the partition"));
    }
    client.set_map(reb.map());

    // Even a fenceless rogue cannot be *obeyed*: a shipment carrying
    // the victim's pre-partition epoch bounces off every survivor.
    let rest = RestClient::new(net.clone() as Arc<dyn Transport>);
    let mut item = Value::object();
    item.set("lsn", 1_i64);
    item.set("command", "{\"op\":\"put\",\"key\":\"rogue\",\"value\":1}");
    let mut push = Value::object();
    push.set("source", victim_id.as_str());
    push.set("epoch", stale_epoch as i64);
    push.set("records", Value::Array(vec![item]));
    for survivor in reb.map().nodes() {
        match rest.post(&format!("{}/store/replicate", survivor.endpoint), &push) {
            Err(RestError::Status { .. }) => report.stale_epoch_refusals += 1,
            Ok(_) => report.stale_epoch_accepted += 1,
            Err(_) => {}
        }
    }

    // Writes keep flowing through the re-elected fleet.
    report.acked += write_round(&client, &mut expected, 1)?;

    // Heal: the victim's keeper comes back, its lease re-registers, and
    // the next rebalance folds it back in with its shards re-adopted.
    keepers[vidx] = Some(nodes[vidx].start_lease_keeper(
        directory.clone(),
        &format!("mem://{victim_id}"),
        cfg.lease_ttl,
        cfg.renew_interval,
    ));
    if !wait_until(Duration::from_secs(5), || {
        let _ = reb.tick();
        reb.map().nodes().len() == cfg.nodes
    }) {
        return Err(io::Error::other("healed fleet never reconverged"));
    }
    client.set_map(reb.map());
    report.healed_nodes = reb.map().nodes().len();

    report.acked += write_round(&client, &mut expected, 2)?;
    read_back(&client, &expected, &mut report.lost, &mut report.mismatched, &mut report.stale);
    Ok(report)
}

// ---------------------------------------------------------------------------
// Rebalance campaign (join + kill mid-hand-off)
// ---------------------------------------------------------------------------

/// Knobs for the join-plus-kill rebalance campaign.
#[derive(Debug, Clone)]
pub struct RebalanceChaosConfig {
    /// Seeds key names and payloads.
    pub seed: u64,
    /// Nodes alive before the join.
    pub initial_nodes: usize,
    /// N-way replication factor.
    pub replication: usize,
    /// Distinct keys written each round.
    pub keys: usize,
    /// Write rounds.
    pub rounds: usize,
    /// Round at whose start a fresh node joins (and, when
    /// `kill_mid_handoff`, is killed inside the transfer window).
    pub join_round: usize,
    /// Kill the joiner mid-hand-off and restart it.
    pub kill_mid_handoff: bool,
    /// Lease TTL for every node.
    pub lease_ttl: Duration,
    /// Keeper renewal cadence.
    pub renew_interval: Duration,
}

impl Default for RebalanceChaosConfig {
    fn default() -> RebalanceChaosConfig {
        RebalanceChaosConfig {
            seed: 0x12EBA1,
            initial_nodes: 2,
            replication: 2,
            keys: 12,
            rounds: 3,
            join_round: 1,
            kill_mid_handoff: true,
            lease_ttl: Duration::from_millis(250),
            renew_interval: Duration::from_millis(50),
        }
    }
}

/// What the rebalance campaign observed.
#[derive(Debug, Default)]
pub struct RebalanceChaosReport {
    /// Writes the client saw acknowledged.
    pub acked: usize,
    /// Id of the joining node.
    pub joiner: String,
    /// Whether the joiner ended up a full member.
    pub joined: bool,
    /// Kill/restart cycles executed on the joiner.
    pub restarts: usize,
    /// Fleet size at the end.
    pub final_nodes: usize,
    /// Fleet size the campaign must converge to.
    pub expected_nodes: usize,
    /// Whether every node's replica stream of every other node reached
    /// its applied LSN after anti-entropy ran dry.
    pub fully_replicated: bool,
    /// Acked keys unreadable at the end.
    pub lost: Vec<String>,
    /// Acked keys that read back a different value.
    pub mismatched: Vec<String>,
    /// Acked keys that read back an older version than acknowledged.
    pub stale: Vec<String>,
}

impl RebalanceChaosReport {
    /// Invariant violations; empty means the campaign passed.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.joined {
            v.push("joiner never became a full member".to_string());
        }
        if self.final_nodes != self.expected_nodes {
            v.push(format!(
                "map converged to {} nodes, wanted {}",
                self.final_nodes, self.expected_nodes
            ));
        }
        if !self.fully_replicated {
            v.push("fleet never reached full pairwise replication".to_string());
        }
        if !self.lost.is_empty() {
            v.push(format!("acked writes lost: {:?}", self.lost));
        }
        if !self.mismatched.is_empty() {
            v.push(format!("acked writes read back wrong values: {:?}", self.mismatched));
        }
        if !self.stale.is_empty() {
            v.push(format!("reads regressed below acked versions: {:?}", self.stale));
        }
        v
    }
}

/// A store fleet the rebalance campaign can grow, kill, and restart.
/// Nodes keep their *own* registry leases (in-process keepers on the
/// mem transport, keepers inside the victim processes over TCP); the
/// campaign only watches the lease table through its rebalancer.
trait ElasticFleet {
    fn transport(&self) -> Arc<dyn Transport>;
    fn directory(&self) -> &DirectoryClient;
    /// Bring up one more node (with its lease keeper); returns its idx.
    fn spawn_node(&mut self) -> io::Result<usize>;
    fn id(&self, idx: usize) -> String;
    /// Make the node slow to answer, so a kill lands mid-hand-off.
    fn slow_down(&mut self, idx: usize);
    fn clear_faults(&mut self);
    fn kill(&mut self, idx: usize);
    fn restart(&mut self, idx: usize) -> io::Result<()>;
}

fn map_has(map: &ShardMap, id: &str) -> bool {
    map.nodes().iter().any(|n| n.id == id)
}

/// Every node's replica stream of every other node has reached that
/// node's applied LSN.
fn fully_replicated(rest: &RestClient, map: &ShardMap) -> bool {
    for source in map.nodes() {
        let Ok(status) = rest.get(&format!("{}/store/status", source.endpoint)) else {
            return false;
        };
        let applied = status.get("applied").and_then(Value::as_i64).unwrap_or(0);
        for dest in map.nodes() {
            if dest.id == source.id {
                continue;
            }
            let Ok(dstatus) = rest.get(&format!("{}/store/status", dest.endpoint)) else {
                return false;
            };
            let stream = dstatus
                .pointer(&format!("/replica_streams/{}", source.id))
                .and_then(Value::as_i64)
                .unwrap_or(0);
            if stream < applied {
                return false;
            }
        }
    }
    true
}

fn drive_rebalance(
    fleet: &mut dyn ElasticFleet,
    cfg: &RebalanceChaosConfig,
) -> io::Result<RebalanceChaosReport> {
    let reb = Rebalancer::new(
        fleet.directory().clone(),
        fleet.transport(),
        RebalanceConfig {
            replication: cfg.replication,
            lease_ttl: cfg.lease_ttl,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(25),
            ..RebalanceConfig::default()
        },
    );
    if !wait_until(Duration::from_secs(10), || {
        let _ = reb.tick();
        reb.map().nodes().len() == cfg.initial_nodes
    }) {
        return Err(io::Error::other("initial fleet never reached full membership"));
    }
    let client = StoreClient::new(fleet.transport());
    client.set_map(reb.map());

    let mut report = RebalanceChaosReport {
        expected_nodes: cfg.initial_nodes + 1,
        ..RebalanceChaosReport::default()
    };
    let mut expected: HashMap<String, (Value, Lsn)> = HashMap::new();

    for round in 0..cfg.rounds {
        if round == cfg.join_round {
            let jidx = fleet.spawn_node()?;
            let joiner = fleet.id(jidx);
            report.joiner = joiner.clone();
            // The joiner's lease must be on the table before a hand-off
            // can start.
            let dir = fleet.directory().clone();
            if !wait_until(Duration::from_secs(10), || {
                dir.leases().map(|s| s.live.len() == cfg.initial_nodes + 1).unwrap_or(false)
            }) {
                return Err(io::Error::other("joiner's lease never registered"));
            }
            if cfg.kill_mid_handoff {
                // Pin the kill inside the transfer window: slow the
                // joiner down, start the hand-off on a side thread, and
                // kill while its transfers are in flight.
                fleet.slow_down(jidx);
                std::thread::scope(|s| {
                    let handoff = s.spawn(|| {
                        let _ = reb.tick();
                    });
                    std::thread::sleep(Duration::from_millis(60));
                    fleet.kill(jidx);
                    let _ = handoff.join();
                });
                fleet.clear_faults();
                // The dead joiner's lease expires; the fleet settles
                // back to the survivors before writes resume.
                if !wait_until(Duration::from_secs(10), || {
                    let _ = reb.tick();
                    !map_has(&reb.map(), &joiner)
                }) {
                    return Err(io::Error::other("dead joiner never left the map"));
                }
                client.set_map(reb.map());
                fleet.restart(jidx)?;
                report.restarts += 1;
            }
            // Converge to full membership (first time for a clean join,
            // second time after the kill+restart).
            if !wait_until(Duration::from_secs(10), || {
                let _ = reb.tick();
                reb.map().nodes().len() == cfg.initial_nodes + 1 && map_has(&reb.map(), &joiner)
            }) {
                return Err(io::Error::other("joiner never became a member"));
            }
            client.set_map(reb.map());
            report.joined = true;
        }
        for k in 0..cfg.keys {
            let key = elastic_key(cfg.seed, k);
            let value =
                json!({ "seed": (cfg.seed as i64), "k": (k as i64), "round": (round as i64) });
            let ver = put_with_retry(&client, &key, &value, 40)?;
            expected.insert(key, (value, ver));
            report.acked += 1;
        }
    }

    // Settle: anti-entropy sweeps until a full pass repairs nothing.
    for _ in 0..20 {
        if reb.anti_entropy().map_err(|e| io::Error::other(format!("{e:?}")))? == 0 {
            break;
        }
    }
    let rest = RestClient::new(fleet.transport());
    report.fully_replicated = fully_replicated(&rest, &reb.map());
    report.final_nodes = reb.map().nodes().len();
    read_back(&client, &expected, &mut report.lost, &mut report.mismatched, &mut report.stale);
    Ok(report)
}

struct MemElasticFleet {
    net: Arc<MemNetwork>,
    directory: DirectoryClient,
    ids: Vec<String>,
    dirs: Vec<TempDir>,
    nodes: Vec<Option<StoreNode>>,
    keepers: Vec<Option<soc_store::node::LeaseKeeper>>,
    lease_ttl: Duration,
    renew_interval: Duration,
}

impl MemElasticFleet {
    fn bring_up(&mut self, idx: usize) -> io::Result<()> {
        let id = self.ids[idx].clone();
        let node = StoreNode::open(
            StoreNodeConfig::new(&id),
            self.dirs[idx].path(),
            self.net.clone() as Arc<dyn Transport>,
        )
        .map_err(|e| io::Error::other(format!("open {id}: {e:?}")))?;
        self.net.host(&id, node.router());
        self.keepers[idx] = Some(node.start_lease_keeper(
            self.directory.clone(),
            &format!("mem://{id}"),
            self.lease_ttl,
            self.renew_interval,
        ));
        self.nodes[idx] = Some(node);
        Ok(())
    }
}

impl ElasticFleet for MemElasticFleet {
    fn transport(&self) -> Arc<dyn Transport> {
        self.net.clone()
    }

    fn directory(&self) -> &DirectoryClient {
        &self.directory
    }

    fn spawn_node(&mut self) -> io::Result<usize> {
        let idx = self.ids.len();
        self.ids.push(format!("rstore-{idx}"));
        self.dirs.push(TempDir::new(&format!("reb-chaos-{idx}")));
        self.nodes.push(None);
        self.keepers.push(None);
        self.bring_up(idx)?;
        Ok(idx)
    }

    fn id(&self, idx: usize) -> String {
        self.ids[idx].clone()
    }

    fn slow_down(&mut self, idx: usize) {
        self.net.set_fault(
            &self.ids[idx],
            FaultConfig { latency: Duration::from_millis(120), ..FaultConfig::default() },
        );
    }

    fn clear_faults(&mut self) {
        for id in &self.ids {
            self.net.set_fault(id, FaultConfig::default());
        }
    }

    fn kill(&mut self, idx: usize) {
        // Keeper first (the lease must be allowed to lapse), then the
        // host entry, then the node handle — no shutdown, no compaction.
        self.keepers[idx] = None;
        self.net.unhost(&self.ids[idx]);
        self.nodes[idx] = None;
    }

    fn restart(&mut self, idx: usize) -> io::Result<()> {
        self.bring_up(idx)
    }
}

/// The join-plus-kill rebalance campaign on the in-memory transport.
pub fn run_mem_rebalance(cfg: &RebalanceChaosConfig) -> io::Result<RebalanceChaosReport> {
    let net = Arc::new(MemNetwork::new());
    let (dir_svc, _dir_state) = DirectoryService::new(Repository::new(), vec![]);
    net.host("reb-dir", dir_svc);
    let directory = DirectoryClient::new(net.clone() as Arc<dyn Transport>, "mem://reb-dir");
    let mut fleet = MemElasticFleet {
        net,
        directory,
        ids: Vec::new(),
        dirs: Vec::new(),
        nodes: Vec::new(),
        keepers: Vec::new(),
        lease_ttl: cfg.lease_ttl,
        renew_interval: cfg.renew_interval,
    };
    for _ in 0..cfg.initial_nodes {
        fleet.spawn_node()?;
    }
    drive_rebalance(&mut fleet, cfg)
}

struct TcpElasticFleet {
    http: Arc<HttpClient>,
    directory: DirectoryClient,
    directory_url: String,
    victim_exe: String,
    ids: Vec<String>,
    dirs: Vec<TempDir>,
    victims: Vec<Victim>,
    lease_ttl: Duration,
    renew_interval: Duration,
    // The registry must outlive the fleet.
    _dir_server: HttpServer,
}

impl ElasticFleet for TcpElasticFleet {
    fn transport(&self) -> Arc<dyn Transport> {
        self.http.clone()
    }

    fn directory(&self) -> &DirectoryClient {
        &self.directory
    }

    fn spawn_node(&mut self) -> io::Result<usize> {
        let idx = self.ids.len();
        let id = format!("tstore-{idx}");
        let dir = TempDir::new(&format!("tcp-reb-{idx}"));
        let args = vec![
            "store".to_string(),
            dir.path().display().to_string(),
            id.clone(),
            self.directory_url.clone(),
            self.lease_ttl.as_millis().to_string(),
            self.renew_interval.as_millis().to_string(),
        ];
        let mut v = Victim::spawn(&self.victim_exe, &args)?;
        v.expect_line("READY")?;
        self.ids.push(id);
        self.dirs.push(dir);
        self.victims.push(v);
        Ok(idx)
    }

    fn id(&self, idx: usize) -> String {
        self.ids[idx].clone()
    }

    fn slow_down(&mut self, _idx: usize) {
        // SIGKILL timing does the pinning over TCP; real sockets are
        // slow enough that the hand-off window is wide.
    }

    fn clear_faults(&mut self) {}

    fn kill(&mut self, idx: usize) {
        self.victims[idx].kill9();
    }

    fn restart(&mut self, idx: usize) -> io::Result<()> {
        // The restarted victim binds a fresh port; its keeper re-renews
        // with the new endpoint, which bumps the lease table.
        self.victims[idx].restart()?;
        self.victims[idx].expect_line("READY")?;
        Ok(())
    }
}

/// The join-plus-kill rebalance campaign over real sockets: store nodes
/// run as child processes keeping their own leases against a registry
/// in the campaign process, and the joiner takes a real SIGKILL inside
/// the hand-off window.
pub fn run_tcp_rebalance(
    victim_exe: &str,
    cfg: &RebalanceChaosConfig,
) -> io::Result<RebalanceChaosReport> {
    let (dir_svc, _dir_state) = DirectoryService::new(Repository::new(), vec![]);
    let dir_server = HttpServer::bind("127.0.0.1:0", 2, dir_svc)
        .map_err(|e| io::Error::other(format!("bind registry: {e:?}")))?;
    let directory_url = dir_server.url();
    let http = Arc::new(HttpClient::new());
    let directory = DirectoryClient::new(http.clone() as Arc<dyn Transport>, &directory_url);
    let mut fleet = TcpElasticFleet {
        http,
        directory,
        directory_url,
        victim_exe: victim_exe.to_string(),
        ids: Vec::new(),
        dirs: Vec::new(),
        victims: Vec::new(),
        lease_ttl: cfg.lease_ttl,
        renew_interval: cfg.renew_interval,
        _dir_server: dir_server,
    };
    for _ in 0..cfg.initial_nodes {
        fleet.spawn_node()?;
    }
    drive_rebalance(&mut fleet, cfg)
}
