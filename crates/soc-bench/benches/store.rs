//! Durable state plane costs: WAL append throughput under both fsync
//! schedules, recovery replay rate, and shard-failover latency.
//!
//! The headline row pair is the group-commit claim: a WAL fsyncing
//! every record pays the full device sync per append, while the
//! group-committed log amortizes one sync across every record that
//! rides the same flush — the classic reason WALs batch. The row
//! budgeted above 10x measures the pipelined schedule (`submit` a
//! burst, wait once), which is what replica catch-up ships through
//! `execute_shipped_batch`; a second row records what individually
//! acknowledged concurrent appenders see, where batch formation is
//! bounded by how fast the scheduler can rotate woken appenders in
//! (on a single-core container that caps well below the pipelined
//! ratio). The ratios, the replay rate floor, and the failover
//! ceilings are budgeted, so `cargo bench --bench store` is an
//! executable acceptance check. So is the log-shipping row: a replica
//! a few records behind must be served from the log's in-memory tail,
//! not by re-reading every segment.

use std::sync::Arc;
use std::time::Instant;

use soc_bench::Record;
use soc_http::{MemNetwork, Transport};
use soc_json::{json, Value};
use soc_registry::directory::{DirectoryClient, DirectoryService};
use soc_registry::repository::Repository;
use soc_rest::RestClient;
use soc_store::node::LeaseKeeper;
use soc_store::wal::{FsyncPolicy, Wal, WalConfig};
use soc_store::{
    RebalanceConfig, Rebalancer, ShardMap, ShardNode, StoreClient, StoreNode, StoreNodeConfig,
    TempDir,
};

/// Lease TTL for the rebalance-failover row.
const REBALANCE_LEASE_TTL: std::time::Duration = std::time::Duration::from_millis(100);

/// Concurrent appenders for the group-commit row.
const APPENDERS: usize = 16;

/// A submission-sized record (the ledger journals ~this much per apply).
const PAYLOAD: [u8; 64] = [0x5A; 64];

fn wal_config(fsync: FsyncPolicy) -> WalConfig {
    WalConfig { fsync, ..WalConfig::default() }
}

/// Per-record cost of the pipelined group-commit schedule: submit a
/// burst of records, then wait for durability once — the shape
/// `Durable::execute_shipped_batch` drives during replica catch-up.
fn group_commit_ns(rec: &Record) -> f64 {
    let tmp = TempDir::new("bench-group");
    let (wal, _) = Wal::open_with(tmp.path(), wal_config(FsyncPolicy::Batch)).unwrap();
    const BURST: usize = 64;
    let burst_ns = rec.measure(|| {
        let mut last = 0;
        for _ in 0..BURST {
            last = wal.submit(&PAYLOAD).unwrap();
        }
        wal.wait_durable(last).unwrap();
    });
    burst_ns / BURST as f64
}

/// Per-record cost with [`APPENDERS`] threads appending concurrently,
/// each acknowledged individually — batch formation here is limited by
/// how fast woken appenders get scheduled back in.
fn concurrent_append_ns(rec: &Record) -> f64 {
    let tmp = TempDir::new("bench-concurrent");
    let (wal, _) = Wal::open_with(tmp.path(), wal_config(FsyncPolicy::Batch)).unwrap();
    const PER_THREAD: usize = 512;
    let round_ns = rec.measure(|| {
        std::thread::scope(|scope| {
            for _ in 0..APPENDERS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        wal.append(&PAYLOAD).unwrap();
                    }
                });
            }
        })
    });
    round_ns / (APPENDERS * PER_THREAD) as f64
}

/// Records-per-second when reopening a log of `n` submission-sized
/// records.
fn recovery_replay_rate(rec: &Record, n: usize) -> f64 {
    let tmp = TempDir::new("bench-replay");
    {
        let (wal, _) = Wal::open_with(tmp.path(), wal_config(FsyncPolicy::Never)).unwrap();
        for _ in 0..n {
            wal.append(&PAYLOAD).unwrap();
        }
    }
    let open_ns = rec.measure(|| {
        let (_, recovery) = Wal::open_with(tmp.path(), wal_config(FsyncPolicy::Never)).unwrap();
        assert_eq!(recovery.records.len(), n, "replay must see every record");
    });
    n as f64 * 1e9 / open_ns
}

/// Records in the log the shipping row reads from.
const SHIP_LOG: usize = 20_000;

/// Per-call cost of shipping the four newest records of a
/// [`SHIP_LOG`]-record log — what a primary pays to catch up a replica
/// that is a few records behind. They come from the log's in-memory
/// tail; a scan of the whole log's segments costs milliseconds.
fn ship_recent(rec: &mut Record) {
    let tmp = TempDir::new("bench-ship");
    let (wal, _) = Wal::open_with(tmp.path(), wal_config(FsyncPolicy::Never)).unwrap();
    let mut last = 0;
    for _ in 0..SHIP_LOG {
        last = wal.submit(&PAYLOAD).unwrap();
    }
    wal.wait_durable(last).unwrap();
    rec.time("ship_recent", || {
        let shipped = wal.records_after(last - 4).unwrap();
        assert_eq!(shipped.len(), 4, "ship exactly the missing suffix");
        shipped
    })
    .max(50_000.0);
}

/// A three-node in-memory fleet for the failover row.
struct Fleet {
    net: Arc<MemNetwork>,
    ids: Vec<String>,
    dirs: Vec<TempDir>,
    nodes: Vec<Option<StoreNode>>,
}

impl Fleet {
    fn start() -> Fleet {
        let net = Arc::new(MemNetwork::new());
        let ids: Vec<String> = (0..3).map(|i| format!("bench-store-{i}")).collect();
        let dirs: Vec<TempDir> =
            (0..3).map(|i| TempDir::new(&format!("bench-failover-{i}"))).collect();
        let mut fleet = Fleet { net, ids, dirs, nodes: vec![None, None, None] };
        for i in 0..3 {
            fleet.open(i);
        }
        fleet
    }

    fn open(&mut self, idx: usize) {
        let node = StoreNode::open(
            StoreNodeConfig::new(&self.ids[idx]),
            self.dirs[idx].path(),
            self.net.clone() as Arc<dyn Transport>,
        )
        .unwrap();
        self.net.host(&self.ids[idx], node.router());
        self.nodes[idx] = Some(node);
    }

    /// Build a map over the live nodes and publish it node-by-node over
    /// `POST /store/map` — the same wire path a registry-driven
    /// rebalance takes.
    fn publish(&self, client: &StoreClient, version: u64) {
        let rest = RestClient::new(self.net.clone() as Arc<dyn Transport>);
        let nodes: Vec<ShardNode> = self
            .ids
            .iter()
            .enumerate()
            .filter(|(i, _)| self.nodes[*i].is_some())
            .map(|(_, id)| ShardNode { id: id.clone(), endpoint: format!("mem://{id}") })
            .collect();
        let map = Arc::new(ShardMap::build(version, nodes, 2));
        for node in map.nodes() {
            rest.post(&format!("{}/store/map", node.endpoint), &map.to_json()).unwrap();
        }
        client.set_map(map);
    }
}

/// Mean kill-to-first-acked-write latency: drop a key's primary, then
/// time the map republish plus the first write acknowledged by the
/// new primary.
fn shard_failover_ns(iters: usize) -> f64 {
    let mut fleet = Fleet::start();
    let client = StoreClient::new(fleet.net.clone() as Arc<dyn Transport>);
    let mut version = 1;
    fleet.publish(&client, version);

    let mut total_ns = 0.0;
    for iter in 0..iters {
        let key = format!("failover-{iter}");
        let value: Value = json!({ "iter": (iter as i64) });
        client.put(&key, &value).unwrap();
        let primary = client.map().primary(&key).unwrap().id.clone();
        let idx = fleet.ids.iter().position(|id| *id == primary).unwrap();
        fleet.net.unhost(&primary);
        fleet.nodes[idx] = None;

        let start = Instant::now();
        version += 1;
        fleet.publish(&client, version);
        while client.put(&key, &value).is_err() {
            std::thread::yield_now();
        }
        total_ns += start.elapsed().as_secs_f64() * 1e9;

        // Bring the node back (same WAL dir) for the next round.
        fleet.open(idx);
        version += 1;
        fleet.publish(&client, version);
    }
    total_ns / iters as f64
}

/// Mean kill-to-first-acked-write latency when *nothing* republishes
/// the map by hand: each node keeps a registry lease, a rebalancer
/// watches the lease table, and failover is lease expiry (TTL-bound)
/// plus the next tick's re-election. This is the live-elasticity path —
/// the one production runs — so its ceiling is asserted too.
fn failover_under_rebalance_ns(iters: usize) -> f64 {
    let net = Arc::new(MemNetwork::new());
    let (dir_svc, _dir_state) = DirectoryService::new(Repository::new(), vec![]);
    net.host("bench-dir", dir_svc);
    let directory = DirectoryClient::new(net.clone() as Arc<dyn Transport>, "mem://bench-dir");

    let ids: Vec<String> = (0..3).map(|i| format!("bench-elastic-{i}")).collect();
    let dirs: Vec<TempDir> = (0..3).map(|i| TempDir::new(&format!("bench-elastic-{i}"))).collect();
    let mut nodes: Vec<Option<StoreNode>> = vec![None, None, None];
    let mut keepers: Vec<Option<LeaseKeeper>> = vec![None, None, None];
    let open = |idx: usize, net: &Arc<MemNetwork>, directory: &DirectoryClient| {
        let node = StoreNode::open(
            StoreNodeConfig::new(&ids[idx]),
            dirs[idx].path(),
            net.clone() as Arc<dyn Transport>,
        )
        .unwrap();
        net.host(&ids[idx], node.router());
        let keeper = node.start_lease_keeper(
            directory.clone(),
            &format!("mem://{}", ids[idx]),
            REBALANCE_LEASE_TTL,
            REBALANCE_LEASE_TTL / 5,
        );
        (node, keeper)
    };
    for idx in 0..3 {
        let (node, keeper) = open(idx, &net, &directory);
        nodes[idx] = Some(node);
        keepers[idx] = Some(keeper);
    }

    let reb = Rebalancer::new(
        directory.clone(),
        net.clone() as Arc<dyn Transport>,
        RebalanceConfig {
            replication: 2,
            lease_ttl: REBALANCE_LEASE_TTL,
            backoff_base: std::time::Duration::from_millis(1),
            backoff_max: std::time::Duration::from_millis(10),
            ..RebalanceConfig::default()
        },
    );
    let settle = |reb: &Rebalancer, want: usize| {
        while {
            let _ = reb.tick();
            reb.map().nodes().len() != want
        } {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    settle(&reb, 3);
    let client = StoreClient::new(net.clone() as Arc<dyn Transport>);
    client.set_map(reb.map());

    let mut total_ns = 0.0;
    for iter in 0..iters {
        let key = format!("elastic-failover-{iter}");
        let value: Value = json!({ "iter": (iter as i64) });
        client.put(&key, &value).unwrap();
        let primary = client.map().primary(&key).unwrap().id.clone();
        let idx = ids.iter().position(|id| *id == primary).unwrap();
        keepers[idx] = None;
        net.unhost(&primary);
        nodes[idx] = None;

        let start = Instant::now();
        settle(&reb, 2);
        client.set_map(reb.map());
        while client.put(&key, &value).is_err() {
            std::thread::yield_now();
        }
        total_ns += start.elapsed().as_secs_f64() * 1e9;

        // Revive against the same WAL for the next round; its renewed
        // lease folds it back into the map.
        let (node, keeper) = open(idx, &net, &directory);
        nodes[idx] = Some(node);
        keepers[idx] = Some(keeper);
        settle(&reb, 3);
        client.set_map(reb.map());
    }
    total_ns / iters as f64
}

fn main() {
    let mut rec = Record::new("store");

    let always_ns = {
        let tmp = TempDir::new("bench-always");
        let (wal, _) = Wal::open_with(tmp.path(), wal_config(FsyncPolicy::Always)).unwrap();
        rec.time("wal_append_fsync_always", || wal.append(&PAYLOAD).unwrap()).value
    };
    let group_ns = group_commit_ns(&rec);
    rec.value("wal_append_group_commit", group_ns, "ns/op");
    let concurrent_ns = concurrent_append_ns(&rec);
    rec.value("wal_append_concurrent", concurrent_ns, "ns/op");

    // Group commit must amortize the sync cost more than 10x over
    // fsync-per-record on the pipelined submit-burst schedule.
    rec.value("group_commit_ratio", always_ns / group_ns, "ratio").min(10.0);
    // Individually acked concurrent appenders still have to beat the
    // serial fsync schedule — a loose floor (scheduler-limited on one
    // core) that catches the group-commit path breaking outright.
    rec.value("concurrent_ratio", always_ns / concurrent_ns, "ratio").min(2.0);

    // A cold restart of a ledger with a day of submissions must be
    // milliseconds, not minutes.
    rec.value("recovery_replay", recovery_replay_rate(&rec, 20_000), "records/s").min(500_000.0);
    ship_recent(&mut rec);

    // Kill-to-first-acked-write for an in-process failover: the map
    // republish plus one redirected write.
    rec.value("shard_failover", shard_failover_ns(8), "ns").max(50_000_000.0);
    // The same for the lease-driven failover: nobody republishes by
    // hand — the dead primary's lease must expire (the TTL dominates),
    // the rebalancer's next tick re-elects, and the client follows the
    // new map. TTL is 100 ms here, so the ceiling leaves ~50 ms for
    // detection, transfer, promote, and the first write.
    rec.value("failover_under_rebalance", failover_under_rebalance_ns(4), "ns").max(150_000_000.0);

    rec.finish();
}
