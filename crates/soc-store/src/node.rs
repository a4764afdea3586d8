//! The replicated store node and its shard-routing client.
//!
//! A [`StoreNode`] hosts one durable [`KvMachine`] for the shards it
//! primaries, plus one **replica stream** — a separate durable log —
//! per remote primary it replicates for. Streams are per-source because
//! LSNs are per-log: interleaving two primaries' records into one log
//! would break the `local lsn == source lsn` shipping invariant and
//! silently drop whichever stream is behind.
//!
//! Writes land on the key's **primary** (per the installed
//! [`ShardMap`]) and are pushed synchronously to the replica owners via
//! log shipping; reads merge the node's own state with its replica
//! streams and are version-gated: the node either proves the key's
//! authoritative stream has caught up to the reader's floor or refuses
//! with `behind`.
//!
//! Shipping is in order. The primary keeps a *shipped cursor* per
//! replica — the highest LSN of its log that replica has acknowledged —
//! and each push carries everything past it, read from the WAL's
//! in-memory tail. A replica stream needs every record of its source's
//! log, including those for keys another replica owns, and a put whose
//! predecessor's push has not landed yet carries that record along, so
//! the replica's gap check does not fire in steady state. A replica
//! that does answer `behind` (it lost state) is caught up from
//! [`crate::Wal::records_after`] and counted in
//! `soc_store_replication_catchups_total{node}`.
//!
//! A [`StoreClient`] routes by the same map: writes go to the primary
//! (retrying once on a stale-map `not_primary` hint), reads prefer the
//! furthest replica and fall back owner-by-owner toward the primary —
//! the read-your-writes schedule, since the client remembers the
//! version each of its own writes was assigned and demands at least
//! that from whichever owner answers.
//!
//! ## Routes
//!
//! | Route | Meaning |
//! |---|---|
//! | `PUT /store/{key}` | primary write (lease-fenced); body is the JSON value |
//! | `DELETE /store/{key}` | primary delete (lease-fenced) |
//! | `GET /store/{key}?min_version=N` | version-gated read |
//! | `POST /store/replicate` | apply shipped records (replica side, epoch-checked) |
//! | `GET /store/ship?after=N` | serve records for replica catch-up |
//! | `GET /store/snapshot` | full-state snapshot for replica bootstrap |
//! | `POST /store/sync` | pull catch-up from a peer (`{"from": endpoint}`) |
//! | `POST /store/promote` | adopt a source's replicated shards (`{"source": id}`) |
//! | `POST /store/map` | install a shard map (version CAS; older maps 409) |
//! | `GET /store/map` | the installed shard map (client refetch on redirect loops) |
//! | `POST /store/fence` | grant the node's fencing lease (`{"epoch": N, "ttl_ms": N}`) |
//! | `GET /store/status` | applied/durable LSNs, epoch, map version, checksums |

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use soc_http::mem::Transport;
use soc_http::url::{percent_decode, percent_encode};
use soc_http::{Response, Status};
use soc_json::Value;
use soc_registry::directory::DirectoryClient;
use soc_rest::{PathParams, RestClient, RestError, Router};

use crate::fence::Fence;
use crate::kv::KvMachine;
use crate::shard::ShardMap;
use crate::state::Durable;
use crate::wal::{Lsn, Wal, WalConfig};
use crate::{crc32, StoreError, StoreResult};

/// Identity and tuning for one [`StoreNode`].
#[derive(Debug, Clone)]
pub struct StoreNodeConfig {
    /// Stable node id — must match the node's lease id in the registry,
    /// since that is what the [`ShardMap`] ring is keyed on.
    pub id: String,
    /// WAL knobs for the node's durable machines (own log and every
    /// replica stream).
    pub wal: WalConfig,
}

impl StoreNodeConfig {
    /// Default WAL config under `id`.
    pub fn new(id: &str) -> StoreNodeConfig {
        StoreNodeConfig { id: id.to_string(), wal: WalConfig::default() }
    }
}

struct NodeInner {
    id: String,
    dir: PathBuf,
    wal_cfg: WalConfig,
    /// Shards this node primaries: its own log, its own LSNs.
    store: Durable<KvMachine>,
    /// One durable stream per remote primary, keyed by source node id.
    replicas: RwLock<HashMap<String, Arc<Durable<KvMachine>>>>,
    map: RwLock<Arc<ShardMap>>,
    peers: RestClient,
    /// This node's fencing lease (disarmed until the first grant).
    fence: Fence,
    /// Newest fencing epoch accepted per replication source — the
    /// replica-side half of the fence: older epochs are refused.
    source_epochs: Mutex<HashMap<String, u64>>,
    /// Shipped cursor per replica node id: the highest LSN of our log
    /// that replica has acknowledged. A hint for where the next push
    /// starts, never a correctness input — the replica's own gap check
    /// and duplicate skip decide what it applies.
    shipped: Mutex<HashMap<String, Lsn>>,
    pushes: soc_observe::Counter,
    catchups: soc_observe::Counter,
    push_failures: soc_observe::Counter,
    map_rejects: soc_observe::Counter,
    fenced_writes: soc_observe::Counter,
    stale_shipments: soc_observe::Counter,
}

/// One replicated store node. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct StoreNode {
    inner: Arc<NodeInner>,
}

impl StoreNode {
    /// Open (or recover) the node's durable machines in `dir` — the own
    /// log at the top level plus any `replica-of-*` streams a previous
    /// incarnation left behind. `transport` carries replication pushes
    /// to peer endpoints.
    pub fn open(
        cfg: StoreNodeConfig,
        dir: impl AsRef<std::path::Path>,
        transport: Arc<dyn Transport>,
    ) -> StoreResult<StoreNode> {
        let dir = dir.as_ref().to_path_buf();
        let store = Durable::open(dir.join("own"), cfg.wal.clone(), KvMachine::new())?;
        let mut replicas = HashMap::new();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some(enc) = name.strip_prefix("replica-of-") {
                    let source = percent_decode(enc);
                    let d = Durable::open(entry.path(), cfg.wal.clone(), KvMachine::new())?;
                    replicas.insert(source, Arc::new(d));
                }
            }
        }
        let metrics = soc_observe::metrics();
        Ok(StoreNode {
            inner: Arc::new(NodeInner {
                id: cfg.id.clone(),
                dir,
                wal_cfg: cfg.wal,
                store,
                replicas: RwLock::new(replicas),
                map: RwLock::new(Arc::new(ShardMap::build(0, Vec::new(), 1))),
                peers: RestClient::new(transport),
                fence: Fence::new(),
                source_epochs: Mutex::new(HashMap::new()),
                shipped: Mutex::new(HashMap::new()),
                pushes: metrics.counter("soc_store_replication_pushes_total", &[]),
                catchups: metrics
                    .counter("soc_store_replication_catchups_total", &[("node", cfg.id.as_str())]),
                push_failures: metrics.counter("soc_store_replication_failures_total", &[]),
                map_rejects: metrics.counter("soc_store_map_rejects_total", &[]),
                fenced_writes: metrics.counter("soc_store_fenced_writes_total", &[]),
                stale_shipments: metrics.counter("soc_store_stale_shipments_total", &[]),
            }),
        })
    }

    /// This node's id.
    pub fn id(&self) -> &str {
        &self.inner.id
    }

    /// Install a new shard map (typically rebuilt from a fresh lease
    /// snapshot). Consumers see it atomically. The install is a
    /// compare-and-swap on version: a map older than the one already
    /// installed is rejected (returns `false` and counts a reject), so
    /// two racing publishers can never regress a node's routing view.
    /// Installing a map this node belongs to also ratchets its fencing
    /// epoch — the map's version *is* the epoch.
    pub fn set_map(&self, map: Arc<ShardMap>) -> bool {
        let mut slot = self.inner.map.write();
        if map.version() < slot.version() {
            self.inner.map_rejects.inc();
            return false;
        }
        if map.nodes().iter().any(|n| n.id == self.inner.id) {
            self.inner.fence.observe_epoch(map.version());
        }
        *slot = map;
        true
    }

    /// The node's fencing lease.
    pub fn fence(&self) -> &Fence {
        &self.inner.fence
    }

    /// The currently installed shard map.
    pub fn map(&self) -> Arc<ShardMap> {
        self.inner.map.read().clone()
    }

    /// The node's own durable machine (primary shards only; replicated
    /// state lives in per-source streams).
    pub fn store(&self) -> &Durable<KvMachine> {
        &self.inner.store
    }

    /// The primary log, which a node always opens on disk.
    fn wal(&self) -> &Wal {
        self.inner.store.wal().expect("a store node's log is on disk")
    }

    /// The replica stream for `source`, opened on first use.
    fn replica_for(&self, source: &str) -> StoreResult<Arc<Durable<KvMachine>>> {
        if let Some(d) = self.inner.replicas.read().get(source) {
            return Ok(d.clone());
        }
        let mut replicas = self.inner.replicas.write();
        if let Some(d) = replicas.get(source) {
            return Ok(d.clone());
        }
        let dir = self.inner.dir.join(format!("replica-of-{}", percent_encode(source)));
        let d = Arc::new(Durable::open(dir, self.inner.wal_cfg.clone(), KvMachine::new())?);
        replicas.insert(source.to_string(), d.clone());
        Ok(d)
    }

    /// Highest LSN applied from `source`'s shipped stream.
    pub fn replica_applied(&self, source: &str) -> Lsn {
        self.inner.replicas.read().get(source).map(|d| d.applied_lsn()).unwrap_or(0)
    }

    /// Refuse unless this node is `key`'s primary (an empty map means
    /// standalone mode: every key is local).
    fn check_primary(&self, key: &str) -> StoreResult<()> {
        let map = self.map();
        if map.is_empty() {
            return Ok(());
        }
        match map.primary(key) {
            Some(p) if p.id == self.inner.id => Ok(()),
            p => Err(StoreError::NotPrimary {
                key: key.to_string(),
                primary: p.map(|n| n.endpoint.clone()),
            }),
        }
    }

    /// Refuse writes when the node's fencing lease has lapsed.
    fn check_fence(&self) -> StoreResult<()> {
        self.inner.fence.check_write().inspect_err(|_| self.inner.fenced_writes.inc())
    }

    /// Write `value` under `key` (primary only, lease-fenced). Returns
    /// the version.
    pub fn put(&self, key: &str, value: &Value) -> StoreResult<Lsn> {
        self.check_primary(key)?;
        self.check_fence()?;
        let cmd = KvMachine::put_command(key, value);
        let lsn = self.inner.store.execute(&cmd)?;
        // The stored version can exceed the LSN after a promotion
        // re-log (versions never regress per key), so read it back —
        // but the record ships at its LSN.
        let version = self.inner.store.query(|m| m.get(key).map(|(_, l)| l)).unwrap_or(lsn);
        self.replicate(key, lsn, &cmd);
        Ok(version)
    }

    /// Delete `key` (primary only, lease-fenced). Returns the
    /// tombstone's version.
    pub fn delete(&self, key: &str) -> StoreResult<Lsn> {
        self.check_primary(key)?;
        self.check_fence()?;
        let cmd = KvMachine::del_command(key);
        let lsn = self.inner.store.execute(&cmd)?;
        self.replicate(key, lsn, &cmd);
        Ok(lsn)
    }

    /// Version-gated merged read. The value is the newest copy across
    /// the node's own state and its replica streams; the gate compares
    /// the reader's floor against the *key's authoritative stream* —
    /// our own log when we primary the key, otherwise the stream
    /// shipped from the key's primary.
    pub fn get(&self, key: &str, min_version: Lsn) -> StoreResult<Option<(Value, Lsn)>> {
        let map = self.map();
        let mut best: Option<(Value, Lsn)> =
            self.inner.store.query(|m| m.get(key).map(|(v, l)| (v.clone(), l)));
        let mut max_watermark = self.inner.store.applied_lsn();
        let replicas = self.inner.replicas.read();
        for d in replicas.values() {
            max_watermark = max_watermark.max(d.applied_lsn());
            if let Some((v, l)) = d.query(|m| m.get(key).map(|(v, l)| (v.clone(), l))) {
                if best.as_ref().map(|(_, bl)| l > *bl).unwrap_or(true) {
                    best = Some((v, l));
                }
            }
        }
        let watermark = match map.primary(key) {
            Some(p) if p.id != self.inner.id => {
                replicas.get(&p.id).map(|d| d.applied_lsn()).unwrap_or(0)
            }
            // We primary the key — or the map is empty and the best
            // cross-stream watermark is the honest answer.
            Some(_) => self.inner.store.applied_lsn(),
            None => max_watermark,
        };
        drop(replicas);
        match best {
            Some((v, l)) if l >= min_version => Ok(Some((v, l))),
            Some((_, l)) => Err(StoreError::Behind { have: l, want: min_version }),
            None if watermark >= min_version => Ok(None),
            None => Err(StoreError::Behind { have: watermark, want: min_version }),
        }
    }

    /// The fencing epoch this node ships under: the newest epoch it has
    /// held a lease at or seen in an installed map.
    fn ship_epoch(&self) -> u64 {
        self.inner.fence.epoch().max(self.map().version())
    }

    /// Ship our log through `lsn` (the record `cmd`) to every replica
    /// owner of `key`, in order: one push per replica carrying every
    /// record past its shipped cursor, from the WAL's in-memory tail.
    /// When the tail no longer reaches back to the cursor, only `cmd`
    /// ships. A cursor at or past `lsn` means a later put's push
    /// already carried this record, so nothing ships. A low cursor
    /// ships duplicates the replica skips; a replica that answers
    /// `behind` (it lost state, or the tail could not bridge its gap)
    /// is caught up inline from [`crate::Wal::records_after`] and
    /// counted. Best-effort: an unreachable replica is counted and
    /// skipped; a later push or [`StoreNode::sync_from`] catches it up.
    fn replicate(&self, key: &str, lsn: Lsn, cmd: &[u8]) {
        let map = self.map();
        let epoch = self.ship_epoch();
        let wal = self.wal();
        for owner in map.owners(key).iter().skip(1) {
            if owner.id == self.inner.id {
                continue;
            }
            let cursor = self.inner.shipped.lock().get(&owner.id).copied().unwrap_or(0);
            if cursor >= lsn {
                continue;
            }
            let records = wal.recent(cursor, lsn).unwrap_or_else(|| vec![(lsn, cmd.to_vec())]);
            let shipped = match self.push_records(&owner.endpoint, epoch, &records) {
                Err(StoreError::Behind { have, .. }) => {
                    // Ship everything the replica is missing.
                    self.inner.catchups.inc();
                    self.inner.shipped.lock().insert(owner.id.clone(), have);
                    wal.records_after(have)
                        .and_then(|recs| self.push_records(&owner.endpoint, epoch, &recs))
                }
                other => other,
            };
            match shipped {
                Ok(applied) => {
                    self.inner.pushes.inc();
                    let mut cursors = self.inner.shipped.lock();
                    let cursor = cursors.entry(owner.id.clone()).or_default();
                    *cursor = (*cursor).max(applied);
                }
                Err(_) => self.inner.push_failures.inc(),
            }
        }
    }

    /// POST a batch of our records to a peer's `/store/replicate`.
    /// Returns the LSN the peer's stream of us has applied.
    fn push_records(
        &self,
        endpoint: &str,
        epoch: u64,
        records: &[(Lsn, Vec<u8>)],
    ) -> StoreResult<Lsn> {
        let body = records_to_json(&self.inner.id, epoch, records);
        let reply = self
            .inner
            .peers
            .post(&format!("{endpoint}/store/replicate"), &body)
            .map_err(rest_to_store)?;
        Ok(reply.get("applied").and_then(Value::as_i64).unwrap_or(0) as Lsn)
    }

    /// Apply records shipped from primary `source` under fencing
    /// `epoch` into its replica stream. Returns the stream's applied
    /// LSN. Gaps surface as [`StoreError::Behind`] so the shipper knows
    /// where to resume; an epoch older than the newest this node has
    /// obeyed from `source` — or older than an installed map that no
    /// longer lists `source` — is refused with
    /// [`StoreError::StaleEpoch`]: that is a partitioned old primary
    /// talking past its fence.
    pub fn apply_shipped(
        &self,
        source: &str,
        epoch: u64,
        records: &[(Lsn, Vec<u8>)],
    ) -> StoreResult<Lsn> {
        self.check_source_epoch(source, epoch)?;
        let stream = self.replica_for(source)?;
        if records.is_empty() {
            return Ok(stream.applied_lsn());
        }
        // One group commit for the whole shipment: catch-up cost is a
        // single fsync, not one per record.
        stream.execute_shipped_batch(records)
    }

    /// The replica-side fence: refuse `source` shipping under `epoch`
    /// when we have already obeyed a newer epoch from it, or when the
    /// installed map has moved past that epoch *and dropped the
    /// source*. (A source still in the map may lag the map version
    /// briefly between a rebalance's publish and its next renewal —
    /// that is catch-up, not split-brain.) Accepting ratchets the
    /// per-source floor.
    fn check_source_epoch(&self, source: &str, epoch: u64) -> StoreResult<()> {
        let mut floors = self.inner.source_epochs.lock();
        let floor = floors.get(source).copied().unwrap_or(0);
        if epoch < floor {
            self.inner.stale_shipments.inc();
            return Err(StoreError::StaleEpoch { have: floor, got: epoch });
        }
        let map = self.map();
        if !map.is_empty() && epoch < map.version() && !map.nodes().iter().any(|n| n.id == source) {
            self.inner.stale_shipments.inc();
            return Err(StoreError::StaleEpoch { have: map.version(), got: epoch });
        }
        if epoch > floor {
            floors.insert(source.to_string(), epoch);
        }
        Ok(())
    }

    /// Pull-side catch-up: ask the peer who it is, fetch its records
    /// after our stream watermark, and apply them. When the peer's log
    /// has been compacted past our watermark (shipping answers
    /// `Corrupt`), falls back to a full snapshot bootstrap. Returns how
    /// many records were applied (a bootstrap counts as one).
    pub fn sync_from(&self, endpoint: &str) -> StoreResult<usize> {
        let status =
            self.inner.peers.get(&format!("{endpoint}/store/status")).map_err(rest_to_store)?;
        let source = status
            .get("id")
            .and_then(Value::as_str)
            .ok_or(StoreError::Remote("peer status missing id".into()))?
            .to_string();
        if source == self.inner.id {
            return Err(StoreError::Remote("refusing to sync from self".into()));
        }
        let after = self.replica_applied(&source);
        let resp = match self.inner.peers.get(&format!("{endpoint}/store/ship?after={after}")) {
            Ok(resp) => resp,
            Err(e) => match rest_to_store(e) {
                // The source compacted past our watermark: ship the
                // whole state instead of the (gone) log suffix.
                StoreError::Corrupt(_) => return self.bootstrap_from(endpoint, &source),
                other => return Err(other),
            },
        };
        let epoch = resp.get("epoch").and_then(Value::as_i64).unwrap_or(0) as u64;
        let records = records_from_json(&resp)?;
        let n = records.len();
        self.apply_shipped(&source, epoch, &records)?;
        Ok(n)
    }

    /// Replace the `source` replica stream with the peer's full state
    /// snapshot — the catch-up of last resort when log shipping cannot
    /// bridge the gap (compaction horizon or checksum divergence).
    pub fn bootstrap_from(&self, endpoint: &str, source: &str) -> StoreResult<usize> {
        let snap =
            self.inner.peers.get(&format!("{endpoint}/store/snapshot")).map_err(rest_to_store)?;
        let peer_id = snap.get("id").and_then(Value::as_str).unwrap_or_default();
        if peer_id != source {
            return Err(StoreError::Remote(format!(
                "snapshot from {endpoint} identifies as {peer_id:?}, wanted {source:?}"
            )));
        }
        let applied =
            snap.get("applied")
                .and_then(Value::as_i64)
                .ok_or(StoreError::Remote("snapshot missing applied".into()))? as Lsn;
        let state = snap
            .get("state")
            .and_then(Value::as_str)
            .ok_or(StoreError::Remote("snapshot missing state".into()))?;
        let stream = self.replica_for(source)?;
        if stream.applied_lsn() >= applied {
            return Ok(0);
        }
        stream.install_snapshot(applied, state.as_bytes())?;
        Ok(1)
    }

    /// Failover promotion: re-log `source`'s replicated state into our
    /// own log so we can primary its shards. Versions are carried over
    /// verbatim (they never regress per key), and keys we already hold
    /// at an equal-or-newer version are skipped. Returns how many keys
    /// were adopted.
    pub fn promote(&self, source: &str) -> StoreResult<usize> {
        self.promote_for_map(source, None)
    }

    /// Promotion filtered by a target map: adopt only the keys whose
    /// primary under `target` is this node. A rebalance uses this to
    /// flip primaries without every surviving node copying every key —
    /// each adopts exactly its new share.
    pub fn promote_for_map(&self, source: &str, target: Option<&ShardMap>) -> StoreResult<usize> {
        let Some(stream) = self.inner.replicas.read().get(source).cloned() else {
            return Ok(0);
        };
        let entries: Vec<(String, Value, Lsn)> = stream.query(|m| {
            m.keys().into_iter().filter_map(|k| m.get(&k).map(|(v, l)| (k, v.clone(), l))).collect()
        });
        let mut adopted = 0;
        for (key, value, version) in entries {
            if let Some(map) = target {
                match map.primary(&key) {
                    Some(p) if p.id == self.inner.id => {}
                    _ => continue,
                }
            }
            let have = self.inner.store.query(|m| m.get(&key).map(|(_, l)| l)).unwrap_or(0);
            if have >= version {
                continue;
            }
            let cmd = KvMachine::put_versioned_command(&key, &value, version);
            self.inner.store.execute(&cmd)?;
            adopted += 1;
        }
        Ok(adopted)
    }

    /// REST routes exposing this node.
    pub fn router(&self) -> Router {
        let mut r = Router::new();
        let node = self.clone();
        r.put("/store/{key}", move |req, p: PathParams| {
            let key = p.get("key").unwrap_or_default();
            let value = match req.text().ok().and_then(|t| Value::parse(t).ok()) {
                Some(v) => v,
                None => return Response::error(Status::BAD_REQUEST, "body must be JSON"),
            };
            match node.put(key, &value) {
                Ok(lsn) => version_response(lsn),
                Err(e) => store_error_response(e, node.map().version()),
            }
        });
        let node = self.clone();
        r.delete("/store/{key}", move |_req, p: PathParams| {
            match node.delete(p.get("key").unwrap_or_default()) {
                Ok(lsn) => version_response(lsn),
                Err(e) => store_error_response(e, node.map().version()),
            }
        });
        let node = self.clone();
        r.get("/store/ship", move |req, _p| {
            let after = req.query("after").and_then(|v| v.parse().ok()).unwrap_or(0);
            match node.wal().records_after(after) {
                Ok(records) => Response::json_owned(
                    records_to_json(&node.inner.id, node.ship_epoch(), &records).to_compact(),
                ),
                // The requested suffix was compacted away: tell the
                // puller to bootstrap from a snapshot instead.
                Err(StoreError::Corrupt(_)) => {
                    let mut body = Value::object();
                    body.set("error", "compacted");
                    body.set("oldest", node.inner.store.applied_lsn() as i64);
                    Response::new(Status::CONFLICT)
                        .with_text("application/json", &body.to_compact())
                }
                Err(e) => store_error_response(e, node.map().version()),
            }
        });
        let node = self.clone();
        r.get("/store/snapshot", move |_req, _p| {
            let (applied, state) = node.inner.store.snapshot_state();
            let mut body = Value::object();
            body.set("id", node.inner.id.as_str());
            body.set("applied", applied as i64);
            // KV snapshots are deterministic JSON text, so they embed
            // as a string.
            body.set("state", String::from_utf8_lossy(&state).into_owned());
            Response::json_owned(body.to_compact())
        });
        let node = self.clone();
        r.get("/store/status", move |_req, _p| {
            let mut status = Value::object();
            status.set("id", node.inner.id.as_str());
            status.set("applied", node.inner.store.applied_lsn() as i64);
            status.set("durable", node.wal().durable_lsn() as i64);
            status.set("map_version", node.map().version() as i64);
            status.set("epoch", node.inner.fence.epoch() as i64);
            status.set("fence_valid", node.inner.fence.is_valid());
            status.set("keys", node.inner.store.query(|m| m.len()) as i64);
            let (_, state) = node.inner.store.snapshot_state();
            status.set("state_crc", crc32(&state) as i64);
            let mut streams = Value::object();
            let mut stream_crcs = Value::object();
            for (source, d) in node.inner.replicas.read().iter() {
                let (lsn, snap) = d.snapshot_state();
                streams.set(source.as_str(), lsn as i64);
                stream_crcs.set(source.as_str(), crc32(&snap) as i64);
            }
            status.set("replica_streams", streams);
            status.set("stream_crcs", stream_crcs);
            Response::json_owned(status.to_compact())
        });
        let node = self.clone();
        r.post("/store/replicate", move |req, _p| {
            let body = match req.text().ok().and_then(|t| Value::parse(t).ok()) {
                Some(v) => v,
                None => return Response::error(Status::BAD_REQUEST, "body must be JSON"),
            };
            let Some(source) = body.get("source").and_then(Value::as_str).map(str::to_string)
            else {
                return Response::error(Status::BAD_REQUEST, "replicate body missing source");
            };
            let epoch = body.get("epoch").and_then(Value::as_i64).unwrap_or(0) as u64;
            let records = match records_from_json(&body) {
                Ok(r) => r,
                Err(_) => return Response::error(Status::BAD_REQUEST, "body must be records"),
            };
            match node.apply_shipped(&source, epoch, &records) {
                Ok(applied) => {
                    let mut ok = Value::object();
                    ok.set("applied", applied as i64);
                    Response::json_owned(ok.to_compact())
                }
                Err(e) => store_error_response(e, node.map().version()),
            }
        });
        let node = self.clone();
        r.post("/store/map", move |req, _p| {
            let body = match req.text().ok().and_then(|t| Value::parse(t).ok()) {
                Some(v) => v,
                None => return Response::error(Status::BAD_REQUEST, "body must be JSON"),
            };
            match ShardMap::from_json(&body) {
                Ok(map) => {
                    let version = map.version();
                    let have = node.map().version();
                    if !node.set_map(Arc::new(map)) {
                        let mut err = Value::object();
                        err.set("error", "stale_map");
                        err.set("have", have as i64);
                        err.set("got", version as i64);
                        return Response::new(Status::CONFLICT)
                            .with_text("application/json", &err.to_compact());
                    }
                    let mut ok = Value::object();
                    ok.set("map_version", version as i64);
                    Response::json_owned(ok.to_compact())
                }
                Err(e) => Response::error(Status::BAD_REQUEST, &format!("bad shard map: {e}")),
            }
        });
        let node = self.clone();
        r.get("/store/map", move |_req, _p| {
            Response::json_owned(node.map().to_json().to_compact())
        });
        let node = self.clone();
        r.post("/store/sync", move |req, _p| {
            let body = match req.text().ok().and_then(|t| Value::parse(t).ok()) {
                Some(v) => v,
                None => return Response::error(Status::BAD_REQUEST, "body must be JSON"),
            };
            let Some(from) = body.get("from").and_then(Value::as_str) else {
                return Response::error(Status::BAD_REQUEST, "sync body missing from");
            };
            match node.sync_from(from) {
                Ok(n) => {
                    let mut ok = Value::object();
                    ok.set("applied", n as i64);
                    Response::json_owned(ok.to_compact())
                }
                Err(e) => store_error_response(e, node.map().version()),
            }
        });
        let node = self.clone();
        r.post("/store/promote", move |req, _p| {
            let body = match req.text().ok().and_then(|t| Value::parse(t).ok()) {
                Some(v) => v,
                None => return Response::error(Status::BAD_REQUEST, "body must be JSON"),
            };
            let Some(source) = body.get("source").and_then(Value::as_str) else {
                return Response::error(Status::BAD_REQUEST, "promote body missing source");
            };
            let target = match body.get("map") {
                Some(m) => match ShardMap::from_json(m) {
                    Ok(map) => Some(map),
                    Err(e) => {
                        return Response::error(Status::BAD_REQUEST, &format!("bad shard map: {e}"))
                    }
                },
                None => None,
            };
            match node.promote_for_map(source, target.as_ref()) {
                Ok(adopted) => {
                    let mut ok = Value::object();
                    ok.set("adopted", adopted as i64);
                    Response::json_owned(ok.to_compact())
                }
                Err(e) => store_error_response(e, node.map().version()),
            }
        });
        let node = self.clone();
        r.post("/store/fence", move |req, _p| {
            let body = match req.text().ok().and_then(|t| Value::parse(t).ok()) {
                Some(v) => v,
                None => return Response::error(Status::BAD_REQUEST, "body must be JSON"),
            };
            let Some(epoch) = body.get("epoch").and_then(Value::as_i64) else {
                return Response::error(Status::BAD_REQUEST, "fence body missing epoch");
            };
            let ttl_ms = body.get("ttl_ms").and_then(Value::as_i64).unwrap_or(0).max(0) as u64;
            node.inner.fence.grant(epoch as u64, Duration::from_millis(ttl_ms));
            let mut ok = Value::object();
            ok.set("epoch", node.inner.fence.epoch() as i64);
            ok.set("valid", node.inner.fence.is_valid());
            Response::json_owned(ok.to_compact())
        });
        let node = self.clone();
        r.get("/store/{key}", move |req, p: PathParams| {
            let key = p.get("key").unwrap_or_default();
            let min = req.query("min_version").and_then(|v| v.parse().ok()).unwrap_or(0);
            match node.get(key, min) {
                Ok(Some((value, version))) => {
                    let mut body = Value::object();
                    body.set("key", key);
                    body.set("value", value);
                    body.set("version", version as i64);
                    Response::json_owned(body.to_compact())
                }
                Ok(None) => Response::error(Status::NOT_FOUND, &format!("no key {key:?}")),
                Err(e) => store_error_response(e, node.map().version()),
            }
        });
        r
    }

    /// Spawn the background lease keeper: renew this node's fenced
    /// lease in the registry every `interval`, granting the fence on
    /// each successful renewal. A node partitioned from the registry
    /// stops being granted, its lease lapses after `ttl`, and it
    /// self-fences — the write-refusal half of split-brain prevention.
    /// The keeper stops when the returned handle is dropped or stopped.
    pub fn start_lease_keeper(
        &self,
        directory: DirectoryClient,
        endpoint: &str,
        ttl: Duration,
        interval: Duration,
    ) -> LeaseKeeper {
        let stop = Arc::new(AtomicBool::new(false));
        let node = self.clone();
        let endpoint = endpoint.to_string();
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let ttl_ms = ttl.as_millis().max(1) as u64;
            while !stop_flag.load(Ordering::Acquire) {
                // On an unreachable registry there is no grant; the
                // lease lapses on its own and the node self-fences.
                if let Ok(epoch) =
                    directory.renew_fenced_lease(&node.inner.id, ttl_ms, Some(&endpoint))
                {
                    node.inner.fence.grant(epoch, ttl);
                }
                std::thread::sleep(interval);
            }
        });
        LeaseKeeper { stop, handle: Some(handle) }
    }
}

/// Handle for a running lease-keeper thread; stops it on drop.
pub struct LeaseKeeper {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LeaseKeeper {
    /// Stop renewing (simulates a partition from the registry; the
    /// node's lease then lapses within one TTL) and join the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LeaseKeeper {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `{"source":"...","epoch":E,"records":[{"lsn":N,"command":"..."}]}` —
/// commands are the KV machine's JSON command strings, so they embed as
/// text. The epoch is the shipper's fencing epoch; receivers refuse
/// anything older than what they have already obeyed.
fn records_to_json(source: &str, epoch: u64, records: &[(Lsn, Vec<u8>)]) -> Value {
    let items: Vec<Value> = records
        .iter()
        .map(|(lsn, cmd)| {
            let mut item = Value::object();
            item.set("lsn", *lsn as i64);
            item.set("command", String::from_utf8_lossy(cmd).into_owned());
            item
        })
        .collect();
    let mut body = Value::object();
    body.set("source", source);
    body.set("epoch", epoch as i64);
    body.set("records", Value::Array(items));
    body
}

fn records_from_json(body: &Value) -> StoreResult<Vec<(Lsn, Vec<u8>)>> {
    let items = body
        .get("records")
        .and_then(Value::as_array)
        .ok_or(StoreError::Remote("replicate body missing records".into()))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let lsn = item
            .get("lsn")
            .and_then(Value::as_i64)
            .ok_or(StoreError::Remote("record missing lsn".into()))? as Lsn;
        let cmd = item
            .get("command")
            .and_then(Value::as_str)
            .ok_or(StoreError::Remote("record missing command".into()))?;
        out.push((lsn, cmd.as_bytes().to_vec()));
    }
    Ok(out)
}

fn version_response(lsn: Lsn) -> Response {
    let mut body = Value::object();
    body.set("version", lsn as i64);
    Response::json_owned(body.to_compact())
}

/// Map store errors onto the wire: routing and staleness conditions are
/// `409` with a machine-readable body; everything else is `500`.
/// `map_version` stamps redirects so clients and gateways can tell a
/// hint from a node with a *newer* map than theirs (refetch) from one
/// that is itself stale (ignore).
fn store_error_response(e: StoreError, map_version: u64) -> Response {
    match e {
        StoreError::NotPrimary { key, primary } => {
            let mut body = Value::object();
            body.set("error", "not_primary");
            body.set("key", key.as_str());
            match primary {
                Some(p) => body.set("primary", p.as_str()),
                None => body.set("primary", Value::Null),
            }
            body.set("map_version", map_version as i64);
            Response::new(Status::CONFLICT).with_text("application/json", &body.to_compact())
        }
        StoreError::Behind { have, want } => {
            let mut body = Value::object();
            body.set("error", "behind");
            body.set("have", have as i64);
            body.set("want", want as i64);
            Response::new(Status::CONFLICT).with_text("application/json", &body.to_compact())
        }
        StoreError::Fenced { epoch } => {
            let mut body = Value::object();
            body.set("error", "fenced");
            body.set("epoch", epoch as i64);
            Response::new(Status::CONFLICT).with_text("application/json", &body.to_compact())
        }
        StoreError::StaleEpoch { have, got } => {
            let mut body = Value::object();
            body.set("error", "stale_epoch");
            body.set("have", have as i64);
            body.set("got", got as i64);
            Response::new(Status::CONFLICT).with_text("application/json", &body.to_compact())
        }
        other => Response::error(Status::INTERNAL_SERVER_ERROR, &other.to_string()),
    }
}

fn rest_to_store(e: RestError) -> StoreError {
    if let RestError::Status { status, body } = &e {
        if *status == Status::CONFLICT {
            if let Ok(v) = Value::parse(body) {
                match v.get("error").and_then(Value::as_str) {
                    Some("behind") => {
                        return StoreError::Behind {
                            have: v.get("have").and_then(Value::as_i64).unwrap_or(0) as Lsn,
                            want: v.get("want").and_then(Value::as_i64).unwrap_or(0) as Lsn,
                        }
                    }
                    Some("not_primary") => {
                        return StoreError::NotPrimary {
                            key: v
                                .get("key")
                                .and_then(Value::as_str)
                                .unwrap_or_default()
                                .to_string(),
                            primary: v.get("primary").and_then(Value::as_str).map(str::to_string),
                        }
                    }
                    Some("fenced") => {
                        return StoreError::Fenced {
                            epoch: v.get("epoch").and_then(Value::as_i64).unwrap_or(0) as u64,
                        }
                    }
                    Some("stale_epoch") => {
                        return StoreError::StaleEpoch {
                            have: v.get("have").and_then(Value::as_i64).unwrap_or(0) as u64,
                            got: v.get("got").and_then(Value::as_i64).unwrap_or(0) as u64,
                        }
                    }
                    Some("compacted") => {
                        return StoreError::Corrupt(
                            "peer log compacted past the requested suffix".into(),
                        )
                    }
                    Some("stale_map") => {
                        return StoreError::Remote(format!(
                            "map publish rejected: node holds version {}",
                            v.get("have").and_then(Value::as_i64).unwrap_or(0)
                        ))
                    }
                    _ => {}
                }
            }
        }
    }
    StoreError::Remote(e.to_string())
}

/// How many distinct endpoints a write will chase `not_primary` hints
/// through before refetching the map — a stale hint chain (or two nodes
/// pointing at each other mid-rebalance) must not spin forever.
const MAX_WRITE_HOPS: usize = 3;

/// A shard-aware store client with read-your-writes sessions.
pub struct StoreClient {
    rest: RestClient,
    map: RwLock<Arc<ShardMap>>,
    /// Per-key version floor: the LSN each of this client's writes was
    /// assigned, demanded back on every later read of the same key.
    sessions: Mutex<HashMap<String, Lsn>>,
}

impl StoreClient {
    /// Client over `transport`, with an empty map until
    /// [`StoreClient::set_map`] installs one.
    pub fn new(transport: Arc<dyn Transport>) -> StoreClient {
        StoreClient {
            rest: RestClient::new(transport),
            map: RwLock::new(Arc::new(ShardMap::build(0, Vec::new(), 1))),
            sessions: Mutex::new(HashMap::new()),
        }
    }

    /// Install the shard map the client routes by. Same version CAS as
    /// the node side: an older map never replaces a newer one. Returns
    /// whether the map was installed.
    pub fn set_map(&self, map: Arc<ShardMap>) -> bool {
        let mut slot = self.map.write();
        if map.version() < slot.version() {
            return false;
        }
        *slot = map;
        true
    }

    /// Forcibly install `map` even if older — tests use this to
    /// simulate a client with a stale routing view.
    pub fn force_map(&self, map: Arc<ShardMap>) {
        *self.map.write() = map;
    }

    /// The installed map.
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.read().clone()
    }

    /// The session's version floor for `key` (0 = never written).
    pub fn session_version(&self, key: &str) -> Lsn {
        self.sessions.lock().get(key).copied().unwrap_or(0)
    }

    /// Write `value` under `key` through the key's primary.
    pub fn put(&self, key: &str, value: &Value) -> StoreResult<Lsn> {
        self.write(key, Some(value))
    }

    /// Delete `key` through its primary.
    pub fn delete(&self, key: &str) -> StoreResult<Lsn> {
        self.write(key, None)
    }

    /// Refetch the authoritative map from any node of the installed
    /// one (first answer wins) and install it. Returns whether any node
    /// answered with a usable map.
    pub fn refresh_map(&self) -> bool {
        let map = self.map();
        for node in map.nodes() {
            if let Ok(v) = self.rest.get(&format!("{}/store/map", node.endpoint)) {
                if let Ok(fresh) = ShardMap::from_json(&v) {
                    self.set_map(Arc::new(fresh));
                    return true;
                }
            }
        }
        false
    }

    fn write(&self, key: &str, value: Option<&Value>) -> StoreResult<Lsn> {
        let map = self.map();
        let mut endpoint = map
            .primary(key)
            .ok_or(StoreError::Remote("shard map has no nodes".into()))?
            .endpoint
            .clone();
        // Chase `not_primary` hints through at most MAX_WRITE_HOPS
        // distinct endpoints; a revisit (two stale nodes pointing at
        // each other) or hop exhaustion falls through to a map refetch
        // and one final attempt at the fresh primary.
        let mut visited: Vec<String> = Vec::with_capacity(MAX_WRITE_HOPS);
        for _ in 0..MAX_WRITE_HOPS {
            visited.push(endpoint.clone());
            match self.write_at(&endpoint, key, value) {
                Err(StoreError::NotPrimary { primary: Some(hint), .. }) => {
                    if visited.contains(&hint) {
                        break;
                    }
                    endpoint = hint;
                }
                other => return other,
            }
        }
        if !self.refresh_map() {
            return Err(StoreError::Remote(format!(
                "write of {key:?} chased not_primary hints through {visited:?} and no node \
                 answered a map refetch"
            )));
        }
        let fresh = self
            .map()
            .primary(key)
            .ok_or(StoreError::Remote("refetched shard map has no nodes".into()))?
            .endpoint
            .clone();
        self.write_at(&fresh, key, value)
    }

    fn write_at(&self, endpoint: &str, key: &str, value: Option<&Value>) -> StoreResult<Lsn> {
        let url = format!("{endpoint}/store/{}", percent_encode(key));
        let resp = match value {
            Some(v) => self.rest.put(&url, v),
            None => self.rest.delete(&url),
        }
        .map_err(rest_to_store)?;
        let version = resp
            .get("version")
            .and_then(Value::as_i64)
            .ok_or(StoreError::Remote("write response missing version".into()))?
            as Lsn;
        self.sessions.lock().insert(key.to_string(), version);
        Ok(version)
    }

    /// Read `key`, demanding at least this session's last written
    /// version. Owners are tried replica-first (the cheapest copy that
    /// can prove freshness wins) and the primary is the last resort —
    /// a behind or unreachable replica silently falls through.
    pub fn get(&self, key: &str) -> StoreResult<Option<(Value, Lsn)>> {
        let floor = self.session_version(key);
        let map = self.map();
        let owners = map.owners(key);
        if owners.is_empty() {
            return Err(StoreError::Remote("shard map has no nodes".into()));
        }
        let mut last_err = None;
        for owner in owners.iter().rev() {
            let url =
                format!("{}/store/{}?min_version={floor}", owner.endpoint, percent_encode(key));
            match self.rest.get(&url) {
                Ok(resp) => {
                    let value = resp.get("value").cloned().unwrap_or(Value::Null);
                    let version = resp.get("version").and_then(Value::as_i64).unwrap_or(0) as Lsn;
                    return Ok(Some((value, version)));
                }
                Err(RestError::Status { status, .. }) if status == Status::NOT_FOUND => {
                    return Ok(None)
                }
                Err(e) => last_err = Some(rest_to_store(e)),
            }
        }
        Err(last_err.unwrap_or(StoreError::Remote("no owner answered".into())))
    }

    /// Primary-first read: the strongest copy wins, falling back
    /// through replicas only when the primary is unreachable. Used by
    /// readers that must see every acknowledged write immediately
    /// (saga-journal recovery), not just their own session's.
    pub fn get_fresh(&self, key: &str) -> StoreResult<Option<(Value, Lsn)>> {
        let floor = self.session_version(key);
        let map = self.map();
        let owners = map.owners(key);
        if owners.is_empty() {
            return Err(StoreError::Remote("shard map has no nodes".into()));
        }
        let mut last_err = None;
        for owner in owners.iter() {
            let url =
                format!("{}/store/{}?min_version={floor}", owner.endpoint, percent_encode(key));
            match self.rest.get(&url) {
                Ok(resp) => {
                    let value = resp.get("value").cloned().unwrap_or(Value::Null);
                    let version = resp.get("version").and_then(Value::as_i64).unwrap_or(0) as Lsn;
                    return Ok(Some((value, version)));
                }
                Err(RestError::Status { status, .. }) if status == Status::NOT_FOUND => {
                    return Ok(None)
                }
                Err(e) => last_err = Some(rest_to_store(e)),
            }
        }
        Err(last_err.unwrap_or(StoreError::Remote("no owner answered".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;
    use soc_http::MemNetwork;
    use soc_json::json;

    struct Cluster {
        net: Arc<MemNetwork>,
        nodes: Vec<StoreNode>,
        _dirs: Vec<TempDir>,
    }

    /// `n` nodes hosted as `mem://s{i}` sharing one map.
    fn cluster(n: usize, replication: usize) -> Cluster {
        cluster_named("s", n, replication)
    }

    /// `n` nodes with ids `{prefix}{i}`, hosted as `mem://{prefix}{i}`.
    /// Tests that read a node-labelled counter pick a prefix no other
    /// test uses, since the metrics registry is process-wide.
    fn cluster_named(prefix: &str, n: usize, replication: usize) -> Cluster {
        let net = Arc::new(MemNetwork::new());
        let shard_nodes: Vec<crate::shard::ShardNode> = (0..n)
            .map(|i| crate::shard::ShardNode {
                id: format!("{prefix}{i}"),
                endpoint: format!("mem://{prefix}{i}"),
            })
            .collect();
        let map = Arc::new(ShardMap::build(1, shard_nodes, replication));
        let mut nodes = Vec::new();
        let mut dirs = Vec::new();
        for i in 0..n {
            let dir = TempDir::new(&format!("node-{i}"));
            let node = StoreNode::open(
                StoreNodeConfig::new(&format!("{prefix}{i}")),
                dir.path(),
                net.clone() as Arc<dyn Transport>,
            )
            .unwrap();
            node.set_map(map.clone());
            net.host(&format!("{prefix}{i}"), node.router());
            nodes.push(node);
            dirs.push(dir);
        }
        Cluster { net, nodes, _dirs: dirs }
    }

    fn client(c: &Cluster) -> StoreClient {
        let client = StoreClient::new(c.net.clone() as Arc<dyn Transport>);
        client.set_map(c.nodes[0].map());
        client
    }

    impl Cluster {
        fn node(&self, id: &str) -> &StoreNode {
            self.nodes.iter().find(|n| n.id() == id).expect("node in cluster")
        }
    }

    /// Pushes `node` answered with `behind` and then caught up.
    fn catchups(node: &StoreNode) -> u64 {
        soc_observe::metrics()
            .counter("soc_store_replication_catchups_total", &[("node", node.id())])
            .get()
    }

    #[test]
    fn writes_route_to_primary_and_replicate() {
        let c = cluster(3, 2);
        let cl = client(&c);
        for i in 0..20 {
            cl.put(&format!("key-{i}"), &json!({ "n": i })).unwrap();
        }
        // Every owner of every key holds the write — the primary in its
        // own log, replicas in the primary's shipped stream.
        let map = c.nodes[0].map();
        for i in 0..20 {
            let key = format!("key-{i}");
            for owner in map.owners(&key) {
                let idx: usize = owner.id[1..].parse().unwrap();
                let got = c.nodes[idx].get(&key, 0).unwrap();
                assert!(got.is_some(), "owner {} missing {key}", owner.id);
            }
        }
    }

    #[test]
    fn read_your_writes_falls_back_to_primary_when_replica_is_behind() {
        let c = cluster(3, 2);
        let cl = client(&c);
        let v = cl.put("wanted", &json!("fresh")).unwrap();
        // Write directly on the primary's store without replication
        // (simulates a replica that lost the push), then bump the
        // session floor past what replicas have: a replica read must
        // refuse and the client must fall back to the primary.
        let primary_id = c.nodes[0].map().primary("wanted").unwrap().id.clone();
        let primary_idx: usize = primary_id[1..].parse().unwrap();
        let cmd = KvMachine::put_command("wanted", &json!("fresher"));
        c.nodes[primary_idx].store().execute(&cmd).unwrap();
        let v2 = c.nodes[primary_idx].store().applied_lsn();
        assert!(v2 > v);
        cl.sessions.lock().insert("wanted".into(), v2);
        let (value, version) = cl.get("wanted").unwrap().expect("value");
        assert_eq!(value, json!("fresher"));
        assert_eq!(version, v2);
    }

    #[test]
    fn stale_client_map_is_corrected_by_not_primary_hint() {
        let c = cluster(3, 2);
        let cl = client(&c);
        // Find a key s0 does not own at all (else replication would
        // legitimately hand it a copy), then give the client a one-node
        // map that routes everything to s0.
        let map = c.nodes[0].map();
        let key = (0..200)
            .map(|i| format!("k-{i}"))
            .find(|k| !map.owns("s0", k))
            .expect("some key lands entirely off s0");
        cl.set_map(Arc::new(ShardMap::build(
            99,
            vec![crate::shard::ShardNode { id: "s0".into(), endpoint: "mem://s0".into() }],
            1,
        )));
        let v = cl.put(&key, &json!(1)).unwrap();
        assert!(v >= 1);
        // The hint routed the write to the true primary.
        let primary_idx: usize = map.primary(&key).unwrap().id[1..].parse().unwrap();
        assert!(c.nodes[primary_idx].get(&key, 0).unwrap().is_some());
        // s0 never stored it.
        assert!(c.nodes[0].get(&key, 0).unwrap().is_none());
    }

    #[test]
    fn late_replica_catches_up_via_log_shipping() {
        let net = Arc::new(MemNetwork::new());
        let dir_a = TempDir::new("ship-a");
        let dir_b = TempDir::new("ship-b");
        let a = StoreNode::open(
            StoreNodeConfig::new("a"),
            dir_a.path(),
            net.clone() as Arc<dyn Transport>,
        )
        .unwrap();
        net.host("a", a.router());
        for i in 0..30 {
            a.put(&format!("k{i}"), &json!(i)).unwrap();
        }
        // A replica that joins after the fact pulls the whole log.
        let b = StoreNode::open(
            StoreNodeConfig::new("b"),
            dir_b.path(),
            net.clone() as Arc<dyn Transport>,
        )
        .unwrap();
        assert_eq!(b.sync_from("mem://a").unwrap(), 30);
        assert_eq!(b.replica_applied("a"), a.store().applied_lsn());
        assert_eq!(b.get("k29", 30).unwrap().unwrap().0, json!(29));
        // Idempotent: a second sync ships nothing.
        assert_eq!(b.sync_from("mem://a").unwrap(), 0);
    }

    #[test]
    fn promotion_adopts_replicated_state_with_versions() {
        let c = cluster(2, 2);
        let cl = client(&c);
        let mut versions = HashMap::new();
        for i in 0..12 {
            let key = format!("key-{i}");
            let v = cl.put(&key, &json!(i)).unwrap();
            versions.insert(key, v);
        }
        // s0 dies; s1 promotes s0's stream and becomes sole owner.
        let survivor = c.nodes[1].clone();
        let adopted = survivor.promote("s0").unwrap();
        assert!(adopted > 0, "survivor adopts the dead primary's keys");
        let solo = Arc::new(ShardMap::build(
            2,
            vec![crate::shard::ShardNode { id: "s1".into(), endpoint: "mem://s1".into() }],
            2,
        ));
        survivor.set_map(solo.clone());
        cl.set_map(solo);
        // Every key is readable at (at least) its original version —
        // the old session floors still hold.
        for (key, v) in &versions {
            let (_, got) = cl.get(key).unwrap().expect("promoted key");
            assert!(got >= *v, "{key}: {got} < {v}");
        }
        // New writes never regress a promoted key's version.
        for (key, v) in &versions {
            let nv = cl.put(key, &json!("new")).unwrap();
            assert!(nv > *v, "{key}: new version {nv} <= old {v}");
        }
    }

    #[test]
    fn status_route_reports_progress() {
        let c = cluster(1, 1);
        let cl = client(&c);
        cl.put("x", &json!(1)).unwrap();
        let rest = RestClient::new(c.net.clone() as Arc<dyn Transport>);
        let status = rest.get("mem://s0/store/status").unwrap();
        assert_eq!(status.get("id").and_then(Value::as_str), Some("s0"));
        assert_eq!(status.get("applied").and_then(Value::as_i64), Some(1));
        assert_eq!(status.get("keys").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn node_restart_recovers_own_and_replicated_state() {
        let net = Arc::new(MemNetwork::new());
        let dir = TempDir::new("restart");
        {
            let node = StoreNode::open(
                StoreNodeConfig::new("solo"),
                dir.path(),
                net.clone() as Arc<dyn Transport>,
            )
            .unwrap();
            node.put("persist", &json!({ "v": 7 })).unwrap();
            node.put("doomed", &json!(0)).unwrap();
            node.delete("doomed").unwrap();
            // Also feed a replica stream from a fictional peer.
            node.apply_shipped("peer#1", 1, &[(1, KvMachine::put_command("shipped", &json!(9)))])
                .unwrap();
        }
        let node = StoreNode::open(
            StoreNodeConfig::new("solo"),
            dir.path(),
            net.clone() as Arc<dyn Transport>,
        )
        .unwrap();
        let (v, ver) = node.get("persist", 1).unwrap().unwrap();
        assert_eq!(v, json!({ "v": 7 }));
        assert_eq!(ver, 1);
        assert!(node.get("doomed", 0).unwrap().is_none());
        // The replica stream reopened too (percent-encoded dir name).
        assert_eq!(node.replica_applied("peer#1"), 1);
        assert_eq!(node.get("shipped", 0).unwrap().unwrap().0, json!(9));
    }

    #[test]
    fn in_order_puts_never_bounce() {
        let c = cluster_named("inorder-", 3, 2);
        let cl = client(&c);
        for i in 0..60 {
            cl.put(&format!("key-{}", i % 25), &json!({ "n": i })).unwrap();
        }
        for node in &c.nodes {
            assert_eq!(catchups(node), 0, "{} bounced", node.id());
        }
        // Every replica owner holds every key at the version its
        // primary acknowledged.
        let map = c.nodes[0].map();
        for i in 0..25 {
            let key = format!("key-{i}");
            let owners = map.owners(&key);
            let (_, version) = c.node(&owners[0].id).get(&key, 0).unwrap().unwrap();
            let (_, got) = c.node(&owners[1].id).get(&key, version).unwrap().unwrap();
            assert_eq!(got, version, "{key} on {}", owners[1].id);
        }
    }

    #[test]
    fn lost_pushes_are_shipped_in_order_and_a_reset_replica_is_caught_up_once() {
        let c = cluster_named("lost-", 3, 2);
        let cl = client(&c);
        cl.put("wanted", &json!("fresh")).unwrap();
        let map = c.nodes[0].map();
        let owners = map.owners("wanted");
        let (primary, replica) = (c.node(&owners[0].id), owners[1].id.clone());
        // A record the replica never got (the read-your-writes test's
        // lost push) rides along with the next put's push: no bounce.
        primary.store().execute(&KvMachine::put_command("wanted", &json!("fresher"))).unwrap();
        let lost = primary.store().applied_lsn();
        let v = cl.put("wanted", &json!("freshest")).unwrap();
        assert!(v > lost);
        assert_eq!(catchups(primary), 0);
        assert_eq!(c.node(&replica).replica_applied(primary.id()), v);
        assert_eq!(c.node(&replica).get("wanted", v).unwrap().unwrap().0, json!("freshest"));

        // The replica restarts empty: the primary's cursor is now high,
        // the next push answers `behind`, and one catch-up repairs it.
        let dir = TempDir::new("lost-reset");
        let fresh = StoreNode::open(
            StoreNodeConfig::new(&replica),
            dir.path(),
            c.net.clone() as Arc<dyn Transport>,
        )
        .unwrap();
        fresh.set_map(map.clone());
        c.net.unhost(&replica);
        c.net.host(&replica, fresh.router());
        let v = cl.put("wanted", &json!("after-reset")).unwrap();
        assert_eq!(catchups(primary), 1);
        assert_eq!(fresh.replica_applied(primary.id()), v);
        assert_eq!(fresh.get("wanted", v).unwrap().unwrap().0, json!("after-reset"));
        // Shipping is back in order.
        cl.put("wanted", &json!("steady")).unwrap();
        assert_eq!(catchups(primary), 1);
    }

    #[test]
    fn concurrent_puts_through_one_primary_never_bounce() {
        let c = cluster_named("conc-", 3, 2);
        let map = c.nodes[0].map();
        let primary = c.nodes[0].clone();
        let keys: Vec<String> = (0..400)
            .map(|i| format!("cart-{i}"))
            .filter(|k| map.primary(k).unwrap().id == primary.id())
            .collect();
        // Each replica's first acknowledged push.
        for replica in &c.nodes[1..] {
            let key = keys
                .iter()
                .find(|k| map.owners(k)[1].id == replica.id())
                .expect("a key on each replica");
            primary.put(key, &json!("first")).unwrap();
        }
        let before = catchups(&primary);
        std::thread::scope(|scope| {
            for seed in [11u64, 12] {
                let (primary, keys) = (&primary, &keys);
                scope.spawn(move || {
                    let mut rng = seed;
                    for i in 0..150 {
                        rng =
                            rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = &keys[(rng >> 33) as usize % keys.len()];
                        primary.put(key, &json!({ "seed": (seed as i64), "i": i })).unwrap();
                    }
                });
            }
        });
        assert_eq!(catchups(&primary), before, "concurrent puts bounced off `behind`");
        // Every replica holds every key at the primary's version.
        for key in &keys {
            let Some((value, version)) = primary.get(key, 0).unwrap() else { continue };
            let replica = c.node(&map.owners(key)[1].id);
            assert_eq!(replica.get(key, version).unwrap(), Some((value, version)), "{key}");
        }
    }

    #[test]
    fn put_after_promotion_ships_at_its_lsn_not_the_adopted_version() {
        let c = cluster_named("promo-", 3, 2);
        let cl = client(&c);
        let map = c.nodes[0].map();
        let (dead, heir, third) = (&c.nodes[0], &c.nodes[1], &c.nodes[2]);
        // Give the dead primary a long log, so the keys the heir adopts
        // carry versions far past the heir's own LSNs.
        let theirs: Vec<String> = (0..200)
            .map(|i| format!("item-{i}"))
            .filter(|k| map.primary(k).unwrap().id == dead.id())
            .filter(|k| map.owners(k)[1].id == heir.id())
            .take(8)
            .collect();
        for round in 0..20 {
            for key in &theirs {
                cl.put(key, &json!(round)).unwrap();
            }
        }
        assert!(heir.promote(dead.id()).unwrap() > 0);
        let survivors: Vec<crate::shard::ShardNode> = [heir, third]
            .iter()
            .map(|n| crate::shard::ShardNode {
                id: n.id().to_string(),
                endpoint: format!("mem://{}", n.id()),
            })
            .collect();
        let next = Arc::new(ShardMap::build(2, survivors, 2));
        for node in [heir, third] {
            node.set_map(next.clone());
        }
        cl.set_map(next.clone());
        let key = theirs
            .iter()
            .find(|k| next.primary(k).unwrap().id == heir.id())
            .expect("an adopted key the heir now primaries");
        // The hand-off pulls the heir's log onto the third node, and the
        // heir compacts: its tail no longer reaches back to the cursor
        // it holds for the third node, so the next push ships the put's
        // own record alone — at the LSN the replica's gap check expects.
        third.sync_from(&format!("mem://{}", heir.id())).unwrap();
        heir.store().compact().unwrap();
        let version = cl.put(key, &json!("after-promotion")).unwrap();
        assert!(
            version > heir.store().applied_lsn(),
            "the adopted version {version} must outrun the heir's log"
        );
        assert_eq!(catchups(heir), 0, "the put shipped under the wrong LSN");
        let (value, got) = third.get(key, version).unwrap().expect("replicated");
        assert_eq!((value, got), (json!("after-promotion"), version));
    }
}
