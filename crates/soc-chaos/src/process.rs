//! Process-level chaos: `kill -9` a shard primary or a saga
//! coordinator mid-campaign and prove the durable state plane brings
//! the survivors back to a consistent world.
//!
//! The in-process campaigns in [`crate::harness`] inject *network*
//! faults; this module injects *process death*. The `victim` binary
//! (this crate's second bin target) runs either a [`StoreNode`] or a
//! durable saga coordinator as a child process; the campaign driver
//! SIGKILLs it at a seeded point — no signal handler, no destructors,
//! no WAL flush beyond what was already acknowledged — restarts it
//! against the same on-disk state, and then audits the invariants that
//! define crash-consistency:
//!
//! - **no lost writes** — every store write the client saw acknowledged
//!   is readable after replay, with the acknowledged value and a
//!   version at least as new;
//! - **no duplicated applications** — every mortgage application
//!   executed at most once across both coordinator lives
//!   ([`SubmissionLedger::max_executions_per_content`] stays ≤ 1),
//!   because the restarted coordinator resumes or compensates from the
//!   [`SagaJournal`] and re-submissions carry the same deterministic
//!   idempotency key;
//! - **no dangling sagas** — after the second life exits, the journal's
//!   open-saga table is empty.
//!
//! Both campaigns also run without child processes on [`MemNetwork`]
//! (crash = drop the node / unwind the coordinator mid-saga and reopen
//! its WAL directory), so the same invariants are checked on the mem
//! and TCP transports.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use soc_http::{HttpClient, HttpServer, MemNetwork, Request, Response, Status, Transport};
use soc_json::{json, Value};
use soc_rest::RestClient;
use soc_services::bindings::ServiceHost;
use soc_services::ledger::SubmissionLedger;
use soc_store::wal::{Lsn, WalConfig};
use soc_store::{ShardMap, ShardNode, StoreClient, StoreNode, StoreNodeConfig, TempDir};
use soc_workflow::activity::{Activity, ActivityError, Compute, Const, Ports};
use soc_workflow::{SagaConfig, SagaJournal, WorkflowGraph};

// ---------------------------------------------------------------------------
// Deterministic campaign vocabulary (shared with the victim binary)
// ---------------------------------------------------------------------------

/// The idempotency key for run `run` of a seeded campaign. Unlike the
/// trace-derived keys [`soc_workflow::activity::ServiceCall`] mints,
/// this survives a process restart — which is exactly what lets a
/// resumed coordinator re-fire a step whose response was lost and have
/// the ledger dedupe it.
pub fn application_key(seed: u64, run: usize) -> String {
    format!("app-{seed:x}-{run}")
}

/// A distinct mortgage application per run, so the ledger's by-content
/// audit can catch a duplicated decision.
pub fn application_body(seed: u64, run: usize) -> Value {
    let ssn = seed.wrapping_mul(2_654_435_761).wrapping_add(run as u64) % 1_000_000_000;
    json!({
        "name": (format!("proc-{seed:x}-{run}")),
        "ssn": (format!("{ssn:09}")),
        "annual_income": 120_000,
        "loan_amount": 240_000,
        "term_years": 30
    })
}

/// POST one input port's JSON to a fixed URL, optionally under a fixed
/// idempotency key, and emit the response JSON on `out`.
pub struct KeyedPost {
    transport: Arc<dyn Transport>,
    url: String,
    key: Option<String>,
    input: String,
}

impl KeyedPost {
    /// A keyed (or keyless, for non-idempotent fan-out like finalize)
    /// POST activity reading its body from input port `input`.
    pub fn new(
        transport: Arc<dyn Transport>,
        url: impl Into<String>,
        key: Option<&str>,
        input: &str,
    ) -> KeyedPost {
        KeyedPost {
            transport,
            url: url.into(),
            key: key.map(str::to_string),
            input: input.to_string(),
        }
    }
}

impl Activity for KeyedPost {
    fn inputs(&self) -> Vec<String> {
        vec![self.input.clone()]
    }

    fn outputs(&self) -> Vec<String> {
        vec!["out".to_string()]
    }

    fn execute(&self, inputs: &Ports) -> Result<Ports, ActivityError> {
        let body = inputs[&self.input].to_compact().into_bytes();
        let mut req =
            Request::post(self.url.clone(), body).with_header("Content-Type", "application/json");
        if let Some(key) = &self.key {
            req = req.with_idempotency_key(key);
        }
        let resp = self.transport.send(req).map_err(|e| ActivityError::Service(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(ActivityError::Service(format!("{} returned {}", self.url, resp.status.0)));
        }
        let text = resp.text_body().map_err(|e| ActivityError::Service(e.to_string()))?;
        let value = Value::parse(text)
            .map_err(|e| ActivityError::Service(format!("bad JSON from {}: {e:?}", self.url)))?;
        Ok([("out".to_string(), value)].into())
    }
}

/// Compensator for a keyed submission: cancel the reservation under
/// the key chosen up front. Safe whether or not the submission ever
/// landed — an unknown key leaves a tombstone that refuses a
/// straggling replay, so this never produces an orphan cancel.
pub struct KeyedCancel {
    transport: Arc<dyn Transport>,
    base: String,
    key: String,
}

impl Activity for KeyedCancel {
    fn inputs(&self) -> Vec<String> {
        Vec::new()
    }

    fn outputs(&self) -> Vec<String> {
        vec!["out".to_string()]
    }

    fn execute(&self, _inputs: &Ports) -> Result<Ports, ActivityError> {
        let body = json!({ "application_id": (self.key.as_str()) }).to_compact().into_bytes();
        let req = Request::post(format!("{}/mortgage/cancel-reservation", self.base), body)
            .with_header("Content-Type", "application/json");
        let resp = self.transport.send(req).map_err(|e| ActivityError::Service(e.to_string()))?;
        if !resp.status.is_success() {
            return Err(ActivityError::Service(format!(
                "cancel-reservation returned {}",
                resp.status.0
            )));
        }
        Ok([("out".to_string(), Value::Null)].into())
    }
}

/// The three-node saga every coordinator campaign runs:
/// `application` (constant) → `apply` (idempotency-keyed POST to the
/// mortgage service, compensated by a reservation cancel) → `finalize`
/// (caller-supplied — the slow or crashing step the kill lands in).
pub fn mortgage_saga(
    transport: &Arc<dyn Transport>,
    mortgage_base: &str,
    key: &str,
    body: Value,
    finalize: impl Activity + 'static,
) -> WorkflowGraph {
    let mut g = WorkflowGraph::new();
    let app = g.add("application", Const::new(body));
    let apply = g.add(
        "apply",
        KeyedPost::new(
            transport.clone(),
            format!("{mortgage_base}/mortgage/apply"),
            Some(key),
            "application",
        ),
    );
    let fin = g.add("finalize", finalize);
    g.connect(app, "out", apply, "application").expect("wire application -> apply");
    g.connect(apply, "out", fin, "decision").expect("wire apply -> finalize");
    g.set_compensation(
        apply,
        KeyedCancel {
            transport: transport.clone(),
            base: mortgage_base.to_string(),
            key: key.to_string(),
        },
    )
    .expect("apply compensator");
    g
}

/// How a restarted coordinator settles the sagas its previous life
/// left open in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Seed journalled completions and run the remaining suffix.
    Resume,
    /// Run the compensators of every journalled completion in reverse.
    Compensate,
}

impl RecoveryMode {
    /// Command-line form, for the victim binary.
    pub fn as_str(self) -> &'static str {
        match self {
            RecoveryMode::Resume => "resume",
            RecoveryMode::Compensate => "compensate",
        }
    }

    /// Parse the command-line form.
    pub fn parse(s: &str) -> Option<RecoveryMode> {
        match s {
            "resume" => Some(RecoveryMode::Resume),
            "compensate" => Some(RecoveryMode::Compensate),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The child process under test
// ---------------------------------------------------------------------------

/// A child process under test: spawned with piped stdout, killed with
/// SIGKILL (never a graceful shutdown), restartable with the same
/// arguments against the same on-disk state.
pub struct Victim {
    exe: String,
    args: Vec<String>,
    child: Child,
    lines: BufReader<std::process::ChildStdout>,
}

impl Victim {
    /// Spawn `exe args...` with stdout piped back to the campaign.
    pub fn spawn(exe: &str, args: &[String]) -> io::Result<Victim> {
        let mut child = Command::new(exe).args(args).stdout(Stdio::piped()).spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        Ok(Victim {
            exe: exe.to_string(),
            args: args.to_vec(),
            child,
            lines: BufReader::new(stdout),
        })
    }

    /// Next stdout line, or `None` once the child's stdout closes.
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        let mut line = String::new();
        if self.lines.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        Ok(Some(line.trim_end().to_string()))
    }

    /// Read until a line starting with `prefix`; returns the remainder
    /// of that line. Errors if the child exits first.
    pub fn expect_line(&mut self, prefix: &str) -> io::Result<String> {
        while let Some(line) = self.next_line()? {
            if let Some(rest) = line.strip_prefix(prefix) {
                return Ok(rest.trim().to_string());
            }
        }
        Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("child exited before printing {prefix:?}"),
        ))
    }

    /// `kill -9`: no signal handler runs, no buffers flush, no
    /// destructor executes. Reaps the child.
    pub fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Respawn the same command line — same directories, same identity
    /// — so the new incarnation recovers from the old one's WAL.
    pub fn restart(&mut self) -> io::Result<()> {
        let fresh = Victim::spawn(&self.exe, &self.args)?;
        let mut old = std::mem::replace(self, fresh);
        old.kill9();
        Ok(())
    }

    /// Wait for the child to exit; true on a zero status.
    pub fn wait_success(&mut self) -> io::Result<bool> {
        Ok(self.child.wait()?.success())
    }
}

impl Drop for Victim {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Store-primary kill campaigns
// ---------------------------------------------------------------------------

/// Knobs for a store-primary kill campaign.
#[derive(Debug, Clone)]
pub struct StoreKillConfig {
    /// Seeds key names and payloads.
    pub seed: u64,
    /// Store nodes in the fleet.
    pub nodes: usize,
    /// N-way replication factor for the shard map.
    pub replication: usize,
    /// Distinct keys written each round.
    pub keys: usize,
    /// Write rounds (every key is rewritten per round).
    pub rounds: usize,
    /// Round at whose start the first key's primary is killed.
    pub kill_round: usize,
}

impl Default for StoreKillConfig {
    fn default() -> StoreKillConfig {
        StoreKillConfig {
            seed: 0xC0FFEE,
            nodes: 3,
            replication: 2,
            keys: 16,
            rounds: 4,
            kill_round: 2,
        }
    }
}

/// What a store kill campaign observed; [`StoreKillReport::violations`]
/// is the verdict.
#[derive(Debug, Default)]
pub struct StoreKillReport {
    /// Writes the client saw acknowledged.
    pub acked: usize,
    /// Nodes killed and restarted.
    pub restarts: usize,
    /// Id of the killed primary.
    pub killed: String,
    /// Writes refused while the primary was down (the window is real).
    pub failed_writes: usize,
    /// Acked keys unreadable after recovery.
    pub lost: Vec<String>,
    /// Acked keys that read back a different value.
    pub mismatched: Vec<String>,
    /// Acked keys that read back an older version than acknowledged.
    pub stale: Vec<String>,
}

impl StoreKillReport {
    /// Invariant violations; empty means the campaign passed.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.restarts == 0 {
            v.push("campaign never killed a primary".to_string());
        }
        if !self.lost.is_empty() {
            v.push(format!("acked writes lost after recovery: {:?}", self.lost));
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

fn key_name(seed: u64, k: usize) -> String {
    format!("k{seed:x}-{k}")
}

/// One store fleet the campaign can address, kill, and restart —
/// child processes over TCP or in-process nodes on [`MemNetwork`].
trait StoreFleet {
    fn ids(&self) -> &[String];
    fn endpoint(&self, idx: usize) -> String;
    fn transport(&self) -> Arc<dyn Transport>;
    fn kill(&mut self, idx: usize);
    fn restart(&mut self, idx: usize) -> io::Result<()>;
}

/// Publish the fleet's current shard map to every node (over the
/// `POST /store/map` route, same as a registry-driven rebalance) and
/// install it in the client.
fn publish_map(
    fleet: &dyn StoreFleet,
    client: &StoreClient,
    version: u64,
    replication: usize,
) -> io::Result<Arc<ShardMap>> {
    let rest = RestClient::new(fleet.transport());
    let nodes: Vec<ShardNode> = fleet
        .ids()
        .iter()
        .enumerate()
        .map(|(i, id)| ShardNode { id: id.clone(), endpoint: fleet.endpoint(i) })
        .collect();
    let map = Arc::new(ShardMap::build(version, nodes, replication));
    for node in map.nodes() {
        rest.post(&format!("{}/store/map", node.endpoint), &map.to_json())
            .map_err(|e| io::Error::other(format!("publish map to {}: {e:?}", node.id)))?;
    }
    client.set_map(map.clone());
    Ok(map)
}

/// Put through `client`, retrying every 25 ms for up to `attempts`
/// tries while the fleet fails over or rebalances.
pub(crate) fn put_with_retry(
    client: &StoreClient,
    key: &str,
    value: &Value,
    attempts: u32,
) -> io::Result<Lsn> {
    let mut last = String::new();
    for _ in 0..attempts {
        match client.put(key, value) {
            Ok(v) => return Ok(v),
            Err(e) => {
                last = format!("{e:?}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    Err(io::Error::other(format!("write of {key} never succeeded: {last}")))
}

fn drive_store_kill(
    fleet: &mut dyn StoreFleet,
    cfg: &StoreKillConfig,
) -> io::Result<StoreKillReport> {
    let client = StoreClient::new(fleet.transport());
    let mut version = 1;
    publish_map(fleet, &client, version, cfg.replication)?;

    let mut report = StoreKillReport::default();
    let mut expected: HashMap<String, (Value, Lsn)> = HashMap::new();

    for round in 0..cfg.rounds {
        if round == cfg.kill_round {
            // The first key's primary dies mid-campaign. Prove the
            // window is real — a write routed at the dead primary must
            // fail rather than falsely acknowledge — then restart it
            // against the same WAL directory and republish the map
            // (its new incarnation comes up empty-mapped and, over
            // TCP, on a new port).
            let victim_key = key_name(cfg.seed, 0);
            let primary_id = client.map().primary(&victim_key).expect("ring has nodes").id.clone();
            let idx = fleet.ids().iter().position(|id| *id == primary_id).expect("known id");
            report.killed = primary_id;
            fleet.kill(idx);
            if client.put(&victim_key, &json!({ "round": (-1) })).is_err() {
                report.failed_writes += 1;
            }
            fleet.restart(idx)?;
            report.restarts += 1;
            version += 1;
            publish_map(fleet, &client, version, cfg.replication)?;
        }
        for k in 0..cfg.keys {
            let key = key_name(cfg.seed, k);
            let value = json!({
                "seed": (cfg.seed as i64),
                "key": (k as i64),
                "round": (round as i64)
            });
            let ver = put_with_retry(&client, &key, &value, 20)?;
            expected.insert(key, (value, ver));
            report.acked += 1;
        }
    }

    // Every acknowledged write must survive the crash: readable, the
    // acknowledged value, at a version no older than acknowledged.
    for (key, (value, ver)) in &expected {
        match client.get(key) {
            Ok(Some((got, gv))) => {
                if got != *value {
                    report.mismatched.push(key.clone());
                }
                if gv < *ver {
                    report.stale.push(key.clone());
                }
            }
            Ok(None) | Err(_) => report.lost.push(key.clone()),
        }
    }
    Ok(report)
}

struct TcpStoreFleet {
    ids: Vec<String>,
    endpoints: Vec<String>,
    victims: Vec<Victim>,
    _dirs: Vec<TempDir>,
    http: Arc<HttpClient>,
}

impl StoreFleet for TcpStoreFleet {
    fn ids(&self) -> &[String] {
        &self.ids
    }

    fn endpoint(&self, idx: usize) -> String {
        self.endpoints[idx].clone()
    }

    fn transport(&self) -> Arc<dyn Transport> {
        self.http.clone()
    }

    fn kill(&mut self, idx: usize) {
        self.victims[idx].kill9();
    }

    fn restart(&mut self, idx: usize) -> io::Result<()> {
        self.victims[idx].restart()?;
        self.endpoints[idx] = self.victims[idx].expect_line("READY")?;
        Ok(())
    }
}

/// Kill -9 a shard primary mid-campaign over real sockets: store nodes
/// run as child processes of the `victim` binary, the killed one is
/// respawned against its WAL directory, and every acknowledged write
/// must survive the replay.
pub fn run_tcp_store_kill(victim_exe: &str, cfg: &StoreKillConfig) -> io::Result<StoreKillReport> {
    let dirs: Vec<TempDir> =
        (0..cfg.nodes).map(|i| TempDir::new(&format!("kill-store-{i}"))).collect();
    let ids: Vec<String> = (0..cfg.nodes).map(|i| format!("store-{i}")).collect();
    let mut victims = Vec::new();
    let mut endpoints = Vec::new();
    for i in 0..cfg.nodes {
        let args = vec!["store".to_string(), dirs[i].path().display().to_string(), ids[i].clone()];
        let mut v = Victim::spawn(victim_exe, &args)?;
        endpoints.push(v.expect_line("READY")?);
        victims.push(v);
    }
    let mut fleet =
        TcpStoreFleet { ids, endpoints, victims, _dirs: dirs, http: Arc::new(HttpClient::new()) };
    drive_store_kill(&mut fleet, cfg)
}

struct MemStoreFleet {
    ids: Vec<String>,
    nodes: Vec<Option<StoreNode>>,
    dirs: Vec<TempDir>,
    net: Arc<MemNetwork>,
}

impl MemStoreFleet {
    fn open(&self, idx: usize) -> io::Result<StoreNode> {
        StoreNode::open(
            StoreNodeConfig::new(&self.ids[idx]),
            self.dirs[idx].path(),
            self.net.clone(),
        )
        .map_err(|e| io::Error::other(format!("reopen {}: {e:?}", self.ids[idx])))
    }
}

impl StoreFleet for MemStoreFleet {
    fn ids(&self) -> &[String] {
        &self.ids
    }

    fn endpoint(&self, idx: usize) -> String {
        format!("mem://{}", self.ids[idx])
    }

    fn transport(&self) -> Arc<dyn Transport> {
        self.net.clone()
    }

    fn kill(&mut self, idx: usize) {
        // As close to kill -9 as one process allows: unhost (the
        // router's clone drops) and drop our handle without any
        // graceful shutdown or compaction. Acknowledged writes are
        // already on disk by the WAL's ack contract.
        self.net.unhost(&self.ids[idx]);
        self.nodes[idx] = None;
    }

    fn restart(&mut self, idx: usize) -> io::Result<()> {
        let node = self.open(idx)?;
        self.net.host(&self.ids[idx], node.router());
        self.nodes[idx] = Some(node);
        Ok(())
    }
}

/// The store-primary kill campaign on the in-memory transport: the
/// "crash" drops the node without compaction or shutdown and reopens
/// its WAL directory. Same invariants as [`run_tcp_store_kill`].
pub fn run_mem_store_kill(cfg: &StoreKillConfig) -> io::Result<StoreKillReport> {
    let net = Arc::new(MemNetwork::new());
    let dirs: Vec<TempDir> =
        (0..cfg.nodes).map(|i| TempDir::new(&format!("mem-kill-store-{i}"))).collect();
    let ids: Vec<String> = (0..cfg.nodes).map(|i| format!("mstore-{i}")).collect();
    let mut fleet = MemStoreFleet { ids, nodes: Vec::new(), dirs, net };
    for i in 0..cfg.nodes {
        let node = fleet.open(i)?;
        fleet.net.host(&fleet.ids[i], node.router());
        fleet.nodes.push(Some(node));
    }
    drive_store_kill(&mut fleet, cfg)
}

// ---------------------------------------------------------------------------
// Coordinator kill campaigns
// ---------------------------------------------------------------------------

/// Knobs for a saga-coordinator kill campaign.
#[derive(Debug, Clone)]
pub struct CoordKillConfig {
    /// Seeds idempotency keys and application bodies.
    pub seed: u64,
    /// Sagas the campaign runs.
    pub runs: usize,
    /// Run during which the coordinator is killed.
    pub kill_run: usize,
    /// How the restarted coordinator settles open sagas.
    pub mode: RecoveryMode,
    /// How long the finalize step stalls — the width of the kill
    /// window between the journalled `apply` and the saga's `end`.
    pub finalize_delay: Duration,
    /// Delay between the victim announcing the kill run and SIGKILL.
    pub kill_delay: Duration,
}

impl Default for CoordKillConfig {
    fn default() -> CoordKillConfig {
        CoordKillConfig {
            seed: 7,
            runs: 6,
            kill_run: 3,
            mode: RecoveryMode::Resume,
            finalize_delay: Duration::from_millis(150),
            kill_delay: Duration::from_millis(50),
        }
    }
}

/// Ledger + journal audit after both coordinator lives.
#[derive(Debug)]
pub struct CoordKillReport {
    /// The campaign that produced this report.
    pub cfg_runs: usize,
    /// The killed run's idempotency key.
    pub kill_key: String,
    /// Recovery mode the second life used.
    pub mode: RecoveryMode,
    /// `(key, executions, cancellations)` for every ledger entry.
    pub entries: Vec<(String, u64, u64)>,
    /// Expected keys with no ledger entry at all.
    pub missing: Vec<String>,
    /// Worst duplication factor across application bodies.
    pub max_per_content: u64,
    /// Cancels addressed at ids the ledger never saw.
    pub orphan_cancels: u64,
    /// Submissions that arrived without an idempotency key.
    pub keyless: u64,
    /// Reservation tombstones no submission ever claimed.
    pub pending_tombstones: u64,
    /// Open sagas left in the journal after the second life.
    pub incomplete_after: Vec<String>,
    /// `SETTLED ...` lines the second life reported.
    pub settled: Vec<String>,
    /// Whether the second life exited cleanly.
    pub clean_exit: bool,
}

impl CoordKillReport {
    /// Invariant violations; empty means the campaign passed.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.clean_exit {
            v.push("restarted coordinator did not exit cleanly".to_string());
        }
        if !self.incomplete_after.is_empty() {
            v.push(format!("sagas left open after recovery: {:?}", self.incomplete_after));
        }
        if self.max_per_content > 1 {
            v.push(format!(
                "an application decided {} times (duplicate execution)",
                self.max_per_content
            ));
        }
        if self.orphan_cancels > 0 {
            v.push(format!("{} cancels hit unknown applications", self.orphan_cancels));
        }
        if self.keyless > 0 {
            v.push(format!("{} submissions arrived keyless", self.keyless));
        }
        for (key, execs, cancels) in &self.entries {
            if *execs != 1 {
                v.push(format!("{key} executed {execs} times"));
            }
            let is_kill = *key == self.kill_key;
            if *cancels > 0 && !(is_kill && self.mode == RecoveryMode::Compensate) {
                v.push(format!("{key} was cancelled unexpectedly"));
            }
        }
        match self.mode {
            RecoveryMode::Resume => {
                // Every run must have landed exactly once.
                if !self.missing.is_empty() {
                    v.push(format!("applications never landed: {:?}", self.missing));
                }
            }
            RecoveryMode::Compensate => {
                // Only the killed run may be missing, and only if its
                // reservation was tombstoned before it ever landed.
                for key in &self.missing {
                    if *key != self.kill_key {
                        v.push(format!("application {key} never landed"));
                    } else if self.pending_tombstones == 0 {
                        v.push(format!("{key} missing without a reservation tombstone"));
                    }
                }
            }
        }
        v
    }
}

fn audit_coordinator(
    cfg: &CoordKillConfig,
    ledger: &SubmissionLedger,
    incomplete_after: Vec<String>,
    settled: Vec<String>,
    clean_exit: bool,
) -> CoordKillReport {
    let mut entries = Vec::new();
    let mut missing = Vec::new();
    for run in 0..cfg.runs {
        let key = application_key(cfg.seed, run);
        match ledger.entry(&key) {
            Some(e) => entries.push((key, e.executions, e.cancellations)),
            None => missing.push(key),
        }
    }
    CoordKillReport {
        cfg_runs: cfg.runs,
        kill_key: application_key(cfg.seed, cfg.kill_run),
        mode: cfg.mode,
        entries,
        missing,
        max_per_content: ledger.max_executions_per_content(),
        orphan_cancels: ledger.orphan_cancels(),
        keyless: ledger.keyless_submissions(),
        pending_tombstones: ledger.pending_tombstones(),
        incomplete_after,
        settled,
        clean_exit,
    }
}

/// Kill -9 a durable saga coordinator mid-run over real sockets. The
/// parent hosts the mortgage service (shared ledger) and a slow
/// finalize service; the `victim` binary is the coordinator. It dies
/// inside the kill run's finalize window, restarts against the same
/// journal directory, settles the open saga per [`RecoveryMode`], and
/// finishes the campaign — after which the ledger must show every
/// application decided at most once and the journal no open sagas.
pub fn run_tcp_coordinator_kill(
    victim_exe: &str,
    cfg: &CoordKillConfig,
) -> io::Result<CoordKillReport> {
    let ledger = Arc::new(SubmissionLedger::new());
    let mortgage =
        HttpServer::bind("127.0.0.1:0", 4, ServiceHost::with_ledger(cfg.seed, ledger.clone()))
            .map_err(|e| io::Error::other(format!("bind mortgage host: {e:?}")))?;
    let delay = cfg.finalize_delay;
    let finalize = HttpServer::bind("127.0.0.1:0", 4, move |req: Request| {
        if req.path() == "/finalize" {
            std::thread::sleep(delay);
            Response::json(&json!({ "finalized": true }).to_compact())
        } else {
            Response::error(Status::NOT_FOUND, "unknown route")
        }
    })
    .map_err(|e| io::Error::other(format!("bind finalize host: {e:?}")))?;

    let journal_dir = TempDir::new("kill-saga");
    let args = vec![
        "coordinator".to_string(),
        journal_dir.path().display().to_string(),
        mortgage.url(),
        finalize.url(),
        cfg.seed.to_string(),
        cfg.runs.to_string(),
        "0".to_string(),
        cfg.mode.as_str().to_string(),
    ];

    // First life: wait for the kill run to start, give its apply time
    // to land and journal, then SIGKILL mid-finalize.
    let mut victim = Victim::spawn(victim_exe, &args)?;
    let needle = format!("RUN {}", cfg.kill_run);
    loop {
        match victim.next_line()? {
            Some(line) if line == needle => {
                std::thread::sleep(cfg.kill_delay);
                victim.kill9();
                break;
            }
            Some(_) => {}
            None => break,
        }
    }

    // Second life: same arguments, same journal directory. It settles
    // the open saga, re-walks the campaign (replays dedupe), and exits.
    victim.restart()?;
    let mut settled = Vec::new();
    let clean_exit = loop {
        match victim.next_line()? {
            Some(line) if line.starts_with("SETTLED") => settled.push(line),
            Some(line) if line == "DONE" => break victim.wait_success()?,
            Some(_) => {}
            None => break false,
        }
    };
    drop(victim);

    let journal = SagaJournal::open(journal_dir.path(), WalConfig::default())
        .map_err(|e| io::Error::other(format!("reopen journal: {e:?}")))?;
    Ok(audit_coordinator(cfg, &ledger, journal.incomplete(), settled, clean_exit))
}

/// The coordinator kill campaign on the in-memory transport. The
/// "crash" is a panic planted in the kill run's finalize step: the
/// saga unwinds past its `end` event (journalled completions stay),
/// the journal handle is dropped cold, and a second life reopens the
/// directory to settle and finish. Same invariants as
/// [`run_tcp_coordinator_kill`].
pub fn run_mem_coordinator_kill(cfg: &CoordKillConfig) -> io::Result<CoordKillReport> {
    let net = Arc::new(MemNetwork::new());
    let ledger = Arc::new(SubmissionLedger::new());
    net.host("services", ServiceHost::with_ledger(cfg.seed, ledger.clone()));
    let transport: Arc<dyn Transport> = net.clone();
    let base = "mem://services";
    let journal_dir = TempDir::new("mem-kill-saga");
    let saga_cfg = SagaConfig::default();

    let healthy_finalize = || Compute::new(&["decision"], |_| Ok(Value::from(true)));

    // First life: runs until the planted panic "kills" the process.
    let crashed = {
        let journal = SagaJournal::open(journal_dir.path(), WalConfig::default())
            .map_err(|e| io::Error::other(format!("open journal: {e:?}")))?;
        let mut died = false;
        for run in 0..cfg.runs {
            let lethal = run == cfg.kill_run;
            let fin = Compute::new(&["decision"], move |_| {
                if lethal {
                    panic!("simulated kill -9: finalize never returns");
                }
                Ok(Value::from(true))
            });
            let g = mortgage_saga(
                &transport,
                base,
                &application_key(cfg.seed, run),
                application_body(cfg.seed, run),
                fin,
            );
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.run_saga_durable(&journal, &format!("saga-{run}"), &HashMap::new(), &saga_cfg)
            }));
            std::panic::set_hook(hook);
            match result {
                Ok(outcome) => {
                    outcome.map_err(|e| io::Error::other(format!("saga run {run}: {e:?}")))?;
                }
                Err(_) => {
                    died = true;
                    break;
                }
            }
        }
        died
    };

    // Second life: reopen, settle, finish. Re-walking earlier runs is
    // deliberate — their keyed applies must dedupe, not duplicate.
    let journal = SagaJournal::open(journal_dir.path(), WalConfig::default())
        .map_err(|e| io::Error::other(format!("reopen journal: {e:?}")))?;
    let mut settled = Vec::new();
    let mut settled_ids = HashSet::new();
    for saga_id in journal.incomplete() {
        let run: usize = saga_id.strip_prefix("saga-").and_then(|s| s.parse().ok()).unwrap_or(0);
        let g = mortgage_saga(
            &transport,
            base,
            &application_key(cfg.seed, run),
            application_body(cfg.seed, run),
            healthy_finalize(),
        );
        match cfg.mode {
            RecoveryMode::Resume => {
                g.resume_saga(&journal, &saga_id, &HashMap::new(), &saga_cfg)
                    .map_err(|e| io::Error::other(format!("resume {saga_id}: {e:?}")))?;
                settled.push(format!("SETTLED {saga_id} resumed"));
            }
            RecoveryMode::Compensate => {
                let (_, errors) = g.compensate_saga(&journal, &saga_id);
                if !errors.is_empty() {
                    return Err(io::Error::other(format!("compensate {saga_id}: {errors:?}")));
                }
                settled.push(format!("SETTLED {saga_id} compensated"));
            }
        }
        settled_ids.insert(saga_id);
    }
    for run in 0..cfg.runs {
        let saga_id = format!("saga-{run}");
        if settled_ids.contains(&saga_id) {
            continue;
        }
        let g = mortgage_saga(
            &transport,
            base,
            &application_key(cfg.seed, run),
            application_body(cfg.seed, run),
            healthy_finalize(),
        );
        g.run_saga_durable(&journal, &saga_id, &HashMap::new(), &saga_cfg)
            .map_err(|e| io::Error::other(format!("rerun {saga_id}: {e:?}")))?;
    }

    let incomplete = journal.incomplete();
    let mut report = audit_coordinator(cfg, &ledger, incomplete, settled, true);
    if !crashed {
        report.clean_exit = false; // the kill never landed: campaign invalid
    }
    Ok(report)
}
