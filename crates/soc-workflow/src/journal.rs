//! Durable saga execution: the coordinator's completion log on the
//! `soc-store` write-ahead log.
//!
//! [`SagaJournal`] records three event kinds per saga — `begin`,
//! `node` (a completed forward step with its outputs), and `end` — so
//! a coordinator that crashes mid-saga reopens to the exact set of
//! sagas that began but never finished, each with the nodes it is
//! *known* to have completed. The restarted coordinator then either
//! **resumes** ([`WorkflowGraph::resume_saga`]: seed the journalled
//! completions, execute only the remaining suffix) or **compensates**
//! ([`WorkflowGraph::compensate_saga`]: run the compensators of every
//! journalled completion in reverse topological order) — the paper's
//! dependability story carried across a process boundary.
//!
//! The journal trails reality by at most one in-flight node: a node's
//! completion is logged *before* its outputs are routed, so a crash
//! between a side effect landing and the `node` event reaching disk
//! loses only that one step — which is why compensators must be safe
//! to run when the effect never landed (the same contract in-run
//! compensation already demands of the failed node).
//!
//! Snapshot = the open-saga table only; `end` events delete their saga,
//! so compaction naturally discards finished history.
//!
//! Where the journal *lives* is a separate choice from what it records:
//! the [`Journal`] trait abstracts the storage, [`SagaJournal`] keeps it
//! on a local WAL (recovery requires the same disk), and
//! [`ReplicatedJournal`] keeps it in the replicated durable store — so a
//! coordinator on a *different machine* can pick up the worklist after a
//! crash, reading through version-gated replicas.

use std::collections::HashMap;
use std::time::Duration;

use soc_json::Value;
use soc_parallel::ThreadPool;
use soc_store::wal::{Lsn, WalConfig};
use soc_store::{Durable, StateMachine, StoreClient, StoreResult};

use crate::activity::Ports;
use crate::graph::{WorkflowError, WorkflowGraph};
use crate::saga::{SagaConfig, SagaHook, WorkflowOutcome};

/// What the journal knows about one unfinished saga.
#[derive(Debug, Clone, Default)]
pub struct SagaRecord {
    /// Completed nodes in completion order: `(node name, outputs)`.
    pub completed: Vec<(String, Ports)>,
}

/// The replayable open-saga table.
#[derive(Default)]
struct JournalMachine {
    open: HashMap<String, SagaRecord>,
}

fn ports_to_value(ports: &Ports) -> Value {
    let mut obj = Value::object();
    let mut names: Vec<&String> = ports.keys().collect();
    names.sort();
    for name in names {
        obj.set(name.as_str(), ports[name].clone());
    }
    obj
}

fn ports_from_value(v: &Value) -> Ports {
    let mut ports = Ports::new();
    if let Value::Object(entries) = v {
        for (k, val) in entries {
            ports.insert(k.clone(), val.clone());
        }
    }
    ports
}

impl JournalMachine {
    fn begin_event(saga: &str) -> Vec<u8> {
        let mut ev = Value::object();
        ev.set("ev", "begin");
        ev.set("saga", saga);
        ev.to_compact().into_bytes()
    }

    fn node_event(saga: &str, node: &str, outputs: &Ports) -> Vec<u8> {
        let mut ev = Value::object();
        ev.set("ev", "node");
        ev.set("saga", saga);
        ev.set("node", node);
        ev.set("outputs", ports_to_value(outputs));
        ev.to_compact().into_bytes()
    }

    fn end_event(saga: &str) -> Vec<u8> {
        let mut ev = Value::object();
        ev.set("ev", "end");
        ev.set("saga", saga);
        ev.to_compact().into_bytes()
    }
}

impl StateMachine for JournalMachine {
    fn apply(&mut self, _lsn: Lsn, command: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(command) else { return Ok(()) };
        let Ok(ev) = Value::parse(text) else { return Ok(()) };
        let saga = ev.get("saga").and_then(Value::as_str).unwrap_or_default().to_string();
        match ev.get("ev").and_then(Value::as_str) {
            Some("begin") => {
                self.open.entry(saga).or_default();
            }
            Some("node") => {
                let node = ev.get("node").and_then(Value::as_str).unwrap_or_default().to_string();
                let outputs = ev.get("outputs").map(ports_from_value).unwrap_or_default();
                self.open.entry(saga).or_default().completed.push((node, outputs));
            }
            Some("end") => {
                self.open.remove(&saga);
            }
            _ => {}
        }
        Ok(())
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut ids: Vec<&String> = self.open.keys().collect();
        ids.sort();
        let sagas: Vec<Value> = ids
            .into_iter()
            .map(|id| {
                let rec = &self.open[id];
                let completed: Vec<Value> = rec
                    .completed
                    .iter()
                    .map(|(node, ports)| {
                        let mut step = Value::object();
                        step.set("node", node.as_str());
                        step.set("outputs", ports_to_value(ports));
                        step
                    })
                    .collect();
                let mut saga = Value::object();
                saga.set("saga", id.as_str());
                saga.set("completed", Value::Array(completed));
                saga
            })
            .collect();
        let mut snap = Value::object();
        snap.set("open", Value::Array(sagas));
        snap.to_compact().into_bytes()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(snapshot).map_err(|e| e.to_string())?;
        let snap = Value::parse(text).map_err(|e| e.to_string())?;
        self.open.clear();
        for saga in snap.get("open").and_then(Value::as_array).ok_or("missing open sagas")? {
            let id = saga.get("saga").and_then(Value::as_str).ok_or("saga missing id")?.to_string();
            let mut rec = SagaRecord::default();
            for step in saga.get("completed").and_then(Value::as_array).unwrap_or(&[]) {
                let node = step.get("node").and_then(Value::as_str).unwrap_or_default().to_string();
                let outputs = step.get("outputs").map(ports_from_value).unwrap_or_default();
                rec.completed.push((node, outputs));
            }
            self.open.insert(id, rec);
        }
        Ok(())
    }
}

/// The coordinator's completion log. One journal serves many sagas,
/// keyed by caller-chosen ids (e.g. the gateway request id).
pub struct SagaJournal {
    store: Durable<JournalMachine>,
}

impl SagaJournal {
    /// Open (or recover) the journal in `dir`.
    pub fn open(dir: impl AsRef<std::path::Path>, cfg: WalConfig) -> StoreResult<Self> {
        Ok(SagaJournal { store: Durable::open(dir, cfg, JournalMachine::default())? })
    }

    /// Ids of sagas that began but never ended — the restart worklist.
    pub fn incomplete(&self) -> Vec<String> {
        self.store.query(|m| {
            let mut ids: Vec<String> = m.open.keys().cloned().collect();
            ids.sort();
            ids
        })
    }

    /// What a crashed run is known to have completed for `saga`.
    pub fn record(&self, saga: &str) -> Option<SagaRecord> {
        self.store.query(|m| m.open.get(saga).cloned())
    }

    /// Snapshot-then-truncate: only open sagas survive compaction.
    pub fn compact(&self) -> StoreResult<Lsn> {
        self.store.compact()
    }

    fn log(&self, event: &[u8]) {
        self.store.execute(event).expect("saga journal lost durability");
    }
}

/// Where a coordinator journals saga progress. The contract is the
/// same everywhere — `begin` before the first wave, each completion as
/// it lands, `end` when the saga settles — but implementations differ
/// in *who can recover*: a [`SagaJournal`] needs the same disk back; a
/// [`ReplicatedJournal`] lets any machine that can reach the store
/// fleet pick up the worklist.
///
/// Logging failures panic rather than return: a journal write that is
/// silently dropped is precisely the lost-completion bug the journal
/// exists to prevent, and a coordinator that cannot journal must not
/// keep producing side effects.
pub trait Journal {
    /// Record that `saga` has begun.
    fn log_begin(&self, saga: &str);
    /// Record that `node` completed with `outputs`.
    fn log_node(&self, saga: &str, node: &str, outputs: &Ports);
    /// Record that `saga` settled (completed or compensated).
    fn log_end(&self, saga: &str);
    /// What a crashed run is known to have completed for `saga`.
    fn record(&self, saga: &str) -> Option<SagaRecord>;
    /// Ids of sagas that began but never ended — the restart worklist.
    fn incomplete(&self) -> Vec<String>;
}

impl Journal for SagaJournal {
    fn log_begin(&self, saga: &str) {
        self.log(&JournalMachine::begin_event(saga));
    }

    fn log_node(&self, saga: &str, node: &str, outputs: &Ports) {
        self.log(&JournalMachine::node_event(saga, node, outputs));
    }

    fn log_end(&self, saga: &str) {
        self.log(&JournalMachine::end_event(saga));
    }

    fn record(&self, saga: &str) -> Option<SagaRecord> {
        SagaJournal::record(self, saga)
    }

    fn incomplete(&self) -> Vec<String> {
        SagaJournal::incomplete(self)
    }
}

/// A saga journal kept in the replicated durable store instead of a
/// local WAL, so coordinator recovery is not pinned to one machine.
///
/// Layout under a caller-chosen `scope` (one scope per coordinator
/// fleet): the worklist lives at `saga/{scope}` (an array of open saga
/// ids) and each open saga's completions at `saga/{scope}/{id}`.
/// Progress reads during a run go through the client's version-gated
/// replica path (the session floor guarantees read-your-writes);
/// recovery reads ([`Journal::incomplete`], [`Journal::record`]) use
/// primary-first fresh reads, because a restarted coordinator has no
/// session and must see *other* writers' completions.
///
/// Ordering makes crashes safe without transactions: `begin` adds the
/// id to the worklist before any completion is written (a crash in
/// between re-runs the saga from the top, which saga semantics already
/// tolerate), and `end` removes the id from the worklist *before*
/// deleting the record (a crash in between leaves an unlisted orphan
/// record, not a resurrected saga).
///
/// One coordinator owns a scope at a time; the read-modify-write on the
/// worklist is not safe under concurrent writers.
pub struct ReplicatedJournal {
    client: StoreClient,
    scope: String,
}

impl ReplicatedJournal {
    /// A journal for `scope` speaking through `client` (which must have
    /// a shard map installed or a rebalancer feeding it one).
    pub fn new(client: StoreClient, scope: &str) -> ReplicatedJournal {
        ReplicatedJournal { client, scope: scope.to_string() }
    }

    /// The underlying store client (e.g. to refresh its shard map).
    pub fn client(&self) -> &StoreClient {
        &self.client
    }

    fn index_key(&self) -> String {
        format!("saga/{}", self.scope)
    }

    fn record_key(&self, saga: &str) -> String {
        format!("saga/{}/{}", self.scope, saga)
    }

    /// Put with bounded retries: a store fleet mid-failover refuses
    /// writes briefly (fencing, map flips); the journal rides that out
    /// rather than losing a completion. Panics when the fleet stays
    /// unreachable — see the [`Journal`] contract.
    fn put_retry(&self, key: &str, value: &Value) {
        let mut delay = Duration::from_millis(5);
        for attempt in 0..10 {
            match self.client.put(key, value) {
                Ok(_) => return,
                Err(e) if attempt == 9 => panic!("saga journal lost durability: {e}"),
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(200));
                }
            }
        }
    }

    fn record_to_value(completed: &[(String, Ports)]) -> Value {
        let steps: Vec<Value> = completed
            .iter()
            .map(|(node, ports)| {
                let mut step = Value::object();
                step.set("node", node.as_str());
                step.set("outputs", ports_to_value(ports));
                step
            })
            .collect();
        let mut rec = Value::object();
        rec.set("completed", Value::Array(steps));
        rec
    }

    fn record_from_value(v: &Value) -> SagaRecord {
        let mut rec = SagaRecord::default();
        for step in v.get("completed").and_then(Value::as_array).unwrap_or(&[]) {
            let node = step.get("node").and_then(Value::as_str).unwrap_or_default().to_string();
            let outputs = step.get("outputs").map(ports_from_value).unwrap_or_default();
            rec.completed.push((node, outputs));
        }
        rec
    }

    /// Read-modify-write the worklist through this session's own floor.
    fn update_index(&self, f: impl FnOnce(&mut Vec<String>)) {
        let key = self.index_key();
        let mut ids: Vec<String> = match self.client.get(&key) {
            Ok(Some((v, _))) => v
                .as_array()
                .map(|a| {
                    a.iter().filter_map(|x| x.as_str().map(str::to_string)).collect::<Vec<_>>()
                })
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        f(&mut ids);
        let arr = Value::Array(ids.iter().map(|s| Value::from(s.as_str())).collect());
        self.put_retry(&key, &arr);
    }
}

impl Journal for ReplicatedJournal {
    fn log_begin(&self, saga: &str) {
        // Worklist first: a saga with no record resumes from the top,
        // which is safe; a record with no worklist entry is never
        // recovered, which is not.
        let saga = saga.to_string();
        self.update_index(move |ids| {
            if !ids.contains(&saga) {
                ids.push(saga);
            }
        });
    }

    fn log_node(&self, saga: &str, node: &str, outputs: &Ports) {
        let key = self.record_key(saga);
        let mut completed = match self.client.get(&key) {
            Ok(Some((v, _))) => Self::record_from_value(&v).completed,
            _ => Vec::new(),
        };
        completed.push((node.to_string(), outputs.clone()));
        self.put_retry(&key, &Self::record_to_value(&completed));
    }

    fn log_end(&self, saga: &str) {
        let saga_owned = saga.to_string();
        self.update_index(move |ids| ids.retain(|id| *id != saga_owned));
        let _ = self.client.delete(&self.record_key(saga));
    }

    fn record(&self, saga: &str) -> Option<SagaRecord> {
        match self.client.get_fresh(&self.record_key(saga)) {
            Ok(Some((v, _))) => Some(Self::record_from_value(&v)),
            _ => None,
        }
    }

    fn incomplete(&self) -> Vec<String> {
        let mut ids: Vec<String> = match self.client.get_fresh(&self.index_key()) {
            Ok(Some((v, _))) => v
                .as_array()
                .map(|a| {
                    a.iter().filter_map(|x| x.as_str().map(str::to_string)).collect::<Vec<_>>()
                })
                .unwrap_or_default(),
            _ => Vec::new(),
        };
        ids.sort();
        ids
    }
}

impl WorkflowGraph {
    /// [`WorkflowGraph::run_saga`] with its completion log journalled:
    /// `begin` before the first wave, each completed node as it lands,
    /// `end` when the outcome (completed *or* compensated in-run) is
    /// final. A process that dies in between leaves the saga in
    /// [`SagaJournal::incomplete`] for [`WorkflowGraph::resume_saga`]
    /// or [`WorkflowGraph::compensate_saga`] to settle.
    pub fn run_saga_durable<J: Journal + Sync + ?Sized>(
        &self,
        journal: &J,
        saga_id: &str,
        inputs: &HashMap<String, Value>,
        config: &SagaConfig,
    ) -> Result<WorkflowOutcome, WorkflowError> {
        journal.log_begin(saga_id);
        self.finish_durable(journal, saga_id, SagaRecord::default(), None, inputs, config)
    }

    /// Continue an interrupted saga forward: journalled completions are
    /// seeded (their activities do **not** re-run), the remaining
    /// suffix executes under the same saga semantics, and the journal
    /// entry is closed. If the remainder fails, the compensators of
    /// *all* completed nodes — journalled and new — run as usual.
    pub fn resume_saga<J: Journal + Sync + ?Sized>(
        &self,
        journal: &J,
        saga_id: &str,
        inputs: &HashMap<String, Value>,
        config: &SagaConfig,
    ) -> Result<WorkflowOutcome, WorkflowError> {
        let record = journal.record(saga_id).unwrap_or_default();
        self.finish_durable(journal, saga_id, record, None, inputs, config)
    }

    /// Like [`WorkflowGraph::resume_saga`], on a pool.
    pub fn resume_saga_parallel<J: Journal + Sync + ?Sized>(
        &self,
        pool: &ThreadPool,
        journal: &J,
        saga_id: &str,
        inputs: &HashMap<String, Value>,
        config: &SagaConfig,
    ) -> Result<WorkflowOutcome, WorkflowError> {
        let record = journal.record(saga_id).unwrap_or_default();
        self.finish_durable(journal, saga_id, record, Some(pool), inputs, config)
    }

    /// Abort an interrupted saga: run the compensators of every
    /// journalled completion in reverse topological order, then close
    /// the journal entry. Returns `(compensated, errors)` exactly like
    /// the in-run rollback.
    pub fn compensate_saga<J: Journal + Sync + ?Sized>(
        &self,
        journal: &J,
        saga_id: &str,
    ) -> (Vec<String>, Vec<(String, String)>) {
        let record = journal.record(saga_id).unwrap_or_default();
        let completed: Vec<(usize, Ports)> = record
            .completed
            .iter()
            .filter_map(|(name, ports)| {
                self.nodes.iter().position(|n| n.name == *name).map(|i| (i, ports.clone()))
            })
            .collect();
        let mut span = soc_observe::span("workflow.recover", soc_observe::SpanKind::Internal);
        span.set_text("saga", saga_id);
        span.set_attr("mode", "compensate");
        let _active = span.activate();
        let result = self.compensate(&completed, None, span.context());
        journal.log_end(saga_id);
        result
    }

    fn finish_durable<J: Journal + Sync + ?Sized>(
        &self,
        journal: &J,
        saga_id: &str,
        record: SagaRecord,
        pool: Option<&ThreadPool>,
        inputs: &HashMap<String, Value>,
        config: &SagaConfig,
    ) -> Result<WorkflowOutcome, WorkflowError> {
        let completed: HashMap<String, Ports> = record.completed.into_iter().collect();
        let on_complete = |node: &str, outputs: &Ports| {
            journal.log_node(saga_id, node, outputs);
        };
        let hook = SagaHook { completed, on_complete: &on_complete };
        let outcome = self.run_saga_inner(inputs, pool, config, Some(&hook))?;
        // Compensated outcomes rolled back in-run; either way the saga
        // is settled and leaves the open table.
        journal.log_end(saga_id);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Compute, Const};
    use soc_store::TempDir;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// a -> b -> c, where every node counts executions and a/b register
    /// compensators into `undone`.
    fn chain(
        runs: &Arc<AtomicU32>,
        undone: &Arc<parking_lot::Mutex<Vec<String>>>,
    ) -> WorkflowGraph {
        let mut g = WorkflowGraph::new();
        let a = g.add("a", Const::new(1));
        let rb = runs.clone();
        let b = g.add(
            "b",
            Compute::new(&["x"], move |p| {
                rb.fetch_add(1, Ordering::SeqCst);
                Ok(Value::from(p["x"].as_i64().unwrap_or(0) + 10))
            }),
        );
        let rc = runs.clone();
        let c = g.add(
            "c",
            Compute::new(&["x"], move |p| {
                rc.fetch_add(1, Ordering::SeqCst);
                Ok(Value::from(p["x"].as_i64().unwrap_or(0) * 2))
            }),
        );
        g.connect(a, "out", b, "x").unwrap();
        g.connect(b, "out", c, "x").unwrap();
        for (id, name) in [(a, "a"), (b, "b")] {
            let undone = undone.clone();
            let name = name.to_string();
            g.set_compensation(
                id,
                Compute::new(&[], move |_| {
                    undone.lock().push(name.clone());
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        }
        g
    }

    #[test]
    fn completed_saga_leaves_no_open_entry() {
        let tmp = TempDir::new("saga-journal");
        let journal = SagaJournal::open(tmp.path(), WalConfig::default()).unwrap();
        let runs = Arc::new(AtomicU32::new(0));
        let undone = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = chain(&runs, &undone);
        let out = g
            .run_saga_durable(&journal, "saga-1", &HashMap::new(), &SagaConfig::default())
            .unwrap();
        assert_eq!(out.outputs().unwrap()["c.out"].as_i64(), Some(22));
        assert!(journal.incomplete().is_empty());
    }

    #[test]
    fn crashed_saga_resumes_without_rerunning_completed_nodes() {
        let tmp = TempDir::new("saga-resume");
        // "Crash" after a and b complete: journal begin + two node
        // events by hand, exactly what a killed coordinator leaves.
        {
            let journal = SagaJournal::open(tmp.path(), WalConfig::default()).unwrap();
            journal.log_begin("saga-9");
            let a_out: Ports = [("out".to_string(), Value::from(1))].into();
            journal.log_node("saga-9", "a", &a_out);
            let b_out: Ports = [("out".to_string(), Value::from(11))].into();
            journal.log_node("saga-9", "b", &b_out);
        }
        let journal = SagaJournal::open(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(journal.incomplete(), vec!["saga-9"]);
        let runs = Arc::new(AtomicU32::new(0));
        let undone = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = chain(&runs, &undone);
        let out =
            g.resume_saga(&journal, "saga-9", &HashMap::new(), &SagaConfig::default()).unwrap();
        // Only c ran; a and b were adopted from the journal.
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(out.outputs().unwrap()["c.out"].as_i64(), Some(22));
        assert!(journal.incomplete().is_empty());
    }

    #[test]
    fn crashed_saga_compensates_journalled_completions_in_reverse() {
        let tmp = TempDir::new("saga-comp");
        {
            let journal = SagaJournal::open(tmp.path(), WalConfig::default()).unwrap();
            journal.log_begin("saga-2");
            let a_out: Ports = [("out".to_string(), Value::from(1))].into();
            journal.log_node("saga-2", "a", &a_out);
            let b_out: Ports = [("out".to_string(), Value::from(11))].into();
            journal.log_node("saga-2", "b", &b_out);
        }
        let journal = SagaJournal::open(tmp.path(), WalConfig::default()).unwrap();
        let runs = Arc::new(AtomicU32::new(0));
        let undone = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = chain(&runs, &undone);
        let (compensated, errors) = g.compensate_saga(&journal, "saga-2");
        assert_eq!(compensated, vec!["b".to_string(), "a".to_string()]);
        assert!(errors.is_empty());
        assert_eq!(runs.load(Ordering::SeqCst), 0, "forward path must not re-run");
        assert_eq!(*undone.lock(), vec!["b".to_string(), "a".to_string()]);
        assert!(journal.incomplete().is_empty());
    }

    #[test]
    fn journal_compaction_keeps_only_open_sagas() {
        let tmp = TempDir::new("saga-compact");
        {
            let journal = SagaJournal::open(tmp.path(), WalConfig::default()).unwrap();
            for i in 0..5 {
                journal.log_begin(&format!("done-{i}"));
                journal.log_end(&format!("done-{i}"));
            }
            journal.log_begin("stuck");
            let out: Ports = [("out".to_string(), Value::from(7))].into();
            journal.log_node("stuck", "a", &out);
            journal.compact().unwrap();
        }
        let journal = SagaJournal::open(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(journal.incomplete(), vec!["stuck"]);
        let rec = journal.record("stuck").unwrap();
        assert_eq!(rec.completed.len(), 1);
        assert_eq!(rec.completed[0].0, "a");
        assert_eq!(rec.completed[0].1["out"].as_i64(), Some(7));
    }

    #[test]
    fn failure_after_resume_compensates_adopted_nodes_too() {
        // Journal says a completed; the remaining node always fails, so
        // the resume must roll back the adopted completion.
        let tmp = TempDir::new("saga-resume-fail");
        let mut g = WorkflowGraph::new();
        let a = g.add("a", Const::new(1));
        let boom = g.add("boom", Compute::new(&["x"], |_| Err("kaput".into())));
        g.connect(a, "out", boom, "x").unwrap();
        let undone = Arc::new(AtomicU32::new(0));
        let u = undone.clone();
        g.set_compensation(
            a,
            Compute::new(&[], move |_| {
                u.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            }),
        )
        .unwrap();
        let journal = SagaJournal::open(tmp.path(), WalConfig::default()).unwrap();
        journal.log_begin("s");
        let a_out: Ports = [("out".to_string(), Value::from(1))].into();
        journal.log_node("s", "a", &a_out);
        let out = g.resume_saga(&journal, "s", &HashMap::new(), &SagaConfig::default()).unwrap();
        match out {
            WorkflowOutcome::Compensated { failed_at, compensated, .. } => {
                assert_eq!(failed_at, "boom");
                assert_eq!(compensated, vec!["a".to_string()]);
                assert_eq!(undone.load(Ordering::SeqCst), 1);
            }
            other => panic!("expected compensation, got {other:?}"),
        }
        assert!(journal.incomplete().is_empty());
    }

    /// A two-node replicated store fleet plus a client with the map
    /// installed — the journal's backing for the cross-machine tests.
    fn store_fleet() -> (Arc<soc_http::MemNetwork>, Vec<soc_store::StoreNode>, Vec<TempDir>) {
        use soc_http::mem::Transport;
        let net = Arc::new(soc_http::MemNetwork::new());
        let mut nodes = Vec::new();
        let mut dirs = Vec::new();
        let shard_nodes: Vec<soc_store::ShardNode> = (0..2)
            .map(|i| soc_store::ShardNode { id: format!("s{i}"), endpoint: format!("mem://s{i}") })
            .collect();
        let map = Arc::new(soc_store::ShardMap::build(1, shard_nodes, 2));
        for i in 0..2 {
            let dir = TempDir::new(&format!("repl-journal-{i}"));
            let node = soc_store::StoreNode::open(
                soc_store::StoreNodeConfig::new(&format!("s{i}")),
                dir.path(),
                net.clone() as Arc<dyn Transport>,
            )
            .unwrap();
            net.host(&format!("s{i}"), node.router());
            node.set_map(map.clone());
            nodes.push(node);
            dirs.push(dir);
        }
        (net, nodes, dirs)
    }

    fn journal_client(net: &Arc<soc_http::MemNetwork>) -> soc_store::StoreClient {
        use soc_http::mem::Transport;
        let client = soc_store::StoreClient::new(net.clone() as Arc<dyn Transport>);
        client.set_map(net_map(net));
        client
    }

    fn net_map(_net: &Arc<soc_http::MemNetwork>) -> Arc<soc_store::ShardMap> {
        let shard_nodes: Vec<soc_store::ShardNode> = (0..2)
            .map(|i| soc_store::ShardNode { id: format!("s{i}"), endpoint: format!("mem://s{i}") })
            .collect();
        Arc::new(soc_store::ShardMap::build(1, shard_nodes, 2))
    }

    #[test]
    fn replicated_journal_completes_and_clears_worklist() {
        let (net, _nodes, _dirs) = store_fleet();
        let journal = ReplicatedJournal::new(journal_client(&net), "gw");
        let runs = Arc::new(AtomicU32::new(0));
        let undone = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = chain(&runs, &undone);
        let out = g
            .run_saga_durable(&journal, "saga-r1", &HashMap::new(), &SagaConfig::default())
            .unwrap();
        assert_eq!(out.outputs().unwrap()["c.out"].as_i64(), Some(22));
        assert!(journal.incomplete().is_empty());
    }

    #[test]
    fn replicated_journal_recovers_on_a_second_coordinator() {
        let (net, _nodes, _dirs) = store_fleet();
        // Coordinator 1 "crashes" after journalling a and b.
        {
            let journal = ReplicatedJournal::new(journal_client(&net), "gw");
            journal.log_begin("saga-x");
            let a_out: Ports = [("out".to_string(), Value::from(1))].into();
            journal.log_node("saga-x", "a", &a_out);
            let b_out: Ports = [("out".to_string(), Value::from(11))].into();
            journal.log_node("saga-x", "b", &b_out);
        }
        // Coordinator 2 is a different process with a *fresh* client (no
        // session floors): the worklist and record must still be visible.
        let journal = ReplicatedJournal::new(journal_client(&net), "gw");
        assert_eq!(Journal::incomplete(&journal), vec!["saga-x"]);
        let runs = Arc::new(AtomicU32::new(0));
        let undone = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = chain(&runs, &undone);
        let out =
            g.resume_saga(&journal, "saga-x", &HashMap::new(), &SagaConfig::default()).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "only c re-runs");
        assert_eq!(out.outputs().unwrap()["c.out"].as_i64(), Some(22));
        assert!(Journal::incomplete(&journal).is_empty());
    }

    #[test]
    fn replicated_journal_compensates_from_another_machine() {
        let (net, _nodes, _dirs) = store_fleet();
        {
            let journal = ReplicatedJournal::new(journal_client(&net), "gw");
            journal.log_begin("saga-y");
            let a_out: Ports = [("out".to_string(), Value::from(1))].into();
            journal.log_node("saga-y", "a", &a_out);
        }
        let journal = ReplicatedJournal::new(journal_client(&net), "gw");
        let runs = Arc::new(AtomicU32::new(0));
        let undone = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = chain(&runs, &undone);
        let (compensated, errors) = g.compensate_saga(&journal, "saga-y");
        assert_eq!(compensated, vec!["a".to_string()]);
        assert!(errors.is_empty());
        assert_eq!(*undone.lock(), vec!["a".to_string()]);
        assert!(Journal::incomplete(&journal).is_empty());
    }
}
