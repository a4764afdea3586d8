//! The mortgage submission ledger — the "bank's database".
//!
//! POST `/mortgage/apply` is the stack's canonical non-idempotent
//! operation: submitting twice opens two applications. This ledger
//! makes the operation replay-safe *and* auditable:
//!
//! - **Dedupe**: the first submission under an `Idempotency-Key`
//!   executes the decision logic and caches the response; replays of
//!   the same key (gateway retries, hedges, workflow re-fires after a
//!   lost response) return the cached response without executing
//!   again.
//! - **Audit**: the ledger counts every *actual execution* per key and
//!   per request body, plus cancellations, so a chaos harness can
//!   assert the real invariants — no logical application executed
//!   twice, compensations exactly balance completed submissions — not
//!   just "the client saw no duplicates".
//! - **Reservation cancels**: because the idempotency key doubles as
//!   the application id, a caller that never saw a response can still
//!   compensate by the key it chose up front
//!   ([`SubmissionLedger::cancel_reservation`]); if the submission
//!   never landed, a tombstone refuses any straggling retry that
//!   arrives later.
//!
//! Replicas of the service share one ledger ([`crate::bindings::ServiceHost::with_ledger`])
//! the way real replicas share a database, so a retry that lands on a
//! different replica still dedupes.
//!
//! ## Durability
//!
//! The ledger state is a [`StateMachine`] run by a [`Durable`]: every
//! mutation is a *decided event* — the decision closure runs first and
//! its response is what gets logged, never re-run — and the same
//! `apply` builds the live state and replays the journal.
//! [`SubmissionLedger::durable`] logs the events to a write-ahead log
//! and acknowledges each only once durable. Reopening the same
//! directory replays the journal (and the newest snapshot, after
//! [`SubmissionLedger::compact`]) to the exact pre-crash state, which
//! is what lets the chaos harness `kill -9` the host mid-campaign and
//! still assert no application executed twice and no cancel orphaned.
//! A ledger built with [`SubmissionLedger::new`] runs the same events
//! on a [`Durable::in_memory`] machine, so its state dies with the
//! process.

use std::collections::HashMap;

use soc_json::Value;
use soc_store::wal::{Lsn, WalConfig};
use soc_store::{Durable, StateMachine, StoreResult};

/// Audit record for one application id (idempotency key).
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Times the decision logic actually executed for this key.
    pub executions: u64,
    /// Times a replay was served from cache instead of executing.
    pub deduped: u64,
    /// Times this application was cancelled (compensation).
    pub cancellations: u64,
    /// Cached response body.
    pub response: String,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, LedgerEntry>,
    // Decision executions per request body — catches duplicates that
    // slipped past the key (e.g. two keys for one logical request).
    by_content: HashMap<String, u64>,
    // Keys cancelled *before* any submission arrived (reservation
    // cancels): a late-landing submission under a tombstoned key is
    // refused instead of opening an application.
    tombstones: std::collections::HashSet<String>,
    keyless: u64,
    orphan_cancels: u64,
}

/// A journal event: `ev` names it, the other pairs are its fields.
fn event(fields: &[(&str, &str)]) -> Vec<u8> {
    let mut ev = Value::object();
    for (name, value) in fields {
        ev.set(*name, *value);
    }
    ev.to_compact().into_bytes()
}

/// The response a submission under a tombstoned key gets.
fn cancelled_response(key: &str) -> String {
    format!("{{\"application_id\":{:?},\"cancelled\":true}}", key)
}

impl Inner {
    /// The response a submission under `key` gets without running the
    /// decision: the cached one, or a cancellation when a reservation
    /// cancel tombstoned the key. `None` for a fresh key.
    fn settled(&self, key: &str) -> Option<String> {
        match self.entries.get(key) {
            Some(entry) => Some(entry.response.clone()),
            None => self.tombstones.contains(key).then(|| cancelled_response(key)),
        }
    }

    fn apply_submission(&mut self, key: &str, content: &str, response: &str) {
        if let Some(entry) = self.entries.get_mut(key) {
            entry.deduped += 1;
            return;
        }
        // A reservation cancel got here first (the original caller gave
        // up on a lost response and compensated): refuse to open the
        // application, recording an already-cancelled entry so the
        // audit shows what happened.
        let (executions, cancellations, response) = if self.tombstones.remove(key) {
            (0, 1, cancelled_response(key))
        } else {
            *self.by_content.entry(content.to_string()).or_insert(0) += 1;
            (1, 0, response.to_string())
        };
        let entry = LedgerEntry { executions, deduped: 0, cancellations, response };
        self.entries.insert(key.to_string(), entry);
    }

    /// Count a cancel against `key`'s entry; a key with no entry gets a
    /// tombstone (`reservation`) or an orphan-cancel mark.
    fn apply_cancel(&mut self, key: &str, reservation: bool) {
        match self.entries.get_mut(key) {
            Some(entry) => entry.cancellations += 1,
            None if reservation => {
                self.tombstones.insert(key.to_string());
            }
            None => self.orphan_cancels += 1,
        }
    }
}

impl StateMachine for Inner {
    fn apply(&mut self, _lsn: Lsn, payload: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        let ev = Value::parse(text).map_err(|e| e.to_string())?;
        let key = ev.get("key").and_then(Value::as_str).unwrap_or_default();
        let content = ev.get("content").and_then(Value::as_str).unwrap_or_default();
        match ev.get("ev").and_then(Value::as_str) {
            Some("apply") => {
                let response = ev.get("response").and_then(Value::as_str).unwrap_or_default();
                self.apply_submission(key, content, response);
            }
            Some("keyless") => {
                self.keyless += 1;
                *self.by_content.entry(content.to_string()).or_insert(0) += 1;
            }
            Some("cancel_reservation") => self.apply_cancel(key, true),
            Some("cancel") => self.apply_cancel(key, false),
            other => return Err(format!("unknown ledger event {other:?}")),
        }
        Ok(())
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut keys: Vec<&String> = self.entries.keys().collect();
        keys.sort();
        let entries: Vec<Value> = keys
            .into_iter()
            .map(|k| {
                let e = &self.entries[k];
                let mut item = Value::object();
                item.set("key", k.as_str());
                item.set("executions", e.executions as i64);
                item.set("deduped", e.deduped as i64);
                item.set("cancellations", e.cancellations as i64);
                item.set("response", e.response.as_str());
                item
            })
            .collect();
        let mut contents: Vec<(&String, &u64)> = self.by_content.iter().collect();
        contents.sort();
        let by_content: Vec<Value> = contents
            .into_iter()
            .map(|(c, n)| {
                let mut item = Value::object();
                item.set("content", c.as_str());
                item.set("n", *n as i64);
                item
            })
            .collect();
        let mut tombstones: Vec<&String> = self.tombstones.iter().collect();
        tombstones.sort();
        let mut snap = Value::object();
        snap.set("entries", Value::Array(entries));
        snap.set("by_content", Value::Array(by_content));
        snap.set(
            "tombstones",
            Value::Array(tombstones.into_iter().map(|t| Value::from(t.as_str())).collect()),
        );
        snap.set("keyless", self.keyless as i64);
        snap.set("orphan_cancels", self.orphan_cancels as i64);
        snap.to_compact().into_bytes()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(snapshot).map_err(|e| e.to_string())?;
        let snap = Value::parse(text).map_err(|e| e.to_string())?;
        *self = Inner::default();
        for item in snap.get("entries").and_then(Value::as_array).ok_or("missing entries")? {
            let key = item.get("key").and_then(Value::as_str).ok_or("entry missing key")?;
            self.entries.insert(
                key.to_string(),
                LedgerEntry {
                    executions: item.get("executions").and_then(Value::as_i64).unwrap_or(0) as u64,
                    deduped: item.get("deduped").and_then(Value::as_i64).unwrap_or(0) as u64,
                    cancellations: item.get("cancellations").and_then(Value::as_i64).unwrap_or(0)
                        as u64,
                    response: item
                        .get("response")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                },
            );
        }
        for item in snap.get("by_content").and_then(Value::as_array).unwrap_or(&[]) {
            let content = item.get("content").and_then(Value::as_str).unwrap_or_default();
            let n = item.get("n").and_then(Value::as_i64).unwrap_or(0) as u64;
            self.by_content.insert(content.to_string(), n);
        }
        for t in snap.get("tombstones").and_then(Value::as_array).unwrap_or(&[]) {
            if let Some(t) = t.as_str() {
                self.tombstones.insert(t.to_string());
            }
        }
        self.keyless = snap.get("keyless").and_then(Value::as_i64).unwrap_or(0) as u64;
        self.orphan_cancels =
            snap.get("orphan_cancels").and_then(Value::as_i64).unwrap_or(0) as u64;
        Ok(())
    }
}

/// Shared submission store for the mortgage service. See module docs.
pub struct SubmissionLedger {
    state: Durable<Inner>,
}

impl Default for SubmissionLedger {
    fn default() -> Self {
        SubmissionLedger::new()
    }
}

impl SubmissionLedger {
    /// An empty, in-memory ledger (state dies with the process).
    pub fn new() -> Self {
        SubmissionLedger { state: Durable::in_memory(Inner::default()) }
    }

    /// A ledger journalled to a write-ahead log in `dir`, recovered to
    /// its pre-crash state if the directory already holds a journal.
    pub fn durable(dir: impl AsRef<std::path::Path>, cfg: WalConfig) -> StoreResult<Self> {
        Ok(SubmissionLedger { state: Durable::open(dir, cfg, Inner::default())? })
    }

    /// Snapshot-then-truncate the journal (durable ledgers only).
    pub fn compact(&self) -> StoreResult<()> {
        self.state.compact().map(drop)
    }

    /// Log and apply the event `decide` builds from the current state,
    /// returning the value it read. A ledger that can no longer
    /// persist fails loudly: acknowledging writes that would vanish on
    /// crash is exactly the lie this type exists to prevent.
    fn commit<R>(&self, decide: impl FnOnce(&Inner) -> (Vec<u8>, R)) -> R {
        match self.state.execute_when(|inner| Some(decide(inner))) {
            Ok(done) => done.expect("every ledger event is logged").1,
            Err(e) => panic!("submission ledger lost durability: {e}"),
        }
    }

    /// Execute-or-replay: runs `decide` only if `key` is new, caching
    /// its response. Returns `(response, replayed)`. `content`
    /// identifies the logical request for duplicate auditing.
    pub fn apply(
        &self,
        key: &str,
        content: &str,
        decide: impl FnOnce() -> String,
    ) -> (String, bool) {
        // Decide before journalling — the journal records *results*, so
        // replay never re-runs the (non-deterministic) decision logic.
        // Execution stays under the lock: replicas share the ledger
        // like a database, and this serializes racing replays of a key.
        self.commit(|inner| {
            let (response, replayed) = match inner.settled(key) {
                Some(settled) => (settled, true),
                None => (decide(), false),
            };
            let logged = if replayed { "" } else { response.as_str() };
            let ev =
                event(&[("ev", "apply"), ("key", key), ("content", content), ("response", logged)]);
            (ev, (response, replayed))
        })
    }

    /// Record a keyless submission (no dedupe possible).
    pub fn note_keyless(&self, content: &str) {
        self.commit(|_| (event(&[("ev", "keyless"), ("content", content)]), ()))
    }

    /// Cancel a submission that may not have arrived yet. An existing
    /// entry is cancelled like [`SubmissionLedger::cancel`]; an unknown
    /// key leaves a tombstone so a late-landing submission under it
    /// (a straggling retry whose caller already compensated) is
    /// refused. This is how a saga undoes a step whose response was
    /// lost before it ever learned a server-side id: it cancels by the
    /// idempotency key it chose up front. Returns whether a landed
    /// submission was cancelled.
    pub fn cancel_reservation(&self, key: &str) -> bool {
        self.commit(|inner| {
            (event(&[("ev", "cancel_reservation"), ("key", key)]), inner.entries.contains_key(key))
        })
    }

    /// Tombstones from reservation cancels that no submission ever
    /// claimed.
    pub fn pending_tombstones(&self) -> u64 {
        self.state.query(|inner| inner.tombstones.len() as u64)
    }

    /// Cancel an application. Returns whether the id was known;
    /// unknown ids are recorded as orphan cancels (a compensation
    /// invariant violation if it ever happens).
    pub fn cancel(&self, key: &str) -> bool {
        self.commit(|inner| {
            (event(&[("ev", "cancel"), ("key", key)]), inner.entries.contains_key(key))
        })
    }

    /// Audit record for one application id.
    pub fn entry(&self, key: &str) -> Option<LedgerEntry> {
        self.state.query(|inner| inner.entries.get(key).cloned())
    }

    /// All application ids, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> =
            self.state.query(|inner| inner.entries.keys().cloned().collect());
        keys.sort();
        keys
    }

    /// Total decision executions (excludes deduped replays).
    pub fn total_executions(&self) -> u64 {
        self.state.query(|inner| {
            inner.entries.values().map(|e| e.executions).sum::<u64>() + inner.keyless
        })
    }

    /// Replays served from cache.
    pub fn total_deduped(&self) -> u64 {
        self.state.query(|inner| inner.entries.values().map(|e| e.deduped).sum())
    }

    /// The worst duplication factor across logical requests: 1 means
    /// every distinct request body executed exactly once.
    pub fn max_executions_per_content(&self) -> u64 {
        self.state.query(|inner| inner.by_content.values().copied().max().unwrap_or(0))
    }

    /// Applications executed and not (yet) cancelled.
    pub fn open_applications(&self) -> u64 {
        self.state
            .query(|inner| inner.entries.values().filter(|e| e.cancellations == 0).count() as u64)
    }

    /// Ids that were cancelled, sorted.
    pub fn cancelled_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.state.query(|inner| {
            inner
                .entries
                .iter()
                .filter(|(_, e)| e.cancellations > 0)
                .map(|(k, _)| k.clone())
                .collect()
        });
        keys.sort();
        keys
    }

    /// Cancels addressed at ids the ledger never saw.
    pub fn orphan_cancels(&self) -> u64 {
        self.state.query(|inner| inner.orphan_cancels)
    }

    /// Submissions that arrived without an idempotency key.
    pub fn keyless_submissions(&self) -> u64 {
        self.state.query(|inner| inner.keyless)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_hit_cache_without_reexecuting() {
        let ledger = SubmissionLedger::new();
        let mut calls = 0;
        let (r1, cached1) = ledger.apply("k1", "app-a", || {
            calls += 1;
            "{\"ok\":1}".to_string()
        });
        assert!(!cached1);
        let (r2, cached2) = ledger.apply("k1", "app-a", || {
            calls += 1;
            "{\"ok\":2}".to_string()
        });
        assert!(cached2);
        assert_eq!(r1, r2);
        assert_eq!(calls, 1);
        assert_eq!(ledger.total_executions(), 1);
        assert_eq!(ledger.total_deduped(), 1);
        assert_eq!(ledger.max_executions_per_content(), 1);
    }

    #[test]
    fn distinct_keys_for_one_body_are_flagged_by_content() {
        let ledger = SubmissionLedger::new();
        ledger.apply("k1", "same-app", || "{}".to_string());
        ledger.apply("k2", "same-app", || "{}".to_string());
        assert_eq!(ledger.max_executions_per_content(), 2);
    }

    #[test]
    fn cancel_balances_and_flags_orphans() {
        let ledger = SubmissionLedger::new();
        ledger.apply("k1", "a", || "{}".to_string());
        ledger.apply("k2", "b", || "{}".to_string());
        assert_eq!(ledger.open_applications(), 2);
        assert!(ledger.cancel("k1"));
        assert!(ledger.cancel("k1")); // cancel is idempotent bookkeeping
        assert_eq!(ledger.open_applications(), 1);
        assert_eq!(ledger.cancelled_keys(), vec!["k1".to_string()]);
        assert!(!ledger.cancel("ghost"));
        assert_eq!(ledger.orphan_cancels(), 1);
    }

    #[test]
    fn reservation_cancel_tombstones_until_the_submission_lands() {
        let ledger = SubmissionLedger::new();
        // Cancel-before-apply: the saga compensated a lost response.
        assert!(!ledger.cancel_reservation("k1"));
        assert_eq!(ledger.pending_tombstones(), 1);
        assert_eq!(ledger.orphan_cancels(), 0, "a reservation cancel is not an orphan");
        // The straggling submission lands later: refused, not opened.
        let (resp, replayed) = ledger.apply("k1", "a", || "should not run".to_string());
        assert!(replayed);
        assert!(resp.contains("\"cancelled\":true"));
        assert_eq!(ledger.open_applications(), 0);
        assert_eq!(ledger.total_executions(), 0);
        assert_eq!(ledger.pending_tombstones(), 0);

        // Cancel-after-apply via the reservation path behaves like a
        // plain cancel.
        ledger.apply("k2", "b", || "{}".to_string());
        assert!(ledger.cancel_reservation("k2"));
        assert_eq!(ledger.open_applications(), 0);
    }

    #[test]
    fn durable_ledger_replays_to_pre_crash_state() {
        let tmp = soc_store::TempDir::new("ledger");
        {
            let ledger = SubmissionLedger::durable(tmp.path(), WalConfig::default()).unwrap();
            let mut calls = 0;
            ledger.apply("k1", "app-a", || {
                calls += 1;
                "{\"ok\":1}".to_string()
            });
            ledger.apply("k1", "app-a", || {
                calls += 1;
                "never".to_string()
            });
            ledger.apply("k2", "app-b", || "{\"ok\":2}".to_string());
            ledger.cancel("k2");
            ledger.cancel_reservation("k3"); // tombstone
            ledger.note_keyless("app-c");
            assert_eq!(calls, 1);
        } // crash
        let ledger = SubmissionLedger::durable(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(ledger.total_executions(), 3, "k1 + k2 + keyless");
        assert_eq!(ledger.total_deduped(), 1);
        assert_eq!(ledger.open_applications(), 1);
        assert_eq!(ledger.cancelled_keys(), vec!["k2".to_string()]);
        assert_eq!(ledger.pending_tombstones(), 1);
        assert_eq!(ledger.keyless_submissions(), 1);
        assert_eq!(ledger.orphan_cancels(), 0);
        // The decision logic is NOT re-run on a replayed key: the
        // cached response survives the crash.
        let (resp, replayed) = ledger.apply("k1", "app-a", || "re-decided".to_string());
        assert!(replayed);
        assert_eq!(resp, "{\"ok\":1}");
        // And the pre-crash tombstone still guards k3.
        let (resp, replayed) = ledger.apply("k3", "app-d", || "should not run".to_string());
        assert!(replayed);
        assert!(resp.contains("\"cancelled\":true"));
    }

    #[test]
    fn durable_ledger_compaction_preserves_audit() {
        let tmp = soc_store::TempDir::new("ledger-compact");
        {
            let ledger = SubmissionLedger::durable(tmp.path(), WalConfig::default()).unwrap();
            for i in 0..10 {
                ledger.apply(&format!("k{i}"), &format!("app-{i}"), || "{}".to_string());
            }
            ledger.cancel("k3");
            ledger.compact().unwrap();
            ledger.apply("k10", "app-10", || "{}".to_string());
        }
        let ledger = SubmissionLedger::durable(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(ledger.total_executions(), 11);
        assert_eq!(ledger.open_applications(), 10);
        assert_eq!(ledger.cancelled_keys(), vec!["k3".to_string()]);
        assert_eq!(ledger.max_executions_per_content(), 1);
    }

    #[test]
    fn keyless_submissions_still_audit_content() {
        let ledger = SubmissionLedger::new();
        ledger.note_keyless("app-a");
        ledger.note_keyless("app-a");
        assert_eq!(ledger.total_executions(), 2);
        assert_eq!(ledger.max_executions_per_content(), 2);
        assert_eq!(ledger.keyless_submissions(), 2);
    }

    #[test]
    fn journal_with_unknown_event_fails_to_open() {
        let tmp = soc_store::TempDir::new("ledger-corrupt");
        {
            let (wal, _) = soc_store::Wal::open(tmp.path()).unwrap();
            wal.append(br#"{"ev":"apply","key":"k1","content":"a","response":"{}"}"#).unwrap();
            wal.append(br#"{"ev":"refund","key":"k1"}"#).unwrap();
        }
        match SubmissionLedger::durable(tmp.path(), WalConfig::default()) {
            Err(soc_store::StoreError::Corrupt(msg)) => assert!(msg.contains("refund"), "{msg}"),
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("a journal with an unknown event must not open"),
        }
    }
}
