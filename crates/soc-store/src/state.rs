//! The deterministic-replay contract: a [`StateMachine`] applies
//! logged commands, and [`Durable`] pairs one with a [`Wal`] so the
//! machine reopens to its exact pre-crash state.
//!
//! A [`Durable::in_memory`] machine runs the same commands through the
//! same `apply` with no log behind it: LSNs still count up, durability
//! waits return at once, and compaction is a no-op. Services that
//! offer both an in-memory and a journalled constructor pick the mode
//! here, once, instead of branching on an optional log themselves.

use parking_lot::Mutex;

use crate::wal::{Lsn, Replayed, Wal, WalConfig};
use crate::{StoreError, StoreResult};

/// A component whose every mutation is a logged command.
///
/// `apply` must be **deterministic**: replaying the same commands in
/// the same LSN order from the same snapshot must rebuild the same
/// state. Anything non-deterministic (clocks, randomness, external
/// calls) must be resolved *before* logging, with the result — not the
/// inputs — in the command (see the submission ledger, which logs the
/// decided response rather than re-running the decision).
pub trait StateMachine: Send + 'static {
    /// Apply one command. `lsn` is the command's position in the log —
    /// machines that expose per-key versions use it as the version.
    /// An `Err` means the command can never apply to this state: on
    /// replay [`Durable::open`] refuses the log as
    /// [`StoreError::Corrupt`].
    fn apply(&mut self, lsn: Lsn, command: &[u8]) -> Result<(), String>;

    /// Serialize the full state for compaction.
    fn snapshot(&self) -> Vec<u8>;

    /// Rebuild state from a [`StateMachine::snapshot`] payload.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), String>;
}

/// A [`StateMachine`] bound to a [`Wal`]: commands are logged before
/// the response is acknowledged, so a crash at any point loses only
/// writes that were never confirmed.
pub struct Durable<M> {
    /// `None` for an [`Durable::in_memory`] machine.
    wal: Option<Wal>,
    machine: Mutex<(M, Lsn)>,
}

impl<M: StateMachine> Durable<M> {
    /// Open the log in `dir`, restore the newest snapshot into
    /// `machine`, and replay every record after it. The records stream
    /// from [`Wal::open_streaming`] straight into
    /// [`StateMachine::apply`], borrowed from the segment buffer, so
    /// recovery holds one segment plus the machine, never the log. A
    /// snapshot the machine cannot restore, or a record it refuses,
    /// fails the open as [`StoreError::Corrupt`]; so does damage the
    /// log itself refuses, even after some records were applied (the
    /// half-built machine is dropped).
    pub fn open(dir: impl AsRef<std::path::Path>, cfg: WalConfig, machine: M) -> StoreResult<Self> {
        let mut machine = machine;
        let mut applied = 0;
        let (wal, _) = Wal::open_streaming(dir, cfg, |item| {
            applied = match item {
                Replayed::Snapshot { lsn, state } => {
                    machine.restore(state).map_err(StoreError::Corrupt)?;
                    lsn
                }
                Replayed::Record { lsn, payload } => {
                    machine.apply(lsn, payload).map_err(StoreError::Corrupt)?;
                    lsn
                }
            };
            Ok(())
        })?;
        Ok(Durable { wal: Some(wal), machine: Mutex::new((machine, applied)) })
    }

    /// Run `machine` with no log: commands go through the same `apply`
    /// as a logged machine, but the state dies with the process.
    pub fn in_memory(machine: M) -> Self {
        Durable { wal: None, machine: Mutex::new((machine, 0)) }
    }

    /// Append `command` to the log (or, in memory, just number it),
    /// returning its LSN. The caller holds the machine lock, whose
    /// applied LSN is `applied`.
    fn submit(&self, applied: Lsn, command: &[u8]) -> StoreResult<Lsn> {
        self.wal.as_ref().map_or(Ok(applied + 1), |wal| wal.submit(command))
    }

    fn wait_durable(&self, lsn: Lsn) -> StoreResult<()> {
        self.wal.as_ref().map_or(Ok(()), |wal| wal.wait_durable(lsn))
    }

    /// Log `command`, apply it, and wait for durability. Returns the
    /// command's LSN — the version a writer can later demand from a
    /// replica read.
    ///
    /// The in-memory effect becomes visible to concurrent readers
    /// before the fsync completes (standard group-commit visibility);
    /// the *caller's acknowledgment* is what waits for durability.
    pub fn execute(&self, command: &[u8]) -> StoreResult<Lsn> {
        let mut m = self.machine.lock();
        let lsn = self.submit(m.1, command)?;
        m.1 = lsn;
        m.0.apply(lsn, command).map_err(StoreError::Corrupt)?;
        drop(m);
        self.wait_durable(lsn)?;
        Ok(lsn)
    }

    /// Apply a batch of records shipped from a primary under one
    /// durability wait, asserting each lands at the same LSN locally —
    /// replicas replay the primary's exact sequence, so local and
    /// source LSNs must coincide. Records at or below the applied LSN
    /// are skipped (idempotent redelivery); a gap is refused with
    /// [`StoreError::Behind`]. Every record is submitted and applied in
    /// order, then the log is synced **once** for the batch — so a
    /// replica catching up on N records pays one group commit, not N
    /// fsyncs. Returns the highest applied LSN.
    pub fn execute_shipped_batch(&self, records: &[(Lsn, Vec<u8>)]) -> StoreResult<Lsn> {
        let mut m = self.machine.lock();
        let mut last_submitted = None;
        for (source_lsn, command) in records {
            if m.1 >= *source_lsn {
                // Already applied (idempotent redelivery).
                continue;
            }
            if *source_lsn != m.1 + 1 {
                return Err(StoreError::Behind { have: m.1, want: *source_lsn });
            }
            let lsn = self.submit(m.1, command)?;
            if lsn != *source_lsn {
                return Err(StoreError::Corrupt(format!(
                    "replica log diverged: shipping lsn {source_lsn} but local log is at {lsn}"
                )));
            }
            m.1 = lsn;
            m.0.apply(lsn, command).map_err(StoreError::Corrupt)?;
            last_submitted = Some(lsn);
        }
        let applied = m.1;
        drop(m);
        if let Some(lsn) = last_submitted {
            self.wait_durable(lsn)?;
        }
        Ok(applied)
    }

    /// Conditionally log a command decided *under the machine lock*:
    /// `decide` inspects the current state and either returns the
    /// command to log (plus a value read from the pre-apply state, e.g.
    /// the queue head a `recv` will pop) or `None` to do nothing. The
    /// check, the logging, and the apply are one atomic step, so a
    /// guard like "only if there is space" cannot race another writer.
    /// `decide` must only return commands `apply` accepts; one it
    /// refuses is logged all the same and surfaces as
    /// [`StoreError::Corrupt`].
    pub fn execute_when<R>(
        &self,
        decide: impl FnOnce(&M) -> Option<(Vec<u8>, R)>,
    ) -> StoreResult<Option<(Lsn, R)>> {
        let mut m = self.machine.lock();
        let Some((command, out)) = decide(&m.0) else {
            return Ok(None);
        };
        let lsn = self.submit(m.1, &command)?;
        m.1 = lsn;
        m.0.apply(lsn, &command).map_err(StoreError::Corrupt)?;
        drop(m);
        self.wait_durable(lsn)?;
        Ok(Some((lsn, out)))
    }

    /// Read the machine under the lock.
    pub fn query<R>(&self, f: impl FnOnce(&M) -> R) -> R {
        f(&self.machine.lock().0)
    }

    /// Read the machine and its applied LSN under one lock acquisition
    /// — what a version-gated read needs from each stream.
    pub(crate) fn query_applied<R>(&self, f: impl FnOnce(&M, Lsn) -> R) -> R {
        let m = self.machine.lock();
        f(&m.0, m.1)
    }

    /// Highest LSN applied to the machine.
    pub fn applied_lsn(&self) -> Lsn {
        self.machine.lock().1
    }

    /// The applied LSN and a state snapshot taken atomically under the
    /// machine lock — the payload a peer bootstraps from, and the
    /// input to anti-entropy checksums (snapshot serialization is
    /// deterministic, so equal bytes at equal LSNs means equal state).
    pub fn snapshot_state(&self) -> (Lsn, Vec<u8>) {
        let m = self.machine.lock();
        (m.1, m.0.snapshot())
    }

    /// Snapshot-then-truncate compaction: serialize the machine and
    /// hand the bytes to [`Wal::snapshot`] while holding the machine
    /// lock, so the snapshot reflects exactly the applied prefix. An
    /// in-memory machine has nothing to compact and returns its
    /// applied LSN.
    pub fn compact(&self) -> StoreResult<Lsn> {
        let m = self.machine.lock();
        self.wal.as_ref().map_or(Ok(m.1), |wal| wal.snapshot(&m.0.snapshot()))
    }

    /// Install a snapshot taken on another node — the bootstrap path
    /// when this machine is so far behind that the source's log has
    /// been compacted past our watermark. Restores `state` into the
    /// machine and forward-jumps the local log to `lsn` (see
    /// [`Wal::install_snapshot`]). A no-op when we are already at or
    /// past `lsn`.
    pub fn install_snapshot(&self, lsn: Lsn, state: &[u8]) -> StoreResult<()> {
        let mut m = self.machine.lock();
        if m.1 >= lsn {
            return Ok(());
        }
        if let Some(wal) = &self.wal {
            wal.install_snapshot(lsn, state)?;
        }
        m.0.restore(state).map_err(StoreError::Corrupt)?;
        m.1 = lsn;
        Ok(())
    }

    /// The underlying log (for shipping and introspection); `None` for
    /// an in-memory machine.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    /// A machine that sums logged integers — trivially deterministic.
    #[derive(Default)]
    struct Summer {
        total: i64,
        applied: u64,
    }

    impl StateMachine for Summer {
        fn apply(&mut self, _lsn: Lsn, command: &[u8]) -> Result<(), String> {
            let n: i64 = std::str::from_utf8(command).unwrap().parse().unwrap();
            self.total += n;
            self.applied += 1;
            Ok(())
        }
        fn snapshot(&self) -> Vec<u8> {
            format!("{} {}", self.total, self.applied).into_bytes()
        }
        fn restore(&mut self, snapshot: &[u8]) -> Result<(), String> {
            let s = std::str::from_utf8(snapshot).map_err(|e| e.to_string())?;
            let (total, applied) = s.split_once(' ').ok_or("bad snapshot")?;
            self.total = total.parse().map_err(|_| "bad total")?;
            self.applied = applied.parse().map_err(|_| "bad applied")?;
            Ok(())
        }
    }

    #[test]
    fn replay_restores_state() {
        let tmp = TempDir::new("durable");
        {
            let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
            d.execute(b"5").unwrap();
            d.execute(b"7").unwrap();
            d.execute(b"-2").unwrap();
            assert_eq!(d.query(|m| m.total), 10);
            assert_eq!(d.applied_lsn(), 3);
        }
        let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
        assert_eq!(d.query(|m| m.total), 10);
        assert_eq!(d.applied_lsn(), 3);
    }

    #[test]
    fn compaction_preserves_state_and_continues() {
        let tmp = TempDir::new("durable-compact");
        {
            let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
            for i in 1..=10 {
                d.execute(format!("{i}").as_bytes()).unwrap();
            }
            assert_eq!(d.compact().unwrap(), 10);
            d.execute(b"100").unwrap();
        }
        let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
        assert_eq!(d.query(|m| m.total), 155);
        // Snapshot restored 10 commands' worth; only one was replayed.
        assert_eq!(d.applied_lsn(), 11);
    }

    #[test]
    fn install_snapshot_bootstraps_a_lagging_machine() {
        let tmp = TempDir::new("durable-install");
        {
            let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
            d.execute(b"1").unwrap();
            // State "95 9" as of a remote lsn 9: total 95 from 9 cmds.
            d.install_snapshot(9, b"95 9").unwrap();
            assert_eq!(d.query(|m| m.total), 95);
            assert_eq!(d.applied_lsn(), 9);
            // Shipped records continue from the installed point.
            d.execute_shipped_batch(&[(10, b"5".to_vec())]).unwrap();
            assert_eq!(d.query(|m| m.total), 100);
            // Installing at or below the applied LSN is a no-op.
            d.install_snapshot(10, b"0 0").unwrap();
            assert_eq!(d.query(|m| m.total), 100);
        }
        let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
        assert_eq!(d.query(|m| m.total), 100);
        assert_eq!(d.applied_lsn(), 10);
    }

    #[test]
    fn shipped_records_enforce_contiguity() {
        let tmp = TempDir::new("durable-ship");
        let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
        d.execute_shipped_batch(&[(1, b"5".to_vec())]).unwrap();
        // Redelivery is idempotent.
        d.execute_shipped_batch(&[(1, b"5".to_vec())]).unwrap();
        assert_eq!(d.query(|m| m.total), 5);
        // A gap is refused with the catch-up hint.
        match d.execute_shipped_batch(&[(3, b"9".to_vec())]) {
            Err(StoreError::Behind { have: 1, want: 3 }) => {}
            other => panic!("expected Behind, got {other:?}"),
        }
        d.execute_shipped_batch(&[(2, b"7".to_vec())]).unwrap();
        assert_eq!(d.query(|m| m.total), 12);
    }

    #[test]
    fn shipped_batches_apply_under_one_commit() {
        let tmp = TempDir::new("durable-ship-batch");
        let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
        d.execute_shipped_batch(&[(1, b"5".to_vec())]).unwrap();
        // Overlapping redelivery is skipped; the fresh tail applies.
        let batch: Vec<(Lsn, Vec<u8>)> =
            vec![(1, b"5".to_vec()), (2, b"7".to_vec()), (3, b"9".to_vec())];
        assert_eq!(d.execute_shipped_batch(&batch).unwrap(), 3);
        assert_eq!(d.query(|m| m.total), 21);
        assert_eq!(d.applied_lsn(), 3);
        // A gap inside a batch is refused with the catch-up hint.
        let gapped: Vec<(Lsn, Vec<u8>)> = vec![(5, b"1".to_vec())];
        match d.execute_shipped_batch(&gapped) {
            Err(StoreError::Behind { have: 3, want: 5 }) => {}
            other => panic!("expected Behind, got {other:?}"),
        }
        // An empty batch is a no-op.
        assert_eq!(d.execute_shipped_batch(&[]).unwrap(), 3);

        // The batch survives a reopen like any logged records.
        drop(d);
        let d = Durable::open(tmp.path(), WalConfig::default(), Summer::default()).unwrap();
        assert_eq!(d.query(|m| m.total), 21);
        assert_eq!(d.applied_lsn(), 3);
    }
}
