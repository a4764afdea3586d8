//! Crash-recovery property tests for the WAL: damage a log at *every*
//! byte offset — truncation (a torn tail) and single-byte corruption
//! (a lying disk) — and require the recovery contract from the module
//! docs: replay is **prefix-consistent or loud**. A reopened log either
//! yields exactly the first `k` records that were appended, or refuses
//! to open with [`StoreError::Corrupt`]; it never invents, reorders, or
//! silently skips past a record. Plus: compacting through a snapshot
//! must be observationally equivalent to replaying the full log, and
//! log shipping answers the same from the in-memory tail as from disk.

use std::fs;
use std::path::Path;

use proptest::collection::vec;
use proptest::prelude::*;
use soc_store::wal::{FsyncPolicy, Recovery, Wal, WalConfig};
use soc_store::{StoreError, TempDir};

/// Fast config for property tests: skip fsync (the tests model crash
/// damage by rewriting file bytes, not by killing processes).
fn fast() -> WalConfig {
    WalConfig { fsync: FsyncPolicy::Never, ..WalConfig::default() }
}

const SEG_1: &str = "seg-00000000000000000001.wal";

/// Append `records` to a fresh log and return the raw bytes of its
/// (single) segment file.
fn segment_bytes(records: &[Vec<u8>]) -> Vec<u8> {
    let tmp = TempDir::new("props-build");
    {
        let (wal, _) = Wal::open_with(tmp.path(), fast()).unwrap();
        for r in records {
            wal.append(r).unwrap();
        }
    }
    fs::read(tmp.path().join(SEG_1)).unwrap()
}

/// End offset of each frame within a segment file: frame `i` spans
/// `[ends[i] - (8 + len), ends[i])`, after the 16-byte header.
fn frame_ends(records: &[Vec<u8>]) -> Vec<usize> {
    let mut off = 16usize;
    records
        .iter()
        .map(|r| {
            off += 8 + r.len();
            off
        })
        .collect()
}

/// Open a directory containing exactly `bytes` as segment 1.
fn open_bytes(bytes: &[u8]) -> Result<(Wal, Recovery), StoreError> {
    let tmp = TempDir::new("props-open");
    fs::write(tmp.path().join(SEG_1), bytes).unwrap();
    Wal::open_with(tmp.path(), fast())
}

/// Assert `recovery` replayed exactly the first `want` of `records`.
fn assert_prefix(recovery: &Recovery, records: &[Vec<u8>], want: usize, ctx: &str) {
    assert_eq!(recovery.records.len(), want, "{ctx}: wrong prefix length");
    for (i, (lsn, payload)) in recovery.records.iter().enumerate() {
        assert_eq!(*lsn, i as u64 + 1, "{ctx}: LSN gap at {i}");
        assert_eq!(payload, &records[i], "{ctx}: payload diverged at {i}");
    }
}

proptest! {
    // Each case reopens the log once per byte offset, so keep the
    // case count low and the logs small; coverage comes from the
    // exhaustive per-byte sweep inside each case.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Truncating the segment at every byte offset (what a torn tail
    /// looks like after a crash) recovers exactly the records whose
    /// frames survived whole, and the log stays appendable.
    #[test]
    fn truncation_at_every_offset_is_prefix_consistent(
        records in vec(vec(any::<u8>(), 0..12), 1..7),
    ) {
        let full = segment_bytes(&records);
        let ends = frame_ends(&records);
        prop_assert_eq!(*ends.last().unwrap(), full.len());

        for cut in 0..=full.len() {
            let (_, recovery) = open_bytes(&full[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}: torn tails must recover, got {e}"));
            // A cut inside the 16-byte header drops the segment wholly
            // (nothing in it was ever acknowledged); otherwise every
            // frame that ends at or before the cut survives.
            let want =
                if cut < 16 { 0 } else { ends.iter().filter(|&&e| e <= cut).count() };
            assert_prefix(&recovery, &records, want, &format!("cut at {cut}"));
            if cut >= 16 {
                let good = if want == 0 { 16 } else { ends[want - 1] };
                prop_assert_eq!(recovery.truncated_bytes, (cut - good) as u64);
            }
        }

        // Recovery must leave a log that accepts new writes with the
        // next contiguous LSN. Spot-check a mid-log cut.
        let cut = full.len() / 2;
        let tmp = TempDir::new("props-reappend");
        fs::write(tmp.path().join(SEG_1), &full[..cut]).unwrap();
        let survivors = {
            let (wal, recovery) = Wal::open_with(tmp.path(), fast()).unwrap();
            let n = recovery.records.len() as u64;
            prop_assert_eq!(wal.append(b"after-crash").unwrap(), n + 1);
            n
        };
        let (_, recovery) = Wal::open_with(tmp.path(), fast()).unwrap();
        prop_assert_eq!(recovery.records.len() as u64, survivors + 1);
        prop_assert_eq!(recovery.records.last().unwrap().1.as_slice(), b"after-crash");
    }

    /// Flipping a byte at every offset (bit rot / a lying disk) either
    /// recovers the exact clean prefix before the damaged frame or —
    /// for header damage — drops the segment. CRC framing means the
    /// damage is always *detected*; nothing replays as modified.
    #[test]
    fn byte_flips_are_prefix_consistent_or_loud(
        records in vec(vec(any::<u8>(), 0..12), 1..7),
    ) {
        let full = segment_bytes(&records);
        let ends = frame_ends(&records);

        for flip in 0..full.len() {
            let mut bytes = full.clone();
            bytes[flip] ^= 0xA5;
            let (_, recovery) = open_bytes(&bytes)
                .unwrap_or_else(|e| panic!("flip at {flip}: final-segment damage must truncate, got {e}"));
            // Damage in the header drops the segment; damage inside
            // frame `k` truncates at `k`'s start, keeping 0..k intact.
            let want =
                if flip < 16 { 0 } else { ends.iter().filter(|&&e| e <= flip).count() };
            assert_prefix(&recovery, &records, want, &format!("flip at {flip}"));
        }
    }

    /// Compaction equivalence: a log that snapshots (and truncates its
    /// history) at arbitrary points replays to the same state as a log
    /// that kept every record.
    #[test]
    fn snapshot_plus_replay_equals_full_replay(
        steps in vec((vec(any::<u8>(), 0..12), any::<bool>()), 1..10),
    ) {
        let plain = TempDir::new("props-plain");
        let compacted = TempDir::new("props-compacted");
        let mut applied: Vec<Vec<u8>> = Vec::new();
        {
            let (a, _) = Wal::open_with(plain.path(), fast()).unwrap();
            let (b, _) = Wal::open_with(compacted.path(), fast()).unwrap();
            for (payload, snap_after) in &steps {
                a.append(payload).unwrap();
                b.append(payload).unwrap();
                applied.push(payload.clone());
                if *snap_after {
                    // "State" is the full record list, length-framed.
                    let state = encode_state(&applied);
                    let lsn = b.snapshot(&state).unwrap();
                    prop_assert_eq!(lsn as usize, applied.len());
                }
            }
        }

        let (_, full) = Wal::open_with(plain.path(), fast()).unwrap();
        let via_full: Vec<Vec<u8>> = full.records.into_iter().map(|(_, p)| p).collect();

        let (_, rec) = Wal::open_with(compacted.path(), fast()).unwrap();
        let mut via_snap = match &rec.snapshot {
            Some((lsn, state)) => {
                let decoded = decode_state(state);
                prop_assert_eq!(*lsn as usize, decoded.len());
                // Replayed records must pick up exactly past the snapshot.
                if let Some((first, _)) = rec.records.first() {
                    prop_assert_eq!(*first, lsn + 1);
                }
                decoded
            }
            None => Vec::new(),
        };
        via_snap.extend(rec.records.into_iter().map(|(_, p)| p));

        prop_assert_eq!(&via_full, &applied);
        prop_assert_eq!(&via_snap, &applied);
    }
}

/// One step of a log's life for the shipping differential.
#[derive(Debug, Clone)]
enum Step {
    /// One acknowledged append.
    Append(Vec<u8>),
    /// Submit a burst, then wait once: one group commit.
    Pipelined(Vec<Vec<u8>>),
    /// Snapshot-then-truncate compaction at the current tail.
    Snapshot,
    /// Jump the log forward past a snapshot installed from a peer.
    Install(u64),
}

/// Appends are listed twice so logs grow between compactions.
fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        vec(any::<u8>(), 0..24).prop_map(Step::Append),
        vec(any::<u8>(), 0..24).prop_map(Step::Append),
        vec(vec(any::<u8>(), 0..24), 1..6).prop_map(Step::Pipelined),
        Just(Step::Snapshot),
        (1u64..4).prop_map(Step::Install),
    ]
}

/// `records_after(from)` with a compaction-horizon refusal as `Err`;
/// any other failure is a test failure.
fn shipped(wal: &Wal, from: u64) -> Result<Vec<(u64, Vec<u8>)>, ()> {
    match wal.records_after(from) {
        Ok(records) => Ok(records),
        Err(StoreError::Corrupt(_)) => Err(()),
        Err(e) => panic!("records_after({from}) failed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A live log answers `records_after` from its in-memory tail where
    /// it can; a reopened log starts with an empty tail and reads its
    /// segments. For every `from` — below the compaction horizon
    /// included — both must give the same answer, across rotations
    /// (tiny segments), group commits, snapshots and installs.
    #[test]
    fn shipping_from_the_tail_matches_shipping_from_disk(
        steps in vec(step(), 1..24),
    ) {
        let tmp = TempDir::new("props-ship");
        let cfg = WalConfig { segment_bytes: 48, ..fast() };
        let live: Vec<_> = {
            let (wal, _) = Wal::open_with(tmp.path(), cfg.clone()).unwrap();
            for step in &steps {
                match step {
                    Step::Append(payload) => {
                        wal.append(payload).unwrap();
                    }
                    Step::Pipelined(burst) => {
                        let mut last = 0;
                        for payload in burst {
                            last = wal.submit(payload).unwrap();
                        }
                        wal.wait_durable(last).unwrap();
                    }
                    Step::Snapshot => {
                        wal.snapshot(b"state").unwrap();
                    }
                    Step::Install(gap) => {
                        wal.install_snapshot(wal.last_lsn() + gap, b"peer-state").unwrap();
                    }
                }
            }
            (0..=wal.last_lsn() + 1).map(|from| shipped(&wal, from)).collect()
        };
        let (wal, _) = Wal::open_with(tmp.path(), cfg).unwrap();
        prop_assert_eq!(live.len() as u64, wal.last_lsn() + 2);
        for (from, answer) in live.iter().enumerate() {
            let from = from as u64;
            prop_assert_eq!(answer, &shipped(&wal, from), "records_after({})", from);
        }
    }
}

fn encode_state(records: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        out.extend_from_slice(r);
    }
    out
}

fn decode_state(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        out.push(bytes[4..4 + len].to_vec());
        bytes = &bytes[4 + len..];
    }
    out
}

/// Find the lone file matching `prefix` in `dir`.
fn find_file(dir: &Path, prefix: &str) -> std::path::PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix}* file in {}", dir.display()))
}

/// Mid-log damage — a corrupt frame in a *non-final* segment — must
/// fail the open loudly: the records after it are intact on disk, so
/// truncating would silently drop acknowledged history.
#[test]
fn corruption_in_a_non_final_segment_fails_loudly() {
    let tmp = TempDir::new("props-midlog");
    let cfg = WalConfig { segment_bytes: 1, fsync: FsyncPolicy::Never, ..WalConfig::default() };
    {
        // segment_bytes = 1 rotates after every record: 3 segments.
        let (wal, _) = Wal::open_with(tmp.path(), cfg.clone()).unwrap();
        for r in [b"alpha".as_slice(), b"beta", b"gamma"] {
            wal.append(r).unwrap();
        }
    }
    let first = tmp.path().join(SEG_1);
    let mut bytes = fs::read(&first).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xA5; // damage the frame payload, not the header
    fs::write(&first, &bytes).unwrap();

    match Wal::open_with(tmp.path(), cfg) {
        Err(StoreError::Corrupt(why)) => assert!(why.contains("non-final"), "{why}"),
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("expected Corrupt, got a successful open"),
    }
}

/// A hole in the segment chain (an unlinked file) is unrecoverable
/// history loss and must refuse to open.
#[test]
fn segment_chain_gap_fails_loudly() {
    let tmp = TempDir::new("props-gap");
    let cfg = WalConfig { segment_bytes: 1, fsync: FsyncPolicy::Never, ..WalConfig::default() };
    {
        let (wal, _) = Wal::open_with(tmp.path(), cfg.clone()).unwrap();
        for r in [b"alpha".as_slice(), b"beta", b"gamma"] {
            wal.append(r).unwrap();
        }
    }
    fs::remove_file(tmp.path().join("seg-00000000000000000002.wal")).unwrap();
    match Wal::open_with(tmp.path(), cfg) {
        Err(StoreError::Corrupt(why)) => assert!(why.contains("gap"), "{why}"),
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("expected Corrupt, got a successful open"),
    }
}

/// A corrupt snapshot whose covered history was already compacted away
/// must fail the open: the checksum rejects the snapshot and the
/// records it summarized no longer exist anywhere.
#[test]
fn corrupt_snapshot_after_compaction_fails_loudly() {
    let tmp = TempDir::new("props-snap");
    {
        let (wal, _) = Wal::open_with(tmp.path(), fast()).unwrap();
        for r in [b"alpha".as_slice(), b"beta", b"gamma"] {
            wal.append(r).unwrap();
        }
        wal.snapshot(b"state-after-3").unwrap();
        wal.append(b"delta").unwrap();
    }
    let snap = find_file(tmp.path(), "snap-");
    let mut bytes = fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xA5;
    fs::write(&snap, &bytes).unwrap();

    match Wal::open_with(tmp.path(), WalConfig::default()) {
        Err(StoreError::Corrupt(why)) => assert!(why.contains("history missing"), "{why}"),
        Err(e) => panic!("expected Corrupt, got {e:?}"),
        Ok(_) => panic!("expected Corrupt, got a successful open"),
    }
}
