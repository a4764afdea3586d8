//! Crash-recovery property tests for the WAL: damage a log at *every*
//! byte offset — truncation (a torn tail) and single-byte corruption
//! (a lying disk) — and require the recovery contract from the module
//! docs: replay is **prefix-consistent or loud**. A reopened log either
//! yields exactly the first `k` records that were appended, or refuses
//! to open with [`StoreError::Corrupt`]; it never invents, reorders, or
//! silently skips past a record. Plus: compacting through a snapshot
//! must be observationally equivalent to replaying the full log, log
//! shipping answers the same from the in-memory tail as from disk, and
//! the streaming replay agrees with an independent reference reader of
//! the on-disk format (including a log framed with a bit-at-a-time
//! CRC, which must reopen byte for byte unchanged).

use std::fs;
use std::path::Path;

use proptest::collection::vec;
use proptest::prelude::*;
use soc_store::wal::{FsyncPolicy, Recovery, Replayed, Wal, WalConfig};
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

// ---------------------------------------------------------------------
// Streaming replay against a reference reader
// ---------------------------------------------------------------------

/// CRC-32/IEEE one bit at a time: the reference reader's checksum,
/// sharing nothing with the log's table-driven one.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap())
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().unwrap())
}

/// What an open of a log directory must yield.
#[derive(Debug, PartialEq, Eq)]
struct Replay {
    snapshot: Option<(u64, Vec<u8>)>,
    records: Vec<(u64, Vec<u8>)>,
    truncated: u64,
}

/// The files named `{prefix}{lsn:020}{suffix}` in `dir`, by LSN.
fn numbered(dir: &Path, prefix: &str, suffix: &str) -> Vec<u64> {
    let mut lsns: Vec<u64> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().ok()?;
            name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
        })
        .collect();
    lsns.sort_unstable();
    lsns
}

fn seg_path(dir: &Path, base: u64) -> std::path::PathBuf {
    dir.join(format!("seg-{base:020}.wal"))
}

fn snap_path(dir: &Path, lsn: u64) -> std::path::PathBuf {
    dir.join(format!("snap-{lsn:020}.snap"))
}

/// Read a log directory straight from the format in the `wal` module
/// docs, without touching it: `None` where the recovery contract
/// demands a `Corrupt` refusal.
fn reference_replay(dir: &Path, max_record: u32) -> Option<Replay> {
    let max = max_record as usize;
    let snapshot = numbered(dir, "snap-", ".snap").into_iter().rev().find_map(|lsn| {
        let d = fs::read(snap_path(dir, lsn)).ok()?;
        if d.len() < 28 || &d[..8] != b"SOCSNP1\n" {
            return None;
        }
        let len = le_u64(&d[16..24]) as usize;
        let ok = len <= max && d.len() - 28 == len && crc32_bitwise(&d[28..]) == le_u32(&d[24..28]);
        ok.then(|| (lsn, d[28..].to_vec()))
    });
    let snap_lsn = snapshot.as_ref().map_or(0, |(lsn, _)| *lsn);
    let segs = numbered(dir, "seg-", ".wal");
    let mut records = Vec::new();
    let mut truncated = 0;
    let mut expected = None;
    for (i, &base) in segs.iter().enumerate() {
        let last = i + 1 == segs.len();
        match expected {
            Some(want) if want != base => return None,
            None if base > snap_lsn + 1 => return None,
            _ => {}
        }
        let d = fs::read(seg_path(dir, base)).unwrap();
        if d.len() < 16 || &d[..8] != b"SOCWAL1\n" || le_u64(&d[8..16]) != base {
            if !last {
                return None;
            }
            truncated = d.len() as u64;
            continue;
        }
        let (mut off, mut lsn) = (16, base);
        while off < d.len() {
            let frame = (d.len() - off >= 8)
                .then(|| (le_u32(&d[off..off + 4]) as usize, le_u32(&d[off + 4..off + 8])))
                .filter(|&(len, crc)| {
                    len <= max
                        && d.len() - off - 8 >= len
                        && crc32_bitwise(&d[off + 8..off + 8 + len]) == crc
                });
            let Some((len, _)) = frame else {
                if !last {
                    return None;
                }
                truncated = (d.len() - off) as u64;
                break;
            };
            if lsn > snap_lsn {
                records.push((lsn, d[off + 8..off + 8 + len].to_vec()));
            }
            lsn += 1;
            off += 8 + len;
        }
        expected = Some(lsn);
    }
    Some(Replay { snapshot, records, truncated })
}

/// Open `dir` through the streaming replay, collecting what it hands
/// out.
fn streamed_replay(dir: &Path, cfg: WalConfig) -> Result<Replay, StoreError> {
    let mut snapshot = None;
    let mut records = Vec::new();
    let (_, truncated) = Wal::open_streaming(dir, cfg, |item| {
        match item {
            Replayed::Snapshot { lsn, state } => {
                assert!(snapshot.is_none() && records.is_empty(), "the snapshot comes first, once");
                snapshot = Some((lsn, state.to_vec()));
            }
            Replayed::Record { lsn, payload } => records.push((lsn, payload.to_vec())),
        }
        Ok(())
    })?;
    Ok(Replay { snapshot, records, truncated })
}

/// Damage applied to a written log before it is reopened.
#[derive(Debug, Clone)]
enum Damage {
    None,
    /// Cut this many bytes (modulo its length) off the final segment.
    Tear(usize),
    /// Flip one byte: file index and offset, modulo the log's files
    /// (segments, then the snapshot) and that file's length.
    Flip(usize, usize),
}

/// Records of mixed sizes: mostly small, some several hundred bytes so
/// small segments rotate after one or two.
fn record() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        vec(any::<u8>(), 0..16),
        vec(any::<u8>(), 0..16),
        vec(any::<u8>(), 0..16),
        vec(any::<u8>(), 100..600),
    ]
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        Just(Damage::None),
        any::<usize>().prop_map(Damage::Tear),
        (any::<usize>(), any::<usize>()).prop_map(|(f, o)| Damage::Flip(f, o)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Logs of varied records over small, rotating segments, with an
    /// optional snapshot (possibly with the segments it covers still
    /// on disk) and optional damage: the streaming replay
    /// hands out exactly the `(lsn, payload)` sequence and snapshot
    /// the reference reader finds, reports the same truncated bytes,
    /// and refuses with `Corrupt` exactly where the reference does. A
    /// second open of a recovered log then finds it clean.
    #[test]
    fn streaming_replay_matches_the_reference_reader(
        records in vec(record(), 1..40),
        segment_bytes in prop_oneof![Just(1u64), Just(64), Just(300), Just(2048)],
        snapshot in proptest::option::of((any::<usize>(), vec(any::<u8>(), 0..64), any::<bool>())),
        damage in damage(),
    ) {
        let tmp = TempDir::new("props-stream");
        let cfg = WalConfig { segment_bytes, ..fast() };
        let snap_at = snapshot.as_ref().map(|(at, ..)| at % records.len());
        {
            let (wal, _) = Wal::open_with(tmp.path(), cfg.clone()).unwrap();
            for (i, r) in records.iter().enumerate() {
                wal.append(r).unwrap();
                if snap_at == Some(i) {
                    let (_, state, crash_mid_compaction) = snapshot.as_ref().unwrap();
                    // A crash after the snapshot is renamed into place
                    // but before the segments it covers are deleted
                    // leaves both: replay must skip the covered records.
                    let covered: Vec<_> = numbered(tmp.path(), "seg-", ".wal")
                        .into_iter()
                        .map(|base| (seg_path(tmp.path(), base), fs::read(seg_path(tmp.path(), base)).unwrap()))
                        .collect();
                    wal.snapshot(state).unwrap();
                    if *crash_mid_compaction {
                        for (path, bytes) in covered {
                            fs::write(path, bytes).unwrap();
                        }
                    }
                }
            }
        }
        let segs = numbered(tmp.path(), "seg-", ".wal");
        let mut files: Vec<_> = segs.iter().map(|&b| seg_path(tmp.path(), b)).collect();
        files.extend(numbered(tmp.path(), "snap-", ".snap").iter().map(|&l| snap_path(tmp.path(), l)));
        match damage {
            Damage::None => {}
            Damage::Tear(cut) => {
                let path = seg_path(tmp.path(), *segs.last().unwrap());
                let mut bytes = fs::read(&path).unwrap();
                bytes.truncate(bytes.len() - cut % (bytes.len() + 1));
                fs::write(&path, bytes).unwrap();
            }
            Damage::Flip(file, offset) => {
                let path = &files[file % files.len()];
                let mut bytes = fs::read(path).unwrap();
                let at = offset % bytes.len();
                bytes[at] ^= 0xA5;
                fs::write(path, bytes).unwrap();
            }
        }

        let want = reference_replay(tmp.path(), cfg.max_record_bytes);
        if matches!(damage, Damage::None) {
            // Undamaged, the reference must see exactly what was written.
            let want = want.as_ref().expect("an undamaged log opens");
            let from = snap_at.map_or(0, |at| at + 1);
            let written: Vec<(u64, Vec<u8>)> =
                records.iter().cloned().enumerate().skip(from).map(|(i, r)| (i as u64 + 1, r)).collect();
            prop_assert_eq!(&want.records, &written);
            prop_assert_eq!(want.truncated, 0);
        }
        match (want, streamed_replay(tmp.path(), cfg.clone())) {
            (Some(want), Ok(got)) => {
                prop_assert_eq!(&got, &want);
                let again = streamed_replay(tmp.path(), cfg).unwrap();
                prop_assert_eq!(again.truncated, 0);
                prop_assert_eq!(again.snapshot, want.snapshot);
                prop_assert_eq!(again.records, want.records);
            }
            (None, Err(StoreError::Corrupt(_))) => {}
            (want, got) => prop_assert!(
                false,
                "reference {:?} but the log opened as {:?}",
                want.map(|_| "ok"),
                got.map(|_| "ok"),
            ),
        }
    }
}

/// One frame as the format defines it, checksummed one bit at a time.
fn oracle_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32_bitwise(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A snapshot and a segment written by hand with the bit-at-a-time
/// CRC reopen with every record and byte for byte unchanged, and the
/// next append lands as the frame the same oracle would write: the
/// on-disk format, checksums included, is what it always was.
#[test]
fn a_log_framed_with_a_bitwise_crc_reopens_unchanged() {
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926, "the standard check value");
    let tmp = TempDir::new("props-fixture");
    let state = b"state as of lsn 2".to_vec();
    let mut snap = b"SOCSNP1\n".to_vec();
    snap.extend_from_slice(&2u64.to_le_bytes());
    snap.extend_from_slice(&(state.len() as u64).to_le_bytes());
    snap.extend_from_slice(&crc32_bitwise(&state).to_le_bytes());
    snap.extend_from_slice(&state);
    let payloads: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"alpha".to_vec(),
        b"123456789".to_vec(),
        (0..=255u8).cycle().take(1001).collect(),
    ];
    let mut seg = b"SOCWAL1\n".to_vec();
    seg.extend_from_slice(&3u64.to_le_bytes());
    for p in &payloads {
        seg.extend_from_slice(&oracle_frame(p));
    }
    fs::write(snap_path(tmp.path(), 2), &snap).unwrap();
    fs::write(seg_path(tmp.path(), 3), &seg).unwrap();

    {
        let (wal, recovery) = Wal::open_with(tmp.path(), fast()).unwrap();
        assert_eq!(recovery.snapshot, Some((2, state.clone())));
        let want: Vec<(u64, Vec<u8>)> =
            payloads.iter().cloned().zip(3..).map(|(p, l)| (l, p)).collect();
        assert_eq!(recovery.records, want);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(fs::read(snap_path(tmp.path(), 2)).unwrap(), snap);
        assert_eq!(fs::read(seg_path(tmp.path(), 3)).unwrap(), seg);
        assert_eq!(wal.append(b"next").unwrap(), 7);
    }
    seg.extend_from_slice(&oracle_frame(b"next"));
    assert_eq!(fs::read(seg_path(tmp.path(), 3)).unwrap(), seg);
}
