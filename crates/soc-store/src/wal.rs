//! The write-ahead log: append-only segment files with CRC-framed
//! records, group-commit batching, an fsync-policy knob, and
//! snapshot-then-truncate compaction.
//!
//! ## On-disk format
//!
//! ```text
//! dir/
//!   seg-00000000000000000001.wal     segment: records 1..N
//!   seg-00000000000000000421.wal     segment: records 421..
//!   snap-00000000000000000420.snap   state snapshot as of lsn 420
//!
//! segment  = magic "SOCWAL1\n" | base_lsn u64 LE | record*
//! record   = len u32 LE | crc32(payload) u32 LE | payload
//! snapshot = magic "SOCSNP1\n" | lsn u64 LE | len u64 LE
//!          | crc32(payload) u32 LE | payload
//! ```
//!
//! Record LSNs are implicit: the `i`-th record of a segment has
//! `lsn = base_lsn + i`. Segments chain contiguously; recovery refuses
//! a gap.
//!
//! ## Durability contract
//!
//! [`Wal::append`] returns only once the record is durable under the
//! configured [`FsyncPolicy`]. Concurrent appenders are batched: one
//! thread becomes the *flush leader*, serializes every pending record
//! into a single `write(2)`, issues one fsync for the whole batch, and
//! wakes the rest — the group-commit schedule that amortizes the sync
//! cost across however many appenders pile up while the previous fsync
//! is in flight.
//!
//! ## Recovery contract
//!
//! Replay is **prefix-consistent or loud**: a torn or corrupt record in
//! the *final* segment truncates the log at the last good frame (the
//! records after it were never acknowledged durable, or the disk ate
//! them — either way the state machine sees a clean prefix). Damage
//! anywhere *before* intact records — a corrupt frame in a non-final
//! segment, a base-LSN gap between segments, a snapshot whose history
//! has been compacted away — fails [`Wal::open`] with
//! [`StoreError::Corrupt`] instead of silently skipping records.
//!
//! ## Log shipping
//!
//! A primary ships its log to replicas in order, so the records a
//! replica still needs are almost always the newest few. The log keeps
//! those in memory: a bounded *tail* (256 KiB) of the most recent
//! records written to disk. The flush leader moves each batch into it
//! under the file lock right after the batch's write (and fsync)
//! succeeds, so the tail only ever holds durable records, in LSN order
//! with no gaps; the oldest fall out once it passes the bound, and a
//! snapshot (taken here or installed from a peer) empties it. The tail
//! has its own lock, so a reader never waits out a leader's fsync.
//! [`Wal::records_after`] answers from the tail whenever the tail still
//! reaches back to `from + 1`, and otherwise reads the segment files —
//! which is also what refuses a `from` below the compaction horizon. A
//! freshly opened log starts with an empty tail.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::{crc32, StoreError, StoreResult};

/// Log sequence number: 1-based, dense, monotonically increasing.
pub type Lsn = u64;

/// Segment file name for `base_lsn`.
fn seg_name(base: Lsn) -> String {
    format!("seg-{base:020}.wal")
}

/// Snapshot file name for `lsn`.
fn snap_name(lsn: Lsn) -> String {
    format!("snap-{lsn:020}.snap")
}

const SEG_MAGIC: &[u8; 8] = b"SOCWAL1\n";
const SNAP_MAGIC: &[u8; 8] = b"SOCSNP1\n";
const SEG_HEADER: u64 = 16;
const FRAME_HEADER: usize = 8;

/// Memory bound of a log's in-memory tail: payload bytes plus one
/// `(Lsn, Vec<u8>)` entry per record. A replica a few hundred small
/// records behind is still served from memory; one further behind is
/// caught up from disk.
const TAIL_BYTES: usize = 256 * 1024;

/// When (and whether) appends are fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// One fsync per record — the classic safe-but-slow baseline the
    /// store bench compares group commit against.
    Always,
    /// One fsync per group-commit batch (default): every acknowledged
    /// record is durable, but concurrent appenders share the sync.
    Batch,
    /// Never fsync: records are written to the OS page cache and
    /// survive process crashes but not power loss. For caches and
    /// benches that isolate the framing cost.
    Never,
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one exceeds this.
    pub segment_bytes: u64,
    /// Fsync schedule for appends.
    pub fsync: FsyncPolicy,
    /// Refuse records larger than this (also the recovery bound that
    /// makes a garbage length field fail loudly instead of allocating).
    pub max_record_bytes: u32,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 4 * 1024 * 1024,
            fsync: FsyncPolicy::Batch,
            max_record_bytes: 16 * 1024 * 1024,
        }
    }
}

/// What [`Wal::open`] recovered from disk.
pub struct Recovery {
    /// Newest valid snapshot, as `(lsn, state_bytes)` — restore this
    /// first, then apply [`Recovery::records`].
    pub snapshot: Option<(Lsn, Vec<u8>)>,
    /// Records after the snapshot, ascending by LSN.
    pub records: Vec<(Lsn, Vec<u8>)>,
    /// Bytes dropped from a torn tail, if any (unacknowledged suffix).
    pub truncated_bytes: u64,
}

/// Appender-side log state, guarded by one mutex with a condvar for
/// the group-commit handoff.
struct LogState {
    /// LSN the next [`Wal::submit`] will stamp.
    next_lsn: Lsn,
    /// Highest LSN flushed under the configured policy.
    durable_lsn: Lsn,
    /// Submitted but not yet flushed records.
    pending: Vec<(Lsn, Vec<u8>)>,
    /// A flush leader is currently writing.
    flushing: bool,
    /// Sticky write failure: once the log fails to persist a batch,
    /// every later durability wait fails loudly rather than lying.
    poisoned: Option<String>,
}

/// Writer-side file state. Only the flush leader (or a compactor
/// holding the log lock) touches this.
struct FileState {
    file: File,
    seg_base: Lsn,
    seg_len: u64,
    /// Reusable batch serialization buffer: the whole group commit
    /// goes down in one `write(2)`.
    buf: Vec<u8>,
}

/// The newest records written to disk, contiguous and in LSN order,
/// within [`TAIL_BYTES`].
struct Tail {
    recs: VecDeque<(Lsn, Vec<u8>)>,
    /// Footprint of `recs`, as counted against [`TAIL_BYTES`].
    bytes: usize,
    /// The newest LSN on disk (or the snapshot the log starts from):
    /// the tail ends here even when `recs` is empty.
    end: Lsn,
}

impl Tail {
    fn new(end: Lsn) -> Tail {
        Tail { recs: VecDeque::new(), bytes: 0, end }
    }

    fn footprint(payload: &[u8]) -> usize {
        payload.len() + std::mem::size_of::<(Lsn, Vec<u8>)>()
    }

    /// Take a batch that just reached disk, dropping the oldest records
    /// past the bound.
    fn push(&mut self, batch: Vec<(Lsn, Vec<u8>)>) {
        for rec in batch {
            self.end = rec.0;
            self.bytes += Tail::footprint(&rec.1);
            self.recs.push_back(rec);
        }
        while self.bytes > TAIL_BYTES {
            let Some((_, payload)) = self.recs.pop_front() else { break };
            self.bytes -= Tail::footprint(&payload);
        }
    }

    /// Forget every record: the log now continues after a snapshot at
    /// `lsn`.
    fn reset(&mut self, lsn: Lsn) {
        self.recs.clear();
        self.bytes = 0;
        self.end = lsn;
    }

    /// The records in `(from, to]`, or `None` when the tail no longer
    /// reaches back to `from + 1`.
    fn range(&self, from: Lsn, to: Lsn) -> Option<Vec<(Lsn, Vec<u8>)>> {
        let start = self.recs.front().map_or(self.end + 1, |(lsn, _)| *lsn);
        let first = from.saturating_add(1);
        if first < start {
            return None;
        }
        let skip = usize::try_from(first - start).unwrap_or(usize::MAX);
        Some(self.recs.iter().skip(skip).take_while(|(lsn, _)| *lsn <= to).cloned().collect())
    }
}

struct WalShared {
    dir: PathBuf,
    cfg: WalConfig,
    log: Mutex<LogState>,
    flushed: Condvar,
    file: Mutex<FileState>,
    /// The newest records on disk, for log shipping. Changed only under
    /// the file lock (taken first), so it always matches the files.
    tail: Mutex<Tail>,
    appends: soc_observe::Counter,
    fsyncs: soc_observe::Counter,
    batch_hist: Arc<soc_observe::Histogram>,
    segments: soc_observe::Gauge,
}

/// A durable, segmented, group-committed write-ahead log. Cheap to
/// clone; clones share the same log.
#[derive(Clone)]
pub struct Wal {
    inner: Arc<WalShared>,
}

impl Wal {
    /// Open (or create) the log in `dir` with default config.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<(Wal, Recovery)> {
        Wal::open_with(dir, WalConfig::default())
    }

    /// Open (or create) the log in `dir`, replaying whatever is on
    /// disk. See the module docs for the recovery contract.
    pub fn open_with(dir: impl AsRef<Path>, cfg: WalConfig) -> StoreResult<(Wal, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut seg_bases: Vec<Lsn> = Vec::new();
        let mut snap_lsns: Vec<Lsn> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(base) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".wal")) {
                if let Ok(base) = base.parse::<Lsn>() {
                    seg_bases.push(base);
                }
            } else if let Some(l) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".snap"))
            {
                if let Ok(l) = l.parse::<Lsn>() {
                    snap_lsns.push(l);
                }
            }
        }
        seg_bases.sort_unstable();
        snap_lsns.sort_unstable();

        // Newest structurally valid snapshot wins; older ones are
        // fallbacks (a crash mid-snapshot leaves the previous one).
        let mut snapshot: Option<(Lsn, Vec<u8>)> = None;
        for &lsn in snap_lsns.iter().rev() {
            match read_snapshot(&dir.join(snap_name(lsn)), cfg.max_record_bytes) {
                Ok(state) => {
                    snapshot = Some((lsn, state));
                    break;
                }
                Err(_) => continue,
            }
        }
        let snap_lsn = snapshot.as_ref().map(|(l, _)| *l).unwrap_or(0);

        // Scan the segment chain.
        let mut records: Vec<(Lsn, Vec<u8>)> = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut expected_base: Option<Lsn> = None;
        let mut last_lsn: Lsn = snap_lsn;
        // Segment to keep appending into, if the final one is usable.
        let mut tail: Option<(Lsn, u64)> = None;
        for (i, &base) in seg_bases.iter().enumerate() {
            let is_last = i + 1 == seg_bases.len();
            let path = dir.join(seg_name(base));
            if let Some(exp) = expected_base {
                if base != exp {
                    return Err(StoreError::Corrupt(format!(
                        "segment chain gap: expected base {exp}, found {base}"
                    )));
                }
            } else if base > snap_lsn + 1 {
                return Err(StoreError::Corrupt(format!(
                    "history missing: snapshot at {snap_lsn} but oldest segment starts at {base}"
                )));
            }
            match scan_segment(&path, base, cfg.max_record_bytes)? {
                SegmentScan::Clean { recs, end_offset } => {
                    let count = recs.len() as u64;
                    for (lsn, payload) in recs {
                        if lsn > snap_lsn {
                            records.push((lsn, payload));
                        }
                    }
                    last_lsn = last_lsn.max(if count > 0 { base + count - 1 } else { base - 1 });
                    expected_base = Some(base + count);
                    if is_last {
                        tail = Some((base, end_offset));
                    }
                }
                SegmentScan::Torn { recs, good_offset, file_len } => {
                    if !is_last {
                        return Err(StoreError::Corrupt(format!(
                            "corrupt record in non-final segment {}",
                            path.display()
                        )));
                    }
                    let count = recs.len() as u64;
                    for (lsn, payload) in recs {
                        if lsn > snap_lsn {
                            records.push((lsn, payload));
                        }
                    }
                    last_lsn = last_lsn.max(if count > 0 { base + count - 1 } else { base - 1 });
                    truncated_bytes = file_len - good_offset;
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len(good_offset)?;
                    f.sync_all()?;
                    tail = Some((base, good_offset));
                }
                SegmentScan::BadHeader => {
                    if !is_last {
                        return Err(StoreError::Corrupt(format!(
                            "bad segment header in non-final segment {}",
                            path.display()
                        )));
                    }
                    // A crash while creating the segment: nothing in it
                    // was ever durable. Drop it and start fresh.
                    let file_len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    truncated_bytes = file_len;
                    fs::remove_file(&path)?;
                }
            }
        }

        let next_lsn = last_lsn + 1;
        let (file, seg_base, seg_len) = match tail {
            Some((base, len)) => {
                let file = OpenOptions::new().append(true).open(dir.join(seg_name(base)))?;
                (file, base, len)
            }
            None => create_segment(&dir, next_lsn)?,
        };

        let metrics = soc_observe::metrics();
        let shared = WalShared {
            dir,
            cfg,
            log: Mutex::new(LogState {
                next_lsn,
                durable_lsn: last_lsn,
                pending: Vec::new(),
                flushing: false,
                poisoned: None,
            }),
            flushed: Condvar::new(),
            file: Mutex::new(FileState { file, seg_base, seg_len, buf: Vec::new() }),
            tail: Mutex::new(Tail::new(last_lsn)),
            appends: metrics.counter("soc_store_wal_appends_total", &[]),
            fsyncs: metrics.counter("soc_store_wal_fsyncs_total", &[]),
            batch_hist: metrics.histogram_with_bounds(
                "soc_store_wal_commit_batch",
                &[],
                &[1, 2, 4, 8, 16, 32, 64, 128],
            ),
            segments: metrics.gauge("soc_store_wal_segments", &[]),
        };
        shared.segments.set(seg_bases.len().max(1) as i64);
        let wal = Wal { inner: Arc::new(shared) };
        let recovery = Recovery { snapshot, records, truncated_bytes };
        Ok((wal, recovery))
    }

    /// Stamp and enqueue a record without waiting for durability.
    /// Callers must eventually [`Wal::wait_durable`] (or [`Wal::flush`])
    /// before acknowledging the write to anyone.
    pub fn submit(&self, payload: &[u8]) -> StoreResult<Lsn> {
        if payload.len() > self.inner.cfg.max_record_bytes as usize {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("record of {} bytes exceeds max_record_bytes", payload.len()),
            )));
        }
        let mut log = self.inner.log.lock();
        if let Some(why) = &log.poisoned {
            return Err(StoreError::Corrupt(why.clone()));
        }
        let lsn = log.next_lsn;
        log.next_lsn += 1;
        log.pending.push((lsn, payload.to_vec()));
        Ok(lsn)
    }

    /// Block until `lsn` is durable under the configured policy —
    /// joining (or leading) a group commit as needed.
    pub fn wait_durable(&self, lsn: Lsn) -> StoreResult<()> {
        let mut log = self.inner.log.lock();
        loop {
            if let Some(why) = &log.poisoned {
                return Err(StoreError::Corrupt(why.clone()));
            }
            if log.durable_lsn >= lsn {
                return Ok(());
            }
            if log.flushing {
                // A leader is writing; our record rides the next batch.
                self.inner.flushed.wait(&mut log);
                continue;
            }
            // Become the flush leader for everything pending.
            log.flushing = true;
            let batch = std::mem::take(&mut log.pending);
            drop(log);
            let last = batch.last().map(|&(lsn, _)| lsn);
            let result = if batch.is_empty() { Ok(()) } else { self.write_batch(batch) };
            log = self.inner.log.lock();
            log.flushing = false;
            match result {
                Ok(()) => {
                    if let Some(last) = last {
                        log.durable_lsn = log.durable_lsn.max(last);
                    }
                    self.inner.flushed.notify_all();
                }
                Err(e) => {
                    log.poisoned = Some(e.to_string());
                    self.inner.flushed.notify_all();
                    return Err(e);
                }
            }
        }
    }

    /// Append one record and wait for durability. Returns its LSN.
    pub fn append(&self, payload: &[u8]) -> StoreResult<Lsn> {
        let lsn = self.submit(payload)?;
        self.wait_durable(lsn)?;
        Ok(lsn)
    }

    /// Flush everything submitted so far.
    pub fn flush(&self) -> StoreResult<()> {
        let last = {
            let log = self.inner.log.lock();
            log.next_lsn - 1
        };
        if last == 0 {
            return Ok(());
        }
        self.wait_durable(last)
    }

    /// Highest stamped LSN (may not be durable yet).
    pub fn last_lsn(&self) -> Lsn {
        self.inner.log.lock().next_lsn - 1
    }

    /// Highest durable LSN.
    pub fn durable_lsn(&self) -> Lsn {
        self.inner.log.lock().durable_lsn
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Write `state` as a snapshot at the current tail LSN, rotate to a
    /// fresh segment, and delete segments wholly covered by the
    /// snapshot — the snapshot-then-truncate compaction step. Returns
    /// the snapshot LSN.
    ///
    /// The caller must guarantee `state` reflects *exactly* the
    /// commands up to the returned LSN ([`crate::Durable::compact`]
    /// holds its machine lock across this call).
    pub fn snapshot(&self, state: &[u8]) -> StoreResult<Lsn> {
        // Quiesce: hold the log lock for the whole compaction so no
        // flush leader races the rotation. Compaction is rare and the
        // state is already serialized; blocking appenders briefly is
        // the simple correct schedule.
        let mut log = self.inner.log.lock();
        while log.flushing {
            self.inner.flushed.wait(&mut log);
        }
        if let Some(why) = &log.poisoned {
            return Err(StoreError::Corrupt(why.clone()));
        }
        let batch = std::mem::take(&mut log.pending);
        if let Some(&(last, _)) = batch.last() {
            if let Err(e) = self.write_batch(batch) {
                log.poisoned = Some(e.to_string());
                return Err(e);
            }
            log.durable_lsn = log.durable_lsn.max(last);
        }
        let snap_lsn = log.next_lsn - 1;
        self.write_snapshot_and_rotate(snap_lsn, state)?;
        drop(log);
        Ok(snap_lsn)
    }

    /// Install a snapshot taken *elsewhere* — the replica bootstrap
    /// path when the primary's log has been compacted past this
    /// replica's watermark. The local log jumps forward to `lsn`: a
    /// snapshot file is written, the active segment rotates to base
    /// `lsn + 1`, everything older is deleted, and subsequent appends
    /// stamp `lsn + 1` onward. Refuses to rewind (`lsn` at or below the
    /// current tail), because that would fork already-durable history.
    pub fn install_snapshot(&self, lsn: Lsn, state: &[u8]) -> StoreResult<()> {
        let mut log = self.inner.log.lock();
        while log.flushing {
            self.inner.flushed.wait(&mut log);
        }
        if let Some(why) = &log.poisoned {
            return Err(StoreError::Corrupt(why.clone()));
        }
        let tail = log.next_lsn - 1;
        if lsn <= tail {
            return Err(StoreError::Corrupt(format!(
                "snapshot install at {lsn} would rewind the log tail {tail}"
            )));
        }
        // Anything submitted but unflushed is below the snapshot and
        // superseded by it; drop it rather than persisting records the
        // snapshot already covers.
        log.pending.clear();
        self.write_snapshot_and_rotate(lsn, state)?;
        log.next_lsn = lsn + 1;
        log.durable_lsn = lsn;
        Ok(())
    }

    /// Persist `state` as the snapshot at `snap_lsn`, rotate the active
    /// segment past it, empty the in-memory tail, and delete covered
    /// segments and superseded snapshots. Callers hold the log lock
    /// with no leader in flight.
    fn write_snapshot_and_rotate(&self, snap_lsn: Lsn, state: &[u8]) -> StoreResult<()> {
        // Write the snapshot via a temp file + rename so a crash never
        // leaves a half-written snapshot with a valid name.
        let final_path = self.inner.dir.join(snap_name(snap_lsn));
        let tmp_path = self.inner.dir.join(format!("{}.tmp", snap_name(snap_lsn)));
        {
            let mut f = File::create(&tmp_path)?;
            f.write_all(SNAP_MAGIC)?;
            f.write_all(&snap_lsn.to_le_bytes())?;
            f.write_all(&(state.len() as u64).to_le_bytes())?;
            f.write_all(&crc32(state).to_le_bytes())?;
            f.write_all(state)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.inner.dir)?;

        // Rotate so the active segment starts past the snapshot, then
        // drop everything the snapshot covers: older segments and
        // superseded snapshots.
        {
            let mut fs_state = self.inner.file.lock();
            let (file, base, len) = create_segment(&self.inner.dir, snap_lsn + 1)?;
            fs_state.file = file;
            fs_state.seg_base = base;
            fs_state.seg_len = len;
            self.inner.tail.lock().reset(snap_lsn);
        }
        let mut kept_segments = 0i64;
        for entry in fs::read_dir(&self.inner.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(base) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".wal")) {
                match base.parse::<Lsn>() {
                    Ok(base) if base <= snap_lsn => fs::remove_file(entry.path())?,
                    _ => kept_segments += 1,
                }
            } else if let Some(l) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".snap"))
            {
                if let Ok(l) = l.parse::<Lsn>() {
                    if l < snap_lsn {
                        fs::remove_file(entry.path())?;
                    }
                }
            }
        }
        sync_dir(&self.inner.dir)?;
        self.inner.segments.set(kept_segments.max(1));
        soc_observe::metrics().counter("soc_store_wal_snapshots_total", &[]).inc();
        Ok(())
    }

    /// Durable records with `lsn > from` — the log-shipping feed for
    /// replica catch-up. Answered from the in-memory tail when it still
    /// reaches back to `from + 1`, else read back from the segment
    /// files. Fails with [`StoreError::Corrupt`] when `from` predates
    /// the compaction horizon (the caller should bootstrap from a
    /// snapshot instead).
    pub fn records_after(&self, from: Lsn) -> StoreResult<Vec<(Lsn, Vec<u8>)>> {
        self.flush()?;
        // Hold the file lock so rotation/compaction can't swap files
        // out from under the scan.
        let _fs_guard = self.inner.file.lock();
        if let Some(recs) = self.inner.tail.lock().range(from, Lsn::MAX) {
            return Ok(recs);
        }
        let mut seg_bases: Vec<Lsn> = Vec::new();
        for entry in fs::read_dir(&self.inner.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(base) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".wal")) {
                if let Ok(base) = base.parse::<Lsn>() {
                    seg_bases.push(base);
                }
            }
        }
        seg_bases.sort_unstable();
        let first = from.saturating_add(1);
        if let Some(&oldest) = seg_bases.first() {
            if first < oldest {
                return Err(StoreError::Corrupt(format!(
                    "records after {from} start before the compaction horizon {oldest}"
                )));
            }
        }
        let mut out = Vec::new();
        for (i, &base) in seg_bases.iter().enumerate() {
            // A segment whose successor starts at or below `from + 1`
            // holds nothing past `from`: skip it unread.
            if seg_bases.get(i + 1).is_some_and(|&next| next <= first) {
                continue;
            }
            match scan_segment(
                &self.inner.dir.join(seg_name(base)),
                base,
                self.inner.cfg.max_record_bytes,
            )? {
                SegmentScan::Clean { recs, .. } => {
                    for (lsn, payload) in recs {
                        if lsn > from {
                            out.push((lsn, payload));
                        }
                    }
                }
                // We hold the file lock and flushed first: segments on
                // disk must be clean. Anything else is real corruption.
                _ => {
                    return Err(StoreError::Corrupt(format!(
                        "segment {base} unreadable during log shipping"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Durable records in `(from, to]` straight from the in-memory
    /// tail: no disk read, no flush and no file lock, so a writer
    /// shipping its own just-acknowledged record never waits on anyone
    /// else's. `None` when the tail no longer reaches back to
    /// `from + 1` (a snapshot emptied it, or the records aged out).
    pub(crate) fn recent(&self, from: Lsn, to: Lsn) -> Option<Vec<(Lsn, Vec<u8>)>> {
        self.inner.tail.lock().range(from, to)
    }

    /// Serialize and persist one batch, then move it into the tail.
    /// Called only by the flush leader (or by [`Wal::snapshot`], which
    /// excludes leaders first) with a non-empty batch.
    fn write_batch(&self, batch: Vec<(Lsn, Vec<u8>)>) -> StoreResult<()> {
        let mut fs_state = self.inner.file.lock();
        let fsync_each = self.inner.cfg.fsync == FsyncPolicy::Always;
        if fsync_each {
            for (_, payload) in &batch {
                let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend_from_slice(&crc32(payload).to_le_bytes());
                frame.extend_from_slice(payload);
                fs_state.file.write_all(&frame)?;
                fs_state.file.sync_data()?;
                fs_state.seg_len += frame.len() as u64;
                self.inner.fsyncs.inc();
            }
        } else {
            let mut buf = std::mem::take(&mut fs_state.buf);
            buf.clear();
            for (_, payload) in &batch {
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(&crc32(payload).to_le_bytes());
                buf.extend_from_slice(payload);
            }
            let result = fs_state.file.write_all(&buf);
            let written = buf.len() as u64;
            fs_state.buf = buf;
            result?;
            fs_state.seg_len += written;
            if self.inner.cfg.fsync == FsyncPolicy::Batch {
                fs_state.file.sync_data()?;
                self.inner.fsyncs.inc();
            }
        }
        self.inner.appends.add(batch.len() as u64);
        self.inner.batch_hist.observe(batch.len() as u64);
        let next_base = {
            let mut tail = self.inner.tail.lock();
            tail.push(batch);
            tail.end + 1
        };

        if fs_state.seg_len >= SEG_HEADER + self.inner.cfg.segment_bytes {
            let (file, base, len) = create_segment(&self.inner.dir, next_base)?;
            fs_state.file = file;
            fs_state.seg_base = base;
            fs_state.seg_len = len;
            self.inner.segments.add(1);
        }
        Ok(())
    }
}

/// Create `seg-{base}.wal` with its header, fsynced, plus the dirent.
/// A file already at that name is replaced: it can only hold a header
/// (a snapshot at `base - 1` right after a rotation to `base`), and
/// appending a second header would make every later frame unreadable.
fn create_segment(dir: &Path, base: Lsn) -> StoreResult<(File, Lsn, u64)> {
    let path = dir.join(seg_name(base));
    let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
    file.write_all(SEG_MAGIC)?;
    file.write_all(&base.to_le_bytes())?;
    file.sync_all()?;
    sync_dir(dir)?;
    Ok((file, base, SEG_HEADER))
}

/// Fsync a directory so freshly created/renamed files survive a crash.
fn sync_dir(dir: &Path) -> StoreResult<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

enum SegmentScan {
    /// Every frame parsed and checksummed.
    Clean { recs: Vec<(Lsn, Vec<u8>)>, end_offset: u64 },
    /// A bad frame at `good_offset`; `recs` hold the clean prefix.
    Torn { recs: Vec<(Lsn, Vec<u8>)>, good_offset: u64, file_len: u64 },
    /// The 16-byte header itself is missing or wrong.
    BadHeader,
}

/// Parse one segment file, stopping (not failing) at the first bad
/// frame — the caller decides whether "torn" is a truncatable tail or
/// fatal mid-log damage.
fn scan_segment(path: &Path, expect_base: Lsn, max_record: u32) -> StoreResult<SegmentScan> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let file_len = data.len() as u64;
    if data.len() < SEG_HEADER as usize
        || &data[..8] != SEG_MAGIC
        || u64::from_le_bytes(data[8..16].try_into().unwrap()) != expect_base
    {
        return Ok(SegmentScan::BadHeader);
    }
    let mut recs = Vec::new();
    let mut off = SEG_HEADER as usize;
    let mut lsn = expect_base;
    loop {
        if off == data.len() {
            return Ok(SegmentScan::Clean { recs, end_offset: off as u64 });
        }
        if data.len() - off < FRAME_HEADER {
            return Ok(SegmentScan::Torn { recs, good_offset: off as u64, file_len });
        }
        let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[off + 4..off + 8].try_into().unwrap());
        if len > max_record as usize || data.len() - off - FRAME_HEADER < len {
            return Ok(SegmentScan::Torn { recs, good_offset: off as u64, file_len });
        }
        let payload = &data[off + FRAME_HEADER..off + FRAME_HEADER + len];
        if crc32(payload) != crc {
            return Ok(SegmentScan::Torn { recs, good_offset: off as u64, file_len });
        }
        recs.push((lsn, payload.to_vec()));
        lsn += 1;
        off += FRAME_HEADER + len;
    }
}

/// Read and validate one snapshot file.
fn read_snapshot(path: &Path, max_bytes: u32) -> StoreResult<Vec<u8>> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    if data.len() < 28 || &data[..8] != SNAP_MAGIC {
        return Err(StoreError::Corrupt("snapshot header damaged".into()));
    }
    let len = u64::from_le_bytes(data[16..24].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[24..28].try_into().unwrap());
    if len > max_bytes as usize || data.len() - 28 != len {
        return Err(StoreError::Corrupt("snapshot length damaged".into()));
    }
    let payload = &data[28..];
    if crc32(payload) != crc {
        return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    fn reopen(dir: &Path) -> (Wal, Recovery) {
        Wal::open(dir).expect("reopen")
    }

    #[test]
    fn append_then_replay_round_trips() {
        let tmp = TempDir::new("wal-rt");
        {
            let (wal, rec) = Wal::open(tmp.path()).unwrap();
            assert!(rec.records.is_empty());
            assert_eq!(wal.append(b"one").unwrap(), 1);
            assert_eq!(wal.append(b"two").unwrap(), 2);
            assert_eq!(wal.append(b"three").unwrap(), 3);
            assert_eq!(wal.durable_lsn(), 3);
        }
        let (_, rec) = reopen(tmp.path());
        let got: Vec<(Lsn, &[u8])> = rec.records.iter().map(|(l, p)| (*l, p.as_slice())).collect();
        assert_eq!(
            got,
            vec![(1, b"one".as_slice()), (2, b"two".as_slice()), (3, b"three".as_slice())]
        );
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_to_a_prefix() {
        let tmp = TempDir::new("wal-torn");
        {
            let (wal, _) = Wal::open(tmp.path()).unwrap();
            for i in 0..10u32 {
                wal.append(format!("record-{i}").as_bytes()).unwrap();
            }
        }
        // Chop bytes off the tail of the single segment.
        let seg = tmp.path().join(seg_name(1));
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (wal, rec) = reopen(tmp.path());
        assert_eq!(rec.records.len(), 9, "exactly the torn record drops");
        assert!(rec.truncated_bytes > 0);
        // The log keeps appending after the truncation point.
        assert_eq!(wal.append(b"after").unwrap(), 10);
        drop(wal);
        let (_, rec) = reopen(tmp.path());
        assert_eq!(rec.records.len(), 10);
        assert_eq!(rec.records.last().unwrap().1, b"after");
    }

    #[test]
    fn corrupt_mid_log_fails_loudly() {
        let tmp = TempDir::new("wal-midcorrupt");
        {
            let (wal, _) =
                Wal::open_with(tmp.path(), WalConfig { segment_bytes: 64, ..WalConfig::default() })
                    .unwrap();
            for i in 0..20u32 {
                wal.append(format!("record-{i:04}").as_bytes()).unwrap();
            }
        }
        // Multiple segments now exist; flip a payload byte in the first.
        let seg = tmp.path().join(seg_name(1));
        let mut data = fs::read(&seg).unwrap();
        let idx = SEG_HEADER as usize + FRAME_HEADER + 2;
        data[idx] ^= 0xFF;
        fs::write(&seg, &data).unwrap();
        match Wal::open(tmp.path()) {
            Err(StoreError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| "ok")),
        }
    }

    #[test]
    fn segment_gap_fails_loudly() {
        let tmp = TempDir::new("wal-gap");
        {
            let (wal, _) =
                Wal::open_with(tmp.path(), WalConfig { segment_bytes: 64, ..WalConfig::default() })
                    .unwrap();
            for i in 0..20u32 {
                wal.append(format!("record-{i:04}").as_bytes()).unwrap();
            }
        }
        // Remove a middle segment.
        let mut bases: Vec<Lsn> = fs::read_dir(tmp.path())
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok()
            })
            .collect();
        bases.sort_unstable();
        assert!(bases.len() >= 3, "need several segments, got {bases:?}");
        fs::remove_file(tmp.path().join(seg_name(bases[1]))).unwrap();
        assert!(matches!(Wal::open(tmp.path()), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn snapshot_compacts_and_replay_uses_it() {
        let tmp = TempDir::new("wal-snap");
        {
            let (wal, _) =
                Wal::open_with(tmp.path(), WalConfig { segment_bytes: 64, ..WalConfig::default() })
                    .unwrap();
            for i in 0..10u32 {
                wal.append(format!("r{i}").as_bytes()).unwrap();
            }
            assert_eq!(wal.snapshot(b"state-at-10").unwrap(), 10);
            wal.append(b"r10").unwrap();
            wal.append(b"r11").unwrap();
        }
        let (_, rec) = reopen(tmp.path());
        let (snap_lsn, state) = rec.snapshot.expect("snapshot survives");
        assert_eq!(snap_lsn, 10);
        assert_eq!(state, b"state-at-10");
        let lsns: Vec<Lsn> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![11, 12]);
        // Old segments are gone.
        let mut bases: Vec<Lsn> = fs::read_dir(tmp.path())
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_prefix("seg-")?.strip_suffix(".wal")?.parse().ok()
            })
            .collect();
        bases.sort_unstable();
        assert_eq!(bases.first().copied(), Some(11));
    }

    #[test]
    fn snapshot_right_after_a_rotation_keeps_later_records() {
        let tmp = TempDir::new("wal-snaprot");
        let cfg = WalConfig { segment_bytes: 1, ..WalConfig::default() };
        {
            // segment_bytes = 1 rotates after every batch, so seg-3
            // already exists (header only) when the snapshot at 2
            // rotates to base 3 again.
            let (wal, _) = Wal::open_with(tmp.path(), cfg.clone()).unwrap();
            wal.append(b"a").unwrap();
            wal.append(b"b").unwrap();
            assert_eq!(wal.snapshot(b"s2").unwrap(), 2);
            wal.append(b"c").unwrap();
            wal.append(b"d").unwrap();
        }
        let (_, rec) = Wal::open_with(tmp.path(), cfg).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        let got: Vec<(Lsn, &[u8])> = rec.records.iter().map(|(l, p)| (*l, p.as_slice())).collect();
        assert_eq!(got, vec![(3, b"c".as_slice()), (4, b"d".as_slice())]);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_one() {
        let tmp = TempDir::new("wal-snapfall");
        {
            let (wal, _) = Wal::open(tmp.path()).unwrap();
            wal.append(b"a").unwrap();
            wal.snapshot(b"s1").unwrap();
            wal.append(b"b").unwrap();
        }
        // Forge a newer, corrupt snapshot (no compaction ran for it, so
        // the records after the *valid* snapshot still exist).
        fs::write(tmp.path().join(snap_name(2)), b"garbage").unwrap();
        let (_, rec) = reopen(tmp.path());
        assert_eq!(rec.snapshot, Some((1, b"s1".to_vec())));
        assert_eq!(rec.records.len(), 1);
    }

    #[test]
    fn snapshot_with_compacted_history_and_no_coverage_fails() {
        let tmp = TempDir::new("wal-snapgone");
        {
            let (wal, _) = Wal::open(tmp.path()).unwrap();
            wal.append(b"a").unwrap();
            wal.append(b"b").unwrap();
            wal.snapshot(b"s2").unwrap();
        }
        // The only snapshot is destroyed; history before it was
        // compacted away — recovery must refuse, not silently restart.
        fs::remove_file(tmp.path().join(snap_name(2))).unwrap();
        assert!(matches!(Wal::open(tmp.path()), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn group_commit_batches_concurrent_appenders() {
        let tmp = TempDir::new("wal-group");
        let (wal, _) = Wal::open(tmp.path()).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..50u32 {
                        wal.append(format!("t{t}-{i}").as_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.durable_lsn(), 400);
        drop(wal);
        let (_, rec) = reopen(tmp.path());
        assert_eq!(rec.records.len(), 400);
        // LSNs are dense and ordered regardless of interleaving.
        for (i, (lsn, _)) in rec.records.iter().enumerate() {
            assert_eq!(*lsn, i as Lsn + 1);
        }
    }

    #[test]
    fn records_after_feeds_log_shipping() {
        let tmp = TempDir::new("wal-ship");
        let (wal, _) = Wal::open(tmp.path()).unwrap();
        for i in 0..6u32 {
            wal.append(format!("r{i}").as_bytes()).unwrap();
        }
        let shipped = wal.records_after(4).unwrap();
        let lsns: Vec<Lsn> = shipped.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![5, 6]);
        assert_eq!(wal.records_after(6).unwrap(), vec![]);
        // Below the compaction horizon → loud error.
        wal.snapshot(b"s").unwrap();
        assert!(matches!(wal.records_after(0), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn tail_keeps_the_newest_records_within_its_bound() {
        let tmp = TempDir::new("wal-tail");
        let (wal, _) = Wal::open_with(
            tmp.path(),
            WalConfig {
                segment_bytes: 64 * 1024,
                fsync: FsyncPolicy::Never,
                ..WalConfig::default()
            },
        )
        .unwrap();
        let payload = [7u8; 1000];
        let n = 2 * TAIL_BYTES / payload.len();
        for _ in 0..n {
            wal.append(&payload).unwrap();
        }
        let last = n as Lsn;
        let recent = wal.recent(last - 4, last).expect("the newest records are in memory");
        assert_eq!(
            recent.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![last - 3, last - 2, last - 1, last]
        );
        assert_eq!(wal.recent(last - 4, last - 2).unwrap().len(), 2);
        // The oldest records aged out of memory; disk still serves them.
        assert!(wal.recent(0, last).is_none());
        let all = wal.records_after(0).unwrap();
        assert_eq!(all.len(), n);
        assert!(all.iter().enumerate().all(|(i, (l, p))| *l == i as Lsn + 1 && p == &payload));
        let footprint = wal.inner.tail.lock().bytes;
        assert!(footprint <= TAIL_BYTES, "tail holds {footprint} bytes");
        // A snapshot empties the tail; the log continues after it.
        wal.snapshot(b"state").unwrap();
        assert!(wal.recent(last - 1, last).is_none());
        assert_eq!(wal.recent(last, last).unwrap(), vec![]);
        wal.append(b"next").unwrap();
        assert_eq!(wal.recent(last, last + 1).unwrap(), vec![(last + 1, b"next".to_vec())]);
    }

    #[test]
    fn install_snapshot_jumps_forward_and_survives_reopen() {
        let tmp = TempDir::new("wal-install");
        {
            let (wal, _) = Wal::open(tmp.path()).unwrap();
            wal.append(b"local-1").unwrap();
            wal.append(b"local-2").unwrap();
            // Rewind refused: tail is 2.
            assert!(matches!(wal.install_snapshot(2, b"rewind"), Err(StoreError::Corrupt(_))));
            wal.install_snapshot(40, b"remote-state-at-40").unwrap();
            assert_eq!(wal.last_lsn(), 40);
            assert_eq!(wal.durable_lsn(), 40);
            // Appends continue past the installed point.
            assert_eq!(wal.append(b"local-41").unwrap(), 41);
        }
        let (_, rec) = reopen(tmp.path());
        assert_eq!(rec.snapshot, Some((40, b"remote-state-at-40".to_vec())));
        let lsns: Vec<Lsn> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![41]);
    }

    #[test]
    fn oversized_record_is_refused() {
        let tmp = TempDir::new("wal-big");
        let (wal, _) =
            Wal::open_with(tmp.path(), WalConfig { max_record_bytes: 8, ..WalConfig::default() })
                .unwrap();
        assert!(matches!(wal.append(b"123456789"), Err(StoreError::Io(_))));
        assert_eq!(wal.append(b"12345678").unwrap(), 1);
    }

    #[test]
    fn fsync_policies_all_recover() {
        for policy in [FsyncPolicy::Always, FsyncPolicy::Batch, FsyncPolicy::Never] {
            let tmp = TempDir::new("wal-policy");
            {
                let (wal, _) =
                    Wal::open_with(tmp.path(), WalConfig { fsync: policy, ..WalConfig::default() })
                        .unwrap();
                wal.append(b"x").unwrap();
                wal.append(b"y").unwrap();
            }
            let (_, rec) = reopen(tmp.path());
            assert_eq!(rec.records.len(), 2, "policy {policy:?}");
        }
    }
}
