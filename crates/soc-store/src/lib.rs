//! # soc-store — the durable state plane
//!
//! Every stateful component in the stack — the submission ledger, the
//! shopping cart, the message buffer, saga completion records — used to
//! live purely in process memory, so a crash lost exactly the state the
//! idempotency and compensation planes exist to protect. This crate is
//! the missing layer underneath them:
//!
//! * [`Wal`] — an append-only, CRC-framed, segmented write-ahead log
//!   with group-commit batching, an fsync-policy knob, and
//!   snapshot-then-truncate compaction. Recovery replays to a
//!   prefix-consistent state or fails loudly; it never silently applies
//!   a partial suffix.
//! * [`StateMachine`] / [`Durable`] — a deterministic replay contract:
//!   any component that expresses its mutations as logged commands
//!   reopens to its pre-crash state. [`Durable::in_memory`] runs the
//!   same machine with no log, for services that also offer a
//!   non-durable constructor.
//! * [`ShardMap`] — consistent hashing over the registry's lease table
//!   with N-way replication: every key has one primary and `N-1`
//!   replica owners, and the ring rebuilds when leases join or expire.
//! * [`StoreNode`] / [`StoreClient`] — an HTTP key-value facade over a
//!   durable machine: primary-per-shard writes, replica catch-up via
//!   log shipping, and read-your-writes through per-key versions
//!   (replica reads are version-gated and fall back to the primary).
//!
//! The paper's account-application project (unit 5) stores state in a
//! durable `account.xml`; this crate is that obligation grown to a
//! production shape, per PAPERS.md's "Inter-Connectivity of Information
//! Systems" (multi-system state exchange with consistency obligations).

pub mod fence;
pub mod kv;
pub mod node;
pub mod rebalance;
pub mod shard;
pub mod state;
pub mod wal;

pub use fence::Fence;
pub use kv::KvMachine;
pub use node::{StoreClient, StoreNode, StoreNodeConfig};
pub use rebalance::{RebalanceConfig, Rebalancer};
pub use shard::{ShardMap, ShardNode};
pub use state::{Durable, StateMachine};
pub use wal::{FsyncPolicy, Lsn, Recovery, Wal, WalConfig};

use std::fmt;

/// Errors surfaced by the durable state plane.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem failed.
    Io(std::io::Error),
    /// The log or a snapshot is damaged in a way recovery cannot
    /// reconcile with prefix consistency (a hole before intact
    /// records, a missing history segment, an unreadable snapshot).
    Corrupt(String),
    /// A write was routed to a node that does not own the key's shard.
    NotPrimary {
        /// The shard key that was misrouted.
        key: String,
        /// The owning primary's endpoint, when the node knows it.
        primary: Option<String>,
    },
    /// A version-gated read hit a replica that has not caught up.
    Behind {
        /// Highest version applied locally.
        have: Lsn,
        /// Version floor the reader demanded.
        want: Lsn,
    },
    /// The node's fencing lease lapsed: it may still *hold* state but
    /// can no longer prove it is the primary, so it refuses writes.
    Fenced {
        /// The last epoch the node held a valid lease under.
        epoch: u64,
    },
    /// Replication traffic arrived under an epoch older than one this
    /// node has already obeyed — a partitioned old primary talking past
    /// its fence.
    StaleEpoch {
        /// The newest epoch this node has accepted from the source.
        have: u64,
        /// The epoch the stale shipment carried.
        got: u64,
    },
    /// A remote store call failed (transport or peer error).
    Remote(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt(why) => write!(f, "corrupt log: {why}"),
            StoreError::NotPrimary { key, primary } => match primary {
                Some(p) => write!(f, "not primary for {key:?} (primary is {p})"),
                None => write!(f, "not primary for {key:?}"),
            },
            StoreError::Behind { have, want } => {
                write!(f, "replica behind: have version {have}, want {want}")
            }
            StoreError::Fenced { epoch } => {
                write!(f, "fencing lease lapsed (last held epoch {epoch}); refusing writes")
            }
            StoreError::StaleEpoch { have, got } => {
                write!(f, "stale fencing epoch {got} (newest accepted {have})")
            }
            StoreError::Remote(why) => write!(f, "remote store error: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// A unique scratch directory under the system temp dir, removed on
/// drop — shared by this crate's tests, the recovery proptests, and
/// the store bench (which must point the WAL at a real filesystem).
pub struct TempDir {
    path: std::path::PathBuf,
}

impl TempDir {
    /// Create `soc-store-{pid}-{n}` under the system temp directory.
    pub fn new(tag: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("soc-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the record and
/// snapshot checksum. Table-driven; the table is built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn temp_dirs_are_distinct_and_cleaned() {
        let a = TempDir::new("t");
        let b = TempDir::new("t");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }
}
