//! Bounded, sharded in-memory span storage.
//!
//! Spans are kept in per-shard rings (oldest evicted first). Sharding
//! is by trace id, so all spans of one trace land in one shard and a
//! trace lookup scans a single ring under a single short lock. A full
//! ring overwrites its oldest slot in place, and the evicted record is
//! dropped after the lock is released.

use parking_lot::Mutex;

use crate::context::TraceId;
use crate::span::SpanRecord;

/// Default number of shards in the global store.
pub const DEFAULT_SHARDS: usize = 16;
/// Default per-shard ring capacity (total retention = shards × this).
pub const DEFAULT_SHARD_CAPACITY: usize = 2048;

struct Shard {
    ring: Mutex<Ring>,
}

/// A bounded ring: grows to its capacity, then `next` walks it,
/// pointing at the oldest record. Readers sort what they take, so slot
/// order carries no meaning.
#[derive(Default)]
struct Ring {
    slots: Vec<SpanRecord>,
    next: usize,
}

/// A sharded ring buffer of finished spans.
pub struct SpanStore {
    shards: Vec<Shard>,
    shard_capacity: usize,
}

impl SpanStore {
    /// A store with `shards` rings of `shard_capacity` spans each.
    pub fn new(shards: usize, shard_capacity: usize) -> SpanStore {
        let shards = shards.max(1);
        SpanStore {
            shards: (0..shards).map(|_| Shard { ring: Mutex::new(Ring::default()) }).collect(),
            shard_capacity: shard_capacity.max(1),
        }
    }

    fn shard(&self, trace_id: TraceId) -> &Shard {
        // Fibonacci-hash the folded id, then scale it onto the shard
        // count with a multiply: no division on the record path.
        let h =
            ((trace_id.0 as u64) ^ ((trace_id.0 >> 64) as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[((u128::from(h) * self.shards.len() as u128) >> 64) as usize]
    }

    /// Append a finished span, evicting the shard's oldest span when
    /// the ring is full.
    pub fn record(&self, mut rec: SpanRecord) {
        self.record_swap(&mut rec);
    }

    /// Store `*rec` and leave the evicted record (or a blank one while
    /// the ring still grows) in its place, for the caller to drop
    /// outside the shard lock. A swap moves each record once, where
    /// taking ownership would copy it out of the finished span first.
    pub(crate) fn record_swap(&self, rec: &mut SpanRecord) {
        let mut ring = self.shard(rec.trace_id).ring.lock();
        if ring.slots.len() < self.shard_capacity {
            ring.slots.push(std::mem::replace(rec, SpanRecord::blank()));
            return;
        }
        let next = ring.next;
        ring.next = if next + 1 == self.shard_capacity { 0 } else { next + 1 };
        std::mem::swap(&mut ring.slots[next], rec);
    }

    /// All retained spans of `trace_id`, ordered by start time (ties
    /// broken by span id for determinism).
    pub fn trace(&self, trace_id: TraceId) -> Vec<SpanRecord> {
        let ring = self.shard(trace_id).ring.lock();
        let mut spans: Vec<SpanRecord> =
            ring.slots.iter().filter(|s| s.trace_id == trace_id).cloned().collect();
        drop(ring);
        spans.sort_by_key(|s| (s.start_us, s.span_id.0));
        spans
    }

    /// Distinct retained trace ids with their span counts, most spans
    /// first (ties by id for determinism).
    pub fn trace_ids(&self) -> Vec<(TraceId, usize)> {
        let mut counts: std::collections::HashMap<TraceId, usize> =
            std::collections::HashMap::new();
        for shard in &self.shards {
            for s in &shard.ring.lock().slots {
                *counts.entry(s.trace_id).or_default() += 1;
            }
        }
        let mut out: Vec<(TraceId, usize)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        out
    }

    /// Total spans currently retained.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.ring.lock().slots.len()).sum()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every retained span.
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.ring.lock() = Ring::default();
        }
    }
}

impl Default for SpanStore {
    fn default() -> Self {
        SpanStore::new(DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SpanId;
    use crate::span::{Attrs, SpanKind, SpanStatus};

    fn rec(trace: u128, span: u64, start_us: u64) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(trace),
            span_id: SpanId(span),
            parent: None,
            name: "t",
            kind: SpanKind::Internal,
            start_us,
            duration_us: 1,
            status: SpanStatus::Ok,
            error: None,
            attrs: Attrs::new(),
        }
    }

    #[test]
    fn trace_lookup_filters_and_sorts() {
        let store = SpanStore::new(4, 16);
        store.record(rec(7, 2, 20));
        store.record(rec(7, 1, 10));
        store.record(rec(9, 3, 5));
        let spans = store.trace(TraceId(7));
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].span_id, SpanId(1));
        assert_eq!(spans[1].span_id, SpanId(2));
        assert_eq!(store.trace(TraceId(1234)).len(), 0);
    }

    #[test]
    fn ring_evicts_oldest() {
        let store = SpanStore::new(1, 3);
        for i in 0..5 {
            store.record(rec(42, i + 1, i));
        }
        assert_eq!(store.len(), 3);
        let spans = store.trace(TraceId(42));
        assert_eq!(spans.iter().map(|s| s.span_id.0).collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn trace_ids_counts() {
        let store = SpanStore::new(4, 16);
        store.record(rec(1, 1, 0));
        store.record(rec(1, 2, 1));
        store.record(rec(2, 3, 2));
        let ids = store.trace_ids();
        assert_eq!(ids[0], (TraceId(1), 2));
        assert_eq!(ids[1], (TraceId(2), 1));
        store.clear();
        assert!(store.is_empty());
    }
}
