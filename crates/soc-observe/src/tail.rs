//! Tail sampling: keep error traces even when head sampling drops them.
//!
//! Head-based sampling decides at the trace root, before anything has
//! gone wrong — which is exactly when the interesting traces (the ones
//! that end in errors) look like every other trace. With tail sampling
//! enabled ([`crate::set_tail_keep_errors`]), spans of head-unsampled
//! traces are buffered in a bounded pending pool instead of being
//! discarded outright. The moment any span in such a trace finishes
//! with [`crate::SpanStatus::Error`], the whole trace is *promoted*:
//! its buffered spans flush into the [`crate::SpanStore`] and later
//! spans of the trace record directly (so a parent that is still open
//! when its child fails is retained too). Traces that finish cleanly
//! age out of the pending pool without ever touching the store.
//!
//! The feature is off by default, and the unsampled fast path stays
//! allocation-free when it is off — the `observe` bench budgets that
//! path at well under a microsecond. When it is on, a head-unsampled
//! span records exactly like a sampled one (the same inline
//! [`SpanRecord`], see [`mod@crate::span`]) and is handed here instead of
//! to the store; the only allocation tail sampling adds is each pending
//! trace's span vector.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

use crate::context::TraceId;
use crate::span::{SpanRecord, SpanStatus};

/// Most head-unsampled traces buffered at once; the oldest trace is
/// evicted (discarded, not promoted) when a new one arrives at
/// capacity.
pub const MAX_PENDING_TRACES: usize = 256;
/// Most spans buffered per pending trace; beyond this, the earliest
/// spans win (they carry the roots) and later ones are dropped unless
/// the trace is promoted first.
pub const MAX_SPANS_PER_TRACE: usize = 64;
/// Most promoted trace ids remembered. Old promotions are forgotten
/// FIFO; a forgotten trace's *later* spans fall back to pending.
const MAX_PROMOTED: usize = 1024;

#[derive(Default)]
struct State {
    /// Buffered spans per head-unsampled trace, plus arrival order for
    /// eviction.
    pending: HashMap<TraceId, Vec<SpanRecord>>,
    arrival: VecDeque<TraceId>,
    /// Traces promoted by an error span: subsequent spans bypass the
    /// buffer and record directly.
    promoted: VecDeque<TraceId>,
}

/// Bounded buffer of head-unsampled spans awaiting a verdict.
#[derive(Default)]
pub(crate) struct TailBuffer {
    state: Mutex<State>,
}

impl TailBuffer {
    /// Route one finished span of a head-unsampled trace. Returns the
    /// spans to flush into the store (empty for buffered spans, the
    /// whole trace on promotion).
    pub(crate) fn offer(&self, record: SpanRecord) -> Vec<SpanRecord> {
        let mut state = self.state.lock();
        if state.promoted.contains(&record.trace_id) {
            return vec![record];
        }
        let is_error = record.status == SpanStatus::Error;
        let trace_id = record.trace_id;
        // A span bumped off by the per-trace cap still flushes if it is
        // the error that promotes the trace.
        let mut overflow = None;
        match state.pending.get_mut(&trace_id) {
            Some(spans) => {
                if spans.len() < MAX_SPANS_PER_TRACE {
                    spans.push(record);
                } else {
                    overflow = Some(record);
                }
            }
            None => {
                while state.pending.len() >= MAX_PENDING_TRACES {
                    match state.arrival.pop_front() {
                        Some(old) => {
                            state.pending.remove(&old);
                        }
                        None => break,
                    }
                }
                state.pending.insert(trace_id, vec![record]);
                state.arrival.push_back(trace_id);
            }
        }
        if !is_error {
            return Vec::new();
        }
        // Promote: flush everything buffered for this trace and record
        // later spans of it directly.
        let mut spans = state.pending.remove(&trace_id).unwrap_or_default();
        spans.extend(overflow);
        state.arrival.retain(|t| *t != trace_id);
        if state.promoted.len() >= MAX_PROMOTED {
            state.promoted.pop_front();
        }
        state.promoted.push_back(trace_id);
        spans
    }

    /// Buffered traces right now (test/diagnostic hook).
    #[cfg(test)]
    pub(crate) fn pending_traces(&self) -> usize {
        self.state.lock().pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SpanId, TraceId};
    use crate::span::{Attrs, SpanKind};

    fn rec(trace: u128, status: SpanStatus, name: &'static str) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(trace),
            span_id: SpanId::generate(),
            parent: None,
            name,
            kind: SpanKind::Internal,
            start_us: 0,
            duration_us: 1,
            status,
            error: None,
            attrs: Attrs::new(),
        }
    }

    #[test]
    fn clean_traces_stay_buffered_and_age_out() {
        let buf = TailBuffer::default();
        assert!(buf.offer(rec(1, SpanStatus::Ok, "a")).is_empty());
        assert!(buf.offer(rec(1, SpanStatus::Ok, "b")).is_empty());
        assert_eq!(buf.pending_traces(), 1);
        // Fill the pool with other traces; trace 1 is evicted FIFO.
        for t in 2..(2 + MAX_PENDING_TRACES as u128) {
            buf.offer(rec(t, SpanStatus::Ok, "x"));
        }
        assert_eq!(buf.pending_traces(), MAX_PENDING_TRACES);
        // An error on the evicted trace promotes only itself.
        let flushed = buf.offer(rec(1, SpanStatus::Error, "late"));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].name, "late");
    }

    #[test]
    fn error_flushes_whole_trace_then_records_directly() {
        let buf = TailBuffer::default();
        buf.offer(rec(7, SpanStatus::Ok, "child1"));
        buf.offer(rec(7, SpanStatus::Ok, "child2"));
        let flushed = buf.offer(rec(7, SpanStatus::Error, "boom"));
        let names: Vec<&str> = flushed.iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["child1", "child2", "boom"]);
        // The still-open parent finishing later records directly.
        let late = buf.offer(rec(7, SpanStatus::Ok, "root"));
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].name, "root");
        assert_eq!(buf.pending_traces(), 0);
    }

    #[test]
    fn per_trace_span_cap_keeps_earliest() {
        let buf = TailBuffer::default();
        for i in 0..(MAX_SPANS_PER_TRACE + 10) {
            buf.offer(SpanRecord { start_us: i as u64, ..rec(9, SpanStatus::Ok, "s") });
        }
        let flushed = buf.offer(rec(9, SpanStatus::Error, "boom"));
        assert_eq!(flushed.len(), MAX_SPANS_PER_TRACE + 1);
        assert_eq!((flushed[0].name, flushed[0].start_us), ("s", 0));
        assert_eq!(flushed[MAX_SPANS_PER_TRACE - 1].start_us, MAX_SPANS_PER_TRACE as u64 - 1);
        assert_eq!(flushed.last().unwrap().name, "boom");
    }
}
