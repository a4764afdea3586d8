//! # soc-observe — distributed tracing + unified metrics plane
//!
//! The dependability layer of the stack (the paper's unit 6): you
//! cannot fix what you cannot see. This crate provides
//!
//! - a **tracing core** — [`TraceId`]/[`SpanId`], [`Span`] guards with
//!   timed start/stop, status and key/value attributes, recorded into a
//!   sharded ring-buffer [`SpanStore`] with head-based probabilistic
//!   sampling ([`set_sample_rate`]);
//! - **context propagation** — a W3C-`traceparent`-style header
//!   ([`TraceContext::to_traceparent`] /
//!   [`TraceContext::parse_traceparent`]) plus a thread-local current
//!   context that transports inject and servers extract, so a request
//!   crossing gateway → SOAP/REST dispatch → workflow activities yields
//!   one coherent trace tree;
//! - a **unified [`MetricsRegistry`]** — counters / gauges /
//!   fixed-bucket histograms registered by name + labels and rendered
//!   as Prometheus-style text.
//!
//! Everything hangs off one process-wide [`global`] instance so any
//! crate can record without plumbing handles; `soc-http` mounts the
//! `/observe/metrics` and `/observe/traces/{id}` endpoints over it.
//!
//! Tracing is cheap enough to leave on, which is why the default head
//! sampling rate is 1.0. A recorded span keeps its name, attribute keys
//! and static, integer and flag values inline in its [`SpanRecord`]
//! (see [`mod@span`] for the layout), so it allocates nothing beyond one
//! copy per run-time text attribute; `traceparent` encodes into one
//! allocation and parses into none. The `observe` bench budgets a
//! recorded span at 250 ns, a whole traced server hop at 800 ns, a
//! `traceparent` round trip at 150 ns and a sampled-out span at 100 ns,
//! and `tests/alloc_count.rs` pins the allocation counts.

pub mod context;
pub mod metrics;
pub mod span;
pub mod store;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

pub use context::{ContextGuard, SpanId, TraceContext, TraceId, TRACEPARENT};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_US};
pub use span::{
    child_span, root_span, span, AttrValue, Attrs, Span, SpanKind, SpanRecord, SpanStatus,
};
pub use store::SpanStore;

/// The process-wide observability plane: span store + metrics registry
/// + the head-based sampling rate.
pub struct Observability {
    store: SpanStore,
    metrics: MetricsRegistry,
    /// f64 bits of the sampling probability in `[0, 1]`.
    sample_rate: AtomicU64,
}

impl Observability {
    /// A fresh plane sampling every trace (rate 1.0).
    pub fn new() -> Observability {
        Observability {
            store: SpanStore::default(),
            metrics: MetricsRegistry::new(),
            sample_rate: AtomicU64::new(1.0f64.to_bits()),
        }
    }

    /// The span store.
    pub fn store(&self) -> &SpanStore {
        &self.store
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Set the head-based sampling probability (clamped to `[0, 1]`;
    /// applies to new trace roots only — in-flight traces keep their
    /// decision).
    pub fn set_sample_rate(&self, rate: f64) {
        self.sample_rate.store(rate.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    /// The current head-based sampling probability.
    pub fn sample_rate(&self) -> f64 {
        f64::from_bits(self.sample_rate.load(Ordering::Relaxed))
    }

    /// One head-based sampling decision.
    pub(crate) fn sample(&self) -> bool {
        let rate = self.sample_rate();
        if rate >= 1.0 {
            true
        } else if rate <= 0.0 {
            false
        } else {
            // 53 uniform mantissa bits → [0, 1).
            let u = (context::next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            u < rate
        }
    }
}

impl Default for Observability {
    fn default() -> Self {
        Observability::new()
    }
}

/// The process-wide observability plane.
pub fn global() -> &'static Observability {
    static GLOBAL: OnceLock<Observability> = OnceLock::new();
    GLOBAL.get_or_init(Observability::new)
}

/// Shorthand for [`global`]`().metrics()`.
pub fn metrics() -> &'static MetricsRegistry {
    global().metrics()
}

/// Shorthand for [`global`]`().store()`.
pub fn store() -> &'static SpanStore {
    global().store()
}

/// Set the global head-based sampling rate (see
/// [`Observability::set_sample_rate`]).
pub fn set_sample_rate(rate: f64) {
    global().set_sample_rate(rate);
}

/// The JSON tree served on `/observe/traces/{trace_id}`: the trace id,
/// its span count, and every retained span (start-ordered, with
/// `parent_span_id` links).
pub fn trace_json(trace_id: TraceId) -> Option<soc_json::Value> {
    let spans = store().trace(trace_id);
    if spans.is_empty() {
        return None;
    }
    let mut root = soc_json::Value::Object(vec![]);
    root.set("trace_id", trace_id.to_hex());
    root.set("span_count", spans.len() as i64);
    root.set("spans", soc_json::Value::Array(spans.iter().map(SpanRecord::to_json).collect()));
    Some(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_rate_clamps_and_round_trips() {
        let obs = Observability::new();
        assert!((obs.sample_rate() - 1.0).abs() < f64::EPSILON);
        obs.set_sample_rate(2.5);
        assert!((obs.sample_rate() - 1.0).abs() < f64::EPSILON);
        obs.set_sample_rate(-1.0);
        assert!(obs.sample_rate().abs() < f64::EPSILON);
        assert!(!obs.sample());
        obs.set_sample_rate(0.25);
        let hits = (0..4096).filter(|_| obs.sample()).count();
        // 4σ ≈ ±110 around the 1024 expectation.
        assert!((900..1150).contains(&hits), "sampler badly biased: {hits}/4096");
    }

    #[test]
    fn trace_json_shape() {
        let mut s = root_span("test.json", SpanKind::Server);
        s.set_attr("svc", "quotes");
        let trace = s.context().trace_id;
        {
            let _g = s.activate();
            span("test.json.child", SpanKind::Internal).finish();
        }
        drop(s);
        let v = trace_json(trace).unwrap();
        assert_eq!(
            v.pointer("/trace_id").and_then(soc_json::Value::as_str),
            Some(trace.to_hex()).as_deref()
        );
        assert_eq!(v.pointer("/span_count").and_then(soc_json::Value::as_i64), Some(2));
        let spans = v.pointer("/spans").unwrap();
        let names: Vec<&str> = (0..2)
            .map(|i| {
                spans.pointer(&format!("/{i}/name")).and_then(soc_json::Value::as_str).unwrap()
            })
            .collect();
        assert!(names.contains(&"test.json"));
        assert!(names.contains(&"test.json.child"));
        assert!(trace_json(TraceId(0xdead)).is_none());
    }
}
