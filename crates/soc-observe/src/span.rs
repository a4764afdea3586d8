//! Spans: timed units of work with status and attributes.
//!
//! A [`Span`] is a guard — it reads the clock once when it starts and
//! records itself into the global [`crate::SpanStore`] on drop.
//! Unsampled spans still carry a [`TraceContext`] (so the decision
//! propagates downstream) but skip all bookkeeping: no allocation, no
//! clock read, no store write.
//!
//! # Record layout
//!
//! A sampled span builds its [`SpanRecord`] inside the `Span` itself
//! (no box), and the store takes it by swapping it into a ring slot.
//! The name and the attribute keys are `&'static str`. The first
//! [`INLINE_ATTRS`] attributes live in the record; a fifth spills to a
//! heap vector. Values are [`AttrValue`]s: static strings, integers and
//! flags are held as they are, and only run-time text
//! ([`AttrValue::Text`], set through [`Span::set_text`]) owns a heap
//! copy. A recorded span with static, integer and flag attributes
//! therefore allocates nothing once its store shard is full, and each
//! text attribute costs one allocation. Values render to the same
//! strings `/observe/traces/{id}` always carried (`"200"`, `"true"`,
//! ...).
//!
//! # Cost
//!
//! From the `observe` bench on a 2-vCPU KVM guest, against a full
//! store: a sampled-out span costs 20–30 ns, and a recorded span with
//! one attribute 170–200 ns (up to 270 ns in runs that start right
//! after a build). Two clock reads (about 40 ns each on that host) and
//! the shard lock (about 20 ns) are much of it. A whole traced server
//! hop (`traceparent` parse, `http.server` around `rest.dispatch`,
//! `X-Trace-Id`) costs 380–570 ns (`server_hop_recorded`).

use std::borrow::Cow;
use std::sync::OnceLock;
use std::time::Instant;

use soc_json::Value;

use crate::context::{self, ContextGuard, SpanId, TraceContext, TraceId};

/// What side of a hop a span describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    /// Outbound request: the caller's view of a hop.
    Client,
    /// Inbound request: the callee's view of a hop.
    Server,
    /// Work local to one process (workflow steps, gateway logic).
    Internal,
}

impl SpanKind {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Client => "client",
            SpanKind::Server => "server",
            SpanKind::Internal => "internal",
        }
    }
}

/// Terminal status of a span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanStatus {
    /// Completed without a recorded error.
    Ok,
    /// [`Span::set_error`] was called.
    Error,
}

impl SpanStatus {
    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Error => "error",
        }
    }
}

/// Attributes stored inline; a span setting more spills to the heap.
/// Four is the most any instrumented call site sets today.
pub const INLINE_ATTRS: usize = 4;

/// One attribute value. Static strings, integers and booleans are held
/// as they are; only [`AttrValue::Text`] owns a heap copy.
/// `/observe/traces/{id}` carries every value as the string
/// [`AttrValue::render`] gives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrValue {
    /// A string known at compile time: no copy.
    Str(&'static str),
    /// An integer, rendered in decimal.
    Int(i64),
    /// A flag, rendered `true` / `false`.
    Bool(bool),
    /// A string that only exists at run time: one heap copy.
    Text(Box<str>),
}

impl AttrValue {
    /// The rendered value: borrowed for strings and flags, formatted
    /// for integers.
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            AttrValue::Str(s) => Cow::Borrowed(s),
            AttrValue::Text(s) => Cow::Borrowed(s),
            AttrValue::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            AttrValue::Int(i) => Cow::Owned(i.to_string()),
        }
    }
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> AttrValue {
        AttrValue::Str(s)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> AttrValue {
        AttrValue::Bool(b)
    }
}

impl From<u16> for AttrValue {
    fn from(i: u16) -> AttrValue {
        AttrValue::Int(i.into())
    }
}

impl From<u32> for AttrValue {
    fn from(i: u32) -> AttrValue {
        AttrValue::Int(i.into())
    }
}

impl From<usize> for AttrValue {
    fn from(i: usize) -> AttrValue {
        AttrValue::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

/// One attribute: a static key and its value.
type Attr = (&'static str, AttrValue);

/// A span's attributes in insertion order: the first
/// [`INLINE_ATTRS`] live in the record itself, any further ones in a
/// heap vector allocated on the first spill.
#[derive(Debug)]
pub struct Attrs {
    inline: [Option<Attr>; INLINE_ATTRS],
    spill: Vec<Attr>,
}

impl Attrs {
    /// No attributes; allocates nothing.
    pub const fn new() -> Attrs {
        Attrs { inline: [const { None }; INLINE_ATTRS], spill: Vec::new() }
    }

    /// Append one attribute (a repeated key is kept twice, as set).
    #[inline]
    pub fn push(&mut self, key: &'static str, value: AttrValue) {
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some((key, value)),
            None => self.spill.push((key, value)),
        }
    }

    /// Attributes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &AttrValue)> {
        self.inline.iter().map_while(Option::as_ref).chain(&self.spill).map(|(k, v)| (*k, v))
    }
}

impl Clone for Attrs {
    /// Clones only the slots in use.
    fn clone(&self) -> Attrs {
        let mut out = Attrs::new();
        for (k, v) in self.iter() {
            out.push(k, v.clone());
        }
        out
    }
}

impl Default for Attrs {
    fn default() -> Attrs {
        Attrs::new()
    }
}

/// A finished span as kept by the [`crate::SpanStore`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: TraceId,
    /// This span's id.
    pub span_id: SpanId,
    /// Parent span id, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Operation name, e.g. `"gateway.attempt"`.
    pub name: &'static str,
    /// Client / server / internal.
    pub kind: SpanKind,
    /// Start time, microseconds since process start.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Terminal status.
    pub status: SpanStatus,
    /// Error detail when `status == Error`.
    pub error: Option<String>,
    /// Key/value attributes in insertion order.
    pub attrs: Attrs,
}

impl SpanRecord {
    /// A placeholder left behind when a record moves into the store.
    pub(crate) const fn blank() -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(0),
            span_id: SpanId(0),
            parent: None,
            name: "",
            kind: SpanKind::Internal,
            start_us: 0,
            duration_us: 0,
            status: SpanStatus::Ok,
            error: None,
            attrs: Attrs::new(),
        }
    }

    /// JSON form used by `/observe/traces/{id}`.
    pub fn to_json(&self) -> Value {
        let mut v = Value::Object(vec![]);
        v.set("span_id", self.span_id.to_hex());
        match self.parent {
            Some(p) => v.set("parent_span_id", p.to_hex()),
            None => v.set("parent_span_id", Value::Null),
        }
        v.set("name", self.name);
        v.set("kind", self.kind.as_str());
        v.set("start_us", self.start_us as i64);
        v.set("duration_us", self.duration_us as i64);
        v.set("status", self.status.as_str());
        if let Some(e) = &self.error {
            v.set("error", e.as_str());
        }
        let mut attrs = Value::Object(vec![]);
        for (k, val) in self.attrs.iter() {
            attrs.set(k, val.render().as_ref());
        }
        v.set("attrs", attrs);
        v
    }
}

/// Recording state carried only by sampled spans: the record being
/// built, and the clock reading its duration is measured from.
struct ActiveSpan {
    started: Instant,
    record: SpanRecord,
}

/// A live span guard. Records itself into the global store when
/// dropped (or via [`Span::finish`]).
pub struct Span {
    ctx: TraceContext,
    active: Option<ActiveSpan>,
}

impl Span {
    #[inline]
    fn start(
        ctx: TraceContext,
        parent: Option<SpanId>,
        name: &'static str,
        kind: SpanKind,
    ) -> Span {
        let active = if ctx.sampled {
            let started = Instant::now();
            Some(ActiveSpan {
                started,
                record: SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    parent,
                    name,
                    kind,
                    start_us: since_epoch_us(started),
                    duration_us: 0,
                    status: SpanStatus::Ok,
                    error: None,
                    attrs: Attrs::new(),
                },
            })
        } else {
            None
        };
        Span { ctx, active }
    }

    /// This span's propagated context (fresh span id under the parent's
    /// trace, or a fresh trace for roots).
    pub fn context(&self) -> TraceContext {
        self.ctx
    }

    /// Whether the span was sampled in — attribute and status calls on
    /// an unsampled span are no-ops, so callers can skip building
    /// attribute strings entirely.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Attach a key/value attribute (no-op when unsampled). The value
    /// is converted only when the span records, so an integer status
    /// costs nothing on an unsampled span.
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(a) = &mut self.active {
            a.record.attrs.push(key, value.into());
        }
    }

    /// Attach a borrowed run-time string, copied into an
    /// [`AttrValue::Text`] only when the span records.
    pub fn set_text(&mut self, key: &'static str, value: &str) {
        if let Some(a) = &mut self.active {
            a.record.attrs.push(key, AttrValue::Text(value.into()));
        }
    }

    /// Mark the span failed with a detail message (no-op when
    /// unsampled).
    pub fn set_error(&mut self, detail: impl Into<String>) {
        if let Some(a) = &mut self.active {
            a.record.status = SpanStatus::Error;
            a.record.error = Some(detail.into());
        }
    }

    /// Make this span the thread's current context until the guard
    /// drops — outbound transports then inject it, and child spans
    /// parent to it.
    pub fn activate(&self) -> ContextGuard {
        context::set_current(self.ctx)
    }

    /// Stop the clock and record the span now (equivalent to dropping
    /// it, but reads as intent at call sites).
    #[inline]
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = &mut self.active else { return };
        active.record.duration_us =
            active.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        // The evicted record comes back in its place and is freed with
        // this span, after the shard lock is released.
        crate::global().store().record_swap(&mut active.record);
    }
}

/// Start a root span: fresh trace id, sampling decided by the global
/// sample rate.
#[inline]
pub fn root_span(name: &'static str, kind: SpanKind) -> Span {
    let ctx = TraceContext {
        trace_id: TraceId::generate(),
        span_id: SpanId::generate(),
        sampled: crate::global().sample(),
    };
    Span::start(ctx, None, name, kind)
}

/// Start a child of an explicit parent context (same trace, inherits
/// the parent's sampling decision). Used when the parent lives on
/// another thread or arrived over the wire.
#[inline]
pub fn child_span(parent: TraceContext, name: &'static str, kind: SpanKind) -> Span {
    let ctx = TraceContext {
        trace_id: parent.trace_id,
        span_id: SpanId::generate(),
        sampled: parent.sampled,
    };
    Span::start(ctx, Some(parent.span_id), name, kind)
}

/// Start a span under the thread's current context, or a new root if
/// none is active.
#[inline]
pub fn span(name: &'static str, kind: SpanKind) -> Span {
    match context::current() {
        Some(parent) => child_span(parent, name, kind),
        None => root_span(name, kind),
    }
}

/// Microseconds from process start (the first span's start) to `at`,
/// on the monotonic clock.
fn since_epoch_us(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(|| at);
    at.saturating_duration_since(epoch).as_micros().min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_root_records_into_store() {
        let mut s = root_span("test.sampled_root", SpanKind::Internal);
        assert!(s.is_recording());
        let trace = s.context().trace_id;
        s.set_attr("k", "v");
        s.finish();
        let spans = crate::global().store().trace(trace);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.sampled_root");
        assert_eq!(spans[0].parent, None);
        let attrs: Vec<(&str, String)> =
            spans[0].attrs.iter().map(|(k, v)| (k, v.render().into_owned())).collect();
        assert_eq!(attrs, vec![("k", "v".to_string())]);
        assert_eq!(spans[0].status, SpanStatus::Ok);
    }

    #[test]
    fn unsampled_parent_disables_recording_but_propagates() {
        let parent = TraceContext {
            trace_id: TraceId::generate(),
            span_id: SpanId::generate(),
            sampled: false,
        };
        let mut child = child_span(parent, "test.unsampled", SpanKind::Client);
        assert!(!child.is_recording());
        assert_eq!(child.context().trace_id, parent.trace_id);
        assert!(!child.context().sampled);
        child.set_attr("ignored", "yes");
        child.set_error("ignored");
        let trace = child.context().trace_id;
        child.finish();
        assert!(crate::global().store().trace(trace).is_empty());
    }

    #[test]
    fn activation_parents_nested_spans() {
        let root = root_span("test.parent", SpanKind::Internal);
        let root_ctx = root.context();
        let child_ctx = {
            let _g = root.activate();
            let child = span("test.child", SpanKind::Internal);
            child.context()
        };
        drop(root);
        assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
        let spans = crate::global().store().trace(root_ctx.trace_id);
        assert_eq!(spans.len(), 2);
        let child_rec = spans.iter().find(|s| s.name == "test.child").unwrap();
        assert_eq!(child_rec.parent, Some(root_ctx.span_id));
    }

    #[test]
    fn typed_attributes_render_as_strings_in_insertion_order() {
        let mut s = root_span("test.typed_attrs", SpanKind::Server);
        let trace = s.context().trace_id;
        s.set_attr("http.method", "GET");
        s.set_text("http.target", &String::from("/svc/x"));
        s.set_attr("http.status", 503u16);
        s.set_attr("hedge", true);
        // Past the inline slots: spills, and keeps its place.
        s.set_attr("attempt", 2u32);
        s.set_attr("nodes", 7usize);
        drop(s);
        let rec = crate::global().store().trace(trace).remove(0);
        let json = rec.to_json();
        let attrs = json.pointer("/attrs").unwrap();
        let expected = [
            ("http.method", "GET"),
            ("http.target", "/svc/x"),
            ("http.status", "503"),
            ("hedge", "true"),
            ("attempt", "2"),
            ("nodes", "7"),
        ];
        let expected_json = {
            let mut v = Value::Object(vec![]);
            for (k, val) in expected {
                v.set(k, val);
            }
            v
        };
        assert_eq!(attrs, &expected_json);
    }

    #[test]
    fn error_status_is_recorded() {
        let mut s = root_span("test.error", SpanKind::Server);
        let trace = s.context().trace_id;
        s.set_error("upstream exploded");
        drop(s);
        let spans = crate::global().store().trace(trace);
        assert_eq!(spans[0].status, SpanStatus::Error);
        assert_eq!(spans[0].error.as_deref(), Some("upstream exploded"));
    }
}
