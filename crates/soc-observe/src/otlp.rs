//! OTLP-shaped span export: batches of finished spans encoded as
//! OTLP/JSON (`ExportTraceServiceRequest`), the wire form an
//! OpenTelemetry collector accepts on `/v1/traces`.
//!
//! The encoder is deliberately a *batcher*: callers hand it a slice of
//! [`SpanRecord`]s and get back one encoded request. [`OtlpExporter`]
//! keeps both the JSON tree's string buffer and the batch staging
//! vector across calls, so a periodic export loop settles into zero
//! steady-state allocation growth — the same buffer-reuse discipline as
//! [`soc_json::ser::write_into`], which it uses to render.
//!
//! Timestamps are nanoseconds on the process-relative monotonic clock
//! the span store records (`start_us`); a collector pinning them to the
//! epoch would add the process start time. Field spelling and nesting
//! (`resourceSpans` → `scopeSpans` → `spans`, `stringValue` attribute
//! wrappers, stringified 64-bit integers) follow the OTLP/JSON mapping
//! so the output shape matches what real exporters emit.

use soc_json::Value;

use crate::span::{SpanKind, SpanRecord, SpanStatus};

/// OTLP enum value for a span kind (`SPAN_KIND_*`).
fn kind_code(kind: SpanKind) -> i64 {
    match kind {
        SpanKind::Internal => 1,
        SpanKind::Server => 2,
        SpanKind::Client => 3,
    }
}

/// OTLP enum value for a status (`STATUS_CODE_*`).
fn status_code(status: SpanStatus) -> i64 {
    match status {
        SpanStatus::Ok => 1,
        SpanStatus::Error => 2,
    }
}

/// One OTLP attribute: `{"key": k, "value": {"stringValue": v}}`.
fn attr(key: &str, value: &str) -> Value {
    let mut wrapped = Value::object();
    wrapped.set("stringValue", value);
    let mut a = Value::object();
    a.set("key", key);
    a.set("value", wrapped);
    a
}

/// Encode one finished span in OTLP/JSON span form.
pub fn span_to_otlp(rec: &SpanRecord) -> Value {
    let mut s = Value::object();
    s.set("traceId", rec.trace_id.to_hex());
    s.set("spanId", rec.span_id.to_hex());
    if let Some(parent) = rec.parent {
        s.set("parentSpanId", parent.to_hex());
    }
    s.set("name", rec.name);
    s.set("kind", kind_code(rec.kind));
    // OTLP/JSON carries 64-bit nanos as decimal strings.
    s.set("startTimeUnixNano", (rec.start_us * 1000).to_string());
    s.set("endTimeUnixNano", ((rec.start_us + rec.duration_us) * 1000).to_string());
    let mut attrs: Vec<Value> = rec.attrs.iter().map(|(k, v)| attr(k, &v.render())).collect();
    if let Some(err) = &rec.error {
        attrs.push(attr("error.message", err));
    }
    if !attrs.is_empty() {
        s.set("attributes", Value::Array(attrs));
    }
    let mut status = Value::object();
    status.set("code", status_code(rec.status));
    if let Some(err) = &rec.error {
        status.set("message", err.as_str());
    }
    s.set("status", status);
    s
}

/// Batched span-export encoder with reused buffers.
///
/// ```
/// use soc_observe::otlp::OtlpExporter;
///
/// let mut exporter = OtlpExporter::new("soc-demo");
/// // e.g. the spans of a finished trace, pulled from the store:
/// let batch: Vec<soc_observe::SpanRecord> = Vec::new();
/// let request_body = exporter.encode_batch(&batch);
/// assert!(request_body.starts_with("{\"resourceSpans\":"));
/// ```
pub struct OtlpExporter {
    service_name: String,
    buf: String,
}

impl OtlpExporter {
    /// An exporter stamping every batch with `service.name`.
    pub fn new(service_name: impl Into<String>) -> OtlpExporter {
        OtlpExporter { service_name: service_name.into(), buf: String::new() }
    }

    /// Encode a batch as one OTLP/JSON `ExportTraceServiceRequest`.
    ///
    /// The returned slice borrows the exporter's internal buffer and is
    /// valid until the next call; the buffer's capacity is retained
    /// across batches.
    pub fn encode_batch(&mut self, spans: &[SpanRecord]) -> &str {
        let mut scope = Value::object();
        let mut scope_id = Value::object();
        scope_id.set("name", "soc-observe");
        scope.set("scope", scope_id);
        scope.set("spans", Value::Array(spans.iter().map(span_to_otlp).collect()));

        let mut resource = Value::object();
        resource.set("attributes", Value::Array(vec![attr("service.name", &self.service_name)]));
        let mut resource_spans = Value::object();
        resource_spans.set("resource", resource);
        resource_spans.set("scopeSpans", Value::Array(vec![scope]));

        let mut root = Value::object();
        root.set("resourceSpans", Value::Array(vec![resource_spans]));

        self.buf.clear();
        root.write_into(&mut self.buf);
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{SpanId, TraceId};
    use crate::span::{AttrValue, Attrs};

    fn record(name: &'static str, error: Option<&str>) -> SpanRecord {
        let mut attrs = Attrs::new();
        attrs.push("http.method", AttrValue::Str("GET"));
        SpanRecord {
            trace_id: TraceId(0xabcd),
            span_id: SpanId(0x1234),
            parent: Some(SpanId(0x5678)),
            name,
            kind: SpanKind::Server,
            start_us: 1_000,
            duration_us: 250,
            status: if error.is_some() { SpanStatus::Error } else { SpanStatus::Ok },
            error: error.map(String::from),
            attrs,
        }
    }

    #[test]
    fn span_mapping_follows_the_otlp_shape() {
        let v = span_to_otlp(&record("gw.attempt", None));
        assert_eq!(
            v.pointer("/traceId").and_then(Value::as_str),
            Some(TraceId(0xabcd).to_hex()).as_deref()
        );
        assert_eq!(
            v.pointer("/spanId").and_then(Value::as_str),
            Some(SpanId(0x1234).to_hex()).as_deref()
        );
        assert_eq!(v.pointer("/kind").and_then(Value::as_i64), Some(2));
        assert_eq!(v.pointer("/startTimeUnixNano").and_then(Value::as_str), Some("1000000"));
        assert_eq!(v.pointer("/endTimeUnixNano").and_then(Value::as_str), Some("1250000"));
        assert_eq!(v.pointer("/status/code").and_then(Value::as_i64), Some(1));
        assert_eq!(v.pointer("/attributes/0/key").and_then(Value::as_str), Some("http.method"));
        assert_eq!(
            v.pointer("/attributes/0/value/stringValue").and_then(Value::as_str),
            Some("GET")
        );
    }

    #[test]
    fn errors_carry_status_and_message() {
        let v = span_to_otlp(&record("gw.attempt", Some("connection reset")));
        assert_eq!(v.pointer("/status/code").and_then(Value::as_i64), Some(2));
        assert_eq!(v.pointer("/status/message").and_then(Value::as_str), Some("connection reset"));
        assert_eq!(
            v.pointer("/attributes/1/value/stringValue").and_then(Value::as_str),
            Some("connection reset")
        );
    }

    #[test]
    fn batches_nest_under_one_resource_and_reuse_the_buffer() {
        let mut exporter = OtlpExporter::new("soc-test");
        let batch = [record("a", None), record("b", Some("boom"))];
        let first = exporter.encode_batch(&batch).to_string();
        let v = Value::parse(&first).unwrap();
        assert_eq!(
            v.pointer("/resourceSpans/0/resource/attributes/0/value/stringValue")
                .and_then(Value::as_str),
            Some("soc-test")
        );
        assert_eq!(
            v.pointer("/resourceSpans/0/scopeSpans/0/scope/name").and_then(Value::as_str),
            Some("soc-observe")
        );
        let spans = v.pointer("/resourceSpans/0/scopeSpans/0/spans").unwrap();
        assert_eq!(spans.as_array().map(<[Value]>::len), Some(2));

        // Re-encoding the same batch into the retained buffer is
        // byte-identical, and the capacity survives the round.
        let cap = {
            exporter.encode_batch(&batch);
            exporter.buf.capacity()
        };
        assert_eq!(exporter.encode_batch(&batch), first);
        assert_eq!(exporter.buf.capacity(), cap, "buffer must be reused, not reallocated");

        // An empty batch is still a well-formed request.
        let empty = Value::parse(exporter.encode_batch(&[])).unwrap();
        assert_eq!(
            empty
                .pointer("/resourceSpans/0/scopeSpans/0/spans")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0)
        );
    }
}
