//! HTTP-side observability plumbing: `traceparent` inject/extract
//! around every transport hop, plus the mountable `/observe/*`
//! endpoints serving the process-wide metrics and trace store.

use soc_json::Value;
use soc_observe::{SpanKind, TraceContext, TraceId, TRACEPARENT};

use crate::server::Handler;
use crate::types::{Headers, Request, Response, Status};

/// Inject the thread's active trace context as a `traceparent` header,
/// unless the caller already set one explicitly. Called by every
/// outbound transport ([`crate::HttpClient`], [`crate::MemNetwork`]).
pub(crate) fn inject_traceparent(headers: &mut Headers) {
    if headers.contains(TRACEPARENT) {
        return;
    }
    if let Some(ctx) = soc_observe::context::current() {
        headers.set(TRACEPARENT, ctx.to_traceparent());
    }
}

/// Run `f` inside a server span: extract the remote parent from
/// `traceparent` (or start a new trace), activate the span so nested
/// work and further outbound hops join the trace, and advertise the
/// trace id back to the caller via `X-Trace-Id` when sampled.
pub(crate) fn serve_with_span(
    req: Request,
    name: &'static str,
    f: impl FnOnce(Request) -> Response,
) -> Response {
    let parent = req.headers.get(TRACEPARENT).and_then(TraceContext::parse_traceparent);
    let mut span = match parent {
        Some(p) => soc_observe::child_span(p, name, SpanKind::Server),
        None => soc_observe::root_span(name, SpanKind::Server),
    };
    if span.is_recording() {
        span.set_attr("http.method", req.method.as_str());
        span.set_text("http.target", &req.target);
    }
    let ctx = span.context();
    let mut resp = {
        let _active = span.activate();
        f(req)
    };
    if span.is_recording() {
        span.set_attr("http.status", resp.status.0);
        if resp.status.0 >= 500 {
            span.set_error(format!("status {}", resp.status.0));
        }
    }
    if ctx.sampled {
        resp.headers.set("X-Trace-Id", ctx.trace_id.to_hex());
    }
    resp
}

/// The observability plane as a [`Handler`], mountable on any
/// `HttpServer` (or composed into another handler via
/// [`ObserveEndpoints::try_handle`]):
///
/// - `GET /observe/metrics` — every registered metric, Prometheus text
///   exposition format.
/// - `GET /observe/traces` — retained trace ids with span counts.
/// - `GET /observe/traces/{trace_id}` — one trace as a JSON span tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObserveEndpoints;

impl ObserveEndpoints {
    /// The endpoints handler.
    pub fn new() -> ObserveEndpoints {
        ObserveEndpoints
    }

    /// Answer `req` if it targets an `/observe/*` route, `None`
    /// otherwise — lets front-ends (like the gateway) splice the
    /// observability plane next to their own routes.
    pub fn try_handle(req: &Request) -> Option<Response> {
        let path = req.path();
        if path == "/observe/metrics" {
            // Render into one String and move it into the body — the
            // exposition can be large, so the copy `Response::text`
            // would make is worth skipping.
            let mut body = String::new();
            soc_observe::metrics().render_prometheus_into(&mut body);
            let mut resp = Response::new(Status::OK).with_body_bytes(body.into_bytes());
            resp.headers.set("Content-Type", "text/plain; version=0.0.4");
            return Some(resp);
        }
        if path == "/observe/traces" {
            let traces: Vec<Value> = soc_observe::store()
                .trace_ids()
                .into_iter()
                .map(|(id, n)| {
                    let mut t = Value::Object(vec![]);
                    t.set("trace_id", id.to_hex());
                    t.set("spans", n as i64);
                    t
                })
                .collect();
            let mut root = Value::Object(vec![]);
            root.set("traces", Value::Array(traces));
            let mut body = String::new();
            root.write_into(&mut body);
            return Some(Response::json_owned(body));
        }
        let id = path.strip_prefix("/observe/traces/")?;
        Some(match TraceId::from_hex(id).and_then(soc_observe::trace_json) {
            Some(tree) => {
                // Serialize straight into the buffer the response body
                // takes ownership of — no `to_string` + copy round.
                let mut body = String::new();
                tree.write_into(&mut body);
                Response::json_owned(body)
            }
            None => Response::error(Status::NOT_FOUND, "unknown trace"),
        })
    }
}

impl Handler for ObserveEndpoints {
    fn handle(&self, req: Request) -> Response {
        Self::try_handle(&req)
            .unwrap_or_else(|| Response::error(Status::NOT_FOUND, "not an /observe route"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_observe::span;

    #[test]
    fn metrics_endpoint_renders_prometheus_text() {
        soc_observe::metrics().counter("observe_endpoint_test_total", &[]).add(5);
        let resp = ObserveEndpoints.handle(Request::get("/observe/metrics"));
        assert_eq!(resp.status, Status::OK);
        assert!(resp.text_body().unwrap().contains("observe_endpoint_test_total 5"));
    }

    #[test]
    fn trace_endpoint_serves_span_tree_and_404s_unknown() {
        let s = span::root_span("observe.endpoint.test", SpanKind::Internal);
        let id = s.context().trace_id.to_hex();
        drop(s);
        let resp = ObserveEndpoints.handle(Request::get(format!("/observe/traces/{id}")));
        assert_eq!(resp.status, Status::OK);
        let v = Value::parse(resp.text_body().unwrap()).unwrap();
        assert_eq!(v.pointer("/trace_id").and_then(Value::as_str), Some(id.as_str()));
        assert_eq!(
            v.pointer("/spans/0/name").and_then(Value::as_str),
            Some("observe.endpoint.test")
        );

        let miss =
            ObserveEndpoints.handle(Request::get(format!("/observe/traces/{}", "f".repeat(32))));
        assert_eq!(miss.status, Status::NOT_FOUND);
        let not_observe = ObserveEndpoints.handle(Request::get("/other"));
        assert_eq!(not_observe.status, Status::NOT_FOUND);
    }

    #[test]
    fn listing_includes_recent_traces() {
        let s = span::root_span("observe.listing.test", SpanKind::Internal);
        let id = s.context().trace_id.to_hex();
        drop(s);
        let resp = ObserveEndpoints.handle(Request::get("/observe/traces"));
        assert!(resp.text_body().unwrap().contains(&id));
    }
}
