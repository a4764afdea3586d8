//! Per-operation overhead of the observability plane.
//!
//! Tracing earns its keep only if it is cheap enough to leave on: the
//! stack samples every trace by default, so a recorded span, not just
//! one that loses the head-based sampling coin toss, sits on every
//! request. This harness measures each primitive the hot paths call —
//! span creation (sampled out and recorded), one whole server hop,
//! counter increments, histogram observations, and `traceparent`
//! encode/decode — and budgets the span and propagation rows, so
//! `cargo bench --bench observe` is an executable acceptance check, not
//! just a table. Recorded rows run against a full span store, so every
//! record also evicts the oldest span of its shard, as in a long-lived
//! process.

use std::hint::black_box;

use soc_bench::Record;
use soc_observe::store::{DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY};
use soc_observe::{SpanId, SpanKind, TraceContext, TraceId};

fn main() {
    let mut rec = Record::new("observe");

    // A span that loses the sampling coin toss: carries context for
    // propagation but must never allocate or touch the store. Eight
    // full runs on a 2-vCPU KVM guest read 15.5–23.2 ns; the budget is
    // about 4.3× the slowest.
    soc_observe::set_sample_rate(0.0);
    rec.time("span_sampled_out", || {
        let span = soc_observe::span(black_box("bench.noop"), SpanKind::Internal);
        black_box(span.context());
    })
    .max(100.0);

    soc_observe::set_sample_rate(1.0);
    while soc_observe::store().len() < DEFAULT_SHARDS * DEFAULT_SHARD_CAPACITY {
        soc_observe::root_span("bench.fill", SpanKind::Internal).finish();
    }

    // The full price when sampled: attribute, record on drop, evict.
    rec.time("span_recorded", || {
        let mut span = soc_observe::span(black_box("bench.recorded"), SpanKind::Internal);
        span.set_attr("k", "v");
        drop(span);
    })
    .max(250.0);

    let ctx = TraceContext {
        trace_id: TraceId(0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736),
        span_id: SpanId(0x00f0_67aa_0ba9_02b7),
        sampled: true,
    };

    // What one traced server hop pays for tracing, as `soc-http` and
    // `soc-rest` instrument it: extract `traceparent`, record
    // `http.server` (method, target, status) around `rest.dispatch`
    // (method, path, status), and advertise `X-Trace-Id`.
    let wire = ctx.to_traceparent();
    rec.time("server_hop_recorded", || {
        let parent = TraceContext::parse_traceparent(black_box(&wire)).expect("valid");
        let mut server = soc_observe::child_span(parent, "http.server", SpanKind::Server);
        server.set_attr("http.method", "GET");
        server.set_text("http.target", black_box("/svc/credit/score/7"));
        {
            let _active = server.activate();
            let mut dispatch = soc_observe::span("rest.dispatch", SpanKind::Internal);
            dispatch.set_attr("http.method", "GET");
            dispatch.set_text("http.path", black_box("/score/7"));
            dispatch.set_attr("http.status", black_box(200u16));
        }
        server.set_attr("http.status", black_box(200u16));
        server.context().trace_id.to_hex()
    })
    .max(800.0);

    let counter = soc_observe::metrics().counter("bench_observe_total", &[]);
    rec.time("counter_inc", || counter.inc());

    let histogram = soc_observe::metrics().histogram("bench_observe_us", &[]);
    rec.time("histogram_observe", || histogram.observe(black_box(17)));

    rec.time("traceparent_roundtrip", || {
        let wire = black_box(&ctx).to_traceparent();
        TraceContext::parse_traceparent(&wire)
    })
    .max(150.0);

    rec.finish();
}
