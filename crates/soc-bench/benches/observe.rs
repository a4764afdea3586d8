//! Per-operation overhead of the observability plane.
//!
//! Tracing earns its keep only if the instrumented fast path stays
//! cheap: a span that loses the head-based sampling coin toss must cost
//! well under a microsecond, or nobody leaves the instrumentation on.
//! This harness measures each primitive the hot paths call — span
//! creation (sampled out and recorded), counter increments, histogram
//! observations, and `traceparent` encode/decode — and budgets the
//! sampled-out span, so `cargo bench --bench observe` is an executable
//! acceptance check, not just a table.

use std::hint::black_box;

use soc_bench::Record;
use soc_observe::{SpanId, SpanKind, TraceContext, TraceId};

fn main() {
    let mut rec = Record::new("observe");

    // A span that loses the sampling coin toss: carries context for
    // propagation but must never allocate or touch the store.
    soc_observe::set_sample_rate(0.0);
    rec.time("span_sampled_out", || {
        let span = soc_observe::span(black_box("bench.noop"), SpanKind::Internal);
        black_box(span.context());
    })
    .max(1_000.0);

    // The full price when sampled: allocate, attribute, record on drop.
    soc_observe::set_sample_rate(1.0);
    rec.time("span_recorded", || {
        let mut span = soc_observe::span(black_box("bench.recorded"), SpanKind::Internal);
        span.set_attr("k", "v");
        drop(span);
    });

    let counter = soc_observe::metrics().counter("bench_observe_total", &[]);
    rec.time("counter_inc", || counter.inc());

    let histogram = soc_observe::metrics().histogram("bench_observe_us", &[]);
    rec.time("histogram_observe", || histogram.observe(black_box(17)));

    let ctx = TraceContext {
        trace_id: TraceId(0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736),
        span_id: SpanId(0x00f0_67aa_0ba9_02b7),
        sampled: true,
    };
    rec.time("traceparent_roundtrip", || {
        let wire = black_box(&ctx).to_traceparent();
        TraceContext::parse_traceparent(&wire)
    });

    rec.finish();
}
