//! Allocation profile of the tracing hot path, under a counting global
//! allocator.
//!
//! Exact counts are per thread: the allocator bumps a thread-local
//! counter, so the test harness's own threads never leak into a
//! measurement. The whole-request figures are budgeted twice: on the
//! sending thread, exactly, and on every thread as a cross-check, with
//! the tests serialized so nothing else runs meanwhile. Run with
//! `--nocapture` to see the per-request report:
//!
//! ```text
//! cargo test -p soc-observe --test alloc_count -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use soc_observe::store::{DEFAULT_SHARDS, DEFAULT_SHARD_CAPACITY};
use soc_observe::{AttrValue, SpanId, SpanKind, TraceContext, TraceId};

struct Counting;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn bump() {
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only an atomic and a const-initialized
// thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_on_thread<R>(f: impl FnOnce() -> R) -> u64 {
    let before = THREAD_ALLOCS.with(Cell::get);
    black_box(f());
    THREAD_ALLOCS.with(Cell::get) - before
}

/// Tests share the global sample rate, the span store and the
/// process-wide counter, so they run one at a time. The store is full
/// before any of them measures, so eviction is in every recorded span.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let capacity = DEFAULT_SHARDS * DEFAULT_SHARD_CAPACITY;
    while soc_observe::store().len() < capacity {
        soc_observe::root_span("alloc.fill", SpanKind::Internal).finish();
    }
    guard
}

fn ctx(sampled: bool) -> TraceContext {
    TraceContext { trace_id: TraceId::generate(), span_id: SpanId::generate(), sampled }
}

#[test]
fn recorded_span_with_static_int_and_bool_attrs_allocates_nothing() {
    let _serial = serial();
    let parent = ctx(true);
    let n = allocs_on_thread(|| {
        let mut span = soc_observe::child_span(parent, "alloc.server", SpanKind::Server);
        span.set_attr("http.method", "GET");
        span.set_attr("http.status", 200u16);
        span.set_attr("attempt", 1u32);
        span.set_attr("hedge", false);
        assert!(span.is_recording());
    });
    assert_eq!(n, 0, "a recorded span with inline attributes allocated");
}

#[test]
fn each_text_attribute_is_one_allocation() {
    let _serial = serial();
    let parent = ctx(true);
    let target = String::from("/svc/score/7");
    let n = allocs_on_thread(|| {
        let mut span = soc_observe::child_span(parent, "alloc.text", SpanKind::Server);
        span.set_text("http.target", &target);
        span.set_attr("http.status", 200u16);
    });
    assert_eq!(n, 1);
}

#[test]
fn fifth_attribute_spills_to_the_heap_once() {
    let _serial = serial();
    let parent = ctx(true);
    let n = allocs_on_thread(|| {
        let mut span = soc_observe::child_span(parent, "alloc.spill", SpanKind::Internal);
        for key in ["a", "b", "c", "d", "e", "f"] {
            span.set_attr(key, AttrValue::Int(1));
        }
    });
    assert_eq!(n, 1, "attributes past the inline four share one heap vector");
}

#[test]
fn sampled_out_span_with_int_status_allocates_nothing() {
    let _serial = serial();
    let parent = ctx(false);
    let n = allocs_on_thread(|| {
        let mut span = soc_observe::child_span(parent, "alloc.unsampled", SpanKind::Server);
        span.set_attr("http.status", 503u16);
        span.set_text("http.target", "/unsampled");
        assert!(!span.is_recording());
    });
    assert_eq!(n, 0);
}

#[test]
fn traceparent_encodes_in_one_allocation_and_parses_in_none() {
    let _serial = serial();
    let c = ctx(true);
    assert!(allocs_on_thread(|| c.to_traceparent()) <= 1);
    assert!(allocs_on_thread(|| c.trace_id.to_hex()) <= 1);
    assert!(allocs_on_thread(|| c.span_id.to_hex()) <= 1);
    let wire = c.to_traceparent();
    let mut parsed = None;
    assert_eq!(allocs_on_thread(|| parsed = TraceContext::parse_traceparent(&wire)), 0);
    assert_eq!(parsed, Some(c));
}

/// One gateway → REST request over the in-memory transport: the
/// gateway's server span, `gateway.request`, `gateway.attempt`, the
/// replica's server span and `rest.dispatch`. Sent once to a service
/// with one replica and once to a service with two, where every pick
/// runs the balancer and the outlier ejector, and every GET past the
/// warm-up arms a hedge (answered in time, so no backup launches).
/// Over `MemNetwork` the whole request runs on the sending thread, so
/// each of the four per-request counts is budgeted exactly on that
/// thread, and again on every thread.
#[test]
fn gateway_to_rest_request_allocation_report() {
    use soc_gateway::{Gateway, GatewayConfig, RECENT_WINDOW};
    use soc_http::{MemNetwork, Request, Response, Transport};

    let _serial = serial();
    let net = MemNetwork::new();
    for host in ["rest0", "rest1"] {
        let mut router = soc_rest::Router::new();
        router.get("/score/{id}", |_req, _params| Response::json("{\"score\":700}"));
        net.host(host, router);
    }
    let gw = Gateway::new(Arc::new(net.clone()), GatewayConfig::default());
    gw.register("credit", &["mem://rest0"]);
    gw.register("credit2", &["mem://rest0", "mem://rest1"]);
    net.host("gw", gw);

    // Per request: the median count on the sending thread (a whole
    // number; a request that happens to run the outlier ejector's
    // periodic evaluation counts more, and the median ignores it), and
    // the mean over every thread.
    let per_request = |target: &str, rate: f64| {
        const N: usize = 200;
        soc_observe::set_sample_rate(rate);
        let send = || {
            let resp = net.send(Request::get(target)).unwrap();
            assert_eq!(resp.status.0, 200);
        };
        // Enough requests to fill every replica's recent window, which
        // grows by doubling until it holds `RECENT_WINDOW` observations.
        for _ in 0..4 * RECENT_WINDOW {
            send();
        }
        let mut counts = Vec::with_capacity(N);
        let before = ALL_ALLOCS.load(Ordering::Relaxed);
        counts.extend((0..N).map(|_| allocs_on_thread(send)));
        let all = (ALL_ALLOCS.load(Ordering::Relaxed) - before) as f64 / N as f64;
        counts.sort_unstable();
        (counts[N / 2], all)
    };
    let one = "mem://gw/svc/credit/score/7";
    let two = "mem://gw/svc/credit2/score/7";
    let (sampled, sampled_all) = per_request(one, 1.0);
    let (unsampled, unsampled_all) = per_request(one, 0.0);
    let (two_sampled, two_sampled_all) = per_request(two, 1.0);
    let (two_unsampled, two_unsampled_all) = per_request(two, 0.0);
    soc_observe::set_sample_rate(1.0);
    println!(
        "gateway -> REST over mem: {sampled} allocations/request at rate 1.0, \
         {unsampled} at rate 0.0 (tracing: {})",
        sampled - unsampled
    );
    println!(
        "gateway -> REST over mem, two replicas: {two_sampled} allocations/request at \
         rate 1.0, {two_unsampled} at rate 0.0 (+{} over one replica)",
        two_unsampled - unsampled
    );
    assert!(unsampled < sampled, "recording spans must cost something: {unsampled} vs {sampled}");
    assert!(
        two_unsampled <= unsampled + 5,
        "picking among two replicas costs at most 5 allocations: {two_unsampled} vs {unsampled}"
    );
    // Budgets at the counts measured when they were set, in debug and
    // release alike: a cut passes, a new allocation on the path fails.
    // The sending thread's count is exact. The every-thread count is a
    // mean over `N` requests, so a stray allocation meanwhile (the
    // harness reporting another test, or an outlier evaluation) shows
    // as a fraction; there, whole allocations per request are what is
    // budgeted.
    for (what, measured, all, budget) in [
        ("one replica, rate 0.0", unsampled, unsampled_all, 34),
        ("one replica, rate 1.0", sampled, sampled_all, 41),
        ("two replicas, rate 0.0", two_unsampled, two_unsampled_all, 37),
        ("two replicas, rate 1.0", two_sampled, two_sampled_all, 44),
    ] {
        println!("{what}: {measured} allocations/request on the sending thread, {all} on all");
        assert!(
            measured <= budget,
            "{what}: {measured} allocations per request on the sending thread, over the \
             budget of {budget}"
        );
        assert!(
            all.round() <= budget as f64,
            "{what}: {all} allocations per request on all threads, over the budget of {budget}"
        );
    }
}
