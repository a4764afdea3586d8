//! The benchmark's own tracing: timers wrapped around the public entry
//! points it hands to the program (`Handler`, `Transport`) and around
//! the load side's calls. Spans of one operation share an op id carried
//! in the `X-Bench-Op` header; `X-Bench-Span` names the caller's span.
//! Spans are kept in memory and attributed after the run.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use soc_http::{Handler, HttpResult, Request, Response, Transport};

pub const OP_HEADER: &str = "X-Bench-Op";
pub const SPAN_HEADER: &str = "X-Bench-Span";

/// The layer a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One whole operation, on a load thread.
    Op,
    /// `SoapClient::call` on a load thread.
    SoapCall,
    /// `StoreClient::put` on a load thread.
    StorePut,
    /// `StoreClient::get` on a load thread.
    StoreGet,
    /// A load-side transport send (pooled `HttpClient`).
    ClientSend,
    /// The gateway's handler.
    Gateway,
    /// A gateway attempt: one send through the gateway's transport.
    GatewaySend,
    /// A REST replica serving `GET /credit/score` (or anything but apply).
    RestScore,
    /// A REST replica serving `POST /mortgage/apply`.
    RestApply,
    /// A SOAP replica.
    Soap,
    /// A store node's router (client reads and writes, replication).
    Node,
    /// A replication push from a store node to a peer.
    Push,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    pub op: u64,
    pub id: u64,
    /// 0 for an operation's root span.
    pub parent: u64,
    pub kind: Kind,
    pub start: u64,
    pub end: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    /// `(op, span)` this thread is working inside, `(0, 0)` for none.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span recording on or off. Flip only while no load runs.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Every span recorded so far, leaving the store empty.
pub fn drain() -> Vec<SpanRec> {
    std::mem::take(&mut *SINK.lock().expect("span sink poisoned"))
}

/// Run `f` as the thread's span `(op, id)` under `parent`, recording it.
fn timed<R>(op: u64, parent: u64, kind: Kind, f: impl FnOnce(u64) -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let saved = CURRENT.with(|c| c.replace((op, id)));
    let start = now_ns();
    let out = f(id);
    let end = now_ns();
    CURRENT.with(|c| c.set(saved));
    SINK.lock().expect("span sink poisoned").push(SpanRec { op, id, parent, kind, start, end });
    out
}

/// Run one whole operation as a fresh root span (when recording).
pub fn op<R>(f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let op = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    timed(op, 0, Kind::Op, |_| f())
}

/// Run `f` as a child span of the thread's current span, if any.
pub fn child<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let (op, parent) = CURRENT.with(Cell::get);
    if !enabled() || op == 0 {
        return f();
    }
    timed(op, parent, kind, |_| f())
}

fn header_id(req: &Request, name: &str) -> u64 {
    req.headers.get(name).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// A `Handler` timed as one span per request that carries an op id.
pub struct TracedHandler<H> {
    inner: H,
    classify: fn(&Request) -> Kind,
}

impl<H: Handler> TracedHandler<H> {
    pub fn new(inner: H, classify: fn(&Request) -> Kind) -> Self {
        TracedHandler { inner, classify }
    }
}

impl<H: Handler> Handler for TracedHandler<H> {
    fn handle(&self, mut req: Request) -> Response {
        let op = header_id(&req, OP_HEADER);
        if !enabled() || op == 0 {
            return self.inner.handle(req);
        }
        let parent = header_id(&req, SPAN_HEADER);
        let kind = (self.classify)(&req);
        timed(op, parent, kind, |id| {
            // Sends made on other threads (hedge arms) find their parent
            // in the forwarded header.
            req.headers.set(SPAN_HEADER, id.to_string());
            self.inner.handle(req)
        })
    }
}

/// A `Transport` timed as one span per send within an operation. The
/// op and parent come from the sending thread's current span, else from
/// the request's headers; both are stamped on the outgoing request.
pub struct TracedTransport<T> {
    inner: T,
    kind: Kind,
}

impl<T: Transport> TracedTransport<T> {
    pub fn new(inner: T, kind: Kind) -> Arc<Self> {
        Arc::new(TracedTransport { inner, kind })
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&self, mut req: Request) -> HttpResult<Response> {
        if !enabled() {
            return self.inner.send(req);
        }
        let (op, parent) = match CURRENT.with(Cell::get) {
            (0, _) => (header_id(&req, OP_HEADER), header_id(&req, SPAN_HEADER)),
            current => current,
        };
        if op == 0 {
            return self.inner.send(req);
        }
        timed(op, parent, self.kind, |id| {
            req.headers.set(OP_HEADER, op.to_string());
            req.headers.set(SPAN_HEADER, id.to_string());
            self.inner.send(req)
        })
    }
}

/// Self time of each span of one operation, in ns, keyed by span id.
///
/// Every span is first clipped to its (clipped) parent's interval: time
/// a hedge loser spends after its parent returned is off the op's path.
/// Each instant of the root span then belongs to exactly one span — the
/// deepest one active, ties between overlapping siblings (hedged arms)
/// going to the one that started first — so the self times of an op sum
/// to its root span exactly and none is negative. Returns `None` when
/// the spans do not form one tree under a single root.
pub fn self_times(spans: &[SpanRec]) -> Option<HashMap<u64, u64>> {
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    if by_id.len() != spans.len() || spans.iter().filter(|s| s.parent == 0).count() != 1 {
        return None;
    }
    // (depth, clipped start, clipped end) per span, parents first.
    let mut placed: Vec<Option<(u32, u64, u64)>> = vec![None; spans.len()];
    for i in 0..spans.len() {
        // Walk up to the nearest placed ancestor (or the root), then
        // place the chain top-down.
        let mut chain = vec![i];
        while placed[*chain.last().expect("non-empty")].is_none() {
            let s = &spans[*chain.last().expect("non-empty")];
            if s.parent == 0 {
                break;
            }
            let p = *by_id.get(&s.parent)?;
            if chain.len() > spans.len() {
                return None; // a cycle
            }
            chain.push(p);
        }
        for &j in chain.iter().rev() {
            if placed[j].is_some() {
                continue;
            }
            let s = &spans[j];
            placed[j] = Some(if s.parent == 0 {
                (0, s.start, s.end.max(s.start))
            } else {
                let (d, ps, pe) = placed[by_id[&s.parent]]?;
                let start = s.start.clamp(ps, pe);
                (d + 1, start, s.end.clamp(start, pe))
            });
        }
    }
    let placed: Vec<(u32, u64, u64)> = placed.into_iter().collect::<Option<_>>()?;
    let mut bounds: Vec<u64> = placed.iter().flat_map(|&(_, a, b)| [a, b]).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut own = vec![0u64; spans.len()];
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        let owner =
            (0..spans.len()).filter(|&i| placed[i].1 <= a && placed[i].2 >= b).max_by(|&x, &y| {
                let ((dx, sx, _), (dy, sy, _)) = (placed[x], placed[y]);
                dx.cmp(&dy).then(sy.cmp(&sx)).then(spans[y].id.cmp(&spans[x].id))
            });
        if let Some(i) = owner {
            own[i] += b - a;
        }
    }
    Some(spans.iter().zip(own).map(|(s, t)| (s.id, t)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: Kind, start: u64, end: u64) -> SpanRec {
        SpanRec { op: 1, id, parent, kind, start, end }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        let spans = [
            span(1, 0, Kind::Op, 0, 100),
            span(2, 1, Kind::ClientSend, 10, 90),
            span(3, 2, Kind::Gateway, 20, 80),
            span(4, 3, Kind::GatewaySend, 30, 70),
            span(5, 4, Kind::RestScore, 40, 60),
        ];
        let st = self_times(&spans).unwrap();
        assert_eq!([st[&1], st[&2], st[&3], st[&4], st[&5]], [20, 20, 20, 20, 20]);
    }

    #[test]
    fn hedged_sibling_arms_partition_the_op_exactly() {
        // A gateway races a primary arm (3) against a backup (4): the
        // arms overlap, and the backup outlives neither its parent nor
        // the op.
        let spans = [
            span(1, 0, Kind::Op, 0, 100),
            span(2, 1, Kind::Gateway, 10, 90),
            span(3, 2, Kind::GatewaySend, 20, 80),
            span(4, 2, Kind::GatewaySend, 50, 85),
            span(5, 3, Kind::RestApply, 25, 75),
            span(6, 4, Kind::RestApply, 55, 82),
        ];
        let st = self_times(&spans).unwrap();
        assert_eq!(st[&1], 20); // [0,10) + [90,100)
        assert_eq!(st[&2], 15); // [10,20) + [85,90)
        assert_eq!(st[&3], 5); // [20,25)
        assert_eq!(st[&5], 50); // [25,75): deepest, and started first
        assert_eq!(st[&6], 7); // [75,82)
        assert_eq!(st[&4], 3); // [82,85)
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn a_hedge_loser_outliving_its_parent_is_clipped() {
        let spans = [
            span(1, 0, Kind::Op, 0, 100),
            span(2, 1, Kind::Gateway, 10, 60),
            span(3, 2, Kind::GatewaySend, 20, 50),
            span(4, 2, Kind::GatewaySend, 30, 95), // lost, finished late
        ];
        let st = self_times(&spans).unwrap();
        assert_eq!(st[&4], 10); // only [50,60) lies inside the gateway
        assert_eq!(st[&2], 10);
        assert_eq!(st[&1], 50);
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn broken_trees_are_refused() {
        let orphan = [span(1, 0, Kind::Op, 0, 10), span(2, 9, Kind::ClientSend, 1, 2)];
        assert!(self_times(&orphan).is_none());
        let two_roots = [span(1, 0, Kind::Op, 0, 10), span(2, 0, Kind::Op, 1, 2)];
        assert!(self_times(&two_roots).is_none());
    }
}
