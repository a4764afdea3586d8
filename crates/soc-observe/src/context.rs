//! Trace identity and propagation: trace/span ids, the W3C
//! `traceparent` wire format, and the thread-local active context that
//! transports read when injecting outbound headers.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The header name carrying trace context across process (and thread)
/// boundaries, per the W3C Trace Context spec.
pub const TRACEPARENT: &str = "traceparent";

/// A 128-bit trace identifier shared by every span in one trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceId(pub u128);

impl TraceId {
    /// A fresh random (non-zero) trace id.
    pub fn generate() -> TraceId {
        let hi = next_u64() as u128;
        let lo = next_u64() as u128;
        TraceId(((hi << 64) | lo).max(1))
    }

    /// Lowercase 32-hex-digit form.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse a 32-hex-digit (lowercase) id; zero is invalid.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !is_lower_hex(s) {
            return None;
        }
        let v = u128::from_str_radix(s, 16).ok()?;
        if v == 0 {
            None
        } else {
            Some(TraceId(v))
        }
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A 64-bit span identifier, unique within its trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SpanId(pub u64);

impl SpanId {
    /// A fresh random (non-zero) span id.
    pub fn generate() -> SpanId {
        SpanId(next_u64().max(1))
    }

    /// Lowercase 16-hex-digit form.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse a 16-hex-digit (lowercase) id; zero is invalid.
    pub fn from_hex(s: &str) -> Option<SpanId> {
        if s.len() != 16 || !is_lower_hex(s) {
            return None;
        }
        let v = u64::from_str_radix(s, 16).ok()?;
        if v == 0 {
            None
        } else {
            Some(SpanId(v))
        }
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The propagated portion of a span: enough to parent a remote child
/// and carry the head-based sampling decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceContext {
    /// Trace this context belongs to.
    pub trace_id: TraceId,
    /// The span acting as parent on the other side of the hop.
    pub span_id: SpanId,
    /// Head-based sampling decision, made once at the trace root.
    pub sampled: bool,
}

impl TraceContext {
    /// Encode as a `traceparent` value:
    /// `00-{trace_id:032x}-{span_id:016x}-{flags:02x}`.
    pub fn to_traceparent(&self) -> String {
        format!("00-{:032x}-{:016x}-{:02x}", self.trace_id.0, self.span_id.0, self.sampled as u8)
    }

    /// Decode a `traceparent` value. Strict on shape (version `00`,
    /// lowercase hex, non-zero ids); unknown flag bits are ignored
    /// except the low `sampled` bit.
    pub fn parse_traceparent(s: &str) -> Option<TraceContext> {
        let mut parts = s.split('-');
        let version = parts.next()?;
        if version != "00" {
            return None;
        }
        let trace_id = TraceId::from_hex(parts.next()?)?;
        let span_id = SpanId::from_hex(parts.next()?)?;
        let flags = parts.next()?;
        if flags.len() != 2 || !is_lower_hex(flags) || parts.next().is_some() {
            return None;
        }
        let flags = u8::from_str_radix(flags, 16).ok()?;
        Some(TraceContext { trace_id, span_id, sampled: flags & 1 == 1 })
    }
}

fn is_lower_hex(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The context active on this thread, if any. Transports call this to
/// inject outbound `traceparent` headers; [`crate::span()`] calls it to
/// parent new spans.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Make `ctx` the active context on this thread until the returned
/// guard drops (the previous context is then restored). Used by span
/// activation and by pool workers adopting a caller's context.
pub fn set_current(ctx: TraceContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    ContextGuard { prev }
}

/// Restores the previously active context when dropped.
#[must_use = "dropping the guard immediately deactivates the context"]
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

thread_local! {
    static RNG: Cell<u64> = Cell::new(rng_seed());
}

fn rng_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    t ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// SplitMix64 step over a thread-local state: fast, allocation-free id
/// generation with no cross-thread contention.
pub(crate) fn next_u64() -> u64 {
    RNG.with(|s| {
        let mut z = s.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        s.set(z);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trip() {
        let ctx = TraceContext {
            trace_id: TraceId(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef),
            span_id: SpanId(0xfeed_face_cafe_beef),
            sampled: true,
        };
        let wire = ctx.to_traceparent();
        assert_eq!(wire, "00-0123456789abcdef0123456789abcdef-feedfacecafebeef-01");
        assert_eq!(TraceContext::parse_traceparent(&wire), Some(ctx));
    }

    #[test]
    fn traceparent_unsampled_flag() {
        let ctx = TraceContext {
            trace_id: TraceId::generate(),
            span_id: SpanId::generate(),
            sampled: false,
        };
        let parsed = TraceContext::parse_traceparent(&ctx.to_traceparent()).unwrap();
        assert!(!parsed.sampled);
        assert_eq!(parsed.trace_id, ctx.trace_id);
    }

    #[test]
    fn traceparent_rejects_malformed() {
        for bad in [
            "",
            "00",
            "01-0123456789abcdef0123456789abcdef-feedfacecafebeef-01",
            "00-0123456789ABCDEF0123456789ABCDEF-feedfacecafebeef-01",
            "00-00000000000000000000000000000000-feedfacecafebeef-01",
            "00-0123456789abcdef0123456789abcdef-0000000000000000-01",
            "00-0123456789abcdef0123456789abcdef-feedfacecafebeef-1",
            "00-0123456789abcdef0123456789abcdef-feedfacecafebeef-01-extra",
            "00-0123456789abcdef-feedfacecafebeef-01",
        ] {
            assert_eq!(TraceContext::parse_traceparent(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn generated_ids_are_nonzero_and_distinct() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a.0, 0);
        assert_ne!(a, b);
        assert_ne!(SpanId::generate(), SpanId::generate());
    }

    #[test]
    fn context_guard_restores_previous() {
        assert_eq!(current(), None);
        let outer = TraceContext {
            trace_id: TraceId::generate(),
            span_id: SpanId::generate(),
            sampled: true,
        };
        let inner = TraceContext { span_id: SpanId::generate(), ..outer };
        let g1 = set_current(outer);
        assert_eq!(current(), Some(outer));
        {
            let _g2 = set_current(inner);
            assert_eq!(current(), Some(inner));
        }
        assert_eq!(current(), Some(outer));
        drop(g1);
        assert_eq!(current(), None);
    }

    #[test]
    fn id_hex_round_trip() {
        let t = TraceId::generate();
        assert_eq!(TraceId::from_hex(&t.to_hex()), Some(t));
        let s = SpanId::generate();
        assert_eq!(SpanId::from_hex(&s.to_hex()), Some(s));
        assert_eq!(TraceId::from_hex("zz"), None);
        assert_eq!(SpanId::from_hex(&"0".repeat(16)), None);
    }
}
