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
        ascii_str(&self.hex()).to_owned()
    }

    /// Parse a 32-hex-digit (lowercase) id; zero is invalid.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        TraceId::from_hex_bytes(s.as_bytes())
    }

    fn hex(self) -> [u8; 32] {
        let mut out = [0; 32];
        out[..16].copy_from_slice(&hex_u64((self.0 >> 64) as u64));
        out[16..].copy_from_slice(&hex_u64(self.0 as u64));
        out
    }

    fn from_hex_bytes(b: &[u8]) -> Option<TraceId> {
        if b.len() != 32 {
            return None;
        }
        let v = (u128::from(decode_hex16(&b[..16])?) << 64) | u128::from(decode_hex16(&b[16..])?);
        (v != 0).then_some(TraceId(v))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(ascii_str(&self.hex()))
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
        ascii_str(&self.hex()).to_owned()
    }

    /// Parse a 16-hex-digit (lowercase) id; zero is invalid.
    pub fn from_hex(s: &str) -> Option<SpanId> {
        SpanId::from_hex_bytes(s.as_bytes())
    }

    fn hex(self) -> [u8; 16] {
        hex_u64(self.0)
    }

    fn from_hex_bytes(b: &[u8]) -> Option<SpanId> {
        decode_hex16(b).filter(|&v| v != 0).map(SpanId)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(ascii_str(&self.hex()))
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

/// Length of a version-`00` `traceparent` value.
const TRACEPARENT_LEN: usize = 55;

impl TraceContext {
    /// Encode as a `traceparent` value:
    /// `00-{trace_id:032x}-{span_id:016x}-{flags:02x}`. One
    /// allocation: the returned string.
    pub fn to_traceparent(&self) -> String {
        let mut out = [0; TRACEPARENT_LEN];
        out[..3].copy_from_slice(b"00-");
        out[3..35].copy_from_slice(&self.trace_id.hex());
        out[35] = b'-';
        out[36..52].copy_from_slice(&self.span_id.hex());
        out[52..].copy_from_slice(if self.sampled { b"-01" } else { b"-00" });
        ascii_str(&out).to_owned()
    }

    /// Decode a `traceparent` value. Strict on shape (version `00`,
    /// lowercase hex, non-zero ids); unknown flag bits are ignored
    /// except the low `sampled` bit. Allocates nothing.
    pub fn parse_traceparent(s: &str) -> Option<TraceContext> {
        let b = s.as_bytes();
        // Hex digits never contain '-', so fixed offsets accept exactly
        // the four-field `00-<32>-<16>-<2>` shape.
        if b.len() != TRACEPARENT_LEN || &b[..3] != b"00-" || b[35] != b'-' || b[52] != b'-' {
            return None;
        }
        let trace_id = TraceId::from_hex_bytes(&b[3..35])?;
        let span_id = SpanId::from_hex_bytes(&b[36..52])?;
        let flags = (hex_digit(b[53])? << 4) | hex_digit(b[54])?;
        Some(TraceContext { trace_id, span_id, sampled: flags & 1 == 1 })
    }
}

// The codec works on eight hex digits at a time, one per byte of a
// `u64` (SWAR): a nibble per byte on one side, its ASCII digit on the
// other. No byte ever carries into its neighbour: every intermediate
// stays below 0x100.
const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The 16 lowercase hex digits of `v`, most significant first.
fn hex_u64(v: u64) -> [u8; 16] {
    let mut out = [0; 16];
    out[..8].copy_from_slice(&nibbles_to_ascii(spread_nibbles((v >> 32) as u32)).to_be_bytes());
    out[8..].copy_from_slice(&nibbles_to_ascii(spread_nibbles(v as u32)).to_be_bytes());
    out
}

/// One nibble of `x` per byte, the most significant nibble in the most
/// significant byte.
fn spread_nibbles(x: u32) -> u64 {
    let x = u64::from(x);
    let x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    let x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f
}

/// Map each byte `0..=15` to its lowercase hex digit.
fn nibbles_to_ascii(n: u64) -> u64 {
    // Adding 6 carries into bit 4 exactly for the bytes that are >= 10.
    let letters = ((n + 6 * ONES) >> 4) & ONES;
    n + u64::from(b'0') * ONES + letters * u64::from(b'a' - b'0' - 10)
}

/// The high bit of each byte of `x` (all below 0x80) that lies in
/// `lo..=hi`.
fn bytes_in(x: u64, lo: u8, hi: u8) -> u64 {
    (x + u64::from(0x80 - lo) * ONES) & !(x + u64::from(0x7f - hi) * ONES) & HIGH_BITS
}

/// Decode eight lowercase hex digits; `None` on any other byte.
fn decode_hex8(digits: [u8; 8]) -> Option<u32> {
    let x = u64::from_be_bytes(digits);
    if x & HIGH_BITS != 0 {
        return None;
    }
    let letters = bytes_in(x, b'a', b'f');
    if bytes_in(x, b'0', b'9') | letters != HIGH_BITS {
        return None;
    }
    // '0'..'9' hold their value in the low nibble; 'a'..'f' hold 1..6.
    let n = (x & 0x0f0f_0f0f_0f0f_0f0f) + (letters >> 7) * 9;
    let n = (n | n >> 4) & 0x00ff_00ff_00ff_00ff;
    let n = (n | n >> 8) & 0x0000_ffff_0000_ffff;
    Some((n | n >> 16) as u32)
}

/// Decode exactly 16 lowercase hex digits; `None` on any other input.
fn decode_hex16(digits: &[u8]) -> Option<u64> {
    let (hi, lo) = digits.split_first_chunk::<8>()?;
    let lo: [u8; 8] = lo.try_into().ok()?;
    Some(u64::from(decode_hex8(*hi)?) << 32 | u64::from(decode_hex8(lo)?))
}

/// One lowercase hex digit's value.
fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

/// View encoder output as text; it holds only hex digits and `-`.
fn ascii_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("hex encoding is ASCII")
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
    fn word_codec_agrees_with_per_digit_decoding_on_every_byte() {
        let base = *b"0123abcd";
        for at in 0..8 {
            for byte in 0..=u8::MAX {
                let mut digits = base;
                digits[at] = byte;
                let expected =
                    digits.iter().try_fold(0u32, |v, &b| Some(v << 4 | u32::from(hex_digit(b)?)));
                assert_eq!(decode_hex8(digits), expected, "byte {byte:#04x} at {at}");
            }
        }
        for v in [0, 1, 0x0123_4567_89ab_cdef, u64::MAX, 0xa0a0_0a0a_f9f9_9f9f] {
            assert_eq!(hex_u64(v), *format!("{v:016x}").as_bytes());
            assert_eq!(decode_hex16(&hex_u64(v)), Some(v));
        }
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
