//! Differential test of the hand-rolled hex codec behind
//! `traceparent`, `TraceId::to_hex` and `SpanId::to_hex` against the
//! `format!` / `split` / `from_str_radix` codec it replaced, kept here
//! as the oracle: the encoder must emit the oracle's bytes, and the
//! parser must accept and reject exactly what the oracle does.

use proptest::prelude::*;
use soc_observe::{SpanId, TraceContext, TraceId};

/// The previous encoder.
fn oracle_encode(ctx: &TraceContext) -> String {
    format!("00-{:032x}-{:016x}-{:02x}", ctx.trace_id.0, ctx.span_id.0, ctx.sampled as u8)
}

fn oracle_is_lower_hex(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

fn oracle_trace_id(s: &str) -> Option<TraceId> {
    if s.len() != 32 || !oracle_is_lower_hex(s) {
        return None;
    }
    let v = u128::from_str_radix(s, 16).ok()?;
    (v != 0).then_some(TraceId(v))
}

fn oracle_span_id(s: &str) -> Option<SpanId> {
    if s.len() != 16 || !oracle_is_lower_hex(s) {
        return None;
    }
    let v = u64::from_str_radix(s, 16).ok()?;
    (v != 0).then_some(SpanId(v))
}

/// The previous parser.
fn oracle_parse(s: &str) -> Option<TraceContext> {
    let mut parts = s.split('-');
    if parts.next()? != "00" {
        return None;
    }
    let trace_id = oracle_trace_id(parts.next()?)?;
    let span_id = oracle_span_id(parts.next()?)?;
    let flags = parts.next()?;
    if flags.len() != 2 || !oracle_is_lower_hex(flags) || parts.next().is_some() {
        return None;
    }
    let flags = u8::from_str_radix(flags, 16).ok()?;
    Some(TraceContext { trace_id, span_id, sampled: flags & 1 == 1 })
}

fn ctx(hi: u64, lo: u64, span: u64, sampled: bool) -> TraceContext {
    TraceContext {
        trace_id: TraceId(((hi as u128) << 64) | lo as u128),
        span_id: SpanId(span),
        sampled,
    }
}

/// A well-formed value with arbitrary flags; zero ids included, so the
/// non-zero rule is exercised too.
fn wire(hi: u64, lo: u64, span: u64, flags: u8) -> String {
    format!("00-{:016x}{:016x}-{:016x}-{:02x}", hi, lo, span, flags)
}

/// Ids drawn to hit zero halves and small values often.
fn id_half() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..16, any::<u64>()]
}

fn assert_same_verdict(s: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(TraceContext::parse_traceparent(s), oracle_parse(s), "input {:?}", s);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn encoder_matches_oracle_bytes(
        hi in id_half(),
        lo in id_half(),
        span in id_half(),
        sampled in any::<bool>(),
    ) {
        let c = ctx(hi, lo, span, sampled);
        prop_assert_eq!(c.to_traceparent(), oracle_encode(&c));
        prop_assert_eq!(c.trace_id.to_hex(), format!("{:032x}", c.trace_id.0));
        prop_assert_eq!(c.span_id.to_hex(), format!("{:016x}", c.span_id.0));
        prop_assert_eq!(c.trace_id.to_string(), format!("{:032x}", c.trace_id.0));
        prop_assert_eq!(c.span_id.to_string(), format!("{:016x}", c.span_id.0));
    }

    #[test]
    fn parser_matches_oracle_on_well_formed_and_truncated(
        hi in id_half(),
        lo in id_half(),
        span in id_half(),
        flags in any::<u8>(),
        cut in 0usize..56,
    ) {
        let w = wire(hi, lo, span, flags);
        assert_same_verdict(&w)?;
        assert_same_verdict(&w[..cut])?;
        assert_same_verdict(&w[cut..])?;
    }

    #[test]
    fn parser_matches_oracle_on_upper_cased(
        hi in id_half(),
        lo in id_half(),
        span in id_half(),
        flags in any::<u8>(),
        at in 0usize..55,
    ) {
        let w = wire(hi, lo, span, flags);
        assert_same_verdict(&w.to_ascii_uppercase())?;
        // One upper-cased character.
        let mut one = w.clone().into_bytes();
        one[at] = one[at].to_ascii_uppercase();
        assert_same_verdict(std::str::from_utf8(&one).unwrap())?;
    }

    #[test]
    fn parser_matches_oracle_on_byte_mutations(
        hi in id_half(),
        lo in id_half(),
        span in id_half(),
        flags in any::<u8>(),
        at in 0usize..55,
        with in prop_oneof![
            Just('-'), Just('0'), Just('1'), Just('f'), Just('g'), Just('F'), Just(' '),
            Just('é'), Just('\u{1F600}'), (0x20u32..0x250).prop_map(|c| char::from_u32(c).unwrap())
        ],
        insert in any::<bool>(),
    ) {
        let w = wire(hi, lo, span, flags);
        let mut chars: Vec<char> = w.chars().collect();
        if insert {
            chars.insert(at, with);
        } else {
            chars[at] = with;
        }
        let mutated: String = chars.into_iter().collect();
        assert_same_verdict(&mutated)?;
        // Deleting one character shifts every later field.
        let mut deleted = w.clone();
        deleted.remove(at);
        assert_same_verdict(&deleted)?;
    }

    #[test]
    fn parser_matches_oracle_on_random_text(s in "[0-9a-fA-F\\- x]{0,60}") {
        assert_same_verdict(&s)?;
    }

    #[test]
    fn id_parsers_match_oracle(s in "[0-9a-fA-Fg]{0,34}") {
        prop_assert_eq!(TraceId::from_hex(&s), oracle_trace_id(&s));
        prop_assert_eq!(SpanId::from_hex(&s), oracle_span_id(&s));
    }
}
