//! Round-trip identity: `parse ∘ serialize` must be the identity on
//! the value model, and the borrowed parser must agree with the owned
//! one on every input — including the adversarial corners (escapes,
//! surrogate pairs, `-0`, exponent overflow, nesting at the depth
//! limit).

use proptest::prelude::*;
use soc_json::{parse_ref, Number, Value, ValueRef};

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| Value::Number(Number::Int(i))),
        (-1e15f64..1e15).prop_map(|f| Value::Number(Number::Float(f))),
        // Strings biased toward escape-needing content: quotes,
        // backslashes, controls, astral-plane characters.
        "[ -~\\\\\"\u{8}\u{c}\n\r\t\u{1}\u{1f}é中😀]{0,24}".prop_map(Value::String),
    ];
    leaf.prop_recursive(5, 48, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            proptest::collection::vec(("[a-z\\\\\" ]{0,8}", inner), 0..6)
                .prop_map(|pairs| Value::Object(pairs.into_iter().collect())),
        ]
    })
}

proptest! {
    /// serialize → parse is the identity (compact and pretty).
    #[test]
    fn parse_after_serialize_is_identity(v in value_strategy()) {
        prop_assert_eq!(Value::parse(&v.to_compact()).unwrap(), v.clone());
        prop_assert_eq!(Value::parse(&v.to_pretty()).unwrap(), v);
    }

    /// The buffer-reusing serializer emits the same bytes as the
    /// allocating one, regardless of what is already in the buffer.
    #[test]
    fn write_into_matches_to_compact(v in value_strategy(), prefix in "[a-z]{0,8}") {
        let mut buf = prefix.clone();
        v.write_into(&mut buf);
        prop_assert_eq!(buf, format!("{prefix}{}", v.to_compact()));
    }

    /// Borrowed and owned parsers accept the same documents with the
    /// same result.
    #[test]
    fn parse_ref_agrees_with_parse(v in value_strategy()) {
        let text = v.to_compact();
        let borrowed = parse_ref(&text).unwrap();
        prop_assert_eq!(borrowed.into_owned(), Value::parse(&text).unwrap());
    }

    /// parse → serialize → parse is stable (the serialization is a
    /// fixed point), over arbitrary near-JSON byte soup that happens
    /// to parse.
    #[test]
    fn reserialization_is_stable(s in "[ -~]{0,48}") {
        if let Ok(v) = Value::parse(&s) {
            let once = v.to_compact();
            let again = Value::parse(&once).unwrap().to_compact();
            prop_assert_eq!(once, again);
        }
    }
}

#[test]
fn escape_corpus_round_trips() {
    for src in [
        r#""\"\\\/\b\f\n\r\t""#,
        r#""\u0000 low \u001f controls""#,
        r#""😀 paired""#,
        r#""mixed 中 文 😀 \n tail""#,
    ] {
        let v = Value::parse(src).unwrap();
        assert_eq!(Value::parse(&v.to_compact()).unwrap(), v, "{src}");
        let b = parse_ref(src).unwrap();
        assert_eq!(b.into_owned(), v, "{src}");
    }
}

#[test]
fn negative_zero_survives() {
    // -0 must stay a float (Int cannot hold the sign) and re-emit a
    // form that parses back to -0.
    let v = Value::parse("-0").unwrap();
    let f = v.as_f64().unwrap();
    assert_eq!(f, 0.0);
    assert!(f.is_sign_negative(), "-0 parsed to {f:?}");
    let back = Value::parse(&v.to_compact()).unwrap().as_f64().unwrap();
    assert!(back.is_sign_negative());
    assert_eq!(Value::parse("-0.0").unwrap().as_f64().unwrap().to_bits(), (-0.0f64).to_bits());
}

#[test]
fn exponent_overflow_is_rejected_not_inf() {
    assert!(Value::parse("1e400").is_err());
    assert!(Value::parse("-1e400").is_err());
    // Underflow to zero is fine.
    assert_eq!(Value::parse("1e-400").unwrap().as_f64(), Some(0.0));
    // Largest finite double round-trips.
    let v = Value::parse("1.7976931348623157e308").unwrap();
    assert_eq!(Value::parse(&v.to_compact()).unwrap(), v);
}

#[test]
fn nesting_at_the_depth_limit() {
    // MAX_DEPTH is 128: exactly at the limit parses, one past fails,
    // for both parsers.
    let at = "[".repeat(128) + &"]".repeat(128);
    let over = "[".repeat(129) + &"]".repeat(129);
    assert!(Value::parse(&at).is_ok());
    assert!(Value::parse(&over).is_err());
    assert!(parse_ref(&at).is_ok());
    assert!(parse_ref(&over).is_err());
    // The round trip holds at the limit.
    let v = Value::parse(&at).unwrap();
    assert_eq!(Value::parse(&v.to_compact()).unwrap(), v);
}

#[test]
fn borrowed_strings_only_when_clean() {
    let v = parse_ref(r#"{"clean":"no escapes here","dirty":"tab\there"}"#).unwrap();
    let ValueRef::Object(members) = v else { panic!() };
    assert!(matches!(&members[0].1, ValueRef::String(std::borrow::Cow::Borrowed(_))));
    assert!(matches!(&members[1].1, ValueRef::String(std::borrow::Cow::Owned(_))));
}

/// Write `v` as valid JSON that `to_compact` need not write: `spell`
/// decides, token by token, whether to add whitespace, to escape a
/// character that needs none, or to spell a float in exponent form.
fn respell(v: &Value, spell: &mut impl Iterator<Item = u8>, out: &mut String) {
    let ws = |spell: &mut dyn Iterator<Item = u8>, out: &mut String| match spell.next() {
        Some(0) => out.push(' '),
        Some(1) => out.push_str("\n\t"),
        _ => {}
    };
    ws(spell, out);
    match v {
        Value::Number(Number::Float(f)) if spell.next() == Some(0) => {
            out.push_str(&format!("{f:e}"))
        }
        Value::String(s) => {
            out.push('"');
            for c in s.chars() {
                match spell.next() {
                    Some(0) => {
                        let mut units = [0u16; 2];
                        for unit in c.encode_utf16(&mut units) {
                            out.push_str(&format!("\\u{unit:04X}"));
                        }
                    }
                    Some(1) if c == '/' => out.push_str("\\/"),
                    _ => {
                        let one = Value::String(c.to_string()).to_compact();
                        out.push_str(&one[1..one.len() - 1]);
                    }
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                respell(item, spell, out);
            }
            ws(spell, out);
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                respell(&Value::String(k.clone()), spell, out);
                out.push(':');
                respell(item, spell, out);
            }
            ws(spell, out);
            out.push('}');
        }
        other => out.push_str(&other.to_compact()),
    }
    ws(spell, out);
}

fn respelled(v: &Value, spell: &[u8]) -> String {
    let mut out = String::new();
    respell(v, &mut spell.iter().map(|b| b % 4).cycle(), &mut out);
    out
}

proptest! {
    /// Compact text is canonical as it stands: borrowed back whole.
    #[test]
    fn canonical_borrows_compact_text(v in value_strategy()) {
        let text = v.to_compact();
        let got = soc_json::canonical(&text).unwrap();
        prop_assert!(matches!(got, std::borrow::Cow::Borrowed(_)));
        prop_assert_eq!(got, text.as_str());
    }

    /// Any other spelling of a document canonicalizes to what parse
    /// then `to_compact` writes — the validating pass and the tree
    /// agree on which spellings are canonical.
    #[test]
    fn canonical_is_parse_then_compact(
        v in value_strategy(),
        spell in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let text = respelled(&v, &spell);
        let want = Value::parse(&text).unwrap().to_compact();
        prop_assert_eq!(soc_json::canonical(&text).unwrap(), want.as_str(), "{}", text);
    }

    /// On byte soup the two accept and refuse the same inputs, with
    /// the same errors.
    #[test]
    fn canonical_refuses_what_parse_refuses(s in "[ -~\t\n]{0,48}") {
        let want = Value::parse(&s).map(|v| v.to_compact());
        prop_assert_eq!(soc_json::canonical(&s).map(|c| c.into_owned()), want);
    }

    /// `members_raw` yields the members `parse_ref` builds, in order
    /// and with duplicates, each as its value's exact trimmed text.
    #[test]
    fn members_raw_agrees_with_parse_ref(
        members in proptest::collection::vec(("[a-c\"]{0,2}", value_strategy()), 0..6),
        spell in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let text = respelled(&Value::Object(members), &spell);
        let Ok(ValueRef::Object(want)) = parse_ref(&text) else { panic!("{text}") };
        let got = soc_json::members_raw(&text).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for ((name, raw), (want_name, want_value)) in got.iter().zip(want) {
            prop_assert_eq!(name, &want_name);
            prop_assert_eq!(raw.trim(), *raw);
            prop_assert_eq!(parse_ref(raw).unwrap(), want_value);
        }
    }

    /// `items_raw` does the same for an array's elements.
    #[test]
    fn items_raw_agrees_with_parse_ref(
        items in proptest::collection::vec(value_strategy(), 0..6),
        spell in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let text = respelled(&Value::Array(items), &spell);
        let Ok(ValueRef::Array(want)) = parse_ref(&text) else { panic!("{text}") };
        let got = soc_json::items_raw(&text).unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (raw, want_value) in got.iter().zip(want) {
            prop_assert_eq!(raw.trim(), *raw);
            prop_assert_eq!(parse_ref(raw).unwrap(), want_value);
        }
    }
}

#[test]
fn raw_decoding_keeps_the_parsers_limits() {
    // The depth limit counts the container itself, as parse_ref does.
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(soc_json::canonical(&nest(128)).is_ok());
    assert!(soc_json::canonical(&nest(129)).is_err());
    assert!(soc_json::members_raw(&format!(r#"{{"v":{}}}"#, nest(127))).is_ok());
    assert!(soc_json::members_raw(&format!(r#"{{"v":{}}}"#, nest(128))).is_err());
    assert!(soc_json::items_raw(&format!("[{}]", nest(127))).is_ok());
    assert!(soc_json::items_raw(&format!("[{}]", nest(128))).is_err());
    // Wrong container, trailing text, and truncation are refused.
    for bad in ["[1]", "1", r#"{"a":1} x"#, r#"{"a":1"#, r#"{"a" 1}"#, ""] {
        assert!(soc_json::members_raw(bad).is_err(), "{bad:?}");
    }
    for bad in [r#"{"a":1}"#, "[1 2]", "[1,]", "[1] ]"] {
        assert!(soc_json::items_raw(bad).is_err(), "{bad:?}");
    }
    // Spellings to_compact never writes.
    for (text, want) in [
        ("-0", "-0.0"),
        ("1E2", "100.0"),
        ("2.50", "2.5"),
        ("1.5e-7", "0.00000015"),
        ("99999999999999999999", "100000000000000000000"),
        (r#""\/""#, r#""/""#),
        (r#""\u001F""#, r#""\u001f""#),
        (r#""\u0009""#, r#""\t""#),
        ("[ ]", "[]"),
    ] {
        assert_eq!(soc_json::canonical(text).unwrap(), want, "{text}");
    }
    for same in [r#""\u001f\b\f\n\r\t\"\\""#, "-0.0", "0.00000015", "[{},[],null,true,false]"] {
        assert!(
            matches!(soc_json::canonical(same), Ok(std::borrow::Cow::Borrowed(_))),
            "{same} is canonical: {:?}",
            soc_json::canonical(same)
        );
    }
}
