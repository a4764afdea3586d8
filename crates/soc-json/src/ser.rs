//! Compact and pretty serialization.
//!
//! [`write_into`] appends straight into a caller-provided buffer, so a
//! server rendering many responses reuses one allocation; strings are
//! emitted run-at-a-time (one batched scan to the next byte needing an
//! escape) rather than char-at-a-time.

use crate::scan;
use crate::value::Value;

/// Serialize `v`; `pretty` adds two-space indentation and newlines.
pub fn to_string(v: &Value, pretty: bool) -> String {
    let mut out = String::new();
    write_value(v, pretty, 0, &mut out);
    out
}

/// Append the compact serialization of `v` to `out` — the
/// buffer-reusing twin of [`Value::to_compact`].
pub fn write_into(v: &Value, out: &mut String) {
    write_value(v, false, 0, out);
}

fn write_value(v: &Value, pretty: bool, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_str(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(pretty, depth + 1, out);
                write_value(item, pretty, depth + 1, out);
            }
            newline_indent(pretty, depth, out);
            out.push(']');
        }
        Value::Object(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(pretty, depth + 1, out);
                write_str(k, out);
                out.push(':');
                if pretty {
                    out.push(' ');
                }
                write_value(val, pretty, depth + 1, out);
            }
            newline_indent(pretty, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(pretty: bool, depth: usize, out: &mut String) {
    if pretty {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

/// Append `s` as a JSON string literal, escaped exactly as
/// [`Value::to_compact`] escapes strings.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut i = 0;
    // The bytes needing an escape (quote, backslash, controls) are
    // exactly the parser's string-special set; everything between two
    // of them is appended as one run.
    while let Some(p) = scan::string_special(&bytes[i..]) {
        let at = i + p;
        out.push_str(&s[i..at]);
        match bytes[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x8 => out.push_str("\\b"),
            0xC => out.push_str("\\f"),
            c => {
                out.push_str(&format!("\\u{c:04x}"));
            }
        }
        i = at + 1;
    }
    out.push_str(&s[i..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{json, Value};

    #[test]
    fn compact_form() {
        let v = json!({ "a": [1, 2], "b": "x\ny", "c": null });
        assert_eq!(v.to_compact(), r#"{"a":[1,2],"b":"x\ny","c":null}"#);
    }

    #[test]
    fn pretty_form() {
        let v = json!({ "a": [1] });
        assert_eq!(v.to_pretty(), "{\n  \"a\": [\n    1\n  ]\n}");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(json!({}).to_pretty(), "{}");
        assert_eq!(json!([]).to_pretty(), "[]");
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::from("\u{1}\u{8}\u{c}");
        assert_eq!(v.to_compact(), "\"\\u0001\\b\\f\"");
        assert_eq!(Value::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn floats_keep_distinguishing_decimal() {
        assert_eq!(Value::from(2.0).to_compact(), "2.0");
        assert_eq!(Value::from(2.5).to_compact(), "2.5");
        assert_eq!(Value::from(2i64).to_compact(), "2");
    }

    #[test]
    fn round_trip_both_forms() {
        let v = json!({ "s": "héllo 😀", "n": [1.5, (-3), 1e20], "t": true });
        assert_eq!(Value::parse(&v.to_compact()).unwrap(), v);
        assert_eq!(Value::parse(&v.to_pretty()).unwrap(), v);
    }
}
