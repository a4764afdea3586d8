//! Strict RFC 8259 parser.
//!
//! The parser builds [`ValueRef`]s: strings and object keys borrow the
//! input whenever no escape sequence forces a rewrite, found with one
//! batched scan ([`crate::scan::string_special`]) that simultaneously
//! locates the closing quote and proves the text clean. [`parse`]
//! wraps the same machinery and converts to owned [`Value`]s.
//!
//! The same parser also validates without building: [`members_raw`]
//! and [`items_raw`] hand back the exact text of each member or
//! element of an object or array, and [`canonical`] proves a document
//! is already in [`Value::to_compact`]'s form (borrowing it) or
//! rewrites it into that form. A consumer that stores JSON as text
//! uses these to keep one canonical slice per value and no tree.

use std::borrow::Cow;
use std::fmt;

use crate::borrow::ValueRef;
use crate::scan;
use crate::value::{Number, Value};

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Result alias for this crate.
pub type JsonResult<T> = Result<T, JsonError>;

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    /// Cleared by [`Parser::skip`] on anything `to_compact` would not
    /// write: whitespace inside a value, a rewritable escape, a float
    /// spelt another way.
    canonical: bool,
}

const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document into an owned [`Value`]; trailing
/// non-whitespace is an error.
pub fn parse(input: &str) -> JsonResult<Value> {
    parse_ref(input).map(ValueRef::into_owned)
}

/// Parse a complete JSON document into a [`ValueRef`] borrowing from
/// `input`; trailing non-whitespace is an error. Escape-free strings
/// are zero-copy slices of the input.
pub fn parse_ref(input: &str) -> JsonResult<ValueRef<'_>> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// Validate `input` as one JSON object and return its members in
/// document order as `(name, text)`: `text` is the member's value
/// exactly as written, without the whitespace around it. Nothing is
/// built; names borrow unless an escape rewrote them. Duplicate names
/// are all returned, so a caller that wants [`Value::get`]'s "last
/// duplicate wins" takes the last. A document [`parse_ref`] refuses is
/// refused here too, as is any document that is not an object.
///
/// ```
/// let members = soc_json::members_raw(r#"{"op":"put", "value": {"n": [1, 2]} }"#).unwrap();
/// assert_eq!(members[0], ("op".into(), r#""put""#));
/// assert_eq!(members[1], ("value".into(), r#"{"n": [1, 2]}"#));
/// ```
pub fn members_raw(input: &str) -> JsonResult<Vec<(Cow<'_, str>, &str)>> {
    raw_children(input, b'{', b'}', |p| {
        let name = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        Ok((name, p.raw()?))
    })
}

/// Validate `input` as one JSON array and return the text of each
/// element, as [`members_raw`] does for an object's members.
pub fn items_raw(input: &str) -> JsonResult<Vec<&str>> {
    raw_children(input, b'[', b']', Parser::raw)
}

/// The children of the one container `input` holds, between `open`
/// and `close`, each read by `child` — at depth 1, as [`parse_ref`]
/// counts the container itself.
fn raw_children<'a, T>(
    input: &'a str,
    open: u8,
    close: u8,
    mut child: impl FnMut(&mut Parser<'a>) -> JsonResult<T>,
) -> JsonResult<Vec<T>> {
    let mut p = Parser::new(input);
    let mut out = Vec::new();
    p.skip_ws();
    p.depth = 1;
    p.expect(open)?;
    p.skip_ws();
    if p.peek() == Some(close) {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            out.push(child(&mut p)?);
            p.skip_ws();
            if p.close(close)? {
                break;
            }
        }
    }
    p.end()?;
    Ok(out)
}

/// The text [`Value::to_compact`] writes for the document `input`:
/// borrowed (trimmed of surrounding whitespace) when `input` already
/// is that text, which one validating pass proves without building a
/// value; otherwise parsed and written out again. Refuses what
/// [`parse`] refuses.
///
/// ```
/// use std::borrow::Cow;
///
/// assert!(matches!(soc_json::canonical(r#" {"a":[1,2.5]} "#), Ok(Cow::Borrowed(r#"{"a":[1,2.5]}"#))));
/// assert_eq!(soc_json::canonical(r#"{ "a": "\u0041", "b": 1e2 }"#).unwrap(), r#"{"a":"A","b":100.0}"#);
/// ```
pub fn canonical(input: &str) -> JsonResult<Cow<'_, str>> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let text = p.raw()?;
    p.end()?;
    if p.canonical {
        Ok(Cow::Borrowed(text))
    } else {
        parse(text).map(|v| Cow::Owned(v.to_compact()))
    }
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser { input, bytes: input.as_bytes(), pos: 0, depth: 0, canonical: true }
    }

    /// Only whitespace may follow the document.
    fn end(&mut self) -> JsonResult<()> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    /// After a member or element: `true` on `close`, `false` on `,`.
    fn close(&mut self, close: u8) -> JsonResult<bool> {
        match self.bump() {
            Some(b',') => Ok(false),
            Some(b) if b == close => Ok(true),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err(format!("expected ',' or '{}'", close as char)))
            }
        }
    }

    /// Validate one value and return its text.
    fn raw(&mut self) -> JsonResult<&'a str> {
        let start = self.pos;
        self.skip()?;
        Ok(&self.input[start..self.pos])
    }
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        self.pos += scan::skip_whitespace(&self.bytes[self.pos..]);
    }

    fn expect(&mut self, b: u8) -> JsonResult<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> JsonResult<ValueRef<'a>> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let out = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(ValueRef::String),
            Some(b't') => self.keyword("true").map(|()| ValueRef::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| ValueRef::Bool(false)),
            Some(b'n') => self.keyword("null").map(|()| ValueRef::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(ValueRef::Number),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        };
        self.depth -= 1;
        out
    }

    /// Validate one value exactly as [`Parser::value`] would — same
    /// depth limit, same errors — without building it, clearing
    /// `canonical` on any text `to_compact` would write differently.
    fn skip(&mut self) -> JsonResult<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let out = match self.peek() {
            Some(b'{') => self.skip_object(),
            Some(b'[') => self.skip_array(),
            Some(b'"') => self.skip_string(),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'n') => self.keyword("null"),
            Some(b'-' | b'0'..=b'9') => self.skip_number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        };
        self.depth -= 1;
        out
    }

    /// Whitespace inside a value: allowed, but never canonical.
    fn skip_inner_ws(&mut self) {
        let n = scan::skip_whitespace(&self.bytes[self.pos..]);
        if n > 0 {
            self.canonical = false;
            self.pos += n;
        }
    }

    fn skip_object(&mut self) -> JsonResult<()> {
        self.expect(b'{')?;
        self.skip_inner_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_inner_ws();
            self.skip_string()?;
            self.skip_inner_ws();
            self.expect(b':')?;
            self.skip_inner_ws();
            self.skip()?;
            self.skip_inner_ws();
            if self.close(b'}')? {
                return Ok(());
            }
        }
    }

    fn skip_array(&mut self) -> JsonResult<()> {
        self.expect(b'[')?;
        self.skip_inner_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_inner_ws();
            self.skip()?;
            self.skip_inner_ws();
            if self.close(b']')? {
                return Ok(());
            }
        }
    }

    /// A string with no escape is canonical as written; one with an
    /// escape is canonical only if the serializer would escape it
    /// the same way (`\u0041` and `\/` it would not).
    fn skip_string(&mut self) -> JsonResult<()> {
        let start = self.pos;
        if let Cow::Owned(s) = self.string()? {
            if self.canonical {
                let mut out = String::with_capacity(self.pos - start);
                crate::ser::write_str(&s, &mut out);
                self.canonical = out == self.input[start..self.pos];
            }
        }
        Ok(())
    }

    /// An integer is canonical as written (the grammar already rules
    /// out leading zeros, and `-0` parses as a float); a float only if
    /// it reads back the way [`Number`]'s `Display` writes it.
    fn skip_number(&mut self) -> JsonResult<()> {
        let start = self.pos;
        let n = self.number()?;
        if self.canonical && matches!(n, Number::Float(_)) {
            self.canonical = n.to_string() == self.input[start..self.pos];
        }
        Ok(())
    }

    fn keyword(&mut self, word: &str) -> JsonResult<()> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> JsonResult<ValueRef<'a>> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(ValueRef::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            if self.close(b'}')? {
                return Ok(ValueRef::Object(members));
            }
        }
    }

    fn array(&mut self) -> JsonResult<ValueRef<'a>> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(ValueRef::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.close(b']')? {
                return Ok(ValueRef::Array(items));
            }
        }
    }

    fn string(&mut self) -> JsonResult<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        // One batched scan: if the first special byte is the closing
        // quote, the whole string is clean and borrows the input.
        let rest = &self.bytes[self.pos..];
        match scan::string_special(rest) {
            Some(p) if rest[p] == b'"' => {
                self.pos += p + 1;
                return Ok(Cow::Borrowed(&self.input[start..start + p]));
            }
            Some(p) => self.pos += p,
            None => self.pos = self.bytes.len(),
        }
        // An escape, control byte, or EOF ahead: build an owned buffer,
        // still copying plain runs wholesale between escapes.
        let mut out = String::with_capacity(self.pos - start + 16);
        out.push_str(&self.input[start..self.pos]);
        loop {
            match self.bump() {
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pair handling.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("expected low surrogate"));
                            }
                            let low = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(c).ok_or_else(|| self.err("bad codepoint"))?);
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.err("unpaired low surrogate"));
                        } else {
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                _ => return Err(self.err("unterminated string")),
            }
            // Copy the next plain run in one go.
            let start = self.pos;
            let rest = &self.bytes[self.pos..];
            match scan::string_special(rest) {
                Some(p) => self.pos += p,
                None => self.pos = self.bytes.len(),
            }
            out.push_str(&self.input[start..self.pos]);
        }
    }

    fn hex4(&mut self) -> JsonResult<u32> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char).to_digit(16).ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> JsonResult<Number> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: no leading zeros.
        match self.bump() {
            Some(b'0') => {}
            Some(b'1'..=b'9') => {
                self.pos += scan::digit_run(&self.bytes[self.pos..]);
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac = scan::digit_run(&self.bytes[self.pos..]);
            if frac == 0 {
                return Err(self.err("digit required after '.'"));
            }
            self.pos += frac;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp = scan::digit_run(&self.bytes[self.pos..]);
            if exp == 0 {
                return Err(self.err("digit required in exponent"));
            }
            self.pos += exp;
        }
        let text = &self.input[start..self.pos];
        // "-0" must stay a float: Int(0) cannot carry the sign.
        if !is_float && text != "-0" {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
        }
        let f: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !f.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Number::Float(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap().as_i64(), Some(42));
        assert_eq!(parse("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn structures() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.pointer("/a/1/b"), Some(&Value::Null));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(parse(r#""\n\t\"\\\/""#).unwrap().as_str(), Some("\n\t\"\\/"));
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""中""#).unwrap().as_str(), Some("中"));
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert_eq!(parse(r#""\uD83D\uDE00""#).unwrap().as_str(), Some("😀"));
        assert!(parse(r#""\uD83D""#).is_err());
        assert!(parse(r#""\uDE00""#).is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "[1 2]",
            "01",
            "1.",
            ".5",
            "1e",
            "\"unterminated",
            "tru",
            "nul",
            "{a:1}",
            "[1]]",
            "\"\u{1}\"",
            "+1",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("  {\"a\":1}  ").is_ok());
    }

    #[test]
    fn deep_nesting_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn big_integers_fall_back_to_float() {
        let v = parse("99999999999999999999").unwrap();
        assert!(v.as_i64().is_none());
        assert!(v.as_f64().unwrap() > 9.9e19);
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let err = parse(r#"{"a": tru}"#).unwrap_err();
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn long_strings_cross_word_boundaries() {
        // Clean and escaped strings longer than the 8-byte scan word.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64] {
            let body = "x".repeat(len);
            let v = parse(&format!("\"{body}\"")).unwrap();
            assert_eq!(v.as_str(), Some(body.as_str()));
            let v = parse(&format!("\"{body}\\n{body}\"")).unwrap();
            assert_eq!(v.as_str().unwrap(), format!("{body}\n{body}"));
        }
    }
}
