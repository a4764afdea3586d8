//! Pull-style XML parser (the event model that SAX is built on).
//!
//! [`XmlReader`] walks the input once, producing borrowed
//! [`XmlEvent`]s: names are [`RawName`] slices into the input and text
//! payloads are [`Cow`]s that only allocate when entity expansion
//! actually rewrites bytes. A clean document (no entities) parses with
//! zero per-event allocations. The reader enforces well-formedness:
//! tags must balance, attributes must be unique per element, exactly
//! one root element, no text outside it.
//!
//! Attributes of the most recent `StartElement` are exposed through
//! [`XmlReader::attributes`] — they live in a buffer the reader reuses
//! across elements, so pulling events never allocates a `Vec` per tag.
//!
//! ```
//! use soc_xml::reader::{XmlReader, XmlEvent};
//!
//! let mut r = XmlReader::new("<a href='x'>hi</a>");
//! assert!(matches!(r.next_event().unwrap(), XmlEvent::StartElement { .. }));
//! assert_eq!(r.attributes()[0].value, "x");
//! assert!(matches!(r.next_event().unwrap(), XmlEvent::Text(t) if t == "hi"));
//! ```

use std::borrow::Cow;

use crate::error::{Position, XmlError, XmlResult};
use crate::escape::unescape;
use crate::name::{is_name_char, is_name_start, RawName};
use crate::scan;

/// A single attribute as it appeared on a start tag, value already
/// entity-expanded (borrowing the input unless expansion rewrote it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute<'a> {
    /// Attribute name, possibly prefixed.
    pub name: RawName<'a>,
    /// Entity-expanded attribute value.
    pub value: Cow<'a, str>,
}

/// Borrowed events produced by [`XmlReader`]. All payloads are slices
/// of (or [`Cow`]s over) the input string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlEvent<'a> {
    /// The `<?xml … ?>` declaration, if present.
    StartDocument {
        /// `version` pseudo-attribute (defaults to "1.0").
        version: &'a str,
        /// `encoding` pseudo-attribute, if given.
        encoding: Option<&'a str>,
    },
    /// An opening tag. Its attributes are available from
    /// [`XmlReader::attributes`] until the next event is pulled.
    /// Self-closing tags produce a `StartElement` immediately followed
    /// by a synthetic `EndElement`.
    StartElement {
        /// Element name.
        name: RawName<'a>,
    },
    /// A closing tag (possibly synthetic, for `<x/>`).
    EndElement {
        /// Element name.
        name: RawName<'a>,
    },
    /// Character data between tags, entity-expanded.
    Text(Cow<'a, str>),
    /// A `<![CDATA[…]]>` section, verbatim.
    CData(&'a str),
    /// A `<!-- … -->` comment, verbatim.
    Comment(&'a str),
    /// A `<?target data?>` processing instruction (other than `<?xml?>`).
    ProcessingInstruction {
        /// PI target.
        target: &'a str,
        /// Everything after the target, trimmed.
        data: &'a str,
    },
    /// A `<!DOCTYPE …>` declaration, kept as raw text.
    Doctype(&'a str),
    /// End of input; returned forever after the document closes.
    EndDocument,
}

/// Configuration for [`XmlReader`].
#[derive(Debug, Clone, Default)]
pub struct ReaderConfig {
    /// Drop text events that are entirely whitespace (common when
    /// parsing pretty-printed documents into data structures).
    pub trim_whitespace_text: bool,
    /// Skip comment events entirely.
    pub skip_comments: bool,
}

/// A streaming pull parser over a UTF-8 string.
pub struct XmlReader<'a> {
    input: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread byte. The hot path tracks *only*
    /// this; line/column are materialized lazily via
    /// [`Position::locate`] when an error or position query needs them.
    offset: usize,
    config: ReaderConfig,
    /// Open-element stack for balance checking (name slices, no copies).
    stack: Vec<RawName<'a>>,
    /// Attributes of the most recent start tag; reused across elements.
    attrs: Vec<Attribute<'a>>,
    /// Synthetic end-element queued by a self-closing tag.
    pending_end: Option<RawName<'a>>,
    /// Whether the root element has been closed.
    root_done: bool,
    /// Whether any root element has been seen.
    root_seen: bool,
    /// Whether the `<?xml?>` declaration may still appear.
    at_start: bool,
}

impl<'a> XmlReader<'a> {
    /// Create a reader with default configuration.
    pub fn new(input: &'a str) -> Self {
        Self::with_config(input, ReaderConfig::default())
    }

    /// Create a reader with explicit configuration.
    pub fn with_config(input: &'a str, config: ReaderConfig) -> Self {
        XmlReader {
            input,
            bytes: input.as_bytes(),
            offset: 0,
            config,
            stack: Vec::new(),
            attrs: Vec::new(),
            pending_end: None,
            root_done: false,
            root_seen: false,
            at_start: true,
        }
    }

    /// Current source position (start of the next unread byte).
    /// Computed on demand — the parse loop itself never pays for
    /// line/column bookkeeping.
    pub fn position(&self) -> Position {
        self.pos_at(self.offset)
    }

    fn pos_at(&self, offset: usize) -> Position {
        Position::locate(self.input, offset)
    }

    /// Attributes of the most recent [`XmlEvent::StartElement`], in
    /// document order. The backing buffer is reused: read them before
    /// pulling the next event.
    pub fn attributes(&self) -> &[Attribute<'a>] {
        &self.attrs
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.offset).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.offset + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.offset += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.offset..].starts_with(s)
    }

    fn consume_str(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.offset += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        self.offset += scan::skip_whitespace(&self.bytes[self.offset..]);
    }

    /// Consume input up to (not including) `delim`, returning the slice.
    fn take_until(&mut self, delim: &str, what: &'static str) -> XmlResult<&'a str> {
        let rest = &self.input[self.offset..];
        let Some(idx) = scan::find_substr(rest.as_bytes(), delim.as_bytes()) else {
            return Err(XmlError::UnexpectedEof { pos: self.pos_at(self.offset), expected: what });
        };
        self.offset += idx;
        Ok(&rest[..idx])
    }

    fn read_name(&mut self) -> XmlResult<RawName<'a>> {
        let rest = &self.input[self.offset..];
        let bytes = rest.as_bytes();
        // ASCII fast path: almost every name is ASCII, where the name
        // classes reduce to byte tests — no UTF-8 decode per char.
        match bytes.first() {
            Some(&b) if b.is_ascii_alphabetic() || b == b'_' || b == b':' => {}
            Some(&b) if b >= 0x80 && rest.chars().next().is_some_and(is_name_start) => {}
            Some(_) => {
                return Err(XmlError::Unexpected {
                    pos: self.pos_at(self.offset),
                    found: rest.chars().next().unwrap(),
                    expected: "name start",
                })
            }
            None => {
                return Err(XmlError::UnexpectedEof {
                    pos: self.pos_at(self.offset),
                    expected: "name",
                })
            }
        }
        let mut len = 0;
        while len < bytes.len() && is_ascii_name_byte(bytes[len]) {
            len += 1;
        }
        if bytes.get(len).is_some_and(|&b| b >= 0x80) {
            // Non-ASCII continuation: finish with char-exact classes.
            for c in rest[len..].chars() {
                if is_name_char(c) {
                    len += c.len_utf8();
                } else {
                    break;
                }
            }
        }
        let raw = &rest[..len];
        self.offset += len;
        Ok(RawName::parse(raw))
    }

    fn read_attr_value(&mut self) -> XmlResult<Cow<'a, str>> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(c) => {
                return Err(XmlError::Unexpected {
                    pos: self.pos_at(self.offset),
                    found: c as char,
                    expected: "quoted attribute value",
                })
            }
            None => {
                return Err(XmlError::UnexpectedEof {
                    pos: self.pos_at(self.offset),
                    expected: "attribute value",
                })
            }
        };
        let at = self.offset;
        let rest = &self.input[self.offset..];
        let bytes = rest.as_bytes();
        // One scan finds both the closing quote and whether any entity
        // needs expanding; escape-free values (the common case) borrow
        // without a second pass.
        let (end, has_entity) = match scan::find_byte2(bytes, quote, b'&') {
            Some(p) if bytes[p] == quote => (p, false),
            Some(p) => match scan::find_byte(&bytes[p..], quote) {
                Some(q) => (p + q, true),
                None => {
                    return Err(XmlError::UnexpectedEof {
                        pos: self.pos_at(at),
                        expected: "closing attribute quote",
                    })
                }
            },
            None => {
                return Err(XmlError::UnexpectedEof {
                    pos: self.pos_at(at),
                    expected: "closing attribute quote",
                })
            }
        };
        let raw = &rest[..end];
        self.offset += end + 1; // value + closing quote
        if !has_entity {
            return Ok(Cow::Borrowed(raw));
        }
        unescape(raw, Position::start()).map_err(|e| e.at(self.pos_at(at)))
    }

    /// Parse the inside of a start tag after the name: attributes (into
    /// the reusable buffer) and the closing `>` or `/>`. Returns
    /// `self_closing`.
    fn read_attributes(&mut self) -> XmlResult<bool> {
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.offset += 1;
                    return Ok(false);
                }
                Some(b'/') => {
                    self.bump();
                    if self.bump() != Some(b'>') {
                        return Err(XmlError::Unexpected {
                            pos: self.pos_at(self.offset),
                            found: '/',
                            expected: "'/>'",
                        });
                    }
                    return Ok(true);
                }
                Some(_) => {
                    let at = self.offset;
                    let name = self.read_name()?;
                    self.skip_ws();
                    if self.bump() != Some(b'=') {
                        return Err(XmlError::Unexpected {
                            pos: self.pos_at(self.offset),
                            found: self.peek().map(|b| b as char).unwrap_or('\0'),
                            expected: "'=' after attribute name",
                        });
                    }
                    self.skip_ws();
                    let value = self.read_attr_value()?;
                    if self.attrs.iter().any(|a| a.name.as_str() == name.as_str()) {
                        return Err(XmlError::DuplicateAttribute {
                            pos: self.pos_at(at),
                            name: name.to_string(),
                        });
                    }
                    self.attrs.push(Attribute { name, value });
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        pos: self.pos_at(self.offset),
                        expected: "'>'",
                    })
                }
            }
        }
    }

    fn read_xml_decl(&mut self) -> XmlResult<XmlEvent<'a>> {
        // Already consumed "<?xml".
        let at = self.offset;
        let body = self.take_until("?>", "'?>'")?;
        self.consume_str("?>");
        let mut version: &'a str = "1.0";
        let mut encoding = None;
        for part in body.split_whitespace() {
            if let Some((k, v)) = part.split_once('=') {
                let v = v.trim_matches(|c| c == '"' || c == '\'');
                match k {
                    "version" => version = v,
                    "encoding" => encoding = Some(v),
                    _ => {}
                }
            }
        }
        if encoding.is_some_and(|e| !e.eq_ignore_ascii_case("utf-8")) {
            return Err(XmlError::BadChar {
                pos: self.pos_at(at),
                detail: format!("unsupported encoding {:?} (only UTF-8)", encoding.unwrap()),
            });
        }
        Ok(XmlEvent::StartDocument { version, encoding })
    }

    /// Pull the next event from the input.
    pub fn next_event(&mut self) -> XmlResult<XmlEvent<'a>> {
        if let Some(name) = self.pending_end.take() {
            if self.stack.is_empty() {
                self.root_done = true;
            }
            return Ok(XmlEvent::EndElement { name });
        }
        loop {
            let Some(first) = self.peek() else {
                // End of input.
                if self.stack.last().is_some() {
                    return Err(XmlError::UnexpectedEof {
                        pos: self.pos_at(self.offset),
                        expected: "closing tag",
                    });
                }
                if !self.root_seen {
                    return Err(XmlError::NotWellFormed {
                        pos: self.pos_at(self.offset),
                        detail: "document has no root element".into(),
                    });
                }
                return Ok(XmlEvent::EndDocument);
            };

            if first == b'<' {
                let at = self.offset;
                self.bump();
                match self.peek() {
                    Some(b'?') => {
                        self.bump();
                        if self.at_start
                            && self.starts_with("xml")
                            && self.peek_at(3).is_none_or(|b| b.is_ascii_whitespace() || b == b'?')
                        {
                            self.consume_str("xml");
                            self.at_start = false;
                            return self.read_xml_decl();
                        }
                        self.at_start = false;
                        let target = self.read_name()?;
                        let data = self.take_until("?>", "'?>'")?.trim();
                        self.consume_str("?>");
                        return Ok(XmlEvent::ProcessingInstruction {
                            target: target.as_str(),
                            data,
                        });
                    }
                    Some(b'!') => {
                        self.bump();
                        self.at_start = false;
                        if self.consume_str("--") {
                            let text = self.take_until("-->", "'-->'")?;
                            self.consume_str("-->");
                            if self.config.skip_comments {
                                continue;
                            }
                            return Ok(XmlEvent::Comment(text));
                        }
                        if self.consume_str("[CDATA[") {
                            if self.stack.is_empty() {
                                return Err(XmlError::NotWellFormed {
                                    pos: self.pos_at(at),
                                    detail: "CDATA outside root element".into(),
                                });
                            }
                            let text = self.take_until("]]>", "']]>'")?;
                            self.consume_str("]]>");
                            return Ok(XmlEvent::CData(text));
                        }
                        if self.consume_str("DOCTYPE") {
                            // Keep it simple: no internal subsets with nested '>'.
                            let text = self.take_until(">", "'>'")?.trim();
                            self.bump();
                            return Ok(XmlEvent::Doctype(text));
                        }
                        return Err(XmlError::Unexpected {
                            pos: self.pos_at(at),
                            found: '!',
                            expected: "comment, CDATA, or DOCTYPE",
                        });
                    }
                    Some(b'/') => {
                        self.bump();
                        let name = self.read_name()?;
                        self.skip_ws();
                        if self.bump() != Some(b'>') {
                            return Err(XmlError::UnexpectedEof {
                                pos: self.pos_at(self.offset),
                                expected: "'>'",
                            });
                        }
                        match self.stack.pop() {
                            Some(open) if open.as_str() == name.as_str() => {
                                if self.stack.is_empty() {
                                    self.root_done = true;
                                }
                                return Ok(XmlEvent::EndElement { name });
                            }
                            Some(open) => {
                                return Err(XmlError::MismatchedTag {
                                    pos: self.pos_at(at),
                                    open: open.to_string(),
                                    close: name.to_string(),
                                })
                            }
                            None => {
                                return Err(XmlError::UnbalancedClose {
                                    pos: self.pos_at(at),
                                    name: name.to_string(),
                                })
                            }
                        }
                    }
                    _ => {
                        self.at_start = false;
                        if self.root_done {
                            return Err(XmlError::NotWellFormed {
                                pos: self.pos_at(at),
                                detail: "content after the root element".into(),
                            });
                        }
                        if self.stack.is_empty() && self.root_seen {
                            return Err(XmlError::NotWellFormed {
                                pos: self.pos_at(at),
                                detail: "multiple root elements".into(),
                            });
                        }
                        let name = self.read_name()?;
                        let self_closing = self.read_attributes()?;
                        self.root_seen = true;
                        if self_closing {
                            self.pending_end = Some(name);
                        } else {
                            self.stack.push(name);
                        }
                        return Ok(XmlEvent::StartElement { name });
                    }
                }
            }

            // Character data. One scan finds both the run's end and
            // whether any entity needs expanding; clean runs borrow.
            let at = self.offset;
            let rest = &self.input[self.offset..];
            let bytes = rest.as_bytes();
            let (end, has_entity) = match scan::find_byte2(bytes, b'<', b'&') {
                None => (bytes.len(), false),
                Some(p) if bytes[p] == b'<' => (p, false),
                Some(p) => {
                    (scan::find_byte(&bytes[p..], b'<').map_or(bytes.len(), |q| p + q), true)
                }
            };
            let raw = &rest[..end];
            self.offset += end;
            self.at_start = false;
            let outside = self.stack.is_empty();
            if outside {
                if !raw.trim().is_empty() {
                    return Err(XmlError::NotWellFormed {
                        pos: self.pos_at(at),
                        detail: "text outside the root element".into(),
                    });
                }
                continue;
            }
            if self.config.trim_whitespace_text && raw.trim().is_empty() {
                continue;
            }
            let text = if has_entity {
                unescape(raw, Position::start()).map_err(|e| e.at(self.pos_at(at)))?
            } else {
                Cow::Borrowed(raw)
            };
            return Ok(XmlEvent::Text(text));
        }
    }

    /// Drain the remaining events, checking well-formedness of the whole
    /// document. Useful for validation without building a DOM.
    pub fn validate_to_end(&mut self) -> XmlResult<()> {
        loop {
            if matches!(self.next_event()?, XmlEvent::EndDocument) {
                return Ok(());
            }
        }
    }
}

/// ASCII subset of [`is_name_char`], as a byte test for the scan fast
/// path. Bytes `>= 0x80` return false and are handed to the char-exact
/// classifier.
#[inline(always)]
fn is_ascii_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
}

impl<'a> Iterator for XmlReader<'a> {
    type Item = XmlResult<XmlEvent<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_event() {
            Ok(XmlEvent::EndDocument) => None,
            other => Some(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<XmlEvent<'_>> {
        XmlReader::new(input).collect::<XmlResult<Vec<_>>>().unwrap()
    }

    #[test]
    fn simple_element_with_text() {
        let ev = events("<a>hi</a>");
        assert_eq!(
            ev,
            vec![
                XmlEvent::StartElement { name: RawName::parse("a") },
                XmlEvent::Text("hi".into()),
                XmlEvent::EndElement { name: RawName::parse("a") },
            ]
        );
    }

    #[test]
    fn clean_text_is_borrowed() {
        let mut r = XmlReader::new("<a>plain text</a>");
        r.next_event().unwrap();
        let XmlEvent::Text(t) = r.next_event().unwrap() else { panic!() };
        assert!(matches!(t, Cow::Borrowed(_)));
    }

    #[test]
    fn entity_text_is_owned() {
        let mut r = XmlReader::new("<a>a&amp;b</a>");
        r.next_event().unwrap();
        let XmlEvent::Text(t) = r.next_event().unwrap() else { panic!() };
        assert!(matches!(t, Cow::Owned(_)));
        assert_eq!(t, "a&b");
    }

    #[test]
    fn self_closing_produces_synthetic_end() {
        let ev = events("<a><b/></a>");
        assert_eq!(ev.len(), 4);
        assert!(matches!(&ev[1], XmlEvent::StartElement { name } if name.local == "b"));
        assert!(matches!(&ev[2], XmlEvent::EndElement { name } if name.local == "b"));
    }

    #[test]
    fn attributes_single_and_double_quoted() {
        let mut r = XmlReader::new(r#"<s id="1" name='echo &amp; co'/>"#);
        r.next_event().unwrap();
        let attrs = r.attributes();
        assert_eq!(attrs[0].value, "1");
        assert!(matches!(attrs[0].value, Cow::Borrowed(_)));
        assert_eq!(attrs[1].value, "echo & co");
        assert!(matches!(attrs[1].value, Cow::Owned(_)));
    }

    #[test]
    fn attribute_buffer_reused_across_elements() {
        let mut r = XmlReader::new(r#"<a x="1"><b y="2" z="3"/></a>"#);
        r.next_event().unwrap();
        assert_eq!(r.attributes().len(), 1);
        r.next_event().unwrap();
        assert_eq!(r.attributes().len(), 2);
        assert_eq!(r.attributes()[0].name.local, "y");
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let mut r = XmlReader::new(r#"<s a="1" a="2"/>"#);
        assert!(matches!(r.next_event(), Err(XmlError::DuplicateAttribute { .. })));
    }

    #[test]
    fn xml_declaration_parsed() {
        let ev = events("<?xml version=\"1.0\" encoding=\"UTF-8\"?><r/>");
        assert_eq!(ev[0], XmlEvent::StartDocument { version: "1.0", encoding: Some("UTF-8") });
    }

    #[test]
    fn non_utf8_encoding_rejected() {
        let mut r = XmlReader::new("<?xml version=\"1.0\" encoding=\"latin-1\"?><r/>");
        assert!(matches!(r.next_event(), Err(XmlError::BadChar { .. })));
    }

    #[test]
    fn cdata_is_verbatim() {
        let ev = events("<a><![CDATA[1 < 2 && 3 > 2]]></a>");
        assert!(matches!(&ev[1], XmlEvent::CData(t) if *t == "1 < 2 && 3 > 2"));
    }

    #[test]
    fn comments_and_pis() {
        let ev = events("<a><!-- note --><?php echo ?></a>");
        assert!(matches!(&ev[1], XmlEvent::Comment(t) if *t == " note "));
        assert!(matches!(&ev[2],
            XmlEvent::ProcessingInstruction { target, data } if *target == "php" && *data == "echo"));
    }

    #[test]
    fn skip_comments_config() {
        let cfg = ReaderConfig { skip_comments: true, ..Default::default() };
        let ev: Vec<_> =
            XmlReader::with_config("<a><!--x-->t</a>", cfg).collect::<XmlResult<_>>().unwrap();
        assert_eq!(ev.len(), 3);
        assert!(matches!(&ev[1], XmlEvent::Text(t) if t == "t"));
    }

    #[test]
    fn trim_whitespace_config() {
        let cfg = ReaderConfig { trim_whitespace_text: true, ..Default::default() };
        let ev: Vec<_> =
            XmlReader::with_config("<a>\n  <b/>\n</a>", cfg).collect::<XmlResult<_>>().unwrap();
        assert_eq!(ev.len(), 4); // no text events
    }

    #[test]
    fn mismatched_tags_rejected() {
        let mut r = XmlReader::new("<a><b></a></b>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert!(matches!(r.next_event(), Err(XmlError::MismatchedTag { .. })));
    }

    #[test]
    fn unbalanced_close_rejected() {
        let mut r = XmlReader::new("</a>");
        assert!(matches!(r.next_event(), Err(XmlError::UnbalancedClose { .. })));
    }

    #[test]
    fn unclosed_root_rejected() {
        let mut r = XmlReader::new("<a><b></b>");
        assert!(r.validate_to_end().is_err());
    }

    #[test]
    fn multiple_roots_rejected() {
        let mut r = XmlReader::new("<a/><b/>");
        assert!(r.validate_to_end().is_err());
    }

    #[test]
    fn text_outside_root_rejected() {
        let mut r = XmlReader::new("<a/>junk");
        assert!(r.validate_to_end().is_err());
    }

    #[test]
    fn empty_input_rejected() {
        let mut r = XmlReader::new("   ");
        assert!(matches!(r.next_event(), Err(XmlError::NotWellFormed { .. })));
    }

    #[test]
    fn doctype_is_reported() {
        let ev = events("<!DOCTYPE html><a/>");
        assert!(matches!(&ev[0], XmlEvent::Doctype(t) if *t == "html"));
    }

    #[test]
    fn prefixed_names() {
        let ev = events("<soap:Envelope xmlns:soap='urn:s'><soap:Body/></soap:Envelope>");
        assert!(matches!(&ev[0], XmlEvent::StartElement { name }
            if name.prefix == "soap" && name.local == "Envelope"));
    }

    #[test]
    fn position_reported_in_errors() {
        let mut r = XmlReader::new("<a>\n  <b></c></b></a>");
        r.next_event().unwrap(); // <a>
        r.next_event().unwrap(); // text
        r.next_event().unwrap(); // <b>
        let err = r.next_event().unwrap_err();
        let XmlError::MismatchedTag { pos, .. } = err else { panic!("{err}") };
        assert_eq!(pos.line, 2);
    }

    #[test]
    fn whitespace_between_prolog_and_root_ok() {
        let ev = events("<?xml version='1.0'?>\n\n<r/>");
        assert_eq!(ev.len(), 3);
    }

    #[test]
    fn unicode_text_round_trips() {
        let ev = events("<a>中文 → ok</a>");
        assert!(matches!(&ev[1], XmlEvent::Text(t) if t == "中文 → ok"));
    }
}
