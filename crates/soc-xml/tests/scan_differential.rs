//! Differential tests for the SWAR scanner: every batched routine in
//! `soc_xml::scan` must agree with its byte-at-a-time oracle in
//! `scan::naive` on adversarial inputs — interest bytes in every lane
//! of the 8-byte word, multi-byte UTF-8 sequences straddling the word
//! boundary, bytes with the high bit set (the classic false-positive
//! source for the carry trick), and arbitrary byte soup. A second
//! section checks the property the scanner exists to preserve: the
//! reader's event stream survives a writer round trip unchanged.

use proptest::prelude::*;
use soc_xml::{escape, scan, QName, XmlEvent, XmlReader};

/// Assert all scan routines agree with their oracles on `hay`.
fn assert_agrees(hay: &[u8]) {
    for needle in [b'<', b'&', b'>', b'"', b'\n', 0x00, 0x7f, 0x80, 0xc3, 0xff] {
        assert_eq!(
            scan::find_byte(hay, needle),
            scan::naive::find_byte(hay, needle),
            "find_byte({needle:#04x}) on {hay:02x?}"
        );
        assert_eq!(
            scan::count_byte(hay, needle),
            scan::naive::count_byte(hay, needle),
            "count_byte({needle:#04x}) on {hay:02x?}"
        );
        assert_eq!(
            scan::rfind_byte(hay, needle),
            scan::naive::rfind_byte(hay, needle),
            "rfind_byte({needle:#04x}) on {hay:02x?}"
        );
    }
    assert_eq!(scan::find_byte2(hay, b'"', b'&'), scan::naive::find_byte2(hay, b'"', b'&'));
    assert_eq!(
        scan::find_byte3(hay, b'<', b'&', b'>'),
        scan::naive::find_byte3(hay, b'<', b'&', b'>')
    );
    let needles = [b'<', b'>', b'&', b'"', b'\'', b'\n', b'\t'];
    assert_eq!(scan::find_any(hay, &needles), scan::naive::find_any(hay, &needles));
    assert_eq!(scan::find_substr(hay, b"]]>"), scan::naive::find_substr(hay, b"]]>"));
    assert_eq!(scan::skip_whitespace(hay), scan::naive::skip_whitespace(hay));
}

#[test]
fn interest_byte_in_every_lane() {
    // One interest byte walked through every position of a buffer long
    // enough to cover lead-in, full words, and the scalar tail — so a
    // match lands in each of the 8 lanes and in the tail.
    for len in [0, 1, 7, 8, 9, 15, 16, 17, 24, 31, 33] {
        for pos in 0..len {
            for needle in [b'<', b'&', b'>', 0x80u8] {
                let mut hay = vec![b'a'; len];
                hay[pos] = needle;
                assert_agrees(&hay);
            }
        }
    }
}

#[test]
fn high_bytes_never_false_positive() {
    // Bytes ≥ 0x80 share low bits with ASCII needles; the SWAR masks
    // must not report them. Exhaustive over every byte value at every
    // lane of one word.
    for b in 0x80..=0xffu16 {
        for pos in 0..16 {
            let mut hay = vec![b'x'; 16];
            hay[pos] = b as u8;
            assert_agrees(&hay);
        }
    }
}

#[test]
fn utf8_straddling_the_word_boundary() {
    // Multi-byte sequences placed so they split across the 8-byte
    // word: the scanner works on bytes and must treat continuation
    // bytes as plain content.
    for s in ["é", "中", "😀", "ÿ", "\u{7ff}", "\u{ffff}"] {
        for pad in 0..12 {
            let mut hay = "a".repeat(pad);
            hay.push_str(s);
            hay.push_str("<tail&");
            assert_agrees(hay.as_bytes());
        }
    }
}

#[test]
fn whitespace_runs_across_words() {
    for len in 0..40 {
        let mut hay = vec![b' '; len];
        hay.extend_from_slice(b"<x/>");
        assert_agrees(&hay);
        let mut mixed = b" \t\r\n".repeat(len / 4 + 1);
        mixed.push(b'g');
        assert_agrees(&mixed);
    }
}

proptest! {
    /// Arbitrary byte soup: batched and naive scanners are the same
    /// function.
    #[test]
    fn scanners_agree_on_arbitrary_bytes(hay in proptest::collection::vec(any::<u8>(), 0..80)) {
        assert_agrees(&hay);
    }

    /// XML-shaped soup, denser in the bytes the reader scans for.
    #[test]
    fn scanners_agree_on_markup_soup(hay in "[<>&\"' \t\na-f\u{e9}\u{4e2d}]{0,64}") {
        assert_agrees(hay.as_bytes());
    }
}

// ---------------------------------------------------------------------
// Reader event-stream equivalence
// ---------------------------------------------------------------------

/// One reader event with its payloads owned and a start tag's
/// attributes attached, so a whole stream can be collected and
/// compared.
#[derive(Debug, PartialEq, Eq)]
enum Event {
    StartDocument { version: String, encoding: Option<String> },
    StartElement { name: QName, attributes: Vec<(QName, String)> },
    EndElement { name: QName },
    Text(String),
    CData(String),
    Comment(String),
    ProcessingInstruction { target: String, data: String },
    Doctype(String),
}

/// Pull the full event stream of a document, up to `EndDocument`.
fn events(input: &str) -> Vec<Event> {
    let mut reader = XmlReader::new(input);
    let mut out = Vec::new();
    loop {
        let event = match reader.next_event().expect("event stream must parse") {
            XmlEvent::StartDocument { version, encoding } => Event::StartDocument {
                version: version.to_string(),
                encoding: encoding.map(str::to_string),
            },
            XmlEvent::StartElement { name } => Event::StartElement {
                name: name.to_qname(),
                attributes: reader
                    .attributes()
                    .iter()
                    .map(|a| (a.name.to_qname(), a.value.to_string()))
                    .collect(),
            },
            XmlEvent::EndElement { name } => Event::EndElement { name: name.to_qname() },
            XmlEvent::Text(t) => Event::Text(t.into_owned()),
            XmlEvent::CData(t) => Event::CData(t.to_string()),
            XmlEvent::Comment(t) => Event::Comment(t.to_string()),
            XmlEvent::ProcessingInstruction { target, data } => {
                Event::ProcessingInstruction { target: target.to_string(), data: data.to_string() }
            }
            XmlEvent::Doctype(t) => Event::Doctype(t.to_string()),
            XmlEvent::EndDocument => return out,
        };
        out.push(event);
    }
}

/// Serialize an event stream back to markup using the escape
/// fast paths, so re-reading it exercises the same scanners.
fn write_events(stream: &[Event]) -> String {
    let mut out = String::new();
    for ev in stream {
        match ev {
            Event::StartDocument { version, encoding } => {
                out.push_str(&format!("<?xml version=\"{version}\""));
                if let Some(e) = encoding {
                    out.push_str(&format!(" encoding=\"{e}\""));
                }
                out.push_str("?>");
            }
            Event::StartElement { name, attributes } => {
                out.push('<');
                out.push_str(&name.to_string());
                for (attr, value) in attributes {
                    out.push(' ');
                    out.push_str(&attr.to_string());
                    out.push_str("=\"");
                    out.push_str(&escape::escape_attr(value));
                    out.push('"');
                }
                out.push('>');
            }
            Event::EndElement { name } => {
                out.push_str("</");
                out.push_str(&name.to_string());
                out.push('>');
            }
            Event::Text(t) => out.push_str(&escape::escape_text(t)),
            Event::CData(c) => {
                out.push_str("<![CDATA[");
                out.push_str(c);
                out.push_str("]]>");
            }
            Event::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            Event::ProcessingInstruction { target, data } => {
                out.push_str("<?");
                out.push_str(target);
                if !data.is_empty() {
                    out.push(' ');
                    out.push_str(data);
                }
                out.push_str("?>");
            }
            Event::Doctype(d) => {
                out.push_str("<!DOCTYPE ");
                out.push_str(d);
                out.push('>');
            }
        }
    }
    out
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-d][a-d0-9._-]{0,4}"
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Escape-heavy text with multi-byte characters near the bytes the
    // scanner looks for.
    "[ a-z<>&\"'\u{e9}\u{4e2d}\u{1f600}]{1,24}"
}

/// Build a small well-formed document as text.
fn doc_strategy() -> impl Strategy<Value = String> {
    (
        name_strategy(),
        proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
        proptest::collection::vec(
            prop_oneof![
                text_strategy().prop_map(|t| (0u8, t)),
                text_strategy().prop_map(|t| (1u8, t)),
                name_strategy().prop_map(|n| (2u8, n)),
            ],
            0..5,
        ),
    )
        .prop_map(|(root, attrs, children)| {
            let mut doc = format!("<{root}");
            for (k, v) in &attrs {
                doc.push_str(&format!(" {k}=\"{}\"", escape::escape_attr(v)));
            }
            doc.push('>');
            for (kind, payload) in &children {
                match kind {
                    0 => doc.push_str(&escape::escape_text(payload)),
                    1 => {
                        // CDATA content must not contain "]]>".
                        let clean = payload.replace("]]>", "]] >");
                        doc.push_str(&format!("<![CDATA[{clean}]]>"));
                    }
                    _ => doc.push_str(&format!("<{payload} k=\"v\"/>")),
                }
            }
            doc.push_str(&format!("</{root}>"));
            doc
        })
}

proptest! {
    /// The event stream is a fixed point of read → write → read: any
    /// scanning bug (missed byte, off-by-one at a word boundary,
    /// phantom match on a high byte) shows up as a diverging stream.
    #[test]
    fn event_stream_survives_writer_round_trip(doc in doc_strategy()) {
        let first = events(&doc);
        let rewritten = write_events(&first);
        prop_assert_eq!(&events(&rewritten), &first, "rewritten: {}", rewritten);
    }
}

#[test]
fn event_stream_fixed_point_on_adversarial_docs() {
    for doc in [
        // Entities adjacent to CDATA, bare '>' in text, ']]' lookbehind.
        "<r>a&amp;b<![CDATA[<raw&>]]>c &gt; d ]] e</r>",
        // Attributes with every escape-worthy byte.
        "<r a=\"q&quot;q\" b=\"tab&#9;nl&#10;\" c=\"&lt;&amp;&gt;\"><e/></r>",
        // Multi-byte text straddling scan words, comments and PIs.
        "<?xml version=\"1.0\"?><r>héllo 中文 😀<!--c--><?pi data?><x>t</x></r>",
        // Deeply nested self-closing run.
        "<a><b><c><d/><d/><d/></c></b></a>",
    ] {
        let first = events(doc);
        let rewritten = write_events(&first);
        assert_eq!(events(&rewritten), first, "doc: {doc}");
    }
}
