//! Property tests for the HTTP substrate: wire codec round-trips,
//! URL/form encoding laws, and cookie handling.

use std::io::BufReader;

use proptest::prelude::*;
use soc_http::codec::{self, DEFAULT_BODY_LIMIT};
use soc_http::url::{encode_form, parse_form, percent_decode, percent_encode, Url};
use soc_http::{Headers, Method, Request, Response, Status, Version};

fn method_strategy() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Get),
        Just(Method::Post),
        Just(Method::Put),
        Just(Method::Delete),
        Just(Method::Head),
        Just(Method::Options),
        Just(Method::Patch),
    ]
}

fn header_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec(("[A-Za-z][A-Za-z0-9-]{0,12}", "[ -~&&[^\r\n]]{0,24}"), 0..5)
        .prop_map(|pairs| {
            pairs
                .into_iter()
                .filter(|(k, _)| {
                    // Reserved names the codec manages itself.
                    !k.eq_ignore_ascii_case("content-length")
                        && !k.eq_ignore_ascii_case("transfer-encoding")
                        && !k.eq_ignore_ascii_case("host")
                })
                .map(|(k, v)| (k, v.trim().to_string()))
                .collect()
        })
}

proptest! {
    #[test]
    fn request_wire_round_trip(
        method in method_strategy(),
        path in "/[a-z0-9/._-]{0,24}",
        headers in header_strategy(),
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut req = Request::new(method, path.clone()).with_body_bytes(body.clone());
        for (k, v) in &headers {
            req.headers.add(k.clone(), v.as_str());
        }
        let mut wire = Vec::new();
        codec::write_request(&mut wire, &req, Some("h")).unwrap();
        let parsed = codec::read_request(&mut BufReader::new(&wire[..]), DEFAULT_BODY_LIMIT).unwrap();
        prop_assert_eq!(parsed.method, method);
        prop_assert_eq!(parsed.target, path);
        prop_assert_eq!(parsed.body, body);
        for (k, v) in &headers {
            prop_assert!(
                parsed.headers.get_all(k).any(|pv| pv == v),
                "header {k:?}={v:?} lost in transit"
            );
        }
    }

    #[test]
    fn response_wire_round_trip(
        code in 100u16..599,
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let resp = Response::new(Status(code)).with_body_bytes(body.clone());
        let mut wire = Vec::new();
        codec::write_response(&mut wire, &resp).unwrap();
        let parsed =
            codec::read_response(&mut BufReader::new(&wire[..]), DEFAULT_BODY_LIMIT).unwrap();
        prop_assert_eq!(parsed.status.0, code);
        prop_assert_eq!(parsed.body, body);
    }

    #[test]
    fn chunked_decoding_matches_plain_body(
        body in proptest::collection::vec(any::<u8>(), 0..800),
        chunk in 1usize..64,
    ) {
        let mut wire = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        wire.extend_from_slice(&codec::encode_chunked(&body, chunk));
        let parsed = codec::read_request(&mut BufReader::new(&wire[..]), DEFAULT_BODY_LIMIT).unwrap();
        prop_assert_eq!(parsed.body, body);
    }

    #[test]
    fn codec_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::read_request(&mut BufReader::new(&bytes[..]), 1024);
        let _ = codec::read_response(&mut BufReader::new(&bytes[..]), 1024);
    }

    /// Adversarial chunk-size lines: arbitrary hex strings (including
    /// ones near and past `usize::MAX`) with arbitrary extensions. The
    /// decoder must never panic, and whatever body it accepts must be
    /// within the limit — the overflow bug let a huge claimed size slip
    /// past the check and drive a giant allocation.
    #[test]
    fn adversarial_chunk_sizes_never_panic_or_overallocate(
        size_hex in "[0-9a-fA-F]{1,20}",
        ext in "(;[a-z]{0,8}(=[a-z0-9]{0,8})?)?",
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        const LIMIT: usize = 4096;
        let mut wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        wire.extend_from_slice(format!("{size_hex}{ext}\r\n").as_bytes());
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(b"\r\n0\r\n\r\n");
        // Rejection is always acceptable; acceptance must respect the limit.
        if let Ok(req) = codec::read_request(&mut BufReader::new(&wire[..]), LIMIT) {
            prop_assert!(req.body.len() <= LIMIT);
        }
    }

    /// Trailer sections of arbitrary size: the decoder either accepts a
    /// bounded section or rejects it — it must not buffer unboundedly
    /// or panic, and acceptance implies the section fit the budget.
    #[test]
    fn trailer_sections_are_bounded(
        lines in proptest::collection::vec(("[A-Za-z-]{1,10}", "[ -~&&[^\r\n]]{0,200}"), 0..64),
    ) {
        let mut wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n".to_vec();
        let mut section = 0usize;
        for (k, v) in &lines {
            let line = format!("{k}: {v}\r\n");
            section += line.len();
            wire.extend_from_slice(line.as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        match codec::read_request(&mut BufReader::new(&wire[..]), DEFAULT_BODY_LIMIT) {
            Ok(req) => prop_assert_eq!(req.body.as_slice(), b"abc".as_slice()),
            Err(_) => prop_assert!(
                section + 2 >= 4096,
                "a small trailer section ({section} bytes) must parse"
            ),
        }
    }

    /// `Connection` is a comma-separated token list: `wants_close` must
    /// key on whether the `close` / `keep-alive` *token* is present —
    /// with any casing and padding — never on substring matching.
    #[test]
    fn connection_close_tokenization(
        mut tokens in proptest::collection::vec("[a-zA-Z-]{1,12}", 0..4),
        close_at in proptest::option::of(0usize..4),
        pad in "[ \t]{0,3}",
    ) {
        tokens.retain(|t| !t.eq_ignore_ascii_case("close") && !t.eq_ignore_ascii_case("keep-alive"));
        if let Some(i) = close_at {
            tokens.insert(i.min(tokens.len()), "Close".to_string());
        }
        let value = tokens
            .iter()
            .map(|t| format!("{pad}{t}{pad}"))
            .collect::<Vec<_>>()
            .join(",");
        let mut headers = Headers::new();
        if !tokens.is_empty() {
            headers.set("Connection", value.as_str());
        }
        prop_assert_eq!(
            codec::wants_close(Version::Http11, &headers),
            close_at.is_some(),
            "Connection: {:?}", value
        );
        // HTTP/1.0 closes unless keep-alive is an explicit token; a
        // `close` token certainly never keeps it open.
        prop_assert!(codec::wants_close(Version::Http10, &headers));
    }

    #[test]
    fn percent_encoding_round_trip(s in "[ -~é中\\n]{0,48}") {
        prop_assert_eq!(percent_decode(&percent_encode(&s)), s);
    }

    #[test]
    fn form_encoding_round_trip(
        pairs in proptest::collection::vec(("[a-z]{1,8}", "[ -~]{0,16}"), 0..6),
    ) {
        let fields: Vec<(String, String)> = pairs;
        let enc = encode_form(&fields);
        prop_assert_eq!(parse_form(&enc), fields);
    }

    #[test]
    fn url_display_reparses(
        host in "[a-z][a-z0-9.-]{0,16}",
        port in 1u16..65535,
        path in "/[a-z0-9/._-]{0,16}",
    ) {
        let raw = format!("http://{host}:{port}{path}");
        let url = Url::parse(&raw).unwrap();
        let again = Url::parse(&url.to_string()).unwrap();
        prop_assert_eq!(url, again);
    }

    #[test]
    fn headers_set_then_get(k in "[A-Za-z-]{1,10}", v in "[ -~]{0,20}") {
        let mut h = Headers::new();
        h.set(k.clone(), v.trim());
        prop_assert_eq!(h.get(&k.to_ascii_uppercase()), Some(v.trim()));
        prop_assert_eq!(h.get_all(&k).count(), 1);
    }
}
