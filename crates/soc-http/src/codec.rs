//! Wire-level encoding and decoding of HTTP/1.1 messages.
//!
//! Supports `Content-Length` and `Transfer-Encoding: chunked` bodies in
//! both directions, with a configurable body size limit (dependability
//! unit: a service must bound attacker-controlled allocations).

use std::io::{BufRead, Write};

use crate::types::{Headers, HttpError, HttpResult, Method, Request, Response, Status, Version};

/// Default maximum accepted body size (8 MiB).
pub const DEFAULT_BODY_LIMIT: usize = 8 * 1024 * 1024;

/// Maximum accepted header section size.
pub(crate) const HEADER_LIMIT: usize = 64 * 1024;

fn read_line<R: BufRead>(r: &mut R, budget: &mut usize) -> HttpResult<String> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            // EOF mid-line is truncation, even when some bytes arrived:
            // a request/status line without its terminator must not
            // parse as well-formed.
            0 => return Err(HttpError::UnexpectedEof),
            _ => {
                if *budget == 0 {
                    return Err(HttpError::Malformed("header section too large".into()));
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()))
}

fn read_headers<R: BufRead>(r: &mut R, budget: &mut usize) -> HttpResult<Headers> {
    let mut headers = Headers::new();
    loop {
        let line = read_line(r, budget)?;
        if line.is_empty() {
            return Ok(headers);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line: {line}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed(format!("bad header name: {name:?}")));
        }
        headers.add(name.trim().to_owned(), value.trim());
    }
}

/// Strict `Content-Length` parsing: optional surrounding OWS, then
/// ASCII digits only. `usize::parse` alone would accept `"+10"`, and a
/// front-end and back-end disagreeing on such a value is the classic
/// request-smuggling foothold.
fn parse_content_length(v: &str) -> HttpResult<usize> {
    let t = v.trim();
    if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Malformed(format!("bad Content-Length: {v:?}")));
    }
    t.parse().map_err(|_| HttpError::Malformed(format!("bad Content-Length: {v:?}")))
}

/// How an incoming message's body is framed on the wire. Shared by the
/// blocking reader below and the reactor's incremental parser, so both
/// transports reject the same smuggling-shaped messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BodyFraming {
    Length(usize),
    Chunked,
}

pub(crate) fn body_framing(headers: &Headers, limit: usize) -> HttpResult<BodyFraming> {
    if let Some(te) = headers.get("Transfer-Encoding") {
        // RFC 9112 §6.1: a message with both framings is a smuggling
        // vector — two parsers can disagree on where it ends. Reject
        // outright instead of picking a winner.
        if headers.contains("Content-Length") {
            return Err(HttpError::Malformed(
                "both Content-Length and Transfer-Encoding present".into(),
            ));
        }
        if te.eq_ignore_ascii_case("chunked") {
            return Ok(BodyFraming::Chunked);
        }
        return Err(HttpError::Malformed(format!("unsupported transfer encoding: {te}")));
    }
    let len = match headers.get("Content-Length") {
        Some(v) => parse_content_length(v)?,
        None => 0,
    };
    if len > limit {
        return Err(HttpError::BodyTooLarge { limit });
    }
    Ok(BodyFraming::Length(len))
}

fn read_body<R: BufRead>(r: &mut R, headers: &Headers, limit: usize) -> HttpResult<Vec<u8>> {
    match body_framing(headers, limit)? {
        BodyFraming::Chunked => read_chunked(r, limit),
        BodyFraming::Length(len) => {
            let mut body = vec![0u8; len];
            std::io::Read::read_exact(r, &mut body).map_err(|_| HttpError::UnexpectedEof)?;
            Ok(body)
        }
    }
}

/// Server-side connection teardown decision for one exchange.
///
/// `Connection` is a comma-separated token list (`close, TE` is legal
/// and means close), so this must tokenize rather than compare the raw
/// value; HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close unless the
/// client opted in with `keep-alive`.
pub fn wants_close(version: Version, request_headers: &Headers) -> bool {
    if version.persistent_by_default() {
        request_headers.has_token("Connection", "close")
    } else {
        !request_headers.has_token("Connection", "keep-alive")
    }
}

/// Total budget for the trailer section after the last chunk. A single
/// shared budget, not per-line: a per-line allowance would let an
/// attacker stream trailers forever.
pub(crate) const TRAILER_LIMIT: usize = 4096;

/// Parse one chunk-size line (hex size, optional `;ext`), enforcing the
/// remaining-body limit *before* any allocation. The size is
/// attacker-controlled: `ffffffffffffffff` parses into a usize, so the
/// old `body_len + size` comparison overflowed — panic in debug, limit
/// bypass plus a huge `resize` in release.
pub(crate) fn parse_chunk_size(
    size_line: &str,
    body_len: usize,
    limit: usize,
) -> HttpResult<usize> {
    let size_str = size_line.split(';').next().unwrap_or("").trim();
    if size_str.is_empty() || size_str.len() > 16 {
        return Err(HttpError::Malformed(format!("bad chunk size: {size_line}")));
    }
    let size = usize::from_str_radix(size_str, 16)
        .map_err(|_| HttpError::Malformed(format!("bad chunk size: {size_line}")))?;
    match body_len.checked_add(size) {
        Some(total) if total <= limit => Ok(size),
        _ => Err(HttpError::BodyTooLarge { limit }),
    }
}

fn read_chunked<R: BufRead>(r: &mut R, limit: usize) -> HttpResult<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let mut budget = 1024;
        let size_line = read_line(r, &mut budget)?;
        let size = parse_chunk_size(&size_line, body.len(), limit)?;
        if size == 0 {
            // Trailers (if any) up to the blank line, under one shared
            // budget for the whole section.
            let mut budget = TRAILER_LIMIT;
            loop {
                if read_line(r, &mut budget)?.is_empty() {
                    break;
                }
            }
            return Ok(body);
        }
        let start = body.len();
        body.resize(start + size, 0);
        std::io::Read::read_exact(r, &mut body[start..]).map_err(|_| HttpError::UnexpectedEof)?;
        let mut crlf = [0u8; 2];
        std::io::Read::read_exact(r, &mut crlf).map_err(|_| HttpError::UnexpectedEof)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::Malformed("missing CRLF after chunk".into()));
        }
    }
}

/// Read one request from `r` (e.g. a buffered TCP stream).
pub fn read_request<R: BufRead>(r: &mut R, body_limit: usize) -> HttpResult<Request> {
    let (method, target, _, headers) = read_request_head(r)?;
    let body = read_body(r, &headers, body_limit)?;
    Ok(Request { method, target, headers, body })
}

/// Parse a complete request head (request line + headers + terminating
/// blank line) from an in-memory buffer. The reactor accumulates bytes
/// until it sees the head terminator, then hands the whole section
/// here, so the line-oriented reader can never hit a mid-line EOF.
pub(crate) fn parse_request_head(head: &[u8]) -> HttpResult<(Method, String, Version, Headers)> {
    read_request_head(&mut std::io::Cursor::new(head))
}

/// Read a request line and its headers, up to the blank line.
fn read_request_head<R: BufRead>(r: &mut R) -> HttpResult<(Method, String, Version, Headers)> {
    let mut budget = HEADER_LIMIT;
    let line = read_line(r, &mut budget)?;
    let mut parts = line.split_whitespace();
    let (m, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line: {line}"))),
    };
    let version = Version::parse(version)
        .ok_or_else(|| HttpError::Malformed(format!("unsupported version: {version}")))?;
    let method =
        Method::parse(m).ok_or_else(|| HttpError::Malformed(format!("unknown method: {m}")))?;
    let headers = read_headers(r, &mut budget)?;
    Ok((method, target.to_string(), version, headers))
}

/// Read one response from `r`.
pub fn read_response<R: BufRead>(r: &mut R, body_limit: usize) -> HttpResult<Response> {
    read_response_versioned(r, body_limit).map(|(resp, _)| resp)
}

/// Read one response plus the protocol version from its status line.
/// Pooled clients need the version: an HTTP/1.0 response without
/// `Connection: keep-alive` must not be reused.
pub fn read_response_versioned<R: BufRead>(
    r: &mut R,
    body_limit: usize,
) -> HttpResult<(Response, Version)> {
    let mut budget = HEADER_LIMIT;
    let line = read_line(r, &mut budget)?;
    let mut parts = line.splitn(3, ' ');
    let (version, code) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => return Err(HttpError::Malformed(format!("bad status line: {line}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version: {version}")));
    }
    // Any "HTTP/1.x" other than 1.0 gets 1.1 connection semantics.
    let version = Version::parse(version).unwrap_or(Version::Http11);
    let status: u16 =
        code.parse().map_err(|_| HttpError::Malformed(format!("bad status: {code}")))?;
    let headers = read_headers(r, &mut budget)?;
    let body = read_body(r, &headers, body_limit)?;
    Ok((Response { status: Status(status), headers, body }, version))
}

/// How an outgoing body will be framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireFraming {
    /// `Content-Length` (written by the caller or auto-computed).
    Length,
    /// `Transfer-Encoding: chunked`: the caller set the header, so the
    /// body bytes must actually be chunk-encoded on the way out.
    Chunked,
}

/// Decide the framing for caller-supplied headers, refusing the
/// combinations a receiver could misread. Mirrors the read side: a
/// message carrying both `Content-Length` and `Transfer-Encoding` is
/// never emitted, so this stack cannot *produce* a smuggling-shaped
/// message any more than it accepts one.
fn outgoing_framing(headers: &Headers) -> HttpResult<WireFraming> {
    let Some(te) = headers.get("Transfer-Encoding") else {
        return Ok(WireFraming::Length);
    };
    if headers.contains("Content-Length") {
        return Err(HttpError::Malformed(
            "refusing to send both Content-Length and Transfer-Encoding".into(),
        ));
    }
    if te.eq_ignore_ascii_case("chunked") {
        Ok(WireFraming::Chunked)
    } else {
        Err(HttpError::Malformed(format!("unsupported outgoing transfer encoding: {te}")))
    }
}

/// Chunk size for write-side chunked encoding.
const WRITE_CHUNK_SIZE: usize = 8 * 1024;

/// Room reserved for a head's fixed parts (start line, terminators, an
/// auto `Content-Length` or `Host`) on top of the header bytes.
const HEAD_SLACK: usize = 64;

/// Append one `name: value\r\n` header line.
fn push_header(out: &mut Vec<u8>, name: &str, value: &str) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(value.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Serialize the header lines, an auto `Content-Length` when the body
/// is length-framed and the caller set none, the blank line, and the
/// body (chunk-encoded under `Transfer-Encoding: chunked`) after the
/// start line already in `out`.
fn encode_rest(out: &mut Vec<u8>, headers: &Headers, framing: WireFraming, body: &[u8]) {
    let mut has_len = false;
    for (name, value) in headers.iter() {
        has_len |= name.eq_ignore_ascii_case("Content-Length");
        push_header(out, name, value);
    }
    if !has_len && framing == WireFraming::Length {
        push_header(out, "Content-Length", &body.len().to_string());
    }
    out.extend_from_slice(b"\r\n");
    match framing {
        WireFraming::Length => out.extend_from_slice(body),
        WireFraming::Chunked => encode_chunked_into(out, body, WRITE_CHUNK_SIZE),
    }
}

/// Capacity for a whole message: head, body, and the chunk framing a
/// chunked body adds (one size line and CRLF per chunk, plus the last).
fn message_capacity(headers: &Headers, framing: WireFraming, body_len: usize) -> usize {
    let head: usize = headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
    let framing_bytes = match framing {
        WireFraming::Length => 0,
        WireFraming::Chunked => (body_len / WRITE_CHUNK_SIZE + 1) * 8 + 5,
    };
    head + HEAD_SLACK + body_len + framing_bytes
}

/// Serialize a response into one buffer (see [`write_response`]). The
/// reactor's workers send these bytes themselves, on a nonblocking
/// socket that may take only part of them.
pub(crate) fn encode_response(resp: &Response) -> HttpResult<Vec<u8>> {
    let framing = outgoing_framing(&resp.headers)?;
    let mut out = Vec::with_capacity(message_capacity(&resp.headers, framing, resp.body.len()));
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(resp.status.0.to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(resp.status.reason().as_bytes());
    out.extend_from_slice(b"\r\n");
    encode_rest(&mut out, &resp.headers, framing, &resp.body);
    Ok(out)
}

/// Serialize a request for the wire. Sets `Content-Length` (and `Host`
/// when given) if absent; a caller-set `Transfer-Encoding: chunked`
/// gets its body chunk-encoded rather than sent raw. The whole message
/// is formatted first and handed to `w` in one `write_all`: on a
/// `TCP_NODELAY` socket each write is its own segment, so a write per
/// header line would cost a syscall and a packet apiece.
pub fn write_request<W: Write>(w: &mut W, req: &Request, host: Option<&str>) -> HttpResult<()> {
    w.write_all(&encode_request(req, host)?)?;
    w.flush()?;
    Ok(())
}

/// Serialize a request into one buffer (see [`write_request`]). The
/// pooled client writes these bytes itself when a yield point may cut
/// the write short.
pub(crate) fn encode_request(req: &Request, host: Option<&str>) -> HttpResult<Vec<u8>> {
    let framing = outgoing_framing(&req.headers)?;
    let mut out = Vec::with_capacity(
        message_capacity(&req.headers, framing, req.body.len())
            + req.target.len()
            + host.map_or(0, str::len),
    );
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    if let Some(h) = host {
        if !req.headers.contains("Host") {
            push_header(&mut out, "Host", h);
        }
    }
    encode_rest(&mut out, &req.headers, framing, &req.body);
    Ok(out)
}

/// Serialize a response for the wire, in one `write_all`. Framing
/// rules match [`write_request`].
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> HttpResult<()> {
    w.write_all(&encode_response(resp)?)?;
    w.flush()?;
    Ok(())
}

/// Serialize a body as chunked transfer coding (used by tests and the
/// streaming bench).
pub fn encode_chunked(body: &[u8], chunk_size: usize) -> Vec<u8> {
    let mut out = Vec::new();
    encode_chunked_into(&mut out, body, chunk_size);
    out
}

fn encode_chunked_into(out: &mut Vec<u8>, body: &[u8], chunk_size: usize) {
    for chunk in body.chunks(chunk_size.max(1)) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse_req(raw: &[u8]) -> HttpResult<Request> {
        read_request(&mut BufReader::new(raw), DEFAULT_BODY_LIMIT)
    }

    fn parse_resp(raw: &[u8]) -> HttpResult<Response> {
        read_response(&mut BufReader::new(raw), DEFAULT_BODY_LIMIT)
    }

    #[test]
    fn request_round_trip() {
        let req = Request::post("/svc/echo?x=1", b"hello".to_vec())
            .with_header("Content-Type", "text/plain");
        let mut wire = Vec::new();
        write_request(&mut wire, &req, Some("example.com")).unwrap();
        let parsed = parse_req(&wire).unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.target, "/svc/echo?x=1");
        assert_eq!(parsed.headers.get("Host"), Some("example.com"));
        assert_eq!(parsed.headers.get("content-type"), Some("text/plain"));
        assert_eq!(parsed.body, b"hello");
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::json("{\"a\":1}").with_header("X-Custom", "v");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        let parsed = parse_resp(&wire).unwrap();
        assert_eq!(parsed.status, Status::OK);
        assert_eq!(parsed.headers.get("x-custom"), Some("v"));
        assert_eq!(parsed.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_hand_written_request() {
        let raw = b"GET /index.html HTTP/1.1\r\nHost: h\r\n\r\n";
        let req = parse_req(raw).unwrap();
        assert_eq!(req.method, Method::Get);
        assert!(req.body.is_empty());
    }

    #[test]
    fn tolerates_bare_lf_lines() {
        let raw = b"GET / HTTP/1.1\nHost: h\n\n";
        assert!(parse_req(raw).is_ok());
    }

    #[test]
    fn chunked_body_decoding() {
        let mut raw = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&encode_chunked(b"hello chunked world", 5));
        let req = parse_req(&raw).unwrap();
        assert_eq!(req.body, b"hello chunked world");
    }

    #[test]
    fn chunked_with_extension_and_trailer() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: t\r\n\r\n";
        let req = parse_req(raw).unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_malformed_messages() {
        assert!(parse_req(b"").is_err());
        assert!(parse_req(b"GARBAGE\r\n\r\n").is_err());
        assert!(parse_req(b"BREW / HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_req(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse_req(b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n").is_err());
        assert!(parse_req(b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n").is_err());
        assert!(parse_resp(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
    }

    #[test]
    fn body_limit_enforced() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        let err = read_request(&mut BufReader::new(&raw[..]), 10).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 10 }));
    }

    #[test]
    fn chunked_body_limit_enforced() {
        let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&encode_chunked(&[b'x'; 100], 10));
        let err = read_request(&mut BufReader::new(&raw[..]), 50).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { .. }));
    }

    #[test]
    fn truncated_body_is_eof() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(parse_req(raw), Err(HttpError::UnexpectedEof)));
    }

    #[test]
    fn content_length_must_be_plain_digits() {
        // `"+10".parse::<usize>()` succeeds, so a naive parser reads
        // these as valid lengths while a stricter peer rejects them —
        // the disagreement is the smuggling foothold.
        for cl in ["+10", "-0", " 1 0", "0x10", "10,10", ""] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {cl}\r\n\r\n0123456789");
            assert!(
                matches!(parse_req(raw.as_bytes()), Err(HttpError::Malformed(_))),
                "Content-Length {cl:?} must be rejected"
            );
        }
        // Surrounding whitespace alone is legal OWS.
        let raw = b"POST / HTTP/1.1\r\nContent-Length:  5 \r\n\r\nhello";
        assert_eq!(parse_req(raw).unwrap().body, b"hello");
    }

    #[test]
    fn both_framings_present_is_rejected() {
        let mut raw =
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&encode_chunked(b"hello", 5));
        assert!(matches!(parse_req(&raw), Err(HttpError::Malformed(_))));

        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n";
        assert!(matches!(parse_resp(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn caller_set_chunked_is_actually_chunk_encoded() {
        let req = Request::post("/u", b"hello chunked world".to_vec())
            .with_header("Transfer-Encoding", "chunked");
        let mut wire = Vec::new();
        write_request(&mut wire, &req, None).unwrap();
        let text = String::from_utf8_lossy(&wire);
        assert!(!text.contains("Content-Length"), "chunked request must not carry a length");
        // The body on the wire is chunk-framed, and a compliant reader
        // recovers the original bytes.
        assert_eq!(parse_req(&wire).unwrap().body, b"hello chunked world");

        let resp = Response::text("streamed reply").with_header("Transfer-Encoding", "chunked");
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).unwrap();
        assert_eq!(parse_resp(&wire).unwrap().body, b"streamed reply");
    }

    #[test]
    fn contradictory_outgoing_framing_is_refused() {
        let req = Request::post("/u", b"x".to_vec())
            .with_header("Transfer-Encoding", "chunked")
            .with_header("Content-Length", "1");
        assert!(write_request(&mut Vec::new(), &req, None).is_err());

        let gzip = Request::post("/u", b"x".to_vec()).with_header("Transfer-Encoding", "gzip");
        assert!(write_request(&mut Vec::new(), &gzip, None).is_err());

        let resp = Response::text("x")
            .with_header("Transfer-Encoding", "chunked")
            .with_header("Content-Length", "1");
        assert!(write_response(&mut Vec::new(), &resp).is_err());
    }

    #[test]
    fn huge_chunk_size_is_rejected_before_allocating() {
        // `ffffffffffffffff` is usize::MAX: the old `body_len + size`
        // check overflowed (debug panic / release limit bypass), and a
        // later `resize` would try to allocate the full claimed size.
        // The size must be rejected against the limit before any
        // allocation happens.
        for size in ["ffffffffffffffff", "fffffffffffffff0", "100000000"] {
            let raw = format!("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{size}\r\n");
            let err = read_request(&mut BufReader::new(raw.as_bytes()), 1024).unwrap_err();
            assert!(
                matches!(err, HttpError::BodyTooLarge { limit: 1024 }),
                "chunk size {size} must hit the body limit, got {err:?}"
            );
        }
        // Sizes that do not even fit in a usize are malformed, not a
        // crash.
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1ffffffffffffffff\r\n";
        assert!(matches!(parse_req(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn accumulated_chunks_cannot_exceed_the_limit() {
        // Each chunk is small, but their sum crosses the limit: the
        // running total must be enforced, not just per-chunk size.
        let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for _ in 0..20 {
            raw.extend_from_slice(b"a\r\n0123456789\r\n");
        }
        raw.extend_from_slice(b"0\r\n\r\n");
        let err = read_request(&mut BufReader::new(&raw[..]), 64).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { limit: 64 }));
    }

    #[test]
    fn trailer_flood_is_bounded() {
        // The trailer section after the last chunk shares one budget;
        // without it an attacker could stream trailer lines forever.
        let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n".to_vec();
        for i in 0..1000 {
            raw.extend_from_slice(format!("X-T{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = parse_req(&raw).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "got {err:?}");

        // A modest trailer section still parses.
        let raw =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-T: v\r\n\r\n";
        assert_eq!(parse_req(raw).unwrap().body, b"abc");
    }

    #[test]
    fn eof_mid_line_is_unexpected_eof_not_a_parsed_message() {
        // A peer that dies mid-request-line used to yield the partial
        // bytes as a complete line; truncation must surface as EOF.
        for raw in [&b"GET / HTT"[..], b"GET / HTTP/1.1\r\nHost: h", b"G"] {
            assert!(
                matches!(parse_req(raw), Err(HttpError::UnexpectedEof)),
                "partial message {:?} must be UnexpectedEof",
                String::from_utf8_lossy(raw)
            );
        }
        // A cleanly-closed idle connection (zero bytes) is also EOF —
        // callers distinguish idle close from truncation by whether any
        // request was in flight.
        assert!(matches!(parse_req(b""), Err(HttpError::UnexpectedEof)));
    }

    #[test]
    fn connection_header_is_a_token_list() {
        let h = |v: &str| {
            let mut headers = Headers::new();
            headers.set("Connection", v);
            headers
        };
        // HTTP/1.1: keep-alive unless a `close` *token* appears.
        assert!(wants_close(Version::Http11, &h("close")));
        assert!(wants_close(Version::Http11, &h("close, TE")));
        assert!(wants_close(Version::Http11, &h("TE , Close")));
        assert!(!wants_close(Version::Http11, &h("keep-alive")));
        assert!(!wants_close(Version::Http11, &h("closet")), "prefix is not a token match");
        assert!(!wants_close(Version::Http11, &Headers::new()));
        // HTTP/1.0: close unless a `keep-alive` token appears.
        assert!(wants_close(Version::Http10, &Headers::new()));
        assert!(!wants_close(Version::Http10, &h("Keep-Alive")));
        assert!(!wants_close(Version::Http10, &h("TE, keep-alive")));
        // HTTP/1.1 with both tokens: `close` wins — the peer said it.
        assert!(wants_close(Version::Http11, &h("keep-alive, close")));
    }

    #[test]
    fn request_version_is_reported() {
        let reader = |raw: &[u8]| parse_request_head(raw).unwrap().2;
        assert_eq!(reader(b"GET / HTTP/1.0\r\n\r\n"), Version::Http10);
        assert_eq!(reader(b"GET / HTTP/1.1\r\n\r\n"), Version::Http11);
    }

    /// A `Write` that records each call, so a test can see how many
    /// writes (one syscall apiece on a socket) a message costs.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_is_one_write_with_golden_bytes() {
        let keyed = Request::post("/apply", b"{\"k\":1}".to_vec())
            .with_header("Content-Type", "application/json")
            .with_header("Idempotency-Key", "k-7");
        let chunked_req = Request::post("/u", b"hello chunked world".to_vec())
            .with_header("Transfer-Encoding", "chunked");
        let requests: [(&Request, Option<&str>, &str); 3] = [
            (&Request::get("/score?id=3"), Some("h:80"), "GET /score?id=3 HTTP/1.1\r\nHost: h:80\r\nContent-Length: 0\r\n\r\n"),
            (&keyed, None, "POST /apply HTTP/1.1\r\nContent-Type: application/json\r\nIdempotency-Key: k-7\r\nContent-Length: 7\r\n\r\n{\"k\":1}"),
            (&chunked_req, Some("h"), "POST /u HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n13\r\nhello chunked world\r\n0\r\n\r\n"),
        ];
        for (req, host, golden) in requests {
            let mut w = CountingWriter::default();
            write_request(&mut w, req, host).unwrap();
            assert_eq!(String::from_utf8_lossy(&w.bytes), golden);
            assert_eq!(w.writes, 1, "request {:?} took {} writes", req.target, w.writes);
        }

        let json = Response::json("{\"a\":1}");
        let chunked_resp =
            Response::text("streamed reply").with_header("Transfer-Encoding", "chunked");
        let set_len = Response::text("ok").with_header("Content-Length", "2");
        let responses: [(&Response, &str); 3] = [
            (&json, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}"),
            (&chunked_resp, "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nTransfer-Encoding: chunked\r\n\r\ne\r\nstreamed reply\r\n0\r\n\r\n"),
            (&set_len, "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 2\r\n\r\nok"),
        ];
        for (resp, golden) in responses {
            let mut w = CountingWriter::default();
            write_response(&mut w, resp).unwrap();
            assert_eq!(String::from_utf8_lossy(&w.bytes), golden);
            assert_eq!(w.writes, 1, "response took {} writes", w.writes);
        }

        // A body spanning several write-side chunks is still one write.
        let big = Response::new(Status::OK)
            .with_body_bytes(vec![b'z'; 2 * WRITE_CHUNK_SIZE + 3])
            .with_header("Transfer-Encoding", "chunked");
        let mut w = CountingWriter::default();
        write_response(&mut w, &big).unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(parse_resp(&w.bytes).unwrap().body, big.body);
    }

    #[test]
    fn binary_body_survives() {
        let body: Vec<u8> = (0..=255).collect();
        let req = Request::post("/bin", body.clone());
        let mut wire = Vec::new();
        write_request(&mut wire, &req, None).unwrap();
        assert_eq!(parse_req(&wire).unwrap().body, body);
    }
}
