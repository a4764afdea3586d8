//! The server's wire behaviour, pinned to golden transcripts.
//!
//! Each scenario below drives the server over a raw socket (or the
//! high-level client) and renders what a client observes: status, body,
//! the `Connection: close` decision and whether the server then hangs
//! up. The whole battery runs once and every transcript must equal its
//! golden string exactly, so a keep-alive rule, an error path or a
//! teardown decision that drifts shows up as a diff naming the scenario.
//! The goldens were recorded from the blocking thread-per-connection
//! server this crate used to ship alongside the reactor; both produced
//! these transcripts byte for byte.

#![cfg(target_os = "linux")]

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use soc_http::codec;
use soc_http::{HttpClient, HttpServer, Request, Response, Status};

/// The scenario handler: a tiny service with enough variety to exercise
/// methods, bodies, and error paths.
fn handler(req: Request) -> Response {
    match (req.method, req.path()) {
        (soc_http::Method::Get, "/ping") => Response::text("pong"),
        (soc_http::Method::Post, "/echo") => {
            Response::new(Status::OK).with_body_bytes(req.body.clone())
        }
        (soc_http::Method::Get, "/n") => {
            // Distinct payload per query so pipelining tests can check
            // response ordering.
            Response::text(req.query("q").unwrap_or_default())
        }
        _ => Response::error(Status::NOT_FOUND, "no such route"),
    }
}

/// Read one response off a raw socket and render the parts a client can
/// observe. `Connection` is normalized through the token test, so only
/// the close decision counts, not how the header is spelled.
fn observe_response(reader: &mut BufReader<TcpStream>) -> String {
    match codec::read_response(reader, 1 << 20) {
        Ok(resp) => format!(
            "status={} close_token={} body={:?}",
            resp.status.0,
            resp.headers.has_token("Connection", "close"),
            String::from_utf8_lossy(&resp.body),
        ),
        Err(e) => format!("error={e}"),
    }
}

/// Does the server close the connection now? (Reads must see EOF within
/// the timeout.)
fn observe_eof(reader: &mut BufReader<TcpStream>) -> String {
    reader.get_ref().set_read_timeout(Some(Duration::from_secs(2))).ok();
    let mut byte = [0u8; 1];
    match reader.read(&mut byte) {
        Ok(0) => "eof".into(),
        Ok(_) => "open(data)".into(),
        Err(_) => "open(timeout)".into(),
    }
}

fn connect(server: &HttpServer) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    stream.set_nodelay(true).ok();
    BufReader::new(stream)
}

/// Bigger than loopback's socket buffers hold while the client is not
/// reading, so the response cannot go out in one nonblocking write.
const BIG_BODY: usize = 4 * 1024 * 1024;

/// One scenario: a name plus a transcript of what a client observed.
type Scenario = (&'static str, String);

fn run_battery() -> Vec<Scenario> {
    let server = HttpServer::bind("127.0.0.1:0", 2, handler).expect("bind");
    let mut out: Vec<Scenario> = Vec::new();

    // --- 1. Plain GET and POST echo through the high-level client. ---
    {
        let client = HttpClient::new();
        let get = client.get(&format!("{}/ping", server.url())).expect("get");
        let post = client
            .post(&format!("{}/echo", server.url()), "text/plain", "differential body")
            .expect("post");
        out.push((
            "client_get_post",
            format!(
                "get={}:{:?} post={}:{:?}",
                get.status.0,
                String::from_utf8_lossy(&get.body),
                post.status.0,
                String::from_utf8_lossy(&post.body),
            ),
        ));
    }

    // --- 2. Chunked upload: body arrives via Transfer-Encoding. ---
    {
        let mut conn = connect(&server);
        let mut wire =
            b"POST /echo HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        wire.extend_from_slice(&codec::encode_chunked(b"chunked payload crosses chunks", 7));
        conn.get_mut().write_all(&wire).unwrap();
        out.push(("chunked_upload", observe_response(&mut conn)));
    }

    // --- 3. Keep-alive: two requests on one connection. ---
    {
        let mut conn = connect(&server);
        conn.get_mut().write_all(b"GET /ping HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        let first = observe_response(&mut conn);
        conn.get_mut().write_all(b"GET /ping HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        let second = observe_response(&mut conn);
        out.push(("keep_alive", format!("first[{first}] second[{second}]")));
    }

    // --- 4. Pipelining: both requests written before any response is
    // read; responses must come back complete and in order. ---
    {
        let mut conn = connect(&server);
        conn.get_mut()
            .write_all(
                b"GET /n?q=a HTTP/1.1\r\nHost: h\r\n\r\nGET /n?q=b HTTP/1.1\r\nHost: h\r\n\r\n",
            )
            .unwrap();
        let first = observe_response(&mut conn);
        let second = observe_response(&mut conn);
        out.push(("pipelined", format!("first[{first}] second[{second}]")));
    }

    // --- 5. Garbage on the wire: a 400, then the connection dies. ---
    {
        let mut conn = connect(&server);
        conn.get_mut().write_all(b"NONSENSE\r\n\r\n").unwrap();
        let resp = observe_response(&mut conn);
        let after = observe_eof(&mut conn);
        out.push(("garbage_request", format!("resp[{resp}] then={after}")));
    }

    // --- 6. Oversized declared body: rejected before buffering. ---
    {
        let mut conn = connect(&server);
        conn.get_mut()
            .write_all(b"POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: 99999999999\r\n\r\n")
            .unwrap();
        let resp = observe_response(&mut conn);
        let after = observe_eof(&mut conn);
        out.push(("oversized_body", format!("resp[{resp}] then={after}")));
    }

    // --- 7. `Connection` token list: `TE, close` must close. ---
    {
        let mut conn = connect(&server);
        conn.get_mut()
            .write_all(b"GET /ping HTTP/1.1\r\nHost: h\r\nConnection: TE, close\r\n\r\n")
            .unwrap();
        let resp = observe_response(&mut conn);
        let after = observe_eof(&mut conn);
        out.push(("token_list_close", format!("resp[{resp}] then={after}")));
    }

    // --- 8. HTTP/1.0 defaults to close... ---
    {
        let mut conn = connect(&server);
        conn.get_mut().write_all(b"GET /ping HTTP/1.0\r\nHost: h\r\n\r\n").unwrap();
        let resp = observe_response(&mut conn);
        let after = observe_eof(&mut conn);
        out.push(("http10_default_close", format!("resp[{resp}] then={after}")));
    }

    // --- 9. ...unless the client opted into keep-alive. ---
    {
        let mut conn = connect(&server);
        conn.get_mut()
            .write_all(b"GET /ping HTTP/1.0\r\nHost: h\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let first = observe_response(&mut conn);
        conn.get_mut()
            .write_all(b"GET /ping HTTP/1.0\r\nHost: h\r\nConnection: keep-alive\r\n\r\n")
            .unwrap();
        let second = observe_response(&mut conn);
        out.push(("http10_keep_alive", format!("first[{first}] second[{second}]")));
    }

    // --- 10. Half-close mid-request: a truncated message is dropped
    // silently (no response bytes for a request that never finished). ---
    {
        let mut conn = connect(&server);
        conn.get_mut()
            .write_all(b"POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        conn.get_mut().shutdown(std::net::Shutdown::Write).ok();
        let resp = observe_response(&mut conn);
        out.push(("truncated_request", resp));
    }

    // --- 11. A response bigger than the socket buffers, read only after
    // a pause: the reactor's worker gets part of it out and the event
    // loop writes the rest. The connection then serves on. ---
    {
        let mut conn = connect(&server);
        let body: Vec<u8> = (0..BIG_BODY).map(|i| (i % 251) as u8).collect();
        let head =
            format!("POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n", body.len());
        conn.get_mut().write_all(head.as_bytes()).unwrap();
        conn.get_mut().write_all(&body).unwrap();
        std::thread::sleep(Duration::from_millis(200));
        let big = match codec::read_response(&mut conn, 2 * BIG_BODY) {
            Ok(resp) => format!(
                "status={} len={} intact={}",
                resp.status.0,
                resp.body.len(),
                resp.body == body
            ),
            Err(e) => format!("error={e}"),
        };
        conn.get_mut().write_all(b"GET /ping HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        let next = observe_response(&mut conn);
        out.push(("large_response", format!("big[{big}] next[{next}]")));
    }

    // --- 12. A complete request, then the client shuts its write side:
    // the response still arrives, then EOF. ---
    {
        let mut conn = connect(&server);
        conn.get_mut().write_all(b"GET /ping HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        conn.get_mut().shutdown(std::net::Shutdown::Write).ok();
        let resp = observe_response(&mut conn);
        let after = observe_eof(&mut conn);
        out.push(("half_close_after_request", format!("resp[{resp}] then={after}")));
    }

    // --- 13. Keep-alive with each next request sent only after the
    // previous response was read and a pause: on the reactor, the
    // worker wrote that response and re-armed read interest itself,
    // and the loop sat idle until the next request arrived. ---
    {
        let mut conn = connect(&server);
        let mut seen = Vec::new();
        for q in ["x", "y", "z"] {
            let req = format!("GET /n?q={q} HTTP/1.1\r\nHost: h\r\n\r\n");
            conn.get_mut().write_all(req.as_bytes()).unwrap();
            seen.push(observe_response(&mut conn));
            std::thread::sleep(Duration::from_millis(50));
        }
        out.push(("keep_alive_after_pause", seen.join(" | ")));
    }

    out
}

/// What a client observes in each scenario, in battery order.
const GOLDEN: [(&str, &str); 13] = [
    ("client_get_post", r#"get=200:"pong" post=200:"differential body""#),
    ("chunked_upload", r#"status=200 close_token=false body="chunked payload crosses chunks""#),
    (
        "keep_alive",
        r#"first[status=200 close_token=false body="pong"] second[status=200 close_token=false body="pong"]"#,
    ),
    (
        "pipelined",
        r#"first[status=200 close_token=false body="a"] second[status=200 close_token=false body="b"]"#,
    ),
    (
        "garbage_request",
        r#"resp[status=400 close_token=true body="malformed HTTP: bad request line: NONSENSE"] then=eof"#,
    ),
    (
        "oversized_body",
        r#"resp[status=400 close_token=true body="body exceeds 8388608 bytes"] then=eof"#,
    ),
    ("token_list_close", r#"resp[status=200 close_token=true body="pong"] then=eof"#),
    ("http10_default_close", r#"resp[status=200 close_token=true body="pong"] then=eof"#),
    (
        "http10_keep_alive",
        r#"first[status=200 close_token=false body="pong"] second[status=200 close_token=false body="pong"]"#,
    ),
    ("truncated_request", "error=connection closed mid-message"),
    (
        "large_response",
        r#"big[status=200 len=4194304 intact=true] next[status=200 close_token=false body="pong"]"#,
    ),
    ("half_close_after_request", r#"resp[status=200 close_token=false body="pong"] then=eof"#),
    (
        "keep_alive_after_pause",
        r#"status=200 close_token=false body="x" | status=200 close_token=false body="y" | status=200 close_token=false body="z""#,
    ),
];

/// The battery, scenario by scenario, against the goldens.
#[test]
fn battery_matches_golden_transcripts() {
    let observed = run_battery();
    let names: Vec<&str> = observed.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, GOLDEN.map(|(name, _)| name), "scenarios ran out of order");
    let diffs: Vec<String> = observed
        .iter()
        .zip(GOLDEN)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| {
            format!("scenario {name}:\n  got:    {got}\n  golden: {want}")
        })
        .collect();
    assert!(diffs.is_empty(), "transcripts drifted from the goldens:\n{}", diffs.join("\n"));
}
