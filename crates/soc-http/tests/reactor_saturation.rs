//! The reactor under saturation: every worker blocked inside a
//! handler, pipelined requests, a peer half-closing mid-request, and
//! the per-connection metrics.
//!
//! Handlers block on a [`Gate`] rather than a sleep: the test learns
//! from a channel when a handler has entered, and releases handlers
//! one token at a time. The connection metrics live in the
//! process-wide registry, so the tests here run one at a time.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use soc_http::codec;
use soc_http::{HttpServer, Request, Response, ServerConfig, Status};

const LIMIT: usize = 1024 * 1024;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Where `/block` handlers wait: each reports on `entered`, then waits
/// for one token on `release`.
struct Gate {
    entered: Receiver<()>,
    release: Sender<()>,
}

impl Gate {
    /// Wait until `n` more handlers are blocked inside the gate.
    fn await_entered(&self, n: usize) {
        for _ in 0..n {
            self.entered.recv_timeout(Duration::from_secs(10)).expect("handler entered");
        }
    }

    /// Let one blocked handler return.
    fn release_one(&self) {
        self.release.send(()).expect("a handler is waiting");
    }
}

/// A reactor server with `workers` workers whose `/block` handler waits
/// at the returned gate; every handler answers with its path.
fn gated_server(workers: usize, max_connections: usize) -> (HttpServer, Gate) {
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel::<()>();
    let release_rx = Mutex::new(release_rx);
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        ServerConfig { workers, max_connections, ..ServerConfig::default() },
        move |req: Request| {
            if req.path() == "/block" {
                entered_tx.send(()).expect("test is listening");
                release_rx.lock().expect("gate lock").recv().expect("test releases");
            }
            Response::text(req.path().to_string())
        },
    )
    .expect("bind");
    (server, Gate { entered, release })
}

fn connect(server: &HttpServer) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    BufReader::new(stream)
}

fn send(conn: &mut BufReader<TcpStream>, path: &str) {
    let head = format!("GET {path} HTTP/1.1\r\nHost: h\r\n\r\n");
    conn.get_mut().write_all(head.as_bytes()).expect("write request");
}

fn answer(conn: &mut BufReader<TcpStream>) -> (Status, String) {
    let resp = codec::read_response(conn, LIMIT).expect("response");
    (resp.status, String::from_utf8(resp.body).expect("utf-8 body"))
}

fn ok(path: &str) -> (Status, String) {
    (Status::OK, path.to_string())
}

#[test]
fn over_the_cap_is_shed_while_every_worker_is_blocked() {
    let _serial = serial();
    let (server, gate) = gated_server(2, 2);
    let mut a = connect(&server);
    let mut b = connect(&server);
    send(&mut a, "/block");
    send(&mut b, "/block");
    gate.await_entered(2);

    // Both workers are inside handlers and both slots are taken: the
    // loop alone must accept and shed the third connection.
    let mut shed = connect(&server);
    let resp = codec::read_response(&mut shed, LIMIT).expect("503");
    assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
    assert_eq!(resp.headers.get("Retry-After"), Some("1"));
    assert_eq!(server.shed(), 1);

    gate.release_one();
    gate.release_one();
    assert_eq!(answer(&mut a), ok("/block"));
    assert_eq!(answer(&mut b), ok("/block"));
}

#[test]
fn a_waiting_connection_is_served_when_one_worker_frees() {
    let _serial = serial();
    let (server, gate) = gated_server(2, 64);
    let mut a = connect(&server);
    let mut b = connect(&server);
    let mut c = connect(&server);
    send(&mut a, "/block");
    send(&mut b, "/block");
    gate.await_entered(2);

    // No worker is free: `c`'s readiness waits in the kernel until the
    // one released handler returns, while the other stays blocked.
    send(&mut c, "/c");
    gate.release_one();
    assert_eq!(answer(&mut c), ok("/c"));
    gate.release_one();
    assert_eq!(answer(&mut a), ok("/block"));
    assert_eq!(answer(&mut b), ok("/block"));

    // Each worker re-armed the connection it served.
    for (conn, path) in [(&mut a, "/a2"), (&mut b, "/b2"), (&mut c, "/c2")] {
        send(conn, path);
        assert_eq!(answer(conn), ok(path));
    }
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let _serial = serial();
    let (server, gate) = gated_server(2, 64);
    let mut conn = connect(&server);
    let wire = "GET /block HTTP/1.1\r\nHost: h\r\n\r\n\
                GET /two HTTP/1.1\r\nHost: h\r\n\r\n\
                GET /three HTTP/1.1\r\nHost: h\r\n\r\n";
    conn.get_mut().write_all(wire.as_bytes()).expect("write pipeline");
    // While the first blocks, the idle worker must not take the rest.
    gate.await_entered(1);
    gate.release_one();
    for path in ["/block", "/two", "/three"] {
        assert_eq!(answer(&mut conn), ok(path));
    }
}

#[test]
fn half_closed_peer_gets_its_response_then_the_close() {
    let _serial = serial();
    let (server, gate) = gated_server(2, 64);
    let mut conn = connect(&server);
    send(&mut conn, "/block");
    gate.await_entered(1);
    conn.get_ref().shutdown(Shutdown::Write).expect("half-close");
    gate.release_one();
    assert_eq!(answer(&mut conn), ok("/block"));
    let mut rest = Vec::new();
    conn.read_to_end(&mut rest).expect("the server closes");
    assert!(rest.is_empty(), "nothing after the response: {rest:?}");
}

#[test]
fn connection_metrics_move_per_connection_not_per_request() {
    let _serial = serial();
    let metrics = soc_observe::metrics();
    let accepted = metrics.counter("soc_http_connections_accepted_total", &[]);
    let closed = metrics.counter("soc_http_connections_closed_total", &[]);
    let open = metrics.gauge("soc_http_connections_open", &[]);
    let before = (accepted.get(), closed.get(), open.get());

    let (server, _gate) = gated_server(2, 64);
    let mut conn = connect(&server);
    for path in ["/1", "/2", "/3"] {
        send(&mut conn, path);
        assert_eq!(answer(&mut conn), ok(path));
    }
    assert_eq!((accepted.get(), closed.get(), open.get()), (before.0 + 1, before.1, before.2 + 1));

    drop(conn);
    let until = Instant::now() + Duration::from_secs(5);
    while closed.get() == before.1 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!((accepted.get(), closed.get(), open.get()), (before.0 + 1, before.1 + 1, before.2));

    // A connection still open at shutdown is closed, and counted, too.
    let _idle = connect(&server);
    while accepted.get() == before.0 + 1 && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(server);
    assert_eq!((accepted.get(), closed.get(), open.get()), (before.0 + 2, before.1 + 2, before.2));

    let text = metrics.render_prometheus();
    for series in [
        "soc_http_connections_open",
        "soc_http_connections_accepted_total",
        "soc_http_connections_closed_total",
    ] {
        assert!(text.contains(series), "{series} missing from:\n{text}");
    }
}
