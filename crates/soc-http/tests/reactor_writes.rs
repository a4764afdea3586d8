//! Which side of the reactor writes a response, as counted by
//! `soc_http_responses_total{write="worker"|"reactor"}`.
//!
//! A worker writes a small response itself and re-arms the connection;
//! a response bigger than the socket buffers leaves the worker with a
//! remainder that the event loop finishes. The counters live in the
//! process-wide registry, so this binary holds this one test alone and
//! can compare exact deltas.

#![cfg(target_os = "linux")]

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use soc_http::codec;
use soc_http::{HttpServer, Request, Response, ServerConfig, ServerTransport, Status};

const BIG_BODY: usize = 4 * 1024 * 1024;

fn counts() -> (u64, u64) {
    let metrics = soc_observe::metrics();
    let count = |write| metrics.counter("soc_http_responses_total", &[("write", write)]).get();
    (count("worker"), count("reactor"))
}

/// The counters once they reach `want`, or as they stand after 2 s. A
/// writer counts its write only after making it, so the client can
/// read a response before the count that goes with it lands.
fn counts_reaching(want: (u64, u64)) -> (u64, u64) {
    let until = Instant::now() + Duration::from_secs(2);
    loop {
        let now = counts();
        if now == want || Instant::now() >= until {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn small_responses_are_written_by_workers_and_a_large_one_by_the_loop() {
    let server = HttpServer::bind_with(
        "127.0.0.1:0",
        ServerConfig { workers: 2, transport: ServerTransport::Reactor, ..ServerConfig::default() },
        |req: Request| Response::new(Status::OK).with_body_bytes(req.body),
    )
    .unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut conn = BufReader::new(stream);
    let mut post = |body: &[u8], pause: Duration| {
        let head =
            format!("POST /echo HTTP/1.1\r\nHost: h\r\nContent-Length: {}\r\n\r\n", body.len());
        conn.get_mut().write_all(head.as_bytes()).unwrap();
        conn.get_mut().write_all(body).unwrap();
        std::thread::sleep(pause);
        let resp = codec::read_response(&mut conn, 2 * BIG_BODY).unwrap();
        assert_eq!(resp.body, body);
    };

    let before = counts();
    for _ in 0..3 {
        post(b"small", Duration::ZERO);
    }
    let after_small = counts_reaching((before.0 + 3, before.1));
    assert_eq!(after_small.0 - before.0, 3, "keep-alive responses are written by the worker");
    assert_eq!(after_small.1, before.1, "no small response fell back to the loop");

    let big: Vec<u8> = (0..BIG_BODY).map(|i| (i % 251) as u8).collect();
    post(&big, Duration::from_millis(200));
    let after_big = counts_reaching((after_small.0, after_small.1 + 1));
    assert_eq!(after_big.1 - after_small.1, 1, "the loop finished the 4 MiB response");
    assert_eq!(after_big.0, after_small.0, "the worker could not write 4 MiB at once");

    let text = soc_observe::metrics().render_prometheus();
    for write in ["worker", "reactor"] {
        let series = format!("soc_http_responses_total{{write=\"{write}\"}}");
        assert!(text.contains(&series), "{series} missing from:\n{text}");
    }
}
