//! `send_until` over both blocking transports: a send that has its
//! response by the yield point is `Done` on the caller's thread; one
//! still waiting parks, and its `Rest` finishes the exchange with the
//! same pool bookkeeping and stale-reuse retry as an uninterrupted send.
//! Over TCP no step blocks past the yield point: a hanging connect and
//! a request write the peer does not take park too.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use soc_http::codec::{self, DEFAULT_BODY_LIMIT};
use soc_http::mem::FaultConfig;
use soc_http::{
    send_until, HttpClient, HttpServer, MemNetwork, Request, Response, Sent, Transport,
};

fn soon(ms: u64) -> Instant {
    Instant::now() + Duration::from_millis(ms)
}

#[test]
fn a_fast_server_is_done_before_the_yield_point() {
    let server =
        HttpServer::bind("127.0.0.1:0", 2, |_req: Request| Response::text("fast")).unwrap();
    let client = HttpClient::new();
    let req = Request::get(format!("{}/x", server.url()));
    match send_until(soon(2_000), || client.send(req)) {
        Sent::Done(Ok(resp)) => assert_eq!(resp.text_body().unwrap(), "fast"),
        other => panic!("expected Done(Ok), got {other:?}"),
    }
}

#[test]
fn a_stalling_server_parks_and_the_rest_returns_its_connection_to_the_pool() {
    // The handler for /slow answers only once the test releases it, so
    // nothing can arrive by the yield point.
    let (release, released) = mpsc::channel::<()>();
    let released = Mutex::new(released);
    let server = HttpServer::bind("127.0.0.1:0", 2, move |req: Request| {
        if req.path() == "/slow" {
            released.lock().unwrap().recv().unwrap();
        }
        Response::text(format!("answer {}", req.path()))
    })
    .unwrap();
    let client = HttpClient::new();
    let req = Request::get(format!("{}/slow", server.url()));
    let Sent::Parked(rest) = send_until(soon(20), || client.send(req)) else {
        panic!("a handler that has not answered must park the send");
    };
    release.send(()).unwrap();
    assert_eq!(rest.finish().unwrap().text_body().unwrap(), "answer /slow");
    let before = client.pool_stats();
    let resp = client.get(&format!("{}/next", server.url())).unwrap();
    assert_eq!(resp.text_body().unwrap(), "answer /next");
    let after = client.pool_stats();
    assert_eq!(after.reused, before.reused + 1, "the rest parked its connection for reuse");
    assert_eq!(after.retired, before.retired, "nothing was retired");
    assert_eq!(after.opened, 1);
}

#[test]
fn a_parked_rest_retries_a_stale_reused_connection_on_a_fresh_one() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (parked, was_parked) = mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        // Connection 1 serves one keep-alive response, then reads the
        // next request and, once the client has parked it, closes
        // without answering: the reuse race a parked rest must retry.
        let (stream, _) = listener.accept().unwrap();
        let mut conn = BufReader::new(stream);
        codec::read_request(&mut conn, DEFAULT_BODY_LIMIT).unwrap();
        codec::write_response(conn.get_mut(), &Response::text("first")).unwrap();
        codec::read_request(&mut conn, DEFAULT_BODY_LIMIT).unwrap();
        was_parked.recv().unwrap();
        drop(conn);
        // Connection 2 answers the retry.
        let (stream, _) = listener.accept().unwrap();
        let mut conn = BufReader::new(stream);
        codec::read_request(&mut conn, DEFAULT_BODY_LIMIT).unwrap();
        codec::write_response(conn.get_mut(), &Response::text("fresh")).unwrap();
    });
    let client = HttpClient::with_timeout(Duration::from_secs(5));
    assert_eq!(client.get(&format!("http://{addr}/a")).unwrap().text_body().unwrap(), "first");
    let req = Request::get(format!("http://{addr}/b"));
    let Sent::Parked(rest) = send_until(soon(20), || client.send(req)) else {
        panic!("the stalled reused connection must park");
    };
    parked.send(()).unwrap();
    assert_eq!(rest.finish().unwrap().text_body().unwrap(), "fresh");
    let stats = client.pool_stats();
    assert_eq!((stats.opened, stats.reused, stats.retired), (2, 0, 1), "{stats:?}");
    server.join().unwrap();
}

#[test]
fn injected_mem_latency_parks_and_the_rest_delivers_once() {
    let net = MemNetwork::new();
    net.host("slow", |req: Request| Response::text(format!("served {}", req.target)));
    net.set_fault("slow", FaultConfig { latency: Duration::from_millis(50), ..Default::default() });
    let at = Instant::now();
    let Sent::Parked(rest) = send_until(at, || net.send(Request::get("mem://slow/q"))) else {
        panic!("injected latency past the yield point must park");
    };
    assert_eq!(net.hits("slow"), 0, "the request has not arrived yet");
    assert_eq!(rest.finish().unwrap().text_body().unwrap(), "served /q");
    assert_eq!(net.hits("slow"), 1);
    assert!(at.elapsed() >= Duration::from_millis(50), "the rest slept out the latency");
}

#[test]
fn a_mem_handler_runs_on_the_callers_thread_and_never_parks() {
    let net = MemNetwork::new();
    let (tx, rx) = mpsc::channel();
    let tx = Mutex::new(tx);
    net.host("busy", move |_req: Request| {
        tx.lock().unwrap().send(std::thread::current().id()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        Response::text("done")
    });
    match send_until(Instant::now(), || net.send(Request::get("mem://busy/"))) {
        Sent::Done(Ok(resp)) => assert_eq!(resp.text_body().unwrap(), "done"),
        other => panic!("expected Done(Ok), got {other:?}"),
    }
    assert_eq!(rx.recv().unwrap(), std::thread::current().id());
}

/// Set `listener`'s accept backlog. `std` fixes it at bind; calling
/// `listen` again on a listening socket changes it.
fn set_backlog(listener: &TcpListener, backlog: i32) {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // SAFETY: the descriptor is a live listening socket owned by
    // `listener` for the whole call.
    let rc = unsafe { listen(std::os::unix::io::AsRawFd::as_raw_fd(listener), backlog) };
    assert_eq!(rc, 0, "listen: {}", std::io::Error::last_os_error());
}

#[test]
fn a_connect_not_done_by_the_yield_point_parks_and_the_rest_starts_over() {
    // A full accept queue drops further SYNs, so a connect hangs there
    // the way it does on a host that has gone away.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    set_backlog(&listener, 0);
    let mut queued = Vec::new();
    while let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
        queued.push(stream);
        assert!(queued.len() < 16, "the accept queue never filled");
    }
    let client = HttpClient::new();
    let at = soon(50);
    let Sent::Parked(rest) =
        send_until(at, || client.send(Request::get(format!("http://{addr}/x"))))
    else {
        panic!("a connect still pending at the yield point must park");
    };
    assert!(Instant::now() < at + Duration::from_millis(100), "parked at the yield point");
    assert_eq!(client.pool_stats().opened, 0, "no connection was made");
    // Make room and serve: the rest connects afresh and sends then.
    set_backlog(&listener, 16);
    drop(queued);
    let server = std::thread::spawn(move || loop {
        let (stream, _) = listener.accept().unwrap();
        let mut conn = BufReader::new(stream);
        // The filler connections closed without a request.
        if let Ok(req) = codec::read_request(&mut conn, DEFAULT_BODY_LIMIT) {
            codec::write_response(
                conn.get_mut(),
                &Response::text(format!("served {}", req.target)),
            )
            .unwrap();
            return;
        }
    });
    assert_eq!(rest.finish().unwrap().text_body().unwrap(), "served /x");
    assert_eq!(client.pool_stats().opened, 1);
    server.join().unwrap();
}

#[test]
fn a_request_the_peer_does_not_read_parks_and_the_rest_writes_the_remainder() {
    // Far more than the socket buffers on both ends hold while the peer
    // reads nothing.
    const BODY: usize = 16 << 20;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (parked, was_parked) = mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        was_parked.recv().unwrap();
        let mut conn = BufReader::new(stream);
        let req = codec::read_request(&mut conn, 2 * BODY).unwrap();
        codec::write_response(conn.get_mut(), &Response::text(format!("{} bytes", req.body.len())))
            .unwrap();
    });
    let client = HttpClient::new();
    let at = soon(50);
    let req = Request::post(format!("http://{addr}/upload"), vec![b'x'; BODY]);
    let Sent::Parked(rest) = send_until(at, || client.send(req)) else {
        panic!("a write still blocked at the yield point must park");
    };
    assert!(Instant::now() < at + Duration::from_millis(100), "parked at the yield point");
    parked.send(()).unwrap();
    assert_eq!(rest.finish().unwrap().text_body().unwrap(), format!("{BODY} bytes"));
    server.join().unwrap();
}
