//! A blocking HTTP client over TCP, with keep-alive connection pooling.
//!
//! Connections are pooled per `host:port`: after a clean exchange whose
//! framing allows reuse, the connection is parked in a bounded idle
//! list (`MAX_IDLE_PER_HOST`, 8) instead of closed, and the next request
//! to the same authority skips the TCP handshake. Clones share one
//! pool, so a gateway holding an `Arc<HttpClient>` stops paying a
//! connect per attempt/hedge. Idle connections are evicted after
//! `IDLE_TIMEOUT` (15 s). A connection that fails mid-exchange is
//! retired. If it was a reused one and failed before any response byte
//! arrived, the request goes round again: on the next pooled connection
//! that passes the liveness probe, or on a fresh one when none does
//! (the server may have reaped the idle socket between our checkout and
//! our write — that race is inherent to keep-alive reuse).
//!
//! One timeout bounds every wait: the client's `timeout` bounds each
//! connect attempt, and is set as the socket's read and write timeout
//! once, at connect, together with `TCP_NODELAY`; nothing re-arms them.
//! A read that times out is never sent again, since the server has the
//! request. The request goes out in one write through `&TcpStream`,
//! with no cloned descriptor. A parked connection's liveness probe is
//! one nonblocking `recv(MSG_PEEK)`.
//!
//! Inside [`send_until`](crate::send_until) no step of the send blocks
//! past the yield point. A fresh connection's connect is bounded by it;
//! the request goes out with nonblocking sends and `poll`s for buffer
//! space bounded by it; and the wait for the first response byte is
//! one `poll` bounded by it. Whichever step the yield point cuts short,
//! the parked [`Rest`](crate::Rest) takes over from there. A connect
//! not done by then is started over, since nothing was sent. Otherwise
//! the rest owns the connection: it writes what is left of the request,
//! reads the response, parks or retires the connection, and makes the
//! stale-reuse retry, exactly as an uninterrupted send.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::codec::{self, DEFAULT_BODY_LIMIT};
use crate::poller;
use crate::types::{HttpError, HttpResult, Request, Response, Version};
use crate::url::Url;

/// Idle connections retained per `host:port`; parking one more drops
/// the oldest.
const MAX_IDLE_PER_HOST: usize = 8;

/// How long a parked connection stays eligible for reuse.
const IDLE_TIMEOUT: Duration = Duration::from_secs(15);

/// A snapshot of the pool's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientPoolStats {
    /// Fresh TCP connections opened.
    pub opened: u64,
    /// Requests served over a reused pooled connection.
    pub reused: u64,
    /// Pooled connections retired on error (stale reuse, poisoned
    /// socket) — idle-timeout evictions are not errors and not counted.
    pub retired: u64,
}

/// An open connection: the socket behind its read buffer, with
/// `TCP_NODELAY` and both timeouts set at connect.
type Conn = BufReader<TcpStream>;

#[derive(Debug)]
struct IdleConn {
    conn: Conn,
    parked_at: Instant,
}

#[derive(Debug, Default)]
struct Pool {
    idle: Mutex<HashMap<String, Vec<IdleConn>>>,
    opened: AtomicU64,
    reused: AtomicU64,
    retired: AtomicU64,
}

impl Pool {
    /// Take the freshest healthy idle connection for `key`, evicting
    /// expired or visibly-dead ones along the way.
    fn checkout(&self, key: &str) -> Option<Conn> {
        let mut idle = self.idle.lock();
        let list = idle.get_mut(key)?;
        while let Some(parked) = list.pop() {
            if parked.parked_at.elapsed() > IDLE_TIMEOUT {
                continue; // expired; dropping closes the socket
            }
            if let Some(conn) = probe_alive(parked.conn) {
                return Some(conn);
            }
            // Dead or poisoned while parked: not an error, just gone.
        }
        None
    }

    /// Park a connection for reuse, bounding the per-host idle list
    /// (the oldest connection is dropped when full). The key is
    /// allocated only the first time its authority parks.
    fn park(&self, key: &str, conn: Conn) {
        let parked = IdleConn { conn, parked_at: Instant::now() };
        let mut idle = self.idle.lock();
        match idle.get_mut(key) {
            Some(list) => {
                if list.len() >= MAX_IDLE_PER_HOST {
                    list.remove(0);
                }
                list.push(parked);
            }
            None => {
                idle.insert(key.to_string(), vec![parked]);
            }
        }
    }
}

/// Cheap liveness probe on a parked connection: a nonblocking peek that
/// yields `WouldBlock` means the socket is open with nothing buffered —
/// exactly the state a reusable keep-alive connection must be in. EOF
/// means the server closed it while parked; actual bytes mean a
/// desynchronized (poisoned) connection. Both are discarded, as is a
/// socket error.
fn probe_alive(conn: Conn) -> Option<Conn> {
    if !conn.buffer().is_empty() {
        return None;
    }
    match poller::peek_nonblocking(conn.get_ref().as_raw_fd()) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Some(conn),
        _ => None,
    }
}

/// Whether a response to the request just written on `conn` has begun
/// — bytes, EOF or an error waiting — by `at`: one `poll`. A failed
/// wait counts as begun: the read that follows reports the error.
fn response_started(conn: &Conn, at: Instant) -> bool {
    !conn.buffer().is_empty()
        || poller::wait_readable(
            conn.get_ref().as_raw_fd(),
            at.saturating_duration_since(Instant::now()),
        )
        .unwrap_or(true)
}

/// Write as much of `bytes` as `stream` takes by `at`, never blocking
/// past it: nonblocking sends, with a `poll` for space bounded by `at`
/// whenever the send buffer is full. Returns how many bytes went out —
/// all of them unless the peer stopped reading.
fn write_until(stream: &TcpStream, bytes: &[u8], at: Instant) -> std::io::Result<usize> {
    let fd = stream.as_raw_fd();
    let mut sent = 0;
    while sent < bytes.len() {
        match poller::send_nonblocking(fd, &bytes[sent..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if !poller::wait_writable(fd, at.saturating_duration_since(Instant::now()))? {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(sent)
}

/// A blocking client with per-authority keep-alive pooling. The
/// request's `target` must be an absolute `http://` URL; the client
/// rewrites it to origin-form on the wire. Clones share the pool.
#[derive(Debug, Clone)]
pub struct HttpClient {
    timeout: Duration,
    pool: Arc<Pool>,
}

impl Default for HttpClient {
    fn default() -> Self {
        Self::new()
    }
}

/// Outcome of one wire exchange: the response plus the connection if
/// it is still reusable.
type ExchangeOk = (Response, Option<Conn>);

impl HttpClient {
    /// Client with a 30 s timeout.
    pub fn new() -> Self {
        Self::with_timeout(Duration::from_secs(30))
    }

    /// Client whose connects, socket reads and socket writes each give
    /// up after `timeout`.
    pub fn with_timeout(timeout: Duration) -> Self {
        HttpClient { timeout, pool: Arc::default() }
    }

    /// Lifetime pool counters (shared across clones).
    pub fn pool_stats(&self) -> ClientPoolStats {
        ClientPoolStats {
            opened: self.pool.opened.load(Ordering::Relaxed),
            reused: self.pool.reused.load(Ordering::Relaxed),
            retired: self.pool.retired.load(Ordering::Relaxed),
        }
    }

    /// Send `req` and wait for the response.
    pub fn send(&self, req: Request) -> HttpResult<Response> {
        // Claimed on entry (see `send_until`), so a parked rest that
        // starts a round over never sees it again.
        self.round_trip(req, crate::yield_point::take())
    }

    /// Send `req` and read its response, retrying a stale reused
    /// connection. With a yield point, no step of any round blocks past
    /// it: the step it cuts short parks the rest of the exchange.
    fn round_trip(&self, req: Request, yield_at: Option<Instant>) -> HttpResult<Response> {
        let url = Url::parse(&req.target)?;
        if url.scheme != "http" {
            return Err(HttpError::BadUrl(format!(
                "HttpClient only speaks http://, got {}",
                url.scheme
            )));
        }
        let key = format!("{}:{}", url.host, url.port);
        loop {
            let (mut conn, reused) = match self.pool.checkout(&key) {
                Some(conn) => (conn, true),
                None => {
                    let Some(conn) = self.connect(&url, yield_at)? else {
                        // Not connected by the yield point, and nothing
                        // sent: the rest starts the send over.
                        let client = self.clone();
                        return Err(crate::yield_point::park(move || client.round_trip(req, None)));
                    };
                    self.pool.opened.fetch_add(1, Ordering::Relaxed);
                    (conn, false)
                }
            };
            let outcome = match write_request(&mut conn, &req, &url, yield_at) {
                Err(e) => Err(e),
                Ok((req_closes, unwritten)) => {
                    if yield_at
                        .is_some_and(|at| !unwritten.is_empty() || !response_started(&conn, at))
                    {
                        // Not all written, or nothing back, by the yield
                        // point: whoever finishes the rest does this
                        // round's bookkeeping and, if need be, the
                        // stale-reuse retry.
                        let client = self.clone();
                        return Err(crate::yield_point::park(move || {
                            let outcome = write_rest(&conn, &unwritten)
                                .and_then(|()| read_reply(conn, req_closes));
                            client
                                .settle(&key, reused, outcome)
                                .unwrap_or_else(|| client.round_trip(req, None))
                        }));
                    }
                    read_reply(conn, req_closes)
                }
            };
            if let Some(result) = self.settle(&key, reused, outcome) {
                return result;
            }
        }
    }

    /// Pool bookkeeping for one exchange: count a reuse and park a
    /// reusable connection, or retire a failed pooled one. `None` asks
    /// for another round on a different connection.
    fn settle(
        &self,
        key: &str,
        reused: bool,
        outcome: Result<ExchangeOk, (HttpError, bool)>,
    ) -> Option<HttpResult<Response>> {
        match outcome {
            Ok((resp, keep)) => {
                if reused {
                    self.pool.reused.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(conn) = keep {
                    self.pool.park(key, conn);
                }
                Some(Ok(resp))
            }
            Err((e, before_response)) => {
                if reused {
                    self.pool.retired.fetch_add(1, Ordering::Relaxed);
                }
                // Safe retry: only on a *reused* connection that failed
                // before the server said anything — the idle socket
                // raced the server's reaper, and the request provably
                // never reached a handler's response path.
                if reused && before_response {
                    return None;
                }
                Some(Err(e))
            }
        }
    }

    /// Open a fresh connection, trying every address the host resolves
    /// to — a host resolving IPv6-first must still reach an IPv4-only
    /// listener — each attempt bounded by the client's timeout and by
    /// the yield point, if any. `None` means the yield point came
    /// before a connection did. `TCP_NODELAY` and the socket timeouts
    /// are set here, once for the connection's life.
    fn connect(&self, url: &Url, yield_at: Option<Instant>) -> HttpResult<Option<Conn>> {
        let addrs: Vec<SocketAddr> = (url.host.as_str(), url.port).to_socket_addrs()?.collect();
        let mut last = None;
        for addr in &addrs {
            let budget = match yield_at.map(|at| at.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => return Ok(None),
                Some(left) => left.min(self.timeout),
                None => self.timeout,
            };
            match TcpStream::connect_timeout(addr, budget) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.timeout))?;
                    stream.set_write_timeout(Some(self.timeout))?;
                    return Ok(Some(BufReader::new(stream)));
                }
                Err(e) => last = Some(e),
            }
        }
        match last {
            None => Err(HttpError::BadUrl(format!("unresolvable host: {}", url.host))),
            // A timeout past the yield point was the yield point's doing.
            Some(e)
                if e.kind() == std::io::ErrorKind::TimedOut
                    && yield_at.is_some_and(|at| Instant::now() >= at) =>
            {
                Ok(None)
            }
            Some(e) => Err(e.into()),
        }
    }

    /// GET an absolute URL.
    pub fn get(&self, url: &str) -> HttpResult<Response> {
        self.send(Request::get(url))
    }

    /// POST text with a content type.
    pub fn post(&self, url: &str, content_type: &str, body: &str) -> HttpResult<Response> {
        self.send(Request::post(url, Vec::new()).with_text(content_type, body))
    }
}

/// Write `req` over an established connection in one write; with a
/// yield point, only what the socket takes by then. Returns whether the
/// request asked to close the connection, and the bytes still to write
/// (none, unless the yield point cut the write short). Every error here
/// precedes the response, the precondition for a safe retry on a
/// reused connection.
fn write_request(
    conn: &mut Conn,
    req: &Request,
    url: &Url,
    yield_at: Option<Instant>,
) -> Result<(bool, Vec<u8>), (HttpError, bool)> {
    let pre = |e: HttpError| (e, true);
    let mut wire_req = req.clone();
    wire_req.target = url.path_and_query();
    // Propagate the thread's active trace context across the hop.
    crate::observe::inject_traceparent(&mut wire_req.headers);
    let mut bytes = codec::encode_request(&wire_req, Some(&url.authority())).map_err(pre)?;
    let mut writer = conn.get_ref();
    let sent = match yield_at {
        Some(at) => write_until(writer, &bytes, at).map_err(|e| pre(e.into()))?,
        None => {
            writer.write_all(&bytes).map_err(|e| pre(e.into()))?;
            bytes.len()
        }
    };
    Ok((wire_req.headers.has_token("Connection", "close"), bytes.split_off(sent)))
}

/// Write what a yield point left of a request, blocking as an
/// uninterrupted send would.
fn write_rest(conn: &Conn, unwritten: &[u8]) -> Result<(), (HttpError, bool)> {
    let mut writer = conn.get_ref();
    writer.write_all(unwritten).map_err(|e| (e.into(), true))
}

/// Read the response to a request written on `conn`, returning the
/// connection too if it may be reused. Errors carry whether they
/// happened before any response byte arrived (the precondition for a
/// safe retry on a reused connection).
fn read_reply(mut conn: Conn, req_closes: bool) -> Result<ExchangeOk, (HttpError, bool)> {
    // Peek before parsing: an EOF or error *here* means the server
    // never started a response (stale pooled connection, reaped idle
    // socket) — retry-safe. A timeout is not: the server has the
    // request and is still at it, so another round would send it
    // twice. Once bytes exist, failures are real protocol or transfer
    // errors.
    match conn.fill_buf() {
        Ok([]) => return Err((HttpError::UnexpectedEof, true)),
        Ok(_) => {}
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Err((e.into(), false))
        }
        Err(e) => return Err((e.into(), true)),
    }
    let (resp, version) =
        codec::read_response_versioned(&mut conn, DEFAULT_BODY_LIMIT).map_err(|e| (e, false))?;

    // Reuse only when both sides allow it and the response framing was
    // explicit (a length-less EOF-delimited body can't share a
    // connection).
    let resp_closes = resp.headers.has_token("Connection", "close")
        || (version == Version::Http10 && !resp.headers.has_token("Connection", "keep-alive"));
    let self_delimited = resp.headers.contains("Content-Length")
        || resp
            .headers
            .get("Transfer-Encoding")
            .is_some_and(|te| te.eq_ignore_ascii_case("chunked"));
    let keep = !resp_closes && !req_closes && self_delimited;
    Ok((resp, keep.then_some(conn)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_http_urls() {
        let c = HttpClient::new();
        assert!(matches!(c.get("mem://x/"), Err(HttpError::BadUrl(_))));
        assert!(matches!(c.get("not a url"), Err(HttpError::BadUrl(_))));
    }

    #[test]
    fn connection_refused_is_io_error() {
        let c = HttpClient::with_timeout(Duration::from_millis(300));
        // Port 1 on localhost is essentially never listening.
        assert!(matches!(c.get("http://127.0.0.1:1/"), Err(HttpError::Io(_))));
    }

    #[test]
    fn timeout_bounds_a_stalled_handler_on_a_reused_connection() {
        // `/stall` waits until `release` is dropped, which frees every
        // stalled handler at once, and for 2 s at most: a client that
        // never times out fails the test instead of hanging it.
        let (release, stall) = std::sync::mpsc::channel::<()>();
        let stall = std::sync::Mutex::new(stall);
        let server = crate::HttpServer::bind("127.0.0.1:0", 2, move |req: Request| {
            if req.path() == "/stall" {
                stall.lock().unwrap().recv_timeout(Duration::from_secs(2)).ok();
            }
            crate::Response::text("ok")
        })
        .unwrap();
        let c = HttpClient::with_timeout(Duration::from_millis(150));
        assert!(c.get(&format!("{}/fast", server.url())).unwrap().status.is_success());
        let start = Instant::now();
        let err = c.get(&format!("{}/stall", server.url())).unwrap_err();
        let waited = start.elapsed();
        drop(release);
        assert!(matches!(err, HttpError::Io(_)), "a socket timeout is an I/O error: {err:?}");
        assert!(waited < Duration::from_secs(2), "the timeout did not bound the wait: {waited:?}");
        let stats = c.pool_stats();
        assert_eq!(
            (stats.opened, stats.retired),
            (1, 1),
            "the stalled request went out once, on the reused connection: {stats:?}"
        );
    }

    #[test]
    fn yield_point_connect_tries_every_resolved_address() {
        // Regression for first-address-only resolution: hand-build the
        // situation where the first address refuses and a later one
        // serves. `localhost` may resolve to `::1` before `127.0.0.1`;
        // taking the first address would never reach the listener.
        let server =
            crate::HttpServer::bind("127.0.0.1:0", 1, |_req: Request| crate::Response::text("ok"))
                .unwrap();
        let c = HttpClient::with_timeout(Duration::from_secs(2));
        let url = Url::parse(&format!("http://localhost:{}/", server.addr().port())).unwrap();
        // Whatever order the resolver yields, the connect must land on
        // the one family that is actually listening.
        let yield_at = Some(Instant::now() + Duration::from_secs(2));
        let conn =
            c.connect(&url, yield_at).expect("must try every resolved address").expect("connected");
        drop(conn);
    }

    #[test]
    fn pooled_connection_is_reused() {
        let server = crate::HttpServer::bind("127.0.0.1:0", 2, |req: Request| {
            crate::Response::text(format!("echo {}", req.path()))
        })
        .unwrap();
        let c = HttpClient::new();
        for i in 0..5 {
            let resp = c.get(&format!("{}/r{i}", server.url())).unwrap();
            assert!(resp.status.is_success());
        }
        let stats = c.pool_stats();
        assert_eq!(stats.opened, 1, "five sequential requests must share one connection");
        assert_eq!(stats.reused, 4);
        assert_eq!(server.served(), 5);
    }

    #[test]
    fn stale_pooled_connection_is_retired_and_retried() {
        // Serve one request, then shut the server down and bring up a
        // fresh one on the same port: the parked connection is dead,
        // and the client must transparently retry on a new connection.
        let mut server =
            crate::HttpServer::bind("127.0.0.1:0", 2, |_req: Request| crate::Response::text("one"))
                .unwrap();
        let addr = server.addr();
        let c = HttpClient::with_timeout(Duration::from_secs(5));
        assert_eq!(c.get(&format!("http://{addr}/")).unwrap().text_body().unwrap(), "one");
        server.shutdown();
        drop(server);
        let server2 = crate::HttpServer::bind(&addr.to_string(), 2, |_req: Request| {
            crate::Response::text("two")
        })
        .unwrap();
        assert_eq!(server2.addr(), addr, "rebind on the same port");
        let resp = c.get(&format!("http://{addr}/")).unwrap();
        assert_eq!(resp.text_body().unwrap(), "two");
        let stats = c.pool_stats();
        assert!(stats.opened >= 2, "a fresh connection replaced the dead one: {stats:?}");
    }

    #[test]
    fn server_close_is_honored_not_pooled() {
        // The handler demands teardown; the client must not park the
        // connection.
        let server = crate::HttpServer::bind("127.0.0.1:0", 2, |_req: Request| {
            crate::Response::text("bye").with_header("Connection", "close")
        })
        .unwrap();
        let c = HttpClient::new();
        for _ in 0..3 {
            assert!(c.get(&format!("{}/x", server.url())).unwrap().status.is_success());
        }
        let stats = c.pool_stats();
        assert_eq!(stats.opened, 3, "Connection: close responses must not be reused");
        assert_eq!(stats.reused, 0);
    }
}
