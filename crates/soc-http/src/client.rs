//! A blocking HTTP client over TCP, with keep-alive connection pooling.
//!
//! Connections are pooled per `host:port`: after a clean exchange whose
//! framing allows reuse, the connection is parked in a bounded idle
//! pool instead of closed, and the next request to the same authority
//! skips the TCP handshake. Clones share one pool, so a gateway holding
//! an `Arc<HttpClient>` stops paying a connect per attempt/hedge. Idle
//! connections are evicted after [`PoolConfig::idle_timeout`]; a
//! connection that fails mid-exchange is retired, and if it failed
//! before any response byte arrived the request is retried on a fresh
//! connection (the server may have reaped the idle socket between our
//! checkout and our write — that race is inherent to keep-alive reuse).
//!
//! An exchange keeps its syscalls few. `TCP_NODELAY` is set once, at
//! connect. A pooled connection remembers the socket timeouts armed on
//! it, so a timeout is set again only when the wanted value changes: a
//! send without a deadline never re-arms. The request goes out in one
//! write through `&TcpStream`, with no cloned descriptor. A parked
//! connection's liveness probe is one nonblocking `recv(MSG_PEEK)`.
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
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::codec::{self, DEFAULT_BODY_LIMIT};
use crate::types::{HttpError, HttpResult, Request, Response, Version};
use crate::url::Url;

/// Connection-pool tunables.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Idle connections retained per `host:port`.
    pub max_idle_per_host: usize,
    /// How long a parked connection stays eligible for reuse.
    pub idle_timeout: Duration,
    /// Disable to restore one-connection-per-request behaviour (each
    /// request then carries `Connection: close`).
    pub enabled: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig { max_idle_per_host: 8, idle_timeout: Duration::from_secs(15), enabled: true }
    }
}

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

/// An open connection: the buffered socket plus the timeouts last
/// armed on it, so arming an unchanged value costs no syscall.
struct Conn {
    reader: BufReader<TcpStream>,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        stream.set_nodelay(true).ok();
        Conn { reader: BufReader::new(stream), read_timeout: None, write_timeout: None }
    }

    fn arm_read(&mut self, timeout: Duration) {
        if self.read_timeout != Some(timeout)
            && self.reader.get_ref().set_read_timeout(Some(timeout)).is_ok()
        {
            self.read_timeout = Some(timeout);
        }
    }

    fn arm_write(&mut self, timeout: Duration) {
        if self.write_timeout != Some(timeout)
            && self.reader.get_ref().set_write_timeout(Some(timeout)).is_ok()
        {
            self.write_timeout = Some(timeout);
        }
    }
}

struct IdleConn {
    conn: Conn,
    parked_at: Instant,
}

struct Pool {
    cfg: PoolConfig,
    idle: Mutex<HashMap<String, Vec<IdleConn>>>,
    opened: AtomicU64,
    reused: AtomicU64,
    retired: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("cfg", &self.cfg)
            .field("opened", &self.opened)
            .field("reused", &self.reused)
            .field("retired", &self.retired)
            .finish()
    }
}

impl Pool {
    fn new(cfg: PoolConfig) -> Pool {
        Pool {
            cfg,
            idle: Mutex::new(HashMap::new()),
            opened: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            retired: AtomicU64::new(0),
        }
    }

    /// Take the freshest healthy idle connection for `key`, evicting
    /// expired or visibly-dead ones along the way.
    fn checkout(&self, key: &str) -> Option<Conn> {
        let mut idle = self.idle.lock();
        let list = idle.get_mut(key)?;
        while let Some(parked) = list.pop() {
            if parked.parked_at.elapsed() > self.cfg.idle_timeout {
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
    /// (the oldest connection is dropped when full).
    fn park(&self, key: &str, conn: Conn) {
        let mut idle = self.idle.lock();
        let list = idle.entry(key.to_string()).or_default();
        if list.len() >= self.cfg.max_idle_per_host.max(1) {
            list.remove(0);
        }
        list.push(IdleConn { conn, parked_at: Instant::now() });
    }
}

/// Cheap liveness probe on a parked connection: a nonblocking peek that
/// yields `WouldBlock` means the socket is open with nothing buffered —
/// exactly the state a reusable keep-alive connection must be in. EOF
/// means the server closed it while parked; actual bytes mean a
/// desynchronized (poisoned) connection. Both are discarded, as is a
/// socket error.
fn probe_alive(conn: Conn) -> Option<Conn> {
    if !conn.reader.buffer().is_empty() {
        return None;
    }
    match peek_idle(conn.reader.get_ref()) {
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Some(conn),
        _ => None,
    }
}

/// One `recv(MSG_PEEK | MSG_DONTWAIT)`, leaving the socket blocking.
#[cfg(target_os = "linux")]
fn peek_idle(stream: &TcpStream) -> std::io::Result<usize> {
    crate::poller::peek_nonblocking(std::os::unix::io::AsRawFd::as_raw_fd(stream))
}

/// Portable fallback: flip the socket to nonblocking around a peek.
#[cfg(not(target_os = "linux"))]
fn peek_idle(stream: &TcpStream) -> std::io::Result<usize> {
    stream.set_nonblocking(true)?;
    let peeked = stream.peek(&mut [0u8; 1]);
    stream.set_nonblocking(false)?;
    peeked
}

/// Whether a response to the request just written on `conn` has begun
/// — bytes, EOF or an error waiting — by `at`. A failed wait counts as
/// begun: the read that follows reports the error.
fn response_started(conn: &Conn, at: Instant) -> bool {
    !conn.reader.buffer().is_empty()
        || wait_readable(conn.reader.get_ref(), at.saturating_duration_since(Instant::now()))
            .unwrap_or(true)
}

/// One `poll` for readability, bounded by `timeout`.
#[cfg(target_os = "linux")]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    crate::poller::wait_readable(std::os::unix::io::AsRawFd::as_raw_fd(stream), timeout)
}

/// Portable fallback: a peek under a temporary read timeout (a zero
/// timeout, which sockets reject, peeks nonblocking instead).
#[cfg(not(target_os = "linux"))]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    let peeked = if timeout.is_zero() {
        peek_idle(stream)
    } else {
        let armed = stream.read_timeout()?;
        stream.set_read_timeout(Some(timeout))?;
        let peeked = stream.peek(&mut [0u8; 1]);
        stream.set_read_timeout(armed)?;
        peeked
    };
    match peeked {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Ok(false)
        }
        _ => Ok(true),
    }
}

/// Write as much of `bytes` as `stream` takes by `at`, never blocking
/// past it: nonblocking sends, with a `poll` for space bounded by `at`
/// whenever the send buffer is full. Returns how many bytes went out —
/// all of them unless the peer stopped reading.
#[cfg(target_os = "linux")]
fn write_until(stream: &TcpStream, bytes: &[u8], at: Instant) -> std::io::Result<usize> {
    let fd = std::os::unix::io::AsRawFd::as_raw_fd(stream);
    let mut sent = 0;
    while sent < bytes.len() {
        match crate::poller::send_nonblocking(fd, &bytes[sent..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if !crate::poller::wait_writable(fd, at.saturating_duration_since(Instant::now()))?
                {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(sent)
}

/// Portable fallback: blocking writes under a temporary write timeout
/// that ends at `at`.
#[cfg(not(target_os = "linux"))]
fn write_until(stream: &TcpStream, bytes: &[u8], at: Instant) -> std::io::Result<usize> {
    let armed = stream.write_timeout()?;
    let mut writer = stream;
    let mut sent = 0;
    let written = loop {
        let left = at.saturating_duration_since(Instant::now());
        if sent == bytes.len() || left.is_zero() {
            break Ok(sent);
        }
        if let Err(e) = stream.set_write_timeout(Some(left)) {
            break Err(e);
        }
        match writer.write(&bytes[sent..]) {
            Ok(0) => break Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break Ok(sent)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    stream.set_write_timeout(armed)?;
    written
}

/// A blocking client with per-authority keep-alive pooling. The
/// request's `target` must be an absolute `http://` URL; the client
/// rewrites it to origin-form on the wire. Clones share the pool.
#[derive(Debug, Clone)]
pub struct HttpClient {
    timeout: Duration,
    body_limit: usize,
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
    /// Client with a 30 s timeout and default pooling.
    pub fn new() -> Self {
        HttpClient {
            timeout: Duration::from_secs(30),
            body_limit: DEFAULT_BODY_LIMIT,
            pool: Arc::new(Pool::new(PoolConfig::default())),
        }
    }

    /// Client with an explicit connect/read/write timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        HttpClient {
            timeout,
            body_limit: DEFAULT_BODY_LIMIT,
            pool: Arc::new(Pool::new(PoolConfig::default())),
        }
    }

    /// Cap the accepted response body size.
    pub fn with_body_limit(mut self, limit: usize) -> Self {
        self.body_limit = limit;
        self
    }

    /// Replace the pool configuration (fresh, empty pool).
    pub fn with_pool(mut self, cfg: PoolConfig) -> Self {
        self.pool = Arc::new(Pool::new(cfg));
        self
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
        self.dispatch(req, None)
    }

    /// Send `req`, giving up once `deadline` passes.
    ///
    /// The deadline is a whole-request budget, distinct from the
    /// client's socket timeout: the socket timeout bounds each blocking
    /// read/write, while the deadline bounds connect + write + read
    /// end to end. Per-socket-operation waits are capped at whatever
    /// remains of the budget, so a slow-dripping peer cannot stretch a
    /// 100 ms deadline into repeated 30 s socket waits. An expired
    /// budget yields [`HttpError::DeadlineExceeded`].
    pub fn send_with_deadline(&self, req: Request, deadline: Instant) -> HttpResult<Response> {
        self.dispatch(req, Some(deadline))
    }

    /// Remaining budget, or the socket timeout when no deadline is set.
    /// Zero remaining means the request is already too late.
    fn op_timeout(&self, deadline: Option<Instant>) -> HttpResult<Duration> {
        match deadline {
            None => Ok(self.timeout),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    Err(HttpError::DeadlineExceeded)
                } else {
                    Ok(left.min(self.timeout))
                }
            }
        }
    }

    fn dispatch(&self, req: Request, deadline: Option<Instant>) -> HttpResult<Response> {
        // Claimed on entry (see `send_until`), so a parked rest that
        // starts a round over never sees it again.
        self.round_trip(req, deadline, crate::yield_point::take())
    }

    /// Send `req` and read its response, retrying a stale reused
    /// connection. With a yield point, no step of any round blocks past
    /// it: the step it cuts short parks the rest of the exchange.
    fn round_trip(
        &self,
        req: Request,
        deadline: Option<Instant>,
        yield_at: Option<Instant>,
    ) -> HttpResult<Response> {
        let url = Url::parse(&req.target)?;
        if url.scheme != "http" {
            return Err(HttpError::BadUrl(format!(
                "HttpClient only speaks http://, got {}",
                url.scheme
            )));
        }
        let key = format!("{}:{}", url.host, url.port);
        loop {
            // Fail fast once the budget is gone, including between
            // retry rounds.
            self.op_timeout(deadline)?;
            let (mut conn, reused) = match self.pool.cfg.enabled.then(|| self.pool.checkout(&key)) {
                Some(Some(conn)) => (conn, true),
                _ => {
                    let Some(stream) = self.connect(&url, deadline, yield_at)? else {
                        // Not connected by the yield point, and nothing
                        // sent: the rest starts the send over.
                        let client = self.clone();
                        return Err(crate::yield_point::park(move || {
                            client.round_trip(req, deadline, None)
                        }));
                    };
                    self.pool.opened.fetch_add(1, Ordering::Relaxed);
                    (Conn::new(stream), false)
                }
            };
            let outcome = match self.write_request(&mut conn, &req, &url, deadline, yield_at) {
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
                            let outcome = client
                                .write_rest(&mut conn, &unwritten, deadline)
                                .and_then(|()| client.read_reply(conn, req_closes));
                            client
                                .settle(&key, reused, outcome, deadline)
                                .unwrap_or_else(|| client.round_trip(req, deadline, None))
                        }));
                    }
                    self.read_reply(conn, req_closes)
                }
            };
            if let Some(result) = self.settle(&key, reused, outcome, deadline) {
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
        deadline: Option<Instant>,
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
                // never reached a handler's response path. Deadline
                // errors are terminal.
                if reused && before_response && e != HttpError::DeadlineExceeded {
                    return None;
                }
                // A read failure after the budget ran out is the
                // deadline's fault, not the peer's.
                Some(match deadline {
                    Some(d) if Instant::now() >= d => Err(HttpError::DeadlineExceeded),
                    _ => Err(e),
                })
            }
        }
    }

    /// Open a fresh TCP connection. With no deadline, `TcpStream::
    /// connect` already walks every resolved address. Under a deadline,
    /// `connect_timeout` needs explicit addresses — and must try each
    /// of them within the remaining budget, not just the first: a host
    /// resolving IPv6-first would otherwise never reach an IPv4-only
    /// listener. A yield point bounds the attempts the same way; `None`
    /// means it came before a connection did.
    fn connect(
        &self,
        url: &Url,
        deadline: Option<Instant>,
        yield_at: Option<Instant>,
    ) -> HttpResult<Option<TcpStream>> {
        let addr = (url.host.as_str(), url.port);
        let map_connect_err = |e: std::io::Error| {
            if matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock) {
                HttpError::DeadlineExceeded
            } else {
                HttpError::Io(e.to_string())
            }
        };
        if deadline.is_none() && yield_at.is_none() {
            return TcpStream::connect(addr).map(Some).map_err(|e| HttpError::Io(e.to_string()));
        }
        let addrs: Vec<std::net::SocketAddr> = std::net::ToSocketAddrs::to_socket_addrs(&addr)
            .map_err(|e| HttpError::Io(e.to_string()))?
            .collect();
        if addrs.is_empty() {
            return Err(HttpError::BadUrl(format!("unresolvable host: {}", url.host)));
        }
        let mut last = None;
        for a in &addrs {
            let budget = match self.op_timeout(deadline) {
                Ok(b) => b,
                Err(e) => return Err(last.unwrap_or(e)),
            };
            let budget = match yield_at {
                Some(at) => budget.min(at.saturating_duration_since(Instant::now())),
                None => budget,
            };
            if budget.is_zero() {
                return Ok(None);
            }
            match TcpStream::connect_timeout(a, budget) {
                Ok(stream) => return Ok(Some(stream)),
                Err(e) => last = Some(map_connect_err(e)),
            }
        }
        // A timeout past the yield point but inside the deadline was
        // the yield point's doing.
        let now = Instant::now();
        if last == Some(HttpError::DeadlineExceeded)
            && yield_at.is_some_and(|at| now >= at)
            && deadline.is_none_or(|d| now < d)
        {
            return Ok(None);
        }
        Err(last.expect("at least one address was tried"))
    }

    /// Write `req` over an established connection in one write, then
    /// arm the read timeout with what the budget has left. With a yield
    /// point, writes only what the socket takes by then. Returns
    /// whether the request asked to close the connection, and the bytes
    /// still to write (none, unless the yield point cut the write
    /// short). Every error here precedes the response, the precondition
    /// for a safe retry on a reused connection.
    fn write_request(
        &self,
        conn: &mut Conn,
        req: &Request,
        url: &Url,
        deadline: Option<Instant>,
        yield_at: Option<Instant>,
    ) -> Result<(bool, Vec<u8>), (HttpError, bool)> {
        let pre = |e: HttpError| (e, true);

        let budget = self.op_timeout(deadline).map_err(pre)?;
        conn.arm_read(budget);
        conn.arm_write(budget);

        let mut wire_req = req.clone();
        wire_req.target = url.path_and_query();
        // Propagate the thread's active trace context across the hop.
        crate::observe::inject_traceparent(&mut wire_req.headers);
        // With pooling disabled this is a one-shot connection: tell the
        // server not to wait for more. Pooled connections stay on the
        // HTTP/1.1 persistent default.
        if !self.pool.cfg.enabled && !wire_req.headers.contains("Connection") {
            wire_req.headers.set("Connection", "close");
        }
        let mut bytes = codec::encode_request(&wire_req, Some(&url.authority())).map_err(pre)?;
        let mut writer = conn.reader.get_ref();
        let sent = match yield_at {
            Some(at) => write_until(writer, &bytes, at).map_err(|e| pre(e.into()))?,
            None => {
                writer.write_all(&bytes).map_err(|e| pre(e.into()))?;
                bytes.len()
            }
        };
        // Re-arm the read timeout with whatever budget the write left
        // (a no-op without a deadline: the wanted value is unchanged).
        conn.arm_read(self.op_timeout(deadline).map_err(pre)?);
        Ok((wire_req.headers.has_token("Connection", "close"), bytes.split_off(sent)))
    }

    /// Write what a yield point left of a request, blocking as an
    /// uninterrupted send would.
    fn write_rest(
        &self,
        conn: &mut Conn,
        unwritten: &[u8],
        deadline: Option<Instant>,
    ) -> Result<(), (HttpError, bool)> {
        if unwritten.is_empty() {
            return Ok(());
        }
        let pre = |e: HttpError| (e, true);
        conn.arm_write(self.op_timeout(deadline).map_err(pre)?);
        conn.reader.get_ref().write_all(unwritten).map_err(|e| pre(e.into()))?;
        conn.arm_read(self.op_timeout(deadline).map_err(pre)?);
        Ok(())
    }

    /// Read the response to a request written on `conn`, returning the
    /// connection too if it may be reused. Errors carry whether they
    /// happened before any response byte arrived (the precondition for
    /// a safe retry on a reused connection).
    fn read_reply(
        &self,
        mut conn: Conn,
        req_closes: bool,
    ) -> Result<ExchangeOk, (HttpError, bool)> {
        // Peek before parsing: an EOF or error *here* means the server
        // never started a response (stale pooled connection, reaped
        // idle socket) — retry-safe. Once bytes exist, failures are
        // real protocol or transfer errors.
        match conn.reader.fill_buf() {
            Ok([]) => return Err((HttpError::UnexpectedEof, true)),
            Ok(_) => {}
            Err(e) => return Err((HttpError::Io(e.to_string()), true)),
        }
        let (resp, version) = codec::read_response_versioned(&mut conn.reader, self.body_limit)
            .map_err(|e| (e, false))?;

        // Reuse only when both sides allow it and the response framing
        // was explicit (a length-less EOF-delimited body can't share a
        // connection).
        let resp_closes = resp.headers.has_token("Connection", "close")
            || (version == Version::Http10 && !resp.headers.has_token("Connection", "keep-alive"));
        let self_delimited = resp.headers.contains("Content-Length")
            || resp
                .headers
                .get("Transfer-Encoding")
                .is_some_and(|te| te.eq_ignore_ascii_case("chunked"));
        let keep = self.pool.cfg.enabled && !resp_closes && !req_closes && self_delimited;
        Ok((resp, keep.then_some(conn)))
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
    fn expired_deadline_fails_fast() {
        let c = HttpClient::with_timeout(Duration::from_secs(30));
        let past = Instant::now() - Duration::from_millis(1);
        let err = c.send_with_deadline(Request::get("http://127.0.0.1:1/"), past).unwrap_err();
        assert_eq!(err, HttpError::DeadlineExceeded);
    }

    #[test]
    fn deadline_bounds_a_stalled_server() {
        // A listener that accepts and then never responds: the socket
        // timeout alone (30 s) would hang the call; the deadline must
        // cut it short.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
            drop(stream);
        });
        let c = HttpClient::with_timeout(Duration::from_secs(30));
        let deadline = Instant::now() + Duration::from_millis(80);
        let start = Instant::now();
        let err =
            c.send_with_deadline(Request::get(format!("http://{addr}/")), deadline).unwrap_err();
        assert_eq!(err, HttpError::DeadlineExceeded);
        assert!(start.elapsed() < Duration::from_secs(5), "deadline did not bound the wait");
        server.join().unwrap();
    }

    #[test]
    fn generous_deadline_does_not_interfere() {
        let server =
            crate::HttpServer::bind("127.0.0.1:0", 2, |_req: Request| crate::Response::text("ok"))
                .unwrap();
        let url = format!("http://{}/", server.addr());
        let c = HttpClient::with_timeout(Duration::from_secs(5));
        let deadline = Instant::now() + Duration::from_secs(5);
        let resp = c.send_with_deadline(Request::get(&url), deadline).unwrap();
        assert!(resp.status.is_success());
    }

    #[test]
    fn deadline_connect_tries_every_resolved_address() {
        // Regression for first-address-only resolution: hand-build the
        // situation where the first address refuses and a later one
        // serves. `localhost` may resolve to `::1` before `127.0.0.1`;
        // the old code took `.next()` and never reached the listener.
        let server =
            crate::HttpServer::bind("127.0.0.1:0", 1, |_req: Request| crate::Response::text("ok"))
                .unwrap();
        let c = HttpClient::with_timeout(Duration::from_secs(2));
        let url = Url::parse(&format!("http://localhost:{}/", server.addr().port())).unwrap();
        // Whatever order the resolver yields, the connect must land on
        // the one family that is actually listening.
        let deadline = Some(Instant::now() + Duration::from_secs(2));
        let stream =
            c.connect(&url, deadline, None).expect("must try every resolved address").unwrap();
        drop(stream);
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
    fn disabled_pool_opens_per_request() {
        let server =
            crate::HttpServer::bind("127.0.0.1:0", 2, |_req: Request| crate::Response::text("ok"))
                .unwrap();
        let c = HttpClient::new().with_pool(PoolConfig { enabled: false, ..PoolConfig::default() });
        for _ in 0..3 {
            assert!(c.get(&format!("{}/x", server.url())).unwrap().status.is_success());
        }
        let stats = c.pool_stats();
        assert_eq!(stats.opened, 3);
        assert_eq!(stats.reused, 0);
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
    fn plain_send_restores_the_timeout_a_deadline_send_shortened() {
        // The pooled connection remembers the timeout armed on it. A
        // deadline send arms its short budget; the plain send that
        // reuses the connection must re-arm the client's own timeout,
        // or the slow handler below would time it out.
        let server = crate::HttpServer::bind("127.0.0.1:0", 2, |req: Request| {
            if req.path() == "/slow" {
                std::thread::sleep(Duration::from_millis(600));
            }
            crate::Response::text("ok")
        })
        .unwrap();
        let c = HttpClient::with_timeout(Duration::from_secs(5));
        let deadline = Instant::now() + Duration::from_millis(250);
        let fast = c.send_with_deadline(Request::get(format!("{}/fast", server.url())), deadline);
        assert!(fast.unwrap().status.is_success());
        let slow = c.get(&format!("{}/slow", server.url())).expect("timeout was restored");
        assert!(slow.status.is_success());
        let stats = c.pool_stats();
        assert_eq!((stats.opened, stats.reused), (1, 1), "both sends share one connection");
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
