//! An HTTP/1.1 server over TCP, with two interchangeable transports.
//!
//! The default **reactor** transport (Linux) multiplexes every
//! connection over an epoll event loop — see
//! [`ServerTransport::Reactor`] — so tens of thousands of idle
//! keep-alive connections cost file descriptors, not threads. The
//! original **threaded** transport (blocking accept, one pool task per
//! connection) is kept both as the portable fallback and as a
//! differential-testing baseline: the two share the `Handler` trait,
//! the codec, the connection-cap shedding semantics, and the stats
//! surface, so every suite can run against either via
//! [`ServerTransport`] or `SOC_HTTP_TRANSPORT`.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use soc_parallel::ThreadPool;

use crate::codec::{self, DEFAULT_BODY_LIMIT};
use crate::types::{HttpResult, Request, Response, Status};

/// A request handler: the single interface every service binding
/// (REST router, SOAP endpoint, web app) implements.
pub trait Handler: Send + Sync + 'static {
    /// Turn a request into a response. Must not panic; panics are caught
    /// and converted to 500s by the server.
    fn handle(&self, req: Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, req: Request) -> Response {
        self(req)
    }
}

/// Server statistics (exposed so availability experiments can watch a
/// provider's load, per the paper's complaints about overloaded free
/// services).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests fully served.
    pub served: AtomicU64,
    /// Requests that produced a 5xx (including handler panics).
    pub failed: AtomicU64,
    /// Connections shed at the capacity cap (503 + `Retry-After`).
    pub shed: AtomicU64,
}

/// Which I/O engine a server runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerTransport {
    /// Readiness-driven epoll event loop (Linux). Handlers still run on
    /// the worker pool; the reactor owns only I/O. Falls back to
    /// `Threaded` on platforms without the reactor.
    Reactor,
    /// One blocking pool task per connection.
    Threaded,
}

impl ServerTransport {
    /// The default transport: `Reactor` on Linux, `Threaded` elsewhere;
    /// overridable with `SOC_HTTP_TRANSPORT=reactor|threaded` so whole
    /// test suites can be replayed against either engine.
    pub fn default_for_platform() -> ServerTransport {
        match std::env::var("SOC_HTTP_TRANSPORT").as_deref() {
            Ok("threaded") => ServerTransport::Threaded,
            Ok("reactor") => ServerTransport::Reactor,
            _ if cfg!(target_os = "linux") => ServerTransport::Reactor,
            _ => ServerTransport::Threaded,
        }
    }
}

/// Tunables for [`HttpServer::bind_with`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pool threads serving connections (running handlers, on either
    /// transport).
    pub workers: usize,
    /// Concurrent-connection cap: further connections are shed with a
    /// 503 + `Retry-After` instead of queueing unboundedly.
    pub max_connections: usize,
    /// I/O engine; see [`ServerTransport::default_for_platform`].
    pub transport: ServerTransport,
    /// How long a read or write may stall mid-message before the
    /// connection is dropped.
    pub io_timeout: Duration,
    /// How long an idle keep-alive connection is retained between
    /// requests. The reactor honors this in full (an idle connection
    /// costs only a file descriptor); the threaded transport caps the
    /// idle wait at a short grace period, because there every open
    /// connection pins a worker thread and parked keep-alive
    /// connections would starve new ones.
    pub keep_alive_timeout: Duration,
    /// Maximum accepted request-body size.
    pub body_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_connections: 1024,
            transport: ServerTransport::default_for_platform(),
            io_timeout: Duration::from_secs(30),
            keep_alive_timeout: Duration::from_secs(30),
            body_limit: DEFAULT_BODY_LIMIT,
        }
    }
}

/// Decrements the live-connection count when a connection finishes.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// A running HTTP server; dropping it (or calling
/// [`HttpServer::shutdown`]) stops the accept loop.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    /// Present when the reactor transport runs: waking its poller is
    /// how `shutdown` interrupts the event loop.
    #[cfg(target_os = "linux")]
    waker: Option<Arc<crate::poller::Waker>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve `handler` on `workers` pool threads with the default
    /// connection cap.
    pub fn bind(addr: &str, workers: usize, handler: impl Handler) -> HttpResult<HttpServer> {
        HttpServer::bind_with(addr, ServerConfig { workers, ..ServerConfig::default() }, handler)
    }

    /// Bind `addr` with explicit [`ServerConfig`] tunables.
    pub fn bind_with(
        addr: &str,
        config: ServerConfig,
        handler: impl Handler,
    ) -> HttpResult<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let handler: Arc<dyn Handler> = Arc::new(handler);

        #[cfg(target_os = "linux")]
        if config.transport == ServerTransport::Reactor {
            let reactor_cfg = crate::reactor::ReactorConfig {
                workers: config.workers.max(1),
                max_connections: config.max_connections.max(1),
                io_timeout: config.io_timeout,
                keep_alive_timeout: config.keep_alive_timeout,
                body_limit: config.body_limit,
            };
            let (thread, waker) =
                crate::reactor::spawn(listener, reactor_cfg, handler, stats.clone(), stop.clone())?;
            return Ok(HttpServer {
                addr: local,
                stop,
                stats,
                accept_thread: Some(thread),
                waker: Some(waker),
            });
        }

        let pool = ThreadPool::new(config.workers.max(1));
        let max_connections = config.max_connections.max(1);
        let io_timeout = config.io_timeout;
        let keep_alive_timeout = config.keep_alive_timeout;
        let body_limit = config.body_limit;

        let stop2 = stop.clone();
        let stats2 = stats.clone();
        let accept_thread = std::thread::Builder::new()
            .name("soc-http-accept".into())
            .spawn(move || {
                // The pool lives inside the accept thread so dropping the
                // server joins everything deterministically.
                listener.set_ttl(64).ok();
                let live = Arc::new(AtomicUsize::new(0));
                let shed_counter =
                    soc_observe::metrics().counter("soc_http_connections_shed_total", &[]);
                // Blocking accept: zero idle wakeups. `shutdown` stores
                // the stop flag and then opens a throwaway connection to
                // this listener, which unblocks `accept` so the flag is
                // observed immediately.
                while let Ok((stream, _peer)) = listener.accept() {
                    if stop2.load(Ordering::Acquire) {
                        // `stream` is the wake-up connection (or a
                        // client that raced shutdown); drop it.
                        break;
                    }
                    // Backpressure: shed on the accept thread itself
                    // rather than queueing unboundedly in the pool, so
                    // an overloaded server answers "come back later"
                    // instead of going silent.
                    if live.load(Ordering::Acquire) >= max_connections {
                        stats2.shed.fetch_add(1, Ordering::Relaxed);
                        shed_counter.inc();
                        shed_connection(stream);
                        continue;
                    }
                    live.fetch_add(1, Ordering::AcqRel);
                    let guard = ConnGuard(live.clone());
                    let handler = handler.clone();
                    let stats = stats2.clone();
                    pool.spawn_detached(move || {
                        let _live = guard;
                        serve_connection(
                            stream,
                            handler,
                            stats,
                            io_timeout,
                            keep_alive_timeout,
                            body_limit,
                        );
                    });
                }
            })
            .map_err(|e| crate::types::HttpError::Io(e.to_string()))?;

        Ok(HttpServer {
            addr: local,
            stop,
            stats,
            accept_thread: Some(accept_thread),
            #[cfg(target_os = "linux")]
            waker: None,
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL of the server.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.stats.served.load(Ordering::Relaxed)
    }

    /// Requests that ended in a 5xx so far.
    pub fn failed(&self) -> u64 {
        self.stats.failed.load(Ordering::Relaxed)
    }

    /// Connections shed at the capacity cap so far.
    pub fn shed(&self) -> u64 {
        self.stats.shed.load(Ordering::Relaxed)
    }

    /// Stop accepting and join the accept loop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        #[cfg(target_os = "linux")]
        if let Some(waker) = &self.waker {
            // Reactor transport: one eventfd write unblocks the loop.
            waker.wake();
            if let Some(t) = self.accept_thread.take() {
                let _ = t.join();
            }
            return;
        }
        if let Some(t) = self.accept_thread.take() {
            // Wake the blocking `accept` with a throwaway connection; if
            // the accept thread already exited the connect just fails.
            let ip = self.addr.ip();
            let wake_ip = if ip.is_unspecified() {
                match ip {
                    std::net::IpAddr::V4(_) => {
                        std::net::IpAddr::from(std::net::Ipv4Addr::LOCALHOST)
                    }
                    std::net::IpAddr::V6(_) => {
                        std::net::IpAddr::from(std::net::Ipv6Addr::LOCALHOST)
                    }
                }
            } else {
                ip
            };
            let wake = SocketAddr::new(wake_ip, self.addr.port());
            let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(250));
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Refuse one connection politely: a quick 503 + `Retry-After` written
/// from the accept path (bounded by a short write timeout so a
/// slow-reading peer cannot stall accepting). Shared by both
/// transports.
pub(crate) fn shed_connection(mut stream: TcpStream) {
    stream.set_write_timeout(Some(Duration::from_millis(250))).ok();
    stream.set_nodelay(true).ok();
    let resp = Response::error(Status::SERVICE_UNAVAILABLE, "server at connection capacity")
        .with_header("Retry-After", "1")
        .with_header("Connection", "close");
    let _ = codec::write_response(&mut stream, &resp);
}

/// The longest the threaded transport lets a keep-alive connection sit
/// idle between requests. Every open connection pins one worker thread
/// here, so honoring a 30 s idle window would let a handful of parked
/// pooled-client connections starve the whole worker pool — the exact
/// failure mode the reactor transport exists to eliminate.
const THREADED_IDLE_GRACE: Duration = Duration::from_millis(250);

fn serve_connection(
    stream: TcpStream,
    handler: Arc<dyn Handler>,
    stats: Arc<ServerStats>,
    io_timeout: Duration,
    keep_alive_timeout: Duration,
    body_limit: usize,
) {
    stream.set_read_timeout(Some(io_timeout)).ok();
    stream.set_write_timeout(Some(io_timeout)).ok();
    stream.set_nodelay(true).ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);

    // Keep-alive loop: serve requests until the peer closes, asks to
    // close, idles past the grace window, or errors.
    let mut first = true;
    loop {
        if !first {
            // Wait for the first byte of the next request under the
            // (capped) idle window, then restore the mid-message
            // timeout once bytes are flowing. `fill_buf` returns
            // already-buffered pipelined bytes without touching the
            // socket.
            let idle = keep_alive_timeout.min(THREADED_IDLE_GRACE);
            reader.get_ref().set_read_timeout(Some(idle)).ok();
            match std::io::BufRead::fill_buf(&mut reader) {
                Ok([]) => return,
                Ok(_) => {}
                // Idle timeout: a silent close, same as the reactor's
                // keep-alive sweep.
                Err(_) => return,
            }
            reader.get_ref().set_read_timeout(Some(io_timeout)).ok();
        }
        first = false;
        let (req, version) = match codec::read_request_versioned(&mut reader, body_limit) {
            Ok(pair) => pair,
            Err(crate::types::HttpError::UnexpectedEof) => return,
            Err(e) => {
                let resp = Response::error(Status::BAD_REQUEST, &e.to_string())
                    .with_header("Connection", "close");
                let _ = codec::write_response(&mut writer, &resp);
                return;
            }
        };
        // HTTP/1.1 defaults to keep-alive (closed by a `close` token in
        // the Connection list); HTTP/1.0 defaults to close (kept open
        // only by an explicit `keep-alive`). Token-list parsing matters:
        // `Connection: close, TE` is legal and means close.
        let close = codec::wants_close(version, &req.headers);

        // Serve inside a server span: the remote parent (if any) comes
        // from the request's `traceparent` header.
        let mut resp =
            crate::observe::serve_with_span(
                req,
                "http.server",
                |req| match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handler.handle(req)
                })) {
                    Ok(resp) => resp,
                    Err(_) => Response::error(Status::INTERNAL_SERVER_ERROR, "handler panicked"),
                },
            );
        if resp.status.0 >= 500 {
            stats.failed.fetch_add(1, Ordering::Relaxed);
        }
        stats.served.fetch_add(1, Ordering::Relaxed);
        // The handler may also demand teardown; either way the decision
        // goes on the wire so pooled clients don't reuse a dying
        // connection.
        let close = close || resp.headers.has_token("Connection", "close");
        if close && !resp.headers.has_token("Connection", "close") {
            resp.headers.set("Connection", "close");
        }
        if codec::write_response(&mut writer, &resp).is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::types::Method;

    fn echo_server() -> HttpServer {
        HttpServer::bind("127.0.0.1:0", 2, |req: Request| {
            Response::text(format!("{} {}", req.method, req.path()))
                .with_header("X-Echo-Len", &req.body.len().to_string())
        })
        .unwrap()
    }

    #[test]
    fn serves_get_over_tcp() {
        let server = echo_server();
        let client = HttpClient::new();
        let resp = client.send(Request::get(format!("{}/hello", server.url()))).unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.text_body().unwrap(), "GET /hello");
        assert_eq!(server.served(), 1);
    }

    #[test]
    fn serves_post_with_body() {
        let server = echo_server();
        let client = HttpClient::new();
        let resp = client
            .send(
                Request::new(Method::Post, format!("{}/data", server.url()))
                    .with_body_bytes(vec![7; 321]),
            )
            .unwrap();
        assert_eq!(resp.headers.get("X-Echo-Len"), Some("321"));
    }

    #[test]
    fn keep_alive_reuses_connection_semantics() {
        // The blocking client opens a fresh connection each call, but the
        // server must survive many sequential requests.
        let server = echo_server();
        let client = HttpClient::new();
        for i in 0..20 {
            let resp = client.send(Request::get(format!("{}/r{i}", server.url()))).unwrap();
            assert!(resp.status.is_success());
        }
        assert_eq!(server.served(), 20);
    }

    #[test]
    fn panicking_handler_becomes_500() {
        let server = HttpServer::bind("127.0.0.1:0", 1, |_req: Request| -> Response {
            panic!("service bug");
        })
        .unwrap();
        let client = HttpClient::new();
        let resp = client.send(Request::get(format!("{}/x", server.url()))).unwrap();
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
        assert_eq!(server.failed(), 1);
        // Server still alive after the panic.
        let resp = client.send(Request::get(format!("{}/y", server.url()))).unwrap();
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
    }

    #[test]
    fn concurrent_clients() {
        let server = Arc::new(echo_server());
        let mut handles = Vec::new();
        for t in 0..4 {
            let url = server.url();
            handles.push(std::thread::spawn(move || {
                let client = HttpClient::new();
                for i in 0..10 {
                    let resp = client.send(Request::get(format!("{url}/t{t}/{i}"))).unwrap();
                    assert!(resp.status.is_success());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.served(), 40);
    }

    #[test]
    fn connection_cap_sheds_with_503_retry_after() {
        let server = HttpServer::bind_with(
            "127.0.0.1:0",
            ServerConfig { workers: 2, max_connections: 1, ..ServerConfig::default() },
            |_req: Request| Response::text("ok"),
        )
        .unwrap();
        // First connection occupies the single slot (the worker blocks
        // reading a request that never comes).
        let held = TcpStream::connect(server.addr()).unwrap();
        // The accept loop processes connections in order, so by the
        // time the second is accepted the first has already been
        // counted live: the second must be shed immediately.
        let shed = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(shed);
        let resp = codec::read_response(&mut reader, DEFAULT_BODY_LIMIT).unwrap();
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        assert_eq!(resp.headers.get("Retry-After"), Some("1"));
        assert_eq!(server.shed(), 1);

        // Releasing the held slot lets new connections through again.
        drop(held);
        let client = HttpClient::with_timeout(Duration::from_secs(2));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match client.send(Request::get(format!("{}/x", server.url()))) {
                Ok(resp) if resp.status.is_success() => break,
                _ if std::time::Instant::now() > deadline => {
                    panic!("server never recovered after shed connection closed")
                }
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    #[test]
    fn shutdown_stops_accepting() {
        let mut server = echo_server();
        let url = server.url();
        server.shutdown();
        let client = HttpClient::with_timeout(Duration::from_millis(200));
        // Either refused or times out — must not succeed.
        assert!(client.send(Request::get(format!("{url}/x"))).is_err());
    }
}
