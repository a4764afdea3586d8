//! An HTTP/1.1 server over TCP, on the epoll reactor (Linux).
//!
//! [`HttpServer`] multiplexes every connection over the readiness-driven
//! event loop in `reactor`: one loop thread accepts, sheds at the
//! connection cap and sweeps deadlines, and the worker the kernel hands
//! a connection's readiness reads, handles and answers its request. An
//! idle keep-alive connection costs a file descriptor, not a thread.
//!
//! [`Handler`], the interface every service binding implements, is
//! available on every platform, because the in-memory network
//! ([`crate::mem`]) serves it without sockets.

// Everything here but `Handler` is Linux-only, like the reactor.
#![cfg_attr(not(target_os = "linux"), allow(unused_imports))]

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::codec::DEFAULT_BODY_LIMIT;
use crate::types::{HttpResult, Request, Response};

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
#[cfg(target_os = "linux")]
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests fully served.
    pub served: AtomicU64,
    /// Requests that produced a 5xx (including handler panics).
    pub failed: AtomicU64,
    /// Connections shed at the capacity cap (503 + `Retry-After`).
    pub shed: AtomicU64,
}

/// The I/O engine a server runs on. There is one: the type and
/// [`ServerConfig::transport`] remain only because the benchmark
/// harness names `ServerTransport::Reactor`, and go once it stops.
#[cfg(target_os = "linux")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerTransport {
    /// Readiness-driven epoll transport: one loop thread accepts, and
    /// the worker that receives a connection's readiness reads, handles
    /// and answers its request.
    Reactor,
}

/// Tunables for [`HttpServer::bind_with`].
#[cfg(target_os = "linux")]
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads reading connections and running handlers.
    pub workers: usize,
    /// Concurrent-connection cap: further connections are shed with a
    /// 503 + `Retry-After` instead of queueing unboundedly.
    pub max_connections: usize,
    /// I/O engine; always [`ServerTransport::Reactor`].
    pub transport: ServerTransport,
    /// How long a read or write may stall mid-message before the
    /// connection is dropped.
    pub io_timeout: Duration,
    /// How long an idle keep-alive connection is retained between
    /// requests.
    pub keep_alive_timeout: Duration,
    /// Maximum accepted request-body size.
    pub body_limit: usize,
}

#[cfg(target_os = "linux")]
impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_connections: 1024,
            transport: ServerTransport::Reactor,
            io_timeout: Duration::from_secs(30),
            keep_alive_timeout: Duration::from_secs(30),
            body_limit: DEFAULT_BODY_LIMIT,
        }
    }
}

/// A running HTTP server; dropping it (or calling
/// [`HttpServer::shutdown`]) stops the event loop and its workers.
#[cfg(target_os = "linux")]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    loop_thread: Option<std::thread::JoinHandle<()>>,
    /// Waking the reactor's pollers is how `shutdown` interrupts the
    /// loop and every worker.
    waker: Arc<crate::poller::Waker>,
}

#[cfg(target_os = "linux")]
impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve `handler` on `workers` threads with the default connection
    /// cap.
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
        let reactor_cfg = crate::reactor::ReactorConfig {
            workers: config.workers.max(1),
            max_connections: config.max_connections.max(1),
            io_timeout: config.io_timeout,
            keep_alive_timeout: config.keep_alive_timeout,
            body_limit: config.body_limit,
        };
        let (thread, waker) = crate::reactor::spawn(
            listener,
            reactor_cfg,
            Arc::new(handler),
            stats.clone(),
            stop.clone(),
        )?;
        Ok(HttpServer { addr: local, stop, stats, loop_thread: Some(thread), waker })
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

    /// Stop accepting and join the event loop, which joins the workers.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // One eventfd write unblocks the loop and every worker.
        self.waker.wake();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use std::io::BufReader;
    use std::net::TcpStream;

    use super::*;
    use crate::client::HttpClient;
    use crate::codec;
    use crate::types::{Method, Status};

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
        // First connection occupies the single slot: admitted and armed
        // for a request that never comes.
        let held = TcpStream::connect(server.addr()).unwrap();
        // The loop accepts connections in order, so by the time the
        // second is accepted the first has already been counted live:
        // the second must be shed immediately.
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
