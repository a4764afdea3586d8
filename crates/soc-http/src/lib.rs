//! # soc-http — HTTP/1.1 substrate for the service stack
//!
//! The paper's services are hosted over HTTP (ASP.NET/WCF in the
//! original; here a from-scratch implementation). This crate provides:
//!
//! - [`types`] — methods, status codes, case-insensitive headers,
//!   [`Request`]/[`Response`] with builder APIs.
//! - [`url`] — a small URL parser with percent-encoding and query/form
//!   handling (`application/x-www-form-urlencoded`).
//! - [`codec`] — wire encode/decode: request/response lines, headers,
//!   `Content-Length` and `chunked` bodies.
//! - [`server`] — the [`Handler`] trait every service binding
//!   implements, and on Linux a TCP server ([`HttpServer`]) running one
//!   on its worker threads, with keep-alive and graceful shutdown. Its
//!   one transport is a readiness-driven epoll reactor (see [`poller`]):
//!   every connection is multiplexed over one-shot epoll, and the
//!   worker handed a connection's readiness serves its request.
//! - [`client`] — a blocking TCP client ([`HttpClient`]) with
//!   keep-alive connection pooling (bounded per-host idle pools,
//!   idle-timeout eviction, retire-on-error).
//! - [`mem`] — an in-memory virtual network ([`mem::MemNetwork`]): the
//!   same `Handler` interface without sockets, so whole multi-service
//!   topologies (provider + broker + client, crawler across
//!   directories) run deterministically inside one process. `mem://`
//!   URLs address it.
//! - [`cookies`] — cookie parsing/formatting for the web-app state
//!   management unit.
//! - [`fault`] — deterministic seeded fault injection (probabilistic
//!   failures, lost responses, corruption/truncation, burst windows)
//!   applied by [`mem::MemNetwork`]; host-pair partitions live on the
//!   network itself.
//! - [`yield_point`] — [`send_until`]`(at, || transport.send(req))`
//!   runs a blocking send on the caller's thread but stops waiting at
//!   `at`: a response begun by then is [`Sent::Done`], otherwise the
//!   exchange parks and [`Sent::Parked`] hands back its [`Rest`] for
//!   another thread to finish. Blocking transports take the yield point
//!   when `send` is entered, and no step of the send blocks past it:
//!   [`HttpClient`] bounds a fresh connect, the request write and the
//!   wait for the first response byte by `at`; [`MemNetwork`] sleeps
//!   its injected latency until `at`. A mem handler runs on the
//!   caller's thread, so over the virtual network only injected
//!   latency can park; the handler itself never yields. The gateway
//!   hedges with this: its primary attempt runs inline and only a
//!   parked one touches the hedge pool.
//!
//! ```
//! use soc_http::{Handler, Request, Response, Status};
//! use soc_http::mem::{MemNetwork, Transport};
//!
//! let net = MemNetwork::new();
//! net.host("echo.example", |req: Request| {
//!     Response::new(Status::OK).with_body_bytes(req.body.clone())
//! });
//! let resp = net.send(Request::post("mem://echo.example/", b"hi".to_vec())).unwrap();
//! assert_eq!(resp.body, b"hi");
//! ```

pub mod client;
pub mod codec;
pub mod cookies;
pub mod fault;
pub mod mem;
pub mod observe;
#[cfg(target_os = "linux")]
pub mod poller;
#[cfg(target_os = "linux")]
mod reactor;
pub mod server;
pub mod types;
pub mod url;
pub mod yield_point;

pub use client::{ClientPoolStats, HttpClient, PoolConfig};
pub use fault::{FaultConfig, FaultRng, FaultVerdict, FaultWindow};
pub use mem::{MemNetwork, Transport};
pub use observe::ObserveEndpoints;
pub use server::Handler;
#[cfg(target_os = "linux")]
pub use server::{HttpServer, ServerConfig, ServerTransport};
pub use types::{
    fresh_idempotency_key, Headers, HttpError, HttpResult, Method, Request, Response, Status,
    Version, IDEMPOTENCY_KEY,
};
pub use url::Url;
pub use yield_point::{send_until, Rest, Sent};
