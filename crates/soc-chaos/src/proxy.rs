//! A TCP fault proxy: real-socket fault injection.
//!
//! [`FaultProxy`] fronts a real [`soc_http::HttpServer`] (or anything
//! speaking TCP) and tunnels bytes both ways, injecting faults on the
//! *response* path the way a misbehaving network would: added delay,
//! a connection cut mid-headers ("reset"), or a clean close after a
//! partial body ("truncate"). Verdicts are drawn per response
//! read-burst from one seeded [`soc_http::FaultRng`] shared by all
//! tunnels — with keep-alive clients one connection carries many
//! exchanges, so a per-connection draw would fault only the first and
//! starve the schedule. For the small responses in this stack one
//! burst is one response, and a given seed replays the same fault
//! sequence — the TCP counterpart of the in-memory `MemNetwork` fault
//! plane.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use soc_http::{FaultRng, HttpError, HttpResult};

/// What the proxy does to one connection's response bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProxyVerdict {
    /// Tunnel untouched.
    Clean,
    /// Tunnel, but stall before the first response byte.
    Delay,
    /// Cut the connection after a few response bytes (mid-headers).
    Reset,
    /// Forward a partial body, then close as if complete.
    Truncate,
}

/// Per-response-burst fault probabilities for a [`FaultProxy`]. Drawn
/// in a fixed order (delay, reset, truncate) so a seed replays exactly.
#[derive(Debug, Clone)]
pub struct ProxyFaults {
    /// Probability of stalling the response by `delay`.
    pub delay_prob: f64,
    /// The stall applied to delayed connections.
    pub delay: Duration,
    /// Probability of cutting the connection mid-headers.
    pub reset_prob: f64,
    /// Probability of closing after a partial body.
    pub truncate_prob: f64,
    /// Seeds the verdict stream.
    pub seed: u64,
}

impl Default for ProxyFaults {
    fn default() -> Self {
        ProxyFaults {
            delay_prob: 0.0,
            delay: Duration::from_millis(50),
            reset_prob: 0.0,
            truncate_prob: 0.0,
            seed: 0xFA_u64,
        }
    }
}

impl ProxyFaults {
    /// Clean pass-through with `seed` (set probabilities via the
    /// builders).
    pub fn seeded(seed: u64) -> Self {
        ProxyFaults { seed, ..ProxyFaults::default() }
    }

    /// Set the delay probability and stall duration.
    pub fn with_delay(mut self, p: f64, delay: Duration) -> Self {
        self.delay_prob = p;
        self.delay = delay;
        self
    }

    /// Set the mid-headers connection-cut probability.
    pub fn with_reset(mut self, p: f64) -> Self {
        self.reset_prob = p;
        self
    }

    /// Set the partial-body truncation probability.
    pub fn with_truncate(mut self, p: f64) -> Self {
        self.truncate_prob = p;
        self
    }

    fn verdict(&self, rng: &mut FaultRng) -> ProxyVerdict {
        // Fixed draw order keeps a seed's schedule stable even when
        // some probabilities are zero.
        let delay = rng.chance(self.delay_prob);
        let reset = rng.chance(self.reset_prob);
        let truncate = rng.chance(self.truncate_prob);
        if delay {
            ProxyVerdict::Delay
        } else if reset {
            ProxyVerdict::Reset
        } else if truncate {
            ProxyVerdict::Truncate
        } else {
            ProxyVerdict::Clean
        }
    }
}

/// Counters for asserting chaos invariants (and leak checks).
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections cut mid-headers.
    pub resets: AtomicU64,
    /// Connections closed after a partial body.
    pub truncations: AtomicU64,
    /// Connections stalled before the response.
    pub delays: AtomicU64,
    /// Tunnels currently open (must drain to 0 after shutdown).
    pub open: AtomicI64,
}

/// A running TCP fault proxy; dropping it (or calling
/// [`FaultProxy::shutdown`]) stops the accept loop, cuts every open
/// tunnel and joins it.
pub struct FaultProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on an ephemeral local port and tunnel every connection to
    /// `upstream`, applying `faults`.
    pub fn bind(upstream: SocketAddr, faults: ProxyFaults) -> HttpResult<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());

        let stop2 = stop.clone();
        let stats2 = stats.clone();
        let accept_thread = std::thread::Builder::new()
            .name("soc-chaos-proxy".into())
            .spawn(move || {
                let rng = Arc::new(Mutex::new(FaultRng::new(faults.seed)));
                // Each tunnel's thread and a handle on its client socket.
                let mut tunnels: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
                // Same blocking-accept + self-connect wake-up shutdown
                // protocol as HttpServer.
                while let Ok((client, _peer)) = listener.accept() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    stats2.connections.fetch_add(1, Ordering::Relaxed);
                    let Ok(cut) = client.try_clone() else { continue };
                    let stats = stats2.clone();
                    let faults = faults.clone();
                    let rng = rng.clone();
                    stats.open.fetch_add(1, Ordering::AcqRel);
                    let t = std::thread::spawn(move || {
                        tunnel(client, upstream, &faults, &rng, &stats);
                        stats.open.fetch_sub(1, Ordering::AcqRel);
                    });
                    tunnels.push((t, cut));
                    // Reap finished tunnels so the vec stays bounded.
                    tunnels.retain(|(t, _)| !t.is_finished());
                }
                // Cut every open tunnel before joining it: a pooled
                // keep-alive connection otherwise idles in `read` until
                // its socket timeout. The upstream then sees the request
                // path close and ends the response path.
                for (_, client) in &tunnels {
                    let _ = client.shutdown(Shutdown::Both);
                }
                for (t, _) in tunnels {
                    let _ = t.join();
                }
            })
            .map_err(|e| HttpError::Io(e.to_string()))?;

        Ok(FaultProxy { addr, stop, stats, accept_thread: Some(accept_thread) })
    }

    /// The proxy's listening address (register THIS with the gateway).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL of the proxy.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Fault counters.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Tunnels currently open.
    pub fn open_tunnels(&self) -> i64 {
        self.stats.open.load(Ordering::Acquire)
    }

    /// Stop accepting, cut every open tunnel, and join the accept loop
    /// and every tunnel.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn io_err(e: std::io::Error) -> HttpError {
    HttpError::Io(e.to_string())
}

/// Tunnel one client connection to `upstream`, drawing a fresh fault
/// verdict for each response read-burst.
fn tunnel(
    client: TcpStream,
    upstream: SocketAddr,
    faults: &ProxyFaults,
    rng: &Mutex<FaultRng>,
    stats: &ProxyStats,
) {
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    for s in [&client, &server] {
        s.set_read_timeout(Some(Duration::from_secs(10))).ok();
        s.set_write_timeout(Some(Duration::from_secs(10))).ok();
        s.set_nodelay(true).ok();
    }

    // Request path: copy client → upstream verbatim on a helper thread.
    let (Ok(client_rx), Ok(server_tx)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let up = std::thread::spawn(move || copy_until_eof(client_rx, server_tx));

    // Response path (where the faults live), on this thread.
    pump_response(server, client, faults, rng, stats);
    let _ = up.join();
}

/// Pump response bytes upstream → client, drawing one verdict per read
/// burst. With `TCP_NODELAY` and the single-write responses this stack
/// produces, one burst corresponds to one response, so a keep-alive
/// connection carrying N exchanges consumes N draws from the seeded
/// stream. A reset or truncation ends the tunnel.
fn pump_response(
    mut from: TcpStream,
    mut to: TcpStream,
    faults: &ProxyFaults,
    rng: &Mutex<FaultRng>,
    stats: &ProxyStats,
) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let verdict = faults.verdict(&mut rng.lock());
        let (forward, cut) = match verdict {
            ProxyVerdict::Clean => (n, false),
            ProxyVerdict::Delay => {
                stats.delays.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(faults.delay);
                (n, false)
            }
            // Mid-headers: even a status line is longer than 12 bytes.
            ProxyVerdict::Reset => {
                stats.resets.fetch_add(1, Ordering::Relaxed);
                (n.min(12), true)
            }
            // Drop the tail of the burst: for the small responses in
            // this stack that lands mid-body, after the headers.
            ProxyVerdict::Truncate => {
                stats.truncations.fetch_add(1, Ordering::Relaxed);
                (n.saturating_sub(4), true)
            }
        };
        if to.write_all(&buf[..forward]).is_err() || cut {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

/// Pump bytes `from` → `to` untouched until EOF or error, closing both
/// write halves on exit so the peer observes the end.
fn copy_until_eof(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
    let _ = from.shutdown(Shutdown::Read);
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_http::{HttpClient, HttpServer, Request, Response};

    fn upstream() -> HttpServer {
        HttpServer::bind("127.0.0.1:0", 2, |_req: Request| {
            Response::json("{\"payload\":\"0123456789abcdef\"}")
        })
        .unwrap()
    }

    #[test]
    fn clean_proxy_is_transparent() {
        let server = upstream();
        let mut proxy = FaultProxy::bind(server.addr(), ProxyFaults::seeded(1)).unwrap();
        let client = HttpClient::new();
        for _ in 0..3 {
            let resp = client.send(Request::get(format!("{}/x", proxy.url()))).unwrap();
            assert!(resp.status.is_success());
            assert!(resp.text_body().unwrap().contains("0123456789abcdef"));
        }
        // A pooled keep-alive client sends all three exchanges down one
        // proxied connection.
        assert_eq!(proxy.stats().connections.load(Ordering::Relaxed), 1);
        assert_eq!(client.pool_stats().reused, 2);
        // The pooled connection idles in its tunnel: shutdown must cut
        // it rather than wait out the tunnel's socket timeout.
        let started = std::time::Instant::now();
        proxy.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown took {:?}",
            started.elapsed()
        );
        assert_eq!(proxy.open_tunnels(), 0, "tunnels must drain on shutdown");
    }

    #[test]
    fn reset_and_truncate_break_the_read_mid_response() {
        let server = upstream();
        for faults in
            [ProxyFaults::seeded(2).with_reset(1.0), ProxyFaults::seeded(2).with_truncate(1.0)]
        {
            let proxy = FaultProxy::bind(server.addr(), faults).unwrap();
            let client = HttpClient::new();
            let err = client.send(Request::get(format!("{}/x", proxy.url())));
            assert!(err.is_err(), "a cut response must surface as an error: {err:?}");
        }
    }

    #[test]
    fn verdicts_are_deterministic_per_seed() {
        let faults = ProxyFaults::seeded(42).with_reset(0.3).with_truncate(0.2);
        let draw = |f: &ProxyFaults| {
            let mut rng = FaultRng::new(f.seed);
            (0..64).map(|_| f.verdict(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(&faults), draw(&faults));
        let mixed = draw(&faults);
        assert!(mixed.contains(&ProxyVerdict::Reset));
        assert!(mixed.contains(&ProxyVerdict::Truncate));
        assert!(mixed.contains(&ProxyVerdict::Clean));
    }

    #[test]
    fn delay_stalls_but_succeeds() {
        let server = upstream();
        let proxy = FaultProxy::bind(
            server.addr(),
            ProxyFaults::seeded(3).with_delay(1.0, Duration::from_millis(40)),
        )
        .unwrap();
        let client = HttpClient::new();
        let start = std::time::Instant::now();
        let resp = client.send(Request::get(format!("{}/x", proxy.url()))).unwrap();
        assert!(resp.status.is_success());
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert_eq!(proxy.stats().delays.load(Ordering::Relaxed), 1);
    }
}
