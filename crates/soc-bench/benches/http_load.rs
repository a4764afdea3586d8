//! C10K load harness for the HTTP transports.
//!
//! Three experiments, all against the same `/ping` handler:
//!
//! 1. **C10K**: establish ~10k keep-alive connections against the
//!    reactor transport (scaled to the process fd limit) and leave them
//!    parked; request latency through the loaded server must stay under
//!    budget — idle connections may cost file descriptors, never
//!    throughput.
//! 2. **Open loop**: a poller-based load generator offers requests on a
//!    fixed arrival schedule across many pipelined keep-alive
//!    connections — arrivals do not wait for completions, so queueing
//!    delay shows up in the latency rows instead of silently throttling
//!    the offered load (the closed-loop-measurement mistake).
//! 3. **Reactor vs threaded**: the same offered load, equal workers,
//!    connections >> workers. The threaded transport pins one worker
//!    per live connection, so most connections starve; the reactor
//!    multiplexes all of them. The reactor-over-threaded throughput
//!    ratio is budgeted above 1.
//!
//! The runs are long, stateful scenarios rather than timed closures;
//! `cargo bench --bench http_load` asserts their budgets and records
//! them in `BENCH_http_load.json`.

#[cfg(target_os = "linux")]
mod load {
    use std::collections::VecDeque;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    use soc_bench::{percentile, Record};
    use soc_http::poller::{Interest, Poller};
    use soc_http::{HttpServer, Request, Response, ServerConfig, ServerTransport};

    fn handler(req: Request) -> Response {
        match req.path() {
            "/ping" => Response::text("pong"),
            _ => Response::error(soc_http::Status(404), "no such route"),
        }
    }

    fn bind(transport: ServerTransport, workers: usize, max_connections: usize) -> HttpServer {
        HttpServer::bind_with(
            "127.0.0.1:0",
            ServerConfig {
                workers,
                max_connections,
                transport,
                keep_alive_timeout: Duration::from_secs(60),
                ..ServerConfig::default()
            },
            handler,
        )
        .expect("bind load server")
    }

    // ------------------------------------------------------------------
    // fd limit (raw FFI; no libc crate in this workspace)
    // ------------------------------------------------------------------

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    /// Raise the soft fd limit to the hard limit and return it.
    fn max_fds() -> u64 {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 1024;
        }
        if lim.cur < lim.max {
            let raised = Rlimit { cur: lim.max, max: lim.max };
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
                return lim.max;
            }
        }
        lim.cur
    }

    // ------------------------------------------------------------------
    // Minimal blocking exchange used while establishing connections
    // ------------------------------------------------------------------

    const PING: &[u8] = b"GET /ping HTTP/1.1\r\nHost: l\r\n\r\n";

    /// Write one ping and read its complete response off `stream`.
    fn blocking_ping(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> bool {
        if stream.write_all(PING).is_err() {
            return false;
        }
        scratch.clear();
        let mut byte = [0u8; 256];
        loop {
            match stream.read(&mut byte) {
                Ok(0) | Err(_) => return false,
                Ok(n) => scratch.extend_from_slice(&byte[..n]),
            }
            if let Some((consumed, _)) = parse_one_response(scratch) {
                return consumed == scratch.len();
            }
        }
    }

    /// If `buf` starts with one complete response, return (bytes
    /// consumed, status). The load path only needs framing, not full
    /// header semantics: find the head, read `Content-Length`, skip.
    fn parse_one_response(buf: &[u8]) -> Option<(usize, u16)> {
        let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&buf[..head_end]).ok()?;
        let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
        let mut len = 0usize;
        for line in head.split("\r\n") {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().ok()?;
                }
            }
        }
        (buf.len() >= head_end + len).then_some((head_end + len, status))
    }

    // ------------------------------------------------------------------
    // Experiment 1: C10K parked connections
    // ------------------------------------------------------------------

    pub fn c10k(rec: &mut Record) {
        let fd_budget = max_fds();
        // Each connection costs two fds in this single-process harness
        // (client end + server end); keep headroom for the rest of the
        // suite.
        let target = (((fd_budget.saturating_sub(1500)) / 2) as usize).min(10_000);
        let server = bind(ServerTransport::Reactor, 2, target + 64);
        let addr = server.addr();

        let mut parked: Vec<TcpStream> = Vec::with_capacity(target);
        let mut scratch = Vec::with_capacity(256);
        while parked.len() < target {
            let mut stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => break,
            };
            stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
            stream.set_nodelay(true).ok();
            // One round trip proves the reactor accepted and parked it
            // (and paces connects under the listener backlog).
            if !blocking_ping(&mut stream, &mut scratch) {
                break;
            }
            parked.push(stream);
        }
        let conns = parked.len();

        // With every connection idle in the epoll set, fresh requests
        // must still clear in milliseconds.
        let mut lat = Vec::with_capacity(1000);
        let probe = &mut parked[0..50];
        for i in 0..1000 {
            let stream = &mut probe[i % 50];
            let start = Instant::now();
            assert!(blocking_ping(stream, &mut scratch), "probe ping failed under C10K load");
            lat.push(start.elapsed().as_nanos() as u64);
        }
        lat.sort_unstable();

        assert!(
            conns as u64 >= (fd_budget.saturating_sub(1500)) / 2 || conns >= 10_000,
            "only established {conns} connections (fd budget {fd_budget})"
        );
        rec.value("c10k_conns", conns as f64, "connections");
        rec.value("c10k_request_p50", percentile(&lat, 0.50) as f64 / 1e3, "us");
        // Generous for CI noise; the point is "milliseconds, not seconds".
        rec.value("c10k_request_p99", percentile(&lat, 0.99) as f64 / 1e3, "us").max(50_000.0);
    }

    // ------------------------------------------------------------------
    // Experiment 2/3: open-loop generator
    // ------------------------------------------------------------------

    struct LoadConn {
        stream: TcpStream,
        /// Bytes written by arrivals but not yet accepted by the kernel.
        out: Vec<u8>,
        /// Unparsed response bytes.
        buf: Vec<u8>,
        /// Send timestamps of in-flight requests, FIFO (HTTP/1.1
        /// pipelining: responses come back in order).
        inflight: VecDeque<Instant>,
        dead: bool,
    }

    pub struct OpenLoopResult {
        pub offered_rps: f64,
        pub achieved_rps: f64,
        pub completed: u64,
        pub errors: u64,
        pub p50_us: f64,
        pub p99_us: f64,
    }

    /// Offer `rate` requests/second for `duration` across `n_conns`
    /// pipelined connections (uniform arrivals, round-robin placement),
    /// then drain. Arrivals never wait for completions: on an
    /// overloaded server the queues grow and the p99 shows it.
    pub fn open_loop(
        addr: SocketAddr,
        n_conns: usize,
        rate: f64,
        duration: Duration,
    ) -> OpenLoopResult {
        let poller = Poller::new().expect("poller");
        let mut conns = Vec::with_capacity(n_conns);
        for i in 0..n_conns {
            let stream = TcpStream::connect(addr).expect("connect load conn");
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true).expect("nonblocking");
            poller.add(stream.as_raw_fd(), i as u64, Interest::READ).expect("register");
            conns.push(LoadConn {
                stream,
                out: Vec::new(),
                buf: Vec::new(),
                inflight: VecDeque::new(),
                dead: false,
            });
        }

        let interval = Duration::from_secs_f64(1.0 / rate);
        let started = Instant::now();
        let end = started + duration;
        let mut next_arrival = started;
        let mut sent: u64 = 0;
        let mut completed: u64 = 0;
        let mut errors: u64 = 0;
        let mut latencies: Vec<u64> = Vec::new();
        let mut events = Vec::new();
        let mut read_chunk = [0u8; 16 * 1024];

        let drain_deadline = end + Duration::from_secs(2);
        loop {
            let now = Instant::now();
            let sending = now < end;
            if !sending && (conns.iter().all(|c| c.inflight.is_empty()) || now >= drain_deadline) {
                break;
            }

            // Fire every arrival whose time has come (open loop: the
            // schedule, not the server, decides).
            while sending && now >= next_arrival {
                let idx = (sent as usize) % conns.len();
                next_arrival += interval;
                sent += 1;
                let conn = &mut conns[idx];
                if conn.dead {
                    errors += 1;
                    continue;
                }
                conn.inflight.push_back(now);
                conn.out.extend_from_slice(PING);
                flush(&poller, conn, idx as u64, &mut errors);
            }

            let timeout = if sending {
                next_arrival.saturating_duration_since(Instant::now())
            } else {
                drain_deadline.saturating_duration_since(Instant::now())
            };
            poller.wait(&mut events, Some(timeout.max(Duration::from_micros(50)))).ok();
            for ev in events.clone() {
                let idx = ev.token as usize;
                let conn = &mut conns[idx];
                if conn.dead {
                    continue;
                }
                if ev.writable {
                    flush(&poller, conn, ev.token, &mut errors);
                }
                if ev.readable || ev.hangup {
                    loop {
                        match conn.stream.read(&mut read_chunk) {
                            Ok(0) => {
                                die(&poller, conn, &mut errors);
                                break;
                            }
                            Ok(n) => conn.buf.extend_from_slice(&read_chunk[..n]),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(_) => {
                                die(&poller, conn, &mut errors);
                                break;
                            }
                        }
                    }
                    while let Some((consumed, status)) = parse_one_response(&conn.buf) {
                        conn.buf.drain(..consumed);
                        match conn.inflight.pop_front() {
                            Some(t0) if status == 200 => {
                                completed += 1;
                                latencies.push(t0.elapsed().as_nanos() as u64);
                            }
                            _ => errors += 1,
                        }
                    }
                }
            }
        }

        let elapsed = started.elapsed().as_secs_f64();
        latencies.sort_unstable();
        let pct = |q| percentile(&latencies, q) as f64 / 1e3;
        OpenLoopResult {
            offered_rps: rate,
            achieved_rps: completed as f64 / elapsed,
            completed,
            errors,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
        }
    }

    fn flush(poller: &Poller, conn: &mut LoadConn, token: u64, errors: &mut u64) {
        while !conn.out.is_empty() {
            match conn.stream.write(&conn.out) {
                Ok(0) => {
                    die(poller, conn, errors);
                    return;
                }
                Ok(n) => {
                    conn.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    poller
                        .modify(
                            conn.stream.as_raw_fd(),
                            token,
                            Interest { readable: true, writable: true },
                        )
                        .ok();
                    return;
                }
                Err(_) => {
                    die(poller, conn, errors);
                    return;
                }
            }
        }
        poller.modify(conn.stream.as_raw_fd(), token, Interest::READ).ok();
    }

    fn die(poller: &Poller, conn: &mut LoadConn, errors: &mut u64) {
        poller.delete(conn.stream.as_raw_fd()).ok();
        *errors += conn.inflight.len() as u64;
        conn.inflight.clear();
        conn.dead = true;
    }

    // ------------------------------------------------------------------
    // Drivers
    // ------------------------------------------------------------------

    pub fn latency_vs_offered_load(rec: &mut Record) {
        let server = bind(ServerTransport::Reactor, 2, 256);
        for (label, rate) in
            [("open_loop_1k", 1_000.0), ("open_loop_4k", 4_000.0), ("open_loop_12k", 12_000.0)]
        {
            let r = open_loop(server.addr(), 32, rate, Duration::from_millis(800));
            println!(
                "  offered {:>7.0} rps -> achieved {:>7.0} rps, {} completed, {} errors, \
                 p50 {:.0} us, p99 {:.0} us",
                r.offered_rps, r.achieved_rps, r.completed, r.errors, r.p50_us, r.p99_us
            );
            rec.value(label, r.achieved_rps, "rps");
            rec.value(&format!("{label}_p99"), r.p99_us, "us");
        }
    }

    /// The tentpole comparison: same offered load, equal workers, 32
    /// connections against 2 workers.
    pub fn reactor_vs_threaded(rec: &mut Record) {
        let run = |transport| {
            let server = bind(transport, 2, 256);
            let r = open_loop(server.addr(), 32, 6_000.0, Duration::from_millis(1200));
            println!(
                "  {:?}: achieved {:>7.0} rps, {} completed, {} errors, p99 {:.0} us",
                transport, r.achieved_rps, r.completed, r.errors, r.p99_us
            );
            r.achieved_rps
        };
        let reactor = run(ServerTransport::Reactor);
        let threaded = run(ServerTransport::Threaded);
        rec.value("peak_reactor_rps", reactor, "rps");
        rec.value("peak_threaded_rps", threaded, "rps");
        // The reactor must beat threaded at equal workers once
        // connections outnumber workers.
        rec.value("reactor_over_threaded", reactor / threaded, "ratio").min(1.0);
    }
}

#[cfg(target_os = "linux")]
fn main() {
    let mut rec = soc_bench::Record::new("http_load");
    println!("== C10K: parked keep-alive connections on the reactor ==");
    load::c10k(&mut rec);
    println!("== open loop: latency vs offered load (reactor, 32 conns) ==");
    load::latency_vs_offered_load(&mut rec);
    println!("== reactor vs threaded at equal workers (32 conns, 2 workers) ==");
    load::reactor_vs_threaded(&mut rec);
    rec.finish();
}

#[cfg(not(target_os = "linux"))]
fn main() {
    println!("http_load: reactor transport is Linux-only; nothing to measure");
}
