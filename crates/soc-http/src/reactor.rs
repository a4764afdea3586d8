//! The readiness-driven server transport: one event-loop thread owns
//! every connection's I/O, handlers run on the `soc-parallel` pool.
//!
//! The threaded transport parks one pool thread per connection, which
//! caps real concurrency at pool size — an idle keep-alive connection
//! costs a whole blocked thread. Here the reactor multiplexes all
//! connections over a [`Poller`](crate::poller::Poller) (epoll on
//! Linux): sockets are nonblocking, each connection is a small state
//! machine
//!
//! ```text
//! ReadingHead → ReadingBody → Handling → Writing ─┐
//!      ▲                                          │ keep-alive
//!      └────────────── KeepAlive ◄────────────────┘
//! ```
//!
//! and the bytes live in per-connection incremental codec buffers
//! instead of a thread's stack. When a full request has been parsed the
//! reactor hands it to the worker pool (`Handling`) with read interest
//! parked; the worker runs the same `Handler`/span/panic-catch path as
//! the threaded transport and serializes the response. The reactor
//! never executes handler code.
//!
//! The worker then writes the response itself, on the nonblocking
//! socket it shares with the loop through an `Arc<TcpStream>`. When
//! the whole response went out and the connection stays open, it
//! queues a `Written` completion and re-arms `READ` with `epoll_ctl`:
//! no eventfd wake, no hop back to the loop before the client sees its
//! answer. The completion is queued before the re-arm, and the loop
//! applies completions before it dispatches each event batch, so the
//! readiness that the client's next request raises always finds the
//! connection back in `KeepAlive`. A partial write, a closing
//! connection, or a write error falls back to the completion queue:
//! the worker hands over the unwritten bytes and wakes the loop through
//! the eventfd [`Waker`](crate::poller::Waker), and the loop finishes
//! the write under `WRITE` interest. Only one side writes at a time —
//! the worker while the connection is `Handling`, the loop after. The
//! `Arc` keeps the descriptor open while a worker holds it, so a
//! connection the loop closes meanwhile cannot have its fd reused
//! under the worker; the worker's re-arm of a deregistered fd just
//! fails. `soc_http_responses_total{write="worker"|"reactor"}` counts
//! which side finished each response.
//!
//! Backpressure at the connection cap is identical to the threaded
//! transport: connections over `max_connections` are shed with a
//! `503 + Retry-After` written from the accept path, and counted in
//! `ServerStats::shed`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use soc_observe::Counter;
use soc_parallel::ThreadPool;

use crate::codec::{self, BodyFraming};
use crate::poller::{Event, Interest, Poller, Waker};
use crate::server::{Handler, ServerStats};
use crate::types::{Headers, HttpError, HttpResult, Method, Request, Response, Status, Version};

/// Reactor tunables, copied out of `ServerConfig` by `bind_with`.
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    pub workers: usize,
    pub max_connections: usize,
    pub io_timeout: Duration,
    pub keep_alive_timeout: Duration,
    pub body_limit: usize,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// How often the loop wakes to sweep deadlines when nothing is ready.
const SWEEP_INTERVAL: Duration = Duration::from_millis(250);

/// Per-read scratch size.
const READ_CHUNK: usize = 16 * 1024;

/// A handler's finished work, travelling pool → reactor.
struct Completion {
    slot: usize,
    gen: u64,
    outcome: Outcome,
}

enum Outcome {
    /// The worker wrote the whole response and re-armed `READ`.
    Written,
    /// The loop finishes the response: `bytes[written..]` is still
    /// unsent (possibly nothing, when only the close is left). `bytes`
    /// is `None` when serialization or the write failed: the connection
    /// is closed without a response, like the threaded transport's
    /// failed write.
    Pending { bytes: Option<Vec<u8>>, written: usize, close: bool },
}

fn token(slot: usize) -> u64 {
    slot as u64 + TOKEN_BASE
}

// ---------------------------------------------------------------------
// Incremental request parser
// ---------------------------------------------------------------------

/// Where a connection's parser is inside the current message.
enum Phase {
    /// Accumulating the request line + headers.
    Head,
    /// Head parsed; accumulating the body.
    Body { head: Head, framing: BodyFraming, body: Vec<u8>, chunk: ChunkPhase },
}

struct Head {
    method: Method,
    target: String,
    version: Version,
    headers: Headers,
}

/// Sub-state of an incremental chunked-body decode.
enum ChunkPhase {
    SizeLine,
    /// Inside a chunk's data. `until` is the body length at which this
    /// chunk is complete — derived from `body.len()` rather than a
    /// countdown so that bytes appended through the direct-read window
    /// (which bypass the lookahead buffer) are accounted for free.
    Data {
        until: usize,
    },
    /// The CRLF that terminates a chunk's data.
    DataEnd,
    Trailer {
        budget: usize,
    },
}

/// Incremental HTTP/1.1 request parser over an owned byte buffer.
///
/// Bytes are appended as the socket produces them; [`advance`] consumes
/// complete messages. Framing decisions (`Content-Length` vs `chunked`,
/// smuggling rejections, body limits, chunk-size overflow) are the
/// shared `codec` routines, so the two transports cannot drift.
pub(crate) struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    /// Head-terminator scan cursor, so repeated partial reads don't
    /// rescan the whole head.
    scan: usize,
    phase: Phase,
    body_limit: usize,
}

/// Next `\n` at or after `from`, scanning 8 bytes per iteration (the
/// same SWAR technique as `soc_xml::scan` / `soc_json::scan`): XOR with
/// a broadcast `\n` turns matches into zero bytes, and the carry trick
/// flags zero lanes in the high bits.
fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const NEEDLE: u64 = LO * b'\n' as u64;
    let mut i = from;
    while i + 8 <= buf.len() {
        let v = u64::from_le_bytes(buf[i..i + 8].try_into().unwrap()) ^ NEEDLE;
        let hits = !((v & !HI).wrapping_add(!HI) | v) & HI;
        if hits != 0 {
            return Some(i + (hits.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    buf[i..].iter().position(|&b| b == b'\n').map(|p| i + p)
}

/// One past the end of the head section (the blank line), if complete.
/// Lines may end `\r\n` or bare `\n`, matching the blocking reader.
/// Hops newline-to-newline (batched scan) instead of stepping bytes.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while let Some(nl) = find_newline(buf, i) {
        if buf.get(nl + 1) == Some(&b'\n') {
            return Some(nl + 2);
        }
        if buf.get(nl + 1) == Some(&b'\r') && buf.get(nl + 2) == Some(&b'\n') {
            return Some(nl + 3);
        }
        i = nl + 1;
    }
    None
}

/// Next `\n`-terminated line starting at `pos`: `(line_bytes_end,
/// next_pos)` with the trailing `\r` (if any) excluded from the line.
fn find_line(buf: &[u8], pos: usize) -> Option<(usize, usize)> {
    let nl = find_newline(buf, pos)?;
    let end = if nl > pos && buf[nl - 1] == b'\r' { nl - 1 } else { nl };
    Some((end, nl + 1))
}

impl RequestParser {
    pub(crate) fn new(body_limit: usize) -> RequestParser {
        RequestParser { buf: Vec::new(), pos: 0, scan: 0, phase: Phase::Head, body_limit }
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True between messages with nothing buffered: the connection is
    /// genuinely idle (keep-alive), not mid-request.
    fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Head) && self.buffered() == 0
    }

    fn in_body(&self) -> bool {
        matches!(self.phase, Phase::Body { .. })
    }

    /// Mid-body with the lookahead buffer drained: returns the body
    /// vector and how many bytes it can still take, so the transport
    /// can read wire bytes straight into the final allocation — the
    /// one the handler (and the XML/JSON parsers borrowing from
    /// `Request::body`) will see — instead of copying
    /// scratch → lookahead buffer → body. Opens for a
    /// `Content-Length` body and, under `Transfer-Encoding: chunked`,
    /// for the data section of the current chunk (framing metadata —
    /// size lines, chunk CRLFs, trailers — still goes through the
    /// lookahead buffer).
    fn direct_body(&mut self) -> Option<(&mut Vec<u8>, usize)> {
        if self.pos < self.buf.len() {
            return None;
        }
        let Phase::Body { framing, body, chunk, .. } = &mut self.phase else {
            return None;
        };
        let target = match (&*framing, &*chunk) {
            (BodyFraming::Length(n), _) => *n,
            (BodyFraming::Chunked, ChunkPhase::Data { until }) => *until,
            _ => return None,
        };
        if body.len() < target {
            let need = target - body.len();
            Some((body, need))
        } else {
            None
        }
    }

    /// Consume as much as possible; `Ok(Some(..))` when one complete
    /// request has been parsed (leftover pipelined bytes stay buffered).
    fn advance(&mut self) -> HttpResult<Option<(Request, Version)>> {
        loop {
            match &mut self.phase {
                Phase::Head => {
                    let from = self.scan.max(self.pos);
                    match find_head_end(&self.buf, from) {
                        Some(end) => {
                            let (method, target, version, headers) =
                                codec::parse_request_head(&self.buf[self.pos..end])?;
                            let framing = codec::body_framing(&headers, self.body_limit)?;
                            let body = match framing {
                                // Cap the preallocation: the length is
                                // attacker-controlled and the bytes may
                                // never arrive.
                                BodyFraming::Length(n) => Vec::with_capacity(n.min(16 * 1024)),
                                BodyFraming::Chunked => Vec::new(),
                            };
                            self.pos = end;
                            self.scan = end;
                            self.phase = Phase::Body {
                                head: Head { method, target, version, headers },
                                framing,
                                body,
                                chunk: ChunkPhase::SizeLine,
                            };
                        }
                        None => {
                            if self.buffered() > codec::HEADER_LIMIT {
                                return Err(HttpError::Malformed(
                                    "header section too large".into(),
                                ));
                            }
                            // Re-scan with overlap so a terminator split
                            // across reads is still found.
                            self.scan = self.buf.len().saturating_sub(3).max(self.pos);
                            return Ok(None);
                        }
                    }
                }
                Phase::Body { framing: BodyFraming::Length(n), body, .. } => {
                    let need = *n - body.len();
                    let take = need.min(self.buf.len() - self.pos);
                    body.extend_from_slice(&self.buf[self.pos..self.pos + take]);
                    self.pos += take;
                    if body.len() < *n {
                        return Ok(None);
                    }
                    return Ok(Some(self.finish()));
                }
                Phase::Body { framing: BodyFraming::Chunked, body, chunk, .. } => match chunk {
                    ChunkPhase::SizeLine => match find_line(&self.buf, self.pos) {
                        Some((line_end, next)) => {
                            let line = std::str::from_utf8(&self.buf[self.pos..line_end]).map_err(
                                |_| HttpError::Malformed("non-UTF-8 header line".into()),
                            )?;
                            let size = codec::parse_chunk_size(line, body.len(), self.body_limit)?;
                            self.pos = next;
                            *chunk = if size == 0 {
                                ChunkPhase::Trailer { budget: codec::TRAILER_LIMIT }
                            } else {
                                ChunkPhase::Data { until: body.len() + size }
                            };
                        }
                        None => {
                            if self.buffered() > 1024 {
                                return Err(HttpError::Malformed(
                                    "bad chunk size: line too long".into(),
                                ));
                            }
                            return Ok(None);
                        }
                    },
                    ChunkPhase::Data { until } => {
                        let take = (*until - body.len()).min(self.buf.len() - self.pos);
                        body.extend_from_slice(&self.buf[self.pos..self.pos + take]);
                        self.pos += take;
                        if body.len() < *until {
                            return Ok(None);
                        }
                        *chunk = ChunkPhase::DataEnd;
                    }
                    ChunkPhase::DataEnd => {
                        if self.buf.len() - self.pos < 2 {
                            return Ok(None);
                        }
                        if &self.buf[self.pos..self.pos + 2] != b"\r\n" {
                            return Err(HttpError::Malformed("missing CRLF after chunk".into()));
                        }
                        self.pos += 2;
                        *chunk = ChunkPhase::SizeLine;
                    }
                    ChunkPhase::Trailer { budget } => match find_line(&self.buf, self.pos) {
                        Some((line_end, next)) => {
                            let consumed = next - self.pos;
                            if consumed > *budget {
                                return Err(HttpError::Malformed(
                                    "header section too large".into(),
                                ));
                            }
                            *budget -= consumed;
                            let empty = line_end == self.pos;
                            self.pos = next;
                            if empty {
                                return Ok(Some(self.finish()));
                            }
                        }
                        None => {
                            if self.buf.len() - self.pos > *budget {
                                return Err(HttpError::Malformed(
                                    "header section too large".into(),
                                ));
                            }
                            return Ok(None);
                        }
                    },
                },
            }
        }
    }

    /// Package the completed message and reset for the next one,
    /// keeping any pipelined leftover bytes.
    fn finish(&mut self) -> (Request, Version) {
        let Phase::Body { head, body, .. } = std::mem::replace(&mut self.phase, Phase::Head) else {
            unreachable!("finish called outside body phase");
        };
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.scan = 0;
        (
            Request { method: head.method, target: head.target, headers: head.headers, body },
            head.version,
        )
    }
}

// ---------------------------------------------------------------------
// Connection state machine
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    ReadingHead,
    ReadingBody,
    Handling,
    Writing,
    KeepAlive,
}

struct Conn {
    /// Shared with the worker that handles the current request, which
    /// writes the response itself.
    stream: Arc<TcpStream>,
    gen: u64,
    state: ConnState,
    parser: RequestParser,
    write_buf: Vec<u8>,
    written: usize,
    close_after_write: bool,
    /// Peer half-closed its write side; finish in-flight work, then
    /// close instead of going back to keep-alive.
    peer_closed: bool,
    deadline: Instant,
    interest: Interest,
}

struct Slab {
    entries: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn insert(&mut self, conn: Conn) -> usize {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = Some(conn);
                slot
            }
            None => {
                self.entries.push(Some(conn));
                self.entries.len() - 1
            }
        }
    }

    fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.entries.get_mut(slot)?.take()?;
        self.free.push(slot);
        self.live -= 1;
        Some(conn)
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.entries.get_mut(slot)?.as_mut()
    }
}

/// The state the loop shares with every worker, behind one `Arc`.
struct Shared {
    poller: Poller,
    waker: Arc<Waker>,
    handler: Arc<dyn Handler>,
    stats: Arc<ServerStats>,
    completions: Mutex<Vec<Completion>>,
    /// `soc_http_responses_total{write="worker"}`: responses a worker
    /// wrote in full.
    worker_writes: Counter,
}

impl Shared {
    /// Worker side of a response: write it straight to the socket (see
    /// the module docs). A complete write on a connection that stays
    /// open queues `Written` and re-arms `READ`; anything else queues
    /// the rest for the loop and wakes it.
    fn deliver(&self, slot: usize, gen: u64, stream: &TcpStream, bytes: Vec<u8>, close: bool) {
        let mut written = 0;
        let failed = loop {
            if written == bytes.len() {
                break false;
            }
            match (&*stream).write(&bytes[written..]) {
                Ok(0) => break true,
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        if written == bytes.len() {
            self.worker_writes.inc();
            if !close {
                self.completions.lock().push(Completion { slot, gen, outcome: Outcome::Written });
                // Queued before the re-arm: the readiness this raises
                // must find the completion already there.
                self.poller.modify(stream.as_raw_fd(), token(slot), Interest::READ).ok();
                return;
            }
        }
        let bytes = (!failed).then_some(bytes);
        self.hand_back(Completion {
            slot,
            gen,
            outcome: Outcome::Pending { bytes, written, close },
        });
    }

    /// The fallback path: queue work the loop must finish, and wake it.
    fn hand_back(&self, completion: Completion) {
        self.completions.lock().push(completion);
        self.waker.wake();
    }
}

struct Reactor {
    listener: TcpListener,
    shared: Arc<Shared>,
    cfg: ReactorConfig,
    stop: Arc<AtomicBool>,
    pool: ThreadPool,
    conns: Slab,
    gen: u64,
    shed_counter: Counter,
    /// `soc_http_responses_total{write="reactor"}`: responses the loop
    /// finished writing (worker fallbacks and its own 400s).
    reactor_writes: Counter,
}

/// Create the poller + waker and spawn the event-loop thread. The
/// returned waker unblocks the loop so `shutdown` is immediate.
pub(crate) fn spawn(
    listener: TcpListener,
    cfg: ReactorConfig,
    handler: Arc<dyn Handler>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
) -> HttpResult<(std::thread::JoinHandle<()>, Arc<Waker>)> {
    let io_err = |e: std::io::Error| HttpError::Io(e.to_string());
    let poller = Poller::new().map_err(io_err)?;
    let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER).map_err(io_err)?);
    let waker2 = waker.clone();
    let thread = std::thread::Builder::new()
        .name("soc-http-reactor".into())
        .spawn(move || run(listener, poller, waker2, cfg, handler, stats, stop))
        .map_err(|e| HttpError::Io(e.to_string()))?;
    Ok((thread, waker))
}

/// Run the event loop until `stop` is set. Owns the listener, every
/// connection, and the worker pool; dropping on exit joins the pool.
fn run(
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
    cfg: ReactorConfig,
    handler: Arc<dyn Handler>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
) {
    let pool = ThreadPool::new(cfg.workers.max(1));
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    listener.set_ttl(64).ok();
    if poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ).is_err() {
        return;
    }
    let metrics = soc_observe::metrics();
    let shed_counter = metrics.counter("soc_http_connections_shed_total", &[]);
    let responses = |write| metrics.counter("soc_http_responses_total", &[("write", write)]);
    let mut reactor = Reactor {
        listener,
        shared: Arc::new(Shared {
            poller,
            waker,
            handler,
            stats,
            completions: Mutex::new(Vec::new()),
            worker_writes: responses("worker"),
        }),
        cfg,
        stop,
        pool,
        conns: Slab { entries: Vec::new(), free: Vec::new(), live: 0 },
        gen: 0,
        shed_counter,
        reactor_writes: responses("reactor"),
    };
    reactor.run_loop();
}

impl Reactor {
    fn run_loop(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + SWEEP_INTERVAL;
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            let timeout = next_sweep.saturating_duration_since(now);
            if self.shared.poller.wait(&mut events, Some(timeout)).is_err() {
                return;
            }
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            // Before the batch: a worker that re-armed `READ` queued its
            // `Written` first, so this puts the connection back in
            // `KeepAlive` before its readiness is dispatched.
            self.apply_completions();
            // Pull the batch out so `self` stays borrowable.
            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    token => self.conn_ready((token - TOKEN_BASE) as usize, ev),
                }
            }
            events = batch;
            // After the batch: completions queued before the drain above
            // consumed their wake.
            self.apply_completions();
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep_deadlines(now);
                next_sweep = now + SWEEP_INTERVAL;
            }
        }
    }

    // -- accept path --------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.live >= self.cfg.max_connections {
                        self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                        self.shed_counter.inc();
                        // Accepted sockets don't inherit nonblocking
                        // from the listener, so the bounded blocking
                        // write in `shed_connection` applies as-is.
                        crate::server::shed_connection(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    self.gen += 1;
                    let conn = Conn {
                        stream: Arc::new(stream),
                        gen: self.gen,
                        state: ConnState::ReadingHead,
                        parser: RequestParser::new(self.cfg.body_limit),
                        write_buf: Vec::new(),
                        written: 0,
                        close_after_write: false,
                        peer_closed: false,
                        deadline: Instant::now() + self.cfg.io_timeout,
                        interest: Interest::READ,
                    };
                    let fd = conn.stream.as_raw_fd();
                    let slot = self.conns.insert(conn);
                    if self.shared.poller.add(fd, token(slot), Interest::READ).is_err() {
                        self.conns.remove(slot);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept failures (fd exhaustion, aborted
                // handshakes): back off briefly instead of spinning on
                // a level-triggered readable listener.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    return;
                }
            }
        }
    }

    // -- connection events --------------------------------------------

    fn conn_ready(&mut self, slot: usize, ev: &Event) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        match conn.state {
            ConnState::Writing => {
                if ev.writable || ev.hangup {
                    self.write_ready(slot);
                }
            }
            ConnState::Handling => {
                // Interest is NONE while a worker owns the request, but
                // RDHUP/ERR still arrive. Probe: a half-close keeps the
                // connection (the response is still deliverable); a
                // hard error drops it.
                if ev.hangup {
                    let mut probe = [0u8; 64];
                    match (&*conn.stream).read(&mut probe) {
                        Ok(0) => conn.peer_closed = true,
                        Ok(n) => conn.parser.push(&probe[..n]),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.close(slot);
                        }
                    }
                }
            }
            ConnState::ReadingHead | ConnState::ReadingBody | ConnState::KeepAlive => {
                if ev.readable || ev.hangup {
                    self.read_ready(slot);
                }
            }
        }
    }

    fn read_ready(&mut self, slot: usize) {
        let mut scratch = [0u8; READ_CHUNK];
        // Bound buffered-but-unparsed bytes: past this a peer is either
        // over a limit the parser will reject or flooding pipelined
        // requests ahead of our responses.
        let cap = self.cfg.body_limit + codec::HEADER_LIMIT + READ_CHUNK;
        loop {
            let Some(conn) = self.conns.get_mut(slot) else { return };
            if conn.parser.buffered() > cap {
                break;
            }
            // Mid-body (`Content-Length`, or the data section of a
            // chunk): read straight into the body allocation the
            // handler will own, skipping the scratch → lookahead-buffer
            // → body double copy. Growth is bounded per read, so a
            // claimed-but-never-sent length cannot force a large
            // allocation up front.
            let read = if let Some((body, need)) = conn.parser.direct_body() {
                let start = body.len();
                body.resize(start + need.min(READ_CHUNK), 0);
                let r = (&*conn.stream).read(&mut body[start..]);
                body.truncate(start + *r.as_ref().unwrap_or(&0));
                r
            } else {
                (&*conn.stream).read(&mut scratch).inspect(|&n| conn.parser.push(&scratch[..n]))
            };
            match read {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                // Drive the parser now rather than after the drain, so
                // once the head parses the rest of the body takes the
                // direct path. On a complete request `advance_parser`
                // dispatches and parks read interest; the poller is
                // level-triggered, so bytes left in the socket re-arm
                // readiness when interest returns.
                Ok(_) => {
                    if !self.advance_step(slot) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.advance_parser(slot);
    }

    /// One parser step during the read loop: returns `false` when the
    /// connection left the reading states (request dispatched, 400 sent,
    /// or closed) and the caller must stop reading.
    fn advance_step(&mut self, slot: usize) -> bool {
        self.advance_parser(slot);
        matches!(
            self.conns.get_mut(slot).map(|c| c.state),
            Some(ConnState::ReadingHead | ConnState::ReadingBody | ConnState::KeepAlive)
        )
    }

    /// Drive the parser; dispatch on a complete request, 400 on a
    /// malformed one, close on a truncated one.
    fn advance_parser(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        match conn.parser.advance() {
            Ok(Some((req, version))) => {
                conn.state = ConnState::Handling;
                // The handler owns the clock now; handler execution has
                // no timeout on either transport.
                conn.deadline = Instant::now() + Duration::from_secs(3600);
                self.set_interest(slot, Interest::NONE);
                self.dispatch(slot, req, version);
            }
            Ok(None) => {
                if conn.peer_closed {
                    // EOF between requests is a normal close; EOF mid-
                    // request is truncation. Neither gets a response,
                    // matching the blocking transport.
                    self.close(slot);
                    return;
                }
                let now = Instant::now();
                if conn.parser.is_idle() {
                    conn.state = ConnState::KeepAlive;
                    conn.deadline = now + self.cfg.keep_alive_timeout;
                } else {
                    conn.state = if conn.parser.in_body() {
                        ConnState::ReadingBody
                    } else {
                        ConnState::ReadingHead
                    };
                    conn.deadline = now + self.cfg.io_timeout;
                }
                self.set_interest(slot, Interest::READ);
            }
            Err(e) => {
                // Parse errors answer 400 and close, like the threaded
                // transport — with the close made explicit on the wire.
                let resp = Response::error(Status::BAD_REQUEST, &e.to_string())
                    .with_header("Connection", "close");
                match codec::encode_response(&resp) {
                    Ok(bytes) => self.start_write(slot, bytes, 0, true),
                    Err(_) => self.close(slot),
                }
            }
        }
    }

    /// Hand a parsed request to the worker pool.
    fn dispatch(&mut self, slot: usize, req: Request, version: Version) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        let gen = conn.gen;
        let stream = conn.stream.clone();
        let close_requested = codec::wants_close(version, &req.headers);
        let shared = self.shared.clone();
        self.pool.spawn_detached(move || {
            let handler = &shared.handler;
            let mut resp = crate::observe::serve_with_span(req, "http.server", |req| {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler.handle(req)))
                {
                    Ok(resp) => resp,
                    Err(_) => Response::error(Status::INTERNAL_SERVER_ERROR, "handler panicked"),
                }
            });
            if resp.status.0 >= 500 {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            }
            shared.stats.served.fetch_add(1, Ordering::Relaxed);
            // Close if the client asked, or the handler did. Either
            // way the peer (possibly a pooled client) must see it.
            let close = close_requested || resp.headers.has_token("Connection", "close");
            if close && !resp.headers.has_token("Connection", "close") {
                resp.headers.set("Connection", "close");
            }
            match codec::encode_response(&resp) {
                Ok(bytes) => shared.deliver(slot, gen, &stream, bytes, close),
                Err(_) => {
                    let outcome = Outcome::Pending { bytes: None, written: 0, close };
                    shared.hand_back(Completion { slot, gen, outcome });
                }
            }
        });
    }

    fn apply_completions(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.shared.completions.lock());
        for c in done {
            let Some(conn) = self.conns.get_mut(c.slot) else { continue };
            // Generation guard: the slot may have been reused after a
            // mid-handling disconnect.
            if conn.gen != c.gen || conn.state != ConnState::Handling {
                continue;
            }
            match c.outcome {
                Outcome::Written => {
                    // The worker re-armed `READ` in the kernel already.
                    conn.interest = Interest::READ;
                    conn.close_after_write = false;
                    self.finish_write(c.slot);
                }
                Outcome::Pending { bytes: Some(bytes), written, close } => {
                    self.start_write(c.slot, bytes, written, close)
                }
                Outcome::Pending { bytes: None, .. } => self.close(c.slot),
            }
        }
    }

    // -- write path ----------------------------------------------------

    /// Send `bytes[written..]` from the loop, then keep or close the
    /// connection.
    fn start_write(&mut self, slot: usize, bytes: Vec<u8>, written: usize, close: bool) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        if written < bytes.len() {
            self.reactor_writes.inc();
        }
        conn.write_buf = bytes;
        conn.written = written;
        conn.close_after_write = close;
        conn.state = ConnState::Writing;
        conn.deadline = Instant::now() + self.cfg.io_timeout;
        self.write_ready(slot);
    }

    fn write_ready(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        while conn.written < conn.write_buf.len() {
            match (&*conn.stream).write(&conn.write_buf[conn.written..]) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_interest(slot, Interest::WRITE);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        self.finish_write(slot);
    }

    fn finish_write(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        conn.write_buf = Vec::new();
        conn.written = 0;
        if conn.close_after_write || conn.peer_closed {
            self.close(slot);
            return;
        }
        conn.state = ConnState::KeepAlive;
        conn.deadline = Instant::now() + self.cfg.keep_alive_timeout;
        self.set_interest(slot, Interest::READ);
        // Pipelined bytes may already hold the next request.
        self.advance_parser(slot);
    }

    // -- bookkeeping ---------------------------------------------------

    fn set_interest(&mut self, slot: usize, interest: Interest) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        if conn.interest == interest {
            return;
        }
        conn.interest = interest;
        let fd = conn.stream.as_raw_fd();
        self.shared.poller.modify(fd, token(slot), interest).ok();
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.remove(slot) {
            self.shared.poller.delete(conn.stream.as_raw_fd()).ok();
            // Dropping the last `Arc` of the stream closes the fd: here,
            // or in a worker still writing to it.
        }
    }

    fn sweep_deadlines(&mut self, now: Instant) {
        let expired: Vec<usize> = self
            .conns
            .entries
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| e.as_ref().and_then(|c| (c.deadline <= now).then_some(slot)))
            .collect();
        for slot in expired {
            // Stalled reads/writes and idle keep-alives close silently,
            // exactly as the blocking transport's socket timeouts do.
            self.close(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(
        parser: &mut RequestParser,
        bytes: &[u8],
    ) -> HttpResult<Option<(Request, Version)>> {
        parser.push(bytes);
        parser.advance()
    }

    #[test]
    fn parses_request_fed_one_byte_at_a_time() {
        let raw = b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\nX-K: v\r\n\r\nhello";
        let mut p = RequestParser::new(1024);
        for (i, b) in raw.iter().enumerate() {
            match parse_all(&mut p, &[*b]).unwrap() {
                Some((req, version)) => {
                    assert_eq!(i, raw.len() - 1, "must complete exactly at the last byte");
                    assert_eq!(req.method, Method::Post);
                    assert_eq!(req.target, "/echo");
                    assert_eq!(req.headers.get("X-K"), Some("v"));
                    assert_eq!(req.body, b"hello");
                    assert_eq!(version, Version::Http11);
                    return;
                }
                None => assert!(i < raw.len() - 1),
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn parses_chunked_incrementally() {
        let mut raw = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        raw.extend_from_slice(&codec::encode_chunked(b"hello chunked world", 5));
        let mut p = RequestParser::new(1024);
        let mut done = None;
        for chunk in raw.chunks(3) {
            if let Some(pair) = parse_all(&mut p, chunk).unwrap() {
                done = Some(pair);
            }
        }
        let (req, _) = done.expect("request completes");
        assert_eq!(req.body, b"hello chunked world");
        assert!(p.is_idle());
    }

    #[test]
    fn pipelined_request_survives_in_the_buffer() {
        let mut raw = b"GET /one HTTP/1.1\r\n\r\n".to_vec();
        raw.extend_from_slice(b"GET /two HTTP/1.1\r\n\r\n");
        let mut p = RequestParser::new(1024);
        let (first, _) = parse_all(&mut p, &raw).unwrap().expect("first completes");
        assert_eq!(first.target, "/one");
        assert!(!p.is_idle(), "second request still buffered");
        let (second, _) = p.advance().unwrap().expect("second completes from leftover");
        assert_eq!(second.target, "/two");
        assert!(p.is_idle());
    }

    #[test]
    fn oversized_chunk_size_is_rejected_without_allocating() {
        let raw = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n";
        let mut p = RequestParser::new(1024);
        let err = parse_all(&mut p, raw).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge { .. }));
    }

    #[test]
    fn unbounded_trailers_are_rejected() {
        let mut raw = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n".to_vec();
        for i in 0..100 {
            raw.extend_from_slice(format!("X-T{i}: {}\r\n", "v".repeat(100)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let mut p = RequestParser::new(usize::MAX);
        let err = parse_all(&mut p, &raw).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }

    #[test]
    fn head_end_scanner_finds_terminators_at_every_alignment() {
        // Both terminator forms, at every offset relative to the 8-byte
        // SWAR words, including the scalar tail.
        for pad in 0..32 {
            let mut crlf = vec![b'a'; pad];
            crlf.extend_from_slice(b"\r\n\r\n");
            assert_eq!(find_head_end(&crlf, 0), Some(pad + 4), "crlf pad {pad}");
            let mut bare = vec![b'x'; pad];
            bare.extend_from_slice(b"\n\n");
            assert_eq!(find_head_end(&bare, 0), Some(pad + 2), "bare pad {pad}");
        }
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: h\r\n", 0), None);
        assert_eq!(find_newline(b"", 0), None);
    }

    #[test]
    fn direct_body_reads_land_in_the_final_allocation() {
        let mut p = RequestParser::new(1024);
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(p.advance().unwrap().is_none());
        // Lookahead drained, mid-Length-body: the direct window is open.
        let (body, need) = p.direct_body().expect("direct window");
        assert_eq!((body.as_slice(), need), (&b"abc"[..], 7));
        body.extend_from_slice(b"defghij"); // what a socket read would do
        let (req, _) = p.advance().unwrap().expect("complete");
        assert_eq!(req.body, b"abcdefghij");
        // Chunked framing: closed while awaiting chunk metadata, open
        // inside a chunk's data section.
        let mut p = RequestParser::new(1024);
        p.push(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(p.advance().unwrap().is_none());
        assert!(p.direct_body().is_none(), "size line not yet seen");
        p.push(b"a\r\nxy");
        assert!(p.advance().unwrap().is_none());
        let (body, need) = p.direct_body().expect("mid-chunk window");
        assert_eq!((body.as_slice(), need), (&b"xy"[..], 8));
        body.extend_from_slice(b"zzzzzzzz"); // direct read finishes the chunk
        assert!(p.advance().unwrap().is_none());
        assert!(p.direct_body().is_none(), "chunk CRLF is framing, not data");
        p.push(b"\r\n0\r\n\r\n");
        let (req, _) = p.advance().unwrap().expect("complete");
        assert_eq!(req.body, b"xyzzzzzzzz");
        // Buffered lookahead keeps the window closed.
        let mut p = RequestParser::new(1024);
        p.push(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nab");
        assert!(p.direct_body().is_none(), "head not yet parsed");
    }

    /// Feed `wire` through the incremental parser in `step`-byte
    /// slices, routing bytes through the direct-read window whenever
    /// it is open (exactly as `read_ready` does) when `direct` is set.
    fn drive(wire: &[u8], step: usize, direct: bool, limit: usize) -> HttpResult<Option<Request>> {
        let mut p = RequestParser::new(limit);
        let mut i = 0;
        while i < wire.len() {
            let take = match p.direct_body() {
                Some((body, need)) if direct => {
                    let take = need.min(step).min(wire.len() - i);
                    body.extend_from_slice(&wire[i..i + take]);
                    take
                }
                _ => {
                    let take = step.min(wire.len() - i);
                    p.push(&wire[i..i + take]);
                    take
                }
            };
            i += take;
            if let Some((req, _)) = p.advance()? {
                return Ok(Some(req));
            }
        }
        Ok(None)
    }

    #[test]
    fn chunked_parsing_matches_the_threaded_codec() {
        const LIMIT: usize = 64 * 1024;
        let bodies: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"x".to_vec(),
            b"hello chunked world".to_vec(),
            (0..=255u8).cycle().take(5000).collect(),
        ];
        let mut wires: Vec<Vec<u8>> = Vec::new();
        for body in &bodies {
            for chunk in [1usize, 7, 64, 4096] {
                let mut raw = b"POST /diff HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
                raw.extend_from_slice(&codec::encode_chunked(body, chunk));
                wires.push(raw);
            }
        }
        // Chunk extensions and trailers are framing the window must
        // not swallow; the malformed tails must fail on both paths.
        wires.push(
            b"POST /d HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5;ext=1\r\nhello\r\n0\r\nX-T: v\r\n\r\n"
                .to_vec(),
        );
        wires.push(
            b"POST /d HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX0\r\n\r\n".to_vec(),
        );
        wires.push(b"POST /d HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nffffffff\r\n".to_vec());

        for (w, wire) in wires.iter().enumerate() {
            let threaded = codec::read_request(&mut std::io::BufReader::new(&wire[..]), LIMIT);
            for step in [1usize, 3, 17, 1024, wire.len()] {
                for direct in [false, true] {
                    match (&threaded, drive(wire, step, direct, LIMIT)) {
                        (Ok(t), Ok(Some(r))) => assert_eq!(
                            t.body, r.body,
                            "wire {w} step {step} direct {direct}: bodies diverged"
                        ),
                        (Err(_), Err(_)) => {}
                        (t, r) => panic!(
                            "wire {w} step {step} direct {direct}: threaded={:?} reactor={:?}",
                            t.as_ref().map(|q| q.body.len()),
                            r.map(|q| q.map(|req| req.body.len()))
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn header_section_limit_applies_before_terminator() {
        let mut p = RequestParser::new(1024);
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', codec::HEADER_LIMIT + 10));
        let err = parse_all(&mut p, &raw).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
    }
}
