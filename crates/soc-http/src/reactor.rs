//! The readiness-driven server transport: connections are multiplexed
//! over epoll, and the worker the kernel hands a connection's readiness
//! serves that connection's request from first byte to last.
//!
//! Sockets are nonblocking, each connection's bytes live in its
//! incremental codec buffers instead of a thread's stack, and an idle
//! keep-alive connection costs a descriptor and a slot, not a blocked
//! thread.
//!
//! Two [`Poller`](crate::poller::Poller)s split the work, after
//! Leader/Followers (Schmidt et al., *POSA2*). The loop thread waits on
//! the listener's: it accepts, sheds at the connection cap, sweeps
//! deadlines every 250 ms and handles shutdown. The `workers` threads
//! all wait on the connections' poller, where every socket is
//! registered `EPOLLONESHOT`: the kernel reports each readiness to
//! exactly one waiting worker and disarms the socket, so no other
//! thread sees it until that worker re-arms it. The worker does all of
//! the request's work — reads and parses it, runs the handler under a
//! server span and a panic catch, writes the response, answers any pipelined request already buffered — and
//! then re-arms `READ`, or `WRITE` if the socket took only part of a
//! response. No request passes from one thread to another.
//!
//! ```text
//!                ┌──────────────── keep-alive ────────────────┐
//!                ▼                                            │
//! accept ──► armed READ ── readiness ──► held by a worker ────┤
//!                                          ▲           │      │ close, EOF
//!                                readiness │           │      ▼ or error
//!                                          │  partial  │   closed
//!                                       armed WRITE ◄──┘
//! ```
//!
//! Each connection lives in a slot of a table that only grows, behind
//! one lock per slot. A worker holds the lock for as long as it serves
//! the connection, so the lock is uncontended: the loop takes it only
//! to insert a connection, and the sweep takes it with `try_lock`,
//! skipping a connection a worker holds — a handler runs with no
//! deadline. A connection's epoll token
//! carries its slot and a generation, so a readiness that raced the
//! connection's close finds the slot empty or reused and is dropped.
//!
//! Backpressure at the connection cap: connections over
//! `max_connections` are shed with a `503 + Retry-After` written from
//! the accept path, and counted in `ServerStats::shed`. Because the loop never runs a handler, it
//! accepts and sheds while every worker is busy.
//!
//! Metrics move once per connection — `soc_http_connections_open`
//! (gauge), `soc_http_connections_accepted_total` and
//! `soc_http_connections_closed_total` (shed connections count only in
//! `soc_http_connections_shed_total`) — and once per response:
//! `soc_http_responses_total{write="worker"}` counts responses written
//! in full as soon as they were made, `{write="reactor"}` those
//! finished under `WRITE` readiness.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use soc_observe::{Counter, Gauge};

use crate::codec::{self, BodyFraming, DEFAULT_BODY_LIMIT};
use crate::poller::{Event, Interest, Poller, Waker};
use crate::server::{Handler, ServerConfig, ServerStats};
use crate::types::{Headers, HttpError, HttpResult, Method, Request, Response, Status, Version};

/// The listener's token on the loop's poller.
const TOKEN_LISTENER: u64 = 0;
/// The shutdown waker's token on both pollers. No connection token
/// reaches it: a slot index stays below `u32::MAX` (see [`SEGMENTS`]).
const TOKEN_WAKER: u64 = u64::MAX;

/// How long a read or write may stall mid-message before the
/// connection is dropped.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How often the loop wakes to sweep deadlines when nothing is ready.
const SWEEP_INTERVAL: Duration = Duration::from_millis(250);

/// Per-read scratch size.
const READ_CHUNK: usize = 16 * 1024;

/// Slots in the table's first segment; segment `k` holds
/// `SEGMENT_BASE << k`.
const SEGMENT_BASE: usize = 64;
/// Segments in the table: 64 × (2²⁶ − 1) slots, more than a process
/// has descriptors, and every index fits a token's low 32 bits.
const SEGMENTS: usize = 26;

/// A connection's epoll token: its generation above its slot.
fn conn_token(slot: usize, gen: u32) -> u64 {
    u64::from(gen) << 32 | slot as u64
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
/// shared `codec` routines, so it cannot drift from the blocking
/// `codec::read_request`, its reference parser in the tests.
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
    /// Mid-body, the consumed prefix is dropped before waiting for more
    /// bytes: it holds only framing (chunk-size lines, extensions,
    /// CRLFs) and data already copied into the body, and keeping it
    /// would let a chunked body buffer ~1 KiB of framing per body byte.
    fn advance(&mut self) -> HttpResult<Option<(Request, Version)>> {
        let parsed = self.parse()?;
        if parsed.is_none() && matches!(self.phase, Phase::Body { .. }) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(parsed)
    }

    fn parse(&mut self) -> HttpResult<Option<(Request, Version)>> {
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
// Connections and their slot table
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    gen: u32,
    parser: RequestParser,
    /// The response being written; `write_buf[written..]` is unsent.
    write_buf: Vec<u8>,
    written: usize,
    close_after_write: bool,
    /// Peer half-closed its write side; finish in-flight work, then
    /// close instead of going back to keep-alive.
    peer_closed: bool,
    deadline: Instant,
}

impl Conn {
    fn unsent(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// Write what the socket takes of the unsent response: `Some(true)`
    /// once all of it went out, `Some(false)` when the send buffer is
    /// full, `None` when the write failed.
    fn flush(&mut self) -> Option<bool> {
        while self.unsent() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return None,
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Some(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        self.write_buf = Vec::new();
        self.written = 0;
        Some(true)
    }

    /// One read off the socket into the parser. Mid-body
    /// (`Content-Length`, or the data section of a chunk) it reads
    /// straight into the body allocation the handler will own, skipping
    /// the scratch → lookahead-buffer → body double copy. Growth is
    /// bounded per read, so a claimed-but-never-sent length cannot
    /// force a large allocation up front.
    fn fill(&mut self, scratch: &mut [u8]) -> std::io::Result<usize> {
        if let Some((body, need)) = self.parser.direct_body() {
            let start = body.len();
            body.resize(start + need.min(READ_CHUNK), 0);
            let r = self.stream.read(&mut body[start..]);
            body.truncate(start + *r.as_ref().unwrap_or(&0));
            r
        } else {
            self.stream.read(scratch).inspect(|&n| self.parser.push(&scratch[..n]))
        }
    }
}

type Slot = Mutex<Option<Conn>>;

/// The connection table. It grows in doubling segments that never
/// move, so a worker reaches its slot without a table-wide lock, and a
/// large `max_connections` costs nothing until connections arrive.
struct Slots {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
    /// Slots freed by a close, reused before the table grows.
    free: Mutex<Vec<usize>>,
    /// Connections open now: what the cap is compared against. A count
    /// only, it publishes no other data.
    live: AtomicUsize,
}

impl Slots {
    /// Segment and offset of `slot`.
    fn locate(slot: usize) -> (usize, usize) {
        let k = (slot / SEGMENT_BASE + 1).ilog2() as usize;
        (k, slot - SEGMENT_BASE * ((1 << k) - 1))
    }

    fn get(&self, slot: usize) -> Option<&Slot> {
        let (k, i) = Slots::locate(slot);
        self.segments.get(k)?.get()?.get(i)
    }

    /// Like [`Slots::get`], allocating the slot's segment on first use;
    /// `None` past the last segment.
    fn get_or_grow(&self, slot: usize) -> Option<&Slot> {
        let (k, i) = Slots::locate(slot);
        let segment = self.segments.get(k)?;
        segment.get_or_init(|| (0..SEGMENT_BASE << k).map(|_| Mutex::new(None)).collect()).get(i)
    }
}

/// What the loop and every worker share.
struct Shared {
    /// The connections' poller, which every worker waits on.
    poller: Poller,
    slots: Slots,
    handler: Arc<dyn Handler>,
    stats: Arc<ServerStats>,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
    open: Gauge,
    closed: Counter,
    /// `soc_http_responses_total{write="worker"}`: responses written in
    /// full as soon as they were made.
    worker_writes: Counter,
    /// `soc_http_responses_total{write="reactor"}`: responses finished
    /// under `WRITE` readiness.
    reactor_writes: Counter,
}

impl Shared {
    /// A worker: take one readiness at a time and serve it, until
    /// shutdown.
    fn work(&self) {
        let mut scratch = vec![0u8; READ_CHUNK];
        while !self.stop.load(Ordering::Acquire) {
            match self.poller.wait_one(None) {
                Ok(Some(ev)) if ev.token != TOKEN_WAKER => self.serve(ev.token, &mut scratch),
                Ok(_) => {}
                Err(_) => return,
            }
        }
    }

    /// Serve the connection behind `token` until it would block, then
    /// re-arm or close it. The slot stays locked throughout.
    fn serve(&self, token: u64, scratch: &mut [u8]) {
        let slot = (token & u64::from(u32::MAX)) as usize;
        let Some(cell) = self.slots.get(slot) else { return };
        let mut guard = cell.lock();
        let Some(conn) = guard.as_mut().filter(|c| conn_token(slot, c.gen) == token) else {
            return;
        };
        // Re-armed under the lock: once the lock is released the loop
        // may close the descriptor, and its number may be reused.
        let rearmed = self.drive(conn, scratch).is_some_and(|interest| {
            self.poller.rearm(conn.stream.as_raw_fd(), token, interest).is_ok()
        });
        if !rearmed {
            self.close(slot, &mut guard);
        }
    }

    /// Finish an unsent response, answer every request the buffered and
    /// readable bytes hold, and return the interest to re-arm — `READ`
    /// or `WRITE` — or `None` to close.
    fn drive(&self, conn: &mut Conn, scratch: &mut [u8]) -> Option<Interest> {
        // A connection still owing bytes was armed for `WRITE`.
        let mut writes = if conn.unsent() { &self.reactor_writes } else { &self.worker_writes };
        loop {
            if conn.unsent() {
                if !conn.flush()? {
                    conn.deadline = Instant::now() + IO_TIMEOUT;
                    return Some(Interest::WRITE);
                }
                writes.inc();
                writes = &self.worker_writes;
                if conn.close_after_write || conn.peer_closed {
                    return None;
                }
                // Nothing pipelined: the next request is not sent yet,
                // so re-arm without a read that would find no bytes.
                if conn.parser.is_idle() {
                    return Some(self.await_read(conn));
                }
            }
            match conn.parser.advance() {
                Ok(Some((req, version))) => {
                    (conn.write_buf, conn.close_after_write) = self.respond(req, version)?;
                    continue;
                }
                // EOF between requests is a normal close; EOF mid-
                // request is truncation. Neither gets a response.
                Ok(None) if conn.peer_closed => return None,
                Ok(None) => {}
                Err(e) => {
                    // Parse errors answer 400 and close, with the close
                    // made explicit on the wire.
                    let resp = Response::error(Status::BAD_REQUEST, &e.to_string())
                        .with_header("Connection", "close");
                    conn.write_buf = codec::encode_response(&resp).ok()?;
                    conn.close_after_write = true;
                    continue;
                }
            }
            // Bound buffered-but-unparsed bytes: past this a peer is
            // over a limit the parser would have rejected.
            if conn.parser.buffered() > DEFAULT_BODY_LIMIT + codec::HEADER_LIMIT + READ_CHUNK {
                return None;
            }
            match conn.fill(scratch) {
                Ok(0) => conn.peer_closed = true,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Some(self.await_read(conn))
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
    }

    /// Set the deadline for the bytes `conn` waits for — the keep-alive
    /// window between requests, the I/O timeout inside one — and
    /// return the interest that waits for them.
    fn await_read(&self, conn: &mut Conn) -> Interest {
        let wait = if conn.parser.is_idle() { self.cfg.keep_alive_timeout } else { IO_TIMEOUT };
        conn.deadline = Instant::now() + wait;
        Interest::READ
    }

    /// Run the handler on one request and encode its response, with
    /// whether the connection closes after it. `None` when the response
    /// cannot be encoded: the connection then closes without one.
    fn respond(&self, req: Request, version: Version) -> Option<(Vec<u8>, bool)> {
        let close_requested = codec::wants_close(version, &req.headers);
        let handler = &self.handler;
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
            self.stats.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.served.fetch_add(1, Ordering::Relaxed);
        // Close if the client asked, or the handler did. Either way the
        // peer (possibly a pooled client) must see it.
        let close = close_requested || resp.headers.has_token("Connection", "close");
        if close && !resp.headers.has_token("Connection", "close") {
            resp.headers.set("Connection", "close");
        }
        Some((codec::encode_response(&resp).ok()?, close))
    }

    /// Deregister and drop the connection in `slot`, whose lock the
    /// caller holds.
    fn close(&self, slot: usize, conn: &mut Option<Conn>) {
        let Some(conn) = conn.take() else { return };
        self.poller.delete(conn.stream.as_raw_fd()).ok();
        self.slots.free.lock().push(slot);
        self.slots.live.fetch_sub(1, Ordering::Relaxed);
        self.open.add(-1);
        self.closed.inc();
    }
}

// ---------------------------------------------------------------------
// The loop: listener, cap, deadlines, shutdown
// ---------------------------------------------------------------------

struct Acceptor {
    listener: TcpListener,
    /// The listener's poller, separate from the connections'.
    poller: Poller,
    waker: Arc<Waker>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Slots handed out so far: a fresh slot is the next index, and the
    /// sweep scans below it.
    high: usize,
    gen: u32,
    accepted: Counter,
    shed_counter: Counter,
}

/// Create both pollers and the waker, start the workers, and spawn the
/// loop thread. The returned waker unblocks every thread so `shutdown`
/// is immediate.
pub(crate) fn spawn(
    listener: TcpListener,
    cfg: ServerConfig,
    handler: Arc<dyn Handler>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
) -> HttpResult<(JoinHandle<()>, Arc<Waker>)> {
    let io_err = |e: std::io::Error| HttpError::Io(e.to_string());
    listener.set_nonblocking(true).map_err(io_err)?;
    listener.set_ttl(64).ok();
    let poller = Poller::new().map_err(io_err)?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ).map_err(io_err)?;
    let conns = Poller::new().map_err(io_err)?;
    let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER).map_err(io_err)?);
    waker.watch(&conns, TOKEN_WAKER).map_err(io_err)?;

    let metrics = soc_observe::metrics();
    let responses = |write| metrics.counter("soc_http_responses_total", &[("write", write)]);
    let workers = cfg.workers;
    let shared = Arc::new(Shared {
        poller: conns,
        slots: Slots {
            segments: std::array::from_fn(|_| OnceLock::new()),
            free: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
        },
        handler,
        stats,
        cfg,
        stop,
        open: metrics.gauge("soc_http_connections_open", &[]),
        closed: metrics.counter("soc_http_connections_closed_total", &[]),
        worker_writes: responses("worker"),
        reactor_writes: responses("reactor"),
    });
    let mut acceptor = Acceptor {
        listener,
        poller,
        waker: waker.clone(),
        shared: shared.clone(),
        workers: Vec::with_capacity(workers),
        high: 0,
        gen: 0,
        accepted: metrics.counter("soc_http_connections_accepted_total", &[]),
        shed_counter: metrics.counter("soc_http_connections_shed_total", &[]),
    };
    let spawned = (0..workers).try_for_each(|_| {
        let shared = shared.clone();
        let worker = std::thread::Builder::new()
            .name("soc-http-worker".into())
            .spawn(move || shared.work())?;
        acceptor.workers.push(worker);
        Ok::<(), std::io::Error>(())
    });
    let thread = spawned.and_then(|()| {
        std::thread::Builder::new().name("soc-http-reactor".into()).spawn(move || acceptor.run())
    });
    thread.map(|thread| (thread, waker.clone())).map_err(|e| {
        // Let the workers already started see the stop and exit.
        shared.stop.store(true, Ordering::Release);
        waker.wake();
        io_err(e)
    })
}

impl Acceptor {
    /// Run until `stop` is set, then stop and join the workers.
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + SWEEP_INTERVAL;
        while !self.shared.stop.load(Ordering::Acquire) {
            let timeout = next_sweep.saturating_duration_since(Instant::now());
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            if events.iter().any(|ev| ev.token == TOKEN_LISTENER) {
                self.accept_ready();
            }
            let now = Instant::now();
            if now >= next_sweep {
                // Stalled reads/writes and idle keep-alives close
                // silently.
                self.sweep(|conn| conn.deadline <= now);
                next_sweep = now + SWEEP_INTERVAL;
            }
        }
        // Also reached on a poller error: the workers must stop either
        // way, or the joins below would wait forever.
        self.shared.stop.store(true, Ordering::Release);
        self.waker.wake();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // No worker holds a slot now; close what is left so the
        // connection metrics balance.
        self.sweep(|_| true);
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = &self.shared;
                    if shared.slots.live.load(Ordering::Relaxed) >= shared.cfg.max_connections {
                        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                        self.shed_counter.inc();
                        // Accepted sockets don't inherit nonblocking
                        // from the listener, so the bounded blocking
                        // write in `shed_connection` applies as-is.
                        shed_connection(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    self.admit(stream);
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

    /// Put a new connection in a slot and arm it for the workers.
    fn admit(&mut self, stream: TcpStream) {
        let shared = &*self.shared;
        let slot = shared.slots.free.lock().pop().unwrap_or_else(|| {
            self.high += 1;
            self.high - 1
        });
        // Past the last segment: more connections than descriptors.
        let Some(cell) = shared.slots.get_or_grow(slot) else { return };
        self.gen = self.gen.wrapping_add(1);
        let fd = stream.as_raw_fd();
        let mut guard = cell.lock();
        *guard = Some(Conn {
            stream,
            gen: self.gen,
            parser: RequestParser::new(DEFAULT_BODY_LIMIT),
            write_buf: Vec::new(),
            written: 0,
            close_after_write: false,
            peer_closed: false,
            deadline: Instant::now() + IO_TIMEOUT,
        });
        shared.slots.live.fetch_add(1, Ordering::Relaxed);
        shared.open.add(1);
        self.accepted.inc();
        if shared.poller.add_oneshot(fd, conn_token(slot, self.gen), Interest::READ).is_err() {
            shared.close(slot, &mut guard);
        }
    }

    /// Close every connection `expired` picks, skipping any a worker
    /// holds: a connection being served has no deadline.
    fn sweep(&self, expired: impl Fn(&Conn) -> bool) {
        let shared = &*self.shared;
        for slot in 0..self.high {
            let Some(cell) = shared.slots.get(slot) else { return };
            let Some(mut guard) = cell.try_lock() else { continue };
            if guard.as_ref().is_some_and(&expired) {
                shared.close(slot, &mut guard);
            }
        }
    }
}

/// Refuse one connection politely: a quick 503 + `Retry-After` written
/// from the accept path, bounded by a short write timeout so a
/// slow-reading peer cannot stall accepting.
fn shed_connection(mut stream: TcpStream) {
    stream.set_write_timeout(Some(Duration::from_millis(250))).ok();
    stream.set_nodelay(true).ok();
    let resp = Response::error(Status::SERVICE_UNAVAILABLE, "server at connection capacity")
        .with_header("Retry-After", "1")
        .with_header("Connection", "close");
    let _ = codec::write_response(&mut stream, &resp);
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
    fn chunk_framing_is_dropped_as_the_body_advances() {
        // 1,000 one-byte chunks, each behind a 1,000-byte extension:
        // ~1 MB of framing around a 1,000-byte body.
        let mut raw = b"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        let ext = "e".repeat(1000);
        let mut want = Vec::new();
        for i in 0..1000u32 {
            let byte = b'a' + (i % 26) as u8;
            want.push(byte);
            raw.extend_from_slice(format!("1;{ext}\r\n").as_bytes());
            raw.push(byte);
            raw.extend_from_slice(b"\r\n");
        }
        raw.extend_from_slice(b"0\r\n\r\n");
        let mut p = RequestParser::new(1024 * 1024);
        let mut done = None;
        for piece in raw.chunks(512) {
            if let Some(pair) = parse_all(&mut p, piece).unwrap() {
                done = Some(pair);
            }
            assert!(p.buf.len() < 4 * 1024, "parser buffers {} bytes", p.buf.len());
        }
        let (req, _) = done.expect("request completes");
        assert_eq!(req.body, want);
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
    /// it is open (exactly as `Conn::fill` does) when `direct` is set.
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
    fn chunked_parsing_matches_the_blocking_codec() {
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
            let blocking = codec::read_request(&mut std::io::BufReader::new(&wire[..]), LIMIT);
            for step in [1usize, 3, 17, 1024, wire.len()] {
                for direct in [false, true] {
                    match (&blocking, drive(wire, step, direct, LIMIT)) {
                        (Ok(t), Ok(Some(r))) => assert_eq!(
                            t.body, r.body,
                            "wire {w} step {step} direct {direct}: bodies diverged"
                        ),
                        (Err(_), Err(_)) => {}
                        (t, r) => panic!(
                            "wire {w} step {step} direct {direct}: blocking={:?} reactor={:?}",
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
