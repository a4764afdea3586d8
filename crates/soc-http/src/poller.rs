//! A minimal readiness poller over Linux `epoll`, plus an
//! `eventfd`-based [`Waker`] for cross-thread wakeups.
//!
//! This is the substrate the reactor transport stands on: the event
//! loop registers nonblocking sockets here and sleeps in
//! [`Poller::wait`] until the kernel reports readiness, instead of
//! parking one blocked thread per connection. The workspace vendors no
//! FFI crates, so the handful of syscalls are declared directly against
//! the system libc that `std` already links. Its `sys` block is the
//! crate's only FFI site, which is why the pooled client's one-syscall
//! liveness probe, `peek_nonblocking`, its wait for a response's
//! first byte, `wait_readable`, and its bounded request write,
//! `send_nonblocking` with `wait_writable`, live here too.
//!
//! Level-triggered mode throughout: a readiness bit stays set until the
//! state machine drains it, which keeps the connection logic re-entrant
//! and immune to the classic edge-trigger starvation bugs.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

mod sys {
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
        pub fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
        pub fn close(fd: i32) -> i32;
    }

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EFD_NONBLOCK: i32 = 0o4000;
    pub const EFD_CLOEXEC: i32 = 0o2000000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    pub const MSG_PEEK: i32 = 0x02;
    pub const MSG_DONTWAIT: i32 = 0x40;
    pub const MSG_NOSIGNAL: i32 = 0x4000;
}

/// Peek at most one byte of `fd`'s receive queue without blocking and
/// without consuming it: one `recv(MSG_PEEK | MSG_DONTWAIT)`, whatever
/// the socket's blocking mode. `Ok(0)` is EOF, `Ok(1)` means bytes are
/// waiting, and `WouldBlock` means the socket is open and empty.
pub(crate) fn peek_nonblocking(fd: RawFd) -> io::Result<usize> {
    let mut byte = 0u8;
    loop {
        // SAFETY: `byte` is a live one-byte buffer for the whole call
        // and `len` is 1; an invalid `fd` is reported as an error.
        let rc = unsafe { sys::recv(fd, &mut byte, 1, sys::MSG_PEEK | sys::MSG_DONTWAIT) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Send what of `buf` fits in `fd`'s send buffer without blocking: one
/// `send(MSG_DONTWAIT)`, whatever the socket's blocking mode. A full
/// buffer is `WouldBlock`.
pub(crate) fn send_nonblocking(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    loop {
        // SAFETY: `buf` is a live buffer of `buf.len()` bytes for the
        // whole call; an invalid `fd` is reported as an error.
        let rc = unsafe {
            sys::send(fd, buf.as_ptr(), buf.len(), sys::MSG_DONTWAIT | sys::MSG_NOSIGNAL)
        };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Wait until `fd` is readable — bytes, EOF or an error pending — or
/// `timeout` lapses: one `poll`. Returns whether it became readable.
/// The wait rounds up to whole milliseconds, so it never ends early.
pub(crate) fn wait_readable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    wait_ready(fd, sys::POLLIN, timeout)
}

/// [`wait_readable`]'s twin for send-buffer space (or an error pending).
pub(crate) fn wait_writable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    wait_ready(fd, sys::POLLOUT, timeout)
}

fn wait_ready(fd: RawFd, events: i16, timeout: Duration) -> io::Result<bool> {
    let until = std::time::Instant::now() + timeout;
    loop {
        let left = until.saturating_duration_since(std::time::Instant::now());
        let ms = left.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32;
        let mut pfd = sys::PollFd { fd, events, revents: 0 };
        // SAFETY: `pfd` is one live, initialised pollfd for the call.
        let rc = unsafe { sys::poll(&mut pfd, 1, ms) };
        if rc >= 0 {
            // Any revents — the asked-for bit, POLLHUP, POLLERR — means
            // the next read or write will not block.
            return Ok(rc > 0);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One readiness report from the kernel.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The caller-chosen token the fd was registered under.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hangup or socket error: the fd needs attention even if the
    /// caller asked for neither direction.
    pub hangup: bool,
}

/// Capacity of the per-wait event buffer.
const MAX_EVENTS: usize = 1024;

/// A registration interest set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    pub const NONE: Interest = Interest { readable: false, writable: false };

    fn bits(self) -> u32 {
        // RDHUP is always on: a half-closed peer must wake the loop so
        // idle keep-alive connections are reaped promptly.
        let mut e = sys::EPOLLRDHUP;
        if self.readable {
            e |= sys::EPOLLIN;
        }
        if self.writable {
            e |= sys::EPOLLOUT;
        }
        e
    }
}

/// Thin safe wrapper over one `epoll` instance.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: interest.bits(), data: token };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token` with the given interests.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interests (and token) of an already-registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregister `fd`. Harmless to call for an fd the kernel already
    /// dropped (closing an fd removes it from every epoll set).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block until at least one registered fd is ready or `timeout`
    /// elapses (`None` = forever). Ready events are appended to
    /// `events`, which is cleared first. Returns the number delivered.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let ms = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis();
                // Round sub-millisecond waits up so a near deadline
                // doesn't degenerate into a zero-timeout busy loop.
                if ms == 0 && !d.is_zero() {
                    1
                } else {
                    ms.min(i32::MAX as u128) as i32
                }
            }
        };
        let mut buf = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            let rc = unsafe { sys::epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as i32, ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in buf.iter().take(n) {
            // Copy out of the (packed) kernel struct before use.
            let (bits, token) = (ev.events, ev.data);
            events.push(Event {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                hangup: bits & (sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

// The epoll fd is just a kernel handle; epoll_ctl/epoll_wait are
// thread-safe on the same instance.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

/// Cross-thread wakeup for a [`Poller`] loop, backed by an `eventfd`.
///
/// The reactor's workers write a response themselves and re-arm the
/// connection with [`Poller::modify`], which needs no wakeup. They call
/// [`Waker::wake`] only on the fallback path — a partial write, a
/// closing connection, or a write error — when the loop must take the
/// remaining bytes from its completion queue; `shutdown` wakes it too.
/// The reactor sees the eventfd turn readable under the waker's token
/// and drains the queue. Writes coalesce (an eventfd is a counter), so
/// waking an already-woken loop is one cheap syscall.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Create a waker and register it on `poller` under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK | sys::EFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let waker = Waker { fd };
        poller.add(fd, token, Interest::READ)?;
        Ok(waker)
    }

    /// Make the poller's next (or current) `wait` return.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { sys::write(self.fd, &one as *const u64 as *const u8, 8) };
    }

    /// Clear the pending wakeup count so level-triggered polling stops
    /// reporting the waker readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { sys::read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { sys::close(self.fd) };
    }
}

unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn socket_readiness_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: times out empty.
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        (&client).write_all(b"ping").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(client);

        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].hangup || events[0].readable);
    }

    #[test]
    fn waker_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 99).unwrap();

        let mut events = Vec::new();
        waker.wake();
        waker.wake(); // coalesces
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 99);
        waker.drain();

        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "drained waker must go quiet");
    }

    #[test]
    fn peek_tells_idle_eof_and_pending_apart_without_consuming() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        // A blocking socket: the peek must not wait for bytes.
        let err = peek_nonblocking(server.as_raw_fd()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        client.write_all(b"x").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while peek_nonblocking(server.as_raw_fd()).is_err() {
            assert!(std::time::Instant::now() < deadline, "byte never arrived");
            std::thread::yield_now();
        }
        assert_eq!(peek_nonblocking(server.as_raw_fd()).unwrap(), 1, "peeking leaves it queued");
        let mut byte = [0u8; 1];
        std::io::Read::read_exact(&mut &server, &mut byte).unwrap();
        assert_eq!(&byte, b"x");
        drop(client);
        while peek_nonblocking(server.as_raw_fd()).is_err() {
            assert!(std::time::Instant::now() < deadline, "EOF never arrived");
            std::thread::yield_now();
        }
        assert_eq!(peek_nonblocking(server.as_raw_fd()).unwrap(), 0, "EOF");
    }

    #[test]
    fn modify_switches_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // A connected socket with room in its send buffer is instantly
        // writable — but we only ask for readability first.
        poller.add(server.as_raw_fd(), 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty());

        poller.modify(server.as_raw_fd(), 3, Interest::WRITE).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);
    }
}
