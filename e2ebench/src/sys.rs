//! Process counters and CPU affinity read from outside the program,
//! through libc symbols declared here (the workspace is offline and
//! vendors no `libc` crate).

use std::time::Duration;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// Indices into `Rusage::longs` (after `maxrss` at 0).
const NVCSW: usize = 12;
const NIVCSW: usize = 13;
/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPU time and context switches of the whole process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcCounters {
    pub user: Duration,
    pub sys: Duration,
    pub csw: u64,
}

impl ProcCounters {
    pub fn now() -> ProcCounters {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable `struct rusage` of the layout
        // getrusage(2) fills on 64-bit Linux.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let tv = |t: Timeval| Duration::new(t.sec as u64, (t.usec * 1000) as u32);
        ProcCounters {
            user: tv(ru.utime),
            sys: tv(ru.stime),
            csw: (ru.longs[NVCSW] + ru.longs[NIVCSW]) as u64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ProcCounters) -> ProcCounters {
        ProcCounters {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            csw: self.csw.saturating_sub(earlier.csw),
        }
    }

    pub fn add(self, other: ProcCounters) -> ProcCounters {
        ProcCounters {
            user: self.user + other.user,
            sys: self.sys + other.sys,
            csw: self.csw + other.csw,
        }
    }
}

/// Confine the calling thread — and every thread it starts later — to
/// the highest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Run `f` and return its result with the CPU time the calling thread
/// spent in it.
fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = thread_cpu_time();
    let out = f();
    (out, thread_cpu_time().saturating_sub(t))
}

/// CPU time of one round trip of one byte over loopback TCP between
/// two threads of this process, averaged over `n`: the kernel side of a
/// request–response. Wall time would also count whatever else runs on
/// the CPU meanwhile; each thread's own CPU time does not.
pub fn loopback_rtt_cpu(n: u32) -> std::io::Result<Duration> {
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<Duration> {
            let (mut c, _) = listener.accept()?;
            c.set_nodelay(true)?;
            let mut b = [0u8; 1];
            let (r, cpu) = cpu_timed(|| -> std::io::Result<()> {
                for _ in 0..n {
                    c.read_exact(&mut b)?;
                    c.write_all(&b)?;
                }
                Ok(())
            });
            r.map(|()| cpu)
        });
        let mut c = TcpStream::connect(addr)?;
        c.set_nodelay(true)?;
        let mut b = [0u8; 1];
        let (r, cpu) = cpu_timed(|| -> std::io::Result<()> {
            for _ in 0..n {
                c.write_all(&b)?;
                c.read_exact(&mut b)?;
            }
            Ok(())
        });
        r?;
        let echo_cpu = echo.join().expect("echo thread panicked")?;
        Ok((cpu + echo_cpu) / n)
    })
}

/// CPU time of `rounds` rounds of a fixed user-space kernel: hash a
/// 64 KiB buffer, then sort 4,096 pseudo-random words.
pub fn compute_cpu(rounds: u32) -> Duration {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let buf: Vec<u8> = (0..64 * 1024).map(|_| next() as u8).collect();
    let mut words = vec![0u64; 4_096];
    let (h, cpu) = cpu_timed(|| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..rounds {
            for &b in std::hint::black_box(&buf) {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            words.iter_mut().for_each(|w| *w = next() ^ h);
            words.sort_unstable();
            h ^= words[words.len() / 2];
        }
        h
    });
    std::hint::black_box(h);
    cpu / rounds
}
