//! Admission control: a token-bucket rate limiter plus a hard
//! concurrency cap.
//!
//! The paper's free public services die under load ("services are too
//! slow... often offline"). The gateway protects its upstreams by
//! shedding excess traffic *at the front door* instead of letting a
//! burst melt every replica at once: a token bucket bounds the
//! sustained request rate (with a configurable burst), and a
//! concurrency cap bounds how many requests are in flight through the
//! gateway at any instant. A request stays in flight until its last
//! upstream attempt finishes, even one still running after the caller
//! got its answer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

const NANOS_PER_SEC: f64 = 1_000_000_000.0;

/// A classic token bucket: `capacity` tokens of burst, refilled at
/// `refill_per_sec` tokens per second. Each admitted request spends one
/// token.
///
/// Time is injected explicitly through [`TokenBucket::try_acquire_at`]
/// (nanoseconds since an arbitrary epoch), which makes the bucket's
/// invariants testable without sleeping; [`TokenBucket::try_acquire`]
/// feeds it the wall clock.
pub struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    epoch: Instant,
    state: Mutex<BucketState>,
}

struct BucketState {
    tokens: f64,
    last_nanos: u64,
}

impl TokenBucket {
    /// A bucket that starts full.
    ///
    /// # Panics
    /// If `capacity` is not positive or `refill_per_sec` is negative.
    pub fn new(capacity: f64, refill_per_sec: f64) -> Self {
        assert!(capacity > 0.0, "token bucket capacity must be positive");
        assert!(refill_per_sec >= 0.0, "refill rate must be non-negative");
        TokenBucket {
            capacity,
            refill_per_sec,
            epoch: Instant::now(),
            state: Mutex::new(BucketState { tokens: capacity, last_nanos: 0 }),
        }
    }

    /// The burst size.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Spend one token against the wall clock.
    pub fn try_acquire(&self) -> bool {
        self.try_acquire_at(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Spend one token at an explicit instant (nanoseconds since the
    /// caller's epoch). Clock rewinds are treated as "no time passed",
    /// so tokens never refill retroactively.
    pub fn try_acquire_at(&self, now_nanos: u64) -> bool {
        let mut s = self.state.lock();
        self.refill(&mut s, now_nanos);
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens available at an explicit instant (after refill).
    pub fn available_at(&self, now_nanos: u64) -> f64 {
        let mut s = self.state.lock();
        self.refill(&mut s, now_nanos);
        s.tokens
    }

    fn refill(&self, s: &mut BucketState, now_nanos: u64) {
        if now_nanos > s.last_nanos {
            let dt = (now_nanos - s.last_nanos) as f64 / NANOS_PER_SEC;
            s.tokens = (s.tokens + dt * self.refill_per_sec).min(self.capacity);
            s.last_nanos = now_nanos;
        }
    }
}

/// Per-key token buckets: one [`TokenBucket`] per service name, lazily
/// created, all sharing one capacity/refill tuning. Layered *under* the
/// gateway's global bucket, this is the per-service admission quota —
/// one hot service exhausts its own bucket and gets shed while every
/// other service still has its full burst available, so a single
/// popular endpoint cannot starve the rest of the gateway.
///
/// A non-positive `capacity` disables the layer: [`KeyedBuckets::try_acquire`]
/// then always admits.
pub struct KeyedBuckets {
    capacity: f64,
    refill_per_sec: f64,
    buckets: parking_lot::RwLock<std::collections::HashMap<String, Arc<TokenBucket>>>,
}

impl KeyedBuckets {
    /// Quota buckets of `capacity` burst and `refill_per_sec` refill per
    /// key. `capacity <= 0` disables per-key limiting entirely.
    pub fn new(capacity: f64, refill_per_sec: f64) -> Self {
        KeyedBuckets {
            capacity,
            refill_per_sec,
            buckets: parking_lot::RwLock::new(std::collections::HashMap::new()),
        }
    }

    /// Is per-key limiting active?
    pub fn enabled(&self) -> bool {
        self.capacity > 0.0
    }

    /// Spend one token from `key`'s bucket (always admits when
    /// disabled). The bucket is created full on first sight of a key.
    pub fn try_acquire(&self, key: &str) -> bool {
        if !self.enabled() {
            return true;
        }
        self.bucket(key).try_acquire()
    }

    /// `key`'s bucket, created on first use.
    pub fn bucket(&self, key: &str) -> Arc<TokenBucket> {
        if let Some(b) = self.buckets.read().get(key) {
            return b.clone();
        }
        self.buckets
            .write()
            .entry(key.to_string())
            .or_insert_with(|| Arc::new(TokenBucket::new(self.capacity, self.refill_per_sec)))
            .clone()
    }

    /// Keys with a materialized bucket, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.buckets.read().keys().cloned().collect();
        keys.sort();
        keys
    }
}

/// A cap on concurrent in-flight requests. [`ConcurrencyLimit::try_acquire`]
/// returns a permit that releases its slot on drop; when the cap is
/// reached the caller should shed.
pub struct ConcurrencyLimit {
    max: usize,
    in_flight: Arc<AtomicUsize>,
}

/// An acquired slot; dropping it frees the slot.
pub struct ConcurrencyPermit {
    in_flight: Arc<AtomicUsize>,
}

impl ConcurrencyLimit {
    /// A limit admitting at most `max` concurrent holders.
    pub fn new(max: usize) -> Self {
        ConcurrencyLimit { max, in_flight: Arc::new(AtomicUsize::new(0)) }
    }

    /// Try to claim a slot.
    pub fn try_acquire(&self) -> Option<ConcurrencyPermit> {
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cur >= self.max {
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(ConcurrencyPermit { in_flight: self.in_flight.clone() }),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current holders.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// The cap.
    pub fn max(&self) -> usize {
        self.max
    }
}

impl Drop for ConcurrencyPermit {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_empty() {
        let b = TokenBucket::new(3.0, 0.0);
        assert!(b.try_acquire_at(0));
        assert!(b.try_acquire_at(0));
        assert!(b.try_acquire_at(0));
        assert!(!b.try_acquire_at(0));
    }

    #[test]
    fn refills_over_time_but_never_past_capacity() {
        let b = TokenBucket::new(2.0, 1.0); // 1 token/s
        assert!(b.try_acquire_at(0));
        assert!(b.try_acquire_at(0));
        assert!(!b.try_acquire_at(0));
        // Half a second: half a token — still not enough.
        assert!(!b.try_acquire_at(500_000_000));
        // Another second: over one token available.
        assert!(b.try_acquire_at(1_500_000_000));
        // A long idle stretch refills to capacity, not beyond.
        let far = 1_000 * 1_000_000_000;
        assert!((b.available_at(far) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn clock_rewind_is_harmless() {
        let b = TokenBucket::new(1.0, 1000.0);
        assert!(b.try_acquire_at(1_000_000));
        // Time "goes backwards": no refill, no panic.
        assert!(!b.try_acquire_at(0));
    }

    #[test]
    fn keyed_buckets_isolate_services() {
        let q = KeyedBuckets::new(2.0, 0.0);
        assert!(q.enabled());
        // Service "hot" burns its quota…
        assert!(q.try_acquire("hot"));
        assert!(q.try_acquire("hot"));
        assert!(!q.try_acquire("hot"));
        // …while "cold" still has its full burst.
        assert!(q.try_acquire("cold"));
        assert_eq!(q.keys(), vec!["cold", "hot"]);
    }

    #[test]
    fn disabled_keyed_buckets_always_admit() {
        let q = KeyedBuckets::new(0.0, 0.0);
        assert!(!q.enabled());
        for _ in 0..100 {
            assert!(q.try_acquire("any"));
        }
        assert!(q.keys().is_empty(), "disabled quotas must not materialize buckets");
    }

    #[test]
    fn concurrency_permits_release_on_drop() {
        let l = ConcurrencyLimit::new(2);
        let a = l.try_acquire().unwrap();
        let _b = l.try_acquire().unwrap();
        assert!(l.try_acquire().is_none());
        assert_eq!(l.in_flight(), 2);
        drop(a);
        assert_eq!(l.in_flight(), 1);
        assert!(l.try_acquire().is_some());
    }
}
