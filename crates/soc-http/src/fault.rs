//! Deterministic fault injection for the virtual network.
//!
//! The paper's free public services are "too slow... often offline or
//! removed without notice"; this module is the controllable stand-in.
//! A [`FaultConfig`] attached to a [`crate::mem::MemNetwork`] host can
//! inject — all deterministically per seed —
//!
//! - the legacy deterministic faults (`offline`, `latency`,
//!   `fail_every`),
//! - seeded probabilistic faults: pre-handler failures (503), response
//!   *resets* (the handler runs, its side effects happen, but the
//!   response is lost as an I/O error — the case idempotency keys
//!   exist for), response corruption and truncation,
//! - burst/windowed schedules ([`FaultWindow`]): faults confined to a
//!   periodic slice of the request counter, modelling outages that
//!   come and go,
//! - and, at the network level, directional host-pair partitions
//!   (see `MemNetwork::partition`).
//!
//! Determinism: each host entry owns one [`FaultRng`] seeded from
//! `FaultConfig::seed`, and every probabilistic knob draws from it in
//! a fixed order per request. The same seed, topology, and request
//! sequence replay the same faults.

use std::time::Duration;

/// A periodic fault schedule over a host's request counter: of every
/// `period` requests, the `faulty` ones starting at `offset` are
/// subject to the probabilistic faults (a burst). With every
/// probability at zero, a faulty slot fails outright — a scheduled
/// blackout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Cycle length in requests; `0` disables the window.
    pub period: u64,
    /// How many requests per cycle are inside the burst.
    pub faulty: u64,
    /// Where in the cycle the burst starts.
    pub offset: u64,
}

impl FaultWindow {
    /// Whether the `n`-th request (1-based) falls inside the burst.
    pub fn is_faulty(&self, n: u64) -> bool {
        if self.period == 0 {
            return false;
        }
        let pos = (n + self.period - self.offset % self.period) % self.period;
        pos < self.faulty.min(self.period)
    }
}

/// Deterministic fault injection for a virtual host.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Every `n`-th request (1-based counter) returns 503. `0` disables.
    pub fail_every: u64,
    /// Added latency per request.
    pub latency: Duration,
    /// When set, the host answers nothing (connection refused
    /// equivalent: an `Io` error).
    pub offline: bool,
    /// Probability a request fails with 503 *before* the handler runs
    /// (no side effects).
    pub fail_prob: f64,
    /// Probability the response is lost after the handler ran: side
    /// effects happened, the client sees an I/O error.
    pub reset_prob: f64,
    /// Probability the response body is corrupted in flight.
    pub corrupt_prob: f64,
    /// Probability the response is cut off mid-body (`UnexpectedEof`)
    /// after the handler ran.
    pub truncate_prob: f64,
    /// Confine the probabilistic faults to a periodic burst.
    pub window: Option<FaultWindow>,
    /// Seed for the per-host fault RNG.
    pub seed: u64,
}

impl FaultConfig {
    /// An otherwise-clean config carrying a seed for the knobs below.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig { seed, ..FaultConfig::default() }
    }

    /// Set the pre-handler failure probability.
    pub fn with_fail(mut self, p: f64) -> Self {
        self.fail_prob = p;
        self
    }

    /// Set the lost-response (reset) probability.
    pub fn with_reset(mut self, p: f64) -> Self {
        self.reset_prob = p;
        self
    }

    /// Set the body-corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Set the mid-body truncation probability.
    pub fn with_truncate(mut self, p: f64) -> Self {
        self.truncate_prob = p;
        self
    }

    /// Confine probabilistic faults to a burst schedule.
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        self.window = Some(window);
        self
    }

    /// Add fixed per-request latency.
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Whether any probabilistic knob is set.
    pub fn has_probabilistic(&self) -> bool {
        self.fail_prob > 0.0
            || self.reset_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.truncate_prob > 0.0
    }
}

/// xorshift64* seeded through a splitmix64 step — the workhorse
/// generator used across the stack for deterministic jitter.
#[derive(Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// A generator for `seed`; equal seeds replay equal streams.
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FaultRng { state: (z ^ (z >> 31)) | 1 }
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli trial with probability `p`. Always consumes one draw
    /// so the stream stays aligned across knob settings.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// A value below `bound` (`0` when `bound` is `0`).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// What the fault layer decided to do to one request, sampled before
/// and after the handler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Pass the request through untouched.
    Clean,
    /// Fail before the handler: 503, no side effects.
    FailEarly,
    /// Run the handler, then drop the response (I/O error).
    Reset,
    /// Run the handler, then corrupt the response body.
    Corrupt,
    /// Run the handler, then cut the response off mid-body.
    Truncate,
}

impl FaultConfig {
    /// Sample this request's verdict. `n` is the host's 1-based
    /// request counter (drives the window); `rng` is the host's
    /// seeded generator. Draw order is fixed: fail, reset, corrupt,
    /// truncate.
    pub fn verdict(&self, n: u64, rng: &mut FaultRng) -> FaultVerdict {
        if let Some(w) = &self.window {
            if !w.is_faulty(n) {
                return FaultVerdict::Clean;
            }
            if !self.has_probabilistic() {
                // A window with no probabilities is a scheduled blackout.
                return FaultVerdict::FailEarly;
            }
        }
        if self.fail_prob > 0.0 && rng.chance(self.fail_prob) {
            return FaultVerdict::FailEarly;
        }
        if self.reset_prob > 0.0 && rng.chance(self.reset_prob) {
            return FaultVerdict::Reset;
        }
        if self.corrupt_prob > 0.0 && rng.chance(self.corrupt_prob) {
            return FaultVerdict::Corrupt;
        }
        if self.truncate_prob > 0.0 && rng.chance(self.truncate_prob) {
            return FaultVerdict::Truncate;
        }
        FaultVerdict::Clean
    }
}

/// Corrupt a response body in place (XOR — breaks any structured
/// payload, reversible for debugging).
pub fn corrupt_body(body: &mut [u8]) {
    for b in body.iter_mut() {
        *b ^= 0xA5;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_schedules_bursts() {
        let w = FaultWindow { period: 10, faulty: 3, offset: 2 };
        let faulty: Vec<u64> = (1..=20).filter(|&n| w.is_faulty(n)).collect();
        assert_eq!(faulty, vec![2, 3, 4, 12, 13, 14]);
        assert!(!FaultWindow { period: 0, faulty: 5, offset: 0 }.is_faulty(1));
        // faulty >= period means always faulty.
        let all = FaultWindow { period: 4, faulty: 9, offset: 0 };
        assert!((1..=8).all(|n| all.is_faulty(n)));
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = FaultRng::new(7);
        let mut b = FaultRng::new(7);
        let mut c = FaultRng::new(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        let distinct: std::collections::HashSet<&u64> = va.iter().collect();
        assert!(distinct.len() >= 15);
    }

    #[test]
    fn chance_rate_tracks_probability() {
        let mut rng = FaultRng::new(123);
        let hits = (0..10_000).filter(|_| rng.chance(0.2)).count();
        assert!((1_600..=2_400).contains(&hits), "got {hits}");
    }

    #[test]
    fn verdict_draw_order_is_stable() {
        let cfg = FaultConfig::seeded(9).with_fail(0.5).with_reset(0.5);
        let mut a = FaultRng::new(9);
        let mut b = FaultRng::new(9);
        let va: Vec<FaultVerdict> = (1..=32).map(|n| cfg.verdict(n, &mut a)).collect();
        let vb: Vec<FaultVerdict> = (1..=32).map(|n| cfg.verdict(n, &mut b)).collect();
        assert_eq!(va, vb);
        assert!(va.contains(&FaultVerdict::FailEarly));
        assert!(va.contains(&FaultVerdict::Reset));
    }

    #[test]
    fn windowed_blackout_and_windowed_probs() {
        let blackout =
            FaultConfig::default().with_window(FaultWindow { period: 5, faulty: 2, offset: 0 });
        let mut rng = FaultRng::new(1);
        let verdicts: Vec<FaultVerdict> = (1..=5).map(|n| blackout.verdict(n, &mut rng)).collect();
        // offset 0, period 5, faulty 2 → positions n%5 ∈ {0,1} burn.
        assert_eq!(
            verdicts,
            vec![
                FaultVerdict::FailEarly,
                FaultVerdict::Clean,
                FaultVerdict::Clean,
                FaultVerdict::Clean,
                FaultVerdict::FailEarly,
            ]
        );
        // Probabilistic faults only fire inside the window.
        let windowed = FaultConfig::seeded(2).with_fail(1.0).with_window(FaultWindow {
            period: 4,
            faulty: 1,
            offset: 1,
        });
        let mut rng = FaultRng::new(2);
        for n in 1..=8u64 {
            let v = windowed.verdict(n, &mut rng);
            if n % 4 == 1 {
                assert_eq!(v, FaultVerdict::FailEarly, "n={n}");
            } else {
                assert_eq!(v, FaultVerdict::Clean, "n={n}");
            }
        }
    }

    #[test]
    fn corruption_flips_bytes() {
        let mut body = b"{\"ok\":true}".to_vec();
        let orig = body.clone();
        corrupt_body(&mut body);
        assert_ne!(body, orig);
        corrupt_body(&mut body);
        assert_eq!(body, orig);
    }
}
