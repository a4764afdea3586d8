//! Every input the program receives, derived from the run's seed: the
//! same seed gives byte-identical SSNs, applications, idempotency keys,
//! cart keys and documents, and pre-written journals.

use soc_json::{json, Value};

/// Applications pre-written to the ledger journal before set-up.
pub const PREWRITTEN_APPLICATIONS: u64 = 50_000;
/// Cart keys in the store's key space; all are pre-written.
pub const CART_KEYS: u64 = 4_096;

/// SplitMix64 finaliser: a bijective, well-mixed hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Input streams: one tag per purpose, so streams never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Applications written to the journal before set-up.
    Prewritten,
    /// The first operation of each set-up.
    Setup,
    /// Operations that warm pools and the gateway's latency samples.
    Warmup,
    /// Measured operations.
    Measured,
}

impl Stream {
    fn tag(self) -> &'static str {
        match self {
            Stream::Prewritten => "pre",
            Stream::Setup => "setup",
            Stream::Warmup => "warm",
            Stream::Measured => "run",
        }
    }
}

/// A deterministic generator for operation `index` of `stream`.
pub struct Draw {
    state: u64,
}

impl Draw {
    pub fn new(seed: u64, stream: Stream, index: u64) -> Draw {
        Draw { state: mix(mix(seed ^ mix(stream as u64 + 1)) ^ index) }
    }

    pub fn next(&mut self) -> u64 {
        self.state = mix(self.state);
        self.state
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A nine-digit SSN in dashed form.
pub fn ssn(d: &mut Draw) -> String {
    let n = d.range(100_000_000, 999_999_999);
    format!("{:03}-{:02}-{:04}", n / 1_000_000, n / 10_000 % 100, n % 10_000)
}

const NAMES: &[&str] = &["Ann", "Bo", "Chen", "Dana", "Eli", "Fatima", "Gus", "Hiro", "Ines", "Jo"];

/// One loan application: the JSON body and its idempotency key.
pub struct Application {
    pub key: String,
    pub ssn: String,
    pub body: String,
}

pub fn application(seed: u64, stream: Stream, index: u64) -> Application {
    let mut d = Draw::new(seed, stream, index);
    let name = NAMES[d.range(0, NAMES.len() as u64 - 1) as usize];
    let ssn = ssn(&mut d);
    let income = d.range(20, 250) * 1_000;
    let loan = d.range(50, 900) * 1_000;
    let term = [15, 20, 30][d.range(0, 2) as usize];
    let body = json!({
        "name": name,
        "ssn": (ssn.as_str()),
        "annual_income": (income as i64),
        "loan_amount": (loan as i64),
        "term_years": term
    })
    .to_compact();
    Application { key: format!("{}-{seed:x}-{index}", stream.tag()), ssn, body }
}

/// The SSN looked up by operation `index`.
pub fn lookup_ssn(seed: u64, stream: Stream, index: u64) -> String {
    ssn(&mut Draw::new(seed, stream, index))
}

/// The cart key written by operation `index` of load thread `thread`
/// out of `threads`. Each thread owns the keys congruent to it, so a
/// read after a write sees that write and no other thread's.
pub fn cart_key(seed: u64, stream: Stream, index: u64, thread: usize, threads: usize) -> String {
    let slots = CART_KEYS / threads as u64;
    let slot = Draw::new(seed, stream, index).next() % slots;
    cart_name(slot * threads as u64 + thread as u64)
}

pub fn cart_name(n: u64) -> String {
    format!("cart-{n:04}")
}

const SKUS: &[&str] = &["bk-101", "pen-7", "mug-3", "cap-12", "usb-64", "nb-a5", "bag-2", "cup-9"];

/// A cart document of one to five line items.
pub fn cart_doc(seed: u64, stream: Stream, index: u64) -> Value {
    let mut d = Draw::new(seed, stream, index);
    d.next(); // the key draw
    let items: Vec<Value> = (0..d.range(1, 5))
        .map(|_| {
            json!({
                "sku": (SKUS[d.range(0, SKUS.len() as u64 - 1) as usize]),
                "quantity": (d.range(1, 9) as i64),
                "unit_price": (d.range(99, 99_999) as i64)
            })
        })
        .collect();
    json!({
        "owner": (NAMES[d.range(0, NAMES.len() as u64 - 1) as usize]),
        "currency": "USD",
        "items": (Value::Array(items))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_inputs() {
        for i in [0, 1, 77, 49_999] {
            let (a, b) = (application(7, Stream::Measured, i), application(7, Stream::Measured, i));
            assert_eq!((a.key, a.ssn, a.body), (b.key, b.ssn, b.body));
            assert_eq!(lookup_ssn(7, Stream::Warmup, i), lookup_ssn(7, Stream::Warmup, i));
            assert_eq!(
                cart_key(7, Stream::Measured, i, 1, 2),
                cart_key(7, Stream::Measured, i, 1, 2)
            );
            assert_eq!(cart_doc(7, Stream::Measured, i), cart_doc(7, Stream::Measured, i));
        }
    }

    #[test]
    fn seeds_and_streams_give_different_inputs() {
        assert_ne!(
            application(7, Stream::Measured, 3).body,
            application(8, Stream::Measured, 3).body
        );
        assert_ne!(lookup_ssn(7, Stream::Measured, 3), lookup_ssn(7, Stream::Warmup, 3));
        assert_ne!(application(7, Stream::Measured, 3).key, application(7, Stream::Setup, 3).key);
    }

    #[test]
    fn ssns_are_valid_and_keys_stay_in_the_thread_partition() {
        for i in 0..2_000 {
            let ssn = lookup_ssn(3, Stream::Measured, i);
            assert!(soc_services::mortgage::CreditScoreService::valid_ssn(&ssn), "{ssn}");
            for t in 0..2 {
                let key = cart_key(3, Stream::Measured, i, t, 2);
                let n: u64 = key.trim_start_matches("cart-").parse().unwrap();
                assert!(n < CART_KEYS && n as usize % 2 == t, "{key}");
            }
        }
    }

    #[test]
    fn idempotency_keys_are_unique_per_stream_and_index() {
        let keys: std::collections::HashSet<String> =
            (0..10_000).map(|i| application(1, Stream::Measured, i).key).collect();
        assert_eq!(keys.len(), 10_000);
    }
}
