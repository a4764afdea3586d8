//! Memory footprint of `KvMachine` under a counting global allocator.
//!
//! A store log of the cart workload holds about 1,365 keys (4,096
//! carts over three primaries). The machine keeps each value as its
//! canonical JSON text, so its live heap per key should be that text,
//! the key, and one hash-table slot — not a tree of boxed nodes. The
//! bound below is derived from the text itself; a tree-holding machine
//! (about 950 B per key for these carts) fails it. This binary holds
//! only this test, so its allocator changes no other measurement. Run
//! with `--nocapture` to see the figures:
//!
//! ```text
//! cargo test -p soc-store --test kv_footprint -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use soc_json::{json, Value};
use soc_store::{KvMachine, StateMachine};

struct Counting;

/// Bytes currently allocated, over every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; counting touches only an atomic, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Keys per store log in the cart workload.
const KEYS: u64 = 1_365;

const NAMES: &[&str] = &["Ann", "Bo", "Chen", "Dana", "Eli", "Fatima", "Gus", "Hiro", "Ines", "Jo"];
const SKUS: &[&str] = &["bk-101", "pen-7", "mug-3", "cap-12", "usb-64", "nb-a5", "bag-2", "cup-9"];

/// A cart of one to five line items, drawn from `state` (xorshift64).
fn cart(state: &mut u64) -> Value {
    let mut draw = |lo: u64, hi: u64| {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        lo + *state % (hi - lo + 1)
    };
    let items: Vec<Value> = (0..draw(1, 5))
        .map(|_| {
            json!({
                "sku": (SKUS[draw(0, SKUS.len() as u64 - 1) as usize]),
                "quantity": (draw(1, 9) as i64),
                "unit_price": (draw(99, 99_999) as i64)
            })
        })
        .collect();
    json!({
        "owner": (NAMES[draw(0, NAMES.len() as u64 - 1) as usize]),
        "currency": "USD",
        "items": (Value::Array(items))
    })
}

#[test]
fn cart_values_cost_their_text_not_a_tree() {
    let mut state = 0x9e37_79b9_7f4a_7c15;
    let mut machine = KvMachine::new();
    let (mut text_bytes, mut lsn) = (0, 0);
    let before = LIVE.load(Ordering::Relaxed);
    // Two rounds, so every key's first value is replaced once: the
    // machine must not keep what it overwrote.
    for round in 0..2 {
        for n in 0..KEYS {
            let key = format!("cart-{n:04}");
            let value = cart(&mut state);
            if round == 1 {
                text_bytes += key.len() + value.to_compact().len();
            }
            lsn += 1;
            machine.apply(lsn, &KvMachine::put_command(&key, &value)).unwrap();
        }
    }
    let live = (LIVE.load(Ordering::Relaxed) - before) as usize;
    assert_eq!(machine.len(), KEYS as usize);

    let per_key = live / KEYS as usize;
    let text_per_key = text_bytes / KEYS as usize;
    // The text and key themselves, plus one hash-table slot (two boxed
    // strs and a version, at hashbrown's worst load) with room to spare.
    let bound = text_per_key + 128;
    println!(
        "kv footprint: {per_key} B live per key for {text_per_key} B of key and canonical text \
         (bound {bound} B)"
    );
    assert!(
        per_key <= bound,
        "{per_key} B live per key exceeds {bound} B for {text_per_key} B of text: the machine \
         holds more than its values' text"
    );
    drop(machine);
}
