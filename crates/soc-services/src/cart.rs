//! The shopping-cart service: carts, line items, quantity math, and a
//! small promotion engine — the commerce staple of the repository.
//!
//! The cart state is a [`StateMachine`] run by a [`Durable`]: every
//! mutation (create/add/remove/destroy) is a logged command, checked by
//! one validator before it is logged and again when `apply` replays
//! it. [`CartService::durable`] journals the commands to a write-ahead
//! log and replays it on reopen, so carts survive a crash of the host
//! process. [`CartService::new`] runs the same commands on a
//! [`Durable::in_memory`] machine. Checkout is a pure read and is never
//! journalled.

use std::collections::HashMap;

use soc_json::{json, Value};
use soc_store::wal::{Lsn, WalConfig};
use soc_store::{Durable, StateMachine, StoreResult};

/// Money in integer cents (floats and money don't mix — a unit-5 aside
/// the course makes too).
pub type Cents = i64;

/// One line of a cart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineItem {
    /// Stock-keeping id.
    pub sku: String,
    /// Display name.
    pub name: String,
    /// Unit price in cents.
    pub unit_price: Cents,
    /// Quantity (≥ 1 while in the cart).
    pub quantity: u32,
}

impl LineItem {
    /// Line total.
    pub fn total(&self) -> Cents {
        self.unit_price * self.quantity as i64
    }
}

/// Discounts applied at checkout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Promotion {
    /// Percent off the subtotal (1..=100).
    PercentOff(u32),
    /// Fixed amount off, floored at zero.
    AmountOff(Cents),
    /// Buy `buy` of a SKU, pay for `pay` of them.
    BuyNPayM {
        /// SKU the promotion applies to.
        sku: String,
        /// Units that must be in the cart.
        buy: u32,
        /// Units actually charged per `buy` group.
        pay: u32,
    },
}

/// A priced cart summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Line items at checkout time.
    pub items: Vec<LineItem>,
    /// Sum of line totals.
    pub subtotal: Cents,
    /// Total discount (≥ 0).
    pub discount: Cents,
    /// Amount due.
    pub total: Cents,
}

/// One cart mutation, as journalled.
enum CartOp {
    Create(u64),
    Add(u64, LineItem),
    /// Remove up to this many units of a SKU.
    Remove(u64, String, u32),
    Destroy(u64),
}

impl CartOp {
    fn encode(&self) -> Vec<u8> {
        let ev = match self {
            CartOp::Create(cart) => json!({ "ev": "create", "cart": (*cart as i64) }),
            CartOp::Add(cart, item) => json!({
                "ev": "add",
                "cart": (*cart as i64),
                "sku": (item.sku.as_str()),
                "name": (item.name.as_str()),
                "price": (item.unit_price),
                "qty": (item.quantity as i64)
            }),
            CartOp::Remove(cart, sku, quantity) => json!({
                "ev": "remove",
                "cart": (*cart as i64),
                "sku": (sku.as_str()),
                "qty": (*quantity as i64)
            }),
            CartOp::Destroy(cart) => json!({ "ev": "destroy", "cart": (*cart as i64) }),
        };
        ev.to_compact().into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<CartOp, String> {
        let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
        let ev = Value::parse(text).map_err(|e| e.to_string())?;
        let text_field =
            |name| ev.get(name).and_then(Value::as_str).unwrap_or_default().to_string();
        let int_field = |name| ev.get(name).and_then(Value::as_i64).unwrap_or(0);
        let cart = int_field("cart") as u64;
        match ev.get("ev").and_then(Value::as_str) {
            Some("create") => Ok(CartOp::Create(cart)),
            Some("add") => Ok(CartOp::Add(
                cart,
                LineItem {
                    sku: text_field("sku"),
                    name: text_field("name"),
                    unit_price: int_field("price"),
                    quantity: int_field("qty") as u32,
                },
            )),
            Some("remove") => Ok(CartOp::Remove(cart, text_field("sku"), int_field("qty") as u32)),
            Some("destroy") => Ok(CartOp::Destroy(cart)),
            other => Err(format!("unknown cart event {other:?}")),
        }
    }
}

struct CartState {
    carts: HashMap<u64, Vec<LineItem>>,
    next_id: u64,
}

impl Default for CartState {
    fn default() -> Self {
        CartState { carts: HashMap::new(), next_id: 1 }
    }
}

impl CartState {
    fn lines(&self, cart: u64) -> Result<&Vec<LineItem>, String> {
        self.carts.get(&cart).ok_or_else(|| "no such cart".into())
    }

    /// Whether `op` applies to the current state. The live path calls
    /// this before logging (so only valid mutations are journalled) and
    /// `apply` calls it again, so a journal holding an invalid command
    /// fails to replay.
    fn check(&self, op: &CartOp) -> Result<(), String> {
        match op {
            CartOp::Create(_) => Ok(()),
            CartOp::Add(cart, item) => {
                if item.quantity == 0 {
                    return Err("quantity must be at least 1".into());
                }
                if item.unit_price < 0 {
                    return Err("price cannot be negative".into());
                }
                self.lines(*cart).map(drop)
            }
            CartOp::Remove(cart, sku, _) => {
                if self.lines(*cart)?.iter().any(|l| l.sku == *sku) {
                    Ok(())
                } else {
                    Err(format!("sku {sku:?} not in cart"))
                }
            }
            CartOp::Destroy(cart) => self.lines(*cart).map(drop),
        }
    }
}

impl StateMachine for CartState {
    fn apply(&mut self, _lsn: Lsn, command: &[u8]) -> Result<(), String> {
        let op = CartOp::decode(command)?;
        self.check(&op)?;
        match op {
            CartOp::Create(cart) => {
                self.carts.insert(cart, Vec::new());
                self.next_id = self.next_id.max(cart + 1);
            }
            CartOp::Add(cart, item) => {
                let lines = self.carts.entry(cart).or_default();
                match lines.iter_mut().find(|l| l.sku == item.sku) {
                    Some(line) => line.quantity += item.quantity,
                    None => lines.push(item),
                }
            }
            CartOp::Remove(cart, sku, quantity) => {
                let lines = self.carts.entry(cart).or_default();
                if let Some(pos) = lines.iter().position(|l| l.sku == sku) {
                    if lines[pos].quantity <= quantity {
                        lines.remove(pos);
                    } else {
                        lines[pos].quantity -= quantity;
                    }
                }
            }
            CartOp::Destroy(cart) => {
                self.carts.remove(&cart);
            }
        }
        Ok(())
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut ids: Vec<&u64> = self.carts.keys().collect();
        ids.sort();
        let carts: Vec<Value> = ids
            .into_iter()
            .map(|id| {
                let lines: Vec<Value> = self.carts[id]
                    .iter()
                    .map(|l| {
                        let mut line = Value::object();
                        line.set("sku", l.sku.as_str());
                        line.set("name", l.name.as_str());
                        line.set("price", l.unit_price);
                        line.set("qty", l.quantity as i64);
                        line
                    })
                    .collect();
                let mut cart = Value::object();
                cart.set("id", *id as i64);
                cart.set("lines", Value::Array(lines));
                cart
            })
            .collect();
        let mut snap = Value::object();
        snap.set("carts", Value::Array(carts));
        snap.set("next_id", self.next_id as i64);
        snap.to_compact().into_bytes()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(snapshot).map_err(|e| e.to_string())?;
        let snap = Value::parse(text).map_err(|e| e.to_string())?;
        *self = CartState::default();
        self.next_id = snap.get("next_id").and_then(Value::as_i64).unwrap_or(1) as u64;
        for cart in snap.get("carts").and_then(Value::as_array).ok_or("missing carts")? {
            let id = cart.get("id").and_then(Value::as_i64).ok_or("cart missing id")? as u64;
            let mut lines = Vec::new();
            for l in cart.get("lines").and_then(Value::as_array).unwrap_or(&[]) {
                lines.push(LineItem {
                    sku: l.get("sku").and_then(Value::as_str).unwrap_or_default().to_string(),
                    name: l.get("name").and_then(Value::as_str).unwrap_or_default().to_string(),
                    unit_price: l.get("price").and_then(Value::as_i64).unwrap_or(0),
                    quantity: l.get("qty").and_then(Value::as_i64).unwrap_or(0) as u32,
                });
            }
            self.carts.insert(id, lines);
        }
        Ok(())
    }
}

/// The cart service: many carts by id.
pub struct CartService {
    store: Durable<CartState>,
}

impl Default for CartService {
    fn default() -> Self {
        Self::new()
    }
}

impl CartService {
    /// Empty in-memory service.
    pub fn new() -> Self {
        CartService { store: Durable::in_memory(CartState::default()) }
    }

    /// A cart service journalled to a write-ahead log in `dir`,
    /// recovered to its pre-crash state if a journal already exists.
    pub fn durable(dir: impl AsRef<std::path::Path>, cfg: WalConfig) -> StoreResult<Self> {
        Ok(CartService { store: Durable::open(dir, cfg, CartState::default())? })
    }

    /// Snapshot-then-truncate the journal (durable services only).
    pub fn compact(&self) -> StoreResult<()> {
        self.store.compact().map(drop)
    }

    /// Build the mutation from the current state, validate it, and log
    /// and apply it if valid — one atomic step. Refused mutations are
    /// never journalled.
    fn execute(&self, op: impl FnOnce(&CartState) -> CartOp) -> Result<(), String> {
        let mut verdict = Ok(());
        self.store
            .execute_when(|state| {
                let op = op(state);
                verdict = state.check(&op);
                verdict.is_ok().then(|| (op.encode(), ()))
            })
            .unwrap_or_else(|e| panic!("cart service lost durability: {e}"));
        verdict
    }

    /// Create an empty cart, returning its id.
    pub fn create(&self) -> u64 {
        let mut id = 0;
        self.execute(|state| {
            id = state.next_id;
            CartOp::Create(id)
        })
        .expect("a create always validates");
        id
    }

    /// Add quantity of an item (merges with an existing line of the same
    /// SKU; the price of the existing line wins on conflict).
    pub fn add(&self, cart: u64, item: LineItem) -> Result<(), String> {
        self.execute(|_| CartOp::Add(cart, item))
    }

    /// Remove up to `quantity` units of a SKU; the line disappears at 0.
    pub fn remove(&self, cart: u64, sku: &str, quantity: u32) -> Result<(), String> {
        self.execute(|_| CartOp::Remove(cart, sku.to_string(), quantity))
    }

    /// Current lines.
    pub fn items(&self, cart: u64) -> Result<Vec<LineItem>, String> {
        self.store.query(|state| state.lines(cart).cloned())
    }

    /// Price the cart with promotions; does not consume it.
    pub fn checkout(&self, cart: u64, promotions: &[Promotion]) -> Result<Receipt, String> {
        let items = self.items(cart)?;
        let subtotal: Cents = items.iter().map(LineItem::total).sum();
        let mut discount: Cents = 0;
        for promo in promotions {
            discount += match promo {
                Promotion::PercentOff(pct) => {
                    if *pct == 0 || *pct > 100 {
                        return Err("percent must be 1..=100".into());
                    }
                    subtotal * *pct as i64 / 100
                }
                Promotion::AmountOff(cents) => (*cents).max(0),
                Promotion::BuyNPayM { sku, buy, pay } => {
                    if pay > buy || *buy == 0 {
                        return Err("buy/pay promotion malformed".into());
                    }
                    match items.iter().find(|l| l.sku == *sku) {
                        Some(line) => {
                            let groups = line.quantity / buy;
                            (groups * (buy - pay)) as i64 * line.unit_price
                        }
                        None => 0,
                    }
                }
            };
        }
        let discount = discount.min(subtotal);
        Ok(Receipt { items, subtotal, discount, total: subtotal - discount })
    }

    /// Drop a cart; `true` if it existed.
    pub fn destroy(&self, cart: u64) -> bool {
        self.execute(|_| CartOp::Destroy(cart)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> LineItem {
        LineItem { sku: "bk-1".into(), name: "SOC text".into(), unit_price: 4999, quantity: 1 }
    }

    fn pen() -> LineItem {
        LineItem { sku: "pn-1".into(), name: "pen".into(), unit_price: 150, quantity: 3 }
    }

    #[test]
    fn add_merge_and_totals() {
        let svc = CartService::new();
        let id = svc.create();
        svc.add(id, book()).unwrap();
        svc.add(id, book()).unwrap();
        svc.add(id, pen()).unwrap();
        let items = svc.items(id).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].quantity, 2);
        let receipt = svc.checkout(id, &[]).unwrap();
        assert_eq!(receipt.subtotal, 2 * 4999 + 3 * 150);
        assert_eq!(receipt.total, receipt.subtotal);
        assert_eq!(receipt.discount, 0);
    }

    #[test]
    fn remove_decrements_and_deletes() {
        let svc = CartService::new();
        let id = svc.create();
        svc.add(id, pen()).unwrap();
        svc.remove(id, "pn-1", 2).unwrap();
        assert_eq!(svc.items(id).unwrap()[0].quantity, 1);
        svc.remove(id, "pn-1", 5).unwrap();
        assert!(svc.items(id).unwrap().is_empty());
        assert!(svc.remove(id, "pn-1", 1).is_err());
    }

    #[test]
    fn percent_discount() {
        let svc = CartService::new();
        let id = svc.create();
        svc.add(id, book()).unwrap();
        let r = svc.checkout(id, &[Promotion::PercentOff(10)]).unwrap();
        assert_eq!(r.discount, 499);
        assert_eq!(r.total, 4999 - 499);
        assert!(svc.checkout(id, &[Promotion::PercentOff(0)]).is_err());
        assert!(svc.checkout(id, &[Promotion::PercentOff(101)]).is_err());
    }

    #[test]
    fn buy_n_pay_m() {
        let svc = CartService::new();
        let id = svc.create();
        let mut pens = pen();
        pens.quantity = 7; // 7 pens, buy 3 pay 2 → 2 groups → 2 free
        svc.add(id, pens).unwrap();
        let promo = Promotion::BuyNPayM { sku: "pn-1".into(), buy: 3, pay: 2 };
        let r = svc.checkout(id, &[promo]).unwrap();
        assert_eq!(r.discount, 2 * 150);
        // Promotion on an absent SKU is a no-op.
        let promo = Promotion::BuyNPayM { sku: "ghost".into(), buy: 3, pay: 2 };
        assert_eq!(svc.checkout(id, &[promo]).unwrap().discount, 0);
    }

    #[test]
    fn discount_never_exceeds_subtotal() {
        let svc = CartService::new();
        let id = svc.create();
        svc.add(id, pen()).unwrap();
        let r = svc.checkout(id, &[Promotion::AmountOff(1_000_000)]).unwrap();
        assert_eq!(r.total, 0);
        assert_eq!(r.discount, r.subtotal);
    }

    #[test]
    fn stacked_promotions_accumulate() {
        let svc = CartService::new();
        let id = svc.create();
        svc.add(id, book()).unwrap();
        let r = svc.checkout(id, &[Promotion::PercentOff(10), Promotion::AmountOff(500)]).unwrap();
        assert_eq!(r.discount, 499 + 500);
    }

    #[test]
    fn validation_errors() {
        let svc = CartService::new();
        let id = svc.create();
        assert!(svc.add(id, LineItem { quantity: 0, ..book() }).is_err());
        assert!(svc.add(id, LineItem { unit_price: -5, ..book() }).is_err());
        assert!(svc.add(999, book()).is_err());
        assert!(svc.items(999).is_err());
    }

    #[test]
    fn destroy_cart() {
        let svc = CartService::new();
        let id = svc.create();
        assert!(svc.destroy(id));
        assert!(!svc.destroy(id));
        assert!(svc.items(id).is_err());
    }

    #[test]
    fn durable_cart_replays_to_pre_crash_state() {
        let tmp = soc_store::TempDir::new("cart-durable");
        let (alive, dead);
        {
            let svc = CartService::durable(tmp.path(), WalConfig::default()).unwrap();
            alive = svc.create();
            dead = svc.create();
            svc.add(alive, book()).unwrap();
            svc.add(alive, pen()).unwrap();
            svc.add(alive, book()).unwrap(); // merges with the first book line
            svc.remove(alive, "pn-1", 1).unwrap();
            svc.add(dead, pen()).unwrap();
            assert!(svc.destroy(dead));
            // Failed mutations are never journalled.
            assert!(svc.add(alive, LineItem { quantity: 0, ..book() }).is_err());
            // Simulated crash: drop without any shutdown handshake.
        }
        let svc = CartService::durable(tmp.path(), WalConfig::default()).unwrap();
        let items = svc.items(alive).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items.iter().find(|l| l.sku == "bk-1").unwrap().quantity, 2);
        assert_eq!(items.iter().find(|l| l.sku == "pn-1").unwrap().quantity, 2);
        assert!(svc.items(dead).is_err(), "destroyed cart must stay destroyed");
        // next_id resumes past every journalled create.
        assert!(svc.create() > dead);
        // Checkout still works on replayed state (pure read, unjournalled).
        let r = svc.checkout(alive, &[]).unwrap();
        assert_eq!(r.subtotal, 2 * 4999 + 2 * 150);
    }

    #[test]
    fn durable_cart_compaction_preserves_state() {
        let tmp = soc_store::TempDir::new("cart-compact");
        let id;
        {
            let svc = CartService::durable(tmp.path(), WalConfig::default()).unwrap();
            id = svc.create();
            svc.add(id, book()).unwrap();
            svc.compact().unwrap();
            svc.add(id, pen()).unwrap();
        }
        let svc = CartService::durable(tmp.path(), WalConfig::default()).unwrap();
        assert_eq!(svc.items(id).unwrap().len(), 2);
        assert!(svc.create() > id);
    }

    #[test]
    fn journal_with_invalid_command_fails_to_open() {
        let unknown: &[&[u8]] = &[br#"{"ev":"create","cart":1}"#, br#"{"ev":"empty","cart":1}"#];
        let no_cart: &[&[u8]] = &[
            br#"{"ev":"create","cart":1}"#,
            br#"{"ev":"add","cart":7,"sku":"bk-1","name":"SOC text","price":4999,"qty":1}"#,
        ];
        for (journal, reason) in [(unknown, "unknown cart event"), (no_cart, "no such cart")] {
            let tmp = soc_store::TempDir::new("cart-corrupt");
            {
                let (wal, _) = soc_store::Wal::open(tmp.path()).unwrap();
                for event in journal {
                    wal.append(event).unwrap();
                }
            }
            match CartService::durable(tmp.path(), WalConfig::default()) {
                Err(soc_store::StoreError::Corrupt(msg)) => assert!(msg.contains(reason), "{msg}"),
                Err(e) => panic!("expected Corrupt, got {e:?}"),
                Ok(_) => panic!("a journal holding {reason:?} must not open"),
            }
        }
    }
}
