//! Property tests for the repository services: crypto round-trips over
//! arbitrary data/keys, cart arithmetic laws, cache behavioral model,
//! mortgage decision invariants, and the replay contract of the
//! journalled cart and submission ledger (a durable service answers
//! every operation like an in-memory one and reopens to the same state).

use proptest::prelude::*;
use soc_services::cache::CacheService;
use soc_services::cart::{CartService, LineItem, Promotion};
use soc_services::crypto::{
    base64_decode, base64_encode, hex_decode, hex_encode, vigenere_decrypt, vigenere_encrypt,
    EncryptionService, Xtea,
};
use soc_services::ledger::SubmissionLedger;
use soc_services::mortgage::{Application, CreditScoreService, Decision, MortgageService};
use soc_services::password::PasswordService;
use soc_store::wal::{FsyncPolicy, WalConfig};
use soc_store::TempDir;

/// Reopening after a drop is a process crash, not a power loss, so the
/// replay properties need no fsync.
fn unsynced() -> WalConfig {
    WalConfig { fsync: FsyncPolicy::Never, ..WalConfig::default() }
}

/// Cart ids the generated operations address: 0 is never created, the
/// rest only once enough creates ran.
const CART_IDS: u64 = 6;

/// Every cart's lines (or its error) — the state a reopen must keep.
fn cart_contents(svc: &CartService) -> Vec<Result<Vec<LineItem>, String>> {
    (0..CART_IDS).map(|id| svc.items(id)).collect()
}

/// Everything the ledger's audit getters report.
fn ledger_audit(ledger: &SubmissionLedger) -> String {
    let entries: Vec<String> =
        ledger.keys().iter().map(|k| format!("{k}: {:?}", ledger.entry(k))).collect();
    format!(
        "{entries:?} executions={} deduped={} max_per_content={} open={} cancelled={:?} \
         orphans={} keyless={} tombstones={}",
        ledger.total_executions(),
        ledger.total_deduped(),
        ledger.max_executions_per_content(),
        ledger.open_applications(),
        ledger.cancelled_keys(),
        ledger.orphan_cancels(),
        ledger.keyless_submissions(),
        ledger.pending_tombstones(),
    )
}

proptest! {
    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
    }

    #[test]
    fn base64_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
    }

    #[test]
    fn xtea_round_trip(
        key in proptest::collection::vec(any::<u8>(), 16..17),
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let key: [u8; 16] = key.try_into().unwrap();
        let cipher = Xtea::new(&key);
        let enc = cipher.encrypt(&data);
        prop_assert_eq!(enc.len() % 8, 0);
        prop_assert!(enc.len() >= data.len());
        prop_assert_eq!(cipher.decrypt(&enc).unwrap(), data);
    }

    #[test]
    fn xtea_ciphertext_differs_from_plaintext(
        data in proptest::collection::vec(any::<u8>(), 8..128),
    ) {
        let cipher = Xtea::from_passphrase("k");
        let enc = cipher.encrypt(&data);
        prop_assert_ne!(&enc[..data.len().min(enc.len())], &data[..]);
    }

    #[test]
    fn text_encryption_round_trip(pass in "[ -~]{1,24}", text in "[ -~é中]{0,128}") {
        let c = EncryptionService::encrypt_text(&pass, &text);
        prop_assert_eq!(EncryptionService::decrypt_text(&pass, &c).unwrap(), text);
    }

    #[test]
    fn vigenere_round_trip(key in "[a-zA-Z]{1,12}", text in "[ -~]{0,96}") {
        let c = vigenere_encrypt(&text, &key).unwrap();
        prop_assert_eq!(vigenere_decrypt(&c, &key).unwrap(), text.clone());
        // Non-letters are untouched.
        for (a, b) in text.chars().zip(c.chars()) {
            if !a.is_ascii_alphabetic() {
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn cart_totals_are_linear(
        items in proptest::collection::vec(("[a-z]{1,6}", 0i64..10_000, 1u32..20), 1..8),
    ) {
        let svc = CartService::new();
        let id = svc.create();
        let mut expected = 0i64;
        for (i, (sku, price, qty)) in items.iter().enumerate() {
            // Unique SKUs so merging doesn't complicate the oracle.
            let sku = format!("{sku}-{i}");
            svc.add(id, LineItem {
                sku,
                name: "x".into(),
                unit_price: *price,
                quantity: *qty,
            }).unwrap();
            expected += *price * *qty as i64;
        }
        let r = svc.checkout(id, &[]).unwrap();
        prop_assert_eq!(r.subtotal, expected);
        prop_assert_eq!(r.total, expected);
    }

    #[test]
    fn percent_discount_bounds(
        price in 1i64..100_000,
        qty in 1u32..10,
        pct in 1u32..100,
    ) {
        let svc = CartService::new();
        let id = svc.create();
        svc.add(id, LineItem { sku: "a".into(), name: "x".into(), unit_price: price, quantity: qty })
            .unwrap();
        let r = svc.checkout(id, &[Promotion::PercentOff(pct)]).unwrap();
        prop_assert!(r.total >= 0);
        prop_assert!(r.total <= r.subtotal);
        prop_assert_eq!(r.total + r.discount, r.subtotal);
    }

    #[test]
    fn cache_model(ops in proptest::collection::vec((0u8..2, 0u8..4, "[a-z]{1,2}"), 0..64)) {
        // Model: unbounded map with TTL ignored (ttl here is huge) —
        // with capacity ≥ distinct keys the cache must agree exactly.
        let cache = CacheService::new(64, 1_000_000);
        let mut model: std::collections::HashMap<String, String> = Default::default();
        for (t, (op, val, key)) in ops.into_iter().enumerate() {
            let now = t as u64;
            match op {
                0 => {
                    let v = format!("v{val}");
                    cache.put(&key, &v, now);
                    model.insert(key, v);
                }
                _ => {
                    prop_assert_eq!(cache.get(&key, now), model.get(&key).cloned());
                }
            }
        }
    }

    #[test]
    fn credit_scores_stable_and_bounded(ssn in "[0-9]{9}") {
        let a = CreditScoreService::score(&ssn);
        prop_assert_eq!(a, CreditScoreService::score(&ssn));
        prop_assert!((300..=850).contains(&a));
        // Formatting with dashes never changes the score.
        let dashed = format!("{}-{}-{}", &ssn[0..3], &ssn[3..5], &ssn[5..9]);
        prop_assert_eq!(CreditScoreService::score(&dashed), a);
    }

    #[test]
    fn mortgage_decisions_are_rule_consistent(
        ssn in "[0-9]{9}",
        income in 1u64..500_000,
        loan in 1u64..2_000_000,
    ) {
        let svc = MortgageService::default();
        let app = Application {
            name: "P".into(),
            ssn: ssn.clone(),
            annual_income: income,
            loan_amount: loan,
            term_years: 30,
        };
        let score = CreditScoreService::score(&ssn);
        let dti_ok = loan * 100 <= income * svc.max_loan_to_income_pct;
        match svc.decide(&app) {
            Decision::Approved { score: s, rate_bps, monthly_payment } => {
                prop_assert_eq!(s, score);
                prop_assert!(score >= svc.min_score);
                prop_assert!(dti_ok);
                prop_assert!((300..=700).contains(&rate_bps));
                prop_assert!(monthly_payment > 0);
            }
            Decision::Rejected { reasons, .. } => {
                prop_assert!(score < svc.min_score || !dti_ok);
                prop_assert!(!reasons.is_empty());
            }
        }
    }

    #[test]
    fn generated_passwords_meet_policy(seed in any::<u64>(), len in 4usize..64) {
        let svc = PasswordService::new(seed);
        let p = svc.generate(len, soc_services::password::Charset::full()).unwrap();
        prop_assert_eq!(p.chars().count(), len);
        prop_assert!(PasswordService::entropy_bits(&p) > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn durable_cart_matches_in_memory_and_survives_reopen(
        ops in proptest::collection::vec(
            (0u8..6, 0..CART_IDS, 0u8..3, 0u32..4, -1i64..500),
            0..48,
        ),
    ) {
        let tmp = TempDir::new("cart-props");
        let live = CartService::new();
        let durable = CartService::durable(tmp.path(), unsynced()).unwrap();
        for (kind, cart, sku, qty, price) in ops {
            // Zero quantities, negative prices, absent carts and absent
            // SKUs are all generated: refusals must match too.
            let sku = format!("s{sku}");
            let item =
                LineItem { sku: sku.clone(), name: "x".into(), unit_price: price, quantity: qty };
            match kind {
                0 => prop_assert_eq!(live.create(), durable.create()),
                1 | 2 => prop_assert_eq!(live.add(cart, item.clone()), durable.add(cart, item)),
                3 => prop_assert_eq!(live.remove(cart, &sku, qty), durable.remove(cart, &sku, qty)),
                4 => prop_assert_eq!(live.destroy(cart), durable.destroy(cart)),
                _ => {
                    live.compact().unwrap();
                    durable.compact().unwrap();
                }
            }
        }
        prop_assert_eq!(cart_contents(&durable), cart_contents(&live));
        drop(durable);
        let reopened = CartService::durable(tmp.path(), unsynced()).unwrap();
        prop_assert_eq!(cart_contents(&reopened), cart_contents(&live));
        // The next cart id survives too.
        prop_assert_eq!(reopened.create(), live.create());
    }

    #[test]
    fn durable_ledger_matches_in_memory_and_survives_reopen(
        ops in proptest::collection::vec((0u8..5, 0u8..4, 0u8..3), 0..48),
    ) {
        let tmp = TempDir::new("ledger-props");
        let live = SubmissionLedger::new();
        let durable = SubmissionLedger::durable(tmp.path(), unsynced()).unwrap();
        for (step, (kind, key, content)) in ops.into_iter().enumerate() {
            let (key, content) = (format!("k{key}"), format!("app-{content}"));
            match kind {
                0 => {
                    let decide = || format!("{{\"decision\":{step}}}");
                    prop_assert_eq!(
                        live.apply(&key, &content, decide),
                        durable.apply(&key, &content, decide)
                    );
                }
                1 => prop_assert_eq!(live.cancel(&key), durable.cancel(&key)),
                2 => prop_assert_eq!(
                    live.cancel_reservation(&key),
                    durable.cancel_reservation(&key)
                ),
                3 => {
                    live.note_keyless(&content);
                    durable.note_keyless(&content);
                }
                _ => {
                    live.compact().unwrap();
                    durable.compact().unwrap();
                }
            }
        }
        prop_assert_eq!(ledger_audit(&durable), ledger_audit(&live));
        drop(durable);
        let reopened = SubmissionLedger::durable(tmp.path(), unsynced()).unwrap();
        prop_assert_eq!(ledger_audit(&reopened), ledger_audit(&live));
    }
}
