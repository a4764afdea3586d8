//! A versioned key-value [`StateMachine`] — the demo workload for the
//! replicated store node, and the simplest possible consumer of the
//! WAL's replay contract.
//!
//! The machine holds JSON *text*, not trees: each value is kept as the
//! exact string [`Value::to_compact`] writes for it, one boxed `str`
//! per key. `apply` takes the command's `value` member as a validated
//! slice ([`soc_json::members_raw`]) and keeps it as it stands when it
//! is already canonical — every command this crate writes is — so a
//! put costs one copy and no tree; any other spelling (whitespace,
//! `\u0041`, `1e2`) is rewritten to its canonical form first. That
//! invariant is why snapshots stay byte-identical to a machine that
//! holds `Value` trees: [`StateMachine::snapshot`] and the
//! `GET /store/{key}` body splice the stored texts where a tree would
//! be serialized, and a tree serializes to exactly that text — so the
//! snapshot bytes, and the anti-entropy checksum over them, do not
//! depend on how the value is held.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write;

use soc_json::{Value, ValueRef};

use crate::state::StateMachine;
use crate::wal::Lsn;

/// Versioned KV state: every key remembers the LSN of its last write,
/// which doubles as the version a read-your-writes client demands.
///
/// Values are held as canonical compact JSON text (see the module
/// docs); [`KvMachine::get`] hands that text out, and a caller that
/// wants a [`Value`] parses it.
#[derive(Default)]
pub struct KvMachine {
    entries: HashMap<Box<str>, (Box<str>, Lsn)>,
}

impl KvMachine {
    /// Empty machine.
    pub fn new() -> KvMachine {
        KvMachine::default()
    }

    /// The value of `key` as canonical compact JSON text, and its
    /// version.
    pub fn get(&self, key: &str) -> Option<(&str, Lsn)> {
        self.entries.get(key).map(|(v, l)| (&**v, *l))
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no keys are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted keys (tests and debugging).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.entries.keys().map(|k| k.to_string()).collect();
        keys.sort();
        keys
    }

    /// Serialize a `put` command.
    pub fn put_command(key: &str, value: &Value) -> Vec<u8> {
        Self::put_text_command(key, &value.to_compact())
    }

    /// Serialize a `put` of `value`, JSON text — the same bytes
    /// [`KvMachine::put_command`] writes when `value` is its value's
    /// canonical text.
    pub fn put_text_command(key: &str, value: &str) -> Vec<u8> {
        put_json(key, value, None)
    }

    /// Serialize a `put` of `value`, JSON text, that pins an explicit
    /// version — used by failover promotion to adopt a dead primary's
    /// keys (their stored text, as [`KvMachine::get`] gives it) without
    /// regressing the versions its clients already hold.
    pub fn put_versioned_command(key: &str, value: &str, version: Lsn) -> Vec<u8> {
        put_json(key, value, Some(version))
    }

    /// Serialize a `del` command.
    pub fn del_command(key: &str) -> Vec<u8> {
        let mut cmd = String::with_capacity(key.len() + 24);
        cmd.push_str(r#"{"op":"del","key":"#);
        soc_json::ser::write_str(key, &mut cmd);
        cmd.push('}');
        cmd.into_bytes()
    }
}

/// `{"op":"put","key":K,"value":V[,"version":N]}` — member for member
/// what `Value::to_compact` writes for the command object.
fn put_json(key: &str, value: &str, version: Option<Lsn>) -> Vec<u8> {
    let mut cmd = String::with_capacity(key.len() + value.len() + 48);
    cmd.push_str(r#"{"op":"put","key":"#);
    soc_json::ser::write_str(key, &mut cmd);
    cmd.push_str(r#","value":"#);
    cmd.push_str(value);
    if let Some(version) = version {
        let _ = write!(cmd, r#","version":{}"#, version as i64);
    }
    cmd.push('}');
    cmd.into_bytes()
}

/// A small scalar member (`op`, `key`, `version`) decoded as `parse_ref`
/// would have built it.
fn scalar(raw: Option<&str>) -> Option<ValueRef<'_>> {
    raw.and_then(|r| soc_json::parse_ref(r).ok())
}

/// The text to keep for a value slice: itself when canonical (no
/// allocation beyond the box), its canonical rewrite otherwise.
fn kept(raw: &str) -> Result<Box<str>, soc_json::JsonError> {
    soc_json::canonical(raw).map(Cow::into_owned).map(String::into_boxed_str)
}

impl StateMachine for KvMachine {
    fn apply(&mut self, lsn: Lsn, command: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(command) else { return Ok(()) };
        // Unparseable and non-object commands are skipped. Members are
        // decoded as raw slices, last duplicate winning like
        // `Value::get`; only the stored value is copied.
        let Ok(members) = soc_json::members_raw(text) else { return Ok(()) };
        let (mut op, mut key, mut value, mut version) = (None, None, None, None);
        for (name, raw) in members {
            match &*name {
                "op" => op = Some(raw),
                "key" => key = Some(raw),
                "value" => value = Some(raw),
                "version" => version = Some(raw),
                _ => {}
            }
        }
        let key = scalar(key);
        let key = key.as_ref().and_then(ValueRef::as_str).unwrap_or_default();
        match scalar(op).as_ref().and_then(ValueRef::as_str) {
            Some("put") => {
                // The slice was validated with the command, so only a
                // non-canonical spelling pays for a rewrite here.
                let value = kept(value.unwrap_or("null")).map_err(|e| e.to_string())?;
                // A pinned version (promotion re-log) wins; otherwise
                // the LSN, floored so a key adopted at a high version
                // never regresses when its new primary's log is short.
                let prior = self.entries.get(key).map(|(_, l)| *l).unwrap_or(0);
                let version = scalar(version)
                    .as_ref()
                    .and_then(ValueRef::as_i64)
                    .map(|v| v as Lsn)
                    .unwrap_or_else(|| lsn.max(prior + 1));
                match self.entries.get_mut(key) {
                    Some(entry) => *entry = (value, version),
                    None => {
                        self.entries.insert(key.into(), (value, version));
                    }
                }
            }
            Some("del") => {
                self.entries.remove(key);
            }
            _ => {}
        }
        Ok(())
    }

    /// `{"entries":[{"key":K,"value":V,"version":N},…]}` in key order,
    /// spliced from the stored texts: the bytes `Value::to_compact`
    /// writes for the same state built as a tree.
    fn snapshot(&self) -> Vec<u8> {
        let mut keys: Vec<&str> = self.entries.keys().map(|k| &**k).collect();
        keys.sort();
        let size: usize = self.entries.iter().map(|(k, (v, _))| k.len() + v.len() + 56).sum();
        let mut snap = String::with_capacity(size + 16);
        snap.push_str(r#"{"entries":["#);
        for (i, k) in keys.into_iter().enumerate() {
            let (v, lsn) = &self.entries[k];
            if i > 0 {
                snap.push(',');
            }
            snap.push_str(r#"{"key":"#);
            soc_json::ser::write_str(k, &mut snap);
            snap.push_str(r#","value":"#);
            snap.push_str(v);
            let _ = write!(snap, r#","version":{}}}"#, *lsn as i64);
        }
        snap.push_str("]}");
        snap.into_bytes()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(snapshot).map_err(|e| e.to_string())?;
        let members = soc_json::members_raw(text).map_err(|e| e.to_string())?;
        let entries = members.iter().rev().find(|(name, _)| name == "entries");
        let items = entries
            .and_then(|(_, raw)| soc_json::items_raw(raw).ok())
            .ok_or("kv snapshot missing entries")?;
        self.entries.clear();
        for item in items {
            let (mut key, mut value, mut version) = (None, None, None);
            for (name, raw) in soc_json::members_raw(item).unwrap_or_default() {
                match &*name {
                    "key" => key = Some(raw),
                    "value" => value = Some(raw),
                    "version" => version = Some(raw),
                    _ => {}
                }
            }
            let key = scalar(key);
            let key =
                key.as_ref().and_then(ValueRef::as_str).ok_or("kv snapshot entry missing key")?;
            let value = kept(value.unwrap_or("null")).map_err(|e| e.to_string())?;
            let version = scalar(version)
                .as_ref()
                .and_then(ValueRef::as_i64)
                .ok_or("kv snapshot entry missing version")? as Lsn;
            self.entries.insert(key.into(), (value, version));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Durable;
    use crate::wal::WalConfig;
    use crate::TempDir;
    use soc_json::json;

    #[test]
    fn put_get_delete_with_versions() {
        let tmp = TempDir::new("kv");
        let d = Durable::open(tmp.path(), WalConfig::default(), KvMachine::new()).unwrap();
        let v1 = d.execute(&KvMachine::put_command("a", &json!({"n": 1}))).unwrap();
        let v2 = d.execute(&KvMachine::put_command("a", &json!({"n": 2}))).unwrap();
        assert!(v2 > v1);
        assert_eq!(d.query(|m| m.get("a").map(|(_, l)| l)), Some(v2));
        d.execute(&KvMachine::del_command("a")).unwrap();
        assert!(d.query(|m| m.get("a").is_none()));
    }

    #[test]
    fn commands_decode_like_the_owned_dom_did() {
        let mut m = KvMachine::new();
        // Unparseable, non-object, and unknown commands are skipped.
        for skipped in [&b"\xff"[..], b"{", b"[1]", br#"{"op":"merge","key":"a"}"#] {
            m.apply(1, skipped).unwrap();
        }
        assert!(m.is_empty());
        // Later duplicates win; a canonical value is kept as written.
        m.apply(2, br#"{"op":"put","key":"a","key":"b","value":{"s":"x\ty"}}"#).unwrap();
        assert_eq!(m.keys(), vec!["b"]);
        assert_eq!(m.get("b"), Some((r#"{"s":"x\ty"}"#, 2)));
        // Any other spelling is kept in its canonical form.
        m.apply(3, b"{\"op\":\"put\",\"key\":\"c\",\"value\": [ \"\\u0041\", 1e2 ]\n}").unwrap();
        assert_eq!(m.get("c"), Some((r#"["A",100.0]"#, 3)));
        m.apply(3, br#"{"op":"del","key":"c"}"#).unwrap();
        // A put without a value stores null; a pinned version wins.
        m.apply(3, br#"{"op":"put","key":"b","version":40}"#).unwrap();
        assert_eq!(m.get("b"), Some(("null", 40)));
        m.apply(4, br#"{"op":"put","key":"b","value":1}"#).unwrap();
        assert_eq!(m.get("b").map(|(_, l)| l), Some(41), "versions never regress");
        m.apply(5, br#"{"op":"del","key":"b"}"#).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn snapshot_round_trips_values_and_versions() {
        let tmp = TempDir::new("kv-snap");
        {
            let d = Durable::open(tmp.path(), WalConfig::default(), KvMachine::new()).unwrap();
            d.execute(&KvMachine::put_command("x", &json!("hello"))).unwrap();
            d.execute(&KvMachine::put_command("y", &json!([1, 2, 3]))).unwrap();
            d.execute(&KvMachine::del_command("x")).unwrap();
            d.compact().unwrap();
            d.execute(&KvMachine::put_command("z", &json!(9))).unwrap();
        }
        let d = Durable::open(tmp.path(), WalConfig::default(), KvMachine::new()).unwrap();
        assert_eq!(d.query(|m| m.keys()), vec!["y", "z"]);
        assert_eq!(d.query(|m| m.get("y").map(|(_, l)| l)), Some(2));
        assert_eq!(d.query(|m| m.get("z").map(|(_, l)| l)), Some(4));
    }
}
