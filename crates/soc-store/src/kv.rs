//! A versioned key-value [`StateMachine`] — the demo workload for the
//! replicated store node, and the simplest possible consumer of the
//! WAL's replay contract.

use std::collections::HashMap;

use soc_json::{Value, ValueRef};

use crate::state::StateMachine;
use crate::wal::Lsn;

/// Versioned KV state: every key remembers the LSN of its last write,
/// which doubles as the version a read-your-writes client demands.
#[derive(Default)]
pub struct KvMachine {
    entries: HashMap<String, (Value, Lsn)>,
}

impl KvMachine {
    /// Empty machine.
    pub fn new() -> KvMachine {
        KvMachine::default()
    }

    /// The value and version of `key`.
    pub fn get(&self, key: &str) -> Option<(&Value, Lsn)> {
        self.entries.get(key).map(|(v, l)| (v, *l))
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
        let mut keys: Vec<String> = self.entries.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Serialize a `put` command.
    pub fn put_command(key: &str, value: &Value) -> Vec<u8> {
        let mut cmd = Value::object();
        cmd.set("op", "put");
        cmd.set("key", key);
        cmd.set("value", value.clone());
        cmd.to_compact().into_bytes()
    }

    /// Serialize a `put` that pins an explicit version — used by
    /// failover promotion to adopt a dead primary's keys without
    /// regressing the versions its clients already hold.
    pub fn put_versioned_command(key: &str, value: &Value, version: Lsn) -> Vec<u8> {
        let mut cmd = Value::object();
        cmd.set("op", "put");
        cmd.set("key", key);
        cmd.set("value", value.clone());
        cmd.set("version", version as i64);
        cmd.to_compact().into_bytes()
    }

    /// Serialize a `del` command.
    pub fn del_command(key: &str) -> Vec<u8> {
        let mut cmd = Value::object();
        cmd.set("op", "del");
        cmd.set("key", key);
        cmd.to_compact().into_bytes()
    }
}

impl StateMachine for KvMachine {
    fn apply(&mut self, lsn: Lsn, command: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(command) else { return Ok(()) };
        let Ok(cmd) = soc_json::parse_ref(text) else { return Ok(()) };
        // Decode borrowed, last duplicate winning like `Value::get`:
        // only the stored value (and a new key) is made owned.
        let (mut op, mut key, mut value, mut version) = (None, None, None, None);
        if let ValueRef::Object(members) = cmd {
            for (name, field) in members {
                match &*name {
                    "op" => op = Some(field),
                    "key" => key = Some(field),
                    "value" => value = Some(field),
                    "version" => version = Some(field),
                    _ => {}
                }
            }
        }
        let key = key.as_ref().and_then(ValueRef::as_str).unwrap_or_default();
        match op.as_ref().and_then(ValueRef::as_str) {
            Some("put") => {
                // Cloning first sizes every string and array to its
                // content: the parser's buffers grew past it, and the
                // machine keeps the value for good.
                let value = value.map_or(Value::Null, |v| v.clone().into_owned());
                // A pinned version (promotion re-log) wins; otherwise
                // the LSN, floored so a key adopted at a high version
                // never regresses when its new primary's log is short.
                let prior = self.entries.get(key).map(|(_, l)| *l).unwrap_or(0);
                let version = version
                    .as_ref()
                    .and_then(ValueRef::as_i64)
                    .map(|v| v as Lsn)
                    .unwrap_or_else(|| lsn.max(prior + 1));
                match self.entries.get_mut(key) {
                    Some(entry) => *entry = (value, version),
                    None => {
                        self.entries.insert(key.to_string(), (value, version));
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

    fn snapshot(&self) -> Vec<u8> {
        let mut keys: Vec<&String> = self.entries.keys().collect();
        keys.sort();
        let items: Vec<Value> = keys
            .into_iter()
            .map(|k| {
                let (v, lsn) = &self.entries[k];
                let mut item = Value::object();
                item.set("key", k.as_str());
                item.set("value", v.clone());
                item.set("version", *lsn as i64);
                item
            })
            .collect();
        let mut snap = Value::object();
        snap.set("entries", Value::Array(items));
        snap.to_compact().into_bytes()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(snapshot).map_err(|e| e.to_string())?;
        let snap = Value::parse(text).map_err(|e| e.to_string())?;
        let items =
            snap.get("entries").and_then(Value::as_array).ok_or("kv snapshot missing entries")?;
        self.entries.clear();
        for item in items {
            let key = item
                .get("key")
                .and_then(Value::as_str)
                .ok_or("kv snapshot entry missing key")?
                .to_string();
            let value = item.get("value").cloned().unwrap_or(Value::Null);
            let version = item
                .get("version")
                .and_then(Value::as_i64)
                .ok_or("kv snapshot entry missing version")? as Lsn;
            self.entries.insert(key, (value, version));
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
        // Later duplicates win; the value keeps its escapes expanded.
        m.apply(2, br#"{"op":"put","key":"a","key":"b","value":{"s":"x\ty"}}"#).unwrap();
        assert_eq!(m.keys(), vec!["b"]);
        assert_eq!(m.get("b"), Some((&json!({"s": "x\ty"}), 2)));
        // A put without a value stores null; a pinned version wins.
        m.apply(3, br#"{"op":"put","key":"b","version":40}"#).unwrap();
        assert_eq!(m.get("b"), Some((&Value::Null, 40)));
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
