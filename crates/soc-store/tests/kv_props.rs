//! Equivalence of the text-holding `KvMachine` with the tree-holding
//! machine it replaced. The oracle below is that machine, kept whole:
//! it decodes each command into a `Value` tree, holds the trees, and
//! serializes them again for every snapshot. Random command streams —
//! canonical puts and pinned-version puts from the real encoders,
//! hand-written commands spelt every other valid way (whitespace,
//! escapes, exponent floats, duplicate members, a missing value),
//! deletes, and garbage — must leave both machines with the same keys,
//! versions and values, byte-identical snapshots, and the same state
//! after either machine restores the other's snapshot; a log and
//! snapshot the tree machine wrote must reopen under the text machine
//! unchanged. The old encoders ride along: the new ones must write the
//! same command bytes.

use proptest::prelude::*;
use soc_json::{Number, Value};
use soc_store::wal::{FsyncPolicy, Lsn, WalConfig};
use soc_store::{Durable, KvMachine, StateMachine, TempDir};

/// The tree-holding machine, as it was.
mod oracle {
    use std::collections::HashMap;

    use soc_json::{Value, ValueRef};
    use soc_store::wal::Lsn;
    use soc_store::StateMachine;

    #[derive(Default)]
    pub struct TreeKv {
        pub entries: HashMap<String, (Value, Lsn)>,
    }

    pub fn put_command(key: &str, value: &Value) -> Vec<u8> {
        let mut cmd = Value::object();
        cmd.set("op", "put");
        cmd.set("key", key);
        cmd.set("value", value.clone());
        cmd.to_compact().into_bytes()
    }

    pub fn put_versioned_command(key: &str, value: &Value, version: Lsn) -> Vec<u8> {
        let mut cmd = Value::object();
        cmd.set("op", "put");
        cmd.set("key", key);
        cmd.set("value", value.clone());
        cmd.set("version", version as i64);
        cmd.to_compact().into_bytes()
    }

    pub fn del_command(key: &str) -> Vec<u8> {
        let mut cmd = Value::object();
        cmd.set("op", "del");
        cmd.set("key", key);
        cmd.to_compact().into_bytes()
    }

    impl StateMachine for TreeKv {
        fn apply(&mut self, lsn: Lsn, command: &[u8]) -> Result<(), String> {
            let Ok(text) = std::str::from_utf8(command) else { return Ok(()) };
            let Ok(cmd) = soc_json::parse_ref(text) else { return Ok(()) };
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
                    let value = value.map_or(Value::Null, |v| v.clone().into_owned());
                    let prior = self.entries.get(key).map(|(_, l)| *l).unwrap_or(0);
                    let version = version
                        .as_ref()
                        .and_then(ValueRef::as_i64)
                        .map(|v| v as Lsn)
                        .unwrap_or_else(|| lsn.max(prior + 1));
                    self.entries.insert(key.to_string(), (value, version));
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
            let items = snap
                .get("entries")
                .and_then(Value::as_array)
                .ok_or("kv snapshot missing entries")?;
            self.entries.clear();
            for item in items {
                let key = item
                    .get("key")
                    .and_then(Value::as_str)
                    .ok_or("kv snapshot entry missing key")?
                    .to_string();
                let value = item.get("value").cloned().unwrap_or(Value::Null);
                let version =
                    item.get("version")
                        .and_then(Value::as_i64)
                        .ok_or("kv snapshot entry missing version")? as Lsn;
                self.entries.insert(key, (value, version));
            }
            Ok(())
        }
    }
}

use oracle::TreeKv;

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| Value::Number(Number::Int(i))),
        (-1e16f64..1e16).prop_map(|f| Value::Number(Number::Float(f))),
        "[ -~\\\\\"\n\t\u{1}é😀/]{0,12}".prop_map(Value::String),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::vec(("[a-c\"]{0,2}", inner), 0..4)
                .prop_map(|pairs| Value::Object(pairs.into_iter().collect())),
        ]
    })
}

/// Keys, including ones that need escaping in a command.
fn key_strategy() -> impl Strategy<Value = String> {
    prop_oneof![Just("a"), Just("b"), Just("c\"q"), Just("ü\n")].prop_map(str::to_string)
}

/// Write `v` as valid JSON spelt some other way than `to_compact`:
/// whitespace around tokens, every string character as a `\uXXXX`
/// escape, `/` as `\/`, floats in exponent form.
fn respell(v: &Value, out: &mut String) {
    out.push_str(" \n");
    match v {
        Value::Number(Number::Float(f)) => out.push_str(&format!("{f:e}")),
        Value::String(s) => {
            out.push('"');
            for c in s.chars() {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                respell(item, out);
            }
            out.push_str(" ]");
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                respell(&Value::String(k.clone()), out);
                out.push(':');
                respell(item, out);
            }
            out.push_str("\t}");
        }
        other => out.push_str(&other.to_compact()),
    }
    out.push('\t');
}

fn respelled(v: &Value) -> String {
    let mut out = String::new();
    respell(v, &mut out);
    out
}

/// One command of a random stream.
#[derive(Debug, Clone)]
enum Cmd {
    /// `put_command`, canonical.
    Put(String, Value),
    /// `put_versioned_command` at a pinned version, canonical.
    PutVersioned(String, Value, Lsn),
    /// `del_command`.
    Del(String),
    /// A put whose value (and key) are spelt non-canonically.
    Respelled(String, Value),
    /// Duplicate members: the later key and value must win.
    Duplicates(String, Value, String, Value),
    /// A put with no value member: stores null.
    NoValue(String),
    /// Bytes that are not a command: skipped by both machines.
    Garbage(Vec<u8>),
}

impl Cmd {
    fn canonical(&self) -> bool {
        matches!(self, Cmd::Put(..) | Cmd::PutVersioned(..) | Cmd::Del(_))
    }

    /// The command bytes — from the new encoders, checked against the
    /// old ones where both exist.
    fn encode(&self) -> Vec<u8> {
        match self {
            Cmd::Put(k, v) => {
                let cmd = KvMachine::put_command(k, v);
                assert_eq!(cmd, oracle::put_command(k, v));
                assert_eq!(cmd, KvMachine::put_text_command(k, &v.to_compact()));
                cmd
            }
            Cmd::PutVersioned(k, v, n) => {
                let cmd = KvMachine::put_versioned_command(k, &v.to_compact(), *n);
                assert_eq!(cmd, oracle::put_versioned_command(k, v, *n));
                cmd
            }
            Cmd::Del(k) => {
                let cmd = KvMachine::del_command(k);
                assert_eq!(cmd, oracle::del_command(k));
                cmd
            }
            Cmd::Respelled(k, v) => format!(
                "{{ \"op\" : \"put\",\n\"key\":{} , \"value\":{}}}",
                respelled(&Value::from(k.as_str())),
                respelled(v)
            )
            .into_bytes(),
            Cmd::Duplicates(k1, v1, k2, v2) => format!(
                r#"{{"op":"del","key":{},"value":{},"op":"put","key":{},"value":{}}}"#,
                Value::from(k1.as_str()),
                v1.to_compact(),
                Value::from(k2.as_str()),
                respelled(v2)
            )
            .into_bytes(),
            Cmd::NoValue(k) => {
                format!(r#"{{"op":"put","key":{}}}"#, Value::from(k.as_str())).into_bytes()
            }
            Cmd::Garbage(bytes) => bytes.clone(),
        }
    }
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    let put = || (key_strategy(), value_strategy()).prop_map(|(k, v)| Cmd::Put(k, v));
    let del = || key_strategy().prop_map(Cmd::Del);
    let respelled = || (key_strategy(), value_strategy()).prop_map(|(k, v)| Cmd::Respelled(k, v));
    prop_oneof![
        put(),
        put(),
        put(),
        (key_strategy(), value_strategy(), 0u64..200)
            .prop_map(|(k, v, n)| Cmd::PutVersioned(k, v, n)),
        del(),
        del(),
        respelled(),
        respelled(),
        (key_strategy(), value_strategy(), key_strategy(), value_strategy())
            .prop_map(|(k1, v1, k2, v2)| Cmd::Duplicates(k1, v1, k2, v2)),
        key_strategy().prop_map(Cmd::NoValue),
        prop_oneof![
            Just(b"\xff\xfe".to_vec()),
            Just(br#"{"op":"put","key":"a","value":"#.to_vec()),
            Just(b"[1,2]".to_vec()),
            Just(br#"{"op":"merge","key":"a","value":1}"#.to_vec()),
            "[ -~]{0,16}".prop_map(String::into_bytes),
        ]
        .prop_map(Cmd::Garbage),
    ]
}

/// Same keys, versions and values; the text is canonical.
fn assert_same(new: &KvMachine, old: &TreeKv) -> Result<(), TestCaseError> {
    let mut old_keys: Vec<String> = old.entries.keys().cloned().collect();
    old_keys.sort();
    prop_assert_eq!(new.keys(), old_keys);
    for (key, (value, version)) in &old.entries {
        let (text, got) = new.get(key).expect("listed key");
        prop_assert_eq!(got, *version, "version of {:?}", key);
        prop_assert_eq!(&Value::parse(text).unwrap(), value, "value of {:?}", key);
        prop_assert_eq!(text, value.to_compact(), "text of {:?}", key);
    }
    Ok(())
}

fn run(cmds: &[Cmd]) -> Result<(KvMachine, TreeKv), TestCaseError> {
    let (mut new, mut old) = (KvMachine::new(), TreeKv::default());
    for (i, cmd) in cmds.iter().enumerate() {
        let bytes = cmd.encode();
        let lsn = i as Lsn + 1;
        prop_assert_eq!(new.apply(lsn, &bytes), old.apply(lsn, &bytes));
    }
    assert_same(&new, &old)?;
    Ok((new, old))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonical streams: everything, snapshots included, is
    /// byte-identical.
    #[test]
    fn canonical_streams_match_the_tree_machine(
        cmds in proptest::collection::vec(cmd_strategy(), 0..24)
            .prop_map(|c| c.into_iter().filter(Cmd::canonical).collect::<Vec<_>>()),
    ) {
        let (new, old) = run(&cmds)?;
        prop_assert_eq!(new.snapshot(), old.snapshot());
    }

    /// Any stream: the same state, and — because every stored text is
    /// canonical — the same snapshot bytes; each machine restores the
    /// other's snapshot to that state.
    #[test]
    fn any_stream_matches_the_tree_machine(
        cmds in proptest::collection::vec(cmd_strategy(), 0..24),
    ) {
        let (new, old) = run(&cmds)?;
        let (new_snap, old_snap) = (new.snapshot(), old.snapshot());
        prop_assert_eq!(&new_snap, &old_snap);

        let mut new_from_old = KvMachine::new();
        new_from_old.restore(&old_snap).unwrap();
        assert_same(&new_from_old, &old)?;
        let mut old_from_new = TreeKv::default();
        old_from_new.restore(&new_snap).unwrap();
        assert_same(&new, &old_from_new)?;
        prop_assert_eq!(new_from_old.snapshot(), new_snap);
    }

    /// A log and a snapshot written by the tree machine reopen under
    /// the text machine to the same state and the same snapshot bytes.
    #[test]
    fn tree_machine_logs_reopen_alike(
        cmds in proptest::collection::vec(cmd_strategy(), 0..24),
        cut in 0usize..24,
    ) {
        let tmp = TempDir::new("kv-props-reopen");
        let cfg = WalConfig { fsync: FsyncPolicy::Never, ..WalConfig::default() };
        let want = {
            let d = Durable::open(tmp.path(), cfg.clone(), TreeKv::default()).unwrap();
            for (i, cmd) in cmds.iter().enumerate() {
                if i == cut {
                    d.compact().unwrap();
                }
                d.execute(&cmd.encode()).unwrap();
            }
            d.snapshot_state()
        };
        let d = Durable::open(tmp.path(), cfg, KvMachine::new()).unwrap();
        prop_assert_eq!(d.snapshot_state(), want);
    }

    /// A snapshot spelt another way (whitespace, escapes, duplicate
    /// entries) restores like the tree machine restores it.
    #[test]
    fn respelled_snapshots_restore_alike(
        cmds in proptest::collection::vec(cmd_strategy(), 0..12),
    ) {
        let (_, old) = run(&cmds)?;
        let snap = Value::parse(std::str::from_utf8(&old.snapshot()).unwrap()).unwrap();
        for text in [respelled(&snap), snap.to_pretty()] {
            let (mut new, mut back) = (KvMachine::new(), TreeKv::default());
            prop_assert_eq!(new.restore(text.as_bytes()), back.restore(text.as_bytes()));
            assert_same(&new, &back)?;
        }
    }
}

#[test]
fn malformed_snapshots_are_refused_alike() {
    for bad in [
        &b"\xff"[..],
        b"[]",
        b"{}",
        br#"{"entries":{}}"#,
        br#"{"entries":[1]}"#,
        br#"{"entries":[{"value":1,"version":1}]}"#,
        br#"{"entries":[{"key":"a","value":1}]}"#,
        br#"{"entries":[{"key":"a","value":1,"version":"1"}]}"#,
        br#"{"entries":[]"#,
    ] {
        let (mut new, mut old) = (KvMachine::new(), TreeKv::default());
        assert_eq!(new.restore(bad).is_err(), old.restore(bad).is_err(), "{bad:?}");
        assert!(new.restore(bad).is_err(), "{bad:?}");
    }
    // Later duplicates win in a snapshot too, as `Value::get` has it.
    let twice = br#"{"entries":[],"entries":[{"key":"a","value":[1, 2],"version":3,"version":4}]}"#;
    let (mut new, mut old) = (KvMachine::new(), TreeKv::default());
    new.restore(twice).unwrap();
    old.restore(twice).unwrap();
    assert_eq!(new.get("a"), Some(("[1,2]", 4)));
    assert_eq!(new.snapshot(), old.snapshot());
}

#[test]
fn pinned_and_floored_versions_agree() {
    // A key adopted at a high pinned version never regresses when the
    // next put arrives at a lower LSN; a string `version` is ignored,
    // a whole float one is taken.
    let cmds = [
        KvMachine::put_versioned_command("a", "1", 90),
        KvMachine::put_command("a", &Value::from(2)),
        br#"{"op":"put","key":"a","value":3,"version":"95"}"#.to_vec(),
        br#"{"op":"put","key":"a","value":4,"version":1.0}"#.to_vec(),
    ];
    let (mut new, mut old) = (KvMachine::new(), TreeKv::default());
    for (i, cmd) in cmds.iter().enumerate() {
        new.apply(i as Lsn + 1, cmd).unwrap();
        old.apply(i as Lsn + 1, cmd).unwrap();
        let want = old.entries.get("a").map(|(v, l)| (v.to_compact(), *l));
        assert_eq!(new.get("a").map(|(v, l)| (v.to_string(), l)), want, "after command {i}");
    }
    assert_eq!(new.get("a"), Some(("4", 1)));
}
