//! A submission ledger journal written in the legacy JSON event shape
//! (`tests/fixtures/ledger-json-v0`, one WAL segment of 11 events) must
//! keep opening: alone, to its exact pre-upgrade state, and after
//! binary events are appended to it, as one mixed log.
//!
//! The fixture holds every event kind: bodies and responses with
//! quotes, backslashes, control characters and non-ASCII text, a
//! replayed apply (logged with an empty response), a reservation cancel
//! followed by a late submission under its key, a keyless submission,
//! an orphan cancel, and a pending tombstone.

use std::path::{Path, PathBuf};

use soc_json::{json, Value};
use soc_services::ledger::SubmissionLedger;
use soc_store::wal::{FsyncPolicy, WalConfig};
use soc_store::{TempDir, Wal};

const C1: &str = "{\"name\":\"Zoë \\\"Q\\\" O'Brien\",\"path\":\"C:\\\\loans\\\\中\",\"note\":\"line1\\nline2\\t\"}";
const C2: &str = "{\"name\":\"Ana\",\"loan\":\"¥100\"}";
const C3: &str = "{\"name\":\"Late \\\"L\\\"\"}";
const C4: &str = "{\"name\":\"Ké\",\"raw\":\"tab\tquote\\\"back\\\\\"}";
const R1: &str =
    "{\"application_id\":\"app-1\",\"approved\":true,\"reason\":\"naïve \\\"ok\\\" \\\\ ✓\"}";
const R2: &str = "{\"application_id\":\"app-2\",\"approved\":false}";
const R3: &str = "{\"application_id\":\"app-3\",\"approved\":true}";
/// A body and a response first journalled in the binary shape.
const C5: &str = "{\"name\":\"Nü \\\"N\\\"\",\"memo\":\"a\\\\b\\u0000\"}";
const R5: &str = "{\"application_id\":\"new-1\",\"note\":\"é \\\"x\\\"\"}";

fn unsynced() -> WalConfig {
    WalConfig { fsync: FsyncPolicy::Never, ..WalConfig::default() }
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ledger-json-v0")
}

/// Copy every file of `from` into a fresh temporary directory.
fn copy_of(from: &Path) -> TempDir {
    let tmp = TempDir::new("ledger-fixture");
    for file in std::fs::read_dir(from).unwrap() {
        let file = file.unwrap();
        std::fs::copy(file.path(), tmp.path().join(file.file_name())).unwrap();
    }
    tmp
}

/// The first byte of every journalled event, in LSN order.
fn leading_bytes(dir: &Path) -> Vec<u8> {
    let (_, recovery) = Wal::open_with(dir, unsynced()).unwrap();
    assert!(recovery.snapshot.is_none());
    recovery.records.iter().map(|(_, payload)| payload[0]).collect()
}

/// The whole state the ledger journalled in `dir` reopens to: its
/// snapshot, taken by a compaction in a copy of the directory.
fn reopened_state(dir: &Path) -> Value {
    let copy = copy_of(dir);
    SubmissionLedger::durable(copy.path(), unsynced()).unwrap().compact().unwrap();
    let (_, recovery) = Wal::open_with(copy.path(), unsynced()).unwrap();
    let (_, state) = recovery.snapshot.expect("compaction wrote a snapshot");
    Value::parse(std::str::from_utf8(&state).unwrap()).unwrap()
}

fn entry(key: &str, executions: i64, deduped: i64, cancellations: i64, response: &str) -> Value {
    json!({
        "key": key,
        "executions": executions,
        "deduped": deduped,
        "cancellations": cancellations,
        "response": response
    })
}

fn cancelled(key: &str) -> String {
    format!("{{\"application_id\":\"{key}\",\"cancelled\":true}}")
}

fn counted(content: &str, n: i64) -> Value {
    json!({ "content": content, "n": n })
}

#[test]
fn legacy_journal_reopens_to_its_exact_state() {
    let tmp = copy_of(&fixture());
    assert_eq!(leading_bytes(tmp.path()), vec![b'{'; 11], "the fixture is all JSON events");
    let expected = json!({
        "entries": [
            (entry("app-1", 1, 1, 0, R1)),
            (entry("app-2", 1, 0, 1, R2)),
            (entry("app-3", 1, 0, 1, R3)),
            (entry("late-1", 0, 0, 1, &cancelled("late-1")))
        ],
        "by_content": [(counted(C2, 1)), (counted(C4, 1)), (counted(C1, 2))],
        "tombstones": ["pending-1"],
        "keyless": 1,
        "orphan_cancels": 1
    });
    assert_eq!(reopened_state(tmp.path()), expected);

    let ledger = SubmissionLedger::durable(tmp.path(), unsynced()).unwrap();
    assert_eq!(ledger.total_executions(), 4);
    assert_eq!(ledger.total_deduped(), 1);
    assert_eq!(ledger.max_executions_per_content(), 2);
    assert_eq!(ledger.open_applications(), 1);
    assert_eq!(ledger.cancelled_keys(), ["app-2", "app-3", "late-1"]);
    assert_eq!(ledger.pending_tombstones(), 1);
    assert_eq!(ledger.apply("app-1", C1, || unreachable!("cached")), (R1.to_string(), true));
}

#[test]
fn mixed_journal_reopens_to_its_exact_state() {
    let tmp = copy_of(&fixture());
    {
        let ledger = SubmissionLedger::durable(tmp.path(), unsynced()).unwrap();
        // A replay of a legacy entry, a late submission under a legacy
        // tombstone, a fresh application, and every other kind once.
        assert_eq!(ledger.apply("app-1", C1, || unreachable!("cached")), (R1.to_string(), true));
        let (refused, replayed) = ledger.apply("pending-1", C3, || unreachable!("tombstoned"));
        assert!(replayed);
        assert_eq!(refused, cancelled("pending-1"));
        assert_eq!(ledger.apply("new-1", C5, || R5.to_string()), (R5.to_string(), false));
        ledger.note_keyless(C4);
        assert!(ledger.cancel("new-1"));
        assert!(!ledger.cancel_reservation("new-pending"));
        assert!(!ledger.cancel("ghost-2"));
    }
    let mut shapes = vec![b'{'; 11];
    shapes.extend([0x01; 7]);
    assert_eq!(leading_bytes(tmp.path()), shapes, "11 JSON events, then 7 binary ones");

    let expected = json!({
        "entries": [
            (entry("app-1", 1, 2, 0, R1)),
            (entry("app-2", 1, 0, 1, R2)),
            (entry("app-3", 1, 0, 1, R3)),
            (entry("late-1", 0, 0, 1, &cancelled("late-1"))),
            (entry("new-1", 1, 0, 1, R5)),
            (entry("pending-1", 0, 0, 1, &cancelled("pending-1")))
        ],
        "by_content": [(counted(C2, 1)), (counted(C4, 2)), (counted(C5, 1)), (counted(C1, 2))],
        "tombstones": ["new-pending"],
        "keyless": 2,
        "orphan_cancels": 2
    });
    assert_eq!(reopened_state(tmp.path()), expected);

    let ledger = SubmissionLedger::durable(tmp.path(), unsynced()).unwrap();
    assert_eq!(ledger.total_executions(), 6);
    assert_eq!(ledger.total_deduped(), 2);
    assert_eq!(ledger.open_applications(), 1);
    assert_eq!(ledger.orphan_cancels(), 2);
    assert_eq!(ledger.keyless_submissions(), 2);
    assert_eq!(ledger.apply("new-1", C5, || unreachable!("cached")), (R5.to_string(), true));
}
