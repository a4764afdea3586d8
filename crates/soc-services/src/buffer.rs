//! The messaging-buffer service: named bounded queues over
//! [`soc_parallel::sync::BoundedBuffer`] — the producer/consumer
//! primitive from unit 2, promoted to a service.
//!
//! [`DurableMessageBuffer`] is the same contract journalled to a
//! write-ahead log: every accepted send, consumed receive, and close is
//! a logged event, so a crashed broker reopens with exactly the
//! messages that were enqueued-but-not-consumed. The space check (send)
//! and the head read (receive) go through
//! [`soc_store::Durable::execute_when`] so the guard, the journal
//! write, and the state change are one atomic step.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use soc_json::Value;
use soc_parallel::sync::{BoundedBuffer, BufferError};
use soc_store::wal::{Lsn, WalConfig};
use soc_store::{Durable, StateMachine, StoreResult};

/// The service: a namespace of independently bounded queues.
pub struct MessageBufferService {
    queues: RwLock<HashMap<String, Arc<BoundedBuffer<String>>>>,
    default_capacity: usize,
}

impl MessageBufferService {
    /// Service whose queues hold `default_capacity` messages.
    pub fn new(default_capacity: usize) -> Self {
        MessageBufferService {
            queues: RwLock::new(HashMap::new()),
            default_capacity: default_capacity.max(1),
        }
    }

    fn queue(&self, name: &str) -> Arc<BoundedBuffer<String>> {
        if let Some(q) = self.queues.read().get(name) {
            return q.clone();
        }
        let mut queues = self.queues.write();
        queues
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(BoundedBuffer::new(self.default_capacity)))
            .clone()
    }

    /// Enqueue, waiting up to `timeout` for space. Returns `false` on
    /// timeout or a closed queue.
    pub fn send(&self, queue: &str, message: &str, timeout: Duration) -> bool {
        match self.queue(queue).put_timeout(message.to_string(), timeout) {
            Ok(()) => true,
            Err(BufferError::Closed(_) | BufferError::Timeout(_)) => false,
        }
    }

    /// Non-blocking receive.
    pub fn try_receive(&self, queue: &str) -> Option<String> {
        self.queue(queue).try_take()
    }

    /// Blocking receive with a timeout. `Ok(None)` means the queue was
    /// closed and drained; `Err(())` means timeout (the only failure
    /// mode, so the unit error is deliberate).
    #[allow(clippy::result_unit_err)]
    pub fn receive(&self, queue: &str, timeout: Duration) -> Result<Option<String>, ()> {
        self.queue(queue).take_timeout(timeout)
    }

    /// Messages waiting in a queue.
    pub fn depth(&self, queue: &str) -> usize {
        self.queues.read().get(queue).map(|q| q.len()).unwrap_or(0)
    }

    /// Close a queue: producers fail, consumers drain.
    pub fn close(&self, queue: &str) {
        if let Some(q) = self.queues.read().get(queue) {
            q.close();
        }
    }

    /// Names of all queues (sorted).
    pub fn queue_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.queues.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// The journalled queue state: FIFO message lists plus a closed flag,
/// all mutations arriving as logged events.
#[derive(Default)]
pub struct BufferMachine {
    queues: HashMap<String, (VecDeque<String>, bool)>,
    capacity: usize,
}

impl BufferMachine {
    fn new(capacity: usize) -> Self {
        BufferMachine { queues: HashMap::new(), capacity: capacity.max(1) }
    }

    fn send_event(queue: &str, message: &str) -> Vec<u8> {
        let mut ev = Value::object();
        ev.set("ev", "send");
        ev.set("queue", queue);
        ev.set("msg", message);
        ev.to_compact().into_bytes()
    }

    fn recv_event(queue: &str) -> Vec<u8> {
        let mut ev = Value::object();
        ev.set("ev", "recv");
        ev.set("queue", queue);
        ev.to_compact().into_bytes()
    }

    fn close_event(queue: &str) -> Vec<u8> {
        let mut ev = Value::object();
        ev.set("ev", "close");
        ev.set("queue", queue);
        ev.to_compact().into_bytes()
    }
}

impl StateMachine for BufferMachine {
    fn apply(&mut self, _lsn: Lsn, command: &[u8]) -> Result<(), String> {
        let Ok(text) = std::str::from_utf8(command) else { return Ok(()) };
        let Ok(ev) = Value::parse(text) else { return Ok(()) };
        let queue = ev.get("queue").and_then(Value::as_str).unwrap_or_default().to_string();
        match ev.get("ev").and_then(Value::as_str) {
            Some("send") => {
                let msg = ev.get("msg").and_then(Value::as_str).unwrap_or_default().to_string();
                self.queues.entry(queue).or_default().0.push_back(msg);
            }
            Some("recv") => {
                if let Some((q, _)) = self.queues.get_mut(&queue) {
                    q.pop_front();
                }
            }
            Some("close") => {
                self.queues.entry(queue).or_default().1 = true;
            }
            _ => {}
        }
        Ok(())
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut names: Vec<&String> = self.queues.keys().collect();
        names.sort();
        let queues: Vec<Value> = names
            .into_iter()
            .map(|name| {
                let (msgs, closed) = &self.queues[name];
                let items: Vec<Value> = msgs.iter().map(|m| Value::from(m.as_str())).collect();
                let mut q = Value::object();
                q.set("name", name.as_str());
                q.set("messages", Value::Array(items));
                q.set("closed", *closed);
                q
            })
            .collect();
        let mut snap = Value::object();
        snap.set("queues", Value::Array(queues));
        snap.set("capacity", self.capacity as i64);
        snap.to_compact().into_bytes()
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let text = std::str::from_utf8(snapshot).map_err(|e| e.to_string())?;
        let snap = Value::parse(text).map_err(|e| e.to_string())?;
        self.queues.clear();
        self.capacity = (snap.get("capacity").and_then(Value::as_i64).unwrap_or(1) as usize).max(1);
        for q in snap.get("queues").and_then(Value::as_array).ok_or("missing queues")? {
            let name =
                q.get("name").and_then(Value::as_str).ok_or("queue missing name")?.to_string();
            let msgs: VecDeque<String> = q
                .get("messages")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect();
            let closed = matches!(q.get("closed"), Some(Value::Bool(true)));
            self.queues.insert(name, (msgs, closed));
        }
        Ok(())
    }
}

/// A [`MessageBufferService`]-shaped broker whose queues survive a
/// crash: enqueued-but-unconsumed messages are replayed from the log on
/// reopen. Blocking waits poll the durable state (no condvar spans the
/// journal), so timeouts are approximate to a few milliseconds.
pub struct DurableMessageBuffer {
    store: Durable<BufferMachine>,
}

const POLL: Duration = Duration::from_millis(2);

impl DurableMessageBuffer {
    /// Open (or recover) a durable buffer in `dir`. `default_capacity`
    /// only seeds a fresh journal; a recovered one keeps its own.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        cfg: WalConfig,
        default_capacity: usize,
    ) -> StoreResult<Self> {
        let store = Durable::open(dir, cfg, BufferMachine::new(default_capacity))?;
        Ok(DurableMessageBuffer { store })
    }

    /// Enqueue, waiting up to `timeout` for space. Returns `false` on
    /// timeout or a closed queue. The accepted message is durable
    /// before this returns `true`.
    pub fn send(&self, queue: &str, message: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let accepted = self
                .store
                .execute_when(|m| {
                    let (len, closed) =
                        m.queues.get(queue).map(|(q, c)| (q.len(), *c)).unwrap_or((0, false));
                    if closed || len >= m.capacity {
                        return None;
                    }
                    Some((BufferMachine::send_event(queue, message), ()))
                })
                .expect("message buffer lost durability");
            if accepted.is_some() {
                return true;
            }
            // Refused: closed queues fail immediately, full ones wait.
            let closed =
                self.store.query(|m| m.queues.get(queue).map(|(_, c)| *c).unwrap_or(false));
            if closed || Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(POLL);
        }
    }

    /// Non-blocking receive. A returned message is consumed durably —
    /// it will not reappear after a crash.
    pub fn try_receive(&self, queue: &str) -> Option<String> {
        self.store
            .execute_when(|m| {
                let head = m.queues.get(queue)?.0.front()?.clone();
                Some((BufferMachine::recv_event(queue), head))
            })
            .expect("message buffer lost durability")
            .map(|(_, msg)| msg)
    }

    /// Blocking receive with a timeout. `Ok(None)` means closed and
    /// drained; `Err(())` means timeout.
    #[allow(clippy::result_unit_err)]
    pub fn receive(&self, queue: &str, timeout: Duration) -> Result<Option<String>, ()> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.try_receive(queue) {
                return Ok(Some(msg));
            }
            let closed = self
                .store
                .query(|m| m.queues.get(queue).map(|(q, c)| q.is_empty() && *c).unwrap_or(false));
            if closed {
                return Ok(None);
            }
            if Instant::now() >= deadline {
                return Err(());
            }
            std::thread::sleep(POLL);
        }
    }

    /// Messages waiting in a queue.
    pub fn depth(&self, queue: &str) -> usize {
        self.store.query(|m| m.queues.get(queue).map(|(q, _)| q.len()).unwrap_or(0))
    }

    /// Close a queue durably: producers fail, consumers drain.
    pub fn close(&self, queue: &str) {
        self.store
            .execute_when(|m| {
                let already = m.queues.get(queue).map(|(_, c)| *c).unwrap_or(false);
                if already {
                    None
                } else {
                    Some((BufferMachine::close_event(queue), ()))
                }
            })
            .expect("message buffer lost durability");
    }

    /// Names of all queues (sorted).
    pub fn queue_names(&self) -> Vec<String> {
        self.store.query(|m| {
            let mut names: Vec<String> = m.queues.keys().cloned().collect();
            names.sort();
            names
        })
    }

    /// Snapshot-then-truncate the journal.
    pub fn compact(&self) -> StoreResult<Lsn> {
        self.store.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(100);

    #[test]
    fn send_receive_fifo() {
        let svc = MessageBufferService::new(8);
        assert!(svc.send("orders", "a", T));
        assert!(svc.send("orders", "b", T));
        assert_eq!(svc.depth("orders"), 2);
        assert_eq!(svc.receive("orders", T).unwrap().as_deref(), Some("a"));
        assert_eq!(svc.try_receive("orders").as_deref(), Some("b"));
        assert_eq!(svc.try_receive("orders"), None);
    }

    #[test]
    fn queues_are_independent() {
        let svc = MessageBufferService::new(8);
        svc.send("a", "1", T);
        svc.send("b", "2", T);
        assert_eq!(svc.depth("a"), 1);
        assert_eq!(svc.depth("b"), 1);
        assert_eq!(svc.queue_names(), vec!["a", "b"]);
    }

    #[test]
    fn capacity_bounds_producers() {
        let svc = MessageBufferService::new(1);
        assert!(svc.send("q", "1", T));
        // Queue full: short-timeout send fails.
        assert!(!svc.send("q", "2", Duration::from_millis(10)));
    }

    #[test]
    fn close_semantics() {
        let svc = MessageBufferService::new(4);
        svc.send("q", "last", T);
        svc.close("q");
        assert!(!svc.send("q", "after", T));
        assert_eq!(svc.receive("q", T).unwrap().as_deref(), Some("last"));
        assert_eq!(svc.receive("q", T).unwrap(), None);
    }

    #[test]
    fn receive_timeout() {
        let svc = MessageBufferService::new(4);
        assert_eq!(svc.receive("empty", Duration::from_millis(10)), Err(()));
    }

    #[test]
    fn cross_thread_transfer() {
        let svc = Arc::new(MessageBufferService::new(2));
        let svc2 = svc.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..20 {
                assert!(svc2.send("work", &format!("job-{i}"), Duration::from_secs(5)));
            }
            svc2.close("work");
        });
        let mut got = Vec::new();
        while let Ok(Some(msg)) = svc.receive("work", Duration::from_secs(5)) {
            got.push(msg);
        }
        producer.join().unwrap();
        assert_eq!(got.len(), 20);
        assert_eq!(got[0], "job-0");
        assert_eq!(got[19], "job-19");
    }

    #[test]
    fn durable_buffer_survives_crash_without_loss_or_duplication() {
        let tmp = soc_store::TempDir::new("buf-durable");
        {
            let buf = DurableMessageBuffer::open(tmp.path(), WalConfig::default(), 8).unwrap();
            assert!(buf.send("orders", "a", T));
            assert!(buf.send("orders", "b", T));
            assert!(buf.send("orders", "c", T));
            // A consumed message is gone durably.
            assert_eq!(buf.try_receive("orders").as_deref(), Some("a"));
            buf.close("audit");
            // Crash: drop without shutdown.
        }
        let buf = DurableMessageBuffer::open(tmp.path(), WalConfig::default(), 8).unwrap();
        assert_eq!(buf.depth("orders"), 2);
        assert_eq!(buf.try_receive("orders").as_deref(), Some("b"));
        assert_eq!(buf.try_receive("orders").as_deref(), Some("c"));
        assert_eq!(buf.try_receive("orders"), None);
        // The closed flag replays too.
        assert!(!buf.send("audit", "late", T));
        assert_eq!(buf.receive("audit", T).unwrap(), None);
    }

    #[test]
    fn durable_buffer_capacity_and_close() {
        let tmp = soc_store::TempDir::new("buf-cap");
        let buf = DurableMessageBuffer::open(tmp.path(), WalConfig::default(), 1).unwrap();
        assert!(buf.send("q", "1", T));
        assert!(!buf.send("q", "2", Duration::from_millis(10)), "full queue must time out");
        assert_eq!(buf.receive("q", T).unwrap().as_deref(), Some("1"));
        assert!(buf.send("q", "2", T), "space frees after receive");
        buf.close("q");
        assert!(!buf.send("q", "3", T));
        assert_eq!(buf.receive("q", T).unwrap().as_deref(), Some("2"));
        assert_eq!(buf.receive("q", T).unwrap(), None, "closed and drained");
    }

    #[test]
    fn durable_buffer_compaction_keeps_pending_messages() {
        let tmp = soc_store::TempDir::new("buf-compact");
        {
            let buf = DurableMessageBuffer::open(tmp.path(), WalConfig::default(), 8).unwrap();
            for i in 0..5 {
                assert!(buf.send("jobs", &format!("j{i}"), T));
            }
            assert_eq!(buf.try_receive("jobs").as_deref(), Some("j0"));
            buf.compact().unwrap();
            assert!(buf.send("jobs", "j5", T));
        }
        let buf = DurableMessageBuffer::open(tmp.path(), WalConfig::default(), 8).unwrap();
        assert_eq!(buf.depth("jobs"), 5);
        assert_eq!(buf.try_receive("jobs").as_deref(), Some("j1"));
    }

    #[test]
    fn durable_buffer_cross_thread_transfer() {
        let tmp = soc_store::TempDir::new("buf-threads");
        let buf =
            Arc::new(DurableMessageBuffer::open(tmp.path(), WalConfig::default(), 2).unwrap());
        let buf2 = buf.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..20 {
                assert!(buf2.send("work", &format!("job-{i}"), Duration::from_secs(5)));
            }
            buf2.close("work");
        });
        let mut got = Vec::new();
        while let Ok(Some(msg)) = buf.receive("work", Duration::from_secs(5)) {
            got.push(msg);
        }
        producer.join().unwrap();
        assert_eq!(got.len(), 20);
        assert_eq!(got[0], "job-0");
        assert_eq!(got[19], "job-19");
    }
}
