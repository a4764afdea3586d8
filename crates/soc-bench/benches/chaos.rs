//! Resilience-layer overheads: what the saga executor, retry machinery,
//! and fault-injection plane cost when nothing (and when everything)
//! goes wrong.
//!
//! The chaos harness proves the invariants hold; this harness proves
//! the machinery that upholds them is affordable. Each row is one hot
//! path — a clean saga run, a retry-to-recovery cycle, a full
//! compensation rollback, a seeded fault-verdict draw, an idempotency
//! key mint — and the coarse budgets are **asserted**, so
//! `cargo bench --bench chaos` is an executable acceptance check.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use soc_bench::Record;
use soc_http::fault::FaultRng;
use soc_json::Value;
use soc_workflow::activity::{Activity, ActivityError, Compute, Const, Ports};
use soc_workflow::graph::WorkflowGraph;
use soc_workflow::saga::{ResiliencePolicy, SagaConfig};

/// Fails on a fixed cadence: attempts 1 and 2 of every 3 error, the
/// third succeeds — so each saga run exercises exactly two retries.
struct FlakyTwice {
    attempts: AtomicU64,
}

impl Activity for FlakyTwice {
    fn inputs(&self) -> Vec<String> {
        vec!["in".into()]
    }
    fn outputs(&self) -> Vec<String> {
        vec!["out".into()]
    }
    fn execute(&self, inputs: &Ports) -> Result<Ports, ActivityError> {
        let n = self.attempts.fetch_add(1, Ordering::Relaxed);
        if n % 3 < 2 {
            return Err(ActivityError::Service("injected".into()));
        }
        Ok(HashMap::from([("out".to_string(), inputs["in"].clone())]))
    }
}

/// Always fails, so the saga must roll back whatever completed.
struct AlwaysFails;

impl Activity for AlwaysFails {
    fn inputs(&self) -> Vec<String> {
        vec!["in".into()]
    }
    fn outputs(&self) -> Vec<String> {
        vec!["out".into()]
    }
    fn execute(&self, _inputs: &Ports) -> Result<Ports, ActivityError> {
        Err(ActivityError::Service("injected".into()))
    }
}

/// Records nothing, succeeds instantly: the cheapest possible
/// compensator, so the row measures the executor's rollback path, not
/// the compensator body.
struct NoopCompensator;

impl Activity for NoopCompensator {
    fn inputs(&self) -> Vec<String> {
        vec!["out".into()]
    }
    fn outputs(&self) -> Vec<String> {
        vec!["out".into()]
    }
    fn execute(&self, inputs: &Ports) -> Result<Ports, ActivityError> {
        Ok(inputs.clone())
    }
}

fn noop_graph() -> WorkflowGraph {
    let mut g = WorkflowGraph::new();
    let a = g.add("a", Const::new(1));
    let b = g.add("b", Compute::new(&["in"], |p| Ok(Value::from(p["in"].as_i64().unwrap() + 1))));
    g.connect(a, "out", b, "in").unwrap();
    g
}

fn main() {
    let mut rec = Record::new("chaos");
    let saga = SagaConfig { deadline: Duration::from_secs(5), seed: 0xBE4C };

    // The saga rows spawn one OS thread per activity firing, so their
    // budgets are milliseconds-scale caps: wide enough for a loaded CI
    // box, tight enough to catch the executor accidentally going
    // quadratic or a stray sleep landing on a hot path.

    // A clean two-node saga run: pure executor overhead (topo order,
    // per-node thread, completion log) with no retries, no rollback.
    let noop = noop_graph();
    rec.time("saga_noop", || {
        let out = noop.run_saga(&HashMap::new(), &saga).unwrap();
        assert!(black_box(&out).is_completed());
    })
    .max(5_000_000.0);

    // Two injected failures absorbed by the policy, then success: the
    // retry loop with (tiny) backoff + jitter, three attempts per run.
    let retry_graph = {
        let mut g = WorkflowGraph::new();
        let a = g.add("a", Const::new(7));
        let f = g.add("flaky", FlakyTwice { attempts: AtomicU64::new(0) });
        g.connect(a, "out", f, "in").unwrap();
        g.set_policy(
            f,
            ResiliencePolicy::retries(4)
                .with_backoff(Duration::from_micros(20), Duration::from_micros(100)),
        )
        .unwrap();
        g
    };
    rec.time("saga_retry_recovery", || {
        let out = retry_graph.run_saga(&HashMap::new(), &saga).unwrap();
        assert!(black_box(&out).is_completed());
    })
    .max(10_000_000.0);

    // Forward step completes, the next node fails terminally, the
    // completed step is compensated: the full rollback round trip.
    let comp_graph = {
        let mut g = WorkflowGraph::new();
        let a = g.add("a", Const::new(7));
        let step = g.add("step", Compute::new(&["in"], |p| Ok(p["in"].clone())));
        let doomed = g.add("doomed", AlwaysFails);
        g.connect(a, "out", step, "in").unwrap();
        g.connect(step, "out", doomed, "in").unwrap();
        g.set_compensation(step, NoopCompensator).unwrap();
        g
    };
    rec.time("saga_compensation", || {
        let out = comp_graph.run_saga(&HashMap::new(), &saga).unwrap();
        assert!(!black_box(&out).is_completed());
    })
    .max(10_000_000.0);

    // The per-send price of a fault-configured MemNetwork: one seeded
    // draw per injected decision. It sits on every in-memory send, so
    // it must stay nanoseconds-cheap for a fault-configured network to
    // measure the same as a clean one.
    let mut rng = FaultRng::new(0xD1CE);
    rec.time("fault_verdict_draw", || rng.chance(black_box(0.2))).max(1_000.0);

    // Minting the Idempotency-Key a ServiceCall attaches to POSTs.
    rec.time("idempotency_key_mint", soc_http::fresh_idempotency_key);

    rec.finish();
}
