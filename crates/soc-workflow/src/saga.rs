//! The workflow executor: per-activity resilience policies and
//! compensation.
//!
//! Every entry point runs a graph here. [`WorkflowGraph::run_saga`]
//! returns the structured [`WorkflowOutcome`];
//! [`WorkflowGraph::run`] is the same engine without a run deadline,
//! reporting a compensated run as the error that triggered it. A
//! composition with side effects (the paper's dependability unit)
//! needs more than abort-on-first-error, so the engine layers three
//! mechanisms on top of the dataflow graph:
//!
//! - **[`ResiliencePolicy`]** — bounded retries with exponential
//!   backoff and seeded jitter under a whole-run deadline budget, plus
//!   an optional per-attempt timeout. Every attempt runs on the thread
//!   that fires its node, and one that returns after its timeout is
//!   judged timed out. A timed-out attempt is *not* retried (it may
//!   have had its side effect); if it succeeded late, its node is
//!   compensated like any other completed step.
//! - **Fallbacks** — an alternate activity that runs once with the
//!   same inputs after the primary exhausts its policy.
//! - **Compensation** — any node may register a compensator
//!   ([`WorkflowGraph::set_compensation`]). On unrecoverable failure
//!   the engine finishes/joins the in-flight wave, then runs the
//!   compensators of every *completed* node in reverse topological
//!   order, exactly once each, and reports a structured
//!   [`WorkflowOutcome::Compensated`] instead of a bare error.
//!
//! Retries record `workflow.retry` spans and compensators record
//! `workflow.compensate` spans via `soc-observe`, so a chaos run's
//! recovery path is inspectable at `/observe/traces`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use soc_http::FaultRng;
use soc_json::Value;
use soc_parallel::ThreadPool;

use crate::activity::{ActivityError, Ports};
use crate::graph::{WorkflowError, WorkflowGraph};

/// Retry/timeout policy for one node, honoured by every entry point
/// ([`WorkflowGraph::run`] and [`WorkflowGraph::run_saga`] alike).
#[derive(Debug, Clone)]
pub struct ResiliencePolicy {
    /// Extra attempts after the first (0 = try once).
    pub max_retries: u32,
    /// First backoff; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Per-attempt wall-clock budget, judged when the attempt returns:
    /// an attempt that took longer timed out. Timeouts are terminal
    /// for the node (no retry) but a registered fallback still runs.
    pub timeout: Option<Duration>,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: 0,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            timeout: None,
        }
    }
}

impl ResiliencePolicy {
    /// A policy with `n` retries and default backoff.
    pub fn retries(n: u32) -> Self {
        ResiliencePolicy { max_retries: n, ..ResiliencePolicy::default() }
    }

    /// Set the per-attempt timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Set the backoff range.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }
}

/// Whole-run settings for a saga execution.
#[derive(Debug, Clone)]
pub struct SagaConfig {
    /// Budget for the forward path (activities, retries, backoffs).
    /// Compensation runs after the deadline if need be — it must. A
    /// budget too large to represent as an [`Instant`] (such as
    /// [`Duration::MAX`]) means no deadline.
    pub deadline: Duration,
    /// Seeds backoff jitter; same seed + same graph = same schedule.
    pub seed: u64,
}

impl Default for SagaConfig {
    fn default() -> Self {
        SagaConfig { deadline: Duration::from_secs(30), seed: 0x5A6A }
    }
}

/// Structured result of a saga run.
#[derive(Debug)]
pub enum WorkflowOutcome {
    /// Every fired node succeeded; unconnected outputs keyed
    /// `"node.port"` as in [`WorkflowGraph::run`].
    Completed(HashMap<String, Value>),
    /// A node failed past its policy; completed nodes were rolled
    /// back.
    Compensated {
        /// Name of the node whose failure triggered the rollback.
        failed_at: String,
        /// The underlying failure.
        error: WorkflowError,
        /// Nodes whose compensators ran successfully, in execution
        /// order (reverse topological order of completion).
        compensated: Vec<String>,
        /// Compensators that themselves failed: `(node, error)`.
        compensation_errors: Vec<(String, String)>,
    },
}

impl WorkflowOutcome {
    /// Outputs when the run completed.
    pub fn outputs(&self) -> Option<&HashMap<String, Value>> {
        match self {
            WorkflowOutcome::Completed(out) => Some(out),
            WorkflowOutcome::Compensated { .. } => None,
        }
    }

    /// Whether the forward path finished without compensation.
    pub fn is_completed(&self) -> bool {
        matches!(self, WorkflowOutcome::Completed(_))
    }
}

/// Backoff jitter factor in `[0.5, 1.5)`.
fn jitter(rng: &mut FaultRng) -> f64 {
    0.5 + rng.uniform()
}

/// Durable-execution hooks, used by [`crate::journal`]: nodes already
/// completed by a previous (crashed) run are seeded as fired with their
/// recorded outputs, and every newly completed node is reported before
/// its outputs are routed so the journal always trails reality by at
/// most one in-flight node.
pub(crate) struct SagaHook<'a> {
    /// `node name -> outputs` completed before this run started.
    pub(crate) completed: HashMap<String, Ports>,
    /// Called as each node completes, including a node whose attempt
    /// succeeded after its timeout (once, before compensation).
    pub(crate) on_complete: &'a (dyn Fn(&str, &Ports) + Sync),
}

/// A fired node's verdict, plus the outputs of a primary attempt that
/// succeeded after its timeout when no fallback completed the node: its
/// side effects happened, so a rollback must compensate them.
type Fired = (Result<Ports, ActivityError>, Option<Ports>);

impl WorkflowGraph {
    /// Run the workflow under saga semantics. Activity failures are
    /// absorbed into the outcome; `Err` is reserved for structural
    /// problems (cycles, bad seed keys, stalls).
    pub fn run_saga(
        &self,
        inputs: &HashMap<String, Value>,
        config: &SagaConfig,
    ) -> Result<WorkflowOutcome, WorkflowError> {
        self.run_saga_inner(inputs, None, config, None)
    }

    /// Like [`WorkflowGraph::run_saga`], firing independent ready
    /// nodes in parallel waves on `pool`.
    pub fn run_saga_parallel(
        &self,
        pool: &ThreadPool,
        inputs: &HashMap<String, Value>,
        config: &SagaConfig,
    ) -> Result<WorkflowOutcome, WorkflowError> {
        self.run_saga_inner(inputs, Some(pool), config, None)
    }

    pub(crate) fn run_saga_inner(
        &self,
        inputs: &HashMap<String, Value>,
        pool: Option<&ThreadPool>,
        config: &SagaConfig,
        hook: Option<&SagaHook<'_>>,
    ) -> Result<WorkflowOutcome, WorkflowError> {
        self.validate()?;
        // The whole run is one span; every node that fires becomes a
        // child, including nodes fired on pool threads (which inherit
        // `run_ctx` explicitly — thread-locals don't cross the pool).
        // Every run has saga semantics, so every run span says so.
        let mut run_span = soc_observe::span("workflow.run", soc_observe::SpanKind::Internal);
        run_span.set_attr("saga", true);
        run_span.set_attr("nodes", self.nodes.len());
        let _active = run_span.activate();
        let run_ctx = run_span.context();
        let deadline = Instant::now().checked_add(config.deadline);

        let n = self.nodes.len();
        let mut pending = self.seed_pending(inputs)?;
        let mut fired = vec![false; n];
        let mut results: HashMap<String, Value> = HashMap::new();
        let connected_inputs = self.connected_inputs();
        // Every node that completed, with its outputs kept only when a
        // compensator will read them.
        let mut completed: Vec<(usize, Ports)> = Vec::new();

        // Resume: nodes a crashed run already completed (per the
        // journal) are seeded as fired and their recorded outputs
        // routed, so only the remaining suffix of the graph executes.
        if let Some(hook) = hook {
            for (name, ports) in &hook.completed {
                if let Some(i) = self.nodes.iter().position(|n| n.name == *name) {
                    fired[i] = true;
                    completed.push((i, ports.clone()));
                    self.route(i, ports.clone(), &mut pending, &mut results);
                }
            }
        }

        let failure: Option<(usize, ActivityError)> = loop {
            let ready: Vec<usize> = (0..n)
                .filter(|&i| !fired[i] && self.is_ready(i, &pending[i], &connected_inputs[i]))
                .collect();
            if ready.is_empty() {
                break None;
            }
            let exec = |i: usize| self.fire_resilient(i, &pending[i], run_ctx, deadline, config);
            let mut outputs: Vec<(usize, Fired)> = match pool {
                Some(pool) if ready.len() > 1 => {
                    let wave = parking_lot::Mutex::new(Vec::new());
                    pool.scope(|s| {
                        for &i in &ready {
                            let wave = &wave;
                            let exec = &exec;
                            s.spawn(move || {
                                let out = exec(i);
                                wave.lock().push((i, out));
                            });
                        }
                    });
                    wave.into_inner()
                }
                _ => ready.iter().map(|&i| (i, exec(i))).collect(),
            };
            // The wave is fully joined (`scope` blocks); record all of
            // it before acting on any failure so the completed-set the
            // saga compensates is exactly what ran.
            outputs.sort_by_key(|(i, _)| *i);
            let mut wave_error: Option<(usize, ActivityError)> = None;
            for (i, (out, late)) in outputs {
                fired[i] = true;
                match out {
                    Ok(ports) => {
                        if let Some(hook) = hook {
                            (hook.on_complete)(&self.nodes[i].name, &ports);
                        }
                        let kept = if self.compensators.contains_key(&i) {
                            ports.clone()
                        } else {
                            Ports::new()
                        };
                        completed.push((i, kept));
                        self.route(i, ports, &mut pending, &mut results);
                    }
                    Err(error) => {
                        if let Some(ports) = late {
                            if let Some(hook) = hook {
                                (hook.on_complete)(&self.nodes[i].name, &ports);
                            }
                            completed.push((i, ports));
                        }
                        if wave_error.is_none() {
                            wave_error = Some((i, error));
                        }
                    }
                }
            }
            if wave_error.is_some() {
                break wave_error;
            }
        };

        match failure {
            None => {
                if results.is_empty() && fired.iter().any(|f| !f) {
                    let stalled: Vec<String> =
                        (0..n).filter(|&i| !fired[i]).map(|i| self.nodes[i].name.clone()).collect();
                    run_span.set_error(format!("stalled: {stalled:?}"));
                    return Err(WorkflowError::Stalled(stalled));
                }
                Ok(WorkflowOutcome::Completed(results))
            }
            Some((at, error)) => {
                let failed_at = self.nodes[at].name.clone();
                let error = WorkflowError::Activity { node: failed_at.clone(), error };
                run_span.set_error(error.to_string());
                let (compensated, compensation_errors) =
                    self.compensate(&completed, Some(at), run_ctx);
                Ok(WorkflowOutcome::Compensated {
                    failed_at,
                    error,
                    compensated,
                    compensation_errors,
                })
            }
        }
    }

    /// Propagate one node's outputs along edges; unconnected outputs
    /// become workflow results.
    fn route(
        &self,
        i: usize,
        out: Ports,
        pending: &mut [Ports],
        results: &mut HashMap<String, Value>,
    ) {
        for (port, value) in out {
            let mut routed = false;
            for e in &self.edges {
                if e.from == (i, port.clone()) {
                    pending[e.to.0].insert(e.to.1.clone(), value.clone());
                    routed = true;
                }
            }
            if !routed {
                results.insert(format!("{}.{}", self.nodes[i].name, port), value);
            }
        }
    }

    /// Execute node `i` under its policy: attempts with backoff+jitter
    /// inside the deadline budget, then the fallback if one is set.
    fn fire_resilient(
        &self,
        i: usize,
        ports: &Ports,
        run_ctx: soc_observe::TraceContext,
        deadline: Option<Instant>,
        config: &SagaConfig,
    ) -> Fired {
        let policy = self.policies.get(&i).cloned().unwrap_or_default();
        // Per-node RNG derived from the run seed: deterministic no
        // matter how pool threads interleave.
        let mut rng =
            FaultRng::new(config.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let name = self.nodes[i].name.as_str();
        let mut attempt = 0u32;
        let (primary, late) = loop {
            let remaining =
                deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
            if remaining.is_zero() {
                break (Err(ActivityError::Failed("saga deadline exhausted".into())), None);
            }
            let mut span = soc_observe::child_span(
                run_ctx,
                if attempt == 0 { "workflow.activity" } else { "workflow.retry" },
                soc_observe::SpanKind::Internal,
            );
            span.set_text("node", name);
            if attempt > 0 {
                span.set_attr("attempt", attempt);
            }
            let started = Instant::now();
            let res = {
                let _in_span = span.activate();
                self.nodes[i].activity.execute(ports)
            };
            if let Some(t) = policy.timeout.filter(|t| started.elapsed() > (*t).min(remaining)) {
                let e = ActivityError::Failed(format!("timed out after {t:?}"));
                span.set_error(e.to_string());
                // Terminal: a timed-out attempt may have had its side
                // effect, so a retry could duplicate it.
                break (Err(e), res.ok());
            }
            match res {
                Ok(out) => break (Ok(out), None),
                Err(e) => {
                    span.set_error(e.to_string());
                    if attempt >= policy.max_retries {
                        break (Err(e), None);
                    }
                    attempt += 1;
                    let exp = policy
                        .base_backoff
                        .saturating_mul(1u32 << (attempt - 1).min(16))
                        .min(policy.max_backoff);
                    let backoff = exp.mul_f64(jitter(&mut rng)).min(remaining);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
            }
        };
        match primary {
            Ok(out) => (Ok(out), None),
            Err(primary_err) => {
                let Some(fallback) = self.fallbacks.get(&i) else {
                    return (Err(primary_err), late);
                };
                let mut span = soc_observe::child_span(
                    run_ctx,
                    "workflow.fallback",
                    soc_observe::SpanKind::Internal,
                );
                span.set_text("node", name);
                let res = {
                    let _in_span = span.activate();
                    fallback.execute(ports)
                };
                match res {
                    // The fallback completed the node, so a late
                    // success is not compensated: compensators run at
                    // most once per node.
                    Ok(out) => (Ok(out), None),
                    Err(fe) => {
                        span.set_error(fe.to_string());
                        let e = ActivityError::Failed(format!(
                            "{primary_err}; fallback also failed: {fe}"
                        ));
                        (Err(e), late)
                    }
                }
            }
        }
    }

    /// Run compensators of completed nodes in reverse topological
    /// order, exactly once each; failures are collected, not fatal.
    pub(crate) fn compensate(
        &self,
        completed: &[(usize, Ports)],
        failed: Option<usize>,
        run_ctx: soc_observe::TraceContext,
    ) -> (Vec<String>, Vec<(String, String)>) {
        let by_node: HashMap<usize, &Ports> = completed.iter().map(|(i, p)| (*i, p)).collect();
        let empty: Ports = Ports::new();
        let mut compensated = Vec::new();
        let mut errors = Vec::new();
        for &i in self.topo_order().iter().rev() {
            let Some(comp) = self.compensators.get(&i) else {
                continue;
            };
            // Completed nodes compensate with their recorded outputs.
            // The FAILED node compensates too — with empty ports —
            // because a request whose response was lost may still have
            // landed its side effect; its compensator must undo by an
            // identifier known before execution (e.g. the idempotency
            // key) and be safe to run when nothing landed. A node whose
            // attempt timed out but succeeded is in `completed` and
            // takes the normal path, exactly once.
            let ports = match by_node.get(&i) {
                Some(ports) => *ports,
                None if failed == Some(i) => &empty,
                None => continue,
            };
            let name = self.nodes[i].name.clone();
            let mut span = soc_observe::child_span(
                run_ctx,
                "workflow.compensate",
                soc_observe::SpanKind::Internal,
            );
            span.set_text("node", &name);
            let res = {
                let _in_span = span.activate();
                comp.execute(ports)
            };
            match res {
                Ok(_) => compensated.push(name),
                Err(e) => {
                    span.set_error(e.to_string());
                    errors.push((name, e.to_string()));
                }
            }
        }
        (compensated, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Compute, Const};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn counter_activity(counter: Arc<AtomicU32>, fail_first: u32) -> Compute {
        Compute::new(&["x"], move |p| {
            let n = counter.fetch_add(1, Ordering::SeqCst);
            if n < fail_first {
                Err(format!("injected failure {n}"))
            } else {
                Ok(p["x"].clone())
            }
        })
    }

    #[test]
    fn retries_then_succeeds() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(7));
        let calls = Arc::new(AtomicU32::new(0));
        let flaky = g.add("flaky", counter_activity(calls.clone(), 2));
        g.connect(c, "out", flaky, "x").unwrap();
        g.set_policy(flaky, ResiliencePolicy::retries(3)).unwrap();
        let out = g.run_saga(&HashMap::new(), &SagaConfig::default()).unwrap();
        assert!(out.is_completed());
        assert_eq!(out.outputs().unwrap()["flaky.out"].as_i64(), Some(7));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausted_retries_compensate_in_reverse_order() {
        // a -> b -> boom; a and b have compensators; boom always fails.
        let log: Arc<parking_lot::Mutex<Vec<String>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut g = WorkflowGraph::new();
        let a = g.add("a", Const::new(1));
        let b = g.add("b", Compute::new(&["x"], |p| Ok(p["x"].clone())));
        let boom = g.add("boom", Compute::new(&["x"], |_| Err("kaput".into())));
        g.connect(a, "out", b, "x").unwrap();
        g.connect(b, "out", boom, "x").unwrap();
        for (id, name) in [(a, "a"), (b, "b")] {
            let log = log.clone();
            let name = name.to_string();
            g.set_compensation(
                id,
                Compute::new(&[], move |_| {
                    log.lock().push(name.clone());
                    Ok(Value::Null)
                }),
            )
            .unwrap();
        }
        g.set_policy(boom, ResiliencePolicy::retries(2)).unwrap();
        let out = g.run_saga(&HashMap::new(), &SagaConfig::default()).unwrap();
        match out {
            WorkflowOutcome::Compensated {
                failed_at, compensated, compensation_errors, ..
            } => {
                assert_eq!(failed_at, "boom");
                assert_eq!(compensated, vec!["b".to_string(), "a".to_string()]);
                assert!(compensation_errors.is_empty());
            }
            other => panic!("expected compensation, got {other:?}"),
        }
        assert_eq!(*log.lock(), vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn fallback_rescues_failed_node() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(1));
        let bad = g.add("bad", Compute::new(&["x"], |_| Err("down".into())));
        g.connect(c, "out", bad, "x").unwrap();
        g.set_fallback(bad, Compute::new(&["x"], |_| Ok(Value::from("fallback")))).unwrap();
        let out = g.run_saga(&HashMap::new(), &SagaConfig::default()).unwrap();
        assert_eq!(out.outputs().unwrap()["bad.out"].as_str(), Some("fallback"));
    }

    #[test]
    fn timeout_is_terminal_and_straggler_is_compensated() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(1));
        let effects = Arc::new(AtomicU32::new(0));
        let slow_effects = effects.clone();
        let slow = g.add(
            "slow",
            Compute::new(&["x"], move |p| {
                std::thread::sleep(Duration::from_millis(80));
                slow_effects.fetch_add(1, Ordering::SeqCst);
                Ok(p["x"].clone())
            }),
        );
        g.connect(c, "out", slow, "x").unwrap();
        // Retries must NOT re-run a timed-out activity.
        g.set_policy(slow, ResiliencePolicy::retries(5).with_timeout(Duration::from_millis(5)))
            .unwrap();
        let undo = Arc::new(AtomicU32::new(0));
        let undo2 = undo.clone();
        g.set_compensation(
            slow,
            Compute::new(&[], move |_| {
                undo2.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            }),
        )
        .unwrap();
        let out = g.run_saga(&HashMap::new(), &SagaConfig::default()).unwrap();
        match out {
            WorkflowOutcome::Compensated { failed_at, compensated, .. } => {
                assert_eq!(failed_at, "slow");
                // The late attempt ran exactly once and, having
                // succeeded after its timeout, was compensated.
                assert_eq!(effects.load(Ordering::SeqCst), 1);
                assert_eq!(compensated, vec!["slow".to_string()]);
                assert_eq!(undo.load(Ordering::SeqCst), 1);
            }
            other => panic!("expected compensation, got {other:?}"),
        }
    }

    #[test]
    fn a_timed_attempt_runs_on_the_callers_thread() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(1));
        let ran_on = Arc::new(parking_lot::Mutex::new(None));
        let ran_on2 = ran_on.clone();
        let timed = g.add(
            "timed",
            Compute::new(&["x"], move |p| {
                *ran_on2.lock() = Some(std::thread::current().id());
                Ok(p["x"].clone())
            }),
        );
        g.connect(c, "out", timed, "x").unwrap();
        g.set_policy(timed, ResiliencePolicy::default().with_timeout(Duration::from_secs(30)))
            .unwrap();
        let out = g.run_saga(&HashMap::new(), &SagaConfig::default()).unwrap();
        assert!(out.is_completed());
        assert_eq!(*ran_on.lock(), Some(std::thread::current().id()));
    }

    #[test]
    fn fallback_completes_a_timed_out_node_without_compensating_it() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(1));
        let slow = g.add(
            "slow",
            Compute::new(&["x"], |p| {
                std::thread::sleep(Duration::from_millis(30));
                Ok(p["x"].clone())
            }),
        );
        g.connect(c, "out", slow, "x").unwrap();
        g.set_policy(slow, ResiliencePolicy::retries(3).with_timeout(Duration::from_millis(5)))
            .unwrap();
        g.set_fallback(slow, Compute::new(&["x"], |_| Ok(Value::from("fallback")))).unwrap();
        let undo = Arc::new(AtomicU32::new(0));
        let undo2 = undo.clone();
        g.set_compensation(
            slow,
            Compute::new(&[], move |_| {
                undo2.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            }),
        )
        .unwrap();
        let out = g.run_saga(&HashMap::new(), &SagaConfig::default()).unwrap();
        assert_eq!(out.outputs().unwrap()["slow.out"].as_str(), Some("fallback"));
        assert_eq!(undo.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn parallel_wave_failure_keeps_completed_set_consistent() {
        // Two independent branches fire in the same wave; one fails,
        // the sibling's completion must still be compensated.
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(1));
        let ok = g.add("ok", Compute::new(&["x"], |p| Ok(p["x"].clone())));
        let bad = g.add("bad", Compute::new(&["x"], |_| Err("dead".into())));
        g.connect(c, "out", ok, "x").unwrap();
        g.connect(c, "out", bad, "x").unwrap();
        let undone = Arc::new(AtomicU32::new(0));
        let undone2 = undone.clone();
        g.set_compensation(
            ok,
            Compute::new(&[], move |_| {
                undone2.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            }),
        )
        .unwrap();
        let pool = ThreadPool::new(2);
        let out = g.run_saga_parallel(&pool, &HashMap::new(), &SagaConfig::default()).unwrap();
        match out {
            WorkflowOutcome::Compensated { failed_at, compensated, .. } => {
                assert_eq!(failed_at, "bad");
                assert!(compensated.contains(&"ok".to_string()));
                assert_eq!(undone.load(Ordering::SeqCst), 1);
            }
            other => panic!("expected compensation, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_backoff_schedule_per_seed() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let mut c = FaultRng::new(43);
        let ja: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let jb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let jc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(ja, jb);
        assert_ne!(ja, jc);
        let j = jitter(&mut FaultRng::new(1));
        assert!((0.5..1.5).contains(&j));
    }

    #[test]
    fn unrepresentable_deadline_means_no_deadline() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(3));
        let id = g.add("id", Compute::new(&["x"], |p| Ok(p["x"].clone())));
        g.connect(c, "out", id, "x").unwrap();
        let config = SagaConfig { deadline: Duration::MAX, ..SagaConfig::default() };
        let out = g.run_saga(&HashMap::new(), &config).unwrap();
        assert_eq!(out.outputs().unwrap()["id.out"].as_i64(), Some(3));
    }
}
