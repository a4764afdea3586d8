//! BPEL-style structured process composition.
//!
//! Where [`crate::graph`] is the visual dataflow model, this is the
//! block-structured one taught alongside it: processes are trees of
//! `Sequence` / `Flow` / `While` / `If` / `Invoke` / `Assign` over a
//! shared variable scope, executed against a transport — CSE446's
//! "BPEL-based integration" project.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use soc_http::mem::Transport;
use soc_http::Request;
use soc_json::Value;

/// The variable scope a process runs over.
pub type Scope = HashMap<String, Value>;

/// Why a process failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessError {
    /// An `Invoke` failed (transport or non-2xx).
    Invoke {
        /// Endpoint invoked.
        endpoint: String,
        /// Failure description.
        detail: String,
    },
    /// A `While` exceeded its iteration budget — almost certainly a
    /// non-terminating loop in the process definition.
    LoopBudget {
        /// The configured budget that was exceeded.
        budget: u32,
    },
    /// An expression referenced a missing variable.
    UnboundVariable(String),
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::Invoke { endpoint, detail } => {
                write!(f, "invoke {endpoint} failed: {detail}")
            }
            ProcessError::LoopBudget { budget } => {
                write!(f, "while loop exceeded {budget} iterations")
            }
            ProcessError::UnboundVariable(v) => write!(f, "unbound variable {v:?}"),
        }
    }
}

type Expr = Arc<dyn Fn(&Scope) -> Result<Value, ProcessError> + Send + Sync>;
type Cond = Arc<dyn Fn(&Scope) -> bool + Send + Sync>;

/// A structured process step.
#[derive(Clone)]
pub enum Step {
    /// Run steps one after another.
    Sequence(Vec<Step>),
    /// Run steps concurrently (BPEL `<flow>`); all must succeed.
    Flow(Vec<Step>),
    /// Evaluate an expression into a variable.
    Assign {
        /// Target variable.
        var: String,
        /// Expression over the current scope.
        expr: Expr,
    },
    /// Conditional.
    If {
        /// Branch condition.
        cond: Cond,
        /// Taken when true.
        then: Box<Step>,
        /// Taken when false (may be an empty sequence).
        otherwise: Box<Step>,
    },
    /// Loop while the condition holds (bounded by the engine's budget).
    While {
        /// Loop condition.
        cond: Cond,
        /// Loop body.
        body: Box<Step>,
    },
    /// Invoke a REST service: POST the value of `input_var` (or GET when
    /// `None`) and store the JSON reply into `output_var`.
    Invoke {
        /// Target endpoint.
        endpoint: String,
        /// Variable holding the request payload, if POSTing.
        input_var: Option<String>,
        /// Variable receiving the parsed response.
        output_var: String,
    },
}

impl Step {
    /// Helper: assign from a closure.
    pub fn assign(
        var: &str,
        f: impl Fn(&Scope) -> Result<Value, ProcessError> + Send + Sync + 'static,
    ) -> Step {
        Step::Assign { var: var.to_string(), expr: Arc::new(f) }
    }

    /// Helper: assign a constant.
    pub fn set(var: &str, value: impl Into<Value>) -> Step {
        let v = value.into();
        Step::assign(var, move |_| Ok(v.clone()))
    }
}

/// The process engine: a step tree plus execution policy.
pub struct Process {
    root: Step,
    transport: Arc<dyn Transport>,
    /// Iteration budget per `While` (defends against non-termination).
    pub loop_budget: u32,
    pool: Option<Arc<soc_parallel::ThreadPool>>,
}

impl Process {
    /// Build a process over a transport.
    pub fn new(root: Step, transport: Arc<dyn Transport>) -> Self {
        Process { root, transport, loop_budget: 10_000, pool: None }
    }

    /// Execute `Flow` steps on a pool instead of sequentially.
    pub fn with_pool(mut self, pool: Arc<soc_parallel::ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Run with an initial scope; returns the final scope.
    pub fn run(&self, mut scope: Scope) -> Result<Scope, ProcessError> {
        self.exec(&self.root, &mut scope)?;
        Ok(scope)
    }

    fn exec(&self, step: &Step, scope: &mut Scope) -> Result<(), ProcessError> {
        match step {
            Step::Sequence(steps) => {
                for s in steps {
                    self.exec(s, scope)?;
                }
                Ok(())
            }
            Step::Flow(steps) => {
                // Each branch runs on a snapshot; writes merge back in
                // declaration order (later branches win on conflicts) —
                // BPEL flows that race on a variable are a process bug,
                // but the engine stays deterministic about it.
                let snapshots: Vec<Result<Scope, ProcessError>> = match &self.pool {
                    Some(pool) if steps.len() > 1 => {
                        // Pool threads have no trace context of their
                        // own; re-activate the caller's so branch
                        // invokes stay in this process's trace.
                        let flow_ctx = soc_observe::context::current();
                        let out = Mutex::new(vec![None; steps.len()]);
                        pool.scope(|s| {
                            for (i, st) in steps.iter().enumerate() {
                                let out = &out;
                                let base = scope.clone();
                                s.spawn(move || {
                                    let _trace = flow_ctx.map(soc_observe::context::set_current);
                                    let mut local = base;
                                    let r = self.exec(st, &mut local).map(|()| local);
                                    out.lock()[i] = Some(r);
                                });
                            }
                        });
                        out.into_inner().into_iter().map(|o| o.expect("branch ran")).collect()
                    }
                    _ => steps
                        .iter()
                        .map(|st| {
                            let mut local = scope.clone();
                            self.exec(st, &mut local).map(|()| local)
                        })
                        .collect(),
                };
                for snap in snapshots {
                    let snap = snap?;
                    for (k, v) in snap {
                        scope.insert(k, v);
                    }
                }
                Ok(())
            }
            Step::Assign { var, expr } => {
                let v = expr(scope)?;
                scope.insert(var.clone(), v);
                Ok(())
            }
            Step::If { cond, then, otherwise } => {
                if cond(scope) {
                    self.exec(then, scope)
                } else {
                    self.exec(otherwise, scope)
                }
            }
            Step::While { cond, body } => {
                let mut iterations = 0u32;
                while cond(scope) {
                    iterations += 1;
                    if iterations > self.loop_budget {
                        return Err(ProcessError::LoopBudget { budget: self.loop_budget });
                    }
                    self.exec(body, scope)?;
                }
                Ok(())
            }
            Step::Invoke { endpoint, input_var, output_var } => {
                let mut span = soc_observe::span("bpel.invoke", soc_observe::SpanKind::Internal);
                span.set_text("endpoint", endpoint);
                let req = match input_var {
                    Some(var) => {
                        let payload = scope
                            .get(var)
                            .ok_or_else(|| ProcessError::UnboundVariable(var.clone()))?;
                        Request::post(endpoint, Vec::new())
                            .with_text("application/json", &payload.to_compact())
                    }
                    None => Request::get(endpoint),
                };
                let result = {
                    let _in_span = span.activate();
                    self.transport.send(req)
                };
                let resp = result.map_err(|e| {
                    span.set_error(e.to_string());
                    ProcessError::Invoke { endpoint: endpoint.clone(), detail: e.to_string() }
                })?;
                if !resp.status.is_success() {
                    span.set_error(format!("status {}", resp.status));
                    return Err(ProcessError::Invoke {
                        endpoint: endpoint.clone(),
                        detail: format!("status {}", resp.status),
                    });
                }
                let text = resp.text_body().unwrap_or("null");
                let value = Value::parse(text).unwrap_or(Value::Null);
                scope.insert(output_var.clone(), value);
                Ok(())
            }
        }
    }
}

/// Fetch a variable as i64 or fail with [`ProcessError::UnboundVariable`].
pub fn int_var(scope: &Scope, name: &str) -> Result<i64, ProcessError> {
    scope
        .get(name)
        .and_then(Value::as_i64)
        .ok_or_else(|| ProcessError::UnboundVariable(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc_http::{MemNetwork, Response};

    fn transport() -> Arc<dyn Transport> {
        let net = MemNetwork::new();
        net.host("math", |req: Request| {
            if req.path() == "/double" {
                let v = Value::parse(req.text().unwrap()).unwrap();
                let n = v.as_i64().unwrap();
                Response::json(&Value::from(n * 2).to_compact())
            } else {
                Response::json("7")
            }
        });
        Arc::new(net)
    }

    #[test]
    fn sequence_and_assign() {
        let p = Process::new(
            Step::Sequence(vec![
                Step::set("a", 2),
                Step::assign("b", |s| Ok(Value::from(int_var(s, "a")? + 40))),
            ]),
            transport(),
        );
        let out = p.run(Scope::new()).unwrap();
        assert_eq!(out["b"].as_i64(), Some(42));
    }

    #[test]
    fn invoke_get_and_post() {
        let p = Process::new(
            Step::Sequence(vec![
                Step::Invoke {
                    endpoint: "mem://math/seven".into(),
                    input_var: None,
                    output_var: "seven".into(),
                },
                Step::Invoke {
                    endpoint: "mem://math/double".into(),
                    input_var: Some("seven".into()),
                    output_var: "fourteen".into(),
                },
            ]),
            transport(),
        );
        let out = p.run(Scope::new()).unwrap();
        assert_eq!(out["fourteen"].as_i64(), Some(14));
    }

    #[test]
    fn while_loops_until_condition() {
        let p = Process::new(
            Step::Sequence(vec![
                Step::set("i", 0),
                Step::While {
                    cond: Arc::new(|s| s["i"].as_i64().unwrap() < 5),
                    body: Box::new(Step::assign("i", |s| Ok(Value::from(int_var(s, "i")? + 1)))),
                },
            ]),
            transport(),
        );
        assert_eq!(p.run(Scope::new()).unwrap()["i"].as_i64(), Some(5));
    }

    #[test]
    fn runaway_loop_hits_budget() {
        let mut p = Process::new(
            Step::While { cond: Arc::new(|_| true), body: Box::new(Step::set("x", 1)) },
            transport(),
        );
        p.loop_budget = 100;
        assert_eq!(p.run(Scope::new()), Err(ProcessError::LoopBudget { budget: 100 }));
    }

    #[test]
    fn if_branches() {
        let build = |n: i64| {
            Process::new(
                Step::Sequence(vec![
                    Step::set("n", n),
                    Step::If {
                        cond: Arc::new(|s| s["n"].as_i64().unwrap() > 10),
                        then: Box::new(Step::set("size", "big")),
                        otherwise: Box::new(Step::set("size", "small")),
                    },
                ]),
                transport(),
            )
            .run(Scope::new())
            .unwrap()
        };
        assert_eq!(build(20)["size"].as_str(), Some("big"));
        assert_eq!(build(2)["size"].as_str(), Some("small"));
    }

    #[test]
    fn flow_merges_branch_writes() {
        let p = Process::new(
            Step::Flow(vec![
                Step::set("a", 1),
                Step::set("b", 2),
                Step::Sequence(vec![Step::set("c", 3)]),
            ]),
            transport(),
        );
        let out = p.run(Scope::new()).unwrap();
        assert_eq!(out["a"].as_i64(), Some(1));
        assert_eq!(out["b"].as_i64(), Some(2));
        assert_eq!(out["c"].as_i64(), Some(3));
    }

    #[test]
    fn flow_parallel_matches_sequential() {
        let pool = Arc::new(soc_parallel::ThreadPool::new(3));
        let branches: Vec<Step> = (0..6).map(|i| Step::set(&format!("v{i}"), i as i64)).collect();
        let seq =
            Process::new(Step::Flow(branches.clone()), transport()).run(Scope::new()).unwrap();
        let par = Process::new(Step::Flow(branches), transport())
            .with_pool(pool)
            .run(Scope::new())
            .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn invoke_failure_reports_endpoint() {
        let p = Process::new(
            Step::Invoke {
                endpoint: "mem://ghost/x".into(),
                input_var: None,
                output_var: "out".into(),
            },
            transport(),
        );
        match p.run(Scope::new()) {
            Err(ProcessError::Invoke { endpoint, .. }) => assert_eq!(endpoint, "mem://ghost/x"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbound_input_variable() {
        let p = Process::new(
            Step::Invoke {
                endpoint: "mem://math/double".into(),
                input_var: Some("missing".into()),
                output_var: "out".into(),
            },
            transport(),
        );
        assert!(matches!(p.run(Scope::new()), Err(ProcessError::UnboundVariable(_))));
    }
}
