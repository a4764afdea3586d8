//! Goal-directed composition planning.
//!
//! A [`Goal`] says what the caller *has* and what they *want*, both as
//! typed parameters. The planner chains discovered operations backward
//! from the wants: for each parameter it cannot source from the haves,
//! it picks a producing operation out of the index, then recurses into
//! that operation's inputs. Candidates are ranked by live health (via
//! the same [`QosFeed`] the search engine uses) so the plan prefers
//! replicas the gateway currently trusts, and a denylist lets the
//! executor re-plan around a service that just failed mid-saga.
//!
//! The output is a declarative [`Plan`] — nodes plus typed wires — that
//! says nothing about *how* to run it. The static checker
//! ([`crate::check`](mod@crate::check)) verifies a plan independently, and
//! [`crate::execute`] lowers accepted plans onto a workflow graph.
//! The planner is deterministic: one catalog, one goal, one feed ⇒ one
//! plan.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Duration;

use soc_registry::Binding;
use soc_soap::contract::Param;
use soc_soap::XsdType;

use crate::catalog::{DiscoveredService, TypedOperation};
use crate::index::{param_key, QosFeed, SearchIndex};

/// What the caller has, what they want, and the budget to get it.
#[derive(Debug, Clone)]
pub struct Goal {
    /// Parameters the caller can supply.
    pub have: Vec<Param>,
    /// Parameters the composition must produce.
    pub want: Vec<Param>,
    /// Wall-clock budget for executing the composition; also drives
    /// the per-node resilience policies derived at lowering time.
    pub deadline: Duration,
    /// Cap on plan size, against runaway chaining.
    pub max_nodes: usize,
}

impl Goal {
    /// An empty goal with a 5 s deadline and a 16-node cap.
    pub fn new() -> Self {
        Goal { have: Vec::new(), want: Vec::new(), deadline: Duration::from_secs(5), max_nodes: 16 }
    }

    /// Builder: declare an available input.
    pub fn have(mut self, name: &str, ty: XsdType) -> Self {
        self.have.push(Param { name: name.to_string(), ty });
        self
    }

    /// Builder: declare a required output.
    pub fn want(mut self, name: &str, ty: XsdType) -> Self {
        self.want.push(Param { name: name.to_string(), ty });
        self
    }

    /// Builder: set the execution deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = d;
        self
    }

    /// Builder: set the node cap.
    pub fn max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = n;
        self
    }
}

impl Default for Goal {
    fn default() -> Self {
        Goal::new()
    }
}

/// One planned service invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Catalog service id.
    pub service_id: String,
    /// Operation to invoke.
    pub operation: String,
    /// Invocation binding (REST or SOAP).
    pub binding: Binding,
    /// Contract namespace (SOAP envelopes need it).
    pub namespace: String,
    /// Base path on any replica.
    pub base_path: String,
    /// Replica origins the gateway may use.
    pub replicas: Vec<String>,
    /// The operation's typed inputs.
    pub inputs: Vec<Param>,
    /// The operation's typed outputs.
    pub outputs: Vec<Param>,
}

/// Where a wired value comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum WireSource {
    /// A parameter the goal declared as available.
    Goal(String),
    /// Output `port` of plan node `node`.
    Node {
        /// Producing node index into [`Plan::nodes`].
        node: usize,
        /// Output parameter name on that node.
        port: String,
    },
}

/// One typed connection: `source` feeds input `port` of node `node`.
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    /// Consuming node index.
    pub node: usize,
    /// Input parameter name on that node.
    pub port: String,
    /// The producer.
    pub source: WireSource,
}

/// A complete composition plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Invocations, in creation order (dependencies come first).
    pub nodes: Vec<PlanNode>,
    /// Typed wiring between goal inputs and nodes.
    pub wires: Vec<Wire>,
    /// How each wanted parameter is delivered: `(name, source)`.
    pub outputs: Vec<(String, WireSource)>,
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// No discovered operation (outside the denylist and not ejected)
    /// produces this parameter from reachable inputs.
    NoProducer {
        /// `name: type` of the unproducible parameter.
        param: String,
    },
    /// The chain exceeded [`Goal::max_nodes`].
    TooLarge {
        /// The cap that was hit.
        max_nodes: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NoProducer { param } => {
                write!(f, "no discovered operation can produce `{param}`")
            }
            PlanError::TooLarge { max_nodes } => {
                write!(f, "plan would exceed the {max_nodes}-node cap")
            }
        }
    }
}

/// The backward-chaining planner.
pub struct Planner<'a> {
    index: &'a SearchIndex,
    qos: &'a dyn QosFeed,
    denylist: HashSet<String>,
}

struct Ctx {
    nodes: Vec<PlanNode>,
    wires: Vec<Wire>,
    /// Signature key → producing `(node, port)`; doubles as the memo.
    produced: HashMap<String, (usize, String)>,
    /// Signatures currently being resolved up-stack (cycle guard).
    in_progress: HashSet<String>,
}

impl<'a> Planner<'a> {
    /// A planner over `index`, ranking candidates with `qos`.
    pub fn new(index: &'a SearchIndex, qos: &'a dyn QosFeed) -> Self {
        Planner { index, qos, denylist: HashSet::new() }
    }

    /// Exclude a service from this planner's plans (typically because
    /// it just failed mid-execution).
    pub fn deny(&mut self, service_id: &str) {
        self.denylist.insert(service_id.to_string());
    }

    /// Plan `goal`. Deterministic; returns the first error only after
    /// exhausting every candidate chain.
    pub fn plan(&self, goal: &Goal) -> Result<Plan, PlanError> {
        let mut ctx = Ctx {
            nodes: Vec::new(),
            wires: Vec::new(),
            produced: HashMap::new(),
            in_progress: HashSet::new(),
        };
        let mut outputs = Vec::new();
        for want in &goal.want {
            let source = self.resolve(goal, &mut ctx, want)?;
            outputs.push((want.name.clone(), source));
        }
        Ok(Plan { nodes: ctx.nodes, wires: ctx.wires, outputs })
    }

    /// Find a source for `param`: a goal input, something already
    /// planned, or a fresh node (whose own inputs resolve recursively,
    /// backtracking across candidates).
    fn resolve(&self, goal: &Goal, ctx: &mut Ctx, param: &Param) -> Result<WireSource, PlanError> {
        if let Some(h) =
            goal.have.iter().find(|h| h.ty == param.ty && h.name.eq_ignore_ascii_case(&param.name))
        {
            return Ok(WireSource::Goal(h.name.clone()));
        }
        let key = param_key(param);
        if let Some((node, port)) = ctx.produced.get(&key) {
            return Ok(WireSource::Node { node: *node, port: port.clone() });
        }
        let no_producer =
            || PlanError::NoProducer { param: format!("{}: {}", param.name, param.ty.xsd_name()) };
        if ctx.in_progress.contains(&key) {
            // Circular requirement up-stack: this candidate chain
            // cannot bottom out.
            return Err(no_producer());
        }

        let mut candidates: Vec<(&DiscoveredService, &TypedOperation, i64)> = self
            .index
            .producers_of(param)
            .into_iter()
            .filter(|(svc, _)| !self.denylist.contains(&svc.descriptor.id))
            .filter_map(|(svc, op)| {
                let snap = self.qos.snapshot(&svc.descriptor.id, &svc.replicas);
                // A fully ejected service is not a candidate at all:
                // planning onto it just schedules the next failure.
                // Health is quantized into coarse bands for ordering:
                // only *meaningful* QoS differences (a degraded or
                // erroring provider) should reorder candidates, not
                // microsecond jitter between two healthy ones.
                (!snap.ejected).then(|| (svc, op, (snap.health() * 8.0).round() as i64))
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.2.cmp(&a.2)
                .then_with(|| a.1.inputs.len().cmp(&b.1.inputs.len()))
                .then_with(|| a.0.descriptor.id.cmp(&b.0.descriptor.id))
                .then_with(|| a.1.name.cmp(&b.1.name))
        });

        ctx.in_progress.insert(key.clone());
        let mut last_err = None;
        for (svc, op, _) in candidates {
            let checkpoint = (ctx.nodes.len(), ctx.wires.len(), ctx.produced.clone());
            match self.instantiate(goal, ctx, svc, op) {
                Ok(node) => {
                    ctx.in_progress.remove(&key);
                    return Ok(WireSource::Node { node, port: port_for(op, param) });
                }
                Err(e) => {
                    ctx.nodes.truncate(checkpoint.0);
                    ctx.wires.truncate(checkpoint.1);
                    ctx.produced = checkpoint.2;
                    last_err = Some(e);
                }
            }
        }
        ctx.in_progress.remove(&key);
        Err(last_err.unwrap_or_else(no_producer))
    }

    /// Add a node invoking `op` on `svc`, resolving its inputs first
    /// so dependencies precede it in [`Plan::nodes`].
    fn instantiate(
        &self,
        goal: &Goal,
        ctx: &mut Ctx,
        svc: &DiscoveredService,
        op: &TypedOperation,
    ) -> Result<usize, PlanError> {
        if ctx.nodes.len() >= goal.max_nodes {
            return Err(PlanError::TooLarge { max_nodes: goal.max_nodes });
        }
        let mut sources = Vec::with_capacity(op.inputs.len());
        for input in &op.inputs {
            sources.push((input.name.clone(), self.resolve(goal, ctx, input)?));
        }
        // Re-check after resolving inputs: the recursion above may have
        // pushed dependency nodes, and this node still has to fit.
        if ctx.nodes.len() >= goal.max_nodes {
            return Err(PlanError::TooLarge { max_nodes: goal.max_nodes });
        }
        let node = ctx.nodes.len();
        ctx.nodes.push(PlanNode {
            service_id: svc.descriptor.id.clone(),
            operation: op.name.clone(),
            binding: svc.descriptor.binding,
            namespace: svc.namespace.clone(),
            base_path: svc.base_path.clone(),
            replicas: svc.replicas.clone(),
            inputs: op.inputs.clone(),
            outputs: op.outputs.clone(),
        });
        for (port, source) in sources {
            ctx.wires.push(Wire { node, port, source });
        }
        for out in &op.outputs {
            ctx.produced.entry(param_key(out)).or_insert((node, out.name.clone()));
        }
        Ok(node)
    }
}

/// The output port on `op` that satisfies `param`.
fn port_for(op: &TypedOperation, param: &Param) -> String {
    op.outputs
        .iter()
        .find(|o| o.ty == param.ty && o.name.eq_ignore_ascii_case(&param.name))
        .map(|o| o.name.clone())
        .expect("instantiated producer must carry the requested output")
}
