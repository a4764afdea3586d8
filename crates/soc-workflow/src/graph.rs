//! The dataflow workflow graph: nodes, ports, edges and firing rules.
//!
//! [`WorkflowGraph::run`] and [`WorkflowGraph::run_parallel`] execute
//! it on the one engine in [`crate::saga`], so a node's policy,
//! fallback and compensator apply whichever entry point runs it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use soc_json::Value;
use soc_parallel::ThreadPool;

use crate::activity::{Activity, ActivityError, Ports};
use crate::saga::{SagaConfig, WorkflowOutcome};

/// Node identifier within a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// How a node decides it is ready to fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Firing {
    /// All connected input ports must hold a value (the default).
    All,
    /// Any one connected input port suffices (Merge semantics).
    Any,
}

/// Errors from graph construction, validation, or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// Referenced a node that does not exist.
    NoSuchNode(String),
    /// Referenced a port the activity does not declare.
    NoSuchPort {
        /// Node name.
        node: String,
        /// Offending port.
        port: String,
    },
    /// An input port has two incoming edges.
    PortAlreadyConnected {
        /// Node name.
        node: String,
        /// Port with multiple writers.
        port: String,
    },
    /// The graph contains a dependency cycle.
    Cycle,
    /// An activity failed during execution.
    Activity {
        /// Node name.
        node: String,
        /// The underlying error.
        error: ActivityError,
    },
    /// Execution stalled: these nodes never received enough inputs.
    Stalled(Vec<String>),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::NoSuchNode(n) => write!(f, "no such node {n:?}"),
            WorkflowError::NoSuchPort { node, port } => {
                write!(f, "node {node:?} has no port {port:?}")
            }
            WorkflowError::PortAlreadyConnected { node, port } => {
                write!(f, "input {node:?}.{port:?} already has a producer")
            }
            WorkflowError::Cycle => write!(f, "workflow graph contains a cycle"),
            WorkflowError::Activity { node, error } => write!(f, "node {node:?}: {error}"),
            WorkflowError::Stalled(nodes) => {
                write!(f, "workflow stalled; nodes never fired: {nodes:?}")
            }
        }
    }
}

pub(crate) struct Node {
    pub(crate) name: String,
    pub(crate) activity: Arc<dyn Activity>,
    pub(crate) firing: Firing,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Edge {
    pub(crate) from: (usize, String),
    pub(crate) to: (usize, String),
}

/// A dataflow graph of activities — the VPL program model.
///
/// Besides the activity itself, each node may carry resilience
/// metadata: a [`crate::saga::ResiliencePolicy`], a compensator, and a
/// fallback activity. Every entry point honours all three;
/// [`WorkflowGraph::run`] reports a failure as an error and
/// [`WorkflowGraph::run_saga`] as a structured outcome.
#[derive(Default)]
pub struct WorkflowGraph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) policies: HashMap<usize, crate::saga::ResiliencePolicy>,
    pub(crate) compensators: HashMap<usize, Arc<dyn Activity>>,
    pub(crate) fallbacks: HashMap<usize, Arc<dyn Activity>>,
}

impl WorkflowGraph {
    /// Empty graph.
    pub fn new() -> Self {
        WorkflowGraph::default()
    }

    /// Add an activity with [`Firing::All`] semantics.
    pub fn add(&mut self, name: &str, activity: impl Activity + 'static) -> NodeId {
        self.add_with_firing(name, activity, Firing::All)
    }

    /// Add a merge-style activity that fires on any input.
    pub fn add_any(&mut self, name: &str, activity: impl Activity + 'static) -> NodeId {
        self.add_with_firing(name, activity, Firing::Any)
    }

    fn add_with_firing(
        &mut self,
        name: &str,
        activity: impl Activity + 'static,
        firing: Firing,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { name: name.to_string(), activity: Arc::new(activity), firing });
        id
    }

    /// Attach a [`crate::saga::ResiliencePolicy`] to a node. Every run
    /// consults it.
    pub fn set_policy(
        &mut self,
        node: NodeId,
        policy: crate::saga::ResiliencePolicy,
    ) -> Result<(), WorkflowError> {
        self.check_node(node)?;
        self.policies.insert(node.0, policy);
        Ok(())
    }

    /// Register a compensator for a node. When a run fails after
    /// this node completed, the compensator executes with the node's
    /// recorded *output* ports as its inputs.
    pub fn set_compensation(
        &mut self,
        node: NodeId,
        compensator: impl Activity + 'static,
    ) -> Result<(), WorkflowError> {
        self.check_node(node)?;
        self.compensators.insert(node.0, Arc::new(compensator));
        Ok(())
    }

    /// Register a fallback activity for a node. When the node's own
    /// activity exhausts its retries (or times out), the fallback runs
    /// once with the same inputs; if it succeeds the node completes
    /// with the fallback's outputs.
    pub fn set_fallback(
        &mut self,
        node: NodeId,
        fallback: impl Activity + 'static,
    ) -> Result<(), WorkflowError> {
        self.check_node(node)?;
        self.fallbacks.insert(node.0, Arc::new(fallback));
        Ok(())
    }

    fn check_node(&self, node: NodeId) -> Result<(), WorkflowError> {
        if node.0 >= self.nodes.len() {
            return Err(WorkflowError::NoSuchNode(format!("#{}", node.0)));
        }
        Ok(())
    }

    /// Connect `from.out_port` → `to.in_port`.
    pub fn connect(
        &mut self,
        from: NodeId,
        out_port: &str,
        to: NodeId,
        in_port: &str,
    ) -> Result<(), WorkflowError> {
        let from_node = self
            .nodes
            .get(from.0)
            .ok_or_else(|| WorkflowError::NoSuchNode(format!("#{}", from.0)))?;
        if !from_node.activity.outputs().iter().any(|p| p == out_port) {
            return Err(WorkflowError::NoSuchPort {
                node: from_node.name.clone(),
                port: out_port.to_string(),
            });
        }
        let to_node =
            self.nodes.get(to.0).ok_or_else(|| WorkflowError::NoSuchNode(format!("#{}", to.0)))?;
        if !to_node.activity.inputs().iter().any(|p| p == in_port) {
            return Err(WorkflowError::NoSuchPort {
                node: to_node.name.clone(),
                port: in_port.to_string(),
            });
        }
        if self.edges.iter().any(|e| e.to == (to.0, in_port.to_string())) {
            return Err(WorkflowError::PortAlreadyConnected {
                node: to_node.name.clone(),
                port: in_port.to_string(),
            });
        }
        self.edges
            .push(Edge { from: (from.0, out_port.to_string()), to: (to.0, in_port.to_string()) });
        Ok(())
    }

    /// Validate the graph: no cycles. (Port existence is checked at
    /// connect time.)
    pub fn validate(&self) -> Result<(), WorkflowError> {
        // Kahn's algorithm over node dependencies.
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for e in &self.edges {
                if e.from.0 == i {
                    indegree[e.to.0] -= 1;
                    if indegree[e.to.0] == 0 {
                        queue.push(e.to.0);
                    }
                }
            }
        }
        if seen != n {
            return Err(WorkflowError::Cycle);
        }
        Ok(())
    }

    /// Run the workflow. `inputs` seeds ports by `"node.port"` key.
    /// Returns values on *unconnected* output ports, keyed `"node.port"`.
    ///
    /// Event-driven semantics: a node fires (once) when its connected
    /// inputs are satisfied per its [`Firing`] mode; nodes on untaken
    /// conditional branches simply never fire. If the graph makes no
    /// progress and no outputs were produced at all, that is reported as
    /// a stall.
    ///
    /// This is [`WorkflowGraph::run_saga`] without a run deadline: node
    /// policies, fallbacks and compensators apply, and a compensated
    /// run reports the error that triggered it.
    pub fn run(
        &self,
        inputs: &HashMap<String, Value>,
    ) -> Result<HashMap<String, Value>, WorkflowError> {
        self.run_unbounded(inputs, None)
    }

    /// Like [`WorkflowGraph::run`], but fires independent ready nodes in
    /// parallel waves on `pool` — VPL's implicit parallelism.
    pub fn run_parallel(
        &self,
        pool: &ThreadPool,
        inputs: &HashMap<String, Value>,
    ) -> Result<HashMap<String, Value>, WorkflowError> {
        self.run_unbounded(inputs, Some(pool))
    }

    fn run_unbounded(
        &self,
        inputs: &HashMap<String, Value>,
        pool: Option<&ThreadPool>,
    ) -> Result<HashMap<String, Value>, WorkflowError> {
        let config = SagaConfig { deadline: Duration::MAX, ..SagaConfig::default() };
        match self.run_saga_inner(inputs, pool, &config, None)? {
            WorkflowOutcome::Completed(out) => Ok(out),
            WorkflowOutcome::Compensated { error, .. } => Err(error),
        }
    }

    /// Input ports with a producer edge, per node.
    pub(crate) fn connected_inputs(&self) -> Vec<Vec<String>> {
        let mut connected: Vec<Vec<String>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            connected[e.to.0].push(e.to.1.clone());
        }
        connected
    }

    /// Validate `"node.port"` seed keys and distribute them onto the
    /// per-node pending port maps.
    pub(crate) fn seed_pending(
        &self,
        inputs: &HashMap<String, Value>,
    ) -> Result<Vec<Ports>, WorkflowError> {
        let mut pending: Vec<Ports> = vec![Ports::new(); self.nodes.len()];
        for (key, value) in inputs {
            let Some((node_name, port)) = key.split_once('.') else {
                return Err(WorkflowError::NoSuchNode(key.clone()));
            };
            let idx = self
                .nodes
                .iter()
                .position(|nd| nd.name == node_name)
                .ok_or_else(|| WorkflowError::NoSuchNode(node_name.to_string()))?;
            if !self.nodes[idx].activity.inputs().iter().any(|p| p == port) {
                return Err(WorkflowError::NoSuchPort {
                    node: node_name.to_string(),
                    port: port.to_string(),
                });
            }
            pending[idx].insert(port.to_string(), value.clone());
        }
        Ok(pending)
    }

    /// A deterministic topological order (lowest node index first among
    /// the ready set) — the executor compensates completed nodes
    /// in the reverse of this order.
    pub(crate) fn topo_order(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to.0] += 1;
        }
        let mut order = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        while order.len() < n {
            let Some(next) = (0..n).find(|&i| !placed[i] && indegree[i] == 0) else {
                break; // cycle — validate() reports it separately
            };
            placed[next] = true;
            order.push(next);
            for e in &self.edges {
                if e.from.0 == next {
                    indegree[e.to.0] -= 1;
                }
            }
        }
        order
    }

    pub(crate) fn is_ready(&self, idx: usize, pending: &Ports, connected: &[String]) -> bool {
        let node = &self.nodes[idx];
        let declared = node.activity.inputs();
        if declared.is_empty() {
            return true;
        }
        match node.firing {
            Firing::All => {
                // Every declared input that has a producer (or was seeded
                // externally) must be present; inputs with no producer
                // must have been seeded.
                declared.iter().all(|p| {
                    pending.contains_key(p) || (!connected.contains(p) && pending.contains_key(p))
                }) && declared.iter().all(|p| pending.contains_key(p))
            }
            Firing::Any => !pending.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{Compute, Const, If, Merge};
    use crate::saga::ResiliencePolicy;
    use soc_json::json;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn add_activity() -> Compute {
        Compute::new(&["a", "b"], |p| {
            Ok(Value::from(p["a"].as_i64().ok_or("a")? + p["b"].as_i64().ok_or("b")?))
        })
    }

    #[test]
    fn linear_pipeline() {
        let mut g = WorkflowGraph::new();
        let c1 = g.add("two", Const::new(2));
        let c2 = g.add("forty", Const::new(40));
        let sum = g.add("sum", add_activity());
        g.connect(c1, "out", sum, "a").unwrap();
        g.connect(c2, "out", sum, "b").unwrap();
        let out = g.run(&HashMap::new()).unwrap();
        assert_eq!(out["sum.out"].as_i64(), Some(42));
    }

    #[test]
    fn external_inputs_seed_ports() {
        let mut g = WorkflowGraph::new();
        g.add("sum", add_activity());
        let mut inputs = HashMap::new();
        inputs.insert("sum.a".to_string(), json!(1));
        inputs.insert("sum.b".to_string(), json!(2));
        let out = g.run(&inputs).unwrap();
        assert_eq!(out["sum.out"].as_i64(), Some(3));
    }

    #[test]
    fn conditional_branch_with_merge() {
        // cond -> If -> (then: double, else: negate) -> Merge.
        let build = |flag: bool| {
            let mut g = WorkflowGraph::new();
            let cond = g.add("cond", Const::new(flag));
            let val = g.add("val", Const::new(10));
            let iff = g.add("if", If::truthy());
            let double = g.add(
                "double",
                Compute::new(&["x"], |p| Ok(Value::from(p["x"].as_i64().unwrap() * 2))),
            );
            let negate = g.add(
                "negate",
                Compute::new(&["x"], |p| Ok(Value::from(-p["x"].as_i64().unwrap()))),
            );
            let merge = g.add_any("merge", Merge);
            g.connect(cond, "out", iff, "cond").unwrap();
            g.connect(val, "out", iff, "value").unwrap();
            g.connect(iff, "then", double, "x").unwrap();
            g.connect(iff, "else", negate, "x").unwrap();
            g.connect(double, "out", merge, "a").unwrap();
            g.connect(negate, "out", merge, "b").unwrap();
            g.run(&HashMap::new()).unwrap()
        };
        assert_eq!(build(true)["merge.out"].as_i64(), Some(20));
        assert_eq!(build(false)["merge.out"].as_i64(), Some(-10));
    }

    #[test]
    fn connect_validates_ports() {
        let mut g = WorkflowGraph::new();
        let a = g.add("a", Const::new(1));
        let b = g.add("b", add_activity());
        assert!(matches!(g.connect(a, "nope", b, "a"), Err(WorkflowError::NoSuchPort { .. })));
        assert!(matches!(g.connect(a, "out", b, "nope"), Err(WorkflowError::NoSuchPort { .. })));
        g.connect(a, "out", b, "a").unwrap();
        // Double producer rejected.
        let c = g.add("c", Const::new(2));
        assert!(matches!(
            g.connect(c, "out", b, "a"),
            Err(WorkflowError::PortAlreadyConnected { .. })
        ));
    }

    #[test]
    fn cycles_rejected() {
        let mut g = WorkflowGraph::new();
        let inc = |_name: &str| Compute::new(&["x"], |p| Ok(p["x"].clone()));
        let a = g.add("a", inc("a"));
        let b = g.add("b", inc("b"));
        g.connect(a, "out", b, "x").unwrap();
        g.connect(b, "out", a, "x").unwrap();
        assert_eq!(g.run(&HashMap::new()), Err(WorkflowError::Cycle));
    }

    #[test]
    fn stall_detected() {
        let mut g = WorkflowGraph::new();
        g.add("sum", add_activity()); // no inputs ever arrive
        assert!(matches!(g.run(&HashMap::new()), Err(WorkflowError::Stalled(_))));
    }

    #[test]
    fn activity_error_carries_node_name() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(1));
        let bad = g.add("bad", Compute::new(&["x"], |_| Err("broken".into())));
        g.connect(c, "out", bad, "x").unwrap();
        match g.run(&HashMap::new()) {
            Err(WorkflowError::Activity { node, .. }) => assert_eq!(node, "bad"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_seed_keys_rejected() {
        let g = WorkflowGraph::new();
        let mut inputs = HashMap::new();
        inputs.insert("ghost.x".to_string(), json!(1));
        assert!(matches!(g.run(&inputs), Err(WorkflowError::NoSuchNode(_))));
        let mut inputs = HashMap::new();
        inputs.insert("no-dot".to_string(), json!(1));
        assert!(g.run(&inputs).is_err());
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let mut g = WorkflowGraph::new();
        let mut adders = Vec::new();
        for i in 0..6 {
            let c1 = g.add(&format!("x{i}"), Const::new(i as i64));
            let c2 = g.add(&format!("y{i}"), Const::new(100));
            let s = g.add(&format!("s{i}"), add_activity());
            g.connect(c1, "out", s, "a").unwrap();
            g.connect(c2, "out", s, "b").unwrap();
            adders.push(s);
        }
        let seq = g.run(&HashMap::new()).unwrap();
        let pool = ThreadPool::new(3);
        let par = g.run_parallel(&pool, &HashMap::new()).unwrap();
        assert_eq!(seq, par);
        assert_eq!(par["s5.out"].as_i64(), Some(105));
    }

    #[test]
    fn run_honours_a_node_retry_policy() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(5));
        let calls = Arc::new(AtomicU32::new(0));
        let calls2 = calls.clone();
        let flaky = g.add(
            "flaky",
            Compute::new(&["x"], move |p| {
                if calls2.fetch_add(1, Ordering::SeqCst) < 2 {
                    Err("transient".into())
                } else {
                    Ok(p["x"].clone())
                }
            }),
        );
        g.connect(c, "out", flaky, "x").unwrap();
        g.set_policy(flaky, ResiliencePolicy::retries(2)).unwrap();
        let out = g.run(&HashMap::new()).unwrap();
        assert_eq!(out["flaky.out"].as_i64(), Some(5));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_compensates_completed_nodes_before_reporting_the_failure() {
        let mut g = WorkflowGraph::new();
        let c = g.add("c", Const::new(1));
        let bad = g.add("bad", Compute::new(&["x"], |_| Err("broken".into())));
        g.connect(c, "out", bad, "x").unwrap();
        let undone = Arc::new(AtomicU32::new(0));
        let undone2 = undone.clone();
        g.set_compensation(
            c,
            Compute::new(&[], move |_| {
                undone2.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            }),
        )
        .unwrap();
        match g.run(&HashMap::new()) {
            Err(WorkflowError::Activity { node, .. }) => assert_eq!(node, "bad"),
            other => panic!("{other:?}"),
        }
        assert_eq!(undone.load(Ordering::SeqCst), 1);
    }
}
