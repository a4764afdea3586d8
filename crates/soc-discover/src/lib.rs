//! # soc-discover — crawl the federation, search it, compose from it
//!
//! The missing front half of the service-oriented story: everything
//! else in the stack assumes somebody already knows which service to
//! call. This crate is the somebody. It reproduces the paper's
//! discovery/brokerage layer (Section V's registry–broker–consumer
//! triangle) as three cooperating subsystems:
//!
//! - **[`crawler`]** — walks federated [`soc_registry`] directories
//!   through a [`Gateway`], following
//!   `/directory/peers` referrals (cycles included), fetching each
//!   service's WSDL and parsing it into typed operation signatures.
//!   Lease versions make re-crawls incremental; the gateway makes
//!   crawling resilient and traced.
//! - **[`index`]** — an inverted index over everything crawled, ranked
//!   by `relevance × live QoS`: recent p95 and error rate from the
//!   gateway's monitor, and outlier-ejection state, demote services
//!   that look good on paper but are bad on the wire.
//! - **[`planner`] / [`check`](mod@check) / [`execute`]** — goal-directed
//!   composition: `have {ssn, amount, income} → want {approved}`
//!   backward-chains through discovered signatures into a [`Plan`],
//!   which an independent static checker verifies (typed wiring, goal
//!   coverage, acyclicity) before it is lowered onto
//!   [`soc_workflow`]'s saga executor with deadline-derived resilience
//!   policies.
//!
//! [`Discovery`] ties the loop together, including *re-planning*: when
//! a saga fails mid-composition (a partitioned or ejected replica), the
//! failed node's service is denylisted and the goal is planned again —
//! the trace shows each attempt as a `discover.plan` span over the
//! `workflow.run` it launched.
//!
//! ```no_run
//! use soc_discover::{demo, CrawlConfig, Discovery, Goal};
//! use soc_http::mem::{MemNetwork, UniClient};
//! use soc_json::Value;
//! use soc_soap::XsdType;
//! use std::collections::HashMap;
//! use std::sync::Arc;
//!
//! let net = MemNetwork::new();
//! let federation = demo::host_mem(&net);
//! let mut discovery = Discovery::new(
//!     Arc::new(UniClient::new(net)),
//!     soc_gateway::GatewayConfig::default(),
//!     CrawlConfig::default(),
//! );
//! let roots: Vec<&str> = federation.roots.iter().map(String::as_str).collect();
//! discovery.crawl(&roots);
//!
//! let goal = Goal::new()
//!     .have("ssn", XsdType::String)
//!     .have("amount", XsdType::Int)
//!     .have("income", XsdType::Int)
//!     .want("approved", XsdType::Boolean);
//! let inputs = HashMap::from([
//!     ("ssn".to_string(), Value::from("123-45-6789")),
//!     ("amount".to_string(), Value::from(25_000)),
//!     ("income".to_string(), Value::from(90_000)),
//! ]);
//! let achieved = discovery.achieve(&goal, &inputs, &Default::default()).unwrap();
//! assert_eq!(achieved.outputs["approved"].as_bool(), Some(true));
//! ```

pub mod catalog;
pub mod check;
pub mod crawler;
pub mod demo;
pub mod execute;
pub mod index;
pub mod planner;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use soc_gateway::{Gateway, GatewayConfig};
use soc_http::mem::Transport;
use soc_json::Value;
use soc_observe::SpanKind;
use soc_workflow::{SagaConfig, WorkflowError, WorkflowOutcome};

pub use catalog::{Catalog, DiscoveredService, TypedOperation};
pub use check::{check, verify, Violation};
pub use crawler::{CrawlConfig, CrawlStats, Crawler};
pub use execute::{lower, GatewayTransport, LowerError, LoweredPlan, OperationCall};
pub use index::{GatewayQos, NoQos, QosFeed, QosSnapshot, SearchHit, SearchIndex};
pub use planner::{Goal, Plan, PlanError, PlanNode, Planner, Wire, WireSource};

/// Tuning for [`Discovery::achieve`].
#[derive(Debug, Clone)]
pub struct AchieveConfig {
    /// How many times a failed composition may be re-planned before
    /// giving up (each re-plan denylists the failed service).
    pub max_replans: usize,
    /// Saga backoff seed; attempt index is folded in so re-plans do
    /// not replay the exact jitter schedule.
    pub seed: u64,
}

impl Default for AchieveConfig {
    fn default() -> Self {
        AchieveConfig { max_replans: 2, seed: 0xD15C }
    }
}

/// A goal achieved: the values, and how we got there.
#[derive(Debug)]
pub struct Achievement {
    /// The wanted outputs, keyed by goal name.
    pub outputs: HashMap<String, Value>,
    /// The plan that finally succeeded.
    pub plan: Plan,
    /// Services denylisted along the way (one per re-plan), in order.
    pub replanned: Vec<String>,
    /// Total planning attempts (1 = no re-plan was needed).
    pub attempts: usize,
}

/// Why [`Discovery`] could not deliver a goal.
#[derive(Debug)]
pub enum DiscoverError {
    /// Planning failed outright.
    Plan(PlanError),
    /// The planner emitted a plan the static checker rejected — a
    /// planner bug, surfaced rather than executed.
    Rejected(Vec<Violation>),
    /// Lowering to a workflow failed (e.g. a goal input was missing).
    Lower(LowerError),
    /// The workflow engine rejected the graph structurally.
    Workflow(WorkflowError),
    /// Every planning attempt executed and failed.
    Exhausted {
        /// Attempts made (initial plan + re-plans).
        attempts: usize,
        /// The last failure, as `node: error`.
        last: String,
    },
}

impl fmt::Display for DiscoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscoverError::Plan(e) => write!(f, "planning failed: {e}"),
            DiscoverError::Rejected(vs) => {
                write!(f, "static checker rejected the plan: ")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            DiscoverError::Lower(e) => write!(f, "{e}"),
            DiscoverError::Workflow(e) => write!(f, "workflow rejected the plan: {e}"),
            DiscoverError::Exhausted { attempts, last } => {
                write!(f, "goal not achieved after {attempts} attempt(s); last failure: {last}")
            }
        }
    }
}

/// The discovery loop in one object: crawl → index → search → plan →
/// verify → execute (→ re-plan).
pub struct Discovery {
    gateway: Gateway,
    crawler: Crawler,
    catalog: Catalog,
    index: SearchIndex,
}

impl Discovery {
    /// A discovery stack over its own [`Gateway`] on `transport`.
    pub fn new(transport: Arc<dyn Transport>, config: GatewayConfig, crawl: CrawlConfig) -> Self {
        Self::with_gateway(Gateway::new(transport, config), crawl)
    }

    /// A discovery stack sharing an existing gateway (and therefore
    /// its breakers, monitor, and ejection state).
    pub fn with_gateway(gateway: Gateway, crawl: CrawlConfig) -> Self {
        let catalog = Catalog::new();
        let index = SearchIndex::build(&catalog);
        Discovery { crawler: Crawler::new(gateway.clone(), crawl), gateway, catalog, index }
    }

    /// Crawl from `roots`, then rebuild the search index over the
    /// merged catalog. Incremental: unchanged directories are skipped.
    pub fn crawl(&mut self, roots: &[&str]) -> CrawlStats {
        let stats = self.crawler.crawl(roots, &mut self.catalog);
        self.index = SearchIndex::build(&self.catalog);
        stats
    }

    /// The merged catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The current search index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// The gateway all discovery traffic flows through.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Free-text search ranked by relevance × live gateway QoS.
    pub fn search(&self, query: &str, limit: usize) -> Vec<SearchHit> {
        self.index.search(query, &GatewayQos::new(self.gateway.clone()), limit)
    }

    /// Plan `goal` against the current index (and verify the plan),
    /// without executing it.
    pub fn plan(&self, goal: &Goal) -> Result<Plan, DiscoverError> {
        let qos = GatewayQos::new(self.gateway.clone());
        let plan = Planner::new(&self.index, &qos).plan(goal).map_err(DiscoverError::Plan)?;
        verify(&plan, goal).map_err(DiscoverError::Rejected)?;
        Ok(plan)
    }

    /// Plan, verify, and execute `goal` as a saga through the gateway,
    /// re-planning around failed services up to
    /// [`AchieveConfig::max_replans`] times.
    pub fn achieve(
        &self,
        goal: &Goal,
        inputs: &HashMap<String, Value>,
        config: &AchieveConfig,
    ) -> Result<Achievement, DiscoverError> {
        let qos = GatewayQos::new(self.gateway.clone());
        let mut denied: Vec<String> = Vec::new();
        for attempt in 0..=config.max_replans {
            // One span per attempt: the trace reads
            // `discover.plan → workflow.run → gateway.request`.
            let mut plan_span = soc_observe::span("discover.plan", SpanKind::Internal);
            plan_span.set_attr("attempt", attempt + 1);
            let _active = plan_span.activate();

            let mut planner = Planner::new(&self.index, &qos);
            for service in &denied {
                planner.deny(service);
            }
            let plan = match planner.plan(goal) {
                Ok(p) => p,
                Err(e) => {
                    plan_span.set_error(e.to_string());
                    return match denied.last() {
                        // Nothing failed yet: the goal is simply not
                        // plannable from this catalog.
                        None => Err(DiscoverError::Plan(e)),
                        Some(_) => Err(DiscoverError::Exhausted {
                            attempts: attempt + 1,
                            last: format!("no alternative plan: {e}"),
                        }),
                    };
                }
            };
            verify(&plan, goal).map_err(DiscoverError::Rejected)?;
            plan_span.set_attr("nodes", plan.nodes.len());

            let lowered =
                lower(&plan, goal, &self.gateway, inputs).map_err(DiscoverError::Lower)?;
            let saga = SagaConfig {
                deadline: goal.deadline,
                seed: config.seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let outcome =
                lowered.graph.run_saga(&HashMap::new(), &saga).map_err(DiscoverError::Workflow)?;
            match outcome {
                WorkflowOutcome::Completed(values) => {
                    let mut outputs = HashMap::new();
                    for (name, key) in &lowered.node_outputs {
                        if let Some(v) = values.get(key) {
                            outputs.insert(name.clone(), v.clone());
                        }
                    }
                    for (name, v) in lowered.direct_outputs {
                        outputs.insert(name, v);
                    }
                    return Ok(Achievement {
                        outputs,
                        plan,
                        replanned: denied,
                        attempts: attempt + 1,
                    });
                }
                WorkflowOutcome::Compensated { failed_at, error, .. } => {
                    plan_span.set_error(format!("{failed_at}: {error}"));
                    let culprit = lowered.node_services.get(&failed_at).cloned();
                    match culprit {
                        Some(service) if attempt < config.max_replans => {
                            soc_observe::metrics().counter("soc_discover_replans_total", &[]).inc();
                            denied.push(service);
                        }
                        _ => {
                            return Err(DiscoverError::Exhausted {
                                attempts: attempt + 1,
                                last: format!("{failed_at}: {error}"),
                            })
                        }
                    }
                }
            }
        }
        unreachable!("loop returns on success, terminal error, or exhausted re-plans")
    }
}
