//! # soc-workflow — workflow-based software development
//!
//! The paper credits Microsoft VPL with "an important milestone in
//! service-oriented computing": an architecture-driven, service-oriented
//! language where students "develop services, deploy the services into a
//! repository, and then use the services in the repository to develop
//! workflow-based robotics applications". A CSE446 keynote calls
//! workflow development "the dream of generating executable directly
//! from the flowchart". This crate is that engine, three ways:
//!
//! - [`graph`] — the VPL model: a dataflow graph of typed
//!   [`activity::Activity`] blocks wired port-to-port, executed
//!   event-driven (a block fires when its inputs arrive), with
//!   validation (dangling ports, cycles) before execution.
//! - [`activity`] — the block vocabulary: constants, pure computations,
//!   conditionals, merges, and — crucially — [`activity::ServiceCall`],
//!   which invokes a REST service through any transport, making
//!   workflows *service compositions*.
//! - [`fsm`] — finite state machines (Figure 2 renders the two-distance
//!   maze algorithm as an FSM; `soc-robotics` runs it on this module).
//! - [`bpel`] — BPEL-style structured composition (sequence / flow /
//!   while / if / invoke / assign) over a shared variable scope — the
//!   "BPEL-based integration" project of CSE446.
//! - [`saga`] — the one executor every graph runs on: per-node
//!   [`saga::ResiliencePolicy`] (retries, backoff+jitter, timeouts,
//!   fallbacks) and saga compensation, reported as a structured
//!   [`saga::WorkflowOutcome`] by `run_saga` and as an error by `run`
//!   — the dependability unit (CSE445 unit 6) applied to the
//!   composition layer.

pub mod activity;
pub mod bpel;
pub mod fsm;
pub mod graph;
pub mod journal;
pub mod saga;

pub use activity::{Activity, ActivityError};
pub use fsm::{Fsm, FsmBuilder};
pub use graph::{WorkflowError, WorkflowGraph};
pub use journal::{Journal, ReplicatedJournal, SagaJournal, SagaRecord};
pub use saga::{ResiliencePolicy, SagaConfig, WorkflowOutcome};
