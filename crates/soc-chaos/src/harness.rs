//! The chaos driver: the full stack under a seeded fault schedule.
//!
//! [`run_mem_chaos`] stands up replicated mortgage services (sharing
//! one [`SubmissionLedger`] like replicas share a database), a notify
//! service with its own ledger, a flaky finalize step, and a QoS-aware
//! gateway — then drives the mortgage **saga** through it many times
//! while the `MemNetwork` injects seeded probabilistic faults
//! (pre-handler failures, lost responses, corruption, truncation,
//! partitions). [`run_tcp_chaos`] is the same story over real sockets,
//! with a [`crate::FaultProxy`] doing the damage on the wire.
//!
//! Both return a [`ChaosReport`] whose [`ChaosReport::violations`]
//! checks the invariants that define correctness under faults:
//!
//! 1. every run resolves within its deadline — completed or cleanly
//!    compensated, never hung;
//! 2. **zero duplicated applications**: no logical submission executed
//!    twice service-side, no matter how many retries/hedges/replays the
//!    fault schedule provoked (`max_executions_per_content == 1`);
//! 3. compensations exactly balance completed steps: every compensated
//!    run's compensators ran in reverse topological order exactly once
//!    each, cancels never target unknown ids, and completed runs keep
//!    their application open;
//! 4. the gateway's breakers recover once faults clear.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use soc_gateway::{BreakerState, Gateway, GatewayConfig};
use soc_http::mem::{MemNetwork, Transport, CLIENT_ORIGIN};
use soc_http::{FaultConfig, FaultRng, FaultWindow, Request, Response};
use soc_json::{json, Value};
use soc_services::bindings::ServiceHost;
use soc_services::ledger::SubmissionLedger;
use soc_workflow::activity::{Activity, ActivityError, Const, Ports, ServiceCall};
use soc_workflow::graph::WorkflowGraph;
use soc_workflow::{ResiliencePolicy, SagaConfig, WorkflowOutcome};

use crate::proxy::{FaultProxy, ProxyFaults};

/// One chaos campaign's knobs. Everything is derived from `seed`, so a
/// `(seed, config)` pair replays the identical schedule.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: service faults, gateway jitter, and saga backoff
    /// all derive from it.
    pub seed: u64,
    /// Workflow runs to drive through the stack.
    pub runs: usize,
    /// Mortgage service replicas behind the gateway.
    pub replicas: usize,
    /// Overall fault budget: the per-request probability mass split
    /// across fail/reset/corrupt/truncate on each replica.
    pub fault_pct: f64,
    /// Probability that the finalize step fails one attempt (drives
    /// compensation on some seeds).
    pub finalize_fail_prob: f64,
    /// Take finalize fully down: every run compensates.
    pub finalize_offline: bool,
    /// Partition the client from replica 0 for the first half of the
    /// campaign (MemNetwork harness only).
    pub partition: bool,
    /// Per-run saga deadline.
    pub deadline: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            runs: 24,
            replicas: 3,
            fault_pct: 0.2,
            finalize_fail_prob: 0.15,
            finalize_offline: false,
            partition: true,
            deadline: Duration::from_secs(5),
        }
    }
}

/// How one saga run through the stack ended.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Run index within the campaign.
    pub run: usize,
    /// Forward path finished; the application stays open.
    pub completed: bool,
    /// Compensated with every compensator succeeding.
    pub clean_compensation: bool,
    /// Node whose failure triggered compensation.
    pub failed_at: Option<String>,
    /// Compensators that ran, in execution order.
    pub compensated: Vec<String>,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

/// Aggregate result of one chaos campaign. See the module docs for the
/// invariants [`ChaosReport::violations`] checks.
#[derive(Debug)]
pub struct ChaosReport {
    /// The campaign's master seed.
    pub seed: u64,
    /// Per-run outcomes.
    pub outcomes: Vec<RunOutcome>,
    /// Per-run deadline plus slack for compensation.
    pub run_budget: Duration,
    /// Worst duplication factor across logical applications
    /// (invariant: ≤ 1).
    pub max_app_executions_per_content: u64,
    /// Applications executed and not cancelled (invariant: one per
    /// completed run).
    pub open_applications: u64,
    /// Cancels addressed at unknown application ids (invariant: 0).
    pub orphan_cancels: u64,
    /// Replays served from the application ledger's cache — evidence
    /// the idempotency plane actually absorbed retries.
    pub deduped_replays: u64,
    /// Notifications executed and not cancelled.
    pub open_notifications: u64,
    /// Cancels addressed at unknown notification receipts.
    pub notify_orphan_cancels: u64,
    /// Submissions that arrived without an idempotency key
    /// (invariant: 0 — every workflow POST carries one).
    pub keyless_submissions: u64,
    /// Application ids of completed runs.
    pub completed_app_ids: Vec<String>,
    /// Application ids the ledger saw cancelled.
    pub cancelled_app_ids: Vec<String>,
    /// Did every breaker close again after faults cleared?
    pub breakers_recovered: bool,
    /// Whole-campaign wall-clock time.
    pub elapsed: Duration,
}

impl ChaosReport {
    /// Runs that completed.
    pub fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.completed).count()
    }

    /// Runs that compensated cleanly.
    pub fn compensated_clean(&self) -> usize {
        self.outcomes.iter().filter(|o| o.clean_compensation).count()
    }

    /// Fraction of runs that were client-visibly fine: completed or
    /// cleanly compensated.
    pub fn success_or_clean(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        (self.completed() + self.compensated_clean()) as f64 / self.outcomes.len() as f64
    }

    /// Every invariant violation found, as human-readable strings; an
    /// empty vec means the campaign upheld all of them.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.max_app_executions_per_content > 1 {
            v.push(format!(
                "duplicated application: a logical submission executed {} times",
                self.max_app_executions_per_content
            ));
        }
        if self.orphan_cancels > 0 {
            v.push(format!("{} cancels targeted unknown application ids", self.orphan_cancels));
        }
        if self.notify_orphan_cancels > 0 {
            v.push(format!(
                "{} cancels targeted unknown notification receipts",
                self.notify_orphan_cancels
            ));
        }
        if self.keyless_submissions > 0 {
            v.push(format!(
                "{} submissions reached the service without an idempotency key",
                self.keyless_submissions
            ));
        }
        // Completed runs keep their application open; compensated runs
        // must not.
        if self.open_applications != self.completed() as u64 {
            v.push(format!(
                "open applications ({}) != completed runs ({}): compensation does not \
                 balance completed submissions",
                self.open_applications,
                self.completed()
            ));
        }
        for id in &self.completed_app_ids {
            if self.cancelled_app_ids.contains(id) {
                v.push(format!("completed run's application {id} was cancelled"));
            }
        }
        for o in &self.outcomes {
            if o.elapsed > self.run_budget {
                v.push(format!(
                    "run {} blew its budget: {:?} > {:?}",
                    o.run, o.elapsed, self.run_budget
                ));
            }
            // Compensators run in reverse topological order, exactly
            // once each: in the mortgage saga that means `notify`
            // (when it completed) strictly before `apply`.
            let mut seen = std::collections::HashSet::new();
            for c in &o.compensated {
                if !seen.insert(c.clone()) {
                    v.push(format!("run {}: compensator {c:?} ran twice", o.run));
                }
            }
            let pos = |name: &str| o.compensated.iter().position(|c| c == name);
            if let (Some(n), Some(a)) = (pos("notify"), pos("apply")) {
                if n > a {
                    v.push(format!(
                        "run {}: compensators out of order (apply before notify): {:?}",
                        o.run, o.compensated
                    ));
                }
            }
            if o.completed && !o.compensated.is_empty() {
                v.push(format!("run {}: completed yet compensated {:?}", o.run, o.compensated));
            }
        }
        if !self.breakers_recovered {
            v.push("gateway breakers did not close after faults cleared".into());
        }
        v
    }

    /// One line for sweep output.
    pub fn summary(&self) -> String {
        format!(
            "seed {:#x}: {} runs, {} completed, {} compensated clean, {:.1}% ok, \
             {} deduped replays, {} open apps, breakers_recovered={}, {:?}",
            self.seed,
            self.outcomes.len(),
            self.completed(),
            self.compensated_clean(),
            self.success_or_clean() * 100.0,
            self.deduped_replays,
            self.open_applications,
            self.breakers_recovered,
            self.elapsed,
        )
    }
}

/// A compensator: POSTs `{id_field: <id>}` to `path` on each base URL
/// in turn until one answers, retrying through injected faults —
/// compensation must land even on a misbehaving network. The id is
/// read from the forward activity's `out` port (its parsed response),
/// which is exactly what the saga engine hands a compensator.
///
/// With [`CancelCall::with_reservation`] it can also compensate a
/// forward step that *failed without yielding an id*: a lost-response
/// attempt may still have landed server-side, so the compensator
/// recomputes the idempotency key the forward block chose up front
/// (key == application id) and cancels *by reservation* — the service
/// tombstones the key if nothing has landed yet, refusing any
/// straggling retry that arrives later.
pub struct CancelCall {
    transport: Arc<dyn Transport>,
    bases: Vec<String>,
    path: String,
    id_field: String,
    log: Arc<Mutex<Vec<String>>>,
    node: &'static str,
    reservation: Option<(ServiceCall, String)>,
}

impl CancelCall {
    /// Build a compensator for `node`, cancelling at `bases`/`path` by
    /// `id_field`, appending `"cancel:{node}:{id}"` to `log`.
    pub fn new(
        transport: Arc<dyn Transport>,
        bases: Vec<String>,
        path: &str,
        id_field: &str,
        log: Arc<Mutex<Vec<String>>>,
        node: &'static str,
    ) -> Self {
        CancelCall {
            transport,
            bases,
            path: path.to_string(),
            id_field: id_field.to_string(),
            log,
            node,
            reservation: None,
        }
    }

    /// Enable reservation cancels: when the forward output carries no
    /// id (the step failed), derive the id from `forward`'s idempotency
    /// key in the current trace and POST it to `path` instead of the
    /// normal cancel route. `forward` must be a clone of the exact
    /// block wired into the graph — the key is per block instance.
    pub fn with_reservation(mut self, forward: ServiceCall, path: &str) -> Self {
        self.reservation = Some((forward, path.to_string()));
        self
    }
}

impl Activity for CancelCall {
    fn inputs(&self) -> Vec<String> {
        vec!["out".into()]
    }
    fn outputs(&self) -> Vec<String> {
        vec!["out".into()]
    }
    fn execute(&self, inputs: &Ports) -> Result<Ports, ActivityError> {
        let forward_id = inputs
            .get("out")
            .and_then(|v| v.get(&self.id_field))
            .and_then(Value::as_str)
            .map(str::to_string);
        let (id, path) = match forward_id {
            Some(id) => (id, self.path.as_str()),
            None => {
                // The forward step failed before the saga ever learned
                // an id — but one of its lost-response attempts may
                // have landed. Its idempotency key is the application
                // id, and it is recomputable: the compensator runs in a
                // child span of the same trace the forward attempts
                // used.
                let Some((forward, reservation_path)) = &self.reservation else {
                    return Err(ActivityError::Failed(format!(
                        "no {:?} in forward output",
                        self.id_field
                    )));
                };
                let Some(ctx) = soc_observe::context::current() else {
                    return Err(ActivityError::Failed(format!(
                        "no {:?} in forward output and no trace to derive the reservation key",
                        self.id_field
                    )));
                };
                (forward.idempotency_key_in(&ctx), reservation_path.as_str())
            }
        };
        let body = {
            let mut b = Value::Object(vec![]);
            b.set(self.id_field.clone(), id.as_str());
            b.to_compact()
        };
        // Cancelling is idempotent service-side, so spraying retries
        // across replicas is safe; 4 rounds over every base drives the
        // residual failure probability to negligible.
        let mut last = String::new();
        for round in 0..4 {
            for base in &self.bases {
                let req = Request::post(format!("{base}/{path}"), Vec::new())
                    .with_text("application/json", &body);
                match self.transport.send(req) {
                    Ok(resp) if resp.status.is_success() => {
                        self.log.lock().push(format!("cancel:{}:{id}", self.node));
                        return Ok(HashMap::from([("out".to_string(), Value::from(id.as_str()))]));
                    }
                    Ok(resp) => last = format!("status {}", resp.status),
                    Err(e) => last = e.to_string(),
                }
            }
            std::thread::sleep(Duration::from_millis(1 << round));
        }
        Err(ActivityError::Service(format!("cancel {} failed: {last}", self.node)))
    }
}

/// The notify service: records a notification per idempotency key in
/// its own ledger (replays dedupe) and supports cancellation by the
/// receipt it returned.
fn notify_handler(ledger: Arc<SubmissionLedger>) -> impl Fn(Request) -> Response {
    move |req: Request| {
        let body = req.text().unwrap_or_default().to_string();
        match req.path() {
            "/notify" => {
                let Some(key) = req.idempotency_key().map(str::to_string) else {
                    return Response::error(
                        soc_http::Status(422),
                        "notify requires an Idempotency-Key",
                    );
                };
                // Echo the application id through so downstream steps
                // (and the harness) can correlate.
                let app_id = Value::parse(&body)
                    .ok()
                    .and_then(|v| {
                        v.get("application_id").and_then(Value::as_str).map(str::to_string)
                    })
                    .unwrap_or_default();
                let k = key.clone();
                let (resp, _) = ledger.apply(&key, &body, move || {
                    json!({ "notified": true, "receipt": (k.as_str()), "application_id": (app_id.as_str()) })
                        .to_compact()
                });
                Response::json(&resp)
            }
            "/notify/cancel" => match Value::parse(&body)
                .ok()
                .and_then(|v| v.get("receipt").and_then(Value::as_str).map(str::to_string))
            {
                Some(receipt) => {
                    let known = ledger.cancel(&receipt);
                    Response::json(&json!({ "cancelled": known }).to_compact())
                }
                None => Response::error(soc_http::Status(422), "missing receipt"),
            },
            // Cancel by the idempotency key (== receipt) chosen before
            // the notification was sent; tombstones an unseen key so a
            // straggling retry is refused.
            "/notify/cancel-reservation" => match Value::parse(&body)
                .ok()
                .and_then(|v| v.get("receipt").and_then(Value::as_str).map(str::to_string))
            {
                Some(receipt) => {
                    let landed = ledger.cancel_reservation(&receipt);
                    Response::json(&json!({ "cancelled": landed }).to_compact())
                }
                None => Response::error(soc_http::Status(422), "missing receipt"),
            },
            _ => Response::error(soc_http::Status(404), "no such route"),
        }
    }
}

/// The finalize service: echoes its body, failing one attempt with the
/// seeded probability (or always, when `offline`) — the flaky last
/// step that drives some seeds into compensation.
fn finalize_handler(seed: u64, fail_prob: f64, offline: bool) -> impl Fn(Request) -> Response {
    let rng = Mutex::new(FaultRng::new(seed ^ 0xF1A71));
    move |req: Request| {
        if offline || rng.lock().chance(fail_prob) {
            return Response::error(soc_http::Status(503), "finalize unavailable (injected)");
        }
        Response::json(req.text().unwrap_or("{}"))
    }
}

/// The split of the overall fault budget across fault kinds on each
/// replica (fixed proportions so `fault_pct` is the one knob).
fn replica_faults(cfg: &ChaosConfig, replica: usize) -> FaultConfig {
    let f = cfg.fault_pct;
    let mut fault = FaultConfig::seeded(cfg.seed ^ ((replica as u64 + 1) * 0x9E37))
        .with_fail(0.40 * f)
        .with_reset(0.25 * f)
        .with_corrupt(0.20 * f)
        .with_truncate(0.15 * f);
    // One replica misbehaves in bursts rather than uniformly.
    if replica == cfg.replicas.saturating_sub(1) {
        fault = fault.with_window(FaultWindow { period: 10, faulty: 4, offset: 3 });
    }
    fault
}

/// Build the per-run mortgage saga graph.
#[allow(clippy::too_many_arguments)]
fn build_saga(
    run: usize,
    cfg: &ChaosConfig,
    gw: &Gateway,
    transport: &Arc<dyn Transport>,
    mortgage_bases: &[String],
    notify_base: &str,
    finalize_base: &str,
    log: &Arc<Mutex<Vec<String>>>,
) -> WorkflowGraph {
    let mut g = WorkflowGraph::new();
    // Distinct content per run so the ledger audits each logical
    // application separately.
    let app = g.add(
        "application",
        Const::new(json!({
            "name": (format!("chaos-{:x}-{run}", cfg.seed)),
            "ssn": "123-45-6789",
            "annual_income": 120000,
            "loan_amount": (250_000 + run as i64),
            "term_years": 30
        })),
    );
    // Keep clones of the forward blocks: their idempotency keys double
    // as server-side ids, so each compensator can cancel-by-reservation
    // when the forward step fails without ever yielding an id.
    let apply_call = ServiceCall::post_via_gateway(gw.clone(), "mortgage", "mortgage/apply");
    let notify_call = ServiceCall::post(transport.clone(), &format!("{notify_base}/notify"));
    let apply = g.add("apply", apply_call.clone());
    let notify = g.add("notify", notify_call.clone());
    let finalize = g.add(
        "finalize",
        ServiceCall::post(transport.clone(), &format!("{finalize_base}/finalize")),
    );
    g.connect(app, "out", apply, "body").unwrap();
    g.connect(apply, "out", notify, "body").unwrap();
    g.connect(notify, "out", finalize, "body").unwrap();

    g.set_policy(
        apply,
        ResiliencePolicy::retries(4)
            .with_timeout(Duration::from_millis(500))
            .with_backoff(Duration::from_micros(500), Duration::from_millis(8)),
    )
    .unwrap();
    g.set_policy(
        notify,
        ResiliencePolicy::retries(4)
            .with_backoff(Duration::from_micros(500), Duration::from_millis(8)),
    )
    .unwrap();
    g.set_policy(
        finalize,
        ResiliencePolicy::retries(2)
            .with_backoff(Duration::from_micros(500), Duration::from_millis(4)),
    )
    .unwrap();

    g.set_compensation(
        apply,
        CancelCall::new(
            transport.clone(),
            mortgage_bases.to_vec(),
            "mortgage/cancel",
            "application_id",
            log.clone(),
            "apply",
        )
        .with_reservation(apply_call, "mortgage/cancel-reservation"),
    )
    .unwrap();
    g.set_compensation(
        notify,
        CancelCall::new(
            transport.clone(),
            vec![notify_base.to_string()],
            "notify/cancel",
            "receipt",
            log.clone(),
            "notify",
        )
        .with_reservation(notify_call, "notify/cancel-reservation"),
    )
    .unwrap();
    g
}

/// Shared post-campaign bookkeeping: drive the saga runs, then fill the
/// report from the ledgers.
#[allow(clippy::too_many_arguments)]
fn drive_runs(
    cfg: &ChaosConfig,
    gw: &Gateway,
    transport: &Arc<dyn Transport>,
    mortgage_bases: &[String],
    notify_base: &str,
    finalize_base: &str,
    log: &Arc<Mutex<Vec<String>>>,
    mut mid_campaign: impl FnMut(usize),
) -> Vec<(RunOutcome, Option<String>)> {
    let mut results = Vec::with_capacity(cfg.runs);
    for run in 0..cfg.runs {
        mid_campaign(run);
        let graph =
            build_saga(run, cfg, gw, transport, mortgage_bases, notify_base, finalize_base, log);
        let saga = SagaConfig {
            deadline: cfg.deadline,
            seed: cfg.seed ^ (run as u64 + 1).wrapping_mul(0xD00D),
        };
        let start = Instant::now();
        let outcome = graph.run_saga(&HashMap::new(), &saga);
        let elapsed = start.elapsed();
        let (outcome_rec, app_id) = match outcome {
            Ok(WorkflowOutcome::Completed(outputs)) => {
                // finalize echoes its body, so the application id of a
                // completed run is visible on the unconnected output.
                let app_id = outputs
                    .get("finalize.out")
                    .and_then(|v| v.get("application_id"))
                    .and_then(Value::as_str)
                    .map(str::to_string);
                (
                    RunOutcome {
                        run,
                        completed: true,
                        clean_compensation: false,
                        failed_at: None,
                        compensated: Vec::new(),
                        elapsed,
                    },
                    app_id,
                )
            }
            Ok(WorkflowOutcome::Compensated {
                failed_at,
                compensated,
                compensation_errors,
                ..
            }) => (
                RunOutcome {
                    run,
                    completed: false,
                    clean_compensation: compensation_errors.is_empty(),
                    failed_at: Some(failed_at),
                    compensated,
                    elapsed,
                },
                None,
            ),
            Err(e) => (
                RunOutcome {
                    run,
                    completed: false,
                    clean_compensation: false,
                    failed_at: Some(format!("structural: {e}")),
                    compensated: Vec::new(),
                    elapsed,
                },
                None,
            ),
        };
        results.push((outcome_rec, app_id));
    }
    results
}

/// Probe until every known breaker is closed and a clean call round
/// trips, or `timeout` passes. The default breaker cool-down is 1 s, so
/// recovery needs real time.
fn breakers_recover(gw: &Gateway, endpoints: &[String], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        let probe = gw.call("mortgage", Request::get("health"));
        let all_closed = endpoints
            .iter()
            .all(|e| matches!(gw.breaker_state(e), None | Some(BreakerState::Closed)));
        if probe.status.is_success() && all_closed {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn fill_report(
    cfg: &ChaosConfig,
    results: Vec<(RunOutcome, Option<String>)>,
    app_ledger: &SubmissionLedger,
    notify_ledger: &SubmissionLedger,
    breakers_recovered: bool,
    elapsed: Duration,
) -> ChaosReport {
    let completed_app_ids = results.iter().filter_map(|(_, id)| id.clone()).collect::<Vec<_>>();
    ChaosReport {
        seed: cfg.seed,
        outcomes: results.into_iter().map(|(o, _)| o).collect(),
        // Slack on top of the forward deadline: compensation, and an
        // attempt judged timed out only when it returns, legitimately
        // run past it.
        run_budget: cfg.deadline + Duration::from_secs(5),
        max_app_executions_per_content: app_ledger.max_executions_per_content(),
        open_applications: app_ledger.open_applications(),
        orphan_cancels: app_ledger.orphan_cancels(),
        deduped_replays: app_ledger.total_deduped(),
        open_notifications: notify_ledger.open_applications(),
        notify_orphan_cancels: notify_ledger.orphan_cancels(),
        keyless_submissions: app_ledger.keyless_submissions(),
        completed_app_ids,
        cancelled_app_ids: app_ledger.cancelled_keys(),
        breakers_recovered,
        elapsed,
    }
}

/// Run one chaos campaign over the in-memory network. Deterministic
/// per `(seed, config)` up to wall-clock timing: gateway hedges and
/// saga attempt timeouts read real time.
pub fn run_mem_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let started = Instant::now();
    let net = MemNetwork::new();
    let app_ledger = Arc::new(SubmissionLedger::new());
    let notify_ledger = Arc::new(SubmissionLedger::new());

    let mut mortgage_bases = Vec::new();
    let mut replica_hosts = Vec::new();
    for r in 0..cfg.replicas.max(1) {
        let host = format!("mortgage{r}.asu");
        net.host(&host, ServiceHost::with_ledger(cfg.seed ^ r as u64, app_ledger.clone()));
        net.set_fault(&host, replica_faults(cfg, r));
        mortgage_bases.push(format!("mem://{host}"));
        replica_hosts.push(host);
    }
    net.host("notify.asu", notify_handler(notify_ledger.clone()));
    net.set_fault(
        "notify.asu",
        FaultConfig::seeded(cfg.seed ^ 0x0F)
            .with_fail(0.3 * cfg.fault_pct)
            .with_reset(0.2 * cfg.fault_pct),
    );
    net.host(
        "finalize.asu",
        finalize_handler(cfg.seed, cfg.finalize_fail_prob, cfg.finalize_offline),
    );

    let transport: Arc<dyn Transport> = Arc::new(net.clone());
    let gw = Gateway::new(
        transport.clone(),
        GatewayConfig {
            seed: cfg.seed,
            max_retries: 4,
            base_backoff: Duration::from_micros(300),
            max_backoff: Duration::from_millis(5),
            request_deadline: Duration::from_secs(2),
            ..GatewayConfig::default()
        },
    );
    let endpoints: Vec<String> = mortgage_bases.clone();
    gw.register("mortgage", &endpoints.iter().map(String::as_str).collect::<Vec<_>>());

    if cfg.partition {
        net.partition(CLIENT_ORIGIN, &replica_hosts[0]);
    }
    let halfway = cfg.runs / 2;
    let net2 = net.clone();
    let heal_host = replica_hosts[0].clone();
    let log = Arc::new(Mutex::new(Vec::new()));
    let results = drive_runs(
        cfg,
        &gw,
        &transport,
        &mortgage_bases,
        "mem://notify.asu",
        "mem://finalize.asu",
        &log,
        move |run| {
            if cfg.partition && run == halfway {
                net2.heal(CLIENT_ORIGIN, &heal_host);
            }
        },
    );

    // Faults clear; the breakers must find their way back to closed.
    for host in &replica_hosts {
        net.set_fault(host, FaultConfig::seeded(cfg.seed));
    }
    net.set_fault("notify.asu", FaultConfig::seeded(cfg.seed));
    net.heal_all();
    let breakers_recovered = breakers_recover(&gw, &endpoints, Duration::from_secs(8));

    fill_report(cfg, results, &app_ledger, &notify_ledger, breakers_recovered, started.elapsed())
}

/// Run one chaos campaign over real TCP sockets: each mortgage replica
/// is an [`soc_http::HttpServer`] fronted by a [`FaultProxy`] injecting
/// delay/reset/truncation on the wire. Returns the report plus the
/// proxies' open-tunnel counts after shutdown (leak check).
pub fn run_tcp_chaos(cfg: &ChaosConfig) -> (ChaosReport, Vec<i64>) {
    use soc_http::{HttpClient, HttpServer};

    let started = Instant::now();
    let app_ledger = Arc::new(SubmissionLedger::new());
    let notify_ledger = Arc::new(SubmissionLedger::new());

    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    let mut proxied_urls = Vec::new();
    let mut direct_urls = Vec::new();
    for r in 0..cfg.replicas.max(1) {
        let server = HttpServer::bind(
            "127.0.0.1:0",
            4,
            ServiceHost::with_ledger(cfg.seed ^ r as u64, app_ledger.clone()),
        )
        .expect("bind replica");
        let f = cfg.fault_pct;
        let proxy = FaultProxy::bind(
            server.addr(),
            ProxyFaults::seeded(cfg.seed ^ ((r as u64 + 1) * 0x515))
                .with_delay(0.2 * f, Duration::from_millis(20))
                .with_reset(0.4 * f)
                .with_truncate(0.4 * f),
        )
        .expect("bind proxy");
        proxied_urls.push(proxy.url());
        direct_urls.push(server.url());
        servers.push(server);
        proxies.push(proxy);
    }
    let notify_srv = HttpServer::bind("127.0.0.1:0", 4, notify_handler(notify_ledger.clone()))
        .expect("bind notify");
    let finalize_srv = HttpServer::bind(
        "127.0.0.1:0",
        4,
        finalize_handler(cfg.seed, cfg.finalize_fail_prob, cfg.finalize_offline),
    )
    .expect("bind finalize");

    let transport: Arc<dyn Transport> = Arc::new(HttpClient::new());
    let gw = Gateway::new(
        transport.clone(),
        GatewayConfig {
            seed: cfg.seed,
            max_retries: 4,
            base_backoff: Duration::from_micros(300),
            max_backoff: Duration::from_millis(5),
            request_deadline: Duration::from_secs(4),
            ..GatewayConfig::default()
        },
    );
    gw.register("mortgage", &proxied_urls.iter().map(String::as_str).collect::<Vec<_>>());

    let log = Arc::new(Mutex::new(Vec::new()));
    // Compensators cancel via the DIRECT server urls: compensation
    // should not have to fight the fault proxy to undo work.
    let results = drive_runs(
        cfg,
        &gw,
        &transport,
        &direct_urls,
        &notify_srv.url(),
        &finalize_srv.url(),
        &log,
        |_| {},
    );

    // Swap the faulty proxies out for the direct endpoints: faults are
    // gone, the breakers must close again.
    gw.register("mortgage", &direct_urls.iter().map(String::as_str).collect::<Vec<_>>());
    let breakers_recovered = breakers_recover(&gw, &direct_urls, Duration::from_secs(8));

    let mut open = Vec::new();
    for proxy in &mut proxies {
        proxy.shutdown();
        open.push(proxy.open_tunnels());
    }
    let report = fill_report(
        cfg,
        results,
        &app_ledger,
        &notify_ledger,
        breakers_recovered,
        started.elapsed(),
    );
    (report, open)
}

/// Live thread count of this process (Linux); used by chaos tests to
/// assert the harness does not leak threads across campaigns.
pub fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}
