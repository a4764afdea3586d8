//! The load side: closed-loop client threads, the three operations with
//! their correctness checks, and the end-of-run invariants.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use soc_http::{HttpClient, Request, Response, Transport};
use soc_json::Value;
use soc_services::bindings::credit_score_contract;
use soc_services::mortgage::CreditScoreService;
use soc_soap::client::SoapClient;
use soc_soap::contract::Contract;
use soc_store::StoreClient;

use crate::deploy::Deployment;
use crate::inputs::{self, Stream, PREWRITTEN_APPLICATIONS};
use crate::trace::{self, Kind, TracedTransport};

/// Load threads, each with its own pooled client: two operations in
/// flight.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Apply,
    Lookup,
    StoreKv,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "apply" => Some(Workload::Apply),
            "lookup" => Some(Workload::Lookup),
            "store_kv" => Some(Workload::StoreKv),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Apply => "apply",
            Workload::Lookup => "lookup",
            Workload::StoreKv => "store_kv",
        }
    }
}

/// One load thread's clients and what it has been acknowledged.
pub struct Loader {
    thread: usize,
    seed: u64,
    pub http: HttpClient,
    transport: Arc<TracedTransport<HttpClient>>,
    soap: SoapClient,
    store: StoreClient,
    contract: Contract,
    gateway_url: String,
    /// Applications the service acknowledged.
    pub acked_applies: u64,
    /// Last acknowledged version and document of each cart key written.
    pub written: HashMap<String, (u64, Value)>,
}

fn checked(resp: Response) -> Result<Value, String> {
    if !resp.status.is_success() {
        return Err(format!("status {}: {}", resp.status, resp.text_body().unwrap_or("")));
    }
    let text = resp.text_body().map_err(|e| e.to_string())?;
    Value::parse(text).map_err(|e| format!("bad JSON {text:?}: {e}"))
}

impl Loader {
    pub fn new(dep: &Deployment, thread: usize, seed: u64) -> Loader {
        let http = HttpClient::new();
        let transport = TracedTransport::new(http.clone(), Kind::ClientSend);
        let store = StoreClient::new(transport.clone());
        store.set_map(dep.map.clone());
        Loader {
            thread,
            seed,
            http,
            soap: SoapClient::new(transport.clone()),
            transport,
            store,
            contract: credit_score_contract(),
            gateway_url: dep.gateway_url.clone(),
            acked_applies: 0,
            written: HashMap::new(),
        }
    }

    /// Run operation `index` of `stream` and check its outputs.
    pub fn run_op(&mut self, w: Workload, stream: Stream, index: u64) -> Result<(), String> {
        trace::op(|| match w {
            Workload::Apply => self.apply(stream, index),
            Workload::Lookup => self.lookup(stream, index),
            Workload::StoreKv => self.store_kv(stream, index),
        })
    }

    fn lookup(&self, stream: Stream, index: u64) -> Result<(), String> {
        let ssn = inputs::lookup_ssn(self.seed, stream, index);
        let url = format!("{}/svc/asu/credit/score?ssn={ssn}", self.gateway_url);
        let v = checked(self.transport.send(Request::get(url)).map_err(|e| e.to_string())?)?;
        let want = CreditScoreService::score(&ssn) as i64;
        match v.get("score").and_then(Value::as_i64) {
            Some(s) if s == want => Ok(()),
            got => Err(format!("REST score for {ssn}: {got:?}, want {want}")),
        }
    }

    fn apply(&mut self, stream: Stream, index: u64) -> Result<(), String> {
        let app = inputs::application(self.seed, stream, index);
        let url = format!("{}/svc/credit/", self.gateway_url);
        let out = trace::child(Kind::SoapCall, || {
            self.soap.call(&url, &self.contract, "GetScore", &[("ssn", &app.ssn)])
        })
        .map_err(|e| format!("GetScore: {e}"))?;
        let want = CreditScoreService::score(&app.ssn);
        if out.get("score").and_then(|s| s.parse::<u32>().ok()) != Some(want) {
            return Err(format!("SOAP score for {}: {:?}, want {want}", app.ssn, out.get("score")));
        }
        let req = Request::post(format!("{}/svc/asu/mortgage/apply", self.gateway_url), Vec::new())
            .with_text("application/json", &app.body)
            .with_idempotency_key(&app.key);
        let v = checked(self.transport.send(req).map_err(|e| e.to_string())?)?;
        let decision = v.get("decision").and_then(Value::as_str);
        let id = v.get("application_id").and_then(Value::as_str);
        if !matches!(decision, Some("approved" | "rejected")) || id != Some(app.key.as_str()) {
            return Err(format!("apply {}: {}", app.key, v.to_compact()));
        }
        self.acked_applies += 1;
        Ok(())
    }

    fn store_kv(&mut self, stream: Stream, index: u64) -> Result<(), String> {
        let key = inputs::cart_key(self.seed, stream, index, self.thread, THREADS);
        let doc = inputs::cart_doc(self.seed, stream, index);
        let version = trace::child(Kind::StorePut, || self.store.put(&key, &doc))
            .map_err(|e| format!("put {key}: {e}"))?;
        self.written.insert(key.clone(), (version, doc.clone()));
        match trace::child(Kind::StoreGet, || self.store.get(&key)) {
            Ok(Some((v, at))) if v == doc && at == version => Ok(()),
            Ok(got) => Err(format!("get {key} after put at {version}: {got:?}")),
            Err(e) => Err(format!("get {key}: {e}")),
        }
    }
}

/// What one closed-loop phase did.
pub struct Phase {
    /// Per-operation latency, ns, in no particular order.
    pub latencies: Vec<u64>,
    pub failed: u64,
    pub elapsed: Duration,
    pub first_error: Option<String>,
}

/// Run operations `first..first + n` of `stream`, thread `t` taking
/// those congruent to `t`, each thread waiting for its reply before it
/// sends the next.
pub fn run_phase(loaders: &mut [Loader], w: Workload, stream: Stream, first: u64, n: u64) -> Phase {
    let barrier = Barrier::new(loaders.len() + 1);
    std::thread::scope(|s| {
        let threads: Vec<_> = loaders
            .iter_mut()
            .map(|l| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut latencies = Vec::with_capacity((n / THREADS as u64 + 1) as usize);
                    let (mut failed, mut first_error) = (0, None);
                    barrier.wait();
                    for i in (l.thread as u64..n).step_by(THREADS) {
                        let t = Instant::now();
                        let result = l.run_op(w, stream, first + i);
                        latencies.push(t.elapsed().as_nanos() as u64);
                        if let Err(e) = result {
                            failed += 1;
                            first_error.get_or_insert(e);
                        }
                    }
                    (latencies, failed, first_error)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut phase =
            Phase { latencies: Vec::new(), failed: 0, elapsed: Duration::ZERO, first_error: None };
        for t in threads {
            let (latencies, failed, first_error) = t.join().expect("load thread panicked");
            phase.latencies.extend(latencies);
            phase.failed += failed;
            phase.first_error = phase.first_error.or(first_error);
        }
        phase.elapsed = start.elapsed();
        phase
    })
}

/// End-of-run invariants: the ledger holds exactly the pre-written
/// applications plus every acknowledged one, every acknowledged cart
/// write reads back from its primary at its last version, and the
/// gateway refused nothing.
pub fn check_invariants(dep: &Deployment, loaders: &[Loader]) -> Result<(), String> {
    let acked: u64 = loaders.iter().map(|l| l.acked_applies).sum();
    let executions = dep.ledger.total_executions();
    if executions != PREWRITTEN_APPLICATIONS + acked {
        return Err(format!(
            "ledger holds {executions} executions, want {PREWRITTEN_APPLICATIONS} + {acked} acked"
        ));
    }
    for (key, (version, doc)) in loaders.iter().flat_map(|l| &l.written) {
        let primary = dep.map.primary(key).ok_or("shard map has no nodes")?;
        let node = dep.nodes.iter().find(|n| n.id() == primary.id).ok_or("unknown primary")?;
        match node.get(key, 0) {
            Ok(Some((v, at))) if &v == doc && at == *version => {}
            got => return Err(format!("{key} reads back {got:?}, want version {version}")),
        }
    }
    let shed = dep.gateway.stats().shed_total();
    if shed != 0 {
        return Err(format!("gateway shed {shed} requests"));
    }
    Ok(())
}
