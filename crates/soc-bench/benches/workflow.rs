//! Workflow engine overheads: dataflow dispatch per activity,
//! sequential vs parallel waves, BPEL step costs, and FSM dispatch.

use std::collections::HashMap;
use std::sync::Arc;

use soc_bench::Record;
use soc_json::Value;
use soc_parallel::ThreadPool;
use soc_workflow::activity::{Compute, Const};
use soc_workflow::bpel::{Process, Scope, Step};
use soc_workflow::fsm::FsmBuilder;
use soc_workflow::graph::WorkflowGraph;

/// A diamond-chain graph with `n` independent add pipelines.
fn wide_graph(n: usize) -> WorkflowGraph {
    let mut g = WorkflowGraph::new();
    for i in 0..n {
        let a = g.add(&format!("a{i}"), Const::new(i as i64));
        let b = g.add(&format!("b{i}"), Const::new(1000));
        let s = g.add(
            &format!("s{i}"),
            Compute::new(&["a", "b"], |p| {
                Ok(Value::from(p["a"].as_i64().unwrap() + p["b"].as_i64().unwrap()))
            }),
        );
        g.connect(a, "out", s, "a").unwrap();
        g.connect(b, "out", s, "b").unwrap();
    }
    g
}

fn main() {
    let mut rec = Record::new("workflow");

    for n in [8usize, 64] {
        let g = wide_graph(n);
        rec.time(&format!("dataflow_sequential/{n}"), || g.run(&HashMap::new()).unwrap());
        let pool = ThreadPool::new(2);
        rec.time(&format!("dataflow_parallel/{n}"), || {
            g.run_parallel(&pool, &HashMap::new()).unwrap()
        });
    }

    // BPEL: tight while loop of assigns (pure engine overhead per step).
    // The headline row: its 2 µs-per-step ceiling catches the
    // interpreter going quadratic in the scope or the loop length.
    let net = soc_http::MemNetwork::new();
    let transport: Arc<dyn soc_http::mem::Transport> = Arc::new(net);
    rec.time("bpel_1000_steps", || {
        let p = Process::new(
            Step::Sequence(vec![
                Step::set("i", 0),
                Step::While {
                    cond: Arc::new(|s: &Scope| s["i"].as_i64().unwrap() < 1000),
                    body: Box::new(Step::assign("i", |s| {
                        Ok(Value::from(s["i"].as_i64().unwrap() + 1))
                    })),
                },
            ]),
            transport.clone(),
        );
        p.run(Scope::new()).unwrap()
    })
    .max(2_000_000.0);

    // TBB-style pipeline throughput (unit 2's stage model).
    rec.time("pipeline_3_stages_1000_items", || {
        soc_parallel::pipeline::Pipeline::new(16)
            .stage(soc_parallel::pipeline::StageKind::Serial, |x: i64| Some(x + 1))
            .stage(soc_parallel::pipeline::StageKind::Parallel(2), |x| Some(x * 2))
            .stage(soc_parallel::pipeline::StageKind::Serial, |x| {
                if x % 3 == 0 {
                    None
                } else {
                    Some(x)
                }
            })
            .run((0..1000).collect())
    });

    // FSM dispatch rate.
    let mut fsm = FsmBuilder::<u64>::new("a")
        .on_do("a", "go", "b", |c| *c += 1)
        .on_do("b", "go", "a", |c| *c += 1)
        .build();
    rec.time("fsm_dispatch_1000", || {
        let mut ctx = 0u64;
        for _ in 0..1000 {
            fsm.dispatch("go", &mut ctx);
        }
        ctx
    });

    rec.finish();
}
