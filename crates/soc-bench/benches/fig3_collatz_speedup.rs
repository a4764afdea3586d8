//! Figure 3 as a bench: Collatz validation, sequential vs parallel,
//! static vs dynamic scheduling, plus a chunk-size ablation — the
//! measured side of the speedup/efficiency figure.

use std::hint::black_box;

use soc_bench::Record;
use soc_parallel::workloads::{validate_parallel, validate_sequential};
use soc_parallel::{Schedule, ThreadPool};

fn main() {
    const LIMIT: u64 = 30_000;
    let mut rec = Record::new("fig3_collatz_speedup");

    // The headline: sequential validation is the speedup baseline, and
    // the one row whose cost does not depend on the core count.
    rec.time("sequential", || validate_sequential(black_box(LIMIT))).max(100_000_000.0);

    // Fixed thread counts, so every host produces the same rows; on a
    // host with fewer cores the extra threads share them.
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        rec.time(&format!("parallel_dynamic/{threads}"), || {
            validate_parallel(&pool, black_box(LIMIT), Schedule::Dynamic { chunk: 512 })
        });
    }

    // Scheduling ablation: static partitioning suffers on Collatz's
    // irregular trajectory lengths; dynamic chunking balances it.
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let pool = ThreadPool::new(host.max(2));
    rec.time("schedule/static", || validate_parallel(&pool, LIMIT, Schedule::Static));
    for chunk in [64usize, 512, 4096] {
        rec.time(&format!("schedule/dynamic_chunk/{chunk}"), || {
            validate_parallel(&pool, LIMIT, Schedule::Dynamic { chunk })
        });
    }

    rec.finish();
}
