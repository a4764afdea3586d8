//! Maze algorithm comparison across maze sizes: steps/ticks to exit for
//! greedy vs wall-following vs random walk vs the BFS oracle (the
//! Figure 1/2 lab, as a bench).

use std::hint::black_box;

use soc_bench::Record;
use soc_robotics::algorithms::{self, Hand, RandomWalk, TwoDistanceGreedy, WallFollower};
use soc_robotics::maze::Maze;

fn main() {
    let mut rec = Record::new("maze");
    for size in [9usize, 15, 25] {
        let maze = Maze::generate(size, size, 42);
        let max_steps = size * size * 20;
        rec.time(&format!("generate/{size}"), || Maze::generate(size, size, black_box(42)));
        rec.time(&format!("generate_prim/{size}"), || {
            Maze::generate_prim(size, size, black_box(42))
        });
        let oracle =
            rec.time(&format!("bfs_oracle/{size}"), || algorithms::oracle_steps(black_box(&maze)));
        if size == 25 {
            // The headline: the oracle every lab run is scored against.
            oracle.max(100_000.0);
        }
        rec.time(&format!("greedy/{size}"), || {
            algorithms::run(&maze, &mut TwoDistanceGreedy::new(), max_steps)
        });
        rec.time(&format!("wall_follow/{size}"), || {
            algorithms::run(&maze, &mut WallFollower::new(Hand::Right), max_steps)
        });
        rec.time(&format!("random_walk/{size}"), || {
            algorithms::run(&maze, &mut RandomWalk::new(1), max_steps)
        });
    }
    rec.finish();
}
