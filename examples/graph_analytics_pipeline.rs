//! A data-analytics workflow on the machine model: project a Graph500
//! BFS run to the full KNL node at paper scale, pick the best memory
//! configuration, then walk the thread ladder — the paper's Graph500
//! story (§IV) as a user workflow.
//!
//! Run with: `cargo run --release --example graph_analytics_pipeline`

use knl_hybrid_memory::prelude::*;
use workloads::graph500::Graph500;

fn main() {
    println!("Projected on the KNL node (35 GB graph, Fig. 4d):");
    let big = Graph500::with_footprint(ByteSize::gib(35));
    for setup in MemSetup::PAPER_SETUPS {
        let mut machine = Machine::knl7210(setup, 64).unwrap();
        match big.model_teps(&mut machine) {
            Ok(teps) => println!("  {:<11} {teps:>10.3e} TEPS", setup.label()),
            Err(_) => println!("  {:<11} graph does not fit", setup.label()),
        }
    }

    println!("\nThread ladder on DRAM (Fig. 6c):");
    let mid = Graph500::with_footprint(ByteSize::gib_f(8.8));
    for threads in [64u32, 128, 192, 256] {
        let mut machine = Machine::knl7210(MemSetup::DramOnly, threads).unwrap();
        let teps = mid.model_teps(&mut machine).unwrap();
        println!("  {threads:>3} threads: {teps:>10.3e} TEPS");
    }
    println!("\nBFS is latency-bound: the extra MCDRAM latency never pays off, and");
    println!("128 threads is the sweet spot before atomics contention bites (§IV-D).");
}
