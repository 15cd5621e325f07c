//! Runs the same small YCSB-style workload against SSS and the three
//! competitor engines from the paper's evaluation (2PC-baseline, Walter,
//! ROCOCO) and prints a side-by-side summary — a miniature version of the
//! paper's Figure 3 / Figure 6 experiments.
//!
//! Every engine is constructed through the engine layer's registry
//! (`EngineKind::build`) and driven by the engine-agnostic closed-loop
//! driver: the example contains no engine-specific code at all.
//!
//! Run with: `cargo run --release --example engine_comparison`

use std::time::Duration;

use sss::engine::{EngineKind, EngineSpec};
use sss::workload::{populate, run_workload, KeySelection, WorkloadSpec};

fn main() {
    let spec = WorkloadSpec::new(4)
        .clients_per_node(4)
        .total_keys(1_024)
        .read_only_percent(80)
        .key_selection(KeySelection::Uniform)
        .duration(Duration::from_millis(400));

    println!(
        "workload: {} nodes, {} clients/node, {} keys, {}% read-only\n",
        spec.nodes, spec.clients_per_node, spec.total_keys, spec.read_only_percent
    );
    println!(
        "{:<8} {:>12} {:>10} {:>12} {:>12}",
        "engine", "commits/s", "abort%", "committed", "p99 (µs)"
    );
    for kind in EngineKind::ALL {
        // Replication 2 for the replicated engines; ROCOCO ignores the
        // degree (the paper always compares it without replication).
        let engine = kind.build(EngineSpec::new(spec.nodes, 2)).unwrap();
        populate(engine.as_ref(), &spec);
        let report = run_workload(engine.as_ref(), &spec);
        println!(
            "{:<8} {:>12.0} {:>9.1}% {:>12} {:>12.0}",
            report.engine,
            report.throughput(),
            report.abort_rate() * 100.0,
            report.committed,
            report.latency.p99.as_secs_f64() * 1e6,
        );
    }
    println!(
        "\nFor the full evaluation sweeps run: cargo run -p sss-bench --release --bin all_figures"
    );
}
