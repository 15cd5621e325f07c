//! Benchmark harness reproducing the SSS evaluation (paper §V).
//!
//! The harness has two layers:
//!
//! * [`harness`] builds engines exclusively through the `sss-engine`
//!   registry ([`EngineKind::build`](sss_engine::EngineKind::build)) and
//!   drives them with the `sss-workload` closed-loop driver, so that one
//!   code path benchmarks every engine under identical conditions — the
//!   same methodology as the paper, which re-implemented every competitor
//!   on the same software infrastructure. This crate defines **no** engine
//!   adapters of its own; those live with the engines (`sss-core`,
//!   `sss-baselines`) behind the `sss-engine` trait surface.
//! * [`figures`] encodes each figure of the evaluation section as a
//!   parameter sweep returning printable rows. The `fig3` … `fig8` binaries
//!   are thin wrappers around these functions; `cargo bench` runs
//!   reduced-scale versions of the same sweeps (component micro-benchmarks
//!   live in the crates owning the components).
//!
//! Absolute numbers differ from the paper (the paper uses a 20-node
//! InfiniBand cluster; this repository runs an in-process cluster on one
//! machine), but the harness preserves the comparisons the paper draws:
//! which engine wins in which regime, and how the gaps move as the read-only
//! share, the node count, the locality and the read-set size change.

//! A third layer runs *chaos scenarios*: [`scenarios`] holds a catalog of
//! named fault plans (partition-heal, asymmetric-slow-link,
//! duplicate-storm, reorder-burst, pause-during-commit, chaos-mix) built on
//! `sss-faults` and executed through `sss-workload`'s scenario runner, with
//! every recorded history verified by the `sss-consistency` checker. The
//! `scenarios` binary prints the catalog report; [`cli`] owns the argument
//! parsing shared by every binary.
//!
//! The same catalog also runs under the deterministic discrete-event
//! simulator: [`sim_sweep`] sweeps it across hundreds of seeds on virtual
//! time (the `sim-sweep` binary and the release-tier `sim_sweep` test
//! suite), gating every seed on a checker-clean history and a bit-identical
//! replay, and holds the committed seed-replay regression corpus.

pub mod cli;
pub mod figures;
pub mod harness;
pub mod scenarios;
pub mod sim_sweep;
pub mod throughput;

pub use harness::{run_engine, run_engine_with_profile};
pub use sim_sweep::{run_sim_sweep, SimSweepConfig, SweepReport};
pub use sss_engine::{EngineKind, EngineSpec, NetProfile};
pub use throughput::{run_throughput, ThroughputConfig, ThroughputReport};

pub use cli::{figure_main, FigureSelection};
pub use figures::{
    fig3_throughput, fig4a_max_throughput, fig4b_latency, fig5_breakdown, fig6_rococo,
    fig7_locality, fig8_read_only_size, BenchScale, FigureRow, FigureTable,
};
