//! Experiment harness: builds engines through the registry and runs the
//! workload driver against them.
//!
//! This module owns no engine code at all — engines are constructed solely
//! via [`EngineKind::build`] and driven through the `sss-engine` trait
//! surface, exactly like the paper runs every competitor "on the same
//! software infrastructure".

use sss_engine::{EngineKind, EngineSpec, NetProfile};
use sss_workload::{populate, run_trials, WorkloadReport, WorkloadSpec};

/// Builds the requested engine through the registry, pre-populates the key
/// space, runs the workload trials, and returns the averaged report.
///
/// Figures sweep latency-free clusters (the paper's relative comparisons are
/// dominated by protocol behaviour, not message delay), so the engine is
/// built with [`NetProfile::Instant`].
pub fn run_engine(kind: EngineKind, spec: &WorkloadSpec, replication: usize) -> WorkloadReport {
    run_engine_with_profile(kind, spec, replication, NetProfile::Instant)
}

/// [`run_engine`] with an explicit network profile.
pub fn run_engine_with_profile(
    kind: EngineKind,
    spec: &WorkloadSpec,
    replication: usize,
    profile: NetProfile,
) -> WorkloadReport {
    let engine = kind
        .build(EngineSpec {
            profile,
            ..EngineSpec::new(spec.nodes, replication)
        })
        .expect("no fault plan to refuse");
    populate(engine.as_ref(), spec);
    run_trials(engine.as_ref(), spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn smoke_spec(nodes: usize) -> WorkloadSpec {
        WorkloadSpec::new(nodes)
            .clients_per_node(2)
            .total_keys(64)
            .duration(Duration::from_millis(40))
    }

    #[test]
    fn sss_harness_commits_work() {
        let spec = smoke_spec(3);
        let report = run_engine(EngineKind::Sss, &spec, 2);
        assert!(report.committed > 0, "SSS committed nothing");
        assert_eq!(report.engine, "SSS");
    }

    #[test]
    fn baseline_harness_commits_work() {
        let spec = smoke_spec(2);
        for kind in [EngineKind::TwoPc, EngineKind::Walter, EngineKind::Rococo] {
            let report = run_engine(kind, &spec, 1);
            assert!(report.committed > 0, "{} committed nothing", kind.label());
        }
    }
}
