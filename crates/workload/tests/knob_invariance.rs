//! Performance knobs must be invisible to protocol behaviour. Each case
//! below runs one seeded chaos scenario under two or more settings of one
//! knob and requires the runs to agree:
//!
//! * **storage shards** change *where* keys live inside a node;
//! * **delivery batching** changes *when* a worker picks messages up (the
//!   fault interposer is consulted once per message, so per-link fault
//!   decisions are identical across batch sizes);
//! * **grouped confirmation** (epoch window, piggybacking) changes *which
//!   messages carry* the external-commit barrier;
//! * **observability** is pure measurement — and the traced runs must
//!   actually record spans, so the flag cannot be a silent no-op.
//!
//! SSS's outcome summary is fully deterministic, so its runs must match
//! bit for bit. The baselines' retry counts are timing-dependent with any
//! setting, so their runs must match on the logically deterministic
//! projection: committed totals, the generator-derived read-only mix, no
//! abandoned transaction, no stall and the same checker verdict.

use std::time::Duration;

use sss_engine::{EngineSpec, FaultInjector, DEFAULT_CONFIRM_EPOCH};
use sss_workload::scenario::{run_scenario_on, ChaosScenario, ScenarioExpectations};
use sss_workload::{
    EngineKind, FaultPlan, LinkFault, LinkSelector, ScenarioOutcome, TransactionEngine,
    WorkloadSpec,
};

/// The chaos scenario one case runs.
struct Probe {
    name: &'static str,
    seed: u64,
    ops_per_client: usize,
    /// Whether the link faults include reordering (on top of jitter and
    /// duplication).
    reorder: bool,
}

/// How the runs of one case must agree.
#[derive(Clone, Copy)]
enum Agreement {
    /// Bit-identical outcome summaries, and no read-only abort.
    Summary,
    /// The logically deterministic projection (see the module docs).
    Logical,
}

/// One knob setting: a label for failure messages and the spec override.
type Arm = (&'static str, fn(&mut EngineSpec));

struct Case {
    engines: &'static [EngineKind],
    probe: Probe,
    /// Knob settings; every arm must agree with the first.
    arms: &'static [Arm],
    agreement: Agreement,
}

const BATCH_PROBE: Probe = Probe {
    name: "batch-size-probe",
    seed: 23,
    ops_per_client: 30,
    reorder: true,
};

const SHARD_PROBE: Probe = Probe {
    name: "shard-count-probe",
    seed: 11,
    ops_per_client: 30,
    reorder: false,
};

const EPOCH_PROBE: Probe = Probe {
    name: "epoch-window-probe",
    seed: 23,
    ops_per_client: 30,
    reorder: true,
};

const OBS_PROBE: Probe = Probe {
    name: "obs-probe",
    seed: 31,
    ops_per_client: 25,
    reorder: true,
};

const BATCH_ARMS: &[Arm] = &[
    ("batch 1", |s| s.delivery_batch = 1),
    ("batch 16", |s| s.delivery_batch = 16),
];

const SHARD_ARMS: &[Arm] = &[
    ("1 shard", |s| s.storage_shards = 1),
    ("8 shards", |s| s.storage_shards = 8),
];

const OBS_ARMS: &[Arm] = &[
    ("tracing on", |s| s.observability = true),
    ("tracing off", |s| s.observability = false),
];

/// Expectations and replication degree per engine. ROCOCO runs
/// unreplicated, as in the paper's comparison.
fn expectations(kind: EngineKind) -> (ScenarioExpectations, usize) {
    match kind {
        EngineKind::Sss => (ScenarioExpectations::sss(), 2),
        EngineKind::TwoPc => (ScenarioExpectations::serializable_baseline(), 2),
        EngineKind::Walter => (ScenarioExpectations::weak_baseline(), 2),
        EngineKind::Rococo => (ScenarioExpectations::serializable_baseline(), 1),
    }
}

fn scenario(kind: EngineKind, probe: &Probe) -> ChaosScenario {
    let spec = WorkloadSpec::new(3)
        .clients_per_node(2)
        .total_keys(48)
        .read_only_percent(40)
        .seed(probe.seed);
    let mut link = LinkFault::on(LinkSelector::All).jitter(Duration::from_micros(150));
    if probe.reorder {
        link = link.reorder(20, Duration::from_micros(120));
    }
    let (expect, replication) = expectations(kind);
    ChaosScenario::new(probe.name, spec)
        .ops_per_client(probe.ops_per_client)
        .replication(replication)
        .expect(expect)
        .faults(
            FaultPlan::new(probe.seed).link_fault(link.duplicate(15, Duration::from_micros(80))),
        )
}

fn run(kind: EngineKind, scenario: &ChaosScenario, arm: &Arm) -> ScenarioOutcome {
    let (label, apply) = arm;
    let injector = FaultInjector::new(scenario.faults.clone());
    let mut spec = scenario.engine_spec(&injector);
    apply(&mut spec);
    let observability = spec.observability;
    let engine = kind.build(spec).expect("no crash windows");
    let outcome = run_scenario_on(engine.as_ref(), &injector, scenario);
    injector.disarm();
    assert!(
        outcome.passed(),
        "{kind} with {label} violated expectations: {:?}",
        outcome.violations
    );
    match engine.observability() {
        Some(hub) => {
            assert!(observability, "{kind}: hub present despite tracing off");
            assert!(
                hub.spans_recorded() > 0,
                "{kind} ran with tracing on but recorded no spans"
            );
        }
        None => assert!(!observability, "{kind}: tracing on but no hub retrievable"),
    }
    outcome
}

fn check(case: Case) {
    for &kind in case.engines {
        let scenario = scenario(kind, &case.probe);
        let (reference_label, _) = case.arms[0];
        let reference = run(kind, &scenario, &case.arms[0]);
        for arm in &case.arms[1..] {
            let (label, _) = arm;
            let other = run(kind, &scenario, arm);
            let why = format!("{kind}: {label} disagrees with {reference_label}");
            match case.agreement {
                Agreement::Summary => {
                    assert_eq!(reference.summary(), other.summary(), "{why}");
                }
                Agreement::Logical => {
                    assert_eq!(reference.committed, other.committed, "{why}: committed");
                    assert_eq!(
                        reference.committed_read_only, other.committed_read_only,
                        "{why}: read-only mix"
                    );
                    assert_eq!(reference.aborted, other.aborted, "{why}: abandoned");
                    assert_eq!(reference.stuck, other.stuck, "{why}: stuck flag");
                    assert_eq!(reference.consistency, other.consistency, "{why}: checker");
                }
            }
        }
        if let Agreement::Summary = case.agreement {
            assert_eq!(reference.read_only_aborts, 0, "{kind}: read-only aborts");
        }
    }
}

/// Expands each `name: case` entry into its own test.
macro_rules! knob_cases {
    ($($name:ident: $case:expr;)*) => {
        $(
            #[test]
            fn $name() {
                check($case);
            }
        )*
    };
}

knob_cases! {
    sss_scenario_summary_is_identical_across_shard_counts: Case {
        engines: &[EngineKind::Sss],
        probe: SHARD_PROBE,
        arms: SHARD_ARMS,
        agreement: Agreement::Summary,
    };
    baseline_deterministic_outcome_is_identical_across_shard_counts: Case {
        engines: &[EngineKind::TwoPc],
        probe: SHARD_PROBE,
        arms: SHARD_ARMS,
        agreement: Agreement::Logical,
    };
    sss_scenario_summary_is_identical_across_batch_sizes: Case {
        engines: &[EngineKind::Sss],
        probe: BATCH_PROBE,
        arms: BATCH_ARMS,
        agreement: Agreement::Summary,
    };
    baseline_deterministic_outcome_is_identical_across_batch_sizes: Case {
        engines: &[EngineKind::TwoPc],
        probe: BATCH_PROBE,
        arms: BATCH_ARMS,
        agreement: Agreement::Logical,
    };
    // Window 1 is the base protocol of §III-C: one standalone confirmation
    // round and release per update transaction.
    sss_scenario_summary_is_identical_across_epoch_windows: Case {
        engines: &[EngineKind::Sss],
        probe: EPOCH_PROBE,
        arms: &[
            ("epoch window 1", |s| s.confirm_epoch = 1),
            ("the default epoch window", |s| s.confirm_epoch = DEFAULT_CONFIRM_EPOCH),
        ],
        agreement: Agreement::Summary,
    };
    sss_scenario_summary_is_identical_with_piggyback_off: Case {
        engines: &[EngineKind::Sss],
        probe: EPOCH_PROBE,
        arms: &[
            ("piggyback off", |s| s.piggyback = false),
            ("piggyback on", |s| s.piggyback = true),
        ],
        agreement: Agreement::Summary,
    };
    // Grouping composes with delivery batching.
    sss_scenario_summary_is_identical_across_combined_sweeps: Case {
        engines: &[EngineKind::Sss],
        probe: Probe { seed: 29, ..EPOCH_PROBE },
        arms: &[
            ("batch 1 x window 1", |s| {
                s.delivery_batch = 1;
                s.confirm_epoch = 1;
            }),
            ("batch 1 x window 8", |s| {
                s.delivery_batch = 1;
                s.confirm_epoch = 8;
            }),
            ("batch 16 x window 1", |s| {
                s.delivery_batch = 16;
                s.confirm_epoch = 1;
            }),
            ("batch 16 x the default window", |s| {
                s.delivery_batch = 16;
                s.confirm_epoch = DEFAULT_CONFIRM_EPOCH;
            }),
        ],
        agreement: Agreement::Summary,
    };
    sss_chaos_summary_is_identical_with_tracing_on_and_off: Case {
        engines: &[EngineKind::Sss],
        probe: OBS_PROBE,
        arms: OBS_ARMS,
        agreement: Agreement::Summary,
    };
    baseline_chaos_outcome_is_identical_with_tracing_on_and_off: Case {
        engines: &[EngineKind::TwoPc, EngineKind::Walter, EngineKind::Rococo],
        probe: OBS_PROBE,
        arms: OBS_ARMS,
        agreement: Agreement::Logical,
    };
}
