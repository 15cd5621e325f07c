//! Registry smoke test: every engine the registry knows about boots a
//! 3-node cluster through the factory, commits one update and one read-only
//! transaction, and SSS's read-only path never aborts (the paper's headline
//! property). Every engine applies the network profile, and the baselines
//! refuse fault plans with crash windows.

use std::time::{Duration, Instant};

use sss_engine::{
    BuildError, EngineKind, EngineSpec, FaultInjector, FaultPlan, NetProfile, TxnOutcome,
};
use sss_storage::{Key, ReplicaMap, Value};

#[test]
fn every_engine_kind_builds_and_commits_through_the_factory() {
    for kind in EngineKind::ALL {
        let engine = kind.build(EngineSpec::new(3, 2)).unwrap();
        assert_eq!(engine.name(), kind.label(), "registry label mismatch");
        assert_eq!(engine.nodes(), 3, "{kind}: wrong cluster size");

        let mut session = engine.session(0);
        let writes = vec![
            (Key::new("smoke-a"), Value::from_u64(1)),
            (Key::new("smoke-b"), Value::from_u64(2)),
        ];
        // A single sequential client: the update may only abort through
        // engine bugs, not contention — but allow bounded retries for
        // engines whose commit path can time out spuriously.
        let mut update_committed = false;
        for _ in 0..16 {
            if session.run_update(&[], &writes).is_committed() {
                update_committed = true;
                break;
            }
        }
        assert!(
            update_committed,
            "{kind}: update transaction never committed"
        );

        let read_keys = vec![Key::new("smoke-a"), Key::new("smoke-b")];
        let outcome = session.run_read_only(&read_keys);
        assert!(
            outcome.is_committed(),
            "{kind}: read-only transaction aborted in a quiescent cluster"
        );
    }
}

#[test]
fn sss_read_only_transactions_never_abort_through_the_registry() {
    let engine = EngineKind::Sss.build(EngineSpec::new(3, 2)).unwrap();
    let mut writer = engine.session(0);
    assert!(writer
        .run_update(&[], &[(Key::new("ro"), Value::from_u64(0))])
        .is_committed());

    // Abort-freedom is unconditional for SSS read-only transactions: check
    // it from every node, interleaved with writes.
    for round in 0..10u64 {
        assert!(writer
            .run_update(&[], &[(Key::new("ro"), Value::from_u64(round))])
            .is_committed());
        for node in 0..engine.nodes() {
            let mut reader = engine.session(node);
            let outcome = reader.run_read_only(&[Key::new("ro")]);
            assert!(
                matches!(outcome, TxnOutcome::Committed { .. }),
                "SSS read-only aborted on node {node} in round {round}"
            );
        }
    }
}

#[test]
fn every_engine_honours_the_storage_shard_tuning() {
    for kind in EngineKind::ALL {
        for shards in [1usize, 4] {
            let engine = kind
                .build(EngineSpec {
                    storage_shards: shards,
                    ..EngineSpec::new(2, 1)
                })
                .unwrap();
            let mut session = engine.session(0);
            assert!(
                session
                    .run_update(&[], &[(Key::new("t"), Value::from_u64(7))])
                    .is_committed(),
                "{kind} with {shards} shard(s) failed to commit"
            );
            assert!(session.run_read_only(&[Key::new("t")]).is_committed());
            let stats = engine
                .storage_stats()
                .unwrap_or_else(|| panic!("{kind} must expose storage stats"));
            // The arity is rounded up to a power of two and visible in the
            // per-shard breakdown of whichever store the engine runs (the
            // cluster aggregate sums node shards element-wise by index).
            let arity = shards.next_power_of_two();
            if let Some(mv) = &stats.mv {
                assert_eq!(mv.per_shard.len(), arity, "{kind}: mv arity");
                assert!(mv.installed_versions > 0);
            }
            if let Some(sv) = &stats.sv {
                assert_eq!(sv.per_shard.len(), arity, "{kind}: sv arity");
                assert!(sv.writes > 0);
            }
            assert!(
                engine.mailbox_totals().is_some(),
                "{kind} must expose mailbox totals"
            );
        }
    }
}

#[test]
fn engines_build_under_every_net_profile() {
    let profiles = [
        NetProfile::Instant,
        NetProfile::Uniform {
            base: Duration::from_micros(10),
            jitter: Duration::from_micros(5),
        },
    ];
    for kind in EngineKind::ALL {
        for profile in profiles {
            let engine = kind
                .build(EngineSpec {
                    profile,
                    ..EngineSpec::new(2, 1)
                })
                .unwrap();
            let mut session = engine.session(0);
            assert!(session
                .run_update(&[], &[(Key::new("p"), Value::from_u64(1))])
                .is_committed());
            assert!(session.run_read_only(&[Key::new("p")]).is_committed());
        }
    }
}

/// The profile's latency reaches the baselines too: a 2PC update whose
/// only participant is another node crosses the wire at least twice
/// (prepare, then decide), so it takes at least two one-way delays.
#[test]
fn twopc_cross_node_update_pays_the_profile_latency() {
    let base = Duration::from_millis(2);
    let engine = EngineKind::TwoPc
        .build(EngineSpec {
            profile: NetProfile::Uniform {
                base,
                jitter: Duration::ZERO,
            },
            ..EngineSpec::new(3, 1)
        })
        .unwrap();
    let placement = ReplicaMap::new(3, 1);
    let key = (0..)
        .map(|i| Key::new(format!("remote-{i}")))
        .find(|key| placement.replicas(key).iter().all(|node| node.index() != 0))
        .expect("some key lives off node 0");
    let mut session = engine.session(0);
    let start = Instant::now();
    assert!(session
        .run_update(&[], &[(key, Value::from_u64(1))])
        .is_committed());
    let elapsed = start.elapsed();
    assert!(
        elapsed >= 2 * base,
        "a cross-node 2PC update took {elapsed:?}, less than one round trip of {base:?} hops"
    );
}

/// Only SSS recovers crashed nodes: the registry refuses to build a
/// baseline under a plan with crash windows instead of ignoring them.
#[test]
fn baselines_refuse_fault_plans_with_crash_windows() {
    let plan = FaultPlan::new(1).crash(1, Duration::from_millis(5), Duration::from_millis(10));
    for kind in EngineKind::ALL {
        let spec = EngineSpec {
            injector: Some(FaultInjector::new(plan.clone())),
            ..EngineSpec::new(3, 2)
        };
        match kind.build(spec) {
            Ok(engine) => assert_eq!(
                kind,
                EngineKind::Sss,
                "{} accepted a crash plan",
                engine.name()
            ),
            Err(error) => assert_eq!(error, BuildError::CrashUnsupported(kind)),
        }
    }
}
