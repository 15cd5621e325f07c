//! End-to-end smoke of the fault-injection wiring through the core API:
//! a cluster built with `SssConfig::fault_injector` keeps its guarantees while the
//! plan delays, duplicates and pauses, and shutdown stays clean.

use std::sync::Arc;
use std::time::Duration;

use sss::core::{SssCluster, SssConfig};
use sss::faults::{FaultInjector, FaultPlan, LinkFault, LinkSelector};
use sss::storage::Value;

#[test]
fn faulted_cluster_serves_transactions_and_shuts_down_cleanly() {
    let plan = FaultPlan::new(17)
        .link_fault(
            LinkFault::on(LinkSelector::All)
                .jitter(Duration::from_micros(300))
                .duplicate(30, Duration::from_micros(150))
                .reorder(20, Duration::from_micros(500)),
        )
        .pause(1, Duration::ZERO, Duration::from_millis(10));
    let injector = FaultInjector::new(plan);
    let config = SssConfig::new(3)
        .replication(2)
        .fault_injector(Arc::clone(&injector));
    let cluster = SssCluster::start(config).unwrap();
    assert!(!injector.is_armed(), "plans stay inert until armed");
    injector.arm();

    let session = cluster.session(0);
    for i in 0..50u64 {
        let mut txn = session.begin_update();
        txn.write("counter", Value::from_u64(i));
        txn.commit().expect("update commits under faults");

        let mut ro = cluster.session((i as usize) % 3).begin_read_only();
        let read = ro.read("counter").expect("read-only reads never abort");
        ro.commit().expect("read-only commit never aborts");
        assert!(read.is_some(), "committed write must be visible");
    }

    let report = cluster.diagnostics();
    assert!(report.contains("node 0"), "diagnostics render: {report}");

    // Shutdown must disarm the injector, resume paused nodes, and stay
    // idempotent even when called repeatedly.
    cluster.shutdown();
    cluster.shutdown();
}

#[test]
fn paused_node_delays_but_does_not_lose_traffic() {
    // Pause node 1 for a window; commits needing it stall, then the backlog
    // drains on resume and everything completes.
    let plan = FaultPlan::new(3).pause(1, Duration::ZERO, Duration::from_millis(200));
    let injector = FaultInjector::new(plan);
    let config = SssConfig::new(2)
        .replication(2)
        .fault_injector(Arc::clone(&injector));
    let cluster = SssCluster::start(config).unwrap();
    injector.arm();
    // Give the scheduler a moment to engage the pause gate before issuing
    // the commit, so the stall below is guaranteed to be observed.
    std::thread::sleep(Duration::from_millis(20));

    let session = cluster.session(0);
    let start = std::time::Instant::now();
    let mut txn = session.begin_update();
    txn.write("k", Value::from_u64(1));
    // Replication 2 on a 2-node cluster: the commit needs the paused node,
    // so the external commit can only complete after the resume.
    txn.commit().expect("commit completes after the resume");
    assert!(
        start.elapsed() >= Duration::from_millis(50),
        "commit should have been delayed by the pause window"
    );

    let mut ro = cluster.session(1).begin_read_only();
    assert_eq!(ro.read("k").unwrap(), Some(Value::from_u64(1)));
    ro.commit().unwrap();
    cluster.shutdown();
}
