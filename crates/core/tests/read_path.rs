//! The read path asks the colocated replica first and the other replicas
//! only when it cannot answer inline; a read-only transaction's `Remove`
//! goes only to the nodes its reads asked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_core::{FaultInjector, FaultPlan, Key, NodeId, SssCluster, SssConfig, SssMessage, Value};
use sss_faults::{LinkFault, LinkSelector};

const NODES: usize = 3;

fn kind_slot(label: &str) -> usize {
    SssMessage::KIND_LABELS
        .iter()
        .position(|l| *l == label)
        .expect("known message kind")
}

/// Messages of kind `label` each node has received so far.
fn received(cluster: &SssCluster, label: &str) -> Vec<u64> {
    let slot = kind_slot(label);
    (0..NODES)
        .map(|n| cluster.mailbox_stats(n).per_kind[slot])
        .collect()
}

fn delta(after: &[u64], before: &[u64]) -> Vec<u64> {
    after.iter().zip(before).map(|(a, b)| a - b).collect()
}

/// The first key `key0`, `key1`, ... for which `node`'s membership in the
/// replica set equals `replica`.
fn key_where(config: &SssConfig, node: usize, replica: bool) -> Key {
    let map = config.replica_map();
    (0..)
        .map(|i| Key::new(format!("key{i}")))
        .find(|k| map.is_replica(NodeId(node), k) == replica)
        .expect("some key matches")
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn colocated_read_asks_no_other_node() {
    let config = SssConfig::new(NODES).replication(2);
    let key = key_where(&config, 0, true);
    let cluster = SssCluster::start(config).unwrap();
    let session = cluster.session(0);
    let mut txn = session.begin_update();
    txn.write(key.clone(), Value::from_u64(7));
    txn.commit().unwrap();

    let reads = received(&cluster, "ReadRequest");
    let removes = received(&cluster, "Remove");
    let mut ro = session.begin_read_only();
    assert_eq!(ro.read(key.clone()).unwrap(), Some(Value::from_u64(7)));
    ro.commit().unwrap();
    let mut update = session.begin_update();
    assert_eq!(update.read(key).unwrap(), Some(Value::from_u64(7)));
    update.rollback();

    assert_eq!(
        delta(&received(&cluster, "ReadRequest"), &reads),
        vec![2, 0, 0],
        "both reads are served by the colocated replica alone"
    );
    assert_eq!(
        delta(&received(&cluster, "Remove"), &removes),
        vec![1, 0, 0],
        "the Remove goes only to the node the read asked"
    );
    assert_eq!(cluster.snapshot_queue_entries(), 0);
}

#[test]
fn non_colocated_read_reaches_every_replica() {
    let config = SssConfig::new(NODES).replication(2);
    let key = key_where(&config, 0, false);
    let replicas = config.replica_map().replicas(&key);
    let cluster = SssCluster::start(config).unwrap();
    let session = cluster.session(0);

    let reads = received(&cluster, "ReadRequest");
    let mut ro = session.begin_read_only();
    assert_eq!(ro.read(key).unwrap(), None);
    ro.commit().unwrap();

    let expected: Vec<u64> = (0..NODES)
        .map(|n| u64::from(replicas.contains(&NodeId(n))))
        .collect();
    assert_eq!(delta(&received(&cluster, "ReadRequest"), &reads), expected);
    wait_until("the replicas drop the read's entries", || {
        cluster.snapshot_queue_entries() == 0
    });
}

#[test]
fn colocated_read_parked_behind_an_unreleased_writer_asks_the_other_replicas() {
    // A lone committer leads its own confirmation round and then lingers
    // with its release buffered; meanwhile its writes are confirmed but
    // unreleased, so a colocated read-only read that selects them parks and
    // must fall back to the other replica of the key.
    let config = SssConfig::new(NODES)
        .replication(2)
        .confirm_linger(Duration::from_millis(500));
    let key = key_where(&config, 0, true);
    let other = config
        .replica_map()
        .replicas(&key)
        .into_iter()
        .find(|n| *n != NodeId(0))
        .expect("replication 2")
        .index();
    let cluster = SssCluster::start(config).unwrap();
    let session = cluster.session(0);
    let reads = received(&cluster, "ReadRequest");

    let mut writer = session.begin_update();
    writer.write(key.clone(), Value::from_u64(1));
    let committer = std::thread::spawn(move || writer.commit());
    loop {
        let mut ro = session.begin_read_only();
        let value = ro.read(key.clone()).expect("read-only reads never abort");
        ro.commit().unwrap();
        if value == Some(Value::from_u64(1)) {
            break;
        }
    }
    committer.join().unwrap().expect("the writer commits");

    let local = cluster.node_stats()[0];
    assert!(
        local.reads_parked + local.reads_deferred > 0,
        "the colocated replica held the read: {local:?}"
    );
    assert!(
        delta(&received(&cluster, "ReadRequest"), &reads)[other] > 0,
        "the held read was also sent to the other replica"
    );
    wait_until("every snapshot-queue entry is removed", || {
        cluster.snapshot_queue_entries() == 0
    });
}

#[test]
fn snapshot_queues_drain_after_read_only_commits() {
    let cluster = SssCluster::start(SssConfig::new(NODES).replication(2)).unwrap();
    for i in 0..60u64 {
        let session = cluster.session((i as usize) % NODES);
        let mut txn = session.begin_update();
        txn.write(format!("k{}", i % 7), Value::from_u64(i));
        txn.commit().unwrap();
        let mut ro = cluster.session((i as usize + 1) % NODES).begin_read_only();
        for k in 0..4 {
            ro.read(format!("k{}", (i + k) % 7)).unwrap();
        }
        ro.commit().unwrap();
    }
    wait_until("every snapshot-queue entry is removed", || {
        cluster.snapshot_queue_entries() == 0
    });
}

#[test]
fn reads_complete_under_a_loss_plan() {
    // Loss switches the reliable layer on, which takes every message —
    // self-addressed ones included — through the queues: colocated reads
    // cannot answer inline and fan out to every replica.
    let injector =
        FaultInjector::new(FaultPlan::new(5).link_fault(LinkFault::on(LinkSelector::All).loss(20)));
    let config = SssConfig::new(NODES)
        .replication(2)
        .fault_injector(Arc::clone(&injector));
    let cluster = SssCluster::start(config).unwrap();
    injector.arm();
    for i in 0..10u64 {
        let session = cluster.session((i as usize) % NODES);
        let mut txn = session.begin_update();
        txn.write(format!("k{}", i % 3), Value::from_u64(i));
        txn.commit().expect("update commits under loss");
        let mut ro = cluster.session((i as usize + 1) % NODES).begin_read_only();
        assert_eq!(
            ro.read(format!("k{}", i % 3))
                .expect("read completes under loss"),
            Some(Value::from_u64(i))
        );
        ro.commit().unwrap();
    }
    wait_until("every snapshot-queue entry is removed", || {
        cluster.snapshot_queue_entries() == 0
    });
    cluster.shutdown();
}
