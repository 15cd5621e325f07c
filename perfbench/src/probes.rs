//! Probes: public functions of single layers timed in isolation, with
//! inputs shaped like the workloads. Each probe times several batches and
//! reports the median cost per call.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use sss_core::{Key, TxnId, Value};
use sss_net::{Mailbox, Priority};
use sss_obs::SharedHistogram;
use sss_storage::{MvStore, DEFAULT_SHARDS};
use sss_vclock::{NodeId, VectorClock};

use crate::stats::{median, Report};
use crate::workload::{encode, key, NODES};

const BATCHES: usize = 11;

/// Median nanoseconds per call of `op` over [`BATCHES`] batches of `calls`.
fn per_call_ns(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        for i in 0..calls {
            op(i);
        }
        batches.push(started.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(batches)
}

/// Clocks of the cluster's width, as a commit would carry them.
fn clocks() -> Vec<VectorClock> {
    (0..16u64)
        .map(|i| VectorClock::from_entries((0..NODES as u64).map(|n| 1_000 + i * 7 + n).collect()))
        .collect()
}

/// Runs every probe. `chain_len` is the mean version-chain length the
/// workload left on the keys it touched.
pub fn run(report: &mut Report, chain_len: usize) {
    const CALLS: usize = 100_000;
    let clocks = clocks();

    let mut acc = VectorClock::new(NODES);
    let ns = per_call_ns(CALLS, |i| acc.merge(black_box(&clocks[i % clocks.len()])));
    black_box(&acc);
    report.add("vclock.merge_ns", ns, "ns", (BATCHES * CALLS) as u64);

    let ns = per_call_ns(CALLS, |i| {
        black_box(clocks[i % clocks.len()].le(black_box(&clocks[(i + 3) % clocks.len()])));
    });
    report.add("vclock.le_ns", ns, "ns", (BATCHES * CALLS) as u64);

    mv_store(report, chain_len, &clocks);
    mailbox_roundtrip(report);

    let hist = SharedHistogram::new();
    let ns = per_call_ns(CALLS, |i| {
        hist.record(black_box(30 + (i as u64 * 37) % 2_000))
    });
    report.add("obs.hist_record_ns", ns, "ns", (BATCHES * CALLS) as u64);
}

/// `MvStore::apply` and a snapshot read (`chain` plus the newest visible
/// version) on keys whose chains are `chain_len` versions long.
fn mv_store(report: &mut Report, chain_len: usize, clocks: &[VectorClock]) {
    const KEYS: usize = 64;
    const CALLS: usize = 2_048;
    let store = MvStore::with_shards(DEFAULT_SHARDS);
    let keys: Vec<Key> = (0..KEYS).map(key).collect();
    let clocks: Vec<Arc<VectorClock>> = clocks.iter().cloned().map(Arc::new).collect();
    let writer = TxnId::new(NodeId(0), 1);
    let value: Value = encode(1_000_000, writer);
    for k in &keys {
        for v in 0..chain_len {
            store.apply(
                k.clone(),
                value.clone(),
                Arc::clone(&clocks[v % clocks.len()]),
                writer,
            );
        }
    }
    let ns = per_call_ns(CALLS, |i| {
        store.apply(
            keys[i % KEYS].clone(),
            value.clone(),
            Arc::clone(&clocks[i % clocks.len()]),
            writer,
        )
    });
    report.add("storage.mv_apply_ns", ns, "ns", (BATCHES * CALLS) as u64);

    let bound = VectorClock::from_entries(vec![u64::MAX; NODES]);
    let ns = per_call_ns(CALLS * 8, |i| {
        let chain = store.chain(&keys[i % KEYS]).expect("populated key");
        black_box(chain.latest_matching(|v| v.vc.le(&bound)).map(|v| v.writer));
    });
    report.add("storage.mv_read_ns", ns, "ns", (BATCHES * CALLS * 8) as u64);
}

/// One message to another thread's mailbox and the reply back.
fn mailbox_roundtrip(report: &mut Report) {
    const CALLS: usize = 2_000;
    let ping: Mailbox<u64> = Mailbox::new();
    let pong: Mailbox<u64> = Mailbox::new();
    let ns = std::thread::scope(|scope| {
        scope.spawn(|| {
            while let Some(n) = ping.pop() {
                pong.push(n, Priority::Normal);
            }
        });
        let ns = per_call_ns(CALLS, |i| {
            ping.push(i as u64, Priority::Normal);
            black_box(pong.pop());
        });
        ping.close();
        ns
    });
    report.add(
        "net.mailbox_roundtrip_ns",
        ns,
        "ns",
        (BATCHES * CALLS) as u64,
    );
}
