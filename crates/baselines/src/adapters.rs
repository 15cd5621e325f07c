//! Engine adapters for the three competitors: whole-transaction execution
//! in the shape the workspace's engine layer (`sss-engine`) binds onto its
//! `TransactionEngine` / `EngineSession` traits.
//!
//! The adapters live here — with the engines they adapt — so that the
//! engine layer can stay a thin binding-and-registry crate. Commit timings
//! are reported as `Option<(latency, internal_latency)>`: none of the
//! baselines delays its client response past commit, so the two durations
//! are always equal; `None` means the transaction aborted.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_obs::{ObsHub, TxnTrace};
use sss_storage::{Key, Value};

use crate::rococo::{RococoCluster, RococoConfig, RococoReadOutcome};
use crate::twopc::{TwoPcCluster, TwoPcConfig, TwoPcOutcome};
use crate::walter::{WalterCluster, WalterConfig, WalterOutcome};

fn committed(start: Instant) -> Option<(Duration, Duration)> {
    let latency = sss_vclock::runtime::elapsed_since(start);
    Some((latency, latency))
}

/// Per-adapter-session trace state: the cluster's hub, the session's client
/// lane and a session-local transaction counter used as the trace label
/// (the engines allocate their `TxnId`s inside the cluster sessions, so
/// the adapter keeps its own label sequence).
#[derive(Debug)]
struct SessionObs {
    hub: Arc<ObsHub>,
    lane: u64,
    txns: u64,
}

impl SessionObs {
    fn attach(hub: Option<Arc<ObsHub>>) -> Option<Self> {
        hub.map(|hub| {
            let lane = hub.next_lane();
            SessionObs { hub, lane, txns: 0 }
        })
    }

    fn begin(&mut self, node: usize) -> TxnTrace {
        let txn = self.txns;
        self.txns += 1;
        TxnTrace::begin(Arc::clone(&self.hub), node, self.lane, txn)
    }
}

fn begin_trace(obs: &mut Option<SessionObs>, node: usize) -> Option<TxnTrace> {
    obs.as_mut().map(|obs| obs.begin(node))
}

/// Projects a cluster's read-value map onto the request's key order, so the
/// observed values line up with `read_keys` for history recording.
fn observed_in_order(
    read_keys: &[Key],
    values: Option<BTreeMap<Key, Option<Value>>>,
) -> Vec<Option<Value>> {
    let Some(values) = values else {
        return vec![None; read_keys.len()];
    };
    read_keys
        .iter()
        .map(|k| values.get(k).cloned().flatten())
        .collect()
}

// ---------------------------------------------------------------------------
// 2PC-baseline
// ---------------------------------------------------------------------------

/// The 2PC-baseline engine, ready to be driven one transaction at a time.
#[derive(Debug)]
pub struct TwoPcEngine {
    cluster: Arc<TwoPcCluster>,
}

impl TwoPcEngine {
    /// Starts the engine from an explicit [`TwoPcConfig`].
    pub fn with_config(config: TwoPcConfig) -> Self {
        TwoPcEngine {
            cluster: Arc::new(TwoPcCluster::start(config)),
        }
    }

    /// The underlying cluster (e.g. for commit/abort counters).
    pub fn cluster(&self) -> &TwoPcCluster {
        &self.cluster
    }

    /// Number of nodes the engine runs.
    pub fn node_count(&self) -> usize {
        self.cluster.node_count()
    }

    /// Opens an adapter session colocated with `node`.
    pub fn open_session(&self, node: usize) -> TwoPcEngineSession {
        TwoPcEngineSession {
            obs: SessionObs::attach(self.cluster.observability()),
            cluster: Arc::clone(&self.cluster),
            node,
        }
    }
}

/// A per-client adapter session on the 2PC-baseline.
pub struct TwoPcEngineSession {
    cluster: Arc<TwoPcCluster>,
    node: usize,
    obs: Option<SessionObs>,
}

impl TwoPcEngineSession {
    /// Runs one update transaction; `Some((latency, latency))` on commit.
    pub fn run_update(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> Option<(Duration, Duration)> {
        self.run_update_observed(read_keys, writes).0
    }

    /// [`TwoPcEngineSession::run_update`] that also reports the observed
    /// read values (parallel to `read_keys`).
    pub fn run_update_observed(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (Option<(Duration, Duration)>, Vec<Option<Value>>) {
        let start = sss_vclock::runtime::now();
        let mut trace = begin_trace(&mut self.obs, self.node);
        let (outcome, values) =
            self.cluster
                .session(self.node)
                .execute_traced(read_keys, writes, trace.as_mut());
        if let Some(trace) = trace.take() {
            trace.finish(outcome == TwoPcOutcome::Committed);
        }
        match outcome {
            TwoPcOutcome::Committed => (committed(start), observed_in_order(read_keys, values)),
            TwoPcOutcome::Aborted => (None, Vec::new()),
        }
    }

    /// Runs one read-only transaction. In the 2PC-baseline read-only
    /// transactions validate like updates and therefore may abort.
    pub fn run_read_only(&mut self, read_keys: &[Key]) -> Option<(Duration, Duration)> {
        self.run_update(read_keys, &[])
    }

    /// [`TwoPcEngineSession::run_read_only`] with observed values.
    pub fn run_read_only_observed(
        &mut self,
        read_keys: &[Key],
    ) -> (Option<(Duration, Duration)>, Vec<Option<Value>>) {
        self.run_update_observed(read_keys, &[])
    }
}

// ---------------------------------------------------------------------------
// Walter (PSI)
// ---------------------------------------------------------------------------

/// The Walter-style PSI engine, ready to be driven one transaction at a
/// time.
#[derive(Debug)]
pub struct WalterEngine {
    cluster: Arc<WalterCluster>,
}

impl WalterEngine {
    /// Starts the engine from an explicit [`WalterConfig`].
    pub fn with_config(config: WalterConfig) -> Self {
        WalterEngine {
            cluster: Arc::new(WalterCluster::start(config)),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &WalterCluster {
        &self.cluster
    }

    /// Number of nodes the engine runs.
    pub fn node_count(&self) -> usize {
        self.cluster.node_count()
    }

    /// Opens an adapter session colocated with `node`.
    pub fn open_session(&self, node: usize) -> WalterEngineSession {
        WalterEngineSession {
            obs: SessionObs::attach(self.cluster.observability()),
            cluster: Arc::clone(&self.cluster),
            node,
        }
    }
}

/// A per-client adapter session on the Walter engine.
pub struct WalterEngineSession {
    cluster: Arc<WalterCluster>,
    node: usize,
    obs: Option<SessionObs>,
}

impl WalterEngineSession {
    /// Runs one update transaction; `Some((latency, latency))` on commit.
    pub fn run_update(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> Option<(Duration, Duration)> {
        self.run_update_observed(read_keys, writes).0
    }

    /// [`WalterEngineSession::run_update`] that also reports the observed
    /// read values (parallel to `read_keys`).
    pub fn run_update_observed(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (Option<(Duration, Duration)>, Vec<Option<Value>>) {
        let start = sss_vclock::runtime::now();
        let mut trace = begin_trace(&mut self.obs, self.node);
        let (outcome, values) =
            self.cluster
                .session(self.node)
                .update_traced(read_keys, writes, trace.as_mut());
        if let Some(trace) = trace.take() {
            trace.finish(outcome == WalterOutcome::Committed);
        }
        match outcome {
            WalterOutcome::Committed => (committed(start), observed_in_order(read_keys, values)),
            WalterOutcome::Aborted => (None, Vec::new()),
        }
    }

    /// Runs one read-only transaction (PSI: served from the start snapshot,
    /// never aborts).
    pub fn run_read_only(&mut self, read_keys: &[Key]) -> Option<(Duration, Duration)> {
        self.run_read_only_observed(read_keys).0
    }

    /// [`WalterEngineSession::run_read_only`] with observed values.
    pub fn run_read_only_observed(
        &mut self,
        read_keys: &[Key],
    ) -> (Option<(Duration, Duration)>, Vec<Option<Value>>) {
        let start = sss_vclock::runtime::now();
        let mut trace = begin_trace(&mut self.obs, self.node);
        let values = self
            .cluster
            .session(self.node)
            .read_only_traced(read_keys, trace.as_mut());
        if let Some(trace) = trace.take() {
            trace.finish(values.is_some());
        }
        match values {
            Some(values) => (committed(start), observed_in_order(read_keys, Some(values))),
            None => (None, Vec::new()),
        }
    }
}

// ---------------------------------------------------------------------------
// ROCOCO
// ---------------------------------------------------------------------------

/// The ROCOCO-style engine, ready to be driven one transaction at a time.
#[derive(Debug)]
pub struct RococoEngine {
    cluster: Arc<RococoCluster>,
}

impl RococoEngine {
    /// Starts the engine from an explicit [`RococoConfig`].
    pub fn with_config(config: RococoConfig) -> Self {
        RococoEngine {
            cluster: Arc::new(RococoCluster::start(config)),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &RococoCluster {
        &self.cluster
    }

    /// Number of nodes the engine runs.
    pub fn node_count(&self) -> usize {
        self.cluster.node_count()
    }

    /// Opens an adapter session colocated with `node`.
    pub fn open_session(&self, node: usize) -> RococoEngineSession {
        RococoEngineSession {
            obs: SessionObs::attach(self.cluster.observability()),
            cluster: Arc::clone(&self.cluster),
            node,
        }
    }
}

/// A per-client adapter session on the ROCOCO engine.
pub struct RococoEngineSession {
    cluster: Arc<RococoCluster>,
    node: usize,
    obs: Option<SessionObs>,
}

impl RococoEngineSession {
    /// Runs one update transaction. ROCOCO update pieces are deferrable, so
    /// reads are not part of the update path; `Some((latency, latency))` on
    /// commit.
    pub fn run_update(
        &mut self,
        _read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> Option<(Duration, Duration)> {
        let start = sss_vclock::runtime::now();
        let mut trace = begin_trace(&mut self.obs, self.node);
        let ok = self
            .cluster
            .session(self.node)
            .update_traced(writes, trace.as_mut());
        if let Some(trace) = trace.take() {
            trace.finish(ok);
        }
        if ok {
            committed(start)
        } else {
            None
        }
    }

    /// Runs one read-only transaction (multi-round version checks).
    pub fn run_read_only(&mut self, read_keys: &[Key]) -> Option<(Duration, Duration)> {
        self.run_read_only_observed(read_keys).0
    }

    /// [`RococoEngineSession::run_update`] with observed values. ROCOCO
    /// update pieces never read, so the observations are all unattributed.
    pub fn run_update_observed(
        &mut self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (Option<(Duration, Duration)>, Vec<Option<Value>>) {
        match self.run_update(read_keys, writes) {
            Some(timings) => (Some(timings), vec![None; read_keys.len()]),
            None => (None, Vec::new()),
        }
    }

    /// [`RococoEngineSession::run_read_only`] with observed values.
    pub fn run_read_only_observed(
        &mut self,
        read_keys: &[Key],
    ) -> (Option<(Duration, Duration)>, Vec<Option<Value>>) {
        let start = sss_vclock::runtime::now();
        let mut trace = begin_trace(&mut self.obs, self.node);
        let (outcome, values) = self
            .cluster
            .session(self.node)
            .read_only_traced(read_keys, trace.as_mut());
        if let Some(trace) = trace.take() {
            trace.finish(outcome == RococoReadOutcome::Committed);
        }
        match outcome {
            RococoReadOutcome::Committed => {
                (committed(start), observed_in_order(read_keys, values))
            }
            RococoReadOutcome::Aborted => (None, Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::ClusterConfig;

    #[test]
    fn every_baseline_adapter_commits_serial_work() {
        let cluster = ClusterConfig {
            replication: 1,
            ..ClusterConfig::new(2)
        };
        let writes = vec![(Key::new("x"), Value::from_u64(9))];
        let reads = vec![Key::new("x")];

        let twopc = TwoPcEngine::with_config(TwoPcConfig::on(cluster.clone()));
        let mut session = twopc.open_session(0);
        assert!(session.run_update(&[], &writes).is_some());
        assert!(session.run_read_only(&reads).is_some());
        twopc.cluster().shutdown();

        let walter = WalterEngine::with_config(WalterConfig::on(cluster.clone()));
        let mut session = walter.open_session(0);
        assert!(session.run_update(&[], &writes).is_some());
        assert!(session.run_read_only(&reads).is_some());
        walter.cluster().shutdown();

        let rococo = RococoEngine::with_config(RococoConfig::on(cluster));
        let mut session = rococo.open_session(0);
        assert!(session.run_update(&[], &writes).is_some());
        assert!(session.run_read_only(&reads).is_some());
        rococo.cluster().shutdown();
    }
}
