//! Cluster configuration.

use std::sync::Arc;
use std::time::Duration;

use sss_faults::FaultInjector;
use sss_net::{ClusterConfig, LatencyModel};
use sss_obs::ObsHub;
use sss_storage::ReplicaMap;

/// Default epoch window of the grouped external-commit confirmation: up to
/// this many update transactions share one `ConfirmExternal` round.
pub const DEFAULT_CONFIRM_EPOCH: usize = 32;

/// Default leader linger between consecutive grouped confirmation rounds of
/// one burst (see [`SssConfig::confirm_linger`]).
pub const DEFAULT_CONFIRM_LINGER: Duration = Duration::from_micros(800);

/// Configuration of an [`SssCluster`](crate::SssCluster).
///
/// The defaults mirror the paper's evaluation setup where applicable: every
/// key is replicated on two nodes, the 2PC lock-acquisition timeout is 1ms
/// (paper §V), and clients are colocated with nodes.
#[derive(Debug, Clone)]
pub struct SssConfig {
    /// The settings every engine shares: cluster shape, worker pools,
    /// network model, observability hub, simulation scheduler and fault
    /// injector.
    pub cluster: ClusterConfig,
    /// Lock-acquisition timeout used during the 2PC prepare phase.
    pub lock_timeout: Duration,
    /// How long a coordinator waits for 2PC votes before aborting.
    pub vote_timeout: Duration,
    /// How long a read operation waits for the fastest replica.
    pub read_timeout: Duration,
    /// How long a coordinator waits for external-commit acknowledgements.
    /// This covers the snapshot-queue wait of the Pre-Commit phase, so it is
    /// deliberately generous.
    pub ack_timeout: Duration,
    /// Number of internal-commit records each node retains for the
    /// `VisibleSet` computation.
    pub nlog_capacity: usize,
    /// Versions retained per key before garbage collection trims the chain.
    pub versions_per_key: usize,
    /// Starvation admission control (paper §III-E): a read-only read that
    /// would serialize before an update transaction which has already been
    /// waiting in a snapshot-queue for this long is briefly delayed.
    pub admission_threshold: Duration,
    /// Base delay of the exponential back-off applied by the admission
    /// control; doubled on every retry.
    pub admission_backoff: Duration,
    /// Maximum number of back-off rounds before the read proceeds anyway.
    pub admission_max_retries: u32,
    /// Upper bound on the Pre-Commit hold: an update transaction held in a
    /// snapshot-queue by slower read-only transactions externally commits
    /// anyway once it has waited this long. Bounding the hold cannot break
    /// strict serializability — a reader whose entry blocks a writer has a
    /// pinned snapshot that can never cover that writer, so it will not
    /// observe it later — but it breaks wait cycles between writers held by
    /// parked readers and readers parked on unconfirmed writers.
    // TODO(protocol): replace the bound with proper wait-cycle avoidance
    // (e.g. client-side exclusion sets) so the paper's strict
    // completion-order property also holds unconditionally.
    pub precommit_hold_max: Duration,
    /// Maximum number of update transactions covered by one grouped
    /// `ConfirmExternal` round (the coordinator *epoch window*). Values `<=
    /// 1` disable grouping entirely and reproduce the per-transaction
    /// confirmation round of the base protocol. Grouping is self-clocking:
    /// a round covers whatever pre-committed while the previous round was
    /// in flight (up to this bound), so idle clusters pay no added latency
    /// and loaded ones amortize one broadcast over the whole window.
    pub confirm_epoch_max: usize,
    /// Whether `ReleaseExternal` and read-only `Remove` traffic piggybacks
    /// on the next grouped `ConfirmExternal` round instead of travelling as
    /// dedicated messages. Only meaningful when `confirm_epoch_max > 1`;
    /// disable for A/B measurement of the piggyback alone.
    pub piggyback: bool,
    /// How long a round leader waits between consecutive rounds of one
    /// burst before launching the next (under-full) round, letting more
    /// committers join and giving piggybacked releases a carrier. Applied
    /// only *after* the leader's first round — a lone committer on an idle
    /// coordinator still confirms immediately, so uncontended latency is
    /// unchanged. Zero disables lingering; values are only meaningful when
    /// `confirm_epoch_max > 1`.
    pub confirm_linger: Duration,
    /// How long a restarting node waits for its peers' `StateReply` before
    /// coming back available anyway. Peer answers re-establish the node's
    /// `confirmed_vc` (wiped by the crash); a peer that is itself down when
    /// asked simply does not answer within the timeout.
    pub recovery_timeout: Duration,
    /// Upper bound on how long an externally-committed transaction may sit
    /// in `pending_global` (parking read-only reads on its versions) without
    /// its coordinator's `ReleaseExternal` arriving. The release is volatile
    /// coordinator state: a crash can swallow it after the confirmation
    /// round already completed (the grouped coalescer buffers releases for
    /// piggybacking, and a crash-stop reset drops that buffer), and without
    /// a bound every read selecting such a writer's version parks, times
    /// out and re-parks forever. Expiring the entry is safe by then: the
    /// coordinator's confirmation phase is itself bounded by `ack_timeout`,
    /// so once this (longer) hold elapses the writer's client has either
    /// been answered long ago or received the degraded
    /// `ExternalCommitTimeout` — in both cases serving the version cannot
    /// precede the client response. Mirrors `precommit_hold_max`: a
    /// liveness valve for state whose owner died, swept by read traffic.
    pub pending_global_hold_max: Duration,
    /// How many times a client operation retries (with capped backoff)
    /// against a down colocated node before surfacing
    /// [`SssError::NodeUnavailable`](crate::SssError::NodeUnavailable).
    /// Sized so the retries ride out a typical scheduled crash window.
    pub unavailable_retry_max: u32,
}

impl SssConfig {
    /// Configuration for a cluster of `nodes` nodes with the paper's
    /// defaults.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        Self::on(ClusterConfig::new(nodes))
    }

    /// The paper's protocol defaults on the given shared cluster settings.
    pub fn on(cluster: ClusterConfig) -> Self {
        SssConfig {
            cluster,
            lock_timeout: Duration::from_millis(1),
            vote_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(1),
            ack_timeout: Duration::from_secs(10),
            nlog_capacity: 4096,
            versions_per_key: 64,
            admission_threshold: Duration::from_millis(2),
            admission_backoff: Duration::from_micros(250),
            admission_max_retries: 5,
            precommit_hold_max: Duration::from_millis(250),
            confirm_epoch_max: DEFAULT_CONFIRM_EPOCH,
            piggyback: true,
            confirm_linger: DEFAULT_CONFIRM_LINGER,
            recovery_timeout: Duration::from_secs(1),
            pending_global_hold_max: Duration::from_secs(30),
            unavailable_retry_max: 100,
        }
    }

    /// Runs the cluster under a caller-owned [`FaultInjector`]: it is
    /// interposed on the transport and attached to every node's pause gate
    /// and crash hook.
    ///
    /// The injector is **inert until armed**: the caller keeps the handle
    /// and calls [`FaultInjector::arm`] once the cluster is populated, so
    /// the plan's scheduled windows cover the measured phase instead of the
    /// warm-up. Cluster shutdown disarms the injector.
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.cluster.fault_injector = Some(injector);
        self
    }

    /// Sets the replication degree.
    pub fn replication(mut self, degree: usize) -> Self {
        self.cluster.replication = degree;
        self
    }

    /// Sets the number of worker threads per node.
    pub fn workers_per_node(mut self, workers: usize) -> Self {
        self.cluster.workers_per_node = workers;
        self
    }

    /// Sets the 2PC lock-acquisition timeout.
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Sets the network latency model.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.cluster.latency = latency;
        self
    }

    /// Sets the random seed used by the latency model.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cluster.seed = seed;
        self
    }

    /// Sets the leader linger between consecutive grouped confirmation
    /// rounds of one burst (zero disables lingering).
    pub fn confirm_linger(mut self, linger: Duration) -> Self {
        self.confirm_linger = linger;
        self
    }

    /// Attaches an observability hub: sessions trace protocol phases into
    /// its rings and histograms (see [`sss_obs::ObsHub`]).
    pub fn observability(mut self, hub: Arc<ObsHub>) -> Self {
        self.cluster.observability = Some(hub);
        self
    }

    /// Sets how long a restarting node waits for peer `StateReply` answers
    /// before coming back available.
    pub fn recovery_timeout(mut self, timeout: Duration) -> Self {
        self.recovery_timeout = timeout;
        self
    }

    /// Sets the client-side retry budget against a down colocated node.
    pub fn unavailable_retry_max(mut self, retries: u32) -> Self {
        self.unavailable_retry_max = retries;
        self
    }

    /// Builds the key-placement map described by this configuration.
    pub fn replica_map(&self) -> ReplicaMap {
        self.cluster.replica_map()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let cfg = SssConfig::new(5);
        assert_eq!(cfg.cluster.nodes, 5);
        assert_eq!(cfg.cluster.replication, 2);
        assert_eq!(cfg.cluster.storage_shards, sss_storage::DEFAULT_SHARDS);
        assert_eq!(cfg.lock_timeout, Duration::from_millis(1));
        assert!(cfg.cluster.latency.is_zero());
        assert_eq!(cfg.replica_map().degree(), 2);
        assert_eq!(cfg.confirm_epoch_max, DEFAULT_CONFIRM_EPOCH);
        assert!(cfg.piggyback);
        assert_eq!(cfg.confirm_linger, DEFAULT_CONFIRM_LINGER);
    }

    #[test]
    fn single_node_cluster_caps_replication() {
        let cfg = SssConfig::new(1);
        assert_eq!(cfg.cluster.replication, 1);
    }

    #[test]
    fn builder_methods_override_defaults() {
        let cfg = SssConfig::new(4)
            .replication(3)
            .workers_per_node(2)
            .lock_timeout(Duration::from_millis(5))
            .latency(LatencyModel::cloudlab_like())
            .seed(99);
        assert_eq!(cfg.cluster.replication, 3);
        assert_eq!(cfg.cluster.workers_per_node, 2);
        assert_eq!(cfg.lock_timeout, Duration::from_millis(5));
        assert_eq!(cfg.cluster.seed, 99);
        assert!(!cfg.cluster.latency.is_zero());
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = SssConfig::new(0);
    }

    #[test]
    fn fault_plans_create_an_inert_injector() {
        let injector = FaultInjector::new(sss_faults::FaultPlan::new(3));
        let cfg = SssConfig::new(2).fault_injector(Arc::clone(&injector));
        assert!(cfg.cluster.fault_injector.is_some(), "injector wired");
        assert!(!injector.is_armed(), "plans must stay inert until armed");
        assert!(SssConfig::new(2).cluster.fault_injector.is_none());
    }
}
