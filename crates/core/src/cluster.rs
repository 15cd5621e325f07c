//! Cluster bootstrap: spins up the nodes, their worker pools and the
//! transport, and hands out client sessions.

use std::sync::Arc;

use parking_lot::Mutex;
use sss_net::ClusterHost;
use sss_vclock::NodeId;

use crate::config::SssConfig;
use crate::error::SssError;
use crate::messages::SssMessage;
use crate::node::SssNode;
use crate::session::Session;
use crate::stats::{ClusterStats, NodeStats};

/// A running SSS cluster (in-process: every node is an actor with its own
/// worker pool, communicating only through the message transport).
///
/// # Example
///
/// ```rust
/// use sss_core::{SssCluster, SssConfig};
/// use sss_storage::Value;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = SssCluster::start(SssConfig::new(3))?;
/// let session = cluster.session(0);
///
/// let mut txn = session.begin_update();
/// txn.write("greeting", "hello");
/// txn.commit()?;
///
/// let mut ro = session.begin_read_only();
/// assert_eq!(ro.read("greeting")?, Some(Value::from("hello")));
/// ro.commit()?;
/// cluster.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct SssCluster {
    config: SssConfig,
    host: ClusterHost<SssMessage>,
    nodes: Vec<Arc<SssNode>>,
    /// Recovery tasks spawned by the restart hook (threaded runtime only;
    /// under the simulator recovery runs as a non-daemon sim task whose
    /// completion quiescence already waits for). Joined at shutdown.
    recovery_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl SssCluster {
    /// Boots a cluster with the given configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice, but kept fallible for forward
    /// compatibility (e.g. resource exhaustion while spawning workers).
    pub fn start(config: SssConfig) -> Result<Self, SssError> {
        let host = ClusterHost::new(&config.cluster, SssMessage::kind_index);
        let nodes: Vec<Arc<SssNode>> = (0..config.cluster.nodes)
            .map(|i| {
                Arc::new(SssNode::new(
                    NodeId(i),
                    config.clone(),
                    Arc::clone(host.transport()),
                ))
            })
            .collect();
        let recovery_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        if let Some(injector) = &config.cluster.fault_injector {
            // Crash-stop hook: a crash purges the node's mailbox (undelivered
            // messages stay outstanding in the reliable layer and are
            // retransmitted after restart) and wipes its volatile protocol
            // state; a restart re-opens the mailbox and runs the peer
            // recovery round on its own task — never on the fault
            // scheduler, which must move on to the next window, and never
            // on a mailbox worker, which must not block on replies.
            //
            // Weak captures: every node holds the injector through its
            // config, so strong handles here would cycle and leak the
            // cluster.
            let hook_nodes: Vec<std::sync::Weak<SssNode>> =
                nodes.iter().map(Arc::downgrade).collect();
            let hook_transport = Arc::downgrade(host.transport());
            let hook_scheduler = config.cluster.scheduler.clone();
            let hook_recovery = Arc::clone(&recovery_threads);
            injector.attach_crash_hook(Arc::new(move |index, down| {
                let (Some(node), Some(transport)) = (
                    hook_nodes.get(index).and_then(std::sync::Weak::upgrade),
                    hook_transport.upgrade(),
                ) else {
                    return;
                };
                if down {
                    transport.mailbox(NodeId(index)).crash();
                    node.on_crash();
                } else {
                    transport.mailbox(NodeId(index)).restart();
                    match &hook_scheduler {
                        Some(scheduler) => {
                            // Non-daemon sim task: quiescence waits for the
                            // recovery round, so a seeded run always replays
                            // it to completion.
                            let _ = scheduler.spawn_task(
                                format!("sss-recovery-{index}"),
                                false,
                                Box::new(move || node.recover_from_peers()),
                            );
                        }
                        None => {
                            let handle = std::thread::Builder::new()
                                .name(format!("sss-recovery-{index}"))
                                .spawn(move || node.recover_from_peers())
                                .expect("failed to spawn recovery task");
                            hook_recovery.lock().push(handle);
                        }
                    }
                }
            }));
        }
        host.start(&nodes);
        Ok(SssCluster {
            config,
            host,
            nodes,
            recovery_threads,
        })
    }

    /// Number of nodes in the cluster.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration the cluster was started with.
    pub fn config(&self) -> &SssConfig {
        &self.config
    }

    /// Opens a client session colocated with node `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn session(&self, node: usize) -> Session {
        Session::new(Arc::clone(&self.nodes[node]))
    }

    #[cfg(test)]
    pub(crate) fn node(&self, node: usize) -> &Arc<SssNode> {
        &self.nodes[node]
    }

    /// Per-node protocol counters.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes.iter().map(|n| n.stats()).collect()
    }

    /// Aggregated protocol counters.
    pub fn stats(&self) -> ClusterStats {
        ClusterStats::aggregate(self.node_stats())
    }

    /// Aggregated storage-layer counters (multi-version store and lock
    /// table, with per-shard contention breakdowns) summed over every node.
    /// The counters are monotonic; harnesses snapshot them at window
    /// boundaries and diff (see `sss_storage::StorageStats::diff`).
    pub fn storage_stats(&self) -> sss_storage::StorageStats {
        let mut total = sss_storage::StorageStats::default();
        for node in &self.nodes {
            total.merge(&node.storage_stats());
        }
        total
    }

    /// Traffic counters of node `node`'s mailbox, with the per-message-kind
    /// breakdown (slots per [`SssMessage::kind_index`]).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mailbox_stats(&self, node: usize) -> sss_net::MailboxStats {
        self.host.transport().mailbox_stats(NodeId(node))
    }

    /// Aggregated mailbox traffic counters summed over every node, for
    /// per-window message accounting by benchmark harnesses.
    pub fn mailbox_totals(&self) -> sss_net::MailboxStats {
        self.host.mailbox_totals()
    }

    /// Total number of snapshot-queue entries across the cluster
    /// (diagnostic; converges to zero when the system is idle, thanks to the
    /// implicit garbage collection performed by `Remove`).
    pub fn snapshot_queue_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.snapshot_queue_entries()).sum()
    }

    /// Runs multi-version garbage collection on every node; returns the
    /// number of versions discarded.
    pub fn collect_garbage(&self) -> usize {
        self.nodes.iter().map(|n| n.collect_garbage()).sum()
    }

    /// Concatenated [`SssNode::pending_external_report`] of every node —
    /// transactions currently held in their Pre-Commit phase and the
    /// read-only entries blocking them. Diagnostic aid.
    pub fn pending_reports(&self) -> String {
        self.nodes
            .iter()
            .map(|n| n.pending_external_report())
            .collect()
    }

    /// The observability hub the cluster was started with, if any (see
    /// [`SssConfig::observability`]): phase traces, per-phase latency
    /// histograms and the per-node trace rings.
    pub fn observability(&self) -> Option<std::sync::Arc<sss_obs::ObsHub>> {
        self.config.cluster.observability.clone()
    }

    /// Per-node liveness classification for stuck-run reports: `Crashed`
    /// while a crash window is open or a restarted node is still running
    /// its recovery round, `Paused` while a pause window holds the mailbox,
    /// `Alive` otherwise. Lets a watchdog distinguish "the fault plan took
    /// a node down" from a genuine protocol livelock.
    pub fn node_liveness(&self) -> Vec<sss_obs::NodeLiveness> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(index, node)| {
                let crashed = !node.is_available()
                    || self
                        .config
                        .cluster
                        .fault_injector
                        .as_ref()
                        .is_some_and(|i| i.is_node_crashed(index));
                if crashed {
                    sss_obs::NodeLiveness::Crashed
                } else if self
                    .host
                    .transport()
                    .mailbox(NodeId(index))
                    .pause_control()
                    .is_paused()
                {
                    sss_obs::NodeLiveness::Paused
                } else {
                    sss_obs::NodeLiveness::Alive
                }
            })
            .collect()
    }

    /// Per-node liveness diagnostics: mailbox traffic and queue depth,
    /// pause and availability state, snapshot-queue entries, commits
    /// awaiting external acknowledgement, and the blocking edge of parked
    /// reads — how many are parked, how many writers await their release
    /// (`pending_global`), and the oldest such writer with its age. Used by
    /// stuck-run detectors to explain *where* a faulted scenario wedged.
    pub fn diagnostics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for node in &self.nodes {
            let id = node.id();
            let mailbox = self.host.transport().mailbox(id);
            let stats = mailbox.stats();
            let oldest = match node.oldest_pending_writer() {
                Some((txn, age)) => format!("{txn} (waiting {age:?})"),
                None => "none".to_string(),
            };
            let _ = writeln!(
                out,
                "node {}: mailbox depth={} enqueued={} dequeued={} paused={} available={} \
                 snapshot-queue-entries={} waiting-external-commits={} parked-reads={} \
                 pending-global={} oldest-pending-writer={}",
                id.index(),
                mailbox.len(),
                stats.total_enqueued(),
                stats.total_dequeued(),
                mailbox.pause_control().is_paused(),
                node.is_available(),
                node.snapshot_queue_entries(),
                node.waiting_external_commits(),
                node.parked_reads(),
                node.pending_global_writers(),
                oldest,
            );
        }
        out.push_str(&self.pending_reports());
        out
    }

    /// Shuts the cluster down: disarms any fault injector, closes the
    /// transport and joins every worker. Idempotent.
    pub fn shutdown(&self) {
        self.host.shutdown();
        // Joined after the transport shutdown: a recovery round still
        // waiting for peer replies unblocks as soon as its channels die.
        let recoveries = std::mem::take(&mut *self.recovery_threads.lock());
        for handle in recoveries {
            let _ = handle.join();
        }
    }
}

impl Drop for SssCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SssCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SssCluster")
            .field("nodes", &self.nodes.len())
            .field("replication", &self.config.cluster.replication)
            .finish()
    }
}
