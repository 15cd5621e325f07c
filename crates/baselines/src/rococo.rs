//! A ROCOCO-style dependency-tracking engine.
//!
//! ROCOCO (Mu et al., OSDI 2014) is "an external consistent two-round
//! protocol where transactions are divided into pieces and dependencies are
//! collected to establish the execution order" (paper §V). The paper's
//! benchmark configures every piece as *deferrable* and disables
//! replication, and observes two behaviours that this reproduction
//! preserves:
//!
//! * update transactions are lock-free and never abort: their pieces are
//!   buffered at the owning server in a first round (collecting the set of
//!   concurrently pending transactions as dependencies) and executed in a
//!   second round once the commit message arrives, in queue order;
//! * read-only transactions are *not* abort-free: they execute a
//!   multi-round protocol that must wait for conflicting in-flight update
//!   transactions to drain and re-validates that the observed versions did
//!   not change between rounds, retrying (and eventually aborting) otherwise
//!   — which is why their cost grows with the number of read keys
//!   (Figure 8).
//!
//! See `DESIGN.md` for the fidelity notes: the reproduction targets the
//! performance profile the paper's comparison relies on rather than a
//! complete re-implementation of ROCOCO's reordering proof.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sss_net::{
    reply_channel, ClusterConfig, ClusterHost, Envelope, NodeService, Priority, ReplySender,
    Transport,
};
use sss_obs::{ObsHub, Phase, TxnTrace};
use sss_storage::{Key, RecentSet, ReplicaMap, SvStore, TxnId, Value};
use sss_vclock::NodeId;

/// Human-readable labels of the ROCOCO message kinds, in
/// `RococoMessage::kind_index` order — the per-kind mailbox counters
/// (`MailboxStats::per_kind`) attribute traffic against this table.
pub const MESSAGE_KIND_LABELS: [&str; 3] = ["Dispatch", "Commit", "SnapshotRead"];

/// Configuration of a [`RococoCluster`].
#[derive(Debug, Clone)]
pub struct RococoConfig {
    /// The settings every engine shares (cluster shape, worker pools,
    /// network model, observability hub, scheduler, fault injector).
    pub cluster: ClusterConfig,
    /// Timeout for individual RPCs.
    pub rpc_timeout: Duration,
    /// Maximum snapshot-validation rounds a read-only transaction attempts
    /// before aborting.
    pub read_only_max_rounds: usize,
    /// Pause between read-only validation rounds while waiting for
    /// conflicting update transactions to drain.
    pub read_only_backoff: Duration,
}

impl RococoConfig {
    /// Defaults matching the paper's comparison setup (no replication).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        Self::on(ClusterConfig::new(nodes))
    }

    /// The protocol defaults on the given shared cluster settings.
    pub fn on(cluster: ClusterConfig) -> Self {
        RococoConfig {
            cluster,
            rpc_timeout: Duration::from_secs(1),
            read_only_max_rounds: 8,
            read_only_backoff: Duration::from_micros(100),
        }
    }
}

#[derive(Debug, Clone)]
struct DispatchReply {
    /// Transactions already pending on the key (the collected dependencies).
    deps: Vec<TxnId>,
}

#[derive(Debug, Clone)]
#[allow(dead_code)] // carries protocol metadata useful for tracing
struct ExecuteReply {
    from: NodeId,
    txn: TxnId,
}

#[derive(Debug, Clone)]
struct SnapshotReply {
    value: Option<Value>,
    version: u64,
    /// Number of dispatched-but-not-yet-executed pieces on the key.
    pending: usize,
}

#[derive(Debug, Clone)]
enum RococoMessage {
    /// Round 1 of an update transaction: buffer the piece, return deps.
    Dispatch {
        txn: TxnId,
        key: Key,
        value: Value,
        reply: ReplySender<DispatchReply>,
    },
    /// Round 2 of an update transaction: the piece may execute.
    Commit {
        txn: TxnId,
        key: Key,
        reply: ReplySender<ExecuteReply>,
    },
    /// One round of a read-only transaction: value + version + pending info.
    SnapshotRead {
        key: Key,
        reply: ReplySender<SnapshotReply>,
    },
}

impl RococoMessage {
    /// Dense per-kind index into [`MESSAGE_KIND_LABELS`], for the
    /// transport's per-kind mailbox counters.
    fn kind_index(&self) -> usize {
        match self {
            RococoMessage::Dispatch { .. } => 0,
            RococoMessage::Commit { .. } => 1,
            RococoMessage::SnapshotRead { .. } => 2,
        }
    }
}

#[derive(Debug)]
struct PendingPiece {
    txn: TxnId,
    value: Value,
    committed: bool,
    reply: Option<ReplySender<ExecuteReply>>,
}

#[derive(Debug)]
struct RococoNodeState {
    store: SvStore,
    queues: HashMap<Key, VecDeque<PendingPiece>>,
    /// Every `(txn, key)` piece this node has accepted a dispatch for. The
    /// network may duplicate messages; re-enqueuing a piece would leave a
    /// phantom entry that no `Commit` resolves, wedging the key's queue.
    dispatched: RecentSet<(TxnId, Key)>,
}

impl RococoNodeState {
    fn with_shards(shards: usize) -> Self {
        RococoNodeState {
            store: SvStore::with_shards(shards),
            queues: HashMap::new(),
            dispatched: RecentSet::new(1 << 16),
        }
    }
}

struct RococoNode {
    id: NodeId,
    state: Mutex<RococoNodeState>,
}

impl RococoNode {
    fn handle_dispatch(
        &self,
        txn: TxnId,
        key: Key,
        value: Value,
        reply: ReplySender<DispatchReply>,
    ) {
        let mut state = self.state.lock();
        // Duplicate delivery (concurrent or after the piece already
        // executed): drop it without enqueuing or replying — the original
        // copy's reply is guaranteed to arrive, and a re-enqueued piece
        // would never be committed again.
        if !state.dispatched.insert((txn, key.clone())) {
            return;
        }
        let queue = state.queues.entry(key).or_default();
        let deps: Vec<TxnId> = queue.iter().map(|p| p.txn).collect();
        queue.push_back(PendingPiece {
            txn,
            value,
            committed: false,
            reply: None,
        });
        drop(state);
        reply.send(DispatchReply { deps });
    }

    fn handle_commit(&self, txn: TxnId, key: Key, reply: ReplySender<ExecuteReply>) {
        let mut state = self.state.lock();
        if let Some(queue) = state.queues.get_mut(&key) {
            if let Some(piece) = queue.iter_mut().find(|p| p.txn == txn) {
                piece.committed = true;
                piece.reply = Some(reply);
            }
        }
        self.drain_queue(&mut state, &key);
    }

    /// Executes committed pieces at the head of the key's queue, in
    /// dispatch order (deferrable pieces execute once their transaction's
    /// commit decision is known and every earlier-dispatched piece has
    /// executed).
    fn drain_queue(&self, state: &mut RococoNodeState, key: &Key) {
        loop {
            let Some(queue) = state.queues.get_mut(key) else {
                return;
            };
            let ready = queue.front().map(|p| p.committed).unwrap_or(false);
            if !ready {
                if queue.is_empty() {
                    state.queues.remove(key);
                }
                return;
            }
            let piece = queue.pop_front().expect("checked non-empty");
            state.store.write(key.clone(), piece.value, piece.txn);
            if let Some(reply) = piece.reply {
                reply.send(ExecuteReply {
                    from: self.id,
                    txn: piece.txn,
                });
            }
        }
    }

    fn handle_snapshot_read(&self, key: Key, reply: ReplySender<SnapshotReply>) {
        let state = self.state.lock();
        let pending = state.queues.get(&key).map(|q| q.len()).unwrap_or(0);
        reply.send(SnapshotReply {
            value: state.store.read(&key).map(|c| c.value.clone()),
            version: state.store.version(&key),
            pending,
        });
    }
}

impl NodeService<RococoMessage> for RococoNode {
    fn handle(&self, envelope: Envelope<RococoMessage>) {
        match envelope.payload {
            RococoMessage::Dispatch {
                txn,
                key,
                value,
                reply,
            } => self.handle_dispatch(txn, key, value, reply),
            RococoMessage::Commit { txn, key, reply } => self.handle_commit(txn, key, reply),
            RococoMessage::SnapshotRead { key, reply } => self.handle_snapshot_read(key, reply),
        }
    }
}

/// A running ROCOCO-style cluster (replication disabled, as in the paper's
/// comparison).
pub struct RococoCluster {
    config: RococoConfig,
    host: ClusterHost<RococoMessage>,
    nodes: Vec<Arc<RococoNode>>,
    placement: ReplicaMap,
    next_txn: AtomicU64,
}

impl RococoCluster {
    /// Boots the cluster on a [`ClusterHost`].
    pub fn start(config: RococoConfig) -> Self {
        let host = ClusterHost::new(&config.cluster, RococoMessage::kind_index);
        let nodes: Vec<Arc<RococoNode>> = (0..config.cluster.nodes)
            .map(|i| {
                Arc::new(RococoNode {
                    id: NodeId(i),
                    state: Mutex::new(RococoNodeState::with_shards(config.cluster.storage_shards)),
                })
            })
            .collect();
        host.start(&nodes);
        // Unreplicated, as in the paper's comparison.
        let placement = ReplicaMap::new(config.cluster.nodes, 1);
        RococoCluster {
            config,
            host,
            nodes,
            placement,
            next_txn: AtomicU64::new(0),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The observability hub the cluster was started with, if any (see
    /// [`ClusterConfig::observability`]).
    pub fn observability(&self) -> Option<Arc<ObsHub>> {
        self.config.cluster.observability.clone()
    }

    /// Aggregated storage-layer counters (single-version store, with the
    /// per-shard breakdown) summed over every node. ROCOCO runs no lock
    /// table — update pieces are lock-free by design.
    pub fn storage_stats(&self) -> sss_storage::StorageStats {
        let mut total = sss_storage::StorageStats::default();
        for node in &self.nodes {
            total.merge(&sss_storage::StorageStats {
                mv: None,
                sv: Some(node.state.lock().store.stats()),
                locks: None,
            });
        }
        total
    }

    /// Aggregated mailbox traffic counters summed over every node.
    pub fn mailbox_totals(&self) -> sss_net::MailboxStats {
        self.host.mailbox_totals()
    }

    /// Opens a session colocated with `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn session(&self, node: usize) -> RococoSession<'_> {
        assert!(node < self.nodes.len(), "node index out of range");
        RococoSession {
            cluster: self,
            node: NodeId(node),
        }
    }

    /// Shuts the cluster down. Idempotent.
    pub fn shutdown(&self) {
        self.host.shutdown();
    }
}

impl std::fmt::Debug for RococoCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RococoCluster")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// Outcome of a ROCOCO read-only transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RococoReadOutcome {
    /// A consistent snapshot was obtained.
    Committed,
    /// The snapshot could not be validated within the configured number of
    /// rounds.
    Aborted,
}

/// A client session colocated with one node.
#[derive(Debug, Clone, Copy)]
pub struct RococoSession<'c> {
    cluster: &'c RococoCluster,
    node: NodeId,
}

impl<'c> RococoSession<'c> {
    /// Executes an update transaction writing `writes` (one deferrable piece
    /// per key). Update transactions never abort.
    ///
    /// Returns `false` only if the cluster is shutting down.
    pub fn update(&self, writes: &[(Key, Value)]) -> bool {
        self.update_traced(writes, None)
    }

    /// [`RococoSession::update`] carrying an optional phase trace: one
    /// `dispatch` span over round 1 and one `execute` span over round 2.
    /// The caller finishes the trace with the final outcome.
    pub fn update_traced(&self, writes: &[(Key, Value)], mut trace: Option<&mut TxnTrace>) -> bool {
        if writes.is_empty() {
            return true;
        }
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter(Phase::Dispatch);
        }
        let txn = TxnId::new(
            self.node,
            self.cluster.next_txn.fetch_add(1, Ordering::Relaxed),
        );
        // Round 1: dispatch every piece and collect dependencies.
        let (dispatch_reply, dispatch_rx) = reply_channel(writes.len());
        for (key, value) in writes {
            let owner = self.cluster.placement.primary(key);
            let msg = RococoMessage::Dispatch {
                txn,
                key: key.clone(),
                value: value.clone(),
                reply: dispatch_reply.clone(),
            };
            if self
                .cluster
                .host
                .transport()
                .send(self.node, owner, msg, Priority::Normal)
                .is_err()
            {
                return false;
            }
        }
        let deadline = sss_vclock::runtime::now() + self.cluster.config.rpc_timeout;
        let mut _deps: Vec<TxnId> = Vec::new();
        for _ in 0..writes.len() {
            let remaining = deadline.saturating_duration_since(sss_vclock::runtime::now());
            match dispatch_rx.recv_timeout(remaining) {
                Some(reply) => _deps.extend(reply.deps),
                None => return false,
            }
        }

        // Round 2: commit every piece; the servers execute them in dispatch
        // order, which realizes the aggregated dependency order for
        // deferrable pieces.
        if let Some(trace) = trace {
            trace.enter(Phase::Execute);
        }
        let (exec_reply, exec_rx) = reply_channel(writes.len());
        for (key, _) in writes {
            let owner = self.cluster.placement.primary(key);
            let msg = RococoMessage::Commit {
                txn,
                key: key.clone(),
                reply: exec_reply.clone(),
            };
            if self
                .cluster
                .host
                .transport()
                .send(self.node, owner, msg, Priority::High)
                .is_err()
            {
                return false;
            }
        }
        let deadline = sss_vclock::runtime::now() + self.cluster.config.rpc_timeout;
        for _ in 0..writes.len() {
            let remaining = deadline.saturating_duration_since(sss_vclock::runtime::now());
            if exec_rx.recv_timeout(remaining).is_none() {
                return false;
            }
        }
        true
    }

    fn snapshot_round(&self, keys: &[Key]) -> Option<Vec<SnapshotReply>> {
        let (reply, rx) = reply_channel(keys.len());
        for key in keys {
            let owner = self.cluster.placement.primary(key);
            let msg = RococoMessage::SnapshotRead {
                key: key.clone(),
                reply: reply.clone(),
            };
            if self
                .cluster
                .host
                .transport()
                .send(self.node, owner, msg, Priority::Normal)
                .is_err()
            {
                return None;
            }
        }
        // Replies arrive in arbitrary order; for validation we only need the
        // per-key versions, so re-read them keyed by index in a second pass.
        let mut replies = Vec::with_capacity(keys.len());
        let deadline = sss_vclock::runtime::now() + self.cluster.config.rpc_timeout;
        for _ in 0..keys.len() {
            let remaining = deadline.saturating_duration_since(sss_vclock::runtime::now());
            replies.push(rx.recv_timeout(remaining)?);
        }
        Some(replies)
    }

    /// Executes a read-only transaction: repeated rounds of per-key reads
    /// until a round observes no pending conflicting pieces and the same
    /// versions as the previous round.
    pub fn read_only(
        &self,
        keys: &[Key],
    ) -> (RococoReadOutcome, Option<BTreeMap<Key, Option<Value>>>) {
        self.read_only_traced(keys, None)
    }

    /// [`RococoSession::read_only`] carrying an optional phase trace (one
    /// `read` span over every validation round; the caller finishes the
    /// trace with the final outcome).
    pub fn read_only_traced(
        &self,
        keys: &[Key],
        trace: Option<&mut TxnTrace>,
    ) -> (RococoReadOutcome, Option<BTreeMap<Key, Option<Value>>>) {
        if !keys.is_empty() {
            if let Some(trace) = trace {
                trace.enter(Phase::Read);
            }
        }
        // The per-round replies do not identify their key (the reply channel
        // interleaves them), so issue the reads key by key: this also
        // mirrors ROCOCO's per-piece read-only rounds.
        let mut previous_versions: Option<Vec<u64>> = None;
        for _round in 0..self.cluster.config.read_only_max_rounds {
            let mut values = BTreeMap::new();
            let mut versions = Vec::with_capacity(keys.len());
            let mut pending_conflicts = false;
            let mut failed = false;
            for key in keys {
                match self.snapshot_round(std::slice::from_ref(key)) {
                    Some(mut replies) => {
                        let reply = replies.pop().expect("one reply per key");
                        pending_conflicts |= reply.pending > 0;
                        versions.push(reply.version);
                        values.insert(key.clone(), reply.value);
                    }
                    None => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                return (RococoReadOutcome::Aborted, None);
            }
            if !pending_conflicts {
                if let Some(prev) = &previous_versions {
                    if *prev == versions {
                        return (RococoReadOutcome::Committed, Some(values));
                    }
                } else if keys.len() <= 1 {
                    // A single-key read is trivially consistent.
                    return (RococoReadOutcome::Committed, Some(values));
                }
            }
            previous_versions = Some(versions);
            // Back off only while pieces are pending: they resolve on their
            // own and re-reading immediately would spin. A bare version
            // mismatch means a concurrent committed write; retrying at once
            // keeps the two-round validation window as short as the reads
            // themselves, which is what bounds livelock under sustained
            // write pressure.
            if pending_conflicts {
                sss_vclock::runtime::sleep(self.cluster.config.read_only_backoff);
            }
        }
        (RococoReadOutcome::Aborted, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_never_abort_and_become_visible() {
        let cluster = RococoCluster::start(RococoConfig::new(3));
        let session = cluster.session(0);
        let k = Key::new("x");
        assert!(session.update(&[(k.clone(), Value::from_u64(9))]));
        let (outcome, values) = session.read_only(std::slice::from_ref(&k));
        assert_eq!(outcome, RococoReadOutcome::Committed);
        assert_eq!(
            values.unwrap().get(&k).cloned().flatten(),
            Some(Value::from_u64(9))
        );
        cluster.shutdown();
    }

    #[test]
    fn multi_key_read_only_requires_stable_versions() {
        let cluster = RococoCluster::start(RococoConfig::new(2));
        let session = cluster.session(0);
        let a = Key::new("a");
        let b = Key::new("b");
        assert!(session.update(&[
            (a.clone(), Value::from_u64(1)),
            (b.clone(), Value::from_u64(1))
        ]));
        let (outcome, values) = session.read_only(&[a.clone(), b.clone()]);
        assert_eq!(outcome, RococoReadOutcome::Committed);
        let values = values.unwrap();
        assert_eq!(values.get(&a).cloned().flatten(), Some(Value::from_u64(1)));
        assert_eq!(values.get(&b).cloned().flatten(), Some(Value::from_u64(1)));
        cluster.shutdown();
    }

    #[test]
    fn concurrent_writers_are_serialized_per_key() {
        let cluster = Arc::new(RococoCluster::start(RococoConfig::new(2)));
        let k = Key::new("hot");
        let handles: Vec<_> =
            (0..4)
                .map(|i| {
                    let cluster = Arc::clone(&cluster);
                    let k = k.clone();
                    std::thread::spawn(move || {
                        let session = cluster.session(i % 2);
                        for j in 0..10 {
                            assert!(
                                session.update(&[(k.clone(), Value::from_u64(i as u64 * 100 + j))])
                            );
                        }
                    })
                })
                .collect();
        for h in handles {
            h.join().unwrap();
        }
        let session = cluster.session(0);
        let (outcome, values) = session.read_only(std::slice::from_ref(&k));
        assert_eq!(outcome, RococoReadOutcome::Committed);
        assert!(values.unwrap().get(&k).cloned().flatten().is_some());
        cluster.shutdown();
    }
}
