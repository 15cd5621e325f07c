//! A Walter-style Parallel Snapshot Isolation (PSI) engine.
//!
//! Walter (Sovran et al., SOSP 2011) is included in the paper's evaluation
//! because, like SSS, it synchronizes nodes with vector clocks — but it only
//! provides PSI, "a weaker isolation level than external consistency and
//! even serializability" (§V). The engine below captures the properties the
//! comparison relies on:
//!
//! * multi-version storage stamped with vector clocks,
//! * transactions read from the snapshot defined by their start vector
//!   clock; read-only transactions never validate, never wait and never
//!   abort,
//! * update transactions detect only write-write conflicts
//!   (first-committer-wins on the written keys) through a lightweight
//!   prepare/decide round — there is no read validation and no
//!   client-response delay, which is exactly why Walter outperforms SSS
//!   while offering weaker guarantees (long forks are possible).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sss_net::{
    reply_channel, ClusterConfig, ClusterHost, Envelope, NodeService, Priority, ReplySender,
    TransportExt,
};
use sss_obs::{ObsHub, Phase, TxnTrace};
use sss_storage::{Key, LockKind, LockTable, MvStore, RecentTxnSet, ReplicaMap, TxnId, Value};
use sss_vclock::{NodeId, VectorClock};

/// Human-readable labels of the Walter message kinds, in
/// `WalterMessage::kind_index` order — the per-kind mailbox counters
/// (`MailboxStats::per_kind`) attribute traffic against this table.
pub const MESSAGE_KIND_LABELS: [&str; 3] = ["Read", "Prepare", "Decide"];

/// Configuration of a [`WalterCluster`].
#[derive(Debug, Clone)]
pub struct WalterConfig {
    /// The settings every engine shares (cluster shape, worker pools,
    /// network model, observability hub, scheduler, fault injector).
    pub cluster: ClusterConfig,
    /// Lock-acquisition timeout for write-write conflict detection.
    pub lock_timeout: Duration,
    /// Timeout for reads and votes.
    pub rpc_timeout: Duration,
}

impl WalterConfig {
    /// Defaults matching the paper's setup.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        Self::on(ClusterConfig::new(nodes))
    }

    /// The protocol defaults on the given shared cluster settings.
    pub fn on(cluster: ClusterConfig) -> Self {
        WalterConfig {
            cluster,
            lock_timeout: Duration::from_millis(1),
            rpc_timeout: Duration::from_secs(1),
        }
    }
}

#[derive(Debug, Clone)]
#[allow(dead_code)] // version_vc is kept for symmetry with the protocol message
struct ReadReply {
    value: Option<Value>,
    version_vc: Option<std::sync::Arc<VectorClock>>,
}

#[derive(Debug, Clone)]
#[allow(dead_code)] // carries protocol metadata useful for tracing
struct VoteReply {
    from: NodeId,
    ok: bool,
    proposed: VectorClock,
}

#[derive(Debug, Clone)]
enum WalterMessage {
    Read {
        key: Key,
        snapshot: VectorClock,
        reply: ReplySender<ReadReply>,
    },
    Prepare {
        txn: TxnId,
        snapshot: VectorClock,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<VoteReply>,
    },
    Decide {
        txn: TxnId,
        commit_vc: VectorClock,
        outcome: bool,
    },
}

impl WalterMessage {
    /// Dense per-kind index into [`MESSAGE_KIND_LABELS`], for the
    /// transport's per-kind mailbox counters.
    fn kind_index(&self) -> usize {
        match self {
            WalterMessage::Read { .. } => 0,
            WalterMessage::Prepare { .. } => 1,
            WalterMessage::Decide { .. } => 2,
        }
    }
}

#[derive(Debug)]
struct PreparedTxn {
    local_writes: Vec<(Key, Value)>,
}

struct WalterNode {
    id: NodeId,
    replicas: ReplicaMap,
    lock_timeout: Duration,
    state: Mutex<WalterNodeState>,
    /// Sharded and internally synchronized, held *outside* the state mutex:
    /// snapshot reads walk version chains without serializing on the node's
    /// protocol state, and commit-time installs only take the written key's
    /// shard lock.
    store: MvStore,
    locks: LockTable,
    obs: Option<Arc<ObsHub>>,
}

struct WalterNodeState {
    node_vc: VectorClock,
    prepared: HashMap<TxnId, PreparedTxn>,
    /// Transactions whose `Decide` has been processed here. A
    /// high-priority decide can overtake its lower-priority `Prepare` in
    /// the mailbox; a late prepare for a decided transaction must not
    /// keep locks, or they would never be released (see the 2PC baseline
    /// for the same race).
    decided: RecentTxnSet,
}

impl WalterNode {
    fn handle_read(&self, key: Key, snapshot: VectorClock, reply: ReplySender<ReadReply>) {
        // PSI visibility: the newest version whose commit vector clock is
        // contained in the reader's start snapshot. No protocol-state lock
        // is needed: every version inside the snapshot was installed before
        // the snapshot's clock was published (decide applies writes before
        // merging `node_vc`), and the chain handle is an immutable
        // copy-on-write snapshot.
        let version = self.store.chain(&key).and_then(|chain| {
            chain
                .latest_matching(|v| v.vc.le(&snapshot))
                .map(|v| (v.value.clone(), v.vc.clone()))
        });
        let (value, version_vc) = match version {
            Some((value, vc)) => (Some(value), Some(vc)),
            None => (None, None),
        };
        reply.send(ReadReply { value, version_vc });
    }

    fn handle_prepare(
        &self,
        txn: TxnId,
        snapshot: VectorClock,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<VoteReply>,
    ) {
        // The coordinator may already have decided (an abort decide
        // overtaking this prepare): vote no without acquiring anything.
        // Duplicate deliveries of a prepare already being processed are
        // dropped without a second vote (the original copy's vote is
        // guaranteed to arrive, and extra votes can crowd distinct ones out
        // of the coordinator's bounded reply channel).
        {
            let state = self.state.lock();
            if state.prepared.contains_key(&txn) {
                return;
            }
            if state.decided.contains(&txn) {
                drop(state);
                reply.send(VoteReply {
                    from: self.id,
                    ok: false,
                    proposed: snapshot,
                });
                return;
            }
        }
        let local_writes: Vec<(Key, Value)> = write_set
            .into_iter()
            .filter(|(k, _)| self.replicas.is_replica(self.id, k))
            .collect();
        let lock_requests = local_writes.iter().map(|(k, _)| (k, LockKind::Exclusive));
        let lock_started = self.obs.as_ref().map(|_| sss_vclock::runtime::now());
        let acquired = self
            .locks
            .acquire_many(txn, lock_requests, self.lock_timeout);
        if let (Some(hub), Some(started)) = (self.obs.as_ref(), lock_started) {
            hub.record_server_span(self.id.index(), Phase::LockAcquire, started);
        }
        if !acquired {
            let snapshot_out = snapshot.clone();
            reply.send(VoteReply {
                from: self.id,
                ok: false,
                proposed: snapshot_out,
            });
            return;
        }
        let mut state = self.state.lock();
        // First-committer-wins: abort if any written key already has a
        // version outside the transaction's start snapshot. The exclusive
        // locks acquired above pin the written keys' latest versions.
        let conflict = local_writes.iter().any(|(k, _)| {
            self.store
                .last(k)
                .map(|v| !v.vc.le(&snapshot))
                .unwrap_or(false)
        });
        if conflict {
            drop(state);
            self.locks.release_all(txn);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
                proposed: snapshot,
            });
            return;
        }
        // Re-check under the state lock (the decide also runs under it):
        // a decide processed while we were acquiring key locks has already
        // released them, so the prepare must roll back instead of leaving
        // locked keys behind. A duplicate that raced past the entry check
        // is dropped before it can double-prepare — *without* releasing:
        // the lock table is reentrant per transaction, so the duplicate's
        // acquisition aliased the original's locks, which must stay held
        // until the decide.
        if state.prepared.contains_key(&txn) {
            return;
        }
        if state.decided.contains(&txn) {
            drop(state);
            self.locks.release_all(txn);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
                proposed: snapshot,
            });
            return;
        }
        let i = self.id.index();
        state.node_vc.increment(i);
        let proposed = state.node_vc.clone();
        state.prepared.insert(txn, PreparedTxn { local_writes });
        drop(state);
        reply.send(VoteReply {
            from: self.id,
            ok: true,
            proposed,
        });
    }

    fn handle_decide(&self, txn: TxnId, commit_vc: VectorClock, outcome: bool) {
        let mut state = self.state.lock();
        state.decided.insert(txn);
        if let Some(prep) = state.prepared.remove(&txn) {
            if outcome {
                // Install the versions *before* merging `node_vc` (still
                // under the state lock): a snapshot that covers `commit_vc`
                // can only be taken after the merge, by which point every
                // version it admits is already in the store.
                // One shared clock for every version this transaction
                // installs.
                let shared_vc = std::sync::Arc::new(commit_vc.clone());
                for (key, value) in prep.local_writes {
                    self.store
                        .apply(key, value, std::sync::Arc::clone(&shared_vc), txn);
                }
                state.node_vc.merge(&commit_vc);
            }
        }
        drop(state);
        self.locks.release_all(txn);
    }

    fn snapshot(&self) -> VectorClock {
        self.state.lock().node_vc.clone()
    }

    /// Folds a commit vector clock observed by a colocated client into the
    /// node's knowledge, so later transactions started here include it in
    /// their snapshot (Walter's background propagation, collapsed to the
    /// synchronous paths we exercise).
    fn observe(&self, vc: &VectorClock) {
        self.state.lock().node_vc.merge(vc);
    }
}

impl NodeService<WalterMessage> for WalterNode {
    fn handle(&self, envelope: Envelope<WalterMessage>) {
        match envelope.payload {
            WalterMessage::Read {
                key,
                snapshot,
                reply,
            } => self.handle_read(key, snapshot, reply),
            WalterMessage::Prepare {
                txn,
                snapshot,
                write_set,
                reply,
            } => self.handle_prepare(txn, snapshot, write_set, reply),
            WalterMessage::Decide {
                txn,
                commit_vc,
                outcome,
            } => self.handle_decide(txn, commit_vc, outcome),
        }
    }
}

/// A running Walter-style PSI cluster.
pub struct WalterCluster {
    config: WalterConfig,
    host: ClusterHost<WalterMessage>,
    nodes: Vec<Arc<WalterNode>>,
    next_txn: AtomicU64,
}

impl WalterCluster {
    /// Boots the cluster on a [`ClusterHost`].
    pub fn start(config: WalterConfig) -> Self {
        let host = ClusterHost::new(&config.cluster, WalterMessage::kind_index);
        let replicas = config.cluster.replica_map();
        let nodes: Vec<Arc<WalterNode>> = (0..config.cluster.nodes)
            .map(|i| {
                Arc::new(WalterNode {
                    id: NodeId(i),
                    replicas: replicas.clone(),
                    lock_timeout: config.lock_timeout,
                    state: Mutex::new(WalterNodeState {
                        node_vc: VectorClock::new(config.cluster.nodes),
                        prepared: HashMap::new(),
                        decided: RecentTxnSet::new(1 << 16),
                    }),
                    store: MvStore::with_shards(config.cluster.storage_shards),
                    locks: LockTable::with_shards(config.cluster.storage_shards),
                    obs: config.cluster.observability.clone(),
                })
            })
            .collect();
        host.start(&nodes);
        WalterCluster {
            config,
            host,
            nodes,
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

    /// Aggregated storage-layer counters (multi-version store and lock
    /// table, with per-shard contention breakdowns) summed over every node.
    pub fn storage_stats(&self) -> sss_storage::StorageStats {
        let mut total = sss_storage::StorageStats::default();
        for node in &self.nodes {
            total.merge(&sss_storage::StorageStats {
                mv: Some(node.store.stats()),
                sv: None,
                locks: Some(node.locks.stats()),
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
    pub fn session(&self, node: usize) -> WalterSession<'_> {
        assert!(node < self.nodes.len(), "node index out of range");
        WalterSession {
            cluster: self,
            node: NodeId(node),
        }
    }

    /// Shuts the cluster down. Idempotent.
    pub fn shutdown(&self) {
        self.host.shutdown();
    }

    fn replicas(&self) -> ReplicaMap {
        self.config.cluster.replica_map()
    }
}

impl std::fmt::Debug for WalterCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalterCluster")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// Outcome of a Walter transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalterOutcome {
    /// The transaction committed.
    Committed,
    /// A write-write conflict aborted the transaction.
    Aborted,
}

/// A client session colocated with one node.
#[derive(Debug, Clone, Copy)]
pub struct WalterSession<'c> {
    cluster: &'c WalterCluster,
    node: NodeId,
}

impl<'c> WalterSession<'c> {
    fn start_snapshot(&self) -> VectorClock {
        self.cluster.nodes[self.node.index()].snapshot()
    }

    fn read_at(&self, key: &Key, snapshot: &VectorClock) -> Option<Option<Value>> {
        let replicas = self.cluster.replicas().replicas(key);
        let (reply, rx) = reply_channel(replicas.len());
        let msg = WalterMessage::Read {
            key: key.clone(),
            snapshot: snapshot.clone(),
            reply,
        };
        let _ = self
            .cluster
            .host
            .transport()
            .multicast(self.node, replicas, msg, Priority::Normal);
        rx.recv_timeout(self.cluster.config.rpc_timeout)
            .map(|r| r.value)
    }

    /// Executes a read-only transaction over `read_keys`. Never aborts.
    ///
    /// Returns `None` only if the cluster is shutting down (a read timed
    /// out).
    pub fn read_only(&self, read_keys: &[Key]) -> Option<BTreeMap<Key, Option<Value>>> {
        self.read_only_traced(read_keys, None)
    }

    /// [`WalterSession::read_only`] carrying an optional phase trace (one
    /// `read` span over the snapshot reads; the caller finishes the trace).
    pub fn read_only_traced(
        &self,
        read_keys: &[Key],
        trace: Option<&mut TxnTrace>,
    ) -> Option<BTreeMap<Key, Option<Value>>> {
        let snapshot = self.start_snapshot();
        let mut out = BTreeMap::new();
        if !read_keys.is_empty() {
            if let Some(trace) = trace {
                trace.enter(Phase::Read);
            }
        }
        for key in read_keys {
            out.insert(key.clone(), self.read_at(key, &snapshot)?);
        }
        Some(out)
    }

    /// Executes an update transaction: reads `read_keys` from the start
    /// snapshot, then commits `writes` if no write-write conflict occurred.
    pub fn update(
        &self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (WalterOutcome, Option<BTreeMap<Key, Option<Value>>>) {
        self.update_traced(read_keys, writes, None)
    }

    /// [`WalterSession::update`] carrying an optional phase trace: spans
    /// open at the read / prepare / decide boundaries. The caller finishes
    /// the trace with the final outcome.
    pub fn update_traced(
        &self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
        mut trace: Option<&mut TxnTrace>,
    ) -> (WalterOutcome, Option<BTreeMap<Key, Option<Value>>>) {
        let snapshot = self.start_snapshot();
        let mut observed = BTreeMap::new();
        if !read_keys.is_empty() {
            if let Some(trace) = trace.as_deref_mut() {
                trace.enter(Phase::Read);
            }
        }
        for key in read_keys {
            match self.read_at(key, &snapshot) {
                Some(value) => {
                    observed.insert(key.clone(), value);
                }
                None => return (WalterOutcome::Aborted, None),
            }
        }
        if writes.is_empty() {
            return (WalterOutcome::Committed, Some(observed));
        }
        let txn = TxnId::new(
            self.node,
            self.cluster.next_txn.fetch_add(1, Ordering::Relaxed),
        );
        let replica_map = self.cluster.replicas();
        let write_keys: Vec<Key> = writes.iter().map(|(k, _)| k.clone()).collect();
        let participants = replica_map.replicas_of_all(write_keys.iter());
        let (reply, rx) = reply_channel(participants.len());
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter(Phase::Prepare);
        }
        let prepare = WalterMessage::Prepare {
            txn,
            snapshot: snapshot.clone(),
            write_set: writes.to_vec(),
            reply,
        };
        let _ = self.cluster.host.transport().multicast(
            self.node,
            participants.iter().copied(),
            prepare,
            Priority::Normal,
        );
        let deadline = sss_vclock::runtime::now() + self.cluster.config.rpc_timeout;
        let mut commit_vc = snapshot;
        let mut ok = true;
        let mut votes = 0;
        while votes < participants.len() {
            let remaining = deadline.saturating_duration_since(sss_vclock::runtime::now());
            match rx.recv_timeout(remaining) {
                Some(vote) => {
                    votes += 1;
                    if vote.ok {
                        commit_vc.merge(&vote.proposed);
                    } else {
                        ok = false;
                        break;
                    }
                }
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if let Some(trace) = trace {
            trace.enter(Phase::Decide);
        }
        let decide = WalterMessage::Decide {
            txn,
            commit_vc,
            outcome: ok,
        };
        let commit_vc_for_client = match &decide {
            WalterMessage::Decide { commit_vc, .. } => commit_vc.clone(),
            _ => unreachable!("decide constructed above"),
        };
        let _ = self.cluster.host.transport().multicast(
            self.node,
            participants.iter().copied(),
            decide,
            Priority::High,
        );
        if ok {
            // The client observed its own commit: make it visible to the
            // snapshots of later transactions started on this node.
            self.cluster.nodes[self.node.index()].observe(&commit_vc_for_client);
            (WalterOutcome::Committed, Some(observed))
        } else {
            (WalterOutcome::Aborted, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::Transport;

    #[test]
    fn committed_writes_become_visible() {
        let cluster = WalterCluster::start(WalterConfig::new(3));
        let session = cluster.session(0);
        let k = Key::new("x");
        let (outcome, _) = session.update(&[], &[(k.clone(), Value::from_u64(5))]);
        assert_eq!(outcome, WalterOutcome::Committed);
        // A later snapshot (taken on the coordinating node) sees the write.
        let observed = session.read_only(std::slice::from_ref(&k)).unwrap();
        assert_eq!(
            observed.get(&k).cloned().flatten(),
            Some(Value::from_u64(5))
        );
        cluster.shutdown();
    }

    #[test]
    fn read_only_transactions_never_abort() {
        let cluster = WalterCluster::start(WalterConfig::new(2));
        let session = cluster.session(1);
        for _ in 0..10 {
            assert!(session.read_only(&[Key::new("a"), Key::new("b")]).is_some());
        }
        cluster.shutdown();
    }

    #[test]
    fn write_write_conflicts_use_first_committer_wins() {
        let cluster = WalterCluster::start(WalterConfig::new(2));
        let session = cluster.session(0);
        let k = Key::new("contended");
        // Install an initial version.
        let (outcome, _) = session.update(&[], &[(k.clone(), Value::from_u64(1))]);
        assert_eq!(outcome, WalterOutcome::Committed);

        // A writer whose start snapshot predates a concurrent committed
        // write must abort. Simulate by capturing the snapshot, committing
        // another write, then preparing against the stale snapshot.
        let stale_snapshot = cluster.nodes[0].snapshot();
        let (outcome, _) = session.update(&[], &[(k.clone(), Value::from_u64(2))]);
        assert_eq!(outcome, WalterOutcome::Committed);

        let replicas = cluster.replicas().replicas(&k);
        let (reply, rx) = reply_channel(replicas.len());
        let prepare = WalterMessage::Prepare {
            txn: TxnId::new(NodeId(0), 999),
            snapshot: stale_snapshot,
            write_set: vec![(k.clone(), Value::from_u64(3))],
            reply,
        };
        for target in &replicas {
            cluster
                .host
                .transport()
                .send(NodeId(0), *target, prepare.clone(), Priority::Normal)
                .unwrap();
        }
        let vote = rx.recv().unwrap();
        assert!(!vote.ok, "stale writer must lose first-committer-wins");
        cluster.shutdown();
    }
}
