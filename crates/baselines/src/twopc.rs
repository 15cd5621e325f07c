//! The 2PC-baseline engine.
//!
//! Per the paper (§V): every transaction — including read-only ones —
//! executes like an SSS update transaction: reads return the current value
//! of a single-version store, writes are buffered, and at commit time the
//! transaction locks its read and write sets, validates that no read key was
//! overwritten, and installs its writes through two-phase commit. Read-only
//! transactions can therefore abort, which is the behaviour the paper's
//! scalability comparison hinges on. The protocol is external consistent:
//! a transaction holds its locks until its writes are installed, so its
//! client-visible completion happens after its serialization point.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sss_net::{
    reply_channel, ClusterConfig, ClusterHost, Envelope, NodeService, Priority, ReplySender,
    TransportExt,
};
use sss_obs::{ObsHub, Phase, TxnTrace};
use sss_storage::{Key, LockKind, LockTable, RecentTxnSet, ReplicaMap, SvStore, TxnId, Value};
use sss_vclock::NodeId;

/// Human-readable labels of the 2PC-baseline message kinds, in
/// `TwoPcMessage::kind_index` order — the per-kind mailbox counters
/// (`MailboxStats::per_kind`) attribute traffic against this table.
pub const MESSAGE_KIND_LABELS: [&str; 3] = ["Read", "Prepare", "Decide"];

/// Configuration of a [`TwoPcCluster`].
#[derive(Debug, Clone)]
pub struct TwoPcConfig {
    /// The settings every engine shares (cluster shape, worker pools,
    /// network model, observability hub, scheduler, fault injector).
    pub cluster: ClusterConfig,
    /// Lock-acquisition timeout (1ms in the paper's evaluation).
    pub lock_timeout: Duration,
    /// Timeout for reads and 2PC votes.
    pub rpc_timeout: Duration,
}

impl TwoPcConfig {
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
        TwoPcConfig {
            cluster,
            lock_timeout: Duration::from_millis(1),
            rpc_timeout: Duration::from_secs(1),
        }
    }
}

/// Reply to a read.
#[derive(Debug, Clone)]
struct ReadReply {
    value: Option<Value>,
    version: u64,
}

/// Reply to a prepare.
#[derive(Debug, Clone, Copy)]
struct VoteReply {
    from: NodeId,
    ok: bool,
}

/// Acknowledgement that a participant processed a commit decide (its local
/// writes are installed and its locks released).
#[derive(Debug, Clone, Copy)]
struct DecideAck {
    from: NodeId,
}

/// The 2PC-baseline wire protocol.
#[derive(Debug, Clone)]
enum TwoPcMessage {
    Read {
        key: Key,
        reply: ReplySender<ReadReply>,
    },
    Prepare {
        txn: TxnId,
        read_versions: Vec<(Key, u64)>,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<VoteReply>,
    },
    Decide {
        txn: TxnId,
        outcome: bool,
        /// Commit decides are acknowledged so the coordinator can delay the
        /// client response until every participant installed the writes —
        /// the client-visible completion must follow the serialization
        /// point (paper §V). Abort decides carry no reply.
        ack: Option<ReplySender<DecideAck>>,
    },
}

impl TwoPcMessage {
    /// Dense per-kind index into [`MESSAGE_KIND_LABELS`], for the
    /// transport's per-kind mailbox counters.
    fn kind_index(&self) -> usize {
        match self {
            TwoPcMessage::Read { .. } => 0,
            TwoPcMessage::Prepare { .. } => 1,
            TwoPcMessage::Decide { .. } => 2,
        }
    }
}

#[derive(Debug)]
struct PreparedTxn {
    local_writes: Vec<(Key, Value)>,
}

struct TwoPcNode {
    id: NodeId,
    replicas: ReplicaMap,
    /// Sharded and internally synchronized — read and written concurrently
    /// by the node's workers without an enclosing lock.
    store: SvStore,
    prepared: Mutex<HashMap<TxnId, PreparedTxn>>,
    /// Transactions whose `Decide` has been processed here. The
    /// high-priority decide can overtake its lower-priority `Prepare` in
    /// the mailbox; a late prepare for a decided transaction must not
    /// (re-)acquire locks, or they would never be released and every later
    /// transaction touching those keys would abort forever.
    decided: Mutex<RecentTxnSet>,
    locks: LockTable,
    lock_timeout: Duration,
    aborts: AtomicU64,
    commits: AtomicU64,
    obs: Option<Arc<ObsHub>>,
}

impl TwoPcNode {
    fn handle_read(&self, key: Key, reply: ReplySender<ReadReply>) {
        // One sharded read returns the whole cell, so the value/version
        // pair is consistent (it is read under the key's shard lock).
        let cell = self.store.read(&key);
        reply.send(ReadReply {
            version: cell.as_ref().map(|c| c.version).unwrap_or(0),
            value: cell.map(|c| c.value),
        });
    }

    fn handle_prepare(
        &self,
        txn: TxnId,
        read_versions: Vec<(Key, u64)>,
        write_set: Vec<(Key, Value)>,
        reply: ReplySender<VoteReply>,
    ) {
        // The coordinator may already have decided (an abort decide
        // overtaking this prepare): vote no without acquiring anything.
        if self.decided.lock().contains(&txn) {
            self.aborts.fetch_add(1, Ordering::Relaxed);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
            });
            return;
        }
        // Duplicate delivery of a prepare already being processed: drop it
        // without a second vote (the original copy's vote is guaranteed to
        // arrive, and extra votes can crowd distinct ones out of the
        // coordinator's bounded reply channel).
        if self.prepared.lock().contains_key(&txn) {
            return;
        }
        let local_reads: Vec<(Key, u64)> = read_versions
            .into_iter()
            .filter(|(k, _)| self.replicas.is_replica(self.id, k))
            .collect();
        let local_writes: Vec<(Key, Value)> = write_set
            .into_iter()
            .filter(|(k, _)| self.replicas.is_replica(self.id, k))
            .collect();
        let requests = local_writes
            .iter()
            .map(|(k, _)| (k, LockKind::Exclusive))
            .chain(local_reads.iter().map(|(k, _)| (k, LockKind::Shared)));
        let lock_started = self.obs.as_ref().map(|_| sss_vclock::runtime::now());
        let acquired = self.locks.acquire_many(txn, requests, self.lock_timeout);
        if let (Some(hub), Some(started)) = (self.obs.as_ref(), lock_started) {
            hub.record_server_span(self.id.index(), Phase::LockAcquire, started);
        }
        if !acquired {
            self.aborts.fetch_add(1, Ordering::Relaxed);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
            });
            return;
        }
        // Validation: every locally stored read key must still have the
        // version observed during execution. The shared locks acquired
        // above pin the versions, so per-key sharded reads suffice.
        let valid = local_reads
            .iter()
            .all(|(k, version)| self.store.version(k) == *version);
        if !valid {
            self.locks.release_all(txn);
            self.aborts.fetch_add(1, Ordering::Relaxed);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
            });
            return;
        }
        self.prepared
            .lock()
            .insert(txn, PreparedTxn { local_writes });
        // Re-check after publishing the prepared entry: a decide processed
        // between the entry check above and this point has already released
        // (or will never release) our locks, so roll the prepare back
        // instead of leaving locked keys behind.
        if self.decided.lock().contains(&txn) {
            if self.prepared.lock().remove(&txn).is_some() {
                self.locks.release_all(txn);
            }
            self.aborts.fetch_add(1, Ordering::Relaxed);
            reply.send(VoteReply {
                from: self.id,
                ok: false,
            });
            return;
        }
        reply.send(VoteReply {
            from: self.id,
            ok: true,
        });
    }

    fn handle_decide(&self, txn: TxnId, outcome: bool, ack: Option<ReplySender<DecideAck>>) {
        // Tombstone before touching the prepared map, so a prepare racing
        // with this decide observes the decision no matter how the two
        // interleave (see `TwoPcNode::decided`).
        let first_copy = self.decided.lock().insert(txn);
        let prepared = self.prepared.lock().remove(&txn);
        if let Some(prep) = prepared {
            if outcome {
                // The exclusive locks held by `txn` serialize these writes
                // against concurrent validation of the same keys.
                for (key, value) in prep.local_writes {
                    self.store.write(key, value, txn);
                }
                self.commits.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.locks.release_all(txn);
        // Acknowledge only the first delivery: the coordinator's reply
        // channel is bounded by the participant count, and a duplicated
        // decide's extra ack could crowd a distinct participant's ack out
        // of it (same race as the SSS `ConfirmExternal` dedup).
        if first_copy {
            if let Some(ack) = ack {
                ack.send(DecideAck { from: self.id });
            }
        }
    }
}

impl NodeService<TwoPcMessage> for TwoPcNode {
    fn handle(&self, envelope: Envelope<TwoPcMessage>) {
        match envelope.payload {
            TwoPcMessage::Read { key, reply } => self.handle_read(key, reply),
            TwoPcMessage::Prepare {
                txn,
                read_versions,
                write_set,
                reply,
            } => self.handle_prepare(txn, read_versions, write_set, reply),
            TwoPcMessage::Decide { txn, outcome, ack } => self.handle_decide(txn, outcome, ack),
        }
    }
}

/// A running 2PC-baseline cluster.
pub struct TwoPcCluster {
    config: TwoPcConfig,
    host: ClusterHost<TwoPcMessage>,
    nodes: Vec<Arc<TwoPcNode>>,
    next_txn: AtomicU64,
}

impl TwoPcCluster {
    /// Boots the cluster on a [`ClusterHost`].
    pub fn start(config: TwoPcConfig) -> Self {
        let host = ClusterHost::new(&config.cluster, TwoPcMessage::kind_index);
        let replicas = config.cluster.replica_map();
        let nodes: Vec<Arc<TwoPcNode>> = (0..config.cluster.nodes)
            .map(|i| {
                Arc::new(TwoPcNode {
                    id: NodeId(i),
                    replicas: replicas.clone(),
                    store: SvStore::with_shards(config.cluster.storage_shards),
                    prepared: Mutex::new(HashMap::new()),
                    decided: Mutex::new(RecentTxnSet::new(1 << 16)),
                    locks: LockTable::with_shards(config.cluster.storage_shards),
                    lock_timeout: config.lock_timeout,
                    aborts: AtomicU64::new(0),
                    commits: AtomicU64::new(0),
                    obs: config.cluster.observability.clone(),
                })
            })
            .collect();
        host.start(&nodes);
        TwoPcCluster {
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

    /// Aggregated storage-layer counters (single-version store and lock
    /// table, with per-shard contention breakdowns) summed over every node.
    pub fn storage_stats(&self) -> sss_storage::StorageStats {
        let mut total = sss_storage::StorageStats::default();
        for node in &self.nodes {
            total.merge(&sss_storage::StorageStats {
                mv: None,
                sv: Some(node.store.stats()),
                locks: Some(node.locks.stats()),
            });
        }
        total
    }

    /// Aggregated mailbox traffic counters summed over every node.
    pub fn mailbox_totals(&self) -> sss_net::MailboxStats {
        self.host.mailbox_totals()
    }

    /// Total commits applied across nodes (diagnostic).
    pub fn applied_commits(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.commits.load(Ordering::Relaxed))
            .sum()
    }

    /// Total negative votes across nodes (diagnostic).
    pub fn vote_aborts(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.aborts.load(Ordering::Relaxed))
            .sum()
    }

    /// Opens a session colocated with `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn session(&self, node: usize) -> TwoPcSession<'_> {
        assert!(node < self.nodes.len(), "node index out of range");
        TwoPcSession {
            cluster: self,
            node: NodeId(node),
        }
    }

    /// Shuts down the cluster. Idempotent.
    pub fn shutdown(&self) {
        self.host.shutdown();
    }

    fn replicas(&self) -> ReplicaMap {
        self.config.cluster.replica_map()
    }
}

impl std::fmt::Debug for TwoPcCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoPcCluster")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// Outcome of a 2PC-baseline transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPcOutcome {
    /// The transaction committed.
    Committed,
    /// The transaction aborted (lock timeout or validation failure) and may
    /// be retried.
    Aborted,
}

/// A client session colocated with one node.
#[derive(Debug, Clone, Copy)]
pub struct TwoPcSession<'c> {
    cluster: &'c TwoPcCluster,
    node: NodeId,
}

impl<'c> TwoPcSession<'c> {
    fn read(&self, key: &Key) -> Option<(Option<Value>, u64)> {
        let replicas = self.cluster.replicas().replicas(key);
        let (reply, rx) = reply_channel(replicas.len());
        let msg = TwoPcMessage::Read {
            key: key.clone(),
            reply,
        };
        let _ = self
            .cluster
            .host
            .transport()
            .multicast(self.node, replicas, msg, Priority::Normal);
        rx.recv_timeout(self.cluster.config.rpc_timeout)
            .map(|r| (r.value, r.version))
    }

    /// Executes a transaction that reads `read_keys` and installs `writes`
    /// (either may be empty — read-only transactions simply have no writes,
    /// but still validate and may abort).
    pub fn execute(
        &self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
    ) -> (TwoPcOutcome, Option<BTreeMap<Key, Option<Value>>>) {
        self.execute_traced(read_keys, writes, None)
    }

    /// [`TwoPcSession::execute`] carrying an optional phase trace: spans
    /// open at the read / prepare / decide / install-ack boundaries. The
    /// caller finishes the trace with the final outcome (which also closes
    /// the span left open on return).
    pub fn execute_traced(
        &self,
        read_keys: &[Key],
        writes: &[(Key, Value)],
        mut trace: Option<&mut TxnTrace>,
    ) -> (TwoPcOutcome, Option<BTreeMap<Key, Option<Value>>>) {
        let txn = TxnId::new(
            self.node,
            self.cluster.next_txn.fetch_add(1, Ordering::Relaxed),
        );
        let mut observed = BTreeMap::new();
        let mut read_versions = Vec::with_capacity(read_keys.len());
        if !read_keys.is_empty() {
            if let Some(trace) = trace.as_deref_mut() {
                trace.enter(Phase::Read);
            }
        }
        for key in read_keys {
            let Some((value, version)) = self.read(key) else {
                return (TwoPcOutcome::Aborted, None);
            };
            observed.insert(key.clone(), value);
            read_versions.push((key.clone(), version));
        }

        let replica_map = self.cluster.replicas();
        let write_keys: Vec<Key> = writes.iter().map(|(k, _)| k.clone()).collect();
        let participants = replica_map.replicas_of_all(read_keys.iter().chain(write_keys.iter()));
        if participants.is_empty() {
            return (TwoPcOutcome::Committed, Some(observed));
        }

        let (reply, rx) = reply_channel(participants.len());
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter(Phase::Prepare);
        }
        let prepare = TwoPcMessage::Prepare {
            txn,
            read_versions,
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
        let mut ok = true;
        // Votes are deduplicated by sender: under message duplication a
        // participant's vote can arrive twice, and counting replies alone
        // could reach the participant total while a negative vote from a
        // slower node was still outstanding.
        let mut voted: HashSet<NodeId> = HashSet::new();
        while voted.len() < participants.len() {
            let remaining = deadline.saturating_duration_since(sss_vclock::runtime::now());
            match rx.recv_timeout(remaining) {
                Some(vote) => {
                    if !voted.insert(vote.from) {
                        continue;
                    }
                    if !vote.ok {
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
        // Commit decides are acknowledged: the client is answered only once
        // every participant installed the writes and released its locks, so
        // the client-visible completion follows the serialization point
        // even though the decide itself travels asynchronously. Abort
        // decides are fire-and-forget.
        let (ack_reply, ack_rx) = reply_channel(participants.len());
        if let Some(trace) = trace.as_deref_mut() {
            trace.enter(Phase::Decide);
        }
        let decide = TwoPcMessage::Decide {
            txn,
            outcome: ok,
            ack: ok.then_some(ack_reply),
        };
        let _ = self.cluster.host.transport().multicast(
            self.node,
            participants.iter().copied(),
            decide,
            Priority::High,
        );
        if ok {
            // Wait for the installation acks, deduplicated by sender (the
            // network may duplicate the decide). A timeout does not change
            // the outcome — the transaction *is* committed — it only stops
            // the client from waiting on a wedged participant forever.
            if let Some(trace) = trace {
                trace.enter(Phase::InstallAck);
            }
            let deadline = sss_vclock::runtime::now() + self.cluster.config.rpc_timeout;
            let mut acked: HashSet<NodeId> = HashSet::new();
            while acked.len() < participants.len() {
                let remaining = deadline.saturating_duration_since(sss_vclock::runtime::now());
                match ack_rx.recv_timeout(remaining) {
                    Some(ack) => {
                        acked.insert(ack.from);
                    }
                    None => break,
                }
            }
            (TwoPcOutcome::Committed, Some(observed))
        } else {
            (TwoPcOutcome::Aborted, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_net::Transport;

    #[test]
    fn committed_writes_are_visible_to_later_reads() {
        let cluster = TwoPcCluster::start(TwoPcConfig::new(3));
        let session = cluster.session(0);
        let k = Key::new("x");
        let (outcome, _) = session.execute(&[], &[(k.clone(), Value::from_u64(7))]);
        assert_eq!(outcome, TwoPcOutcome::Committed);
        let (outcome, observed) = session.execute(std::slice::from_ref(&k), &[]);
        assert_eq!(outcome, TwoPcOutcome::Committed);
        assert_eq!(
            observed.unwrap().get(&k).cloned().flatten(),
            Some(Value::from_u64(7))
        );
        assert!(cluster.applied_commits() >= 1);
        cluster.shutdown();
    }

    #[test]
    fn conflicting_writer_forces_validation_abort() {
        let cluster = TwoPcCluster::start(TwoPcConfig::new(2));
        let s0 = cluster.session(0);
        let s1 = cluster.session(1);
        let k = Key::new("hot");
        let (outcome, _) = s0.execute(&[], &[(k.clone(), Value::from_u64(1))]);
        assert_eq!(outcome, TwoPcOutcome::Committed);

        // s1 reads version 1, then s0 overwrites, then s1's read-only commit
        // must fail validation... but because execute() is atomic here we
        // emulate the stale read by issuing the overwrite from a read the
        // session took earlier. Simplest deterministic check: a read-write
        // transaction whose read version is stale aborts.
        let stale_version = 1u64;
        let replicas = cluster.replicas().replicas(&k);
        let (reply, rx) = reply_channel(replicas.len());
        // Overwrite to make version 2.
        let (outcome, _) = s0.execute(&[], &[(k.clone(), Value::from_u64(2))]);
        assert_eq!(outcome, TwoPcOutcome::Committed);
        // Now prepare with the stale version by hand.
        let txn = TxnId::new(NodeId(1), 999);
        let prepare = TwoPcMessage::Prepare {
            txn,
            read_versions: vec![(k.clone(), stale_version)],
            write_set: vec![],
            reply,
        };
        for target in &replicas {
            cluster
                .host
                .transport()
                .send(NodeId(1), *target, prepare.clone(), Priority::Normal)
                .unwrap();
        }
        let vote = rx.recv().unwrap();
        assert!(!vote.ok, "stale read version must fail validation");
        let _ = s1;
        cluster.shutdown();
    }

    #[test]
    fn read_only_transactions_go_through_2pc() {
        let cluster = TwoPcCluster::start(TwoPcConfig::new(2));
        let session = cluster.session(1);
        let (outcome, observed) = session.execute(&[Key::new("missing")], &[]);
        assert_eq!(outcome, TwoPcOutcome::Committed);
        assert_eq!(
            observed
                .unwrap()
                .get(&Key::new("missing"))
                .cloned()
                .flatten(),
            None
        );
        cluster.shutdown();
    }
}
