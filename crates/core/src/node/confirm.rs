//! Epoch-grouped external-commit confirmation (the round coalescer).
//!
//! The base protocol runs one `ConfirmExternal` broadcast-and-ack round per
//! committed update transaction — the completion-order barrier that makes
//! client-observed completions match the serialization order (paper §III-C;
//! the §V priority discussion identifies this fan-out as the external-commit
//! cost center). The coalescer amortizes that round over a *coordinator
//! epoch*: one broadcast confirms every update transaction that pre-committed
//! on this node while the previous round was in flight (up to
//! [`crate::SssConfig::confirm_epoch_max`] per round), and the
//! `ReleaseExternal` / read-only `Remove` traffic of completed transactions
//! piggybacks inside the same envelope instead of travelling as dedicated
//! messages.
//!
//! # Self-clocking rounds, bounded linger
//!
//! The coalescer is *self-clocking*: the first committer to arrive while no
//! round is in flight becomes the **leader** and drives rounds until the
//! queue drains; committers arriving while a round is in flight enqueue and
//! wait for their round's result. An idle cluster therefore pays zero added
//! latency (a lone committer leads a singleton round immediately — exactly
//! the base protocol), while a loaded one amortizes one broadcast over the
//! whole window. Rounds on a fast network complete well before a window's
//! worth of committers can arrive, so between the rounds of one burst —
//! never before the first — the leader lingers for
//! [`crate::SssConfig::confirm_linger`] to let the next round fill (and to
//! give completed members' piggybacked releases a carrier). The wait for a
//! queued committer is therefore bounded by one in-flight round plus one
//! linger.
//!
//! Membership push and the leader's exit check run under the same lock, so a
//! committer either enqueues before the leader's final emptiness check (and
//! is covered by another round) or observes `in_flight == false` and leads
//! itself — no lost wakeups.
//!
//! # Why grouping is safe
//!
//! Grouping only *delays client responses*; it never advances them. Each
//! member's client is answered only after every node acknowledged a round
//! carrying the member's commit vector clock, so the base protocol's
//! guarantee — a transaction starting after the response, anywhere, begins
//! from a snapshot covering the member — holds per member exactly as in the
//! per-transaction rounds. Parked read-only reads are still released only
//! *after* their writer's round completed (the release rides the next round
//! or a standalone flush, both of which are sent only once the writer's
//! round collected all of its acks), so a release can never overtake its
//! confirmation at any node, even under fault-plan reordering. The
//! commit-queue ambiguity deferral and the snapshot pinning of read-only
//! transactions are decided entirely by vector clocks and queue contents,
//! which grouping does not alter.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use sss_net::{reply_channel, Priority, ReplyReceiver, ReplySender, TransportExt};
use sss_storage::TxnId;
use sss_vclock::{NodeId, VectorClock};

use crate::coalescer::{round_id, CoalescerCore, RoundPlan};
use crate::messages::{Ack, SssMessage};

use super::SssNode;

/// Per-node grouped-confirmation state: the pure decision core
/// ([`CoalescerCore`], shared with the `sss-model` interleaving harness)
/// behind the node's coalescer mutex. The waiter payload is the reply
/// channel on which the round leader reports the outcome (`true` iff every
/// node acknowledged).
#[derive(Default)]
pub(crate) struct ConfirmCoalescer {
    state: Mutex<CoalescerCore<ReplySender<bool>>>,
    /// Releases of completed rounds that a crash caught still buffered for
    /// piggybacking. Durable: those rounds collected every ack and their
    /// clients were answered, so their writers must still be released, or
    /// every read selecting their versions parks until
    /// `pending_global_hold_max`. Flushed by
    /// [`SssNode::flush_crash_releases`] once the node recovered.
    crash_releases: Mutex<Vec<TxnId>>,
}

impl ConfirmCoalescer {
    /// Crash-stop reset: drops every queued member (their waiters observe a
    /// dropped channel → a failed round → `ExternalCommitTimeout`, the
    /// degraded path committers already handle) and clears the leader flag
    /// so the next committer after restart leads a fresh round. The
    /// completed rounds' buffered releases move to the durable
    /// `crash_releases`. A leader thread still looping against the old
    /// state simply drains to `Exit`; its stale `round_completed` call lands
    /// in the fresh core's release queue, which only re-releases
    /// transactions whose round already collected acks or timed out — the
    /// same failure-path release as the base protocol.
    pub(crate) fn reset(&self) {
        let mut state = self.state.lock();
        self.crash_releases
            .lock()
            .extend_from_slice(state.pending_release_txns());
        *state = CoalescerCore::default();
    }
}

impl SssNode {
    /// Runs the external-commit confirmation of `txn` through the grouped
    /// coalescer: enqueues it for the next round, leads rounds if no leader
    /// is active, and returns once a round carrying `txn` completed —
    /// `true` iff every node acknowledged that round.
    pub(crate) fn confirm_external_grouped(&self, txn: TxnId, commit_vc: VectorClock) -> bool {
        let (waiter, receiver) = reply_channel(1);
        let lead = self
            .confirm
            .state
            .lock()
            .enqueue(txn, Arc::new(commit_vc), waiter);
        if lead {
            self.run_confirm_rounds();
        }
        receiver
            .recv_timeout(self.config().ack_timeout)
            .unwrap_or(false)
    }

    /// Piggybacks the `Remove` of a completed read-only transaction on the
    /// next confirmation round if one is already in flight (the broadcast is
    /// a superset of the targeted multicast, and the leader is actively
    /// looping, so the delay is bounded by that round). Returns `false` when
    /// no round is in flight — the caller must send a targeted `Remove`
    /// immediately, because parking the remove on an idle coalescer would
    /// hold blocked writers toward their `precommit_hold_max`.
    pub(crate) fn queue_remove_on_next_round(&self, txn: TxnId) -> bool {
        self.confirm.state.lock().queue_remove(txn)
    }

    /// Sends the releases a crash caught buffered (see
    /// [`ConfirmCoalescer::reset`]) as one `ReleaseExternal` to every node.
    /// Called once recovery marked the node available: a crashed node never
    /// sends.
    pub(crate) fn flush_crash_releases(&self) {
        let txns = std::mem::take(&mut *self.confirm.crash_releases.lock());
        if !txns.is_empty() {
            let _ = self.transport().multicast(
                self.id(),
                (0..self.config().cluster.nodes).map(NodeId),
                SssMessage::ReleaseExternal { txns },
                Priority::High,
            );
        }
    }

    /// Leader loop: drives confirmation rounds until the queue (and the
    /// piggyback payloads) drain. Runs on the committing client's thread —
    /// never on a mailbox worker, which must not block on acks.
    fn run_confirm_rounds(&self) {
        let all_nodes = self.config().cluster.nodes;
        let window = self.config().confirm_epoch_max.max(1);
        let piggyback = self.config().piggyback;
        let linger = self.config().confirm_linger;
        // The leader lingers briefly between rounds of a burst (never before
        // its first round, so a lone committer on an idle coordinator pays
        // nothing): rounds complete much faster than transactions arrive, and
        // without the pause every round would carry only the one or two
        // commits that happened to land while the previous round was in
        // flight. The pause lets a window's worth of committers accumulate —
        // and gives completed members' piggybacked releases a carrier — at a
        // bounded, configurable latency cost for the queued members.
        let mut lingered = false;
        let mut first_round = true;
        loop {
            // Exit, linger, flush, or round: decided by the pure core under
            // the same lock as the membership pushes (see the `coalescer`
            // module docs for why the exit can never strand a member).
            let may_linger = !first_round && !lingered && !linger.is_zero();
            let plan = self.confirm.state.lock().next_round(window, may_linger);
            let (batch, release, remove) = match plan {
                RoundPlan::Exit => return,
                RoundPlan::Linger => {
                    sss_vclock::runtime::sleep(linger);
                    lingered = true;
                    continue;
                }
                RoundPlan::Flush { release, remove } => {
                    // The confirm queue drained but piggyback payloads
                    // remain: no carrier is coming, flush them standalone.
                    // Removes go first — they can unblock waiting external
                    // commits.
                    first_round = false;
                    lingered = false;
                    if !remove.is_empty() {
                        let _ = self.transport().multicast(
                            self.id(),
                            (0..all_nodes).map(NodeId),
                            SssMessage::Remove { txns: remove },
                            Priority::High,
                        );
                    }
                    if !release.is_empty() {
                        let _ = self.transport().multicast(
                            self.id(),
                            (0..all_nodes).map(NodeId),
                            SssMessage::ReleaseExternal { txns: release },
                            Priority::High,
                        );
                    }
                    continue;
                }
                RoundPlan::Round {
                    batch,
                    release,
                    remove,
                } => (batch, release, remove),
            };
            first_round = false;
            lingered = false;

            // The round id (used by the ack dedup on the handler side) is
            // the first member's transaction.
            let round = round_id(&batch).expect("a planned round has members");
            let entries: Vec<(TxnId, Arc<VectorClock>)> = batch
                .iter()
                .map(|p| (p.txn, Arc::clone(&p.commit_vc)))
                .collect();
            let (reply, receiver) = reply_channel(all_nodes);
            let confirm = SssMessage::ConfirmExternal {
                entries,
                release,
                remove,
                reply,
            };
            let sent = self
                .transport()
                .multicast(
                    self.id(),
                    (0..all_nodes).map(NodeId),
                    confirm,
                    Priority::High,
                )
                .is_ok();
            let ok =
                sent && collect_round_acks(&receiver, round, all_nodes, self.config().ack_timeout);

            // The round is complete and its members' clients are about to be
            // answered: their parked readers may now be released. On success
            // and failure alike (a timed-out confirmation must still release,
            // or readers would stay parked forever — same as the base
            // protocol's failure-path release). With piggybacking the release
            // rides the next round; without it, it is flushed immediately as
            // its own broadcast (the A/B arm isolating the grouping win).
            let members: Vec<TxnId> = batch.iter().map(|p| p.txn).collect();
            if let Some(now) = self
                .confirm
                .state
                .lock()
                .round_completed(members, piggyback)
            {
                let _ = self.transport().multicast(
                    self.id(),
                    (0..all_nodes).map(NodeId),
                    SssMessage::ReleaseExternal { txns: now },
                    Priority::High,
                );
            }
            for member in batch {
                member.waiter.send(ok);
            }
        }
    }
}

/// Collects the round's acknowledgements: one per distinct node, matching
/// the round id, within `timeout`.
fn collect_round_acks(
    receiver: &ReplyReceiver<Ack>,
    round: TxnId,
    expected: usize,
    timeout: Duration,
) -> bool {
    let deadline = sss_vclock::runtime::now() + timeout;
    let mut seen = vec![false; expected];
    let mut distinct = 0;
    while distinct < expected {
        let remaining = deadline.saturating_duration_since(sss_vclock::runtime::now());
        match receiver.recv_timeout(remaining) {
            Some(ack) if ack.txn == round => {
                let slot = ack.from.index();
                if slot < expected && !seen[slot] {
                    seen[slot] = true;
                    distinct += 1;
                }
            }
            Some(_) => continue,
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use sss_storage::Value;

    use crate::{SssCluster, SssConfig};

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A crash between a round's completion and its release must not strand
    /// the writer in `pending_global` (where it parks every read selecting
    /// its versions until `pending_global_hold_max`): the buffered release
    /// survives the crash and goes out once the node recovered.
    #[test]
    fn crash_after_a_completed_round_still_releases_its_writer() {
        // A lone committer leads its round, then lingers with the release
        // buffered — the window the crash hits.
        let config = SssConfig::new(3)
            .replication(2)
            .confirm_linger(Duration::from_secs(1));
        let cluster = SssCluster::start(config).unwrap();
        let node = cluster.node(0);
        let mut txn = cluster.session(0).begin_update();
        let writer = txn.id();
        txn.write("k", Value::from_u64(1));
        let committer = std::thread::spawn(move || txn.commit());
        wait_until("the round completed", || {
            node.confirm.state.lock().pending_release_len() > 0
        });

        // Crash-stop node 0 as the cluster's crash hook does.
        node.transport().mailbox(node.id()).crash();
        node.on_crash();
        committer
            .join()
            .unwrap()
            .expect("the round completed before the crash");
        let holding = |n: usize| {
            cluster
                .node(n)
                .state
                .lock()
                .pending_global
                .contains(&writer)
        };
        assert!(
            (0..3).any(holding),
            "the crash caught the writer unreleased"
        );
        let report = cluster.diagnostics();
        assert!(
            report.contains(&format!("oldest-pending-writer={writer} (waiting")),
            "the stall dump names the unreleased writer: {report}"
        );

        node.transport().mailbox(node.id()).restart();
        node.recover_from_peers();
        wait_until("no node holds the writer in pending_global", || {
            !(0..3).any(holding)
        });
    }
}
