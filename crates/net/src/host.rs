//! The cluster host: the substrate wiring every engine shares — transport,
//! per-kind message accounting, local dispatch, worker pools and the fault
//! injector's hooks — so SSS and the baselines all run on one substrate
//! built one way.

use std::sync::Arc;

use parking_lot::Mutex;
use sss_obs::ObsHub;
use sss_storage::ReplicaMap;
use sss_vclock::runtime::SchedulerHandle;
use sss_vclock::NodeId;

use crate::latency::LatencyModel;
use crate::mailbox::{MailboxStats, PauseControl, DEFAULT_DELIVERY_BATCH};
use crate::runtime::{NodeRuntime, NodeService};
use crate::transport::{ChannelTransport, FaultInterposer, ReliabilityConfig, TransportConfig};

/// The settings every engine shares: cluster shape, worker pools, network
/// model, and the optional observability hub, simulation scheduler and
/// fault injector. Each engine configuration embeds one as its `cluster`
/// field and adds only its protocol knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Replication degree (replicas per key). ROCOCO, which the paper runs
    /// unreplicated, ignores it.
    pub replication: usize,
    /// Worker threads per node draining the priority mailbox.
    pub workers_per_node: usize,
    /// Shard arity of every node's storage structures (stores and lock
    /// tables). Rounded up to a power of two; higher values reduce
    /// contention between a node's workers at a small memory cost.
    pub storage_shards: usize,
    /// Messages a node worker drains from its mailbox per wakeup (clamped
    /// to at least 1). Batch size 1 reproduces one-message-per-wakeup
    /// delivery; larger values amortize the wakeup cost under load without
    /// affecting protocol behaviour.
    pub delivery_batch: usize,
    /// One-way network latency model applied to every message.
    pub latency: LatencyModel,
    /// Seed for latency sampling.
    pub seed: u64,
    /// Optional observability hub: sessions trace protocol phases into its
    /// rings and histograms. When `None` — the default — every
    /// instrumentation site reduces to one branch.
    pub observability: Option<Arc<ObsHub>>,
    /// Optional deterministic-simulation scheduler (see `sss-sim`): when
    /// set, message delivery, worker execution and protocol timeouts move
    /// in virtual time, and fault windows are scheduled on the virtual
    /// clock.
    pub scheduler: Option<SchedulerHandle>,
    /// Optional fault injector, interposed on the transport and attached to
    /// the per-node pause gates. Inert until the caller arms it; plans that
    /// can lose messages turn on the reliable-delivery layer.
    pub fault_injector: Option<Arc<dyn FaultInterposer>>,
}

impl ClusterConfig {
    /// `nodes` nodes with the paper's defaults: two replicas per key, four
    /// workers per node, immediate delivery.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        ClusterConfig {
            nodes,
            replication: 2.min(nodes),
            workers_per_node: 4,
            storage_shards: sss_storage::DEFAULT_SHARDS,
            delivery_batch: DEFAULT_DELIVERY_BATCH,
            latency: LatencyModel::ZERO,
            seed: 0,
            observability: None,
            scheduler: None,
            fault_injector: None,
        }
    }

    /// The key-placement map described by this configuration.
    pub fn replica_map(&self) -> ReplicaMap {
        ReplicaMap::new(self.nodes, self.replication)
    }
}

/// The substrate of one running cluster: its transport, the worker pool of
/// every node, and the fault injector's attachment.
///
/// Construction is two-phase because protocol nodes may need the transport
/// to be built: [`ClusterHost::new`] builds the transport, the engine then
/// builds its nodes, and [`ClusterHost::start`] runs them. Shutdown (also
/// on drop) disarms the injector, closes the transport and joins every
/// worker.
pub struct ClusterHost<M: Send + Clone + 'static> {
    transport: Arc<ChannelTransport<M>>,
    nodes: usize,
    workers_per_node: usize,
    delivery_batch: usize,
    fault_injector: Option<Arc<dyn FaultInterposer>>,
    runtimes: Mutex<Vec<NodeRuntime>>,
}

impl<M: Send + Clone + 'static> ClusterHost<M> {
    /// Builds the transport `config` describes and attaches the fault
    /// injector, if any, to its pause gates. `classify` maps a message to
    /// its per-kind counter slot (see [`MailboxStats::per_kind`]).
    pub fn new(config: &ClusterConfig, classify: fn(&M) -> usize) -> Self {
        let mut transport_config = TransportConfig::new(config.nodes)
            .latency(config.latency)
            .seed(config.seed);
        if let Some(scheduler) = &config.scheduler {
            transport_config = transport_config.scheduler(Arc::clone(scheduler));
        }
        if let Some(injector) = &config.fault_injector {
            transport_config = transport_config.interposer(Arc::clone(injector));
            if injector.needs_reliable_delivery() {
                transport_config = transport_config.reliable(ReliabilityConfig::default());
            }
        }
        let transport = Arc::new(ChannelTransport::new(transport_config));
        transport.set_message_classifier(classify);
        let host = ClusterHost {
            transport,
            nodes: config.nodes,
            workers_per_node: config.workers_per_node,
            delivery_batch: config.delivery_batch,
            fault_injector: config.fault_injector.clone(),
            runtimes: Mutex::new(Vec::new()),
        };
        if let Some(injector) = &host.fault_injector {
            injector.attach(host.pause_controls(), config.scheduler.as_ref());
        }
        host
    }

    /// The cluster transport.
    pub fn transport(&self) -> &Arc<ChannelTransport<M>> {
        &self.transport
    }

    /// Runs `nodes` (node `i` serves `NodeId(i)`): registers each node's
    /// local delivery fast path, so self-addressed messages run the handler
    /// on the sending thread, then spawns its batched workers.
    pub fn start<S: NodeService<M>>(&self, nodes: &[Arc<S>]) {
        for (i, node) in nodes.iter().enumerate() {
            // A `Weak` capture: a node may hold the transport, so a strong
            // one would form an `Arc` cycle and leak the cluster.
            let handler = Arc::downgrade(node);
            self.transport.set_local_dispatch(
                NodeId(i),
                Arc::new(move |envelope| {
                    if let Some(node) = handler.upgrade() {
                        node.handle(envelope);
                    }
                }),
            );
        }
        let mut runtimes = self.runtimes.lock();
        for (i, node) in nodes.iter().enumerate() {
            runtimes.push(NodeRuntime::spawn_batched(
                NodeId(i),
                self.transport.mailbox(NodeId(i)),
                Arc::clone(node),
                self.workers_per_node,
                self.delivery_batch,
            ));
        }
    }

    /// Per-node pause gates of the transport, indexed by node.
    fn pause_controls(&self) -> Vec<Arc<PauseControl>> {
        (0..self.nodes)
            .map(|i| self.transport.mailbox(NodeId(i)).pause_control())
            .collect()
    }

    /// Mailbox traffic counters summed over every node.
    pub fn mailbox_totals(&self) -> MailboxStats {
        let mut total = MailboxStats::default();
        for i in 0..self.nodes {
            total.merge(&self.transport.mailbox_stats(NodeId(i)));
        }
        total
    }

    /// Disarms the fault injector, closes the transport and joins every
    /// worker. Idempotent.
    pub fn shutdown(&self) {
        if let Some(injector) = &self.fault_injector {
            injector.disarm();
        }
        self.transport.shutdown();
        for runtime in std::mem::take(&mut *self.runtimes.lock()) {
            runtime.join();
        }
    }
}

impl<M: Send + Clone + 'static> Drop for ClusterHost<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::SendPlan;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    /// An injector whose plan can lose messages, recording what the host
    /// hands it.
    #[derive(Debug, Default)]
    struct LossyProbe {
        attached_gates: AtomicUsize,
        disarms: AtomicUsize,
    }

    impl FaultInterposer for LossyProbe {
        fn plan(&self, _from: NodeId, _to: NodeId, _now: Instant) -> SendPlan {
            SendPlan::pass()
        }

        fn needs_reliable_delivery(&self) -> bool {
            true
        }

        fn attach(&self, pause_controls: Vec<Arc<PauseControl>>, _: Option<&SchedulerHandle>) {
            self.attached_gates
                .store(pause_controls.len(), Ordering::SeqCst);
        }

        fn disarm(&self) {
            self.disarms.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn loss_capable_injectors_get_reliable_delivery_and_every_pause_gate() {
        let probe = Arc::new(LossyProbe::default());
        let config = ClusterConfig {
            fault_injector: Some(Arc::clone(&probe) as Arc<dyn FaultInterposer>),
            ..ClusterConfig::new(3)
        };
        let host: ClusterHost<u64> = ClusterHost::new(&config, |_| 0);
        assert!(host.transport().reliability_stats().is_some());
        assert_eq!(probe.attached_gates.load(Ordering::SeqCst), 3);
        drop(host);
        assert!(
            probe.disarms.load(Ordering::SeqCst) >= 1,
            "shutdown disarms"
        );

        let plain: ClusterHost<u64> = ClusterHost::new(&ClusterConfig::new(3), |_| 0);
        assert!(plain.transport().reliability_stats().is_none());
    }
}
