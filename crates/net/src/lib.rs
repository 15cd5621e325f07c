//! In-process asynchronous message-passing substrate.
//!
//! The SSS paper evaluates its protocol on a cluster whose nodes communicate
//! through *reliable asynchronous channels* (paper §II) and whose
//! implementation uses an "optimized network component where multiple network
//! queues, each for a different message type, are deployed" so that
//! high-priority protocol messages (e.g. `Remove`) are never stuck behind
//! bulk traffic (paper §V).
//!
//! This crate reproduces that substrate for an in-process cluster:
//!
//! * every logical node owns a [`Mailbox`] with one queue per
//!   [`Priority`] class and a pool of worker threads draining it,
//! * senders interact only through the [`Transport`] trait, so protocol
//!   code never touches another node's state directly,
//! * an optional [`LatencyModel`] delays deliveries to reproduce the
//!   asynchrony (and reordering across priority classes) of a real network.
//!
//! The substrate is engine-agnostic: SSS, the 2PC baseline, Walter and
//! ROCOCO all run on it unchanged.
//!
//! # Batched delivery
//!
//! Delivery is batched at both ends of a mailbox: senders can hand a
//! per-destination batch to [`Transport::send_batch`] (one enqueue and one
//! wakeup round per destination) and workers drain up to a configurable
//! number of same-priority messages per wakeup
//! ([`Mailbox::pop_batch`], [`NodeRuntime::spawn_batched`]). Batching is
//! invisible to the fault layer: interposers are consulted per message, so
//! a batch faults exactly like the equivalent sequence of single sends.
//! Self-addressed messages can skip the queues entirely via the transport's
//! local delivery fast path ([`ChannelTransport::set_local_dispatch`]).
//!
//! # One way to build a cluster
//!
//! Every engine boots through a [`ClusterHost`] configured by the
//! [`ClusterConfig`] its own configuration embeds: the host builds the
//! transport (latency model, seed, simulation scheduler, fault interposer,
//! and reliable delivery when the fault plan can lose messages), installs
//! the per-kind message classifier, registers local dispatch, hands the
//! pause gates to the fault injector, spawns the batched workers, and owns
//! shutdown. Engines keep only their protocol nodes.

#![deny(missing_docs)]

mod host;
mod latency;
mod mailbox;
mod reply;
mod runtime;
mod transport;

pub use host::{ClusterConfig, ClusterHost};
pub use latency::LatencyModel;
pub use mailbox::{
    Mailbox, MailboxStats, PauseControl, Priority, DEFAULT_DELIVERY_BATCH, MESSAGE_KIND_SLOTS,
};
pub use reply::{reply_channel, ReplyReceiver, ReplySender, ReplyTryRecvError};
pub use runtime::{NodeRuntime, NodeService};
pub use transport::{
    ChannelTransport, CrashHook, Envelope, FaultInterposer, LocalDispatch, ReliabilityConfig,
    ReliabilityStats, SendPlan, Transport, TransportConfig, TransportError, TransportExt,
};

pub use sss_vclock::NodeId;
