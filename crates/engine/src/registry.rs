//! The engine registry: one construction path for every engine.

use std::str::FromStr;
use std::sync::Arc;

use sss_baselines::adapters::{RococoEngine, TwoPcEngine, WalterEngine};
use sss_baselines::rococo::RococoConfig;
use sss_baselines::twopc::TwoPcConfig;
use sss_baselines::walter::WalterConfig;
use sss_core::adapter::SssEngine;
use sss_core::SssConfig;
use sss_faults::FaultInjector;
use sss_net::{ClusterConfig, FaultInterposer};
use sss_obs::ObsHub;
use sss_vclock::runtime::SchedulerHandle;

use crate::profile::NetProfile;
use crate::traits::TransactionEngine;

/// Everything [`EngineKind::build`] needs to construct an engine.
///
/// `EngineSpec::new(nodes, replication)` reproduces each engine's defaults;
/// the remaining fields are public and set with struct-update syntax:
///
/// ```rust
/// use sss_engine::{EngineKind, EngineSpec};
///
/// let spec = EngineSpec {
///     delivery_batch: 1,
///     ..EngineSpec::new(3, 2)
/// };
/// let engine = EngineKind::TwoPc.build(spec).expect("no crash windows");
/// assert_eq!(engine.nodes(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// Cluster size.
    pub nodes: usize,
    /// Replicas per key; ROCOCO ignores it (the paper's comparison always
    /// runs ROCOCO unreplicated).
    pub replication: usize,
    /// Steady-state message-delay model, applied to every engine.
    pub profile: NetProfile,
    /// Shard arity of every node's storage structures (stores and lock
    /// tables). Rounded up to a power of two.
    pub storage_shards: usize,
    /// Messages a node worker drains from its mailbox per wakeup. Clamped
    /// to at least 1; batch size 1 reproduces one-message-per-wakeup
    /// delivery.
    pub delivery_batch: usize,
    /// Epoch window of SSS's grouped external-commit confirmation: up to
    /// this many update transactions share one `ConfirmExternal` round;
    /// `<= 1` disables grouping. Ignored by the baselines.
    pub confirm_epoch: usize,
    /// Whether SSS piggybacks `ReleaseExternal`/`Remove` traffic on grouped
    /// confirmation rounds. Ignored by the baselines.
    pub piggyback: bool,
    /// Attach an observability hub ([`sss_obs::ObsHub`]): per-transaction
    /// phase tracing, per-phase latency histograms and per-node trace
    /// rings. Retrieve it through
    /// [`TransactionEngine::observability`](crate::TransactionEngine::observability).
    pub observability: bool,
    /// Caller-owned fault injector, interposed on the engine's transport
    /// and attached to its pause gates. It is **not** armed: the caller
    /// arms it once the warm-up is done, so the plan's scheduled windows
    /// cover the measured phase.
    pub injector: Option<Arc<FaultInjector>>,
    /// Deterministic-simulation scheduler: message delivery, worker
    /// execution, protocol timeouts and fault windows move in virtual time.
    /// Drive work through [`sss_sim::SimRuntime::block_on`].
    pub scheduler: Option<SchedulerHandle>,
}

impl EngineSpec {
    /// `nodes` nodes with `replication` replicas per key, the instant
    /// network, and every other knob at its default.
    pub fn new(nodes: usize, replication: usize) -> Self {
        EngineSpec {
            nodes,
            replication,
            profile: NetProfile::Instant,
            storage_shards: sss_storage::DEFAULT_SHARDS,
            delivery_batch: sss_net::DEFAULT_DELIVERY_BATCH,
            confirm_epoch: sss_core::DEFAULT_CONFIRM_EPOCH,
            piggyback: true,
            observability: false,
            injector: None,
            scheduler: None,
        }
    }
}

/// Why [`EngineKind::build`] refused a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// The fault plan has crash windows but the engine has no crash
    /// recovery (only SSS restarts crashed nodes).
    CrashUnsupported(EngineKind),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::CrashUnsupported(kind) => write!(
                f,
                "{kind} has no crash recovery: its fault plan may not contain crash windows"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Which engine an experiment runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The SSS protocol (this paper).
    Sss,
    /// The 2PC-baseline.
    TwoPc,
    /// The Walter-style PSI engine.
    Walter,
    /// The ROCOCO-style engine.
    Rococo,
}

impl EngineKind {
    /// Every engine the registry can build, in the paper's presentation
    /// order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Sss,
        EngineKind::TwoPc,
        EngineKind::Walter,
        EngineKind::Rococo,
    ];

    /// Display name used in tables (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Sss => "SSS",
            EngineKind::TwoPc => "2PC",
            EngineKind::Walter => "Walter",
            EngineKind::Rococo => "ROCOCO",
        }
    }

    /// Builds this engine as `spec` describes, behind a
    /// `Box<dyn TransactionEngine>`.
    ///
    /// This factory is the only way the rest of the workspace constructs an
    /// engine — the workload driver, the figure sweeps, the examples and
    /// the integration tests all go through it, so adding an engine means
    /// adding a variant here and an adapter in the crate that owns it. All
    /// four engines boot on the same `sss-net` cluster host, so the
    /// profile's latency and the injector's faults reach each of them
    /// alike.
    ///
    /// # Errors
    ///
    /// [`BuildError::CrashUnsupported`] when a baseline is given a fault
    /// plan with crash windows.
    ///
    /// # Panics
    ///
    /// Panics if `spec.nodes` is zero or the engine fails to boot (worker
    /// spawn failure).
    pub fn build(&self, spec: EngineSpec) -> Result<Box<dyn TransactionEngine>, BuildError> {
        if *self != EngineKind::Sss
            && spec
                .injector
                .as_ref()
                .is_some_and(|i| !i.fault_plan().crashes.is_empty())
        {
            return Err(BuildError::CrashUnsupported(*self));
        }
        let cluster = ClusterConfig {
            replication: spec.replication,
            storage_shards: spec.storage_shards,
            delivery_batch: spec.delivery_batch,
            latency: spec.profile.latency_model(),
            // One hub per engine instance: every session and node of this
            // engine records into it.
            observability: spec.observability.then(|| ObsHub::new(spec.nodes)),
            scheduler: spec.scheduler,
            fault_injector: spec.injector.map(|i| i as Arc<dyn FaultInterposer>),
            ..ClusterConfig::new(spec.nodes)
        };
        Ok(match self {
            EngineKind::Sss => Box::new(SssEngine::with_config(SssConfig {
                confirm_epoch_max: spec.confirm_epoch,
                piggyback: spec.piggyback,
                ..SssConfig::on(cluster)
            })),
            EngineKind::TwoPc => Box::new(TwoPcEngine::with_config(TwoPcConfig::on(cluster))),
            EngineKind::Walter => Box::new(WalterEngine::with_config(WalterConfig::on(cluster))),
            EngineKind::Rococo => Box::new(RococoEngine::with_config(RococoConfig::on(cluster))),
        })
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown engine name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineKindError {
    input: String,
}

impl std::fmt::Display for ParseEngineKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown engine {:?} (expected one of: sss, 2pc, walter, rococo)",
            self.input
        )
    }
}

impl std::error::Error for ParseEngineKindError {}

impl FromStr for EngineKind {
    type Err = ParseEngineKindError;

    /// Parses the names used by the paper's legends, case-insensitively
    /// ("sss", "2pc" or "twopc", "walter", "rococo").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "sss" => Ok(EngineKind::Sss),
            "2pc" | "twopc" | "2pc-baseline" => Ok(EngineKind::TwoPc),
            "walter" => Ok(EngineKind::Walter),
            "rococo" => Ok(EngineKind::Rococo),
            _ => Err(ParseEngineKindError {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_labels() {
        assert_eq!(EngineKind::Sss.label(), "SSS");
        assert_eq!(EngineKind::TwoPc.label(), "2PC");
        assert_eq!(EngineKind::Walter.label(), "Walter");
        assert_eq!(EngineKind::Rococo.label(), "ROCOCO");
        assert_eq!(EngineKind::ALL.len(), 4);
    }

    #[test]
    fn engine_names_parse() {
        assert_eq!("sss".parse(), Ok(EngineKind::Sss));
        assert_eq!("2PC".parse(), Ok(EngineKind::TwoPc));
        assert_eq!("Walter".parse(), Ok(EngineKind::Walter));
        assert_eq!("ROCOCO".parse(), Ok(EngineKind::Rococo));
        assert!("spanner".parse::<EngineKind>().is_err());
    }
}
