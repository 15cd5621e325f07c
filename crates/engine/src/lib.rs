//! # The SSS engine layer
//!
//! Every system evaluated by the paper — SSS itself (§III) and the three
//! competitors (§V: 2PC-baseline, Walter-style PSI, ROCOCO-style) — plugs in
//! behind this crate. It owns:
//!
//! * the **trait surface** an engine exposes to the rest of the workspace:
//!   [`TransactionEngine`], [`EngineSession`] and [`TxnOutcome`];
//! * the **registry**: [`EngineKind`] enumerates the engines and
//!   [`EngineKind::build`] constructs any of them behind a
//!   `Box<dyn TransactionEngine>` from one [`EngineSpec`]: node count,
//!   replication degree, [`NetProfile`], the storage/delivery/confirmation
//!   knobs, observability, and optionally an `sss-faults` [`FaultInjector`]
//!   and a simulation scheduler. Every engine boots on the same `sss-net`
//!   cluster host, so the profile's latency and the injector's faults
//!   reach all four alike;
//! * the **trait bindings** that hook each engine's adapter (which lives in
//!   the crate owning that engine: `sss-core` ships the SSS adapter,
//!   `sss-baselines` ships the 2PC/Walter/ROCOCO adapters) onto the trait.
//!
//! ## Layering
//!
//! The adapter state and transaction-execution logic live *with the engine*
//! (`sss_core::adapter`, `sss_baselines::adapters`); this crate sits above
//! both and contributes only the trait impls and the factory. That keeps the
//! dependency graph acyclic — the engine crates know nothing about the
//! registry — while still giving every consumer (`sss-workload`'s driver,
//! `sss-bench`'s figure sweeps, the examples and the integration tests) a
//! single construction path:
//!
//! ```rust
//! use sss_engine::{EngineKind, EngineSpec};
//!
//! let engine = EngineKind::Sss.build(EngineSpec::new(3, 2)).unwrap();
//! let mut session = engine.session(0);
//! let outcome = session.run_update(&[], &[("k".into(), b"v".to_vec().into())]);
//! assert!(outcome.is_committed());
//! ```

mod bindings;
mod profile;
mod registry;
mod traits;

pub use profile::NetProfile;
pub use registry::{BuildError, EngineKind, EngineSpec, ParseEngineKindError};
pub use traits::{EngineSession, TransactionEngine, TxnOutcome};

pub use sss_core::DEFAULT_CONFIRM_EPOCH;
pub use sss_faults::{FaultInjector, FaultPlan};
pub use sss_net::{MailboxStats, DEFAULT_DELIVERY_BATCH, MESSAGE_KIND_SLOTS};
pub use sss_obs::{
    chrome_trace_json, Histogram, MetricsRegistry, MetricsSnapshot, NodeLiveness, ObsHub, Phase,
    TraceSpan, WatchdogConfig, WatchdogCore, WatchdogVerdict,
};
pub use sss_sim::SimRuntime;
pub use sss_storage::StorageStats;
pub use sss_vclock::runtime::SchedulerHandle;
