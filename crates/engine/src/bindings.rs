//! Trait bindings: hooks each engine's adapter (owned by the engine's own
//! crate) onto the [`TransactionEngine`] / [`EngineSession`] traits.
//!
//! The bindings are deliberately mechanical — every substantive decision
//! (how a transaction executes, what counts as the internal latency) lives
//! in the adapter next to its engine. Implementing the traits *here* rather
//! than in the engine crates keeps the dependency graph acyclic: the engine
//! crates do not know about the engine layer, and this crate can therefore
//! host the [`EngineKind`](crate::EngineKind) factory that constructs all
//! of them.

use sss_baselines::adapters::{
    RococoEngine, RococoEngineSession, TwoPcEngine, TwoPcEngineSession, WalterEngine,
    WalterEngineSession,
};
use sss_core::adapter::{SssEngine, SssEngineSession};

use crate::traits::{EngineSession, TransactionEngine, TxnOutcome};

macro_rules! bind_engine {
    ($engine:ty, $session:ty, $name:literal $(, diagnostics: $diag:expr)? $(, liveness: $liveness:expr)? $(, kinds: $kinds:expr)?) => {
        impl TransactionEngine for $engine {
            fn name(&self) -> &str {
                $name
            }

            fn nodes(&self) -> usize {
                self.node_count()
            }

            fn session(&self, node: usize) -> Box<dyn EngineSession> {
                Box::new(self.open_session(node))
            }

            fn storage_stats(&self) -> Option<sss_storage::StorageStats> {
                Some(self.cluster().storage_stats())
            }

            fn mailbox_totals(&self) -> Option<sss_net::MailboxStats> {
                Some(self.cluster().mailbox_totals())
            }

            fn observability(&self) -> Option<std::sync::Arc<sss_obs::ObsHub>> {
                self.cluster().observability()
            }

            $(
                fn diagnostics(&self) -> Option<String> {
                    #[allow(clippy::redundant_closure_call)]
                    Some(($diag)(self))
                }
            )?

            $(
                fn node_liveness(&self) -> Option<Vec<sss_obs::NodeLiveness>> {
                    #[allow(clippy::redundant_closure_call)]
                    Some(($liveness)(self))
                }
            )?

            $(
                fn message_kind_labels(&self) -> Option<&'static [&'static str]> {
                    Some($kinds)
                }
            )?
        }

        impl EngineSession for $session {
            fn run_update(
                &mut self,
                read_keys: &[sss_storage::Key],
                writes: &[(sss_storage::Key, sss_storage::Value)],
            ) -> TxnOutcome {
                TxnOutcome::from_timings(<$session>::run_update(self, read_keys, writes))
            }

            fn run_read_only(&mut self, read_keys: &[sss_storage::Key]) -> TxnOutcome {
                TxnOutcome::from_timings(<$session>::run_read_only(self, read_keys))
            }

            fn run_update_observed(
                &mut self,
                read_keys: &[sss_storage::Key],
                writes: &[(sss_storage::Key, sss_storage::Value)],
            ) -> (TxnOutcome, Vec<Option<sss_storage::Value>>) {
                let (timings, observed) =
                    <$session>::run_update_observed(self, read_keys, writes);
                (TxnOutcome::from_timings(timings), observed)
            }

            fn run_read_only_observed(
                &mut self,
                read_keys: &[sss_storage::Key],
            ) -> (TxnOutcome, Vec<Option<sss_storage::Value>>) {
                let (timings, observed) = <$session>::run_read_only_observed(self, read_keys);
                (TxnOutcome::from_timings(timings), observed)
            }
        }
    };
}

bind_engine!(
    SssEngine,
    SssEngineSession,
    "SSS",
    diagnostics: |engine: &SssEngine| engine.cluster().diagnostics(),
    liveness: |engine: &SssEngine| engine.cluster().node_liveness(),
    kinds: &sss_core::SssMessage::KIND_LABELS
);
bind_engine!(
    TwoPcEngine,
    TwoPcEngineSession,
    "2PC",
    kinds: &sss_baselines::twopc::MESSAGE_KIND_LABELS
);
bind_engine!(
    WalterEngine,
    WalterEngineSession,
    "Walter",
    kinds: &sss_baselines::walter::MESSAGE_KIND_LABELS
);
bind_engine!(
    RococoEngine,
    RococoEngineSession,
    "ROCOCO",
    kinds: &sss_baselines::rococo::MESSAGE_KIND_LABELS
);

#[cfg(test)]
mod tests {
    use super::*;
    use sss_storage::{Key, Value};

    #[test]
    fn bindings_forward_to_the_adapters() {
        let engine = SssEngine::with_config(sss_core::SssConfig::new(2).replication(1));
        let dynamic: &dyn TransactionEngine = &engine;
        assert_eq!(dynamic.name(), "SSS");
        assert_eq!(dynamic.nodes(), 2);
        let mut session = dynamic.session(0);
        let outcome = session.run_update(&[], &[(Key::new("k"), Value::from_u64(1))]);
        assert!(outcome.is_committed());
        assert!(session.run_read_only(&[Key::new("k")]).is_committed());
    }

    #[test]
    fn observed_reads_report_the_values_seen() {
        let engine = SssEngine::with_config(sss_core::SssConfig::new(2).replication(1));
        let dynamic: &dyn TransactionEngine = &engine;
        let mut session = dynamic.session(0);
        session.run_update(&[], &[(Key::new("k"), Value::from_u64(7))]);
        let (outcome, observed) = session.run_read_only_observed(&[Key::new("k")]);
        assert!(outcome.is_committed());
        assert_eq!(observed, vec![Some(Value::from_u64(7))]);
        let (outcome, observed) =
            session.run_update_observed(&[Key::new("k")], &[(Key::new("k"), Value::from_u64(8))]);
        assert!(outcome.is_committed());
        assert_eq!(observed, vec![Some(Value::from_u64(7))]);
    }

    #[test]
    fn sss_exposes_diagnostics() {
        let engine = SssEngine::with_config(sss_core::SssConfig::new(2).replication(1));
        let dynamic: &dyn TransactionEngine = &engine;
        let report = dynamic.diagnostics().expect("SSS has diagnostics");
        assert!(report.contains("node 0"), "unexpected report: {report}");
        assert!(report.contains("mailbox depth="));
    }
}
