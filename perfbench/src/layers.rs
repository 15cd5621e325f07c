//! Per-layer metrics measured from outside the program: the public
//! counters (`SssCluster::stats`, `mailbox_totals`, `storage_stats`) diffed
//! over the measured window, and the `ObsHub` phase histograms.

use sss_core::{NodeStats, SssCluster, SssMessage};
use sss_net::MailboxStats;
use sss_obs::{Histogram, Phase};
use sss_storage::StorageStats;

use crate::stats::{ratio, Report, MIN_BEYOND};

/// The public counters at one instant.
#[derive(Debug, Clone)]
pub struct Snapshot {
    stats: NodeStats,
    mailbox: MailboxStats,
    storage: StorageStats,
    phases: Option<Vec<(Phase, Histogram)>>,
}

impl Snapshot {
    pub fn take(cluster: &SssCluster) -> Snapshot {
        Snapshot {
            stats: cluster.stats().totals,
            mailbox: cluster.mailbox_totals(),
            storage: cluster.storage_stats(),
            phases: cluster.observability().map(|hub| hub.phase_snapshot()),
        }
    }
}

/// Counter differences over the measured window.
#[derive(Debug)]
pub struct Window {
    before: Snapshot,
    after: Snapshot,
    mailbox: MailboxStats,
    storage: StorageStats,
}

/// Transaction counts of the window, the bases of the per-transaction ratios.
#[derive(Debug, Clone, Copy)]
pub struct Bases {
    pub committed: u64,
    pub committed_updates: u64,
}

impl Window {
    pub fn new(before: Snapshot, after: Snapshot) -> Window {
        let mailbox = after.mailbox.diff(&before.mailbox);
        let storage = after.storage.diff(&before.storage);
        Window {
            before,
            after,
            mailbox,
            storage,
        }
    }

    /// Whether every message queued or enqueued in the window was dequeued
    /// in it or is still queued at its end (`MailboxStats::conserves`).
    pub fn mailbox_conserves(&self) -> bool {
        MailboxStats::conserves(&self.before.mailbox, &self.after.mailbox)
    }

    /// Versions retained by the multi-version stores at the window's end.
    pub fn retained_versions(&self) -> u64 {
        self.storage
            .mv
            .as_ref()
            .map_or(0, |mv| mv.retained_versions as u64)
    }

    /// Keys resident in the multi-version stores, summed over replicas.
    pub fn resident_keys(&self) -> u64 {
        self.storage
            .mv
            .as_ref()
            .map_or(0, |mv| mv.per_shard.iter().map(|s| s.keys as u64).sum())
    }

    fn node(&self, field: fn(&NodeStats) -> u64) -> f64 {
        field(&self.after.stats).saturating_sub(field(&self.before.stats)) as f64
    }

    fn per_kind(&self, label: &str) -> f64 {
        let index = SssMessage::KIND_LABELS
            .iter()
            .position(|l| *l == label)
            .expect("known message kind");
        self.mailbox.per_kind[index] as f64
    }

    /// Adds the `read`, `commit`, `confirm` (message counts), `net` and
    /// `storage` layer metrics.
    pub fn report_counters(&self, report: &mut Report, bases: Bases) {
        let txns = bases.committed as f64;
        let updates = bases.committed_updates as f64;
        let served = self.node(|s| s.reads_served);
        let prepares = self.node(|s| s.prepares);
        let served_n = served as u64;
        let prepares_n = prepares as u64;

        let deferred = self.node(|s| s.reads_deferred);
        let parked = self.node(|s| s.reads_parked);
        report.add(
            "read.deferred_per_read",
            ratio(deferred, served),
            "ratio",
            served_n,
        );
        report.add(
            "read.parked_per_read",
            ratio(parked, served),
            "ratio",
            served_n,
        );

        let lock_failed = self.node(|s| s.votes_lock_failed);
        let validation_failed = self.node(|s| s.votes_validation_failed);
        let external_waits = self.node(|s| s.external_commit_waits);
        let precommit_ns = self.node(|s| s.precommit_wait_nanos);
        report.add(
            "commit.lock_fail_per_prepare",
            ratio(lock_failed, prepares),
            "ratio",
            prepares_n,
        );
        report.add(
            "commit.validation_fail_per_prepare",
            ratio(validation_failed, prepares),
            "ratio",
            prepares_n,
        );
        report.add(
            "commit.external_wait_per_update",
            ratio(external_waits, updates),
            "ratio",
            bases.committed_updates,
        );
        report.add(
            "commit.precommit_wait_us_per_update",
            ratio(precommit_ns / 1_000.0, updates),
            "us",
            bases.committed_updates,
        );

        for kind in ["ConfirmExternal", "ReleaseExternal"] {
            report.add(
                format!("net.{kind}_per_update"),
                ratio(self.per_kind(kind), updates),
                "count",
                bases.committed_updates,
            );
        }

        let m = &self.mailbox;
        let sent = (m.total_enqueued() + m.local_delivered) as f64;
        report.add(
            "net.messages_per_txn",
            ratio(sent, txns),
            "count",
            bases.committed,
        );
        report.add(
            "net.local_per_txn",
            ratio(m.local_delivered as f64, txns),
            "count",
            bases.committed,
        );
        report.add(
            "net.messages_per_wakeup",
            m.messages_per_wakeup(),
            "count",
            m.dequeue_ops,
        );
        for kind in ["ReadRequest", "Prepare", "Decide", "Remove"] {
            report.add(
                format!("net.{kind}_per_txn"),
                ratio(self.per_kind(kind), txns),
                "count",
                bases.committed,
            );
        }

        let (installed, mv_contended) = self
            .storage
            .mv
            .as_ref()
            .map_or((0, 0), |mv| (mv.installed_versions, mv.contended));
        let (lock_contended, lock_timeouts) = self
            .storage
            .locks
            .as_ref()
            .map_or((0, 0), |l| (l.contended, l.timeouts));
        report.add(
            "storage.installed_per_update",
            ratio(installed as f64, updates),
            "count",
            bases.committed_updates,
        );
        report.add(
            "storage.retained_versions",
            self.retained_versions() as f64,
            "count",
            self.resident_keys(),
        );
        report.add(
            "storage.contended_per_txn",
            ratio((mv_contended + lock_contended) as f64, txns),
            "count",
            bases.committed,
        );
        report.add(
            "storage.lock_timeouts_per_update",
            ratio(lock_timeouts as f64, updates),
            "count",
            bases.committed_updates,
        );
    }

    /// Adds `phase.<label>_us.p50`, `.p99` and `phase.<label>_share` for
    /// `phases`, from the `ObsHub` histograms (microseconds) of the window.
    /// A phase's share is its summed time over the summed time of every
    /// client-scope phase.
    pub fn report_phases(&self, report: &mut Report, phases: &[Phase]) {
        let (Some(before), Some(after)) = (&self.before.phases, &self.after.phases) else {
            return;
        };
        let window: Vec<(Phase, Histogram)> = after
            .iter()
            .zip(before)
            .map(|((phase, later), (_, earlier))| (*phase, later.diff(earlier)))
            .collect();
        let client_total: u64 = window
            .iter()
            .filter(|(p, _)| !p.is_server_scope())
            .map(|(_, h)| h.sum())
            .sum();
        for phase in phases {
            let hist = &window
                .iter()
                .find(|(p, _)| p == phase)
                .expect("every phase")
                .1;
            let label = phase.label();
            for (suffix, q) in [("p50", 0.5), ("p99", 0.99)] {
                let name = format!("phase.{label}_us.{suffix}");
                let rank = ((hist.count().saturating_sub(1)) as f64 * q).floor() as u64;
                if hist.count() > 0 && hist.count() - 1 - rank >= MIN_BEYOND as u64 {
                    report.add(name, hist.value_at_quantile(q) as f64, "us", hist.count());
                } else {
                    report.missing.push(format!("{name} (n={})", hist.count()));
                }
            }
            report.add(
                format!("phase.{label}_share"),
                ratio(hist.sum() as f64, client_total as f64),
                "ratio",
                hist.count(),
            );
        }
    }
}
