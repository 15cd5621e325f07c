//! Closed-loop throughput/latency measurement over the engine registry.
//!
//! This is the measurement pipeline behind the `throughput` binary: for
//! every requested (engine × storage-shard-count) cell it builds the engine
//! through [`EngineKind::build`], pre-populates the key space, runs
//! `clients_per_node` closed-loop client threads per node through a
//! **warm-up phase** followed by a **measured window**, and reports ops/s,
//! latency percentiles (p50/p95/p99), the abort rate, and the per-shard
//! contention counters of the storage layer.
//!
//! Methodology notes:
//!
//! * **Closed loop** — each client issues a new transaction only once the
//!   previous one returned (paper §V), so offered load scales with the
//!   client count and latency back-pressure is realistic.
//! * **Warm-up** — populating the key space and JIT-warming the process
//!   distort early samples; nothing is recorded until the warm-up elapses.
//! * **Snapshot-and-diff counters** — storage and mailbox counters are
//!   monotonic and never reset. The harness snapshots them when the
//!   measured window opens and again when it closes and reports the
//!   difference, so per-window numbers are exact regardless of warm-up
//!   traffic or how many cells already ran in the process.
//! * **Fixed-ops mode** — with [`ThroughputConfig::fixed_ops`] set, every
//!   client executes a fixed number of measured transactions instead of
//!   running for a wall-clock window. CI smoke jobs use this to keep run
//!   time bounded and independent of machine speed.
//!
//! * **Batch sweep** — `batch_sizes` sweeps the per-wakeup delivery batch
//!   size of the engine's mailbox workers (`EngineSpec::delivery_batch`),
//!   batch size 1 reproducing one-message-per-wakeup delivery. Per-run
//!   message accounting (messages per committed transaction, messages per
//!   worker wakeup, locally delivered messages) quantifies what batching
//!   and the local delivery fast path save.
//! * **Epoch sweep** — `epoch_windows` sweeps SSS's grouped
//!   external-commit confirmation window (`EngineSpec::confirm_epoch`);
//!   window 1 reproduces the per-transaction confirmation round of the
//!   base protocol. Baseline engines ignore the knob, so only the first
//!   window is run for them. Per-message-kind counts in the report
//!   attribute the round-reduction win per message type.
//! * **Conservation check** — each trial asserts that the mailbox
//!   counters balance exactly across the measured window
//!   (`MailboxStats::conserves`): the backlog gauges of the two snapshots
//!   reconcile any in-window drain of pre-window traffic, so a skewed
//!   count is a harness bug, not noise.
//! * **Per-phase breakdown** — with [`ThroughputConfig::observability`]
//!   on (the default), engines are built with an `sss-obs` hub and the
//!   harness diffs the hub's per-phase latency histograms over the
//!   measured window, reporting where commit latency goes (for SSS:
//!   how much of it is the grouped external-commit confirmation wait).
//!   Latency percentiles are computed from the same log-bucketed
//!   [`Histogram`] the hub uses, merged deterministically across clients
//!   and trials.
//!
//! The report serializes to the machine-readable `BENCH_throughput.json`
//! (schema `sss-throughput/v4`, documented in the repository README) so
//! future changes have a perf trajectory to compare against.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sss_engine::{
    EngineKind, EngineSpec, Histogram, MailboxStats, Phase, StorageStats, TraceSpan, TxnOutcome,
};
use sss_workload::{populate, NodeId, TxnTemplate, WorkloadGenerator, WorkloadSpec};

/// Configuration of one harness invocation (a sweep over engines and shard
/// counts with otherwise identical parameters).
#[derive(Debug, Clone)]
pub struct ThroughputConfig {
    /// Engines to measure, in order.
    pub engines: Vec<EngineKind>,
    /// Storage shard counts to sweep per engine, in order.
    pub shard_counts: Vec<usize>,
    /// Per-wakeup delivery batch sizes to sweep per (engine × shard count)
    /// cell, in order. Batch size 1 reproduces one-message-per-wakeup
    /// delivery exactly.
    pub batch_sizes: Vec<usize>,
    /// Grouped-confirmation epoch windows to sweep per cell, in order
    /// (SSS only — baseline engines ignore the knob, so the sweep runs
    /// only the first window for them). Window 1 reproduces the
    /// per-transaction confirmation round of the base protocol.
    pub epoch_windows: Vec<usize>,
    /// Cluster size.
    pub nodes: usize,
    /// Replicas per key.
    pub replication: usize,
    /// Closed-loop client threads per node.
    pub clients_per_node: usize,
    /// Key-space size.
    pub total_keys: usize,
    /// Percentage (0-100) of read-only transactions; low values make the
    /// workload write-heavy, which is what storage sharding targets.
    pub read_only_percent: u8,
    /// Keys read and written by an update transaction.
    pub update_access_count: usize,
    /// Keys read by a read-only transaction.
    pub read_only_access_count: usize,
    /// Warm-up duration before the measured window opens.
    pub warmup: Duration,
    /// Measured-window duration (ignored in fixed-ops mode).
    pub measure: Duration,
    /// When set, each client executes `fixed_ops / total_clients` measured
    /// transactions (at least one) instead of running for `measure`.
    pub fixed_ops: Option<u64>,
    /// Trials per cell: each trial rebuilds the engine (fresh stores, fresh
    /// seed derived from `seed`) and the cell reports the aggregate, which
    /// damps scheduler noise on small or busy machines.
    pub trials: usize,
    /// Base random seed for the per-client generators.
    pub seed: u64,
    /// Build engines with observability on: per-phase latency histograms
    /// (the `per_phase` block of the JSON report) and per-node trace rings.
    /// Off means `per_phase` is reported as `null` and there are no spans
    /// to collect.
    pub observability: bool,
    /// Drain each cell's trace rings into [`ThroughputRun::spans`] so the
    /// binary can dump a Chrome-trace file (`--trace-out`). Requires
    /// `observability`; off by default because spans are only useful when
    /// someone asked for the dump.
    pub collect_spans: bool,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        ThroughputConfig {
            engines: vec![
                EngineKind::Sss,
                EngineKind::TwoPc,
                EngineKind::Walter,
                EngineKind::Rococo,
            ],
            shard_counts: vec![8],
            batch_sizes: vec![1, sss_engine::DEFAULT_DELIVERY_BATCH],
            epoch_windows: vec![sss_engine::DEFAULT_CONFIRM_EPOCH],
            nodes: 4,
            replication: 2,
            clients_per_node: 8,
            total_keys: 1024,
            read_only_percent: 10,
            update_access_count: 2,
            read_only_access_count: 2,
            warmup: Duration::from_millis(300),
            measure: Duration::from_millis(1500),
            fixed_ops: None,
            trials: 3,
            seed: 42,
            observability: true,
            collect_spans: false,
        }
    }
}

impl ThroughputConfig {
    /// A tiny fixed-ops configuration for CI smoke runs: small cluster,
    /// bounded operation count, still covering SSS plus one baseline and a
    /// 1-vs-many shard sweep so the JSON emitter is exercised end to end.
    pub fn smoke() -> Self {
        ThroughputConfig {
            engines: vec![EngineKind::Sss, EngineKind::TwoPc],
            shard_counts: vec![1, 4],
            batch_sizes: vec![sss_engine::DEFAULT_DELIVERY_BATCH],
            nodes: 2,
            replication: 1,
            clients_per_node: 2,
            total_keys: 128,
            warmup: Duration::from_millis(50),
            fixed_ops: Some(80),
            trials: 1,
            ..ThroughputConfig::default()
        }
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec::new(self.nodes)
            .clients_per_node(self.clients_per_node)
            .total_keys(self.total_keys)
            .read_only_percent(self.read_only_percent)
            .update_access_count(self.update_access_count)
            .read_only_access_count(self.read_only_access_count)
            .seed(self.seed)
    }
}

/// Latency percentiles of one measured window, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyQuantiles {
    /// Mean latency.
    pub mean_us: u64,
    /// Median latency.
    pub p50_us: u64,
    /// 95th percentile latency.
    pub p95_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Maximum observed latency.
    pub max_us: u64,
}

impl LatencyQuantiles {
    /// Quantiles from a log-bucketed [`Histogram`] of microsecond samples —
    /// the production path. Mean and max are exact; percentiles are
    /// quantized to the histogram's bucket (within `1/16` relative error),
    /// using the same rank convention as [`LatencyQuantiles::from_samples`].
    pub fn from_histogram(hist: &Histogram) -> Self {
        if hist.is_empty() {
            return LatencyQuantiles::default();
        }
        LatencyQuantiles {
            mean_us: hist.mean() as u64,
            p50_us: hist.value_at_quantile(0.50),
            p95_us: hist.value_at_quantile(0.95),
            p99_us: hist.value_at_quantile(0.99),
            max_us: hist.max(),
        }
    }

    /// Exact quantiles by sorting raw samples — the reference
    /// implementation the histogram path is checked against (the agreement
    /// test pins p50/p95/p99 to within one histogram bucket).
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return LatencyQuantiles::default();
        }
        samples.sort();
        let pick = |q: f64| {
            let idx = ((samples.len() as f64 - 1.0) * q).floor() as usize;
            samples[idx.min(samples.len() - 1)].as_micros() as u64
        };
        let total: Duration = samples.iter().sum();
        LatencyQuantiles {
            mean_us: (total / samples.len() as u32).as_micros() as u64,
            p50_us: pick(0.50),
            p95_us: pick(0.95),
            p99_us: pick(0.99),
            max_us: samples.last().expect("non-empty").as_micros() as u64,
        }
    }
}

/// The measured result of one (engine × shard count) cell.
#[derive(Debug, Clone)]
pub struct ThroughputRun {
    /// Engine label ("SSS", "2PC", ...).
    pub engine: String,
    /// Storage shard arity the engine was built with.
    pub storage_shards: usize,
    /// Per-wakeup delivery batch size the engine was built with.
    pub delivery_batch: usize,
    /// Grouped-confirmation epoch window the engine was built with (SSS
    /// only; `<= 1` means per-transaction rounds; ignored by baselines).
    pub confirm_epoch: usize,
    /// Committed transactions inside the measured window.
    pub committed: u64,
    /// Aborted attempts inside the measured window.
    pub aborted: u64,
    /// Wall-clock length of the measured window.
    pub window: Duration,
    /// Latency percentiles of committed transactions.
    pub latency: LatencyQuantiles,
    /// Storage-layer counters diffed over the measured window (per-shard
    /// contention included), if the engine exposes them.
    pub storage: Option<StorageStats>,
    /// Mailbox traffic diffed over the measured window, if exposed.
    pub mailbox: Option<MailboxStats>,
    /// Per-message-kind send counts over the window, labelled by the
    /// engine's protocol message names (empty when the engine does not
    /// classify its traffic). Summed across trials like the counters.
    pub message_kinds: Vec<(String, u64)>,
    /// Per-protocol-phase latency histograms (microseconds) diffed over the
    /// measured window and merged across trials; empty when the engine was
    /// built without observability. Only phases the window actually touched
    /// appear.
    pub per_phase: Vec<(Phase, Histogram)>,
    /// Trace spans drained from the engine's rings after the run (the last
    /// ~32k spans per node, warm-up included); empty unless
    /// [`ThroughputConfig::collect_spans`] was set.
    pub spans: Vec<TraceSpan>,
}

impl ThroughputRun {
    /// Committed transactions per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.window.is_zero() {
            0.0
        } else {
            self.committed as f64 / self.window.as_secs_f64()
        }
    }

    /// Mailbox messages enqueued per committed transaction inside the
    /// window (0 when the engine exposes no mailbox stats or nothing
    /// committed). Locally delivered messages are *not* included — they
    /// never enter a queue; see [`ThroughputRun::local_per_txn`].
    pub fn messages_per_txn(&self) -> f64 {
        match (&self.mailbox, self.committed) {
            (Some(mb), committed) if committed > 0 => mb.total_enqueued() as f64 / committed as f64,
            _ => 0.0,
        }
    }

    /// Messages delivered through the transport's local fast path per
    /// committed transaction inside the window.
    pub fn local_per_txn(&self) -> f64 {
        match (&self.mailbox, self.committed) {
            (Some(mb), committed) if committed > 0 => mb.local_delivered as f64 / committed as f64,
            _ => 0.0,
        }
    }

    /// Abort rate over all attempts (0.0 - 1.0).
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.committed + self.aborted;
        if attempts == 0 {
            0.0
        } else {
            self.aborted as f64 / attempts as f64
        }
    }

    /// Total time the window spent in client-scope phases, in microseconds
    /// (the denominator of [`ThroughputRun::phase_share`]). Server-scope
    /// phases (lock hold times measured on the server) are excluded: they
    /// overlap client-observed phases and would double-count.
    pub fn client_phase_total_us(&self) -> u64 {
        self.per_phase
            .iter()
            .filter(|(phase, _)| !phase.is_server_scope())
            .map(|(_, hist)| hist.sum())
            .sum()
    }

    /// Share (0.0 - 1.0) of the summed client-scope phase time spent in
    /// `phase`. `None` when observability was off, the phase never ran, or
    /// `phase` is server-scope (shares are only defined against the
    /// client-observed latency budget).
    pub fn phase_share(&self, phase: Phase) -> Option<f64> {
        if phase.is_server_scope() {
            return None;
        }
        let total = self.client_phase_total_us();
        if total == 0 {
            return None;
        }
        let spent = self.per_phase.iter().find(|(p, _)| *p == phase)?.1.sum();
        Some(spent as f64 / total as f64)
    }

    /// SSS only: the share of commit latency spent waiting for the grouped
    /// external-commit confirmation (the paper's extra round) — the
    /// headline number of the per-phase breakdown. `None` for engines
    /// without a confirmation wait or when observability was off.
    pub fn confirm_wait_share(&self) -> Option<f64> {
        self.phase_share(Phase::ConfirmWait)
    }
}

/// A full harness report: the configuration echo plus one row per cell.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The configuration the sweep ran with.
    pub config: ThroughputConfig,
    /// One measured cell per (engine × shard count), in sweep order.
    pub runs: Vec<ThroughputRun>,
}

impl ThroughputReport {
    /// The collected spans grouped per cell, labelled for
    /// [`sss_engine::chrome_trace_json`]: one process group per run that
    /// recorded spans (requires [`ThroughputConfig::collect_spans`]).
    pub fn trace_groups(&self) -> Vec<(String, Vec<TraceSpan>)> {
        self.runs
            .iter()
            .filter(|run| !run.spans.is_empty())
            .map(|run| {
                (
                    format!(
                        "{} shards={} batch={} epoch={}",
                        run.engine, run.storage_shards, run.delivery_batch, run.confirm_epoch
                    ),
                    run.spans.clone(),
                )
            })
            .collect()
    }
}

const PHASE_WARMUP: u8 = 0;
const PHASE_MEASURE: u8 = 1;
const PHASE_DONE: u8 = 2;

/// Runs the whole sweep described by `config`.
pub fn run_throughput(config: &ThroughputConfig) -> ThroughputReport {
    let mut runs = Vec::new();
    let batches = if config.batch_sizes.is_empty() {
        vec![sss_engine::DEFAULT_DELIVERY_BATCH]
    } else {
        config.batch_sizes.clone()
    };
    let epochs = if config.epoch_windows.is_empty() {
        vec![sss_engine::DEFAULT_CONFIRM_EPOCH]
    } else {
        config.epoch_windows.clone()
    };
    for &engine_kind in &config.engines {
        for &shards in &config.shard_counts {
            for &batch in &batches {
                for (i, &epoch) in epochs.iter().enumerate() {
                    // Only SSS consumes the epoch window; rerunning a
                    // baseline per window would duplicate identical cells.
                    if i > 0 && engine_kind != EngineKind::Sss {
                        continue;
                    }
                    runs.push(run_cell(config, engine_kind, shards, batch, epoch));
                }
            }
        }
    }
    ThroughputReport {
        config: config.clone(),
        runs,
    }
}

/// Runs one (engine × shard count × batch size × epoch window) cell:
/// `config.trials` trials, each a fresh engine build + populate + warm-up +
/// measured window, aggregated.
pub fn run_cell(
    config: &ThroughputConfig,
    kind: EngineKind,
    shards: usize,
    batch: usize,
    epoch: usize,
) -> ThroughputRun {
    let trials = config.trials.max(1);
    let mut aggregate: Option<ThroughputRun> = None;
    let mut all_latencies = Histogram::new();
    for trial in 0..trials {
        let mut trial_config = config.clone();
        trial_config.seed = config.seed.wrapping_add(trial as u64);
        let (run, latencies) = run_trial(&trial_config, kind, shards, batch, epoch);
        all_latencies.merge(&latencies);
        aggregate = Some(match aggregate.take() {
            None => run,
            Some(mut total) => {
                total.committed += run.committed;
                total.aborted += run.aborted;
                total.window += run.window;
                match (&mut total.storage, &run.storage) {
                    (Some(mine), Some(theirs)) => {
                        // merge() sums every field — right for counters,
                        // wrong for gauges (retained versions, resident
                        // keys), which would inflate ~trials-fold. Restore
                        // the gauges from the latest trial's snapshot.
                        mine.merge(theirs);
                        adopt_gauges(mine, theirs);
                    }
                    (slot @ None, Some(theirs)) => *slot = Some(theirs.clone()),
                    _ => {}
                }
                match (&mut total.mailbox, &run.mailbox) {
                    (Some(mine), Some(theirs)) => mine.merge(theirs),
                    (slot @ None, Some(theirs)) => *slot = Some(*theirs),
                    _ => {}
                }
                if total.message_kinds.len() == run.message_kinds.len() {
                    for (mine, theirs) in
                        total.message_kinds.iter_mut().zip(run.message_kinds.iter())
                    {
                        mine.1 += theirs.1;
                    }
                } else if total.message_kinds.is_empty() {
                    total.message_kinds = run.message_kinds.clone();
                }
                // Histogram::merge is associative and commutative, so the
                // per-trial phase windows aggregate deterministically.
                for (phase, hist) in &run.per_phase {
                    match total.per_phase.iter_mut().find(|(p, _)| p == phase) {
                        Some((_, mine)) => mine.merge(hist),
                        None => total.per_phase.push((*phase, hist.clone())),
                    }
                }
                total.spans.extend(run.spans.iter().copied());
                total
            }
        });
    }
    let mut run = aggregate.expect("at least one trial");
    run.latency = LatencyQuantiles::from_histogram(&all_latencies);
    run
}

/// Overwrites the gauge fields of a trial-aggregated [`StorageStats`] with
/// the latest trial's values (counter fields stay summed): gauges describe
/// one engine instance at one moment and must not be added across trials.
fn adopt_gauges(total: &mut StorageStats, latest: &StorageStats) {
    if let (Some(mine), Some(theirs)) = (total.mv.as_mut(), latest.mv.as_ref()) {
        mine.retained_versions = theirs.retained_versions;
        for (m, t) in mine.per_shard.iter_mut().zip(theirs.per_shard.iter()) {
            m.keys = t.keys;
        }
    }
    if let (Some(mine), Some(theirs)) = (total.sv.as_mut(), latest.sv.as_ref()) {
        for (m, t) in mine.per_shard.iter_mut().zip(theirs.per_shard.iter()) {
            m.keys = t.keys;
        }
    }
}

/// One trial of one cell; returns the run plus the latency histogram so
/// the caller can compute percentiles over every trial together.
fn run_trial(
    config: &ThroughputConfig,
    kind: EngineKind,
    shards: usize,
    batch: usize,
    epoch: usize,
) -> (ThroughputRun, Histogram) {
    let engine = kind
        .build(EngineSpec {
            storage_shards: shards,
            delivery_batch: batch,
            confirm_epoch: epoch,
            observability: config.observability,
            ..EngineSpec::new(config.nodes, config.replication)
        })
        .expect("no fault plan to refuse");
    let hub = engine.observability();
    let spec = config.spec();
    spec.validate().expect("throughput spec must be valid");
    populate(engine.as_ref(), &spec);

    let total_clients = config.nodes * config.clients_per_node;
    let ops_per_client = config
        .fixed_ops
        .map(|ops| (ops / total_clients as u64).max(1));
    let phase = AtomicU8::new(PHASE_WARMUP);
    let finished_clients = AtomicUsize::new(0);

    struct Tally {
        committed: u64,
        aborted: u64,
        latencies: Histogram,
    }

    let mut window = Duration::ZERO;
    let mut storage_window = None;
    let mut mailbox_window = None;
    let mut phase_window: Vec<(Phase, Histogram)> = Vec::new();

    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let phase = &phase;
        let finished = &finished_clients;
        let engine_ref = engine.as_ref();
        let spec_ref = &spec;
        let mut handles = Vec::new();
        for node in 0..config.nodes {
            for client in 0..config.clients_per_node {
                handles.push(scope.spawn(move || {
                    let mut generator = WorkloadGenerator::new(spec_ref, NodeId(node), client);
                    let mut session = engine_ref.session(node);
                    let mut tally = Tally {
                        committed: 0,
                        aborted: 0,
                        latencies: Histogram::new(),
                    };
                    let mut measured_ops: u64 = 0;
                    let mut done = false;
                    loop {
                        let current = phase.load(Ordering::Acquire);
                        if current == PHASE_DONE {
                            break;
                        }
                        // In fixed-ops mode a client past its quota idles
                        // until every client is done (keeping the loop
                        // closed would skew the slowest client's window).
                        if done {
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                        let template = generator.next_txn();
                        let outcome = match &template {
                            TxnTemplate::ReadOnly { keys } => session.run_read_only(keys),
                            TxnTemplate::Update { keys, values } => {
                                let writes: Vec<_> =
                                    keys.iter().cloned().zip(values.iter().cloned()).collect();
                                session.run_update(keys, &writes)
                            }
                        };
                        if current != PHASE_MEASURE {
                            continue;
                        }
                        match outcome {
                            TxnOutcome::Committed { latency, .. } => {
                                tally.committed += 1;
                                tally.latencies.record(latency.as_micros() as u64);
                            }
                            TxnOutcome::Aborted => tally.aborted += 1,
                        }
                        measured_ops += 1;
                        if let Some(quota) = ops_per_client {
                            if measured_ops >= quota {
                                done = true;
                                finished.fetch_add(1, Ordering::AcqRel);
                            }
                        }
                    }
                    tally
                }));
            }
        }

        // Drive the phases from this thread: warm up, snapshot, measure,
        // snapshot again, diff.
        std::thread::sleep(config.warmup);
        let storage_before = engine_ref.storage_stats();
        let mailbox_before = engine_ref.mailbox_totals();
        let phase_before = hub.as_ref().map(|h| h.phase_snapshot());
        let window_start = Instant::now();
        phase.store(PHASE_MEASURE, Ordering::Release);
        match ops_per_client {
            Some(_) => {
                while finished.load(Ordering::Acquire) < total_clients {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            None => std::thread::sleep(config.measure),
        }
        phase.store(PHASE_DONE, Ordering::Release);
        window = window_start.elapsed();
        storage_window = engine_ref
            .storage_stats()
            .map(|after| after.diff(&storage_before.unwrap_or_default()));
        mailbox_window = engine_ref.mailbox_totals().map(|after| {
            // Snapshots are taken under the mailbox mutex, so a snapshot
            // can never observe more dequeues than enqueues per class (the
            // window *diff* legitimately can: backlog enqueued before the
            // window may drain inside it).
            assert!(
                after.is_coherent(),
                "incoherent mailbox snapshot: {after:?}"
            );
            let before = mailbox_before.unwrap_or_default();
            // Stats-coherence assertion: the two snapshots' backlog gauges
            // must reconcile the window's enqueue/dequeue counters exactly
            // (per class, summed over the cluster's paired per-node
            // snapshots). A violation means a counting window where a
            // dequeue is visible before its enqueue — a harness/stats bug.
            assert!(
                MailboxStats::conserves(&before, &after),
                "mailbox window books must balance: before={before:?} after={after:?}"
            );
            after.diff(&before)
        });
        if let (Some(hub), Some(before)) = (hub.as_ref(), phase_before) {
            // Like the storage/mailbox counters, the phase histograms are
            // monotonic: diff the window and keep only touched phases.
            phase_window = hub
                .phase_snapshot()
                .iter()
                .zip(before.iter())
                .filter_map(|((phase, after), (_, earlier))| {
                    let window = after.diff(earlier);
                    (!window.is_empty()).then_some((*phase, window))
                })
                .collect();
        }

        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut committed = 0;
    let mut aborted = 0;
    let mut latencies = Histogram::new();
    for tally in tallies {
        committed += tally.committed;
        aborted += tally.aborted;
        latencies.merge(&tally.latencies);
    }
    let message_kinds = match (engine.message_kind_labels(), &mailbox_window) {
        (Some(labels), Some(mb)) => labels
            .iter()
            .zip(mb.per_kind.iter())
            .map(|(label, count)| (label.to_string(), *count))
            .collect(),
        _ => Vec::new(),
    };
    let spans = match (&hub, config.collect_spans) {
        (Some(hub), true) => hub.drain_spans(),
        _ => Vec::new(),
    };
    let run = ThroughputRun {
        engine: kind.label().to_string(),
        storage_shards: shards,
        delivery_batch: batch,
        confirm_epoch: epoch,
        committed,
        aborted,
        window,
        latency: LatencyQuantiles::default(),
        storage: storage_window,
        mailbox: mailbox_window,
        message_kinds,
        per_phase: phase_window,
        spans,
    };
    (run, latencies)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders the human-readable summary table printed by the binary.
pub fn render_table(report: &ThroughputReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>7} {:>6} {:>6} {:>12} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>10}",
        "engine",
        "shards",
        "batch",
        "epoch",
        "ops/s",
        "p50(us)",
        "p95(us)",
        "p99(us)",
        "aborts",
        "msg/txn",
        "cwait%",
        "contended"
    );
    for run in &report.runs {
        let contended = run
            .storage
            .as_ref()
            .map(|s| {
                s.mv.as_ref().map(|m| m.contended).unwrap_or(0)
                    + s.sv.as_ref().map(|v| v.contended).unwrap_or(0)
                    + s.locks.as_ref().map(|l| l.contended).unwrap_or(0)
            })
            .unwrap_or(0);
        let cwait = run
            .confirm_wait_share()
            .map(|share| format!("{:.1}", share * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>6} {:>6} {:>12.1} {:>9} {:>9} {:>9} {:>8.1}% {:>8.1} {:>7} {:>10}",
            run.engine,
            run.storage_shards,
            run.delivery_batch,
            run.confirm_epoch,
            run.ops_per_sec(),
            run.latency.p50_us,
            run.latency.p95_us,
            run.latency.p99_us,
            run.abort_rate() * 100.0,
            run.messages_per_txn(),
            cwait,
            contended,
        );
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_u64_array(values: impl IntoIterator<Item = u64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Serializes the report as the `BENCH_throughput.json` document (schema
/// `sss-throughput/v4`; see the README's benchmark-methodology section).
///
/// v4 adds, per run, the `per_phase` latency breakdown (count, mean,
/// percentiles, total time and the share of the client-scope latency budget
/// per protocol phase; `null` when observability was off) and
/// `confirm_wait_share`, SSS's external-commit confirmation wait as a share
/// of commit latency; the config echo gains `observability`.
pub fn render_json(report: &ThroughputReport) -> String {
    use std::fmt::Write as _;
    let cfg = &report.config;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"sss-throughput/v4\",\n");
    let _ = writeln!(out, "  \"config\": {{");
    let engines: Vec<String> = cfg
        .engines
        .iter()
        .map(|e| format!("\"{}\"", json_escape(e.label())))
        .collect();
    let _ = writeln!(out, "    \"engines\": [{}],", engines.join(","));
    let _ = writeln!(
        out,
        "    \"shard_counts\": {},",
        json_u64_array(cfg.shard_counts.iter().map(|&s| s as u64))
    );
    let _ = writeln!(
        out,
        "    \"batch_sizes\": {},",
        json_u64_array(cfg.batch_sizes.iter().map(|&b| b as u64))
    );
    let _ = writeln!(
        out,
        "    \"epoch_windows\": {},",
        json_u64_array(cfg.epoch_windows.iter().map(|&w| w as u64))
    );
    let _ = writeln!(out, "    \"nodes\": {},", cfg.nodes);
    let _ = writeln!(out, "    \"replication\": {},", cfg.replication);
    let _ = writeln!(out, "    \"clients_per_node\": {},", cfg.clients_per_node);
    let _ = writeln!(out, "    \"total_keys\": {},", cfg.total_keys);
    let _ = writeln!(out, "    \"read_only_percent\": {},", cfg.read_only_percent);
    let _ = writeln!(
        out,
        "    \"update_access_count\": {},",
        cfg.update_access_count
    );
    let _ = writeln!(
        out,
        "    \"read_only_access_count\": {},",
        cfg.read_only_access_count
    );
    let _ = writeln!(out, "    \"warmup_ms\": {},", cfg.warmup.as_millis());
    let _ = writeln!(out, "    \"measure_ms\": {},", cfg.measure.as_millis());
    match cfg.fixed_ops {
        Some(ops) => {
            let _ = writeln!(out, "    \"fixed_ops\": {ops},");
        }
        None => {
            let _ = writeln!(out, "    \"fixed_ops\": null,");
        }
    }
    let _ = writeln!(out, "    \"trials\": {},", cfg.trials.max(1));
    let _ = writeln!(out, "    \"observability\": {},", cfg.observability);
    let _ = writeln!(out, "    \"seed\": {}", cfg.seed);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, run) in report.runs.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"engine\": \"{}\",", json_escape(&run.engine));
        let _ = writeln!(out, "      \"storage_shards\": {},", run.storage_shards);
        let _ = writeln!(out, "      \"delivery_batch\": {},", run.delivery_batch);
        let _ = writeln!(out, "      \"confirm_epoch\": {},", run.confirm_epoch);
        let _ = writeln!(out, "      \"ops_per_sec\": {:.3},", run.ops_per_sec());
        let _ = writeln!(out, "      \"committed\": {},", run.committed);
        let _ = writeln!(out, "      \"aborted\": {},", run.aborted);
        let _ = writeln!(out, "      \"abort_rate\": {:.6},", run.abort_rate());
        let _ = writeln!(out, "      \"window_ms\": {},", run.window.as_millis());
        let _ = writeln!(
            out,
            "      \"latency_us\": {{\"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}}},",
            run.latency.mean_us,
            run.latency.p50_us,
            run.latency.p95_us,
            run.latency.p99_us,
            run.latency.max_us
        );
        out.push_str("      \"per_phase\": ");
        if run.per_phase.is_empty() {
            out.push_str("null,\n");
        } else {
            let parts: Vec<String> = run
                .per_phase
                .iter()
                .map(|(phase, hist)| {
                    let share = run
                        .phase_share(*phase)
                        .map(|share| format!("{share:.6}"))
                        .unwrap_or_else(|| "null".to_string());
                    format!(
                        "\"{}\": {{\"count\": {}, \"mean_us\": {:.1}, \"p50_us\": {}, \
                         \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}, \"total_us\": {}, \
                         \"share\": {}}}",
                        phase.label(),
                        hist.count(),
                        hist.mean(),
                        hist.value_at_quantile(0.50),
                        hist.value_at_quantile(0.95),
                        hist.value_at_quantile(0.99),
                        hist.max(),
                        hist.sum(),
                        share
                    )
                })
                .collect();
            let _ = writeln!(out, "{{{}}},", parts.join(", "));
        }
        match run.confirm_wait_share() {
            Some(share) => {
                let _ = writeln!(out, "      \"confirm_wait_share\": {share:.6},");
            }
            None => out.push_str("      \"confirm_wait_share\": null,\n"),
        }
        out.push_str("      \"storage\": ");
        match &run.storage {
            Some(storage) => {
                let mut parts = Vec::new();
                if let Some(mv) = &storage.mv {
                    parts.push(format!(
                        "\"mv\": {{\"installed_versions\": {}, \"retained_versions\": {}, \"contended\": {}, \"per_shard_contended\": {}}}",
                        mv.installed_versions,
                        mv.retained_versions,
                        mv.contended,
                        json_u64_array(mv.per_shard.iter().map(|s| s.contended))
                    ));
                }
                if let Some(sv) = &storage.sv {
                    parts.push(format!(
                        "\"sv\": {{\"writes\": {}, \"contended\": {}, \"per_shard_contended\": {}}}",
                        sv.writes,
                        sv.contended,
                        json_u64_array(sv.per_shard.iter().map(|s| s.contended))
                    ));
                }
                if let Some(locks) = &storage.locks {
                    parts.push(format!(
                        "\"locks\": {{\"granted\": {}, \"timeouts\": {}, \"contended\": {}, \"per_shard_contended\": {}}}",
                        locks.granted,
                        locks.timeouts,
                        locks.contended,
                        json_u64_array(locks.per_shard_contended.iter().copied())
                    ));
                }
                let _ = writeln!(out, "{{{}}},", parts.join(", "));
            }
            None => out.push_str("null,\n"),
        }
        out.push_str("      \"mailbox\": ");
        match &run.mailbox {
            Some(mb) => {
                let per_kind = if run.message_kinds.is_empty() {
                    "null".to_string()
                } else {
                    let parts: Vec<String> = run
                        .message_kinds
                        .iter()
                        .map(|(label, count)| format!("\"{}\": {}", json_escape(label), count))
                        .collect();
                    format!("{{{}}}", parts.join(", "))
                };
                let _ = writeln!(
                    out,
                    "{{\"enqueued\": {}, \"dequeued\": {}, \"queued\": {}, \
                     \"enqueue_ops\": {}, \
                     \"dequeue_ops\": {}, \"local_delivered\": {}, \
                     \"messages_per_txn\": {:.3}, \"local_per_txn\": {:.3}, \
                     \"messages_per_wakeup\": {:.3}, \"per_kind\": {}}}",
                    mb.total_enqueued(),
                    mb.total_dequeued(),
                    mb.total_queued(),
                    mb.enqueue_ops,
                    mb.dequeue_ops,
                    mb.local_delivered,
                    run.messages_per_txn(),
                    run.local_per_txn(),
                    mb.messages_per_wakeup(),
                    per_kind
                );
            }
            None => out.push_str("null\n"),
        }
        let comma = if i + 1 == report.runs.len() { "" } else { "," };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_from_samples() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let q = LatencyQuantiles::from_samples(samples);
        assert_eq!(q.p50_us, 50);
        assert_eq!(q.p95_us, 95);
        assert_eq!(q.p99_us, 99);
        assert_eq!(q.max_us, 100);
        assert_eq!(
            LatencyQuantiles::from_samples(Vec::new()),
            LatencyQuantiles::default()
        );
    }

    #[test]
    fn histogram_quantiles_agree_with_exact_sampling() {
        // The production (histogram) path must agree with the sorted-sample
        // reference implementation to within one histogram bucket at every
        // reported percentile, and exactly at the max.
        let samples: Vec<Duration> = (1..=500)
            .map(|i| Duration::from_micros(i * 13 % 4096 + 1))
            .collect();
        let exact = LatencyQuantiles::from_samples(samples.clone());
        let mut hist = Histogram::new();
        for sample in &samples {
            hist.record(sample.as_micros() as u64);
        }
        let approx = LatencyQuantiles::from_histogram(&hist);
        for (name, a, e) in [
            ("p50", approx.p50_us, exact.p50_us),
            ("p95", approx.p95_us, exact.p95_us),
            ("p99", approx.p99_us, exact.p99_us),
        ] {
            assert!(a <= e, "{name}: histogram {a} above exact {e}");
            assert!(
                e - a <= Histogram::bucket_width(e),
                "{name}: histogram {a} more than one bucket below exact {e}"
            );
        }
        assert_eq!(approx.max_us, exact.max_us, "max is exact");
        assert_eq!(approx.mean_us, exact.mean_us, "mean is exact");
        assert_eq!(
            LatencyQuantiles::from_histogram(&Histogram::new()),
            LatencyQuantiles::default()
        );
    }

    #[test]
    fn fixed_ops_cell_measures_and_diffs_counters() {
        let config = ThroughputConfig {
            engines: vec![EngineKind::TwoPc],
            shard_counts: vec![2],
            nodes: 2,
            replication: 1,
            clients_per_node: 2,
            total_keys: 64,
            warmup: Duration::from_millis(10),
            fixed_ops: Some(16),
            trials: 1,
            ..ThroughputConfig::default()
        };
        let run = run_cell(&config, EngineKind::TwoPc, 2, 8, 1);
        assert_eq!(run.engine, "2PC");
        assert_eq!(run.storage_shards, 2);
        assert_eq!(run.delivery_batch, 8);
        assert_eq!(run.confirm_epoch, 1);
        assert_eq!(run.committed + run.aborted, 16, "4 clients x 4 ops each");
        assert!(run.ops_per_sec() > 0.0);
        let storage = run.storage.expect("2PC exposes storage stats");
        let sv = storage.sv.expect("2PC runs an SvStore");
        assert_eq!(sv.per_shard.len(), 2);
        let mailbox = run.mailbox.expect("2PC exposes mailbox stats");
        assert!(mailbox.total_enqueued() > 0, "window saw traffic");
        assert!(mailbox.dequeue_ops > 0, "workers woke up at least once");
    }

    #[test]
    fn json_document_is_well_formed() {
        let config = ThroughputConfig {
            engines: vec![EngineKind::Rococo],
            shard_counts: vec![1],
            batch_sizes: vec![4],
            nodes: 1,
            replication: 1,
            clients_per_node: 1,
            total_keys: 32,
            warmup: Duration::from_millis(5),
            fixed_ops: Some(4),
            trials: 1,
            ..ThroughputConfig::default()
        };
        let report = run_throughput(&config);
        assert_eq!(report.runs.len(), 1);
        let json = render_json(&report);
        assert!(json.contains("\"schema\": \"sss-throughput/v4\""));
        assert!(json.contains("\"engine\": \"ROCOCO\""));
        assert!(json.contains("\"ops_per_sec\""));
        assert!(json.contains("\"batch_sizes\""));
        assert!(json.contains("\"epoch_windows\""));
        assert!(json.contains("\"delivery_batch\""));
        assert!(json.contains("\"confirm_epoch\""));
        assert!(json.contains("\"messages_per_txn\""));
        assert!(json.contains("\"queued\""));
        // Observability is on by default, so the per-phase block is
        // populated with ROCOCO's dispatch/execute taxonomy; the
        // confirmation wait is an SSS-only phase.
        assert!(json.contains("\"per_phase\": {"));
        assert!(json.contains("\"dispatch\""));
        assert!(json.contains("\"confirm_wait_share\": null"));
        // Cheap structural sanity: balanced braces and brackets.
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
        assert!(!render_table(&report).is_empty());
    }

    #[test]
    fn sss_epoch_sweep_attributes_messages_per_kind() {
        let config = ThroughputConfig {
            engines: vec![EngineKind::Sss, EngineKind::TwoPc],
            shard_counts: vec![1],
            batch_sizes: vec![4],
            epoch_windows: vec![1, 16],
            nodes: 2,
            replication: 1,
            clients_per_node: 1,
            total_keys: 32,
            warmup: Duration::from_millis(5),
            fixed_ops: Some(8),
            trials: 1,
            ..ThroughputConfig::default()
        };
        let report = run_throughput(&config);
        // SSS runs once per epoch window; the baseline ignores the knob and
        // runs only the first.
        assert_eq!(report.runs.len(), 3);
        let sss: Vec<_> = report.runs.iter().filter(|r| r.engine == "SSS").collect();
        assert_eq!(sss.len(), 2);
        assert_eq!((sss[0].confirm_epoch, sss[1].confirm_epoch), (1, 16));
        for run in &sss {
            assert!(
                run.message_kinds
                    .iter()
                    .any(|(label, _)| label == "Prepare"),
                "SSS attributes traffic per protocol message kind"
            );
            let attributed: u64 = run.message_kinds.iter().map(|(_, count)| count).sum();
            assert!(attributed > 0, "measured window saw classified traffic");
            // The per-phase breakdown must expose the confirmation wait —
            // SSS's extra external-commit round — as a share of latency.
            assert!(
                run.per_phase
                    .iter()
                    .any(|(phase, _)| *phase == Phase::ConfirmWait),
                "SSS window records confirm-wait spans"
            );
            let share = run.confirm_wait_share().expect("SSS reports the share");
            assert!((0.0..=1.0).contains(&share), "share {share} out of range");
        }
        let baseline = report.runs.iter().find(|r| r.engine == "2PC").unwrap();
        assert!(
            baseline
                .message_kinds
                .iter()
                .any(|(label, _)| label == "Prepare"),
            "2PC classifies its traffic too"
        );
        assert!(
            baseline.confirm_wait_share().is_none(),
            "the confirmation wait is an SSS-only phase"
        );
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_u64_array([1, 2, 3]), "[1,2,3]");
    }
}
