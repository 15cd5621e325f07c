//! The SSS benchmark: drives a three-node `SssCluster` with product defaults
//! from closed-loop clients through the public `Session` API, checks that
//! every result is correct, and prints end-to-end metrics (`--trace 0`) or
//! per-layer metrics (`--trace 1`). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! sss-perfbench --workload ro-heavy --seed 1 --seconds 30 --trace 0 [--out-dir DIR]
//! ```
//!
//! See `perfbench/README.md` for the workloads and the metric map.

mod client;
mod layers;
mod probes;
mod spans;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sss_consistency::{
    check_external_consistency, check_read_only_snapshots, HistoryRecorder, TxnKind, TxnRecord,
    WriteRecord,
};
use sss_core::{SssCluster, SssConfig, SssError};
use sss_obs::{ObsHub, Phase};

use client::{run_client, ClientResult, RunPlan};
use layers::{Bases, Snapshot, Window};
use stats::{median, ratio, Report};
use workload::{decode, encode, key, Workload, CLIENTS, INITIAL_BALANCE, KEYS, NODES};

/// Cluster set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Load before the measured window, so threads and caches are warm.
const WARMUP: Duration = Duration::from_secs(1);
/// Transactions recorded for the consistency checkers in the traced run.
const HISTORY_CAP: usize = 2_500;
/// Per-node span ring of the traced run's `ObsHub`, sized to keep the
/// phase spans of the whole traced window.
const RING_CAPACITY: usize = 1 << 17;

/// The end-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
///
/// `committed_per_s`, the p99s and the abort ratios are printed but not
/// listed: on a shared host the first three move with the time the host
/// steals (`committed_per_s` by up to 20 % between sets of runs), and the
/// abort ratios are zero on the uniform workloads.
const END_TO_END: &[&str] = &["update_p50_us", "ro_p50_us", "setup_s", "peak_rss_mb"];

/// The per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: &[&str] = &[
    "session.ro_read_us.p50",
    "session.ro_read_us.p99",
    "session.update_read_us.p50",
    "session.update_commit_us.p50",
    "session.update_commit_us.p99",
    "session.internal_commit_us.p50",
    "session.confirm_us.p50",
    "session.confirm_us.p99",
    "session.ro_commit_us.p50",
    "read.deferred_per_read",
    "read.parked_per_read",
    "update_abort_ratio",
    "commit.lock_fail_per_prepare",
    "commit.validation_fail_per_prepare",
    "commit.external_wait_per_update",
    "commit.precommit_wait_us_per_update",
    "phase.confirm_wait_us.p50",
    "phase.confirm_wait_us.p99",
    "phase.confirm_wait_share",
    "net.ConfirmExternal_per_update",
    "net.ReleaseExternal_per_update",
    "phase.read_us.p50",
    "phase.read_us.p99",
    "phase.read_share",
    "phase.pre_commit_us.p50",
    "phase.pre_commit_us.p99",
    "phase.pre_commit_share",
    "phase.commit_queue_wait_us.p50",
    "phase.commit_queue_wait_us.p99",
    "phase.commit_queue_wait_share",
    "phase.release_share",
    "trace.overhead",
    "committed_per_s.untraced",
    "span.txn.self_us.p50",
    "span.txn.self_share",
    "span.begin.self_us.p50",
    "span.read.self_share",
    "span.commit.self_us.p50",
    "span.commit.self_share",
    "span.joined_share",
    "net.messages_per_txn",
    "net.local_per_txn",
    "net.messages_per_wakeup",
    "net.ReadRequest_per_txn",
    "net.Prepare_per_txn",
    "net.Decide_per_txn",
    "net.Remove_per_txn",
    "storage.installed_per_update",
    "storage.retained_versions",
    "storage.contended_per_txn",
    "storage.lock_timeouts_per_update",
    "vclock.merge_ns",
    "vclock.le_ns",
    "storage.mv_apply_ns",
    "storage.mv_read_ns",
    "net.mailbox_roundtrip_ns",
    "obs.hist_record_ns",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-spans");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .ok_or_else(|| bad("one of ro-heavy, update-heavy, long-ro-hot"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => match value.parse() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(bad("whole seconds in 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

/// A started and populated cluster.
struct Cluster {
    cluster: SssCluster,
    /// The populating transaction, as the history records it.
    populate: TxnRecord,
    /// Time from `SssCluster::start` to the populating commit's return.
    setup: Duration,
}

/// Starts a cluster with product defaults (plus the hub, when tracing) and
/// writes every key's initial balance in one update transaction.
fn setup(hub: Option<Arc<ObsHub>>) -> Result<Cluster, SssError> {
    let started = Instant::now();
    let mut config = SssConfig::new(NODES);
    if let Some(hub) = hub {
        config = config.observability(hub);
    }
    let cluster = SssCluster::start(config)?;
    let mut txn = cluster.session(0).begin_update();
    let id = txn.id();
    let value = encode(INITIAL_BALANCE, id);
    for k in 0..KEYS {
        txn.write(key(k), value.clone());
    }
    txn.commit()?;
    let finished = Instant::now();
    let populate = TxnRecord {
        id,
        kind: TxnKind::Update,
        started,
        finished,
        reads: Vec::new(),
        writes: (0..KEYS)
            .map(|k| WriteRecord {
                key: key(k),
                value: value.clone(),
            })
            .collect(),
    };
    Ok(Cluster {
        cluster,
        populate,
        setup: finished - started,
    })
}

/// One measured run on a populated cluster.
struct Measured {
    clients: ClientResult,
    window: Window,
    seconds: f64,
    /// Failed correctness checks.
    failures: Vec<String>,
}

impl Measured {
    fn committed_per_s(&self) -> f64 {
        self.clients.committed() as f64 / self.seconds
    }

    fn committed_updates(&self) -> u64 {
        self.clients.updates_attempted - self.clients.updates_failed
    }
}

/// Warms up, measures `seconds` of closed-loop load from [`CLIENTS`]
/// clients, and checks the outcome.
fn measure(
    cluster: &SssCluster,
    workload: Workload,
    seed: u64,
    seconds: Duration,
    epoch: Instant,
    history: Option<&HistoryRecorder>,
) -> Measured {
    let start = Instant::now() + WARMUP;
    let plan = RunPlan {
        cluster,
        workload,
        seed,
        start,
        end: start + seconds,
        epoch,
        trace: history.is_some(),
        history: history.map(|h| (h, HISTORY_CAP)),
    };
    let (clients, before, after) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let plan = &plan;
                scope.spawn(move || run_client(plan, c))
            })
            .collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        let before = Snapshot::take(cluster);
        let mut clients = ClientResult::default();
        for handle in handles {
            clients.merge(handle.join().expect("client thread panicked"));
        }
        (clients, before, Snapshot::take(cluster))
    });
    let window = Window::new(before, after);

    let mut failures = Vec::new();
    if clients.ro_errors > 0 {
        failures.push(format!(
            "{} read-only transactions aborted or failed: {:?}",
            clients.ro_errors, clients.errors
        ));
    }
    failures.extend(clients.violations.iter().take(5).cloned());
    if !window.mailbox_conserves() {
        failures.push("mailbox counters of the window do not balance".to_string());
    }
    if let Err(problem) = audit(cluster) {
        failures.push(problem);
    }
    Measured {
        clients,
        window,
        seconds: seconds.as_secs_f64(),
        failures,
    }
}

/// Reads every key in one read-only transaction; the balances must sum to
/// their initial total.
fn audit(cluster: &SssCluster) -> Result<(), String> {
    let mut txn = cluster.session(0).begin_read_only();
    let mut sum = 0i64;
    for k in 0..KEYS {
        let value = txn
            .read(key(k))
            .map_err(|e| format!("final scan: read of key {k} failed: {e}"))?;
        let (balance, _) = value
            .as_ref()
            .and_then(decode)
            .ok_or_else(|| format!("final scan: key {k} holds {value:?}"))?;
        sum += balance;
    }
    txn.commit().map_err(|e| format!("final scan: {e}"))?;
    let expected = KEYS as i64 * INITIAL_BALANCE;
    if sum != expected {
        return Err(format!("final scan sums to {sum}, expected {expected}"));
    }
    Ok(())
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn add_outcomes(report: &mut Report, run: &Measured) {
    let c = &run.clients;
    report.add(
        "update_abort_ratio",
        ratio(c.update_aborts as f64, c.update_attempts as f64),
        "ratio",
        c.update_attempts,
    );
    report.add(
        "ro_abort_ratio",
        ratio(c.ro_failed as f64, c.ro_attempted as f64),
        "ratio",
        c.ro_attempted,
    );
}

/// `--trace 0`: set-up time, then the end-to-end metrics of one window.
fn end_to_end(args: &Args, report: &mut Report) -> Result<Measured, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // The previous cluster shuts down before the next one starts.
        drop(last.take());
        let cluster = setup(None).map_err(|e| format!("set-up failed: {e}"))?;
        setups.push(cluster.setup.as_secs_f64());
        last = Some(cluster);
    }
    let cluster = last.expect("at least one set-up");
    let mut run = measure(
        &cluster.cluster,
        args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        Instant::now(),
        None,
    );
    drop(cluster);
    report.add(
        "committed_per_s",
        run.committed_per_s(),
        "1/s",
        run.clients.committed(),
    );
    report.quantile_us("update_p50_us", &mut run.clients.update_latency, 0.5);
    report.quantile_us("update_p99_us", &mut run.clients.update_latency, 0.99);
    report.quantile_us("ro_p50_us", &mut run.clients.ro_latency, 0.5);
    report.quantile_us("ro_p99_us", &mut run.clients.ro_latency, 0.99);
    add_outcomes(report, &run);
    report.add("setup_s", median(setups), "s", SETUPS as u64);
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    Ok(run)
}

/// `--trace 1`: an untraced window, then a traced one with the `ObsHub`
/// attached, benchmark spans and a recorded history; then the probes.
fn per_layer(args: &Args, report: &mut Report) -> Result<Vec<Measured>, String> {
    let half = Duration::from_secs(args.seconds) / 2;
    let plain = {
        let cluster = setup(None).map_err(|e| format!("set-up failed: {e}"))?;
        measure(
            &cluster.cluster,
            args.workload,
            args.seed,
            half,
            Instant::now(),
            None,
        )
    };

    let epoch = Instant::now();
    let hub = ObsHub::with_epoch(NODES, RING_CAPACITY, epoch);
    let cluster = setup(Some(Arc::clone(&hub))).map_err(|e| format!("set-up failed: {e}"))?;
    let recorder = HistoryRecorder::new();
    recorder.record(cluster.populate.clone());
    let mut traced = measure(
        &cluster.cluster,
        args.workload,
        args.seed,
        half,
        epoch,
        Some(&recorder),
    );
    let product_spans = hub.drain_spans();
    drop(cluster);

    let history = recorder.into_history();
    let checked = Instant::now();
    if let Err(e) = check_external_consistency(&history) {
        traced
            .failures
            .push(format!("history is not external consistent: {e}"));
    }
    if let Err(e) = check_read_only_snapshots(&history) {
        traced.failures.push(format!("read-only snapshots: {e}"));
    }
    println!(
        "history: {} transactions checked in {:.2} s",
        history.len(),
        checked.elapsed().as_secs_f64()
    );

    let c = &mut traced.clients;
    report.quantile_us("session.ro_read_us.p50", &mut c.ro_read, 0.5);
    report.quantile_us("session.ro_read_us.p99", &mut c.ro_read, 0.99);
    report.quantile_us("session.update_read_us.p50", &mut c.update_read, 0.5);
    report.quantile_us("session.update_commit_us.p50", &mut c.update_commit, 0.5);
    report.quantile_us("session.update_commit_us.p99", &mut c.update_commit, 0.99);
    report.quantile_us(
        "session.internal_commit_us.p50",
        &mut c.internal_commit,
        0.5,
    );
    report.quantile_us("session.confirm_us.p50", &mut c.confirm, 0.5);
    report.quantile_us("session.confirm_us.p99", &mut c.confirm, 0.99);
    report.quantile_us("session.ro_commit_us.p50", &mut c.ro_commit, 0.5);
    add_outcomes(report, &traced);

    let bases = Bases {
        committed: traced.clients.committed(),
        committed_updates: traced.committed_updates(),
    };
    traced.window.report_counters(report, bases);
    traced.window.report_phases(
        report,
        &[
            Phase::ConfirmWait,
            Phase::Read,
            Phase::PreCommit,
            Phase::CommitQueueWait,
            Phase::Release,
        ],
    );
    report.add(
        "committed_per_s.untraced",
        plain.committed_per_s(),
        "1/s",
        plain.clients.committed(),
    );
    report.add(
        "committed_per_s.traced",
        traced.committed_per_s(),
        "1/s",
        traced.clients.committed(),
    );
    report.add(
        "trace.overhead",
        1.0 - ratio(traced.committed_per_s(), plain.committed_per_s()),
        "ratio",
        traced.clients.committed(),
    );
    spans::self_times(&traced.clients.spans, &product_spans).report(report);

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let path = args.out_dir.join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name, args.seed
    ));
    spans::write_tsv(&path, &traced.clients.spans, &product_spans)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: written to {}", path.display());

    // Mean chain length on the keys the workload touched: every touched key
    // holds one version per replica from the populate step plus the ones
    // its transfers installed.
    let replicated_span = (args.workload.span * 2) as u64;
    let extra = traced
        .window
        .retained_versions()
        .saturating_sub(traced.window.resident_keys());
    let chain_len = 1 + (extra / replicated_span) as usize;
    println!("probes: version chains of {chain_len} versions");
    probes::run(report, chain_len);
    Ok(vec![plain, traced])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("sss-perfbench: {problem}");
            eprintln!(
                "usage: sss-perfbench --workload <ro-heavy|update-heavy|long-ro-hot> \
                 --seed <n> --seconds <n> --trace <0|1> [--out-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "sss-perfbench workload={} seed={} seconds={} trace={} nodes={NODES} clients={CLIENTS} \
         keys={KEYS} available_parallelism={parallelism}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut report = Report::default();
    let runs = if args.trace {
        per_layer(&args, &mut report)
    } else {
        end_to_end(&args, &mut report).map(|run| vec![run])
    };
    let runs = match runs {
        Ok(runs) => runs,
        Err(problem) => {
            eprintln!("sss-perfbench: {problem}");
            return ExitCode::from(3);
        }
    };
    print!("{}", report.render());

    let failures: Vec<&String> = runs.iter().flat_map(|r| &r.failures).collect();
    for failure in &failures {
        println!("CORRECTNESS FAILURE: {failure}");
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let unmeasured: Vec<&&str> = names.iter().filter(|n| report.get(n).is_none()).collect();
    if !unmeasured.is_empty() {
        eprintln!("sss-perfbench: metrics not measured: {unmeasured:?}");
        return ExitCode::from(3);
    }
    let attempted: u64 = runs
        .iter()
        .map(|r| r.clients.ro_attempted + r.clients.updates_attempted)
        .sum();
    let failed: u64 = runs
        .iter()
        .map(|r| r.clients.ro_failed + r.clients.updates_failed)
        .sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failures.is_empty(),
        report.json_metrics(names)
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
