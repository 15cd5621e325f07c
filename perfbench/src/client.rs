//! One closed-loop client: draws operations from its generator, runs them
//! through the public `Session` API, times every call into it, checks every
//! read-only snapshot, and (in the traced run) records spans and history.

use std::time::Instant;

use sss_consistency::{HistoryRecorder, ReadRecord, TxnKind, TxnRecord, WriteRecord};
use sss_core::{Session, SssCluster, SssError, TxnId, Value};

use crate::spans::{Span, SpanKind};
use crate::stats::Samples;
use crate::workload::{decode, encode, key, Op, OpGen, Workload, INITIAL_BALANCE, NODES};

/// Attempts of one transfer before it counts as failed.
const MAX_ATTEMPTS: u32 = 1_000;
/// Error messages kept per client for the report.
const KEPT_ERRORS: usize = 5;

/// What a client run needs to know; shared by every client of a run.
pub struct RunPlan<'a> {
    pub cluster: &'a SssCluster,
    pub workload: Workload,
    pub seed: u64,
    /// Transactions that start in `[start, end)` are measured; the loop
    /// stops starting new ones at `end`.
    pub start: Instant,
    pub end: Instant,
    /// Time base of the spans (also the `ObsHub` epoch).
    pub epoch: Instant,
    pub trace: bool,
    /// History recorder and its transaction cap (traced run only).
    pub history: Option<(&'a HistoryRecorder, usize)>,
}

/// Everything one client measured. Counts cover transactions that started
/// inside the window, except `ro_errors` and `violations`, which cover the
/// whole run.
#[derive(Debug, Default)]
pub struct ClientResult {
    pub ro_latency: Samples,
    pub update_latency: Samples,
    pub ro_read: Samples,
    pub update_read: Samples,
    pub ro_commit: Samples,
    pub update_commit: Samples,
    pub internal_commit: Samples,
    pub confirm: Samples,
    pub ro_attempted: u64,
    pub ro_failed: u64,
    pub updates_attempted: u64,
    pub updates_failed: u64,
    pub update_attempts: u64,
    pub update_aborts: u64,
    pub ro_errors: u64,
    pub violations: Vec<String>,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

impl ClientResult {
    pub fn merge(&mut self, other: ClientResult) {
        self.ro_latency.extend(&other.ro_latency);
        self.update_latency.extend(&other.update_latency);
        self.ro_read.extend(&other.ro_read);
        self.update_read.extend(&other.update_read);
        self.ro_commit.extend(&other.ro_commit);
        self.update_commit.extend(&other.update_commit);
        self.internal_commit.extend(&other.internal_commit);
        self.confirm.extend(&other.confirm);
        self.ro_attempted += other.ro_attempted;
        self.ro_failed += other.ro_failed;
        self.updates_attempted += other.updates_attempted;
        self.updates_failed += other.updates_failed;
        self.update_attempts += other.update_attempts;
        self.update_aborts += other.update_aborts;
        self.ro_errors += other.ro_errors;
        self.violations.extend(other.violations);
        self.errors.extend(other.errors);
        self.spans.extend(other.spans);
    }

    pub fn committed(&self) -> u64 {
        self.ro_attempted - self.ro_failed + self.updates_attempted - self.updates_failed
    }

    fn note_error(&mut self, what: &str, error: &SssError) {
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(format!("{what}: {error}"));
        }
    }
}

struct Client<'a> {
    plan: &'a RunPlan<'a>,
    out: ClientResult,
}

/// Runs client number `index` until the plan's window ends.
pub fn run_client(plan: &RunPlan<'_>, index: usize) -> ClientResult {
    let sessions: Vec<Session> = (0..NODES).map(|n| plan.cluster.session(n)).collect();
    let mut ops = OpGen::new(plan.workload, plan.seed, index);
    let mut client = Client {
        plan,
        out: ClientResult::default(),
    };
    while Instant::now() < plan.end {
        let (op, node) = ops.next();
        match op {
            Op::ReadOnly(keys) => client.read_only(&sessions[node], &keys),
            Op::Transfer(from, to) => client.transfer(&sessions[node], from, to),
        }
    }
    client.out
}

impl Client<'_> {
    fn in_window(&self, started: Instant) -> bool {
        started >= self.plan.start && started < self.plan.end
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.plan.epoch).as_nanos() as u64
    }

    fn span(&mut self, txn: TxnId, kind: SpanKind, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.out.spans.push(Span {
            txn,
            kind,
            start_ns,
            end_ns,
        });
    }

    /// The history recorder, while it is below its cap.
    fn recorder(&self) -> Option<&HistoryRecorder> {
        self.plan
            .history
            .filter(|(recorder, cap)| recorder.len() < *cap)
            .map(|(recorder, _)| recorder)
    }

    fn read_only(&mut self, session: &Session, keys: &[usize]) {
        let started = Instant::now();
        let mut txn = session.begin_read_only();
        let begun = Instant::now();
        let id = txn.id();
        let mut reads = Vec::with_capacity(keys.len());
        let mut read_times = Vec::with_capacity(keys.len());
        let mut outcome = Ok(());
        for &k in keys {
            let read_started = Instant::now();
            match txn.read(key(k)) {
                Ok(value) => {
                    read_times.push((read_started, Instant::now()));
                    reads.push((k, value));
                }
                Err(error) => {
                    outcome = Err(error);
                    break;
                }
            }
        }
        let commit_started = Instant::now();
        let outcome = match outcome {
            Ok(()) => txn.commit(),
            Err(error) => {
                drop(txn);
                Err(error)
            }
        };
        let finished = Instant::now();

        let measured = self.in_window(started);
        if let Err(error) = &outcome {
            self.out.ro_errors += 1;
            self.out.note_error(&format!("read-only {id}"), error);
            if measured {
                self.out.ro_attempted += 1;
                self.out.ro_failed += 1;
            }
            return;
        }
        self.check_snapshot(id, &reads);
        if !measured {
            return;
        }
        self.out.ro_attempted += 1;
        self.out.ro_latency.push(nanos(started, finished));
        if self.plan.trace {
            self.out.ro_commit.push(nanos(commit_started, finished));
            for (from, to) in &read_times {
                self.out.ro_read.push(nanos(*from, *to));
            }
            self.span(id, SpanKind::Txn, started, finished);
            self.span(id, SpanKind::Begin, started, begun);
            for (from, to) in read_times {
                self.span(id, SpanKind::Read, from, to);
            }
            self.span(id, SpanKind::Commit, commit_started, finished);
        }
        if let Some(recorder) = self.recorder() {
            recorder.record(TxnRecord {
                id,
                kind: TxnKind::ReadOnly,
                started,
                finished,
                reads: reads
                    .into_iter()
                    .map(|(k, value)| ReadRecord {
                        key: key(k),
                        observed_writer: value.as_ref().and_then(decode).map(|(_, w)| w),
                        value,
                    })
                    .collect(),
                writes: Vec::new(),
            });
        }
    }

    /// Every read must return an attributable balance; a read-only
    /// transaction that reads the whole hot set must see it sum to its
    /// initial total.
    fn check_snapshot(&mut self, id: TxnId, reads: &[(usize, Option<Value>)]) {
        let mut sum = 0i64;
        for (k, value) in reads {
            match value.as_ref().and_then(decode) {
                Some((balance, _)) => sum += balance,
                None => {
                    self.out
                        .violations
                        .push(format!("read-only {id}: key {k} read {value:?}"));
                    return;
                }
            }
        }
        if self.plan.workload.ro_reads_whole_span() {
            let expected = self.plan.workload.span as i64 * INITIAL_BALANCE;
            if sum != expected {
                self.out.violations.push(format!(
                    "read-only {id}: snapshot of {} keys sums to {sum}, expected {expected}",
                    reads.len()
                ));
            }
        }
    }

    fn transfer(&mut self, session: &Session, from: usize, to: usize) {
        let measured = self.in_window(Instant::now());
        if measured {
            self.out.updates_attempted += 1;
        }
        for _ in 0..MAX_ATTEMPTS {
            match self.transfer_attempt(session, from, to) {
                Attempt::Committed => return,
                Attempt::Aborted => continue,
                Attempt::Failed => break,
            }
        }
        if measured {
            self.out.updates_failed += 1;
        }
    }

    fn transfer_attempt(&mut self, session: &Session, from: usize, to: usize) -> Attempt {
        let started = Instant::now();
        let measured = self.in_window(started);
        if measured {
            self.out.update_attempts += 1;
        }
        let mut txn = session.begin_update();
        let begun = Instant::now();
        let id = txn.id();
        let mut balances = [0i64; 2];
        let mut observed = [None, None];
        let mut read_times = [(started, started); 2];
        for (slot, k) in [from, to].into_iter().enumerate() {
            let read_started = Instant::now();
            let value = match txn.read(key(k)) {
                Ok(value) => value,
                Err(error) => {
                    self.out.note_error(&format!("update {id} read"), &error);
                    return Attempt::Failed;
                }
            };
            read_times[slot] = (read_started, Instant::now());
            let Some((balance, _)) = value.as_ref().and_then(decode) else {
                self.out
                    .violations
                    .push(format!("update {id}: key {k} read {value:?}"));
                return Attempt::Failed;
            };
            balances[slot] = balance;
            observed[slot] = value;
        }
        let writes = [
            (from, encode(balances[0] - 1, id)),
            (to, encode(balances[1] + 1, id)),
        ];
        for (k, value) in &writes {
            txn.write(key(*k), value.clone());
        }
        let commit_started = Instant::now();
        let outcome = txn.commit();
        let finished = Instant::now();

        let info = match outcome {
            Ok(info) => info,
            Err(error) if error.is_abort() => {
                if measured {
                    self.out.update_aborts += 1;
                }
                return Attempt::Aborted;
            }
            Err(error) => {
                self.out.note_error(&format!("update {id} commit"), &error);
                return Attempt::Failed;
            }
        };
        if !measured {
            return Attempt::Committed;
        }
        self.out.update_latency.push(nanos(started, finished));
        if self.plan.trace {
            self.out.update_commit.push(nanos(commit_started, finished));
            for (from, to) in read_times {
                self.out.update_read.push(nanos(from, to));
            }
            self.out
                .internal_commit
                .push(info.internal_latency.as_nanos() as u64);
            self.out
                .confirm
                .push(info.pre_commit_wait().as_nanos() as u64);
            self.span(id, SpanKind::Txn, started, finished);
            self.span(id, SpanKind::Begin, started, begun);
            for (from, to) in read_times {
                self.span(id, SpanKind::Read, from, to);
            }
            self.span(id, SpanKind::Commit, commit_started, finished);
        }
        if let Some(recorder) = self.recorder() {
            recorder.record(TxnRecord {
                id,
                kind: TxnKind::Update,
                started,
                finished,
                reads: [from, to]
                    .into_iter()
                    .zip(observed)
                    .map(|(k, value)| ReadRecord {
                        key: key(k),
                        observed_writer: value.as_ref().and_then(decode).map(|(_, w)| w),
                        value,
                    })
                    .collect(),
                writes: writes
                    .into_iter()
                    .map(|(k, value)| WriteRecord { key: key(k), value })
                    .collect(),
            });
        }
        Attempt::Committed
    }
}

enum Attempt {
    Committed,
    Aborted,
    Failed,
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}
