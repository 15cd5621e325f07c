//! Benchmark-side spans of the traced run, joined with the product's phase
//! spans from the `ObsHub` rings, and the self time of each layer.
//!
//! Every transaction attempt gets a root `txn` span whose children are the
//! benchmark's `begin`, `read` and `commit` spans around the calls into
//! `Session`. The product's phase spans of the same transaction (`read`,
//! `pre_commit`, `commit_queue_wait`, `confirm_wait`, ...) are the children
//! of the benchmark span they start in. A span's self time is its duration
//! minus the part of its interval that its children cover. A product phase
//! can outlive the call it started in (the read phase stays open from the
//! first read to the commit), so a benchmark call counts as covered by every
//! phase of its transaction that overlaps it, clipped to its interval.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use sss_core::TxnId;
use sss_obs::{ObsHub, TraceSpan};

use crate::stats::{ratio, Report, Samples};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Txn,
    Begin,
    Read,
    Commit,
}

impl SpanKind {
    const ALL: [SpanKind; 4] = [
        SpanKind::Txn,
        SpanKind::Begin,
        SpanKind::Read,
        SpanKind::Commit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Begin => "begin",
            SpanKind::Read => "read",
            SpanKind::Commit => "commit",
        }
    }
}

/// One benchmark-side span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub txn: TxnId,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`.
fn covered(start: u64, end: u64, children: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// Self-time statistics of the benchmark spans.
#[derive(Debug, Default)]
pub struct SelfTimes {
    self_ns: [Samples; 4],
    self_sum: [u64; 4],
    dur_sum: [u64; 4],
    /// Attempts traced, and those whose product spans were found.
    traced: u64,
    joined: u64,
}

/// One transaction attempt: its benchmark spans (the root first) and the
/// product's client-lane phase spans of the same transaction, if the hub's
/// rings still hold them.
struct Joined<'a> {
    txn: TxnId,
    spans: Vec<&'a Span>,
    phases: Vec<&'a TraceSpan>,
}

/// Groups both kinds of span by transaction, in transaction order.
fn join<'a>(bench: &'a [Span], product: &'a [TraceSpan]) -> Vec<Joined<'a>> {
    let mut phases: HashMap<(u32, u64), Vec<&TraceSpan>> = HashMap::new();
    for span in product.iter().filter(|s| s.lane < ObsHub::server_lane(0)) {
        phases.entry((span.node, span.txn)).or_default().push(span);
    }
    let mut by_txn: HashMap<TxnId, Vec<&Span>> = HashMap::new();
    for span in bench {
        by_txn.entry(span.txn).or_default().push(span);
    }
    let mut joined: Vec<Joined> = by_txn
        .into_iter()
        .map(|(txn, spans)| Joined {
            txn,
            spans,
            phases: phases
                .remove(&(txn.origin.index() as u32, txn.seq))
                .unwrap_or_default(),
        })
        .collect();
    joined.sort_by_key(|j| (j.txn.origin.index(), j.txn.seq));
    joined
}

/// Computes every span's self time. Leaf benchmark spans are only counted
/// for attempts whose product spans are still in the hub's rings.
pub fn self_times(bench: &[Span], product: &[TraceSpan]) -> SelfTimes {
    let mut out = SelfTimes::default();
    for Joined { spans, phases, .. } in join(bench, product) {
        out.traced += 1;
        if !phases.is_empty() {
            out.joined += 1;
        }
        for span in &spans {
            let children: Vec<(u64, u64)> = if span.kind == SpanKind::Txn {
                spans
                    .iter()
                    .filter(|s| s.kind != SpanKind::Txn)
                    .map(|s| (s.start_ns, s.end_ns))
                    .collect()
            } else if phases.is_empty() {
                continue;
            } else {
                phases
                    .iter()
                    .map(|p| (p.start_ns, p.start_ns + p.dur_ns))
                    .collect()
            };
            let own = span.dur() - covered(span.start_ns, span.end_ns, children.into_iter());
            let i = span.kind as usize;
            out.self_ns[i].push(own);
            out.self_sum[i] += own;
            out.dur_sum[i] += span.dur();
        }
    }
    out
}

impl SelfTimes {
    pub fn report(&mut self, report: &mut Report) {
        for kind in SpanKind::ALL {
            let i = kind as usize;
            let name = kind.name();
            report.quantile_us(
                format!("span.{name}.self_us.p50"),
                &mut self.self_ns[i],
                0.5,
            );
            if kind == SpanKind::Begin {
                // Nothing runs inside `begin`: its self share is always 1.
                continue;
            }
            report.add(
                format!("span.{name}.self_share"),
                ratio(self.self_sum[i] as f64, self.dur_sum[i] as f64),
                "ratio",
                self.self_ns[i].len() as u64,
            );
        }
        report.add(
            "span.joined_share",
            ratio(self.joined as f64, self.traced as f64),
            "ratio",
            self.traced,
        );
    }
}

/// Writes every span as tab-separated rows: transaction, span id, parent
/// id (0 for a root), name, start and end in nanoseconds since the epoch.
pub fn write_tsv(path: &Path, bench: &[Span], product: &[TraceSpan]) -> std::io::Result<()> {
    let mut text = String::from("txn\tspan\tparent\tname\tstart_ns\tend_ns\n");
    let mut next_id = 0u64;
    for Joined { txn, spans, phases } in join(bench, product) {
        let root = next_id + 1;
        let mut leaves = Vec::new();
        for span in &spans {
            next_id += 1;
            let parent = if span.kind == SpanKind::Txn { 0 } else { root };
            if span.kind != SpanKind::Txn {
                leaves.push((next_id, span));
            }
            let _ = writeln!(
                text,
                "{txn}\t{next_id}\t{parent}\t{}\t{}\t{}",
                span.kind.name(),
                span.start_ns,
                span.end_ns
            );
        }
        for phase in phases {
            next_id += 1;
            let parent = leaves
                .iter()
                .find(|(_, s)| s.start_ns <= phase.start_ns && phase.start_ns < s.end_ns)
                .map_or(root, |(id, _)| *id);
            let _ = writeln!(
                text,
                "{txn}\t{next_id}\t{parent}\tphase.{}\t{}\t{}",
                phase.phase.label(),
                phase.start_ns,
                phase.start_ns + phase.dur_ns
            );
        }
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(text.as_bytes())?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_the_clipped_union() {
        let children = [(0, 5), (3, 8), (20, 30), (40, 50)];
        assert_eq!(covered(2, 25, children.into_iter()), 6 + 5);
        assert_eq!(covered(10, 15, children.into_iter()), 0);
    }
}
