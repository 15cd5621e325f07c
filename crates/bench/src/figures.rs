//! One harness function per figure of the evaluation section.
//!
//! Each function returns a [`FigureTable`] whose rows mirror the data series
//! of the corresponding plot in the paper. The binaries under `src/bin/`
//! print these tables for comparison with the paper's plots.

use std::time::Duration;

use sss_engine::EngineKind;
use sss_workload::{KeySelection, WorkloadReport, WorkloadSpec};

use crate::harness::run_engine;

/// How large an experiment to run.
///
/// `Paper` uses the paper's parameters (up to 20 nodes, 10 clients per node,
/// 5k/10k keys); `Quick` shrinks node counts, client counts and durations so
/// the full suite completes in minutes on a laptop while preserving the
/// relative comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Laptop-friendly scale (default for `cargo bench` and the binaries).
    Quick,
    /// The paper's configuration.
    Paper,
}

impl BenchScale {
    /// Node counts swept by the throughput figures.
    pub fn node_counts(&self) -> Vec<usize> {
        match self {
            BenchScale::Quick => vec![2, 4, 6, 8],
            BenchScale::Paper => vec![5, 10, 15, 20],
        }
    }

    /// Clients per node.
    pub fn clients_per_node(&self) -> usize {
        match self {
            BenchScale::Quick => 3,
            BenchScale::Paper => 10,
        }
    }

    /// Key-space sizes (the paper uses 5k and 10k).
    pub fn key_counts(&self) -> Vec<usize> {
        match self {
            BenchScale::Quick => vec![512, 1024],
            BenchScale::Paper => vec![5_000, 10_000],
        }
    }

    /// Duration of each measured trial.
    pub fn duration(&self) -> Duration {
        match self {
            BenchScale::Quick => Duration::from_millis(300),
            BenchScale::Paper => Duration::from_secs(5),
        }
    }

    /// Trials averaged per data point (the paper uses 5).
    pub fn trials(&self) -> usize {
        match self {
            BenchScale::Quick => 1,
            BenchScale::Paper => 5,
        }
    }

    /// Parses `--paper-scale` style flags from command-line arguments.
    pub fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--paper-scale") {
            BenchScale::Paper
        } else {
            BenchScale::Quick
        }
    }
}

/// One data point of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    /// Data-series label (e.g. "SSS-5K").
    pub series: String,
    /// X-axis value (node count, clients per node, read-set size...).
    pub x: f64,
    /// Primary measurement (throughput in kTx/s or latency in ms, as in the
    /// corresponding figure).
    pub y: f64,
    /// Abort rate observed while producing the point.
    pub abort_rate: f64,
    /// Mean update-transaction latency (ms).
    pub update_latency_ms: f64,
    /// Mean time spent between internal and external commit (ms); zero for
    /// engines without the distinction.
    pub pre_commit_wait_ms: f64,
}

impl FigureRow {
    fn from_report(series: String, x: f64, y: f64, report: &WorkloadReport) -> Self {
        FigureRow {
            series,
            x,
            y,
            abort_rate: report.abort_rate(),
            update_latency_ms: report.update_latency.mean.as_secs_f64() * 1e3,
            pre_commit_wait_ms: report.mean_pre_commit_wait().as_secs_f64() * 1e3,
        }
    }
}

/// A complete figure: a titled collection of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTable {
    /// Figure identifier ("Figure 3(a)", ...).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The data points.
    pub rows: Vec<FigureRow>,
}

impl FigureTable {
    /// Renders the table as aligned text, one row per data point.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!(
            "{:<14} {:>10} {:>12} {:>10} {:>14} {:>16}\n",
            "series",
            self.x_label.as_str(),
            self.y_label.as_str(),
            "abort%",
            "upd-lat(ms)",
            "precommit(ms)"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>10.1} {:>12.2} {:>9.1}% {:>14.3} {:>16.3}\n",
                row.series,
                row.x,
                row.y,
                row.abort_rate * 100.0,
                row.update_latency_ms,
                row.pre_commit_wait_ms,
            ));
        }
        out
    }

    /// Rows of one series, in x order.
    pub fn series(&self, name: &str) -> Vec<&FigureRow> {
        let mut rows: Vec<&FigureRow> = self.rows.iter().filter(|r| r.series == name).collect();
        rows.sort_by(|a, b| a.x.partial_cmp(&b.x).expect("x is never NaN"));
        rows
    }
}

fn base_spec(scale: BenchScale, nodes: usize, keys: usize, read_only_percent: u8) -> WorkloadSpec {
    WorkloadSpec::new(nodes)
        .clients_per_node(scale.clients_per_node())
        .total_keys(keys)
        .read_only_percent(read_only_percent)
        .duration(scale.duration())
        .trials(scale.trials())
}

/// Figure 3: throughput of SSS, 2PC-baseline and Walter while varying the
/// node count, for a given read-only percentage and both key-space sizes
/// (replication degree 2).
pub fn fig3_throughput(scale: BenchScale, read_only_percent: u8) -> FigureTable {
    let mut rows = Vec::new();
    for keys in scale.key_counts() {
        for nodes in scale.node_counts() {
            for kind in [EngineKind::TwoPc, EngineKind::Walter, EngineKind::Sss] {
                let spec = base_spec(scale, nodes, keys, read_only_percent);
                let report = run_engine(kind, &spec, 2.min(nodes));
                let series = format!("{}-{}K", kind.label(), keys_label(keys));
                rows.push(FigureRow::from_report(
                    series,
                    nodes as f64,
                    report.throughput_ktps(),
                    &report,
                ));
            }
        }
    }
    FigureTable {
        title: format!("Figure 3 — throughput, {read_only_percent}% read-only, replication 2"),
        x_label: "nodes".into(),
        y_label: "kTx/s".into(),
        rows,
    }
}

/// Figure 4(a): maximum attainable throughput of SSS and 2PC-baseline with
/// 50% read-only transactions and the smaller key space. The client count is
/// increased per engine until throughput stops improving.
pub fn fig4a_max_throughput(scale: BenchScale) -> FigureTable {
    let client_sweep: &[usize] = match scale {
        BenchScale::Quick => &[2, 4, 8],
        BenchScale::Paper => &[5, 10, 20, 30],
    };
    let keys = scale.key_counts()[0];
    let mut rows = Vec::new();
    for nodes in scale.node_counts() {
        for kind in [EngineKind::Sss, EngineKind::TwoPc] {
            let mut best: Option<WorkloadReport> = None;
            for clients in client_sweep {
                let spec = base_spec(scale, nodes, keys, 50).clients_per_node(*clients);
                let report = run_engine(kind, &spec, 2.min(nodes));
                if best
                    .as_ref()
                    .map(|b| report.throughput() > b.throughput())
                    .unwrap_or(true)
                {
                    best = Some(report);
                }
            }
            let report = best.expect("at least one client count swept");
            rows.push(FigureRow::from_report(
                kind.label().to_string(),
                nodes as f64,
                report.throughput_ktps(),
                &report,
            ));
        }
    }
    FigureTable {
        title: "Figure 4(a) — maximum attainable throughput, 50% read-only, 5k keys".into(),
        x_label: "nodes".into(),
        y_label: "kTx/s".into(),
        rows,
    }
}

/// Figure 4(b): external-commit latency of SSS and 2PC-baseline while
/// varying the number of clients per node (largest node count, 50%
/// read-only, smaller key space).
pub fn fig4b_latency(scale: BenchScale) -> FigureTable {
    let clients: &[usize] = match scale {
        BenchScale::Quick => &[1, 3, 5],
        BenchScale::Paper => &[1, 3, 5, 10],
    };
    let nodes = *scale.node_counts().last().expect("non-empty node sweep");
    let keys = scale.key_counts()[0];
    let mut rows = Vec::new();
    for per_node in clients {
        for kind in [EngineKind::Sss, EngineKind::TwoPc] {
            let spec = base_spec(scale, nodes, keys, 50).clients_per_node(*per_node);
            let report = run_engine(kind, &spec, 2.min(nodes));
            rows.push(FigureRow::from_report(
                kind.label().to_string(),
                *per_node as f64,
                report.update_latency.mean.as_secs_f64() * 1e3,
                &report,
            ));
        }
    }
    FigureTable {
        title: format!("Figure 4(b) — external commit latency, {nodes} nodes, 50% read-only"),
        x_label: "clients/node".into(),
        y_label: "latency ms".into(),
        rows,
    }
}

/// Figure 5: breakdown of the SSS update-transaction latency into the
/// internal-commit part and the pre-commit (snapshot-queue) wait, varying
/// the clients per node.
pub fn fig5_breakdown(scale: BenchScale) -> FigureTable {
    let clients: &[usize] = match scale {
        BenchScale::Quick => &[1, 3, 5],
        BenchScale::Paper => &[1, 3, 5, 10],
    };
    let nodes = *scale.node_counts().last().expect("non-empty node sweep");
    let keys = scale.key_counts()[0];
    let mut rows = Vec::new();
    for per_node in clients {
        let spec = base_spec(scale, nodes, keys, 50).clients_per_node(*per_node);
        let report = run_engine(EngineKind::Sss, &spec, 2.min(nodes));
        rows.push(FigureRow::from_report(
            "SSS-total".into(),
            *per_node as f64,
            report.update_latency.mean.as_secs_f64() * 1e3,
            &report,
        ));
        rows.push(FigureRow::from_report(
            "SSS-internal".into(),
            *per_node as f64,
            report.internal_latency.mean.as_secs_f64() * 1e3,
            &report,
        ));
    }
    FigureTable {
        title: format!("Figure 5 — SSS latency breakdown (internal vs pre-commit), {nodes} nodes"),
        x_label: "clients/node".into(),
        y_label: "latency ms".into(),
        rows,
    }
}

/// Figure 6: SSS vs ROCOCO vs 2PC-baseline with replication disabled, 5k
/// keys, for a given read-only percentage.
pub fn fig6_rococo(scale: BenchScale, read_only_percent: u8) -> FigureTable {
    let keys = scale.key_counts()[0];
    let mut rows = Vec::new();
    for nodes in scale.node_counts() {
        for kind in [EngineKind::Sss, EngineKind::TwoPc, EngineKind::Rococo] {
            let spec = base_spec(scale, nodes, keys, read_only_percent);
            let report = run_engine(kind, &spec, 1);
            rows.push(FigureRow::from_report(
                format!("{}-{}K", kind.label(), keys_label(keys)),
                nodes as f64,
                report.throughput_ktps(),
                &report,
            ));
        }
    }
    FigureTable {
        title: format!(
            "Figure 6 — SSS vs ROCOCO vs 2PC, no replication, {read_only_percent}% read-only"
        ),
        x_label: "nodes".into(),
        y_label: "kTx/s".into(),
        rows,
    }
}

/// Figure 7: throughput with 80% read-only transactions and 50% key-access
/// locality, both key-space sizes.
pub fn fig7_locality(scale: BenchScale) -> FigureTable {
    let mut rows = Vec::new();
    for keys in scale.key_counts() {
        for nodes in scale.node_counts() {
            for kind in [EngineKind::TwoPc, EngineKind::Walter, EngineKind::Sss] {
                let spec = base_spec(scale, nodes, keys, 80).key_selection(KeySelection::Local {
                    local_fraction_percent: 50,
                });
                let report = run_engine(kind, &spec, 2.min(nodes));
                rows.push(FigureRow::from_report(
                    format!("{}-{}K", kind.label(), keys_label(keys)),
                    nodes as f64,
                    report.throughput_ktps(),
                    &report,
                ));
            }
        }
    }
    FigureTable {
        title: "Figure 7 — throughput, 80% read-only, 50% locality".into(),
        x_label: "nodes".into(),
        y_label: "kTx/s".into(),
        rows,
    }
}

/// Figure 8: speedup of SSS over ROCOCO and 2PC-baseline while growing the
/// number of keys accessed by read-only transactions (80% read-only,
/// replication disabled).
pub fn fig8_read_only_size(scale: BenchScale) -> FigureTable {
    let sizes: &[usize] = &[2, 4, 8, 16];
    let nodes = match scale {
        BenchScale::Quick => 4,
        BenchScale::Paper => 15,
    };
    let mut rows = Vec::new();
    for keys in scale.key_counts() {
        for size in sizes {
            let spec =
                |_: EngineKind| base_spec(scale, nodes, keys, 80).read_only_access_count(*size);
            let sss = run_engine(EngineKind::Sss, &spec(EngineKind::Sss), 1);
            let rococo = run_engine(EngineKind::Rococo, &spec(EngineKind::Rococo), 1);
            let twopc = run_engine(EngineKind::TwoPc, &spec(EngineKind::TwoPc), 1);
            let speedup = |other: &WorkloadReport| {
                if other.throughput() > 0.0 {
                    sss.throughput() / other.throughput()
                } else {
                    0.0
                }
            };
            rows.push(FigureRow::from_report(
                format!("SSS/ROCOCO-{}K", keys_label(keys)),
                *size as f64,
                speedup(&rococo),
                &sss,
            ));
            rows.push(FigureRow::from_report(
                format!("SSS/2PC-{}K", keys_label(keys)),
                *size as f64,
                speedup(&twopc),
                &sss,
            ));
        }
    }
    FigureTable {
        title: format!("Figure 8 — SSS speedup vs read-only size, {nodes} nodes, 80% read-only"),
        x_label: "keys/read-only".into(),
        y_label: "speedup".into(),
        rows,
    }
}

fn keys_label(keys: usize) -> String {
    if keys >= 1000 {
        format!("{}", keys / 1000)
    } else {
        format!("0.{}", keys / 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters() {
        assert_eq!(BenchScale::Quick.node_counts(), vec![2, 4, 6, 8]);
        assert_eq!(BenchScale::Paper.node_counts(), vec![5, 10, 15, 20]);
        assert_eq!(BenchScale::Paper.clients_per_node(), 10);
        assert_eq!(BenchScale::Paper.trials(), 5);
        assert_eq!(
            BenchScale::from_args(&["--paper-scale".to_string()]),
            BenchScale::Paper
        );
        assert_eq!(BenchScale::from_args(&[]), BenchScale::Quick);
    }

    #[test]
    fn figure_table_rendering_and_series_selection() {
        let table = FigureTable {
            title: "demo".into(),
            x_label: "nodes".into(),
            y_label: "kTx/s".into(),
            rows: vec![
                FigureRow {
                    series: "SSS-5K".into(),
                    x: 10.0,
                    y: 40.0,
                    abort_rate: 0.05,
                    update_latency_ms: 1.0,
                    pre_commit_wait_ms: 0.3,
                },
                FigureRow {
                    series: "SSS-5K".into(),
                    x: 5.0,
                    y: 20.0,
                    abort_rate: 0.02,
                    update_latency_ms: 0.9,
                    pre_commit_wait_ms: 0.2,
                },
                FigureRow {
                    series: "2PC-5K".into(),
                    x: 5.0,
                    y: 10.0,
                    abort_rate: 0.2,
                    update_latency_ms: 2.0,
                    pre_commit_wait_ms: 0.0,
                },
            ],
        };
        let rendered = table.render();
        assert!(rendered.contains("demo"));
        assert!(rendered.contains("SSS-5K"));
        let series = table.series("SSS-5K");
        assert_eq!(series.len(), 2);
        assert!(series[0].x < series[1].x);
    }

    #[test]
    fn keys_label_formats_thousands() {
        assert_eq!(keys_label(5_000), "5");
        assert_eq!(keys_label(10_000), "10");
        assert_eq!(keys_label(512), "0.5");
    }
}
