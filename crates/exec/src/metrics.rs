//! Query cost accounting (the shared-nothing timing model).

use crate::cluster::NetSnapshot;
use paradise_storage::BufferStats;
use std::time::Duration;

/// Per-node busy time of one parallel phase, plus the per-operator
/// observability captured by [`crate::phase::run_phase`]: output
/// cardinality, network traffic and buffer-pool activity during the phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimes {
    /// Phase label (e.g. "scan+select", "repartition", "local join").
    pub name: String,
    /// Busy time of each node during the phase: its fragment's run time,
    /// the input of the paper model ([`PhaseTimes::critical`]).
    pub node_busy: Vec<Duration>,
    /// The phase's measured wall time on the coordinator, from handing out
    /// the fragments to the last one finishing. Fragments overlap on the
    /// executor, so this is not the sum of the busy times.
    pub wall: Duration,
    /// Per-node output cardinality, when the phase output is row-shaped
    /// (`None` for opaque outputs like pre-built indexes).
    pub node_rows: Option<Vec<u64>>,
    /// Cross-node traffic charged while the phase ran.
    pub net: NetSnapshot,
    /// Buffer-pool activity (summed over all nodes) while the phase ran.
    pub buffer: BufferStats,
    /// Fragments of this phase that an executor helper thread ran
    /// ([`crate::workers`]), concurrently with the coordinator's thread;
    /// the others ran on the coordinator's thread.
    pub morsels: u64,
    /// Busy time of those helper-run fragments: the part of
    /// [`PhaseTimes::total_work`] that ran off the coordinator's thread.
    pub worker_busy: Duration,
}

impl PhaseTimes {
    /// The phase's contribution to parallel execution time: the slowest
    /// node (all nodes work concurrently within a phase).
    pub fn critical(&self) -> Duration {
        self.node_busy.iter().copied().max().unwrap_or_default()
    }

    /// Total work across nodes (for utilisation statistics).
    pub fn total_work(&self) -> Duration {
        self.node_busy.iter().sum()
    }

    /// Total output rows across nodes (`None` when the output of this
    /// phase is not row-shaped).
    pub fn rows_out(&self) -> Option<u64> {
        self.node_rows.as_ref().map(|r| r.iter().sum())
    }
}

/// One measured [`crate::phase::exchange`]: the coordinator-side step that
/// moves tuples between endpoints between two phases. It is wall-clock
/// time on this host, not part of the simulated (paper-model) time.
#[derive(Debug, Clone, Default)]
pub struct ExchangeTimes {
    /// Exchange label (e.g. "gather", "broadcast").
    pub name: String,
    /// Wall-clock time of the whole exchange.
    pub wall: Duration,
    /// Traffic it charged: tuples and bytes that crossed an endpoint.
    pub net: NetSnapshot,
}

/// Cost record of one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Parallel phases in execution order.
    pub phases: Vec<PhaseTimes>,
    /// Exchanges between phases in execution order, measured on the host
    /// and kept out of [`QueryMetrics::simulated_time`].
    pub exchanges: Vec<ExchangeTimes>,
    /// Time spent in sequential operators (e.g. the single global
    /// aggregate of Q12, result assembly at the query coordinator).
    pub sequential: Duration,
    /// Bytes shipped between nodes (repartitioning, replication, results).
    pub net_bytes: u64,
    /// Number of tuples shipped between nodes.
    pub net_tuples: u64,
    /// Number of remote tile pulls (§2.5.2).
    pub pulls: u64,
    /// Bytes moved by pulls.
    pub pull_bytes: u64,
    /// Wall-clock time of the whole execution (for transparency).
    pub wall: Duration,
}

impl QueryMetrics {
    /// Simulated parallel execution time under the paper's cost model:
    /// phases run their nodes concurrently (critical path = slowest node),
    /// phases and sequential operators run back to back.
    pub fn simulated_time(&self) -> Duration {
        self.phases.iter().map(|p| p.critical()).sum::<Duration>() + self.sequential
    }

    /// Sum of all node work (what a single node would have to do alone).
    pub fn total_work(&self) -> Duration {
        self.phases.iter().map(|p| p.total_work()).sum::<Duration>() + self.sequential
    }

    /// Number of nodes involved (max across phases).
    pub fn num_nodes(&self) -> usize {
        self.phases.iter().map(|p| p.node_busy.len()).max().unwrap_or(0)
    }

    /// Parallel utilisation in percent: how much of the cluster's capacity
    /// along the simulated critical path did useful work. 100% means every
    /// node was busy for the whole simulated time.
    pub fn utilisation(&self) -> f64 {
        let nodes = self.num_nodes();
        let sim = self.simulated_time().as_secs_f64();
        if nodes == 0 || sim <= 0.0 {
            return 100.0;
        }
        (self.total_work().as_secs_f64() / (sim * nodes as f64) * 100.0).min(100.0)
    }

    /// Adds a plain phase record (no per-operator observability — used by
    /// tests and by callers that measured busy times themselves).
    pub fn push_phase(&mut self, name: &str, node_busy: Vec<Duration>) {
        self.phases.push(PhaseTimes { name: name.to_string(), node_busy, ..Default::default() });
    }

    /// Adds a fully populated phase record.
    pub fn push_phase_record(&mut self, phase: PhaseTimes) {
        self.phases.push(phase);
    }
}

/// Compact duration like "3.42ms" padded into a fixed-width cell.
fn dur_cell(d: Duration, width: usize) -> String {
    format!("{:>width$}", format!("{d:.2?}"))
}

/// The per-query report: a phases table (rows, the modelled busy critical
/// path, total work, the measured wall time `wall(meas)`, net traffic,
/// buffer hit rate), the measured exchanges (tuples, wall time, net
/// traffic), the sequential remainder, and the
/// simulated/wall/utilisation summary. This is the single formatting path
/// for examples, the bench tables, and `EXPLAIN ANALYZE`.
impl std::fmt::Display for QueryMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let exchange_label = |x: &ExchangeTimes| format!("{} (exchange, measured)", x.name);
        let name_w = self
            .phases
            .iter()
            .map(|p| p.name.len())
            .chain(self.exchanges.iter().map(|x| exchange_label(x).len()))
            .max()
            .unwrap_or(5)
            .max(5);
        writeln!(
            f,
            "{:<name_w$} {:>9} {:>10} {:>10} {:>10} {:>10} {:>14}",
            "phase", "rows", "busy(max)", "work", "wall(meas)", "net KB", "buf hit/miss"
        )?;
        for p in &self.phases {
            let rows = match p.rows_out() {
                Some(r) => r.to_string(),
                None => "-".to_string(),
            };
            writeln!(
                f,
                "{:<name_w$} {:>9} {} {} {} {:>10.1} {:>9}/{:<4}",
                p.name,
                rows,
                dur_cell(p.critical(), 10),
                dur_cell(p.total_work(), 10),
                dur_cell(p.wall, 10),
                p.net.bytes as f64 / 1024.0,
                p.buffer.hits,
                p.buffer.misses,
            )?;
        }
        for x in &self.exchanges {
            writeln!(
                f,
                "{:<name_w$} {:>9} {:>10} {:>10} {} {:>10.1}",
                exchange_label(x),
                x.net.tuples,
                "-",
                "-",
                dur_cell(x.wall, 10),
                x.net.bytes as f64 / 1024.0,
            )?;
        }
        if self.sequential > Duration::ZERO {
            writeln!(f, "{:<name_w$} {:>9} {}", "sequential", "-", dur_cell(self.sequential, 10))?;
        }
        writeln!(
            f,
            "simulated {:.2?}  wall {:.2?}  utilisation {:.1}% over {} nodes",
            self.simulated_time(),
            self.wall,
            self.utilisation(),
            self.num_nodes(),
        )?;
        write!(
            f,
            "net {:.1} KB / {} tuples  pulls {} ({:.1} KB)",
            self.net_bytes as f64 / 1024.0,
            self.net_tuples,
            self.pulls,
            self.pull_bytes as f64 / 1024.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn simulated_time_is_critical_path() {
        let mut m = QueryMetrics::default();
        m.push_phase("scan", vec![ms(10), ms(30), ms(20)]);
        m.push_phase("join", vec![ms(5), ms(5), ms(50)]);
        m.sequential = ms(7);
        assert_eq!(m.simulated_time(), ms(30 + 50 + 7));
        assert_eq!(m.total_work(), ms(10 + 30 + 20 + 5 + 5 + 50 + 7));
    }

    #[test]
    fn empty_metrics() {
        let m = QueryMetrics::default();
        assert_eq!(m.simulated_time(), Duration::ZERO);
        assert_eq!(m.num_nodes(), 0);
        assert_eq!(m.utilisation(), 100.0);
    }

    #[test]
    fn rows_out_sums_per_node_counts() {
        let p = PhaseTimes {
            name: "scan".into(),
            node_busy: vec![ms(1), ms(2)],
            node_rows: Some(vec![10, 32]),
            ..Default::default()
        };
        assert_eq!(p.rows_out(), Some(42));
        let opaque = PhaseTimes { name: "index".into(), ..Default::default() };
        assert_eq!(opaque.rows_out(), None);
    }

    #[test]
    fn display_renders_phases_and_summary() {
        let mut m = QueryMetrics::default();
        m.push_phase_record(PhaseTimes {
            name: "scan + clip".into(),
            node_busy: vec![ms(10), ms(30)],
            node_rows: Some(vec![5, 7]),
            wall: ms(25),
            net: NetSnapshot { bytes: 2048, tuples: 12, ..Default::default() },
            buffer: BufferStats { hits: 90, misses: 10, ..Default::default() },
            ..Default::default()
        });
        m.exchanges.push(ExchangeTimes {
            name: "gather".into(),
            wall: ms(4),
            net: NetSnapshot { bytes: 3072, tuples: 12, ..Default::default() },
        });
        m.sequential = ms(3);
        m.net_bytes = 4096;
        m.net_tuples = 12;
        m.pulls = 2;
        let text = m.to_string();
        assert!(text.contains("scan + clip"), "{text}");
        let header = text.lines().next().expect("header");
        assert!(header.contains("busy(max)") && header.contains("wall(meas)"), "{text}");
        let scan = text.lines().find(|l| l.starts_with("scan + clip")).expect("phase line");
        assert!(scan.contains("30.00ms") && scan.contains("25.00ms"), "busy and wall: {text}");
        assert!(text.contains("12"), "{text}");
        assert!(text.contains("90"), "{text}");
        let gather = text.lines().find(|l| l.starts_with("gather")).expect("exchange line");
        assert!(gather.contains("(exchange, measured)") && gather.contains("4.00ms"), "{text}");
        assert!(gather.contains("3.0"), "exchange net KB: {text}");
        assert_eq!(m.simulated_time(), ms(30 + 3), "exchanges stay out of the model");
        assert!(text.contains("sequential"), "{text}");
        assert!(text.contains("utilisation"), "{text}");
        assert!(text.contains("pulls 2"), "{text}");
    }

    #[test]
    fn utilisation_is_bounded() {
        let mut m = QueryMetrics::default();
        m.push_phase("even", vec![ms(10), ms(10)]);
        assert!((m.utilisation() - 100.0).abs() < 1e-6);
        let mut skewed = QueryMetrics::default();
        skewed.push_phase("skew", vec![ms(0), ms(100)]);
        assert!(skewed.utilisation() <= 51.0);
    }
}
