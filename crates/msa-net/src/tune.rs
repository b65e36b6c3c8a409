//! Measured collective autotuner (MPI "tuned collectives" style).
//!
//! The cost models in [`crate::cost`] predict; this module *measures*.
//! Every allreduce algorithm the workspace implements — ring, recursive
//! doubling, pipeline, hierarchical — is executed **for real** over a
//! fresh [`ThreadComm`] for each (ranks, bytes) cell of a grid, and the
//! schedule's completion time is read off the priced Lamport clock the
//! transport maintains ([`crate::CommStats::vtime_ps`]): each message
//! carries its sender's virtual send time, each receive advances the
//! receiver to `max(now, sent_at + α + m/β)` on the link that hop
//! actually travels (NVLink inside a node, fabric between nodes — see
//! [`Topology`]). The maximum endpoint clock after the collective is the
//! critical-path time of the schedule that really ran — a discrete-event
//! measurement that is *deterministic*: it depends on the message
//! schedule, never on host scheduling, so the same grid produces the
//! same bytes twice.
//!
//! The winners are persisted as a [`DecisionTable`] (byte-stable text
//! format `msa-tune-v1`, see DESIGN.md §13) and consulted per call by
//! [`tuned_allreduce`], which is what `distrib`'s gradient exchange
//! dispatches through.
//!
//! One honesty note: the virtual clock prices links, not buffer limits —
//! it assumes unbounded in-flight messages, so credit-pool back-pressure
//! (`ThreadComm`'s `Bounded(2)`) is not part of the measurement. That
//! matches the α–β models it replaces and keeps the clock monotone.

use crate::codec::{bf16_allreduce, sparse_k, GradCodec, WirePair};
use crate::collectives;
use crate::comm::PointToPoint;
use crate::cost::{CollectiveAlgo, LinkParams, Topology};
use crate::hierarchical::{hierarchical_allreduce, hierarchical_cost};
use crate::scratch::Arena;
use crate::thread_comm::{CommOptions, ThreadComm};
use msa_core::SimTime;

/// An algorithm the tuner can select — the software [`CollectiveAlgo`]s
/// that have real implementations, plus the two-level hierarchical
/// schedule (which the flat cost enum cannot express: it needs the
/// node-group size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunedAlgo {
    /// Chunked ring ([`collectives::ring_allreduce`]).
    Ring,
    /// Recursive doubling with non-power-of-two fold-in.
    RecursiveDoubling,
    /// Partition-invariant pipeline chain.
    Pipeline,
    /// Two-level: intra-node reduce, leader ring, intra-node broadcast.
    Hierarchical {
        /// Node group size the schedule was measured with.
        ranks_per_node: usize,
    },
}

impl TunedAlgo {
    /// Stable table/JSON name.
    pub fn name(self) -> String {
        match self {
            TunedAlgo::Ring => "ring".to_string(),
            TunedAlgo::RecursiveDoubling => "recursive_doubling".to_string(),
            TunedAlgo::Pipeline => "pipeline".to_string(),
            TunedAlgo::Hierarchical { ranks_per_node } => format!("hierarchical/{ranks_per_node}"),
        }
    }

    /// Inverse of [`TunedAlgo::name`].
    pub fn parse(s: &str) -> Option<TunedAlgo> {
        match s {
            "ring" => Some(TunedAlgo::Ring),
            "recursive_doubling" => Some(TunedAlgo::RecursiveDoubling),
            "pipeline" => Some(TunedAlgo::Pipeline),
            _ => {
                let k = s.strip_prefix("hierarchical/")?.parse().ok()?;
                if k >= 1 {
                    Some(TunedAlgo::Hierarchical { ranks_per_node: k })
                } else {
                    None
                }
            }
        }
    }

    /// Whether this algorithm can run at `ranks` at all. The hierarchical
    /// schedule needs `ranks` divisible into more than one full node.
    pub fn applicable(self, ranks: usize) -> bool {
        match self {
            TunedAlgo::Hierarchical { ranks_per_node } => {
                ranks > ranks_per_node && ranks.is_multiple_of(ranks_per_node)
            }
            _ => true,
        }
    }

    /// Analytic α–β prediction for this algorithm on the given fabric
    /// and topology — what `distrib::perf` prices, then calibrates by
    /// the table's measured/modeled ratio.
    pub fn model_time(self, ranks: usize, bytes: f64, inter: LinkParams, topo: Topology) -> SimTime {
        let flat = match self {
            TunedAlgo::Ring => CollectiveAlgo::Ring,
            TunedAlgo::RecursiveDoubling => CollectiveAlgo::RecursiveDoubling,
            TunedAlgo::Pipeline => CollectiveAlgo::Pipeline,
            TunedAlgo::Hierarchical { ranks_per_node } => {
                return hierarchical_cost(ranks, ranks_per_node, bytes, topo.intra, inter);
            }
        };
        flat.allreduce_time(ranks, bytes, inter)
    }

    /// [`TunedAlgo::model_time`] as integer picoseconds — the
    /// `modeled_ps` column of the table, kept next to the measurement.
    pub fn modeled_ps(self, ranks: usize, bytes: usize, inter: LinkParams, topo: Topology) -> u64 {
        self.model_time(ranks, bytes as f64, inter, topo).as_ps()
    }

    /// Runs this algorithm collectively on `c`. Panics if called at a
    /// size where [`TunedAlgo::applicable`] is false (the table's
    /// [`DecisionTable::select`] never returns such a pick).
    pub fn run<C: PointToPoint + ?Sized>(self, c: &C, buf: &mut [f32]) {
        match self {
            TunedAlgo::Ring => collectives::ring_allreduce(c, buf),
            TunedAlgo::RecursiveDoubling => collectives::recursive_doubling_allreduce(c, buf),
            TunedAlgo::Pipeline => collectives::pipeline_allreduce(c, buf),
            TunedAlgo::Hierarchical { ranks_per_node } => {
                hierarchical_allreduce(c, buf, ranks_per_node)
            }
        }
    }
}

/// One measured execution of one algorithm in one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// The algorithm that ran.
    pub algo: TunedAlgo,
    /// Critical-path virtual time of the executed schedule (max endpoint
    /// [`crate::CommStats::vtime_ps`] on a fresh communicator).
    pub measured_ps: u64,
    /// The α–β model's prediction for the same cell.
    pub modeled_ps: u64,
    /// Messages summed over every rank — the corrected wire counters.
    pub msgs_total: u64,
    /// Payload bytes summed over every rank.
    pub bytes_total: u64,
}

/// One grid cell: every candidate measured, winner = measured argmin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Communicator size of this cell.
    pub ranks: usize,
    /// Allreduce payload in bytes.
    pub bytes: usize,
    /// Every candidate's measurement, in fixed candidate order.
    pub measurements: Vec<Measurement>,
    /// Index into `measurements` of the measured argmin (first wins an
    /// exact tie, so the pick is deterministic).
    pub best: usize,
}

impl Cell {
    /// The winning measurement.
    pub fn winner(&self) -> &Measurement {
        &self.measurements[self.best]
    }

    /// The fastest *software* (non-hierarchical) candidate — the fallback
    /// recorded in the table for sizes where the hierarchical pick cannot
    /// run.
    pub fn best_software(&self) -> &Measurement {
        let mut best: Option<&Measurement> = None;
        for m in &self.measurements {
            if matches!(m.algo, TunedAlgo::Hierarchical { .. }) {
                continue;
            }
            if best.is_none_or(|b| m.measured_ps < b.measured_ps) {
                best = Some(m);
            }
        }
        // lint: allow(unwrap) -- cells always contain the three software candidates by construction
        best.expect("cell has no software candidate")
    }
}

/// Executes `algo` for real at (`ranks`, `bytes`) and reads the priced
/// clocks and wire counters back. Panics on a phantom-zero wire row
/// (`msgs_total == 0` at `ranks > 1`) — the class of bug this PR fixes
/// can never ship through the tuner.
pub fn measure(
    algo: TunedAlgo,
    ranks: usize,
    bytes: usize,
    link: LinkParams,
    topo: Topology,
) -> Measurement {
    assert!(algo.applicable(ranks), "{} cannot run at p={ranks}", algo.name());
    let (measured_ps, msgs_total, bytes_total) =
        run_priced(ranks, bytes, link, topo, &algo.name(), |c, len| {
            let mut buf = vec![1.0f32; len];
            algo.run(c, &mut buf);
            // Correctness is part of the measurement: an allreduce of all-ones
            // must produce exactly `ranks` everywhere (whole-number sums are
            // exact in f32 at every grid size).
            let want = ranks as f32;
            assert!(
                buf.iter().all(|v| v.to_bits() == want.to_bits()),
                "{} at p={ranks} produced a wrong sum",
                algo.name()
            );
        });
    Measurement {
        algo,
        measured_ps,
        modeled_ps: algo.modeled_ps(ranks, bytes, link, topo),
        msgs_total,
        bytes_total,
    }
}

/// One measured execution of one wire codec in one (ranks, dense-bytes)
/// cell: the same chain-style exchange run with dense f32, packed bf16
/// or sparse top-k payloads, timed on the priced Lamport clock. The
/// wire counters see the *encoded* slice lengths, so `bytes_total` is
/// the measured (not computed) encoded traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecMeasurement {
    /// The wire codec that ran.
    pub codec: GradCodec,
    /// Critical-path virtual time of the executed schedule.
    pub measured_ps: u64,
    /// Messages summed over every rank.
    pub msgs_total: u64,
    /// Encoded payload bytes summed over every rank.
    pub bytes_total: u64,
}

/// Executes the gradient exchange for `codec` at (`ranks`, `bytes` of
/// dense f32 payload) and reads the priced clocks and wire counters.
///
/// Dense and bf16 run the partition-invariant pipeline chain — the same
/// schedule shape, so the measured ratio isolates the codec's byte
/// reduction. Sparse runs the equal-block allgather the real
/// `sparse_allreduce_mean` uses, shipping `2k` [`WirePair`] words per
/// rank (a synthetic first-`k` selection: the wire schedule — and hence
/// the priced time — depends only on `k`, never on *which* entries the
/// compressor picked). Correctness is part of the measurement: all-ones
/// inputs must reduce to exactly `ranks` (bf16-exact for integers up to
/// 256, so bit-exact at every grid size up to p = 128).
pub fn measure_codec(
    codec: GradCodec,
    ranks: usize,
    bytes: usize,
    link: LinkParams,
    topo: Topology,
) -> CodecMeasurement {
    let what = format!("codec {}", codec.name());
    let (measured_ps, msgs_total, bytes_total) =
        run_priced(ranks, bytes, link, topo, &what, |c, len| {
            let want = ranks as f32;
            match codec {
                GradCodec::Dense32 => {
                    let mut buf = vec![1.0f32; len];
                    collectives::pipeline_allreduce(c, &mut buf);
                    assert!(
                        buf.iter().all(|v| v.to_bits() == want.to_bits()),
                        "dense32 chain at p={ranks} produced a wrong sum"
                    );
                }
                GradCodec::Bf16 => {
                    let mut buf = vec![1.0f32; len];
                    bf16_allreduce(c, &mut buf, &mut Arena::new());
                    assert!(
                        buf.iter().all(|v| v.to_bits() == want.to_bits()),
                        "bf16 chain at p={ranks} produced a wrong sum"
                    );
                }
                GradCodec::SparseTopK { ratio } => {
                    let k = sparse_k(len, ratio);
                    let mut payload = vec![0.0f32; 2 * k];
                    for i in 0..k {
                        WirePair::new(i as u32, 1.0).to_words(&mut payload[2 * i..2 * i + 2]);
                    }
                    let mut all = vec![0.0f32; ranks * payload.len()];
                    collectives::ring_allgather_into(c, &payload, &mut all);
                    let mut buf = vec![0.0f32; len];
                    for pair_words in all.chunks_exact(2) {
                        let pair = WirePair::from_words(pair_words);
                        buf[pair.index as usize] += pair.value();
                    }
                    assert!(
                        buf[..k].iter().all(|v| v.to_bits() == want.to_bits())
                            && buf[k..].iter().all(|v| *v == 0.0),
                        "sparse exchange at p={ranks} produced a wrong sum"
                    );
                }
            }
        });
    CodecMeasurement {
        codec,
        measured_ps,
        msgs_total,
        bytes_total,
    }
}

/// Runs `body` with the payload length in f32s on every rank of a fresh
/// communicator priced on `link` and `topo`, then reads the schedule
/// back: the critical-path virtual time (max endpoint clock) and the
/// messages and payload bytes summed over every rank. Panics on a
/// phantom-zero wire row (no traffic at `ranks > 1`), naming `what` ran.
fn run_priced(
    ranks: usize,
    bytes: usize,
    link: LinkParams,
    topo: Topology,
    what: &str,
    body: impl Fn(&ThreadComm, usize) + Sync,
) -> (u64, u64, u64) {
    assert!(ranks >= 1);
    assert!(
        bytes >= 4 && bytes.is_multiple_of(4),
        "payload must be a whole number of f32s"
    );
    let opts = CommOptions::new().link(link).topo(topo);
    let per_rank = ThreadComm::run_with(ranks, &opts, |c| {
        body(c, bytes / 4);
        // lint: allow(unwrap) -- ThreadComm endpoints always carry stats
        let stats = c.stats().expect("ThreadComm always keeps stats");
        let t = stats.export().total();
        (t.msgs_sent, t.bytes_sent, stats.vtime_ps())
    });
    let msgs_total: u64 = per_rank.iter().map(|(m, _, _)| *m).sum();
    let bytes_total: u64 = per_rank.iter().map(|(_, b, _)| *b).sum();
    let measured_ps = per_rank.iter().map(|(_, _, v)| *v).max().unwrap_or(0);
    assert!(
        ranks == 1 || (msgs_total > 0 && measured_ps > 0),
        "phantom-zero wire row: {what} at p={ranks} recorded no traffic"
    );
    (measured_ps, msgs_total, bytes_total)
}

/// The fixed candidate list for one cell: the three software algorithms,
/// plus the topology's hierarchical schedule where it can run.
pub fn candidates(ranks: usize, topo: Topology) -> Vec<TunedAlgo> {
    let mut list = vec![
        TunedAlgo::Ring,
        TunedAlgo::RecursiveDoubling,
        TunedAlgo::Pipeline,
    ];
    let hier = TunedAlgo::Hierarchical {
        ranks_per_node: topo.ranks_per_node,
    };
    if hier.applicable(ranks) {
        list.push(hier);
    }
    list
}

/// Measures every candidate in one (ranks, bytes) cell.
pub fn measure_cell(ranks: usize, bytes: usize, link: LinkParams, topo: Topology) -> Cell {
    let measurements: Vec<Measurement> = candidates(ranks, topo)
        .into_iter()
        .map(|algo| measure(algo, ranks, bytes, link, topo))
        .collect();
    let mut best = 0;
    for (i, m) in measurements.iter().enumerate() {
        if m.measured_ps < measurements[best].measured_ps {
            best = i;
        }
    }
    Cell {
        ranks,
        bytes,
        measurements,
        best,
    }
}

/// A benchmark grid: which (ranks, bytes) cells to measure, on which
/// fabric and topology.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneGrid {
    /// Inter-node fabric link.
    pub link: LinkParams,
    /// Node topology (group size + intra-node link).
    pub topo: Topology,
    /// The (ranks, bytes) cells, in measurement order.
    pub cells: Vec<(usize, usize)>,
}

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;

impl TuneGrid {
    /// The paper-scale grid: EXTOLL fabric, 4-GPU NVLink nodes, ranks up
    /// to the source paper's 96 and 128 (large-p payloads capped at
    /// 256 KiB to keep the 128-thread meshes cheap).
    pub fn paper() -> TuneGrid {
        let mut cells = Vec::new();
        for p in [2usize, 4] {
            for b in [KIB, 64 * KIB, MIB, 16 * MIB] {
                cells.push((p, b));
            }
        }
        for p in [8usize, 16, 32] {
            for b in [KIB, 64 * KIB, MIB] {
                cells.push((p, b));
            }
        }
        for p in [96usize, 128] {
            for b in [KIB, 64 * KIB, 256 * KIB] {
                cells.push((p, b));
            }
        }
        TuneGrid {
            link: LinkParams::extoll(),
            topo: Topology::esb(4),
            cells,
        }
    }

    /// A seconds-fast grid for unit tests: p ≤ 8, small payloads.
    pub fn smoke() -> TuneGrid {
        TuneGrid {
            link: LinkParams::extoll(),
            topo: Topology::esb(4),
            cells: vec![(2, KIB), (4, KIB), (4, 64 * KIB), (8, KIB), (8, 64 * KIB)],
        }
    }

    /// Measures every cell.
    pub fn run(&self) -> TuneReport {
        TuneReport {
            link: self.link,
            topo: self.topo,
            cells: self
                .cells
                .iter()
                .map(|&(p, b)| measure_cell(p, b, self.link, self.topo))
                .collect(),
        }
    }
}

/// Every cell of a completed grid run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Inter-node fabric the grid ran on.
    pub link: LinkParams,
    /// Node topology the grid ran on.
    pub topo: Topology,
    /// Measured cells, in grid order.
    pub cells: Vec<Cell>,
}

impl TuneReport {
    /// Distills the winners into a decision table.
    pub fn table(&self) -> DecisionTable {
        let entries = self
            .cells
            .iter()
            .map(|c| TableEntry {
                ranks: c.ranks,
                bytes: c.bytes,
                algo: c.winner().algo,
                fallback: c.best_software().algo,
                measured_ps: c.winner().measured_ps,
                modeled_ps: c.winner().modeled_ps,
            })
            .collect();
        DecisionTable {
            inter: self.link,
            topo: self.topo,
            entries,
            codec_entries: Vec::new(),
        }
    }
}

/// One persisted decision: at (ranks, bytes), dispatch `algo`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableEntry {
    /// Communicator size the cell was measured at.
    pub ranks: usize,
    /// Payload bytes the cell was measured at.
    pub bytes: usize,
    /// The measured-fastest algorithm.
    pub algo: TunedAlgo,
    /// The measured-fastest *software* algorithm — used when `algo` is
    /// hierarchical but the caller's size cannot run it.
    pub fallback: TunedAlgo,
    /// The winner's measured critical path.
    pub measured_ps: u64,
    /// The winner's α–β model prediction (calibration denominator).
    pub modeled_ps: u64,
}

/// One persisted codec measurement: at (ranks, dense bytes), `codec`
/// took `measured_ps` against the dense chain's `dense_ps`, shipping
/// `wire_bytes` of `dense_bytes` total traffic. Serialized as `ccell`
/// lines after the algorithm cells — old tables simply have none, so
/// the `msa-tune-v1` byte format is unchanged for codec-free grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecEntry {
    /// Communicator size the cell was measured at.
    pub ranks: usize,
    /// Dense payload bytes the cell was measured at.
    pub bytes: usize,
    /// The wire codec measured.
    pub codec: GradCodec,
    /// The codec exchange's measured critical path.
    pub measured_ps: u64,
    /// The dense f32 chain's measured critical path in the same cell.
    pub dense_ps: u64,
    /// Encoded bytes summed over every rank (measured wire counters).
    pub wire_bytes: u64,
    /// Dense bytes summed over every rank in the reference run.
    pub dense_bytes: u64,
}

/// Errors from [`DecisionTable::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableParseError {
    /// First line was not the expected format tag.
    BadHeader,
    /// A line did not match its grammar; payload is the line text.
    BadLine(String),
    /// The table parsed but contains no cells.
    Empty,
}

impl std::fmt::Display for TableParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableParseError::BadHeader => write!(f, "missing msa-tune-v1 header"),
            TableParseError::BadLine(l) => write!(f, "malformed table line: {l}"),
            TableParseError::Empty => write!(f, "decision table has no cells"),
        }
    }
}

impl std::error::Error for TableParseError {}

/// How far a cell measured at (`at_ranks`, `at_bytes`) lies from a
/// query at (`ranks`, `bytes`), compared lexicographically: the rank
/// distance first, then the byte distance in log₂ space, then the
/// absolute byte distance. All integer arithmetic.
fn cell_distance(
    at_ranks: usize,
    at_bytes: usize,
    ranks: usize,
    bytes: usize,
) -> (usize, u32, usize) {
    let log2 = |v: usize| v.max(1).ilog2();
    (
        at_ranks.abs_diff(ranks),
        log2(at_bytes).abs_diff(log2(bytes)),
        at_bytes.abs_diff(bytes),
    )
}

/// The persisted autotuner output: a sorted list of measured winners,
/// plus the link/topology they were measured on, with a byte-stable
/// text round trip ([`DecisionTable::to_table_string`] /
/// [`DecisionTable::parse`]) and nearest-cell selection.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTable {
    inter: LinkParams,
    topo: Topology,
    entries: Vec<TableEntry>,
    codec_entries: Vec<CodecEntry>,
}

impl DecisionTable {
    /// The fabric link the grid was measured on.
    pub fn inter(&self) -> LinkParams {
        self.inter
    }

    /// The topology the grid was measured on.
    pub fn topo(&self) -> Topology {
        self.topo
    }

    /// All entries, in grid order.
    pub fn entries(&self) -> &[TableEntry] {
        &self.entries
    }

    /// All codec entries, in grid order (empty for codec-free grids).
    pub fn codec_entries(&self) -> &[CodecEntry] {
        &self.codec_entries
    }

    /// Appends a measured codec cell (kept in insertion order, which is
    /// grid order — the serialization preserves it).
    pub fn add_codec_entry(&mut self, entry: CodecEntry) {
        self.codec_entries.push(entry);
    }

    /// The nearest measured cell to (`ranks`, `bytes`) by
    /// [`cell_distance`]; the first entry wins exact ties, so selection
    /// is deterministic and total.
    pub fn entry_for(&self, ranks: usize, bytes: usize) -> &TableEntry {
        let key = |e: &TableEntry| cell_distance(e.ranks, e.bytes, ranks, bytes);
        self.entries[1..].iter().fold(
            &self.entries[0],
            |best, e| if key(e) < key(best) { e } else { best },
        )
    }

    /// The algorithm to dispatch for an allreduce of `bytes` over
    /// `ranks`: the nearest cell's winner, demoted to its software
    /// fallback when the winner cannot run at this exact size (e.g. a
    /// hierarchical pick at a size not divisible into nodes).
    pub fn select(&self, ranks: usize, bytes: usize) -> TunedAlgo {
        let e = self.entry_for(ranks, bytes);
        if e.algo.applicable(ranks) {
            e.algo
        } else {
            e.fallback
        }
    }

    /// Measured/modeled ratio of the nearest cell — the factor
    /// `distrib::perf` multiplies its analytic prediction by.
    pub fn calibration(&self, ranks: usize, bytes: usize) -> f64 {
        let e = self.entry_for(ranks, bytes);
        if e.modeled_ps == 0 {
            1.0
        } else {
            e.measured_ps as f64 / e.modeled_ps as f64
        }
    }

    /// Measured codec/dense time ratio of the nearest codec cell for
    /// `codec` — what `distrib::perf` scales its comm prediction by when
    /// the trainer ships encoded gradients. `None` when the table holds
    /// no measurement for this codec (callers fall back to the analytic
    /// wire-byte ratio). Nearest cell by [`cell_distance`] among the
    /// entries of the same codec, the first winning ties, as in
    /// [`DecisionTable::entry_for`].
    pub fn codec_ratio(&self, ranks: usize, bytes: usize, codec: GradCodec) -> Option<f64> {
        self.codec_entries
            .iter()
            .filter(|e| e.codec == codec)
            .min_by_key(|e| cell_distance(e.ranks, e.bytes, ranks, bytes))
            .filter(|e| e.dense_ps > 0)
            .map(|e| e.measured_ps as f64 / e.dense_ps as f64)
    }

    /// Serializes to the `msa-tune-v1` text format. Byte-stable: entry
    /// order is preserved, floats print via Rust's shortest-round-trip
    /// formatter, everything else is integers — two identical grid runs
    /// produce identical bytes (asserted in CI with `cmp`).
    pub fn to_table_string(&self) -> String {
        let mut out = String::from("msa-tune-v1\n");
        out.push_str(&format!(
            "inter {} {}\n",
            self.inter.latency_us, self.inter.bw_gbs
        ));
        out.push_str(&format!(
            "intra {} {} {}\n",
            self.topo.ranks_per_node, self.topo.intra.latency_us, self.topo.intra.bw_gbs
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "cell ranks={} bytes={} algo={} fallback={} measured_ps={} modeled_ps={}\n",
                e.ranks,
                e.bytes,
                e.algo.name(),
                e.fallback.name(),
                e.measured_ps,
                e.modeled_ps
            ));
        }
        for e in &self.codec_entries {
            out.push_str(&format!(
                "ccell ranks={} bytes={} codec={} measured_ps={} dense_ps={} wire_bytes={} dense_bytes={}\n",
                e.ranks,
                e.bytes,
                e.codec.name(),
                e.measured_ps,
                e.dense_ps,
                e.wire_bytes,
                e.dense_bytes
            ));
        }
        out
    }

    /// Parses the `msa-tune-v1` format; exact inverse of
    /// [`DecisionTable::to_table_string`].
    pub fn parse(text: &str) -> Result<DecisionTable, TableParseError> {
        let mut lines = text.lines();
        if lines.next() != Some("msa-tune-v1") {
            return Err(TableParseError::BadHeader);
        }
        let bad = |l: &str| TableParseError::BadLine(l.to_string());
        let mut inter = None;
        let mut topo = None;
        let mut entries = Vec::new();
        let mut codec_entries = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.first().copied() {
                Some("inter") if fields.len() == 3 => {
                    inter = Some(LinkParams {
                        latency_us: fields[1].parse().map_err(|_| bad(line))?,
                        bw_gbs: fields[2].parse().map_err(|_| bad(line))?,
                    });
                }
                Some("intra") if fields.len() == 4 => {
                    topo = Some(Topology {
                        ranks_per_node: fields[1].parse().map_err(|_| bad(line))?,
                        intra: LinkParams {
                            latency_us: fields[2].parse().map_err(|_| bad(line))?,
                            bw_gbs: fields[3].parse().map_err(|_| bad(line))?,
                        },
                    });
                }
                Some("cell") if fields.len() == 7 => {
                    let get = |i: usize, k: &str| -> Result<&str, TableParseError> {
                        fields[i].strip_prefix(k).ok_or_else(|| bad(line))
                    };
                    let ranks = get(1, "ranks=")?.parse().map_err(|_| bad(line))?;
                    let bytes = get(2, "bytes=")?.parse().map_err(|_| bad(line))?;
                    let algo = TunedAlgo::parse(get(3, "algo=")?).ok_or_else(|| bad(line))?;
                    let fallback =
                        TunedAlgo::parse(get(4, "fallback=")?).ok_or_else(|| bad(line))?;
                    let measured_ps = get(5, "measured_ps=")?.parse().map_err(|_| bad(line))?;
                    let modeled_ps = get(6, "modeled_ps=")?.parse().map_err(|_| bad(line))?;
                    entries.push(TableEntry {
                        ranks,
                        bytes,
                        algo,
                        fallback,
                        measured_ps,
                        modeled_ps,
                    });
                }
                Some("ccell") if fields.len() == 8 => {
                    let get = |i: usize, k: &str| -> Result<&str, TableParseError> {
                        fields[i].strip_prefix(k).ok_or_else(|| bad(line))
                    };
                    codec_entries.push(CodecEntry {
                        ranks: get(1, "ranks=")?.parse().map_err(|_| bad(line))?,
                        bytes: get(2, "bytes=")?.parse().map_err(|_| bad(line))?,
                        codec: GradCodec::parse(get(3, "codec=")?).ok_or_else(|| bad(line))?,
                        measured_ps: get(4, "measured_ps=")?.parse().map_err(|_| bad(line))?,
                        dense_ps: get(5, "dense_ps=")?.parse().map_err(|_| bad(line))?,
                        wire_bytes: get(6, "wire_bytes=")?.parse().map_err(|_| bad(line))?,
                        dense_bytes: get(7, "dense_bytes=")?.parse().map_err(|_| bad(line))?,
                    });
                }
                _ => return Err(bad(line)),
            }
        }
        match (inter, topo) {
            _ if entries.is_empty() => Err(TableParseError::Empty),
            (Some(inter), Some(topo)) => Ok(DecisionTable {
                inter,
                topo,
                entries,
                codec_entries,
            }),
            _ => Err(TableParseError::BadHeader),
        }
    }
}

/// Allreduce (sum) dispatched through a measured [`DecisionTable`]:
/// selects the nearest cell's winner for `(c.size(), byte length of
/// buf)` and runs it. In steady state no winner grows a pooled
/// transport's buffers (the hierarchical schedule still builds its two
/// small group-member lists per call).
pub fn tuned_allreduce<C: PointToPoint + ?Sized>(c: &C, buf: &mut [f32], table: &DecisionTable) {
    if c.size() == 1 || buf.is_empty() {
        return;
    }
    table.select(c.size(), std::mem::size_of_val(buf)).run(c, buf);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_table() -> DecisionTable {
        TuneGrid::smoke().run().table()
    }

    #[test]
    fn names_round_trip() {
        for algo in [
            TunedAlgo::Ring,
            TunedAlgo::RecursiveDoubling,
            TunedAlgo::Pipeline,
            TunedAlgo::Hierarchical { ranks_per_node: 4 },
        ] {
            assert_eq!(TunedAlgo::parse(&algo.name()), Some(algo));
        }
        assert_eq!(TunedAlgo::parse("hierarchical/0"), None);
        assert_eq!(TunedAlgo::parse("gce"), None);
    }

    #[test]
    fn measurement_is_deterministic_and_correct() {
        let link = LinkParams::extoll();
        let topo = Topology::esb(4);
        for algo in candidates(8, topo) {
            let a = measure(algo, 8, 4096, link, topo);
            let b = measure(algo, 8, 4096, link, topo);
            assert_eq!(a, b, "{} measurement must be reproducible", algo.name());
            assert!(a.msgs_total > 0 && a.measured_ps > 0);
        }
    }

    #[test]
    fn measured_ring_matches_the_alpha_beta_model_at_even_chunks() {
        // p=4 over 1024 f32s: chunks divide evenly, so the executed ring
        // schedule is exactly the textbook one the model prices. The
        // Lamport clock must land on the model to the picosecond.
        let link = LinkParams::extoll();
        let m = measure(TunedAlgo::Ring, 4, 4096, link, Topology::esb(1));
        assert_eq!(m.measured_ps, m.modeled_ps);
    }

    #[test]
    fn recursive_doubling_wins_small_messages_in_measurement() {
        let cell = measure_cell(8, KIB, LinkParams::extoll(), Topology::esb(4));
        // The argmin invariant, plus the expected physics: log₂ rounds
        // beat 14 serial ring hops at 1 KiB.
        for m in &cell.measurements {
            assert!(cell.winner().measured_ps <= m.measured_ps);
        }
        assert_eq!(cell.winner().algo, TunedAlgo::RecursiveDoubling);
    }

    #[test]
    fn table_round_trips_byte_identically() {
        let table = smoke_table();
        let text = table.to_table_string();
        let parsed = DecisionTable::parse(&text).expect("own output must parse");
        assert_eq!(parsed, table);
        assert_eq!(parsed.to_table_string(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            DecisionTable::parse("not a table"),
            Err(TableParseError::BadHeader)
        );
        assert_eq!(
            DecisionTable::parse("msa-tune-v1\nwat 1 2\n"),
            Err(TableParseError::BadLine("wat 1 2".to_string()))
        );
        assert_eq!(
            DecisionTable::parse("msa-tune-v1\ninter 1.1 12.5\nintra 4 0.3 300\n"),
            Err(TableParseError::Empty)
        );
    }

    #[test]
    fn selection_is_nearest_cell_and_respects_applicability() {
        let table = smoke_table();
        for &(p, b) in &TuneGrid::smoke().cells {
            let e = table.entry_for(p, b);
            assert_eq!((e.ranks, e.bytes), (p, b), "exact cells hit themselves");
        }
        // Off-grid sizes snap to a neighbour and always get a runnable pick.
        for p in [3usize, 5, 6, 7, 9, 10] {
            for b in [100usize, 2048, 50_000] {
                let algo = table.select(p, b);
                assert!(algo.applicable(p), "p={p} b={b} got {}", algo.name());
            }
        }
    }

    #[test]
    fn tuned_allreduce_sums_correctly_at_off_grid_sizes() {
        let table = smoke_table();
        for p in [1usize, 3, 5, 7] {
            let out = ThreadComm::run(p, |c| {
                let mut buf: Vec<f32> = (0..37).map(|i| (c.rank() + i) as f32).collect();
                tuned_allreduce(c, &mut buf, &table);
                buf
            });
            let expected: Vec<f32> = (0..37)
                .map(|i| (0..p).map(|r| (r + i) as f32).sum())
                .collect();
            for buf in &out {
                assert_eq!(buf, &expected, "p={p}");
            }
        }
    }

    #[test]
    fn codec_measurement_is_deterministic_and_encoded_bytes_shrink() {
        let link = LinkParams::extoll();
        let topo = Topology::esb(4);
        let (p, bytes) = (8, 64 * KIB);
        let dense = measure_codec(GradCodec::Dense32, p, bytes, link, topo);
        for codec in [
            GradCodec::Bf16,
            GradCodec::SparseTopK { ratio: 0.01 },
        ] {
            let a = measure_codec(codec, p, bytes, link, topo);
            let b = measure_codec(codec, p, bytes, link, topo);
            assert_eq!(a, b, "{} measurement must be reproducible", codec.name());
            assert!(a.msgs_total > 0 && a.measured_ps > 0);
            assert!(
                a.bytes_total < dense.bytes_total,
                "{} must ship fewer bytes than dense",
                codec.name()
            );
        }
    }

    #[test]
    fn bf16_wire_counters_are_exactly_half_of_dense() {
        let link = LinkParams::extoll();
        let topo = Topology::esb(4);
        let dense = measure_codec(GradCodec::Dense32, 4, 64 * KIB, link, topo);
        let bf16 = measure_codec(GradCodec::Bf16, 4, 64 * KIB, link, topo);
        assert_eq!(bf16.bytes_total * 2, dense.bytes_total);
        // Same chain schedule → same message count, half the priced load.
        assert_eq!(bf16.msgs_total, dense.msgs_total);
        assert!(bf16.measured_ps < dense.measured_ps);
    }

    #[test]
    fn extended_table_round_trips_byte_identically() {
        let mut table = smoke_table();
        let plain_text = table.to_table_string();
        table.add_codec_entry(CodecEntry {
            ranks: 8,
            bytes: 64 * KIB,
            codec: GradCodec::Bf16,
            measured_ps: 500,
            dense_ps: 1000,
            wire_bytes: 32 * KIB as u64,
            dense_bytes: 64 * KIB as u64,
        });
        table.add_codec_entry(CodecEntry {
            ranks: 8,
            bytes: 64 * KIB,
            codec: GradCodec::SparseTopK { ratio: 0.01 },
            measured_ps: 100,
            dense_ps: 1000,
            wire_bytes: 1344,
            dense_bytes: 64 * KIB as u64,
        });
        let text = table.to_table_string();
        // ccell lines append after the cells: a codec-free table's bytes
        // are untouched (the committed TUNE_pr7.table stays cmp-stable).
        assert!(text.starts_with(&plain_text));
        let parsed = DecisionTable::parse(&text).expect("own output must parse");
        assert_eq!(parsed, table);
        assert_eq!(parsed.to_table_string(), text);
        // Old-format text parses to an empty codec section.
        let old = DecisionTable::parse(&plain_text).expect("codec-free text still parses");
        assert!(old.codec_entries().is_empty());
    }

    #[test]
    fn codec_ratio_selects_nearest_matching_cell() {
        let mut table = smoke_table();
        assert_eq!(table.codec_ratio(8, 64 * KIB, GradCodec::Bf16), None);
        table.add_codec_entry(CodecEntry {
            ranks: 8,
            bytes: 64 * KIB,
            codec: GradCodec::Bf16,
            measured_ps: 600,
            dense_ps: 1000,
            wire_bytes: 1,
            dense_bytes: 2,
        });
        table.add_codec_entry(CodecEntry {
            ranks: 96,
            bytes: 256 * KIB,
            codec: GradCodec::Bf16,
            measured_ps: 900,
            dense_ps: 1000,
            wire_bytes: 1,
            dense_bytes: 2,
        });
        assert_eq!(table.codec_ratio(8, 64 * KIB, GradCodec::Bf16), Some(0.6));
        // Off-grid sizes snap to the nearest measured codec cell.
        assert_eq!(table.codec_ratio(128, MIB, GradCodec::Bf16), Some(0.9));
        // Other codecs stay unmeasured.
        assert_eq!(
            table.codec_ratio(8, 64 * KIB, GradCodec::SparseTopK { ratio: 0.01 }),
            None
        );
    }

    #[test]
    fn calibration_is_finite_and_positive() {
        let table = smoke_table();
        for e in table.entries() {
            let c = table.calibration(e.ranks, e.bytes);
            assert!(c.is_finite() && c > 0.0);
        }
    }
}
