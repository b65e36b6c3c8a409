//! Measured collective autotuner (MPI "tuned collectives" style).
//!
//! The α–β prices of [`CollectiveAlgo`] predict; this module *measures*.
//! Every allreduce the workspace can run — ring, recursive doubling,
//! pipeline, hierarchical — is executed **for real** over a fresh
//! [`ThreadComm`] for each (ranks, bytes) cell of a grid, the winners are
//! kept as a [`DecisionTable`], and [`tuned_allreduce`] (behind
//! `distrib`'s `ExchangeDispatch::Tuned`) dispatches through it. A pick
//! is a [`CollectiveAlgo`], so what runs is what `distrib::perf` prices.
//!
//! **The priced clock.** Host timing of thread collectives is noise, so
//! a schedule's time is read off the transport's Lamport clock
//! ([`crate::CommStats::vtime_ps`]): each message carries its sender's
//! virtual send time, and each receive advances the receiver to
//! `max(now, sent_at + α + m/β)` on the link the hop travels — NVLink 3
//! inside a node, the fabric between nodes ([`Topology`]). The maximum
//! endpoint clock is the critical path of the schedule that really ran,
//! empty-chunk skips and non-power-of-two fold-ins included. A clock
//! advances only at its own receives, by stamps that arrive inside the
//! messages over per-pair FIFOs, so every value depends on program order
//! alone: the same grid gives the same picoseconds on any machine. At
//! evenly dividing chunks the measured ring equals its α–β price to the
//! picosecond. The clock prices links, not buffer limits: credit-pool
//! back-pressure (`ThreadComm`'s `Bounded(2)`) is not measured, so a
//! schedule that would stall on credits can be under-priced.
//!
//! **The `msa-tune-v1` table.** [`TuneGrid::paper`] runs every candidate
//! up to the paper's 96 and 128 ranks, and [`DecisionTable`] serializes
//! the winners:
//!
//! ```text
//! msa-tune-v1
//! inter <latency_us> <bw_gbs>
//! intra <ranks_per_node> 0.3 300
//! cell ranks=R bytes=B algo=A fallback=F measured_ps=M modeled_ps=P
//! ccell ranks=R bytes=B codec=C measured_ps=M dense_ps=D wire_bytes=W dense_bytes=E
//! ```
//!
//! The `intra` link is fixed to NVLink 3 ([`LinkParams::nvlink3`]), the
//! only intra-node link the repo models. Floats print shortest-round-trip
//! and everything else is an integer, so parse and serialize are inverse
//! byte for byte. `fallback` is the cell's fastest flat algorithm, run
//! where the hierarchical winner cannot; `ccell` rows ([`measure_codec`])
//! follow the cells. Lookup is nearest-cell in integer arithmetic with
//! first-entry ties, so selection is total at any size. Selection depends
//! only on a bucket's byte length, so tuned dispatch keeps the fused and
//! serialized exchanges of one partition bit-identical.
//! `ScalingModel::tuned` prices the pick on its own link times
//! [`DecisionTable::calibration`].

use crate::codec::{bf16_allreduce, sparse_k, GradCodec, WirePair};
use crate::collectives;
use crate::comm::PointToPoint;
use crate::cost::{CollectiveAlgo, LinkParams, Topology};
use crate::scratch::Arena;
use crate::thread_comm::{CommOptions, ThreadComm};

/// One measured execution of one algorithm in one grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// The algorithm that ran.
    pub algo: CollectiveAlgo,
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

    /// The fastest flat (non-hierarchical) candidate — the fallback
    /// recorded in the table for sizes where the hierarchical pick cannot
    /// run.
    pub fn best_software(&self) -> &Measurement {
        let mut best: Option<&Measurement> = None;
        for m in &self.measurements {
            if matches!(m.algo, CollectiveAlgo::Hierarchical { .. }) {
                continue;
            }
            if best.is_none_or(|b| m.measured_ps < b.measured_ps) {
                best = Some(m);
            }
        }
        // lint: allow(unwrap) -- cells always contain the three flat candidates by construction
        best.expect("cell has no flat candidate")
    }
}

/// Executes `algo` for real at (`ranks`, `bytes`) and reads the priced
/// clocks and wire counters back. Panics on a phantom-zero wire row
/// (`msgs_total == 0` at `ranks > 1`) or a wrong sum, so neither can ship
/// through the tuner.
pub fn measure(
    algo: CollectiveAlgo,
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
            assert_sum(&buf, ranks, &algo.name());
        });
    Measurement {
        algo,
        measured_ps,
        modeled_ps: algo.allreduce_time(ranks, bytes as f64, link).as_ps(),
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
/// compressor picked). All-ones inputs must reduce to exactly `ranks`,
/// as in [`measure`].
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
            let mut buf = vec![1.0f32; len];
            // How many leading entries carry the sum; the rest stay zero.
            let summed = match codec {
                GradCodec::Dense32 => {
                    collectives::pipeline_allreduce(c, &mut buf);
                    len
                }
                GradCodec::Bf16 => {
                    bf16_allreduce(c, &mut buf, &mut Arena::new());
                    len
                }
                GradCodec::SparseTopK { ratio } => {
                    let k = sparse_k(len, ratio);
                    let mut payload = vec![0.0f32; 2 * k];
                    for i in 0..k {
                        WirePair::new(i as u32, 1.0).to_words(&mut payload[2 * i..2 * i + 2]);
                    }
                    let mut all = vec![0.0f32; ranks * payload.len()];
                    collectives::ring_allgather_into(c, &payload, &mut all);
                    buf.fill(0.0);
                    for pair_words in all.chunks_exact(2) {
                        let pair = WirePair::from_words(pair_words);
                        buf[pair.index as usize] += pair.value();
                    }
                    k
                }
            };
            assert_sum(&buf[..summed], ranks, &what);
            assert!(buf[summed..].iter().all(|v| *v == 0.0), "{what} wrote past its top k");
        });
    CodecMeasurement {
        codec,
        measured_ps,
        msgs_total,
        bytes_total,
    }
}

/// Correctness is part of a measurement: an allreduce of all-ones must
/// leave exactly `ranks` in every element (whole numbers are exact in f32,
/// and in bf16 up to 256, so at every grid size up to p = 128).
fn assert_sum(buf: &[f32], ranks: usize, what: &str) {
    let want = ranks as f32;
    assert!(
        buf.iter().all(|v| v.to_bits() == want.to_bits()),
        "{what} at p={ranks} produced a wrong sum"
    );
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

/// The fixed candidate list for one cell: the software algorithms that
/// can run (ring, recursive doubling, pipeline), plus the topology's
/// hierarchical schedule where it can run.
pub fn candidates(ranks: usize, topo: Topology) -> Vec<CollectiveAlgo> {
    let hier = CollectiveAlgo::Hierarchical {
        ranks_per_node: topo.ranks_per_node,
    };
    let all = CollectiveAlgo::software().into_iter().chain([hier]);
    all.filter(|algo| algo.applicable(ranks)).collect()
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
    /// Node topology (the node size; same-node hops travel NVLink 3).
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
    pub algo: CollectiveAlgo,
    /// The measured-fastest flat algorithm — used when `algo` is
    /// hierarchical but the caller's size cannot run it.
    pub fallback: CollectiveAlgo,
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

/// The value of a `key=value` table field, parsed; `None` when the key
/// is not `key` or the value does not parse.
fn keyed<T: std::str::FromStr>(field: &str, key: &str) -> Option<T> {
    field.strip_prefix(key)?.parse().ok()
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
    pub fn select(&self, ranks: usize, bytes: usize) -> CollectiveAlgo {
        let e = self.entry_for(ranks, bytes);
        if e.algo.applicable(ranks) {
            e.algo
        } else {
            e.fallback
        }
    }

    /// Measured/modeled ratio of the nearest cell's winner — the factor
    /// `distrib::perf` multiplies its analytic prediction by. 1.0 when
    /// [`DecisionTable::select`] demotes the winner to its fallback at
    /// this size: the table holds no measurement of the fallback.
    pub fn calibration(&self, ranks: usize, bytes: usize) -> f64 {
        let e = self.entry_for(ranks, bytes);
        if e.modeled_ps == 0 || !e.algo.applicable(ranks) {
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
        let nvlink = LinkParams::nvlink3();
        out.push_str(&format!(
            "intra {} {} {}\n",
            self.topo.ranks_per_node, nvlink.latency_us, nvlink.bw_gbs
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
    /// [`DecisionTable::to_table_string`]. Rejects, as
    /// [`TableParseError::BadLine`], what could not be priced or run: an
    /// `inter` latency or bandwidth that is not finite and positive, a
    /// node size of zero, an `intra` link other than NVLink 3, and a
    /// hierarchical `fallback`.
    pub fn parse(text: &str) -> Result<DecisionTable, TableParseError> {
        let mut lines = text.lines();
        if lines.next() != Some("msa-tune-v1") {
            return Err(TableParseError::BadHeader);
        }
        let mut inter = None;
        let mut topo = None;
        let mut entries = Vec::new();
        let mut codec_entries = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let bad = || TableParseError::BadLine(line.to_string());
            let fields: Vec<&str> = line.split_whitespace().collect();
            let link = |i: usize| -> Result<LinkParams, TableParseError> {
                let positive = |s: &str| {
                    s.parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite() && *v > 0.0)
                        .ok_or_else(bad)
                };
                Ok(LinkParams {
                    latency_us: positive(fields[i])?,
                    bw_gbs: positive(fields[i + 1])?,
                })
            };
            let algo = |i: usize, k: &str| {
                let name = fields[i].strip_prefix(k).ok_or_else(bad)?;
                CollectiveAlgo::parse(name).ok_or_else(bad)
            };
            match fields.first().copied() {
                Some("inter") if fields.len() == 3 => inter = Some(link(1)?),
                Some("intra") if fields.len() == 4 => {
                    let k: usize = fields[1].parse().map_err(|_| bad())?;
                    if k == 0 || link(2)? != LinkParams::nvlink3() {
                        return Err(bad());
                    }
                    topo = Some(Topology::esb(k));
                }
                Some("cell") if fields.len() == 7 => {
                    let fallback = algo(4, "fallback=")?;
                    if matches!(fallback, CollectiveAlgo::Hierarchical { .. }) {
                        return Err(bad());
                    }
                    entries.push(TableEntry {
                        ranks: keyed(fields[1], "ranks=").ok_or_else(bad)?,
                        bytes: keyed(fields[2], "bytes=").ok_or_else(bad)?,
                        algo: algo(3, "algo=")?,
                        fallback,
                        measured_ps: keyed(fields[5], "measured_ps=").ok_or_else(bad)?,
                        modeled_ps: keyed(fields[6], "modeled_ps=").ok_or_else(bad)?,
                    });
                }
                Some("ccell") if fields.len() == 8 => {
                    let codec = fields[3].strip_prefix("codec=").ok_or_else(bad)?;
                    codec_entries.push(CodecEntry {
                        ranks: keyed(fields[1], "ranks=").ok_or_else(bad)?,
                        bytes: keyed(fields[2], "bytes=").ok_or_else(bad)?,
                        codec: GradCodec::parse(codec).ok_or_else(bad)?,
                        measured_ps: keyed(fields[4], "measured_ps=").ok_or_else(bad)?,
                        dense_ps: keyed(fields[5], "dense_ps=").ok_or_else(bad)?,
                        wire_bytes: keyed(fields[6], "wire_bytes=").ok_or_else(bad)?,
                        dense_bytes: keyed(fields[7], "dense_bytes=").ok_or_else(bad)?,
                    });
                }
                _ => return Err(bad()),
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

    fn ccell(ranks: usize, bytes: usize, codec: GradCodec, ps: [u64; 2], wire: [u64; 2]) -> CodecEntry {
        let ([measured_ps, dense_ps], [wire_bytes, dense_bytes]) = (ps, wire);
        CodecEntry { ranks, bytes, codec, measured_ps, dense_ps, wire_bytes, dense_bytes }
    }

    #[test]
    fn names_round_trip() {
        for algo in [
            CollectiveAlgo::Ring,
            CollectiveAlgo::RecursiveDoubling,
            CollectiveAlgo::Pipeline,
            CollectiveAlgo::Hierarchical { ranks_per_node: 4 },
        ] {
            assert_eq!(CollectiveAlgo::parse(&algo.name()), Some(algo));
        }
        assert_eq!(CollectiveAlgo::parse("hierarchical/0"), None);
        assert_eq!(CollectiveAlgo::parse("gce"), None);
        // The price-only algorithms neither parse nor run.
        for algo in [CollectiveAlgo::BinomialTree, CollectiveAlgo::GceOffload] {
            assert!(CollectiveAlgo::parse(&algo.name()).is_none() && !algo.applicable(8));
        }
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
        let m = measure(CollectiveAlgo::Ring, 4, 4096, link, Topology::esb(1));
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
        assert_eq!(cell.winner().algo, CollectiveAlgo::RecursiveDoubling);
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
        // Lines of the right shape that could not be priced or run: a link
        // the α–β clock cannot price, a zero node size, another intra-node
        // link, a price-only algorithm, a fallback that needs nodes.
        let good = [
            "inter 1.1 12.5",
            "intra 4 0.3 300",
            "cell ranks=8 bytes=8 algo=ring fallback=ring measured_ps=1 modeled_ps=1",
        ];
        for bad in [
            "inter NaN 12.5",
            "inter 1.1 inf",
            "inter 0 12.5",
            "inter -1.1 12.5",
            "inter 1.1 0",
            "inter 1.1 -12.5",
            "intra 0 0.3 300",
            "intra 4 0.3 600",
            "cell ranks=8 bytes=8 algo=gce_offload fallback=ring measured_ps=1 modeled_ps=1",
            "cell ranks=8 bytes=8 algo=binomial_tree fallback=ring measured_ps=1 modeled_ps=1",
            "cell ranks=8 bytes=8 algo=ring fallback=hierarchical/2 measured_ps=1 modeled_ps=1",
        ] {
            let kind = |l: &str| l.split(' ').next().map(str::to_string);
            let lines = good.map(|l| if kind(l) == kind(bad) { bad } else { l });
            let text = format!("msa-tune-v1\n{}\n", lines.join("\n"));
            let want = Err(TableParseError::BadLine(bad.to_string()));
            assert_eq!(DecisionTable::parse(&text), want, "{bad}");
        }
    }

    /// Both committed tables, truncated, with a byte overwritten or with
    /// a digit changed (seeded, so a failure replays): `parse` returns
    /// rather than panics, and every table it accepts answers `select`,
    /// `calibration` and `codec_ratio` at the paper grid's cells and
    /// prices its pick on its own fabric link.
    #[test]
    fn mutated_committed_tables_parse_totally_and_price() {
        let tables = [include_str!("../../../TUNE_pr7.table"), include_str!("../../../TUNE_pr9.table")];
        let codecs = [GradCodec::Bf16, GradCodec::SparseTopK { ratio: 0.01 }];
        let mut rng = msa_core::XorShift(0x7475_6e65);
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        let (mut parsed, mut rejected) = (0, 0);
        for round in 0..3000 {
            let mut bytes = tables[round % 2].as_bytes().to_vec();
            let n = bytes.len();
            let digits: Vec<usize> = (0..n).filter(|&i| bytes[i].is_ascii_digit()).collect();
            match round % 3 {
                0 => bytes.truncate(below(n + 1)),
                1 => bytes[below(n)] = below(256) as u8,
                _ => bytes[digits[below(digits.len())]] = b"0123456789-.e"[below(13)],
            }
            let text = String::from_utf8_lossy(&bytes);
            let Ok(table) = DecisionTable::parse(&text) else {
                rejected += 1;
                continue;
            };
            parsed += 1;
            for &(ranks, bytes) in &TuneGrid::paper().cells {
                let pick = table.select(ranks, bytes);
                assert!(pick.applicable(ranks), "{text}\npicked {} at p={ranks}", pick.name());
                pick.allreduce_time(ranks, bytes as f64, table.inter());
                assert!(table.calibration(ranks, bytes).is_finite());
                let ratio = |codec| table.codec_ratio(ranks, bytes, codec);
                assert!(codecs.into_iter().all(|codec| ratio(codec).is_none_or(f64::is_finite)));
            }
        }
        assert!(parsed > 500 && rejected > 500, "parsed {parsed}, rejected {rejected}");
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
        let dense = 64 * KIB as u64;
        table.add_codec_entry(ccell(8, 64 * KIB, GradCodec::Bf16, [500, 1000], [dense / 2, dense]));
        let topk = GradCodec::SparseTopK { ratio: 0.01 };
        table.add_codec_entry(ccell(8, 64 * KIB, topk, [100, 1000], [1344, dense]));
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
        table.add_codec_entry(ccell(8, 64 * KIB, GradCodec::Bf16, [600, 1000], [1, 2]));
        table.add_codec_entry(ccell(96, 256 * KIB, GradCodec::Bf16, [900, 1000], [1, 2]));
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
