//! Checkpoint/restart over the storage hierarchy.
//!
//! The NAM's original motivation ([12], Schmidt: *Accelerating
//! checkpoint/restart application performance in large-scale systems
//! with network attached memory*) is that fabric-attached memory takes
//! checkpoints far faster than the parallel FS. This module provides:
//!
//! * the first-order **Young–Daly analysis**: optimal checkpoint interval
//!   `τ* = √(2·C·MTBF)` and the resulting waste fraction;
//! * a seeded **Monte-Carlo failure-injection simulator** that replays a
//!   computation under exponential failures with checkpoint cost `C`,
//!   validating the analytic waste prediction and quantifying the NAM's
//!   end-to-end benefit.

use msa_core::{SimTime, XorShift};

/// Where checkpoints go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointTarget {
    pub name: &'static str,
    /// Sustained checkpoint write bandwidth in GB/s (per job).
    pub write_bw_gbs: f64,
    /// Restart read bandwidth in GB/s.
    pub read_bw_gbs: f64,
}

impl CheckpointTarget {
    /// The SSSM parallel file system (shared, contended).
    pub fn parallel_fs() -> Self {
        CheckpointTarget {
            name: "SSSM (Lustre)",
            write_bw_gbs: 4.0,
            read_bw_gbs: 6.0,
        }
    }

    /// The NAM over the fabric (the [12] accelerator).
    pub fn nam() -> Self {
        CheckpointTarget {
            name: "NAM",
            write_bw_gbs: 16.0,
            read_bw_gbs: 18.0,
        }
    }

    /// Time to write a checkpoint of `state_gib`.
    pub fn checkpoint_cost(&self, state_gib: f64) -> SimTime {
        SimTime::from_secs(state_gib / self.write_bw_gbs)
    }

    /// Time to restore a checkpoint of `state_gib`.
    pub fn restart_cost(&self, state_gib: f64) -> SimTime {
        SimTime::from_secs(state_gib / self.read_bw_gbs)
    }

    /// Time to write a checkpoint whose size is known in **bytes** —
    /// the bridge from real `nn::serialize` snapshot sizes (as produced
    /// by the `distrib` checkpoint subsystem) into the cost model.
    pub fn checkpoint_cost_bytes(&self, bytes: u64) -> SimTime {
        self.checkpoint_cost(bytes_to_gib(bytes))
    }

    /// Time to restore a checkpoint of `bytes` bytes.
    pub fn restart_cost_bytes(&self, bytes: u64) -> SimTime {
        self.restart_cost(bytes_to_gib(bytes))
    }
}

/// Bytes → GiB, the unit the bandwidth model speaks.
pub fn bytes_to_gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Young–Daly first-order analysis for checkpoint cost `c` and mean time
/// between failures `mtbf` (both as [`SimTime`]).
pub struct YoungDaly;

impl YoungDaly {
    /// Optimal checkpoint interval `τ* = √(2·C·M)`.
    pub fn optimal_interval(c: SimTime, mtbf: SimTime) -> SimTime {
        assert!(c.as_secs() > 0.0 && mtbf.as_secs() > 0.0);
        SimTime::from_secs((2.0 * c.as_secs() * mtbf.as_secs()).sqrt())
    }

    /// Expected waste fraction at interval `tau`:
    /// `C/τ + τ/(2M)` (first order, valid for `C ≪ τ ≪ M`).
    pub fn waste_fraction(c: SimTime, mtbf: SimTime, tau: SimTime) -> f64 {
        c.as_secs() / tau.as_secs() + tau.as_secs() / (2.0 * mtbf.as_secs())
    }

    /// Waste at the optimal interval: `√(2C/M)`.
    pub fn optimal_waste(c: SimTime, mtbf: SimTime) -> f64 {
        (2.0 * c.as_secs() / mtbf.as_secs()).sqrt()
    }

    /// System MTBF of `nodes` nodes with per-node MTBF `node_mtbf`.
    pub fn system_mtbf(node_mtbf: SimTime, nodes: usize) -> SimTime {
        assert!(nodes >= 1);
        node_mtbf / nodes as f64
    }
}

/// Result of one failure-injection run.
#[derive(Debug, Clone)]
pub struct FailureSimReport {
    /// Total wall-clock including checkpoints, failures and rework.
    pub wall: SimTime,
    /// Number of failures injected.
    pub failures: usize,
    /// Checkpoints successfully written.
    pub checkpoints: usize,
    /// wall / useful_work − 1 (overhead fraction).
    pub overhead: f64,
}

/// Simulates `work` seconds of useful computation under exponential
/// failures (mean `mtbf`), checkpointing every `interval` at cost `c`,
/// restarting at cost `r` after every failure, losing all progress since
/// the last completed checkpoint. Deterministic given `seed`.
pub fn simulate_failures(
    work: SimTime,
    interval: SimTime,
    c: SimTime,
    r: SimTime,
    mtbf: SimTime,
    seed: u64,
) -> FailureSimReport {
    assert!(interval.as_secs() > 0.0 && work.as_secs() > 0.0);
    let mut rng = XorShift(seed | 1);
    let mut exp_draw = move || -mtbf.as_secs() * (1.0 - rng.unit()).max(1e-300).ln();

    let mut wall = 0.0f64; // total elapsed
    let mut done = 0.0f64; // checkpointed useful work
    let mut next_failure = exp_draw();
    let mut failures = 0usize;
    let mut checkpoints = 0usize;

    while done < work.as_secs() {
        // Attempt one segment: min(interval, remaining) of work + a
        // checkpoint (skipped if this segment finishes the job).
        let seg_work = interval.as_secs().min(work.as_secs() - done);
        let finishing = done + seg_work >= work.as_secs();
        let seg_total = seg_work + if finishing { 0.0 } else { c.as_secs() };

        if wall + seg_total <= next_failure {
            // Segment completes.
            wall += seg_total;
            done += seg_work;
            if !finishing {
                checkpoints += 1;
            }
        } else {
            // Failure mid-segment: lose the segment, then pay a restart
            // that is itself fair game for the failure process — a node
            // can die again while re-reading the checkpoint, so the next
            // failure clock starts at the failure instant, not after the
            // restart completes (which would bias overhead low at small
            // MTBF).
            failures += 1;
            wall = next_failure;
            next_failure = wall + exp_draw();
            loop {
                if wall + r.as_secs() <= next_failure {
                    wall += r.as_secs(); // restart completes
                    break;
                }
                // Struck again mid-restart: restart the restart.
                failures += 1;
                wall = next_failure;
                next_failure = wall + exp_draw();
                assert!(
                    failures < 1_000_000,
                    "failure storm: mtbf too small for this workload"
                );
            }
        }
        assert!(
            failures < 1_000_000,
            "failure storm: mtbf too small for this workload"
        );
    }

    FailureSimReport {
        wall: SimTime::from_secs(wall),
        failures,
        checkpoints,
        overhead: wall / work.as_secs() - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn optimal_interval_matches_formula() {
        let tau = YoungDaly::optimal_interval(secs(50.0), secs(10_000.0));
        assert!((tau.as_secs() - 1000.0).abs() < 1e-9);
        // The optimum minimises the waste function.
        let w_opt = YoungDaly::waste_fraction(secs(50.0), secs(10_000.0), tau);
        for factor in [0.5, 0.8, 1.25, 2.0] {
            let w = YoungDaly::waste_fraction(secs(50.0), secs(10_000.0), tau * factor);
            assert!(w >= w_opt - 1e-12, "waste not minimal at tau*");
        }
    }

    #[test]
    fn nam_checkpoints_are_faster_and_waste_less() {
        let state_gib = 200.0;
        let c_pfs = CheckpointTarget::parallel_fs().checkpoint_cost(state_gib);
        let c_nam = CheckpointTarget::nam().checkpoint_cost(state_gib);
        assert!(c_nam < c_pfs / 3.0, "NAM writes ≥3x faster");
        let mtbf = YoungDaly::system_mtbf(secs(2.0e6), 128);
        let w_pfs = YoungDaly::optimal_waste(c_pfs, mtbf);
        let w_nam = YoungDaly::optimal_waste(c_nam, mtbf);
        assert!(
            w_nam < w_pfs / 1.8,
            "NAM should halve the waste: {w_nam} vs {w_pfs}"
        );
    }

    #[test]
    fn system_mtbf_shrinks_with_scale() {
        let node = secs(1e6);
        assert!(
            YoungDaly::system_mtbf(node, 1000) < YoungDaly::system_mtbf(node, 10)
        );
        assert!(
            (YoungDaly::system_mtbf(node, 100).as_secs() - 1e4).abs() < 1e-6
        );
    }

    #[test]
    fn simulation_without_failures_pays_only_checkpoints() {
        // Giant MTBF ⇒ no failures; overhead = checkpoint time only.
        let rep = simulate_failures(
            secs(1000.0),
            secs(100.0),
            secs(10.0),
            secs(5.0),
            secs(1e12),
            42,
        );
        assert_eq!(rep.failures, 0);
        assert_eq!(rep.checkpoints, 9); // last segment finishes the job
        assert!((rep.wall.as_secs() - 1090.0).abs() < 1e-6);
    }

    #[test]
    fn simulation_matches_young_daly_expectation() {
        // Long run at the optimal interval: measured overhead within a
        // factor ~2 of the analytic waste (first-order model + variance).
        let c = secs(20.0);
        let mtbf = secs(20_000.0);
        let tau = YoungDaly::optimal_interval(c, mtbf);
        let expected = YoungDaly::optimal_waste(c, mtbf);
        let mut total_overhead = 0.0;
        let runs = 10;
        for seed in 0..runs {
            let rep = simulate_failures(secs(200_000.0), tau, c, secs(10.0), mtbf, seed);
            total_overhead += rep.overhead;
        }
        let mean = total_overhead / runs as f64;
        assert!(
            mean > expected * 0.5 && mean < expected * 2.0,
            "measured {mean:.4} vs analytic {expected:.4}"
        );
    }

    #[test]
    fn nam_beats_pfs_end_to_end_under_failures() {
        let state_gib = 400.0;
        let mtbf = YoungDaly::system_mtbf(secs(2.0e6), 256);
        let work = secs(100_000.0);
        let mut walls = Vec::new();
        for target in [CheckpointTarget::parallel_fs(), CheckpointTarget::nam()] {
            let c = target.checkpoint_cost(state_gib);
            let r = target.restart_cost(state_gib);
            let tau = YoungDaly::optimal_interval(c, mtbf);
            let rep = simulate_failures(work, tau, c, r, mtbf, 7);
            walls.push(rep.wall);
        }
        assert!(
            walls[1] < walls[0],
            "NAM {} should beat PFS {}",
            walls[1],
            walls[0]
        );
    }

    #[test]
    fn restarts_are_interruptible() {
        // Restart cost far above the MTBF: most restart attempts are
        // themselves struck down, so the failure count must exceed the
        // single work-segment failure an immune-restart model would
        // record, and the wall clock must absorb the repeated attempts.
        let rep = simulate_failures(
            secs(1000.0),
            secs(100.0),
            secs(1.0),
            secs(1000.0),
            secs(500.0),
            11,
        );
        assert!(
            rep.failures > 2,
            "restart should be interruptible: only {} failures",
            rep.failures
        );
        assert!(rep.wall.as_secs() > 2000.0, "wall {} too short", rep.wall);
    }

    #[test]
    fn byte_costs_match_gib_costs() {
        let t = CheckpointTarget::nam();
        let gib = 3.0;
        let bytes = (gib * (1u64 << 30) as f64) as u64;
        assert!(
            (t.checkpoint_cost_bytes(bytes).as_secs() - t.checkpoint_cost(gib).as_secs()).abs()
                < 1e-9
        );
        assert!(
            (t.restart_cost_bytes(bytes).as_secs() - t.restart_cost(gib).as_secs()).abs() < 1e-9
        );
        // A real (small) model snapshot costs what its size implies.
        let small = t.checkpoint_cost_bytes(1_048_576);
        assert!(small.as_secs() > 0.0 && small.as_secs() < 1e-3);
    }

    #[test]
    fn more_failures_at_smaller_mtbf() {
        let count = |mtbf: f64| {
            simulate_failures(
                secs(50_000.0),
                secs(500.0),
                secs(10.0),
                secs(10.0),
                secs(mtbf),
                3,
            )
            .failures
        };
        assert!(count(2_000.0) > count(20_000.0));
    }
}
