//! Acceptance suite for the collective-schedule model checker: every
//! collective in `msa-net` is verified deadlock-free with fully matched,
//! size-consistent sends for the paper's rank counts (1..=17 plus the
//! production points 32, 96, 128 from the JUWELS scaling studies), and a
//! deliberately broken schedule is shown to be *caught*, with the
//! offending wait cycle in the report.

use msa_net::collectives::{
    binomial_broadcast, binomial_broadcast_into, chunk_ranges, dissemination_barrier,
    pipeline_allreduce, pipeline_allreduce_mean, pipeline_reduce_scatter_mean,
    recursive_doubling_allreduce, ring_allgather, ring_allgather_into, ring_allreduce,
    shard_gather, tree_reduce,
};
use msa_net::hierarchical::hierarchical_allreduce;
use msa_net::{bf16_allreduce, Arena, PointToPoint};
use msa_verify::{check_schedule, Capacity, CheckFailure, TraceComm, WaitKind};

/// The paper-relevant rank counts: everything through 17 (covers all
/// power-of-two/odd/even fold-in shapes) plus the large scaling points.
const RANKS: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 96, 128,
];

/// Payload length deliberately not divisible by most rank counts so the
/// ring's `chunk_ranges` partitioning is exercised with ragged chunks.
const LEN: usize = 13;

type Schedule = fn(&TraceComm);

const COLLECTIVES: &[(&str, Schedule)] = &[
    ("ring_allreduce", |c| {
        let mut buf = vec![c.rank() as f32; LEN];
        ring_allreduce(c, &mut buf);
    }),
    ("recursive_doubling_allreduce", |c| {
        let mut buf = vec![c.rank() as f32; LEN];
        recursive_doubling_allreduce(c, &mut buf);
    }),
    ("binomial_broadcast", |c| {
        let mut buf = vec![c.rank() as f32; LEN];
        binomial_broadcast(c, &mut buf, 0);
    }),
    ("binomial_broadcast_into", |c| {
        let mut buf = vec![c.rank() as f32; LEN];
        binomial_broadcast_into(c, &mut buf, c.size() - 1);
    }),
    ("tree_reduce", |c| {
        let mut buf = vec![c.rank() as f32; LEN];
        tree_reduce(c, &mut buf, 0);
    }),
    ("pipeline_allreduce", |c| {
        let mut buf = vec![c.rank() as f32; LEN];
        pipeline_allreduce(c, &mut buf);
    }),
    // Phase 2 sends while it still holds the lent receive buffer.
    ("bf16_allreduce", |c| {
        let mut buf = vec![c.rank() as f32; LEN];
        bf16_allreduce(c, &mut buf, &mut Arena::new());
    }),
    // Owners receive two lent buffers at once; ranks p−2 and p−1 send
    // first.
    ("pipeline_reduce_scatter_mean", |c| {
        let mut buf = vec![c.rank() as f32; LEN];
        pipeline_reduce_scatter_mean(c, &mut buf, 0, LEN);
    }),
    ("shard_allgather", |c| {
        let mut buf = [c.rank() as f32; LEN];
        shard_gather(c, None, LEN, &mut buf[..], read_shard, write_shard);
    }),
    ("shard_gather", |c| {
        let mut buf = [c.rank() as f32; LEN];
        shard_gather(c, Some(0), LEN, &mut buf[..], read_shard, write_shard);
    }),
    ("ring_allgather", |c| {
        let blocks = ring_allgather(c, &[c.rank() as f32; 3]);
        assert_eq!(blocks.len(), c.size());
    }),
    ("ring_allgather_ragged", |c| {
        let blocks = ring_allgather(c, &vec![c.rank() as f32; c.rank() % 3 + 1]);
        for (r, b) in blocks.iter().enumerate() {
            assert_eq!(b.len(), r % 3 + 1);
        }
    }),
    ("ring_allgather_into", |c| {
        let mut out = vec![0.0; 3 * c.size()];
        ring_allgather_into(c, &[c.rank() as f32; 3], &mut out);
    }),
    ("dissemination_barrier", |c| {
        dissemination_barrier(c);
    }),
];

fn read_shard(buf: &[f32], r: std::ops::Range<usize>, msg: &mut [f32]) {
    msg.copy_from_slice(&buf[r]);
}

fn write_shard(buf: &mut [f32], r: std::ops::Range<usize>, msg: &[f32]) {
    buf[r].copy_from_slice(msg);
}

#[test]
fn all_collectives_verify_under_eager_buffering() {
    for &(name, run) in COLLECTIVES {
        for &p in RANKS {
            let report = check_schedule(p, Capacity::Unbounded, |c| {
                c.mark(name);
                run(c);
            })
            .unwrap_or_else(|e| panic!("{name} failed at p={p}: {e}"));
            assert_eq!(report.ranks, p);
            assert_eq!(report.marks, vec![name.to_string()]);
            if p > 1 {
                assert!(report.messages > 0, "{name} at p={p} moved no messages");
            } else {
                assert_eq!(report.messages, 0, "{name} at p=1 must be local");
            }
        }
    }
}

/// The doc comment on `collectives.rs` claims one buffered message per
/// channel suffices for the send-then-recv schedules (`ThreadComm` gives
/// every channel two). This proves it for every collective at every rank
/// count.
#[test]
fn single_slot_channels_suffice_for_every_collective() {
    for &(name, run) in COLLECTIVES {
        for &p in RANKS {
            let report = check_schedule(p, Capacity::Bounded(1), |c| {
                c.mark(name);
                run(c);
            })
            .unwrap_or_else(|e| panic!("{name} failed at p={p} with bounded(1): {e}"));
            assert!(
                report.peak_queue_depth <= 1,
                "{name} at p={p}: peak depth {}",
                report.peak_queue_depth
            );
        }
    }
}

/// Composing collectives back-to-back (the shape of a training step:
/// barrier → allreduce → broadcast) stays safe under single-slot
/// buffering, and every rank logs the identical phase sequence.
#[test]
fn composed_training_step_schedule_verifies() {
    for &p in RANKS {
        let report = check_schedule(p, Capacity::Bounded(1), |c| {
            c.mark("barrier");
            dissemination_barrier(c);
            c.mark("allreduce");
            let mut grad = vec![0.5; LEN];
            ring_allreduce(c, &mut grad);
            c.mark("broadcast");
            let mut params = vec![1.0; LEN];
            binomial_broadcast(c, &mut params, 0);
        })
        .unwrap_or_else(|e| panic!("composed step failed at p={p}: {e}"));
        assert_eq!(report.marks, ["barrier", "allreduce", "broadcast"]);
    }
}

#[test]
fn hierarchical_allreduce_verifies_for_every_node_grouping() {
    for &p in RANKS {
        for rpn in 1..=p {
            if p % rpn != 0 {
                continue;
            }
            let report = check_schedule(p, Capacity::Bounded(1), |c| {
                c.mark("hierarchical_allreduce");
                let mut buf = vec![c.rank() as f32; LEN];
                hierarchical_allreduce(c, &mut buf, rpn);
            })
            .unwrap_or_else(|e| panic!("hierarchical p={p} rpn={rpn}: {e}"));
            assert_eq!(report.ranks, p);
        }
    }
}

/// The fused gradient exchange (PR 5): the trainer partitions the flat
/// gradient into layer-aligned buckets and pipeline-allreduces each in
/// flush (back-to-front) order. Model-check that bucketed schedule for
/// every bucket count against the paper's worker counts, under the
/// single-slot buffering the runtime is proven to provide — no deadlock,
/// matched message sizes, identical phase sequences on all ranks. Both
/// the sum chain and the averaging chain the trainer runs are checked;
/// the latter's last rank sends while it still holds the received buffer.
#[test]
fn bucketed_pipeline_schedule_verifies_for_all_bucket_counts() {
    const FUSED_RANKS: &[usize] = &[2, 3, 4, 5, 6, 7, 8, 9, 12, 16];
    // 29 scalars split into 1..=6 buckets covers ragged, singleton and
    // near-empty partitions (6 buckets of ~5 scalars).
    const FLAT: usize = 29;
    for (&p, mean) in FUSED_RANKS.iter().flat_map(|p| [(p, false), (p, true)]) {
        for buckets in 1..=6usize {
            let report = check_schedule(p, Capacity::Bounded(1), |c| {
                c.mark("fused-exchange");
                let mut flat = [c.rank() as f32; FLAT];
                // Flush order: the highest bucket finishes backward first.
                for r in chunk_ranges(FLAT, buckets).into_iter().rev() {
                    if mean {
                        pipeline_allreduce_mean(c, &mut flat[r]);
                    } else {
                        pipeline_allreduce(c, &mut flat[r]);
                    }
                }
            })
            .unwrap_or_else(|e| panic!("bucketed pipeline p={p} mean={mean} buckets={buckets}: {e}"));
            assert_eq!(report.ranks, p);
            assert_eq!(report.marks, vec!["fused-exchange".to_string()]);
            assert!(
                report.peak_queue_depth <= 1,
                "p={p} buckets={buckets}: peak depth {}",
                report.peak_queue_depth
            );
        }
    }
}

/// The sharded dense step: the owner-fold reduce-scatter per bucket in
/// flush order, the parameter allgather, then the checkpoint's gather of
/// two moment shards to rank 0, for every bucket count at p = 2..=8
/// under single-slot buffering. Buckets that hold none of an owner's
/// range skip that owner on both ends.
#[test]
fn bucketed_sharded_step_verifies_for_all_bucket_counts() {
    const FLAT: usize = 29;
    for p in 2..=8usize {
        for buckets in 1..=6usize {
            let report = check_schedule(p, Capacity::Bounded(1), |c| {
                c.mark("sharded-step");
                let mut flat = [c.rank() as f32; FLAT];
                for r in chunk_ranges(FLAT, buckets).into_iter().rev() {
                    let at = r.start;
                    pipeline_reduce_scatter_mean(c, &mut flat[r], at, FLAT);
                }
                shard_gather(c, None, FLAT, &mut flat[..], read_shard, write_shard);
                let mut state = [0.0; 2 * FLAT];
                for part in 0..2 {
                    let (m, at) = (&flat, part * FLAT);
                    let read = |_: &[f32], r: std::ops::Range<usize>, msg: &mut [f32]| {
                        msg.copy_from_slice(&m[r]);
                    };
                    shard_gather(c, Some(0), FLAT, &mut state[at..at + FLAT], read, write_shard);
                }
            })
            .unwrap_or_else(|e| panic!("sharded step p={p} buckets={buckets}: {e}"));
            assert_eq!(report.marks, vec!["sharded-step".to_string()]);
            assert!(
                report.peak_queue_depth <= 1,
                "p={p} buckets={buckets}: peak depth {}",
                report.peak_queue_depth
            );
        }
    }
}

/// `pipeline_allreduce`'s doc claims rendezvous safety: every send has a
/// matching receive posted (or next in program order), so the chain
/// completes even on zero-capacity channels — unlike the eager ring
/// (see `ring_allreduce_deadlocks_under_rendezvous_semantics`).
#[test]
fn pipeline_allreduce_survives_rendezvous_semantics() {
    for &p in &[2usize, 3, 5, 8] {
        for mean in [false, true] {
            let report = check_schedule(p, Capacity::Bounded(0), |c| {
                let mut buf = vec![c.rank() as f32; LEN];
                if mean {
                    pipeline_allreduce_mean(c, &mut buf);
                } else {
                    pipeline_allreduce(c, &mut buf);
                }
            })
            .unwrap_or_else(|e| panic!("pipeline under rendezvous p={p} mean={mean}: {e}"));
            assert_eq!(report.ranks, p);
        }
    }
}

/// Acceptance criterion: a deliberately broken schedule — every rank
/// receives from its left neighbour *before* sending to its right — is
/// detected, and the report names the full wait cycle.
#[test]
fn broken_recv_first_ring_is_reported_with_cycle() {
    let p = 5;
    let result = check_schedule(p, Capacity::Unbounded, |c| {
        let left = (c.rank() + p - 1) % p;
        let right = (c.rank() + 1) % p;
        c.recv_with(left, |_| ());
        c.send_from(right, &[0.0; 4]);
    });
    match result {
        Err(CheckFailure::Deadlock(d)) => {
            assert!(d.is_cycle, "expected a proper cycle, got: {d}");
            assert_eq!(d.path.len(), p, "all {p} ranks participate: {d}");
            assert_eq!(d.blocked_ranks, p);
            assert!(d.path.iter().all(|e| e.kind == WaitKind::Recv));
            // The cycle closes: each edge waits on the next edge's rank.
            for w in d.path.windows(2) {
                assert_eq!(w[0].on, w[1].rank, "broken cycle order: {d}");
            }
            let (first, last) = (&d.path[0], &d.path[p - 1]);
            assert_eq!(last.on, first.rank);
            // And the rendering is the human-readable artifact the issue
            // asks for.
            let text = d.to_string();
            assert!(text.contains("cyclic wait"), "{text}");
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

/// The buffering assumption is load-bearing: under rendezvous semantics
/// (zero-capacity channels, i.e. unbuffered synchronous sends) the ring
/// allreduce's send-then-recv schedule deadlocks in a cycle of senders.
#[test]
fn ring_allreduce_deadlocks_under_rendezvous_semantics() {
    let result = check_schedule(4, Capacity::Bounded(0), |c| {
        let mut buf = vec![1.0; 8];
        ring_allreduce(c, &mut buf);
    });
    match result {
        Err(CheckFailure::Deadlock(d)) => {
            assert!(d.is_cycle);
            assert!(d.path.iter().all(|e| e.kind == WaitKind::Send), "{d}");
        }
        other => panic!("expected rendezvous deadlock, got {other:?}"),
    }
}

/// Collective-sequence divergence (one rank skips a phase) is a checker
/// violation even when communication happens to line up.
#[test]
fn divergent_collective_sequences_are_flagged() {
    let result = check_schedule(3, Capacity::Unbounded, |c| {
        c.mark("phase-a");
        dissemination_barrier(c);
        if c.rank() != 2 {
            c.mark("phase-b");
        }
    });
    match result {
        Err(CheckFailure::Violations(vs)) => {
            assert!(
                vs.iter().any(|v| matches!(
                    v,
                    msa_verify::Violation::MarkMismatch { rank: 2, .. }
                )),
                "wrong violations: {vs:?}"
            );
        }
        other => panic!("expected mark mismatch, got {other:?}"),
    }
}
