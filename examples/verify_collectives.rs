//! Model-check the collective schedules from the command line: verifies
//! a composed training step and the sharded dense step at a few rank
//! counts, then shows what a deadlock report looks like for a
//! deliberately broken schedule.

use msa_suite::msa_net::collectives::{
    binomial_broadcast, dissemination_barrier, pipeline_reduce_scatter_mean,
    ring_allreduce, shard_gather,
};
use msa_suite::msa_net::PointToPoint;
use msa_verify::{check_schedule, Capacity, CheckFailure};
use std::ops::Range;

fn main() {
    println!("== verifying barrier -> allreduce -> broadcast under single-slot buffering ==");
    for p in [2usize, 7, 16, 96] {
        let report = check_schedule(p, Capacity::Bounded(1), |c| {
            c.mark("barrier");
            dissemination_barrier(c);
            c.mark("allreduce");
            let mut grad = vec![0.5; 13];
            ring_allreduce(c, &mut grad);
            c.mark("broadcast");
            let mut params = vec![1.0; 13];
            binomial_broadcast(c, &mut params, 0);
        })
        .unwrap_or_else(|e| panic!("p={p}: {e}"));
        println!(
            "p={p:>3}: ok — {} messages, {} floats, peak queue depth {}, phases {:?}",
            report.messages, report.floats, report.peak_queue_depth, report.marks
        );
    }

    println!("\n== the sharded dense step: reduce-scatter -> parameter allgather -> moment gather ==");
    for p in [2usize, 3, 8] {
        let report = check_schedule(p, Capacity::Bounded(1), |c| {
            c.mark("reduce-scatter");
            let mut flat = vec![0.5; 13];
            for r in [7..13, 0..7] {
                let at = r.start;
                pipeline_reduce_scatter_mean(c, &mut flat[r], at, 13);
            }
            c.mark("allgather");
            let write = |b: &mut Vec<f32>, r: Range<usize>, msg: &[f32]| b[r].copy_from_slice(msg);
            let read = |b: &Vec<f32>, r: Range<usize>, msg: &mut [f32]| msg.copy_from_slice(&b[r]);
            shard_gather(c, None, 13, &mut flat, read, write);
            c.mark("gather");
            let mut state = vec![0.0; 13];
            let moments = |_: &Vec<f32>, r, msg: &mut [f32]| read(&flat, r, msg);
            shard_gather(c, Some(0), 13, &mut state, moments, write);
        })
        .unwrap_or_else(|e| panic!("p={p}: {e}"));
        println!(
            "p={p:>3}: ok — {} messages, {} floats, peak queue depth {}, phases {:?}",
            report.messages, report.floats, report.peak_queue_depth, report.marks
        );
    }

    println!("\n== a broken schedule: every rank receives before it sends ==");
    let p = 5;
    match check_schedule(p, Capacity::Unbounded, |c| {
        let left = (c.rank() + p - 1) % p;
        let right = (c.rank() + 1) % p;
        c.recv_with(left, |_| ());
        c.send_from(right, &[0.0; 4]);
    }) {
        Err(CheckFailure::Deadlock(d)) => println!("caught: {d}"),
        other => panic!("expected a deadlock report, got {other:?}"),
    }

    println!("\n== the same ring allreduce deadlocks under rendezvous (unbuffered) sends ==");
    match check_schedule(4, Capacity::Bounded(0), |c| {
        let mut buf = vec![1.0; 8];
        ring_allreduce(c, &mut buf);
    }) {
        Err(CheckFailure::Deadlock(d)) => println!("caught: {d}"),
        other => panic!("expected a deadlock report, got {other:?}"),
    }
}
