//! E8 micro-bench: real ring vs recursive-doubling allreduce over thread
//! communicators, and the analytic α–β predictions they calibrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msa_net::{collectives, Communicator, PointToPoint, ThreadComm};

fn real_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("real_allreduce");
    group.sample_size(10);
    for &ranks in &[2usize, 4, 8] {
        for &len in &[1_024usize, 65_536] {
            group.bench_with_input(
                BenchmarkId::new(format!("ring_p{ranks}"), len),
                &len,
                |b, &len| {
                    b.iter(|| {
                        ThreadComm::run(ranks, |comm| {
                            let mut buf = vec![comm.rank() as f32; len];
                            comm.allreduce_sum(&mut buf);
                            buf[0]
                        })
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("recdoubling_p{ranks}"), len),
                &len,
                |b, &len| {
                    b.iter(|| {
                        ThreadComm::run(ranks, |comm| {
                            let mut buf = vec![comm.rank() as f32; len];
                            let arena = &mut msa_net::Arena::new();
                            collectives::recursive_doubling_allreduce(comm, &mut buf, arena);
                            buf[0]
                        })
                    });
                },
            );
        }
    }
    group.finish();
}

fn broadcast_and_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("broadcast_barrier");
    group.sample_size(10);
    for &ranks in &[4usize, 8] {
        group.bench_with_input(
            BenchmarkId::new("broadcast_64k", ranks),
            &ranks,
            |b, &ranks| {
                b.iter(|| {
                    ThreadComm::run(ranks, |comm| {
                        let mut buf = if comm.rank() == 0 {
                            vec![1.0f32; 65_536]
                        } else {
                            Vec::new()
                        };
                        comm.broadcast(&mut buf, 0);
                        buf.len()
                    })
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("barrier", ranks), &ranks, |b, &ranks| {
            b.iter(|| {
                ThreadComm::run(ranks, |comm| {
                    for _ in 0..10 {
                        comm.barrier();
                    }
                })
            });
        });
    }
    group.finish();
}

fn hierarchical(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchical_allreduce");
    group.sample_size(10);
    for &(ranks, per_node) in &[(8usize, 2usize), (8, 4)] {
        group.bench_with_input(
            BenchmarkId::new(format!("p{ranks}_k{per_node}"), 65_536),
            &per_node,
            |b, &k| {
                b.iter(|| {
                    ThreadComm::run(ranks, |comm| {
                        let mut buf = vec![comm.rank() as f32; 65_536];
                        let arena = &mut msa_net::Arena::new();
                        msa_net::hierarchical_allreduce(comm, &mut buf, k, arena);
                        buf[0]
                    })
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, real_allreduce, broadcast_and_barrier, hierarchical);
criterion_main!(benches);
