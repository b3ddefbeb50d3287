//! Criterion benches for the shared-memory channel (Figure 4's
//! building block): the full ping-pong iteration and the real-memory
//! ring across threads. podbench's probes time the simulated send/poll
//! round trip.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use shmem::pingpong::{run as pingpong, PingPongConfig};
use shmem::real::RealRing;

fn bench_pingpong(c: &mut Criterion) {
    // One full Figure-4 measurement at a small iteration count: tracks
    // the simulator's own cost per sample.
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    group.bench_function("pingpong_1k_samples", |b| {
        b.iter(|| {
            let r = pingpong(&PingPongConfig {
                iterations: 1_000,
                ..PingPongConfig::default()
            })
            .expect("pingpong");
            criterion::black_box(r.latency.quantile(0.5))
        });
    });
    group.finish();
}

fn bench_real_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("real_ring");
    group.throughput(Throughput::Elements(1));
    group.bench_function("try_send_try_recv", |b| {
        let ring = RealRing::with_capacity(256);
        let (mut tx, mut rx) = ring.split();
        b.iter(|| {
            tx.try_send(b"x").expect("send");
            criterion::black_box(rx.try_recv().expect("recv"));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pingpong, bench_real_ring);
criterion_main!(benches);
