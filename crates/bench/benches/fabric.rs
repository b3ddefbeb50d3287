//! Criterion benches for the CXL fabric model (§3 calibration): the
//! local-DRAM load and interleaved bulk DMA. podbench's probes time the
//! pool load miss and the NT store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cxl_fabric::{Fabric, HostId, PodConfig};
use simkit::Nanos;

fn bench_line_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric_line_ops");
    group.throughput(Throughput::Elements(1));

    group.bench_function("local_load_64B", |b| {
        let mut f = Fabric::new(PodConfig::new(2, 2, 2));
        let mut buf = [0u8; 64];
        let mut t = Nanos(0);
        b.iter(|| {
            t = f.local_load(t, HostId(0), 0x1000, &mut buf);
        });
    });
    group.finish();
}

fn bench_bulk_dma(c: &mut Criterion) {
    let mut group = c.benchmark_group("fabric_bulk_dma");
    group.sample_size(20);
    for ways in [1u16, 2, 4, 8] {
        group.throughput(Throughput::Bytes(1 << 20));
        group.bench_with_input(BenchmarkId::new("dma_write_1MiB", ways), &ways, |b, &w| {
            let mut f = Fabric::new(PodConfig::new(1, w, w));
            let seg = f
                .alloc_interleaved(&[HostId(0)], 4 << 20, w as usize)
                .expect("alloc");
            let data = vec![0xA5u8; 1 << 20];
            b.iter(|| {
                criterion::black_box(
                    f.dma_write(Nanos::ZERO, HostId(0), seg.base(), &data)
                        .expect("dma"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_line_ops, bench_bulk_dma);
criterion_main!(benches);
