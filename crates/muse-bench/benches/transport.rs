//! Inter-node transport benchmark: the threaded executor's batched,
//! backpressured data plane on the shared relay stress workload (same
//! workload as `harness -- executor`, which writes `BENCH_executor.json`).
//! Throughput is reported per injected event; every iteration must produce
//! the simulator's number of sink matches, so a divergence fails the bench
//! rather than skewing it.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use muse_bench::transport_stress::{stress_deployment, stress_network, stress_trace};
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_runtime::threaded::{run_threaded, ThreadedConfig};
use std::hint::black_box;

/// Chunking mirrors `harness -- executor`: enlarged chunks keep barrier
/// rounds off the measured path, and the eviction slack covers them
/// (`slack * window > chunk`, or late frames lose matches).
const CHUNK_TICKS: muse_core::event::Timestamp = 10 * muse_bench::transport_stress::WINDOW;
const SLACK: f64 = 12.0;

fn transport_throughput(c: &mut Criterion) {
    let network = stress_network();
    let deployment = stress_deployment(&network);
    let events = stress_trace(&network, 40.0, 42);
    let expected: usize = run_simulation(&deployment, &events, &SimConfig::default())
        .matches
        .iter()
        .map(Vec::len)
        .sum();
    let config = ThreadedConfig {
        slack: SLACK,
        chunk_ticks: Some(CHUNK_TICKS),
        ..ThreadedConfig::default()
    };

    let mut group = c.benchmark_group("transport");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(10));
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("transport_batched", |b| {
        b.iter(|| {
            let report = run_threaded(&deployment, black_box(&events), &config);
            let matches: usize = report.matches.iter().map(Vec::len).sum();
            assert_eq!(
                matches, expected,
                "threaded run diverged from the simulator"
            );
            black_box(matches)
        })
    });
    group.finish();
}

criterion_group!(benches, transport_throughput);
criterion_main!(benches);
