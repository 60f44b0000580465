//! Criterion bench: thread-pool scaling of the two O(table) hot paths —
//! sharded violation-engine construction and initial possible-update
//! generation — on scaled hospital datasets (8k / 100k / 1M rows, worker
//! counts 1/2/4/8).
//!
//! `t1` runs the sequential code path (the pool inlines single-worker work),
//! so `tN / t1` per size is the measured speedup.  On a single-CPU container
//! the threaded variants can only show overhead, not speedup; the suite
//! exists so the same ids become meaningful on multi-core hardware, and so
//! regressions in the sequential path (`t1`) are gated either way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdr_cfd::ViolationEngine;
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};
use gdr_relation::ThreadPool;
use gdr_repair::RepairState;

const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Per-size measurement budget: (sample_size, measurement_time, warm_up).
fn budget(tuples: usize) -> (usize, std::time::Duration, std::time::Duration) {
    use std::time::Duration;
    match tuples {
        0..=10_000 => (10, Duration::from_secs(2), Duration::from_millis(500)),
        10_001..=200_000 => (5, Duration::from_secs(2), Duration::from_millis(100)),
        // At 1M one iteration costs seconds; the calibration loop still runs
        // one full warm-up iteration, so keep both budgets minimal.
        _ => (2, Duration::from_secs(1), Duration::from_millis(1)),
    }
}

fn bench_parallel_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scale");
    for &tuples in &[8_000usize, 100_000, 1_000_000] {
        let (samples, measurement, warm_up) = budget(tuples);
        group.sample_size(samples);
        group.measurement_time(measurement);
        group.warm_up_time(warm_up);

        let data = generate_hospital_dataset(&HospitalConfig::at_scale(tuples));
        for &threads in THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            group.bench_with_input(
                BenchmarkId::new("build_engine", format!("{tuples}/t{threads}")),
                &tuples,
                |b, _| {
                    b.iter(|| {
                        let engine =
                            ViolationEngine::build_with_pool(&data.dirty, &data.rules, &pool);
                        std::hint::black_box(engine.total_violations())
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("initial_possible_updates", format!("{tuples}/t{threads}")),
                &tuples,
                |b, _| {
                    // Times the full construction: sharded engine build,
                    // index-pool build, dirty scan, and the
                    // partitioned initial-update walk.
                    b.iter_batched(
                        || data.dirty.clone(),
                        |dirty| {
                            let state = RepairState::with_parallelism(dirty, &data.rules, pool);
                            std::hint::black_box(state.pending_count())
                        },
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scale);
criterion_main!(benches);
