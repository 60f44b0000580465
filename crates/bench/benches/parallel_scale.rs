//! Criterion bench: the two O(table) construction paths — violation-engine
//! build and initial possible-update generation — on scaled hospital
//! datasets (8k / 100k / 1M rows).
//!
//! Construction is sequential; the `t1` suffix keeps the ids of earlier
//! baselines comparable.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdr_cfd::ViolationEngine;
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};
use gdr_repair::RepairState;

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
        group.bench_with_input(
            BenchmarkId::new("build_engine", format!("{tuples}/t1")),
            &tuples,
            |b, _| {
                // The engine is returned, so the shim drops it after the
                // clock stops.
                b.iter_batched(|| (), |()| ViolationEngine::build(&data.dirty, &data.rules))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("initial_possible_updates", format!("{tuples}/t1")),
            &tuples,
            |b, _| {
                // Times the full construction: engine build, index-pool
                // build, dirty scan, and the initial-update walk.  The state
                // is returned, so its drop falls after the clock stops.
                b.iter_batched(
                    || data.dirty.clone(),
                    |dirty| RepairState::new(dirty, &data.rules),
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scale);
criterion_main!(benches);
