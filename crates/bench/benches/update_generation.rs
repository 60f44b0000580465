//! Criterion bench: candidate-update generation (Algorithm 1) for all dirty
//! tuples of the hospital dataset.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdr_bench::{generate, DatasetId};
use gdr_repair::RepairState;

fn bench_update_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_generation");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &tuples in &[500usize, 2_000] {
        let data = generate(DatasetId::Dataset1, tuples, 2);
        group.bench_with_input(
            BenchmarkId::new("initial_possible_updates", tuples),
            &tuples,
            |b, _| {
                // The table clone is setup, and the built state is returned
                // so the shim drops it after the clock stops.
                b.iter_batched(
                    || data.dirty.clone(),
                    |dirty| RepairState::new(dirty, &data.rules),
                )
            },
        );
        let state = RepairState::new(data.dirty.clone(), &data.rules);
        let dirty = state.dirty_tuples();
        group.bench_with_input(
            BenchmarkId::new("regenerate_one_tuple", tuples),
            &tuples,
            |b, _| {
                // The clone is setup, not regeneration, and so is dropping
                // it: the routine returns the state, and iter_batched keeps
                // both out of the timed region.
                b.iter_batched(
                    || state.clone(),
                    |mut state| {
                        state.generate_updates_for_tuple(dirty[0]);
                        state
                    },
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_update_generation);
criterion_main!(benches);
