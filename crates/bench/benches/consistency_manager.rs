//! Criterion bench: cost of applying one confirmed repair through the
//! consistency manager (Appendix A.5), including suggestion regeneration.
//!
//! Each iteration runs on a fresh clone of the state.  `iter_batched` keeps
//! the clone out of the timing, and the routine returns the state so its
//! drop stays out too: the figure is the consistency manager's own cost per
//! answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdr_bench::{generate, DatasetId};
use gdr_repair::{Feedback, RepairState};

fn bench_consistency_manager(c: &mut Criterion) {
    let mut group = c.benchmark_group("consistency_manager");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &tuples in &[500usize, 2_000] {
        let data = generate(DatasetId::Dataset1, tuples, 4);
        let state = RepairState::new(data.dirty.clone(), &data.rules);
        let updates = state.possible_updates_sorted();
        group.bench_with_input(
            BenchmarkId::new("confirm_one_update", tuples),
            &tuples,
            |b, _| {
                b.iter_batched(
                    || state.clone(),
                    |mut state| {
                        state
                            .apply_feedback(&updates[0], Feedback::Confirm)
                            .unwrap();
                        state
                    },
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reject_one_update", tuples),
            &tuples,
            |b, _| {
                b.iter_batched(
                    || state.clone(),
                    |mut state| {
                        state.apply_feedback(&updates[0], Feedback::Reject).unwrap();
                        state
                    },
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_consistency_manager);
criterion_main!(benches);
