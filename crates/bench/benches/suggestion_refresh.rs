//! Criterion bench: the per-answer suggestion refresh of the GDR loop
//! (step 9 of Procedure 1).
//!
//! `refresh_after_answer` measures exactly what the interactive session pays
//! after one user confirmation: `RepairState::refresh_updates()` on a state
//! that just absorbed the answer.  Each iteration runs on a fresh clone of
//! the post-answer state (`iter_batched` keeps the clone out of the timing),
//! so the measurement is the steady-state per-answer refresh cost.
//!
//! `refresh_full_walk` runs the retained dirty-world-walk oracle
//! (`refresh_updates_full`) on the same state — the in-suite view of what
//! the write-driven path saves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdr_bench::{generate, DatasetId};
use gdr_repair::{Feedback, RepairState};

fn bench_suggestion_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("suggestion_refresh");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &tuples in &[500usize, 2_000, 8_000] {
        let data = generate(DatasetId::Dataset1, tuples, 7);
        let mut state = RepairState::new(data.dirty.clone(), &data.rules);
        // Reach the steady state the session sees: one refresh after the
        // initial generation, then one confirmed user answer.
        state.refresh_updates();
        let answer = state
            .possible_updates_sorted()
            .into_iter()
            .next()
            .expect("dirty dataset has pending updates");
        state.apply_feedback(&answer, Feedback::Confirm).unwrap();

        group.bench_with_input(
            BenchmarkId::new("refresh_after_answer", tuples),
            &tuples,
            |b, _| {
                b.iter_batched(
                    || state.clone(),
                    |mut s| {
                        s.refresh_updates();
                        s.pending_count()
                    },
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("refresh_full_walk", tuples),
            &tuples,
            |b, _| {
                b.iter_batched(
                    || state.clone(),
                    |mut s| {
                        s.refresh_updates_full();
                        s.pending_count()
                    },
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_suggestion_refresh);
criterion_main!(benches);
