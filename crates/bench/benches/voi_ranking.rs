//! Criterion bench: VOI group ranking (Eq. 6) for the interactive loop.
//!
//! * `rank_all_groups` — the from-scratch cost of one full ranking (every
//!   group, every member, one what-if per member), i.e. the cold start.
//! * `rerank_from_scratch` — what the pre-incremental loop paid after every
//!   user answer: regroup the whole candidate pool and recompute every
//!   benefit.
//! * `rerank_incremental` — the same re-rank through the persistent
//!   `GroupIndex` + `BenefitCache`: only the groups invalidated by the
//!   answer are rescored, and only their members' what-if terms recomputed.
//!
//! The incremental iteration replays the answer's damage every time (the
//! dirty marks and the affected cache entries are restored before each
//! rescore), so it measures the steady-state per-answer work, not a pure
//! cache hit.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdr_bench::{generate, DatasetId};
use gdr_core::{group_benefit, group_updates, VoiRanker};
use gdr_repair::{Feedback, RepairState};

fn rank_all_from_scratch(state: &mut RepairState) -> f64 {
    let updates = state.possible_updates_sorted();
    let groups = group_updates(&updates);
    let mut best = f64::MIN;
    for group in &groups {
        let probs: Vec<f64> = group.updates.iter().map(|u| u.score).collect();
        let benefit = group_benefit(state, group, &probs).unwrap();
        best = best.max(benefit);
    }
    best
}

fn bench_voi_ranking(c: &mut Criterion) {
    let mut group = c.benchmark_group("voi_ranking");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &tuples in &[500usize, 2_000, 8_000] {
        let data = generate(DatasetId::Dataset1, tuples, 3);
        let mut state = RepairState::new(data.dirty.clone(), &data.rules);

        // Cold start: one full from-scratch ranking.
        group.bench_with_input(
            BenchmarkId::new("rank_all_groups", tuples),
            &tuples,
            |b, _| b.iter(|| std::hint::black_box(rank_all_from_scratch(&mut state))),
        );

        // Warm the incremental ranker, then apply ONE user answer (confirm
        // the best group's first member) and capture the damage it causes:
        // the groups that must be rescored and the what-if memos the answer
        // actually invalidated.
        let mut ranker = VoiRanker::new();
        ranker.sync(&mut state);
        ranker.rescore_benefits(&mut state, |_, u| u.score).unwrap();
        let answer = ranker.best_group().expect("groups exist").0.updates[0].clone();
        state.apply_feedback(&answer, Feedback::Confirm).unwrap();
        state.refresh_updates();
        ranker.sync(&mut state);
        let dirty_keys = ranker.dirty_keys();
        let damage = ranker.damage_snapshot(&state);

        // The old loop's per-answer cost: regroup + rescore everything.
        group.bench_with_input(
            BenchmarkId::new("rerank_from_scratch", tuples),
            &tuples,
            |b, _| b.iter(|| std::hint::black_box(rank_all_from_scratch(&mut state))),
        );

        // The incremental per-answer cost: re-inflict the answer's damage
        // (stale marks + evicted what-if memos), rescore only that.
        group.bench_with_input(
            BenchmarkId::new("rerank_incremental", tuples),
            &tuples,
            |b, _| {
                b.iter(|| {
                    ranker.restore_damage(&damage);
                    ranker.mark_groups_dirty(&dirty_keys);
                    ranker.rescore_benefits(&mut state, |_, u| u.score).unwrap();
                    std::hint::black_box(ranker.max_benefit())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_voi_ranking);
criterion_main!(benches);
