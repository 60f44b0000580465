//! Fixed-seed scale smoke test: the 100 000-row hospital dataset must
//! generate deterministically within a wall-clock budget, and the violation
//! engine must find violations in it.  Debug builds run a bounded 10 000-row variant so `cargo test` stays
//! fast; the release profile (the tier-1 `--release` build and CI) covers
//! the full 100k.

use std::time::Instant;

use gdr_cfd::ViolationEngine;
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};

const SEED: u64 = 77;

fn smoke_tuples() -> usize {
    if cfg!(debug_assertions) {
        10_000
    } else {
        100_000
    }
}

#[test]
fn fixed_seed_scale_generation_smoke() {
    let tuples = smoke_tuples();
    let config = HospitalConfig {
        seed: SEED,
        ..HospitalConfig::at_scale(tuples)
    };

    let start = Instant::now();
    let data = generate_hospital_dataset(&config);
    let generation = start.elapsed();

    assert_eq!(data.dirty.len(), tuples);
    assert_eq!(data.clean.len(), tuples);
    // Every listed corrupted cell differs from the ground truth, and no
    // unlisted cell does.
    let mut diff = data.dirty.diff_cells(&data.clean).unwrap();
    diff.sort_unstable();
    let mut listed = data.corrupted_cells.clone();
    listed.sort_unstable();
    listed.dedup();
    assert_eq!(diff, listed);
    let fraction = data.dirty_tuple_fraction();
    assert!(
        fraction > 0.2 && fraction < 0.35,
        "error rate drifted: {fraction}"
    );
    // The scaled domain must actually be in play (each extra synthetic city
    // contributes five rules beyond the base locality table's).
    assert!(
        config.extra_cities >= 2,
        "at_scale produced no extra cities"
    );
    assert!(
        data.rules.len() >= config.extra_cities * 5 + 10,
        "scaled config produced only {} rules for {} extra cities",
        data.rules.len(),
        config.extra_cities
    );

    // Same seed, same bytes.
    let twin = generate_hospital_dataset(&config);
    assert_eq!(data.dirty, twin.dirty);
    assert_eq!(data.corrupted_cells, twin.corrupted_cells);

    let engine = ViolationEngine::build(&data.dirty, &data.rules);
    assert!(engine.total_violations() > 0);

    // Time cap: generous enough for slow CI machines, tight enough to catch
    // an accidental quadratic regression (which would take minutes at 100k).
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs() < 90,
        "scale smoke exceeded its time cap: generation {generation:?}, total {elapsed:?}"
    );
}
