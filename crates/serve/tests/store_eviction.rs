//! LRU eviction of idle durable sessions: beyond the RAM cap the
//! least-recently-used idle session is dropped from memory and rehydrated
//! transparently — and bit-identically — on its next verb.  Borrowed
//! sessions are never evicted, in-memory stores never evict at all, and a
//! session whose lock was poisoned by a panicking connection thread stays
//! servable (regression for the `lock_recovering` + `restore` path).
//! Concurrent lookups of an evicted session share one rehydrated copy.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::thread;

use common::{drive_one, figure1_spec, fingerprint, TempDir};
use gdr_core::config::GdrConfig;
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy;
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};
use gdr_serve::journal::{team_digest, JournalConfig};
use gdr_serve::store::{
    DurabilityConfig, OpenSpec, Session, SessionOptions, SessionStore, StoreError,
};

fn durable_store(root: &TempDir, max_live: usize) -> SessionStore {
    let mut config = DurabilityConfig::new(root.path());
    config.max_live_sessions = max_live;
    SessionStore::durable(config).expect("durable store")
}

fn oracle() -> GroundTruthOracle {
    GroundTruthOracle::new(
        figure1_spec(Strategy::GdrNoLearning, true)
            .ground_truth
            .expect("truth"),
    )
}

/// One oracle-driven step through the store API; `false` once done.
fn drive_step(store: &SessionStore, id: &str, oracle: &GroundTruthOracle) -> bool {
    store
        .with_session(id, |s| Ok(drive_one(s, oracle)))
        .expect("drive step")
}

#[test]
fn idle_sessions_evict_at_the_cap_and_rehydrate_bit_identically() {
    let root = TempDir::new("evict-lru");
    let store = durable_store(&root, 2);
    let oracle = oracle();
    let ids = ["a", "b", "c", "d"];

    // Open four sessions and advance each a few steps; only two fit in RAM.
    for id in ids {
        drop(
            store
                .open(id, figure1_spec(Strategy::GdrNoLearning, true))
                .expect("open"),
        );
        for _ in 0..2 {
            assert!(drive_step(&store, id, &oracle));
        }
    }
    assert!(
        store.len() <= 2,
        "cap of 2 exceeded: {} sessions live",
        store.len()
    );

    // A twin that was never stored (never evicted, never rehydrated).
    let mut twin = SessionOptions::new()
        .open(figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    for _ in 0..2 {
        assert!(drive_one(&mut twin, &oracle));
    }
    while drive_one(&mut twin, &oracle) {}
    twin.finish().expect("finish twin");

    // Every session — the evicted ones rehydrating from disk on first
    // touch — continues to the exact same final state.
    for id in ids {
        while drive_step(&store, id, &oracle) {}
        store
            .with_session(id, |s| {
                s.finish()?;
                assert_eq!(
                    fingerprint(s.engine()),
                    fingerprint(twin.engine()),
                    "session {id} diverged after eviction/rehydration"
                );
                Ok(())
            })
            .expect("finish");
    }
}

#[test]
fn borrowed_sessions_are_never_evicted() {
    let root = TempDir::new("evict-borrow");
    let store = durable_store(&root, 1);

    // Hold `held`'s Arc across later opens: it is borrowed, so even as the
    // LRU victim it must stay resident.
    let held = store
        .open("held", figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open held");
    drop(
        store
            .open("b", figure1_spec(Strategy::GdrNoLearning, true))
            .expect("open b"),
    );
    drop(
        store
            .open("c", figure1_spec(Strategy::GdrNoLearning, true))
            .expect("open c"),
    );

    // Same allocation, not a rehydrated copy.
    let again = store.get("held").expect("get held");
    assert!(
        Arc::ptr_eq(&held, &again),
        "a borrowed session must not be evicted and rehydrated"
    );
    // The idle one was evicted to make room, but is still reachable.
    store.get("b").expect("evicted session must rehydrate");
}

#[test]
fn in_memory_stores_never_evict() {
    let store = SessionStore::new();
    for id in ["a", "b", "c", "d", "e"] {
        store
            .open(id, figure1_spec(Strategy::GdrNoLearning, true))
            .expect("open");
    }
    assert_eq!(store.len(), 5, "without durability RAM is all there is");
}

#[test]
fn remove_frees_both_ram_and_disk() {
    let root = TempDir::new("evict-remove");
    let store = durable_store(&root, 8);
    store
        .open("gone", figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    assert!(store.remove("gone"));
    assert!(matches!(
        store.get("gone"),
        Err(StoreError::UnknownSession(_))
    ));
    // The id is reusable: the on-disk claim was released too.
    store
        .open("gone", figure1_spec(Strategy::GdrNoLearning, true))
        .expect("re-open after remove");
}

/// Regression: a connection thread that panics while holding a session's
/// lock poisons it; every later request on that session must still be
/// served.  `lock_recovering` claims the poisoned lock, and `restore`
/// rebuilds a consistent engine from the journal in case the panic left the
/// engine mid-mutation.
#[test]
fn poisoned_session_lock_stays_servable() {
    let root = TempDir::new("evict-poison");
    let store = durable_store(&root, 8);
    let oracle = oracle();
    store
        .open("p", figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    assert!(drive_step(&store, "p", &oracle));

    // Panic while holding the session lock.
    let result = catch_unwind(AssertUnwindSafe(|| {
        store
            .with_session("p", |_| -> Result<(), gdr_core::error::GdrError> {
                panic!("connection thread died mid-request")
            })
            .ok();
    }));
    assert!(result.is_err(), "the panic must propagate to the caller");

    // The session still serves: restore a known-consistent engine from the
    // journal, then drive to completion.
    store
        .with_session("p", |s| s.restore().map(|_| ()))
        .expect("restore after poison");
    while drive_step(&store, "p", &oracle) {}
    store
        .with_session("p", |s| s.finish().map(|_| ()))
        .expect("finish after poison");
}

/// Regression: every caller that missed the map used to rehydrate its own
/// copy of an evicted session.  The second copy's `DiskJournal::load` could
/// delete the checkpoint temp file the first copy was about to rename, or
/// cut a record the first copy was appending; and a second copy inserted
/// after the first had served a verb and been evicted again missed that
/// verb.  Now one caller rehydrates under the shard's claim lock and the
/// rest find its copy.  Each round evicts the session, releases six
/// threads at one `get`, and one of them drives a verb, which compacts,
/// while the others may still be looking the session up.
#[test]
fn concurrent_gets_of_an_evicted_session_share_one_rehydrated_copy() {
    const THREADS: usize = 6;
    const ROUNDS: usize = 60;
    let data = generate_hospital_dataset(&HospitalConfig {
        tuples: 120,
        dirty_fraction: 0.4,
        seed: 11,
        extra_cities: 2,
    });
    let spec = || {
        let mut spec = OpenSpec::new(data.dirty.clone(), data.rules.clone());
        spec.strategy = Strategy::GdrNoLearning;
        spec.config = GdrConfig::fast();
        spec.ground_truth = Some(data.clean.clone());
        spec
    };
    let journal = JournalConfig {
        compact_every: 1,
        ..JournalConfig::default()
    };
    let root = TempDir::new("evict-race");
    let mut config = DurabilityConfig::new(root.path());
    config.max_live_sessions = 1;
    config.journal = journal;
    let store = SessionStore::durable(config).expect("durable store");
    let oracle = GroundTruthOracle::new(data.clean.clone());
    drop(store.open("target", spec()).expect("open target"));
    let barrier = Barrier::new(THREADS);
    let mut live = store
        .with_session("target", |s| Ok(fingerprint(s.engine())))
        .expect("fingerprint");

    for round in 0..ROUNDS {
        // Touching the other session over the cap of one evicts the target.
        match round {
            0 => drop(store.open("other", spec()).expect("open other")),
            _ => drop(store.get("other").expect("get other")),
        }
        assert_eq!(store.len(), 1, "round {round}: the target stayed live");
        let handles: Vec<_> = thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (store, barrier, oracle, live) = (&store, &barrier, &oracle, &live);
                    scope.spawn(move || {
                        barrier.wait();
                        let session = store.get("target").expect("get target");
                        if thread == 0 {
                            let mut guard = session.lock().expect("session lock");
                            assert_eq!(
                                fingerprint(guard.engine()),
                                *live,
                                "round {round}: the rehydrated copy diverged"
                            );
                            if !drive_one(&mut guard, oracle) {
                                guard.finish().expect("finish");
                            }
                        }
                        session
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("worker"))
                .collect()
        });
        for handle in &handles[1..] {
            assert!(
                Arc::ptr_eq(&handles[0], handle),
                "round {round}: two copies of one session were handed out"
            );
        }
        live = fingerprint(handles[0].lock().expect("session lock").engine());
    }

    let (digest, dir) = store
        .with_session("target", |s| {
            assert_eq!(fingerprint(s.engine()), live);
            Ok((
                team_digest(s.team()),
                s.disk_dir().expect("dir").to_path_buf(),
            ))
        })
        .expect("inspect");
    drop(store);
    let (cold, recovery) = Session::rehydrate(&dir, journal).expect("cold rehydrate");
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(fingerprint(cold.engine()), live);
    assert_eq!(team_digest(cold.team()), digest);
}
