//! LRU eviction of idle durable sessions: beyond the RAM cap the
//! least-recently-used idle session is dropped from memory and rehydrated
//! transparently — and bit-identically — on its next verb.  Borrowed
//! sessions are never evicted, in-memory stores never evict at all, and a
//! session whose lock was poisoned by a panicking connection thread stays
//! servable (regression for the `lock_recovering` + `restore` path).
//! Concurrent lookups of an evicted session share one rehydrated copy.  A
//! compaction in flight (prepared, then run with the session unlocked)
//! that meets an explicit `compact`, a `restore` or a `remove` is dropped
//! as stale, keeps its session from eviction meanwhile, and never writes
//! into a removed session's directory.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread;

use common::{drive_one, figure1_spec, fingerprint, TempDir};
use gdr_core::config::GdrConfig;
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy;
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};
use gdr_serve::journal::{team_digest, DiskJournal, FsyncPolicy, JournalConfig};
use gdr_serve::store::{
    Compaction, DurabilityConfig, OpenSpec, Session, SessionJournal, SessionOptions, SessionStore,
    StoreError,
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

// ---- compactions in flight ------------------------------------------------

/// Auto-compaction cadence of the in-flight tests: the Figure-1 session
/// has only a handful of steps.
const EVERY: usize = 2;

fn compacting_store(root: &TempDir, max_live: usize) -> SessionStore {
    let mut config = DurabilityConfig::new(root.path());
    config.max_live_sessions = max_live;
    config.journal = JournalConfig {
        fsync: FsyncPolicy::Never,
        compact_every: EVERY,
    };
    SessionStore::durable(config).expect("durable store")
}

/// Opens `id` and drives it until a verb leaves a compaction due, which is
/// handed back prepared and unrun, as the threaded server holds it between
/// the reply and the run.
fn compaction_in_flight(store: &SessionStore, id: &str, oracle: &GroundTruthOracle) -> Compaction {
    drop(
        store
            .open(id, figure1_spec(Strategy::GdrNoLearning, true))
            .expect("open"),
    );
    loop {
        let (more, due) = store
            .with_session_deferred(id, |s| Ok(drive_one(s, oracle)))
            .expect("step");
        if let Some(compaction) = due {
            return compaction;
        }
        assert!(more, "the session ended before a compaction fell due");
    }
}

fn session_dir(store: &SessionStore, id: &str) -> std::path::PathBuf {
    store
        .with_session(id, |s| Ok(s.disk_dir().expect("durable").to_path_buf()))
        .expect("dir")
}

/// `team_digest` of the journal in `dir` replayed from its spec, with no
/// checkpoint: the session's serial replay.
fn serial_replay_digest(dir: &Path) -> u64 {
    let loaded = DiskJournal::load(dir).expect("load");
    let team = SessionJournal::from_events(loaded.spec, loaded.events)
        .replay()
        .expect("serial replay");
    team_digest(&team)
}

/// The live session's digest equals its serial replay, and so does a cold
/// rehydrate's, whose recovery finds every checkpoint usable.
fn assert_serial(store: &SessionStore, id: &str) {
    let (live, dir) = store
        .with_session(id, |s| {
            Ok((
                team_digest(s.team()),
                s.disk_dir().expect("dir").to_path_buf(),
            ))
        })
        .expect("inspect");
    assert_eq!(
        live,
        serial_replay_digest(&dir),
        "{id}: live != serial replay"
    );
    let (cold, recovery) = Session::rehydrate(&dir, JournalConfig::default()).expect("rehydrate");
    assert!(recovery.clean(), "{id}: {recovery:?}");
    assert_eq!(
        team_digest(cold.team()),
        live,
        "{id}: cold rehydrate diverged"
    );
}

/// Snapshot and tail sizes of `id`'s journal.
fn journal_shape(store: &SessionStore, id: &str) -> (usize, usize) {
    store
        .with_session(id, |s| {
            let journal = s.journal();
            Ok((journal.snapshot_events(), journal.transcript().len()))
        })
        .expect("journal")
}

#[test]
fn compaction_in_flight_meets_an_explicit_compact() {
    let root = TempDir::new("inflight-compact");
    let store = compacting_store(&root, 8);
    let oracle = oracle();

    let stale = compaction_in_flight(&store, "s", &oracle);
    let stats = store.with_session("s", |s| s.compact()).expect("compact");
    assert_eq!((stats.events, stats.dropped), (EVERY, EVERY));
    assert!(store
        .with_session("s", |s| Ok(drive_one(s, &oracle)))
        .expect("step"));
    assert_eq!(stale.run().expect("run"), None, "a stale job installed");
    assert_eq!(journal_shape(&store, "s"), (EVERY, 1));
    assert_serial(&store, "s");

    // Racing: the job runs on another thread while the verb compacts.
    for round in 0..8 {
        let id = format!("race-{round}");
        let compaction = compaction_in_flight(&store, &id, &oracle);
        thread::scope(|scope| {
            let runner = scope.spawn(move || compaction.run().expect("run"));
            store.with_session(&id, |s| s.compact()).expect("compact");
            runner.join().expect("runner");
        });
        assert_eq!(journal_shape(&store, &id), (EVERY, 0), "{id}");
        assert_serial(&store, &id);
    }
}

#[test]
fn compaction_in_flight_meets_a_restore() {
    let root = TempDir::new("inflight-restore");
    let store = compacting_store(&root, 8);
    let oracle = oracle();

    let stale = compaction_in_flight(&store, "s", &oracle);
    store.with_session("s", |s| s.restore()).expect("restore");
    assert_eq!(stale.run().expect("run"), None, "a stale job installed");
    assert_eq!(journal_shape(&store, "s"), (0, EVERY));
    assert_serial(&store, "s");

    // The slot is free again: the next event compacts everything.
    assert!(store
        .with_session("s", |s| Ok(drive_one(s, &oracle)))
        .expect("step"));
    assert_eq!(journal_shape(&store, "s"), (EVERY + 1, 0));
    assert_serial(&store, "s");
}

/// Eviction cannot make a job stale: the job holds the session's `Arc`, so
/// the store never evicts a session with a compaction in flight.  Once the
/// job has installed, the session evicts, and its rehydrated copy (a new
/// session under a new epoch) starts from the job's checkpoint.
#[test]
fn compaction_in_flight_meets_eviction_and_rehydration() {
    let root = TempDir::new("inflight-evict");
    let store = compacting_store(&root, 1);
    let oracle = oracle();

    let compaction = compaction_in_flight(&store, "s", &oracle);
    let live = Arc::downgrade(&store.get("s").expect("get"));
    for id in ["o", "p"] {
        drop(
            store
                .open(id, figure1_spec(Strategy::GdrNoLearning, true))
                .expect("open"),
        );
    }
    let again = store.get("s").expect("get");
    assert!(
        Arc::ptr_eq(&live.upgrade().expect("alive"), &again),
        "a session with a compaction in flight was evicted"
    );
    drop(again);
    let stats = compaction.run().expect("run").expect("installed");
    assert_eq!(stats.events, EVERY);

    drop(store.get("o").expect("get o"));
    assert!(live.upgrade().is_none(), "the idle session was not evicted");
    assert_eq!(
        journal_shape(&store, "s"),
        (EVERY, 0),
        "rehydrated past the checkpoint"
    );
    assert_serial(&store, "s");
}

#[test]
fn compaction_in_flight_meets_a_remove() {
    let root = TempDir::new("inflight-remove");
    let store = compacting_store(&root, 8);
    let oracle = oracle();

    let stale = compaction_in_flight(&store, "s", &oracle);
    let dir = session_dir(&store, "s");
    assert!(store.remove("s"));
    assert_eq!(stale.run().expect("run"), None, "a stale job installed");
    assert!(!dir.exists(), "the job recreated a removed directory");

    // The id is reused at once, and the old job's checkpoint never lands
    // in the new session's directory.
    let stale = compaction_in_flight(&store, "s", &oracle);
    assert!(store.remove("s"));
    drop(
        store
            .open("s", figure1_spec(Strategy::GdrNoLearning, true))
            .expect("re-open"),
    );
    assert_eq!(stale.run().expect("run"), None);
    assert_eq!(journal_shape(&store, "s"), (0, 0));
    assert!(
        !std::fs::read_dir(&dir).expect("dir").any(|entry| entry
            .expect("entry")
            .file_name()
            .to_string_lossy()
            .starts_with("snap-")),
        "a removed session's checkpoint landed in its successor's directory"
    );
    assert_serial(&store, "s");

    // Racing: the job runs on another thread while the session is removed.
    for round in 0..8 {
        let id = format!("race-{round}");
        let compaction = compaction_in_flight(&store, &id, &oracle);
        let dir = session_dir(&store, &id);
        thread::scope(|scope| {
            let runner = scope.spawn(move || compaction.run().expect("run"));
            assert!(store.remove(&id));
            runner.join().expect("runner");
        });
        assert!(!dir.exists(), "{id}: the job recreated a removed directory");
    }
}
