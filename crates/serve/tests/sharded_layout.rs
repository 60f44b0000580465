//! Journal-root sharding: durable sessions live under
//! `<root>/<2-hex-hash-prefix>/<escaped-id>/` so huge stores never pile
//! thousands of directories into one listing, and a journal found there is
//! *the* session under its id: it is rehydrated, duplicate-checked, and
//! removed in place.

mod common;

use common::{figure1_spec, TempDir};
use gdr_core::strategy::Strategy;
use gdr_serve::journal::{session_dir_name, session_shard, DiskJournal};
use gdr_serve::store::{DurabilityConfig, SessionStore, StoreError};

fn durable_store(root: &TempDir) -> SessionStore {
    SessionStore::durable(DurabilityConfig::new(root.path())).expect("durable store")
}

#[test]
fn new_sessions_land_in_their_hash_shard() {
    let root = TempDir::new("shard-new");
    let store = durable_store(&root);
    let ids = ["alpha", "beta", "weird id/with: stuff", "Δ-unicode"];
    for id in ids {
        drop(
            store
                .open(id, figure1_spec(Strategy::GdrNoLearning, true))
                .expect("open"),
        );
        let expected = root
            .path()
            .join(session_shard(id))
            .join(session_dir_name(id));
        assert!(
            DiskJournal::exists(&expected),
            "{id}: no journal at {}",
            expected.display()
        );
        store
            .with_session(id, |s| {
                assert_eq!(s.disk_dir(), Some(expected.as_path()));
                Ok(())
            })
            .expect("inspect");
        // The shard prefix really is two lowercase hex digits.
        let shard = session_shard(id);
        assert_eq!(shard.len(), 2, "{id}: shard {shard}");
        assert!(shard.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
    }
    // Sharding is deterministic: a second store over the same root finds
    // every session again.
    drop(store);
    let reopened = durable_store(&root);
    for id in ids {
        assert!(reopened.get(id).is_ok(), "{id} lost after reopen");
    }
}

#[test]
fn sharded_and_flat_duplicate_checks_cover_both_layouts() {
    let root = TempDir::new("shard-dup");

    // A sharded journal left by a previous store instance (nothing in RAM).
    {
        let store = durable_store(&root);
        drop(
            store
                .open("kept", figure1_spec(Strategy::GdrNoLearning, true))
                .expect("open"),
        );
    }
    let store = durable_store(&root);
    assert!(
        matches!(
            store.open("kept", figure1_spec(Strategy::GdrNoLearning, true)),
            Err(StoreError::DuplicateSession(_))
        ),
        "sharded on-disk journal must refuse a duplicate open"
    );
    // Removing it frees the id for a fresh open.
    assert!(store.remove("kept"));
    drop(
        store
            .open("kept", figure1_spec(Strategy::GdrNoLearning, true))
            .expect("re-open after remove"),
    );
}

#[test]
fn racing_opens_of_one_id_yield_one_session_and_duplicates() {
    let root = TempDir::new("shard-race");
    let store = durable_store(&root);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    store
                        .open("contested", figure1_spec(Strategy::GdrNoLearning, true))
                        .map(drop)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open thread"))
            .collect()
    });
    assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 1);
    for outcome in outcomes.iter().filter(|o| o.is_err()) {
        assert!(
            matches!(outcome, Err(StoreError::DuplicateSession(id)) if id == "contested"),
            "{outcome:?}"
        );
    }
}
