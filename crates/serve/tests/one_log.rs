//! Each durable session journals to one append-only log that never rolls:
//! `seg-000000.gdrj` grows past the 64 KiB at which the journal used to roll
//! to a new segment, a cold reload reads it back clean, and a stray `seg-*`
//! file beside it is refused by name without taking the store's other
//! sessions down.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use common::{figure1_spec, TempDir};
use gdr_core::error::GdrError;
use gdr_core::strategy::Strategy;
use gdr_core::team::TeamPlan;
use gdr_serve::journal::{
    session_dir_name, session_shard, team_digest, FsyncPolicy, JournalConfig,
};
use gdr_serve::store::{DurabilityConfig, Session, SessionStore, StoreError};

fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::Never,
        // No compaction: the reload replays the whole log.
        compact_every: 0,
    }
}

fn durable_store(root: &TempDir) -> SessionStore {
    let mut durability = DurabilityConfig::new(root.path());
    durability.journal = journal_config();
    SessionStore::durable(durability).expect("durable store")
}

fn session_dir(root: &TempDir, id: &str) -> PathBuf {
    root.path()
        .join(session_shard(id))
        .join(session_dir_name(id))
}

/// The names of the `seg-*` files in `dir`, sorted.
fn seg_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("read_dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("seg-"))
        .collect();
    names.sort();
    names
}

#[test]
fn a_log_past_64_kib_stays_one_file_and_reloads_clean() {
    let root = TempDir::new("one-log");
    let store = durable_store(&root);
    store
        .open("s", figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");
    let dir = session_dir(&root, "s");
    let log = dir.join("seg-000000.gdrj");
    // Each lease and release journals one record, and neither moves the
    // repair forward, so the log grows without the session ending.
    while fs::metadata(&log).expect("log").len() <= 64 * 1024 {
        store
            .with_session("s", |s| {
                for _ in 0..64 {
                    let TeamPlan::Ask { id, .. } = s.lease("rev")? else {
                        panic!("expected a question to lease");
                    };
                    assert!(s.release_lease("rev", id)?);
                }
                Ok(())
            })
            .expect("lease and release");
    }
    let live = store
        .with_session("s", |s| Ok(team_digest(s.team())))
        .expect("digest");
    drop(store);
    assert_eq!(seg_files(&dir), ["seg-000000.gdrj"]);

    let (session, recovery) = Session::rehydrate(&dir, journal_config()).expect("rehydrate");
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(team_digest(session.team()), live);
    assert_eq!(seg_files(&dir), ["seg-000000.gdrj"]);
}

#[test]
fn a_stray_segment_is_refused_by_name_and_other_sessions_keep_serving() {
    let root = TempDir::new("stray-seg");
    let store = durable_store(&root);
    for id in ["stray", "sibling"] {
        store
            .open(id, figure1_spec(Strategy::GdrNoLearning, true))
            .expect("open");
    }
    drop(store);
    let stray = session_dir(&root, "stray").join("seg-000001.gdrj");
    fs::write(&stray, b"").expect("write stray");

    let store = durable_store(&root);
    match store.get("stray") {
        Err(StoreError::Gdr(GdrError::Journal { detail })) => {
            assert!(detail.contains("seg-000001.gdrj"), "{detail}");
        }
        Err(other) => panic!("expected a journal error, got {other:?}"),
        Ok(_) => panic!("a session with a stray segment was served"),
    }
    assert!(stray.exists(), "the refused directory is left as it was");
    store
        .with_session("sibling", |s| s.next().map(|_| ()))
        .expect("the sibling keeps serving");
}
