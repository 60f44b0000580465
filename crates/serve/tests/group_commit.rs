//! Group-commit fsync batching: under [`FsyncPolicy::GroupCommit`] appends
//! return immediately and a background flusher folds every record that
//! arrived while an fsync was in flight into the next single fsync — so a
//! burst of appends costs far fewer fsyncs than `EveryRecord`, while
//! [`DiskJournal::wait_durable`] still gives a hard durability barrier and
//! the journal reloads complete.

mod common;

use std::sync::Arc;
use std::thread;

use common::{figure1_spec, fingerprint, TempDir};
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::strategy::Strategy;
use gdr_core::team::TeamPlan;
use gdr_repair::Feedback;
use gdr_serve::journal::{DiskJournal, FsyncPolicy, JournalConfig};
use gdr_serve::store::{DurabilityConfig, SessionStore, TranscriptEvent};

fn journal_config(fsync: FsyncPolicy) -> JournalConfig {
    JournalConfig {
        fsync,
        segment_max_bytes: 8 * 1024,
        compact_every: 0,
        validate_compaction: false,
    }
}

#[test]
fn a_burst_of_appends_coalesces_into_few_fsyncs() {
    let run = |fsync: FsyncPolicy| {
        let dir = TempDir::new("gc-burst");
        let spec = figure1_spec(Strategy::GdrNoLearning, true);
        let mut journal =
            DiskJournal::create(dir.path(), &spec, journal_config(fsync)).expect("create");
        for _ in 0..500 {
            journal
                .append(&TranscriptEvent::Answered(7, Feedback::Confirm))
                .expect("append");
        }
        journal.wait_durable();
        let (appends, syncs) = (journal.appends(), journal.syncs());
        drop(journal);
        // Nothing was lost to the batching: the reload sees every record.
        let loaded = DiskJournal::load(dir.path()).expect("load");
        assert!(loaded.recovery.clean(), "{:?}", loaded.recovery);
        assert_eq!(loaded.events.len(), 500);
        (appends, syncs)
    };

    let (er_appends, er_syncs) = run(FsyncPolicy::EveryRecord);
    assert_eq!(er_appends, 500);
    assert!(
        er_syncs >= er_appends,
        "EveryRecord must fsync per append: {er_syncs} < {er_appends}"
    );

    let (gc_appends, gc_syncs) = run(FsyncPolicy::GroupCommit);
    assert_eq!(gc_appends, 500);
    assert!(
        gc_syncs < gc_appends,
        "group commit did not batch: {gc_syncs} fsyncs for {gc_appends} appends"
    );
    assert!(
        gc_syncs < er_syncs,
        "group commit ({gc_syncs}) must cost fewer fsyncs than EveryRecord ({er_syncs})"
    );
}

/// Drives one durable figure-1 session to completion with two reviewer
/// threads contending on the store, then returns the journal's fsync
/// accounting, the transcript length, and the final engine fingerprint.
#[allow(clippy::type_complexity)]
fn contended_run(
    fsync: FsyncPolicy,
) -> (
    u64,
    u64,
    usize,
    (Vec<(usize, u64, u64)>, usize, usize, String),
) {
    let root = TempDir::new("gc-verbs");
    let mut durability = DurabilityConfig::new(root.path());
    durability.journal = journal_config(fsync);
    let store = Arc::new(SessionStore::durable(durability).expect("durable store"));
    store
        .open("s", figure1_spec(Strategy::GdrNoLearning, true))
        .expect("open");

    let workers: Vec<_> = ["a", "b"]
        .map(|reviewer| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let oracle = GroundTruthOracle::new(
                    figure1_spec(Strategy::GdrNoLearning, true)
                        .ground_truth
                        .expect("truth"),
                );
                let mut guard = 0usize;
                loop {
                    guard += 1;
                    assert!(guard < 4_000, "reviewer {reviewer} did not converge");
                    let done = store
                        .with_session("s", |s| match s.lease(reviewer)? {
                            TeamPlan::Ask { id, update } => {
                                let feedback = {
                                    let current =
                                        s.engine().state().table().cell(update.tuple, update.attr);
                                    oracle.feedback(&update, current)
                                };
                                s.answer_as(reviewer, id, feedback)?;
                                Ok(false)
                            }
                            TeamPlan::Fix { id, cell, current } => {
                                match oracle.correct_value(cell.0, cell.1) {
                                    Some(value) if value != current => {
                                        s.supply_as(reviewer, id, value)?;
                                    }
                                    _ => s.skip_as(reviewer, id)?,
                                }
                                Ok(false)
                            }
                            TeamPlan::Wait => Ok(false),
                            TeamPlan::Done(_) => Ok(true),
                        })
                        .expect("verb");
                    if done {
                        break;
                    }
                }
            })
        })
        .into_iter()
        .collect();
    for worker in workers {
        worker.join().expect("reviewer thread");
    }

    let (appends, syncs, events, fp, dir) = store
        .with_session("s", |s| {
            s.finish()?;
            let disk = s.disk().expect("durable session");
            // The durability barrier: after this every verb above is on
            // stable storage even though no append blocked on an fsync.
            disk.wait_durable();
            Ok((
                disk.appends(),
                disk.syncs(),
                s.journal().events_total(),
                fingerprint(s.engine()),
                s.disk_dir().expect("dir").to_path_buf(),
            ))
        })
        .expect("inspect");
    drop(store);

    // Cold reload: the batched journal is complete and replays to the
    // recorded state.
    let (session, recovery) =
        gdr_serve::store::Session::rehydrate(&dir, journal_config(fsync)).expect("rehydrate");
    assert!(recovery.clean(), "{recovery:?}");
    assert_eq!(session.journal().events_total(), events);
    assert_eq!(fingerprint(session.engine()), fp);
    (appends, syncs, events, fp)
}

#[test]
fn concurrent_verbs_cost_fewer_fsyncs_than_every_record() {
    let (er_appends, er_syncs, er_events, _) = contended_run(FsyncPolicy::EveryRecord);
    assert!(er_events > 50, "workload too small: {er_events} events");
    assert!(
        er_syncs >= er_appends,
        "EveryRecord must fsync per append: {er_syncs} < {er_appends}"
    );

    let (gc_appends, gc_syncs, gc_events, _) = contended_run(FsyncPolicy::GroupCommit);
    assert!(gc_events > 50, "workload too small: {gc_events} events");
    assert!(
        gc_syncs < gc_appends,
        "group commit did not batch under contention: {gc_syncs} fsyncs \
         for {gc_appends} appends"
    );
    // The headline claim, as a scheduling-robust rate: fsyncs per append
    // under group commit stay below EveryRecord's (which is >= 1).
    assert!(
        (gc_syncs as f64) / (gc_appends as f64) < (er_syncs as f64) / (er_appends as f64),
        "group commit fsync rate {gc_syncs}/{gc_appends} not below \
         EveryRecord's {er_syncs}/{er_appends}"
    );
}
