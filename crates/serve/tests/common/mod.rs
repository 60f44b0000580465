//! Shared support for the serve integration suites: unique temp dirs with
//! drop-cleanup (std-only — no `tempfile` in this workspace) and the
//! fixture/fingerprint/drive helpers the durability tests lean on.

// Each integration test binary compiles this module separately and uses a
// different subset of it.
#![allow(dead_code)]

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use gdr_core::config::GdrConfig;
use gdr_core::fixture;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::step::{GdrEngine, WorkPlan};
use gdr_core::strategy::Strategy;
use gdr_relation::codec;
use gdr_serve::journal::encode_event;
use gdr_serve::store::{OpenSpec, Session, TranscriptEvent};

/// A uniquely named directory under the system temp dir, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `gdr-<label>-<pid>-<nanos>-<counter>` under `env::temp_dir()`.
    pub fn new(label: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock before epoch")
            .as_nanos();
        let path = env::temp_dir().join(format!(
            "gdr-{label}-{}-{nanos}-{}",
            process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Byte offset just past each record of a segment stream that journals
/// `events`: the running sum of the events' framed lengths.  Records are
/// binary, so their boundaries come from the frames, not from a delimiter.
pub fn record_ends(events: &[TranscriptEvent]) -> Vec<usize> {
    events
        .iter()
        .scan(0, |end, event| {
            *end += codec::frame(&encode_event(event)).len();
            Some(*end)
        })
        .collect()
}

/// The Figure-1 spec under `GdrConfig::fast()`.
pub fn figure1_spec(strategy: Strategy, with_truth: bool) -> OpenSpec {
    let (dirty, clean, rules) = fixture::figure1_instance();
    let mut spec = OpenSpec::new(dirty, rules);
    spec.strategy = strategy;
    spec.config = GdrConfig::fast();
    if with_truth {
        spec.ground_truth = Some(clean);
    }
    spec
}

/// Everything observable about an engine, with floats taken to bits.
pub fn fingerprint(engine: &GdrEngine) -> (Vec<(usize, u64, u64)>, usize, usize, String) {
    let checkpoints = engine
        .report()
        .map(|report| {
            report
                .checkpoints
                .iter()
                .map(|c| {
                    (
                        c.verifications,
                        c.loss.to_bits(),
                        c.improvement_pct.to_bits(),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    (
        checkpoints,
        engine.verifications(),
        engine.learner_decisions(),
        format!("{}", engine.state().table()),
    )
}

/// One step of the oracle-driven loop against the store's session API.
/// Returns `false` once the session is done.
pub fn drive_one(session: &mut Session, oracle: &GroundTruthOracle) -> bool {
    match session.next().expect("next") {
        WorkPlan::AskUser { id, update, .. } => {
            let feedback = {
                let current = session
                    .engine()
                    .state()
                    .table()
                    .cell(update.tuple, update.attr);
                oracle.feedback(&update, current)
            };
            session.answer(id, feedback).expect("answer");
            true
        }
        WorkPlan::NeedsValue { cell } => {
            let current = session
                .engine()
                .state()
                .table()
                .cell(cell.0, cell.1)
                .clone();
            match oracle.correct_value(cell.0, cell.1) {
                Some(value) if value != current => {
                    session.supply(cell, value).expect("supply");
                }
                _ => session.skip(cell).expect("skip"),
            }
            true
        }
        WorkPlan::Done(_) => false,
    }
}
