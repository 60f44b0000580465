//! Crash-safe on-disk session journals: one checksummed log, compactable.
//!
//! The in-memory [`crate::store::SessionJournal`] already makes every
//! session a replayable value (build inputs + state-advancing verbs).  This
//! module gives that value a durable form a server can crash out of and
//! recover from.  Every file it writes uses one format: `S2` frames
//! ([`gdr_relation::codec::frame`]) around payloads of the versioned state
//! codec that every layer implements.
//!
//! * **Records.**  A record is one frame, `S2 <len> <fnv64-hex> ` plus
//!   `len` payload bytes.  An event payload is a one-byte variant tag and
//!   its fields; the spec payload is the `encode_state` of the table,
//!   rules, strategy, configuration, team configuration and optional ground
//!   truth.  A torn write, a short write, or a flipped bit fails the header
//!   or checksum check and the loader **truncates to the last valid
//!   record** instead of failing the session; the wire protocol's
//!   `StaleWork` recovery already makes drivers resilient to a rolled-back
//!   outstanding question.
//! * **The log.**  Events append to one file per session that never rolls:
//!   `seg-000000.gdrj`, the name the first segment had when the log rolled
//!   over at a byte size, so journal roots written then still load and
//!   tools that read `seg-*.gdrj` files still find it.  A directory that
//!   holds any other `seg-*` file is refused with [`JournalError::Corrupt`]
//!   naming it, so no event is dropped without an error.  The build inputs
//!   live in `spec.gdrj`, written and fsync'd once at open.
//! * **Fsync policy.**  [`FsyncPolicy::EveryRecord`], the default, fsyncs
//!   each record inside [`DiskJournal::append`], so a record is on stable
//!   storage before the verb that wrote it is answered.
//!   [`FsyncPolicy::Never`] (tests, benches) leaves flushing to the OS and
//!   claims no durability.
//! * **Checkpoints.**  Compaction (see [`crate::store::Session::compact`])
//!   persists the validated session itself as `snap-NNNNNN.gdrs`
//!   (write-to-temp + fsync + atomic rename): the frame
//!   [`TeamSession::to_snapshot_bytes`] writes, whose checksum is the
//!   session's [`team_digest`].  The write is the last part of a
//!   compaction's unlocked *run* step, after the validation replay; on the
//!   threaded server it happens after the verb has replied, so a SIGKILL
//!   can land before it — recovery then starts from the previous
//!   checkpoint, which is still valid.  Writes to one directory hold its
//!   checkpoint lock, which `SessionStore::remove` takes to close the
//!   directory before deleting it.  A checkpoint write killed before its
//!   rename leaves a `.tmp` file that the next [`DiskJournal::load`]
//!   deletes.  Recovery loads the newest checkpoint that decodes, re-encodes
//!   to its own payload, and covers no more events than the recovered
//!   prefix holds, then replays only the journal tail past it.  Anything
//!   else degrades to the next older checkpoint and ultimately to full
//!   replay ([`RecoveryReport`] says which); the clean event prefix is never
//!   lost, because checkpoints are an accelerator — the journal remains the
//!   durability format of record.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use gdr_core::team::TeamSession;
use gdr_relation::codec::{self, fnv1a64, CodecError};

use crate::store::{OpenSpec, TranscriptEvent};

// ---- errors ---------------------------------------------------------------

/// Errors of the durability layer.
#[derive(Debug)]
pub enum JournalError {
    /// An IO error from the filesystem.
    Io(io::Error),
    /// [`DiskJournal::create`] found a journal already in the directory:
    /// another open claimed the session id first.
    Exists {
        /// The directory that already holds a journal.
        dir: PathBuf,
    },
    /// A record or file that must be intact (the spec, a decoded event) is
    /// not, or the directory holds a `seg-*` file besides the log.  Tail
    /// corruption of the log is *not* an error — the loader truncates and
    /// reports it in [`RecoveryReport`] instead.
    Corrupt {
        /// What was corrupt and where.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(err) => write!(f, "journal IO error: {err}"),
            JournalError::Exists { dir } => {
                write!(f, "{} already holds a journal", dir.display())
            }
            JournalError::Corrupt { detail } => write!(f, "corrupt journal: {detail}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(err) => Some(err),
            JournalError::Exists { .. } | JournalError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(err: io::Error) -> JournalError {
        JournalError::Io(err)
    }
}

impl From<JournalError> for gdr_core::error::GdrError {
    fn from(err: JournalError) -> gdr_core::error::GdrError {
        gdr_core::error::GdrError::Journal {
            detail: err.to_string(),
        }
    }
}

// ---- record stream --------------------------------------------------------

/// The outcome of scanning a byte stream of framed records: the payloads
/// of every valid record, the byte length of that valid prefix, and — when
/// the scan stopped early — what was wrong with the first invalid record.
#[derive(Debug)]
pub struct ScanOutcome<'a> {
    /// Payloads of the valid record prefix, in order.
    pub payloads: Vec<&'a [u8]>,
    /// Byte length of the valid prefix (truncate the file to this).
    pub valid_len: usize,
    /// Why the scan stopped, if it did not consume every byte.
    pub corruption: Option<String>,
}

/// Scans a log byte stream, stopping at the first record that is torn,
/// short, malformed, or checksum-failing.  Never panics: every byte stream
/// yields a (possibly empty) valid prefix.
pub fn scan_records(bytes: &[u8]) -> ScanOutcome<'_> {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    let mut corruption = None;
    while offset < bytes.len() {
        match codec::read_frame(&bytes[offset..]) {
            Ok((payload, used)) => {
                payloads.push(payload);
                offset += used;
            }
            Err(err) => {
                corruption = Some(format!("invalid record at byte {offset}: {}", err.detail));
                break;
            }
        }
    }
    ScanOutcome {
        payloads,
        valid_len: offset,
        corruption,
    }
}

// ---- record payloads ------------------------------------------------------

// An event is a one-byte variant tag followed by the variant's fields; a
// team verb's committed resolutions come last, behind their count.  Tags
// start at 1, and decoding refuses 0 like any other unknown tag.
gdr_relation::state_enum! { TranscriptEvent, "event" {
    1 => Answered { 0, 1 },
    2 => Supplied { 0, 1 },
    3 => Skipped { 0 },
    4 => Finished { pulled },
    5 => Leased { reviewer, id },
    6 => Waited { reviewer },
    7 => AnsweredAs { reviewer, id, feedback, resolved },
    8 => SuppliedAs { reviewer, id, value, resolved },
    9 => SkippedAs { reviewer, id, resolved },
    10 => Released { reviewer, id },
} }

/// Encodes one transcript event as a record payload.
pub fn encode_event(event: &TranscriptEvent) -> Vec<u8> {
    codec::encode_to_vec(event)
}

/// Inverse of [`encode_event`].
pub fn decode_event(payload: &[u8]) -> Result<TranscriptEvent, String> {
    codec::decode_exact(payload).map_err(|e| e.detail)
}

gdr_relation::state_record! {
    "spec" 1 => OpenSpec { dirty, rules, strategy, config, team, ground_truth }
    check check_spec
}

/// Rejects a decoded spec whose rules name a column the table lacks.
fn check_spec(spec: &OpenSpec) -> codec::Result<()> {
    let arity = spec.dirty.schema().arity();
    match spec
        .rules
        .iter()
        .find(|(_, rule)| rule.attrs().iter().any(|&attr| attr >= arity))
    {
        Some((id, _)) => Err(CodecError::new(format!(
            "rule {id} names an attribute outside the {arity}-column table"
        ))),
        None => Ok(()),
    }
}

/// Encodes a session's build inputs as the spec record payload.
pub fn encode_spec(spec: &OpenSpec) -> Vec<u8> {
    codec::encode_to_vec(spec)
}

/// Inverse of [`encode_spec`].
pub fn decode_spec(payload: &[u8]) -> Result<OpenSpec, String> {
    codec::decode_exact(payload).map_err(|e| e.detail)
}

/// Decodes a `snap-NNNNNN.gdrs` checkpoint file — a
/// [`TeamSession::to_snapshot_bytes`] frame — into the session it holds.
/// The payload must decode exactly and re-encode to itself, so the decoded
/// session is the one whose digest the frame's checksum is.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<TeamSession, String> {
    let payload = codec::unframe(bytes).map_err(|e| e.detail)?;
    let team: TeamSession = codec::decode_exact(payload).map_err(|e| e.detail)?;
    if team.state_bytes() != payload {
        return Err("checkpoint payload does not re-encode to itself".to_string());
    }
    Ok(team)
}

/// The session digest: FNV-1a 64 of its canonical state payload
/// ([`TeamSession::state_bytes`]), which covers every row, the models, the
/// suggestions and the coordinator.  It equals the checksum of the
/// session's checkpoint frame.  Two sessions with equal digests serve every
/// reviewer identically.
pub fn team_digest(team: &TeamSession) -> u64 {
    fnv1a64(&team.state_bytes())
}

// ---- configuration --------------------------------------------------------

/// When appended records reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record, before [`DiskJournal::append`]
    /// returns.
    EveryRecord,
    /// Never fsync explicitly (tests; the OS flushes eventually).
    Never,
}

/// Per-journal tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// When appended records are fsync'd.
    pub fsync: FsyncPolicy,
    /// Auto-compact the in-memory journal once its tail exceeds this many
    /// events (0 disables auto-compaction; `compact` stays available).
    pub compact_every: usize,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            fsync: FsyncPolicy::EveryRecord,
            compact_every: 64,
        }
    }
}

// ---- disk journal ---------------------------------------------------------

const SPEC_FILE: &str = "spec.gdrj";
/// The event log.  It keeps the name of the first segment of the rolling
/// layout this log replaced.
const LOG_FILE: &str = "seg-000000.gdrj";
/// Prefix of the rolled segments of that layout; the loader refuses any
/// file with it but the log.
const SEGMENT_PREFIX: &str = "seg-";
const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".gdrs";
/// Suffix of a checkpoint being written; renamed away once synced.
const TMP_SUFFIX: &str = ".tmp";
/// How many checkpoint files a compaction leaves on disk: the one it just
/// wrote plus one older fallback, so a corrupt newest checkpoint still
/// degrades to a checkpointed restore instead of a full replay.
const SNAPSHOTS_KEPT: usize = 2;

/// Name of the checkpoint file covering the first `events` transcript
/// events: `snap-NNNNNN.gdrs`, the session's
/// [`TeamSession::to_snapshot_bytes`] frame.
pub fn snapshot_name(events: u64) -> String {
    format!("{SNAP_PREFIX}{events:06}{SNAP_SUFFIX}")
}

fn snapshot_events(name: &str) -> Option<u64> {
    name.strip_prefix(SNAP_PREFIX)?
        .strip_suffix(SNAP_SUFFIX)?
        .parse()
        .ok()
}

/// Event counts of every checkpoint file in `dir`, newest first.
fn snapshot_files(dir: &Path) -> io::Result<Vec<u64>> {
    let mut snaps: Vec<u64> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| snapshot_events(&entry.file_name().to_string_lossy()))
        .collect();
    snaps.sort_unstable_by(|a, b| b.cmp(a));
    Ok(snaps)
}

/// Maps an arbitrary session id onto a filesystem-safe directory name:
/// alphanumerics, `-` and `_` pass through; every other byte is escaped as
/// `%XX`.  Injective, so distinct session ids never collide on disk.
pub fn session_dir_name(id: &str) -> String {
    let mut out = String::with_capacity(id.len());
    for &b in id.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    if out.is_empty() {
        out.push_str("%empty%");
    }
    out
}

/// The two-hex-digit shard prefix a session's journal directory lives
/// under: new sessions are created at
/// `<root>/<session_shard(id)>/<session_dir_name(id)>/`, spreading large
/// stores over 256 subdirectories so one root directory never holds every
/// session.
pub fn session_shard(id: &str) -> String {
    format!("{:02x}", fnv1a64(id.as_bytes()) & 0xff)
}

/// What the loader found (and repaired) while reading a journal directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes cut from the log at its first corrupt record (torn tail,
    /// flipped bits).
    pub truncated_bytes: u64,
    /// Detail of the corruption that forced the truncation, if any.
    pub corruption: Option<String>,
    /// Checkpoint files that were unreadable, undecodable, did not
    /// re-encode to their own payload, or claimed more events than the
    /// recovered prefix holds; each was deleted and recovery degraded to
    /// the next older checkpoint (ultimately to full replay).
    pub snapshots_skipped: usize,
}

impl RecoveryReport {
    /// Whether the loader had to repair anything.
    pub fn clean(&self) -> bool {
        self.truncated_bytes == 0 && self.corruption.is_none() && self.snapshots_skipped == 0
    }
}

/// A journal directory read back into memory.
#[derive(Debug)]
pub struct LoadedJournal {
    /// The session's build inputs.
    pub spec: OpenSpec,
    /// The spec record payload `spec` was decoded from.
    pub spec_record: Vec<u8>,
    /// The recovered event transcript (the valid prefix, in order).
    pub events: Vec<TranscriptEvent>,
    /// The newest valid checkpoint: the number of leading transcript
    /// events it covers and the session decoded from it.  Rehydration
    /// replays `events[checkpoint.0..]` onto this session; `None` (no
    /// checkpoint files, or none survived validation) means full replay.
    pub checkpoint: Option<(usize, TeamSession)>,
    /// The bytes of the checkpoint file `checkpoint` was decoded from,
    /// which become the rehydrated journal's replay base.
    pub checkpoint_frame: Option<Vec<u8>>,
    /// What recovery had to repair.
    pub recovery: RecoveryReport,
}

/// The append side of one session's on-disk journal.
#[derive(Debug)]
pub struct DiskJournal {
    dir: PathBuf,
    checkpoints: Checkpoints,
    log: File,
    syncs: u64,
    config: JournalConfig,
}

impl DiskJournal {
    /// Creates a fresh journal directory for `spec`: writes and fsyncs
    /// `spec.gdrj`, then creates the event log.  Fails if the
    /// directory already holds a journal.
    pub fn create(
        dir: impl Into<PathBuf>,
        spec: &OpenSpec,
        config: JournalConfig,
    ) -> Result<DiskJournal, JournalError> {
        DiskJournal::create_from_record(dir, &encode_spec(spec), config)
    }

    /// [`DiskJournal::create`] from an already encoded spec record payload
    /// ([`encode_spec`]).
    pub(crate) fn create_from_record(
        dir: impl Into<PathBuf>,
        spec_record: &[u8],
        config: JournalConfig,
    ) -> Result<DiskJournal, JournalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let spec_path = dir.join(SPEC_FILE);
        // `create_new` makes the spec file the atomic claim on the session
        // id: of two racing creates, exactly one wins at the filesystem.
        let mut spec_file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&spec_path)
            .map_err(|err| {
                if err.kind() == io::ErrorKind::AlreadyExists {
                    JournalError::Exists { dir: dir.clone() }
                } else {
                    JournalError::Io(err)
                }
            })?;
        spec_file.write_all(&codec::frame(spec_record))?;
        spec_file.sync_all()?;
        let log = File::create(dir.join(LOG_FILE))?;
        Ok(DiskJournal::assemble(dir, log, config))
    }

    fn assemble(dir: PathBuf, log: File, config: JournalConfig) -> DiskJournal {
        DiskJournal {
            checkpoints: Checkpoints {
                dir: dir.clone(),
                open: Arc::new(Mutex::new(true)),
            },
            dir,
            log,
            syncs: 0,
            config,
        }
    }

    /// Whether `dir` holds a journal (i.e. a spec record was written).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(SPEC_FILE).is_file()
    }

    /// Reads a journal directory back, truncating a corrupt log tail **on
    /// disk** (the log is cut to its last valid record) so subsequent
    /// appends restart from a consistent prefix.  Unusable checkpoint
    /// files, and the temp files of checkpoint writes that never reached
    /// their rename, are deleted and skipped.  A missing or corrupt spec
    /// record is fatal, and so is a `seg-*` file besides the log: its
    /// events would otherwise be lost without an error.
    pub fn load(dir: impl AsRef<Path>) -> Result<LoadedJournal, JournalError> {
        let dir = dir.as_ref();
        let spec_bytes = fs::read(dir.join(SPEC_FILE))?;
        let (spec, spec_record) = codec::unframe(&spec_bytes)
            .map_err(|e| e.detail)
            .and_then(|payload| Ok((decode_spec(payload)?, payload.to_vec())))
            .map_err(|detail| JournalError::Corrupt {
                detail: format!("spec record: {detail}"),
            })?;

        for entry in fs::read_dir(dir)?.filter_map(|entry| entry.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(SEGMENT_PREFIX) && name != LOG_FILE {
                return Err(JournalError::Corrupt {
                    detail: format!("{}: not the journal's log", entry.path().display()),
                });
            }
            if name
                .strip_suffix(TMP_SUFFIX)
                .is_some_and(|snap| snapshot_events(snap).is_some())
            {
                // A checkpoint write cut before its rename: never adopted.
                fs::remove_file(entry.path()).ok();
            }
        }

        let mut recovery = RecoveryReport::default();
        let path = dir.join(LOG_FILE);
        let bytes = match fs::read(&path) {
            Err(err) if err.kind() == io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let scan = scan_records(&bytes);
        let events = scan
            .payloads
            .iter()
            .map(|payload| decode_event(payload))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|detail| JournalError::Corrupt {
                detail: format!("{}: undecodable event: {detail}", path.display()),
            })?;
        if let Some(detail) = scan.corruption {
            recovery.truncated_bytes = (bytes.len() - scan.valid_len) as u64;
            recovery.corruption = Some(format!("{}: {detail}", path.display()));
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(scan.valid_len as u64)?;
            file.sync_all()?;
        }

        // Checkpoints: the newest one that covers no more events than the
        // recovered prefix holds and decodes to a session that re-encodes
        // to it becomes the replay base.  Anything else is deleted and
        // counted, and recovery degrades to the next older checkpoint —
        // ultimately to full replay.  The clean event prefix is untouched
        // either way.
        let (mut checkpoint, mut checkpoint_frame) = (None, None);
        for covered in snapshot_files(dir)? {
            let path = dir.join(snapshot_name(covered));
            let usable = fs::read(&path)
                .ok()
                .filter(|_| covered as usize <= events.len())
                .and_then(|bytes| Some((decode_checkpoint(&bytes).ok()?, bytes)));
            match usable {
                Some((team, bytes)) => {
                    checkpoint = Some((covered as usize, team));
                    checkpoint_frame = Some(bytes);
                    break;
                }
                None => {
                    recovery.snapshots_skipped += 1;
                    fs::remove_file(&path).ok();
                }
            }
        }

        Ok(LoadedJournal {
            spec,
            spec_record,
            events,
            checkpoint,
            checkpoint_frame,
            recovery,
        })
    }

    /// Loads a journal directory and positions an append handle at the end
    /// of its log (post-truncation).
    pub(crate) fn open(
        dir: impl Into<PathBuf>,
        config: JournalConfig,
    ) -> Result<(DiskJournal, LoadedJournal), JournalError> {
        let dir = dir.into();
        let loaded = DiskJournal::load(&dir)?;
        let log = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(LOG_FILE))?;
        Ok((DiskJournal::assemble(dir, log, config), loaded))
    }

    /// The journal's directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one event record to the log.  Under
    /// [`FsyncPolicy::EveryRecord`] the record is on stable storage when
    /// this returns.
    pub fn append(&mut self, event: &TranscriptEvent) -> Result<(), JournalError> {
        self.log.write_all(&codec::frame(&encode_event(event)))?;
        if self.config.fsync == FsyncPolicy::EveryRecord {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub(crate) fn sync(&mut self) -> Result<(), JournalError> {
        self.log.sync_all()?;
        self.syncs += 1;
        Ok(())
    }

    /// fsyncs issued through this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The directory's checkpoint writer, which a compaction takes with
    /// it when it runs with the session unlocked.
    pub(crate) fn checkpoints(&self) -> Checkpoints {
        self.checkpoints.clone()
    }
}

/// The checkpoint side of one session's journal directory, shared by the
/// session's [`DiskJournal`] and its compaction in flight.  A write holds
/// the lock from the temp file to the rename, and [`Checkpoints::close`]
/// takes it before the session's directory is deleted, so a compaction
/// that runs unlocked never writes into, or recreates, a removed directory,
/// and two writes of one checkpoint name never interleave.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoints {
    dir: PathBuf,
    /// `false` once the directory is being removed.
    open: Arc<Mutex<bool>>,
}

impl Checkpoints {
    /// Persists a compaction checkpoint covering the first `events`
    /// transcript events: `frame`, the session's
    /// [`TeamSession::to_snapshot_bytes`], as `snap-NNNNNN.gdrs`, via
    /// write-to-temp + fsync + atomic rename.  Older checkpoints beyond
    /// `SNAPSHOTS_KEPT` are pruned.  Writes nothing once closed.
    pub(crate) fn write(&self, events: usize, frame: &[u8]) -> Result<(), JournalError> {
        let open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        if !*open {
            return Ok(());
        }
        let name = snapshot_name(events as u64);
        let tmp = self.dir.join(format!("{name}{TMP_SUFFIX}"));
        let mut file = File::create(&tmp)?;
        file.write_all(frame)?;
        file.sync_all()?;
        fs::rename(&tmp, self.dir.join(&name))?;
        for &events in snapshot_files(&self.dir)?.iter().skip(SNAPSHOTS_KEPT) {
            fs::remove_file(self.dir.join(snapshot_name(events))).ok();
        }
        Ok(())
    }

    /// Stops all later writes, waiting out one in progress: the directory
    /// is about to be deleted.
    pub(crate) fn close(&self) {
        *self.open.lock().unwrap_or_else(PoisonError::into_inner) = false;
    }
}

impl Drop for DiskJournal {
    fn drop(&mut self) {
        // Best-effort: an evicted or closing session should not lose its
        // tail to a missing final sync under `FsyncPolicy::Never`.
        let _ = self.log.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_core::config::GdrConfig;
    use gdr_core::fixture;
    use gdr_core::strategy::Strategy;
    use gdr_core::team::{Resolution, TeamConfig};
    use gdr_relation::{Table, Value};
    use gdr_repair::Feedback;

    fn sample_events() -> Vec<TranscriptEvent> {
        vec![
            TranscriptEvent::Finished { pulled: true },
            TranscriptEvent::Answered(7, Feedback::Confirm),
            TranscriptEvent::Answered(u64::MAX, Feedback::Reject),
            TranscriptEvent::Supplied((3, 1), Value::from("Fort, \"Wayne\"\nIN")),
            TranscriptEvent::Supplied((0, 0), Value::Int(-46360)),
            TranscriptEvent::Supplied((2, 5), Value::Null),
            TranscriptEvent::Skipped((9, 2)),
            TranscriptEvent::Leased {
                reviewer: "alice \"の\" reviewer".to_string(),
                id: u64::MAX,
            },
            TranscriptEvent::Waited {
                reviewer: String::new(),
            },
            TranscriptEvent::AnsweredAs {
                reviewer: "bob".to_string(),
                id: 3,
                feedback: Feedback::Retain,
                resolved: Vec::new(),
            },
            TranscriptEvent::AnsweredAs {
                reviewer: "bob".to_string(),
                id: 4,
                feedback: Feedback::Confirm,
                resolved: vec![(
                    0,
                    Resolution::Answer {
                        cell: (1, 2),
                        feedback: Feedback::Confirm,
                    },
                )],
            },
            TranscriptEvent::SuppliedAs {
                reviewer: "carol".to_string(),
                id: 4,
                value: Value::from("Fort Wayne"),
                resolved: vec![(
                    9000,
                    Resolution::Supply {
                        cell: (0, 4),
                        value: Value::Null,
                    },
                )],
            },
            TranscriptEvent::SkippedAs {
                reviewer: "dave".to_string(),
                id: 5,
                resolved: vec![
                    (1, Resolution::Skip { cell: (7, 7) }),
                    (
                        2,
                        Resolution::Supply {
                            cell: (3, 1),
                            value: Value::from("Fort, \"Wayne\"\nIN"),
                        },
                    ),
                ],
            },
            TranscriptEvent::SkippedAs {
                reviewer: String::new(),
                id: u64::MAX,
                resolved: Vec::new(),
            },
            TranscriptEvent::Released {
                reviewer: "erin".to_string(),
                id: 6,
            },
            TranscriptEvent::Finished { pulled: false },
        ]
    }

    #[test]
    fn every_event_round_trips_through_the_record_codec() {
        for event in sample_events() {
            let payload = encode_event(&event);
            assert_eq!(decode_event(&payload).unwrap(), event, "via {payload:?}");
            let framed = codec::frame(&payload);
            let scan = scan_records(&framed);
            assert!(scan.corruption.is_none());
            assert_eq!(scan.payloads, vec![&payload[..]]);
            // A payload cut short or extended is an error, not a panic.
            for cut in 0..payload.len() {
                assert!(
                    decode_event(&payload[..cut]).is_err(),
                    "{event:?} cut {cut}"
                );
            }
            let mut long = payload.clone();
            long.push(0);
            assert!(decode_event(&long).is_err());
        }
        // Tag 0 is unassigned: pulls are never journaled.  Neither is tag
        // 11: the resolutions a team verb commits ride in its own record.
        assert!(decode_event(&[0]).is_err());
        assert!(decode_event(&[11]).is_err());
    }

    #[test]
    fn spec_round_trips_with_weights_bit_for_bit() {
        let (dirty, clean, rules) = fixture::figure1_instance();
        let mut spec = OpenSpec::new(dirty, rules);
        spec.strategy = Strategy::GdrSLearning;
        spec.config = GdrConfig::fast();
        spec.config.seed = u64::MAX - 3;
        spec.config.forest.tree.features_per_split = Some(2);
        spec.ground_truth = Some(clean);
        spec.team = TeamConfig {
            policy: gdr_core::team::ConflictPolicy::Majority { k: 3 },
            lease_ttl: 7,
        };
        let decoded = decode_spec(&encode_spec(&spec)).expect("decode spec");
        assert_eq!(
            encode_spec(&decoded),
            encode_spec(&spec),
            "re-encodes exactly"
        );
        assert_eq!(decoded.team, spec.team);
        assert_eq!(decoded.dirty.name(), spec.dirty.name());
        assert_eq!(
            format!("{}", decoded.dirty),
            format!("{}", spec.dirty),
            "table cells must round-trip"
        );
        assert_eq!(decoded.rules.len(), spec.rules.len());
        for (id, _) in spec.rules.iter() {
            assert_eq!(
                decoded.rules.weights()[id].to_bits(),
                spec.rules.weights()[id].to_bits(),
                "weight of rule {id}"
            );
        }
        assert_eq!(decoded.strategy, spec.strategy);
        assert_eq!(decoded.config.seed, spec.config.seed);
        assert_eq!(decoded.config.forest.tree.features_per_split, Some(2));
        let truth = decoded.ground_truth.as_ref().expect("truth kept");
        assert_eq!(
            format!("{truth}"),
            format!("{}", spec.ground_truth.as_ref().unwrap())
        );
        // And the engines built from both specs serve identically.
        // (Deterministic builds: same inputs, same bits.)
        let a = {
            let journal = crate::store::SessionJournal::from_events(spec.clone(), Vec::new());
            journal.replay().unwrap()
        };
        let b = {
            let journal = crate::store::SessionJournal::from_events(decoded, Vec::new());
            journal.replay().unwrap()
        };
        assert_eq!(team_digest(&a), team_digest(&b));
    }

    #[test]
    fn the_digest_sees_every_row() {
        let data = gdr_datagen::hospital::generate_hospital_dataset(
            &gdr_datagen::hospital::HospitalConfig {
                tuples: 100,
                dirty_fraction: 0.3,
                seed: 3,
                extra_cities: 2,
            },
        );
        let digest = |dirty: Table| {
            let spec = OpenSpec::new(dirty, data.rules.clone());
            team_digest(
                &crate::store::SessionJournal::from_events(spec, Vec::new())
                    .replay()
                    .unwrap(),
            )
        };
        let mut edited = data.dirty.clone();
        edited
            .set_cell(25, 0, Value::from("only row 25 holds this"))
            .unwrap();
        assert_ne!(digest(data.dirty.clone()), digest(edited));
    }

    #[test]
    fn scan_truncates_at_every_cut_and_flip() {
        let events = sample_events();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for event in &events {
            bytes.extend_from_slice(&codec::frame(&encode_event(event)));
            boundaries.push(bytes.len());
        }
        // Kill at every byte boundary: the valid prefix is exactly the
        // records wholly before the cut.
        for cut in 0..=bytes.len() {
            let scan = scan_records(&bytes[..cut]);
            let expected = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.payloads.len(), expected, "cut at byte {cut}");
            assert_eq!(scan.valid_len, boundaries[expected], "cut at byte {cut}");
            assert_eq!(scan.corruption.is_some(), cut != boundaries[expected]);
        }
        // Flip every byte: the record containing the flip (and everything
        // after it) is dropped; records before it survive.
        for position in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[position] ^= 0x20;
            let scan = scan_records(&corrupt);
            let intact = boundaries.iter().filter(|&&b| b <= position).count() - 1;
            assert!(
                scan.payloads.len() <= intact || corrupt == bytes,
                "flip at byte {position} must not manufacture records"
            );
            for (i, payload) in scan.payloads.iter().enumerate() {
                assert_eq!(
                    decode_event(payload).unwrap(),
                    events[i],
                    "surviving record {i} after flip at {position}"
                );
            }
        }
    }

    #[test]
    fn create_refuses_a_directory_that_holds_a_journal() {
        let dir = std::env::temp_dir().join(format!("gdr-journal-exists-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (dirty, _, rules) = fixture::figure1_instance();
        let spec = OpenSpec::new(dirty, rules);
        let config = JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::default()
        };
        drop(DiskJournal::create(&dir, &spec, config).expect("first create"));
        let err = DiskJournal::create(&dir, &spec, config).expect_err("second create");
        assert!(
            matches!(&err, JournalError::Exists { dir: d } if *d == dir),
            "{err}"
        );
        fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn session_dir_names_are_safe_and_injective() {
        let ids = [
            "plain",
            "../../../etc/passwd",
            "spaced out id",
            "ünïcode",
            "",
            "a/b\\c:d",
            "%41",
            "A1",
        ];
        let mut seen = std::collections::HashSet::new();
        for id in ids {
            let name = session_dir_name(id);
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "`{name}` must be filesystem-safe"
            );
            assert!(!name.contains('/') && !name.contains('\\'));
            assert!(seen.insert(name.clone()), "`{id}` collided on `{name}`");
        }
        // The escape itself cannot collide with a literal: `%41` the id
        // escapes its `%`, while `A1` stays literal.
        assert_ne!(session_dir_name("%41"), session_dir_name("A1"));
    }
}
