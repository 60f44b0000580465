//! Crash-safe on-disk session journals: segmented, checksummed, compactable.
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
//! * **Segments.**  Events append to `seg-NNNNNN.gdrj` files that roll over
//!   at a configurable byte size, so one hot session never owns one
//!   unbounded file and recovery IO is bounded per segment.  The build
//!   inputs live in `spec.gdrj`, written and fsync'd once at open.
//! * **Fsync policy.**  [`FsyncPolicy::EveryRecord`], the default, fsyncs
//!   each record inside [`DiskJournal::append`], so a record is on stable
//!   storage before the verb that wrote it is answered.
//!   [`FsyncPolicy::Never`] (tests, benches) leaves flushing to the OS and
//!   claims no durability.  Segment rolls always sync the sealed segment.
//! * **Checkpoints.**  Compaction (see [`crate::store::Session::compact`])
//!   persists the validated session itself as `snap-NNNNNN.gdrs`
//!   (write-to-temp + fsync + atomic rename): the frame
//!   [`TeamSession::to_snapshot_bytes`] writes, whose checksum is the
//!   session's [`team_digest`].  A checkpoint write killed before its
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
    /// not.  Tail corruption of event segments is *not* an error — the
    /// loader truncates and reports it in [`RecoveryReport`] instead.
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

/// Scans a segment byte stream, stopping at the first record that is torn,
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
    /// Roll to a new segment once the active one exceeds this many bytes.
    pub segment_max_bytes: u64,
    /// Auto-compact the in-memory journal once its tail exceeds this many
    /// events (0 disables auto-compaction; `compact` stays available).
    pub compact_every: usize,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            fsync: FsyncPolicy::EveryRecord,
            segment_max_bytes: 64 * 1024,
            compact_every: 64,
        }
    }
}

// ---- disk journal ---------------------------------------------------------

const SPEC_FILE: &str = "spec.gdrj";
const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".gdrj";
const SNAP_PREFIX: &str = "snap-";
const SNAP_SUFFIX: &str = ".gdrs";
/// Suffix of a checkpoint being written; renamed away once synced.
const TMP_SUFFIX: &str = ".tmp";
/// How many checkpoint files a compaction leaves on disk: the one it just
/// wrote plus one older fallback, so a corrupt newest checkpoint still
/// degrades to a checkpointed restore instead of a full replay.
const SNAPSHOTS_KEPT: usize = 2;

fn segment_name(index: u64) -> String {
    format!("{SEGMENT_PREFIX}{index:06}{SEGMENT_SUFFIX}")
}

fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

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
    /// Bytes cut from the first corrupt segment (torn tail, flipped bits).
    pub truncated_bytes: u64,
    /// Whole segments discarded because they followed a corrupt record.
    pub dropped_segments: usize,
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
        self.truncated_bytes == 0
            && self.dropped_segments == 0
            && self.corruption.is_none()
            && self.snapshots_skipped == 0
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
    active: File,
    active_index: u64,
    active_len: u64,
    appended: u64,
    syncs: u64,
    config: JournalConfig,
}

impl DiskJournal {
    /// Creates a fresh journal directory for `spec`: writes and fsyncs
    /// `spec.gdrj`, then opens the first event segment.  Fails if the
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
        let active = File::create(dir.join(segment_name(0)))?;
        Ok(DiskJournal::assemble(dir, active, 0, 0, config))
    }

    fn assemble(
        dir: PathBuf,
        active: File,
        active_index: u64,
        active_len: u64,
        config: JournalConfig,
    ) -> DiskJournal {
        DiskJournal {
            dir,
            active,
            active_index,
            active_len,
            appended: 0,
            syncs: 0,
            config,
        }
    }

    /// Whether `dir` holds a journal (i.e. a spec record was written).
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(SPEC_FILE).is_file()
    }

    /// Reads a journal directory back, truncating corrupt tails **on disk**
    /// (the offending segment is cut to its last valid record and every
    /// later segment is removed) so subsequent appends restart from a
    /// consistent prefix.  Unusable checkpoint files, and the temp files of
    /// checkpoint writes that never reached their rename, are deleted and
    /// skipped.  Only a missing or corrupt spec record is fatal.
    pub fn load(dir: impl AsRef<Path>) -> Result<LoadedJournal, JournalError> {
        let dir = dir.as_ref();
        let spec_bytes = fs::read(dir.join(SPEC_FILE))?;
        let (spec, spec_record) = codec::unframe(&spec_bytes)
            .map_err(|e| e.detail)
            .and_then(|payload| Ok((decode_spec(payload)?, payload.to_vec())))
            .map_err(|detail| JournalError::Corrupt {
                detail: format!("spec record: {detail}"),
            })?;

        let mut recovery = RecoveryReport::default();
        let mut events = Vec::new();
        let mut segments = Vec::new();
        for entry in fs::read_dir(dir)?.filter_map(|entry| entry.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(index) = segment_index(&name) {
                segments.push(index);
            } else if name
                .strip_suffix(TMP_SUFFIX)
                .is_some_and(|snap| snapshot_events(snap).is_some())
            {
                // A checkpoint write cut before its rename: never adopted.
                fs::remove_file(entry.path()).ok();
            }
        }
        segments.sort_unstable();
        let mut stop_after: Option<usize> = None;
        for (position, &index) in segments.iter().enumerate() {
            let path = dir.join(segment_name(index));
            if stop_after.is_some() {
                // Everything after a corrupt record is untrusted: the append
                // order is strictly sequential, so later segments cannot
                // hold valid state for a prefix that was cut.
                recovery.dropped_segments += 1;
                fs::remove_file(&path)?;
                continue;
            }
            let bytes = fs::read(&path)?;
            let scan = scan_records(&bytes);
            for payload in &scan.payloads {
                let event = decode_event(payload).map_err(|detail| JournalError::Corrupt {
                    detail: format!("{}: undecodable event: {detail}", path.display()),
                })?;
                events.push(event);
            }
            if let Some(detail) = scan.corruption {
                recovery.truncated_bytes += (bytes.len() - scan.valid_len) as u64;
                recovery.corruption = Some(format!("{}: {detail}", path.display()));
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(scan.valid_len as u64)?;
                file.sync_all()?;
                stop_after = Some(position);
            }
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

    /// Loads a journal directory and positions an append handle at its end
    /// (the last valid segment, post-truncation).
    pub fn open(
        dir: impl Into<PathBuf>,
        config: JournalConfig,
    ) -> Result<(DiskJournal, LoadedJournal), JournalError> {
        let dir = dir.into();
        let loaded = DiskJournal::load(&dir)?;
        let mut last_index = 0u64;
        for entry in fs::read_dir(&dir)? {
            if let Some(index) = entry
                .ok()
                .and_then(|e| segment_index(&e.file_name().to_string_lossy()))
            {
                last_index = last_index.max(index);
            }
        }
        let path = dir.join(segment_name(last_index));
        let active = OpenOptions::new().create(true).append(true).open(&path)?;
        let active_len = active.metadata()?.len();
        let journal = DiskJournal::assemble(dir, active, last_index, active_len, config);
        Ok((journal, loaded))
    }

    /// The journal's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one event record, rolling the segment when it is full.  Under
    /// [`FsyncPolicy::EveryRecord`] the record is on stable storage when
    /// this returns.
    pub fn append(&mut self, event: &TranscriptEvent) -> Result<(), JournalError> {
        let record = codec::frame(&encode_event(event));
        if self.active_len > 0
            && self.active_len + record.len() as u64 > self.config.segment_max_bytes
        {
            // Seal the active segment: sync it regardless of policy (a
            // segment boundary is a durability point), then start the next.
            self.sync()?;
            self.active_index += 1;
            self.active = File::create(self.dir.join(segment_name(self.active_index)))?;
            self.active_len = 0;
        }
        self.active.write_all(&record)?;
        self.active_len += record.len() as u64;
        self.appended += 1;
        if self.config.fsync == FsyncPolicy::EveryRecord {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.active.sync_all()?;
        self.syncs += 1;
        Ok(())
    }

    /// Records appended through this handle.
    pub fn appends(&self) -> u64 {
        self.appended
    }

    /// fsyncs issued through this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Persists a compaction checkpoint covering the first `events`
    /// transcript events: `frame`, the session's
    /// [`TeamSession::to_snapshot_bytes`], as `snap-NNNNNN.gdrs`, via
    /// write-to-temp + fsync + atomic rename.  Older checkpoints beyond
    /// `SNAPSHOTS_KEPT` are pruned.
    pub fn record_checkpoint(&mut self, events: usize, frame: &[u8]) -> Result<(), JournalError> {
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
}

impl Drop for DiskJournal {
    fn drop(&mut self) {
        // Best-effort: an evicted or closing session should not lose its
        // tail to a missing final sync under `FsyncPolicy::Never`.
        let _ = self.active.sync_all();
    }
}

// ---- fault injection ------------------------------------------------------

/// Test support: IO fault injection at exact byte boundaries.
pub mod fault {
    use std::io::{self, Write};

    /// How a [`FaultyWriter`] misbehaves once its budget is spent.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FaultMode {
        /// Every write past the budget fails with an IO error (a killed
        /// process / yanked disk).
        Kill,
        /// The boundary write is silently truncated mid-record, then all
        /// later writes fail (a torn page).
        Torn,
    }

    /// An `io::Write` wrapper that lets exactly `budget` bytes through and
    /// then injects the configured fault — the building block for crash
    /// tests that cut a journal at every byte boundary.
    #[derive(Debug)]
    pub struct FaultyWriter<W> {
        inner: W,
        budget: usize,
        mode: FaultMode,
        tripped: bool,
    }

    impl<W: Write> FaultyWriter<W> {
        /// Wraps `inner`, allowing `budget` bytes before injecting `mode`.
        pub fn new(inner: W, budget: usize, mode: FaultMode) -> FaultyWriter<W> {
            FaultyWriter {
                inner,
                budget,
                mode,
                tripped: false,
            }
        }

        /// Whether the fault has fired yet.
        pub fn tripped(&self) -> bool {
            self.tripped
        }

        /// Unwraps the inner writer.
        pub fn into_inner(self) -> W {
            self.inner
        }
    }

    impl<W: Write> Write for FaultyWriter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.tripped || (self.budget == 0 && !buf.is_empty()) {
                self.tripped = true;
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected write fault",
                ));
            }
            if buf.len() <= self.budget {
                self.budget -= buf.len();
                return self.inner.write(buf);
            }
            let allowed = self.budget;
            self.budget = 0;
            self.tripped = true;
            match self.mode {
                // A short write: the caller sees partial success once, and
                // any retry of the remainder fails.
                FaultMode::Torn => self.inner.write(&buf[..allowed]),
                FaultMode::Kill => Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected write fault",
                )),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fault::{FaultMode, FaultyWriter};
    use super::*;
    use gdr_core::config::GdrConfig;
    use gdr_core::fixture;
    use gdr_core::strategy::Strategy;
    use gdr_core::team::{Resolution, TeamConfig};
    use gdr_relation::{Table, Value};
    use gdr_repair::Feedback;
    use std::io::Write;

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
                decoded.rules.weight(id).to_bits(),
                spec.rules.weight(id).to_bits(),
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
            let journal = crate::store::SessionJournal::new(spec.clone());
            journal.replay().unwrap()
        };
        let b = {
            let journal = crate::store::SessionJournal::new(decoded);
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
            team_digest(&crate::store::SessionJournal::new(spec).replay().unwrap())
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
    fn faulty_writer_kills_and_tears_at_the_boundary() {
        let record = codec::frame(&encode_event(&TranscriptEvent::Answered(
            7,
            Feedback::Confirm,
        )));
        // Kill: nothing past the budget lands.
        for budget in 0..=record.len() {
            let mut writer = FaultyWriter::new(Vec::new(), budget, FaultMode::Kill);
            let outcome = writer.write_all(&record);
            let inner = writer.into_inner();
            if budget >= record.len() {
                outcome.expect("full budget writes cleanly");
                assert_eq!(inner, record);
            } else {
                outcome.expect_err("short budget must fail");
                let scan = scan_records(&inner);
                assert!(scan.payloads.is_empty());
            }
        }
        // Torn: the boundary write lands partially, and the scanner then
        // rejects the partial record.
        let mut writer = FaultyWriter::new(Vec::new(), record.len() / 2, FaultMode::Torn);
        let _ = writer.write_all(&record);
        assert!(writer.tripped());
        let inner = writer.into_inner();
        assert_eq!(inner.len(), record.len() / 2);
        let scan = scan_records(&inner);
        assert!(scan.payloads.is_empty());
        assert!(scan.corruption.is_some());
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
