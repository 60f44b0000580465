//! Decoder robustness: no byte sequence on disk or on the wire can panic a
//! decoder.
//!
//! On disk: arbitrary bytes, every truncation and every single-bit flip of
//! a recorded segment (solo, and a team one whose `*_as` records carry
//! resolutions), spec and checkpoint — and of the event and spec payloads
//! inside them — go to `scan_records`, `decode_event`, `decode_spec`,
//! `decode_checkpoint` and `DiskJournal::load`.  Each must return a valid
//! prefix, `Ok` or `Err`, and never panic; a frame or a resolution list
//! whose length claims far more than follows is rejected without
//! allocating for it.  A state section of another version is refused,
//! naming the section: in a checkpoint, which recovery then skips, and in a
//! spec record, which fails only its own session.  So is an event record of
//! a retired layout, and so is a session written in the retired `S1` frame
//! format; each fails only its own session.
//!
//! On the wire: arbitrary bytes (refused unless valid UTF-8, as a
//! connection reads a line), and every truncation and single-byte substitution of a golden
//! frame of every protocol message, go to `Json::parse`,
//! `decode_request_frame` and `decode_response_frame`.  Each must return
//! `Ok` or `Err`, never panic.
mod common;

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use common::{drive_one, figure1_spec, TempDir};
use gdr_cfd::{Cfd, RuleSet};
use gdr_core::error::GdrError;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::step::{DoneReason, WorkPlan};
use gdr_core::strategy::Strategy as GdrStrategy;
use gdr_core::team::{ConflictPolicy, Resolution, TeamPlan, TeamSession};
use gdr_relation::codec::{self, fnv1a64, Dec, Enc, State, FRAME_MAGIC};
use gdr_relation::Value;
use gdr_repair::Feedback;
use gdr_serve::journal::{
    decode_checkpoint, decode_event, decode_spec, scan_records, session_dir_name, session_shard,
    DiskJournal, FsyncPolicy, JournalConfig, JournalError,
};
use gdr_serve::json::Json;
use gdr_serve::store::{
    DurabilityConfig, SessionOptions, SessionStore, StoreError, TranscriptEvent,
};
use gdr_serve::wire::{
    decode_request_frame, decode_response_frame, encode_request_frame, encode_response_frame,
    Request, Response, WireError, WireEval, WireGroup, WireLease, WireTarget,
};
use proptest::prelude::*;

/// The files of one recorded durable session.
struct Recorded {
    spec: Vec<u8>,
    segment: Vec<u8>,
    /// The segment of a team session ([`record_team_segment`]).
    team_segment: Vec<u8>,
    checkpoint: Vec<u8>,
    /// The checkpoint's file name, which says how many events it covers.
    checkpoint_name: String,
}

fn recorded() -> &'static Recorded {
    static RECORDED: OnceLock<Recorded> = OnceLock::new();
    RECORDED.get_or_init(|| {
        let dir = TempDir::new("robust-ref");
        let spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
        let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("truth"));
        let mut session = SessionOptions::new()
            .journal(JournalConfig {
                fsync: FsyncPolicy::Never,
                compact_every: 8,
            })
            .durable(dir.path())
            .open(spec)
            .expect("open durable");
        while drive_one(&mut session, &oracle) {}
        session.finish().expect("finish");
        drop(session);
        let checkpoint_name = fs::read_dir(dir.path())
            .expect("read_dir")
            .map(|entry| {
                entry
                    .expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf8")
            })
            .filter(|name| name.ends_with(".gdrs"))
            .max()
            .expect("a checkpoint was recorded");
        Recorded {
            spec: fs::read(dir.join("spec.gdrj")).expect("read spec"),
            segment: fs::read(dir.join("seg-000000.gdrj")).expect("read segment"),
            checkpoint: fs::read(dir.join(&checkpoint_name)).expect("read checkpoint"),
            checkpoint_name,
            team_segment: record_team_segment(),
        }
    })
}

/// The segment of a durable two-reviewer `Majority { k: 2 }` Figure 1
/// session, driven until three resolutions are committed: a first vote's
/// `*_as` record carries none, a deciding vote's the resolutions it
/// committed.
fn record_team_segment() -> Vec<u8> {
    let dir = TempDir::new("robust-team");
    let mut spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
    spec.team.policy = ConflictPolicy::Majority { k: 2 };
    let mut session = SessionOptions::new()
        .journal(JournalConfig {
            fsync: FsyncPolicy::Never,
            compact_every: 0,
        })
        .durable(dir.path())
        .open(spec)
        .expect("open durable team");
    while session.team().resolutions().len() < 3 {
        for reviewer in ["a", "b"] {
            match session.lease(reviewer).expect("lease") {
                TeamPlan::Ask { id, .. } => {
                    session
                        .answer_as(reviewer, id, Feedback::Confirm)
                        .expect("answer_as");
                }
                TeamPlan::Fix { id, .. } => session.skip_as(reviewer, id).expect("skip_as"),
                TeamPlan::Wait => {}
                TeamPlan::Done(reason) => panic!("concluded early: {reason:?}"),
            }
        }
    }
    drop(session);
    let segment = fs::read(dir.join("seg-000000.gdrj")).expect("read team segment");
    assert!(
        scan_records(&segment)
            .payloads
            .iter()
            .any(|payload| matches!(
                decode_event(payload),
                Ok(TranscriptEvent::AnsweredAs { resolved, .. }) if !resolved.is_empty()
            )),
        "the team segment carries a resolution"
    );
    segment
}

/// Feeds `bytes` to every pure decoder.  The scan must return a prefix that
/// re-scans cleanly; the decoders may return anything but a panic.
fn decode_everything(bytes: &[u8]) {
    let scan = scan_records(bytes);
    assert!(scan.valid_len <= bytes.len());
    assert_eq!(scan.corruption.is_none(), scan.valid_len == bytes.len());
    let again = scan_records(&bytes[..scan.valid_len]);
    assert!(again.corruption.is_none());
    assert_eq!(again.payloads, scan.payloads);
    for payload in &scan.payloads {
        let _ = decode_event(payload);
        let _ = decode_spec(payload);
    }
    let _ = decode_event(bytes);
    let _ = decode_spec(bytes);
    let _ = decode_checkpoint(bytes);
}

/// Every truncation and every single-bit flip of `bytes`, each handed to
/// `check`.
fn every_cut_and_flip(bytes: &[u8], mut check: impl FnMut(&[u8])) {
    for cut in 0..bytes.len() {
        check(&bytes[..cut]);
    }
    let mut damaged = bytes.to_vec();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            damaged[at] ^= 1 << bit;
            check(&damaged);
            damaged[at] ^= 1 << bit;
        }
    }
}

/// Loads a journal directory holding `spec`, `segment` and, when given, a
/// checkpoint: `Ok` or `Err`, never a panic — and `Ok` whenever the spec is
/// the recorded one, because only the spec is fatal.
fn load_dir(spec: &[u8], segment: &[u8], checkpoint: Option<&[u8]>) {
    let dir = TempDir::new("robust-load");
    fs::write(dir.join("spec.gdrj"), spec).expect("write spec");
    fs::write(dir.join("seg-000000.gdrj"), segment).expect("write segment");
    if let Some(checkpoint) = checkpoint {
        fs::write(dir.join(&recorded().checkpoint_name), checkpoint).expect("write checkpoint");
    }
    let loaded = DiskJournal::load(dir.path());
    if spec == recorded().spec {
        let loaded = loaded.expect("a journal with an intact spec loads");
        assert!(loaded.events.len() <= scan_records(segment).payloads.len());
    }
    assert_loads_again_clean(dir.path());
}

/// The repair [`DiskJournal::load`] writes back is idempotent.
fn assert_loads_again_clean(dir: &Path) {
    if let Ok(loaded) = DiskJournal::load(dir) {
        assert!(loaded.recovery.clean(), "{:?}", loaded.recovery);
    }
}

#[test]
fn every_cut_and_flip_of_the_recorded_files_decodes_or_errs() {
    let recorded = recorded();
    for file in [
        &recorded.spec,
        &recorded.segment,
        &recorded.team_segment,
        &recorded.checkpoint,
    ] {
        every_cut_and_flip(file, decode_everything);
    }
}

#[test]
fn every_cut_and_flip_of_the_recorded_payloads_decodes_or_errs() {
    let recorded = recorded();
    let spec = codec::unframe(&recorded.spec).expect("recorded spec frame");
    every_cut_and_flip(spec, |payload| {
        let _ = decode_spec(payload);
    });
    let segments = [&recorded.segment, &recorded.team_segment];
    for event in segments.into_iter().flat_map(|s| scan_records(s).payloads) {
        every_cut_and_flip(event, |payload| {
            let _ = decode_event(payload);
        });
    }
}

#[test]
fn a_length_field_claiming_more_than_follows_is_rejected() {
    let recorded = recorded();
    for claimed in [u64::MAX, usize::MAX as u64 / 2, 1 << 40] {
        let bogus = format!("{FRAME_MAGIC} {claimed} {:016x} tiny", fnv1a64(b"tiny")).into_bytes();
        assert!(codec::read_frame(&bogus).is_err());
        decode_everything(&bogus);
        let mut stream = recorded.segment.clone();
        stream.extend_from_slice(&bogus);
        let scan = scan_records(&stream);
        assert_eq!(scan.valid_len, recorded.segment.len());
        assert!(scan.corruption.is_some());
        load_dir(&recorded.spec, &stream, Some(&bogus));
        load_dir(&bogus, &recorded.segment, None);
    }
}

/// Event payloads of retired layouts: tag 11, the separate resolution
/// record, and the team verbs (tags 7, 8 and 9) without their count of
/// carried resolutions.
fn retired_event_payloads() -> Vec<Vec<u8>> {
    let team_verb = |tag: u8, field: &dyn Fn(&mut Enc)| {
        let mut enc = Enc::new();
        enc.u8(tag);
        enc.str("a");
        enc.u64(1);
        field(&mut enc);
        enc.into_bytes()
    };
    let mut resolved = Enc::new();
    resolved.u8(11);
    resolved.usize(0);
    Resolution::Skip { cell: (0, 0) }.encode_state(&mut resolved);
    vec![
        resolved.into_bytes(),
        team_verb(7, &|enc| Feedback::Confirm.encode_state(enc)),
        team_verb(8, &|enc| enc.value(&Value::from("Boaz"))),
        team_verb(9, &|_| {}),
    ]
}

/// A record of a retired layout behind a valid frame is refused as a typed
/// `Corrupt` journal, without a panic and without a compatibility decode,
/// and it fails only its own session: a sibling under the same store root
/// still serves.
#[test]
fn a_retired_event_layout_fails_only_its_session() {
    let recorded = recorded();
    for payload in retired_event_payloads() {
        assert!(decode_event(&payload).is_err(), "{payload:?} decoded");
        let dir = TempDir::new("robust-retired");
        let mut segment = recorded.segment.clone();
        segment.extend(codec::frame(&payload));
        fs::write(dir.join("spec.gdrj"), &recorded.spec).expect("write spec");
        fs::write(dir.join("seg-000000.gdrj"), &segment).expect("write segment");
        match DiskJournal::load(dir.path()) {
            Err(JournalError::Corrupt { detail }) => {
                assert!(detail.contains("undecodable event"), "{detail}");
            }
            Err(other) => panic!("expected a corrupt journal, got {other}"),
            Ok(_) => panic!("a retired record loaded"),
        }

        let root = TempDir::new("robust-retired-store");
        let store = SessionStore::durable(DurabilityConfig::new(root.path())).expect("store");
        for id in ["retired", "sibling"] {
            drop(
                store
                    .open(id, figure1_spec(GdrStrategy::GdrNoLearning, true))
                    .expect("open"),
            );
        }
        drop(store);
        let dir = root
            .path()
            .join(session_shard("retired"))
            .join(session_dir_name("retired"));
        fs::write(dir.join("seg-000000.gdrj"), codec::frame(&payload)).expect("write segment");

        let store = SessionStore::durable(DurabilityConfig::new(root.path())).expect("store");
        match store.get("retired") {
            Err(StoreError::Gdr(GdrError::Journal { detail })) => {
                assert!(detail.contains("undecodable event"), "{detail}");
            }
            Err(other) => panic!("expected a journal error, got {other:?}"),
            Ok(_) => panic!("a retired record was served"),
        }
        let sibling = store.get("sibling").expect("the sibling rehydrates");
        let mut sibling = sibling.lock().expect("session lock");
        assert!(!matches!(
            sibling.next().expect("the sibling serves"),
            WorkPlan::Done(_)
        ));
    }
}

/// `bytes`, a stream of frames, with every frame's magic rewritten to
/// `magic`.
fn with_frame_magic(bytes: &[u8], magic: &str) -> Vec<u8> {
    let mut rewritten = Vec::with_capacity(bytes.len());
    let mut rest = bytes;
    while !rest.is_empty() {
        let (_, used) = codec::read_frame(rest).expect("a recorded frame");
        let frame = &rest[..used];
        rewritten.extend_from_slice(magic.as_bytes());
        rewritten.extend_from_slice(&frame[FRAME_MAGIC.len()..]);
        rest = &rest[used..];
    }
    rewritten
}

/// Every file of a durable session rewritten to the retired `S1` frame
/// magic (fixed-width integers) is refused as a whole: `get` returns a
/// typed journal error naming the format, without a panic and without a
/// compatibility decode; the session's files are left as they were; and a
/// sibling session under the same store root still serves.
#[test]
fn an_s1_session_fails_only_its_session_naming_the_format() {
    let root = TempDir::new("robust-s1");
    let mut config = DurabilityConfig::new(root.path());
    config.journal = JournalConfig {
        fsync: FsyncPolicy::Never,
        compact_every: 8,
    };
    let store = SessionStore::durable(config.clone()).expect("store");
    for id in ["old", "sibling"] {
        let spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
        let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("truth"));
        let session = store.open(id, spec).expect("open");
        let mut session = session.lock().expect("session lock");
        for _ in 0..12 {
            drive_one(&mut session, &oracle);
        }
    }
    drop(store);
    let dir = root
        .path()
        .join(session_shard("old"))
        .join(session_dir_name("old"));
    let mut rewritten = Vec::new();
    for entry in fs::read_dir(&dir).expect("read_dir") {
        let path = entry.expect("entry").path();
        let old = with_frame_magic(&fs::read(&path).expect("read"), "S1");
        fs::write(&path, &old).expect("rewrite");
        rewritten.push((path, old));
    }
    let names: Vec<String> = rewritten
        .iter()
        .map(|(path, _)| path.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert!(
        names.iter().any(|name| name.ends_with(".gdrs")),
        "{names:?}"
    );

    let store = SessionStore::durable(config).expect("store");
    match store.get("old") {
        Err(StoreError::Gdr(GdrError::Journal { detail })) => {
            assert!(detail.contains("bad frame magic `S1`"), "{detail}");
            assert!(detail.contains(&format!("`{FRAME_MAGIC}`")), "{detail}");
        }
        Err(other) => panic!("expected a journal error, got {other:?}"),
        Ok(_) => panic!("an S1 session was served"),
    }
    for (path, old) in &rewritten {
        assert_eq!(&fs::read(path).expect("read"), old, "{}", path.display());
    }
    let sibling = store.get("sibling").expect("the sibling rehydrates");
    let mut sibling = sibling.lock().expect("session lock");
    assert!(!matches!(
        sibling.next().expect("the sibling serves"),
        WorkPlan::Done(_)
    ));
}

/// A resolution count claiming more pairs than the bytes that follow could
/// hold errs at the count, before any pair is decoded or allocated.
#[test]
fn a_huge_resolved_count_is_rejected() {
    for claimed in [u64::MAX, usize::MAX as u64 / 2, 1 << 40, 2] {
        let mut enc = Enc::new();
        enc.u8(9);
        enc.str("a");
        enc.u64(1);
        enc.u64(claimed);
        enc.usize(0);
        enc.u8(2);
        let payload = enc.into_bytes();
        let detail = decode_event(&payload).expect_err("a huge count decoded");
        assert!(detail.contains("implausible collection length"), "{detail}");
        decode_everything(&codec::frame(&payload));
    }
}

/// A checkpoint payload behind a valid checksum that names a rule attribute
/// past the table's arity is rejected, not trusted: the violation engine's
/// decoder must return `Err` where resolving the rule would index out of
/// bounds.
#[test]
fn a_checkpoint_rule_past_the_table_arity_is_rejected() {
    let spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
    let arity = spec.dirty.schema().arity();
    let session = SessionOptions::new().open(spec.clone()).expect("open");
    let payload = codec::unframe(&session.team().to_snapshot_bytes())
        .expect("snapshot frame")
        .to_vec();
    let encode = |rules: &RuleSet| {
        let mut enc = Enc::new();
        rules.encode_state(&mut enc);
        enc.into_bytes()
    };
    let mut rules: Vec<Cfd> = spec.rules.iter().map(|(_, rule)| rule.clone()).collect();
    rules[0] = Cfd::new(
        rules[0].name(),
        rules[0].lhs().to_vec(),
        rules[0].lhs_pattern().to_vec(),
        arity,
        rules[0].rhs_pattern().clone(),
    )
    .expect("well-formed apart from the arity");
    let (valid, pushed) = (encode(&spec.rules), encode(&RuleSet::new(rules)));
    assert_eq!(valid.len(), pushed.len());
    let at = payload
        .windows(valid.len())
        .position(|window| window == valid)
        .expect("the engine's rules are in the checkpoint");
    let mut damaged = payload;
    damaged[at..at + valid.len()].copy_from_slice(&pushed);
    assert!(TeamSession::from_snapshot_bytes(&codec::frame(&damaged)).is_err());
}

/// The checkpoint payload of a freshly opened Figure 1 session, the offset
/// of its violation engine's row count in it, and the table's row count.
fn engine_row_count_site() -> (Vec<u8>, usize, usize) {
    let spec = figure1_spec(GdrStrategy::GdrNoLearning, true);
    let (rows, arity) = (spec.dirty.len(), spec.dirty.schema().arity());
    let session = SessionOptions::new().open(spec).expect("open");
    let payload = codec::unframe(&session.team().to_snapshot_bytes())
        .expect("snapshot frame")
        .to_vec();
    let engine = session.team().engine().state().engine();
    let mut enc = Enc::new();
    engine.encode_state(&mut enc);
    let whole = enc.into_bytes();
    // The engine opens with its section header, its rules and the table's
    // arity; the row count follows.
    let mut enc = Enc::new();
    enc.section("vioeng", 1);
    engine.ruleset().encode_state(&mut enc);
    enc.usize(arity);
    let header = enc.into_bytes().len();
    let at = payload
        .windows(whole.len())
        .position(|window| window == whole)
        .expect("the engine is in the checkpoint");
    (payload, at + header, rows)
}

/// `bytes` with the varint at `at` replaced by `value`'s, whatever the
/// width of either.
fn splice_varint(bytes: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut dec = Dec::new(&bytes[at..]);
    dec.u64().expect("a varint at the site");
    let end = bytes.len() - dec.remaining();
    let mut enc = Enc::new();
    enc.u64(value);
    let mut spliced = bytes.to_vec();
    spliced.splice(at..end, enc.into_bytes());
    spliced
}

/// A checkpoint whose violation engine claims a row count other than its
/// table's is rejected before the engine sizes anything from it.
#[test]
fn a_checkpoint_engine_row_count_other_than_the_table_is_rejected() {
    let (payload, at, rows) = engine_row_count_site();
    for claimed in [rows as u64 + 1, rows as u64 - 1, 0, u64::MAX >> 1] {
        let damaged = splice_varint(&payload, at, claimed);
        assert!(
            TeamSession::from_snapshot_bytes(&codec::frame(&damaged)).is_err(),
            "row count {claimed}"
        );
    }
}

/// A checkpoint whose violation engine names a tuple id at or past the
/// table's row count is rejected: the first constant rule's first
/// violating tuple is pushed out of range.
#[test]
fn a_checkpoint_engine_tuple_past_the_table_is_rejected() {
    let (payload, at, rows) = engine_row_count_site();
    // Row count, rule-state count, then rule 0's kind tag and its
    // violating-tuple count, each a varint but the tag.
    let mut dec = Dec::new(&payload[at..]);
    assert_eq!(dec.usize().expect("row count"), rows);
    dec.usize().expect("rule-state count");
    assert_eq!(
        dec.u8().expect("kind tag"),
        0,
        "Figure 1's first rule is constant"
    );
    let count = dec.usize().expect("violating-tuple count");
    assert!(
        count > 0,
        "the dirty instance violates Figure 1's first rule"
    );
    let first = payload.len() - dec.remaining();
    for tuple in [rows as u64, rows as u64 + 7, u64::MAX >> 1] {
        let damaged = splice_varint(&payload, first, tuple);
        assert!(
            TeamSession::from_snapshot_bytes(&codec::frame(&damaged)).is_err(),
            "tuple id {tuple}"
        );
    }
}

/// The tag of every versioned state section a session checkpoint can hold.
const CHECKPOINT_SECTIONS: &[&str] = &[
    "team", "engine", "config", "rules", "table", "dict", "vioeng", "repair", "idxpool", "asidx",
    "models", "learner", "forest", "tree", "dataset", "eval",
];

/// The tag of every versioned state section a spec record holds.
const SPEC_SECTIONS: &[&str] = &["spec", "table", "dict", "rules", "config"];

/// Rewrites every header of `sections` in `payload` to other versions,
/// re-frames each copy behind a valid checksum, and asserts that `decode`
/// errs on each, naming the section.  Returns the tags found and the
/// re-framed copies.
fn assert_other_versions_rejected<T>(
    payload: &[u8],
    sections: &[&'static str],
    decode: impl Fn(&[u8]) -> Result<T, String>,
) -> (Vec<&'static str>, Vec<Vec<u8>>) {
    assert!(decode(payload).is_ok());
    let mut found = Vec::new();
    let mut frames = Vec::new();
    for &tag in sections {
        let mut enc = Enc::new();
        enc.str(tag);
        let name = enc.into_bytes();
        let sites: Vec<usize> = payload
            .windows(name.len())
            .enumerate()
            .filter(|(_, window)| *window == name.as_slice())
            .map(|(at, _)| at + name.len())
            .collect();
        for &at in &sites {
            let version = Dec::new(&payload[at..]).u16().expect("section version");
            for other in [
                0,
                version.wrapping_sub(1),
                version.wrapping_add(1),
                u16::MAX,
            ] {
                if other == version {
                    continue;
                }
                let damaged = splice_varint(payload, at, other.into());
                let Err(detail) = decode(&damaged) else {
                    panic!("section `{tag}` at version {other} decoded");
                };
                assert!(detail.contains(&format!("`{tag}`")), "{detail}");
                frames.push(codec::frame(&damaged));
            }
        }
        if !sites.is_empty() {
            found.push(tag);
        }
    }
    (found, frames)
}

/// Decodes a checkpoint payload the way recovery does, from its frame.
fn decode_checkpoint_payload(payload: &[u8]) -> Result<TeamSession, String> {
    TeamSession::from_snapshot_bytes(&codec::frame(payload)).map_err(|err| err.detail)
}

/// Every section header of a checkpoint, rewritten to any other version, is
/// refused: each decoder accepts exactly the version it writes, so a
/// checkpoint of another format errs instead of being misread, and loading
/// the journal skips it and falls back to replay.  The recorded
/// `GdrNoLearning` checkpoint holds every section but the trained forests',
/// which a finished `Gdr` session supplies.
#[test]
fn a_checkpoint_section_of_another_version_is_rejected() {
    let recorded = recorded();
    let (mut found, frames) = assert_other_versions_rejected(
        codec::unframe(&recorded.checkpoint).expect("frame"),
        CHECKPOINT_SECTIONS,
        decode_checkpoint_payload,
    );
    let events = scan_records(&recorded.segment).payloads.len();
    for frame in frames {
        let dir = TempDir::new("robust-version");
        fs::write(dir.join("spec.gdrj"), &recorded.spec).expect("write spec");
        fs::write(dir.join("seg-000000.gdrj"), &recorded.segment).expect("write segment");
        fs::write(dir.join(&recorded.checkpoint_name), frame).expect("write checkpoint");
        let loaded = DiskJournal::load(dir.path()).expect("the journal loads");
        assert!(loaded.checkpoint.is_none());
        assert_eq!(loaded.recovery.snapshots_skipped, 1);
        assert_eq!(loaded.events.len(), events);
    }

    let spec = figure1_spec(GdrStrategy::Gdr, true);
    let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("truth"));
    let mut session = SessionOptions::new().open(spec).expect("open");
    while drive_one(&mut session, &oracle) {}
    let learned = session.team().to_snapshot_bytes();
    let (learned_found, _) = assert_other_versions_rejected(
        codec::unframe(&learned).expect("snapshot frame"),
        CHECKPOINT_SECTIONS,
        decode_checkpoint_payload,
    );
    found.extend(learned_found);
    for tag in CHECKPOINT_SECTIONS {
        assert!(found.contains(tag), "no `{tag}` header in {found:?}");
    }
}

/// The checkpoint payload of a Figure-1 `Gdr` team session with ground
/// truth under `EscalateToNeedsValue`, stopped where every section and
/// every coordinator list is filled: a trained forest and its dataset, the
/// evaluation hooks, a live lease, a first vote, an escalated disagreement,
/// a buffered resolution and the resolution log.  Three reviewers lease in
/// turn; `c` never answers, `b` answers against the oracle on odd lease
/// ids, and only `b` types fixes.
fn full_team_checkpoint_payload() -> Vec<u8> {
    let mut spec = figure1_spec(GdrStrategy::Gdr, true);
    let oracle = GroundTruthOracle::new(spec.ground_truth.clone().expect("truth"));
    spec.team.policy = ConflictPolicy::EscalateToNeedsValue;
    spec.team.lease_ttl = 4;
    let mut session = SessionOptions::new().open(spec).expect("open");
    for reviewer in ["a", "b", "c"].into_iter().cycle().take(22) {
        match session.lease(reviewer).expect("lease") {
            TeamPlan::Ask { id, update } if reviewer != "c" => {
                let current = session
                    .engine()
                    .state()
                    .table()
                    .cell(update.tuple, update.attr);
                let truth = oracle.feedback(&update, current);
                let feedback = match (reviewer, id.raw() % 2, truth) {
                    ("b", 1, Feedback::Confirm) => Feedback::Reject,
                    ("b", 1, _) => Feedback::Confirm,
                    _ => truth,
                };
                session
                    .answer_as(reviewer, id, feedback)
                    .expect("answer_as");
            }
            TeamPlan::Fix { id, cell, current } if reviewer == "b" => {
                match oracle.correct_value(cell.0, cell.1) {
                    Some(value) if value != current => {
                        session.supply_as(reviewer, id, value).expect("supply_as");
                    }
                    _ => session.skip_as(reviewer, id).expect("skip_as"),
                }
            }
            TeamPlan::Done(reason) => panic!("concluded early: {reason:?}"),
            _ => {}
        }
    }
    assert!(!session.team().lease_table().is_empty(), "a live lease");
    assert!(session.team().resolutions().len() >= 2, "resolutions");
    let payload = session.team().state_bytes();
    for tag in CHECKPOINT_SECTIONS {
        let mut header = vec![tag.len() as u8];
        header.extend_from_slice(tag.as_bytes());
        assert!(
            payload.windows(header.len()).any(|w| w == header),
            "no `{tag}` section"
        );
    }
    payload
}

/// Every single-bit flip of a full team checkpoint's payload, re-framed
/// with a fresh checksum so the decoders rather than the frame check see
/// it, decodes through `TeamSession::from_snapshot_bytes` and
/// `decode_checkpoint` to `Ok` or `Err`: never a panic, and never an
/// allocation that aborts.
#[test]
fn every_reframed_bit_flip_of_a_team_checkpoint_decodes_or_errs() {
    let payload = full_team_checkpoint_payload();
    let mut damaged = payload.clone();
    for at in 0..payload.len() {
        for bit in 0..8 {
            damaged[at] ^= 1 << bit;
            let framed = codec::frame(&damaged);
            let outcome = std::panic::catch_unwind(|| {
                let _ = TeamSession::from_snapshot_bytes(&framed);
                let _ = decode_checkpoint(&framed);
            });
            assert!(outcome.is_ok(), "flipping bit {bit} of byte {at} panicked");
            damaged[at] ^= 1 << bit;
        }
    }
}

/// The spec record embeds the parsed table and rules and the whole
/// `GdrConfig`, and it has no fallback: a spec section of another version
/// makes `decode_spec` err, naming the section, and makes that one durable
/// session unrecoverable with a typed journal error.  A sibling session
/// under the same store root still serves.
#[test]
fn a_spec_section_of_another_version_fails_only_its_session() {
    let recorded = recorded();
    let (found, frames) = assert_other_versions_rejected(
        codec::unframe(&recorded.spec).expect("spec frame"),
        SPEC_SECTIONS,
        decode_spec,
    );
    assert_eq!(found, SPEC_SECTIONS, "spec sections found");
    for frame in frames {
        let root = TempDir::new("robust-spec-version");
        let store = SessionStore::durable(DurabilityConfig::new(root.path())).expect("store");
        for id in ["bumped", "sibling"] {
            drop(
                store
                    .open(id, figure1_spec(GdrStrategy::GdrNoLearning, true))
                    .expect("open"),
            );
        }
        drop(store);
        let dir = root
            .path()
            .join(session_shard("bumped"))
            .join(session_dir_name("bumped"));
        fs::write(dir.join("spec.gdrj"), frame).expect("write spec");

        let store = SessionStore::durable(DurabilityConfig::new(root.path())).expect("store");
        match store.get("bumped") {
            Err(StoreError::Gdr(GdrError::Journal { detail })) => {
                assert!(detail.contains("spec record"), "{detail}");
            }
            Err(other) => panic!("expected a journal error, got {other:?}"),
            Ok(_) => panic!("a spec of another version was served"),
        }
        let sibling = store.get("sibling").expect("the sibling rehydrates");
        let mut sibling = sibling.lock().expect("session lock");
        assert!(!matches!(
            sibling.next().expect("the sibling serves"),
            WorkPlan::Done(_)
        ));
    }
}

/// Which recorded file a proptest case damages.
#[derive(Debug, Clone, Copy)]
enum Target {
    Spec,
    Segment,
    Checkpoint,
}

fn damaged(target: Target, cut: usize, flip: Option<(usize, u8)>) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let recorded = recorded();
    let mut files = (
        recorded.spec.clone(),
        recorded.segment.clone(),
        recorded.checkpoint.clone(),
    );
    let file = match target {
        Target::Spec => &mut files.0,
        Target::Segment => &mut files.1,
        Target::Checkpoint => &mut files.2,
    };
    match flip {
        Some((at, bit)) => {
            let at = at % file.len();
            file[at] ^= 1 << bit;
        }
        None => file.truncate(cut % (file.len() + 1)),
    }
    files
}

fn target_strategy() -> impl Strategy<Value = Target> {
    prop_oneof![
        Just(Target::Spec),
        Just(Target::Segment),
        Just(Target::Checkpoint)
    ]
}

/// One frame of every request, response and error message, most of them
/// `seq`-tagged, with optional members both present and absent.
fn golden_frames() -> &'static [String] {
    static FRAMES: OnceLock<Vec<String>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let s = || "s".to_string();
        let requests = [
            Request::Hello { version: 2 },
            Request::Open {
                session: s(),
                table_csv: "A,B\n\"x, y\",1\n".into(),
                rules: "A -> B : x || 1\n".into(),
                strategy: GdrStrategy::GdrNoLearning,
                seed: Some(u64::MAX),
                ground_truth_csv: Some("A,B\nx,2\n".into()),
                policy: Some(ConflictPolicy::Majority { k: 2 }),
                lease_ttl: Some(16),
            },
            Request::Open {
                session: s(),
                table_csv: "A\n1\n".into(),
                rules: String::new(),
                strategy: GdrStrategy::Gdr,
                seed: None,
                ground_truth_csv: None,
                policy: None,
                lease_ttl: None,
            },
            Request::Next { session: s() },
            Request::Answer {
                session: s(),
                id: 7,
                feedback: Feedback::Confirm,
            },
            Request::Supply {
                session: s(),
                tuple: 3,
                attr: 1,
                value: Value::from("Michigan City"),
            },
            Request::Skip {
                session: s(),
                tuple: 2,
                attr: 5,
            },
            Request::Finish { session: s() },
            Request::Report { session: s() },
            Request::Restore { session: s() },
            Request::Compact { session: s() },
            Request::Lease {
                session: s(),
                reviewer: "alice".into(),
            },
            Request::AnswerAs {
                session: s(),
                reviewer: "bob".into(),
                id: u64::MAX,
                feedback: Feedback::Reject,
            },
            Request::SupplyAs {
                session: s(),
                reviewer: "carol".into(),
                id: 4,
                value: Value::Int(-3),
            },
            Request::SkipAs {
                session: s(),
                reviewer: "dave".into(),
                id: 3,
            },
            Request::Release {
                session: s(),
                reviewer: "alice".into(),
                id: 2,
            },
            Request::Leases { session: s() },
        ];
        let responses = [
            Response::Hello {
                version: 2,
                pipelining: true,
                compact: true,
                leases: true,
                max_outstanding: 64,
                lease_ttl: 32,
            },
            Response::Opened {
                session: s(),
                dirty_tuples: 4,
            },
            Response::Ask {
                id: 9,
                tuple: 3,
                attr: 1,
                current: Value::Null,
                value: Value::from("Michigan City"),
                score: 0.25,
                uncertainty: 1.0,
                group: Some(WireGroup {
                    attr: 1,
                    value: Value::Int(46360),
                    benefit: 0.0625,
                    size: 3,
                    quota: 2,
                    asked: 1,
                }),
            },
            Response::NeedValue {
                tuple: 6,
                attr: 2,
                current: Value::from("Colfax"),
            },
            Response::Done {
                reason: DoneReason::AutomaticComplete,
            },
            Response::Answered { verifications: 11 },
            Response::Supplied { verifications: 12 },
            Response::Skipped,
            Response::Report {
                verifications: 11,
                learner_decisions: 2,
                dirty_tuples: 0,
                eval: Some(WireEval {
                    initial_loss: 0.359375,
                    final_loss: 0.0,
                    improvement_pct: 100.0,
                    precision: 1.0,
                    recall: 0.875,
                }),
            },
            Response::Restored { replayed: 17 },
            Response::Compacted {
                events: 64,
                tail: 3,
            },
            Response::Leased {
                id: 9,
                tuple: 3,
                attr: 1,
                current: Value::from("Michigan Cty"),
                value: Value::from("Michigan City"),
                score: 0.25,
            },
            Response::Fix {
                id: 10,
                tuple: 6,
                attr: 2,
                current: Value::Null,
            },
            Response::Wait,
            Response::Released { held: true },
            Response::Leases {
                leases: vec![WireLease {
                    id: u64::MAX,
                    reviewer: "bob".into(),
                    tuple: 0,
                    attr: 3,
                    age: 5,
                }],
            },
            Response::Error(WireError::StaleWork {
                got: 8,
                outstanding: 7,
            }),
            Response::Error(WireError::WorkMismatch {
                verb: "supply_value".into(),
                got: WireTarget::Value(3, 1),
                outstanding: WireTarget::Ask(7),
            }),
            Response::Error(WireError::NoOutstandingWork {
                verb: "answer".into(),
            }),
            Response::Error(WireError::UnknownSession { session: s() }),
            Response::Error(WireError::DuplicateSession { session: s() }),
            Response::Error(WireError::BadRequest {
                detail: "unknown op `frob`".into(),
            }),
            Response::Error(WireError::Busy {
                max_outstanding: 64,
            }),
            Response::Error(WireError::Engine {
                detail: "unknown rule id 9".into(),
            }),
            Response::Error(WireError::Journal {
                detail: "disk full".into(),
            }),
        ];
        let mut frames = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let line = encode_request_frame(request, (i % 2 == 0).then_some(i as u64));
            assert_eq!(decode_request_frame(&line).1.as_ref(), Ok(request));
            frames.push(line);
        }
        for (i, response) in responses.iter().enumerate() {
            let line = encode_response_frame(response, (i % 2 == 0).then_some(u64::MAX - i as u64));
            assert_eq!(
                decode_response_frame(&line).map(|(_, r)| r).as_ref(),
                Ok(response)
            );
            frames.push(line);
        }
        frames
    })
}

/// Feeds `bytes` to every wire decoder when they are valid UTF-8; a
/// connection answers any other line with `bad_request` before decoding.
/// Any result but a panic passes.
fn decode_wire(bytes: &[u8]) {
    let Ok(line) = std::str::from_utf8(bytes) else {
        return;
    };
    let _ = Json::parse(line);
    let _ = decode_request_frame(line);
    let _ = decode_response_frame(line);
}

#[test]
fn every_cut_and_substitution_of_a_golden_wire_frame_decodes_or_errs() {
    for frame in golden_frames() {
        let bytes = frame.as_bytes();
        for cut in 0..bytes.len() {
            decode_wire(&bytes[..cut]);
        }
        let mut damaged = bytes.to_vec();
        for at in 0..bytes.len() {
            for byte in 0..=u8::MAX {
                damaged[at] = byte;
                decode_wire(&damaged);
            }
            damaged[at] = bytes[at];
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_wire_decoder(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        decode_wire(&bytes);
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder_or_the_loader(
        bytes in proptest::collection::vec(0u8..=255, 0..2048),
    ) {
        decode_everything(&bytes);
        let recorded = recorded();
        load_dir(&bytes, &recorded.segment, None);
        load_dir(&recorded.spec, &bytes, None);
        load_dir(&recorded.spec, &recorded.segment, Some(&bytes));
    }

    #[test]
    fn damaged_recorded_files_load_or_err(
        target in target_strategy(),
        cut in 0usize..1 << 20,
        flip in proptest::option::of((0usize..1 << 20, 0u8..8)),
    ) {
        let (spec, segment, checkpoint) = damaged(target, cut, flip);
        load_dir(&spec, &segment, Some(&checkpoint));
    }
}
