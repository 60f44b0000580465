//! Decoder robustness: no byte sequence on disk can panic the journal
//! decoders.  Arbitrary bytes, every truncation and every single-bit flip of
//! a recorded segment, spec and checkpoint — and of the event and spec
//! payloads inside them — go to `scan_records`, `decode_event`,
//! `decode_spec`, `decode_checkpoint` and `DiskJournal::load`.  Each must return a valid
//! prefix, `Ok` or `Err`, and never panic; a frame whose length field claims
//! far more bytes than follow it is rejected without allocating for it.

mod common;

use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use common::{drive_one, figure1_spec, TempDir};
use gdr_core::oracle::GroundTruthOracle;
use gdr_core::strategy::Strategy as GdrStrategy;
use gdr_relation::codec::{self, fnv1a64};
use gdr_serve::journal::{
    decode_checkpoint, decode_event, decode_spec, scan_records, DiskJournal, FsyncPolicy,
    JournalConfig,
};
use gdr_serve::store::SessionOptions;
use proptest::prelude::*;

/// The files of one recorded durable session.
struct Recorded {
    spec: Vec<u8>,
    segment: Vec<u8>,
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
                segment_max_bytes: 1 << 20,
                compact_every: 8,
                validate_compaction: true,
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
        }
    })
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
    for file in [&recorded.spec, &recorded.segment, &recorded.checkpoint] {
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
    for event in scan_records(&recorded.segment).payloads {
        every_cut_and_flip(event, |payload| {
            let _ = decode_event(payload);
        });
    }
}

#[test]
fn a_length_field_claiming_more_than_follows_is_rejected() {
    let recorded = recorded();
    for claimed in [u64::MAX, usize::MAX as u64 / 2, 1 << 40] {
        let bogus = format!("S1 {claimed} {:016x} tiny", fnv1a64(b"tiny")).into_bytes();
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

proptest! {
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
