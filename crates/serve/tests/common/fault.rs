//! IO fault injection at exact byte boundaries, for the crash-recovery
//! suite: a writer that lets a byte budget through and then fails or tears
//! the write that crosses it.

use std::io::{self, Write};

use gdr_relation::codec;
use gdr_repair::Feedback;
use gdr_serve::journal::{encode_event, scan_records};
use gdr_serve::store::TranscriptEvent;

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
