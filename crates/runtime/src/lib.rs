//! Shared runtime plane for the RHMD reproduction.
//!
//! These modules started life scattered across `rhmd-core` (errors) and
//! `rhmd-bench` (durable I/O, checkpoint journals), which pinned them near
//! the top of the crate graph. The on-disk corpus store (`rhmd_data::store`)
//! needs all three from *below* `rhmd-core`, so they live here — just above
//! `rhmd-trace`. The thread pool and the options the binaries share moved
//! here from `rhmd-bench` too, so the CLI does not link the figure harness:
//!
//! * [`error::RhmdError`] — the typed error hierarchy (also re-exported as
//!   `rhmd_core::RhmdError`);
//! * [`durable`] — atomic writes, checksummed payloads, seeded I/O fault
//!   plane with bounded retry;
//! * [`ckpt`] — manifest-guarded journals for crash-tolerant, bit-identical
//!   resume;
//! * [`pool`] — the one work-stealing parallel map;
//! * [`metrics`] and [`write_help`] — what the binaries share.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ckpt;
pub mod durable;
pub mod error;
pub mod metrics;
pub mod pool;

pub use error::RhmdError;

use std::io::{self, Write};

/// Writes `text` and a newline to `out`, treating a closed pipe as
/// success: a reader that stops early (`repro --help | head -1`) is not an
/// error.
///
/// # Errors
///
/// Any write error other than [`io::ErrorKind::BrokenPipe`].
pub fn write_help(out: &mut impl Write, text: &str) -> io::Result<()> {
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer whose reader has gone away.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn help_into_a_closed_pipe_succeeds() {
        assert!(write_help(&mut ClosedPipe, "usage").is_ok());
        let mut buf = Vec::new();
        write_help(&mut buf, "usage").unwrap();
        assert_eq!(buf, b"usage\n");
        // Other failures still surface.
        let mut full = [0u8; 4];
        let err = write_help(&mut &mut full[..], "usage").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
