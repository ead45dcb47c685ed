//! A blocking byte-stream facade over a driven transport.
//!
//! [`BlockingStream`] wraps a [`Driver`] and exposes the transport's
//! single bidirectional stream through `std::io::Read` and
//! `std::io::Write`, pumping the event loop inside each call. This is the
//! synchronous shell around the sans-IO core: ordinary blocking
//! application code (`read_exact`, `write_all`, `io::copy`) runs over
//! Multipath QUIC on real sockets without knowing anything about
//! datagrams or timers.
//!
//! The byte-stream surface mirrors the `Transport` trait shape used by
//! the simulator experiments (`write`/`finish`/`read_chunk`/
//! `recv_finished`), so applications written against either look alike.

use bytes::{Buf, Bytes};
use mpquic_harness::Transport;
use std::io;
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::driver::Driver;
use crate::error::{Error, Result};

/// Default per-operation timeout: generous enough for multi-megabyte
/// loopback transfers under RTO backoff, small enough that a dead peer
/// fails a test run rather than hanging it.
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking bidirectional byte stream over a [`Driver`].
#[derive(Debug)]
pub struct BlockingStream<T: Transport> {
    driver: Driver<T>,
    timeout: Duration,
    /// Read-side staging: what is left of the last chunk pulled from the
    /// transport after the caller's buffer took its fill.
    pending: Bytes,
}

impl<T: Transport> BlockingStream<T> {
    /// Wraps a driver with the [`DEFAULT_OP_TIMEOUT`].
    pub fn new(driver: Driver<T>) -> BlockingStream<T> {
        BlockingStream::with_timeout(driver, DEFAULT_OP_TIMEOUT)
    }

    /// Wraps a driver with a custom per-operation timeout.
    pub fn with_timeout(driver: Driver<T>, timeout: Duration) -> BlockingStream<T> {
        BlockingStream {
            driver,
            timeout,
            pending: Bytes::new(),
        }
    }

    /// The driver underneath (stats, addresses, clock).
    pub fn driver(&self) -> &Driver<T> {
        &self.driver
    }

    /// Mutable access to the driver underneath.
    pub fn driver_mut(&mut self) -> &mut Driver<T> {
        &mut self.driver
    }

    /// Unwraps back into the driver. Any staged read bytes are discarded.
    pub fn into_driver(self) -> Driver<T> {
        self.driver
    }

    /// Blocks until the secure handshake completes
    /// ([`Error::Timeout`] on expiry).
    pub fn wait_established(&mut self) -> Result<()> {
        let reached = self
            .driver
            .run_until(self.timeout, |t| t.is_established())?;
        if reached {
            Ok(())
        } else {
            Err(Error::Timeout { op: "handshake" })
        }
    }

    /// Ends the outgoing stream (the QUIC FIN travels with the last data)
    /// and flushes whatever the congestion window allows right now.
    pub fn finish(&mut self) -> Result<()> {
        self.driver.transport_mut().finish();
        self.pump()?;
        Ok(())
    }

    /// True once the peer's end-of-stream was received and all data read.
    pub fn recv_finished(&self) -> bool {
        self.pending.is_empty() && self.driver.transport().recv_finished()
    }

    /// Runs the event loop until it goes idle (everything sendable now is
    /// on the wire, everything received is processed).
    fn pump(&mut self) -> Result<()> {
        while self.driver.step()? {}
        Ok(())
    }
}

impl<T: Transport> io::Write for BlockingStream<T> {
    /// Hands the whole buffer to the transport's send stream (the stream
    /// buffers internally; flow control applies on the wire, not here)
    /// and opportunistically pumps the event loop.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.driver
            .transport_mut()
            .write(Bytes::copy_from_slice(buf));
        self.pump().map_err(io::Error::from)?;
        Ok(buf.len())
    }

    /// Pumps until the event loop is idle: all data the window permits is
    /// handed to the OS. (Data beyond the congestion window necessarily
    /// remains queued — `flush` cannot wait for ACKs.)
    fn flush(&mut self) -> io::Result<()> {
        self.pump().map_err(io::Error::from)
    }
}

impl<T: Transport> io::Read for BlockingStream<T> {
    /// Reads at least one byte (blocking up to the operation timeout),
    /// or returns `Ok(0)` once the peer finished the stream and every
    /// byte has been consumed.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = Instant::now() + self.timeout;
        let mut backoff = Backoff::new();
        loop {
            // 1. Staged bytes from an earlier oversized chunk.
            if !self.pending.is_empty() {
                let n = self.pending.len().min(buf.len());
                buf.iter_mut()
                    .zip(self.pending.iter())
                    .for_each(|(d, s)| *d = *s);
                self.pending.advance(n);
                return Ok(n);
            }
            // 2. Fresh in-order data from the transport.
            if let Some(chunk) = self.driver.transport_mut().read_chunk() {
                self.pending = chunk;
                continue;
            }
            // 3. Clean end of stream.
            if self.driver.transport().recv_finished() {
                return Ok(0);
            }
            // 4. Nothing yet: drive the loop, backing off only while it
            // stays idle (spin → yield → park on the sockets) so a
            // chunk that arrives moments later ends the wait itself.
            if Instant::now() >= deadline {
                return Err(Error::Timeout { op: "read" }.into());
            }
            if self.driver.step().map_err(io::Error::from)? {
                backoff.reset();
            } else {
                backoff.wait_or_park(|| self.driver.park());
            }
        }
    }
}
