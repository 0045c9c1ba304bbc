//! A small blocking client for the `tpdf-net` wire protocol.
//!
//! [`NetClient`] is deliberately simple — one blocking socket, one
//! frame at a time — because its job is testing and exercising the
//! server, not throughput. It still implements the full protocol:
//! `Hello` retries on `Backoff`, records stream in bounded chunks,
//! and `Backoff` frames received while waiting for results are
//! counted rather than treated as errors.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tpdf_runtime::Token;

use crate::frame::{write_frame, BackoffReason, Frame, FrameError, FrameReader};

/// Largest token batch a single `Records` frame carries.
const RECORDS_CHUNK: usize = 1024;

/// A client-side failure.
#[derive(Debug)]
pub enum NetClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent bytes that do not decode as a frame.
    Frame(FrameError),
    /// The server sent a well-formed frame the protocol does not
    /// allow at this point.
    Protocol(String),
    /// A run failed server-side; the payload is the service error.
    Run(String),
}

impl std::fmt::Display for NetClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetClientError::Io(e) => write!(f, "io error: {e}"),
            NetClientError::Frame(e) => write!(f, "frame error: {e}"),
            NetClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            NetClientError::Run(detail) => write!(f, "run failed: {detail}"),
        }
    }
}

impl std::error::Error for NetClientError {}

impl From<std::io::Error> for NetClientError {
    fn from(e: std::io::Error) -> Self {
        NetClientError::Io(e)
    }
}

impl From<FrameError> for NetClientError {
    fn from(e: FrameError) -> Self {
        NetClientError::Frame(e)
    }
}

/// The server's answer to a successful `Hello`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// Session id the server opened.
    pub session: u64,
    /// Input tokens the server expects per `Barrier`.
    pub tokens_per_run: u64,
}

/// A blocking wire-protocol client.
///
/// Outgoing frames are **buffered** and flushed in one write the
/// next time the client waits for a reply (or on drop): a client
/// that pipelines several runs before reading a result hands the
/// server the whole burst in a single chunk, which is what makes
/// the server's backpressure observable instead of a race against
/// per-frame syscall pacing.
pub struct NetClient {
    stream: TcpStream,
    reader: FrameReader,
    outbuf: Vec<u8>,
    /// `Backoff` frames observed so far — test hooks assert the
    /// backpressure leg actually fired.
    backoffs: u64,
}

impl Drop for NetClient {
    /// Best-effort flush so frames queued by a client that drops
    /// without waiting for a reply still reach the wire before the
    /// socket closes.
    fn drop(&mut self) {
        if !self.outbuf.is_empty() {
            let _ = self.stream.write_all(&self.outbuf);
        }
    }
}

impl NetClient {
    /// Connects to `addr` with a read timeout so a wedged server
    /// fails tests instead of hanging them.
    ///
    /// # Errors
    ///
    /// Connection or socket-option failures.
    pub fn connect(addr: SocketAddr) -> Result<NetClient, NetClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            reader: FrameReader::new(64 << 20),
            outbuf: Vec::new(),
            backoffs: 0,
        })
    }

    /// Replaces the read timeout [`NetClient::connect`] set (`None`
    /// blocks indefinitely): how long a reply wait may take before it
    /// fails with [`NetClientError::Io`].
    ///
    /// # Errors
    ///
    /// The socket-option failure.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// `Backoff` frames observed so far.
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    fn send(&mut self, frame: &Frame) -> Result<(), NetClientError> {
        write_frame(&mut self.outbuf, frame);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), NetClientError> {
        if !self.outbuf.is_empty() {
            self.stream.write_all(&self.outbuf)?;
            self.outbuf.clear();
        }
        Ok(())
    }

    /// Blocks until the next frame arrives, flushing any buffered
    /// outgoing frames first.
    fn recv(&mut self) -> Result<Frame, NetClientError> {
        self.flush()?;
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                return Ok(frame);
            }
            let mut buf = [0u8; 65536];
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(NetClientError::Protocol(
                        "server closed the connection".to_string(),
                    ))
                }
                Ok(n) => self.reader.extend(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetClientError::Io(e)),
            }
        }
    }

    /// Opens a session for `app`, retrying while admission control
    /// answers `Backoff` (bounded, so a saturated server surfaces as
    /// an error instead of an infinite loop).
    ///
    /// # Errors
    ///
    /// I/O failures, malformed frames, or admission still refusing
    /// after the retry budget.
    pub fn hello(&mut self, app: &str) -> Result<HelloAck, NetClientError> {
        for _ in 0..600 {
            self.send(&Frame::Hello {
                app: app.to_string(),
                session: 0,
                tokens_per_run: 0,
            })?;
            match self.recv()? {
                Frame::Hello {
                    session,
                    tokens_per_run,
                    ..
                } => {
                    return Ok(HelloAck {
                        session,
                        tokens_per_run,
                    })
                }
                Frame::Backoff {
                    reason: BackoffReason::AdmissionRefused,
                    ..
                } => {
                    self.backoffs += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => {
                    return Err(NetClientError::Protocol(format!(
                        "unexpected reply to Hello: {other:?}"
                    )))
                }
            }
        }
        Err(NetClientError::Protocol(
            "admission kept refusing the Hello".to_string(),
        ))
    }

    /// Queues `tokens` as one or more `Records` frames; they reach
    /// the wire at the next reply wait (or on drop).
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for bounded
    /// buffering.
    pub fn records(&mut self, tokens: &[Token]) -> Result<(), NetClientError> {
        for chunk in tokens.chunks(RECORDS_CHUNK) {
            self.send(&Frame::Records {
                tokens: chunk.to_vec(),
            })?;
        }
        Ok(())
    }

    /// Marks one run's worth of records complete, requesting a run.
    /// Queued like [`NetClient::records`].
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` reserves room for bounded
    /// buffering.
    pub fn barrier(&mut self, seq: u64) -> Result<(), NetClientError> {
        self.send(&Frame::Barrier { seq })
    }

    /// Blocks until the next `Result` frame, counting interleaved
    /// `Backoff` frames along the way.
    ///
    /// # Errors
    ///
    /// I/O failures, malformed frames, out-of-protocol frames, or a
    /// failed run ([`NetClientError::Run`]).
    pub fn result(&mut self) -> Result<(u64, Vec<Token>), NetClientError> {
        loop {
            match self.recv()? {
                Frame::Result { seq, outcome } => {
                    return match outcome {
                        Ok(tokens) => Ok((seq, tokens)),
                        Err(detail) => Err(NetClientError::Run(detail)),
                    }
                }
                Frame::Backoff { .. } => self.backoffs += 1,
                other => {
                    return Err(NetClientError::Protocol(format!(
                        "unexpected frame while waiting for a result: {other:?}"
                    )))
                }
            }
        }
    }

    /// Sends `Bye` and waits for the server's `Bye` ack (which
    /// guarantees every queued result was flushed first).
    ///
    /// # Errors
    ///
    /// I/O failures, malformed frames, or out-of-protocol frames.
    pub fn bye(mut self) -> Result<u64, NetClientError> {
        self.send(&Frame::Bye)?;
        loop {
            match self.recv()? {
                Frame::Bye => return Ok(self.backoffs),
                Frame::Backoff { .. } => self.backoffs += 1,
                // Results still in flight drain before the Bye ack.
                Frame::Result { .. } => continue,
                other => {
                    return Err(NetClientError::Protocol(format!(
                        "unexpected frame while closing: {other:?}"
                    )))
                }
            }
        }
    }
}
