//! Readiness primitives of the ingestion loop: a `poll(2)` wrapper
//! and the [`Waker`] other threads use to interrupt it.
//!
//! `std` has no readiness wait over several sockets, so the wrapper
//! calls `poll` from the C library `std` already links. That call is
//! the crate's only `unsafe` code: the crate denies `unsafe_code` and
//! re-allows it for this module alone.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_short};
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::time::Duration;

use tpdf_service::ResultListener;

/// Data to read (or, on a listener, a connection to accept).
pub(crate) const POLLIN: c_short = 0x001;
/// Room to write.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition (reported whether asked for or not).
pub(crate) const POLLERR: c_short = 0x008;
/// Hang-up (reported whether asked for or not).
pub(crate) const POLLHUP: c_short = 0x010;

/// One `struct pollfd` entry.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `events` on `fd`.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// An entry `poll` skips: a negative fd is never reported, not even
    /// for `POLLHUP`, which a real fd reports whatever `events` asks.
    pub(crate) fn ignored() -> PollFd {
        PollFd::new(-1, 0)
    }

    /// What the last [`wait`] reported for this entry.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` has passed
/// (`None` waits indefinitely) and returns how many entries reported
/// events. A timeout, and an interrupting signal (`EINTR`), return 0:
/// the caller treats both as a spurious wake and re-evaluates.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = timeout.map_or(-1, |t| {
        // Round up, so a deadline is never woken for early.
        let ms = t.as_nanos().div_ceil(1_000_000);
        c_int::try_from(ms).unwrap_or(c_int::MAX)
    });
    let nfds = Nfds::try_from(fds.len())
        .map_err(|_| io::Error::new(ErrorKind::InvalidInput, "poll set too large"))?;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd` entries and `nfds` is its length, so the kernel
    // reads `fd`/`events` and writes `revents` only within the slice;
    // `poll` keeps no pointer once it returns.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if ready >= 0 {
        return Ok(ready as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// Wakes a thread blocked in [`wait`] from any other thread: a
/// non-blocking socket pair whose read end ([`Waker::fd`]) sits in the
/// poll set.
///
/// Wakes coalesce: only the flip of `pending` from false to true
/// writes a byte, so a burst of results costs one syscall and the pair
/// can never fill. The waiting side calls [`Waker::reset`] and only
/// then looks for work.
pub(crate) struct Waker {
    pending: AtomicBool,
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            pending: AtomicBool::new(false),
            tx,
            rx,
        })
    }

    /// Makes the next (or the current) [`wait`] on [`Waker::fd`]
    /// return.
    pub(crate) fn wake(&self) {
        if !self.pending.swap(true, SeqCst) {
            // At most one byte is unread per re-arm, so this cannot
            // block; a failure means the reading side is gone and
            // there is nobody left to wake.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// The descriptor to wait on for `POLLIN`.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes the pending wake: drains the pair, *then* re-arms.
    ///
    /// The order is what keeps wakes from being lost. Re-arming first
    /// would let a [`Waker::wake`] in between flip `pending` and write
    /// a byte that the drain then swallows: `pending` would stay set
    /// with nothing left to read, and every later wake would coalesce
    /// into it and never write. Draining first, a wake that lands
    /// before the re-arm is coalesced into the one being consumed —
    /// which is why the caller must look for work after this returns.
    pub(crate) fn reset(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Drained (`WouldBlock`); `tx` lives as long as `rx`,
                // so end-of-stream cannot happen.
                _ => break,
            }
        }
        self.pending.store(false, SeqCst);
    }
}

impl ResultListener for Waker {
    fn result_ready(&self) {
        self.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Arc};
    use std::time::Instant;

    #[test]
    fn wait_times_out_and_reports_readiness() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN), PollFd::ignored()];
        let start = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(20), "woke early");
        waker.wake();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert_eq!(fds[0].revents() & POLLIN, POLLIN);
        assert_eq!(fds[1].revents(), 0, "a negative fd is never reported");
        waker.reset();
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
    }

    /// Producers publish a counter and wake; the consumer blocks in
    /// `wait` with no timeout and must see every publication. A lost
    /// wakeup leaves it blocked for good, which fails the test by
    /// timeout rather than hanging it.
    #[test]
    fn hammered_waker_loses_no_wakeup() {
        const PRODUCERS: u64 = 4;
        const SIGNALS: u64 = 20_000;
        let waker = Arc::new(Waker::new().unwrap());
        let sent = Arc::new(AtomicU64::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        let consumer = {
            let (waker, sent) = (Arc::clone(&waker), Arc::clone(&sent));
            std::thread::spawn(move || {
                let mut fds = [PollFd::new(waker.fd(), POLLIN)];
                loop {
                    wait(&mut fds, None).unwrap();
                    waker.reset();
                    if sent.load(SeqCst) == PRODUCERS * SIGNALS {
                        let _ = done_tx.send(());
                        return;
                    }
                }
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let (waker, sent) = (Arc::clone(&waker), Arc::clone(&sent));
                std::thread::spawn(move || {
                    for _ in 0..SIGNALS {
                        sent.fetch_add(1, SeqCst);
                        waker.wake();
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        if done_rx.recv_timeout(Duration::from_secs(10)).is_err() {
            panic!(
                "lost wakeup: consumer still blocked after {} signals",
                sent.load(SeqCst)
            );
        }
        consumer.join().unwrap();
    }
}
