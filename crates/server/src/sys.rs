//! The one system call the standard library does not wrap, `poll(2)`,
//! and the doorbell a poll loop is woken with.
//!
//! The standard library already links the C library, so the call needs
//! no extra dependency. This module holds the crate's only `unsafe`
//! code; every `unsafe` block in it says why it is sound.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::time::Duration;

/// Readable, or at end of stream.
pub(crate) const POLLIN: c_short = 0x1;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x4;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    /// What the kernel found ready (0 when nothing was).
    pub(crate) revents: c_short,
}

impl PollFd {
    /// Interest in `events` on `fd`.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits until one of `fds` is ready or `timeout` passes, rounded up to
/// whole milliseconds. A signal ends the wait early, as if it timed out.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ms = timeout
        .as_nanos()
        .div_ceil(1_000_000)
        .min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // `pollfd` records and `nfds` is its exact length, so the kernel reads
    // and writes only inside it, and only for the duration of the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Wakes one poll loop from other threads. The loop polls [`Doorbell::fd`]
/// and marks itself parked around each wait; [`Doorbell::ring`] writes to
/// the fd only while the loop is parked, so a busy loop costs the threads
/// that hand it work no system call.
pub(crate) struct Doorbell {
    parked: AtomicBool,
    bell: UnixStream,
    clapper: UnixStream,
}

impl Doorbell {
    pub(crate) fn new() -> Doorbell {
        let (bell, clapper) = UnixStream::pair().expect("creating a doorbell socket pair");
        for end in [&bell, &clapper] {
            end.set_nonblocking(true)
                .expect("a nonblocking doorbell socket");
        }
        Doorbell {
            parked: AtomicBool::new(false),
            bell,
            clapper,
        }
    }

    /// The fd the loop polls for readability.
    pub(crate) fn fd(&self) -> RawFd {
        self.clapper.as_raw_fd()
    }

    /// Marks the loop parked. After this, and before it waits, the loop
    /// must look again at everything it can be rung for.
    pub(crate) fn park(&self) {
        self.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Marks the loop running. `rung` (the fd polled readable) swallows
    /// the rings.
    pub(crate) fn unpark(&self, rung: bool) {
        self.parked.store(false, Ordering::SeqCst);
        let mut sink = [0u8; 64];
        while rung && matches!((&self.clapper).read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Wakes the loop if it is parked. Call after making the change the
    /// loop should see.
    pub(crate) fn ring(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            let _ = (&self.bell).write(&[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn a_ring_wakes_a_parked_wait_and_only_a_parked_one() {
        let bell = Arc::new(Doorbell::new());
        // Not parked: the ring writes nothing, so the wait times out.
        bell.ring();
        let mut fds = [PollFd::new(bell.fd(), POLLIN)];
        wait(&mut fds, Duration::from_millis(20)).unwrap();
        assert_eq!(fds[0].revents, 0);

        bell.park();
        let ringer = Arc::clone(&bell);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            ringer.ring();
        });
        let start = Instant::now();
        wait(&mut fds, Duration::from_secs(10)).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_ne!(fds[0].revents & POLLIN, 0);
        bell.unpark(true);
        t.join().unwrap();
        // The ring was swallowed: the fd is quiet again.
        fds[0].revents = 0;
        wait(&mut fds, Duration::ZERO).unwrap();
        assert_eq!(fds[0].revents, 0);
    }
}
