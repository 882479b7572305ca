//! Waiting for a socket with a sub-millisecond deadline.
//!
//! A socket read timeout (`SO_RCVTIMEO`) is kept in kernel ticks, so a
//! 200 µs wait can sleep for several milliseconds and the open-loop
//! schedule would slip by that much. `ppoll` takes a nanosecond timeout on
//! a high-resolution timer. The standard library already links the C
//! library, so the call needs no extra dependency.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits up to `wait` for `stream` to become readable (data or end of
/// stream). Returns whether it did.
pub fn wait_readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` points at one valid, initialised `pollfd` and `timeout`
    // at a valid `timespec`, both live for the whole call; `nfds` is 1; a
    // null signal mask leaves the thread's mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if ready < 0 {
        let err = io::Error::last_os_error();
        return if err.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(err)
        };
    }
    Ok(ready > 0)
}
