//! Helpers shared by the integration suites that serialise their tests
//! and compare OS thread counts. Every suite compiles its own copy, and
//! not every suite uses every helper.

#![allow(dead_code)]

use std::process::Command;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Set in the child process [`in_own_process`] starts.
const OWN_PROCESS_ENV: &str = "TPDF_TEST_IN_OWN_PROCESS";

/// Serialises the tests of one suite (the lock is per test binary).
/// Poison-tolerant: a failing test must not fail the ones after it.
pub fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process's current OS thread count, from `/proc/self/status`
/// (Linux-only; `None` elsewhere).
pub fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Whether the calling test, named `name`, should run its body here.
///
/// `/proc/self/status` counts the threads of the whole process, and
/// libtest starts and ends a thread per test whenever it likes: a
/// finished neighbour's thread can exit, and the next test's start,
/// between a test's two counts, whatever lock the tests share. So in
/// the libtest process this re-runs test `name` alone in a child
/// process of the same binary, fails if the child did not pass
/// exactly that one test, and returns `false`; in the child it
/// returns `true`.
pub fn in_own_process(name: &str) -> bool {
    own_process(name, None)
}

/// [`in_own_process`], with the child's open-descriptor limit lowered
/// to `fd_limit` (through the shell's `ulimit -n`): for a test that
/// exhausts descriptors without starving its neighbours.
pub fn in_own_process_with_fd_limit(name: &str, fd_limit: u32) -> bool {
    own_process(name, Some(fd_limit))
}

fn own_process(name: &str, fd_limit: Option<u32>) -> bool {
    if std::env::var_os(OWN_PROCESS_ENV).is_some() {
        return true;
    }
    let binary = std::env::current_exe().expect("test binary path");
    let mut command = match fd_limit {
        None => Command::new(binary),
        Some(limit) => {
            let mut shell = Command::new("sh");
            shell
                .args(["-c", "ulimit -n \"$0\" && exec \"$@\"", &limit.to_string()])
                .arg(binary);
            shell
        }
    };
    let output = command
        .args([name, "--exact", "--test-threads=1"])
        .env(OWN_PROCESS_ENV, "1")
        .output()
        .expect("start the test's own process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success() && stdout.contains("test result: ok. 1 passed"),
        "{name} in its own process:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    false
}
