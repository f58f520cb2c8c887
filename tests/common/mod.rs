//! Helpers shared by the integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty scratch directory for one test: unique per call, keyed
/// by the process id, `name` and a process-wide counter, so neither two
/// tests of one binary (or two runs of one property) nor two concurrent
/// test processes ever share a directory.
pub fn scratch_dir(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("lorentz-{name}-{}-{n}", std::process::id()));
    // A directory left by an earlier process that had the same pid.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
