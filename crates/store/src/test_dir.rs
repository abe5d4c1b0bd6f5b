//! Self-cleaning temporary store directories for tests and soaks.
//!
//! The workspace is registry-free (no `tempfile`), so the handful of
//! consumers that need a scratch store directory — the store's own tests,
//! the root `tests/store.rs` suite, the serving-layer tests and the crash
//! soak in `scout-sim` — share this minimal helper instead of each
//! reinventing it. Uniqueness comes from the process id plus a process-wide
//! counter, so parallel test threads never collide; the directory tree is
//! removed on drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, recursively
/// deleted on drop.
///
/// ```
/// use scout_store::test_dir::TestDir;
///
/// let dir = TestDir::new("doc");
/// assert!(dir.path().is_dir());
/// ```
#[derive(Debug)]
pub struct TestDir {
    path: PathBuf,
}

impl TestDir {
    /// Creates `…/scout-store-<label>-<pid>-<n>` under the system temp dir.
    pub fn new(label: &str) -> Self {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("scout-store-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("temp dir is writable");
        TestDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
