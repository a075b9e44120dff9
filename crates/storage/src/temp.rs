//! Scoped temporary directories for scratch logs.
//!
//! A file-backed backend opened with `StorageSpec::open_temp` keeps its log
//! in one of these, so the external sorter's runs, the paged stack's pages
//! and DFS's node store all vanish with their backend. We avoid an external `tempfile` dependency with a small utility that
//! creates a uniquely named directory under the system temp dir (or a caller
//! supplied parent) and removes it on drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A temporary directory deleted (best effort) when dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
    keep: bool,
}

impl TempDir {
    /// Create a new temporary directory under the system temp dir.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        Self::new_in(std::env::temp_dir(), prefix)
    }

    /// Create a new temporary directory under `parent`.
    pub fn new_in<P: AsRef<Path>>(parent: P, prefix: &str) -> std::io::Result<Self> {
        let parent = parent.as_ref();
        std::fs::create_dir_all(parent)?;
        // Combine pid, a process-wide counter and a timestamp so concurrent
        // test processes cannot collide.
        let pid = std::process::id();
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0);
            let candidate = parent.join(format!("{prefix}-{pid}-{n}-{nanos}"));
            match std::fs::create_dir(&candidate) {
                Ok(()) => {
                    return Ok(TempDir {
                        path: candidate,
                        keep: false,
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Build a path to a file inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// Keep the directory on drop (useful when debugging experiments).
    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes_directory() {
        let path;
        {
            let dir = TempDir::new("bsc-test").unwrap();
            path = dir.path().to_path_buf();
            assert!(path.is_dir());
            std::fs::write(dir.file("x.bin"), b"hello").unwrap();
            assert!(dir.file("x.bin").exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn keep_preserves_directory() {
        let path;
        {
            let mut dir = TempDir::new("bsc-keep").unwrap();
            dir.keep();
            path = dir.path().to_path_buf();
        }
        assert!(path.exists());
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn unique_names() {
        let a = TempDir::new("bsc-uniq").unwrap();
        let b = TempDir::new("bsc-uniq").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
