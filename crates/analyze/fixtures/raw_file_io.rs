//! Fixture: a library spilling to a file of its own.
//! Linted as if it lived at `crates/storage/src/fixture.rs`.

use std::fs::File;
use std::io::Write;

/// VIOLATION: opening a spill file directly.
pub fn spill(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = File::create(path)?;
    file.write_all(bytes)
}

/// VIOLATION: read back with `OpenOptions`.
pub fn reopen(path: &str) -> std::io::Result<File> {
    std::fs::OpenOptions::new().read(true).open(path)
}

/// VIOLATION: removing it through `std::fs`.
pub fn remove(path: &str) {
    let _ = std::fs::remove_file(path);
}

/// OK: `open` on something that is not `File`.
pub fn open_store(store: &mut Vec<u8>) -> usize {
    store.len()
}

#[cfg(test)]
mod tests {
    /// OK: tests may touch files.
    #[test]
    fn scratch() {
        let _ = std::fs::read("missing");
    }
}
