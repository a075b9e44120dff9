//! Pluggable storage backends for keyed byte records.
//!
//! The paper's disk-resident algorithms (the on-disk BFS variant and DFS,
//! Algorithm 3) keep per-node state in *secondary storage*. Which secondary
//! storage is a deployment decision — a log file on local disk, main memory
//! for tests and small graphs, or a bounded page cache that models the
//! paper's "limited main memory" regime — so the access pattern is abstracted
//! behind the object-safe [`StorageBackend`] trait and the typed
//! [`NodeStore`](crate::node_store::NodeStore) wraps whichever backend a
//! [`StorageSpec`] names.
//!
//! Three backends ship:
//!
//! * [`LogFileBackend`] — the append-only log + in-memory offset index that
//!   used to live inside `NodeStore`, extracted. Every `get` is one seek and
//!   one read, every `put` one sequential write, exactly the cost model the
//!   paper charges its disk-resident algorithms.
//! * [`InMemoryBackend`] — a `HashMap`, for tests and small-`m` runs. It
//!   performs no real I/O and therefore contributes nothing to the global
//!   [`io_stats`] counters; its [`StorageBackend::io_snapshot`] still counts
//!   logical record accesses.
//! * [`BlockCacheBackend`] — the log file behind a fixed-page LRU cache
//!   honoring a byte budget: reads hit the cache when the page is
//!   resident and fall through to the disk (recorded as real I/O) when it is
//!   not. Evictions are visible in [`IoSnapshot::evictions`]. Shrinking the
//!   budget reproduces the paper's memory-limited experiments; growing it
//!   converges on in-memory behaviour while keeping the on-disk format.
//!
//! The log format is self-describing (`tag | key | value` frames), so a log
//! written by either file-backed backend can be reopened with
//! [`LogFileBackend::open`], which rebuilds the index by scanning and
//! recovers from a truncated tail by dropping the partial final record.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::write_varint;
use crate::io_stats::{self, IoSnapshot, IoStats};
use crate::temp::TempDir;
use crate::{Result, StorageError};

/// An object-safe store of raw keyed byte records.
///
/// Implementations are updatable maps from byte keys to byte values with a
/// log-structured flavour: `put` replaces, `delete` removes, and
/// [`StorageBackend::compact`] reclaims space held by stale versions. All
/// accounting is observable through [`StorageBackend::io_snapshot`]; backends
/// that perform real file I/O additionally mirror it into the process-wide
/// [`io_stats::global`] counters so solver-level `IoScope` measurements keep
/// working unchanged.
pub trait StorageBackend: fmt::Debug + Send {
    /// A short, stable backend name (e.g. `"logfile"`).
    fn name(&self) -> &'static str;

    /// Fetch the latest value stored under `key`, or `None` if absent.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Store (or replace) the value under `key`.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Remove `key`. Returns true when the key was present.
    fn delete(&mut self, key: &[u8]) -> Result<bool>;

    /// Does the store contain `key`?
    fn contains(&self, key: &[u8]) -> bool;

    /// Number of distinct keys stored.
    fn len(&self) -> usize;

    /// True if the store holds no keys.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored keys, in ascending byte order. Deterministic ordering
    /// here keeps everything downstream (dumps, fan-out shard manifests)
    /// byte-stable across backends and runs.
    fn keys(&self) -> Vec<Vec<u8>>;

    /// Reclaim space held by stale record versions and tombstones. Returns
    /// the number of bytes reclaimed (0 for backends that never hold stale
    /// data).
    fn compact(&mut self) -> Result<u64>;

    /// Bytes currently occupied by the backend's data, including stale
    /// versions not yet compacted away.
    fn storage_bytes(&self) -> u64;

    /// Snapshot of this backend's own I/O accounting. File-backed backends
    /// report real reads/writes/seeks (mirrored into the global counters);
    /// the in-memory backend reports logical record accesses only.
    fn io_snapshot(&self) -> IoSnapshot;
}

/// Which [`StorageBackend`] the disk-resident solver (DFS) should use — the
/// deployment-level storage choice, threaded through `PipelineParams`,
/// `AlgorithmKind::build` and `DfsConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageSpec {
    /// [`InMemoryBackend`]: no real I/O. For tests and small-`m` runs.
    Memory,
    /// [`LogFileBackend`]: the paper's append-only log + offset index.
    LogFile,
    /// [`BlockCacheBackend`]: the log file behind an LRU page cache bounded
    /// by `budget_bytes` of resident pages — the paper's limited-memory
    /// regime, tunable.
    BlockCache {
        /// Page-cache budget in bytes (advisory, enforced by eviction).
        budget_bytes: usize,
    },
    /// [`FaultInjectingBackend`](crate::fault::FaultInjectingBackend)
    /// wrapping `inner`: deterministic I/O errors and torn writes on a
    /// seed-reproducible schedule, for robustness conformance sweeps.
    Fault {
        /// Seed of the deterministic fault schedule.
        seed: u64,
        /// Mean fallible operations per injected fault (0 disables).
        every: u64,
        /// Which real backend sits under the fault layer.
        inner: FaultInner,
    },
}

/// The backend under a [`StorageSpec::Fault`] layer — the non-fault spec
/// shapes, kept as a separate enum so fault layers cannot nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultInner {
    /// [`InMemoryBackend`].
    Memory,
    /// [`LogFileBackend`].
    LogFile,
    /// [`BlockCacheBackend`] with this page-cache budget.
    BlockCache {
        /// Page-cache budget in bytes.
        budget_bytes: usize,
    },
}

impl FaultInner {
    /// The equivalent plain [`StorageSpec`].
    pub fn to_spec(self) -> StorageSpec {
        match self {
            FaultInner::Memory => StorageSpec::Memory,
            FaultInner::LogFile => StorageSpec::LogFile,
            FaultInner::BlockCache { budget_bytes } => StorageSpec::BlockCache { budget_bytes },
        }
    }

    /// The inverse of [`FaultInner::to_spec`]; `None` for a fault spec
    /// (fault layers cannot nest).
    pub fn from_spec(spec: StorageSpec) -> Option<FaultInner> {
        match spec {
            StorageSpec::Memory => Some(FaultInner::Memory),
            StorageSpec::LogFile => Some(FaultInner::LogFile),
            StorageSpec::BlockCache { budget_bytes } => {
                Some(FaultInner::BlockCache { budget_bytes })
            }
            StorageSpec::Fault { .. } => None,
        }
    }
}

impl StorageSpec {
    /// Default page-cache budget when none is given: 256 KiB.
    pub const DEFAULT_BLOCK_CACHE_BUDGET: usize = 256 * 1024;

    /// Every spec shape, with the default block-cache budget. Useful for
    /// conformance sweeps.
    pub const ALL: [StorageSpec; 3] = [
        StorageSpec::Memory,
        StorageSpec::LogFile,
        StorageSpec::BlockCache {
            budget_bytes: Self::DEFAULT_BLOCK_CACHE_BUDGET,
        },
    ];

    /// The spec's short name (`"memory"`, `"logfile"`, `"blockcache"`,
    /// `"fault"`).
    pub fn name(self) -> &'static str {
        match self {
            StorageSpec::Memory => "memory",
            StorageSpec::LogFile => "logfile",
            StorageSpec::BlockCache { .. } => "blockcache",
            StorageSpec::Fault { .. } => "fault",
        }
    }

    /// Parse a spec from its CLI / env-var form: `memory`, `logfile`,
    /// `blockcache` (default budget), `blockcache:<bytes>` or
    /// `fault:<seed>:<every>:<inner>` where `<inner>` is any non-fault
    /// spec (e.g. `fault:42:100:logfile`).
    pub fn parse(s: &str) -> Option<StorageSpec> {
        match s {
            "memory" => Some(StorageSpec::Memory),
            "logfile" => Some(StorageSpec::LogFile),
            "blockcache" => Some(StorageSpec::BlockCache {
                budget_bytes: Self::DEFAULT_BLOCK_CACHE_BUDGET,
            }),
            other => {
                if let Some(rest) = other.strip_prefix("fault:") {
                    let (seed, rest) = rest.split_once(':')?;
                    let (every, inner) = rest.split_once(':')?;
                    let seed = seed.parse().ok()?;
                    let every = every.parse().ok()?;
                    let inner = FaultInner::from_spec(StorageSpec::parse(inner)?)?;
                    return Some(StorageSpec::Fault { seed, every, inner });
                }
                let budget = other.strip_prefix("blockcache:")?;
                budget
                    .parse()
                    .ok()
                    .map(|budget_bytes| StorageSpec::BlockCache { budget_bytes })
            }
        }
    }

    /// Open a fresh backend of this kind whose scratch files (if any) live in
    /// a temporary directory owned by the backend itself — dropped with it.
    pub fn open_temp(self, prefix: &str) -> Result<Box<dyn StorageBackend>> {
        match self {
            StorageSpec::Memory => Ok(Box::new(InMemoryBackend::new())),
            StorageSpec::LogFile => Ok(Box::new(LogFileBackend::temp(prefix)?)),
            StorageSpec::BlockCache { budget_bytes } => {
                Ok(Box::new(BlockCacheBackend::temp(prefix, budget_bytes)?))
            }
            StorageSpec::Fault { seed, every, inner } => {
                let inner = inner.to_spec().open_temp(prefix)?;
                Ok(Box::new(crate::fault::FaultInjectingBackend::new(
                    inner, seed, every,
                )))
            }
        }
    }

    /// Create a fresh backend of this kind backed by an explicit log file at
    /// `path`, truncating anything already there ([`StorageSpec::Memory`]
    /// ignores the path).
    pub fn create_at<P: AsRef<Path>>(self, path: P) -> Result<Box<dyn StorageBackend>> {
        match self {
            StorageSpec::Memory => Ok(Box::new(InMemoryBackend::new())),
            StorageSpec::LogFile => Ok(Box::new(LogFileBackend::create(path)?)),
            StorageSpec::BlockCache { budget_bytes } => {
                Ok(Box::new(BlockCacheBackend::create(path, budget_bytes)?))
            }
            StorageSpec::Fault { seed, every, inner } => {
                let inner = inner.to_spec().create_at(path)?;
                Ok(Box::new(crate::fault::FaultInjectingBackend::new(
                    inner, seed, every,
                )))
            }
        }
    }

    /// Reopen an existing log at `path` with [`LogFileBackend::open`]'s
    /// index-rebuild and truncated-tail recovery semantics.
    /// [`StorageSpec::Memory`] has no persistent form and opens empty.
    pub fn open_at<P: AsRef<Path>>(self, path: P) -> Result<Box<dyn StorageBackend>> {
        match self {
            StorageSpec::Memory => Ok(Box::new(InMemoryBackend::new())),
            StorageSpec::LogFile => Ok(Box::new(LogFileBackend::open(path)?)),
            StorageSpec::BlockCache { budget_bytes } => {
                Ok(Box::new(BlockCacheBackend::open(path, budget_bytes)?))
            }
            StorageSpec::Fault { seed, every, inner } => {
                let inner = inner.to_spec().open_at(path)?;
                Ok(Box::new(crate::fault::FaultInjectingBackend::new(
                    inner, seed, every,
                )))
            }
        }
    }
}

impl fmt::Display for StorageSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageSpec::BlockCache { budget_bytes } => {
                write!(f, "blockcache:{budget_bytes}")
            }
            StorageSpec::Fault { seed, every, inner } => {
                write!(f, "fault:{seed}:{every}:{}", inner.to_spec())
            }
            other => f.write_str(other.name()),
        }
    }
}

// ---------------------------------------------------------------------------
// Log format
// ---------------------------------------------------------------------------

/// Frame tag: a key/value record.
const TAG_PUT: u8 = 1;
/// Frame tag: a tombstone (key deleted).
const TAG_DELETE: u8 = 2;

/// Encode one put frame, returning it together with the value payload's
/// offset *within the frame* (the caller adds the frame's file position).
fn put_frame(key: &[u8], value: &[u8]) -> (Vec<u8>, u64) {
    let mut frame = Vec::with_capacity(key.len() + value.len() + 12);
    frame.push(TAG_PUT);
    write_varint(&mut frame, key.len() as u64);
    frame.extend_from_slice(key);
    write_varint(&mut frame, value.len() as u64);
    let value_offset = frame.len() as u64;
    frame.extend_from_slice(value);
    (frame, value_offset)
}

/// Scan one varint off a sequential reader, advancing `consumed` by the
/// bytes taken. Decoding is delegated to [`codec::read_varint`] so the
/// recovery scanner can never drift from the codec's rules. `Ok(None)`
/// means the log ended mid-varint (a truncated tail); `Err` means the
/// varint itself is malformed.
fn scan_varint(reader: &mut impl Read, consumed: &mut u64) -> Result<Option<u64>> {
    // A u64 varint is at most ten bytes; collecting one byte more lets
    // read_varint surface its own overflow error for overlong input.
    let mut bytes = [0u8; 11];
    let mut n = 0;
    loop {
        let mut byte = [0u8; 1];
        match reader.read_exact(&mut byte) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            other => other?,
        }
        bytes[n] = byte[0];
        n += 1;
        *consumed += 1;
        if byte[0] & 0x80 == 0 || n == bytes.len() {
            let mut slice = &bytes[..n];
            return crate::codec::read_varint(&mut slice).map(Some);
        }
    }
}

// ---------------------------------------------------------------------------
// Shared log-file core
// ---------------------------------------------------------------------------

/// The append-only log + offset index shared by [`LogFileBackend`] and
/// [`BlockCacheBackend`]. Owns its temp directory when created via `temp`,
/// so a backend's scratch files live and die with the backend.
#[derive(Debug)]
struct LogFileCore {
    path: PathBuf,
    file: File,
    /// key → (absolute offset of the value payload, value length).
    index: HashMap<Vec<u8>, (u64, u32)>,
    tail: u64,
    /// True when `open` found bytes past the last complete frame. The file
    /// is cut back to `tail` lazily, right before the first append — opening
    /// a log never destroys bytes on disk by itself.
    pending_truncate: bool,
    stats: Arc<IoStats>,
    _temp: Option<TempDir>,
}

impl LogFileCore {
    fn create(path: &Path, temp: Option<TempDir>) -> Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(LogFileCore {
            path: path.to_path_buf(),
            file,
            index: HashMap::new(),
            tail: 0,
            pending_truncate: false,
            stats: Arc::new(IoStats::new()),
            _temp: temp,
        })
    }

    /// Reopen an existing log, rebuilding the index with one buffered
    /// sequential scan — memory stays bounded by the largest *key*, value
    /// payloads are skipped over. An incomplete final frame (crash
    /// mid-append, or a length field pointing past end-of-file) is recovered
    /// by ignoring everything past the last complete frame; the bytes are
    /// only physically cut back when the store is next appended to, so a
    /// read-only open never alters the file. Structural corruption within
    /// the scanned region (bad varint, unknown tag) is an error.
    fn open(path: &Path) -> Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        let stats = Arc::new(IoStats::new());
        stats.record_read(file_len);
        io_stats::global().record_read(file_len);
        let mut index = HashMap::new();
        // End of the last complete frame; everything past it is a partial
        // tail to be dropped.
        let mut tail = 0u64;
        {
            let mut reader = std::io::BufReader::new(&mut file);
            let mut cursor = 0u64;
            loop {
                let mut tag = [0u8; 1];
                match reader.read_exact(&mut tag) {
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                    other => other?,
                }
                cursor += 1;
                if tag[0] != TAG_PUT && tag[0] != TAG_DELETE {
                    return Err(StorageError::Corrupt(format!(
                        "unknown record tag {} at offset {}",
                        tag[0],
                        cursor - 1
                    )));
                }
                let Some(key_len) = scan_varint(&mut reader, &mut cursor)? else {
                    break;
                };
                if file_len - cursor < key_len {
                    break; // truncated key
                }
                let mut key = vec![0u8; key_len as usize];
                reader.read_exact(&mut key)?;
                cursor += key_len;
                if tag[0] == TAG_DELETE {
                    index.remove(&key);
                    tail = cursor;
                    continue;
                }
                let Some(val_len) = scan_varint(&mut reader, &mut cursor)? else {
                    break;
                };
                if file_len - cursor < val_len {
                    break; // truncated value
                }
                let len = u32::try_from(val_len)
                    .map_err(|_| StorageError::Corrupt(format!("absurd value length {val_len}")))?;
                index.insert(key, (cursor, len));
                reader.seek_relative(val_len as i64)?;
                cursor += val_len;
                tail = cursor;
            }
        }
        Ok(LogFileCore {
            path: path.to_path_buf(),
            file,
            index,
            tail,
            pending_truncate: tail < file_len,
            stats,
            _temp: None,
        })
    }

    fn record_write(&self, bytes: u64) {
        self.stats.record_write(bytes);
        io_stats::global().record_write(bytes);
    }

    fn record_read(&self, bytes: u64) {
        self.stats.record_seek();
        self.stats.record_read(bytes);
        let global = io_stats::global();
        global.record_seek();
        global.record_read(bytes);
    }

    /// Append one frame; for puts, returns the value payload's (offset, len)
    /// which the caller must insert into the index.
    fn append(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<Option<(u64, u32)>> {
        let (frame, entry) = match value {
            Some(value) => {
                let (frame, value_offset) = put_frame(key, value);
                let entry = (self.tail + value_offset, value.len() as u32);
                (frame, Some(entry))
            }
            None => {
                let mut frame = Vec::with_capacity(key.len() + 12);
                frame.push(TAG_DELETE);
                write_varint(&mut frame, key.len() as u64);
                frame.extend_from_slice(key);
                (frame, None)
            }
        };
        if self.pending_truncate {
            // Cut the unparseable tail found at open() time, so the append
            // lands on a frame boundary with nothing after it.
            self.file.set_len(self.tail)?;
            self.pending_truncate = false;
        }
        self.file.seek(SeekFrom::Start(self.tail))?;
        self.file.write_all(&frame)?;
        self.record_write(frame.len() as u64);
        self.tail += frame.len() as u64;
        Ok(entry)
    }

    /// Random read of `len` bytes at `offset`, with I/O accounting.
    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        self.file.read_exact(&mut buf)?;
        self.record_read(len as u64);
        Ok(buf)
    }

    /// Rewrite the log keeping only the latest version of every live record,
    /// streamed one record at a time (sorted by key, so the output is
    /// deterministic).
    fn compact(&mut self) -> Result<u64> {
        let old_size = self.tail;
        let mut keys: Vec<Vec<u8>> = self.index.keys().cloned().collect();
        keys.sort_unstable();
        let tmp_path = self.path.with_extension("compact");
        {
            let mut out = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp_path)?;
            let mut new_index = HashMap::with_capacity(keys.len());
            let mut tail = 0u64;
            for key in keys {
                let (offset, len) = self.index[&key];
                let value = self.read_at(offset, len as usize)?;
                let (frame, value_offset) = put_frame(&key, &value);
                out.write_all(&frame)?;
                self.record_write(frame.len() as u64);
                new_index.insert(key, (tail + value_offset, len));
                tail += frame.len() as u64;
            }
            out.flush()?;
            self.index = new_index;
            self.tail = tail;
        }
        std::fs::rename(&tmp_path, &self.path)?;
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        // The rewrite replaced the file wholesale: no stale tail remains.
        self.pending_truncate = false;
        Ok(old_size.saturating_sub(self.tail))
    }
}

// ---------------------------------------------------------------------------
// LogFileBackend
// ---------------------------------------------------------------------------

/// The append-only log + in-memory offset index: one seek + one read per
/// `get`, one sequential write per `put` — the paper's disk cost model.
#[derive(Debug)]
pub struct LogFileBackend {
    core: LogFileCore,
}

impl LogFileBackend {
    /// Create a new, empty store backed by a file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        Ok(LogFileBackend {
            core: LogFileCore::create(path.as_ref(), None)?,
        })
    }

    /// Create a store whose log lives in a fresh temporary directory owned
    /// by the backend (removed when the backend is dropped).
    pub fn temp(prefix: &str) -> Result<Self> {
        let dir = TempDir::new(prefix)?;
        let path = dir.file("store.log");
        Ok(LogFileBackend {
            core: LogFileCore::create(&path, Some(dir))?,
        })
    }

    /// Reopen an existing log at `path`, rebuilding the index by scanning.
    /// Recovers from a truncated tail (the partial final record is dropped);
    /// structurally corrupt frames (bad varint, unknown tag) are an error.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        Ok(LogFileBackend {
            core: LogFileCore::open(path.as_ref())?,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.core.path
    }
}

impl StorageBackend for LogFileBackend {
    fn name(&self) -> &'static str {
        "logfile"
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let Some(&(offset, len)) = self.core.index.get(key) else {
            return Ok(None);
        };
        self.core.read_at(offset, len as usize).map(Some)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let entry = self.core.append(key, Some(value))?;
        let Some(entry) = entry else {
            // append only returns None for tombstones; a put always carries
            // a value, so treat the impossible case as corruption.
            return Err(StorageError::Corrupt("put appended no entry".into()));
        };
        self.core.index.insert(key.to_vec(), entry);
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        if !self.core.index.contains_key(key) {
            return Ok(false);
        }
        // Tombstone first: if the append fails, index and log still agree.
        self.core.append(key, None)?;
        self.core.index.remove(key);
        Ok(true)
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.core.index.contains_key(key)
    }

    fn len(&self) -> usize {
        self.core.index.len()
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = self.core.index.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    fn compact(&mut self) -> Result<u64> {
        self.core.compact()
    }

    fn storage_bytes(&self) -> u64 {
        self.core.tail
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.core.stats.snapshot()
    }
}

// ---------------------------------------------------------------------------
// InMemoryBackend
// ---------------------------------------------------------------------------

/// A `HashMap` store: no real I/O, nothing mirrored into the global
/// counters. Its local [`StorageBackend::io_snapshot`] counts logical record
/// accesses so conformance tests can still assert monotone counters.
#[derive(Debug, Default)]
pub struct InMemoryBackend {
    map: HashMap<Vec<u8>, Vec<u8>>,
    resident_bytes: u64,
    stats: Arc<IoStats>,
}

impl InMemoryBackend {
    /// Create an empty in-memory store.
    pub fn new() -> Self {
        InMemoryBackend::default()
    }
}

impl StorageBackend for InMemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let value = self.map.get(key).cloned();
        if let Some(value) = &value {
            self.stats.record_read(value.len() as u64);
        }
        Ok(value)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.stats.record_write(value.len() as u64);
        self.resident_bytes += (key.len() + value.len()) as u64;
        if let Some(old) = self.map.insert(key.to_vec(), value.to_vec()) {
            self.resident_bytes -= (key.len() + old.len()) as u64;
        }
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        match self.map.remove(key) {
            Some(old) => {
                self.resident_bytes -= (key.len() + old.len()) as u64;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.map.contains_key(key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = self.map.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    fn compact(&mut self) -> Result<u64> {
        // The map never holds stale versions.
        Ok(0)
    }

    fn storage_bytes(&self) -> u64 {
        self.resident_bytes
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.stats.snapshot()
    }
}

// ---------------------------------------------------------------------------
// BlockCacheBackend
// ---------------------------------------------------------------------------

/// Default page size of the block cache.
const DEFAULT_PAGE_SIZE: usize = 4096;

#[derive(Debug)]
struct CachedPage {
    data: Vec<u8>,
    last_used: u64,
}

/// The log file behind a fixed-size-page LRU cache bounded by a byte budget
/// — the paper's "limited main memory" regime made tunable.
///
/// Reads are served from resident pages when possible; a miss fetches the
/// page with one real seek + read (mirrored into the global counters) and
/// caches it, evicting least-recently-used pages until the budget admits the
/// newcomer. Pages that cannot fit even after evicting everything are read
/// through without being cached, so the budget is genuinely respected.
/// Writes append to the log write-through; only the (partial) tail page can
/// be stale, and it is invalidated on every append.
#[derive(Debug)]
pub struct BlockCacheBackend {
    core: LogFileCore,
    page_size: usize,
    /// Bytes of resident pages the cache may hold.
    budget_bytes: usize,
    /// Bytes of resident pages it holds now (`<= budget_bytes`).
    cached_bytes: usize,
    cache: HashMap<u64, CachedPage>,
    /// Recency index: `last_used` tick → page number. Ticks are unique
    /// (monotone counter), so the first entry is always the LRU page and
    /// eviction is O(log n) instead of a scan over every resident page.
    lru: BTreeMap<u64, u64>,
    tick: u64,
}

impl BlockCacheBackend {
    /// Create a block-cached store over a new log at `path` with a page-cache
    /// budget of `budget_bytes`.
    pub fn create<P: AsRef<Path>>(path: P, budget_bytes: usize) -> Result<Self> {
        Ok(Self::over(
            LogFileCore::create(path.as_ref(), None)?,
            budget_bytes,
        ))
    }

    /// Create a block-cached store whose log lives in a backend-owned
    /// temporary directory.
    pub fn temp(prefix: &str, budget_bytes: usize) -> Result<Self> {
        let dir = TempDir::new(prefix)?;
        let path = dir.file("store.log");
        Ok(Self::over(
            LogFileCore::create(&path, Some(dir))?,
            budget_bytes,
        ))
    }

    /// Reopen an existing log behind a fresh (cold) cache, with the same
    /// recovery semantics as [`LogFileBackend::open`].
    pub fn open<P: AsRef<Path>>(path: P, budget_bytes: usize) -> Result<Self> {
        Ok(Self::over(LogFileCore::open(path.as_ref())?, budget_bytes))
    }

    fn over(core: LogFileCore, budget_bytes: usize) -> Self {
        BlockCacheBackend {
            core,
            page_size: DEFAULT_PAGE_SIZE,
            budget_bytes,
            cached_bytes: 0,
            cache: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
        }
    }

    /// Override the page size (mainly for tests that want eviction pressure
    /// without megabytes of data). Must be called before any reads.
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        assert!(
            self.cache.is_empty(),
            "page size change requires a cold cache"
        );
        self.page_size = page_size;
        self
    }

    /// Bytes currently resident in the page cache.
    pub fn cached_bytes(&self) -> usize {
        self.cached_bytes
    }

    /// Evict the least-recently-used page, returning false when the cache is
    /// already empty.
    fn evict_one(&mut self) -> bool {
        let Some((&tick, &page_no)) = self.lru.first_key_value() else {
            return false;
        };
        self.lru.remove(&tick);
        let Some(page) = self.cache.remove(&page_no) else {
            // LRU and cache are updated together; nothing to release.
            return false;
        };
        self.cached_bytes -= page.data.len();
        self.core.stats.record_eviction();
        io_stats::global().record_eviction();
        true
    }

    /// Drop the page containing `offset` (the stale tail page after an
    /// append). Not counted as an eviction: nothing was displaced by memory
    /// pressure, the page's cached bytes simply went out of date.
    fn invalidate_page_at(&mut self, offset: u64) {
        let page_no = offset / self.page_size as u64;
        if let Some(page) = self.cache.remove(&page_no) {
            self.lru.remove(&page.last_used);
            self.cached_bytes -= page.data.len();
        }
    }

    /// Read `len` bytes at `offset` through the page cache.
    fn read_range(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let ps = self.page_size as u64;
        let end = offset + len as u64;
        let mut out = Vec::with_capacity(len);
        let mut page_no = offset / ps;
        while page_no * ps < end {
            let page_start = page_no * ps;
            let from = offset.max(page_start) - page_start;
            let to = end.min(page_start + ps) - page_start;
            self.tick += 1;
            let tick = self.tick;
            if let Some(page) = self.cache.get_mut(&page_no) {
                self.lru.remove(&page.last_used);
                self.lru.insert(tick, page_no);
                page.last_used = tick;
                let slice = page.data.get(from as usize..to as usize).ok_or_else(|| {
                    StorageError::Corrupt(format!(
                        "cached page {page_no} shorter than indexed record"
                    ))
                })?;
                out.extend_from_slice(slice);
            } else {
                let page_len = (ps.min(self.core.tail.saturating_sub(page_start))) as usize;
                let data = self.core.read_at(page_start, page_len)?;
                let slice = data.get(from as usize..to as usize).ok_or_else(|| {
                    StorageError::Corrupt(format!("page {page_no} shorter than indexed record"))
                })?;
                out.extend_from_slice(slice);
                self.maybe_cache(page_no, data, tick);
            }
            page_no += 1;
        }
        Ok(out)
    }

    /// Admit a freshly read page, evicting LRU pages until the budget allows
    /// it; if the budget cannot hold the page even with an empty cache, the
    /// page is simply not cached.
    fn maybe_cache(&mut self, page_no: u64, data: Vec<u8>, tick: u64) {
        while self.cached_bytes + data.len() > self.budget_bytes {
            if !self.evict_one() {
                return;
            }
        }
        self.cached_bytes += data.len();
        self.lru.insert(tick, page_no);
        self.cache.insert(
            page_no,
            CachedPage {
                data,
                last_used: tick,
            },
        );
    }

    /// Drop every cached page (after a compaction rewrote the log).
    fn clear_cache(&mut self) {
        self.lru.clear();
        self.cache.clear();
        self.cached_bytes = 0;
    }
}

impl StorageBackend for BlockCacheBackend {
    fn name(&self) -> &'static str {
        "blockcache"
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let Some(&(offset, len)) = self.core.index.get(key) else {
            return Ok(None);
        };
        self.read_range(offset, len as usize).map(Some)
    }

    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        let old_tail = self.core.tail;
        let entry = self.core.append(key, Some(value))?;
        self.invalidate_page_at(old_tail);
        let Some(entry) = entry else {
            // append only returns None for tombstones; a put always carries
            // a value, so treat the impossible case as corruption.
            return Err(StorageError::Corrupt("put appended no entry".into()));
        };
        self.core.index.insert(key.to_vec(), entry);
        Ok(())
    }

    fn delete(&mut self, key: &[u8]) -> Result<bool> {
        if !self.core.index.contains_key(key) {
            return Ok(false);
        }
        let old_tail = self.core.tail;
        // Tombstone first: if the append fails, index and log still agree.
        self.core.append(key, None)?;
        self.invalidate_page_at(old_tail);
        self.core.index.remove(key);
        Ok(true)
    }

    fn contains(&self, key: &[u8]) -> bool {
        self.core.index.contains_key(key)
    }

    fn len(&self) -> usize {
        self.core.index.len()
    }

    fn keys(&self) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = self.core.index.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    fn compact(&mut self) -> Result<u64> {
        let reclaimed = self.core.compact()?;
        self.clear_cache();
        Ok(reclaimed)
    }

    fn storage_bytes(&self) -> u64 {
        self.core.tail
    }

    fn io_snapshot(&self) -> IoSnapshot {
        self.core.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One backend of every kind, block cache tuned for eviction pressure.
    fn all_backends() -> Vec<Box<dyn StorageBackend>> {
        vec![
            Box::new(InMemoryBackend::new()),
            Box::new(LogFileBackend::temp("backend-conf").unwrap()),
            Box::new(
                BlockCacheBackend::temp("backend-conf", 256)
                    .unwrap()
                    .with_page_size(64),
            ),
        ]
    }

    #[test]
    fn conformance_put_get_delete_compact() {
        for mut backend in all_backends() {
            let name = backend.name();
            assert!(backend.is_empty(), "{name}");
            backend.put(b"a", b"alpha").unwrap();
            backend.put(b"b", b"").unwrap();
            backend.put(b"a", b"alpha-2").unwrap();
            assert_eq!(
                backend.get(b"a").unwrap().as_deref(),
                Some(&b"alpha-2"[..]),
                "{name}"
            );
            assert_eq!(
                backend.get(b"b").unwrap().as_deref(),
                Some(&b""[..]),
                "{name}"
            );
            assert_eq!(backend.get(b"c").unwrap(), None, "{name}");
            assert_eq!(backend.len(), 2, "{name}");
            assert!(backend.contains(b"a") && !backend.contains(b"c"), "{name}");

            let mut keys = backend.keys();
            keys.sort();
            assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec()], "{name}");

            assert!(backend.delete(b"b").unwrap(), "{name}");
            assert!(!backend.delete(b"b").unwrap(), "{name}");
            assert_eq!(backend.get(b"b").unwrap(), None, "{name}");
            assert_eq!(backend.len(), 1, "{name}");

            backend.compact().unwrap();
            assert_eq!(
                backend.get(b"a").unwrap().as_deref(),
                Some(&b"alpha-2"[..]),
                "{name}: compact must preserve live data"
            );
        }
    }

    #[test]
    fn conformance_many_keys_random_access() {
        for mut backend in all_backends() {
            let name = backend.name();
            for i in 0..300u32 {
                backend
                    .put(&i.to_le_bytes(), format!("value-{i}").as_bytes())
                    .unwrap();
            }
            for i in (0..300u32).rev().step_by(7) {
                assert_eq!(
                    backend.get(&i.to_le_bytes()).unwrap(),
                    Some(format!("value-{i}").into_bytes()),
                    "{name} key {i}"
                );
            }
            assert_eq!(backend.len(), 300, "{name}");
        }
    }

    #[test]
    fn io_snapshot_counters_are_monotone() {
        for mut backend in all_backends() {
            let name = backend.name();
            let mut previous = backend.io_snapshot();
            for i in 0..50u32 {
                backend.put(&i.to_le_bytes(), &[0u8; 40]).unwrap();
                let _ = backend.get(&i.to_le_bytes()).unwrap();
                let snap = backend.io_snapshot();
                for (now, before) in [
                    (snap.read_ops, previous.read_ops),
                    (snap.write_ops, previous.write_ops),
                    (snap.seek_ops, previous.seek_ops),
                    (snap.bytes_read, previous.bytes_read),
                    (snap.bytes_written, previous.bytes_written),
                    (snap.evictions, previous.evictions),
                ] {
                    assert!(now >= before, "{name}: counter went backwards");
                }
                previous = snap;
            }
            assert!(previous.write_ops > 0, "{name}: puts must be accounted");
            assert!(previous.read_ops > 0, "{name}: gets must be accounted");
        }
    }

    #[test]
    fn log_files_reopen_with_index_rebuilt() {
        let dir = TempDir::new("backend-reopen").unwrap();
        let path = dir.file("store.log");
        {
            let mut backend = LogFileBackend::create(&path).unwrap();
            for i in 0..40u32 {
                backend.put(&i.to_le_bytes(), &[i as u8; 16]).unwrap();
            }
            backend.put(&7u32.to_le_bytes(), b"updated").unwrap();
            backend.delete(&3u32.to_le_bytes()).unwrap();
        }
        let mut reopened = LogFileBackend::open(&path).unwrap();
        assert_eq!(reopened.len(), 39);
        assert_eq!(
            reopened.get(&7u32.to_le_bytes()).unwrap().as_deref(),
            Some(&b"updated"[..])
        );
        assert_eq!(reopened.get(&3u32.to_le_bytes()).unwrap(), None);
        assert_eq!(
            reopened.get(&11u32.to_le_bytes()).unwrap(),
            Some(vec![11u8; 16])
        );
    }

    #[test]
    fn truncated_tail_is_recovered() {
        let dir = TempDir::new("backend-trunc").unwrap();
        let path = dir.file("store.log");
        let full_len;
        {
            let mut backend = LogFileBackend::create(&path).unwrap();
            backend.put(b"first", b"one").unwrap();
            backend.put(b"second", b"two").unwrap();
            full_len = backend.storage_bytes();
        }
        // Chop bytes off the final record: a crash mid-append.
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full_len - 2).unwrap();
        drop(file);
        let mut recovered = LogFileBackend::open(&path).unwrap();
        assert_eq!(
            recovered.get(b"first").unwrap().as_deref(),
            Some(&b"one"[..])
        );
        assert_eq!(
            recovered.get(b"second").unwrap(),
            None,
            "the partial tail record must be dropped"
        );
        // Opening alone never alters the file: the unparseable tail is still
        // on disk until the store is written to.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            full_len - 2,
            "read-only recovery must not truncate"
        );
        // The store stays writable after recovery; the first append cuts the
        // partial tail so the log ends exactly at the new frame.
        recovered.put(b"third", b"three").unwrap();
        assert_eq!(
            recovered.get(b"third").unwrap().as_deref(),
            Some(&b"three"[..])
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            recovered.storage_bytes(),
            "append after recovery must leave no trailing garbage"
        );
        // A second recovery round-trips cleanly.
        drop(recovered);
        let mut again = LogFileBackend::open(&path).unwrap();
        assert_eq!(again.get(b"first").unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(again.get(b"third").unwrap().as_deref(), Some(&b"three"[..]));
    }

    #[test]
    fn bad_varint_is_a_corrupt_error_not_a_panic() {
        let dir = TempDir::new("backend-badvarint").unwrap();
        let path = dir.file("store.log");
        // Tag byte then a varint of twelve continuation bytes: overflow (a
        // u64 varint is at most ten bytes).
        let mut bytes = vec![TAG_PUT];
        bytes.extend_from_slice(&[0xFF; 12]);
        std::fs::write(&path, &bytes).unwrap();
        match LogFileBackend::open(&path) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("varint"), "{msg}"),
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        // An unknown tag is likewise structural corruption.
        std::fs::write(&path, [9u8, 0, 0]).unwrap();
        assert!(matches!(
            LogFileBackend::open(&path),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn block_cache_respects_budget_and_reports_evictions() {
        let mut backend = BlockCacheBackend::temp("backend-budget", 128)
            .unwrap()
            .with_page_size(32);
        for i in 0..100u32 {
            backend.put(&i.to_le_bytes(), &[i as u8; 24]).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(
                backend.get(&i.to_le_bytes()).unwrap(),
                Some(vec![i as u8; 24])
            );
        }
        assert!(
            backend.cached_bytes() <= 128,
            "cache must stay within its budget, used {}",
            backend.cached_bytes()
        );
        let snap = backend.io_snapshot();
        assert!(snap.evictions > 0, "a tiny budget must evict: {snap:?}");
    }

    #[test]
    fn block_cache_with_roomy_budget_reads_each_page_once() {
        let mut backend = BlockCacheBackend::temp("backend-roomy", 1 << 20).unwrap();
        for i in 0..50u32 {
            backend.put(&i.to_le_bytes(), &[i as u8; 32]).unwrap();
        }
        let after_writes = backend.io_snapshot();
        // Read everything twice: the second sweep must be pure cache hits.
        for _ in 0..2 {
            for i in 0..50u32 {
                assert_eq!(
                    backend.get(&i.to_le_bytes()).unwrap(),
                    Some(vec![i as u8; 32])
                );
            }
        }
        let after_reads = backend.io_snapshot().delta(&after_writes);
        assert_eq!(after_reads.evictions, 0);
        // All data fits in one 4 KiB page: exactly one real page fetch.
        assert_eq!(
            after_reads.read_ops, 1,
            "warm reads must not touch the disk: {after_reads:?}"
        );
    }

    #[test]
    fn block_cache_sees_its_own_appends() {
        // The tail page is invalidated on every append; interleaved put/get
        // must never serve stale bytes.
        let mut backend = BlockCacheBackend::temp("backend-stale", 4096)
            .unwrap()
            .with_page_size(64);
        for round in 0..20u8 {
            backend.put(b"k", &[round; 48]).unwrap();
            assert_eq!(
                backend.get(b"k").unwrap(),
                Some(vec![round; 48]),
                "round {round}"
            );
        }
    }

    #[test]
    fn spec_parse_and_display_roundtrip() {
        for spec in [
            StorageSpec::Memory,
            StorageSpec::LogFile,
            StorageSpec::BlockCache { budget_bytes: 777 },
            StorageSpec::Fault {
                seed: 42,
                every: 100,
                inner: FaultInner::LogFile,
            },
            StorageSpec::Fault {
                seed: 7,
                every: 3,
                inner: FaultInner::BlockCache { budget_bytes: 4096 },
            },
        ] {
            assert_eq!(StorageSpec::parse(&spec.to_string()), Some(spec));
        }
        assert_eq!(
            StorageSpec::parse("blockcache"),
            Some(StorageSpec::BlockCache {
                budget_bytes: StorageSpec::DEFAULT_BLOCK_CACHE_BUDGET
            })
        );
        assert_eq!(StorageSpec::parse("mmap"), None);
        assert_eq!(StorageSpec::parse("blockcache:big"), None);
        // Fault layers cannot nest, and malformed fault specs are rejected.
        assert_eq!(StorageSpec::parse("fault:1:2:fault:3:4:memory"), None);
        assert_eq!(StorageSpec::parse("fault:1:memory"), None);
        assert_eq!(StorageSpec::parse("fault:x:2:memory"), None);
    }

    #[test]
    fn spec_create_at_then_open_at_round_trips() {
        for spec in [
            StorageSpec::LogFile,
            StorageSpec::BlockCache { budget_bytes: 4096 },
        ] {
            let dir = TempDir::new("backend-spec-open").unwrap();
            let path = dir.file("store.log");
            {
                let mut backend = spec.create_at(&path).unwrap();
                backend.put(b"k", b"persisted").unwrap();
            }
            // open_at must *reopen* — never truncate — the existing log.
            let mut reopened = spec.open_at(&path).unwrap();
            assert_eq!(
                reopened.get(b"k").unwrap().as_deref(),
                Some(&b"persisted"[..]),
                "{spec}"
            );
            // And create_at must start fresh.
            let mut fresh = spec.create_at(&path).unwrap();
            assert_eq!(fresh.get(b"k").unwrap(), None, "{spec}");
        }
    }

    #[test]
    fn spec_open_temp_builds_working_backends() {
        for spec in StorageSpec::ALL {
            let mut backend = spec.open_temp("backend-spec").unwrap();
            assert_eq!(backend.name(), spec.name());
            backend.put(b"x", b"y").unwrap();
            assert_eq!(backend.get(b"x").unwrap().as_deref(), Some(&b"y"[..]));
        }
    }
}
