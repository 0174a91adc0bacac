//! Crash-safe streaming: checksummed checkpoints, an append-only delta WAL, and
//! deterministic recovery for [`IncrementalSummarizer`] streams.
//!
//! The incremental re-summarizer keeps its state (summary, engine bookkeeping,
//! current graph, RNG epoch) only in RAM: a crash mid-stream loses every batch
//! since start.  [`DurableSummarizer`] wraps it in a **log-ahead protocol** so a
//! streaming session can restart from disk mid-stream and land on the *same*
//! summary an uninterrupted run would have produced (in id-free canonical form —
//! see [`crate::decode::canonical_form`]):
//!
//! 1. **Log ahead.**  Each [`DurableSummarizer::ingest`] first appends the
//!    [`GraphDelta`] verbatim to the current WAL segment (length-prefixed,
//!    per-record CRC32) and fsyncs it, *then* applies the batch through the
//!    normal [`IncrementalSummarizer::resummarize`] path.  A batch is therefore
//!    on disk before it is ever reflected in RAM.
//! 2. **Checkpoint.**  Every [`DurablePolicy::checkpoint_every_batches`] batches
//!    (or once the WAL grows past [`DurablePolicy::checkpoint_wal_bytes`]), the
//!    maintained summary is serialized via [`crate::storage::write_summary`]
//!    into a checkpoint file together with the deterministic-resume counters
//!    (pipeline epoch, batch count, seed), each section guarded by its own
//!    CRC32.  Checkpoints are written temp-file → fsync → rename → dir-fsync, so
//!    a crash never clobbers the previous one; the latest **two** checkpoints
//!    are retained and the WAL is only truncated up to the *older* of them, so
//!    recovery can always fall back one checkpoint and replay a longer WAL tail.
//! 3. **Recover.**  [`DurableSummarizer::open`] loads the newest checkpoint that
//!    passes its checksums (falling back to the previous one if the newest is
//!    corrupt), reconstructs the current graph by *decoding the summary* (the
//!    lossless invariant makes the summary itself the graph of record), restores
//!    the RNG epoch through [`IncrementalSummarizer::resume`], and replays every
//!    WAL record past the checkpoint through the normal batch path.  A torn
//!    final record (crash mid-append) is ignored and the active segment is
//!    **healed** — rewritten down to its intact prefix — before appends resume,
//!    so post-recovery batches are never stranded behind torn bytes; duplicated
//!    tail records (re-appended after a failed fsync) are skipped by batch
//!    index; anything else inconsistent — a gap in batch indexes, records after
//!    a torn tail, a record naming a node outside the graph — is a **typed
//!    error**, never a panic and never a silently wrong summary.
//!
//! Deltas are validated at the boundary: [`DurableSummarizer::ingest`] rejects
//! a delta naming a node id outside the graph with
//! [`DurableError::InvalidDelta`] *before* the WAL append, so a bad delta can
//! neither panic the batch path nor poison every later recovery.
//!
//! Determinism of recovery is the load-bearing invariant: because the checkpoint
//! pins `(summary, epoch, batches)` and replay goes through the ordinary
//! resummarize path, a kill-and-recover at *any* point produces a summary whose
//! id-free canonical form is byte-identical to the uninterrupted run, across the
//! whole `parallelism` scheduling lattice (pinned by
//! `crates/core/tests/durable_recovery.rs`).
//!
//! All I/O goes through the [`DurableIo`] trait.  [`DirIo`] is the real
//! filesystem implementation (one flat directory); [`fault::MemIo`] is an
//! in-memory filesystem with fault injection (fail-at-op-k with partial writes,
//! fsync failures, crash-drops-unsynced-data) that the recovery tests use to
//! kill the protocol at every step.
//!
//! ```
//! use slugger_core::decode::canonical_form;
//! use slugger_core::incremental::{IncrementalConfig, IncrementalSummarizer};
//! use slugger_core::storage::durable::{fault::MemIo, DurablePolicy, DurableSummarizer};
//! use slugger_graph::stream::GraphDelta;
//! use slugger_graph::Graph;
//!
//! let graph = Graph::from_edges(6, vec![(0, 1), (1, 2), (3, 4)]);
//! let config = IncrementalConfig::default();
//! let io = MemIo::new();
//!
//! // A durable stream: every ingested delta hits the WAL before it is applied.
//! let inner = IncrementalSummarizer::from_graph(&graph, config);
//! let mut durable =
//!     DurableSummarizer::create(inner, DurablePolicy::default(), io.clone()).unwrap();
//! durable.ingest(&GraphDelta::from_insertions([(2, 3), (4, 5)])).unwrap();
//! let before_crash = canonical_form(durable.summary());
//!
//! // "Crash": drop the summarizer, lose all RAM state (synced data survives).
//! drop(durable);
//! let mut crashed = io.clone();
//! crashed.crash(0);
//!
//! // Recovery replays the WAL and lands on the identical summary.
//! let (recovered, report) =
//!     DurableSummarizer::open(config, DurablePolicy::default(), crashed).unwrap();
//! assert_eq!(report.replayed_batches, 1);
//! assert_eq!(canonical_form(recovered.summary()), before_crash);
//! ```

use crate::incremental::{BatchReport, IncrementalConfig, IncrementalSummarizer};
use crate::model::HierarchicalSummary;
use crate::storage::{read_summary, write_summary, StorageError};
use slugger_graph::stream::GraphDelta;
use slugger_graph::NodeId;
use std::io;
use std::path::{Path, PathBuf};

/// Magic bytes of a checkpoint file ("SLGC").
pub const CKPT_MAGIC: [u8; 4] = *b"SLGC";
/// Magic bytes of a WAL segment file ("SLGW").
pub const WAL_MAGIC: [u8; 4] = *b"SLGW";
/// Version of the durable file formats.
pub const DURABLE_VERSION: u8 = 1;

/// Temp name a checkpoint is staged under before the atomic rename.
const CKPT_TMP: &str = "ckpt.tmp";
/// Fixed byte length of the checkpoint header (magic through header CRC).
const CKPT_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 8 + 8 + 8 + 4;
/// Fixed byte length of a WAL segment header (magic through header CRC).
const WAL_HEADER_LEN: usize = 4 + 1 + 8 + 4;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the ubiquitous zlib polynomial).

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of a byte slice.  Guards every durable-file section; a single
/// flipped byte is a burst error well under 32 bits, which this polynomial
/// detects with certainty — so a section that passes its CRC is intact against
/// the fault models the recovery tests inject.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Errors.

/// Errors of the durable layer.
#[derive(Debug)]
pub enum DurableError {
    /// Underlying I/O failure (including injected faults in tests).
    Io(io::Error),
    /// The checkpoint payload failed summary decoding.
    Storage(StorageError),
    /// A durable file is structurally invalid beyond what torn-tail tolerance
    /// covers (checksum-valid gap in batch indexes, records after a torn tail,
    /// mismatched segment sequence, …).
    Corrupt {
        /// File the inconsistency was found in.
        file: String,
        /// What was wrong.
        what: &'static str,
    },
    /// Recovery found no checkpoint that passes validation (an empty or
    /// never-initialized directory, or every retained checkpoint corrupt).
    NoCheckpoint,
    /// The persisted state and the caller's request disagree (seed mismatch,
    /// directory already initialized, …).
    State(String),
    /// [`DurableSummarizer::ingest`] rejected a delta naming a node id outside
    /// the stream's node range.  Nothing was logged or applied; the stream
    /// stays usable.
    InvalidDelta {
        /// The first out-of-range node id of the delta.
        node: NodeId,
        /// The stream's node count (valid ids are `0..num_nodes`).
        num_nodes: usize,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "I/O error: {e}"),
            DurableError::Storage(e) => write!(f, "checkpoint payload: {e}"),
            DurableError::Corrupt { file, what } => {
                write!(f, "corrupt durable file {file}: {what}")
            }
            DurableError::NoCheckpoint => write!(f, "no valid checkpoint to recover from"),
            DurableError::State(what) => write!(f, "invalid durable state: {what}"),
            DurableError::InvalidDelta { node, num_nodes } => write!(
                f,
                "delta names node {node}, but the graph has {num_nodes} nodes"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<StorageError> for DurableError {
    fn from(e: StorageError) -> Self {
        DurableError::Storage(e)
    }
}

// ---------------------------------------------------------------------------
// The I/O abstraction.

/// Every byte the durable layer touches goes through this trait, so tests can
/// substitute a fault-injecting in-memory filesystem ([`fault::MemIo`]) and
/// kill the protocol at any step.  The namespace is flat: one durable directory,
/// files addressed by name.
///
/// Contract expected from implementations (and modeled by `MemIo`):
/// * [`DurableIo::write`] and [`DurableIo::append`] buffer data that is only
///   guaranteed to survive a crash once [`DurableIo::sync`] on that file
///   returns `Ok`;
/// * [`DurableIo::rename`] and [`DurableIo::remove`] are metadata operations,
///   made durable by [`DurableIo::sync_dir`];
/// * a failed operation may have been partially applied (short write) — the
///   formats tolerate exactly that at the tail of a file.
pub trait DurableIo {
    /// Reads a whole file.
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>>;
    /// Lists the file names in the directory (any order).
    fn list(&mut self) -> io::Result<Vec<String>>;
    /// Creates/truncates `name` and writes `bytes` to it.
    fn write(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to `name`, creating it if absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;
    /// Makes `name`'s current contents durable (fsync).
    fn sync(&mut self, name: &str) -> io::Result<()>;
    /// Makes directory-level metadata (renames, removals, creations) durable.
    fn sync_dir(&mut self) -> io::Result<()>;
    /// Atomically renames `from` to `to`, replacing `to` if present.
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()>;
    /// Removes `name`.
    fn remove(&mut self, name: &str) -> io::Result<()>;
}

/// The real-filesystem [`DurableIo`]: a flat directory of files.
#[derive(Debug)]
pub struct DirIo {
    dir: PathBuf,
}

impl DirIo {
    /// Opens (creating if needed) the durable directory.
    pub fn new<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(DirIo {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// The underlying directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl DurableIo for DirIo {
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(out)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(self.path(name), bytes)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        file.write_all(bytes)
    }

    fn sync(&mut self, name: &str) -> io::Result<()> {
        std::fs::File::open(self.path(name))?.sync_all()
    }

    fn sync_dir(&mut self) -> io::Result<()> {
        // Directory fsync is how renames/creations become durable on Linux.
        // Only the error kinds meaning "this platform cannot open a directory
        // for syncing" (Windows, restrictive mount options) downgrade to a
        // no-op — the rename itself is still atomic there.  Anything else
        // (directory removed, fd exhaustion) is a real durability failure and
        // must not be reported as success.
        match std::fs::File::open(&self.dir) {
            Ok(d) => d.sync_all(),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Unsupported | io::ErrorKind::PermissionDenied
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.path(name))
    }
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode helpers over plain byte vectors.

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4-byte slice")))
}

fn get_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
}

/// Checkpoint file name for a sequence number.
pub fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:016x}.slgc")
}

/// WAL segment file name for a checkpoint sequence number.
pub fn wal_name(seq: u64) -> String {
    format!("wal-{seq:016x}.slgw")
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

// ---------------------------------------------------------------------------
// Checkpoint format.

/// The deterministic-resume state a checkpoint carries next to the summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CheckpointHeader {
    seq: u64,
    epoch: u64,
    batches: u64,
    seed: u64,
}

/// Encodes a checkpoint: header (magic, version, seq/epoch/batches/seed,
/// payload length, header CRC) followed by the `write_summary` payload and the
/// payload CRC.  The two CRCs are independent so header corruption and payload
/// corruption are distinguishable — both fail closed.
fn encode_checkpoint(header: CheckpointHeader, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CKPT_HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(&CKPT_MAGIC);
    out.push(DURABLE_VERSION);
    put_u64(&mut out, header.seq);
    put_u64(&mut out, header.epoch);
    put_u64(&mut out, header.batches);
    put_u64(&mut out, header.seed);
    put_u64(&mut out, payload.len() as u64);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    debug_assert_eq!(out.len(), CKPT_HEADER_LEN);
    out.extend_from_slice(payload);
    put_u32(&mut out, crc32(payload));
    out
}

/// Decodes and checksum-validates a checkpoint file; the payload is returned
/// still serialized (summary decoding has its own hardened path).
fn decode_checkpoint(
    file: &str,
    bytes: &[u8],
) -> Result<(CheckpointHeader, Vec<u8>), DurableError> {
    let corrupt = |what: &'static str| DurableError::Corrupt {
        file: file.to_string(),
        what,
    };
    if bytes.len() < CKPT_HEADER_LEN + 4 {
        return Err(corrupt("truncated checkpoint header"));
    }
    if bytes[..4] != CKPT_MAGIC {
        return Err(corrupt("bad checkpoint magic"));
    }
    if bytes[4] != DURABLE_VERSION {
        return Err(corrupt("unsupported checkpoint version"));
    }
    let stored_crc = get_u32(bytes, CKPT_HEADER_LEN - 4).expect("length checked");
    if crc32(&bytes[..CKPT_HEADER_LEN - 4]) != stored_crc {
        return Err(corrupt("checkpoint header checksum mismatch"));
    }
    let header = CheckpointHeader {
        seq: get_u64(bytes, 5).expect("length checked"),
        epoch: get_u64(bytes, 13).expect("length checked"),
        batches: get_u64(bytes, 21).expect("length checked"),
        seed: get_u64(bytes, 29).expect("length checked"),
    };
    let payload_len = get_u64(bytes, 37).expect("length checked") as usize;
    let body = &bytes[CKPT_HEADER_LEN..];
    if body.len() != payload_len + 4 {
        return Err(corrupt("checkpoint payload length mismatch"));
    }
    let payload = &body[..payload_len];
    let payload_crc = get_u32(body, payload_len).expect("length checked");
    if crc32(payload) != payload_crc {
        return Err(corrupt("checkpoint payload checksum mismatch"));
    }
    Ok((header, payload.to_vec()))
}

// ---------------------------------------------------------------------------
// WAL format.

fn encode_wal_header(seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(&WAL_MAGIC);
    out.push(DURABLE_VERSION);
    put_u64(&mut out, seq);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    debug_assert_eq!(out.len(), WAL_HEADER_LEN);
    out
}

/// Encodes one WAL record: `[payload len][payload crc][payload]` with the
/// payload being `[batch index][deletion count][insertion count][edge pairs]`.
/// The delta is serialized verbatim (order and no-op entries included) so
/// replaying it through `resummarize` is byte-faithful to the original call.
fn encode_wal_record(batch: u64, delta: &GraphDelta) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + 8 * (delta.deletions.len() + delta.insertions.len()));
    put_u64(&mut payload, batch);
    put_u32(&mut payload, delta.deletions.len() as u32);
    put_u32(&mut payload, delta.insertions.len() as u32);
    for &(u, v) in delta.deletions.iter().chain(delta.insertions.iter()) {
        put_u32(&mut payload, u);
        put_u32(&mut payload, v);
    }
    let mut out = Vec::with_capacity(8 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Everything recovered from one WAL segment.
struct WalSegment {
    records: Vec<(u64, GraphDelta)>,
    /// The segment ended in a torn (incomplete or checksum-failing) tail, which
    /// recovery tolerates **only** when nothing valid follows it.
    torn: bool,
    /// Byte length of the intact prefix (header plus every valid record); the
    /// bytes past it are the torn tail.  Recovery rewrites the active segment
    /// down to this length before accepting new appends, so an acknowledged
    /// batch can never land behind torn bytes where a later recovery's
    /// stop-at-first-torn-record parse would not reach it.
    valid_len: usize,
}

/// Parses a WAL segment, stopping at the first torn record (see the module docs
/// for the torn-tail rules).  A header that does not parse is treated as a
/// fully torn segment (crash during segment creation); a *checksum-valid*
/// header carrying the wrong sequence number is a hard error.
fn parse_wal_segment(
    file: &str,
    bytes: &[u8],
    expected_seq: u64,
) -> Result<WalSegment, DurableError> {
    let corrupt = |what: &'static str| DurableError::Corrupt {
        file: file.to_string(),
        what,
    };
    let torn = |records, valid_len| {
        Ok(WalSegment {
            records,
            torn: true,
            valid_len,
        })
    };
    if bytes.len() < WAL_HEADER_LEN
        || bytes[..4] != WAL_MAGIC
        || bytes[4] != DURABLE_VERSION
        || crc32(&bytes[..WAL_HEADER_LEN - 4]) != get_u32(bytes, WAL_HEADER_LEN - 4).unwrap_or(0)
    {
        return torn(Vec::new(), 0);
    }
    if get_u64(bytes, 5).expect("length checked") != expected_seq {
        return Err(corrupt("wal segment sequence mismatch"));
    }
    let mut records = Vec::new();
    let mut at = WAL_HEADER_LEN;
    while at < bytes.len() {
        let (len, crc) = match (get_u32(bytes, at), get_u32(bytes, at + 4)) {
            (Some(len), Some(crc)) => (len as usize, crc),
            _ => return torn(records, at),
        };
        let Some(payload) = bytes.get(at + 8..at + 8 + len) else {
            return torn(records, at);
        };
        if crc32(payload) != crc {
            return torn(records, at);
        }
        // Past the CRC the record is intact: internal inconsistency can only be
        // a writer bug or corruption beyond the torn-tail model — fail closed.
        if len < 16 {
            return Err(corrupt("wal record shorter than its fixed fields"));
        }
        let batch = get_u64(payload, 0).expect("length checked");
        let ndel = get_u32(payload, 8).expect("length checked") as usize;
        let nins = get_u32(payload, 12).expect("length checked") as usize;
        if len != 16 + 8 * (ndel + nins) {
            return Err(corrupt("wal record length disagrees with its counts"));
        }
        let mut pairs = (0..ndel + nins).map(|i| {
            (
                get_u32(payload, 16 + 8 * i).expect("length checked"),
                get_u32(payload, 20 + 8 * i).expect("length checked"),
            )
        });
        let delta = GraphDelta {
            deletions: pairs.by_ref().take(ndel).collect(),
            insertions: pairs.collect(),
        };
        records.push((batch, delta));
        at += 8 + len;
    }
    Ok(WalSegment {
        records,
        torn: false,
        valid_len: at,
    })
}

// ---------------------------------------------------------------------------
// The durable wrapper.

/// When [`DurableSummarizer`] writes a checkpoint and truncates the WAL.
///
/// Between checkpoints, recovery time is proportional to the WAL tail that must
/// be replayed; checkpoints themselves cost one summary serialization plus two
/// fsyncs.  Both triggers are disjunctive — whichever fires first.
#[derive(Clone, Copy, Debug)]
pub struct DurablePolicy {
    /// Checkpoint after this many ingested batches (`0` disables the
    /// batch-count trigger).
    pub checkpoint_every_batches: usize,
    /// Checkpoint once the current WAL segment exceeds this many bytes (`0`
    /// disables the byte trigger).
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurablePolicy {
    fn default() -> Self {
        DurablePolicy {
            checkpoint_every_batches: 8,
            checkpoint_wal_bytes: 1 << 20,
        }
    }
}

/// What [`DurableSummarizer::open`] did to get back to a consistent state.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery loaded.
    pub checkpoint_seq: u64,
    /// Checkpoints that failed validation before one loaded (0 = the newest
    /// loaded cleanly; 1 = fell back to the previous checkpoint).
    pub checkpoints_skipped: usize,
    /// WAL batches replayed through the normal resummarize path.
    pub replayed_batches: usize,
    /// A torn WAL tail (crash mid-append) was found and discarded.
    pub torn_tail: bool,
}

/// Crash-safe wrapper around [`IncrementalSummarizer`]: see the module docs for
/// the protocol.  Generic over [`DurableIo`]; production code uses
/// [`DirIo`], the fault-injection tests use [`fault::MemIo`].
pub struct DurableSummarizer<IO: DurableIo> {
    inner: IncrementalSummarizer,
    io: IO,
    policy: DurablePolicy,
    /// Newest checkpoint known valid (recovery starts here).
    trusted_seq: u64,
    /// Retention floor: files below this sequence are dead and removed at the
    /// next checkpoint (always ≤ `trusted_seq`; the gap is the fallback window).
    keep_seq: u64,
    /// Next checkpoint sequence to allocate (strictly above every sequence ever
    /// seen in the directory, valid or not).
    next_seq: u64,
    /// Segment new WAL records are appended to.
    wal_seq: u64,
    /// Bytes in the current WAL segment (header included).
    wal_bytes: u64,
    /// Batches ingested since the last checkpoint.
    batches_since_checkpoint: usize,
}

impl<IO: DurableIo> DurableSummarizer<IO> {
    /// Initializes a fresh durable directory around an existing (typically just
    /// bootstrapped) summarizer: writes checkpoint 0 and opens WAL segment 0.
    /// Fails if the directory already holds a durable stream — recover it with
    /// [`DurableSummarizer::open`] (or [`DurableSummarizer::open_or_create`])
    /// instead of clobbering it.
    pub fn create(
        inner: IncrementalSummarizer,
        policy: DurablePolicy,
        mut io: IO,
    ) -> Result<Self, DurableError> {
        let (ckpts, _wals) = scan(&mut io)?;
        if !ckpts.is_empty() {
            return Err(DurableError::State(
                "durable directory already initialized; open it instead".to_string(),
            ));
        }
        let mut this = DurableSummarizer {
            inner,
            io,
            policy,
            trusted_seq: 0,
            keep_seq: 0,
            next_seq: 0,
            wal_seq: 0,
            wal_bytes: 0,
            batches_since_checkpoint: 0,
        };
        this.write_checkpoint()?;
        Ok(this)
    }

    /// Recovers a durable stream from its directory: newest valid checkpoint
    /// (falling back once if the newest is corrupt), then WAL replay through the
    /// normal batch path.  `config` must match the one the stream was created
    /// with — the seed is persisted and checked, since a different seed would
    /// silently break the determinism-of-recovery invariant.
    ///
    /// The persistent candidate index
    /// ([`IncrementalSummarizer::candidate_index`]) is **not** persisted:
    /// recovery rebuilds it cold.  That is deliberately
    /// safe for identity — an empty cache means every root re-hashes, and
    /// shingle seeds are batch-stable
    /// ([`crate::incremental::pass_shingle_seed`]), so the replayed batches
    /// compute exactly what the uninterrupted run computed; the cache re-warms
    /// over the first replayed batches.
    pub fn open(
        config: IncrementalConfig,
        policy: DurablePolicy,
        mut io: IO,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let (ckpts, wals) = scan(&mut io)?;
        if ckpts.is_empty() {
            return Err(DurableError::NoCheckpoint);
        }
        let mut report = RecoveryReport::default();
        // Newest checkpoint that validates wins; every reject is counted.
        let mut chosen: Option<(CheckpointHeader, HierarchicalSummary)> = None;
        for &seq in ckpts.iter().rev() {
            match load_checkpoint(&mut io, seq) {
                Ok((header, summary)) => {
                    report.checkpoint_seq = seq;
                    chosen = Some((header, summary));
                    break;
                }
                // A transient read failure (EINTR, fd exhaustion, …) is not
                // evidence of corruption: silently falling back a checkpoint —
                // or reporting NoCheckpoint when valid checkpoints exist on
                // disk — would discard acknowledged state.  Propagate instead;
                // the caller retries recovery once the condition clears.
                Err(e @ DurableError::Io(_)) => return Err(e),
                Err(_) => report.checkpoints_skipped += 1,
            }
        }
        let Some((header, summary)) = chosen else {
            return Err(DurableError::NoCheckpoint);
        };
        if header.seed != config.seed {
            return Err(DurableError::State(format!(
                "checkpoint was written with seed {} but the stream is opened with seed {}",
                header.seed, config.seed
            )));
        }
        // The summary is lossless, so it *is* the graph of record.
        let graph = crate::decode::decode_full(&summary);
        let mut inner = IncrementalSummarizer::resume(
            summary,
            &graph,
            config,
            header.epoch as usize,
            header.batches as usize,
        )
        .map_err(DurableError::State)?;

        // Appends will continue on the newest segment (created below if the
        // crash hit between checkpoint rename and segment creation).
        let wal_seq = wals
            .iter()
            .copied()
            .max()
            .unwrap_or(header.seq)
            .max(header.seq);

        // Replay every WAL record past the checkpoint, oldest segment first.
        // Duplicated tail records (batch index already applied) are skipped; a
        // gap, or a valid record after a torn tail, is corruption.
        let mut saw_torn = false;
        let mut active: Option<(Vec<u8>, usize, bool)> = None;
        for &wseq in wals.iter().filter(|&&w| w >= header.seq) {
            let name = wal_name(wseq);
            let bytes = io.read(&name)?;
            let segment = parse_wal_segment(&name, &bytes, wseq)?;
            for (batch, delta) in &segment.records {
                if *batch <= inner.batches() as u64 {
                    continue;
                }
                if saw_torn {
                    return Err(DurableError::Corrupt {
                        file: name,
                        what: "valid wal records follow a torn tail",
                    });
                }
                if *batch != inner.batches() as u64 + 1 {
                    return Err(DurableError::Corrupt {
                        file: name,
                        what: "gap in wal batch indexes",
                    });
                }
                if out_of_range_node(delta, inner.graph().num_nodes()).is_some() {
                    return Err(DurableError::Corrupt {
                        file: name,
                        what: "wal record names a node outside the graph",
                    });
                }
                inner.resummarize(delta);
                report.replayed_batches += 1;
            }
            saw_torn |= segment.torn;
            if wseq == wal_seq {
                active = Some((bytes, segment.valid_len, segment.torn));
            }
        }
        report.torn_tail = saw_torn;

        let wal_file = wal_name(wal_seq);
        let wal_bytes = match active {
            // Heal a torn active segment before accepting appends: rewrite it
            // down to its intact prefix (or a fresh header when the header
            // itself is torn), so the next record lands directly after the
            // last valid one.  Appending past the torn bytes instead would
            // make every post-recovery batch unreachable to the next
            // recovery, whose parse stops at the first torn record —
            // acknowledged, fsynced batches would silently vanish.
            Some((bytes, valid_len, true)) => {
                let intact = if valid_len >= WAL_HEADER_LEN {
                    bytes[..valid_len].to_vec()
                } else {
                    encode_wal_header(wal_seq)
                };
                io.write(&wal_file, &intact)?;
                io.sync(&wal_file)?;
                io.sync_dir()?;
                intact.len() as u64
            }
            Some((bytes, _, false)) => bytes.len() as u64,
            None => {
                let head = encode_wal_header(wal_seq);
                io.write(&wal_file, &head)?;
                io.sync(&wal_file)?;
                io.sync_dir()?;
                head.len() as u64
            }
        };
        let next_seq = ckpts
            .iter()
            .chain(wals.iter())
            .copied()
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        let mut this = DurableSummarizer {
            inner,
            io,
            policy,
            trusted_seq: header.seq,
            // Conservative retention until the next checkpoint: keep everything
            // still on disk at or below the trusted sequence.
            keep_seq: ckpts.first().copied().unwrap_or(header.seq).min(header.seq),
            next_seq,
            wal_seq,
            wal_bytes,
            batches_since_checkpoint: report.replayed_batches,
        };
        // A crash can interrupt the post-checkpoint cleanup; redo it (it is
        // idempotent) so storage stays bounded across crash loops.
        this.cleanup()?;
        Ok((this, report))
    }

    /// [`DurableSummarizer::open`]s the directory when it holds a stream,
    /// otherwise [`DurableSummarizer::create`]s a fresh one from `bootstrap()`.
    /// The recovery report is `None` for the fresh-create path.
    pub fn open_or_create<F>(
        config: IncrementalConfig,
        policy: DurablePolicy,
        mut io: IO,
        bootstrap: F,
    ) -> Result<(Self, Option<RecoveryReport>), DurableError>
    where
        F: FnOnce() -> IncrementalSummarizer,
    {
        let (ckpts, _) = scan(&mut io)?;
        if ckpts.is_empty() {
            Ok((Self::create(bootstrap(), policy, io)?, None))
        } else {
            let (this, report) = Self::open(config, policy, io)?;
            Ok((this, Some(report)))
        }
    }

    /// Ingests one delta batch under the log-ahead protocol: append + fsync the
    /// WAL record, apply the batch, checkpoint if the policy says so.  On error
    /// the in-memory state may lag the caller's intent — drop the summarizer
    /// and [`DurableSummarizer::open`] to get back to a consistent state (the
    /// recovery tests do exactly this at every possible failure point).  The
    /// one exception is [`DurableError::InvalidDelta`]: a delta naming a node
    /// id outside the graph is rejected before anything is logged or applied,
    /// and the stream stays usable.
    pub fn ingest(&mut self, delta: &GraphDelta) -> Result<BatchReport, DurableError> {
        let num_nodes = self.inner.graph().num_nodes();
        if let Some(node) = out_of_range_node(delta, num_nodes) {
            return Err(DurableError::InvalidDelta { node, num_nodes });
        }
        let record = encode_wal_record(self.inner.batches() as u64 + 1, delta);
        let wal_file = wal_name(self.wal_seq);
        self.io.append(&wal_file, &record)?;
        self.io.sync(&wal_file)?;
        let report = self.inner.resummarize(delta);
        self.wal_bytes += record.len() as u64;
        self.batches_since_checkpoint += 1;
        let by_count = self.policy.checkpoint_every_batches > 0
            && self.batches_since_checkpoint >= self.policy.checkpoint_every_batches;
        let by_bytes = self.policy.checkpoint_wal_bytes > 0
            && self.wal_bytes >= self.policy.checkpoint_wal_bytes;
        if by_count || by_bytes {
            self.checkpoint_now()?;
        }
        Ok(report)
    }

    /// Forces a checkpoint: serialize the maintained summary + resume counters,
    /// stage → fsync → rename → dir-fsync, open a fresh WAL segment, then
    /// retire files older than the *previous* checkpoint (which stays on disk
    /// as the corruption-fallback target).
    pub fn checkpoint_now(&mut self) -> Result<(), DurableError> {
        self.write_checkpoint()
    }

    fn write_checkpoint(&mut self) -> Result<(), DurableError> {
        let seq = self.next_seq;
        let mut payload = Vec::new();
        write_summary(self.inner.summary(), &mut payload)?;
        let bytes = encode_checkpoint(
            CheckpointHeader {
                seq,
                epoch: self.inner.epoch() as u64,
                batches: self.inner.batches() as u64,
                seed: self.inner.config().seed,
            },
            &payload,
        );
        self.io.write(CKPT_TMP, &bytes)?;
        self.io.sync(CKPT_TMP)?;
        self.io.rename(CKPT_TMP, &checkpoint_name(seq))?;
        self.io.sync_dir()?;
        // Fresh WAL segment for the batches after this checkpoint.
        let wal_file = wal_name(seq);
        let head = encode_wal_header(seq);
        self.io.write(&wal_file, &head)?;
        self.io.sync(&wal_file)?;
        self.io.sync_dir()?;
        // The previous trusted checkpoint becomes the fallback; everything
        // older is retired, which truncates the log up to that fallback.
        self.keep_seq = self.trusted_seq;
        self.trusted_seq = seq;
        self.next_seq = seq + 1;
        self.wal_seq = seq;
        self.wal_bytes = head.len() as u64;
        self.batches_since_checkpoint = 0;
        self.cleanup()?;
        Ok(())
    }

    /// Removes checkpoints and WAL segments below the retention floor, plus any
    /// superseded checkpoint *between* the fallback and the trusted one (a
    /// corrupt checkpoint recovery skipped, or the staging temp file).
    /// Idempotent; re-run by [`DurableSummarizer::open`] after crashes.
    fn cleanup(&mut self) -> Result<(), DurableError> {
        let names = self.io.list()?;
        for name in names {
            if name == CKPT_TMP {
                self.io.remove(&name)?;
            } else if let Some(seq) = parse_seq(&name, "ckpt-", ".slgc") {
                if seq < self.keep_seq || (seq > self.keep_seq && seq < self.trusted_seq) {
                    self.io.remove(&name)?;
                }
            } else if let Some(seq) = parse_seq(&name, "wal-", ".slgw") {
                if seq < self.keep_seq {
                    self.io.remove(&name)?;
                }
            }
        }
        Ok(())
    }

    /// The maintained summary (see [`IncrementalSummarizer::summary`]).
    pub fn summary(&self) -> &HierarchicalSummary {
        self.inner.summary()
    }

    /// Delta batches applied so far — a recovered stream continues from here.
    pub fn batches(&self) -> usize {
        self.inner.batches()
    }

    /// Read access to the wrapped summarizer (pruned snapshots, losslessness
    /// checks, …).  There is deliberately no `&mut` access: mutating the inner
    /// state without logging it first would break the recovery invariant.
    pub fn inner(&self) -> &IncrementalSummarizer {
        &self.inner
    }

    /// Attaches a [`crate::snapshot::SnapshotSlot`] to the wrapped summarizer
    /// (see [`IncrementalSummarizer::attach_snapshots`]) — the one narrow
    /// mutation exposed on the inner state, safe for the recovery invariant
    /// because publication only *reads* the summary.  Called after
    /// [`DurableSummarizer::open`], it immediately publishes the recovered
    /// state, so readers re-pin onto a post-recovery epoch.
    pub fn attach_snapshots(&mut self, slot: crate::snapshot::SnapshotSlot) -> Result<(), String> {
        self.inner.attach_snapshots(slot)
    }

    /// The active checkpoint cadence.
    pub fn policy(&self) -> &DurablePolicy {
        &self.policy
    }

    /// Unwraps into the in-memory summarizer, abandoning durability.
    pub fn into_inner(self) -> IncrementalSummarizer {
        self.inner
    }
}

/// The first node id of `delta` outside `0..num_nodes`, if any: the boundary
/// check of [`DurableSummarizer::ingest`] and of WAL replay.
fn out_of_range_node(delta: &GraphDelta, num_nodes: usize) -> Option<NodeId> {
    delta
        .deletions
        .iter()
        .chain(&delta.insertions)
        .flat_map(|&(u, v)| [u, v])
        .find(|&x| x as usize >= num_nodes)
}

/// Sorted (ascending) checkpoint and WAL sequence numbers present in the
/// directory; unrelated files are ignored.
fn scan<IO: DurableIo>(io: &mut IO) -> Result<(Vec<u64>, Vec<u64>), DurableError> {
    let mut ckpts = Vec::new();
    let mut wals = Vec::new();
    for name in io.list()? {
        if let Some(seq) = parse_seq(&name, "ckpt-", ".slgc") {
            ckpts.push(seq);
        } else if let Some(seq) = parse_seq(&name, "wal-", ".slgw") {
            wals.push(seq);
        }
    }
    ckpts.sort_unstable();
    wals.sort_unstable();
    Ok((ckpts, wals))
}

/// Loads and fully validates one checkpoint: checksums, then the hardened
/// summary decoder, then a cross-check of the name-embedded sequence.
fn load_checkpoint<IO: DurableIo>(
    io: &mut IO,
    seq: u64,
) -> Result<(CheckpointHeader, HierarchicalSummary), DurableError> {
    let name = checkpoint_name(seq);
    let bytes = io.read(&name)?;
    let (header, payload) = decode_checkpoint(&name, &bytes)?;
    if header.seq != seq {
        return Err(DurableError::Corrupt {
            file: name,
            what: "checkpoint sequence disagrees with its file name",
        });
    }
    let summary = read_summary(&payload[..])?;
    Ok((header, summary))
}

pub mod fault {
    //! Fault-injection harness: an in-memory [`DurableIo`] with a crash model.
    //!
    //! [`MemIo`] models a journaling filesystem the way the durability protocol
    //! assumes one works: file *data* becomes durable only on
    //! [`DurableIo::sync`], while metadata operations (create, rename, remove)
    //! are applied immediately.  [`MemIo::crash`] discards whatever was not
    //! durable — optionally keeping a prefix of each unsynced tail, which is
    //! exactly a torn write.  An armed [`FaultPlan`] makes the N-th mutating
    //! operation fail (after applying a configurable number of bytes, for data
    //! operations), and every operation after it fail too — a fail-stop crash —
    //! so tests can kill the protocol at every step it takes.
    //!
    //! This lives in the library (not the test tree) because the crash/recovery
    //! integration tests, the corruption proptests, and doc examples all drive
    //! it; it has no place in a production deployment, where [`super::DirIo`]
    //! is the implementation of record.

    use super::DurableIo;
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::io;
    use std::rc::Rc;

    /// Fail the `at_op`-th mutating operation (0-based, counted across write /
    /// append / sync / sync-dir / rename / remove), applying at most
    /// `keep_bytes` of the data for write/append before failing.
    #[derive(Clone, Copy, Debug)]
    pub struct FaultPlan {
        /// Index of the mutating operation that fails.
        pub at_op: u64,
        /// Bytes of a failing write/append that still reach the buffer (a
        /// short write); ignored for non-data operations.
        pub keep_bytes: usize,
    }

    #[derive(Clone, Default)]
    struct MemFile {
        data: Vec<u8>,
        /// Prefix length guaranteed to survive a crash.
        synced: usize,
    }

    #[derive(Default)]
    struct MemState {
        files: BTreeMap<String, MemFile>,
        plan: Option<FaultPlan>,
        ops: u64,
        dead: bool,
    }

    /// The in-memory fault-injecting [`DurableIo`].  Cloning shares the
    /// filesystem, so a test can keep a handle across the "process lifetime" of
    /// each [`super::DurableSummarizer`] it crashes.
    #[derive(Clone, Default)]
    pub struct MemIo {
        state: Rc<RefCell<MemState>>,
    }

    fn injected() -> io::Error {
        io::Error::other("injected fault")
    }

    impl MemIo {
        /// An empty in-memory directory.
        pub fn new() -> Self {
            MemIo::default()
        }

        /// Arms a fault plan (replacing any previous one) and resets the
        /// mutating-operation counter.
        pub fn arm(&self, plan: FaultPlan) {
            let mut s = self.state.borrow_mut();
            s.plan = Some(plan);
            s.ops = 0;
            s.dead = false;
        }

        /// Mutating operations performed since the last [`MemIo::arm`] /
        /// [`MemIo::crash`] — run a scenario once unarmed to learn how many
        /// fault points it has.
        pub fn ops(&self) -> u64 {
            self.state.borrow().ops
        }

        /// Whether an armed fault has fired.
        pub fn fault_fired(&self) -> bool {
            self.state.borrow().dead
        }

        /// Simulates a crash + restart: every file keeps its durable prefix
        /// plus at most `keep_unsynced` bytes of its unsynced tail (0 = clean
        /// fail-stop loss, larger values model data that happened to reach the
        /// platter — including torn tails).  Clears any armed fault so the
        /// "restarted process" can do I/O again.
        pub fn crash(&mut self, keep_unsynced: usize) {
            let mut s = self.state.borrow_mut();
            for file in s.files.values_mut() {
                let keep = file
                    .synced
                    .saturating_add(keep_unsynced)
                    .min(file.data.len());
                file.data.truncate(keep);
                file.synced = file.data.len();
            }
            s.plan = None;
            s.ops = 0;
            s.dead = false;
        }

        /// Reads a file's current (possibly unsynced) contents.
        pub fn file(&self, name: &str) -> Option<Vec<u8>> {
            self.state.borrow().files.get(name).map(|f| f.data.clone())
        }

        /// Overwrites a file's bytes in place **without** touching its durable
        /// mark — the corruption tests use this to flip bits or duplicate tail
        /// records "on the platter".
        pub fn tamper(&self, name: &str, mutate: impl FnOnce(&mut Vec<u8>)) {
            let mut s = self.state.borrow_mut();
            let file = s.files.get_mut(name).expect("tamper target must exist");
            mutate(&mut file.data);
            file.synced = file.data.len();
        }

        /// Current file names (sorted).
        pub fn names(&self) -> Vec<String> {
            self.state.borrow().files.keys().cloned().collect()
        }

        /// Charges one mutating op; returns the short-write budget if the fault
        /// fires on this op (`None` = proceed normally).
        fn charge(s: &mut MemState) -> Result<Option<usize>, io::Error> {
            if s.dead {
                return Err(injected());
            }
            let op = s.ops;
            s.ops += 1;
            if let Some(plan) = s.plan {
                if plan.at_op == op {
                    s.dead = true;
                    return Ok(Some(plan.keep_bytes));
                }
            }
            Ok(None)
        }
    }

    impl DurableIo for MemIo {
        fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
            let s = self.state.borrow();
            if s.dead {
                return Err(injected());
            }
            s.files
                .get(name)
                .map(|f| f.data.clone())
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
        }

        fn list(&mut self) -> io::Result<Vec<String>> {
            let s = self.state.borrow();
            if s.dead {
                return Err(injected());
            }
            Ok(s.files.keys().cloned().collect())
        }

        fn write(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            let mut s = self.state.borrow_mut();
            let fault = MemIo::charge(&mut s)?;
            let file = s.files.entry(name.to_string()).or_default();
            // Create/truncate is metadata (durable); the data itself is not
            // durable until synced.
            file.synced = 0;
            match fault {
                Some(keep) => {
                    file.data = bytes[..keep.min(bytes.len())].to_vec();
                    Err(injected())
                }
                None => {
                    file.data = bytes.to_vec();
                    Ok(())
                }
            }
        }

        fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
            let mut s = self.state.borrow_mut();
            let fault = MemIo::charge(&mut s)?;
            let file = s.files.entry(name.to_string()).or_default();
            match fault {
                Some(keep) => {
                    file.data.extend_from_slice(&bytes[..keep.min(bytes.len())]);
                    Err(injected())
                }
                None => {
                    file.data.extend_from_slice(bytes);
                    Ok(())
                }
            }
        }

        fn sync(&mut self, name: &str) -> io::Result<()> {
            let mut s = self.state.borrow_mut();
            if MemIo::charge(&mut s)?.is_some() {
                return Err(injected());
            }
            match s.files.get_mut(name) {
                Some(file) => {
                    file.synced = file.data.len();
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
            }
        }

        fn sync_dir(&mut self) -> io::Result<()> {
            let mut s = self.state.borrow_mut();
            if MemIo::charge(&mut s)?.is_some() {
                return Err(injected());
            }
            Ok(())
        }

        fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
            let mut s = self.state.borrow_mut();
            if MemIo::charge(&mut s)?.is_some() {
                return Err(injected());
            }
            match s.files.remove(from) {
                Some(file) => {
                    s.files.insert(to.to_string(), file);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, from.to_string())),
            }
        }

        fn remove(&mut self, name: &str) -> io::Result<()> {
            let mut s = self.state.borrow_mut();
            if MemIo::charge(&mut s)?.is_some() {
                return Err(injected());
            }
            match s.files.remove(name) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::fault::{FaultPlan, MemIo};
    use super::*;
    use crate::decode::canonical_form;
    use slugger_graph::gen::{caveman, CavemanConfig};
    use slugger_graph::stream::{stream_batches, StreamConfig};
    use slugger_graph::Graph;

    #[test]
    fn crc32_known_vectors() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checkpoint_roundtrips_and_rejects_flips() {
        let header = CheckpointHeader {
            seq: 7,
            epoch: 42,
            batches: 13,
            seed: 0xdead_beef,
        };
        let payload = b"not really a summary, but the codec must not care".to_vec();
        let bytes = encode_checkpoint(header, &payload);
        let (decoded, body) = decode_checkpoint("ckpt", &bytes).unwrap();
        assert_eq!(decoded, header);
        assert_eq!(body, payload);
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_checkpoint("ckpt", &bad).is_err(),
                "flip at {pos} must be caught by a checksum"
            );
        }
        for len in 0..bytes.len() {
            assert!(decode_checkpoint("ckpt", &bytes[..len]).is_err());
        }
    }

    #[test]
    fn wal_segment_roundtrips_and_tolerates_torn_tails() {
        let deltas = [
            GraphDelta::from_insertions([(0, 1), (2, 3)]),
            GraphDelta {
                deletions: vec![(0, 1)],
                insertions: vec![(1, 2)],
            },
            GraphDelta::new(),
        ];
        let mut bytes = encode_wal_header(3);
        for (i, delta) in deltas.iter().enumerate() {
            bytes.extend_from_slice(&encode_wal_record(i as u64 + 1, delta));
        }
        let full = parse_wal_segment("wal", &bytes, 3).unwrap();
        assert!(!full.torn);
        assert_eq!(full.records.len(), 3);
        for (i, delta) in deltas.iter().enumerate() {
            assert_eq!(full.records[i].0, i as u64 + 1);
            assert_eq!(&full.records[i].1, delta);
        }
        // Wrong sequence in a valid header is a hard error, not a torn tail.
        assert!(parse_wal_segment("wal", &bytes, 4).is_err());
        // Every truncation keeps a (possibly empty) prefix of the records and
        // reports the tail as torn (or keeps all records when the cut lands
        // exactly on a record boundary).
        for len in 0..bytes.len() {
            let seg = parse_wal_segment("wal", &bytes[..len], 3).unwrap();
            assert!(seg.records.len() <= 3);
            for (i, (batch, delta)) in seg.records.iter().enumerate() {
                assert_eq!(*batch, i as u64 + 1);
                assert_eq!(delta, &deltas[i]);
            }
            if len < bytes.len() {
                assert!(seg.torn || seg.records.len() < 3 || len >= bytes.len());
            }
        }
    }

    #[test]
    fn memio_crash_drops_unsynced_data_only() {
        let io = MemIo::new();
        let mut h = io.clone();
        h.write("a", b"hello").unwrap();
        h.sync("a").unwrap();
        h.append("a", b" world").unwrap();
        h.write("b", b"never synced").unwrap();
        let mut crashed = io.clone();
        crashed.crash(0);
        assert_eq!(crashed.read("a").unwrap(), b"hello");
        assert_eq!(crashed.read("b").unwrap(), b"");
        // Torn variant: keep 3 bytes of the unsynced tail.
        let io2 = MemIo::new();
        let mut h2 = io2.clone();
        h2.write("a", b"hello").unwrap();
        h2.sync("a").unwrap();
        h2.append("a", b" world").unwrap();
        let mut crashed2 = io2.clone();
        crashed2.crash(3);
        assert_eq!(crashed2.read("a").unwrap(), b"hello wo");
    }

    #[test]
    fn memio_fault_fires_once_then_fail_stop() {
        let io = MemIo::new();
        io.arm(FaultPlan {
            at_op: 1,
            keep_bytes: 2,
        });
        let mut h = io.clone();
        h.write("a", b"first").unwrap();
        let err = h.append("a", b"second").unwrap_err();
        assert_eq!(err.to_string(), "injected fault");
        assert!(io.fault_fired());
        // The short write kept exactly 2 bytes, and everything after fails.
        assert_eq!(io.file("a").unwrap(), b"firstse");
        assert!(h.sync("a").is_err());
        assert!(h.read("a").is_err());
    }

    fn small_stream() -> (Graph, Graph, Vec<GraphDelta>) {
        let target = caveman(&CavemanConfig {
            num_nodes: 90,
            num_cliques: 12,
            min_clique: 5,
            max_clique: 8,
            rewire_probability: 0.02,
            seed: 5,
        });
        let (initial, batches) = stream_batches(
            &target,
            &StreamConfig {
                initial_fraction: 0.8,
                num_batches: 5,
                churn: 0.3,
                seed: 3,
            },
        );
        (target, initial, batches)
    }

    fn quick_config() -> IncrementalConfig {
        IncrementalConfig {
            iterations: 2,
            max_candidate_size: 32,
            max_shingle_splits: 4,
            seed: 17,
            ..IncrementalConfig::default()
        }
    }

    #[test]
    fn durable_stream_matches_plain_stream_and_recovers() {
        let (_, initial, batches) = small_stream();
        let config = quick_config();
        let policy = DurablePolicy {
            checkpoint_every_batches: 2,
            checkpoint_wal_bytes: 0,
        };

        // Reference: plain in-memory run over the full stream.
        let mut plain = IncrementalSummarizer::from_graph(&initial, config);
        for delta in &batches {
            plain.resummarize(delta);
        }

        let io = MemIo::new();
        let inner = IncrementalSummarizer::from_graph(&initial, config);
        let mut durable = DurableSummarizer::create(inner, policy, io.clone()).unwrap();
        for delta in &batches[..3] {
            durable.ingest(delta).unwrap();
        }
        drop(durable);

        let mut crashed = io.clone();
        crashed.crash(0);
        let (mut recovered, report) = DurableSummarizer::open(config, policy, crashed).unwrap();
        // Checkpoints landed at batches 2; batch 3 lives in the WAL.
        assert_eq!(recovered.batches(), 3);
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(report.checkpoints_skipped, 0);
        for delta in &batches[3..] {
            recovered.ingest(delta).unwrap();
        }
        recovered.inner().verify_lossless().unwrap();
        assert_eq!(
            canonical_form(recovered.summary()),
            canonical_form(plain.summary()),
            "recovered stream must match the uninterrupted run"
        );
    }

    #[test]
    fn out_of_range_delta_is_rejected_before_the_wal() {
        let (_, initial, batches) = small_stream();
        let config = quick_config();
        let policy = DurablePolicy {
            checkpoint_every_batches: 0,
            checkpoint_wal_bytes: 0,
        };
        let n = initial.num_nodes() as NodeId;
        let mut control = IncrementalSummarizer::from_graph(&initial, config);
        control.resummarize(&batches[0]);

        let io = MemIo::new();
        let inner = IncrementalSummarizer::from_graph(&initial, config);
        let mut durable = DurableSummarizer::create(inner, policy, io.clone()).unwrap();
        let wal_before = io.clone().read(&wal_name(0)).unwrap();
        for bad in [
            GraphDelta::from_insertions([(0, n)]),
            GraphDelta {
                deletions: vec![(n + 7, 1)],
                insertions: vec![(0, 1)],
            },
        ] {
            assert!(matches!(
                durable.ingest(&bad),
                Err(DurableError::InvalidDelta { num_nodes, .. }) if num_nodes == n as usize
            ));
        }
        assert_eq!(
            io.clone().read(&wal_name(0)).unwrap(),
            wal_before,
            "a rejected delta must leave the WAL untouched"
        );
        assert_eq!(durable.batches(), 0);
        // The stream stays usable, and recovery replays only the good batch.
        durable.ingest(&batches[0]).unwrap();
        drop(durable);
        let mut crashed = io.clone();
        crashed.crash(0);
        let (recovered, report) = DurableSummarizer::open(config, policy, crashed).unwrap();
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(
            canonical_form(recovered.summary()),
            canonical_form(control.summary())
        );
    }

    #[test]
    fn wal_record_naming_an_out_of_range_node_is_corrupt() {
        let (_, initial, _) = small_stream();
        let config = quick_config();
        let io = MemIo::new();
        let inner = IncrementalSummarizer::from_graph(&initial, config);
        let durable =
            DurableSummarizer::create(inner, DurablePolicy::default(), io.clone()).unwrap();
        drop(durable);
        // A checksum-valid record that bypassed ingest's boundary check.
        let bad = GraphDelta::from_insertions([(0, initial.num_nodes() as NodeId)]);
        let mut io2 = io.clone();
        io2.append(&wal_name(0), &encode_wal_record(1, &bad))
            .unwrap();
        io2.sync(&wal_name(0)).unwrap();
        assert!(matches!(
            DurableSummarizer::open(config, DurablePolicy::default(), io),
            Err(DurableError::Corrupt { .. })
        ));
    }

    #[test]
    fn create_refuses_an_initialized_directory() {
        let (_, initial, _) = small_stream();
        let config = quick_config();
        let io = MemIo::new();
        let inner = IncrementalSummarizer::from_graph(&initial, config);
        let d = DurableSummarizer::create(inner, DurablePolicy::default(), io.clone()).unwrap();
        drop(d);
        let inner = IncrementalSummarizer::from_graph(&initial, config);
        assert!(matches!(
            DurableSummarizer::create(inner, DurablePolicy::default(), io.clone()),
            Err(DurableError::State(_))
        ));
    }

    #[test]
    fn open_rejects_seed_mismatch_and_empty_dir() {
        let (_, initial, batches) = small_stream();
        let config = quick_config();
        assert!(matches!(
            DurableSummarizer::open(config, DurablePolicy::default(), MemIo::new()),
            Err(DurableError::NoCheckpoint)
        ));
        let io = MemIo::new();
        let inner = IncrementalSummarizer::from_graph(&initial, config);
        let mut d = DurableSummarizer::create(inner, DurablePolicy::default(), io.clone()).unwrap();
        d.ingest(&batches[0]).unwrap();
        drop(d);
        let mut other = config;
        other.seed = 999;
        assert!(matches!(
            DurableSummarizer::open(other, DurablePolicy::default(), io.clone()),
            Err(DurableError::State(_))
        ));
    }

    #[test]
    fn checkpoints_truncate_the_wal_and_retain_a_fallback() {
        let (_, initial, batches) = small_stream();
        let config = quick_config();
        let policy = DurablePolicy {
            checkpoint_every_batches: 1,
            checkpoint_wal_bytes: 0,
        };
        let io = MemIo::new();
        let inner = IncrementalSummarizer::from_graph(&initial, config);
        let mut d = DurableSummarizer::create(inner, policy, io.clone()).unwrap();
        for delta in &batches {
            d.ingest(delta).unwrap();
        }
        drop(d);
        let names = io.names();
        let ckpts: Vec<_> = names.iter().filter(|n| n.starts_with("ckpt-")).collect();
        let wals: Vec<_> = names.iter().filter(|n| n.starts_with("wal-")).collect();
        assert_eq!(ckpts.len(), 2, "latest two checkpoints retained: {names:?}");
        assert!(
            wals.len() <= 2,
            "wal truncated to the fallback window: {names:?}"
        );
    }

    #[test]
    fn dir_io_roundtrip_on_the_real_filesystem() {
        let dir = std::env::temp_dir().join(format!("slugger_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (_, initial, batches) = small_stream();
        let config = quick_config();
        let policy = DurablePolicy {
            checkpoint_every_batches: 2,
            checkpoint_wal_bytes: 0,
        };
        let mut plain = IncrementalSummarizer::from_graph(&initial, config);
        for delta in &batches {
            plain.resummarize(delta);
        }
        {
            let io = DirIo::new(&dir).unwrap();
            let inner = IncrementalSummarizer::from_graph(&initial, config);
            let mut d = DurableSummarizer::create(inner, policy, io).unwrap();
            for delta in &batches[..3] {
                d.ingest(delta).unwrap();
            }
            // Process "dies" here: no checkpoint of batch 3, only its WAL record.
        }
        let io = DirIo::new(&dir).unwrap();
        let (mut recovered, report) = DurableSummarizer::open(config, policy, io).unwrap();
        assert_eq!(recovered.batches(), 3);
        assert!(report.replayed_batches >= 1);
        for delta in &batches[3..] {
            recovered.ingest(delta).unwrap();
        }
        assert_eq!(
            canonical_form(recovered.summary()),
            canonical_form(plain.summary())
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
