//! Durable write-ahead delta log and crash recovery.
//!
//! The in-memory mutation log of [`KnowledgeBase`] makes *readers*
//! incremental but leaves the data volatile: a process crash loses every
//! mutation since startup. This module adds the durability layer:
//!
//! * **WAL** — an append-only file of length-prefixed, CRC-32-checksummed
//!   commit batches ([`WalBatch`]). A batch carries the labels and nodes
//!   interned in the commit window plus the edge records added/removed,
//!   **netted** with the same multiset semantics as
//!   [`KbDelta`](crate::KbDelta): an edge inserted and removed within one
//!   window cancels out and is never written. Each batch has a strictly
//!   increasing sequence number so replay can detect gaps and skip
//!   batches already folded into a checkpoint.
//! * **Checkpoints** — an [`encode_binary`] snapshot wrapped in a small
//!   header recording the last batch sequence it covers, written
//!   atomically (temp file + rename, see [`crate::io::atomic_write`]).
//! * **Recovery** — [`KnowledgeBase::open`] loads the checkpoint (if
//!   any), replays WAL batches past the checkpoint sequence, and
//!   truncates a torn or corrupt tail at the *first* length/checksum
//!   failure with a loud typed [`RecoveryReport`] — never a silently
//!   partial replay, the same philosophy as
//!   [`DeltaSince::Compacted`].
//! * **Group commit** — [`DurableKb`] wraps a [`KnowledgeBase`] plus a
//!   [`WalWriter`]; arbitrary mutations accumulate in the commit window
//!   and [`DurableKb::commit`] writes them as one batch under a
//!   configurable [`SyncPolicy`]. [`DurableKb::checkpoint`] folds the log
//!   into a fresh snapshot, truncates the WAL, and compacts the in-memory
//!   log ([`KnowledgeBase::compact_log`]) so both stay bounded.
//! * **Fault injection** — [`WalFaults`] and [`CheckpointCrash`] script
//!   deterministic torn writes (cut mid-record at a chosen byte), fsync
//!   failures, and crashes before/after the checkpoint rename, so the
//!   recovery path is testable without a real crash.
//!
//! File formats (all integers little-endian):
//!
//! ```text
//! WAL:        magic "REXW" u32 | version u32 | record*
//! record:     payload_len u32 | crc32(payload) u32 | payload
//! payload:    seq u64
//!             | label_count u32 | label_str*
//!             | node_count u32  | (name_str, type_str)*
//!             | removed_count u32 | edge*
//!             | added_count u32   | edge*
//! edge:       src u32 | dst u32 | label u32 | directed u8
//! checkpoint: magic "REXC" u32 | version u32 | last_seq u64
//!             | body_len u64 | crc32(body) u32 | body = encode_binary
//! ```

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::graph::EdgeRecord;
use crate::ids::{LabelId, NodeId};
use crate::io::{atomic_write, decode_binary, encode_binary, get_str, put_str, sync_parent_dir};
use crate::{DeltaSince, KbBuilder, KbError, KnowledgeBase, Result};

/// Magic number opening every WAL file (`"REXW"`).
pub const WAL_MAGIC: u32 = 0x5245_5857;
/// WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Magic number opening every checkpoint file (`"REXC"`).
pub const CKPT_MAGIC: u32 = 0x5245_5843;
/// Checkpoint format version.
pub const CKPT_VERSION: u32 = 1;

/// Bytes of the WAL file header (magic + version).
pub const WAL_HEADER_LEN: u64 = 8;
const RECORD_HEADER_LEN: usize = 8;

/// The slice-by-8 CRC-32 tables: `[0]` is the bytewise table, and
/// `[k][i]` is the CRC of byte `i` followed by `k` zero bytes, so eight
/// lookups fold in eight bytes at once.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 (IEEE) of `data`; guards every WAL record payload and the
/// checkpoint body. Eight bytes per step (slice-by-8), the tail bytewise.
pub fn crc32(data: &[u8]) -> u32 {
    let t = crc_tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ u64::from(c);
        c = (0..8).fold(0, |acc, k| acc ^ t[7 - k][(word >> (8 * k)) as u8 as usize]);
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// When the WAL writer pushes bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every commit — maximum durability, minimum throughput.
    PerCommit,
    /// `fsync` every N commits (clamped to ≥ 1); a crash can lose at most
    /// the unsynced suffix, which recovery truncates cleanly.
    Interval(u32),
    /// Never `fsync` (the OS flushes when it pleases); recovery still
    /// guarantees a clean prefix, only the durability horizon weakens.
    Off,
}

impl SyncPolicy {
    /// Parses the CLI spelling: `commit`, `interval` / `interval:N`, `off`.
    pub fn parse(s: &str) -> std::result::Result<SyncPolicy, String> {
        match s {
            "commit" => Ok(SyncPolicy::PerCommit),
            "off" => Ok(SyncPolicy::Off),
            "interval" => Ok(SyncPolicy::Interval(8)),
            other => match other.strip_prefix("interval:").and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Ok(SyncPolicy::Interval(n)),
                _ => Err(format!(
                    "bad sync policy {other:?} (want commit, interval, interval:N, or off)"
                )),
            },
        }
    }
}

/// One durable commit batch: everything a replay needs to re-apply the
/// window's mutations over the prior state, in application order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalBatch {
    /// Strictly increasing batch sequence number (1-based).
    pub seq: u64,
    /// Labels interned during the window, in intern order.
    pub new_labels: Vec<String>,
    /// `(name, type)` of nodes inserted during the window, in order.
    pub new_nodes: Vec<(String, String)>,
    /// Edge records removed in the window (after netting).
    pub removed: Vec<EdgeRecord>,
    /// Edge records added in the window (after netting).
    pub added: Vec<EdgeRecord>,
}

impl WalBatch {
    /// Whether the batch carries no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.new_labels.is_empty()
            && self.new_nodes.is_empty()
            && self.removed.is_empty()
            && self.added.is_empty()
    }

    /// Total mutation count in the batch.
    pub fn op_count(&self) -> usize {
        self.new_labels.len() + self.new_nodes.len() + self.removed.len() + self.added.len()
    }
}

fn put_edge(buf: &mut BytesMut, e: &EdgeRecord) {
    buf.put_u32_le(e.src.0);
    buf.put_u32_le(e.dst.0);
    buf.put_u32_le(e.label.0);
    buf.put_u8(u8::from(e.directed));
}

fn get_edge(buf: &mut Bytes) -> Result<EdgeRecord> {
    if buf.remaining() < 13 {
        return Err(KbError::Parse("truncated WAL edge record".into()));
    }
    let src = NodeId(buf.get_u32_le());
    let dst = NodeId(buf.get_u32_le());
    let label = LabelId(buf.get_u32_le());
    let directed = buf.get_u8() != 0;
    Ok(EdgeRecord { src, dst, label, directed })
}

fn get_count(buf: &mut Bytes, what: &str, min_item_bytes: u64) -> Result<usize> {
    if buf.remaining() < 4 {
        return Err(KbError::Parse(format!("truncated WAL {what} count")));
    }
    let n = buf.get_u32_le() as usize;
    if (buf.remaining() as u64) < (n as u64).saturating_mul(min_item_bytes) {
        return Err(KbError::Parse(format!("WAL {what} count exceeds payload")));
    }
    Ok(n)
}

/// Encodes a batch into its checksummed payload (the `payload` of the
/// record layout; the caller prepends length + CRC).
pub fn encode_batch(batch: &WalBatch) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + 13 * (batch.added.len() + batch.removed.len()));
    buf.put_u64_le(batch.seq);
    buf.put_u32_le(batch.new_labels.len() as u32);
    for l in &batch.new_labels {
        put_str(&mut buf, l);
    }
    buf.put_u32_le(batch.new_nodes.len() as u32);
    for (name, ty) in &batch.new_nodes {
        put_str(&mut buf, name);
        put_str(&mut buf, ty);
    }
    buf.put_u32_le(batch.removed.len() as u32);
    for e in &batch.removed {
        put_edge(&mut buf, e);
    }
    buf.put_u32_le(batch.added.len() as u32);
    for e in &batch.added {
        put_edge(&mut buf, e);
    }
    buf.freeze()
}

/// Decodes a batch payload. Every malformed prefix yields a typed
/// [`KbError::Parse`]; nothing panics on corrupt input.
pub fn decode_batch(mut buf: Bytes) -> Result<WalBatch> {
    if buf.remaining() < 8 {
        return Err(KbError::Parse("truncated WAL batch header".into()));
    }
    let seq = buf.get_u64_le();
    let n_labels = get_count(&mut buf, "label", 4)?;
    let mut new_labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        new_labels.push(get_str(&mut buf)?);
    }
    let n_nodes = get_count(&mut buf, "node", 8)?;
    let mut new_nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let name = get_str(&mut buf)?;
        let ty = get_str(&mut buf)?;
        new_nodes.push((name, ty));
    }
    let n_removed = get_count(&mut buf, "removed edge", 13)?;
    let mut removed = Vec::with_capacity(n_removed);
    for _ in 0..n_removed {
        removed.push(get_edge(&mut buf)?);
    }
    let n_added = get_count(&mut buf, "added edge", 13)?;
    let mut added = Vec::with_capacity(n_added);
    for _ in 0..n_added {
        added.push(get_edge(&mut buf)?);
    }
    if buf.remaining() != 0 {
        return Err(KbError::Parse("trailing bytes in WAL batch".into()));
    }
    Ok(WalBatch { seq, new_labels, new_nodes, removed, added })
}

/// Nets added/removed edge multisets: pairs of identical records present
/// on both sides cancel (the [`KbDelta`](crate::KbDelta) contract — an
/// insert-then-remove within the window is a no-op and is never made
/// durable). Surviving entries keep their original order.
pub fn net_edge_multisets(
    added: Vec<EdgeRecord>,
    removed: Vec<EdgeRecord>,
) -> (Vec<EdgeRecord>, Vec<EdgeRecord>) {
    type Key = (u32, u32, u32, bool);
    let key = |e: &EdgeRecord| -> Key { (e.src.0, e.dst.0, e.label.0, e.directed) };
    let mut add_counts: HashMap<Key, usize> = HashMap::new();
    for a in &added {
        *add_counts.entry(key(a)).or_insert(0) += 1;
    }
    let mut rem_counts: HashMap<Key, usize> = HashMap::new();
    for r in &removed {
        *rem_counts.entry(key(r)).or_insert(0) += 1;
    }
    let mut matched: HashMap<Key, usize> = HashMap::new();
    for (k, &ac) in &add_counts {
        if let Some(&rc) = rem_counts.get(k) {
            matched.insert(*k, ac.min(rc));
        }
    }
    let mut skip_add = matched.clone();
    let net_added = added
        .into_iter()
        .filter(|a| {
            if let Some(c) = skip_add.get_mut(&key(a)) {
                if *c > 0 {
                    *c -= 1;
                    return false;
                }
            }
            true
        })
        .collect();
    let mut skip_rem = matched;
    let net_removed = removed
        .into_iter()
        .filter(|r| {
            if let Some(c) = skip_rem.get_mut(&key(r)) {
                if *c > 0 {
                    *c -= 1;
                    return false;
                }
            }
            true
        })
        .collect();
    (net_added, net_removed)
}

/// Replays one batch onto `kb` in the canonical order (labels, nodes,
/// removals, insertions). Returns the number of mutations applied.
/// A batch that references state the KB does not have (e.g. removing an
/// absent edge) is a [`KbError::Replay`] — valid checksums with
/// inconsistent content indicate a logic bug, not a torn tail.
pub fn apply_batch(kb: &mut KnowledgeBase, batch: &WalBatch) -> Result<usize> {
    let mut ops = 0usize;
    for label in &batch.new_labels {
        kb.intern_label(label)?;
        ops += 1;
    }
    for (name, ty) in &batch.new_nodes {
        kb.insert_node(name, ty);
        ops += 1;
    }
    for rec in &batch.removed {
        let eid = kb.find_edge(rec.src, rec.dst, rec.label, rec.directed).ok_or_else(|| {
            KbError::Replay(format!(
                "batch {} removes absent edge {}->{} label {}",
                batch.seq, rec.src.0, rec.dst.0, rec.label.0
            ))
        })?;
        kb.remove_edge(eid)?;
        ops += 1;
    }
    for rec in &batch.added {
        kb.insert_edge(rec.src, rec.dst, rec.label, rec.directed)
            .map_err(|e| KbError::Replay(format!("batch {} insert failed: {e}", batch.seq)))?;
        ops += 1;
    }
    Ok(ops)
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Scripted I/O faults for the WAL writer. Deterministic by
/// construction: each fault names the batch sequence it fires at, so a
/// seeded test can cut a specific record at a specific byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalFaults {
    /// Cut the record of batch `.0` after `.1` bytes (clamped to the
    /// record length), then fail the append as a crash would.
    pub torn_write: Option<(u64, usize)>,
    /// Fail the `fsync` that follows batch `.0`.
    pub fail_sync_at: Option<u64>,
}

/// Scripted crash points inside [`DurableKb::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCrash {
    /// Crash after committing the window but before the checkpoint
    /// file is renamed into place (old checkpoint + full WAL survive).
    Before,
    /// Crash after the rename but before the WAL is truncated (new
    /// checkpoint + stale WAL survive; replay must skip covered seqs).
    After,
}

// ---------------------------------------------------------------------
// WAL writer
// ---------------------------------------------------------------------

/// Receipt of one durable commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Sequence number the batch was written under.
    pub seq: u64,
    /// Bytes appended to the WAL (record header + payload).
    pub bytes: u64,
    /// Mutations carried by the batch after netting.
    pub ops: usize,
    /// Whether this commit reached an `fsync`.
    pub synced: bool,
}

/// Append-only writer over a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    commits_since_sync: u32,
    commits: u64,
    bytes_written: u64,
    faults: WalFaults,
}

fn io_err(context: &str, e: std::io::Error) -> KbError {
    KbError::Io(format!("{context}: {e}"))
}

impl WalWriter {
    /// Creates (truncating) a WAL file with a fresh header, and fsyncs
    /// its directory so the new file's entry survives a crash.
    pub fn create(path: &Path, policy: SyncPolicy) -> Result<WalWriter> {
        let mut file = File::create(path).map_err(|e| io_err("create WAL", e))?;
        let mut header = [0u8; WAL_HEADER_LEN as usize];
        header[..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
        header[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
        file.write_all(&header).map_err(|e| io_err("write WAL header", e))?;
        file.sync_all().map_err(|e| io_err("sync WAL header", e))?;
        sync_parent_dir(path).map_err(|e| io_err("sync WAL directory", e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            commits_since_sync: 0,
            commits: 0,
            bytes_written: 0,
            faults: WalFaults::default(),
        })
    }

    /// Opens an existing (already recovered and truncated) WAL for
    /// append at `end`.
    pub fn open_at(path: &Path, policy: SyncPolicy, end: u64) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open WAL", e))?;
        file.seek(SeekFrom::Start(end)).map_err(|e| io_err("seek WAL", e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            policy,
            commits_since_sync: 0,
            commits: 0,
            bytes_written: 0,
            faults: WalFaults::default(),
        })
    }

    /// Installs scripted I/O faults (tests only; default is fault-free).
    pub fn set_faults(&mut self, faults: WalFaults) {
        self.faults = faults;
    }

    /// The WAL file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Commits appended and bytes written through this writer.
    pub fn stats(&self) -> (u64, u64) {
        (self.commits, self.bytes_written)
    }

    /// Appends one batch as a checksummed record and applies the sync
    /// policy. A scripted torn write cuts the record mid-byte and fails
    /// like a crash; a scripted fsync failure fails after a full write.
    pub fn append(&mut self, batch: &WalBatch) -> Result<CommitReceipt> {
        let payload = encode_batch(batch);
        let mut record = BytesMut::with_capacity(RECORD_HEADER_LEN + payload.len());
        record.put_u32_le(payload.len() as u32);
        record.put_u32_le(crc32(payload.as_slice()));
        record.put_slice(payload.as_slice());
        let record = record.freeze();

        if let Some((seq, cut)) = self.faults.torn_write {
            if seq == batch.seq {
                let cut = cut.min(record.len());
                self.file
                    .write_all(&record.as_slice()[..cut])
                    .map_err(|e| io_err("torn WAL append", e))?;
                let _ = self.file.sync_all();
                return Err(KbError::Io(format!(
                    "injected torn write: batch {} cut at byte {cut} of {}",
                    batch.seq,
                    record.len()
                )));
            }
        }

        self.file.write_all(record.as_slice()).map_err(|e| io_err("append WAL", e))?;
        self.commits += 1;
        self.bytes_written += record.len() as u64;
        self.commits_since_sync += 1;

        let must_sync = match self.policy {
            SyncPolicy::PerCommit => true,
            SyncPolicy::Interval(n) => self.commits_since_sync >= n.max(1),
            SyncPolicy::Off => false,
        };
        let mut synced = false;
        if must_sync {
            self.sync_for(batch.seq)?;
            synced = true;
        }
        Ok(CommitReceipt {
            seq: batch.seq,
            bytes: record.len() as u64,
            ops: batch.op_count(),
            synced,
        })
    }

    fn sync_for(&mut self, seq: u64) -> Result<()> {
        if self.faults.fail_sync_at == Some(seq) {
            return Err(KbError::Io(format!("injected fsync failure after batch {seq}")));
        }
        self.file.sync_all().map_err(|e| io_err("sync WAL", e))?;
        self.commits_since_sync = 0;
        Ok(())
    }

    /// Forces an `fsync` regardless of policy.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all().map_err(|e| io_err("sync WAL", e))?;
        self.commits_since_sync = 0;
        Ok(())
    }

    /// Truncates the WAL back to its bare header (after a checkpoint has
    /// made the records redundant) and syncs.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(WAL_HEADER_LEN).map_err(|e| io_err("truncate WAL", e))?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN)).map_err(|e| io_err("seek WAL", e))?;
        self.file.sync_all().map_err(|e| io_err("sync WAL", e))?;
        self.commits_since_sync = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------

/// Writes an atomic checkpoint of `kb` covering WAL batches up to and
/// including `last_seq` (temp file + rename; a crash mid-write leaves
/// the previous checkpoint intact).
pub fn write_checkpoint(path: &Path, kb: &KnowledgeBase, last_seq: u64) -> Result<u64> {
    let body = encode_binary(kb);
    let mut buf = BytesMut::with_capacity(28 + body.len());
    buf.put_u32_le(CKPT_MAGIC);
    buf.put_u32_le(CKPT_VERSION);
    buf.put_u64_le(last_seq);
    buf.put_u64_le(body.len() as u64);
    buf.put_u32_le(crc32(body.as_slice()));
    buf.put_slice(body.as_slice());
    let bytes = buf.freeze();
    atomic_write(path, bytes.as_slice()).map_err(|e| io_err("write checkpoint", e))?;
    Ok(bytes.len() as u64)
}

/// Reads a checkpoint file back into a KB plus the last WAL sequence it
/// covers. Every malformed prefix is a typed error.
pub fn read_checkpoint(path: &Path) -> Result<(KnowledgeBase, u64)> {
    let data = std::fs::read(path).map_err(|e| io_err("read checkpoint", e))?;
    let mut buf = Bytes::from(data);
    if buf.remaining() < 28 {
        return Err(KbError::Parse("truncated checkpoint header".into()));
    }
    let magic = buf.get_u32_le();
    let version = buf.get_u32_le();
    if magic != CKPT_MAGIC {
        return Err(KbError::Parse("bad checkpoint magic".into()));
    }
    if version != CKPT_VERSION {
        return Err(KbError::Parse(format!("unsupported checkpoint version {version}")));
    }
    let last_seq = buf.get_u64_le();
    let body_len = buf.get_u64_le() as usize;
    let crc = buf.get_u32_le();
    if buf.remaining() < body_len {
        return Err(KbError::Parse("truncated checkpoint body".into()));
    }
    let body = buf.slice(0..body_len);
    if crc32(body.as_slice()) != crc {
        return Err(KbError::Parse("checkpoint checksum mismatch".into()));
    }
    let kb = decode_binary(body)?;
    Ok((kb, last_seq))
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// The loud typed account of what recovery did: how much of the WAL was
/// replayed, how much was skipped as already checkpointed, and how many
/// bytes of torn/corrupt tail were truncated (and why). Truncation is
/// the *expected* crash artifact, never an error — but it is always
/// reported, never silent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a checkpoint file was found and loaded.
    pub checkpoint_loaded: bool,
    /// The WAL sequence the checkpoint covers (0 without a checkpoint).
    pub checkpoint_seq: u64,
    /// Batches replayed onto the checkpoint state.
    pub replayed_batches: usize,
    /// Batches skipped because the checkpoint already covers them.
    pub skipped_batches: usize,
    /// Mutations applied across all replayed batches.
    pub replayed_ops: usize,
    /// Bytes of torn/corrupt tail discarded.
    pub truncated_bytes: u64,
    /// Why the tail was cut, when it was.
    pub truncated_reason: Option<String>,
    /// Valid WAL length after recovery (header + intact records).
    pub wal_valid_bytes: u64,
    /// Highest batch sequence the recovered state reflects.
    pub last_seq: u64,
}

fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

struct Recovered {
    kb: KnowledgeBase,
    report: RecoveryReport,
    valid_end: u64,
}

/// Core recovery: checkpoint load + WAL scan/replay + tail truncation.
/// `truncate` controls whether the WAL file is physically cut back to
/// its valid prefix (writers want that; a read-only inspection may not).
fn recover(checkpoint: &Path, wal: &Path, truncate: bool) -> Result<Recovered> {
    let mut report = RecoveryReport::default();
    let mut kb = if checkpoint.exists() {
        let (kb, seq) = read_checkpoint(checkpoint)?;
        report.checkpoint_loaded = true;
        report.checkpoint_seq = seq;
        report.last_seq = seq;
        kb
    } else {
        KbBuilder::new().build()
    };

    if !wal.exists() {
        if truncate {
            WalWriter::create(wal, SyncPolicy::Off)?;
        }
        report.wal_valid_bytes = WAL_HEADER_LEN;
        return Ok(Recovered { kb, report, valid_end: WAL_HEADER_LEN });
    }

    let data = std::fs::read(wal).map_err(|e| io_err("read WAL", e))?;
    if (data.len() as u64) < WAL_HEADER_LEN {
        // A crash during WAL creation tore the header itself: the file
        // carries no committed data, so rebuild it empty.
        report.truncated_bytes = data.len() as u64;
        report.truncated_reason = Some(format!("torn WAL header ({} of 8 bytes)", data.len()));
        if truncate {
            WalWriter::create(wal, SyncPolicy::Off)?;
        }
        report.wal_valid_bytes = WAL_HEADER_LEN;
        return Ok(Recovered { kb, report, valid_end: WAL_HEADER_LEN });
    }
    if read_u32(&data, 0) != WAL_MAGIC {
        return Err(KbError::Parse("bad WAL magic".into()));
    }
    let version = read_u32(&data, 4);
    if version != WAL_VERSION {
        return Err(KbError::Parse(format!("unsupported WAL version {version}")));
    }

    let mut offset = WAL_HEADER_LEN as usize;
    let mut prev_seq_in_file: Option<u64> = None;
    loop {
        if offset == data.len() {
            break; // clean end
        }
        if offset + RECORD_HEADER_LEN > data.len() {
            report.truncated_reason = Some(format!("torn record header at byte {offset}"));
            break;
        }
        let len = read_u32(&data, offset) as usize;
        let crc = read_u32(&data, offset + 4);
        let body_at = offset + RECORD_HEADER_LEN;
        if body_at + len > data.len() {
            report.truncated_reason =
                Some(format!("torn record at byte {offset}: {len}-byte payload exceeds file"));
            break;
        }
        let payload = &data[body_at..body_at + len];
        if crc32(payload) != crc {
            report.truncated_reason = Some(format!("checksum mismatch at byte {offset}"));
            break;
        }
        let batch = match decode_batch(Bytes::from(payload.to_vec())) {
            Ok(b) => b,
            Err(e) => {
                report.truncated_reason = Some(format!("undecodable batch at byte {offset}: {e}"));
                break;
            }
        };
        if let Some(prev) = prev_seq_in_file {
            if batch.seq != prev + 1 {
                report.truncated_reason = Some(format!(
                    "sequence discontinuity at byte {offset}: {} after {prev}",
                    batch.seq
                ));
                break;
            }
        }
        prev_seq_in_file = Some(batch.seq);
        if batch.seq <= report.checkpoint_seq {
            // Already folded into the checkpoint (crash between the
            // checkpoint rename and the WAL truncation); validate, skip.
            report.skipped_batches += 1;
        } else {
            if batch.seq != report.last_seq + 1 {
                return Err(KbError::Replay(format!(
                    "WAL gap: batch {} follows durable state at {}",
                    batch.seq, report.last_seq
                )));
            }
            report.replayed_ops += apply_batch(&mut kb, &batch)?;
            report.replayed_batches += 1;
            report.last_seq = batch.seq;
        }
        offset = body_at + len;
    }

    report.truncated_bytes = (data.len() - offset) as u64;
    report.wal_valid_bytes = offset as u64;
    if truncate && report.truncated_bytes > 0 {
        let file = OpenOptions::new()
            .write(true)
            .open(wal)
            .map_err(|e| io_err("open WAL for truncation", e))?;
        file.set_len(offset as u64).map_err(|e| io_err("truncate WAL tail", e))?;
        file.sync_all().map_err(|e| io_err("sync truncated WAL", e))?;
    }
    Ok(Recovered { kb, report, valid_end: offset as u64 })
}

impl KnowledgeBase {
    /// Opens a durable KB: loads the checkpoint at `checkpoint` (when
    /// present), replays the WAL at `wal` past the checkpoint's
    /// sequence, truncates any torn/corrupt tail at the first
    /// length/checksum failure, and reports exactly what happened.
    /// Creates an empty WAL when none exists, so `open` on a fresh
    /// directory yields an empty KB ready for durable writes.
    pub fn open(checkpoint: &Path, wal: &Path) -> Result<(KnowledgeBase, RecoveryReport)> {
        let r = recover(checkpoint, wal, true)?;
        Ok((r.kb, r.report))
    }

    /// Read-only recovery preview: like [`KnowledgeBase::open`] but the
    /// WAL file is left untouched (the torn tail, if any, stays on
    /// disk). Used by `rex recover` to report without mutating.
    pub fn peek(checkpoint: &Path, wal: &Path) -> Result<(KnowledgeBase, RecoveryReport)> {
        let r = recover(checkpoint, wal, false)?;
        Ok((r.kb, r.report))
    }
}

// ---------------------------------------------------------------------
// DurableKb: group commit over a live KB
// ---------------------------------------------------------------------

/// Receipt of a checkpoint: what was folded and reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReceipt {
    /// WAL sequence the checkpoint covers.
    pub last_seq: u64,
    /// Bytes of the checkpoint file.
    pub snapshot_bytes: u64,
    /// In-memory log entries compacted away.
    pub compacted_entries: usize,
}

/// A [`KnowledgeBase`] with a write-ahead log attached: mutations are
/// applied in memory as usual (through [`DurableKb::kb_mut`]) and made
/// durable in **group-commit windows** — [`DurableKb::commit`] condenses
/// everything since the previous commit into one netted [`WalBatch`] and
/// appends it under the configured [`SyncPolicy`].
///
/// The commit window is reconstructed from the KB itself (its delta log
/// plus interner watermarks), so callers may mutate freely between
/// commits. The one rule: do not compact the KB's log below the last
/// committed epoch (checkpointing does the compaction for you).
#[derive(Debug)]
pub struct DurableKb {
    kb: KnowledgeBase,
    wal: WalWriter,
    checkpoint_path: PathBuf,
    next_seq: u64,
    committed_epoch: u64,
    committed_labels: usize,
    committed_nodes: usize,
    checkpoint_crash: Option<CheckpointCrash>,
}

impl DurableKb {
    /// Attaches durability to `kb`: writes an initial checkpoint (so the
    /// pre-existing state survives a crash before the first WAL commit)
    /// and a fresh WAL.
    pub fn create(
        kb: KnowledgeBase,
        checkpoint: &Path,
        wal: &Path,
        policy: SyncPolicy,
    ) -> Result<DurableKb> {
        let writer = WalWriter::create(wal, policy)?;
        write_checkpoint(checkpoint, &kb, 0)?;
        let committed_epoch = kb.epoch();
        let committed_labels = kb.label_count();
        let committed_nodes = kb.node_count();
        Ok(DurableKb {
            kb,
            wal: writer,
            checkpoint_path: checkpoint.to_path_buf(),
            next_seq: 1,
            committed_epoch,
            committed_labels,
            committed_nodes,
            checkpoint_crash: None,
        })
    }

    /// Recovers from `checkpoint` + `wal` and reopens for durable
    /// writes, returning the [`RecoveryReport`] alongside.
    pub fn open(
        checkpoint: &Path,
        wal: &Path,
        policy: SyncPolicy,
    ) -> Result<(DurableKb, RecoveryReport)> {
        let r = recover(checkpoint, wal, true)?;
        if !checkpoint.exists() {
            write_checkpoint(checkpoint, &r.kb, r.report.last_seq)?;
        }
        let writer = WalWriter::open_at(wal, policy, r.valid_end)?;
        let committed_epoch = r.kb.epoch();
        let committed_labels = r.kb.label_count();
        let committed_nodes = r.kb.node_count();
        Ok((
            DurableKb {
                kb: r.kb,
                wal: writer,
                checkpoint_path: checkpoint.to_path_buf(),
                next_seq: r.report.last_seq + 1,
                committed_epoch,
                committed_labels,
                committed_nodes,
                checkpoint_crash: None,
            },
            r.report,
        ))
    }

    /// Read access to the live KB.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// Mutable access to the live KB; everything mutated here becomes
    /// part of the next commit window.
    pub fn kb_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.kb
    }

    /// Mutations accumulated since the last commit (epoch distance plus
    /// labels interned without an epoch bump).
    pub fn pending_ops(&self) -> u64 {
        (self.kb.epoch() - self.committed_epoch)
            + (self.kb.label_count() - self.committed_labels) as u64
    }

    /// The sequence the next commit will be written under.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Scripted WAL faults (tests only).
    pub fn set_wal_faults(&mut self, faults: WalFaults) {
        self.wal.set_faults(faults);
    }

    /// Scripted checkpoint crash (tests only; fires once).
    pub fn set_checkpoint_crash(&mut self, crash: Option<CheckpointCrash>) {
        self.checkpoint_crash = crash;
    }

    /// Builds the current commit window as a netted batch without
    /// writing it (what [`DurableKb::commit`] would append).
    fn window_batch(&self) -> Result<WalBatch> {
        let delta = match self.kb.delta_since(self.committed_epoch) {
            DeltaSince::Delta(d) => d,
            DeltaSince::Compacted { requested, oldest_retained, .. } => {
                return Err(KbError::Replay(format!(
                    "commit window compacted away: need epoch {requested}, log starts at {oldest_retained}"
                )))
            }
        };
        let (added, removed) = net_edge_multisets(delta.added, delta.removed);
        let new_labels = (self.committed_labels as u32..self.kb.label_count() as u32)
            .map(|id| self.kb.label_name(LabelId(id)).to_string())
            .collect();
        let new_nodes = (self.committed_nodes as u32..self.kb.node_count() as u32)
            .map(|id| {
                let id = NodeId(id);
                (self.kb.node_name(id).to_string(), self.kb.node_type_name(id).to_string())
            })
            .collect();
        Ok(WalBatch { seq: self.next_seq, new_labels, new_nodes, removed, added })
    }

    /// Commits the current window as one WAL batch. Returns `None` when
    /// the window is empty (nothing is written). On an I/O error the
    /// window stays pending — retry or treat as a crash.
    pub fn commit(&mut self) -> Result<Option<CommitReceipt>> {
        let batch = self.window_batch()?;
        if batch.is_empty() {
            // Node-count/epoch watermarks still advance: an insert-then-
            // remove window nets to nothing but is now consumed.
            self.committed_epoch = self.kb.epoch();
            return Ok(None);
        }
        let receipt = self.wal.append(&batch)?;
        self.next_seq += 1;
        self.committed_epoch = self.kb.epoch();
        self.committed_labels = self.kb.label_count();
        self.committed_nodes = self.kb.node_count();
        Ok(Some(receipt))
    }

    /// Forces the WAL to stable storage regardless of policy.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Commits the pending window, writes an atomic checkpoint covering
    /// every committed batch, truncates the WAL back to its header, and
    /// compacts the in-memory log — bounding both durable and in-memory
    /// log length. Scripted [`CheckpointCrash`] faults abort at the
    /// corresponding point to simulate a crash.
    pub fn checkpoint(&mut self) -> Result<CheckpointReceipt> {
        self.commit()?;
        self.wal.sync()?;
        if self.checkpoint_crash == Some(CheckpointCrash::Before) {
            self.checkpoint_crash = None;
            return Err(KbError::Io("injected crash before checkpoint".into()));
        }
        let last_seq = self.next_seq - 1;
        let snapshot_bytes = write_checkpoint(&self.checkpoint_path, &self.kb, last_seq)?;
        if self.checkpoint_crash == Some(CheckpointCrash::After) {
            self.checkpoint_crash = None;
            return Err(KbError::Io("injected crash after checkpoint".into()));
        }
        self.wal.reset()?;
        let compacted_entries = self.kb.compact_log(self.kb.epoch());
        Ok(CheckpointReceipt { last_seq, snapshot_bytes, compacted_entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rex-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn paths(dir: &Path) -> (PathBuf, PathBuf) {
        (dir.join("checkpoint.rexc"), dir.join("delta.rexw"))
    }

    /// Canonical byte form for equality checks across KBs that took
    /// different mutation routes to the same state.
    fn bytes_of(kb: &KnowledgeBase) -> Vec<u8> {
        encode_binary(kb).to_vec()
    }

    /// The one-lookup-per-byte CRC-32 the slice-by-8 loop must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let t = &crc_tables()[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    proptest! {
        /// Slice-by-8 equals the bytewise loop at every length and
        /// alignment: the slice starts at a random offset into the
        /// buffer and its length leaves any tail of 0 to 7 bytes.
        #[test]
        fn crc32_matches_bytewise(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
            offset in 0usize..16,
        ) {
            let data = &bytes[offset.min(bytes.len())..];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn sync_policy_parsing() {
        assert_eq!(SyncPolicy::parse("commit"), Ok(SyncPolicy::PerCommit));
        assert_eq!(SyncPolicy::parse("off"), Ok(SyncPolicy::Off));
        assert_eq!(SyncPolicy::parse("interval"), Ok(SyncPolicy::Interval(8)));
        assert_eq!(SyncPolicy::parse("interval:3"), Ok(SyncPolicy::Interval(3)));
        assert!(SyncPolicy::parse("interval:0").is_err());
        assert!(SyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn batch_round_trip() {
        let batch = WalBatch {
            seq: 7,
            new_labels: vec!["l".into()],
            new_nodes: vec![("n".into(), "T".into())],
            removed: vec![EdgeRecord {
                src: NodeId(1),
                dst: NodeId(2),
                label: LabelId(0),
                directed: true,
            }],
            added: vec![EdgeRecord {
                src: NodeId(0),
                dst: NodeId(1),
                label: LabelId(0),
                directed: false,
            }],
        };
        let payload = encode_batch(&batch);
        assert_eq!(decode_batch(payload).unwrap(), batch);
    }

    #[test]
    fn batch_decode_rejects_any_truncation() {
        let batch = WalBatch {
            seq: 1,
            new_labels: vec!["knows".into()],
            new_nodes: vec![("a".into(), "T".into())],
            removed: vec![],
            added: vec![EdgeRecord {
                src: NodeId(0),
                dst: NodeId(0),
                label: LabelId(0),
                directed: true,
            }],
        };
        let payload = encode_batch(&batch);
        for cut in 0..payload.len() {
            assert!(
                decode_batch(payload.slice(0..cut)).is_err(),
                "decode accepted a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn netting_cancels_insert_then_remove() {
        let r = |s: u32| EdgeRecord {
            src: NodeId(s),
            dst: NodeId(s + 1),
            label: LabelId(0),
            directed: true,
        };
        let (added, removed) = net_edge_multisets(vec![r(0), r(1), r(0)], vec![r(0), r(2)]);
        // One r(0) pair nets; the second r(0) add and the r(2) remove stay.
        assert_eq!(added, vec![r(1), r(0)]);
        assert_eq!(removed, vec![r(2)]);
    }

    #[test]
    fn durable_round_trip_and_recovery() {
        let dir = temp_dir("roundtrip");
        let (ckpt, wal) = paths(&dir);
        let mut d =
            DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::PerCommit).unwrap();
        let a = d.kb().require_node("brad_pitt").unwrap();
        let n = d.kb_mut().insert_node("fresh_node", "Person");
        d.kb_mut().insert_edge_named(n, a, "knows", true).unwrap();
        assert!(d.commit().unwrap().is_some());
        // Empty window commits are free.
        assert!(d.commit().unwrap().is_none());
        let expected = bytes_of(d.kb());
        drop(d);
        let (kb, report) = KnowledgeBase::open(&ckpt, &wal).unwrap();
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(bytes_of(&kb), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_then_remove_window_nets_to_nothing_durable() {
        let dir = temp_dir("netting");
        let (ckpt, wal) = paths(&dir);
        let mut d =
            DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::PerCommit).unwrap();
        let a = d.kb().require_node("brad_pitt").unwrap();
        let l = d.kb_mut().intern_label("transient").unwrap();
        let e = d.kb_mut().insert_edge(a, a, l, true).unwrap();
        d.kb_mut().remove_edge(e).unwrap();
        // The label is new and survives; the edge pair nets out.
        let receipt = d.commit().unwrap().expect("label still makes the batch non-empty");
        assert_eq!(receipt.ops, 1);
        let expected = bytes_of(d.kb());
        drop(d);
        let (kb, _) = KnowledgeBase::open(&ckpt, &wal).unwrap();
        assert_eq!(bytes_of(&kb), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_with_loud_report() {
        let dir = temp_dir("torn");
        let (ckpt, wal) = paths(&dir);
        let mut d =
            DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::PerCommit).unwrap();
        let a = d.kb().require_node("brad_pitt").unwrap();
        let j = d.kb().require_node("angelina_jolie").unwrap();
        d.kb_mut().insert_edge_named(a, j, "colleague", false).unwrap();
        d.commit().unwrap().unwrap();
        let committed = bytes_of(d.kb());
        // Second commit is torn 5 bytes into its record.
        d.set_wal_faults(WalFaults { torn_write: Some((2, 5)), fail_sync_at: None });
        d.kb_mut().insert_edge_named(j, a, "colleague", false).unwrap();
        let err = d.commit().unwrap_err();
        assert!(matches!(err, KbError::Io(_)), "torn write must surface as Io: {err}");
        drop(d);
        let wal_len_before = std::fs::metadata(&wal).unwrap().len();
        let (kb, report) = KnowledgeBase::open(&ckpt, &wal).unwrap();
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(report.truncated_bytes, 5);
        assert!(report.truncated_reason.is_some());
        assert_eq!(bytes_of(&kb), committed);
        // The file was physically truncated back to the valid prefix.
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len_before - 5);
        assert_eq!(report.wal_valid_bytes, wal_len_before - 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_wal_and_log() {
        let dir = temp_dir("ckpt");
        let (ckpt, wal) = paths(&dir);
        let mut d =
            DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::Interval(4)).unwrap();
        let a = d.kb().require_node("brad_pitt").unwrap();
        for i in 0..6 {
            let n = d.kb_mut().insert_node(&format!("extra-{i}"), "Person");
            d.kb_mut().insert_edge_named(n, a, "knows", true).unwrap();
            d.commit().unwrap().unwrap();
        }
        let receipt = d.checkpoint().unwrap();
        assert_eq!(receipt.last_seq, 6);
        assert!(receipt.compacted_entries > 0);
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), WAL_HEADER_LEN);
        assert_eq!(d.kb().log_len(), 0);
        // Post-checkpoint commits land after the checkpoint's sequence.
        let n = d.kb_mut().insert_node("post-ckpt", "Person");
        d.kb_mut().insert_edge_named(n, a, "knows", true).unwrap();
        assert_eq!(d.commit().unwrap().unwrap().seq, 7);
        let expected = bytes_of(d.kb());
        drop(d);
        let (kb, report) = KnowledgeBase::open(&ckpt, &wal).unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.checkpoint_seq, 6);
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(bytes_of(&kb), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_after_checkpoint_skips_covered_batches() {
        let dir = temp_dir("ckpt-after");
        let (ckpt, wal) = paths(&dir);
        let mut d =
            DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::PerCommit).unwrap();
        let a = d.kb().require_node("brad_pitt").unwrap();
        for i in 0..3 {
            let n = d.kb_mut().insert_node(&format!("pre-{i}"), "Person");
            d.kb_mut().insert_edge_named(n, a, "knows", true).unwrap();
            d.commit().unwrap().unwrap();
        }
        let expected = bytes_of(d.kb());
        d.set_checkpoint_crash(Some(CheckpointCrash::After));
        let err = d.checkpoint().unwrap_err();
        assert!(matches!(err, KbError::Io(_)));
        drop(d);
        // New checkpoint + stale (untruncated) WAL: replay must skip all
        // three covered batches, not double-apply them.
        let (kb, report) = KnowledgeBase::open(&ckpt, &wal).unwrap();
        assert_eq!(report.checkpoint_seq, 3);
        assert_eq!(report.skipped_batches, 3);
        assert_eq!(report.replayed_batches, 0);
        assert_eq!(bytes_of(&kb), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_checkpoint_keeps_old_state_recoverable() {
        let dir = temp_dir("ckpt-before");
        let (ckpt, wal) = paths(&dir);
        let mut d =
            DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::PerCommit).unwrap();
        let a = d.kb().require_node("brad_pitt").unwrap();
        let n = d.kb_mut().insert_node("pre", "Person");
        d.kb_mut().insert_edge_named(n, a, "knows", true).unwrap();
        d.commit().unwrap().unwrap();
        let expected = bytes_of(d.kb());
        d.set_checkpoint_crash(Some(CheckpointCrash::Before));
        assert!(d.checkpoint().is_err());
        drop(d);
        let (kb, report) = KnowledgeBase::open(&ckpt, &wal).unwrap();
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(bytes_of(&kb), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_failure_surfaces_as_io_error() {
        let dir = temp_dir("fsync");
        let (ckpt, wal) = paths(&dir);
        let mut d =
            DurableKb::create(toy::entertainment(), &ckpt, &wal, SyncPolicy::PerCommit).unwrap();
        d.set_wal_faults(WalFaults { torn_write: None, fail_sync_at: Some(1) });
        let a = d.kb().require_node("brad_pitt").unwrap();
        let n = d.kb_mut().insert_node("x", "Person");
        d.kb_mut().insert_edge_named(n, a, "knows", true).unwrap();
        let err = d.commit().unwrap_err();
        assert!(matches!(err, KbError::Io(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_on_fresh_directory_yields_empty_kb() {
        let dir = temp_dir("fresh");
        let (ckpt, wal) = paths(&dir);
        let (d, report) = DurableKb::open(&ckpt, &wal, SyncPolicy::PerCommit).unwrap();
        assert!(!report.checkpoint_loaded);
        assert_eq!(d.kb().node_count(), 0);
        assert!(ckpt.exists(), "open seeds a checkpoint so the WAL has a base");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_is_a_hard_error_not_a_truncation() {
        let dir = temp_dir("magic");
        let (ckpt, wal) = paths(&dir);
        std::fs::write(&wal, [0xFFu8; 32]).unwrap();
        let err = KnowledgeBase::open(&ckpt, &wal).unwrap_err();
        assert!(matches!(err, KbError::Parse(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
