//! On-disk index snapshots — mmap-ready serialization of an
//! [`EdgeIndex`]'s partitions and endpoint postings.
//!
//! A snapshot stores, per `(label, dir)` partition, the flat row array
//! plus both [`ColumnPosting`] CSR triples (`keys`, `offsets`, `perm`)
//! **as-is**: loading validates the arrays (monotone offsets, strictly
//! increasing keys, in-range permutations, trailing checksum) and adopts
//! them without re-bucketing or re-sorting, so a cold start is I/O-bound
//! — strictly cheaper than [`EdgeIndex::build`], which must bucket the
//! oriented relation and sort every posting. The layout is plain
//! little-endian arrays at fixed offsets, so a future reader can map the
//! file and point into it directly (hence *mmap-ready*); this
//! implementation copies into owned `Vec`s, which keeps the index type
//! unchanged.
//!
//! Writes go through [`rex_kb::io::atomic_write`] (temp + fsync +
//! rename), so a torn write leaves the previous snapshot intact; any
//! in-place corruption is caught by the FNV-1a checksum or the structural
//! validation and rejected wholesale with [`RelError::Corrupt`] — callers
//! fall back to a rebuild, never to a half-loaded index.
//!
//! Sharded layout ([`save_sharded`] / [`load_sharded`]): a directory with
//! a checksummed `MANIFEST` (spec + epoch), `base.idx`, and one
//! `shard-<k>.idx` per shard (omitted when `shards == 1`, where the base
//! *is* the single shard).

use std::path::Path;
use std::sync::Arc;

use crate::engine::{oriented_schema, EdgeIndex, PartitionPosting, ShardSpec, ShardedEdgeIndex};
use crate::relation::{ColumnPosting, Relation};
use crate::{RelError, Result};

/// `b"RXIX"` little-endian — REX IndeX snapshot.
const MAGIC: u32 = 0x5849_5852;
/// `b"RXSM"` little-endian — REX Sharded Manifest.
const MANIFEST_MAGIC: u32 = 0x4d53_5852;
const VERSION: u32 = 1;

/// File name of the sharded-layout manifest inside its directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// File name of the base index snapshot inside a sharded layout.
pub const BASE_NAME: &str = "base.idx";

/// File name of shard `k`'s snapshot inside a sharded layout.
pub fn shard_name(k: usize) -> String {
    format!("shard-{k}.idx")
}

// ---------------------------------------------------------------------
// Little-endian put/get with truncation checks — same idiom as the KB
// binary codec (`rex_kb::io`), hand-rolled because this crate takes no
// serialization dependency.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn need(&self, n: usize, what: &str) -> Result<()> {
        if self.buf.len() - self.pos < n {
            return Err(RelError::Corrupt(format!(
                "truncated snapshot: need {n} bytes for {what}, have {}",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn get_u32(&mut self, what: &str) -> Result<u32> {
        self.need(4, what)?;
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap());
        self.pos += 4;
        Ok(v)
    }

    fn get_u64(&mut self, what: &str) -> Result<u64> {
        self.need(8, what)?;
        let v = u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap());
        self.pos += 8;
        Ok(v)
    }

    /// Reads `count` u64s with an allocation guard: the count must be
    /// backed by remaining bytes *before* the Vec is reserved, so a
    /// corrupt length can't balloon memory.
    fn get_u64s(&mut self, count: usize, what: &str) -> Result<Vec<u64>> {
        self.need(count.saturating_mul(8), what)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(u64::from_le_bytes(self.buf[self.pos..self.pos + 8].try_into().unwrap()));
            self.pos += 8;
        }
        Ok(out)
    }

    fn get_u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>> {
        self.need(count.saturating_mul(4), what)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()));
            self.pos += 4;
        }
        Ok(out)
    }
}

/// FNV-1a over the payload — cheap, dependency-free whole-file integrity.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_posting(out: &mut Vec<u8>, posting: &ColumnPosting) {
    let (keys, offsets, perm) = posting.parts();
    put_u32(out, keys.len() as u32);
    for &k in keys {
        put_u64(out, k);
    }
    for &o in offsets {
        put_u32(out, o);
    }
    for &p in perm {
        put_u32(out, p);
    }
}

fn get_posting(r: &mut Reader<'_>, row_count: usize) -> Result<ColumnPosting> {
    let keys_len = r.get_u32("posting key count")? as usize;
    let keys = r.get_u64s(keys_len, "posting keys")?;
    let offsets = r.get_u32s(keys_len + 1, "posting offsets")?;
    let perm = r.get_u32s(row_count, "posting permutation")?;
    ColumnPosting::from_parts(keys, offsets, perm, row_count)
}

/// Serializes an index into the v1 snapshot byte format (checksummed,
/// deterministic: partitions in sorted `(label, dir)` order).
pub fn encode_index(index: &EdgeIndex) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, index.epoch());
    put_u64(&mut out, index.node_count() as u64);
    put_u64(&mut out, index.total_rows() as u64);
    let partitions = index.partitions();
    put_u32(&mut out, partitions.len() as u32);
    for ((label, dir), rel, posting) in partitions {
        put_u64(&mut out, label);
        put_u64(&mut out, dir);
        put_u32(&mut out, rel.len() as u32);
        for &v in rel.as_flat() {
            put_u64(&mut out, v);
        }
        let (by_src, by_dst) = posting.parts();
        put_posting(&mut out, by_src);
        put_posting(&mut out, by_dst);
    }
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

/// Deserializes a v1 snapshot, validating magic, version, checksum, and
/// every structural invariant (partition row totals, CSR monotonicity,
/// in-range permutations) before any part is adopted.
pub fn decode_index(bytes: &[u8]) -> Result<EdgeIndex> {
    if bytes.len() < 8 {
        return Err(RelError::Corrupt("snapshot shorter than its checksum".into()));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(RelError::Corrupt("checksum mismatch".into()));
    }
    let mut r = Reader::new(payload);
    let magic = r.get_u32("magic")?;
    if magic != MAGIC {
        return Err(RelError::Corrupt(format!("bad magic 0x{magic:08x}")));
    }
    let version = r.get_u32("version")?;
    if version != VERSION {
        return Err(RelError::Corrupt(format!("unsupported snapshot version {version}")));
    }
    let epoch = r.get_u64("epoch")?;
    let node_count = r.get_u64("node count")? as usize;
    let total_rows = r.get_u64("total rows")? as usize;
    let partition_count = r.get_u32("partition count")? as usize;

    let schema = oriented_schema();
    let arity = schema.arity();
    let mut groups = std::collections::HashMap::new();
    let mut postings = std::collections::HashMap::new();
    let mut rows_seen = 0usize;
    for _ in 0..partition_count {
        let label = r.get_u64("partition label")?;
        let dir = r.get_u64("partition dir")?;
        let key = (label, dir);
        let row_count = r.get_u32("partition row count")? as usize;
        let flat = r.get_u64s(row_count.saturating_mul(arity), "partition rows")?;
        // The flat buffer *is* the partition's row storage: adopted as-is.
        let rel = Relation::from_flat(schema.clone(), flat)
            .map_err(|e| RelError::Corrupt(format!("partition ({label}, {dir}): {e}")))?;
        if let Some(row) = rel.rows().find(|row| row[2] != label || row[3] != dir) {
            return Err(RelError::Corrupt(format!(
                "row ({}, {}) filed under partition ({label}, {dir})",
                row[2], row[3]
            )));
        }
        rows_seen += row_count;
        let by_src = get_posting(&mut r, row_count)?;
        let by_dst = get_posting(&mut r, row_count)?;
        if groups.insert(key, Arc::new(rel)).is_some() {
            return Err(RelError::Corrupt(format!("duplicate partition ({label}, {dir})")));
        }
        postings.insert(key, Arc::new(PartitionPosting::from_parts(by_src, by_dst)));
    }
    if rows_seen != total_rows {
        return Err(RelError::Corrupt(format!(
            "partition rows sum to {rows_seen}, header says {total_rows}"
        )));
    }
    if r.pos != payload.len() {
        return Err(RelError::Corrupt(format!(
            "{} trailing bytes after last partition",
            payload.len() - r.pos
        )));
    }
    Ok(EdgeIndex::from_parts(groups, postings, schema, total_rows, node_count, epoch))
}

fn io_err(path: &Path, e: std::io::Error) -> RelError {
    RelError::Io(format!("{}: {e}", path.display()))
}

/// Writes an index snapshot atomically; returns the snapshot size in
/// bytes.
pub fn save_index(index: &EdgeIndex, path: &Path) -> Result<u64> {
    let bytes = encode_index(index);
    rex_kb::io::atomic_write(path, &bytes).map_err(|e| io_err(path, e))?;
    Ok(bytes.len() as u64)
}

/// Loads an index snapshot written by [`save_index`].
pub fn load_index(path: &Path) -> Result<EdgeIndex> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    decode_index(&bytes)
}

fn encode_manifest(index: &ShardedEdgeIndex) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, MANIFEST_MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, index.shard_count() as u32);
    put_u64(&mut out, index.spec().seed);
    put_u64(&mut out, index.epoch());
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

fn decode_manifest(bytes: &[u8]) -> Result<(ShardSpec, u64)> {
    if bytes.len() < 8 {
        return Err(RelError::Corrupt("manifest shorter than its checksum".into()));
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(payload) != stored {
        return Err(RelError::Corrupt("manifest checksum mismatch".into()));
    }
    let mut r = Reader::new(payload);
    let magic = r.get_u32("manifest magic")?;
    if magic != MANIFEST_MAGIC {
        return Err(RelError::Corrupt(format!("bad manifest magic 0x{magic:08x}")));
    }
    let version = r.get_u32("manifest version")?;
    if version != VERSION {
        return Err(RelError::Corrupt(format!("unsupported manifest version {version}")));
    }
    let shards = r.get_u32("shard count")? as usize;
    if shards == 0 {
        return Err(RelError::Corrupt("manifest declares zero shards".into()));
    }
    let seed = r.get_u64("shard seed")?;
    let epoch = r.get_u64("manifest epoch")?;
    if r.pos != payload.len() {
        return Err(RelError::Corrupt("trailing bytes in manifest".into()));
    }
    Ok((ShardSpec { shards, seed }, epoch))
}

/// Saves a sharded index layout into `dir` (created if absent): manifest,
/// base snapshot, and one snapshot per shard when `shards > 1`. Returns
/// total bytes written. Each file is written atomically; the manifest is
/// written **last**, so a crash mid-save leaves either the previous
/// complete layout (same epoch manifest) or a manifest whose epoch the
/// loader cross-checks against every file.
pub fn save_sharded(index: &ShardedEdgeIndex, dir: &Path) -> Result<u64> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut total = save_index(index.base(), &dir.join(BASE_NAME))?;
    if index.shard_count() > 1 {
        for k in 0..index.shard_count() {
            total += save_index(index.shard(k), &dir.join(shard_name(k)))?;
        }
    }
    let manifest = encode_manifest(index);
    rex_kb::io::atomic_write(&dir.join(MANIFEST_NAME), &manifest)
        .map_err(|e| io_err(&dir.join(MANIFEST_NAME), e))?;
    Ok(total + manifest.len() as u64)
}

/// Loads a sharded index layout written by [`save_sharded`]. Shard
/// snapshots may **lag** the manifest epoch (copy-on-write shards are
/// shared, not rewritten, across untouched epochs), but the base must
/// match it exactly.
pub fn load_sharded(dir: &Path) -> Result<ShardedEdgeIndex> {
    let manifest =
        std::fs::read(dir.join(MANIFEST_NAME)).map_err(|e| io_err(&dir.join(MANIFEST_NAME), e))?;
    let (spec, epoch) = decode_manifest(&manifest)?;
    let base = Arc::new(load_index(&dir.join(BASE_NAME))?);
    if base.epoch() != epoch {
        return Err(RelError::Corrupt(format!(
            "base snapshot at epoch {}, manifest says {epoch}",
            base.epoch()
        )));
    }
    if spec.shards == 1 {
        return Ok(ShardedEdgeIndex::from_shards(spec, Arc::clone(&base), vec![base]));
    }
    let mut shards = Vec::with_capacity(spec.shards);
    for k in 0..spec.shards {
        let shard = load_index(&dir.join(shard_name(k)))?;
        if shard.epoch() > epoch {
            return Err(RelError::Corrupt(format!(
                "shard {k} at epoch {} is ahead of manifest epoch {epoch}",
                shard.epoch()
            )));
        }
        if shard.node_count() != base.node_count() {
            return Err(RelError::Corrupt(format!(
                "shard {k} node count {} differs from base {}",
                shard.node_count(),
                base.node_count()
            )));
        }
        shards.push(Arc::new(shard));
    }
    Ok(ShardedEdgeIndex::from_shards(spec, base, shards))
}

/// Convenience: [`ShardedEdgeIndex::save`]/[`load`](ShardedEdgeIndex::load)
/// inherent forms live here to keep `engine` free of I/O concerns.
impl ShardedEdgeIndex {
    /// Saves this sharded index layout into `dir` ([`save_sharded`]).
    pub fn save(&self, dir: &Path) -> Result<u64> {
        save_sharded(self, dir)
    }

    /// Loads a sharded index layout from `dir` ([`load_sharded`]).
    pub fn load(dir: &Path) -> Result<ShardedEdgeIndex> {
        load_sharded(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rex_kb::KbBuilder;

    fn toy_kb() -> rex_kb::KnowledgeBase {
        let mut b = KbBuilder::new();
        let a = b.add_node("a", "P");
        let bb = b.add_node("b", "P");
        let c = b.add_node("c", "P");
        let m1 = b.add_node("m1", "M");
        let m2 = b.add_node("m2", "M");
        b.add_directed_edge(a, m1, "starring");
        b.add_directed_edge(bb, m1, "starring");
        b.add_directed_edge(a, m2, "starring");
        b.add_directed_edge(c, m2, "starring");
        b.add_undirected_edge(a, bb, "spouse");
        b.add_undirected_edge(c, c, "selfrel");
        b.build()
    }

    #[test]
    fn round_trip_preserves_index() {
        let kb = toy_kb();
        let index = EdgeIndex::build(&kb);
        let bytes = encode_index(&index);
        let loaded = decode_index(&bytes).expect("decode");
        assert_eq!(loaded.epoch(), index.epoch());
        assert_eq!(loaded.node_count(), index.node_count());
        assert_eq!(loaded.total_rows(), index.total_rows());
        // Same partitions, same rows, same postings.
        let a = index.partitions();
        let b = loaded.partitions();
        assert_eq!(a.len(), b.len());
        for ((ka, rel_a, post_a), (kb_, rel_b, post_b)) in a.iter().zip(&b) {
            assert_eq!(ka, kb_);
            assert_eq!(rel_a, rel_b);
            assert_eq!(post_a.parts(), post_b.parts());
        }
    }

    /// Saving a loaded snapshot reproduces every file byte for byte, for
    /// the flat index and for a sharded layout.
    #[test]
    fn save_load_save_is_byte_identical() {
        let kb = toy_kb();
        let bytes = encode_index(&EdgeIndex::build(&kb));
        assert_eq!(encode_index(&decode_index(&bytes).expect("decode")), bytes);

        let root = std::env::temp_dir().join(format!(
            "rex-persist-resave-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let (first, second) = (root.join("first"), root.join("second"));
        save_sharded(&ShardedEdgeIndex::build(&kb, ShardSpec::new(3, 7)), &first).expect("save");
        save_sharded(&load_sharded(&first).expect("load"), &second).expect("re-save");
        let mut names: Vec<_> =
            std::fs::read_dir(&first).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        assert_eq!(names.len(), 5, "manifest, base and three shards");
        for name in names {
            let a = std::fs::read(first.join(&name)).unwrap();
            let b = std::fs::read(second.join(&name)).unwrap();
            assert_eq!(a, b, "{name:?} changed across save → load → save");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// The v1 byte format, pinned: the toy index's snapshot length and
    /// FNV-1a fingerprint, for the flat index and each shard of a 3-way
    /// layout. A change here is an on-disk format change and needs a
    /// version bump.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let kb = toy_kb();
        let fingerprint = |index: &EdgeIndex| {
            let bytes = encode_index(index);
            (bytes.len(), fnv1a(&bytes))
        };
        assert_eq!(fingerprint(&EdgeIndex::build(&kb)), (564, 0x8f99_4871_ca9d_b9fd));
        let sharded = ShardedEdgeIndex::build(&kb, ShardSpec::new(3, 7));
        let shards: Vec<_> = (0..3).map(|k| fingerprint(sharded.shard(k))).collect();
        assert_eq!(
            shards,
            [
                (412, 0x893b_34b1_bd9a_e748),
                (524, 0x04cd_d580_35bd_049a),
                (44, 0x868b_019c_7fb5_d927)
            ]
        );
    }

    #[test]
    fn every_corrupt_byte_is_rejected_or_harmless() {
        let kb = toy_kb();
        let index = EdgeIndex::build(&kb);
        let bytes = encode_index(&index);
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0xFF;
            // A flipped byte must be *detected* — the checksum covers
            // every payload byte and the payload checksums the trailer.
            assert!(decode_index(&evil).is_err(), "byte {i} flipped but decode succeeded");
        }
    }

    #[test]
    fn truncations_are_rejected() {
        let kb = toy_kb();
        let bytes = encode_index(&EdgeIndex::build(&kb));
        for len in 0..bytes.len() {
            assert!(decode_index(&bytes[..len]).is_err(), "truncation at {len} accepted");
        }
    }

    #[test]
    fn sharded_layout_round_trips() {
        let kb = toy_kb();
        let dir = std::env::temp_dir().join(format!(
            "rex-persist-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sharded = ShardedEdgeIndex::build(&kb, ShardSpec::new(3, 7));
        let bytes = save_sharded(&sharded, &dir).expect("save");
        assert!(bytes > 0);
        let loaded = load_sharded(&dir).expect("load");
        assert_eq!(loaded.spec(), sharded.spec());
        assert_eq!(loaded.shard_count(), 3);
        assert_eq!(loaded.epoch(), sharded.epoch());
        for k in 0..3 {
            assert_eq!(loaded.shard(k).total_rows(), sharded.shard(k).total_rows());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_shard_layout_shares_base() {
        let kb = toy_kb();
        let dir = std::env::temp_dir().join(format!(
            "rex-persist-single-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sharded = ShardedEdgeIndex::build(&kb, ShardSpec::single());
        save_sharded(&sharded, &dir).expect("save");
        // No shard files for the degenerate layout.
        assert!(!dir.join(shard_name(0)).exists());
        let loaded = load_sharded(&dir).expect("load");
        assert_eq!(loaded.shard_count(), 1);
        assert!(Arc::ptr_eq(loaded.base(), loaded.shard(0)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
