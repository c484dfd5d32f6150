//! On-disk index snapshots — mmap-ready serialization of an
//! [`EdgeIndex`]'s partitions.
//!
//! A snapshot stores, per `(label, dir)` partition, its row count and its
//! two [`ColumnPosting`] CSR triples (`keys`, `offsets`, `others`)
//! **as-is** — the partition's whole storage, with no row array beside
//! them: loading validates the arrays (strictly increasing keys and
//! offsets, lists spanning exactly the partition's rows, trailing
//! checksum), each list's order and that one posting is the transpose of
//! the other, then adopts them without re-bucketing or re-sorting. That
//! saves little: [`EdgeIndex::build`] reads every list straight off the
//! KB's sorted adjacency, and on generated KBs (seed 2011, a 2-vCPU AMD
//! EPYC) a load took 0.088, 1.05 and 5.50 ms at `tiny`, `small` and
//! `bench` scale against a build's 0.095, 1.19 and 6.48 ms.
//!
//! Format version 4 stores, for each posting key, the other endpoint's
//! id of every row carrying it (`u32`, ascending, a parallel edge
//! repeated once per row): `by_src` lists each `from` key's `to` ids,
//! `by_dst` each `to` key's `from` ids. These are the adjacency lists the
//! depth-first executor intersects. The loader checks that every list is
//! ascending and that `by_dst` is the transpose of `by_src` (an
//! order-independent 64-bit fingerprint of the `(from, to)` pairs each
//! lists must agree), and rejects an out-of-order list, a `by_dst` that
//! disagrees, or a snapshot of an older version (1 and 2 hold row-index
//! postings, 3 a row array beside the lists) with [`RelError::Corrupt`].
//! The layout is plain little-endian arrays at fixed offsets, so a future
//! reader can map the file and point into it directly (hence
//! *mmap-ready*); this implementation copies into owned `Vec`s, which
//! keeps the index type unchanged.
//!
//! Writes go through [`rex_kb::io::atomic_write`] (temp + fsync +
//! rename), so a torn write leaves the previous snapshot intact; any
//! in-place corruption is caught by the word-wise FNV-1a checksum or the structural
//! validation and rejected wholesale with [`RelError::Corrupt`] — callers
//! fall back to a rebuild, never to a half-loaded index.
//!
//! A snapshot directory (`rex rank --index-dir`) holds the one file
//! [`BASE_NAME`]. A directory an older release wrote may also hold a
//! `MANIFEST` and `shard-<k>.idx` files; nothing here reads them. No
//! older reader can pair them with a newer `base.idx`: the last release
//! to write a manifest checks its epoch against the base, and releases
//! that read shard files predate format version 4 and reject this one.

use std::path::Path;
use std::sync::Arc;

use crate::engine::{EdgeIndex, PartitionPosting};
use crate::relation::ColumnPosting;
use crate::{RelError, Result};

/// `b"RXIX"` little-endian — REX IndeX snapshot.
const MAGIC: u32 = 0x5849_5852;
const VERSION: u32 = 4;

/// File name of the index snapshot inside a snapshot directory.
pub const BASE_NAME: &str = "base.idx";

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
        let bytes = &self.buf[self.pos..self.pos + count * 8];
        self.pos += count * 8;
        Ok(bytes.chunks_exact(8).map(|b| u64::from_le_bytes(b.try_into().unwrap())).collect())
    }

    fn get_u32s(&mut self, count: usize, what: &str) -> Result<Vec<u32>> {
        self.need(count.saturating_mul(4), what)?;
        let bytes = &self.buf[self.pos..self.pos + count * 4];
        self.pos += count * 4;
        Ok(bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())).collect())
    }
}

/// FNV-1a over the payload's little-endian 64-bit words (the last one
/// zero-padded), then its length — cheap, dependency-free whole-file
/// integrity at one multiply per eight bytes. Each step is a bijection of
/// the running hash, so a change to any one word always changes the
/// result.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = (h ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(PRIME)
}

fn put_posting(out: &mut Vec<u8>, posting: &ColumnPosting) {
    let (keys, offsets, others) = posting.parts();
    put_u32(out, keys.len() as u32);
    for &k in keys {
        put_u64(out, k);
    }
    for &o in offsets {
        put_u32(out, o);
    }
    for &o in others {
        put_u32(out, o);
    }
}

/// Reads one posting listing `rows` pairs.
fn get_posting(r: &mut Reader<'_>, rows: usize) -> Result<ColumnPosting> {
    let keys_len = r.get_u32("posting key count")? as usize;
    let keys = r.get_u64s(keys_len, "posting keys")?;
    let offsets = r.get_u32s(keys_len + 1, "posting offsets")?;
    let others = r.get_u32s(rows, "posting lists")?;
    ColumnPosting::from_parts(keys, offsets, others)
}

/// Serializes an index into the v4 snapshot byte format (checksummed,
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
    for ((label, dir), posting) in partitions {
        let (by_src, by_dst) = posting.parts();
        put_u64(&mut out, label);
        put_u64(&mut out, dir);
        put_u32(&mut out, by_src.len() as u32);
        put_posting(&mut out, by_src);
        put_posting(&mut out, by_dst);
    }
    let checksum = fnv1a(&out);
    put_u64(&mut out, checksum);
    out
}

/// Deserializes a v4 snapshot, validating magic, version, checksum, and
/// every structural invariant (partition row totals, CSR monotonicity,
/// list order, `by_dst` the transpose of `by_src`) before any part is
/// adopted.
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

    let mut partitions = std::collections::HashMap::new();
    let mut rows_seen = 0usize;
    for _ in 0..partition_count {
        let label = r.get_u64("partition label")?;
        let dir = r.get_u64("partition dir")?;
        let rows = r.get_u32("partition row count")? as usize;
        rows_seen += rows;
        let by_src = get_posting(&mut r, rows)?;
        let by_dst = get_posting(&mut r, rows)?;
        let posting = PartitionPosting::from_parts(by_src, by_dst).ok_or_else(|| {
            RelError::Corrupt(format!(
                "partition ({label}, {dir}): by_dst is not the transpose of by_src"
            ))
        })?;
        if partitions.insert((label, dir), Arc::new(posting)).is_some() {
            return Err(RelError::Corrupt(format!("duplicate partition ({label}, {dir})")));
        }
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
    Ok(EdgeIndex::from_parts(partitions, total_rows, node_count, epoch))
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
        // Same partitions, same postings.
        assert_eq!(index.partitions(), loaded.partitions());
    }

    /// Encoding a decoded snapshot reproduces it byte for byte.
    #[test]
    fn save_load_save_is_byte_identical() {
        let bytes = encode_index(&EdgeIndex::build(&toy_kb()));
        assert_eq!(encode_index(&decode_index(&bytes).expect("decode")), bytes);
    }

    /// The v4 byte format, pinned: the toy index's snapshot length and
    /// FNV-1a fingerprint. A change here is an on-disk format change and
    /// needs a version bump.
    #[test]
    fn snapshot_bytes_are_pinned() {
        let bytes = encode_index(&EdgeIndex::build(&toy_kb()));
        assert_eq!((bytes.len(), fnv1a(&bytes)), (340, 0x62a8_8f9b_1614_5cb9));
    }

    /// Replaces a snapshot's checksum trailer with its payload's, so a
    /// test edit reaches the structural checks.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        let at = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..at]);
        bytes[at..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Under a valid checksum, a `by_src` list whose two ids are swapped
    /// out of order is rejected — the executor's intersections would
    /// otherwise miss entries — and so is a list naming an id `by_dst`
    /// does not, and a snapshot of versions 1–3 (row-index postings, or a
    /// row array beside the lists).
    #[test]
    fn out_of_order_posting_and_v1_snapshot_are_rejected() {
        let bytes = encode_index(&EdgeIndex::build(&toy_kb()));
        assert!(decode_index(&resealed(bytes.clone())).is_ok());

        // The first partition is `starring`: its first `by_src` key, `a`
        // (id 0), lists `m1` (id 3), then `m2` (id 4).
        let mut r = Reader::new(&bytes);
        r.pos = 32 + 4 + 16 + 4; // header, partition count, (label, dir), rows
        let keys = r.get_u32("keys").unwrap() as usize;
        let lists = r.pos + keys * 8 + (keys + 1) * 4;
        assert_eq!(bytes[lists..lists + 8], [3, 0, 0, 0, 4, 0, 0, 0]);
        let mut swapped = bytes.clone();
        swapped[lists..lists + 8].rotate_left(4);
        match decode_index(&resealed(swapped)) {
            Err(RelError::Corrupt(msg)) => assert!(msg.contains("out of order"), "{msg}"),
            other => panic!("swapped list entries accepted: {other:?}"),
        }
        // `a → c` instead of `a → m1`: still ascending, but `by_dst` lists
        // no such pair.
        let mut foreign = bytes.clone();
        foreign[lists] = 2;
        match decode_index(&resealed(foreign)) {
            Err(RelError::Corrupt(msg)) => assert!(msg.contains("transpose"), "{msg}"),
            other => panic!("a list naming a foreign id accepted: {other:?}"),
        }

        for old in [1u32, 2, 3] {
            let mut v = bytes.clone();
            v[4..8].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(decode_index(&resealed(v)), Err(RelError::Corrupt(_))), "v{old}");
        }
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

    /// A snapshot directory an older release wrote — a `MANIFEST` and a
    /// `shard-0.idx` beside `base.idx` — still loads, and saving over it
    /// round-trips: only `base.idx` is read or written.
    #[test]
    fn sharded_layout_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "rex-persist-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join(BASE_NAME);
        let index = EdgeIndex::build(&toy_kb());
        save_index(&index, &base).expect("save");
        std::fs::write(dir.join("MANIFEST"), b"an older release's shard manifest").unwrap();
        std::fs::write(dir.join("shard-0.idx"), b"an older release's shard rows").unwrap();
        let loaded = load_index(&base).expect("base.idx loads beside the older files");
        assert_eq!(encode_index(&loaded), encode_index(&index));
        save_index(&loaded, &base).expect("re-save");
        assert_eq!(encode_index(&load_index(&base).expect("reload")), encode_index(&index));
        std::fs::remove_dir_all(&dir).ok();
    }
}
