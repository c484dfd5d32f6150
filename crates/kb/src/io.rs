//! Serialization: TSV interchange and a compact binary snapshot.
//!
//! The TSV format mirrors how DBpedia extractions are usually shipped and is
//! the intended path for loading a *real* knowledge base into REX:
//!
//! ```text
//! # nodes section: one line per entity
//! N<TAB>name<TAB>type
//! # edges section: one line per relationship; dir is "d" or "u"
//! E<TAB>src_name<TAB>dst_name<TAB>label<TAB>dir
//! ```
//!
//! [`read_tsv`] reads each line into one reused byte buffer and checks it
//! for UTF-8 on its own, trims trailing whitespace (so CRLF files read like
//! LF ones), and skips blank and `#` lines, which still count toward the
//! line numbers its errors name. A node line without a type gets `Entity`;
//! a repeated node line keeps the first line's id and type. An edge
//! endpoint costs one names-interner lookup, since a node's id is its
//! name's interned id.
//!
//! The binary snapshot is a straightforward length-prefixed encoding used to
//! cache generated benchmark KBs between runs; it is not a stability
//! guarantee (a magic/version header guards against skew). Its names table
//! lists exactly one name per node, in node order: [`decode_binary`]
//! rejects a node record whose name id is not its own index and a names
//! table longer than the node list.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::graph::{build_adjacency, EdgeRecord, KnowledgeBase, NodeRecord};
use crate::ids::{LabelId, NodeId, TypeId};
use crate::interner::Interner;
use crate::{KbBuilder, KbError, Result};

const MAGIC: u32 = 0x5245_584B; // "REXK"
const VERSION: u32 = 1;

/// Writes the knowledge base in TSV interchange form.
pub fn write_tsv<W: Write>(kb: &KnowledgeBase, out: &mut W) -> std::io::Result<()> {
    for id in kb.node_ids() {
        writeln!(out, "N\t{}\t{}", kb.node_name(id), kb.node_type_name(id))?;
    }
    for eid in kb.edge_ids() {
        let e = kb.edge(eid);
        writeln!(
            out,
            "E\t{}\t{}\t{}\t{}",
            kb.node_name(e.src),
            kb.node_name(e.dst),
            kb.label_name(e.label),
            if e.directed { "d" } else { "u" }
        )?;
    }
    Ok(())
}

/// Reads a knowledge base from TSV interchange form. Blank lines and lines
/// starting with `#` are ignored. Node lines must precede the edges that
/// reference them. A line that is not UTF-8 fails with the error
/// `BufRead::lines` reports, and trailing whitespace (a CRLF's `\r`
/// included) is trimmed.
pub fn read_tsv<R: BufRead>(mut input: R) -> Result<KnowledgeBase> {
    let mut builder = KbBuilder::new();
    let mut buf = Vec::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let read = input
            .read_until(b'\n', &mut buf)
            .map_err(|e| KbError::Parse(format!("I/O error: {e}")))?;
        if read == 0 {
            break;
        }
        lineno += 1;
        let line = std::str::from_utf8(&buf)
            .map_err(|_| KbError::Parse("I/O error: stream did not contain valid UTF-8".into()))?;
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('\t');
        let tag = fields.next().unwrap_or("");
        match tag {
            "N" => {
                let name = fields
                    .next()
                    .ok_or_else(|| KbError::Parse(format!("line {lineno}: missing node name")))?;
                let ty = fields.next().unwrap_or("Entity");
                builder.add_node(name, ty);
            }
            "E" => {
                let src = fields
                    .next()
                    .ok_or_else(|| KbError::Parse(format!("line {lineno}: missing src")))?;
                let dst = fields
                    .next()
                    .ok_or_else(|| KbError::Parse(format!("line {lineno}: missing dst")))?;
                let label = fields
                    .next()
                    .ok_or_else(|| KbError::Parse(format!("line {lineno}: missing label")))?;
                let dir = fields.next().unwrap_or("d");
                let src = builder
                    .node_by_name(src)
                    .ok_or_else(|| KbError::NameNotFound(src.to_string()))?;
                let dst = builder
                    .node_by_name(dst)
                    .ok_or_else(|| KbError::NameNotFound(dst.to_string()))?;
                match dir {
                    "d" => builder.add_directed_edge(src, dst, label),
                    "u" => builder.add_undirected_edge(src, dst, label),
                    other => {
                        return Err(KbError::Parse(format!(
                            "line {lineno}: bad direction flag {other:?} (want \"d\" or \"u\")"
                        )))
                    }
                }
            }
            other => {
                return Err(KbError::Parse(format!("line {lineno}: unknown record tag {other:?}")))
            }
        }
    }
    Ok(builder.build())
}

/// Writes `bytes` to `path` atomically: the content lands in a unique
/// temp file in the same directory, is fsync'd, and is renamed into
/// place. A crash at any point leaves either the old file or the new one
/// — never a torn mix. The temp file is cleaned up on failure
/// (best-effort).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SUFFIX: AtomicU64 = AtomicU64::new(0);
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("out");
    let tmp = parent.join(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        SUFFIX.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut Bytes) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(KbError::Parse("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(KbError::Parse("truncated string body".into()));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| KbError::Parse("invalid utf-8".into()))
}

fn put_interner(buf: &mut BytesMut, i: &Interner) {
    buf.put_u32_le(i.len() as u32);
    for (_, s) in i.iter() {
        put_str(buf, s);
    }
}

fn get_interner(buf: &mut Bytes) -> Result<Interner> {
    if buf.remaining() < 4 {
        return Err(KbError::Parse("truncated interner".into()));
    }
    let n = buf.get_u32_le() as usize;
    // Each entry needs at least its 4-byte length prefix; a corrupted
    // count larger than the remaining bytes is rejected before any work.
    if (buf.remaining() as u64) < (n as u64).saturating_mul(4) {
        return Err(KbError::Parse("interner count exceeds input".into()));
    }
    let mut i = Interner::new();
    for _ in 0..n {
        let s = get_str(buf)?;
        i.intern(&s);
    }
    Ok(i)
}

/// Encodes the knowledge base as a compact binary snapshot.
pub fn encode_binary(kb: &KnowledgeBase) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + kb.node_count() * 8 + kb.edge_count() * 16);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    put_interner(&mut buf, &kb.names);
    put_interner(&mut buf, &kb.types);
    put_interner(&mut buf, &kb.labels);
    buf.put_u32_le(kb.node_count() as u32);
    for n in &kb.nodes {
        buf.put_u32_le(n.name);
        buf.put_u32_le(n.ty.0);
    }
    buf.put_u32_le(kb.edge_count() as u32);
    for e in &kb.edges {
        buf.put_u32_le(e.src.0);
        buf.put_u32_le(e.dst.0);
        buf.put_u32_le(e.label.0);
        buf.put_u8(u8::from(e.directed));
    }
    buf.freeze()
}

/// Decodes a binary snapshot produced by [`encode_binary`].
pub fn decode_binary(mut buf: Bytes) -> Result<KnowledgeBase> {
    if buf.remaining() < 8 {
        return Err(KbError::Parse("truncated header".into()));
    }
    let magic = buf.get_u32_le();
    let version = buf.get_u32_le();
    if magic != MAGIC {
        return Err(KbError::Parse("bad magic".into()));
    }
    if version != VERSION {
        return Err(KbError::Parse(format!("unsupported version {version}")));
    }
    let names = get_interner(&mut buf)?;
    let types = get_interner(&mut buf)?;
    let labels = get_interner(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(KbError::Parse("truncated node count".into()));
    }
    let node_count = buf.get_u32_le() as usize;
    // Guard the allocation: a corrupted count must not reserve gigabytes
    // before the per-record truncation checks get a chance to fire.
    if (buf.remaining() as u64) < (node_count as u64).saturating_mul(8) {
        return Err(KbError::Parse("node count exceeds input".into()));
    }
    // A node's id is its name's id: every name belongs to exactly one
    // node, the one at the name's own index.
    if names.len() > node_count {
        return Err(KbError::Parse("more names than nodes".into()));
    }
    let mut nodes = Vec::with_capacity(node_count);
    for i in 0..node_count {
        if buf.remaining() < 8 {
            return Err(KbError::Parse("truncated node record".into()));
        }
        let name = buf.get_u32_le();
        let ty = TypeId(buf.get_u32_le());
        if ty.index() >= types.len() || (name as usize) >= names.len() {
            return Err(KbError::Parse("node record out of range".into()));
        }
        if name as usize != i {
            return Err(KbError::Parse(format!("node {i} carries name id {name}")));
        }
        nodes.push(NodeRecord { name, ty });
    }
    if buf.remaining() < 4 {
        return Err(KbError::Parse("truncated edge count".into()));
    }
    let edge_count = buf.get_u32_le() as usize;
    if (buf.remaining() as u64) < (edge_count as u64).saturating_mul(13) {
        return Err(KbError::Parse("edge count exceeds input".into()));
    }
    let mut edges = Vec::with_capacity(edge_count);
    for _ in 0..edge_count {
        if buf.remaining() < 13 {
            return Err(KbError::Parse("truncated edge record".into()));
        }
        let src = NodeId(buf.get_u32_le());
        let dst = NodeId(buf.get_u32_le());
        let label = LabelId(buf.get_u32_le());
        let directed = buf.get_u8() != 0;
        if src.index() >= node_count || dst.index() >= node_count {
            return Err(KbError::UnknownNode(src.0.max(dst.0)));
        }
        if label.index() >= labels.len() {
            return Err(KbError::Parse("edge label out of range".into()));
        }
        edges.push(EdgeRecord { src, dst, label, directed });
    }
    let (adj_offsets, adj) = build_adjacency(node_count, &edges);
    Ok(KnowledgeBase {
        nodes,
        edges,
        names,
        types,
        labels,
        adj_offsets,
        adj,
        epoch: 0,
        log: Vec::new(),
        compacted_through: 0,
        log_retention: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeId;
    use crate::toy;

    #[test]
    fn tsv_round_trip() {
        let kb = toy::entertainment();
        let mut out = Vec::new();
        write_tsv(&kb, &mut out).unwrap();
        let back = read_tsv(std::io::Cursor::new(out)).unwrap();
        assert_eq!(back.node_count(), kb.node_count());
        assert_eq!(back.edge_count(), kb.edge_count());
        assert_eq!(back.label_count(), kb.label_count());
        // Same adjacency for a spot-checked node.
        let bp = kb.require_node("brad_pitt").unwrap();
        let bp2 = back.require_node("brad_pitt").unwrap();
        assert_eq!(kb.degree(bp), back.degree(bp2));
    }

    #[test]
    fn tsv_rejects_unknown_tag() {
        let err = read_tsv(std::io::Cursor::new("X\tfoo\n")).unwrap_err();
        assert!(matches!(err, KbError::Parse(_)));
    }

    #[test]
    fn tsv_rejects_edge_before_node() {
        let err = read_tsv(std::io::Cursor::new("E\ta\tb\tr\td\n")).unwrap_err();
        assert!(matches!(err, KbError::NameNotFound(_)));
    }

    #[test]
    fn tsv_rejects_bad_direction() {
        let src = "N\ta\tT\nN\tb\tT\nE\ta\tb\tr\tx\n";
        let err = read_tsv(std::io::Cursor::new(src)).unwrap_err();
        assert!(matches!(err, KbError::Parse(_)));
    }

    #[test]
    fn tsv_skips_comments_and_blanks() {
        let src = "# comment\n\nN\ta\tT\n";
        let kb = read_tsv(std::io::Cursor::new(src)).unwrap();
        assert_eq!(kb.node_count(), 1);
    }

    fn tsv_error(src: &[u8]) -> KbError {
        read_tsv(std::io::Cursor::new(src)).unwrap_err()
    }

    /// CRLF endings and a last line without `\n` read like LF lines.
    #[test]
    fn tsv_reads_crlf_and_an_unterminated_last_line() {
        let kb = read_tsv(std::io::Cursor::new("N\ta\tT\r\nN\tb\tU\r\nE\ta\tb\tr\td\r\n")).unwrap();
        let (a, b) = (kb.require_node("a").unwrap(), kb.require_node("b").unwrap());
        assert_eq!(kb.node_type_name(a), "T");
        assert_eq!(kb.node_type_name(b), "U");
        assert_eq!(kb.label_name(kb.edge(EdgeId(0)).label), "r");
        assert!(kb.edge(EdgeId(0)).directed);
        let kb = read_tsv(std::io::Cursor::new("N\ta\tT\nN\tb\tT\nE\tb\ta\ts\tu")).unwrap();
        assert_eq!(kb.edge_count(), 1);
        let e = kb.edge(EdgeId(0));
        assert_eq!((kb.node_name(e.src), kb.node_name(e.dst)), ("b", "a"));
        assert!(!e.directed);
        let kb = read_tsv(std::io::Cursor::new("N\tlast\tT")).unwrap();
        assert_eq!(kb.node_type_name(kb.require_node("last").unwrap()), "T");
    }

    /// A line that is not UTF-8 fails the read with the I/O error
    /// `BufRead::lines` reports, after any number of valid lines.
    #[test]
    fn tsv_rejects_invalid_utf8() {
        let err = tsv_error(b"N\ta\tT\nN\tb\tT\nE\ta\tb\t\xff\xfe\td\nN\tc\tT\n");
        assert_eq!(err, KbError::Parse("I/O error: stream did not contain valid UTF-8".into()));
        let err = tsv_error(b"N\t\xc3\n");
        assert_eq!(err, KbError::Parse("I/O error: stream did not contain valid UTF-8".into()));
    }

    /// Error line numbers count every line, blank and comment lines too.
    #[test]
    fn tsv_error_lines_count_blank_and_comment_lines() {
        let cases: [(&[u8], &str); 6] = [
            (b"# c\n\nN\ta\tT\n\nX\tfoo\n", "line 5: unknown record tag \"X\""),
            (b"#\r\n\r\nN\n", "line 3: missing node name"),
            (b"\n\n\nE\n", "line 4: missing src"),
            (b"#\nE\ta\n", "line 2: missing dst"),
            (b"E\ta\tb\n", "line 1: missing label"),
            (
                b"N\ta\tT\nN\tb\tT\n# e\n\nE\ta\tb\tr\tx\n",
                "line 5: bad direction flag \"x\" (want \"d\" or \"u\")",
            ),
        ];
        for (src, message) in cases {
            assert_eq!(tsv_error(src), KbError::Parse(message.into()));
        }
        assert_eq!(tsv_error(b"N\ta\tT\nE\ta\tb\tr\n"), KbError::NameNotFound("b".into()));
    }

    /// An `N` line without a type (trailing whitespace trimmed) gets
    /// `Entity`; an `E` line without a direction is directed.
    #[test]
    fn tsv_defaults_type_and_direction() {
        let kb = read_tsv(std::io::Cursor::new("N\ta\nN\tb\t \t\nE\ta\tb\tr\n")).unwrap();
        for name in ["a", "b"] {
            assert_eq!(kb.node_type_name(kb.require_node(name).unwrap()), "Entity");
        }
        assert_eq!(kb.type_count(), 1);
        assert!(kb.edge(EdgeId(0)).directed);
    }

    /// A repeated `N` line keeps the first line's id and type and interns
    /// nothing new.
    #[test]
    fn tsv_repeated_node_keeps_first_id_and_type() {
        let kb =
            read_tsv(std::io::Cursor::new("N\ta\tT\nN\tb\tU\nN\ta\tV\nE\ta\tb\tr\td\n")).unwrap();
        assert_eq!(kb.node_count(), 2);
        let a = kb.require_node("a").unwrap();
        assert_eq!(a, NodeId(0));
        assert_eq!(kb.node_type_name(a), "T");
        assert_eq!(kb.type_by_name("V"), None);
        assert_eq!(kb.edge(EdgeId(0)).src, a);
    }

    #[test]
    fn binary_round_trip() {
        let kb = toy::entertainment();
        let bytes = encode_binary(&kb);
        let back = decode_binary(bytes).unwrap();
        assert_eq!(back.node_count(), kb.node_count());
        assert_eq!(back.edge_count(), kb.edge_count());
        for id in kb.node_ids() {
            assert_eq!(kb.node_name(id), back.node_name(id));
            assert_eq!(kb.degree(id), back.degree(id));
        }
        for eid in kb.edge_ids() {
            assert_eq!(kb.edge(eid), back.edge(eid));
        }
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xdead_beef);
        buf.put_u32_le(1);
        assert!(decode_binary(buf.freeze()).is_err());
    }

    /// A node's id is its name's id: a node record naming another node's
    /// name, names swapped between records, or a names table longer than
    /// the node list is rejected (each would let `node_by_name` and
    /// `node_name` disagree).
    #[test]
    fn binary_rejects_node_records_that_repeat_or_skip_names() {
        let mut b = KbBuilder::new();
        b.add_node("a", "T");
        b.add_node("b", "T");
        let bytes = encode_binary(&b.build()).to_vec();
        // No edges: the two 8-byte node records sit between the 4-byte
        // node count and the 4-byte edge count that ends the snapshot.
        let records = bytes.len() - 4 - 16;
        let name_at = |record: usize| records + 8 * record..records + 8 * record + 4;
        let mut repeat = bytes.clone();
        repeat[name_at(1)].copy_from_slice(&0u32.to_le_bytes());
        let mut swap = bytes.clone();
        swap[name_at(0)].copy_from_slice(&1u32.to_le_bytes());
        swap[name_at(1)].copy_from_slice(&0u32.to_le_bytes());
        let mut skip = bytes[..records + 8].to_vec();
        skip[records - 4..records].copy_from_slice(&1u32.to_le_bytes());
        skip.extend_from_slice(&0u32.to_le_bytes());
        for patched in [repeat, swap, skip] {
            assert!(matches!(decode_binary(patched.into()), Err(KbError::Parse(_))));
        }
    }

    #[test]
    fn binary_rejects_truncation() {
        let kb = toy::entertainment();
        let bytes = encode_binary(&kb);
        let truncated = bytes.slice(0..bytes.len() / 2);
        assert!(decode_binary(truncated).is_err());
    }
}
