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
//! [`read_tsv`] loads a file in blocks on every worker of the current
//! rayon width, and builds what a line-at-a-time read would: the same KB,
//! and on a bad file the error of its first bad line (the tests keep that
//! reader as their reference). It trims trailing whitespace (so CRLF
//! files read like LF ones), and skips blank and `#` lines, which still
//! count toward the line numbers its errors name. A node line without a
//! type gets `Entity`; a repeated node line keeps the first line's id and
//! type. An edge endpoint costs one names-interner lookup, since a node's
//! id is its name's interned id.
//!
//! The binary snapshot is a straightforward length-prefixed encoding used to
//! cache generated benchmark KBs between runs; it is not a stability
//! guarantee (a magic/version header guards against skew). Its names table
//! lists exactly one name per node, in node order, and each node record
//! repeats its own index as its name id: [`decode_binary`] rejects a node
//! record whose name id is not its own index and a names table longer
//! than the node list.
//!
//! Both readers, like every other path that interns a label, refuse a KB
//! of more than [`LABEL_LIMIT`] labels with [`KbError::LabelLimit`]
//! naming the first label past the limit.

use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rayon::prelude::*;

use crate::graph::{intern_label_within, KnowledgeBase, NodeRecord, StoredEdge};
use crate::ids::{LabelId, NodeId, TypeId, LABEL_LIMIT};
use crate::interner::Interner;
use crate::{KbError, Result};

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

/// Bytes [`read_tsv`] reads per block.
const BLOCK_BYTES: usize = 8 << 20;

/// Reads a knowledge base from TSV interchange form. Blank lines and lines
/// starting with `#` are ignored. Node lines must precede the edges that
/// reference them. A line that is not UTF-8 fails with the error
/// `BufRead::lines` reports, and trailing whitespace (a CRLF's `\r`
/// included) is trimmed.
///
/// The input is read in blocks of a fixed size into one reused buffer;
/// each block ends at its last line end, and a line longer than a block
/// extends the block. Each block is cut at line ends into one chunk per
/// worker of the current rayon width (the installed pool's, otherwise
/// the machine's) and loaded in four steps:
///
/// 1. *In parallel*, each chunk checks its UTF-8 and each line's tag and
///    node fields, and lists its node lines and edge lines by byte range.
/// 2. *In order*, the block's node lines are interned: a new name makes a
///    node, and the line that defined it is recorded. A repeated `N` line
///    keeps the first line's id and type.
/// 3. *In parallel*, each chunk parses its edge lines and resolves their
///    endpoints by read-only lookups in the names interner: an endpoint
///    defined by a later line of the block is not found, as it would not
///    be when reading line by line. A label the KB already holds keeps
///    its id; each chunk numbers the others in a first-use table of its
///    own, and a line whose number would reach [`LABEL_LIMIT`] is bad.
///    Each chunk writes its edges into its own stretch of the KB's edge
///    table.
/// 4. *In order*, the chunks' label tables are merged, so label ids
///    follow the labels' first use in the file, and the edges of a chunk
///    whose numbers differ from the merged ones are renumbered. A merge
///    that would pass [`LABEL_LIMIT`] refuses the first label past it,
///    as a line-at-a-time read does.
///
/// The error returned is the one on the first bad line, with the same
/// [`KbError`] and message as a line-at-a-time read, and the reader
/// stops after the block that holds it. An I/O error part way through is
/// returned when no complete line before it fails. Every width builds
/// the same KB, with the node and edge tables and the interners' string
/// tables sized to their lengths.
///
/// Beside the KB, the reader holds the block buffer (a block, plus the
/// line that crosses its end) and each chunk's lists of node and edge
/// lines: transient memory grows with the block size, not the file's.
pub fn read_tsv<R: BufRead>(input: R) -> Result<KnowledgeBase> {
    read_tsv_in_blocks(input, BLOCK_BYTES, LABEL_LIMIT)
}

/// [`read_tsv`] with blocks of `block_bytes` bytes, taking at most
/// `label_limit` labels: tests move the block edges and the label limit
/// with it.
pub(crate) fn read_tsv_in_blocks<R: Read>(
    mut input: R,
    block_bytes: usize,
    label_limit: u32,
) -> Result<KnowledgeBase> {
    assert!(block_bytes > 0, "a block holds at least one byte");
    let mut loader = Loader::new(rayon::current_num_threads(), label_limit);
    let mut buf = Vec::new();
    loop {
        let filled = fill_block(&mut input, &mut buf, block_bytes);
        let cut = match filled {
            Fill::End => buf.len(),
            Fill::Block | Fill::Failed(_) => {
                buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
            }
        };
        if cut > 0 {
            loader.load(&buf[..cut])?;
        }
        match filled {
            Fill::Block => drop(buf.drain(..cut)),
            Fill::End => {
                let Loader { nodes, edges, names, types, labels, .. } = loader;
                return Ok(KnowledgeBase::assemble(nodes, edges, names, types, labels));
            }
            Fill::Failed(e) => return Err(KbError::Parse(format!("I/O error: {e}"))),
        }
    }
}

/// How [`fill_block`] ended.
enum Fill {
    /// The buffer holds a line end among the bytes just read.
    Block,
    /// The input ended.
    End,
    /// Reading failed; the buffer holds the bytes read before.
    Failed(std::io::Error),
}

/// Appends the next block to `buf`, after the unfinished line carried
/// from the last block: `block_bytes` bytes, and more blocks' worth while
/// no line ends among them.
fn fill_block<R: Read>(input: &mut R, buf: &mut Vec<u8>, block_bytes: usize) -> Fill {
    loop {
        let start = buf.len();
        buf.reserve(block_bytes);
        match input.by_ref().take(block_bytes as u64).read_to_end(buf) {
            Ok(0) => return Fill::End,
            Ok(_) if buf[start..].contains(&b'\n') => return Fill::Block,
            Ok(_) => {}
            Err(e) => return Fill::Failed(e),
        }
    }
}

/// The state of a [`read_tsv`] between blocks: the KB's tables so far,
/// with a node's id its name's id as in [`crate::KbBuilder`].
struct Loader {
    nodes: Vec<NodeRecord>,
    edges: Vec<StoredEdge>,
    names: Interner,
    types: Interner,
    labels: Interner,
    /// The most labels the KB takes ([`LABEL_LIMIT`] outside tests).
    label_limit: u32,
    /// One per worker; kept across blocks so their buffers are reused.
    chunks: Vec<Chunk>,
    /// The block offset of the line that defined each node new in this
    /// block, indexed by node id minus the block's first new id.
    defined_at: Vec<usize>,
    /// Line number of the block's first line.
    first_line: usize,
}

/// A byte range of a chunk.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
}

impl Span {
    /// The span of `part`, a slice of `text`.
    fn of(text: &str, part: &str) -> Span {
        let start = part.as_ptr() as usize - text.as_ptr() as usize;
        Span { start, end: start + part.len() }
    }

    fn get(self, text: &str) -> &str {
        &text[self.start..self.end]
    }
}

/// An `N` line: its offset in the chunk, its fields, and the names
/// interner's hash of its name.
struct NodeLine {
    at: usize,
    hash: u64,
    name: Span,
    ty: Option<Span>,
}

/// What is wrong with a line, before its line number is known.
#[derive(Debug)]
enum Fault {
    Utf8,
    UnknownTag(String),
    MissingNodeName,
    MissingSrc,
    MissingDst,
    MissingLabel,
    NameNotFound(String),
    BadDirection(String),
    LabelLimit(String),
}

impl Fault {
    fn at_line(self, line: usize) -> KbError {
        let message = match self {
            Fault::Utf8 => {
                return KbError::Parse("I/O error: stream did not contain valid UTF-8".into())
            }
            Fault::NameNotFound(name) => return KbError::NameNotFound(name),
            Fault::LabelLimit(label) => return KbError::LabelLimit(label),
            Fault::UnknownTag(tag) => format!("unknown record tag {tag:?}"),
            Fault::MissingNodeName => "missing node name".into(),
            Fault::MissingSrc => "missing src".into(),
            Fault::MissingDst => "missing dst".into(),
            Fault::MissingLabel => "missing label".into(),
            Fault::BadDirection(flag) => {
                format!("bad direction flag {flag:?} (want \"d\" or \"u\")")
            }
        };
        KbError::Parse(format!("line {line}: {message}"))
    }
}

/// One worker's share of a block.
#[derive(Default)]
struct Chunk {
    /// The chunk's bytes in the block.
    start: usize,
    end: usize,
    /// Lines in the chunk (up to its first bad line).
    lines: usize,
    nodes: Vec<NodeLine>,
    edge_lines: Vec<Span>,
    /// The chunk's first bad line, by chunk offset: step 1's, then step
    /// 3's (which lies before it).
    fault: Option<(usize, Fault)>,
}

/// The nodes that the current block defines, for endpoint lookups.
struct NewNodes<'a> {
    first: u32,
    defined_at: &'a [usize],
}

impl NewNodes<'_> {
    /// The node named `name`, as the line at block offset `at` sees it.
    fn lookup(&self, names: &Interner, name: &str, at: usize) -> Option<NodeId> {
        let id = names.get(name)?;
        // Past the block's last node line every node is defined.
        if self.defined_at.last().is_some_and(|&last| last > at) {
            match id.checked_sub(self.first) {
                Some(new) if self.defined_at[new as usize] > at => return None,
                _ => {}
            }
        }
        Some(NodeId(id))
    }
}

impl Loader {
    fn new(width: usize, label_limit: u32) -> Loader {
        Loader {
            nodes: Vec::new(),
            edges: Vec::new(),
            names: Interner::new(),
            types: Interner::new(),
            labels: Interner::new(),
            label_limit,
            chunks: (0..width.max(1)).map(|_| Chunk::default()).collect(),
            defined_at: Vec::new(),
            first_line: 1,
        }
    }

    /// Loads one block of whole lines (the input's last line may lack its
    /// line end).
    fn load(&mut self, block: &[u8]) -> Result<()> {
        let width = self.chunks.len();
        let mut start = 0;
        for (part, chunk) in self.chunks.iter_mut().enumerate() {
            let target = (block.len() * (part + 1) / width).max(start);
            let end = match block[target..].iter().position(|&b| b == b'\n') {
                Some(nl) if part + 1 < width => target + nl + 1,
                _ => block.len(),
            };
            (chunk.start, chunk.end, start) = (start, end, end);
        }
        // Step 1; the chunks after the first with a bad line are not needed.
        let names = &self.names;
        let texts: Vec<&str> =
            self.chunks.par_iter_mut().map(|chunk| chunk.scan(block, names)).collect();
        let used = self.chunks.iter().position(|c| c.fault.is_some()).map_or(width, |c| c + 1);
        let chunks = &mut self.chunks[..used];

        // Step 2, as `KbBuilder::add_node` with the hashes of step 1.
        let first = self.nodes.len() as u32;
        self.defined_at.clear();
        let node_lines = chunks.iter().map(|c| c.nodes.len()).sum();
        self.names.reserve(node_lines);
        self.nodes.reserve(node_lines);
        for (chunk, text) in chunks.iter().zip(&texts) {
            for line in &chunk.nodes {
                let id = self.names.intern_hashed(line.name.get(text), line.hash);
                if id as usize == self.nodes.len() {
                    let ty = line.ty.map_or("Entity", |ty| ty.get(text));
                    self.nodes.push(NodeRecord { ty: TypeId(self.types.intern(ty)) });
                    self.defined_at.push(chunk.start + line.at);
                }
            }
        }

        // Step 3: each chunk writes its edges into its own stretch of the
        // edge table.
        let base = self.edges.len();
        let edge_lines = chunks.iter().map(|c| c.edge_lines.len()).sum();
        self.edges.reserve_exact(edge_lines);
        let unset = StoredEdge::new(NodeId(0), NodeId(0), LabelId(0), false);
        self.edges.resize(base + edge_lines, unset);
        let mut jobs = Vec::with_capacity(chunks.len());
        let mut rest = &mut self.edges[base..];
        for (chunk, &text) in chunks.iter_mut().zip(&texts) {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(chunk.edge_lines.len());
            jobs.push((chunk, text, out));
            rest = tail;
        }
        let new = NewNodes { first, defined_at: &self.defined_at };
        let (names, known) = (&self.names, &self.labels);
        let limit = self.label_limit;
        let new_labels: Vec<Interner> = jobs
            .par_iter_mut()
            .map(|(chunk, text, out)| chunk.resolve(text, out, names, &new, known, limit))
            .collect();

        // Step 4, chunk by chunk: a chunk numbered its new labels from the
        // KB's label count; the first chunk's numbers are the merged ones.
        // A chunk's labels come from lines before its first bad line, so
        // a label past the limit is reported before that line's fault.
        let known = self.labels.len() as u32;
        for ((chunk, _, edges), labels) in jobs.iter_mut().zip(new_labels) {
            let ids = labels
                .iter()
                .map(|(_, l)| intern_label_within(&mut self.labels, l, limit))
                .collect::<Result<Vec<LabelId>>>()?;
            if let Some((at, fault)) = chunk.fault.take() {
                let before = block[chunk.start..chunk.start + at].iter().filter(|&&b| b == b'\n');
                return Err(fault.at_line(self.first_line + before.count()));
            }
            self.first_line += chunk.lines;
            if ids.iter().zip(known..).any(|(id, local)| id.0 != local) {
                for e in edges.iter_mut() {
                    let r = e.record();
                    if let Some(local) = r.label.0.checked_sub(known) {
                        *e = StoredEdge::new(r.src, r.dst, ids[local as usize], r.directed);
                    }
                }
            }
        }
        Ok(())
    }
}

impl Chunk {
    /// Step 1: checks the chunk's UTF-8, and each line's tag and node
    /// fields, up to its first bad line, and lists its node and edge
    /// lines. Returns the chunk's text before any line that is not UTF-8.
    fn scan<'a>(&mut self, block: &'a [u8], names: &Interner) -> &'a str {
        self.lines = 0;
        self.nodes.clear();
        self.edge_lines.clear();
        self.fault = None;
        let bytes = &block[self.start..self.end];
        let (text, bad_utf8) = match std::str::from_utf8(bytes) {
            Ok(text) => (text, None),
            Err(e) => {
                let valid = &bytes[..e.valid_up_to()];
                let line = valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                (std::str::from_utf8(&valid[..line]).expect("checked above"), Some(line))
            }
        };
        let mut at = 0;
        for raw in text.split_inclusive('\n') {
            let (start, line) = (at, raw.trim_end());
            at += raw.len();
            self.lines += 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split('\t');
            match fields.next().unwrap_or("") {
                "N" => match fields.next() {
                    Some(name) => self.nodes.push(NodeLine {
                        at: start,
                        hash: names.hash(name),
                        name: Span::of(text, name),
                        ty: fields.next().map(|ty| Span::of(text, ty)),
                    }),
                    None => {
                        self.fault = Some((start, Fault::MissingNodeName));
                        return text;
                    }
                },
                "E" => self.edge_lines.push(Span::of(text, line)),
                other => {
                    self.fault = Some((start, Fault::UnknownTag(other.to_string())));
                    return text;
                }
            }
        }
        self.fault = bad_utf8.map(|at| (at, Fault::Utf8));
        text
    }

    /// Step 3: writes the edges of the chunk's edge lines to `out`, up to
    /// the first bad line. Returns the labels that `known` (the KB's) does
    /// not hold, in first-use order; the edges number them from
    /// `known.len()`. A label numbered `label_limit` or more is a bad
    /// line: the merged number is no lower.
    fn resolve(
        &mut self,
        text: &str,
        out: &mut [StoredEdge],
        names: &Interner,
        new: &NewNodes<'_>,
        known: &Interner,
        label_limit: u32,
    ) -> Interner {
        let mut labels = known.with_same_hasher();
        for (&line, slot) in self.edge_lines.iter().zip(out) {
            let at = self.start + line.start;
            let edge = parse_edge(line.get(text), at, names, new, known, &mut labels, label_limit);
            match edge {
                Ok(edge) => *slot = edge,
                Err(fault) => {
                    self.fault = Some((line.start, fault));
                    break;
                }
            }
        }
        labels
    }
}

/// Parses the edge line at block offset `at` and resolves its endpoints.
/// A label that `known` lacks is interned in `labels` and numbered from
/// `known.len()`, unless that number reaches `label_limit`.
fn parse_edge(
    line: &str,
    at: usize,
    names: &Interner,
    new: &NewNodes<'_>,
    known: &Interner,
    labels: &mut Interner,
    label_limit: u32,
) -> std::result::Result<StoredEdge, Fault> {
    let [src, dst, label, dir] = edge_fields(line);
    let src = src.ok_or(Fault::MissingSrc)?;
    let dst = dst.ok_or(Fault::MissingDst)?;
    let label = label.ok_or(Fault::MissingLabel)?;
    let dir = dir.unwrap_or("d");
    let node =
        |name: &str| new.lookup(names, name, at).ok_or_else(|| Fault::NameNotFound(name.into()));
    let (src, dst) = (node(src)?, node(dst)?);
    let directed = match dir {
        "d" => true,
        "u" => false,
        other => return Err(Fault::BadDirection(other.to_string())),
    };
    let hash = known.hash(label);
    let id = match known.get_hashed(label, hash) {
        Some(id) => id,
        None => {
            let room = (label_limit as usize).saturating_sub(known.len());
            if labels.get_hashed(label, hash).is_none() && labels.len() >= room {
                return Err(Fault::LabelLimit(label.to_string()));
            }
            known.len() as u32 + labels.intern_hashed(label, hash)
        }
    };
    Ok(StoredEdge::new(src, dst, LabelId(id), directed))
}

/// The first four fields of an edge line after its tag (source,
/// destination, label, direction), as `line.split('\t').skip(1)` yields
/// them. A byte loop finds fields this short faster than `split`'s
/// searcher does.
fn edge_fields(line: &str) -> [Option<&str>; 4] {
    let mut fields = [None; 4];
    let bytes = line.as_bytes();
    let Some(tab) = bytes.iter().position(|&b| b == b'\t') else { return fields };
    let mut start = tab + 1;
    for field in &mut fields {
        let end =
            bytes[start..].iter().position(|&b| b == b'\t').map_or(bytes.len(), |i| start + i);
        *field = Some(&line[start..end]);
        if end == bytes.len() {
            break;
        }
        start = end + 1;
    }
    fields
}

/// Writes `bytes` to `path` atomically: the content lands in a unique
/// temp file in the same directory, is fsync'd, and is renamed into
/// place, and the directory is fsync'd so the rename itself survives a
/// crash. A crash at any point leaves either the old file or the new one
/// — never a torn mix. The temp file is cleaned up on failure
/// (best-effort).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SUFFIX: AtomicU64 = AtomicU64::new(0);
    let parent = parent_dir(path);
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
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// The directory that holds `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsyncs the directory that holds `path`, so that the entry a rename
/// or a file creation made for `path` survives a crash: POSIX promises
/// that only once the directory itself is synced.
pub(crate) fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        std::fs::File::open(parent_dir(path))?.sync_all()
    } else {
        Ok(())
    }
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
    i.reserve(n);
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
    for (name, n) in kb.nodes.iter().enumerate() {
        buf.put_u32_le(name as u32);
        buf.put_u32_le(n.ty.0);
    }
    buf.put_u32_le(kb.edge_count() as u32);
    for e in kb.edges.iter().map(|e| e.record()) {
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
    if labels.len() > LABEL_LIMIT as usize {
        return Err(KbError::LabelLimit(labels.resolve(LABEL_LIMIT).to_string()));
    }
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
        nodes.push(NodeRecord { ty });
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
        edges.push(StoredEdge::new(src, dst, label, directed));
    }
    Ok(KnowledgeBase::assemble(nodes, edges, names, types, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EdgeId;
    use crate::{toy, KbBuilder};

    /// The line-at-a-time reader that [`read_tsv`] replaced, kept as the
    /// reference of the reader differential below. Reads a knowledge base
    /// from TSV interchange form. Blank lines and lines starting with `#`
    /// are ignored. Node lines must precede the edges that
    /// reference them. A line that is not UTF-8 fails with the error
    /// `BufRead::lines` reports, and trailing whitespace (a CRLF's `\r`
    /// included) is trimmed. Takes at most `label_limit` labels.
    fn read_tsv_lines<R: BufRead>(mut input: R, label_limit: u32) -> Result<KnowledgeBase> {
        let mut builder = KbBuilder::new().with_label_limit(label_limit);
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
            let line = std::str::from_utf8(&buf).map_err(|_| {
                KbError::Parse("I/O error: stream did not contain valid UTF-8".into())
            })?;
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split('\t');
            let tag = fields.next().unwrap_or("");
            match tag {
                "N" => {
                    let name = fields.next().ok_or_else(|| {
                        KbError::Parse(format!("line {lineno}: missing node name"))
                    })?;
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
                        "d" => builder.add_directed_edge(src, dst, label)?,
                        "u" => builder.add_undirected_edge(src, dst, label)?,
                        other => {
                            return Err(KbError::Parse(format!(
                                "line {lineno}: bad direction flag {other:?} (want \"d\" or \"u\")"
                            )))
                        }
                    }
                }
                other => {
                    return Err(KbError::Parse(format!(
                        "line {lineno}: unknown record tag {other:?}"
                    )))
                }
            }
        }
        Ok(builder.build())
    }

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

    /// Every constructor leaves the node and edge tables and the
    /// interners' string storage with capacity equal to length: the
    /// builder (also one given too much capacity), the TSV reader (in
    /// one block and in many), and the binary decoder.
    #[test]
    fn constructors_size_tables_to_their_lengths() {
        let built = toy::entertainment();
        let mut tsv = Vec::new();
        write_tsv(&built, &mut tsv).unwrap();
        let decoded = decode_binary(encode_binary(&built)).unwrap();
        let mut b = KbBuilder::with_capacity(100, 100);
        let (x, y) = (b.add_node("x", "T"), b.add_node("y", "T"));
        b.add_directed_edge(x, y, "r").unwrap();
        let kbs = [
            built,
            b.build(),
            read_tsv(std::io::Cursor::new(&tsv)).unwrap(),
            read_tsv_in_blocks(std::io::Cursor::new(&tsv), 7, LABEL_LIMIT).unwrap(),
            decoded,
        ];
        for kb in &kbs {
            assert_eq!(kb.nodes.capacity(), kb.nodes.len());
            assert_eq!(kb.edges.capacity(), kb.edges.len());
            for interner in [&kb.names, &kb.types, &kb.labels] {
                for (capacity, len) in interner.storage() {
                    assert_eq!(capacity, len);
                }
            }
        }
    }

    /// A reader that serves `data` and fails once `left` bytes are read
    /// (and `data` is not exhausted).
    struct FailAfter<'a> {
        data: &'a [u8],
        left: usize,
    }

    impl Read for FailAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.data.is_empty() {
                return Ok(0);
            }
            if self.left == 0 {
                return Err(std::io::Error::other("injected read failure"));
            }
            let n = buf.len().min(self.left).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            (self.data, self.left) = (&self.data[n..], self.left - n);
            Ok(n)
        }
    }

    /// Node names the generated texts draw from: some are prefixes of
    /// others, one is not ASCII and one is empty.
    const NAMES: [&str; 7] = ["a", "ab", "b", "node_1", "node_10", "é", ""];

    /// Builds a TSV text from line specs `(kind, x, y, z, crlf)`: node
    /// lines (names repeat), edge lines between names defined so far,
    /// comments and blank lines, CRLF or LF ends, and a last line with or
    /// without its end. `fault` puts one bad line at a random place: an
    /// unknown tag, a missing field, a bad direction flag, invalid UTF-8,
    /// an undefined node, or a node that a later line defines.
    fn tsv_text(
        specs: &[(u8, usize, usize, u8, bool)],
        fault: (u8, usize),
        open_end: bool,
    ) -> Vec<u8> {
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut defined: Vec<&str> = Vec::new();
        for &(kind, x, y, z, _) in specs {
            // An edge needs a node to point at; before the first one, make
            // one.
            let kind = if (3..=6).contains(&kind) && defined.is_empty() { 0 } else { kind };
            let line = match kind {
                0..=2 => {
                    let name = NAMES[x % NAMES.len()];
                    defined.push(name);
                    match z % 4 {
                        0 => format!("N\t{name}"),
                        1 => format!("N\t{name}\tT{}\textra", y % 3),
                        _ => format!("N\t{name}\tT{}", y % 3),
                    }
                }
                3..=6 => {
                    let pick = |i: usize| defined[i % defined.len()];
                    let dir = ["\td", "\tu", "", "\td\tmore"][(z % 4) as usize];
                    format!("E\t{}\t{}\tr{}{dir}", pick(x), pick(y), (x + y) % 5)
                }
                7 => format!("# comment {x}"),
                _ => [" ", "", "\t "][x % 3].to_string(),
            };
            lines.push(line.into_bytes());
        }
        let (kind, at) = fault;
        let bad: Option<&[u8]> = match kind {
            0 => Some(b"X\tfoo"),
            1 => Some([&b"N"[..], b"E", b"E\ta", b"E\ta\tb"][at % 4]),
            2 => Some(b"E\ta\ta\tr\tx"),
            3 => Some(b"N\t\xff\xfe\tT"),
            4 => Some(b"E\tundefined\ta\tr"),
            5 => {
                lines.push(b"N\tlate\tT".to_vec());
                Some(b"E\ta\tlate\tr")
            }
            _ => None,
        };
        if let Some(bad) = bad {
            let at = at % (lines.len() + 1);
            lines.insert(at, bad.to_vec());
            if kind == 2 || kind == 5 {
                lines.insert(0, b"N\ta\tT".to_vec());
            }
        }
        let mut text = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            text.extend_from_slice(line);
            let crlf = specs.get(i).is_some_and(|s| s.4);
            if i + 1 < lines.len() || !open_end {
                text.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            }
        }
        text
    }

    /// A read KB's binary encoding and adjacency.
    type Built = (Vec<u8>, Vec<u32>, Vec<crate::Neighbor>);

    /// A read's outcome, comparable across readers: the KB's binary
    /// encoding and adjacency, or the error.
    fn outcome(read: Result<KnowledgeBase>) -> std::result::Result<Built, KbError> {
        read.map(|kb| {
            kb.check_invariants().expect("a read KB is consistent");
            (encode_binary(&kb).to_vec(), kb.adj_offsets, kb.adj)
        })
    }

    /// Reads `text`, failing once `left` bytes are read, line by line and
    /// in blocks at widths 1, 2, 3 and 7 and of `blocks` bytes and of
    /// [`BLOCK_BYTES`], both readers taking at most `label_limit` labels,
    /// and asserts that every read builds the same KB (byte for byte,
    /// adjacency included) or returns the same error.
    fn assert_readers_agree(text: &[u8], left: usize, blocks: &[usize], label_limit: u32) {
        let source = || FailAfter { data: text, left };
        let pool = |width| rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
        let lines = || read_tsv_lines(std::io::BufReader::new(source()), label_limit);
        let expected = pool(1).install(|| outcome(lines()));
        for width in [1, 2, 3, 7] {
            for &block in blocks.iter().chain([&BLOCK_BYTES]) {
                let got = pool(width)
                    .install(|| outcome(read_tsv_in_blocks(source(), block, label_limit)));
                assert_eq!(
                    got,
                    expected,
                    "width {width}, block {block} bytes, text {:?}",
                    String::from_utf8_lossy(text)
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 48, ..Default::default() })]

        /// The block reader at widths 1, 2, 3 and 7 and blocks of 1-64
        /// bytes and of [`BLOCK_BYTES`] builds the same KB as the
        /// line-at-a-time reader (byte for byte, adjacency included), or
        /// returns the same error, also when the input fails part way.
        #[test]
        fn block_reader_matches_line_reader(
            specs in proptest::collection::vec(
                (0u8..9, 0usize..64, 0usize..64, 0u8..8, proptest::prelude::any::<bool>()),
                0..40,
            ),
            (fault, fault_at, open_end) in (0u8..10, 0usize..64, proptest::prelude::any::<bool>()),
            (blocks, fail_after) in (proptest::collection::vec(1usize..=64, 2), 0usize..2048),
        ) {
            let text = tsv_text(&specs, (fault, fault_at), open_end);
            let left = if fault == 9 { fail_after % (text.len() + 1) } else { usize::MAX };
            assert_readers_agree(&text, left, &blocks, LABEL_LIMIT);
        }

        /// The same, with both readers taking at most 0-5 labels (the
        /// texts use five), so a read meets the label limit: the block
        /// reader refuses the label the line reader refuses first,
        /// whichever chunk holds it and whatever bad line follows.
        #[test]
        fn block_reader_matches_line_reader_at_label_limits(
            specs in proptest::collection::vec(
                (0u8..9, 0usize..64, 0usize..64, 0u8..8, proptest::prelude::any::<bool>()),
                0..40,
            ),
            (fault, fault_at, open_end) in (0u8..10, 0usize..64, proptest::prelude::any::<bool>()),
            (blocks, fail_after) in (proptest::collection::vec(1usize..=64, 2), 0usize..2048),
            limit in 0u32..6,
        ) {
            let text = tsv_text(&specs, (fault, fault_at), open_end);
            let left = if fault == 9 { fail_after % (text.len() + 1) } else { usize::MAX };
            assert_readers_agree(&text, left, &blocks, limit);
        }
    }
}
