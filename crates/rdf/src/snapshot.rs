//! Versioned, checksummed graph snapshots: the columnar [`Graph`] on disk.
//!
//! The on-disk layout is exactly the in-memory representation — the interner's
//! term table in id order followed by the three sorted columns as raw
//! little-endian `u32` rows — so a shard loads its partition with one
//! sequential read and three `Vec` fills instead of re-generating and
//! re-interning its dataset. (The column sections are 4-byte-aligned
//! fixed-stride arrays precisely so an mmap-based loader could point at them
//! in place; this build reads sequentially, which is already the cheap part.)
//!
//! ## File format (version 1)
//!
//! | offset | size | contents |
//! |--------|------|----------|
//! | 0      | 8    | magic `b"SAPHSNAP"` |
//! | 8      | 4    | format version, `u32` LE (currently 1) |
//! | 12     | 4    | reserved, must be 0 |
//! | 16     | 8    | term count, `u64` LE |
//! | 24     | 8    | triple count, `u64` LE |
//! | 32     | …    | term table: `term_count` tagged terms in id order |
//! | …      | 12·n | SPO column: `(s, p, o)` rows, each `u32` LE |
//! | …      | 12·n | POS column: `(p, o, s)` rows |
//! | …      | 12·n | OSP column: `(o, s, p)` rows |
//! | end−8  | 8    | FNV-1a-64 checksum of every preceding byte, `u64` LE |
//!
//! Each term is a tag byte — 0 IRI, 1 blank node, 2 literal — followed by
//! `u32`-length-prefixed UTF-8 strings (IRI text, blank label, or literal
//! lexical form plus a presence mask for language tag and datatype).
//!
//! Loading validates magic, version, checksum, column sortedness, rotation
//! consistency (POS and OSP must be permutations of SPO), and id bounds; any
//! violation is a typed [`SnapshotError`], never a panic, so a corrupt or
//! truncated file can't take down a shard at bring-up.

use std::fmt;
use std::io;
use std::path::Path;

use crate::graph::Graph;
use crate::interner::Interner;
use crate::term::{Literal, Term};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"SAPHSNAP";

/// The current (and only) format version.
pub const VERSION: u32 = 1;

const TAG_IRI: u8 = 0;
const TAG_BLANK: u8 = 1;
const TAG_LITERAL: u8 = 2;

const LIT_HAS_LANG: u8 = 1;
const LIT_HAS_DATATYPE: u8 = 2;

/// Why a snapshot could not be written or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error reading or writing the snapshot file.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The file declares a format version this build cannot read.
    UnsupportedVersion(
        /// The version the file declared.
        u32,
    ),
    /// The file ends before the declared contents do.
    Truncated {
        /// Bytes the current field needed.
        needed: usize,
        /// Bytes actually remaining in the file.
        available: usize,
    },
    /// The trailing checksum does not match the file's contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the file's bytes.
        computed: u64,
    },
    /// The contents are structurally invalid (bad tag, unsorted column,
    /// out-of-range id, …) despite a matching checksum.
    Corrupt(
        /// What invariant was violated.
        &'static str,
    ),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::Truncated { needed, available } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes, {available} available"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The canonical file name for one shard's snapshot of a dataset scale:
/// `"<scale>-s<shard>of<shards>.snap"`. Builders and loaders both go through
/// this so they can never disagree about where a shard's bytes live.
pub fn shard_file_name(scale: &str, shard: usize, shards: usize) -> String {
    format!("{scale}-s{shard}of{shards}.snap")
}

/// Serialize a graph into the version-1 snapshot byte layout. Every
/// [`Graph`] is writable, so this never fails; the `Result` is the signature
/// its callers hold.
pub fn encode(graph: &Graph) -> Result<Vec<u8>, SnapshotError> {
    let interner = graph.interner();
    let mut buf = Vec::with_capacity(64 + interner.len() * 24 + graph.len() * 36);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.extend_from_slice(&(interner.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(graph.len() as u64).to_le_bytes());
    for (_, term) in interner.iter() {
        encode_term(&mut buf, term);
    }
    for column in graph.columns() {
        for &(a, b, c) in column {
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&b.to_le_bytes());
            buf.extend_from_slice(&c.to_le_bytes());
        }
    }
    let checksum = fnv1a64(&buf);
    buf.extend_from_slice(&checksum.to_le_bytes());
    Ok(buf)
}

/// Write a graph's snapshot to `path`, returning the byte size.
pub fn write(graph: &Graph, path: &Path) -> Result<u64, SnapshotError> {
    let bytes = encode(graph)?;
    std::fs::write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Load a graph from a snapshot file with one sequential read.
pub fn load(path: &Path) -> Result<Graph, SnapshotError> {
    decode(&std::fs::read(path)?)
}

/// Reconstruct a graph from snapshot bytes, validating everything.
pub fn decode(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    // The checksum is verified first: everything after this line can trust
    // that the bytes are what the writer produced (or a deliberately crafted
    // file, which the structural checks below still reject without panicking).
    if bytes.len() < MAGIC.len() + 8 {
        return Err(SnapshotError::Truncated {
            needed: MAGIC.len() + 8,
            available: bytes.len(),
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if body[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }

    let mut cur = Cursor {
        buf: body,
        pos: MAGIC.len(),
    };
    let version = cur.u32()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    if cur.u32()? != 0 {
        return Err(SnapshotError::Corrupt("reserved header field is nonzero"));
    }
    let term_count = cur.u64_len()?;
    let triple_count = cur.u64_len()?;
    if u64::try_from(term_count).is_err() || term_count > u64::from(u32::MAX) as usize {
        return Err(SnapshotError::Corrupt("term count exceeds u32 id space"));
    }

    // Each term takes at least 5 bytes (tag + one length), so a hostile
    // term_count cannot force an allocation larger than the file itself.
    let mut terms = Vec::with_capacity(term_count.min(cur.remaining() / 5 + 1));
    for _ in 0..term_count {
        terms.push(decode_term(&mut cur)?);
    }

    let column_bytes = triple_count
        .checked_mul(12)
        .ok_or(SnapshotError::Corrupt("triple count overflows"))?;
    let needed = column_bytes
        .checked_mul(3)
        .ok_or(SnapshotError::Corrupt("triple count overflows"))?;
    if cur.remaining() != needed {
        return Err(SnapshotError::Truncated {
            needed,
            available: cur.remaining(),
        });
    }
    let read_column = |cur: &mut Cursor<'_>| -> Result<Vec<(u32, u32, u32)>, SnapshotError> {
        let raw = cur.take(column_bytes)?;
        let mut col = Vec::with_capacity(triple_count);
        for row in raw.chunks_exact(12) {
            col.push((
                u32::from_le_bytes(row[0..4].try_into().expect("4 bytes")),
                u32::from_le_bytes(row[4..8].try_into().expect("4 bytes")),
                u32::from_le_bytes(row[8..12].try_into().expect("4 bytes")),
            ));
        }
        Ok(col)
    };
    let spo = read_column(&mut cur)?;
    let pos = read_column(&mut cur)?;
    let osp = read_column(&mut cur)?;

    // Structural validation: sortedness, rotation consistency, id bounds.
    for (col, name) in [
        (&spo, "spo column not strictly sorted"),
        (&pos, "pos column not strictly sorted"),
        (&osp, "osp column not strictly sorted"),
    ] {
        if !col.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapshotError::Corrupt(name));
        }
    }
    let max_id = term_count as u64;
    if spo.iter().any(|&(s, p, o)| {
        u64::from(s) >= max_id || u64::from(p) >= max_id || u64::from(o) >= max_id
    }) {
        return Err(SnapshotError::Corrupt("triple id out of term-table range"));
    }
    let mut expect_pos: Vec<(u32, u32, u32)> = spo.iter().map(|&(s, p, o)| (p, o, s)).collect();
    expect_pos.sort_unstable();
    if expect_pos != pos {
        return Err(SnapshotError::Corrupt(
            "pos column is not a rotation of spo",
        ));
    }
    let mut expect_osp: Vec<(u32, u32, u32)> = spo.iter().map(|&(s, p, o)| (o, s, p)).collect();
    expect_osp.sort_unstable();
    if expect_osp != osp {
        return Err(SnapshotError::Corrupt(
            "osp column is not a rotation of spo",
        ));
    }

    let interner = Interner::from_terms_checked(terms)
        .ok_or(SnapshotError::Corrupt("duplicate term in term table"))?;
    Ok(Graph::from_columns(interner, spo, pos, osp))
}

fn encode_term(buf: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(s) => {
            buf.push(TAG_IRI);
            encode_str(buf, s);
        }
        Term::Blank(s) => {
            buf.push(TAG_BLANK);
            encode_str(buf, s);
        }
        Term::Literal(lit) => {
            buf.push(TAG_LITERAL);
            encode_str(buf, &lit.value);
            let mask = lit.lang.as_ref().map_or(0, |_| LIT_HAS_LANG)
                | lit.datatype.as_ref().map_or(0, |_| LIT_HAS_DATATYPE);
            buf.push(mask);
            if let Some(lang) = &lit.lang {
                encode_str(buf, lang);
            }
            if let Some(dt) = &lit.datatype {
                encode_str(buf, dt);
            }
        }
    }
}

fn encode_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn decode_term(cur: &mut Cursor<'_>) -> Result<Term, SnapshotError> {
    match cur.u8()? {
        TAG_IRI => Ok(Term::Iri(cur.string()?)),
        TAG_BLANK => Ok(Term::Blank(cur.string()?)),
        TAG_LITERAL => {
            let value = cur.string()?;
            let mask = cur.u8()?;
            if mask & !(LIT_HAS_LANG | LIT_HAS_DATATYPE) != 0 {
                return Err(SnapshotError::Corrupt("unknown literal flag bits"));
            }
            let lang = (mask & LIT_HAS_LANG != 0)
                .then(|| cur.string())
                .transpose()?;
            let datatype = (mask & LIT_HAS_DATATYPE != 0)
                .then(|| cur.string())
                .transpose()?;
            Ok(Term::Literal(Literal {
                value,
                lang,
                datatype,
            }))
        }
        _ => Err(SnapshotError::Corrupt("unknown term tag")),
    }
}

/// Bounds-checked reader over the checksum-verified body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A `u64` header count, narrowed to `usize` (64-bit everywhere we run,
    /// but a 32-bit target would reject oversized counts as corrupt rather
    /// than wrap).
    fn u64_len(&mut self) -> Result<usize, SnapshotError> {
        let v = u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes"));
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt("count exceeds address space"))
    }

    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("invalid utf-8 in term table"))
    }
}

/// FNV-1a 64-bit over a byte slice — the same mixing the interner's hasher
/// uses, written out so the on-disk checksum is pinned independently of any
/// `Hasher` implementation details.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        Graph::from_term_triples([
            (
                Term::iri("http://x/s1"),
                Term::iri("http://x/p"),
                Term::en("one"),
            ),
            (
                Term::iri("http://x/s1"),
                Term::iri("http://x/p"),
                Term::literal("plain"),
            ),
            (
                Term::iri("http://x/s2"),
                Term::iri("http://x/p"),
                Term::Literal(Literal::integer(42)),
            ),
            (
                Term::iri("http://x/s2"),
                Term::iri("http://x/q"),
                Term::blank("b0"),
            ),
        ])
    }

    fn all(g: &Graph) -> Vec<crate::IdTriple> {
        g.triples_matching(None, None, None).collect()
    }

    /// Recompute and overwrite the trailing checksum after a test mutation,
    /// so structural checks (not the checksum) are what reject the bytes.
    fn refresh_checksum(bytes: &mut [u8]) {
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn roundtrip_preserves_triples_ids_and_answers() {
        let g = sample();
        let loaded = decode(&encode(&g).unwrap()).unwrap();
        assert_eq!(loaded.len(), g.len());
        assert_eq!(all(&loaded), all(&g));
        for (id, term) in g.interner().iter() {
            assert_eq!(loaded.interner().resolve(id), term);
        }
        let p = g.term_id(&Term::iri("http://x/p")).unwrap();
        assert!(loaded
            .triples_matching(None, Some(p), None)
            .eq(g.triples_matching(None, Some(p), None)));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::default();
        let loaded = decode(&encode(&g).unwrap()).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode(&sample()).unwrap();
        bytes[0] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = encode(&sample()).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        refresh_checksum(&mut bytes);
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_truncation_point_fails_typed() {
        let bytes = encode(&sample()).unwrap();
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).expect_err("truncated file must not load");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::BadMagic
                        | SnapshotError::Corrupt(_)
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_fails_or_roundtrips_identically() {
        // Flipping any single bit must either be caught (almost always by
        // the checksum) — never a panic, never a silently different graph.
        let g = sample();
        let bytes = encode(&g).unwrap();
        for byte in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[byte] ^= 1;
            assert!(
                decode(&mutated).is_err(),
                "bit flip in byte {byte} was not detected"
            );
        }
    }

    #[test]
    fn crafted_unsorted_column_is_structurally_rejected() {
        let g = sample();
        let mut bytes = encode(&g).unwrap();
        // Swap the first two SPO rows (each 12 bytes) and fix the checksum:
        // the checksum now matches, so only the sortedness check can object.
        let columns_start = bytes.len() - 8 - g.len() * 36;
        let (a, b) = (columns_start, columns_start + 12);
        let row: Vec<u8> = bytes[a..a + 12].to_vec();
        bytes.copy_within(b..b + 12, a);
        bytes[b..b + 12].copy_from_slice(&row);
        refresh_checksum(&mut bytes);
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::Corrupt("spo column not strictly sorted"))
        ));
    }

    #[test]
    fn crafted_rotation_mismatch_is_rejected() {
        let g = sample();
        let mut bytes = encode(&g).unwrap();
        // Point the last OSP row at a different (valid, in-range) value.
        let osp_last = bytes.len() - 8 - 12;
        let old = u32::from_le_bytes(bytes[osp_last..osp_last + 4].try_into().unwrap());
        bytes[osp_last..osp_last + 4].copy_from_slice(&(old.wrapping_add(1)).to_le_bytes());
        refresh_checksum(&mut bytes);
        assert!(matches!(decode(&bytes), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sapphire-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(shard_file_name("tiny", 0, 2));
        let g = sample();
        let size = write(&g, &path).unwrap();
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());
        let loaded = load(&path).unwrap();
        assert_eq!(all(&loaded), all(&g));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/sapphire.snap")).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)));
    }

    #[test]
    fn shard_file_names_are_canonical() {
        assert_eq!(shard_file_name("tiny", 0, 4), "tiny-s0of4.snap");
        assert_eq!(shard_file_name("large", 3, 4), "large-s3of4.snap");
    }
}
