//! Compact binary (de)serialization of a [`HierarchicalSummary`].
//!
//! The whole point of summarization is to *store* the graph in less space, so the
//! library ships a small, self-describing binary format for the summary itself:
//! varint-encoded supernode table (parent + members, from which children are rebuilt)
//! followed by the p/n-edge list.  The format is endian-stable and versioned.
//!
//! Dead arena slots are never serialized and reading re-creates supernodes in
//! ascending-id order, so a summary's encoding is already arena-*compact*: writing
//! then reading is equivalent to [`HierarchicalSummary::compact`] field by field.
//! Children are rebuilt in ascending id order, which is the order the model
//! always keeps them in, so child order survives too — and pruned, compacted
//! streaming summaries round-trip mid-stream —
//! `IncrementalSummarizer::from_summary` resumes from the reloaded bytes (pinned
//! by `crates/core/tests/{storage_roundtrip,incremental_prune_compact}.rs`).
//!
//! ```
//! use slugger_core::model::{EdgeSign, HierarchicalSummary};
//! use slugger_core::storage::{read_summary, write_summary};
//!
//! let mut summary = HierarchicalSummary::identity(4);
//! let m = summary.merge_roots(0, 1);
//! summary.set_edge(m, 2, EdgeSign::Positive);
//! let mut buffer = Vec::new();
//! write_summary(&summary, &mut buffer).unwrap();
//! let restored = read_summary(&buffer[..]).unwrap();
//! assert_eq!(restored.encoding_cost(), summary.encoding_cost());
//! ```

use crate::model::{EdgeSign, HierarchicalSummary, SupernodeId};
use bytes::{Bytes, BytesMut};
use std::io::{self, Read, Write};

pub mod durable;

/// Magic bytes identifying the format ("SLGR").
pub const MAGIC: [u8; 4] = *b"SLGR";
/// Current format version.
pub const VERSION: u8 = 1;

/// Errors produced while reading a serialized summary.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the expected magic bytes.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u8),
    /// The payload is structurally invalid (truncated, inconsistent counts, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::BadMagic => write!(f, "not a SLUGGER summary file (bad magic)"),
            StorageError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StorageError::Corrupt(what) => write!(f, "corrupt summary payload: {what}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Serializes a summary into a writer. Returns the number of bytes written.
pub fn write_summary<W: Write>(
    summary: &HierarchicalSummary,
    mut writer: W,
) -> Result<usize, StorageError> {
    let bytes = encode_summary(summary);
    writer.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Deserializes a summary from a reader.
pub fn read_summary<R: Read>(mut reader: R) -> Result<HierarchicalSummary, StorageError> {
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    decode_summary(&Bytes::from(raw))
}

/// Encodes a summary into a byte buffer.
pub fn encode_summary(summary: &HierarchicalSummary) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + summary.arena_len() * 8);
    buf.put_slice(&MAGIC);
    buf.put_u8(VERSION);
    put_varint(&mut buf, summary.num_subnodes() as u64);
    // Alive non-leaf supernodes, each with parent (or sentinel) — children and members
    // are reconstructed from parents, so leaves (ids 0..n) are implicit.
    let internal: Vec<SupernodeId> = (summary.num_subnodes() as SupernodeId
        ..summary.arena_len() as SupernodeId)
        .filter(|&id| summary.is_alive(id))
        .collect();
    put_varint(&mut buf, internal.len() as u64);
    for &id in &internal {
        put_varint(&mut buf, id as u64);
        match summary.parent(id) {
            Some(p) => put_varint(&mut buf, p as u64 + 1),
            None => put_varint(&mut buf, 0),
        }
    }
    // Parents of the leaves.
    for leaf in 0..summary.num_subnodes() as SupernodeId {
        match summary.parent(leaf) {
            Some(p) => put_varint(&mut buf, p as u64 + 1),
            None => put_varint(&mut buf, 0),
        }
    }
    // Edges.
    let edges: Vec<((SupernodeId, SupernodeId), EdgeSign)> = summary.pn_edges().collect();
    put_varint(&mut buf, edges.len() as u64);
    for ((a, b), sign) in edges {
        put_varint(&mut buf, a as u64);
        put_varint(&mut buf, b as u64);
        buf.put_u8(match sign {
            EdgeSign::Positive => 1,
            EdgeSign::Negative => 0,
        });
    }
    buf.freeze()
}

/// A count or id decoded from untrusted input, checked to fit [`SupernodeId`]
/// (serialized ids are `u32`; anything larger is corruption, and truncating casts
/// would silently alias ids).
fn checked_id(value: u64, what: &'static str) -> Result<SupernodeId, StorageError> {
    SupernodeId::try_from(value).map_err(|_| StorageError::Corrupt(what))
}

/// Decodes a summary from a byte buffer.
///
/// Never panics, whatever the input: every count is validated against the bytes
/// actually present **before** anything is allocated from it (a forged header must
/// not trigger a multi-gigabyte allocation), ids are range-checked instead of
/// truncated, and the reconstructed model is [`HierarchicalSummary::validate`]d so
/// an `Ok` summary is always internally consistent.  Pinned by the fuzz-style
/// proptest in `crates/core/tests/storage_roundtrip.rs`.
pub fn decode_summary(bytes: &Bytes) -> Result<HierarchicalSummary, StorageError> {
    let mut buf = bytes.clone();
    if buf.remaining() < 5 {
        return Err(StorageError::Corrupt("truncated header"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }
    let num_subnodes = checked_id(get_varint(&mut buf)?, "subnode count overflows u32")? as usize;
    // Each leaf contributes at least one parent byte later in the payload, so a
    // subnode count beyond the remaining bytes cannot be honest.
    if num_subnodes > buf.remaining() {
        return Err(StorageError::Corrupt("subnode count exceeds payload"));
    }
    let num_internal = get_varint(&mut buf)? as usize;
    // Each internal entry needs at least two varint bytes (id + parent).
    if num_internal > buf.remaining() / 2 {
        return Err(StorageError::Corrupt("internal count exceeds payload"));
    }
    let mut internal: Vec<(SupernodeId, Option<SupernodeId>)> = Vec::with_capacity(num_internal);
    for _ in 0..num_internal {
        let id = checked_id(get_varint(&mut buf)?, "internal id overflows u32")?;
        let parent = match get_varint(&mut buf)? {
            0 => None,
            p => Some(checked_id(p - 1, "parent id overflows u32")?),
        };
        if (id as usize) < num_subnodes {
            return Err(StorageError::Corrupt(
                "internal supernode id overlaps leaves",
            ));
        }
        internal.push((id, parent));
    }
    let mut leaf_parents: Vec<Option<SupernodeId>> = Vec::with_capacity(num_subnodes);
    for _ in 0..num_subnodes {
        leaf_parents.push(match get_varint(&mut buf)? {
            0 => None,
            p => Some(checked_id(p - 1, "leaf parent id overflows u32")?),
        });
    }
    let num_edges = get_varint(&mut buf)? as usize;
    // Each edge needs at least three bytes (two endpoint varints plus the sign).
    if num_edges > buf.remaining() / 3 {
        return Err(StorageError::Corrupt("edge count exceeds payload"));
    }
    let mut edges = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let a = checked_id(get_varint(&mut buf)?, "edge endpoint overflows u32")?;
        let b = checked_id(get_varint(&mut buf)?, "edge endpoint overflows u32")?;
        if !buf.has_remaining() {
            return Err(StorageError::Corrupt("truncated edge sign"));
        }
        let sign = match buf.get_u8() {
            1 => EdgeSign::Positive,
            0 => EdgeSign::Negative,
            _ => return Err(StorageError::Corrupt("invalid edge sign")),
        };
        edges.push(((a, b), sign));
    }

    // Rebuild: create the identity summary, then re-create the internal supernodes in
    // topological (children-before-parents) order by repeatedly merging roots.
    let summary = rebuild(num_subnodes, &internal, &leaf_parents, &edges)?;
    // Belt and braces: whatever the parent tables encoded, an `Ok` result must be a
    // model every downstream consumer can trust.
    summary
        .validate()
        .map_err(|_| StorageError::Corrupt("reconstructed summary is inconsistent"))?;
    Ok(summary)
}

/// Reconstructs a summary from the decoded tables.
fn rebuild(
    num_subnodes: usize,
    internal: &[(SupernodeId, Option<SupernodeId>)],
    leaf_parents: &[Option<SupernodeId>],
    edges: &[((SupernodeId, SupernodeId), EdgeSign)],
) -> Result<HierarchicalSummary, StorageError> {
    // children_of[new supernode] collected from both leaves and internal nodes.
    let mut children_of: std::collections::BTreeMap<SupernodeId, Vec<SupernodeId>> =
        std::collections::BTreeMap::new();
    for (leaf, parent) in leaf_parents.iter().enumerate() {
        if let Some(p) = parent {
            children_of.entry(*p).or_default().push(leaf as SupernodeId);
        }
    }
    for &(id, parent) in internal {
        children_of.entry(id).or_default();
        if let Some(p) = parent {
            children_of.entry(p).or_default().push(id);
        }
    }
    let mut summary = HierarchicalSummary::identity(num_subnodes);
    // The arena requires supernode ids to be dense and in creation order; serialized
    // ids are the original arena ids, so map old -> new as we recreate the supernodes
    // in ascending old-id order (children always have smaller ids than their parent,
    // both for the merge engine's output and for pruned hierarchies).
    let mut mapping: std::collections::BTreeMap<SupernodeId, SupernodeId> =
        (0..num_subnodes as SupernodeId).map(|x| (x, x)).collect();
    for (&old_id, children) in &children_of {
        if children.len() < 2 {
            return Err(StorageError::Corrupt(
                "internal supernode with fewer than two children",
            ));
        }
        let mapped: Vec<SupernodeId> = children
            .iter()
            .map(|c| {
                mapping
                    .get(c)
                    .copied()
                    .ok_or(StorageError::Corrupt("child created after parent"))
            })
            .collect::<Result<_, _>>()?;
        // Guard the arena's invariants before touching it (the model asserts them):
        // a child claimed by two parents, or listed twice, is no longer a root here.
        // Duplicate detection sorts a copy — an adversarial file can make one
        // children list arbitrarily long, so a quadratic scan would be a
        // CPU-exhaustion vector.
        for &c in &mapped {
            if !summary.is_root(c) {
                return Err(StorageError::Corrupt("supernode claimed by two parents"));
            }
        }
        let mut dedup_check = mapped.clone();
        dedup_check.sort_unstable();
        if dedup_check.windows(2).any(|w| w[0] == w[1]) {
            return Err(StorageError::Corrupt("supernode claimed by two parents"));
        }
        let new_id = summary.create_supernode_with_children(&mapped);
        mapping.insert(old_id, new_id);
    }
    for &((a, b), sign) in edges {
        let a = *mapping
            .get(&a)
            .ok_or(StorageError::Corrupt("edge references unknown supernode"))?;
        let b = *mapping
            .get(&b)
            .ok_or(StorageError::Corrupt("edge references unknown supernode"))?;
        summary.set_edge(a, b, sign);
    }
    Ok(summary)
}

fn put_varint(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> Result<u64, StorageError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(StorageError::Corrupt("truncated varint"));
        }
        let byte = buf.get_u8();
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift >= 64 {
            return Err(StorageError::Corrupt("varint overflow"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_full;
    use crate::slugger::{Slugger, SluggerConfig};
    use slugger_graph::gen::{caveman, CavemanConfig};

    #[test]
    fn varint_roundtrip() {
        let mut buf = BytesMut::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut bytes = buf.freeze();
        for &v in &values {
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
        }
    }

    #[test]
    fn handbuilt_summary_roundtrips() {
        let mut s = HierarchicalSummary::identity(5);
        let m01 = s.merge_roots(0, 1);
        let m = s.merge_roots(m01, 2);
        s.set_edge(m, 3, EdgeSign::Positive);
        s.set_edge(0, 4, EdgeSign::Negative);
        s.set_edge(m01, m01, EdgeSign::Positive);
        let bytes = encode_summary(&s);
        let restored = decode_summary(&bytes).unwrap();
        restored.validate().unwrap();
        assert_eq!(restored.num_p_edges(), s.num_p_edges());
        assert_eq!(restored.num_n_edges(), s.num_n_edges());
        assert_eq!(restored.num_h_edges(), s.num_h_edges());
        assert_eq!(
            decode_full(&restored).edge_set(),
            decode_full(&s).edge_set()
        );
    }

    #[test]
    fn real_slugger_output_roundtrips_through_a_writer() {
        let graph = caveman(&CavemanConfig {
            num_nodes: 150,
            num_cliques: 25,
            ..CavemanConfig::default()
        });
        let outcome = Slugger::new(SluggerConfig {
            iterations: 5,
            ..SluggerConfig::default()
        })
        .summarize(&graph);
        let mut buffer = Vec::new();
        let written = write_summary(&outcome.summary, &mut buffer).unwrap();
        assert_eq!(written, buffer.len());
        let restored = read_summary(&buffer[..]).unwrap();
        restored.validate().unwrap();
        assert_eq!(
            decode_full(&restored).edge_set(),
            graph.edge_set(),
            "restored summary must still decode to the input graph"
        );
        assert_eq!(restored.encoding_cost(), outcome.summary.encoding_cost());
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        assert!(matches!(
            decode_summary(&Bytes::from_static(b"nope")),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            decode_summary(&Bytes::from_static(b"XXXX\x01\x00\x00\x00")),
            Err(StorageError::BadMagic)
        ));
        let mut s = HierarchicalSummary::identity(3);
        s.set_edge(0, 1, EdgeSign::Positive);
        let bytes = encode_summary(&s);
        // Bad version byte.
        let mut tampered = bytes.to_vec();
        tampered[4] = 99;
        assert!(matches!(
            decode_summary(&Bytes::from(tampered)),
            Err(StorageError::UnsupportedVersion(99))
        ));
        // Truncation.
        let truncated = Bytes::copy_from_slice(&bytes[..bytes.len() - 1]);
        assert!(decode_summary(&truncated).is_err());
    }

    #[test]
    fn error_display_strings() {
        let e = StorageError::Corrupt("truncated varint");
        assert!(format!("{e}").contains("truncated varint"));
        let e = StorageError::UnsupportedVersion(3);
        assert!(format!("{e}").contains('3'));
    }
}
