//! Graph serialisation: a line-oriented text format and a compact binary
//! snapshot format.
//!
//! Text format (one edge per line, `#` comments, blank lines ignored):
//!
//! ```text
//! # nodes are created on first mention
//! u a v
//! v b w
//! node isolated    # declares a node without edges
//! ```
//!
//! The text format is whitespace-delimited, so a node or label name
//! containing whitespace (or a `#`, which opens a comment) **cannot** be
//! represented: the writer rejects such names with a [`FormatError`]
//! instead of silently emitting a line that parses back as a different
//! graph. Anonymous graphs ([`crate::db::NodeNames::Anonymous`]) are
//! written with synthetic `n{id}` names — text output is for human eyes,
//! so it always carries printable names.
//!
//! The binary format is a length-prefixed encoding built on [`bytes`],
//! suitable for snapshotting generated benchmark graphs. Names are
//! length-prefixed (any string is fine), and **version 2** adds a
//! names-mode byte so anonymous graphs snapshot without materialising a
//! name table at all — a `|V| = 10⁶` generated graph round-trips through
//! ~12 bytes per edge, zero per node. Version-1 snapshots still decode.
//!
//! Both writers stream: the text writer appends through any
//! [`fmt::Write`] sink ([`write_graph_text`]; [`to_graph_text`] is the
//! one-`String` convenience wrapper with a pre-sized buffer), and the
//! binary writer reserves its exact size up front instead of growing
//! through repeated doubling.

use crate::db::{GraphBuilder, GraphDb, NodeId, NodeNames};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Error from graph parsing/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError {
    /// Description of the failure.
    pub message: String,
    /// Line number (1-based) for text input, 0 for binary.
    pub line: usize,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph format error (line {}): {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for FormatError {}

/// Parses the text format described in the module docs.
///
/// ```
/// use crpq_graph::format::{parse_graph_text, to_graph_text};
///
/// let g = parse_graph_text("u knows v\nv knows w\nnode loner").unwrap();
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 2);
/// let back = parse_graph_text(&to_graph_text(&g).unwrap()).unwrap();
/// assert_eq!(back.num_edges(), 2);
/// ```
pub fn parse_graph_text(input: &str) -> Result<GraphDb, FormatError> {
    let mut b = GraphBuilder::new();
    for (idx, raw) in input.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["node", name] => {
                b.node(name);
            }
            [u, l, v] => {
                b.edge(u, l, v);
            }
            _ => {
                return Err(FormatError {
                    message: format!("expected `src label dst` or `node name`, got `{line}`"),
                    line: idx + 1,
                })
            }
        }
    }
    Ok(b.finish())
}

/// Checks that `name` survives a whitespace-delimited text round-trip:
/// non-empty, no whitespace (a space would split one token into two, a
/// newline into two lines), no `#` (opens a comment mid-line).
fn check_text_name(name: &str, what: &str) -> Result<(), FormatError> {
    if name.is_empty() {
        return Err(FormatError {
            message: format!("{what} name is empty — not representable in the text format"),
            line: 0,
        });
    }
    if name.contains(|c: char| c.is_whitespace() || c == '#') {
        return Err(FormatError {
            message: format!(
                "{what} name {name:?} contains whitespace or `#` — it would not survive a \
                 text round-trip; use the binary snapshot format"
            ),
            line: 0,
        });
    }
    Ok(())
}

/// The synthetic text name of node `v` on an anonymous graph.
fn synthetic_name(v: NodeId) -> String {
    format!("n{}", v.0)
}

/// Streams a graph in the text format (stable order) into any
/// [`fmt::Write`] sink — a `String`, or an adapter over a file — without
/// assembling the whole rendering in memory first.
///
/// Fails (before writing any edge) if a node or label name cannot be
/// represented in the whitespace-delimited format (`check_text_name`).
/// Anonymous graphs are written with synthetic `n{id}` names; parsing the
/// text back yields a *named* graph carrying those names.
pub fn write_graph_text<W: fmt::Write>(g: &GraphDb, out: &mut W) -> Result<(), FormatError> {
    // Validate every name once up front, so a rejected graph never leaves
    // a half-written rendering behind.
    if g.is_named() {
        for v in g.nodes() {
            check_text_name(g.node_name(v), "node")?;
        }
    }
    for (_, label) in g.alphabet().iter() {
        check_text_name(label, "label")?;
    }
    let io = |_| FormatError {
        message: "write error while rendering graph text".into(),
        line: 0,
    };
    let name = |v: NodeId| -> std::borrow::Cow<'_, str> {
        match g.try_node_name(v) {
            Some(n) => n.into(),
            None => synthetic_name(v).into(),
        }
    };
    for v in g.nodes() {
        if g.out_edges(v).is_empty() && g.in_edges(v).is_empty() {
            writeln!(out, "node {}", name(v)).map_err(io)?;
        }
    }
    for (u, s, v) in g.edges() {
        writeln!(out, "{} {} {}", name(u), g.alphabet().resolve(s), name(v)).map_err(io)?;
    }
    Ok(())
}

/// Renders a graph in the text format (stable order) into one `String`,
/// pre-sized from the edge count. See [`write_graph_text`] for the
/// streaming variant and the name restrictions.
pub fn to_graph_text(g: &GraphDb) -> Result<String, FormatError> {
    // ~3 names of ~8 bytes per edge line: close enough to skip most of
    // the doubling regrowth without measuring exactly.
    let mut out = String::with_capacity(32 * g.num_edges() + 16 * g.num_nodes().min(1024));
    write_graph_text(g, &mut out)?;
    Ok(out)
}

const MAGIC: &[u8; 4] = b"CRPQ";
/// Version written by [`to_binary`]: v2 = v1 plus a names-mode byte
/// before the node section (1 = named, 0 = anonymous), and since the
/// checksum revision a trailing CRC32 over the payload (everything between
/// the version byte and the checksum itself). [`from_binary`] decodes v1,
/// checksummed v2 and pre-checksum v2 (no trailing bytes) alike.
const VERSION: u8 = 2;
const NAMES_ANONYMOUS: u8 = 0;
const NAMES_NAMED: u8 = 1;

/// Largest node count an anonymous snapshot may declare. Anonymous node
/// ids are implicit, so the count has no bytes behind it and the
/// remaining-bytes bound of every other header count cannot apply; this
/// decoder limit keeps a hostile header from sizing per-node arrays at
/// billions of entries, while staying far above the 10⁷-node scale
/// workloads.
pub const MAX_ANONYMOUS_NODES: usize = 1 << 27;

/// The CRC-32/ISO-HDLC (IEEE 802.3, reflected 0xEDB88320) lookup table,
/// built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the integrity check of binary snapshots and
/// (via `crate::wal`) of write-ahead-log records. A flipped bit anywhere
/// in the payload changes the checksum, so a snapshot corrupted at rest
/// or in transit fails loudly at load instead of decoding into a
/// structurally different graph.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Whether `data` starts with the binary snapshot magic (`CRPQ`) — the
/// sniff front ends use to pick a decoder for an on-disk graph.
pub fn is_binary(data: &[u8]) -> bool {
    data.starts_with(MAGIC)
}

/// Decodes a graph in **either** on-disk format: the binary snapshot when
/// the magic matches ([`is_binary`]), the line-oriented text format
/// otherwise. Raw bytes that are neither (non-UTF-8 without the magic —
/// e.g. a truncated or foreign binary file) fail with a descriptive
/// [`FormatError`] instead of a UTF-8 panic.
pub fn parse_graph_auto(data: Vec<u8>) -> Result<GraphDb, FormatError> {
    if is_binary(&data) {
        from_binary(Bytes::from(data))
    } else {
        let text = String::from_utf8(data).map_err(|_| FormatError {
            message: "neither the CRPQ binary snapshot (bad magic) nor UTF-8 text".into(),
            line: 0,
        })?;
        parse_graph_text(&text)
    }
}

/// Encodes a graph into the binary snapshot format (version 2). Anonymous
/// graphs write no name table at all: just the node count. The buffer is
/// reserved at its exact final size up front, so encoding a multi-million
/// edge snapshot performs one allocation, not a doubling cascade.
pub fn to_binary(g: &GraphDb) -> Bytes {
    let name_section: usize = match g.names() {
        NodeNames::Named(_) => g.nodes().map(|v| 4 + g.node_name(v).len()).sum(),
        NodeNames::Anonymous => 0,
    };
    let label_section: usize = g.alphabet().iter().map(|(_, n)| 4 + n.len()).sum();
    let total =
        MAGIC.len() + 1 + 4 + label_section + 1 + 4 + name_section + 8 + 12 * g.num_edges() + 4;
    let mut buf = BytesMut::with_capacity(total);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    // labels
    buf.put_u32_le(g.alphabet().len() as u32);
    for (_, name) in g.alphabet().iter() {
        put_str(&mut buf, name);
    }
    // nodes
    match g.names() {
        NodeNames::Named(_) => {
            buf.put_u8(NAMES_NAMED);
            buf.put_u32_le(g.num_nodes() as u32);
            for v in g.nodes() {
                put_str(&mut buf, g.node_name(v));
            }
        }
        NodeNames::Anonymous => {
            buf.put_u8(NAMES_ANONYMOUS);
            buf.put_u32_le(g.num_nodes() as u32);
        }
    }
    // edges
    buf.put_u64_le(g.num_edges() as u64);
    for (u, s, v) in g.edges() {
        buf.put_u32_le(u.0);
        buf.put_u32_le(s.0);
        buf.put_u32_le(v.0);
    }
    // Trailing CRC32 over the payload (label/node/edge sections; the magic
    // and version byte are validated structurally before the checksum is
    // ever consulted).
    let checksum = crc32(&buf[MAGIC.len() + 1..]);
    buf.put_u32_le(checksum);
    debug_assert_eq!(buf.len(), total, "binary size pre-computation drifted");
    buf.freeze()
}

/// Decodes a binary snapshot (version 1 or 2; see `VERSION`).
///
/// Decode errors name the absolute byte offset of the failure, so a
/// corrupted or truncated snapshot can be located with a hex dump.
pub fn from_binary(mut data: Bytes) -> Result<GraphDb, FormatError> {
    let total = data.remaining();
    let err = |m: String, off: usize| FormatError {
        message: format!("{m} at byte offset {off}"),
        line: 0,
    };
    if data.remaining() < 5 || &data.copy_to_bytes(4)[..] != MAGIC {
        return Err(err("bad magic".into(), 0));
    }
    let version = data.get_u8();
    if version != 1 && version != 2 {
        return Err(err(format!("unsupported version {version}"), 4));
    }
    // Cheap refcounted clone of the unparsed payload: after the structural
    // decode we know how many bytes the sections consumed, and can verify
    // the trailing checksum (when present) against exactly those bytes.
    let payload = data.clone();
    let num_labels = checked_u32(&mut data, total, "label count")?;
    // Every count below is bounded before anything is sized by it: a
    // label or a named node takes at least its 4-byte length prefix, an
    // edge exactly 12 bytes.
    check_count(num_labels.into(), 4, &data, total, 4, "label count")?;
    let mut labels = crpq_util::Interner::new();
    let mut label_syms = Vec::with_capacity(num_labels as usize);
    for _ in 0..num_labels {
        let name = get_str(&mut data, total)?;
        label_syms.push(labels.intern(&name));
    }
    // v1 node sections are always named; v2 carries an explicit mode byte.
    let named = if version == 1 {
        true
    } else {
        if data.remaining() < 1 {
            return Err(err("truncated names mode".into(), total - data.remaining()));
        }
        match data.get_u8() {
            NAMES_NAMED => true,
            NAMES_ANONYMOUS => false,
            _ => {
                return Err(err(
                    "bad names mode byte".into(),
                    total - data.remaining() - 1,
                ))
            }
        }
    };
    let num_nodes = checked_u32(&mut data, total, "node count")? as usize;
    if named {
        check_count(num_nodes as u64, 4, &data, total, 4, "node count")?;
    } else if num_nodes > MAX_ANONYMOUS_NODES {
        return Err(err(
            format!(
                "anonymous node count {num_nodes} exceeds the decoder limit of \
                 {MAX_ANONYMOUS_NODES}"
            ),
            total - data.remaining() - 4,
        ));
    }
    let mut b = if named {
        let mut b = GraphBuilder::with_alphabet(labels);
        for _ in 0..num_nodes {
            let name = get_str(&mut data, total)?;
            b.node(&name);
        }
        if b.num_nodes() != num_nodes {
            return Err(err(
                "duplicate node name in snapshot".into(),
                total - data.remaining(),
            ));
        }
        b
    } else {
        GraphBuilder::anonymous_with_alphabet(num_nodes, labels)
    };
    if data.remaining() < 8 {
        return Err(err("truncated edge count".into(), total - data.remaining()));
    }
    let num_edges = data.get_u64_le();
    check_count(num_edges, 12, &data, total, 8, "edge count")?;
    for _ in 0..num_edges {
        let u = checked_u32(&mut data, total, "edge src")? as usize;
        let l = checked_u32(&mut data, total, "edge label")? as usize;
        let v = checked_u32(&mut data, total, "edge dst")? as usize;
        // Offset of this 12-byte edge record (all three ids consumed).
        let record_off = total - data.remaining() - 12;
        if u >= num_nodes || v >= num_nodes {
            return Err(err("edge endpoint out of range".into(), record_off));
        }
        let &l = label_syms
            .get(l)
            .ok_or_else(|| err("edge label out of range".into(), record_off))?;
        b.edge_ids(NodeId(u as u32), l, NodeId(v as u32));
    }
    // Integrity check. v1 and pre-checksum v2 snapshots end exactly at the
    // edge section; checksummed v2 carries 4 trailing CRC32 bytes over the
    // payload. Anything else is corruption.
    match (version, data.remaining()) {
        (_, 0) => {}
        (2, 4) => {
            let consumed = payload.len() - data.remaining();
            let expected = data.get_u32_le();
            let actual = crc32(&payload[..consumed]);
            if actual != expected {
                return Err(FormatError {
                    message: format!(
                        "checksum mismatch: snapshot payload hashes to {actual:#010x} but the \
                         trailer at byte offset {} says {expected:#010x} — the file is corrupted",
                        total - 4
                    ),
                    line: 0,
                });
            }
        }
        (_, n) => {
            return Err(err(
                format!("{n} unexpected trailing bytes after the edge section"),
                total - data.remaining(),
            ))
        }
    }
    Ok(b.finish())
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(data: &mut Bytes, total: usize) -> Result<String, FormatError> {
    let len = checked_u32(data, total, "string length")? as usize;
    if data.remaining() < len {
        return Err(FormatError {
            message: format!(
                "truncated string at byte offset {}",
                total - data.remaining()
            ),
            line: 0,
        });
    }
    let off = total - data.remaining();
    String::from_utf8(data.copy_to_bytes(len).to_vec()).map_err(|_| FormatError {
        message: format!("invalid utf-8 at byte offset {off}"),
        line: 0,
    })
}

/// Rejects a header `count` of records of at least `min_record` bytes each
/// that the bytes left after it cannot hold. The error names the offset of
/// the count field, which is `field_len` bytes long and was just consumed.
fn check_count(
    count: u64,
    min_record: u64,
    data: &Bytes,
    total: usize,
    field_len: usize,
    what: &str,
) -> Result<(), FormatError> {
    let left = data.remaining() as u64;
    if count <= left / min_record {
        return Ok(());
    }
    Err(FormatError {
        message: format!(
            "{what} {count} needs at least {min_record} bytes per record but only {left} \
             bytes follow, at byte offset {}",
            total - data.remaining() - field_len
        ),
        line: 0,
    })
}

fn checked_u32(data: &mut Bytes, total: usize, what: &str) -> Result<u32, FormatError> {
    if data.remaining() < 4 {
        return Err(FormatError {
            message: format!(
                "truncated {what} at byte offset {}",
                total - data.remaining()
            ),
            line: 0,
        });
    }
    Ok(data.get_u32_le())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a small sample
u a v
v b w   # chain
node lonely

w c u
";

    #[test]
    fn parse_text() {
        let g = parse_graph_text(SAMPLE).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.node_by_name("lonely").is_some());
    }

    #[test]
    fn text_roundtrip() {
        let g = parse_graph_text(SAMPLE).unwrap();
        let text = to_graph_text(&g).unwrap();
        let g2 = parse_graph_text(&text).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        let e1: Vec<_> = g
            .edges()
            .map(|(u, s, v)| {
                (
                    g.node_name(u).to_owned(),
                    g.alphabet().resolve(s).to_owned(),
                    g.node_name(v).to_owned(),
                )
            })
            .collect();
        let e2: Vec<_> = g2
            .edges()
            .map(|(u, s, v)| {
                (
                    g2.node_name(u).to_owned(),
                    g2.alphabet().resolve(s).to_owned(),
                    g2.node_name(v).to_owned(),
                )
            })
            .collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_graph_text("u a").is_err());
        assert!(parse_graph_text("u a v extra").is_err());
        let err = parse_graph_text("ok a b\nbroken").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn auto_detects_both_formats() {
        let g = parse_graph_text(SAMPLE).unwrap();
        // Binary bytes and text bytes both decode through the sniffer.
        let via_bin = parse_graph_auto(to_binary(&g).to_vec()).unwrap();
        assert_eq!(via_bin.num_edges(), g.num_edges());
        let via_text = parse_graph_auto(SAMPLE.as_bytes().to_vec()).unwrap();
        assert_eq!(via_text.num_edges(), g.num_edges());
        // Corrupted binary (magic intact, payload truncated) and raw
        // non-UTF-8 garbage both surface errors, never panics.
        let mut truncated = to_binary(&g).to_vec();
        truncated.truncate(9);
        assert!(parse_graph_auto(truncated).is_err());
        let err = parse_graph_auto(vec![0xff, 0xfe, 0x00, 0x01]).unwrap_err();
        assert!(err.message.contains("neither"), "{err}");
    }

    #[test]
    fn binary_roundtrip() {
        let g = parse_graph_text(SAMPLE).unwrap();
        let bytes = to_binary(&g);
        let g2 = from_binary(bytes).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (u, s, v) in g.edges() {
            let u2 = g2.node_by_name(g.node_name(u)).unwrap();
            let v2 = g2.node_by_name(g.node_name(v)).unwrap();
            let s2 = g2.alphabet().get(g.alphabet().resolve(s)).unwrap();
            assert!(g2.has_edge(u2, s2, v2));
        }
    }

    #[test]
    fn text_writer_rejects_unrepresentable_names() {
        // A node name with an interior space would parse back as two
        // tokens; `#` would truncate the line into a comment; an empty
        // name would vanish. All three must fail loudly, not corrupt.
        for bad in ["two words", "tab\there", "line\nbreak", "hash#tag", ""] {
            let mut b = crate::db::GraphBuilder::new();
            let v = b.node(bad);
            let u = b.node("ok");
            let l = b.label("a");
            b.edge_ids(u, l, v);
            let g = b.finish();
            let err = to_graph_text(&g).expect_err(&format!("name {bad:?} must be rejected"));
            assert!(err.message.contains("name"), "{err}");
            // The binary format is length-prefixed: the same graph
            // round-trips losslessly there.
            let g2 = from_binary(to_binary(&g)).unwrap();
            assert_eq!(g2.num_edges(), 1);
            assert!(g2.node_by_name(bad).is_some());
        }
        // Labels are validated too.
        let mut b = crate::db::GraphBuilder::new();
        b.edge("u", "bad label", "v");
        assert!(to_graph_text(&b.finish()).is_err());
        // Unicode names without whitespace are fine.
        let mut b = crate::db::GraphBuilder::new();
        b.edge("Gödel", "π", "Σ");
        let text = to_graph_text(&b.finish()).unwrap();
        let back = parse_graph_text(&text).unwrap();
        assert!(back.node_by_name("Gödel").is_some());
    }

    #[test]
    fn streaming_writer_matches_string_writer() {
        let g = parse_graph_text(SAMPLE).unwrap();
        let mut streamed = String::new();
        write_graph_text(&g, &mut streamed).unwrap();
        assert_eq!(streamed, to_graph_text(&g).unwrap());
    }

    #[test]
    fn anonymous_text_roundtrip_uses_synthetic_names() {
        let mut b = crate::db::GraphBuilder::anonymous(4);
        let a = b.label("a");
        b.edge_ids(NodeId(0), a, NodeId(2));
        b.edge_ids(NodeId(2), a, NodeId(1));
        let g = b.finish();
        let text = to_graph_text(&g).unwrap();
        assert!(text.contains("n0 a n2"), "{text}");
        assert!(text.contains("node n3"), "isolated node declared: {text}");
        // Text parsing names the nodes; the edge structure survives.
        let back = parse_graph_text(&text).unwrap();
        assert_eq!(back.num_nodes(), 4);
        assert_eq!(back.num_edges(), 2);
        let (n0, n2) = (
            back.node_by_name("n0").unwrap(),
            back.node_by_name("n2").unwrap(),
        );
        assert!(back.has_edge(n0, back.alphabet().get("a").unwrap(), n2));
    }

    #[test]
    fn anonymous_binary_roundtrip_is_lossless() {
        let mut b = crate::db::GraphBuilder::anonymous(5);
        let a = b.label("a");
        let l2 = b.label("l2");
        b.edge_ids(NodeId(0), a, NodeId(4));
        b.edge_ids(NodeId(4), l2, NodeId(3));
        let g = b.finish();
        let bytes = to_binary(&g);
        // Name section is empty: 5 nodes cost 0 bytes beyond the count
        // (and the CRC32 trailer is a flat 4 bytes).
        assert!(
            bytes.len() < 64,
            "snapshot unexpectedly large: {}",
            bytes.len()
        );
        let g2 = from_binary(bytes.clone()).unwrap();
        assert!(!g2.is_named(), "anonymity survives the snapshot");
        assert_eq!(g2.num_nodes(), 5);
        assert_eq!(g2.num_edges(), 2);
        for (u, s, v) in g.edges() {
            assert!(g2.has_edge(u, s, v));
        }
        // And through the sniffing front end too.
        assert!(is_binary(&bytes));
        let g3 = parse_graph_auto(bytes.to_vec()).unwrap();
        assert!(!g3.is_named());
    }

    /// The v2 encoding of a fixed graph is pinned byte for byte, so an
    /// index-layout change cannot silently reorder the edge section. The
    /// edges are added unsorted and with a duplicate.
    #[test]
    fn snapshot_bytes_of_a_fixed_graph_are_stable() {
        let hex =
            |g: &GraphDb| -> String { to_binary(g).iter().map(|x| format!("{x:02x}")).collect() };
        let mut b = GraphBuilder::new();
        b.edge("u", "b", "w");
        b.edge("u", "a", "v");
        b.edge("v", "c", "u");
        b.edge("u", "a", "v");
        b.edge("w", "a", "u");
        b.node("iso");
        assert_eq!(
            hex(&b.finish()),
            "435250510203000000010000006201000000610100000063010400000001000000750100\
             00007701000000760300000069736f040000000000000000000000000000000100000000\
             00000001000000020000000100000001000000000000000200000002000000000000\
             00bc22c7a3"
        );
        let mut b = GraphBuilder::anonymous(5);
        let (a, c) = (b.label("a"), b.label("c"));
        for (u, l, v) in [(3, c, 1), (0, a, 4), (3, a, 1), (0, a, 2), (4, c, 0)] {
            b.edge_ids(NodeId(u), l, NodeId(v));
        }
        assert_eq!(
            hex(&b.finish()),
            "435250510202000000010000006101000000630005000000050000000000000000000000\
             00000000020000000000000000000000040000000300000000000000010000000300\
             0000010000000100000004000000010000000000000005c28ee5"
        );
    }

    #[test]
    fn binary_v1_snapshots_still_decode() {
        // Hand-assemble a version-1 snapshot (no names-mode byte):
        // 1 label "a", 2 nodes "u"/"w", 1 edge u -a-> w.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(1);
        buf.put_u32_le(1);
        put_str(&mut buf, "a");
        buf.put_u32_le(2);
        put_str(&mut buf, "u");
        put_str(&mut buf, "w");
        buf.put_u64_le(1);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        let g = from_binary(buf.freeze()).unwrap();
        assert!(g.is_named());
        assert_eq!(g.num_nodes(), 2);
        let (u, w) = (g.node_by_name("u").unwrap(), g.node_by_name("w").unwrap());
        assert!(g.has_edge(u, g.alphabet().get("a").unwrap(), w));
    }

    #[test]
    fn checksum_catches_payload_corruption() {
        let g = parse_graph_text(SAMPLE).unwrap();
        let clean = to_binary(&g);
        // Sanity: the clean snapshot decodes (checksum verifies).
        from_binary(clean.clone()).unwrap();
        // Flip one bit in an edge id (deep in the payload, past every
        // length prefix, so the structural decode still succeeds and only
        // the checksum can catch it).
        let mut corrupt = clean.to_vec();
        // Low byte of the last edge's dst id: flipping bit 0 maps a valid
        // node id to another valid one, so the structural decode succeeds
        // and only the checksum can catch the corruption.
        let idx = corrupt.len() - 8;
        corrupt[idx] ^= 0x01;
        let err = from_binary(Bytes::from(corrupt)).unwrap_err();
        assert!(err.message.contains("checksum mismatch"), "{err}");
        // A corrupted checksum trailer is caught too.
        let mut bad_trailer = clean.to_vec();
        let last = bad_trailer.len() - 1;
        bad_trailer[last] ^= 0xFF;
        assert!(from_binary(Bytes::from(bad_trailer))
            .unwrap_err()
            .message
            .contains("checksum mismatch"));
    }

    #[test]
    fn binary_v2_without_checksum_still_decodes() {
        // Pre-checksum v2 snapshots end exactly at the edge section. A
        // current writer's output with the 4 trailer bytes stripped is
        // byte-identical to one, so it must decode cleanly.
        let g = parse_graph_text(SAMPLE).unwrap();
        let mut legacy = to_binary(&g).to_vec();
        legacy.truncate(legacy.len() - 4);
        let g2 = from_binary(Bytes::from(legacy)).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        // But a partially-truncated trailer is corruption, not legacy.
        let mut ragged = to_binary(&g).to_vec();
        ragged.truncate(ragged.len() - 2);
        assert!(from_binary(Bytes::from(ragged))
            .unwrap_err()
            .message
            .contains("trailing bytes"));
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // IEEE CRC-32 check value (every implementation's smoke vector).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Decodes `bytes`, which must fail with an error naming a byte offset
    /// (and must not abort by sizing an allocation from the header).
    fn decode_err(bytes: &[u8]) -> String {
        let e =
            from_binary(Bytes::from(bytes.to_vec())).expect_err("hostile header must be rejected");
        assert!(e.message.contains("byte offset"), "{}", e.message);
        e.message
    }

    #[test]
    fn absurd_label_count_is_an_error() {
        let msg = decode_err(b"CRPQ\x01\xff\xff\xff\xff");
        assert!(msg.contains("label count 4294967295"), "{msg}");
        assert!(msg.ends_with("byte offset 5"), "{msg}");
    }

    #[test]
    fn absurd_anonymous_node_count_is_an_error() {
        let mut bytes = b"CRPQ\x02".to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes()); // no labels
        bytes.push(NAMES_ANONYMOUS);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // no edges
        let msg = decode_err(&bytes);
        assert!(msg.contains("decoder limit"), "{msg}");
        assert!(msg.ends_with("byte offset 10"), "{msg}");
    }

    #[test]
    fn absurd_edge_count_is_an_error() {
        let mut bytes = b"CRPQ\x02".to_vec();
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(NAMES_ANONYMOUS);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 12]); // one edge's worth, not 2⁶⁴
        let msg = decode_err(&bytes);
        assert!(msg.contains("edge count"), "{msg}");
        assert!(msg.ends_with("byte offset 14"), "{msg}");
    }

    #[test]
    fn binary_rejects_garbage() {
        assert!(from_binary(Bytes::from_static(b"nope")).is_err());
        assert!(from_binary(Bytes::from_static(b"CRPQ\x02")).is_err());
        let g = parse_graph_text("u a v").unwrap();
        let mut bytes = to_binary(&g).to_vec();
        bytes.truncate(bytes.len() - 3);
        assert!(from_binary(Bytes::from(bytes)).is_err());
    }

    #[test]
    fn binary_errors_name_the_byte_offset() {
        let g = parse_graph_text(SAMPLE).unwrap();
        let clean = to_binary(&g).to_vec();
        // Truncation mid-payload: the error names where the bytes ran out.
        let mut truncated = clean.clone();
        truncated.truncate(clean.len() / 2);
        let err = from_binary(Bytes::from(truncated)).unwrap_err();
        assert!(err.message.contains("byte offset"), "{err}");
        // Checksum corruption: the error names the trailer offset.
        let mut corrupt = clean.clone();
        let idx = corrupt.len() - 8;
        corrupt[idx] ^= 0x01;
        let err = from_binary(Bytes::from(corrupt)).unwrap_err();
        assert!(
            err.message
                .contains(&format!("byte offset {}", clean.len() - 4)),
            "{err}"
        );
    }
}
