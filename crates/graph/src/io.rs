//! SNAP-style edge-list reading and writing.
//!
//! The evaluation datasets the paper uses are distributed as whitespace-
//! separated edge lists with `#` comment lines; this module parses that
//! format so real downloads can replace the synthetic analogs in
//! [`crate::datasets`]. It also holds [`write_atomic`], the one
//! crash-safe file replacement every writer in the workspace uses.

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, VertexId};
use crate::error::GraphError;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parses an edge list from any reader.
///
/// Each non-comment line contains two vertex IDs separated by whitespace
/// (extra trailing columns, as in weighted SNAP dumps, are ignored); lines
/// starting with `#` or `%` and blank lines are skipped, and CRLF line
/// endings plus leading/trailing whitespace are tolerated. The graph is
/// treated as undirected (duplicate directions collapse).
///
/// A mutable reference can be passed as the reader, e.g. `&mut file`.
///
/// # Errors
///
/// Every error names the offending 1-based input line:
/// [`GraphError::Parse`] for malformed lines,
/// [`GraphError::VertexIdOverflow`] for IDs above `u32::MAX - 1`,
/// [`GraphError::Io`] for underlying I/O failures (including invalid
/// UTF-8) and [`GraphError::Empty`] when no vertex was found. The parser
/// never panics, no matter how corrupted the input is.
///
/// # Example
///
/// ```
/// use gramer_graph::io::read_edge_list;
///
/// # fn main() -> Result<(), gramer_graph::GraphError> {
/// let text = "# tiny graph\n0 1\n1 2\n";
/// let g = read_edge_list(text.as_bytes())?;
/// assert_eq!(g.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let reader = BufReader::new(reader);
    let mut b = GraphBuilder::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let (u, v) = match (it.next(), it.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(GraphError::Parse {
                    line: lineno + 1,
                    content: line.clone(),
                })
            }
        };
        let parse = |s: &str| -> Result<VertexId, GraphError> {
            let raw: u64 = s.parse().map_err(|_| GraphError::Parse {
                line: lineno + 1,
                content: line.clone(),
            })?;
            if raw >= VertexId::MAX as u64 {
                return Err(GraphError::VertexIdOverflow {
                    id: raw,
                    line: lineno + 1,
                });
            }
            Ok(raw as VertexId)
        };
        b.add_edge(parse(u)?, parse(v)?);
    }
    b.build()
}

/// Reads an edge list from a file path.
///
/// # Errors
///
/// Propagates the same errors as [`read_edge_list`], plus file-open
/// failures as [`GraphError::Io`].
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes `graph` as an edge list (one `u v` line per undirected edge,
/// `u < v`).
///
/// A mutable reference can be passed as the writer, e.g. `&mut buf`.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# gramer edge list: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for v in graph.vertices() {
        for &u in graph.neighbors(v) {
            if v < u {
                writeln!(writer, "{v} {u}")?;
            }
        }
    }
    Ok(())
}

/// Magic bytes of the binary CSR format. Public so tools (e.g.
/// `gramer-artifact build`) can sniff whether an input file is binary
/// CSR or a text edge list before choosing a parser.
pub const BINARY_MAGIC: &[u8; 8] = b"GRAMERv1";

/// Writes `graph` in a compact binary CSR format (magic, counts, offsets
/// as `u64`, adjacency as `u32`, labels as `u16`, all little-endian).
///
/// Unlike the text edge list this round-trips isolated vertices and
/// labels, and loads in O(bytes) — useful for large preprocessed graphs.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failure.
pub fn write_binary<W: Write>(graph: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    writer.write_all(BINARY_MAGIC)?;
    let n = graph.num_vertices() as u64;
    let m = graph.adjacency_len() as u64;
    writer.write_all(&n.to_le_bytes())?;
    writer.write_all(&m.to_le_bytes())?;
    for v in graph.vertices() {
        writer.write_all(&(graph.first_edge_offset(v) as u64).to_le_bytes())?;
    }
    writer.write_all(&m.to_le_bytes())?;
    for v in graph.vertices() {
        for &u in graph.neighbors(v) {
            writer.write_all(&u.to_le_bytes())?;
        }
    }
    for &l in graph.labels() {
        writer.write_all(&l.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a graph written by [`write_binary`].
///
/// # Errors
///
/// Returns [`GraphError::Parse`] (line 0) if the header or structure is
/// malformed, or [`GraphError::Io`] on read failure.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let malformed = |what: &str| GraphError::Parse {
        line: 0,
        content: format!("binary CSR: {what}"),
    };
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(malformed("bad magic"));
    }
    let mut u64buf = [0u8; 8];
    let mut read_u64 = |r: &mut R| -> Result<u64, GraphError> {
        r.read_exact(&mut u64buf)?;
        Ok(u64::from_le_bytes(u64buf))
    };
    let n = read_u64(&mut reader)? as usize;
    let m = read_u64(&mut reader)? as usize;
    if n == 0 {
        return Err(GraphError::Empty);
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        let mut b = [0u8; 8];
        reader.read_exact(&mut b)?;
        offsets.push(u64::from_le_bytes(b) as usize);
    }
    if offsets[0] != 0 || offsets[n] != m || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(malformed("inconsistent offsets"));
    }
    let mut b = GraphBuilder::with_capacity(m / 2);
    b.ensure_vertex((n - 1) as VertexId);
    let mut adjacency = Vec::with_capacity(m);
    for _ in 0..m {
        let mut buf = [0u8; 4];
        reader.read_exact(&mut buf)?;
        adjacency.push(u32::from_le_bytes(buf));
    }
    for v in 0..n {
        for &u in &adjacency[offsets[v]..offsets[v + 1]] {
            if u as usize >= n {
                return Err(GraphError::VertexIdOverflow {
                    id: u as u64,
                    line: 0,
                });
            }
            if (v as VertexId) < u {
                b.add_edge(v as VertexId, u);
            }
        }
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let mut buf = [0u8; 2];
        reader.read_exact(&mut buf)?;
        labels.push(u16::from_le_bytes(buf));
    }
    b.labels(labels);
    b.build()
}

/// Replaces `path` with `bytes` crash-safely: temp sibling, fsync,
/// rename, then fsync of the parent directory, without which POSIX does
/// not make the rename durable. Readers see the old or the new file,
/// never a mix; the *(pid, per-process counter)* temp suffix keeps
/// concurrent writers apart (the last rename wins).
///
/// # Errors
///
/// Any I/O error. One before the rename removes the temp file and
/// leaves `path` as it was.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or(std::io::ErrorKind::InvalidInput)?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let seq = WRITE_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = name.to_os_string();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = dir.join(tmp);
    let replaced = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
        .and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = replaced {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    std::fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn parse_with_comments_and_blanks() {
        let text = "# comment\n% also comment\n\n0 1\n2\t3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\nbroken\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn one_token_line_is_error() {
        assert!(matches!(
            read_edge_list("5\n".as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn overflow_id_rejected_with_line() {
        let text = format!("0 1\n0 {}\n", u64::from(u32::MAX));
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::VertexIdOverflow { id, line }) => {
                assert_eq!(id, u64::from(u32::MAX));
                assert_eq!(line, 2);
            }
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn crlf_and_trailing_whitespace_tolerated() {
        let text = "# header\r\n0 1 \r\n1 2\t\r\n  2 3\r\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn extra_columns_ignored() {
        // SNAP dumps sometimes carry weights or timestamps.
        let g = read_edge_list("0 1 0.5\n1 2 1612137600\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(
            read_edge_list("# nothing\n".as_bytes()),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn roundtrip() {
        // Barabási–Albert graphs have no isolated vertices, which the
        // edge-list format cannot express.
        let g = generate::barabasi_albert(40, 2, 8);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn roundtrip_preserves_edges_with_isolated_vertices() {
        let g = generate::rmat(5, 60, generate::RmatParams::default(), 8);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g.num_edges(), g2.num_edges());
        for v in g2.vertices() {
            for &u in g2.neighbors(v) {
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        // Labels AND isolated vertices survive, unlike the text format.
        let base = generate::rmat(5, 60, generate::RmatParams::default(), 8);
        let g = generate::with_random_labels(&base, 5, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let r = read_binary(&b"NOTGRAMER-at-all"[..]);
        assert!(matches!(r, Err(GraphError::Parse { .. })));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = generate::complete(5);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn duplicate_directions_collapse() {
        let g = read_edge_list("0 1\n1 0\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    /// Seeded byte-level corruption of a valid edge list: the parser must
    /// never panic, and every structured error must point at a line that
    /// actually exists in the mutated input.
    #[test]
    fn corrupted_inputs_never_panic_and_errors_carry_lines() {
        let g = generate::barabasi_albert(30, 2, 3);
        let mut base = Vec::new();
        write_edge_list(&g, &mut base).unwrap();

        // Small deterministic LCG so the test needs no RNG dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };

        for round in 0..400 {
            let mut buf = base.clone();
            let flips = 1 + (next() as usize % 6);
            for _ in 0..flips {
                let i = next() as usize % buf.len();
                buf[i] = (next() & 0xFF) as u8;
            }
            let total_lines = buf.split(|&b| b == b'\n').count();
            match read_edge_list(buf.as_slice()) {
                Ok(_) | Err(GraphError::Io(_)) | Err(GraphError::Empty) => {}
                Err(GraphError::Parse { line, content }) => {
                    assert!(
                        line >= 1 && line <= total_lines,
                        "round {round}: parse error line {line} out of range"
                    );
                    // The reported content must be the actual input line
                    // (modulo the trailing CR that `lines()` strips).
                    let raw: Vec<&[u8]> = buf.split(|&b| b == b'\n').collect();
                    let expected = raw[line - 1].strip_suffix(b"\r").unwrap_or(raw[line - 1]);
                    assert_eq!(
                        String::from_utf8_lossy(expected),
                        content,
                        "round {round}: error content does not match input line"
                    );
                }
                Err(GraphError::VertexIdOverflow { line, .. }) => {
                    assert!(line >= 1 && line <= total_lines);
                }
                Err(other) => panic!("round {round}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn write_atomic_replaces_whole_files_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("gramer-write-atomic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        write_atomic(&path, b"first\n").unwrap();
        write_atomic(&path, b"second\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second\n");
        // A missing parent fails cleanly and leaves nothing behind.
        assert!(write_atomic(&dir.join("gone").join("x"), b"x").is_err());
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["out.txt"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
