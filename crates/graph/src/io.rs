//! Persistence for topologies and weight vectors.
//!
//! Topologies, and the weight files users exchange, use a deliberately
//! simple, dependency-free line format. Floats round-trip exactly via
//! Rust's shortest-representation formatting.
//!
//! ```text
//! privpath-topology v1
//! nodes 3
//! directed false
//! edges 2
//! 0 1
//! 1 2
//! ```
//!
//! Files the program rewrites on every weight update (release files, the
//! store's private weights, continual tree state) carry their vectors as
//! a **binary body** instead: one `body <byte count> <checksum>` line,
//! the checksum as 16 lowercase hex digits of [`checksum64`], followed by
//! exactly that many bytes, which end the file. Vectors in a body are
//! little-endian `f64`s ([`put_f64s`] / [`take_f64s`]), so every value —
//! `-0.0`, subnormals and NaN payloads included — round-trips bit for
//! bit, with no text encoding on the write path.
//!
//! ```text
//! privpath-weights v2
//! len 2
//! body 16 <checksum>
//! <16 bytes>
//! ```

use crate::{EdgeWeights, NodeId, Topology};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Read, Write};

/// Errors from reading or writing the persistence format.
#[derive(Debug)]
pub enum IoError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The input did not match the expected format.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A binary body failed its length or checksum check, or bytes
    /// followed it.
    Body(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Body(message) => write!(f, "corrupt body: {message}"),
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } | IoError::Body(_) => None,
        }
    }
}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

/// Writes a topology in the v1 text format.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_topology(out: &mut impl Write, topo: &Topology) -> Result<(), IoError> {
    writeln!(out, "privpath-topology v1")?;
    writeln!(out, "nodes {}", topo.num_nodes())?;
    writeln!(out, "directed {}", topo.is_directed())?;
    writeln!(out, "edges {}", topo.num_edges())?;
    for e in topo.edge_ids() {
        let (u, v) = topo.endpoints(e);
        writeln!(out, "{} {}", u.index(), v.index())?;
    }
    Ok(())
}

/// Reads a topology written by [`write_topology`]. Edge ids are preserved
/// (insertion order), so weight vectors stay aligned.
///
/// # Errors
/// [`IoError::Parse`] on any malformed line.
pub fn read_topology(input: impl BufRead) -> Result<Topology, IoError> {
    let mut lines = input.lines().enumerate();
    let mut next = |expect: &str| -> Result<(usize, String), IoError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(parse_err(i + 1, e.to_string())),
            None => Err(parse_err(
                0,
                format!("unexpected end of input, expected {expect}"),
            )),
        }
    };

    let (ln, header) = next("header")?;
    if header.trim() != "privpath-topology v1" {
        return Err(parse_err(ln, format!("bad header {header:?}")));
    }
    let (ln, nodes_line) = next("nodes")?;
    let n: usize = nodes_line
        .strip_prefix("nodes ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| parse_err(ln, "expected `nodes <count>`"))?;
    let (ln, directed_line) = next("directed")?;
    let directed: bool = directed_line
        .strip_prefix("directed ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| parse_err(ln, "expected `directed <bool>`"))?;
    let (ln, edges_line) = next("edges")?;
    let m: usize = edges_line
        .strip_prefix("edges ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| parse_err(ln, "expected `edges <count>`"))?;

    let mut builder = if directed {
        Topology::builder_directed(n)
    } else {
        Topology::builder(n)
    };
    for _ in 0..m {
        let (ln, edge_line) = next("edge endpoints")?;
        let mut parts = edge_line.split_whitespace();
        let parse_endpoint = |tok: Option<&str>| -> Result<usize, IoError> {
            tok.and_then(|t| t.parse().ok())
                .ok_or_else(|| parse_err(ln, "expected `<u> <v>`"))
        };
        let u = parse_endpoint(parts.next())?;
        let v = parse_endpoint(parts.next())?;
        if parts.next().is_some() {
            return Err(parse_err(ln, "trailing tokens on edge line"));
        }
        builder
            .try_add_edge(NodeId::new(u), NodeId::new(v))
            .map_err(|e| parse_err(ln, e.to_string()))?;
    }
    Ok(builder.build())
}

/// Writes a weight vector in the v1 text format (one float per line,
/// exact round-trip formatting).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_weights(out: &mut impl Write, weights: &EdgeWeights) -> Result<(), IoError> {
    writeln!(out, "privpath-weights v1")?;
    writeln!(out, "len {}", weights.len())?;
    for (_, w) in weights.iter() {
        writeln!(out, "{w:?}")?;
    }
    Ok(())
}

/// Reads a weight vector written by [`write_weights`].
///
/// # Errors
/// [`IoError::Parse`] on any malformed line or non-finite value.
pub fn read_weights(input: impl BufRead) -> Result<EdgeWeights, IoError> {
    let mut lines = input.lines().enumerate();
    let mut next = |expect: &str| -> Result<(usize, String), IoError> {
        match lines.next() {
            Some((i, Ok(l))) => Ok((i + 1, l)),
            Some((i, Err(e))) => Err(parse_err(i + 1, e.to_string())),
            None => Err(parse_err(
                0,
                format!("unexpected end of input, expected {expect}"),
            )),
        }
    };
    let (ln, header) = next("header")?;
    if header.trim() != "privpath-weights v1" {
        return Err(parse_err(ln, format!("bad header {header:?}")));
    }
    let (ln, len_line) = next("len")?;
    let len: usize = len_line
        .strip_prefix("len ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| parse_err(ln, "expected `len <count>`"))?;
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        let (ln, value_line) = next("weight")?;
        let v: f64 = value_line
            .trim()
            .parse()
            .map_err(|_| parse_err(ln, format!("bad float {value_line:?}")))?;
        values.push(v);
    }
    EdgeWeights::new(values).map_err(|e| parse_err(0, e.to_string()))
}

/// A std-only 64-bit checksum: one multiply-xor-rotate step per
/// little-endian 8-byte word (the length seeds the state, a zero-padded
/// word absorbs the tail), then the splitmix64 finalizer. Each step is a
/// bijection of the state for a fixed word and of the word for a fixed
/// state, so any change confined to one word — a flipped byte anywhere —
/// always changes the checksum. It detects corruption; it is not a MAC.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let mut h = (bytes.len() as u64) ^ 0x243f_6a88_85a3_08d3;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        h = step(h, u64::from_le_bytes(w));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(tail));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Appends `values` to a body as little-endian `f64` bytes.
pub fn put_f64s(body: &mut Vec<u8>, values: &[f64]) {
    body.reserve(values.len().saturating_mul(8));
    for v in values {
        body.extend_from_slice(&v.to_le_bytes());
    }
}

/// Takes `count` little-endian `f64`s off the front of `body`.
///
/// # Errors
/// [`IoError::Body`] when fewer than `count` values remain.
pub fn take_f64s(body: &mut &[u8], count: usize) -> Result<Vec<f64>, IoError> {
    let bytes = take_bytes(body, count.checked_mul(8))?;
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            f64::from_le_bytes(w)
        })
        .collect())
}

/// Takes `len` bytes off the front of `body` (`None` stands for a length
/// that overflowed while the caller computed it).
///
/// # Errors
/// [`IoError::Body`] when fewer than `len` bytes remain.
pub fn take_bytes<'a>(body: &mut &'a [u8], len: Option<usize>) -> Result<&'a [u8], IoError> {
    match len.filter(|&len| len <= body.len()) {
        Some(len) => {
            let (head, rest) = body.split_at(len);
            *body = rest;
            Ok(head)
        }
        None => Err(IoError::Body(format!(
            "body ends early ({} bytes left)",
            body.len()
        ))),
    }
}

/// Writes a binary body: its `body <byte count> <checksum>` line, then
/// the bytes. The body must be the last section of its file.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_body(out: &mut impl Write, body: &[u8]) -> Result<(), IoError> {
    writeln!(out, "body {} {:016x}", body.len(), checksum64(body))?;
    out.write_all(body)?;
    Ok(())
}

/// Reads a body written by [`write_body`] whose length the file's header
/// lines fixed at `expect_len` bytes (`None`: that length overflowed).
/// Refuses a different declared length before reading, a short read, a
/// checksum mismatch, and any byte after the body.
///
/// # Errors
/// [`IoError::Parse`] for a malformed `body` line (line numbers are not
/// tracked here, so it reports line 0); [`IoError::Body`] for the rest.
pub fn read_body(input: &mut impl BufRead, expect_len: Option<usize>) -> Result<Vec<u8>, IoError> {
    let mut line = String::new();
    input.read_line(&mut line)?;
    let (len, sum) = line
        .trim_end_matches('\n')
        .strip_prefix("body ")
        .and_then(|rest| rest.split_once(' '))
        .and_then(|(len, sum)| {
            if sum.len() != 16 {
                return None;
            }
            Some((
                len.parse::<usize>().ok()?,
                u64::from_str_radix(sum, 16).ok()?,
            ))
        })
        .ok_or_else(|| {
            parse_err(
                0,
                format!("expected `body <bytes> <checksum>`, got {line:?}"),
            )
        })?;
    let expect = expect_len.ok_or_else(|| IoError::Body("header counts overflow".into()))?;
    if len != expect {
        return Err(IoError::Body(format!(
            "body declares {len} bytes, the header implies {expect}"
        )));
    }
    // No up-front allocation of a length read from the file: a short
    // file ends the read, and the length check below refuses it.
    let mut body = Vec::new();
    input.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(IoError::Body(format!(
            "truncated: {} of {len} bytes",
            body.len()
        )));
    }
    if checksum64(&body) != sum {
        return Err(IoError::Body("checksum mismatch".into()));
    }
    if !input.fill_buf()?.is_empty() {
        return Err(IoError::Body("trailing bytes after the body".into()));
    }
    Ok(body)
}

/// Writes a weight vector in the binary `privpath-weights v2` form the
/// store keeps its private weights in.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_weights_binary(out: &mut impl Write, weights: &EdgeWeights) -> Result<(), IoError> {
    writeln!(out, "privpath-weights v2")?;
    writeln!(out, "len {}", weights.len())?;
    let mut body = Vec::new();
    put_f64s(&mut body, weights.as_slice());
    write_body(out, &body)
}

/// Reads a weight vector written by [`write_weights_binary`].
///
/// # Errors
/// [`IoError::Parse`] on a malformed header (the text `privpath-weights
/// v1` form included), [`IoError::Body`] on a corrupt body, and a parse
/// error on a non-finite value.
pub fn read_weights_binary(mut input: impl BufRead) -> Result<EdgeWeights, IoError> {
    let mut line = String::new();
    input.read_line(&mut line)?;
    if line.trim_end() != "privpath-weights v2" {
        return Err(parse_err(1, format!("bad header {:?}", line.trim_end())));
    }
    line.clear();
    input.read_line(&mut line)?;
    let len: usize = line
        .trim_end()
        .strip_prefix("len ")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err(2, "expected `len <count>`"))?;
    let body = read_body(&mut input, len.checked_mul(8))?;
    let values = take_f64s(&mut body.as_slice(), len)?;
    EdgeWeights::new(values).map_err(|e| parse_err(0, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gnm_graph, uniform_weights};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::BufReader;

    fn roundtrip_topo(topo: &Topology) -> Topology {
        let mut buf = Vec::new();
        write_topology(&mut buf, topo).unwrap();
        read_topology(BufReader::new(buf.as_slice())).unwrap()
    }

    #[test]
    fn topology_roundtrip_preserves_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let topo = gnm_graph(20, 50, &mut rng);
        let back = roundtrip_topo(&topo);
        assert_eq!(back.num_nodes(), topo.num_nodes());
        assert_eq!(back.num_edges(), topo.num_edges());
        assert_eq!(back.is_directed(), topo.is_directed());
        for e in topo.edge_ids() {
            assert_eq!(back.endpoints(e), topo.endpoints(e));
        }
    }

    #[test]
    fn directed_and_multigraph_roundtrip() {
        let mut b = Topology::builder_directed(3);
        b.add_edge(NodeId::new(0), NodeId::new(1));
        b.add_edge(NodeId::new(0), NodeId::new(1)); // parallel
        b.add_edge(NodeId::new(2), NodeId::new(2)); // self loop
        let topo = b.build();
        let back = roundtrip_topo(&topo);
        assert!(back.is_directed());
        assert_eq!(back.num_edges(), 3);
        assert_eq!(
            back.endpoints(crate::EdgeId::new(2)),
            (NodeId::new(2), NodeId::new(2))
        );
    }

    #[test]
    fn weights_roundtrip_bit_exact() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = uniform_weights(40, -5.0, 5.0, &mut rng);
        let mut buf = Vec::new();
        write_weights(&mut buf, &w).unwrap();
        let back = read_weights(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(
            back.as_slice(),
            w.as_slice(),
            "floats must round-trip exactly"
        );
    }

    #[test]
    fn special_float_values_roundtrip() {
        let w = EdgeWeights::new(vec![0.0, -0.0, 1e-300, 1e300, 0.1 + 0.2]).unwrap();
        let mut buf = Vec::new();
        write_weights(&mut buf, &w).unwrap();
        let back = read_weights(BufReader::new(buf.as_slice())).unwrap();
        for (a, b) in back.as_slice().iter().zip(w.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn malformed_inputs_rejected_with_line_numbers() {
        let cases: Vec<(&str, usize)> = vec![
            ("wrong header\n", 1),
            ("privpath-topology v1\nnope\n", 2),
            ("privpath-topology v1\nnodes 2\ndirected maybe\n", 3),
            (
                "privpath-topology v1\nnodes 2\ndirected false\nedges 1\n0\n",
                5,
            ),
            (
                "privpath-topology v1\nnodes 2\ndirected false\nedges 1\n0 5\n",
                5,
            ),
            (
                "privpath-topology v1\nnodes 2\ndirected false\nedges 1\n0 1 9\n",
                5,
            ),
        ];
        for (input, want_line) in cases {
            match read_topology(BufReader::new(input.as_bytes())) {
                Err(IoError::Parse { line, .. }) => {
                    assert_eq!(line, want_line, "input {input:?}");
                }
                other => panic!("input {input:?}: expected parse error, got {other:?}"),
            }
        }
        assert!(read_weights(BufReader::new(
            "privpath-weights v1\nlen 1\nNaN\n".as_bytes()
        ))
        .is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let input = "privpath-topology v1\nnodes 2\ndirected false\nedges 3\n0 1\n";
        assert!(read_topology(BufReader::new(input.as_bytes())).is_err());
        let input = "privpath-weights v1\nlen 3\n1.0\n";
        assert!(read_weights(BufReader::new(input.as_bytes())).is_err());
    }

    #[test]
    fn checksum_sees_every_single_byte_flip() {
        let bytes: Vec<u8> = (0..37u8).map(|b| b.wrapping_mul(97)).collect();
        let sum = checksum64(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), sum, "byte {i} bit {bit}");
            }
        }
        // The length is part of the sum: trailing zeros are not padding.
        assert_ne!(checksum64(&[1, 0]), checksum64(&[1]));
        assert_ne!(checksum64(&[]), checksum64(&[0]));
    }

    #[test]
    fn body_framing_refuses_damage() {
        let mut file = Vec::new();
        write_body(&mut file, b"0123456789abcdef").unwrap();
        assert_eq!(
            read_body(&mut file.as_slice(), Some(16)).unwrap(),
            b"0123456789abcdef"
        );
        let body_error = |input: &[u8], expect: Option<usize>| match read_body(
            &mut BufReader::new(input),
            expect,
        ) {
            Err(IoError::Body(msg)) => msg,
            other => panic!("expected a body error, got {other:?}"),
        };
        assert!(body_error(&file, Some(15)).contains("declares 16"));
        assert!(body_error(&file, None).contains("overflow"));
        assert!(body_error(&file[..file.len() - 1], Some(16)).contains("truncated"));
        let mut flipped = file.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(body_error(&flipped, Some(16)).contains("checksum"));
        let mut longer = file.clone();
        longer.push(0);
        assert!(body_error(&longer, Some(16)).contains("trailing"));
        assert!(matches!(
            read_body(&mut "body x y\n".as_bytes(), Some(0)),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn binary_weights_roundtrip_and_refuse_the_text_form() {
        let w = EdgeWeights::new(vec![0.0, -0.0, 5e-324, f64::MAX, 0.1 + 0.2]).unwrap();
        let mut buf = Vec::new();
        write_weights_binary(&mut buf, &w).unwrap();
        assert_eq!(
            buf.len(),
            "privpath-weights v2\nlen 5\nbody 40 ".len() + 17 + 40
        );
        let back = read_weights_binary(buf.as_slice()).unwrap();
        for (a, b) in back.as_slice().iter().zip(w.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let mut text = Vec::new();
        write_weights(&mut text, &w).unwrap();
        match read_weights_binary(text.as_slice()) {
            Err(IoError::Parse { message, .. }) => assert!(message.starts_with("bad header")),
            other => panic!("expected a bad header, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_roundtrip() {
        let topo = Topology::builder(0).build();
        let back = roundtrip_topo(&topo);
        assert_eq!(back.num_nodes(), 0);
        let w = EdgeWeights::zeros(0);
        let mut buf = Vec::new();
        write_weights(&mut buf, &w).unwrap();
        assert_eq!(
            read_weights(BufReader::new(buf.as_slice())).unwrap().len(),
            0
        );
    }
}
