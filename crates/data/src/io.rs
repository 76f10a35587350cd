//! Sparse-tensor I/O: a plain COO text format (JSON goes through
//! `SparseTensor`'s serde implementations).
//!
//! The text format matches the de-facto standard used by FROSTT/SPLATT-style
//! tools: a header `%shape I1 I2 … IN`, then one `i1 i2 … iN value` line per
//! nonzero (1-based indices, as those tools expect).

use dismastd_tensor::{Result, SparseTensor, SparseTensorBuilder, TensorError};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Writes `tensor` in COO text format.
///
/// # Errors
/// Returns [`TensorError::InvalidArgument`] wrapping any I/O failure.
pub fn write_coo_text(tensor: &SparseTensor, w: impl Write) -> Result<()> {
    let mut w = BufWriter::new(w);
    let io_err = |e: std::io::Error| TensorError::InvalidArgument(format!("io error: {e}"));
    write!(w, "%shape").map_err(io_err)?;
    for &s in tensor.shape() {
        write!(w, " {s}").map_err(io_err)?;
    }
    writeln!(w).map_err(io_err)?;
    for (idx, v) in tensor.iter() {
        for &i in idx {
            write!(w, "{} ", i + 1).map_err(io_err)?;
        }
        writeln!(w, "{v}").map_err(io_err)?;
    }
    w.flush().map_err(io_err)
}

/// Reads a tensor written by [`write_coo_text`].
///
/// Lines starting with `#` and `%`-prefixed lines other than the `%shape`
/// header (the FROSTT comment convention) are skipped, as are blank lines.
/// Indices are 1-based on disk.  Exactly one `%shape` header is allowed: a
/// second one is rejected rather than silently discarding everything parsed
/// before it.
///
/// # Errors
/// Returns [`TensorError::InvalidArgument`] on malformed input, a duplicate
/// `%shape` header, or I/O error.
pub fn read_coo_text(r: impl Read) -> Result<SparseTensor> {
    let reader = BufReader::new(r);
    let bad = |msg: String| TensorError::InvalidArgument(msg);
    let mut state: Option<(Vec<usize>, SparseTensorBuilder)> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| bad(format!("io error: {e}")))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("%shape") {
            if state.is_some() {
                return Err(bad(format!(
                    "line {}: duplicate %shape header (one header per file)",
                    lineno + 1
                )));
            }
            let dims: std::result::Result<Vec<usize>, _> =
                rest.split_whitespace().map(str::parse).collect();
            let dims = dims.map_err(|e| bad(format!("line {}: bad shape: {e}", lineno + 1)))?;
            if dims.is_empty() {
                return Err(bad("empty shape header".into()));
            }
            state = Some((dims.clone(), SparseTensorBuilder::new(dims)));
            continue;
        }
        if line.starts_with('%') {
            // FROSTT-style comment line.
            continue;
        }
        let (shape, builder) = state
            .as_mut()
            .ok_or_else(|| bad("data before %shape header".into()))?;
        let mut parts = line.split_whitespace();
        let mut idx = Vec::with_capacity(shape.len());
        for _ in 0..shape.len() {
            let tok = parts
                .next()
                .ok_or_else(|| bad(format!("line {}: too few fields", lineno + 1)))?;
            let i: usize = tok
                .parse()
                .map_err(|e| bad(format!("line {}: bad index: {e}", lineno + 1)))?;
            if i == 0 {
                return Err(bad(format!("line {}: indices are 1-based", lineno + 1)));
            }
            idx.push(i - 1);
        }
        let vtok = parts
            .next()
            .ok_or_else(|| bad(format!("line {}: missing value", lineno + 1)))?;
        let v: f64 = vtok
            .parse()
            .map_err(|e| bad(format!("line {}: bad value: {e}", lineno + 1)))?;
        if parts.next().is_some() {
            return Err(bad(format!("line {}: too many fields", lineno + 1)));
        }
        builder.push(&idx, v)?;
    }
    state
        .ok_or_else(|| bad("missing %shape header".into()))?
        .1
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_json(tensor: &SparseTensor) -> String {
        serde_json::to_string(tensor).unwrap()
    }

    /// A tensor read from JSON — checked, not trusted (entries may be
    /// unsorted or repeated; they are kept as written): malformed JSON is
    /// `InvalidArgument`, a document that is not a tensor keeps
    /// `SparseTensor::try_from`'s typed refusal.
    fn from_json(s: &str) -> Result<SparseTensor> {
        let doc: serde::Value = serde_json::from_str(s)
            .map_err(|e| TensorError::InvalidArgument(format!("json: {e}")))?;
        SparseTensor::try_from(&doc)
    }

    fn sample() -> SparseTensor {
        let mut b = SparseTensorBuilder::new(vec![3, 4, 2]);
        b.push(&[0, 0, 0], 1.5).unwrap();
        b.push(&[2, 3, 1], -0.25).unwrap();
        b.push(&[1, 2, 0], 42.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn text_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_coo_text(&t, &mut buf).unwrap();
        let back = read_coo_text(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn text_format_is_one_based() {
        let t = sample();
        let mut buf = Vec::new();
        write_coo_text(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("%shape 3 4 2\n"));
        assert!(text.contains("1 1 1 1.5"));
        assert!(text.contains("3 4 2 -0.25"));
    }

    #[test]
    fn read_skips_comments_and_blanks() {
        let text = "# comment\n\n%shape 2 2\n# another\n1 1 3.0\n\n2 2 4.0\n";
        let t = read_coo_text(text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&[0, 0]).unwrap(), 3.0);
        assert_eq!(t.get(&[1, 1]).unwrap(), 4.0);
    }

    #[test]
    fn read_rejects_malformed() {
        assert!(read_coo_text("1 1 1.0\n".as_bytes()).is_err()); // no header
        assert!(matches!(
            // in bounds for its mode, but no storable coordinate
            read_coo_text("%shape 8589934592 2\n4294967297 1 1.0\n".as_bytes()),
            Err(TensorError::PlanOverflow { what: "index", .. })
        ));
        assert!(read_coo_text("%shape\n".as_bytes()).is_err()); // empty shape
        assert!(read_coo_text("%shape 2 2\n1 1\n".as_bytes()).is_err()); // missing value
        assert!(read_coo_text("%shape 2 2\n0 1 2.0\n".as_bytes()).is_err()); // 0-based
        assert!(read_coo_text("%shape 2 2\n1 1 1.0 9\n".as_bytes()).is_err()); // extra field
        assert!(read_coo_text("%shape 2 2\n3 1 1.0\n".as_bytes()).is_err()); // out of bounds
        assert!(read_coo_text("%shape 2 2\n1 x 1.0\n".as_bytes()).is_err()); // bad index
    }

    #[test]
    fn duplicate_shape_header_is_a_typed_error_not_data_loss() {
        // A second %shape used to silently reset the builder, discarding
        // every nonzero parsed before it.
        let text = "%shape 2 2\n1 1 3.0\n%shape 2 2\n2 2 4.0\n";
        let err = read_coo_text(text.as_bytes()).unwrap_err();
        match err {
            TensorError::InvalidArgument(msg) => {
                assert!(msg.contains("duplicate %shape"), "msg = {msg}");
                assert!(msg.contains("line 3"), "msg = {msg}");
            }
            other => panic!("expected InvalidArgument, got {other:?}"),
        }
        // Even a differing second header is rejected the same way.
        let text = "%shape 2 2\n1 1 3.0\n%shape 9 9\n";
        assert!(read_coo_text(text.as_bytes()).is_err());
    }

    #[test]
    fn percent_comment_lines_are_skipped() {
        // FROSTT convention: % starts a comment; only %shape is structural.
        let text = "% exported by frostt\n%shape 2 2\n% nnz: 2\n1 1 3.0\n%trailer\n2 2 4.0\n";
        let t = read_coo_text(text.as_bytes()).unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&[0, 0]).unwrap(), 3.0);
        assert_eq!(t.get(&[1, 1]).unwrap(), 4.0);
    }

    #[test]
    fn trailing_junk_is_rejected() {
        // Extra fields after the value, and non-numeric trailing tokens.
        assert!(read_coo_text("%shape 2 2\n1 1 1.0 junk\n".as_bytes()).is_err());
        assert!(read_coo_text("%shape 2 2\n1 1 1.0 2 2 2.0\n".as_bytes()).is_err());
    }

    #[test]
    fn empty_and_headerless_files_are_rejected() {
        assert!(read_coo_text("".as_bytes()).is_err());
        assert!(read_coo_text("\n\n# only comments\n% and these\n".as_bytes()).is_err());
    }

    #[test]
    fn adversarial_round_trip_survives_comment_injection() {
        // Round-trip a tensor, then splice comments between every line; the
        // parse must be unchanged.
        let t = sample();
        let mut buf = Vec::new();
        write_coo_text(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let noisy: String = text
            .lines()
            .flat_map(|l| [l, "% noise", "# more noise", ""])
            .collect::<Vec<_>>()
            .join("\n");
        let back = read_coo_text(noisy.as_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let s = to_json(&t);
        // The bytes the `Vec<usize>` representation wrote (PR 19): the
        // narrower in-memory index does not show in the document.
        assert_eq!(
            s,
            r#"{"shape":[3,4,2],"indices":[0,0,0,1,2,0,2,3,1],"values":[1.5,42.0,-0.25]}"#
        );
        let back = from_json(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(matches!(
            from_json("{not json"),
            Err(TensorError::InvalidArgument(_))
        ));
        // Well-formed JSON that is not a tensor: each refusal keeps its type
        // (both documents were accepted before, the first one to panic in
        // `inner_sparse`, the second as an `nnz() == 2` tensor with no entries).
        assert!(matches!(
            from_json(r#"{"shape":[2,2],"indices":[9,0],"values":[1.0]}"#),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
        assert!(matches!(
            from_json(r#"{"shape":[2,2],"indices":[0],"values":[1.0,2.0]}"#),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            from_json(r#"{"shape":[],"indices":[],"values":[]}"#),
            Err(TensorError::EmptyShape)
        ));
        assert!(matches!(
            from_json(r#"{"shape":[8589934592],"indices":[4294967296],"values":[1.0]}"#),
            Err(TensorError::PlanOverflow { what: "index", .. })
        ));
    }

    #[test]
    fn empty_tensor_round_trips() {
        let t = SparseTensor::empty(vec![5, 5]).unwrap();
        let mut buf = Vec::new();
        write_coo_text(&t, &mut buf).unwrap();
        let back = read_coo_text(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }
}
