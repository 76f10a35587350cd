//! Wire formats and the all-reduce algorithms.
//!
//! The distributed step ships every row exchange as one flat
//! `Payload::F64`: the routed rows, then a tail of raw `f64` values that
//! are not rows (the driver's Gram slices), checked against the lengths
//! the receiver's own route table expects ([`decode_rows_and_tail`]).
//! Both ends know the row sets, so the flat payload is already
//! index-free and exact.
//!
//! The self-describing row frame ([`encode_frame`] / [`decode_rows`]) is
//! not on the step: a delta+varint index block (verified against the
//! receiver's route table) followed by the row values, optionally
//! rounded to `f32`.  It stays as a codec under test and measurement.

use crate::comm::{BufferPool, Payload};
use crate::error::{ClusterError, ClusterResult};
use serde::{Deserialize, Serialize};

/// Frame flag: values are stored as little-endian `f32` (otherwise `f64`).
pub const FLAG_F32: u8 = 0b01;
/// Frame flag: the delta+varint row-index block is present.
pub const FLAG_INDICES: u8 = 0b10;
const KNOWN_FLAGS: u8 = FLAG_F32 | FLAG_INDICES;

/// Allreduce algorithm for `try_allreduce_sum_with`.  Both sum every
/// element over ranks `0..w` in the same order with the same operands —
/// rank 0's value first, each later rank's added on the left — so their
/// results are bit-identical, signed zeros included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllreduceAlgo {
    /// Gather-to-root + broadcast.  Root pays `2(w−1)·b` bytes.
    Flat,
    /// Pipelined chain reduce + chain broadcast in rank order.  Every rank
    /// pays ≈`2·b` bytes.
    Ring,
}

/// Appends `x` as an LEB128 varint.
fn push_varint(buf: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint at `*pos`, advancing it.  `None` on truncation
/// or a value that does not fit in 64 bits.
fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let bits = (byte & 0x7f) as u64;
        if shift == 63 && bits > 1 {
            return None; // would overflow u64
        }
        x |= bits << shift;
        if byte & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encodes a factor-row block as a self-describing frame:
///
/// ```text
/// [flags u8][varint n][varint rows[0]][varint Δrows[1..n]][values LE]
/// ```
///
/// `rows` must be strictly ascending (route tables are built that way), so
/// every delta is ≥ 1.  The index block is always written: it costs ~1
/// byte/row and lets the decoder verify the frame against its own route
/// table.  With `to_f32` the values are rounded to `f32`.
pub fn encode_frame(rows: &[u32], values: &[f64], to_f32: bool) -> Vec<u8> {
    debug_assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "row routes must be strictly ascending"
    );
    let width = if to_f32 { 4 } else { 8 };
    let mut frame = Vec::with_capacity(2 + 2 * rows.len() + values.len() * width);
    let mut flags = FLAG_INDICES;
    if to_f32 {
        flags |= FLAG_F32;
    }
    frame.push(flags);
    push_varint(&mut frame, rows.len() as u64);
    let mut prev = 0u64;
    for (i, &row) in rows.iter().enumerate() {
        let row = row as u64;
        if i == 0 {
            push_varint(&mut frame, row);
        } else {
            push_varint(&mut frame, row - prev);
        }
        prev = row;
    }
    if to_f32 {
        for &v in values {
            frame.extend_from_slice(&(v as f32).to_le_bytes());
        }
    } else {
        for &v in values {
            frame.extend_from_slice(&v.to_le_bytes());
        }
    }
    frame
}

fn malformed(detail: &str) -> ClusterError {
    ClusterError::TypeMismatch {
        expected: "row frame".into(),
        found: format!("malformed frame: {detail}"),
    }
}

/// Decodes one row block from `src` into `expected_rows.len() × rank`
/// values.
///
/// Accepts either a flat `Payload::F64` (validated by length and handed
/// back as-is) or a `Payload::Bytes` frame from [`encode_frame`], decoded
/// into a pool-drawn buffer after its row count and index block are
/// verified against the receiver's own route table — tampered or
/// truncated frames surface as typed errors, never panics.
///
/// # Errors
/// [`ClusterError::SizeMismatch`] when the row count disagrees with the
/// route table, [`ClusterError::TypeMismatch`] for malformed frames or
/// unexpected payload variants.
pub fn decode_rows(
    payload: Payload,
    src: usize,
    expected_rows: &[u32],
    rank: usize,
    pool: &mut BufferPool,
) -> ClusterResult<Vec<f64>> {
    match payload {
        Payload::Bytes(frame) => decode_frame(&frame, src, expected_rows, rank, pool),
        flat => decode_rows_and_tail(flat, src, expected_rows, rank, 0),
    }
}

/// Checks one flat exchange payload from `src`: the
/// `expected_rows.len() × rank` row values, then `tail` raw `f64` values
/// that ride along without being rows (a Gram slice).  Both lengths are
/// the receiver's own expectation, so a sender that packed a different
/// number of rows or appended a different tail is caught.
///
/// # Errors
/// [`ClusterError::SizeMismatch`] when the payload's length is not
/// `expected_rows.len() × rank + tail`, [`ClusterError::TypeMismatch`]
/// for a payload that is not `F64` (or an `Empty` standing for nothing).
pub fn decode_rows_and_tail(
    payload: Payload,
    src: usize,
    expected_rows: &[u32],
    rank: usize,
    tail: usize,
) -> ClusterResult<Vec<f64>> {
    let expected_len = expected_rows.len() * rank + tail;
    match payload {
        Payload::F64(v) => {
            if v.len() != expected_len {
                return Err(ClusterError::SizeMismatch {
                    rank: src,
                    expected: expected_len,
                    found: v.len(),
                });
            }
            Ok(v)
        }
        // lint:allow(alloc_hygiene): Vec::new of length 0 never touches the heap
        Payload::Empty if expected_len == 0 => Ok(Vec::new()),
        Payload::Empty => Err(ClusterError::SizeMismatch {
            rank: src,
            expected: expected_len,
            found: 0,
        }),
        other => Err(ClusterError::TypeMismatch {
            expected: "F64".into(),
            found: other.kind().into(),
        }),
    }
}

fn decode_frame(
    frame: &[u8],
    src: usize,
    expected_rows: &[u32],
    rank: usize,
    pool: &mut BufferPool,
) -> ClusterResult<Vec<f64>> {
    let mut pos = 0usize;
    let &flags = frame.first().ok_or_else(|| malformed("empty"))?;
    pos += 1;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(malformed("unknown flags"));
    }
    if flags & FLAG_INDICES == 0 {
        return Err(malformed("missing index block"));
    }
    let n = read_varint(frame, &mut pos).ok_or_else(|| malformed("truncated row count"))? as usize;
    if n != expected_rows.len() {
        return Err(ClusterError::SizeMismatch {
            rank: src,
            expected: expected_rows.len(),
            found: n,
        });
    }
    let mut prev = 0u64;
    for (i, &expected) in expected_rows.iter().enumerate() {
        let v = read_varint(frame, &mut pos).ok_or_else(|| malformed("truncated index block"))?;
        let row = if i == 0 {
            v
        } else {
            prev.checked_add(v)
                .ok_or_else(|| malformed("index overflow"))?
        };
        if row != expected as u64 {
            return Err(malformed("indices diverge from route table"));
        }
        prev = row;
    }
    let downcast = flags & FLAG_F32 != 0;
    let width = if downcast { 4 } else { 8 };
    // The row count is the route table's, so the value block's length is
    // fixed and ends the frame.
    if frame.len() - pos != n * rank * width {
        return Err(malformed("value block length mismatch"));
    }
    let body = &frame[pos..];
    let mut out = pool.take();
    out.reserve(n * rank);
    if downcast {
        for chunk in body.chunks_exact(4) {
            // 4-byte chunks_exact: the conversion cannot fail.
            let Ok(raw) = <[u8; 4]>::try_from(chunk) else {
                return Err(malformed("value block alignment"));
            };
            out.push(f32::from_le_bytes(raw) as f64);
        }
    } else {
        for chunk in body.chunks_exact(8) {
            let Ok(raw) = <[u8; 8]>::try_from(chunk) else {
                return Err(malformed("value block alignment"));
            };
            out.push(f64::from_le_bytes(raw));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for x in [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(x), "value {x}");
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None); // continuation, then EOF
                                                          // 11 continuation bytes: more than 64 bits of payload.
        let overlong = [0xffu8; 10];
        let mut pos = 0;
        assert_eq!(read_varint(&overlong, &mut pos), None);
    }

    #[test]
    fn frame_round_trips_lossless() {
        let rows = vec![0u32, 3, 4, 100, 65536];
        let values: Vec<f64> = (0..rows.len() * 3).map(|i| i as f64 * 0.37 - 5.0).collect();
        let frame = encode_frame(&rows, &values, false);
        let mut pool = BufferPool::new(false);
        let out = decode_frame(&frame, 1, &rows, 3, &mut pool).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn frame_round_trips_downcast_at_f32_precision() {
        let rows = vec![2u32, 7, 9];
        let values = vec![1.0, -2.5, std::f64::consts::PI, 1e-8, 1e8, -0.125];
        let frame = encode_frame(&rows, &values, true);
        let mut pool = BufferPool::new(true);
        let out = decode_frame(&frame, 0, &rows, 2, &mut pool).unwrap();
        assert_eq!(out.len(), values.len());
        for (got, want) in out.iter().zip(&values) {
            assert_eq!(*got, *want as f32 as f64, "widening must be exact");
        }
    }

    #[test]
    fn a_tail_rides_after_the_rows_as_raw_f64_and_is_checked() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = vec![1u32, 4, 9];
        let values: Vec<f64> = (0..6).map(|i| i as f64 * 0.1 + 1.0 / 3.0).collect();
        // Values an f32 would lose or normalise: they arrive bit for bit.
        let tail = [-0.0, f64::MIN_POSITIVE / 4.0, 1.0 / 3.0];
        let mut pool = BufferPool::new(false);

        // Rows, then the tail, one `F64` payload.
        let mut flat = values.clone();
        flat.extend_from_slice(&tail);
        let out = decode_rows_and_tail(Payload::F64(flat.clone()), 1, &rows, 2, 3);
        assert_eq!(bits(&out.unwrap()), bits(&flat));
        for expected in [0, 2, 4] {
            match decode_rows_and_tail(Payload::F64(flat.clone()), 1, &rows, 2, expected) {
                Err(ClusterError::SizeMismatch {
                    rank: 1,
                    expected: e,
                    found: 9,
                }) => assert_eq!(e, 6 + expected),
                other => panic!("tail {expected}: {other:?}"),
            }
        }
        match decode_rows(Payload::F64(flat), 1, &rows, 2, &mut pool) {
            Err(ClusterError::SizeMismatch {
                expected: 6,
                found: 9,
                ..
            }) => {}
            other => panic!("an unexpected tail: {other:?}"),
        }
        // No rows, only a tail.
        let only = decode_rows_and_tail(Payload::F64(tail.to_vec()), 0, &[], 2, 3);
        assert_eq!(bits(&only.unwrap()), bits(&tail));
        // A frame never carries a tail: the exchange path refuses one.
        let frame = Payload::Bytes(encode_frame(&rows, &values, false).into());
        assert!(matches!(
            decode_rows_and_tail(frame, 1, &rows, 2, 3),
            Err(ClusterError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn dense_routes_cost_about_one_index_byte_per_row() {
        let rows: Vec<u32> = (1000..2000).collect();
        let values = vec![0.0f64; rows.len()];
        let frame = encode_frame(&rows, &values, true);
        // flags + count(2) + first index(2) + 999 unit deltas + 4000 value bytes
        assert!(frame.len() <= 1 + 2 + 2 + 999 + 4000);
    }

    #[test]
    fn decode_rows_validates_flat_payloads() {
        let mut pool = BufferPool::new(false);
        let rows = vec![1u32, 2];
        let ok = decode_rows(Payload::F64(vec![0.0; 4]), 1, &rows, 2, &mut pool).unwrap();
        assert_eq!(ok.len(), 4);
        let err = decode_rows(Payload::F64(vec![0.0; 3]), 1, &rows, 2, &mut pool).unwrap_err();
        assert!(matches!(err, ClusterError::SizeMismatch { rank: 1, .. }));
        let blob = Payload::Bytes(bytes::Bytes::from_static(b"x"));
        let err = decode_rows(blob, 0, &rows, 2, &mut pool).unwrap_err();
        assert!(matches!(err, ClusterError::TypeMismatch { .. }));
        let empty = decode_rows(Payload::Empty, 0, &[], 2, &mut pool).unwrap();
        assert!(empty.is_empty());
        let err = decode_rows(Payload::Empty, 2, &rows, 2, &mut pool).unwrap_err();
        assert!(matches!(err, ClusterError::SizeMismatch { rank: 2, .. }));
    }

    #[test]
    fn tampered_frames_surface_typed_errors() {
        let rows = vec![0u32, 5, 6];
        let values: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let mut pool = BufferPool::new(false);
        let clean = encode_frame(&rows, &values, true);
        assert!(decode_frame(&clean, 0, &rows, 3, &mut pool).is_ok());
        // Flip every byte position in turn: decode must never panic, and
        // must never silently accept a frame with a corrupted index block
        // or length field (a corrupted value byte is the one undetectable
        // case, as on a real checksum-free transport).
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x55;
            let _ = decode_frame(&bad, 0, &rows, 3, &mut pool);
        }
        let mut truncated = clean.clone();
        truncated.pop();
        assert!(decode_frame(&truncated, 0, &rows, 3, &mut pool).is_err());
        let mut wrong_flags = clean.clone();
        wrong_flags[0] = 0b100;
        assert!(decode_frame(&wrong_flags, 0, &rows, 3, &mut pool).is_err());
        let mut no_indices = clean;
        no_indices[0] = FLAG_F32;
        assert!(decode_frame(&no_indices, 0, &rows, 3, &mut pool).is_err());
        // Wrong route table on the receiver: indices diverge.
        let other_rows = vec![0u32, 5, 7];
        let clean = encode_frame(&rows, &values, true);
        assert!(decode_frame(&clean, 0, &other_rows, 3, &mut pool).is_err());
    }
}
