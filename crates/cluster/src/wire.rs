//! Wire formats and collective-algorithm selection.
//!
//! The exchange hot path ships factor-row blocks whose row sets are known
//! to both ends from the (plan-cached) route tables.  A flat `Payload::F64`
//! is already index-free, so a compressed frame can only win by shrinking
//! the *values*: the frame format pairs a delta+varint index block (cheap,
//! and an integrity check under fault injection) with an opt-in f32
//! downcast of the row payload.  The encoder is adaptive — it emits a
//! frame **only when the frame is strictly smaller** than the flat
//! payload, which makes two properties hold by construction:
//!
//! - with the downcast off, no frame ever flows (header + index bytes can
//!   only add to the flat f64 block), so the compressed path is
//!   bit-identical to the flat path;
//! - whenever a frame does flow, `wire < logical`, i.e. the compression
//!   ratio is strictly above 1.0 (debug-asserted at the accounting site).
//!
//! [`CommPolicy`] bundles the knobs the distributed driver plumbs down:
//! the f32 downcast and the allreduce algorithm.

use crate::comm::{BufferPool, Payload};
use crate::error::{ClusterError, ClusterResult};
use serde::{Deserialize, Serialize};

/// Frame flag: values are stored as little-endian `f32` (otherwise `f64`).
pub const FLAG_F32: u8 = 0b01;
/// Frame flag: the delta+varint row-index block is present.
pub const FLAG_INDICES: u8 = 0b10;
const KNOWN_FLAGS: u8 = FLAG_F32 | FLAG_INDICES;

/// Below this total payload volume (`payload_bytes × world`), the flat
/// gather+broadcast allreduce stays cheaper than setting up a ring: the
/// chain latency of `2(w−1)` hops dominates tiny reductions (scalars,
/// small Gram stacks on few workers).
pub const AUTO_RING_MIN_TOTAL_BYTES: u64 = 4096;

/// Allreduce algorithm for `try_allreduce_sum_with`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllreduceAlgo {
    /// Pick per call from payload size × worker count (flat for small
    /// reductions, ring otherwise).
    #[default]
    Auto,
    /// Gather-to-root + broadcast.  Root pays `2(w−1)·b` bytes.
    Flat,
    /// Pipelined chain reduce + chain broadcast in rank order.  Every rank
    /// pays ≈`2·b` bytes, and the per-element summation order matches the
    /// flat path exactly, so results are bit-identical to `Flat`.
    Ring,
}

impl AllreduceAlgo {
    /// Resolves `Auto` to the algorithm actually run for a
    /// `payload_bytes`-sized buffer across `world` ranks.  Never returns
    /// `Auto`.
    pub fn resolve(self, world: usize, payload_bytes: u64) -> AllreduceAlgo {
        match self {
            AllreduceAlgo::Auto => {
                if world >= 3
                    && payload_bytes.saturating_mul(world as u64) >= AUTO_RING_MIN_TOTAL_BYTES
                {
                    AllreduceAlgo::Ring
                } else {
                    AllreduceAlgo::Flat
                }
            }
            other => other,
        }
    }
}

/// Communication policy plumbed from the cluster configuration into the
/// worker bodies.  The default is safe-by-construction: the downcast is
/// off, so no frame ever flows (see the module docs), and `Auto` keeps
/// small-test traffic on the flat allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommPolicy {
    /// Downcast exchanged factor rows to `f32` on the wire, as compressed
    /// row frames (bounded error; the distributed driver gates this on the
    /// divergence watchdog).
    pub downcast_f32: bool,
    /// Allreduce algorithm for Gram/loss reductions.
    pub allreduce: AllreduceAlgo,
}

impl Default for CommPolicy {
    fn default() -> Self {
        CommPolicy {
            downcast_f32: false,
            allreduce: AllreduceAlgo::Auto,
        }
    }
}

impl CommPolicy {
    /// The seed-era baseline: no frames, flat allreduce everywhere.
    pub fn flat() -> Self {
        CommPolicy {
            downcast_f32: false,
            allreduce: AllreduceAlgo::Flat,
        }
    }

    /// Sets the lossy f32 downcast of exchanged rows.
    pub fn with_downcast_f32(mut self, on: bool) -> Self {
        self.downcast_f32 = on;
        self
    }

    /// Sets the allreduce algorithm.
    pub fn with_allreduce(mut self, algo: AllreduceAlgo) -> Self {
        self.allreduce = algo;
        self
    }
}

/// Accounting sidecar for a compressed frame: what the message *would*
/// have cost flat, and how many rows were downcast.  Logical byte counters
/// record `logical_bytes`; the wire counters record the frame's actual
/// size, keeping compressed and flat runs comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMeta {
    /// Flat-equivalent payload size (`rows × rank × 8`).
    pub logical_bytes: u64,
    /// Rows whose values were downcast to f32 in this frame.
    pub downcast_rows: u64,
}

/// Appends `x` as an LEB128 varint.
pub fn push_varint(buf: &mut Vec<u8>, mut x: u64) {
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
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
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
/// table — an end-to-end integrity check under fault injection.
pub fn encode_frame(rows: &[u32], values: &[f64], downcast_f32: bool) -> Vec<u8> {
    debug_assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "row routes must be strictly ascending"
    );
    let width = if downcast_f32 { 4 } else { 8 };
    // lint:allow(alloc_hygiene): byte frame for the optional compression path — the f64 pool cannot hold it, and the zero-alloc gram/exchange baseline runs with compression off
    let mut frame = Vec::with_capacity(2 + 2 * rows.len() + values.len() * width);
    let mut flags = FLAG_INDICES;
    if downcast_f32 {
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
    if downcast_f32 {
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

/// Adaptive frame encoder: returns a compressed frame for the row block
/// **iff** the policy downcasts and the frame is strictly smaller than the
/// flat `Payload::F64` it replaces; `None` means "send flat".
pub fn maybe_compress(
    rows: &[u32],
    values: &[f64],
    policy: &CommPolicy,
) -> Option<(bytes::Bytes, WireMeta)> {
    // A lossless frame carries the same f64 block plus header and index
    // bytes, so it can never beat the flat payload; skip the encode.
    if !policy.downcast_f32 || rows.is_empty() {
        return None;
    }
    let logical = std::mem::size_of_val(values) as u64;
    let frame = encode_frame(rows, values, true);
    if (frame.len() as u64) < logical {
        Some((
            bytes::Bytes::from(frame),
            WireMeta {
                logical_bytes: logical,
                downcast_rows: rows.len() as u64,
            },
        ))
    } else {
        None
    }
}

fn malformed(detail: &str) -> ClusterError {
    ClusterError::TypeMismatch {
        expected: "row frame".into(),
        found: format!("malformed frame: {detail}"),
    }
}

/// Decodes one exchanged row block from `src` into a pool-drawn `Vec<f64>`
/// of `expected_rows.len() × rank` values.
///
/// Accepts either the flat `Payload::F64` (validated by length and handed
/// back as-is) or a compressed `Payload::Bytes` frame, whose row count and
/// index block are verified against the receiver's own route table —
/// tampered or truncated frames surface as typed errors, never panics.
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
    let expected_len = expected_rows.len() * rank;
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
        Payload::Bytes(frame) => decode_frame(&frame, src, expected_rows, rank, pool),
        // lint:allow(alloc_hygiene): Vec::new of length 0 never touches the heap
        Payload::Empty if expected_len == 0 => Ok(Vec::new()),
        Payload::Empty => Err(ClusterError::SizeMismatch {
            rank: src,
            expected: expected_len,
            found: 0,
        }),
        other => Err(ClusterError::TypeMismatch {
            expected: "F64 or Bytes".into(),
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
    let need = n * rank * width;
    let body = &frame[pos..];
    if body.len() != need {
        return Err(malformed("value block length mismatch"));
    }
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
    fn dense_routes_cost_about_one_index_byte_per_row() {
        let rows: Vec<u32> = (1000..2000).collect();
        let values = vec![0.0f64; rows.len()];
        let frame = encode_frame(&rows, &values, true);
        // flags + count(2) + first index(2) + 999 unit deltas + 4000 value bytes
        assert!(frame.len() <= 1 + 2 + 2 + 999 + 4000);
    }

    #[test]
    fn maybe_compress_never_fires_without_downcast() {
        let rows: Vec<u32> = (0..64).collect();
        let values = vec![1.0f64; 64 * 8];
        let lossless = CommPolicy::default();
        assert!(!lossless.downcast_f32);
        assert!(maybe_compress(&rows, &values, &lossless).is_none());
        assert!(maybe_compress(&rows, &values, &CommPolicy::flat()).is_none());
    }

    #[test]
    fn maybe_compress_wins_with_downcast_and_meta_reconciles() {
        let rows: Vec<u32> = (0..64).collect();
        let values = vec![0.5f64; 64 * 8];
        let policy = CommPolicy::default().with_downcast_f32(true);
        let (frame, meta) = maybe_compress(&rows, &values, &policy).expect("frame must win");
        assert_eq!(meta.logical_bytes, (values.len() * 8) as u64);
        assert_eq!(meta.downcast_rows, 64);
        assert!(
            (frame.len() as u64) < meta.logical_bytes,
            "ratio must exceed 1.0"
        );
        // Roughly 2x: 4-byte values plus ~1 byte/row of index overhead.
        let ratio = meta.logical_bytes as f64 / frame.len() as f64;
        assert!(ratio > 1.8, "ratio {ratio}");
    }

    #[test]
    fn maybe_compress_declines_degenerate_blocks() {
        let policy = CommPolicy::default().with_downcast_f32(true);
        assert!(maybe_compress(&[], &[], &policy).is_none());
        // One row of rank 1: 8 logical bytes vs 1+1+1+4 frame bytes — the
        // frame still wins here, but rank-0-wide rows cannot.
        let (frame, meta) = maybe_compress(&[5], &[1.0], &policy).expect("frame");
        assert!((frame.len() as u64) < meta.logical_bytes);
    }

    #[test]
    fn decode_rows_validates_flat_payloads() {
        let mut pool = BufferPool::new(false);
        let rows = vec![1u32, 2];
        let ok = decode_rows(Payload::F64(vec![0.0; 4]), 1, &rows, 2, &mut pool).unwrap();
        assert_eq!(ok.len(), 4);
        let err = decode_rows(Payload::F64(vec![0.0; 3]), 1, &rows, 2, &mut pool).unwrap_err();
        assert!(matches!(err, ClusterError::SizeMismatch { rank: 1, .. }));
        let err = decode_rows(Payload::U64(vec![1]), 0, &rows, 2, &mut pool).unwrap_err();
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

    #[test]
    fn auto_resolution_prefers_flat_for_small_reductions() {
        use AllreduceAlgo::*;
        // Small payloads and tiny worlds stay flat.
        assert_eq!(Auto.resolve(2, 1 << 20), Flat);
        assert_eq!(Auto.resolve(4, 8), Flat);
        assert_eq!(Auto.resolve(4, AUTO_RING_MIN_TOTAL_BYTES / 4), Ring);
        assert_eq!(Auto.resolve(8, 4096), Ring);
        // Explicit choices pass through.
        assert_eq!(Flat.resolve(8, 1 << 20), Flat);
        assert_eq!(Ring.resolve(2, 8), Ring);
    }

    #[test]
    fn comm_policy_default_is_safe_and_serializes() {
        let p = CommPolicy::default();
        assert!(!p.downcast_f32);
        assert_eq!(p.allreduce, AllreduceAlgo::Auto);
        let tuned = CommPolicy::flat()
            .with_downcast_f32(true)
            .with_allreduce(AllreduceAlgo::Ring);
        let json = serde_json::to_string(&tuned).unwrap();
        let back: CommPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tuned);
        // Session checkpoints written while the policy still had its
        // `compress` flag carry the extra key; it is ignored.
        let legacy = json.replacen('{', "{\"compress\":true,", 1);
        assert_eq!(serde_json::from_str::<CommPolicy>(&legacy).unwrap(), tuned);
    }
}
