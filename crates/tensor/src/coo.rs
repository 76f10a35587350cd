//! Sparse tensors in coordinate (COO) format, for arbitrary order.
//!
//! DisMASTD stores `X \ X̃` as "all the non-zero elements with the coordinate
//! format" (Theorem 3's proof); this module is that representation.  Indices
//! are kept in one flat `Vec<u32>` with stride `order`, so iterating the
//! nonzeros touches two contiguous arrays — the access pattern MTTKRP needs —
//! at `4·order + 8` bytes per nonzero.  Shapes, bounds and caller-supplied
//! coordinates are `usize`; a coordinate `≥ 2³²` is refused where it enters
//! ([`SparseTensorBuilder::push`], `Deserialize`) with `PlanOverflow`.

use crate::error::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// An `N`-th order sparse tensor in coordinate format.
///
/// Invariants (enforced by [`SparseTensorBuilder::build`]):
/// * every index tuple is within `shape`;
/// * entries are sorted lexicographically by index tuple;
/// * index tuples are unique (duplicates are summed at build time);
/// * no stored value is exactly `0.0`.
///
/// A deserialised tensor keeps the first invariant only (it is checked);
/// its entries stay in the order and multiplicity the document gave them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SparseTensor {
    shape: Vec<usize>,
    /// Flattened index tuples, `nnz * order` long.
    indices: Vec<u32>,
    values: Vec<f64>,
}

/// Narrows a caller-supplied coordinate to the stored index width.
fn narrow_index(i: u64) -> Result<u32> {
    u32::try_from(i).map_err(|_| TensorError::PlanOverflow {
        what: "index",
        value: i,
    })
}

/// The checked way in for bytes from outside the program: refuses an empty
/// shape, an index buffer that is not `order` numbers per value, a number
/// `≥ 2³²` and an index outside its dimension.  Unsorted or repeated
/// coordinates are legal.
impl TryFrom<&serde::Value> for SparseTensor {
    type Error = TensorError;

    fn try_from(v: &serde::Value) -> Result<Self> {
        let bad = |e: serde::DeError| TensorError::InvalidArgument(format!("SparseTensor: {e}"));
        let obj = v
            .as_object()
            .ok_or_else(|| bad(serde::DeError::new("expected object")))?;
        let field = |name| serde::field(obj, name).map_err(bad);
        let shape = Vec::<usize>::from_value(field("shape")?).map_err(bad)?;
        let raw = Vec::<u64>::from_value(field("indices")?).map_err(bad)?;
        let values = Vec::<f64>::from_value(field("values")?).map_err(bad)?;
        if shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        if raw.len() != values.len() * shape.len() {
            return Err(TensorError::shape_mismatch(
                "SparseTensor indices vs values × order",
                &[raw.len()],
                &[values.len(), shape.len()],
            ));
        }
        let indices = raw
            .iter()
            .map(|&i| narrow_index(i))
            .collect::<Result<Vec<u32>>>()?;
        for tuple in indices.chunks_exact(shape.len()) {
            if tuple.iter().zip(&shape).any(|(&i, &s)| i as usize >= s) {
                return Err(TensorError::IndexOutOfBounds {
                    index: tuple.iter().map(|&i| i as usize).collect(),
                    shape,
                });
            }
        }
        Ok(SparseTensor {
            shape,
            indices,
            values,
        })
    }
}

impl Deserialize for SparseTensor {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        SparseTensor::try_from(v).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl SparseTensor {
    /// Creates an empty tensor of the given shape.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyShape`] for a zero-order shape.
    pub fn empty(shape: Vec<usize>) -> Result<Self> {
        if shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        Ok(SparseTensor {
            shape,
            indices: Vec::new(),
            values: Vec::new(),
        })
    }

    /// Tensor order `N` (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Dimension sizes per mode.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of stored non-zero elements.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `true` when the tensor stores no nonzeros.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The index tuple of the `e`-th stored entry.
    #[allow(clippy::should_implement_trait)] // COO entry lookup, not ops::Index
    #[inline]
    pub fn index(&self, e: usize) -> &[u32] {
        let n = self.order();
        &self.indices[e * n..(e + 1) * n]
    }

    /// The value of the `e`-th stored entry.
    #[inline]
    pub fn value(&self, e: usize) -> f64 {
        self.values[e]
    }

    /// Iterates `(index_tuple, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        let n = self.order();
        self.indices
            .chunks_exact(n)
            .zip(self.values.iter().copied())
    }

    /// Raw flattened index buffer (stride = `order`).
    #[inline]
    pub fn indices_flat(&self) -> &[u32] {
        &self.indices
    }

    /// Raw value buffer.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Looks up the value at `idx`, returning `0.0` for structural zeros.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if `idx` exceeds the shape.
    pub fn get(&self, idx: &[usize]) -> Result<f64> {
        self.check_index(idx)?;
        let n = self.order();
        let found = binary_search_tuples(&self.indices, n, idx);
        Ok(match found {
            Ok(e) => self.values[e],
            Err(_) => 0.0,
        })
    }

    /// Squared Frobenius norm — sum of squares of the stored values.
    pub fn norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Histogram of nonzeros per slice along `mode`
    /// (`a_i^(n) = nnz(X[.., i, ..])` in Algorithms 2-3).
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidMode`] for an out-of-range mode.
    pub fn slice_nnz(&self, mode: usize) -> Result<Vec<u64>> {
        if mode >= self.order() {
            return Err(TensorError::InvalidMode {
                mode,
                order: self.order(),
            });
        }
        let mut hist = vec![0u64; self.shape[mode]];
        let n = self.order();
        for tuple in self.indices.chunks_exact(n) {
            hist[tuple[mode] as usize] += 1;
        }
        Ok(hist)
    }

    /// Block signature of an index tuple relative to an old bounding box:
    /// bit `k` is set iff `idx[k] >= old_shape[k]` (the `(s_1,…,s_N)` tuple of
    /// the paper's sub-tensor division, packed as a bitmask).
    pub fn block_of(idx: &[u32], old_shape: &[usize]) -> usize {
        idx.iter()
            .zip(old_shape)
            .enumerate()
            .fold(0usize, |acc, (k, (&i, &old))| {
                if i as usize >= old {
                    acc | (1 << k)
                } else {
                    acc
                }
            })
    }

    /// Splits this tensor into `(inside, complement)` relative to an old
    /// snapshot's shape: `inside = X^{0…0}` (all indices within `old_shape`,
    /// reshaped to it) and `complement = X \ X̃` (everything else, in this
    /// tensor's shape).  The two-sided form of [`Self::restrict`] and
    /// [`Self::complement`]: one pass that copies every entry to one side or
    /// the other — `O(nnz)` reads and `O(nnz)` writes — keeping the stored
    /// order within each half.  A caller that wants one half only should
    /// ask for it by name and skip the writes of the other.
    ///
    /// # Errors
    /// Returns an error if `old_shape` has a different order or exceeds the
    /// current shape in any mode.
    pub fn split_at(&self, old_shape: &[usize]) -> Result<(SparseTensor, SparseTensor)> {
        self.check_old_shape("split_at", old_shape)?;
        let mut inside = SparseTensor::empty(old_shape.to_vec())?;
        let mut outside = SparseTensor::empty(self.shape.clone())?;
        self.scan_box(old_shape, |in_box, tuple, v| {
            let half = if in_box { &mut inside } else { &mut outside };
            half.indices.extend_from_slice(tuple);
            half.values.push(*v);
        });
        Ok((inside, outside))
    }

    /// Returns the sub-tensor of entries whose every index is `< bounds[k]`,
    /// reshaped to `bounds` — i.e. the old snapshot `X̃ = X^{0,…,0}`.
    ///
    /// One pass over the index buffer that writes only the entries it
    /// returns, in stored order (no sortedness is assumed): `O(nnz)` index
    /// reads, `O(nnz(X̃))` writes.  The result's buffers are sized to the
    /// entries kept, so a long-lived restriction holds no spare capacity.
    ///
    /// # Errors
    /// Same conditions as [`Self::split_at`].
    pub fn restrict(&self, bounds: &[usize]) -> Result<SparseTensor> {
        self.check_old_shape("restrict", bounds)?;
        // Most callers keep nearly everything (a stream cut keeps 75–100 %):
        // reserve for all of it once, then hand back what was not used.
        let mut kept = SparseTensor::empty(bounds.to_vec())?;
        kept.indices.reserve_exact(self.indices.len());
        kept.values.reserve_exact(self.values.len());
        self.copy_side::<true>(bounds, &mut kept);
        kept.indices.shrink_to_fit();
        kept.values.shrink_to_fit();
        Ok(kept)
    }

    /// Relative complement `X \ X̃` for a previous snapshot shape: the
    /// entries with at least one index `>= old_shape[k]`, in this tensor's
    /// shape and stored order.
    ///
    /// One pass over the index buffer that writes only the entries it
    /// returns (no sortedness is assumed): `O(nnz)` index reads, and
    /// `O(nnz(X \ X̃))` value reads, writes and allocation — the old block
    /// is never copied, so a streaming step's memory traffic beyond the one
    /// index scan is proportional to what arrived.
    ///
    /// # Errors
    /// Same conditions as [`Self::split_at`].
    pub fn complement(&self, old_shape: &[usize]) -> Result<SparseTensor> {
        self.check_old_shape("complement", old_shape)?;
        let mut outside = SparseTensor::empty(self.shape.clone())?;
        self.copy_side::<false>(old_shape, &mut outside);
        Ok(outside)
    }

    /// Appends to `out` the entries inside `old_shape`'s box (`INSIDE`) or
    /// outside it, in stored order: every index tuple is read once, values
    /// of copied entries only.  Each side gets its own compiled scan.
    fn copy_side<const INSIDE: bool>(&self, old_shape: &[usize], out: &mut SparseTensor) {
        self.scan_box(old_shape, |in_box, tuple, v| {
            if in_box == INSIDE {
                out.indices.extend_from_slice(tuple);
                out.values.push(*v);
            }
        });
    }

    /// The predicate every split shares: `visit(in_box, tuple, &value)` per
    /// entry in stored order, `in_box` iff every index lies inside
    /// `old_shape`'s box.  Orders 1–4 take the compile-time body.
    pub(crate) fn scan_box(&self, old_shape: &[usize], visit: impl FnMut(bool, &[u32], &f64)) {
        match self.order() {
            1 => self.scan_box_fixed::<1>(old_shape, visit),
            2 => self.scan_box_fixed::<2>(old_shape, visit),
            3 => self.scan_box_fixed::<3>(old_shape, visit),
            4 => self.scan_box_fixed::<4>(old_shape, visit),
            _ => self.scan_box_dyn(old_shape, visit),
        }
    }

    /// [`Self::scan_box`] for any order, short-circuiting per tuple.
    pub(crate) fn scan_box_dyn(
        &self,
        old_shape: &[usize],
        mut visit: impl FnMut(bool, &[u32], &f64),
    ) {
        let tuples = self.indices.chunks_exact(self.order());
        for (tuple, v) in tuples.zip(&self.values) {
            let in_box = tuple
                .iter()
                .zip(old_shape)
                .all(|(&i, &old)| (i as usize) < old);
            visit(in_box, tuple, v);
        }
    }

    /// [`Self::scan_box`] for order `K` known at compile time: a 4·`K`-byte
    /// tuple is cheaper to compare whole than to branch out of, so the `K`
    /// comparisons are and-ed without short-circuit.
    fn scan_box_fixed<const K: usize>(
        &self,
        old_shape: &[usize],
        mut visit: impl FnMut(bool, &[u32], &f64),
    ) {
        let Ok(old) = <&[usize; K]>::try_from(old_shape) else {
            return self.scan_box_dyn(old_shape, visit);
        };
        for (tuple, v) in self.indices.chunks_exact(K).zip(&self.values) {
            let mut in_box = true;
            for (&i, &old) in tuple.iter().zip(old) {
                in_box &= (i as usize) < old;
            }
            visit(in_box, tuple, v);
        }
    }

    /// The contract every split relative to an old snapshot shares:
    /// `old_shape` has this tensor's order and fits inside its shape.
    /// `op` names the public entry point in the error.
    fn check_old_shape(&self, op: &'static str, old_shape: &[usize]) -> Result<()> {
        if old_shape.len() != self.order() {
            return Err(TensorError::ShapeMismatch {
                op,
                left: self.shape.clone(),
                right: old_shape.to_vec(),
            });
        }
        if old_shape.iter().zip(&self.shape).any(|(o, s)| o > s) {
            return Err(TensorError::InvalidArgument(format!(
                "old shape {old_shape:?} exceeds current shape {:?}",
                self.shape
            )));
        }
        Ok(())
    }

    /// Decomposes the tensor into the `2^N` sub-tensors of the paper's
    /// Fig. 2: each entry is classified by its block signature
    /// `(s_1,…,s_N)` (bit `k` set iff `idx[k] >= old_shape[k]`), packed as
    /// a bitmask.  Returns one `(signature, sub-tensor)` pair per
    /// **non-empty** block, in ascending signature order; every sub-tensor
    /// keeps this tensor's shape and global coordinates.
    ///
    /// Block `0` is the old snapshot `X^{0…0}`; the rest union to the
    /// relative complement `X \ X̃`.
    ///
    /// # Errors
    /// Returns an error if `old_shape` has the wrong order, exceeds the
    /// current shape, or the order exceeds the bitmask width.
    pub fn split_blocks(&self, old_shape: &[usize]) -> Result<Vec<(usize, SparseTensor)>> {
        self.check_old_shape("split_blocks", old_shape)?;
        if self.order() >= usize::BITS as usize {
            return Err(TensorError::InvalidArgument(
                "tensor order exceeds block-signature width".into(),
            ));
        }
        Ok(self.partition_by(|tuple| Self::block_of(tuple, old_shape)))
    }

    /// Routes every entry to the part `key(tuple)` names, in one pass: one
    /// `(key, part)` pair per **non-empty** part in ascending key order,
    /// each in this tensor's shape and global coordinates, entries in
    /// stored order.  Nothing is sorted or merged: the parts of a built
    /// tensor (sorted, unique) are sorted and unique, those of an unsorted
    /// deserialised one keep its order and duplicates.  Allocates per part
    /// (push growth), not per entry.
    pub fn partition_by(&self, mut key: impl FnMut(&[u32]) -> usize) -> Vec<(usize, SparseTensor)> {
        let mut parts: BTreeMap<usize, SparseTensor> = BTreeMap::new();
        for (tuple, v) in self.iter() {
            let part = parts.entry(key(tuple)).or_insert_with(|| SparseTensor {
                shape: self.shape.clone(),
                indices: Vec::new(),
                values: Vec::new(),
            });
            part.indices.extend_from_slice(tuple);
            part.values.push(v);
        }
        parts.into_iter().collect()
    }

    /// Sum of all values (useful for sanity checks and tests).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn check_index(&self, idx: &[usize]) -> Result<()> {
        if idx.len() != self.order() || idx.iter().zip(&self.shape).any(|(i, s)| i >= s) {
            return Err(TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                shape: self.shape.clone(),
            });
        }
        Ok(())
    }
}

/// How [`SparseTensorBuilder`] treats suspect entries (non-finite values,
/// out-of-bounds indices, duplicate coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ValidationMode {
    /// Reject with a typed error naming the offending coordinate.
    Strict,
    /// Silently drop the offending entry and count it (first write wins for
    /// duplicates).
    Quarantine,
    /// Legacy semantics: non-finite values are stored as-is and duplicates
    /// are merged by summation.  Out-of-bounds indices still error — they
    /// violate the shape contract, not just data hygiene.
    #[default]
    Off,
}

/// Tally of entries dropped under [`ValidationMode::Quarantine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct QuarantineCounts {
    /// NaN/Inf values dropped.
    pub non_finite: u64,
    /// Out-of-bounds indices dropped.
    pub out_of_bounds: u64,
    /// Duplicate coordinates dropped (first write wins).
    pub duplicates: u64,
}

impl QuarantineCounts {
    /// Total entries quarantined.
    pub fn total(&self) -> u64 {
        self.non_finite + self.out_of_bounds + self.duplicates
    }
}

/// Binary search over flattened index tuples, comparing lexicographically.
fn binary_search_tuples(
    flat: &[u32],
    stride: usize,
    needle: &[usize],
) -> std::result::Result<usize, usize> {
    let len = flat.len() / stride.max(1);
    let mut lo = 0usize;
    let mut hi = len;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let tuple = &flat[mid * stride..(mid + 1) * stride];
        match tuple
            .iter()
            .map(|&i| i as usize)
            .cmp(needle.iter().copied())
        {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Incremental constructor for [`SparseTensor`].
///
/// Accepts entries in any order; `build` sorts, merges duplicates (by
/// summation, the usual COO semantics) and drops entries that cancel to zero.
///
/// Entries are staged flat — `order` `u32` coordinates and one `f64` per
/// entry, 20 B for order 3 — and `build` sorts one 16-byte [`SortKey`] per
/// entry: the coordinate packed in mixed radix of the shape, beside the
/// entry's staging position.
///
/// ```
/// use dismastd_tensor::SparseTensorBuilder;
/// let mut b = SparseTensorBuilder::new(vec![4, 4, 4]);
/// b.push(&[3, 0, 1], 2.5).unwrap();
/// b.push(&[0, 1, 2], 1.0).unwrap();
/// b.push(&[3, 0, 1], 0.5).unwrap(); // merges with the first entry
/// let t = b.build().unwrap();
/// assert_eq!(t.nnz(), 2);
/// assert_eq!(t.get(&[3, 0, 1]).unwrap(), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct SparseTensorBuilder {
    shape: Vec<usize>,
    /// Queued coordinates, `len() * order` long, narrowed at `push`.
    indices: Vec<u32>,
    /// Queued values, in push order.
    values: Vec<f64>,
    mode: ValidationMode,
    counts: QuarantineCounts,
}

/// The element `build` sorts: the packed coordinate prefix, then the
/// entry's staging position (read only to break ties past the prefix).
///
/// `sort_unstable_by` leaves *equal* coordinates in an order that depends
/// on the element's size as well as on the comparisons: the standard
/// library's small-sort takes a swap network for elements of 8 bytes or
/// less and its general path above, where the `(Vec<usize>, f64)` entries
/// of the builder's first form went.  That order decides how ≥ 3-fold
/// duplicates are summed, so the element stays wider than 8 bytes;
/// `tests::flat_builder_matches_the_vec_builder_bit_for_bit` fails on a
/// narrower one (or on a stable sort).
type SortKey = (u64, usize);
const _: () = assert!(std::mem::size_of::<SortKey>() > 8);

impl SparseTensorBuilder {
    /// Starts a builder for the given shape.
    pub fn new(shape: Vec<usize>) -> Self {
        Self::with_capacity(shape, 0)
    }

    /// Pre-allocates space for `n` entries.
    pub fn with_capacity(shape: Vec<usize>, n: usize) -> Self {
        SparseTensorBuilder {
            indices: Vec::with_capacity(n.saturating_mul(shape.len())),
            values: Vec::with_capacity(n),
            shape,
            mode: ValidationMode::Off,
            counts: QuarantineCounts::default(),
        }
    }

    /// Selects how suspect entries are treated (default:
    /// [`ValidationMode::Off`], the legacy merge-by-sum semantics).
    #[must_use]
    pub fn with_validation(mut self, mode: ValidationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Queues one entry.
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] for indices outside the
    /// shape (quarantined instead under [`ValidationMode::Quarantine`]), and
    /// [`TensorError::NonFiniteValue`] for a NaN/Inf value under
    /// [`ValidationMode::Strict`].
    pub fn push(&mut self, idx: &[usize], value: f64) -> Result<&mut Self> {
        if idx.len() != self.shape.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                shape: self.shape.clone(),
            });
        }
        if idx.iter().zip(&self.shape).any(|(i, s)| i >= s) {
            if self.mode == ValidationMode::Quarantine {
                self.counts.out_of_bounds += 1;
                return Ok(self);
            }
            return Err(TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                shape: self.shape.clone(),
            });
        }
        if !value.is_finite() {
            match self.mode {
                ValidationMode::Strict => {
                    return Err(TensorError::NonFiniteValue {
                        index: idx.to_vec(),
                        value,
                    });
                }
                ValidationMode::Quarantine => {
                    self.counts.non_finite += 1;
                    return Ok(self);
                }
                ValidationMode::Off => {}
            }
        }
        // In bounds, but of a mode too long for the stored index width.
        for &i in idx {
            narrow_index(i as u64)?;
        }
        // lint:allow(narrowing_cast): every coordinate passed `narrow_index` above
        self.indices.extend(idx.iter().map(|&i| i as u32));
        self.values.push(value);
        Ok(self)
    }

    /// Number of queued (pre-merge) entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Finalises the tensor: sorts, resolves duplicates per the validation
    /// mode, drops zeros.
    ///
    /// # Errors
    /// Returns [`TensorError::EmptyShape`] for a zero-order shape, and
    /// [`TensorError::DuplicateIndex`] for a duplicated coordinate under
    /// [`ValidationMode::Strict`].
    pub fn build(self) -> Result<SparseTensor> {
        self.build_with_report().map(|(t, _)| t)
    }

    /// Like [`SparseTensorBuilder::build`], additionally returning the tally
    /// of entries quarantined during `push` and duplicate resolution.
    ///
    /// One sort of one [`SortKey`] per entry, then one pass over the sorted
    /// keys that resolves every run of equal coordinates — summed (`Off`,
    /// in sorted order), first-wins (`Quarantine`) or refused (`Strict`) —
    /// and drops it when its value is exactly zero, leaving the run's sum in
    /// its first entry's staging slot.  The output is gathered from the
    /// staging buffers at its exact size.
    ///
    /// # Errors
    /// Same conditions as [`SparseTensorBuilder::build`].
    pub fn build_with_report(mut self) -> Result<(SparseTensor, QuarantineCounts)> {
        if self.shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        let order = self.shape.len();
        // The longest prefix of modes whose cell count fits a `u64` is
        // packed in mixed radix — all of them for every shape that is not
        // astronomically large; the modes after it break ties.
        let mut cells = 1u64;
        let packed = self
            .shape
            .iter()
            .take_while(|&&s| match cells.checked_mul(s as u64) {
                Some(c) => {
                    cells = c;
                    true
                }
                None => false,
            })
            .count();
        let tuple = |e: usize| &self.indices[e * order..(e + 1) * order];
        let mut keys: Vec<SortKey> = (0..self.values.len())
            .map(|e| {
                let key = tuple(e)[..packed]
                    .iter()
                    .zip(&self.shape)
                    .fold(0u64, |key, (&i, &s)| key * s as u64 + u64::from(i));
                (key, e)
            })
            .collect();
        let rest = |e: usize| &tuple(e)[packed..];
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| rest(a.1).cmp(rest(b.1))));

        let mode = self.mode;
        let mut counts = self.counts;
        let mut kept = 0;
        let mut run = 0;
        while run < keys.len() {
            let (key, first) = keys[run];
            let mut acc = self.values[first];
            let mut next = run + 1;
            while next < keys.len() && keys[next].0 == key && rest(keys[next].1) == rest(first) {
                match mode {
                    ValidationMode::Strict => {
                        return Err(TensorError::DuplicateIndex {
                            index: tuple(first).iter().map(|&i| i as usize).collect(),
                        });
                    }
                    // First write (in sorted order) wins.
                    ValidationMode::Quarantine => counts.duplicates += 1,
                    ValidationMode::Off => acc += self.values[keys[next].1],
                }
                next += 1;
            }
            // Exact zeros (cancellation or explicit zero pushes) are dropped.
            if acc != 0.0 {
                self.values[first] = acc;
                keys[kept] = (key, first);
                kept += 1;
            }
            run = next;
        }
        keys.truncate(kept);

        let mut indices = Vec::with_capacity(kept * order);
        let mut values = Vec::with_capacity(kept);
        for &(_, e) in &keys {
            indices.extend_from_slice(tuple(e));
            values.push(self.values[e]);
        }
        Ok((
            SparseTensor {
                shape: self.shape,
                indices,
                values,
            },
            counts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseTensor {
        let mut b = SparseTensorBuilder::new(vec![2, 3, 4]);
        b.push(&[0, 0, 0], 1.0).unwrap();
        b.push(&[1, 2, 3], 2.0).unwrap();
        b.push(&[0, 1, 2], -3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_sorts_and_stores() {
        let t = small();
        assert_eq!(t.order(), 3);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.index(0), &[0, 0, 0]);
        assert_eq!(t.index(1), &[0, 1, 2]);
        assert_eq!(t.index(2), &[1, 2, 3]);
        assert_eq!(t.value(1), -3.0);
    }

    #[test]
    fn builder_merges_duplicates_and_drops_zero() {
        let mut b = SparseTensorBuilder::new(vec![2, 2]);
        b.push(&[0, 0], 1.5).unwrap();
        b.push(&[0, 0], 0.5).unwrap();
        b.push(&[1, 1], 2.0).unwrap();
        b.push(&[1, 1], -2.0).unwrap(); // cancels out
        b.push(&[0, 1], 0.0).unwrap(); // explicit zero dropped
        let t = b.build().unwrap();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(&[0, 0]).unwrap(), 2.0);
        assert_eq!(t.get(&[1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn builder_rejects_out_of_bounds() {
        let mut b = SparseTensorBuilder::new(vec![2, 2]);
        assert!(b.push(&[2, 0], 1.0).is_err());
        assert!(b.push(&[0], 1.0).is_err());
    }

    #[test]
    fn strict_mode_rejects_non_finite_and_duplicates() {
        let mut b = SparseTensorBuilder::new(vec![2, 2]).with_validation(ValidationMode::Strict);
        let err = b.push(&[0, 1], f64::NAN).unwrap_err();
        assert!(
            matches!(err, TensorError::NonFiniteValue { ref index, .. } if index == &vec![0, 1])
        );
        assert!(b.push(&[1, 0], f64::INFINITY).is_err());

        let mut b = SparseTensorBuilder::new(vec![2, 2]).with_validation(ValidationMode::Strict);
        b.push(&[0, 0], 1.0).unwrap();
        b.push(&[0, 0], 2.0).unwrap();
        assert!(matches!(
            b.build(),
            Err(TensorError::DuplicateIndex { ref index }) if index == &vec![0, 0]
        ));
    }

    #[test]
    fn quarantine_mode_drops_and_counts() {
        let mut b =
            SparseTensorBuilder::new(vec![2, 2]).with_validation(ValidationMode::Quarantine);
        b.push(&[0, 0], 1.0).unwrap();
        b.push(&[0, 1], f64::NAN).unwrap(); // dropped
        b.push(&[5, 0], 3.0).unwrap(); // out of bounds, dropped
        b.push(&[0, 0], 9.0).unwrap(); // duplicate, first write wins
        b.push(&[1, 1], 4.0).unwrap();
        let (t, counts) = b.build_with_report().unwrap();
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(t.get(&[1, 1]).unwrap(), 4.0);
        assert_eq!(counts.non_finite, 1);
        assert_eq!(counts.out_of_bounds, 1);
        assert_eq!(counts.duplicates, 1);
        assert_eq!(counts.total(), 3);
    }

    #[test]
    fn quarantine_still_rejects_wrong_arity() {
        let mut b =
            SparseTensorBuilder::new(vec![2, 2]).with_validation(ValidationMode::Quarantine);
        assert!(b.push(&[0], 1.0).is_err());
    }

    #[test]
    fn off_mode_keeps_legacy_semantics() {
        let mut b = SparseTensorBuilder::new(vec![2, 2]);
        b.push(&[0, 0], 1.0).unwrap();
        b.push(&[0, 0], 2.0).unwrap(); // merged by summation
        b.push(&[1, 1], f64::NAN).unwrap(); // stored as-is
        let (t, counts) = b.build_with_report().unwrap();
        assert_eq!(t.get(&[0, 0]).unwrap(), 3.0);
        assert!(t.get(&[1, 1]).unwrap().is_nan());
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn empty_shape_rejected() {
        assert!(SparseTensor::empty(vec![]).is_err());
        assert!(SparseTensorBuilder::new(vec![]).build().is_err());
    }

    #[test]
    fn get_structural_zero_and_oob() {
        let t = small();
        assert_eq!(t.get(&[1, 0, 0]).unwrap(), 0.0);
        assert_eq!(t.get(&[1, 2, 3]).unwrap(), 2.0);
        assert!(t.get(&[2, 0, 0]).is_err());
    }

    #[test]
    fn slice_nnz_histograms() {
        let t = small();
        assert_eq!(t.slice_nnz(0).unwrap(), vec![2, 1]);
        assert_eq!(t.slice_nnz(1).unwrap(), vec![1, 1, 1]);
        assert_eq!(t.slice_nnz(2).unwrap(), vec![1, 0, 1, 1]);
        assert!(t.slice_nnz(3).is_err());
    }

    #[test]
    fn norm_and_sums() {
        let t = small();
        assert_eq!(t.norm_sq(), 1.0 + 4.0 + 9.0);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn block_signature() {
        let old = [2, 2, 2];
        assert_eq!(SparseTensor::block_of(&[0, 1, 0], &old), 0b000);
        assert_eq!(SparseTensor::block_of(&[2, 1, 0], &old), 0b001);
        assert_eq!(SparseTensor::block_of(&[0, 3, 0], &old), 0b010);
        assert_eq!(SparseTensor::block_of(&[2, 3, 5], &old), 0b111);
    }

    #[test]
    fn split_at_partitions_entries() {
        let t = small(); // shape [2,3,4]
        let (inside, outside) = t.split_at(&[1, 2, 3]).unwrap();
        // [0,0,0] is inside; [0,1,2] inside; [1,2,3] outside.
        assert_eq!(inside.nnz(), 2);
        assert_eq!(inside.shape(), &[1, 2, 3]);
        assert_eq!(outside.nnz(), 1);
        assert_eq!(outside.shape(), &[2, 3, 4]);
        assert_eq!(outside.index(0), &[1, 2, 3]);
        // Conservation of nnz.
        assert_eq!(inside.nnz() + outside.nnz(), t.nnz());
    }

    #[test]
    fn split_at_validates_shapes() {
        let t = small();
        assert!(t.split_at(&[1, 2]).is_err());
        assert!(t.split_at(&[3, 3, 4]).is_err());
    }

    #[test]
    fn every_split_names_itself_in_a_shape_mismatch() {
        let t = small();
        let wrong_order = [1usize, 2];
        let op_of = |e: TensorError| match e {
            TensorError::ShapeMismatch { op, .. } => op,
            other => panic!("expected ShapeMismatch, got {other:?}"),
        };
        assert_eq!(op_of(t.split_at(&wrong_order).unwrap_err()), "split_at");
        assert_eq!(op_of(t.restrict(&wrong_order).unwrap_err()), "restrict");
        assert_eq!(op_of(t.complement(&wrong_order).unwrap_err()), "complement");
        assert_eq!(
            op_of(t.split_blocks(&wrong_order).unwrap_err()),
            "split_blocks"
        );
        // An old shape that outgrew the tensor is refused by all four alike.
        let too_big = [3usize, 3, 4];
        assert!(t.restrict(&too_big).is_err());
        assert!(t.complement(&too_big).is_err());
        assert!(t.split_blocks(&too_big).is_err());
    }

    #[test]
    fn restrict_and_complement_are_split_halves() {
        let t = small();
        let old = [2, 3, 3];
        let r = t.restrict(&old).unwrap();
        let c = t.complement(&old).unwrap();
        assert_eq!(r.nnz() + c.nnz(), t.nnz());
        for (idx, _) in r.iter() {
            assert_eq!(SparseTensor::block_of(idx, &old), 0);
        }
        for (idx, _) in c.iter() {
            assert_ne!(SparseTensor::block_of(idx, &old), 0);
        }
    }

    #[test]
    fn split_blocks_partitions_by_signature() {
        let t = small(); // shape [2,3,4]; entries [0,0,0], [0,1,2], [1,2,3]
        let old = [1usize, 2, 3];
        let blocks = t.split_blocks(&old).unwrap();
        // [0,0,0] → 0b000; [0,1,2] → 0b000; [1,2,3] → 0b111.
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].0, 0);
        assert_eq!(blocks[0].1.nnz(), 2);
        assert_eq!(blocks[1].0, 0b111);
        assert_eq!(blocks[1].1.nnz(), 1);
        // Blocks conserve nnz and norm.
        let total_nnz: usize = blocks.iter().map(|(_, b)| b.nnz()).sum();
        assert_eq!(total_nnz, t.nnz());
        let total_norm: f64 = blocks.iter().map(|(_, b)| b.norm_sq()).sum();
        assert!((total_norm - t.norm_sq()).abs() < 1e-12);
        // Non-zero blocks union to the complement.
        let complement = t.complement(&old).unwrap();
        let outside_nnz: usize = blocks
            .iter()
            .filter(|(sig, _)| *sig != 0)
            .map(|(_, b)| b.nnz())
            .sum();
        assert_eq!(outside_nnz, complement.nnz());
    }

    #[test]
    fn split_blocks_signatures_match_block_of() {
        let t = small();
        let old = [2usize, 2, 2];
        for (sig, block) in t.split_blocks(&old).unwrap() {
            for (idx, _) in block.iter() {
                assert_eq!(SparseTensor::block_of(idx, &old), sig);
            }
        }
    }

    #[test]
    fn split_blocks_validates() {
        let t = small();
        assert!(t.split_blocks(&[1, 2]).is_err());
        assert!(t.split_blocks(&[9, 2, 2]).is_err());
        // Empty tensor: no blocks at all.
        let e = SparseTensor::empty(vec![2, 2]).unwrap();
        assert!(e.split_blocks(&[1, 1]).unwrap().is_empty());
    }

    /// `SparseTensor::try_from` on a JSON document.
    fn parse(json: &str) -> Result<SparseTensor> {
        let v: serde::Value = serde_json::from_str(json).unwrap();
        SparseTensor::try_from(&v)
    }

    #[test]
    fn serialised_form_is_unchanged_by_the_index_width() {
        // Written by the `Vec<usize>` representation (PR 19).
        let old = r#"{"shape":[3,4,2],"indices":[0,0,0,1,2,0,2,3,1],"values":[1.5,42.0,-0.25]}"#;
        let t: SparseTensor = serde_json::from_str(old).unwrap();
        assert_eq!(t.index(1), &[1, 2, 0]);
        assert_eq!(serde_json::to_string(&t).unwrap(), old);
    }

    #[test]
    fn deserialize_refuses_what_the_kernels_would_trip_on() {
        // An index outside its dimension (`inner_sparse` used to panic).
        match parse(r#"{"shape":[2,2],"indices":[9,0],"values":[1.0]}"#) {
            Err(TensorError::IndexOutOfBounds { index, shape }) => {
                assert_eq!((index, shape), (vec![9, 0], vec![2, 2]));
            }
            other => panic!("expected IndexOutOfBounds, got {other:?}"),
        }
        // Index and value buffers that disagree about nnz.
        assert!(matches!(
            parse(r#"{"shape":[2,2],"indices":[0],"values":[1.0,2.0]}"#),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            parse(r#"{"shape":[],"indices":[],"values":[]}"#),
            Err(TensorError::EmptyShape)
        ));
        // In bounds for its (giant) mode, but not a storable coordinate.
        assert_eq!(
            parse(r#"{"shape":[5000000000,2],"indices":[4294967296,0],"values":[1.0]}"#),
            Err(TensorError::PlanOverflow {
                what: "index",
                value: 1 << 32
            })
        );
        assert!(matches!(
            parse(r#"{"shape":[2,2],"values":[]}"#),
            Err(TensorError::InvalidArgument(_))
        ));
        // Through `Deserialize` the same refusals arrive rendered.
        let err = serde_json::from_str::<SparseTensor>(
            r#"{"shape":[2,2],"indices":[9,0],"values":[1.0]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("out of bounds"), "{err}");
        // Unsorted and repeated coordinates are legal and kept as written.
        let t = parse(r#"{"shape":[2,2],"indices":[1,1,0,0,1,1],"values":[1.0,2.0,3.0]}"#).unwrap();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.indices_flat(), &[1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn push_refuses_a_coordinate_the_index_width_cannot_hold() {
        let mut b = SparseTensorBuilder::new(vec![1 << 33, 2]);
        assert_eq!(
            b.push(&[1 << 32, 0], 1.0).unwrap_err(),
            TensorError::PlanOverflow {
                what: "index",
                value: 1 << 32
            }
        );
        // Quarantine drops bad *data*; an unrepresentable coordinate is refused.
        let mut q =
            SparseTensorBuilder::new(vec![1 << 33, 2]).with_validation(ValidationMode::Quarantine);
        assert!(q.push(&[1 << 32, 0], 1.0).is_err());
        // The last representable coordinate of the same mode is fine.
        b.push(&[u32::MAX as usize, 1], 2.0).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.index(0), &[u32::MAX, 1]);
        assert_eq!(t.get(&[u32::MAX as usize, 1]).unwrap(), 2.0);
    }

    #[test]
    fn partition_by_routes_in_stored_order_without_sorting() {
        // Unsorted, with a repeated coordinate: nothing `build` normalised.
        let t = parse(
            r#"{"shape":[4,2],"indices":[3,1,0,0,2,1,3,1,1,0],"values":[1.0,2.0,3.0,4.0,5.0]}"#,
        )
        .unwrap();
        let parts = t.partition_by(|idx| (idx[0] % 2) as usize);
        let keys: Vec<usize> = parts.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [0, 1]);
        assert_eq!(parts[0].1.indices_flat(), &[0, 0, 2, 1]);
        assert_eq!(parts[0].1.values(), &[2.0, 3.0]);
        assert_eq!(parts[1].1.indices_flat(), &[3, 1, 3, 1, 1, 0]);
        assert_eq!(parts[1].1.values(), &[1.0, 4.0, 5.0]);
        assert!(parts.iter().all(|(_, p)| p.shape() == t.shape()));
        // A built tensor's parts are what a builder per part would build.
        let built = small();
        for (key, part) in built.partition_by(|idx| idx[2] as usize / 2) {
            let mut b = SparseTensorBuilder::new(built.shape().to_vec());
            for (idx, v) in built.iter().filter(|(idx, _)| idx[2] as usize / 2 == key) {
                let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
                b.push(&idx, v).unwrap();
            }
            assert_eq!(part, b.build().unwrap());
        }
    }

    #[test]
    fn iter_matches_accessors() {
        let t = small();
        let collected: Vec<(Vec<u32>, f64)> = t.iter().map(|(i, v)| (i.to_vec(), v)).collect();
        assert_eq!(collected.len(), t.nnz());
        for (e, (idx, v)) in collected.iter().enumerate() {
            assert_eq!(idx.as_slice(), t.index(e));
            assert_eq!(*v, t.value(e));
        }
    }

    #[test]
    fn empty_tensor_operations() {
        let t = SparseTensor::empty(vec![3, 3]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.norm_sq(), 0.0);
        assert_eq!(t.slice_nnz(0).unwrap(), vec![0, 0, 0]);
        let (a, b) = t.split_at(&[2, 2]).unwrap();
        assert!(a.is_empty() && b.is_empty());
    }

    /// The `(Vec<usize>, f64)` builder the flat one replaced, kept as its
    /// oracle: one heap tuple per entry, `sort_unstable_by` over the tuples
    /// (or `sort_by`, the stable sort, with `stable`), then a merge and a
    /// separate zero-compaction pass.
    struct VecBuilder {
        shape: Vec<usize>,
        entries: Vec<(Vec<usize>, f64)>,
        mode: ValidationMode,
        counts: QuarantineCounts,
    }

    impl VecBuilder {
        fn new(shape: Vec<usize>, mode: ValidationMode) -> Self {
            VecBuilder {
                shape,
                entries: Vec::new(),
                mode,
                counts: QuarantineCounts::default(),
            }
        }

        fn push(&mut self, idx: &[usize], value: f64) -> Result<()> {
            if idx.len() != self.shape.len() {
                return Err(TensorError::IndexOutOfBounds {
                    index: idx.to_vec(),
                    shape: self.shape.clone(),
                });
            }
            if idx.iter().zip(&self.shape).any(|(i, s)| i >= s) {
                if self.mode == ValidationMode::Quarantine {
                    self.counts.out_of_bounds += 1;
                    return Ok(());
                }
                return Err(TensorError::IndexOutOfBounds {
                    index: idx.to_vec(),
                    shape: self.shape.clone(),
                });
            }
            if !value.is_finite() {
                match self.mode {
                    ValidationMode::Strict => {
                        return Err(TensorError::NonFiniteValue {
                            index: idx.to_vec(),
                            value,
                        });
                    }
                    ValidationMode::Quarantine => {
                        self.counts.non_finite += 1;
                        return Ok(());
                    }
                    ValidationMode::Off => {}
                }
            }
            for &i in idx {
                narrow_index(i as u64)?;
            }
            self.entries.push((idx.to_vec(), value));
            Ok(())
        }

        fn build_with_report(mut self, stable: bool) -> Result<(SparseTensor, QuarantineCounts)> {
            if self.shape.is_empty() {
                return Err(TensorError::EmptyShape);
            }
            if stable {
                self.entries.sort_by(|a, b| a.0.cmp(&b.0));
            } else {
                self.entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            }
            let order = self.shape.len();
            let mut counts = self.counts;
            let mut indices = Vec::with_capacity(self.entries.len() * order);
            let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
            let mut last: Option<&[usize]> = None;
            for (idx, v) in &self.entries {
                if last == Some(idx.as_slice()) {
                    match self.mode {
                        ValidationMode::Strict => {
                            return Err(TensorError::DuplicateIndex { index: idx.clone() });
                        }
                        ValidationMode::Quarantine => counts.duplicates += 1,
                        ValidationMode::Off => {
                            if let Some(acc) = values.last_mut() {
                                *acc += v;
                            }
                        }
                    }
                } else {
                    indices.extend(idx.iter().map(|&i| i as u32));
                    values.push(*v);
                    last = Some(idx.as_slice());
                }
            }
            let mut out_indices = Vec::with_capacity(indices.len());
            let mut out_values = Vec::with_capacity(values.len());
            for (e, &v) in values.iter().enumerate() {
                if v != 0.0 {
                    out_indices.extend_from_slice(&indices[e * order..(e + 1) * order]);
                    out_values.push(v);
                }
            }
            Ok((
                SparseTensor {
                    shape: self.shape,
                    indices: out_indices,
                    values: out_values,
                },
                counts,
            ))
        }
    }

    /// Bitwise equality of two build results: shape, coordinates, value
    /// bits (NaN and the sign of zero included), tallies, errors.
    fn same_bits(
        a: &Result<(SparseTensor, QuarantineCounts)>,
        b: &Result<(SparseTensor, QuarantineCounts)>,
    ) -> bool {
        match (a, b) {
            (Ok((x, cx)), Ok((y, cy))) => {
                x.shape == y.shape
                    && x.indices == y.indices
                    && cx == cy
                    && x.values.len() == y.values.len()
                    && x.values
                        .iter()
                        .zip(&y.values)
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (Err(e), Err(f)) => e == f,
            _ => false,
        }
    }

    /// One random input for `shape`: coordinates drawn from three values
    /// per mode, so most coordinates repeat three times or more; values
    /// of mixed magnitude (their sums depend on the order they are added
    /// in), explicit zeros of both signs, cancelling pairs, and a few
    /// non-finite values and out-of-bounds coordinates.
    fn random_pushes(
        shape: &[usize],
        n: usize,
        rng: &mut impl rand::Rng,
    ) -> Vec<(Vec<usize>, f64)> {
        let palettes: Vec<Vec<usize>> = shape
            .iter()
            .map(|&s| {
                let top = s.min(1 << 32);
                (0..3).map(|_| rng.gen_range(0..top)).collect()
            })
            .collect();
        let mut pushes = Vec::with_capacity(n);
        while pushes.len() < n {
            let idx: Vec<usize> = palettes
                .iter()
                .map(|p| p[rng.gen_range(0..p.len())])
                .collect();
            let roll = rng.gen_range(0..100);
            let value = rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-4..5));
            match roll {
                0..=3 => pushes.push((idx, if roll % 2 == 0 { 0.0 } else { -0.0 })),
                4..=9 => {
                    pushes.push((idx.clone(), value));
                    pushes.push((idx, -value));
                }
                10 => pushes.push((idx, [f64::NAN, f64::INFINITY][rng.gen_range(0..2usize)])),
                11 => {
                    let mut oob = idx;
                    oob[rng.gen_range(0..shape.len())] = usize::MAX;
                    pushes.push((oob, value));
                }
                _ => pushes.push((idx, value)),
            }
        }
        pushes
    }

    #[test]
    fn flat_builder_matches_the_vec_builder_bit_for_bit() {
        use rand::SeedableRng;
        let shapes: [Vec<usize>; 8] = [
            vec![40],
            vec![7, 9],
            vec![24_000, 5_400, 1_400],
            vec![3, 5, 4, 6],
            vec![4, 3, 5, 2, 3],
            // The cell count fits a `u64` with no room to spare…
            vec![1 << 32, (1 << 32) - 1],
            // …and does not: 2⁶⁴ cells exactly, and far more.
            vec![1 << 32, 1 << 32],
            vec![1 << 40, 1 << 30, 7, 1 << 33, 5],
        ];
        assert!(shapes[7]
            .iter()
            .try_fold(1u64, |c, &s| c.checked_mul(s as u64))
            .is_none());
        let modes = [
            ValidationMode::Off,
            ValidationMode::Strict,
            ValidationMode::Quarantine,
        ];
        let mut order_sensitive = 0;
        for (case, shape) in shapes.iter().enumerate() {
            for mode in modes {
                for seed in 0..6u64 {
                    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed * 31 + case as u64);
                    let pushes = random_pushes(shape, 400, &mut rng);
                    let mut flat = SparseTensorBuilder::new(shape.clone()).with_validation(mode);
                    let mut unstable = VecBuilder::new(shape.clone(), mode);
                    let mut stable = VecBuilder::new(shape.clone(), mode);
                    let mut groups = BTreeMap::<Vec<usize>, usize>::new();
                    for (idx, v) in &pushes {
                        // Debug forms: a refused NaN is not `==` itself.
                        let want = unstable.push(idx, *v);
                        let got = flat.push(idx, *v).map(|_| ());
                        assert_eq!(format!("{got:?}"), format!("{want:?}"));
                        stable.push(idx, *v).ok();
                        if want.is_ok() {
                            *groups.entry(idx.clone()).or_default() += 1;
                        }
                    }
                    assert_eq!(flat.len(), unstable.entries.len());
                    assert!(
                        groups.values().any(|&g| g >= 3),
                        "shape {shape:?} seed {seed}: no duplicate group of three"
                    );
                    let want = unstable.build_with_report(false);
                    let got = flat.build_with_report();
                    assert!(
                        same_bits(&got, &want),
                        "shape {shape:?} {mode:?} seed {seed}:\n{got:?}\n{want:?}"
                    );
                    if !same_bits(&stable.build_with_report(true), &want) {
                        order_sensitive += 1;
                    }
                }
            }
        }
        // The inputs have teeth: a merge that adds duplicates in another
        // order than the unstable sort leaves them in moves bits — so a
        // narrower sort element or a stable sort fails the assertion above.
        assert!(order_sensitive > 0, "no input depends on the merge order");
    }

    #[test]
    fn binary_search_is_correct_on_sorted_tuples() {
        let t = small();
        for e in 0..t.nnz() {
            let idx: Vec<usize> = t.index(e).iter().map(|&i| i as usize).collect();
            assert_eq!(t.get(&idx).unwrap(), t.value(e));
        }
    }
}
