//! Sparse tensors in coordinate (COO) format, for arbitrary order.
//!
//! DisMASTD stores `X \ X̃` as "all the non-zero elements with the coordinate
//! format" (Theorem 3's proof); this module is that representation.  Indices
//! are kept in one flat `Vec<u32>` with stride `order`, so iterating the
//! nonzeros touches two contiguous arrays — the access pattern MTTKRP needs —
//! at `4·order + 8` bytes per nonzero.  Shapes, bounds and caller-supplied
//! coordinates are `usize`; a coordinate `≥ 2³²` is refused where it enters
//! ([`SparseTensorBuilder::push`], `Deserialize`) with `PlanOverflow`.
//!
//! The two buffers are one shared, immutable store, and a tensor views a
//! prefix of it: the nested snapshots of a stream
//! ([`SparseTensor::nested_prefixes`]) are prefixes of one arrival-ordered
//! store, so a stream holds each nonzero once.  A [`PrefixMark`] remembers
//! where one view ends, and [`SparseTensor::since`] hands a later view's
//! entries past it — on a stream, what arrived in between.

use crate::error::{Result, TensorError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Weak};

/// An `N`-th order sparse tensor in coordinate format.
///
/// Its entries are the first `nnz` of a shared, immutable store; cloning a
/// tensor shares the store, and every operation below reads the viewed
/// entries only.
///
/// Invariants (enforced by [`SparseTensorBuilder::build`]):
/// * every index tuple is within `shape`;
/// * index tuples are unique (duplicates are summed at build time);
/// * no stored value is exactly `0.0`;
/// * the stored order is lexicographic by index tuple for a built tensor
///   (and for every `restrict`, `complement` and `partition_by` part of
///   one), and (arrival step, index tuple) for a snapshot of
///   [`Self::nested_prefixes`] cut from one: step `t`'s entries follow
///   step `t − 1`'s, so only snapshot `0` and each step's complement are
///   lexicographic.
///
/// A deserialised tensor keeps the first invariant only (it is checked);
/// its entries stay in the order and multiplicity the document gave them.
#[derive(Clone)]
pub struct SparseTensor {
    shape: Vec<usize>,
    /// The store's flattened index tuples (stride = `order`); this tensor
    /// views the first `nnz * order`.
    indices: Arc<Vec<u32>>,
    /// The store's values; this tensor views the first `nnz`.
    values: Arc<Vec<f64>>,
    nnz: usize,
}

/// Where a tensor's view of its store ends ([`SparseTensor::mark`]): the
/// store, held weakly — a mark does not keep a dropped store's buffers
/// alive — and the number of entries viewed.
#[derive(Debug, Clone)]
pub struct PrefixMark {
    indices: Weak<Vec<u32>>,
    values: Weak<Vec<f64>>,
    nnz: usize,
}

/// Equality of shape and viewed entries, in stored order; where the store
/// ends beyond the view does not matter.
impl PartialEq for SparseTensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && self.indices_flat() == other.indices_flat()
            && self.values() == other.values()
    }
}

/// Prints the viewed entries, as the derived form of a tensor owning them.
impl fmt::Debug for SparseTensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseTensor")
            .field("shape", &self.shape)
            .field("indices", &self.indices_flat())
            .field("values", &self.values())
            .finish()
    }
}

/// `{"shape", "indices", "values"}` of the viewed entries: a prefix view
/// writes the document of a tensor owning the same entries.
impl Serialize for SparseTensor {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("shape".to_string(), self.shape.to_value()),
            ("indices".to_string(), self.indices_flat().to_value()),
            ("values".to_string(), self.values().to_value()),
        ])
    }
}

/// Owned entry buffers, filled in place and wrapped into a store once.
#[derive(Debug, Clone, Default)]
struct Entries {
    /// Flattened index tuples, `values.len() * order` long.
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl Entries {
    fn push(&mut self, tuple: &[u32], value: f64) {
        self.indices.extend_from_slice(tuple);
        self.values.push(value);
    }

    /// The tensor owning these entries as its store.
    fn into_tensor(self, shape: Vec<usize>) -> SparseTensor {
        SparseTensor {
            nnz: self.values.len(),
            shape,
            indices: Arc::new(self.indices),
            values: Arc::new(self.values),
        }
    }
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
        Ok(Entries { indices, values }.into_tensor(shape))
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
        Ok(Entries::default().into_tensor(shape))
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
        self.nnz
    }

    /// `true` when the tensor stores no nonzeros.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nnz == 0
    }

    /// The index tuple of the `e`-th stored entry.
    #[allow(clippy::should_implement_trait)] // COO entry lookup, not ops::Index
    #[inline]
    pub fn index(&self, e: usize) -> &[u32] {
        let n = self.order();
        &self.indices_flat()[e * n..(e + 1) * n]
    }

    /// The value of the `e`-th stored entry.
    #[inline]
    pub fn value(&self, e: usize) -> f64 {
        self.values()[e]
    }

    /// Iterates `(index_tuple, value)` pairs in stored order: lexicographic
    /// for a built tensor, (arrival step, index tuple) for a stream
    /// snapshot (see the type's invariants).
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        let n = self.order();
        self.indices_flat()
            .chunks_exact(n)
            .zip(self.values().iter().copied())
    }

    /// Raw flattened index buffer of the viewed entries (stride = `order`).
    #[inline]
    pub fn indices_flat(&self) -> &[u32] {
        &self.indices[..self.nnz * self.order()]
    }

    /// Raw value buffer of the viewed entries.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values[..self.nnz]
    }

    /// The value at `idx`: the sum, in stored order, of every entry at that
    /// coordinate — what the kernels see — or `0.0` for a structural zero.
    /// One pass over the entries, so any stored order is read right (a
    /// deserialised tensor may leave coordinates unsorted or repeated).
    ///
    /// # Errors
    /// Returns [`TensorError::IndexOutOfBounds`] if `idx` exceeds the shape.
    pub fn get(&self, idx: &[usize]) -> Result<f64> {
        self.check_index(idx)?;
        let at = |tuple: &[u32]| tuple.iter().zip(idx).all(|(&i, &j)| i as usize == j);
        let sum = self
            .iter()
            .filter(|(tuple, _)| at(tuple))
            .fold(None, |acc: Option<f64>, (_, v)| {
                Some(acc.map_or(v, |a| a + v))
            });
        Ok(sum.unwrap_or(0.0))
    }

    /// Squared Frobenius norm — sum of squares of the stored values.
    pub fn norm_sq(&self) -> f64 {
        self.values().iter().map(|v| v * v).sum()
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
        for tuple in self.indices_flat().chunks_exact(n) {
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

    /// Returns the sub-tensor of entries whose every index is `< bounds[k]`,
    /// reshaped to `bounds` — i.e. the old snapshot `X̃ = X^{0,…,0}`.
    ///
    /// One pass over the index buffer that writes only the entries it
    /// returns, in stored order (no sortedness is assumed): `O(nnz)` index
    /// reads, `O(nnz(X̃))` writes.  The result's buffers are sized to the
    /// entries kept, so a long-lived restriction holds no spare capacity.
    ///
    /// # Errors
    /// Returns an error if `bounds` has a different order or exceeds the
    /// current shape in any mode.
    pub fn restrict(&self, bounds: &[usize]) -> Result<SparseTensor> {
        self.check_old_shape("restrict", bounds)?;
        // Most callers keep nearly everything (a stream cut keeps 75–100 %):
        // reserve for all of it once, then hand back what was not used.
        let mut kept = Entries::default();
        kept.indices.reserve_exact(self.indices_flat().len());
        kept.values.reserve_exact(self.nnz);
        self.copy_side::<true>(bounds, &mut kept);
        kept.indices.shrink_to_fit();
        kept.values.shrink_to_fit();
        Ok(kept.into_tensor(bounds.to_vec()))
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
    /// Same conditions as [`Self::restrict`].
    pub fn complement(&self, old_shape: &[usize]) -> Result<SparseTensor> {
        self.check_old_shape("complement", old_shape)?;
        let mut outside = Entries::default();
        self.copy_side::<false>(old_shape, &mut outside);
        Ok(outside.into_tensor(self.shape.clone()))
    }

    /// Appends to `out` the entries inside `old_shape`'s box (`INSIDE`) or
    /// outside it, in stored order: every index tuple is read once, values
    /// of copied entries only.  Each side gets its own compiled scan.
    fn copy_side<const INSIDE: bool>(&self, old_shape: &[usize], out: &mut Entries) {
        self.scan_box(old_shape, |in_box, tuple, v| {
            if in_box == INSIDE {
                out.push(tuple, *v);
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
        let tuples = self.indices_flat().chunks_exact(self.order());
        for (tuple, v) in tuples.zip(self.values()) {
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
        for (tuple, v) in self.indices_flat().chunks_exact(K).zip(self.values()) {
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

    /// Routes every entry to the part `key(tuple)` names, in one pass: one
    /// `(key, part)` pair per **non-empty** part in ascending key order,
    /// each in this tensor's shape and global coordinates, entries in
    /// stored order.  Nothing is sorted or merged: the parts of a built
    /// tensor (sorted, unique) are sorted and unique, those of an unsorted
    /// deserialised one keep its order and duplicates.  Allocates per part
    /// (push growth), not per entry.
    pub fn partition_by(&self, mut key: impl FnMut(&[u32]) -> usize) -> Vec<(usize, SparseTensor)> {
        let mut parts: BTreeMap<usize, Entries> = BTreeMap::new();
        for (tuple, v) in self.iter() {
            parts.entry(key(tuple)).or_default().push(tuple, v);
        }
        parts
            .into_iter()
            .map(|(k, part)| (k, part.into_tensor(self.shape.clone())))
            .collect()
    }

    /// Cuts this tensor into nested snapshots that share one store: the
    /// snapshot for `boxes[t]` holds every entry inside that box, in the
    /// box's shape.  Boxes must be nested (each no larger than the next
    /// in any mode); entries outside the last box are dropped.
    ///
    /// An entry's *arrival step* is the first box that holds it.  One pass
    /// counts the entries per step from per-mode `index → first step`
    /// tables; a second scatters them, stably, into one store sorted by
    /// (arrival step, stored order), so snapshot `t` is the store's prefix
    /// of steps `0..=t`.  Snapshot `0`, and each `complement` of snapshot
    /// `t` against snapshot `t − 1`'s shape (which keeps group `t`, in
    /// stored order), hold what a `restrict` cut gives, entry for entry
    /// and in order — lexicographic, from a built tensor; a whole snapshot
    /// `t > 0` holds the same entries in another order.
    /// The snapshots hold the last one's entries once — `nnz · (4·order +
    /// 8)` bytes — where per-box `restrict` copies would hold each box's.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] for a box of another order,
    /// and [`TensorError::InvalidArgument`] for a box exceeding the shape
    /// or boxes that are not nested.
    pub fn nested_prefixes(&self, boxes: &[Vec<usize>]) -> Result<Vec<SparseTensor>> {
        for bounds in boxes {
            self.check_old_shape("nested_prefixes", bounds)?;
        }
        if let Some(w) = boxes
            .windows(2)
            .find(|w| w[0].iter().zip(&w[1]).any(|(a, b)| a > b))
        {
            return Err(TensorError::InvalidArgument(format!(
                "nested_prefixes: box {:?} is not inside the next box {:?}",
                w[0], w[1]
            )));
        }
        let steps = boxes.len();
        // Per mode, `first[i]` is the first step whose box holds index `i`
        // (`steps` when none does); an entry arrives at its modes' latest.
        let first: Vec<Vec<usize>> = (0..self.order())
            .map(|k| {
                let mut first = vec![steps; self.shape[k]];
                let mut from = 0;
                for (t, bounds) in boxes.iter().enumerate() {
                    first[from..bounds[k]].fill(t);
                    from = bounds[k];
                }
                first
            })
            .collect();
        let arrival = |tuple: &[u32]| {
            tuple
                .iter()
                .zip(&first)
                .fold(0, |at, (&i, first)| at.max(first[i as usize]))
        };

        // `next[t]`: the first free slot of step `t`'s group, which ends
        // where the scatter leaves it.
        let order = self.order();
        let mut next = vec![0usize; steps + 1];
        for tuple in self.indices_flat().chunks_exact(order) {
            next[arrival(tuple)] += 1;
        }
        let mut kept = 0;
        for slot in &mut next[..steps] {
            (*slot, kept) = (kept, kept + *slot);
        }
        let mut store = Entries {
            indices: vec![0; kept * order],
            values: vec![0.0; kept],
        };
        for (tuple, &v) in self.indices_flat().chunks_exact(order).zip(self.values()) {
            let t = arrival(tuple);
            if t < steps {
                let e = next[t];
                store.indices[e * order..(e + 1) * order].copy_from_slice(tuple);
                store.values[e] = v;
                next[t] += 1;
            }
        }
        let whole = store.into_tensor(self.shape.clone());
        Ok(boxes
            .iter()
            .zip(next)
            .map(|(bounds, nnz)| SparseTensor {
                shape: bounds.clone(),
                nnz,
                ..whole.clone()
            })
            .collect())
    }

    /// Where this tensor's view of its store ends, for a later
    /// [`Self::since`].
    pub fn mark(&self) -> PrefixMark {
        PrefixMark {
            indices: Arc::downgrade(&self.indices),
            values: Arc::downgrade(&self.values),
            nnz: self.nnz,
        }
    }

    /// The entries this tensor views past `mark` — `[mark's nnz, nnz)`, in
    /// stored order and this tensor's shape — copied in `O(entries)`
    /// without reading the prefix; `None` unless `mark` was taken on this
    /// tensor's store and viewed no more entries than this tensor does.
    ///
    /// Views share a store only through [`Self::nested_prefixes`] (and
    /// `Clone`), where every entry past a snapshot's view arrived at a
    /// later step and so lies outside that snapshot's box: past an earlier
    /// snapshot's mark, a later one holds exactly its
    /// [`Self::complement`] against the earlier shape, entry for entry and
    /// in order.
    pub fn since(&self, mark: &PrefixMark) -> Option<SparseTensor> {
        // The mark's `Weak`s keep the store's allocations (not its buffers)
        // reserved, so no later store can sit at an address it names.
        let same_store = std::ptr::eq(mark.indices.as_ptr(), Arc::as_ptr(&self.indices))
            && std::ptr::eq(mark.values.as_ptr(), Arc::as_ptr(&self.values));
        if !same_store || mark.nnz > self.nnz {
            return None;
        }
        let n = self.order();
        let suffix = Entries {
            indices: self.indices_flat()[mark.nnz * n..].to_vec(),
            values: self.values()[mark.nnz..].to_vec(),
        };
        Some(suffix.into_tensor(self.shape.clone()))
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
/// out-of-bounds indices, duplicate coordinates).  Duplicates are resolved
/// in push order, so a build is a function of the push sequence alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ValidationMode {
    /// Reject with a typed error naming the offending coordinate (for
    /// duplicates, the least duplicated coordinate).
    Strict,
    /// Silently drop the offending entry and count it; of a duplicated
    /// coordinate's entries the first pushed is kept.
    Quarantine,
    /// Legacy semantics: non-finite values are stored as-is and duplicates
    /// are merged by summation, left to right in push order.  Out-of-bounds
    /// indices still error — they violate the shape contract, not just data
    /// hygiene.
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
    /// Duplicate coordinates dropped (the first pushed is kept).
    pub duplicates: u64,
}

impl QuarantineCounts {
    /// Total entries quarantined.
    pub fn total(&self) -> u64 {
        self.non_finite + self.out_of_bounds + self.duplicates
    }
}

/// Incremental constructor for [`SparseTensor`].
///
/// Accepts entries in any order; `build` sorts them, resolves each
/// coordinate's entries in push order — summed left to right (the usual
/// COO semantics), the first kept, or refused, per [`ValidationMode`] —
/// and drops entries whose value is exactly zero.
///
/// A builder [`on`](Self::on) a built tensor merges its pushes into it, as
/// if the tensor's entries had been pushed first: `build` sorts the pushes
/// only and copies the base between them into a new store, whether or not
/// other tensors share the base's.  [`new`](Self::new) starts a builder on
/// an empty tensor, whose build keeps the sorted pushes as the tensor.
///
/// Entries are staged flat — `order` `u32` coordinates and one `f64` per
/// entry, 20 B for order 3 — and `build` sorts one key per push beside its
/// value: the coordinate packed in mixed radix of the shape, above the
/// entry's push position.
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
///
/// // A second round merges into the first: 3.0 + 1.0, in that order.
/// let mut b = SparseTensorBuilder::on(t).unwrap();
/// b.push(&[3, 0, 1], 1.0).unwrap();
/// assert_eq!(b.build().unwrap().get(&[3, 0, 1]).unwrap(), 4.0);
/// ```
#[derive(Debug, Clone)]
pub struct SparseTensorBuilder {
    /// The tensor the pushes merge into, strictly sorted; each of its
    /// values is the first term of its coordinate.
    base: SparseTensor,
    /// Queued coordinates, `len() * order` long, narrowed at `push`.
    indices: Vec<u32>,
    /// Queued values, in push order.
    values: Vec<f64>,
    mode: ValidationMode,
    counts: QuarantineCounts,
}

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
            // Unchecked: `build` refuses a zero-order shape.
            base: Entries::default().into_tensor(shape),
            mode: ValidationMode::Off,
            counts: QuarantineCounts::default(),
        }
    }

    /// Starts a builder whose pushes merge into `base`, in `base`'s shape.
    /// Its build equals that of a builder fed `base`'s entries first and
    /// then the same pushes, bit for bit, for any `base` a build under its
    /// validation mode could have returned: `base`'s values enter as they
    /// are, no mode judges them.  `base` may share its store (a clone, a
    /// stream snapshot): the builder only reads it.
    ///
    /// # Errors
    /// Returns [`TensorError::UnsortedBase`] naming the first entry whose
    /// coordinate does not strictly follow the one before it.
    pub fn on(base: SparseTensor) -> Result<Self> {
        let tuples = base.indices_flat().chunks_exact(base.order().max(1));
        if let Some(e) = tuples.clone().zip(tuples.skip(1)).position(|(a, b)| a >= b) {
            return Err(TensorError::UnsortedBase { entry: e + 1 });
        }
        Ok(SparseTensorBuilder {
            base,
            ..Self::new(Vec::new())
        })
    }

    /// Reserves staging for `n` more pushes.
    pub fn reserve(&mut self, n: usize) {
        self.indices.reserve(n.saturating_mul(self.base.order()));
        self.values.reserve(n);
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
        let shape = &self.base.shape;
        if idx.len() != shape.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                shape: shape.clone(),
            });
        }
        if idx.iter().zip(shape).any(|(i, s)| i >= s) {
            if self.mode == ValidationMode::Quarantine {
                self.counts.out_of_bounds += 1;
                return Ok(self);
            }
            return Err(TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                shape: shape.clone(),
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

    /// Reorders the staged pushes by `(coordinate, push position)`: one
    /// sort of one key per push, each key unique, so the unstable sort
    /// leaves every coordinate's entries in push order.
    ///
    /// Where cells × pushes fit in 2⁶⁴ — every dataset generated here — the
    /// key is the coordinate packed in mixed radix of the shape above
    /// the push position, sorted beside its value (16 bytes) and unpacked
    /// back into the staging buffers: every pass reads memory in order.
    /// Otherwise the longest prefix of modes whose cell count fits a `u64`
    /// is packed beside the position, the modes after it compared between
    /// them, and the staging is gathered anew in the sorted order.
    fn sort_staging(&mut self) {
        let shape = &self.base.shape;
        let order = shape.len();
        let mut cells = 1u64;
        let packed = shape
            .iter()
            .take_while(|&&s| match cells.checked_mul(s as u64) {
                Some(c) => {
                    cells = c;
                    true
                }
                None => false,
            })
            .count();
        let pack = |tuple: &[u32]| {
            tuple[..packed]
                .iter()
                .zip(shape)
                .fold(0u64, |key, (&i, &s)| key * s as u64 + u64::from(i))
        };
        let n = self.values.len();
        let position_bits = usize::BITS - n.saturating_sub(1).leading_zeros();
        if packed == order && u128::from(cells) << position_bits <= 1 << 64 {
            let mut keys: Vec<(u64, f64)> = self
                .indices
                .chunks_exact(order)
                .zip(&self.values)
                .enumerate()
                .map(|(e, (tuple, &v))| (pack(tuple) << position_bits | e as u64, v))
                .collect();
            keys.sort_unstable_by_key(|&(key, _)| key);
            let staged = self.indices.chunks_exact_mut(order).zip(&mut self.values);
            for ((tuple, value), (key, v)) in staged.zip(keys) {
                let mut cell = key >> position_bits;
                for (i, &s) in tuple.iter_mut().zip(shape).rev() {
                    // lint:allow(narrowing_cast): each digit is a pushed coordinate, below 2³² since `push`
                    *i = (cell % s as u64) as u32;
                    cell /= s as u64;
                }
                *value = v;
            }
        } else {
            let tuple = |e: usize| &self.indices[e * order..(e + 1) * order];
            let rest = |e: usize| &tuple(e)[packed..];
            let mut keys: Vec<(u64, usize)> = (0..n).map(|e| (pack(tuple(e)), e)).collect();
            keys.sort_unstable_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| rest(a.1).cmp(rest(b.1)))
                    .then(a.1.cmp(&b.1))
            });
            let indices = keys.iter().flat_map(|&(_, e)| tuple(e)).copied().collect();
            self.values = keys.iter().map(|&(_, e)| self.values[e]).collect();
            self.indices = indices;
        }
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
    /// One sort of the pushes ([`Self::sort_staging`]), then two passes
    /// over them in order.  The first resolves each run of equal
    /// coordinates against the base — summed left to right from the base's
    /// value (`Off`), the first entry kept (`Quarantine`) or refused
    /// (`Strict`) — compacting the runs in place and counting the output,
    /// exact zeros dropped.  On an empty base the compacted runs are the
    /// tensor; otherwise the second pass gathers the output at its exact
    /// size, copying the base between runs.  Base entries are found by a
    /// galloping search, so a round of `k` pushes into `n` entries costs
    /// `O(k log k)` to sort, `O(k log(n/k))` comparisons to place and one
    /// copy of the base.  (Merging inside the base's own buffers instead
    /// saves nothing: a round's first insertion lands near `n / (k + 1)`,
    /// so nearly every entry moves either way.)
    ///
    /// # Errors
    /// Same conditions as [`SparseTensorBuilder::build`].
    pub fn build_with_report(mut self) -> Result<(SparseTensor, QuarantineCounts)> {
        if self.base.shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        self.sort_staging();
        let SparseTensorBuilder {
            base,
            mut indices,
            mut values,
            mode,
            mut counts,
        } = self;
        let order = base.order();
        let n = values.len();

        // Each run resolves into slot `resolved`, from the base's value when
        // the base holds its coordinate (whose entry it then replaces); a
        // run that neither writes nor removes an entry leaves no slot.
        let (mut resolved, mut kept, mut hit, mut run) = (0, base.nnz(), 0, 0);
        while run < n {
            let at = run * order..(run + 1) * order;
            hit = base.seek(hit, &indices[at.clone()]);
            let on_base = base.holds(hit, &indices[at.clone()]);
            let (mut acc, mut next) = if on_base {
                (base.value(hit), run)
            } else {
                (values[run], run + 1)
            };
            while next < n && indices[next * order..(next + 1) * order] == indices[at.clone()] {
                match mode {
                    ValidationMode::Strict => {
                        return Err(TensorError::DuplicateIndex {
                            index: indices[at].iter().map(|&i| i as usize).collect(),
                        });
                    }
                    ValidationMode::Quarantine => counts.duplicates += 1,
                    ValidationMode::Off => acc += values[next],
                }
                next += 1;
            }
            // Exact zeros (cancellation or explicit zero pushes) are dropped.
            match (on_base, acc != 0.0) {
                (false, true) => kept += 1,
                (true, false) => kept -= 1,
                _ => {}
            }
            if on_base || acc != 0.0 {
                indices.copy_within(at, resolved * order);
                values[resolved] = acc;
                resolved += 1;
            }
            run = next;
        }
        indices.truncate(resolved * order);
        values.truncate(resolved);

        if base.is_empty() {
            // Every slot is a nonzero run: the staging is the tensor.
            indices.shrink_to_fit();
            values.shrink_to_fit();
            return Ok((Entries { indices, values }.into_tensor(base.shape), counts));
        }
        // Gather: the base between resolved runs, each run's value in its
        // place.  The output is exact for a base without stored zeros.
        let mut out = Entries {
            indices: Vec::with_capacity(kept * order),
            values: Vec::with_capacity(kept),
        };
        let mut copied = 0;
        for (at, &v) in indices.chunks_exact(order).zip(&values) {
            let hit = base.seek(copied, at);
            out.extend_from(&base, copied..hit);
            copied = hit + usize::from(base.holds(hit, at));
            if v != 0.0 {
                out.push(at, v);
            }
        }
        out.extend_from(&base, copied..base.nnz());
        Ok((out.into_tensor(base.shape), counts))
    }
}

impl SparseTensor {
    /// The first entry at or after `from` whose coordinate is not below
    /// `at`, in a strictly sorted tensor: a galloping search from `from`.
    fn seek(&self, from: usize, at: &[u32]) -> usize {
        let below = |e: usize| self.index(e) < at;
        // Entries in `from..lo` are below `at`; `hi` is past the end or not.
        let (mut lo, mut hi, mut step) = (from, from, 1);
        while hi < self.nnz() && below(hi) {
            lo = hi + 1;
            hi += step;
            step *= 2;
        }
        let mut hi = hi.min(self.nnz());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if below(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// `true` iff entry `e` exists and sits at `at`.
    fn holds(&self, e: usize, at: &[u32]) -> bool {
        e < self.nnz() && self.index(e) == at
    }
}

impl Entries {
    /// Appends `src`'s entries in `range`, dropping exact zeros: each run
    /// of nonzero values is copied whole (a built tensor's range is one).
    fn extend_from(&mut self, src: &SparseTensor, range: std::ops::Range<usize>) {
        let n = src.order();
        let mut from = range.start;
        for run in src.values()[range].split(|&v| v == 0.0) {
            let to = from + run.len();
            self.indices
                .extend_from_slice(&src.indices_flat()[from * n..to * n]);
            self.values.extend_from_slice(run);
            from = to + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        b.push(&[0, 0], 9.0).unwrap(); // duplicate, the first pushed is kept
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
        assert_eq!(t.values().iter().sum::<f64>(), 0.0);
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
        let old = [1, 2, 3];
        let (inside, outside) = (t.restrict(&old).unwrap(), t.complement(&old).unwrap());
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
        for old in [&[1, 2][..], &[3, 3, 4]] {
            assert!(t.restrict(old).is_err());
            assert!(t.complement(old).is_err());
        }
    }

    #[test]
    fn every_split_names_itself_in_a_shape_mismatch() {
        let t = small();
        let wrong_order = [1usize, 2];
        let op_of = |e: TensorError| match e {
            TensorError::ShapeMismatch { op, .. } => op,
            other => panic!("expected ShapeMismatch, got {other:?}"),
        };
        assert_eq!(op_of(t.restrict(&wrong_order).unwrap_err()), "restrict");
        assert_eq!(op_of(t.complement(&wrong_order).unwrap_err()), "complement");
        // An old shape that outgrew the tensor is refused by both alike.
        let too_big = [3usize, 3, 4];
        assert!(t.restrict(&too_big).is_err());
        assert!(t.complement(&too_big).is_err());
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
        let blocks = t.partition_by(|idx| SparseTensor::block_of(idx, &old));
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
        for (sig, block) in t.partition_by(|idx| SparseTensor::block_of(idx, &old)) {
            for (idx, _) in block.iter() {
                assert_eq!(SparseTensor::block_of(idx, &old), sig);
            }
        }
    }

    #[test]
    fn split_blocks_validates() {
        // Only non-empty blocks come back: an empty tensor has none, and
        // every block of a non-empty one holds an entry.
        let e = SparseTensor::empty(vec![2, 2]).unwrap();
        assert!(e
            .partition_by(|idx| SparseTensor::block_of(idx, &[1, 1]))
            .is_empty());
        let blocks = small().partition_by(|idx| SparseTensor::block_of(idx, &[1, 2, 2]));
        assert!(blocks.iter().all(|(_, b)| !b.is_empty()));
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
        assert!(t.restrict(&[2, 2]).unwrap().is_empty());
        assert!(t.complement(&[2, 2]).unwrap().is_empty());
    }

    /// The `(Vec<usize>, f64)` builder the flat one replaced, kept as its
    /// oracle: one heap tuple per entry, `sort_by` over the tuples (the
    /// stable sort, which leaves each coordinate's entries in push order;
    /// `sort_unstable_by`, the first flat builder's order, without
    /// `stable`), then a merge and a separate zero-compaction pass.
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
            let out = Entries {
                indices: out_indices,
                values: out_values,
            };
            Ok((out.into_tensor(self.shape), counts))
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
                    && x.indices_flat() == y.indices_flat()
                    && cx == cy
                    && x.nnz() == y.nnz()
                    && x.values()
                        .iter()
                        .zip(y.values())
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
                    let mut stable = VecBuilder::new(shape.clone(), mode);
                    let mut unstable = VecBuilder::new(shape.clone(), mode);
                    let mut groups = BTreeMap::<Vec<usize>, usize>::new();
                    for (idx, v) in &pushes {
                        // Debug forms: a refused NaN is not `==` itself.
                        let want = stable.push(idx, *v);
                        let got = flat.push(idx, *v).map(|_| ());
                        assert_eq!(format!("{got:?}"), format!("{want:?}"));
                        unstable.push(idx, *v).ok();
                        if want.is_ok() {
                            *groups.entry(idx.clone()).or_default() += 1;
                        }
                    }
                    assert_eq!(flat.values.len(), stable.entries.len());
                    assert!(
                        groups.values().any(|&g| g >= 3),
                        "shape {shape:?} seed {seed}: no duplicate group of three"
                    );
                    let want = stable.build_with_report(true);
                    let got = flat.build_with_report();
                    assert!(
                        same_bits(&got, &want),
                        "shape {shape:?} {mode:?} seed {seed}:\n{got:?}\n{want:?}"
                    );
                    if !same_bits(&unstable.build_with_report(false), &want) {
                        order_sensitive += 1;
                    }
                }
            }
        }
        // The inputs have teeth: a merge that adds duplicates in another
        // order than push order (the unstable sort's, say) moves bits or
        // keeps another entry, so it fails the assertion above.
        assert!(order_sensitive > 0, "no input depends on the merge order");
    }

    #[test]
    fn duplicates_sum_in_push_order() {
        // 1.0 is below half an ulp of 1e16: added to it first, it is lost.
        let build = |values: [f64; 3]| {
            let mut b = SparseTensorBuilder::new(vec![2, 2]);
            for v in values {
                b.push(&[1, 0], v).unwrap();
            }
            b.build().unwrap()
        };
        let cancelled = build([1e16, 1.0, -1e16]);
        assert_eq!(cancelled.nnz(), 0, "(1e16 + 1) - 1e16 is exactly zero");
        let kept = build([1e16, -1e16, 1.0]);
        assert_eq!(kept.values(), &[1.0]);
    }

    #[test]
    fn quarantine_keeps_each_coordinates_first_push() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let shape = vec![6, 5, 4];
        let mut b =
            SparseTensorBuilder::new(shape.clone()).with_validation(ValidationMode::Quarantine);
        let mut first = BTreeMap::<Vec<u32>, f64>::new();
        let pushes = 2_000;
        for p in 0..pushes {
            let idx: Vec<usize> = shape.iter().map(|&s| rng.gen_range(0..s)).collect();
            // Every push carries its own value, so a survivor names its push.
            let value = 1.0 + p as f64;
            b.push(&idx, value).unwrap();
            first
                .entry(idx.iter().map(|&i| i as u32).collect())
                .or_insert(value);
        }
        let (t, counts) = b.build_with_report().unwrap();
        assert_eq!(t.nnz(), first.len());
        assert_eq!(counts.duplicates, (pushes - first.len()) as u64);
        assert!(counts.duplicates > 1_000, "too few duplicates to test");
        let survivors: BTreeMap<Vec<u32>, f64> =
            t.iter().map(|(idx, v)| (idx.to_vec(), v)).collect();
        assert_eq!(survivors, first);
    }

    #[test]
    fn get_sums_every_entry_at_the_coordinate_in_any_stored_order() {
        let t = parse(r#"{"shape":[2,2],"indices":[1,1,0,0,0,1],"values":[1.0,2.0,3.0]}"#).unwrap();
        assert_eq!(t.get(&[1, 1]).unwrap(), 1.0);
        assert_eq!(t.get(&[0, 0]).unwrap(), 2.0);
        assert_eq!(t.get(&[0, 1]).unwrap(), 3.0);
        assert_eq!(t.get(&[1, 0]).unwrap(), 0.0);
        // A repeated coordinate reads as the kernels see it: summed.
        let t = parse(r#"{"shape":[2,2],"indices":[1,1,0,0,1,1],"values":[1.0,2.0,4.0]}"#).unwrap();
        assert_eq!(t.get(&[1, 1]).unwrap(), 5.0);
        // The lookup does not normalise what it reads.
        assert_eq!(t.indices_flat(), &[1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn a_merge_puts_the_base_value_first() {
        let mut b = SparseTensorBuilder::new(vec![2, 3]);
        b.push(&[0, 0], 1e16).unwrap();
        b.push(&[1, 1], 2.0).unwrap();
        b.push(&[1, 2], 5.0).unwrap();
        let base = b.build().unwrap();
        let round = |mode| {
            let mut b = SparseTensorBuilder::on(base.clone())
                .unwrap()
                .with_validation(mode);
            b.push(&[1, 1], -2.0).unwrap();
            b.push(&[0, 0], 1.0).unwrap();
            b.push(&[0, 2], 7.0).unwrap();
            b.push(&[0, 0], -1e16).unwrap();
            b.build_with_report()
        };
        // (1e16 + 1) - 1e16 and 2 - 2 cancel; pushed first, 1.0 would stay.
        let (t, counts) = round(ValidationMode::Off).unwrap();
        assert_eq!(t.indices_flat(), &[0, 2, 1, 2]);
        assert_eq!(t.values(), &[7.0, 5.0]);
        assert_eq!(counts.total(), 0);
        // The base's entry is each coordinate's first push.
        let (t, counts) = round(ValidationMode::Quarantine).unwrap();
        assert_eq!(t.indices_flat(), &[0, 0, 0, 2, 1, 1, 1, 2]);
        assert_eq!(t.values(), &[1e16, 7.0, 2.0, 5.0]);
        assert_eq!(counts.duplicates, 3);
        assert_eq!(
            round(ValidationMode::Strict).unwrap_err(),
            TensorError::DuplicateIndex { index: vec![0, 0] }
        );
        // No pushes: the base comes back as it was.
        assert_eq!(
            SparseTensorBuilder::on(base.clone())
                .unwrap()
                .build()
                .unwrap(),
            base
        );
    }

    #[test]
    fn a_base_must_be_strictly_sorted() {
        let unsorted =
            parse(r#"{"shape":[2,2],"indices":[0,0,1,1,0,1],"values":[1.0,2.0,3.0]}"#).unwrap();
        assert_eq!(
            SparseTensorBuilder::on(unsorted).unwrap_err(),
            TensorError::UnsortedBase { entry: 2 }
        );
        let repeated = parse(r#"{"shape":[2,2],"indices":[0,1,0,1],"values":[1.0,2.0]}"#).unwrap();
        assert_eq!(
            SparseTensorBuilder::on(repeated).unwrap_err(),
            TensorError::UnsortedBase { entry: 1 }
        );
        // Sorted but holding an explicit zero: accepted, and the zero is
        // dropped as a build drops one.
        let zero = parse(r#"{"shape":[2,2],"indices":[0,1,1,0],"values":[0.0,2.0]}"#).unwrap();
        let t = SparseTensorBuilder::on(zero).unwrap().build().unwrap();
        assert_eq!((t.indices_flat(), t.values()), (&[1u32, 0][..], &[2.0][..]));
    }

    /// Values whose sums depend on the order they are added in, exact
    /// cancellations, zeros of both signs and non-finite values.
    const PALETTE: [f64; 10] = [
        1e16,
        -1e16,
        1.0,
        -1.0,
        0.5,
        3.0,
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
    ];

    /// Pushes of order `order` as raw draws: a coordinate draw per mode
    /// (255 lands out of bounds, anything else modulo the dimension) and
    /// a [`PALETTE`] slot.
    fn raw_pushes(order: usize) -> impl Strategy<Value = Vec<(Vec<usize>, usize)>> {
        prop::collection::vec(
            (prop::collection::vec(0..256usize, order), 0..PALETTE.len()),
            0..40,
        )
    }

    fn cook(shape: &[usize], raw: &(Vec<usize>, usize)) -> (Vec<usize>, f64) {
        let idx = raw
            .0
            .iter()
            .zip(shape)
            .map(|(&r, &s)| if r == 255 { s } else { r % s })
            .collect();
        (idx, PALETTE[raw.1])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn a_builder_on_a_base_equals_pushing_the_base_first(
            (shape, base_raw, raw) in (1usize..5).prop_flat_map(|order| {
                // Three cells or fewer per mode: most coordinates repeat.
                (prop::collection::vec(1usize..4, order), raw_pushes(order), raw_pushes(order))
            }),
            mode in (0usize..3).prop_map(|m| {
                [ValidationMode::Off, ValidationMode::Strict, ValidationMode::Quarantine][m]
            }),
        ) {
            // A base a build under `mode` could return: Strict's is a
            // Quarantine build (no duplicate, nothing non-finite).
            let base_mode = match mode {
                ValidationMode::Strict => ValidationMode::Quarantine,
                other => other,
            };
            let mut b = SparseTensorBuilder::new(shape.clone()).with_validation(base_mode);
            for r in &base_raw {
                let (idx, v) = cook(&shape, r);
                b.push(&idx, v).ok();
            }
            let base = b.build().unwrap();

            let mut merged = SparseTensorBuilder::on(base.clone()).unwrap().with_validation(mode);
            let mut plain = SparseTensorBuilder::new(shape.clone()).with_validation(mode);
            for (idx, v) in base.iter() {
                let idx: Vec<usize> = idx.iter().map(|&i| i as usize).collect();
                plain.push(&idx, v).unwrap();
            }
            for r in &raw {
                let (idx, v) = cook(&shape, r);
                let got = merged.push(&idx, v).map(|_| ());
                let want = plain.push(&idx, v).map(|_| ());
                // Debug forms: a refused NaN is not `==` itself.
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            }
            let got = merged.build_with_report();
            let want = plain.build_with_report();
            prop_assert!(same_bits(&got, &want), "{:?}\n{:?}", got, want);
            // Gathered at its exact size.
            if let Ok((t, _)) = got {
                prop_assert_eq!(t.values.capacity(), t.nnz());
                prop_assert_eq!(t.indices.capacity(), t.indices.len());
            }
        }
    }

    #[test]
    fn nested_prefixes_refuses_boxes_that_are_not_a_nested_chain() {
        let t = small(); // shape [2,3,4]
        let op_of = |e: TensorError| match e {
            TensorError::ShapeMismatch { op, .. } => op,
            other => panic!("expected ShapeMismatch, got {other:?}"),
        };
        assert_eq!(
            op_of(t.nested_prefixes(&[vec![1, 2]]).unwrap_err()),
            "nested_prefixes"
        );
        assert!(matches!(
            t.nested_prefixes(&[vec![3, 3, 4]]),
            Err(TensorError::InvalidArgument(_))
        ));
        assert!(matches!(
            t.nested_prefixes(&[vec![1, 3, 4], vec![2, 2, 4]]),
            Err(TensorError::InvalidArgument(_))
        ));
        assert!(t.nested_prefixes(&[]).unwrap().is_empty());
        // Equal boxes are legal: the later step's group is empty.
        let cut = t
            .nested_prefixes(&[vec![1, 2, 3], vec![1, 2, 3], vec![2, 3, 4]])
            .unwrap();
        assert_eq!(cut[0], cut[1]);
        assert_eq!(cut[0].nnz(), 2);
        // Step 2's entry [1,2,3] follows step 0's, whatever its tuple.
        assert_eq!(cut[2].indices_flat(), &[0, 0, 0, 0, 1, 2, 1, 2, 3]);
    }

    #[test]
    fn a_prefix_view_serialises_and_compares_as_the_entries_it_views() {
        let mut b = SparseTensorBuilder::new(vec![4, 3, 3]);
        for (e, idx) in [[3, 0, 0], [0, 2, 2], [1, 1, 0], [0, 0, 1], [2, 2, 2]]
            .iter()
            .enumerate()
        {
            b.push(idx, 0.25 + e as f64).unwrap();
        }
        let full = b.build().unwrap();
        let cut = full
            .nested_prefixes(&[vec![2, 3, 2], vec![3, 3, 3], vec![4, 3, 3]])
            .unwrap();
        let view = &cut[1];
        // The view ends before its store does.
        assert!(view.values.len() > view.nnz());
        let owned = Entries {
            indices: view.indices_flat().to_vec(),
            values: view.values().to_vec(),
        }
        .into_tensor(view.shape().to_vec());
        assert_eq!(view, &owned);
        assert_eq!(format!("{view:?}"), format!("{owned:?}"));
        let json = serde_json::to_string(view).unwrap();
        assert_eq!(json, serde_json::to_string(&owned).unwrap());
        assert_eq!(
            json,
            r#"{"shape":[3,3,3],"indices":[0,0,1,1,1,0,0,2,2,2,2,2],"values":[3.25,2.25,1.25,4.25]}"#
        );
        assert_eq!(serde_json::from_str::<SparseTensor>(&json).unwrap(), owned);
    }

    #[test]
    fn a_builder_reads_a_shared_prefix_view_as_the_entries_it_views() {
        let cut = small()
            .nested_prefixes(&[vec![1, 2, 3], vec![2, 3, 4]])
            .unwrap();
        let view = &cut[0];
        let owned = Entries {
            indices: view.indices_flat().to_vec(),
            values: view.values().to_vec(),
        }
        .into_tensor(view.shape().to_vec());
        let round = |base: &SparseTensor| {
            let mut b = SparseTensorBuilder::on(base.clone()).unwrap();
            // Shares the store; the entries past the view are not read.
            assert!(Arc::ptr_eq(&b.base.values, &base.values));
            b.push(&[0, 1, 2], 0.5).unwrap();
            b.push(&[0, 0, 1], 4.0).unwrap();
            b.push(&[0, 0, 0], -1.0).unwrap();
            b.build().unwrap()
        };
        let t = round(view);
        assert_eq!(t, round(&owned));
        assert_eq!(t.indices_flat(), &[0, 0, 1, 0, 1, 2]);
        assert_eq!(t.values(), &[4.0, -2.5]);
        // Gathered into a store of its own, at its exact size.
        assert_eq!((t.values.len(), t.values.capacity()), (2, 2));
    }

    #[test]
    fn the_entries_since_a_mark_are_the_complement_against_its_view() {
        let mut b = SparseTensorBuilder::new(vec![4, 4, 3]);
        for (e, idx) in [
            [3, 0, 0],
            [0, 2, 2],
            [1, 1, 0],
            [0, 0, 1],
            [2, 3, 2],
            [3, 3, 1],
        ]
        .iter()
        .enumerate()
        {
            b.push(idx, 0.5 + e as f64).unwrap();
        }
        let full = b.build().unwrap();
        // The same kind of stream read from JSON: stored unsorted, with two
        // coordinates written twice ([1,1,0] and [0,0,1]); deserialising
        // keeps every entry as written.
        let written = parse(
            r#"{"shape":[4,4,3],
                "indices":[3,3,1, 0,2,2, 1,1,0, 0,0,1, 1,1,0, 2,3,2, 0,0,1, 3,0,0],
                "values":[1.5, 2.5, 3.5, 4.5, -0.75, 5.5, 6.5, 7.5]}"#,
        )
        .unwrap();
        let bits = |t: &SparseTensor| {
            let values: Vec<u64> = t.values().iter().map(|v| v.to_bits()).collect();
            (t.shape().to_vec(), t.indices_flat().to_vec(), values)
        };
        let boxes = [vec![2, 3, 2], vec![2, 3, 2], vec![3, 4, 3], vec![4, 4, 3]];
        for x in [&full, &written] {
            let cut = x.nested_prefixes(&boxes).unwrap();
            // Snapshot 0 is the `restrict` cut, entry for entry.
            assert_eq!(bits(&cut[0]), bits(&x.restrict(&boxes[0]).unwrap()));
            for (t, earlier) in cut.iter().enumerate() {
                // Every later view, a skipped step and the view itself included.
                for later in &cut[t..] {
                    let since = later.since(&earlier.mark()).unwrap();
                    assert_eq!(
                        bits(&since),
                        bits(&later.complement(earlier.shape()).unwrap())
                    );
                    assert_eq!(since.nnz(), later.nnz() - earlier.nnz());
                }
                for shorter in cut[..t].iter().filter(|s| s.nnz() < earlier.nnz()) {
                    assert!(shorter.since(&earlier.mark()).is_none(), "a longer mark");
                }
            }
            // The last box is the whole shape: every entry stays, and a
            // repeated coordinate keeps both values in the order written.
            let last = &cut[boxes.len() - 1];
            assert_eq!(last.nnz(), x.nnz());
            let values_at = |t: &SparseTensor, idx: &[u32]| -> Vec<u64> {
                t.iter()
                    .filter(|(i, _)| *i == idx)
                    .map(|(_, v)| v.to_bits())
                    .collect()
            };
            for idx in [[1, 1, 0], [0, 0, 1]] {
                assert_eq!(values_at(last, &idx), values_at(x, &idx));
            }
        }
        assert_eq!(
            written.iter().filter(|(i, _)| *i == [1, 1, 0]).count(),
            2,
            "the repeated coordinate is kept twice"
        );
        let cut = full.nested_prefixes(&boxes).unwrap();
        // Equal entries in another store are another store.
        let owned = Entries {
            indices: cut[2].indices_flat().to_vec(),
            values: cut[2].values().to_vec(),
        }
        .into_tensor(cut[2].shape().to_vec());
        assert!(owned.since(&cut[1].mark()).is_none());
        assert!(cut[3].since(&owned.mark()).is_none());
        // A mark does not keep the store it names alive.
        let mark = cut[1].mark();
        drop(cut);
        assert!(mark.values.upgrade().is_none() && mark.indices.upgrade().is_none());
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
