//! The collectives of [`WorkerCtx`]: barrier, all-to-all exchange (whole
//! or posted in halves), gather, and the `f64` sum all-reduce (flat or
//! ring).
//!
//! Every collective enters through one helper (`enter`): the crash point,
//! then the collective's sequence tag, which advances in lock-step on
//! every rank (valid because the program is SPMD), so messages from
//! different collectives never mix although the inboxes are shared; rank 0
//! counts the collective in [`CommStats`](crate::CommStats).  Every `f64`
//! contribution arrives through one checked receive (`recv_f64`): a
//! payload of the wrong kind or length aborts the run, so every rank
//! observes the same error.  These are the only functions of the runtime
//! whose message pattern branches on the rank.

use crate::comm::Payload;
use crate::error::{ClusterError, ClusterResult};
use crate::runtime::WorkerCtx;
use crate::wire::AllreduceAlgo;
use std::ops::Range;

/// Handle to an all-to-all exchange whose sends have been posted but whose
/// receives have not yet run — the overlap window.  Must be completed with
/// [`WorkerCtx::complete_exchange`] before the next collective that needs
/// the data; dropping it without completing leaves the peers' messages to
/// be drained by tag matching, but never corrupts later collectives (tags
/// are unique per collective).
#[must_use = "posted exchanges must be completed to receive the peers' payloads"]
pub struct PendingExchange {
    tag: u64,
    mine: Payload,
}

/// Which end a length disagreement names.  Lengths are checked against
/// the root's: the flat root holds the reference and names the sender;
/// every other receiver gets data that already matched rank 0's, chunk by
/// chunk, and names itself.
#[derive(Clone, Copy)]
enum Blame {
    Sender,
    Receiver,
}

/// The `i`-th of `world` contiguous, near-equal chunks of `0..len`, the
/// first `len % world` one element longer; some are empty when
/// `len < world`.  Every rank cuts `world` chunks whatever its length, so
/// ranks that disagree on the length still run the same message pattern
/// and the mismatch surfaces as a typed error, not a hang.
fn ring_chunk(len: usize, world: usize, i: usize) -> Range<usize> {
    let (base, rem) = (len / world, len % world);
    let start = i * base + i.min(rem);
    start..start + base + usize::from(i < rem)
}

impl WorkerCtx {
    /// The one collective entry: the crash point, then this collective's
    /// sequence tag, counted once (on rank 0).
    fn enter(&mut self) -> ClusterResult<u64> {
        self.maybe_crash()?;
        let tag = self.seq;
        self.seq += 1;
        if self.rank == 0 {
            self.stats.record_collective();
        }
        Ok(tag)
    }

    /// The one checked receive of an `f64` contribution: `src`'s payload
    /// under `tag`, which must hold `len` values.  A wrong kind or length
    /// is fanned out to every peer before it is returned.
    fn recv_f64(
        &mut self,
        src: usize,
        tag: u64,
        len: usize,
        blame: Blame,
    ) -> ClusterResult<Vec<f64>> {
        let e = match self.try_recv_raw(src, tag)?.try_into_f64() {
            Ok(v) if v.len() == len => return Ok(v),
            Ok(v) => match blame {
                Blame::Sender => ClusterError::SizeMismatch {
                    rank: src,
                    expected: len,
                    found: v.len(),
                },
                Blame::Receiver => ClusterError::SizeMismatch {
                    rank: self.rank,
                    expected: v.len(),
                    found: len,
                },
            },
            Err(e) => e,
        };
        // lint:allow(alloc_hygiene): mismatch fan-out — abort path, the run is over
        self.abort_peers(e.clone());
        Err(e)
    }

    /// Refills `into` with one payload per rank in rank order: each peer's
    /// under `tag`, and `mine` at this rank's slot.
    fn recv_all(&mut self, tag: u64, mine: Payload, into: &mut Vec<Payload>) -> ClusterResult<()> {
        into.clear();
        for src in 0..self.world {
            if src == self.rank {
                into.push(Payload::Empty); // placeholder, replaced below
            } else {
                into.push(self.try_recv_raw(src, tag)?);
            }
        }
        into[self.rank] = mine;
        Ok(())
    }

    /// Copies `src` into a pool-recycled buffer — the allocation-free
    /// replacement for `src.to_vec()` on the collective staging paths.
    fn pooled_copy(&mut self, src: &[f64]) -> Vec<f64> {
        let mut v = self.pool.take();
        v.extend_from_slice(src);
        v
    }

    /// Blocks until every worker reaches the barrier.  Implemented over the
    /// message channels (gather-to-0 of empty tokens, then release) rather
    /// than a blocking `std::sync::Barrier`, so a crashed worker aborts the
    /// barrier instead of deadlocking it.  Token traffic is control-plane:
    /// it appears in no byte or message counter.
    ///
    /// # Errors
    /// Returns the peer's [`ClusterError`] when the cluster aborts.
    pub fn try_barrier(&mut self) -> ClusterResult<()> {
        let _span = dismastd_obs::span("comm/barrier");
        let tag = self.enter()?;
        if self.world == 1 {
            return Ok(());
        }
        if self.rank == 0 {
            for src in 1..self.world {
                self.try_recv_raw(src, tag)?;
            }
            for dst in 1..self.world {
                self.send_control(dst, tag);
            }
        } else {
            self.send_control(0, tag);
            self.try_recv_raw(0, tag)?;
        }
        Ok(())
    }

    /// All-to-all exchange: `outgoing[d]` is delivered to worker `d`; the
    /// return value holds, at position `s`, the payload worker `s` sent
    /// here.  Self-delivery is a local move (no traffic counted).
    ///
    /// This is the blocking convenience over [`WorkerCtx::post_exchange`] +
    /// [`WorkerCtx::complete_exchange`], the primitive behind the
    /// factor-row shuffles of Sec. IV-B1/B2; steady-state loops call the
    /// two halves directly so they can reuse their buffers and overlap
    /// compute with the in-flight messages.
    ///
    /// # Errors
    /// Returns the poisoning [`ClusterError`] when any peer fails or a
    /// receive times out.
    ///
    /// # Panics
    /// Panics unless `outgoing.len() == world` (a caller bug).
    pub fn try_exchange(&mut self, mut outgoing: Vec<Payload>) -> ClusterResult<Vec<Payload>> {
        let _span = dismastd_obs::span("comm/exchange");
        let pending = self.post_exchange(&mut outgoing)?;
        let mut incoming = Vec::with_capacity(self.world);
        self.complete_exchange(pending, &mut incoming)?;
        Ok(incoming)
    }

    /// Posts the send half of an all-to-all exchange and returns without
    /// waiting for the peers' payloads — the receive half runs in
    /// [`WorkerCtx::complete_exchange`], letting callers overlap local
    /// compute with the in-flight messages.  Collective sequencing,
    /// crash-point and stats bookkeeping all happen here.  The payloads are
    /// drained out but `outgoing` keeps its capacity, so a caller refilling
    /// the same `Vec` every iteration posts the whole exchange without
    /// allocating.
    ///
    /// # Errors
    /// As for [`WorkerCtx::try_exchange`].
    ///
    /// # Panics
    /// Panics unless `outgoing.len() == world` (a caller bug).
    pub fn post_exchange(&mut self, outgoing: &mut Vec<Payload>) -> ClusterResult<PendingExchange> {
        assert_eq!(outgoing.len(), self.world, "one payload per destination");
        let _span = dismastd_obs::span("comm/exchange_post");
        let tag = self.enter()?;
        // Keep the self-payload aside, send the rest.
        let mine = std::mem::replace(&mut outgoing[self.rank], Payload::Empty);
        for (dst, payload) in outgoing.drain(..).enumerate() {
            if dst == self.rank {
                continue;
            }
            self.try_send_raw(dst, tag, payload)?;
        }
        Ok(PendingExchange { tag, mine })
    }

    /// Receive half of a posted exchange: blocks for every peer's payload.
    /// `incoming` is cleared and refilled rank-ordered with the own payload
    /// at `rank` (same contract as [`WorkerCtx::try_exchange`]), keeping its
    /// capacity so the receive half of a steady-state exchange loop never
    /// allocates.
    ///
    /// # Errors
    /// As for [`WorkerCtx::try_exchange`].
    pub fn complete_exchange(
        &mut self,
        pending: PendingExchange,
        incoming: &mut Vec<Payload>,
    ) -> ClusterResult<()> {
        let _span = dismastd_obs::span("comm/exchange_wait");
        let PendingExchange { tag, mine } = pending;
        self.recv_all(tag, mine, incoming)
    }

    /// Gather to `root`: returns `Some(payloads_by_rank)` on the root,
    /// `None` elsewhere.
    ///
    /// # Errors
    /// Returns the poisoning [`ClusterError`] when any peer fails or a
    /// receive times out.
    pub fn try_gather(
        &mut self,
        root: usize,
        payload: Payload,
    ) -> ClusterResult<Option<Vec<Payload>>> {
        let _span = dismastd_obs::span("comm/gather");
        let tag = self.enter()?;
        if self.rank == root {
            // lint:allow(alloc_hygiene): O(world) result table owned by the caller — the gram path uses the pooled flat allreduce, not gather
            let mut all: Vec<Payload> = Vec::with_capacity(self.world);
            self.recv_all(tag, payload, &mut all)?;
            Ok(Some(all))
        } else {
            self.try_send_raw(root, tag, payload)?;
            Ok(None)
        }
    }

    /// All-reduce (sum) of an `f64` buffer: after the call every worker's
    /// `buf` holds the element-wise sum over all workers.
    ///
    /// Implemented gather-to-0 + broadcast, the "All-to-All reduction …
    /// aggregate … and distribute among all partitions" of Sec. IV-B3.
    ///
    /// Buffer lengths are validated against the root's buffer; a mismatch
    /// aborts the run, so **every** rank observes the same
    /// [`ClusterError::SizeMismatch`] naming the offending rank (the seed
    /// runtime instead `assert_eq!`-ed on rank 0 and hung the rest).
    ///
    /// # Errors
    /// `SizeMismatch` on disagreeing lengths, `TypeMismatch` on protocol
    /// corruption, or the poisoning error when a peer fails.
    pub fn try_allreduce_sum(&mut self, buf: &mut [f64]) -> ClusterResult<()> {
        self.try_allreduce_sum_with(buf, AllreduceAlgo::Flat)
    }

    /// [`WorkerCtx::try_allreduce_sum`] with an explicit algorithm choice.
    ///
    /// `Ring` reproduces the flat path's per-element summation order and
    /// operands exactly — rank-ordered chain reduction, each rank's value
    /// added on the left — so the two are bit-identical.  A ring length
    /// mismatch names the first rank down the chain whose chunk disagrees
    /// with the one it receives (every rank before it matched rank 0
    /// chunk by chunk); its `expected` / `found` are that chunk's lengths,
    /// received and own.
    ///
    /// # Errors
    /// As for [`WorkerCtx::try_allreduce_sum`].
    pub fn try_allreduce_sum_with(
        &mut self,
        buf: &mut [f64],
        algo: AllreduceAlgo,
    ) -> ClusterResult<()> {
        // The inner primitives record their own comm/* spans, which nest
        // inside this one; comm/* totals are therefore per-primitive, not
        // additive across the family.
        let _span = dismastd_obs::span("comm/allreduce");
        if self.world == 1 {
            self.maybe_crash()?;
            return Ok(());
        }
        match algo {
            AllreduceAlgo::Flat => self.allreduce_flat(buf),
            AllreduceAlgo::Ring => self.allreduce_ring(buf),
        }
    }

    /// Seed algorithm: gather-to-0 + broadcast.  Two collectives' worth of
    /// sequencing and `2(w−1)·b` bytes through the root.
    ///
    /// The gather and broadcast halves are inlined (the gather's span,
    /// crash point and sequence number are those of `try_gather`) so
    /// contributions fold straight into `buf` as they arrive and every
    /// staging vector cycles through the worker's
    /// [`BufferPool`](crate::BufferPool) — the steady-state reduction
    /// allocates nothing.  The root's sum starts from its own value and
    /// adds each peer's on the left, in ascending rank order: the chain's
    /// order and operands (see [`WorkerCtx::allreduce_ring`]).
    #[allow(clippy::assign_op_pattern)] // `*b += *x` would swap the operands
    fn allreduce_flat(&mut self, buf: &mut [f64]) -> ClusterResult<()> {
        let root = 0usize;
        // Gather half.
        {
            let _span = dismastd_obs::span("comm/gather");
            let tag = self.enter()?;
            if self.rank == root {
                // Own contribution first (rank 0 == root), then peers in
                // ascending rank order.
                for src in 1..self.world {
                    let v = self.recv_f64(src, tag, buf.len(), Blame::Sender)?;
                    for (b, x) in buf.iter_mut().zip(&v) {
                        *b = *x + *b;
                    }
                    self.pool.put(v);
                }
            } else {
                let own = self.pooled_copy(buf);
                self.try_send_raw(root, tag, Payload::F64(own))?;
            }
        }
        // Broadcast half.
        {
            let _span = dismastd_obs::span("comm/broadcast");
            let tag = self.enter()?;
            if self.rank == root {
                for dst in 1..self.world {
                    let copy = self.pooled_copy(buf);
                    self.try_send_raw(dst, tag, Payload::F64(copy))?;
                }
            } else {
                let reduced = self.recv_f64(root, tag, buf.len(), Blame::Receiver)?;
                buf.copy_from_slice(&reduced);
                self.pool.put(reduced);
            }
        }
        Ok(())
    }

    /// Pipelined chain allreduce: chunks flow rank 0 → 1 → … → w−1
    /// accumulating contributions in rank order, then back down carrying
    /// the totals.  Per-rank traffic is ≈`2·b` bytes regardless of `w`
    /// (vs `2(w−1)·b` through the flat root), and because partial sums
    /// accumulate in exactly the flat path's rank order, results are
    /// bit-identical to [`WorkerCtx::allreduce_flat`].
    fn allreduce_ring(&mut self, buf: &mut [f64]) -> ClusterResult<()> {
        let _span = dismastd_obs::span("comm/allreduce_ring");
        let tag = self.enter()?;
        let w = self.world;
        let me = self.rank;
        // Upstream: receive the running sum from the left neighbour, fold
        // in the local contribution, forward right.  The last rank holds
        // each chunk's total the moment it arrives and starts it on its
        // way back down immediately, so the two waves pipeline.
        for i in 0..w {
            let range = ring_chunk(buf.len(), w, i);
            if me > 0 {
                let part = self.recv_f64(me - 1, tag, range.len(), Blame::Receiver)?;
                // lint:allow(alloc_hygiene): Range<usize> clone — a stack copy, no heap allocation
                for (b, x) in buf[range.clone()].iter_mut().zip(&part) {
                    *b += *x;
                }
                self.pool.put(part);
            }
            // Forward right; at the top the chunk's total is ready and
            // starts the downstream wave.
            let next = if me < w - 1 { me + 1 } else { me - 1 };
            let copy = self.pooled_copy(&buf[range]);
            self.try_send_raw(next, tag, Payload::F64(copy))?;
        }
        // Downstream: totals flow w−1 → 0; everyone below the top copies
        // and forwards.  Channel FIFO per (src, tag) keeps the upstream
        // and downstream chunk streams from the right neighbour ordered.
        if me < w - 1 {
            for i in 0..w {
                let range = ring_chunk(buf.len(), w, i);
                let total = self.recv_f64(me + 1, tag, range.len(), Blame::Receiver)?;
                buf[range].copy_from_slice(&total);
                if me > 0 {
                    // Forwarding moves the received buffer — no copy.
                    self.try_send_raw(me - 1, tag, Payload::F64(total))?;
                } else {
                    self.pool.put(total);
                }
            }
        }
        Ok(())
    }
}
