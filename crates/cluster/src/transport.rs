//! The transport under [`WorkerCtx`](crate::WorkerCtx): one rank's mailbox
//! and the run's clock.
//!
//! A run picks its wire once, in [`Transport::connect`]: real threads over
//! one unbounded channel per rank and the wall clock, or the deterministic
//! simulator ([`SimNet`]), which is both the virtual wire and the virtual
//! clock.  Everything above this module — point-to-point matching,
//! duplicate suppression, the abort protocol, the fault layer and the
//! collectives — is the same code on both; the choice is made nowhere
//! else.

use crate::clock::{Clock, RealClock};
use crate::comm::Payload;
use crate::error::{ClusterError, ClusterResult};
use crate::runtime::ClusterOptions;
use crate::sim::{SimNet, WaitOutcome};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone)]
pub(crate) struct Msg {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    /// Per-sender sequence number (1-based, monotone per channel); lets
    /// receivers suppress duplicate deliveries under fault injection.
    pub(crate) id: u64,
    /// The data, or — for an abort notice — the failing worker's error
    /// itself (workers share a process, so it needs no wire format).
    pub(crate) body: Result<Payload, ClusterError>,
}

/// The run's wire, shared by every rank.
#[derive(Clone)]
enum Wire {
    /// Real threads: every rank holds every inbox's sender (its own too,
    /// so its inbox can never disconnect) and one wall clock.
    Channels {
        peers: Vec<Sender<Msg>>,
        clock: Arc<RealClock>,
    },
    /// One simulator serialises every rank onto its virtual clock and
    /// delivers into the inboxes itself.
    Sim(Arc<SimNet>),
}

/// One rank's end of the run's transport: its inbox, the wire its posts
/// go out on, and the run's clock.
pub(crate) struct Transport {
    rank: usize,
    inbox: Receiver<Msg>,
    wire: Wire,
}

impl Transport {
    /// One transport per rank of a `world`-rank run, on the wire `opts`
    /// asks for.
    pub(crate) fn connect(world: usize, opts: &ClusterOptions) -> Vec<Transport> {
        let (peers, inboxes): (Vec<Sender<Msg>>, Vec<Receiver<Msg>>) =
            (0..world).map(|_| unbounded()).unzip();
        let wire = match &opts.sim {
            Some(sim) => Wire::Sim(Arc::new(SimNet::new(world, peers, sim))),
            None => Wire::Channels {
                peers,
                clock: Arc::new(RealClock::new()),
            },
        };
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Transport {
                rank,
                inbox,
                wire: wire.clone(),
            })
            .collect()
    }

    /// The run's time source: wall-clock on threads, virtual under sim.
    pub(crate) fn clock(&self) -> &dyn Clock {
        match &self.wire {
            Wire::Channels { clock, .. } => clock.as_ref(),
            Wire::Sim(net) => net.as_ref(),
        }
    }

    /// Admits this rank to the run.  Under sim it waits until every rank
    /// registered and the scheduler hands it the run token; it must be
    /// the rank's first transport call.
    pub(crate) fn start(&self) {
        if let Wire::Sim(net) = &self.wire {
            net.worker_start(self.rank);
        }
    }

    /// Retires this rank; under sim the scheduler moves on for good.  It
    /// must be the rank's last transport call.
    pub(crate) fn done(&self) {
        if let Wire::Sim(net) = &self.wire {
            net.worker_done(self.rank);
        }
    }

    /// Hands `msg` to the wire for `dst`.  Fails only on threads, when
    /// `dst` has exited and dropped its inbox.
    pub(crate) fn post(&self, dst: usize, msg: Msg) -> ClusterResult<()> {
        match &self.wire {
            // The virtual wire: delivery happens at a seeded future
            // instant (later across a partition), FIFO per link.  Posts
            // never fail — a receiver that exits before the flush turns
            // the message into a dead letter, matched by the real wire's
            // "send to exited worker" dead-letter semantics.
            Wire::Sim(net) => {
                dismastd_obs::alloc_exempt(|| net.post(self.rank, dst, msg));
                Ok(())
            }
            // The channel's internal node allocation is transport
            // infrastructure, outside the payload-path allocation audit.
            Wire::Channels { peers, .. } => dismastd_obs::alloc_exempt(|| peers[dst].send(msg))
                .map_err(|_| ClusterError::PeerCrashed {
                    rank: dst,
                    cause: "inbound channel closed (worker exited)".into(),
                }),
        }
    }

    /// The next message already in this rank's inbox, without blocking.
    pub(crate) fn try_take(&self) -> Option<Msg> {
        self.inbox.try_recv().ok()
    }

    /// Blocks until the next message lands in this rank's inbox, or
    /// returns `None` once `deadline_ns` (on the run's clock) passes.
    /// Under sim the block parks the task on the virtual scheduler — a
    /// 30s backstop costs zero wall-clock — and a genuine deadlock
    /// (nothing in flight, no future event) also ends as `None`.
    pub(crate) fn wait(&self, deadline_ns: Option<u64>) -> ClusterResult<Option<Msg>> {
        let received = match (&self.wire, deadline_ns) {
            (Wire::Sim(net), _) => loop {
                if let Ok(m) = self.inbox.try_recv() {
                    return Ok(Some(m));
                }
                if let WaitOutcome::TimedOut { .. } = net.wait_for_delivery(self.rank, deadline_ns)
                {
                    return Ok(None);
                }
            },
            (Wire::Channels { .. }, None) => self
                .inbox
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            (Wire::Channels { clock, .. }, Some(d)) => self
                .inbox
                .recv_timeout(Duration::from_nanos(d.saturating_sub(clock.now_ns()))),
        };
        match received {
            Ok(m) => Ok(Some(m)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            // Unreachable (every rank holds a sender to itself), but
            // mapped to a typed error rather than a panic.
            Err(RecvTimeoutError::Disconnected) => Err(ClusterError::PeerCrashed {
                rank: self.rank,
                cause: "own inbound channel closed".into(),
            }),
        }
    }
}
