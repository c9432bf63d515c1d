//! Shepherd-process pools for server-side RPC concurrency.
//!
//! The paper's Sprite RPC parks a pool of kernel "shepherd" processes on the
//! server; an arriving request is handed to a free shepherd so the interrupt
//! handler never runs user procedures. Our stacks historically ran every
//! handler inline in the delivering process — correct, but fully serialized
//! per host. This module gives any server protocol a configurable pool:
//! up to `workers` requests execute concurrently (in simulated time), up to
//! `pending` more wait in a bounded FIFO, and beyond that an explicit
//! overload policy applies ([`Overload::Drop`] or [`Overload::Reject`]).
//!
//! With `workers == 0` (the default), and in inline mode, which has no
//! scheduler, [`Shepherds::dispatch`] runs the request in the delivering
//! process — bit-identical to the historical behaviour, so existing latency
//! goldens are unperturbed and the counters stay zero. Pools never park
//! processes on semaphores: a worker is spawned per burst and exits when the
//! queue drains, which keeps `run_until_idle().blocked == 0` invariants
//! intact.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::cell::{tally, OwnerCell};

use crate::error::XResult;
use crate::graph::GraphArgs;
use crate::sim::{Ctx, Mode};
use crate::trace::OpClass;

/// A deferred unit of server work (one request's dispatch + reply).
type Job = Box<dyn FnOnce(&Ctx) + 'static>;

/// What to do with a request that finds both the pool and the queue full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overload {
    /// Silently discard; the client's retransmission machinery recovers.
    Drop,
    /// Send an explicit busy indication so the client can back off.
    Reject,
}

/// Pool shape and overload policy.
#[derive(Clone, Copy, Debug)]
pub struct ShepherdConfig {
    /// Concurrent worker processes. `0` disables the pool (synchronous).
    pub workers: usize,
    /// Bounded pending-queue capacity behind the workers.
    pub pending: usize,
    /// Policy once `workers` are busy and `pending` jobs wait.
    pub policy: Overload,
}

impl Default for ShepherdConfig {
    fn default() -> ShepherdConfig {
        ShepherdConfig {
            workers: 0,
            pending: 16,
            policy: Overload::Drop,
        }
    }
}

impl ShepherdConfig {
    /// Reads the pool's three graph parameters off a spec line —
    /// `shepherds=N` (default 0: synchronous), `pending=N` (16),
    /// `policy=drop|reject` (drop) — the same for every server protocol.
    pub fn from_args(a: &GraphArgs<'_>) -> XResult<ShepherdConfig> {
        Ok(ShepherdConfig {
            workers: a.param_u64("shepherds", 0)? as usize,
            pending: a.param_u64("pending", 16)? as usize,
            policy: match a.params.get("policy").map(String::as_str) {
                Some("reject") => Overload::Reject,
                _ => Overload::Drop,
            },
        })
    }
}

/// Monotonic pool counters (a snapshot; see [`Shepherds::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShepherdStats {
    /// Jobs offered to the pool.
    pub submitted: u64,
    /// Jobs actually executed by a worker.
    pub executed: u64,
    /// Jobs discarded by [`Overload::Drop`].
    pub dropped: u64,
    /// Jobs refused with a busy indication by [`Overload::Reject`].
    pub rejected: u64,
    /// High-water mark of the pending queue.
    pub peak_queue: u64,
    /// High-water mark of concurrently active workers.
    pub peak_workers: u64,
}

struct PoolState {
    active: usize,
    queue: VecDeque<Job>,
}

/// A per-protocol shepherd pool.
pub struct Shepherds {
    cfg: ShepherdConfig,
    st: OwnerCell<PoolState>,
    stats: Cell<ShepherdStats>,
}

impl Shepherds {
    /// Creates a pool with the given shape.
    pub fn new(cfg: ShepherdConfig) -> Rc<Shepherds> {
        Rc::new(Shepherds {
            cfg,
            st: OwnerCell::new(PoolState {
                active: 0,
                queue: VecDeque::new(),
            }),
            stats: Cell::default(),
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ShepherdStats {
        self.stats.get()
    }

    /// Overwrites the counters with `s` — whole-sim snapshot restore
    /// (capture is [`Shepherds::stats`]). Legal only at a quiescent
    /// instant, when no worker is active and the queue is empty; stray
    /// queued jobs are dropped.
    pub fn restore_stats(&self, s: ShepherdStats) {
        {
            let mut st = self.st.lock();
            debug_assert!(
                st.active == 0 && st.queue.is_empty(),
                "shepherd pool snapshot restore mid-burst (not quiescent)"
            );
            st.active = 0;
            st.queue.clear();
        }
        self.stats.set(s);
    }

    /// Runs one request's server work — the one place that decides how.
    /// Without a pool (`workers == 0`, or inline mode, which has no
    /// scheduler to run a worker) `work` runs in the delivering process,
    /// unboxed, and its error is returned. With one, `work` is boxed and
    /// handed to a worker, queued, or refused per the overload policy; a
    /// job's error then has no caller to reach, so it becomes the trace note
    /// `"shepherd dispatch failed"`. `Some(policy)` means the pool and queue
    /// were full: the job is gone (counted dropped or rejected) and the
    /// caller owns the protocol's response.
    #[inline]
    pub fn dispatch(
        self: &Rc<Shepherds>,
        ctx: &Ctx,
        work: impl FnOnce(&Ctx) -> XResult<()> + 'static,
    ) -> XResult<Option<Overload>> {
        if self.cfg.workers == 0 || ctx.mode() == Mode::Inline {
            return work(ctx).map(|()| None);
        }
        Ok(self.submit(
            ctx,
            Box::new(move |jctx| {
                if work(jctx).is_err() {
                    jctx.trace_note("shepherd dispatch failed");
                }
            }),
        ))
    }

    /// Hands `job` to a worker or the queue (`None`), or refuses it per the
    /// overload policy (`Some`).
    fn submit(self: &Rc<Shepherds>, ctx: &Ctx, job: Job) -> Option<Overload> {
        tally(&self.stats, |s| s.submitted += 1);
        let mut st = self.st.lock();
        if st.active < self.cfg.workers {
            st.active += 1;
            let active = st.active as u64;
            tally(&self.stats, |s| s.peak_workers = s.peak_workers.max(active));
            drop(st);
            // Interrupt-side handoff to a shepherd process.
            ctx.charge_class(OpClass::Dispatch, ctx.cost().dispatch);
            let pool = Rc::clone(self);
            ctx.spawn_on(ctx.host(), move |wctx| pool.worker(wctx, job));
            None
        } else if st.queue.len() < self.cfg.pending {
            st.queue.push_back(job);
            let queued = st.queue.len() as u64;
            tally(&self.stats, |s| s.peak_queue = s.peak_queue.max(queued));
            drop(st);
            ctx.charge_class(OpClass::Dispatch, ctx.cost().dispatch);
            None
        } else {
            drop(st);
            tally(&self.stats, |s| match self.cfg.policy {
                Overload::Drop => s.dropped += 1,
                Overload::Reject => s.rejected += 1,
            });
            Some(self.cfg.policy)
        }
    }

    fn worker(self: Rc<Shepherds>, ctx: &Ctx, first: Job) {
        let mut job = first;
        loop {
            tally(&self.stats, |s| s.executed += 1);
            job(ctx);
            let next = {
                let mut st = self.st.lock();
                match st.queue.pop_front() {
                    Some(j) => Some(j),
                    None => {
                        st.active -= 1;
                        None
                    }
                }
            };
            match next {
                Some(j) => {
                    // Context switch to the next pending request.
                    ctx.charge_class(OpClass::Switch, ctx.cost().proc_switch);
                    job = j;
                }
                None => return,
            }
        }
    }
}
