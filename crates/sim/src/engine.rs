//! The discrete-event simulation engine.
//!
//! The engine owns simulated time, the event calendar, the request slab,
//! the worker states, and the metrics recorder. Scheduling policies
//! implement [`SimPolicy`] and react to three events: a request
//! *arrival*, a worker *completion*, and a *slice expiry* (preemptive
//! policies only). Policies place work through [`Core::run`]
//! (non-preemptive, run to completion) or [`Core::run_slice`] (bounded
//! slice plus optional preemption overhead, for time-sharing policies).
//!
//! # The slot calendar
//!
//! Every event has one source, and no source ever has two events
//! outstanding: each worker has at most one pending slice end (a busy
//! worker cannot start another slice), and the arrival stream has at
//! most one pending arrival (the next one is drawn only when the current
//! one fires). So instead of a priority queue the calendar keeps one
//! fixed slot per source, keyed by `(time, seq)`, where `seq` counts
//! every schedule call. Events fire in exactly that order — time first,
//! then scheduling order — so simultaneous events keep the order in
//! which they were scheduled.
//!
//! The calendar caches which worker slot is earliest. Scheduling a slice
//! updates the cache in O(1); only firing the earliest slice invalidates
//! it, and the next firing rescans the worker slots once: one short,
//! branch-free scan per completion, and none per arrival.
//!
//! Policies have no timers: none needed one, and a timer source would
//! break the one-event-per-source bound the calendar rests on.
//!
//! # The arrival pipeline: two threads
//!
//! The arrival source is the only layer that reads no simulation state,
//! so [`simulate`] runs it on a scoped helper thread while the event loop
//! (calendar, slab, policy and metrics recorder) stays on the calling
//! thread. The helper drains the source into batches of [`BATCH`]
//! arrivals and sends each over a bounded channel; the loop sends every
//! consumed buffer back to be refilled, so [`BUFFERS`] buffers circulate
//! and nothing is allocated per batch. A channel is FIFO and the loop
//! reads each batch front to back, so it sees the arrivals in exactly
//! the order the source produced them: every decision and output is the
//! one a single thread would compute. The source is polled just as a
//! single thread polls it, once per arrival plus once for its first
//! `None`, and never again after that.
//!
//! Each side blocks in `recv` when it has nothing to do — the loop when
//! no batch is filled, the helper when every buffer is full — so on one
//! CPU the two simply alternate. The helper hangs up after its last,
//! short batch or when the source panics; the loop then joins it, and a
//! panic resumes on the calling thread. A panic in the policy unwinds the loop, which
//! drops the loop's channel ends and so wakes the blocked helper before
//! the scope joins it.
//!
//! The paper's own Figures 1 and 10 come from exactly this kind of
//! simulation; we extend it to every evaluation figure.

use std::hint::select_unpredictable;
use std::panic::resume_unwind;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, ScopedJoinHandle};

use persephone_core::time::Nanos;
use persephone_core::types::TypeId;

use crate::metrics::{Recorder, RunSummary, Timeline};
use crate::workload::Arrival;

/// Index of a live request in the engine's slab.
pub type ReqId = u32;

/// A live request.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// True request type (what the workload generated).
    pub ty: TypeId,
    /// Arrival time at the server.
    pub arrival: Nanos,
    /// Total service demand.
    pub service: Nanos,
    /// Remaining service demand (decremented by slices).
    pub remaining: Nanos,
    /// Number of times the request was preempted.
    pub preemptions: u32,
    active: bool,
}

#[derive(Clone, Copy, Debug)]
struct Running {
    req: ReqId,
    completes: bool,
}

/// Events a policy receives.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A request arrived at the dispatcher.
    Arrival(ReqId),
    /// `worker` completed `req` (already recorded and freed; its type and
    /// measured service time travel with the event).
    Completed {
        /// The worker that finished.
        worker: usize,
        /// The completed request's (now stale) id.
        req: ReqId,
        /// The request's true type.
        ty: TypeId,
        /// The request's total service time as executed.
        service: Nanos,
    },
    /// `worker`'s slice ended with work remaining; the request must be
    /// re-queued by the policy.
    SliceExpired {
        /// The worker whose slice expired.
        worker: usize,
        /// The preempted request.
        req: ReqId,
    },
}

/// A scheduling policy under simulation.
pub trait SimPolicy {
    /// Display name for reports.
    fn name(&self) -> String;
    /// Reacts to an engine event.
    fn handle(&mut self, ev: Event, core: &mut Core);
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of worker cores.
    pub workers: usize,
    /// Fraction of the run (by arrival time) discarded as warm-up.
    pub warmup_fraction: f64,
    /// Extra reporting-only latency added per request (network RTT).
    pub rtt: Nanos,
    /// Record a per-type latency timeline with this bucket size.
    pub timeline_bucket: Option<Nanos>,
}

impl SimConfig {
    /// A config with the paper's defaults: 10 % warm-up, no network.
    pub fn new(workers: usize) -> Self {
        SimConfig {
            workers,
            warmup_fraction: 0.1,
            rtt: Nanos::ZERO,
            timeline_bucket: None,
        }
    }

    /// Sets the reporting-only round-trip latency.
    pub fn with_rtt(mut self, rtt: Nanos) -> Self {
        self.rtt = rtt;
        self
    }
}

/// Sequence number of an empty slot: sorts after every scheduled event,
/// whose numbers count up from 1.
const EMPTY: u64 = u64::MAX;

/// The next event to fire.
#[derive(Clone, Copy, Debug)]
enum Fired {
    Arrival,
    SliceEnd(usize),
}

/// Pending events, one slot per source, fired in `(time, seq)` order
/// (see the module docs). An empty slot holds `(u64::MAX, EMPTY)`.
struct Calendar {
    /// Each worker's pending slice end time (ns).
    ends: Vec<u64>,
    /// Each worker's pending slice end sequence number.
    seqs: Vec<u64>,
    /// The pending arrival's `(time, seq)`.
    arrival: (u64, u64),
    /// Index of the earliest worker slot, unless `stale`.
    earliest: usize,
    stale: bool,
    seq: u64,
}

impl Calendar {
    fn new(workers: usize) -> Self {
        assert!(workers > 0, "a simulation needs at least one worker");
        Calendar {
            ends: vec![u64::MAX; workers],
            seqs: vec![EMPTY; workers],
            arrival: (u64::MAX, EMPTY),
            earliest: 0,
            stale: false,
            seq: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn schedule_arrival(&mut self, at: Nanos) {
        self.arrival = (at.as_nanos(), self.next_seq());
    }

    fn schedule_slice_end(&mut self, worker: usize, at: Nanos) {
        debug_assert_eq!(self.seqs[worker], EMPTY, "two slices on one worker");
        let at = at.as_nanos();
        self.ends[worker] = at;
        self.seqs[worker] = self.next_seq();
        // The new event is the latest scheduled, so it goes first only if
        // it is strictly earlier in time.
        if !self.stale && at < self.ends[self.earliest] {
            self.earliest = worker;
        }
    }

    /// Removes and returns the earliest event, or `None` when every slot
    /// is empty.
    fn pop(&mut self) -> Option<(Nanos, Fired)> {
        if self.stale {
            self.rescan();
        }
        let w = self.earliest;
        let slice = (self.ends[w], self.seqs[w]);
        let (at, fired) = if self.arrival < slice {
            let at = self.arrival.0;
            self.arrival = (u64::MAX, EMPTY);
            (at, Fired::Arrival)
        } else if slice.1 != EMPTY {
            self.ends[w] = u64::MAX;
            self.seqs[w] = EMPTY;
            self.stale = true;
            (slice.0, Fired::SliceEnd(w))
        } else {
            return None;
        };
        Some((Nanos::from_nanos(at), fired))
    }

    /// Finds the earliest worker slot: a branch-free scan of the end
    /// times in two interleaved chains (halving the scan's dependency
    /// chain), then, only when another slot ends at the same time, the
    /// lowest sequence number among them. Folding the tie-break into the
    /// scan (ordering on the `(end, seq)` pair, or a tie flag per chain)
    /// lengthens every step and measured 3–22 % slower end to end than
    /// this scan plus its separate, vectorizable tie count.
    fn rescan(&mut self) {
        let ends = &self.ends;
        let mut chain = [(0, ends[0]); 2];
        for (w, &end) in ends.iter().enumerate().skip(1) {
            let (earliest, best) = &mut chain[w & 1];
            let earlier = end < *best;
            *best = select_unpredictable(earlier, end, *best);
            *earliest = select_unpredictable(earlier, w, *earliest);
        }
        let [even, odd] = chain;
        let (mut earliest, best) = if odd.1 < even.1 { odd } else { even };
        if ends.iter().filter(|&&end| end == best).count() > 1 {
            earliest = (0..ends.len())
                .filter(|&w| ends[w] == best)
                .min_by_key(|&w| self.seqs[w])
                .expect("the scan's own slot matches");
        }
        self.earliest = earliest;
        self.stale = false;
    }
}

/// The simulation core handed to policies.
pub struct Core {
    /// Current simulated time.
    pub now: Nanos,
    slab: Vec<Req>,
    free: Vec<ReqId>,
    calendar: Calendar,
    running: Vec<Option<Running>>,
    busy_ns: Vec<u64>,
    overhead_ns: Vec<u64>,
    recorder: Recorder,
    timeline: Option<Timeline>,
    live: u64,
    completions: u64,
    rtt: Nanos,
}

impl Core {
    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.running.len()
    }

    /// Whether `worker` is idle.
    pub fn worker_idle(&self, worker: usize) -> bool {
        self.running[worker].is_none()
    }

    /// The lowest-indexed idle worker, if any.
    pub fn idle_worker(&self) -> Option<usize> {
        self.running.iter().position(|r| r.is_none())
    }

    /// Number of idle workers.
    pub fn idle_count(&self) -> usize {
        self.running.iter().filter(|r| r.is_none()).count()
    }

    /// Read a live request.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live request.
    pub fn req(&self, id: ReqId) -> &Req {
        let r = &self.slab[id as usize];
        assert!(r.active, "stale request id {id}");
        r
    }

    /// Runs `req` to completion on `worker` (non-preemptive policies).
    ///
    /// # Panics
    ///
    /// Panics if the worker is busy.
    pub fn run(&mut self, worker: usize, req: ReqId) {
        let remaining = self.req(req).remaining;
        self.start(worker, req, remaining, Nanos::ZERO, true);
    }

    /// Runs `req` on `worker` for at most `max_slice`. If the request
    /// cannot finish within the slice it is preempted: the worker
    /// additionally pays `preempt_overhead` (charged as overhead, not
    /// progress) and a [`Event::SliceExpired`] fires.
    ///
    /// # Panics
    ///
    /// Panics if the worker is busy or `max_slice` is zero.
    pub fn run_slice(
        &mut self,
        worker: usize,
        req: ReqId,
        max_slice: Nanos,
        preempt_overhead: Nanos,
    ) {
        assert!(max_slice > Nanos::ZERO, "zero-length slice");
        let remaining = self.req(req).remaining;
        if remaining <= max_slice {
            self.start(worker, req, remaining, Nanos::ZERO, true);
        } else {
            self.start(worker, req, max_slice, preempt_overhead, false);
        }
    }

    /// Like [`Core::run_slice`], but the worker first burns `pre_cost` of
    /// unproductive time *before* the request makes progress — the model
    /// for a context-switch cost paid when a preemption actually replaces
    /// the running request with another. No cost is charged at slice
    /// expiry.
    ///
    /// # Panics
    ///
    /// Panics if the worker is busy or `max_slice` is zero.
    pub fn run_slice_after(
        &mut self,
        worker: usize,
        req: ReqId,
        pre_cost: Nanos,
        max_slice: Nanos,
    ) {
        assert!(max_slice > Nanos::ZERO, "zero-length slice");
        let remaining = self.req(req).remaining;
        let (progress, completes) = if remaining <= max_slice {
            (remaining, true)
        } else {
            (max_slice, false)
        };
        self.start(worker, req, progress, pre_cost, completes);
    }

    fn start(
        &mut self,
        worker: usize,
        req: ReqId,
        progress: Nanos,
        overhead: Nanos,
        completes: bool,
    ) {
        assert!(
            self.running[worker].is_none(),
            "worker {worker} is already busy"
        );
        let r = &mut self.slab[req as usize];
        assert!(r.active, "running a stale request");
        r.remaining = r.remaining.saturating_sub(progress);
        if !completes {
            r.preemptions += 1;
        }
        self.running[worker] = Some(Running { req, completes });
        self.busy_ns[worker] += progress.as_nanos();
        self.overhead_ns[worker] += overhead.as_nanos();
        let end = self.now + progress + overhead;
        self.calendar.schedule_slice_end(worker, end);
    }

    /// Drops a request (flow control): records the drop and frees the slot.
    pub fn drop_req(&mut self, id: ReqId) {
        let r = &mut self.slab[id as usize];
        assert!(r.active, "dropping a stale request");
        r.active = false;
        self.free.push(id);
        self.live -= 1;
        self.recorder.drop_request();
    }

    /// Total completions so far (including warm-up ones).
    pub fn completions(&self) -> u64 {
        self.completions
    }

    fn alloc(&mut self, ty: TypeId, arrival: Nanos, service: Nanos) -> ReqId {
        self.live += 1;
        let req = Req {
            ty,
            arrival,
            service,
            remaining: service,
            preemptions: 0,
            active: true,
        };
        if let Some(id) = self.free.pop() {
            self.slab[id as usize] = req;
            id
        } else {
            self.slab.push(req);
            (self.slab.len() - 1) as ReqId
        }
    }

    fn finish(&mut self, id: ReqId) {
        let r = &mut self.slab[id as usize];
        debug_assert!(r.active && r.remaining == Nanos::ZERO);
        r.active = false;
        let (ty, arrival, service) = (r.ty, r.arrival, r.service);
        self.free.push(id);
        self.live -= 1;
        self.completions += 1;
        let sojourn = self.now.saturating_sub(arrival);
        self.recorder.complete(ty, arrival, sojourn, service);
        if let Some(tl) = &mut self.timeline {
            tl.record(ty, arrival, sojourn + self.rtt);
        }
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Metric summary (latency percentiles, slowdowns, drops).
    pub summary: RunSummary,
    /// Wall-clock end of the simulation (last event time).
    pub end_time: Nanos,
    /// Productive busy time per worker.
    pub busy: Vec<Nanos>,
    /// Preemption/overhead time per worker.
    pub overhead: Vec<Nanos>,
    /// Total completions including warm-up.
    pub completions: u64,
    /// Optional per-type latency timeline.
    pub timeline: Option<Vec<(Nanos, Vec<crate::metrics::Percentiles>)>>,
}

impl SimOutput {
    /// Mean number of busy cores over the run (productive work only).
    pub fn mean_busy_cores(&self) -> f64 {
        if self.end_time == Nanos::ZERO {
            return 0.0;
        }
        self.busy.iter().map(|b| b.as_nanos() as f64).sum::<f64>() / self.end_time.as_nanos() as f64
    }

    /// Mean number of cores burned on preemption overhead.
    pub fn mean_overhead_cores(&self) -> f64 {
        if self.end_time == Nanos::ZERO {
            return 0.0;
        }
        self.overhead
            .iter()
            .map(|b| b.as_nanos() as f64)
            .sum::<f64>()
            / self.end_time.as_nanos() as f64
    }

    /// Busy fraction of one worker.
    pub fn worker_utilization(&self, worker: usize) -> f64 {
        if self.end_time == Nanos::ZERO {
            return 0.0;
        }
        (self.busy[worker].as_nanos() + self.overhead[worker].as_nanos()) as f64
            / self.end_time.as_nanos() as f64
    }
}

/// Arrivals per batch handed from the arrival thread to the event loop.
const BATCH: usize = 1024;

/// Batch buffers in circulation: the event loop reads one while the
/// arrival thread fills the others, so the source runs at most
/// `BUFFERS - 1` batches ahead of the loop.
const BUFFERS: usize = 4;

/// The event loop's end of the arrival pipeline (see the module docs).
struct Feed<'scope> {
    /// The batch being consumed, and the next arrival's index in it.
    batch: Vec<Arrival>,
    pos: usize,
    full: Receiver<Vec<Arrival>>,
    empty: SyncSender<Vec<Arrival>>,
    /// The arrival thread, joined once it hangs up.
    producer: Option<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> Feed<'scope> {
    /// Starts the arrival thread on `source`.
    fn spawn<'env, S>(scope: &'scope thread::Scope<'scope, 'env>, mut source: S) -> Self
    where
        S: Iterator<Item = Arrival> + Send + 'scope,
    {
        let (full_tx, full) = sync_channel::<Vec<Arrival>>(BUFFERS);
        let (empty, empty_rx) = sync_channel(BUFFERS);
        for _ in 1..BUFFERS {
            empty
                .send(Vec::with_capacity(BATCH))
                .expect("the channel holds every buffer");
        }
        let producer = scope.spawn(move || {
            for mut batch in empty_rx {
                batch.extend(source.by_ref().take(BATCH));
                let last = batch.len() < BATCH;
                // A send fails only once the event loop has unwound.
                if batch.is_empty() || full_tx.send(batch).is_err() || last {
                    break;
                }
            }
        });
        Feed {
            batch: Vec::with_capacity(BATCH),
            pos: 0,
            full,
            empty,
            producer: Some(producer),
        }
    }

    /// The next arrival in source order, or `None` once the source ended.
    #[inline]
    fn next(&mut self) -> Option<Arrival> {
        if let Some(&a) = self.batch.get(self.pos) {
            self.pos += 1;
            return Some(a);
        }
        self.refill()
    }

    #[cold]
    fn refill(&mut self) -> Option<Arrival> {
        let mut used = std::mem::take(&mut self.batch);
        used.clear();
        // Never blocks (the channel can hold every buffer); fails only
        // after the arrival thread finished, which needs no more buffers.
        let _ = self.empty.send(used);
        match self.full.recv() {
            Ok(batch) => {
                self.batch = batch;
                self.pos = 1;
                Some(self.batch[0])
            }
            Err(_) => {
                // The arrival thread hung up: it drained the source or
                // panicked.
                if let Some(Err(panic)) = self.producer.take().map(|p| p.join()) {
                    resume_unwind(panic);
                }
                None
            }
        }
    }
}

/// Runs a policy against an arrival stream until every request completes.
///
/// The stream is drawn on a scoped helper thread and handed over in
/// batches (see the module docs); the policy and every decision run on
/// the calling thread, in the order a single thread would make them.
///
/// # Panics
///
/// Panics if the policy strands requests (queues non-empty with the event
/// calendar empty) — that is a policy bug, not an overload condition —
/// or if `cfg.workers` is zero. A panic in the policy or in the arrival
/// source propagates to the caller.
pub fn simulate<I>(
    policy: &mut dyn SimPolicy,
    gen: I,
    num_types: usize,
    total_duration: Nanos,
    cfg: &SimConfig,
) -> SimOutput
where
    I: IntoIterator<Item = Arrival>,
    I::IntoIter: Send,
{
    let source = gen.into_iter();
    thread::scope(|scope| {
        let feed = Feed::spawn(scope, source);
        run(policy, feed, num_types, total_duration, cfg)
    })
}

/// The event loop of [`simulate`], on the calling thread.
fn run(
    policy: &mut dyn SimPolicy,
    mut gen: Feed<'_>,
    num_types: usize,
    total_duration: Nanos,
    cfg: &SimConfig,
) -> SimOutput {
    let warmup_end =
        Nanos::from_nanos((total_duration.as_nanos() as f64 * cfg.warmup_fraction) as u64);
    let mut core = Core {
        now: Nanos::ZERO,
        slab: Vec::with_capacity(1024),
        free: Vec::new(),
        calendar: Calendar::new(cfg.workers),
        running: vec![None; cfg.workers],
        busy_ns: vec![0; cfg.workers],
        overhead_ns: vec![0; cfg.workers],
        recorder: Recorder::new(num_types, warmup_end),
        timeline: cfg.timeline_bucket.map(|b| Timeline::new(b, num_types)),
        live: 0,
        completions: 0,
        rtt: cfg.rtt,
    };

    // Prime the first arrival.
    let mut pending = gen.next();
    if let Some(a) = pending {
        core.calendar.schedule_arrival(a.at);
    }

    while let Some((at, fired)) = core.calendar.pop() {
        core.now = at;
        match fired {
            Fired::Arrival => {
                let a = pending.take().expect("arrival event without data");
                let id = core.alloc(a.ty, a.at, a.service);
                // Schedule the next arrival before the policy runs so the
                // calendar never empties while work remains.
                pending = gen.next();
                if let Some(n) = pending {
                    core.calendar.schedule_arrival(n.at);
                }
                policy.handle(Event::Arrival(id), &mut core);
            }
            Fired::SliceEnd(w) => {
                let run = core.running[w].take().expect("slice end on idle worker");
                if run.completes {
                    let r = &core.slab[run.req as usize];
                    let (ty, service) = (r.ty, r.service);
                    core.finish(run.req);
                    policy.handle(
                        Event::Completed {
                            worker: w,
                            req: run.req,
                            ty,
                            service,
                        },
                        &mut core,
                    );
                } else {
                    policy.handle(
                        Event::SliceExpired {
                            worker: w,
                            req: run.req,
                        },
                        &mut core,
                    );
                }
            }
        }
    }

    assert!(
        core.live == 0,
        "policy {} stranded {} requests",
        policy.name(),
        core.live
    );

    SimOutput {
        summary: core.recorder.summarize(cfg.rtt),
        end_time: core.now,
        busy: core.busy_ns.iter().map(|&b| Nanos::from_nanos(b)).collect(),
        overhead: core
            .overhead_ns
            .iter()
            .map(|&b| Nanos::from_nanos(b))
            .collect(),
        completions: core.completions,
        timeline: core.timeline.as_ref().map(|t| t.series()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalGen, Workload};

    /// A trivial c-FCFS policy used to exercise the engine itself.
    struct MiniFcfs {
        queue: std::collections::VecDeque<ReqId>,
    }

    impl SimPolicy for MiniFcfs {
        fn name(&self) -> String {
            "mini-fcfs".into()
        }
        fn handle(&mut self, ev: Event, core: &mut Core) {
            match ev {
                Event::Arrival(id) => {
                    if let Some(w) = core.idle_worker() {
                        core.run(w, id);
                    } else {
                        self.queue.push_back(id);
                    }
                }
                Event::Completed { worker, .. } => {
                    if let Some(next) = self.queue.pop_front() {
                        core.run(worker, next);
                    }
                }
                Event::SliceExpired { .. } => unreachable!("mini-fcfs uses no slices"),
            }
        }
    }

    fn run_mini(load: f64, workers: usize) -> SimOutput {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(200);
        let gen = ArrivalGen::uniform(&wl, workers, load, dur, 42);
        let mut policy = MiniFcfs {
            queue: Default::default(),
        };
        simulate(&mut policy, gen, 2, dur, &SimConfig::new(workers))
    }

    #[test]
    fn low_load_has_near_zero_queueing() {
        let out = run_mini(0.05, 8);
        assert!(out.completions > 100);
        // At 5 % load the p50 slowdown must be ~1 (no queueing).
        assert!(
            out.summary.overall_slowdown.p50 < 1.01,
            "p50 slowdown = {}",
            out.summary.overall_slowdown.p50
        );
    }

    #[test]
    fn high_load_queues_more_than_low_load() {
        let lo = run_mini(0.2, 4);
        let hi = run_mini(0.9, 4);
        assert!(
            hi.summary.overall_slowdown.p999 > lo.summary.overall_slowdown.p999,
            "hi {} vs lo {}",
            hi.summary.overall_slowdown.p999,
            lo.summary.overall_slowdown.p999
        );
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let out = run_mini(0.5, 8);
        let busy = out.mean_busy_cores();
        assert!(
            (busy - 4.0).abs() < 0.3,
            "expected ~4 busy cores, got {busy}"
        );
        assert_eq!(out.mean_overhead_cores(), 0.0);
    }

    #[test]
    fn slices_preempt_and_charge_overhead() {
        /// A policy that slices everything at 5 µs with 1 µs overhead.
        struct Slicer {
            queue: std::collections::VecDeque<ReqId>,
        }
        impl SimPolicy for Slicer {
            fn name(&self) -> String {
                "slicer".into()
            }
            fn handle(&mut self, ev: Event, core: &mut Core) {
                let q = Nanos::from_micros(5);
                let o = Nanos::from_micros(1);
                match ev {
                    Event::Arrival(id) => {
                        self.queue.push_back(id);
                    }
                    Event::Completed { .. } => {}
                    Event::SliceExpired { req, .. } => self.queue.push_back(req),
                }
                while let (Some(w), false) = (core.idle_worker(), self.queue.is_empty()) {
                    let id = self.queue.pop_front().unwrap();
                    core.run_slice(w, id, q, o);
                }
            }
        }
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(50);
        let gen = ArrivalGen::uniform(&wl, 4, 0.5, dur, 1);
        let mut p = Slicer {
            queue: Default::default(),
        };
        let out = simulate(&mut p, gen, 2, dur, &SimConfig::new(4));
        // Long requests (100 µs) need 20 slices ⇒ 19 preemptions each, so
        // overhead cores must be clearly positive.
        assert!(
            out.mean_overhead_cores() > 0.05,
            "{}",
            out.mean_overhead_cores()
        );
        assert!(out.completions > 0);
    }

    #[test]
    fn rtt_is_reporting_only() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(50);
        let mk = |rtt| {
            let gen = ArrivalGen::uniform(&wl, 4, 0.3, dur, 3);
            let mut p = MiniFcfs {
                queue: Default::default(),
            };
            simulate(
                &mut p,
                gen,
                2,
                dur,
                &SimConfig::new(4).with_rtt(Nanos::from_micros(rtt)),
            )
        };
        let without = mk(0);
        let with = mk(10);
        // Same seed ⇒ same slowdowns; latency shifted by exactly 10 µs.
        assert_eq!(
            without.summary.overall_slowdown.p999,
            with.summary.overall_slowdown.p999
        );
        assert_eq!(
            with.summary.per_type[0].latency_ns.p50,
            without.summary.per_type[0].latency_ns.p50 + 10_000.0
        );
    }

    #[test]
    fn timeline_is_produced_when_requested() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(100);
        let gen = ArrivalGen::uniform(&wl, 4, 0.3, dur, 5);
        let mut p = MiniFcfs {
            queue: Default::default(),
        };
        let mut cfg = SimConfig::new(4);
        cfg.timeline_bucket = Some(Nanos::from_millis(10));
        let out = simulate(&mut p, gen, 2, dur, &cfg);
        let tl = out.timeline.expect("timeline requested");
        assert!(tl.len() >= 9, "expected ~10 buckets, got {}", tl.len());
    }

    /// MiniFcfs that also records every arrival it is handed.
    struct Recording {
        inner: MiniFcfs,
        seen: Vec<Arrival>,
    }

    impl SimPolicy for Recording {
        fn name(&self) -> String {
            "recording".into()
        }
        fn handle(&mut self, ev: Event, core: &mut Core) {
            if let Event::Arrival(id) = ev {
                let r = core.req(id);
                self.seen.push(Arrival {
                    at: r.arrival,
                    ty: r.ty,
                    service: r.service,
                });
            }
            self.inner.handle(ev, core);
        }
    }

    /// A source that counts its polls and fails the run if it is polled
    /// again after it ended.
    struct OneShot<'a> {
        arrivals: std::slice::Iter<'a, Arrival>,
        polls: &'a mut usize,
        ended: bool,
    }

    impl Iterator for OneShot<'_> {
        type Item = Arrival;
        fn next(&mut self) -> Option<Arrival> {
            assert!(!self.ended, "source polled after it ended");
            *self.polls += 1;
            let a = self.arrivals.next().copied();
            self.ended = a.is_none();
            a
        }
    }

    fn run_recording(
        source: impl IntoIterator<Item = Arrival, IntoIter: Send>,
    ) -> (SimOutput, Vec<Arrival>) {
        let mut p = Recording {
            inner: MiniFcfs {
                queue: Default::default(),
            },
            seen: Vec::new(),
        };
        let out = simulate(
            &mut p,
            source,
            2,
            Nanos::from_millis(100),
            &SimConfig::new(4),
        );
        (out, p.seen)
    }

    #[test]
    fn pipeline_keeps_source_order_at_batch_edges() {
        let wl = Workload::high_bimodal();
        let all: Vec<Arrival> = ArrivalGen::uniform(&wl, 4, 0.7, Nanos::from_secs(10), 9)
            .take(3 * BATCH)
            .collect();
        for len in [0, 1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH] {
            let trace = &all[..len];
            let (replayed, seen) = run_recording(trace.iter().copied());
            assert_eq!(seen, trace, "len {len}: arrivals reach the policy in order");
            assert_eq!(replayed.completions, len as u64);
            let mut polls = 0;
            let (streamed, seen) = run_recording(OneShot {
                arrivals: trace.iter(),
                polls: &mut polls,
                ended: false,
            });
            assert_eq!(seen, trace, "len {len}");
            assert_eq!(
                polls,
                len + 1,
                "len {len}: one poll per arrival plus the end"
            );
            assert_eq!(
                format!("{streamed:?}"),
                format!("{replayed:?}"),
                "len {len}"
            );
        }
    }

    /// Runs `f` on its own thread and returns its panic message, failing
    /// if it returns normally or has not finished within a minute.
    fn panic_message(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let msg = r.err().map(|p| match p.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p
                    .downcast_ref::<&str>()
                    .map_or_else(String::new, |s| s.to_string()),
            });
            tx.send(msg).expect("the test waits for the result");
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("simulate hung instead of propagating the panic")
            .expect("simulate returned instead of panicking")
    }

    /// An endless stream of 1 µs requests, one every 2 µs.
    fn endless() -> impl Iterator<Item = Arrival> + Send {
        (1..).map(|i| Arrival {
            at: Nanos::from_micros(2 * i),
            ty: TypeId::new(0),
            service: Nanos::from_micros(1),
        })
    }

    #[test]
    fn policy_panics_propagate_without_hanging() {
        /// Queues every request and never runs one.
        struct Strander;
        impl SimPolicy for Strander {
            fn name(&self) -> String {
                "strander".into()
            }
            fn handle(&mut self, _: Event, _: &mut Core) {}
        }
        let msg = panic_message(|| {
            let trace: Vec<Arrival> = endless().take(3 * BATCH).collect();
            simulate(
                &mut Strander,
                trace,
                1,
                Nanos::from_millis(1),
                &SimConfig::new(2),
            );
        });
        assert!(msg.contains("stranded"), "{msg}");

        /// Panics mid-stream, while the arrival thread waits on full buffers.
        struct GivesUp(usize);
        impl SimPolicy for GivesUp {
            fn name(&self) -> String {
                "gives-up".into()
            }
            fn handle(&mut self, _: Event, _: &mut Core) {
                self.0 += 1;
                assert!(self.0 < 10 * BATCH, "policy gave up");
            }
        }
        let msg = panic_message(|| {
            simulate(
                &mut GivesUp(0),
                endless(),
                1,
                Nanos::from_millis(1),
                &SimConfig::new(2),
            );
        });
        assert!(msg.contains("policy gave up"), "{msg}");
    }

    #[test]
    fn source_panics_propagate() {
        let msg = panic_message(|| {
            let mut p = MiniFcfs {
                queue: Default::default(),
            };
            let source = endless().inspect(|a| {
                assert!(
                    a.at < Nanos::from_micros(2 * (2 * BATCH as u64 + 5)),
                    "source failed"
                );
            });
            simulate(&mut p, source, 1, Nanos::from_millis(1), &SimConfig::new(2));
        });
        assert!(msg.contains("source failed"), "{msg}");
    }

    #[test]
    fn warmup_discards_early_arrivals() {
        let out = run_mini(0.3, 4);
        // Roughly 10 % of completions should have been discarded.
        let kept = out.summary.completions;
        let total = out.completions;
        let frac = kept as f64 / total as f64;
        assert!((frac - 0.9).abs() < 0.02, "kept fraction = {frac}");
    }
}
