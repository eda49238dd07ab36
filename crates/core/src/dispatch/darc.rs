//! The DARC dispatch engine (paper §3 Algorithm 1, §4.3.3).
//!
//! [`DarcEngine`] is the paper's contribution, shared verbatim by the
//! discrete-event simulator and the threaded runtime. It owns the typed
//! queues, the free-worker table, the workload profiler, and the current
//! worker reservation, and implements:
//!
//! * **Algorithm 1** — walk typed queues in ascending profiled service
//!   time; dispatch the head of the first non-empty queue onto a free
//!   reserved worker, else onto a free *stealable* worker (a core reserved
//!   for a longer group); spillway cores serve ungrouped and UNKNOWN
//!   requests last.
//! * **c-FCFS warm-up** — before the first profiling window completes the
//!   engine dispatches in strict global arrival order.
//! * **Reservation updates** — when the profiler reports a full window, a
//!   deviated demand vector, and an SLO-violating queueing delay, the
//!   engine commits the window and installs a fresh reservation.
//! * **Flow control** — arrivals to a full typed queue are rejected back
//!   to the caller (dropped), shedding load only for the overloaded type.

use std::sync::Arc;

use persephone_telemetry::{DispatchKind, Telemetry};

use super::common::{tslot, WorkerTable};
use super::engine::{Dispatch, EngineReport, ScheduleEngine};
use super::{EngineConfig, EngineMode, OverloadConfig};
use crate::arena::ArenaRing;
use crate::profile::Profiler;
use crate::queue::TypedQueue;
use crate::reserve::{reserve, Reservation, ReserveConfig};
use crate::time::Nanos;
use crate::types::{TypeId, WorkerId};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Gathering the first profiling window, dispatching c-FCFS.
    Warmup,
    /// DARC with dynamic reservation updates.
    Darc,
    /// DARC with a frozen reservation.
    Frozen,
}

/// The DARC scheduling engine.
///
/// `R` is the opaque request representation: a buffer pointer in the
/// runtime, a small token in the simulator.
///
/// # Examples
///
/// ```
/// use persephone_core::dispatch::{DarcEngine, EngineConfig};
/// use persephone_core::time::Nanos;
/// use persephone_core::types::TypeId;
///
/// // Two types, two workers, trivially small profiling window.
/// let mut cfg = EngineConfig::darc(2);
/// cfg.profiler.min_samples = 2;
/// let mut eng: DarcEngine<u64> = DarcEngine::new(cfg, 2, &[None, None]);
///
/// let now = Nanos::from_micros(1);
/// eng.enqueue(TypeId::new(0), 7, now).unwrap();
/// let d = eng.poll(now).expect("a free worker exists");
/// assert_eq!(d.req, 7);
/// eng.complete(d.worker, Nanos::from_micros(1), now + Nanos::from_micros(1));
/// ```
#[derive(Clone, Debug)]
pub struct DarcEngine<R> {
    queues: Vec<TypedQueue<R>>,
    unknown: TypedQueue<R>,
    seq: u64,
    workers: WorkerTable,
    overload: OverloadConfig,
    /// Deadline-expired requests awaiting pickup by the caller (answered
    /// with `Dropped` in the runtime, counted in the simulator).
    expired_buf: ArenaRing<(TypeId, R)>,
    expired_total: u64,
    reservation: Reservation,
    profiler: Profiler,
    phase: Phase,
    /// Dispatch order over grouped types (ascending service time).
    priority: Vec<TypeId>,
    /// Types outside every group: serviced on spillway cores only.
    spill_types: Vec<TypeId>,
    reserve_cfg: ReserveConfig,
    updates: u64,
    num_types: usize,
    /// Optional always-on instruments; every hook is lock-free and
    /// allocation-free, so attaching telemetry is safe on hot paths.
    telemetry: Option<Arc<Telemetry>>,
    /// Demand vector at the last install, for the update-trigger Δ.
    last_demands: Vec<f64>,
    /// Pre-warmed scratch for the per-completion staleness check, so the
    /// hot path folds the live demand vector without allocating.
    demand_scratch: Vec<f64>,
}

impl<R> DarcEngine<R> {
    /// Creates an engine for `num_types` request types.
    ///
    /// `hints[i]` optionally seeds type `i`'s service-time estimate; with
    /// hints for every type, [`EngineMode::Dynamic`] skips the c-FCFS
    /// warm-up and installs a hint-based reservation immediately.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_workers == 0` or `hints.len() != num_types`.
    pub fn new(cfg: EngineConfig, num_types: usize, hints: &[Option<Nanos>]) -> Self {
        assert!(cfg.num_workers > 0, "need at least one worker");
        let profiler = Profiler::new(cfg.profiler.clone(), num_types, hints);
        let queues = (0..num_types)
            .map(|_| TypedQueue::new(cfg.queue_capacity))
            .collect();
        let unknown = TypedQueue::new(cfg.queue_capacity);
        let mut eng = DarcEngine {
            queues,
            unknown,
            seq: 0,
            workers: WorkerTable::new(cfg.num_workers),
            overload: cfg.overload,
            expired_buf: ArenaRing::new(),
            expired_total: 0,
            reservation: Reservation::all_shared(num_types, cfg.num_workers),
            profiler,
            phase: Phase::Warmup,
            priority: Vec::new(),
            spill_types: Vec::new(),
            reserve_cfg: ReserveConfig {
                num_workers: cfg.num_workers,
                delta: cfg.reserve.delta,
                spillway: cfg.reserve.spillway.min(cfg.num_workers),
            },
            updates: 0,
            num_types,
            telemetry: None,
            last_demands: vec![0.0; num_types],
            demand_scratch: vec![0.0; num_types],
        };
        match cfg.mode {
            EngineMode::Static(res) => {
                eng.install(res);
                eng.phase = Phase::Frozen;
            }
            EngineMode::Dynamic => {
                if hints.iter().all(|h| h.is_some()) && num_types > 0 {
                    // Fully hinted: reserve immediately from the hints.
                    let stats = eng.profiler.commit_window();
                    let res = reserve(&stats, &eng.reserve_cfg);
                    eng.install(res);
                    eng.phase = Phase::Darc;
                } else {
                    eng.phase = Phase::Warmup;
                }
            }
        }
        eng
    }

    /// Attaches a telemetry registry: from here on the engine records
    /// arrivals, queue depths, dispatch kinds, sojourns, drops, and
    /// reservation-update events into it. Sized independently from the
    /// engine, so a registry can outlive resizes.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Telemetry slot for `ty` (UNKNOWN and out-of-range types map to
    /// the registry's overflow slot).
    fn tslot(&self, ty: TypeId) -> usize {
        tslot(ty, self.num_types)
    }

    /// Number of application workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of registered request types (excluding UNKNOWN).
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// The active reservation.
    pub fn reservation(&self) -> &Reservation {
        &self.reservation
    }

    /// The workload profiler (read-only view).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Reservation updates installed since start (warm-up exit included).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Whether the engine is still in its c-FCFS warm-up window.
    pub fn in_warmup(&self) -> bool {
        self.phase == Phase::Warmup
    }

    /// Workers currently idle.
    pub fn free_workers(&self) -> usize {
        self.workers.free_count()
    }

    /// Workers currently quarantined (busy far past their type's profiled
    /// mean; excluded from the free pool until their completion arrives).
    pub fn quarantined_workers(&self) -> usize {
        self.workers.quarantined_count()
    }

    /// Whether `worker` is currently quarantined.
    pub fn is_quarantined(&self, worker: WorkerId) -> bool {
        self.workers.is_quarantined(worker.index())
    }

    /// Quarantine events since start (cumulative).
    pub fn quarantines(&self) -> u64 {
        self.workers.quarantines()
    }

    /// Quarantine releases (late completions) since start.
    pub fn releases(&self) -> u64 {
        self.workers.releases()
    }

    /// Requests expired by deadline shedding or drained at teardown.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    /// Whether every worker is either idle or quarantined — the engine's
    /// quiescence condition for shutdown. A quarantined worker may never
    /// answer; waiting on it would wedge teardown, which is exactly the
    /// failure mode this subsystem removes.
    pub fn quiescent(&self) -> bool {
        self.workers.quiescent()
    }

    /// Queued requests of type `ty` (UNKNOWN supported).
    pub fn pending(&self, ty: TypeId) -> usize {
        if ty.is_unknown() {
            self.unknown.len()
        } else {
            self.queues.get(ty.index()).map(|q| q.len()).unwrap_or(0)
        }
    }

    /// Total queued requests across all types.
    pub fn total_pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum::<usize>() + self.unknown.len()
    }

    /// Requests dropped by flow control for type `ty`.
    pub fn drops(&self, ty: TypeId) -> u64 {
        if ty.is_unknown() {
            self.unknown.drops()
        } else {
            self.queues.get(ty.index()).map(|q| q.drops()).unwrap_or(0)
        }
    }

    /// Total drops across all typed queues.
    pub fn total_drops(&self) -> u64 {
        self.queues.iter().map(|q| q.drops()).sum::<u64>() + self.unknown.drops()
    }

    /// Current capacity of `ty`'s queue (`0` = unbounded; UNKNOWN maps to
    /// the unknown queue). SLO-sized queues change this on every install.
    pub fn queue_capacity_of(&self, ty: TypeId) -> usize {
        if ty.is_unknown() {
            self.unknown.capacity()
        } else {
            self.queues
                .get(ty.index())
                .map(|q| q.capacity())
                .unwrap_or(self.unknown.capacity())
        }
    }

    /// Number of workers currently *guaranteed* (reserved) for `ty`'s
    /// group — the quantity plotted in the paper's Figure 7 bottom row.
    pub fn guaranteed_workers(&self, ty: TypeId) -> usize {
        match self.reservation.group_of(ty) {
            Some(g) => self.reservation.groups[g].reserved.len(),
            None => 0,
        }
    }

    /// Resizes the worker pool (paper §6: "DARC can cooperate with an
    /// allocator to obtain and release cores, adapting to load changes and
    /// updating reservations during such events").
    ///
    /// Growing takes effect immediately; shrinking requires the workers
    /// being surrendered (the highest-indexed ones) to be idle — the
    /// caller drains them first. A dynamic engine recomputes its
    /// reservation for the new width right away; a frozen or c-FCFS
    /// engine keeps its policy but gains/loses the raw cores.
    ///
    /// Returns `Err(())` without changes when shrinking would drop a busy
    /// worker or `new_workers` is zero. Reconfiguration lane, never per
    /// request — cold marks the audit frontier.
    #[allow(clippy::result_unit_err)]
    #[cold]
    pub fn resize(&mut self, new_workers: usize) -> Result<(), ()> {
        self.workers.resize(new_workers)?;
        self.reserve_cfg.num_workers = new_workers;
        match self.phase {
            Phase::Darc => {
                // Reserve from the current estimates for the new width.
                let stats = self.profiler.estimates();
                let res = reserve(&stats, &self.reserve_cfg);
                self.install(res);
            }
            Phase::Warmup => {
                self.reservation = Reservation::all_shared(self.num_types, new_workers);
            }
            Phase::Frozen => {
                // A manual reservation cannot be rescaled meaningfully;
                // rebuild the shared layout and let the caller install a
                // new static reservation if desired.
                self.reservation = Reservation::all_shared(self.num_types, new_workers);
                self.priority = self.reservation.priority_order().collect();
                self.spill_types.clear();
            }
        }
        Ok(())
    }

    /// Enqueues a classified request; returns it back when the typed queue
    /// is full (the caller should count/drop it).
    ///
    /// Types out of the registered range are treated as UNKNOWN.
    pub fn enqueue(&mut self, ty: TypeId, req: R, now: Nanos) -> Result<(), R> {
        // Occurrence ratios are profiled at *arrival*: completion-based
        // ratios are biased low for a type whose queue is backed up, which
        // would make an under-provisioned allocation look self-consistent.
        self.profiler.record_arrival(ty);
        let seq = self.seq;
        self.seq += 1;
        let tslot = self.tslot(ty);
        let slot = if !ty.is_unknown() && ty.index() < self.queues.len() {
            &mut self.queues[ty.index()]
        } else {
            &mut self.unknown
        };
        let depth_if_full = slot.len() as u64;
        let result = slot.push(req, now, seq);
        if let Some(t) = &self.telemetry {
            t.record_arrival(tslot);
            match &result {
                Ok(()) => t.record_queue_depth(tslot, depth_if_full + 1),
                Err(_) => t.record_drop(tslot, depth_if_full, now.as_nanos()),
            }
        }
        result
    }

    /// Returns the next dispatch decision, or `None` when no request can
    /// be placed (no pending work, or no eligible free worker).
    ///
    /// Call in a loop after every enqueue/complete until it returns `None`.
    pub fn poll(&mut self, now: Nanos) -> Option<Dispatch<R>> {
        match self.phase {
            // `poll_fcfs` starts with its own `first_free` probe, so a
            // separate free-count load here would be pure overhead.
            Phase::Warmup => self.poll_fcfs(now),
            Phase::Darc | Phase::Frozen => {
                if self.workers.free_count() == 0 {
                    return None;
                }
                self.poll_darc(now)
            }
        }
    }

    /// Signals that `worker` finished its request, observed to run for
    /// `service`. Frees the worker, feeds the profiler, and (in dynamic
    /// mode) installs a new reservation when the update triggers fire.
    ///
    /// # Panics
    ///
    /// Panics if `worker` was not busy — that is a dispatcher/worker
    /// protocol violation, not a recoverable condition.
    pub fn complete(&mut self, worker: WorkerId, service: Nanos, now: Nanos) {
        let (ty, queued_for, started, released) = self.workers.complete(worker);
        if released {
            if let Some(t) = &self.telemetry {
                t.record_release(
                    worker.index(),
                    now.saturating_sub(started).as_nanos(),
                    now.as_nanos(),
                );
            }
        }
        self.profiler.record_completion(ty, service);
        if let Some(t) = &self.telemetry {
            let sojourn = queued_for.saturating_add(service);
            t.record_completion(
                self.tslot(ty),
                worker.index(),
                sojourn.as_nanos(),
                service.as_nanos(),
            );
        }
        self.maybe_update(now);
    }

    /// Deadline shedding: expires head-of-queue requests whose queueing
    /// delay exceeds `deadline_slowdown ×` the type's profiled mean
    /// service time. Expired requests move to an internal buffer the
    /// caller empties via [`DarcEngine::take_expired`] (the runtime
    /// answers each one with `Status::Dropped` so clients fail fast
    /// instead of inflating the tail).
    ///
    /// Call once per dispatcher iteration. No-op unless
    /// `overload.deadline_slowdown` is set; types without a service
    /// estimate (and the UNKNOWN queue) are never expired.
    pub fn expire_heads(&mut self, now: Nanos) {
        let Some(slowdown) = self.overload.deadline_slowdown else {
            return;
        };
        for i in 0..self.num_types {
            let ty = TypeId::new(i as u32);
            let Some(est) = self.profiler.estimate_ns(ty) else {
                continue;
            };
            let deadline = Nanos::from_nanos((slowdown * est) as u64);
            while let Some(entry) = self.queues[i].pop_expired(now, deadline) {
                let waited = now.saturating_sub(entry.enqueued);
                self.expired_total += 1;
                if let Some(t) = &self.telemetry {
                    t.record_expired(i, waited.as_nanos(), now.as_nanos());
                }
                self.expired_buf.push_back((ty, entry.req));
            }
        }
    }

    /// Takes the next deadline-expired request, if any.
    pub fn take_expired(&mut self) -> Option<(TypeId, R)> {
        self.expired_buf.pop_front()
    }

    /// Worker-health check: quarantines any busy worker whose in-flight
    /// request has run for `stall_factor ×` its type's profiled mean
    /// (floored at `min_stall`; types without an estimate use `min_stall`
    /// alone). A quarantined worker stays busy — its reserved core becomes
    /// re-coverable via the spillway in [`DarcEngine::poll`] — and is
    /// released by its late completion.
    ///
    /// Call once per dispatcher iteration. No-op unless
    /// `overload.stall_factor` is set.
    pub fn check_health(&mut self, now: Nanos) {
        let Some(factor) = self.overload.stall_factor else {
            return;
        };
        let profiler = &self.profiler;
        let telemetry = &self.telemetry;
        let num_types = self.num_types;
        self.workers.check_health(
            now,
            factor,
            self.overload.min_stall,
            |ty| profiler.estimate_ns(ty),
            |w, ty, running| {
                if let Some(t) = telemetry {
                    t.record_quarantine(
                        w,
                        tslot(ty, num_types),
                        running.as_nanos(),
                        now.as_nanos(),
                    );
                }
            },
        );
    }

    /// Drains every typed queue (shutdown teardown), counting each entry
    /// as shed and appending all of them to `out` so the caller can
    /// answer each with `Dropped` instead of silently discarding queued
    /// work. Entries stream straight from the queues into the caller's
    /// (reusable) buffer — no intermediate collect.
    pub fn drain_all(&mut self, now: Nanos, out: &mut Vec<(TypeId, R)>) {
        let before = out.len();
        for i in 0..self.num_types {
            let ty = TypeId::new(i as u32);
            for e in self.queues[i].drain() {
                let waited = now.saturating_sub(e.enqueued);
                if let Some(t) = &self.telemetry {
                    t.record_expired(i, waited.as_nanos(), now.as_nanos());
                }
                out.push((ty, e.req));
            }
        }
        for e in self.unknown.drain() {
            let waited = now.saturating_sub(e.enqueued);
            if let Some(t) = &self.telemetry {
                t.record_expired(self.num_types, waited.as_nanos(), now.as_nanos());
            }
            out.push((TypeId::UNKNOWN, e.req));
        }
        self.expired_total += (out.len() - before) as u64;
    }

    /// Forces a reservation recomputation from the current window (used by
    /// tests and by operators; normal updates happen inside `complete`).
    pub fn force_update(&mut self) {
        if matches!(self.phase, Phase::Darc | Phase::Warmup) {
            self.commit_and_install(Nanos::ZERO);
            self.phase = Phase::Darc;
        }
    }

    fn maybe_update(&mut self, now: Nanos) {
        match self.phase {
            Phase::Warmup => {
                if self.profiler.window_full() {
                    self.commit_and_install(now);
                    self.phase = Phase::Darc;
                }
            }
            Phase::Darc => {
                // Paper §4.3.3: update when the window is full, some
                // request saw SLO-violating queueing delay, and the CPU
                // demand deviates from the *current allocation* — either
                // the demand vector moved, or rounding the live demand
                // would grant different core counts than installed.
                if self.profiler.window_full() && self.profiler.delay_signalled() {
                    let deviated = self
                        .profiler
                        .demands_deviation_into(&mut self.demand_scratch);
                    if deviated || self.allocation_stale() {
                        self.commit_and_install(now);
                    }
                }
            }
            Phase::Frozen => {}
        }
    }

    /// Whether recomputing Algorithm 2 on the live window would grant any
    /// group a different number of reserved cores than it currently holds,
    /// or an ungrouped (previously vanished) type now carries real demand.
    /// Reads the live demand vector `maybe_update` left in `demand_scratch`.
    fn allocation_stale(&self) -> bool {
        let demands = &self.demand_scratch;
        let w = self.workers.len() as f64;
        for g in &self.reservation.groups {
            let d: f64 = g
                .types
                .iter()
                .filter(|t| t.index() < demands.len())
                .map(|t| demands[t.index()])
                .sum();
            let want = ((d * w).round() as usize).max(1);
            if want != g.reserved.len() {
                return true;
            }
        }
        demands.iter().enumerate().any(|(i, d)| {
            self.reservation.group_of(TypeId::new(i as u32)).is_none() && *d * w >= 0.5
        })
    }

    /// Reservation updates are the sanctioned slow lane (paper §4.3.3:
    /// rare, ~μs-scale): Algorithm 2 plus queue re-sizing may allocate.
    /// `#[cold]` keeps them off the audited hot path.
    #[cold]
    fn commit_and_install(&mut self, now: Nanos) {
        let stats = self.profiler.commit_window();
        let res = reserve(&stats, &self.reserve_cfg);
        self.install_at(res, now);
    }

    #[cold]
    fn install(&mut self, res: Reservation) {
        self.install_at(res, Nanos::ZERO);
    }

    #[cold]
    fn install_at(&mut self, res: Reservation, now: Nanos) {
        // Capture the outgoing guaranteed-core map and the demand shift
        // before the new reservation replaces them.
        let old_guaranteed: Vec<usize> = (0..self.num_types)
            .map(|i| self.guaranteed_workers(TypeId::new(i as u32)))
            .collect();
        let demands = self.profiler.demands();
        let trigger_delta = demands
            .iter()
            .zip(self.last_demands.iter())
            .map(|(d, last)| (d - last).abs())
            .fold(0.0f64, f64::max);
        self.last_demands = demands;

        self.priority = res.priority_order().collect();
        let mut grouped = vec![false; self.num_types];
        for t in &self.priority {
            if t.index() < grouped.len() {
                grouped[t.index()] = true;
            }
        }
        self.spill_types = (0..self.num_types)
            .map(|i| TypeId::new(i as u32))
            .filter(|t| !grouped[t.index()])
            .collect();
        self.reservation = res;
        self.updates += 1;

        // SLO-sized typed queues: with `g` guaranteed cores, a backlog of
        // `N` requests of mean service `S` drains in `N·S/g`; bounding that
        // by the slowdown SLO (`≤ slowdown·S`) gives `N ≤ slowdown·g` — the
        // estimate cancels out, so the capacity is independent of how fast
        // the type is, but gated on an estimate existing at all.
        if let Some(bounds) = self.overload.slo_queues {
            let slo = self.profiler.config().slowdown_slo;
            for (i, q) in self.queues.iter_mut().enumerate() {
                let ty = TypeId::new(i as u32);
                let g = match self.reservation.group_of(ty) {
                    Some(gi) => self.reservation.groups[gi].reserved.len(),
                    None => 0,
                };
                let cap = if g > 0 && self.profiler.estimate_ns(ty).is_some() {
                    ((slo * g as f64).ceil() as usize).clamp(bounds.min, bounds.max)
                } else {
                    bounds.min
                };
                q.set_capacity(cap);
            }
        }

        if let Some(t) = &self.telemetry {
            let new_guaranteed: Vec<usize> = (0..self.num_types)
                .map(|i| self.guaranteed_workers(TypeId::new(i as u32)))
                .collect();
            t.record_reservation_update(
                now.as_nanos(),
                self.updates,
                (trigger_delta * 1e6) as u64,
                &old_guaranteed,
                &new_guaranteed,
            );
        }
    }

    /// Centralized FCFS: dispatch the globally oldest pending request to
    /// any free worker.
    ///
    /// The queue walk is a branch-light min-fold over head sequence
    /// numbers: empty queues report `u64::MAX` via
    /// [`TypedQueue::head_seq`] and lose every comparison, so the loop
    /// body carries no emptiness branch and sequence numbers are unique,
    /// so no tiebreak is needed.
    fn poll_fcfs(&mut self, now: Nanos) -> Option<Dispatch<R>> {
        let worker = self.workers.first_free()?;
        let mut best_seq = self.unknown.head_seq();
        let mut best_qi = self.num_types; // num_types = the UNKNOWN queue
        for (i, q) in self.queues.iter().enumerate() {
            let seq = q.head_seq();
            if seq < best_seq {
                best_seq = seq;
                best_qi = i;
            }
        }
        if best_seq == u64::MAX {
            return None;
        }
        let (ty, entry) = if best_qi == self.num_types {
            (TypeId::UNKNOWN, self.unknown.pop()?)
        } else {
            (TypeId::new(best_qi as u32), self.queues[best_qi].pop()?)
        };
        Some(self.assign(worker, ty, entry, now, DispatchKind::Fcfs))
    }

    /// Algorithm 1: walk grouped types in ascending service-time order,
    /// then spillway-only types, dispatching heads onto free reserved or
    /// stealable workers.
    fn poll_darc(&mut self, now: Nanos) -> Option<Dispatch<R>> {
        for pi in 0..self.priority.len() {
            let ty = self.priority[pi];
            if self.queues[ty.index()].is_empty() {
                continue;
            }
            let gi = match self.reservation.group_of(ty) {
                Some(g) => g,
                None => continue,
            };
            if let Some((worker, kind)) = self.free_in_group(gi) {
                if let Some(entry) = self.queues[ty.index()].pop() {
                    return Some(self.assign(worker, ty, entry, now, kind));
                }
                continue;
            }
            // Graceful degradation: when every core reserved for this group
            // is quarantined (stalled mid-request), the spillway re-covers
            // the group so its types keep flowing instead of wedging.
            if self.group_reserved_all_quarantined(gi) {
                if let Some(worker) = self.free_spillway() {
                    if let Some(entry) = self.queues[ty.index()].pop() {
                        return Some(self.assign(worker, ty, entry, now, DispatchKind::Spillway));
                    }
                }
            }
        }
        // Ungrouped types and UNKNOWN run on spillway cores, lowest priority.
        for si in 0..self.spill_types.len() {
            let ty = self.spill_types[si];
            if self.queues[ty.index()].is_empty() {
                continue;
            }
            if let Some(worker) = self.free_spillway() {
                if let Some(entry) = self.queues[ty.index()].pop() {
                    return Some(self.assign(worker, ty, entry, now, DispatchKind::Spillway));
                }
            }
        }
        if !self.unknown.is_empty() {
            if let Some(worker) = self.free_spillway() {
                if let Some(entry) = self.unknown.pop() {
                    return Some(self.assign(
                        worker,
                        TypeId::UNKNOWN,
                        entry,
                        now,
                        DispatchKind::Spillway,
                    ));
                }
            }
        }
        None
    }

    /// A free worker serving group `gi`: first the group's own reserved
    /// cores, then stealable cores borrowed from longer groups. The
    /// lists are ascending and short (they partition the worker pool),
    /// and the walk is a branch-predictable byte scan over `free[..]`.
    #[inline]
    fn free_in_group(&self, gi: usize) -> Option<(WorkerId, DispatchKind)> {
        let g = &self.reservation.groups[gi];
        if let Some(w) = self.workers.first_free_in(&g.reserved) {
            return Some((w, DispatchKind::Reserved));
        }
        self.workers
            .first_free_in(&g.stealable)
            .map(|w| (w, DispatchKind::Stolen))
    }

    /// Whether group `gi` has reserved cores and every one is quarantined.
    fn group_reserved_all_quarantined(&self, gi: usize) -> bool {
        let g = &self.reservation.groups[gi];
        !g.reserved.is_empty()
            && g.reserved
                .iter()
                .all(|w| self.workers.is_quarantined(w.index()))
    }

    #[inline]
    fn free_spillway(&self) -> Option<WorkerId> {
        self.workers.first_free_in(&self.reservation.spillway)
    }

    fn assign(
        &mut self,
        worker: WorkerId,
        ty: TypeId,
        entry: crate::queue::Entry<R>,
        now: Nanos,
        kind: DispatchKind,
    ) -> Dispatch<R> {
        let queued_for = now.saturating_sub(entry.enqueued);
        self.workers.assign(worker, ty, queued_for, now);
        self.profiler.record_dispatch_delay(ty, queued_for);
        if let Some(t) = &self.telemetry {
            t.record_dispatch(self.tslot(ty), worker.index(), kind, now.as_nanos());
        }
        Dispatch {
            worker,
            ty,
            req: entry.req,
            queued_for,
            kind,
        }
    }
}

impl<R: Send> ScheduleEngine<R> for DarcEngine<R> {
    fn policy_name(&self) -> &'static str {
        "DARC"
    }

    fn num_workers(&self) -> usize {
        DarcEngine::num_workers(self)
    }

    fn num_types(&self) -> usize {
        DarcEngine::num_types(self)
    }

    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        DarcEngine::set_telemetry(self, telemetry)
    }

    fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        DarcEngine::telemetry(self)
    }

    fn enqueue(&mut self, ty: TypeId, req: R, now: Nanos) -> Result<(), R> {
        DarcEngine::enqueue(self, ty, req, now)
    }

    fn poll(&mut self, now: Nanos) -> Option<Dispatch<R>> {
        DarcEngine::poll(self, now)
    }

    fn complete(&mut self, worker: WorkerId, service: Nanos, now: Nanos) {
        DarcEngine::complete(self, worker, service, now)
    }

    fn expire_heads(&mut self, now: Nanos) {
        DarcEngine::expire_heads(self, now)
    }

    fn take_expired(&mut self) -> Option<(TypeId, R)> {
        DarcEngine::take_expired(self)
    }

    fn check_health(&mut self, now: Nanos) {
        DarcEngine::check_health(self, now)
    }

    fn is_quarantined(&self, worker: WorkerId) -> bool {
        DarcEngine::is_quarantined(self, worker)
    }

    fn drain_all(&mut self, now: Nanos, out: &mut Vec<(TypeId, R)>) {
        DarcEngine::drain_all(self, now, out)
    }

    fn quiescent(&self) -> bool {
        DarcEngine::quiescent(self)
    }

    fn free_workers(&self) -> usize {
        DarcEngine::free_workers(self)
    }

    fn pending(&self, ty: TypeId) -> usize {
        DarcEngine::pending(self, ty)
    }

    fn total_pending(&self) -> usize {
        DarcEngine::total_pending(self)
    }

    fn drops(&self, ty: TypeId) -> u64 {
        DarcEngine::drops(self, ty)
    }

    fn total_drops(&self) -> u64 {
        DarcEngine::total_drops(self)
    }

    fn report(&self) -> EngineReport {
        EngineReport {
            policy: "DARC",
            updates: self.updates,
            quarantines: self.workers.quarantines(),
            releases: self.workers.releases(),
            expired: self.expired_total,
            guaranteed: (0..self.num_types)
                .map(|i| self.guaranteed_workers(TypeId::new(i as u32)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ReserveTuning, SloQueueBounds};
    use super::*;

    fn micros(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    fn hinted_engine(workers: usize) -> DarcEngine<u32> {
        // Type 0: short 1 µs at 50 %; type 1: long 100 µs at 50 %.
        let cfg = EngineConfig::darc(workers);
        DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))])
    }

    #[test]
    fn hinted_dynamic_engine_skips_warmup() {
        let eng = hinted_engine(4);
        assert!(!eng.in_warmup());
        assert_eq!(eng.reservation().groups.len(), 2);
    }

    #[test]
    fn dispatches_short_before_long() {
        let mut eng = hinted_engine(2);
        // Hint ratios are unknown at boot (commit with zero samples keeps
        // ratio 0), so re-profile: feed one window of traffic.
        let now = micros(0);
        eng.enqueue(TypeId::new(1), 100, now).unwrap();
        eng.enqueue(TypeId::new(0), 1, now).unwrap();
        // Short type (priority order) must dispatch first even though the
        // long request arrived earlier.
        let d = eng.poll(now).unwrap();
        assert_eq!(d.ty, TypeId::new(0));
        let d2 = eng.poll(now).unwrap();
        assert_eq!(d2.ty, TypeId::new(1));
        assert!(eng.poll(now).is_none(), "both workers busy");
    }

    #[test]
    fn short_steals_long_workers_but_not_vice_versa() {
        let mut eng = hinted_engine(4);
        let now = micros(0);
        // Reservation: short gets ≥1 reserved worker; long gets the rest.
        let short_reserved = eng.reservation().groups[0].reserved.len();
        assert!(short_reserved >= 1);
        // Fill the system with shorts: they may occupy every worker.
        for i in 0..4 {
            eng.enqueue(TypeId::new(0), i, now).unwrap();
        }
        let mut count = 0;
        while eng.poll(now).is_some() {
            count += 1;
        }
        assert_eq!(count, 4, "shorts can run on all workers via stealing");

        // Drain, then fill with longs: they must not take short workers.
        let mut eng = hinted_engine(4);
        for i in 0..4 {
            eng.enqueue(TypeId::new(1), i, now).unwrap();
        }
        let mut long_dispatched = 0;
        while eng.poll(now).is_some() {
            long_dispatched += 1;
        }
        let long_workers = eng.reservation().groups[1].reserved.len();
        assert_eq!(
            long_dispatched, long_workers,
            "longs are capped at their reserved workers"
        );
        assert!(long_dispatched < 4);
    }

    #[test]
    fn warmup_fcfs_respects_global_arrival_order() {
        // An unhinted dynamic engine starts in the c-FCFS warm-up phase.
        let mut eng: DarcEngine<u32> = DarcEngine::new(EngineConfig::darc(1), 2, &[None, None]);
        assert!(eng.in_warmup());
        let now = micros(0);
        eng.enqueue(TypeId::new(1), 10, now).unwrap();
        eng.enqueue(TypeId::new(0), 20, now).unwrap();
        let d = eng.poll(now).unwrap();
        assert_eq!(d.req, 10, "c-FCFS must take the earliest arrival");
        eng.complete(d.worker, micros(1), micros(2));
        let d2 = eng.poll(micros(2)).unwrap();
        assert_eq!(d2.req, 20);
    }

    #[test]
    fn unknown_requests_run_on_spillway_in_fcfs_and_darc() {
        let mut eng = hinted_engine(2);
        let now = micros(0);
        eng.enqueue(TypeId::UNKNOWN, 99, now).unwrap();
        let d = eng.poll(now).unwrap();
        assert_eq!(d.ty, TypeId::UNKNOWN);
        assert!(eng.reservation().spillway.contains(&d.worker));
    }

    #[test]
    fn unknown_loses_to_typed_work() {
        let mut eng = hinted_engine(2);
        let now = micros(0);
        eng.enqueue(TypeId::UNKNOWN, 99, now).unwrap();
        eng.enqueue(TypeId::new(0), 1, now).unwrap();
        let d = eng.poll(now).unwrap();
        assert_eq!(d.ty, TypeId::new(0), "typed work beats UNKNOWN");
    }

    #[test]
    fn warmup_transitions_to_darc_after_first_window() {
        let mut cfg = EngineConfig::darc(2);
        cfg.profiler.min_samples = 4;
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[None, None]);
        assert!(eng.in_warmup());
        let mut now = Nanos::ZERO;
        for i in 0..4 {
            let ty = TypeId::new(i % 2);
            eng.enqueue(ty, i, now).unwrap();
            let d = eng.poll(now).unwrap();
            let service = if d.ty == TypeId::new(0) {
                micros(1)
            } else {
                micros(100)
            };
            now += service;
            eng.complete(d.worker, service, now);
        }
        assert!(!eng.in_warmup(), "4 samples fill the window");
        assert_eq!(eng.reservation().groups.len(), 2);
        assert_eq!(eng.updates(), 1);
    }

    #[test]
    fn completion_frees_the_worker() {
        let mut eng = hinted_engine(1);
        let now = micros(0);
        eng.enqueue(TypeId::new(0), 1, now).unwrap();
        let d = eng.poll(now).unwrap();
        assert_eq!(eng.free_workers(), 0);
        assert!(eng.poll(now).is_none());
        eng.complete(d.worker, micros(1), micros(1));
        assert_eq!(eng.free_workers(), 1);
    }

    #[test]
    #[should_panic(expected = "completion from an idle worker")]
    fn double_completion_panics() {
        let mut eng = hinted_engine(1);
        eng.enqueue(TypeId::new(0), 1, Nanos::ZERO).unwrap();
        let d = eng.poll(Nanos::ZERO).unwrap();
        eng.complete(d.worker, micros(1), micros(1));
        eng.complete(d.worker, micros(1), micros(1));
    }

    #[test]
    fn flow_control_drops_only_overloaded_type() {
        let mut cfg = EngineConfig::darc(1);
        cfg.queue_capacity = 2;
        let mut eng: DarcEngine<u32> =
            DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))]);
        let now = micros(0);
        for i in 0..5 {
            let _ = eng.enqueue(TypeId::new(1), i, now);
        }
        assert_eq!(eng.drops(TypeId::new(1)), 3);
        assert_eq!(eng.pending(TypeId::new(1)), 2);
        // The other type is unaffected.
        assert!(eng.enqueue(TypeId::new(0), 9, now).is_ok());
        assert_eq!(eng.drops(TypeId::new(0)), 0);
        assert_eq!(eng.total_drops(), 3);
    }

    #[test]
    fn out_of_range_type_is_treated_as_unknown() {
        let mut eng = hinted_engine(2);
        eng.enqueue(TypeId::new(17), 5, Nanos::ZERO).unwrap();
        assert_eq!(eng.pending(TypeId::UNKNOWN), 1);
    }

    #[test]
    fn static_mode_never_updates() {
        let res = Reservation::two_class_static(2, 4, TypeId::new(0), 1);
        let cfg = EngineConfig {
            mode: EngineMode::Static(res),
            ..EngineConfig::darc(4)
        };
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[None, None]);
        let updates_at_boot = eng.updates();
        let mut now = Nanos::ZERO;
        for i in 0..100_000 {
            eng.enqueue(TypeId::new(i % 2), i, now).unwrap();
            let d = eng.poll(now).unwrap();
            now += micros(1);
            eng.complete(d.worker, micros(1), now);
        }
        assert_eq!(eng.updates(), updates_at_boot);
    }

    #[test]
    fn guaranteed_workers_reports_reserved_count() {
        let eng = hinted_engine(14);
        // Hinted boot assumes uniform ratios: High Bimodal hints on 14
        // workers give the short type 1 guaranteed core (paper §5.2).
        assert_eq!(eng.guaranteed_workers(TypeId::new(0)), 1);
        assert_eq!(eng.guaranteed_workers(TypeId::new(1)), 13);
        assert_eq!(eng.guaranteed_workers(TypeId::UNKNOWN), 0);
    }

    #[test]
    fn reserve_worker_count_is_derived_from_engine_config() {
        // The worker count lives once in EngineConfig: whatever the
        // reservation tuning says, the engine reserves over num_workers.
        let mut cfg = EngineConfig::darc(6);
        cfg.reserve = ReserveTuning::default().with_delta(1.5).with_spillway(2);
        let hints = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];
        let eng: DarcEngine<u64> = DarcEngine::new(cfg, 2, &hints);
        assert_eq!(eng.reservation().num_workers, 6);
        assert_eq!(eng.reservation().spillway.len(), 2);
        // An absurd spillway request is clamped, not asserted on.
        let mut cfg = EngineConfig::darc(2);
        cfg.reserve = ReserveTuning::default().with_spillway(99);
        let eng: DarcEngine<u64> = DarcEngine::new(cfg, 2, &hints);
        assert_eq!(eng.reservation().num_workers, 2);
    }

    #[test]
    fn resize_grows_and_rereserves() {
        let mut eng = hinted_engine(4);
        assert_eq!(eng.guaranteed_workers(TypeId::new(1)), 3);
        eng.resize(14).unwrap();
        assert_eq!(eng.num_workers(), 14);
        assert_eq!(eng.free_workers(), 14);
        // High Bimodal hints on 14 workers: shorts 1, longs 13 (§5.2).
        assert_eq!(eng.guaranteed_workers(TypeId::new(0)), 1);
        assert_eq!(eng.guaranteed_workers(TypeId::new(1)), 13);
        // Work still flows after the resize.
        eng.enqueue(TypeId::new(0), 1, Nanos::ZERO).unwrap();
        let d = eng.poll(Nanos::ZERO).unwrap();
        eng.complete(d.worker, micros(1), micros(1));
    }

    #[test]
    fn resize_shrink_requires_idle_surrendered_workers() {
        let mut eng = hinted_engine(4);
        // Occupy the highest-indexed worker with a long request.
        for i in 0..4 {
            eng.enqueue(TypeId::new(1), i, Nanos::ZERO).unwrap();
        }
        while eng.poll(Nanos::ZERO).is_some() {}
        let busy_high = (0..4).rev().find(|_| true).unwrap();
        let _ = busy_high;
        assert!(eng.resize(1).is_err(), "cannot drop busy workers");
        assert_eq!(eng.num_workers(), 4, "failed resize leaves state intact");
        assert!(eng.resize(0).is_err());
    }

    #[test]
    fn resize_shrink_of_idle_workers_succeeds() {
        let mut eng = hinted_engine(8);
        eng.resize(2).unwrap();
        assert_eq!(eng.num_workers(), 2);
        // Both types still schedulable on the smaller machine.
        eng.enqueue(TypeId::new(0), 1, Nanos::ZERO).unwrap();
        eng.enqueue(TypeId::new(1), 2, Nanos::ZERO).unwrap();
        assert!(eng.poll(Nanos::ZERO).is_some());
        assert!(eng.poll(Nanos::ZERO).is_some());
    }

    /// A mis-rounded allocation self-heals even when the measured demand
    /// vector barely moves: the allocation-staleness trigger fires.
    #[test]
    fn stale_allocation_self_heals() {
        // Boot with uniform-ratio hints: Extreme-Bimodal service times at
        // assumed 50/50 ratios give the short type 1 core on 14 workers.
        let mut cfg = EngineConfig::darc(14);
        cfg.profiler.min_samples = 2_000;
        let hints = [Some(Nanos::from_nanos(500)), Some(micros(500))];
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &hints);
        assert_eq!(eng.guaranteed_workers(TypeId::new(0)), 1);
        let boot_updates = eng.updates();

        // Feed the *true* mix (99.5 % shorts): demand says 2 cores. The
        // shorts overflow their single core, raising the delay signal.
        // Ratio estimates are EWMA-smoothed across windows, so convergence
        // takes a few windows rather than one.
        let mut now = Nanos::ZERO;
        let mut i = 0u32;
        while eng.guaranteed_workers(TypeId::new(0)) != 2 && i < 800_000 {
            let ty = if i.is_multiple_of(200) {
                TypeId::new(1)
            } else {
                TypeId::new(0)
            };
            eng.enqueue(ty, i, now).unwrap();
            i += 1;
            // Drain in bursts of 64 so queues build up between drains.
            if i.is_multiple_of(64) {
                while let Some(d) = eng.poll(now) {
                    let service = if d.ty == TypeId::new(0) {
                        Nanos::from_nanos(500)
                    } else {
                        micros(500)
                    };
                    now += service;
                    eng.complete(d.worker, service, now);
                }
            }
        }
        assert!(
            eng.updates() > boot_updates,
            "stale 1-core allocation must be corrected"
        );
        assert_eq!(
            eng.guaranteed_workers(TypeId::new(0)),
            2,
            "true demand 0.166 x 14 = 2.3 cores"
        );
    }

    #[test]
    fn telemetry_hooks_record_engine_activity() {
        use persephone_telemetry::{SchedEvent, Telemetry, TelemetryConfig};
        let mut cfg = EngineConfig::darc(4);
        cfg.profiler.min_samples = 8;
        cfg.queue_capacity = 4;
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[None, None]);
        let tel = Arc::new(Telemetry::new(TelemetryConfig::new(2, 4)));
        eng.set_telemetry(tel.clone());

        let mut now = Nanos::ZERO;
        let mut enqueued = 0u64;
        let mut dropped = 0u64;
        for i in 0..400u32 {
            let ty = TypeId::new(i % 2);
            match eng.enqueue(ty, i, now) {
                Ok(()) => enqueued += 1,
                Err(_) => dropped += 1,
            }
            if i % 16 == 0 {
                while let Some(d) = eng.poll(now) {
                    let service = if d.ty == TypeId::new(0) {
                        micros(1)
                    } else {
                        micros(100)
                    };
                    now += service;
                    eng.complete(d.worker, service, now);
                }
            }
        }
        while eng.total_pending() > 0 {
            while let Some(d) = eng.poll(now) {
                now += micros(1);
                eng.complete(d.worker, micros(1), now);
            }
        }

        let snap = tel.snapshot();
        assert_eq!(snap.completions(), enqueued);
        let arrivals: u64 = snap.types.iter().map(|t| t.counters.arrivals).sum();
        assert_eq!(arrivals, enqueued + dropped);
        let drops: u64 = snap.types.iter().map(|t| t.counters.drops).sum();
        assert_eq!(drops, dropped);
        assert_eq!(drops, eng.total_drops());
        // Sojourn percentiles exist per type and include queueing: the
        // long type's p50 must be at least its 100 µs service time.
        assert!(snap.types[1].sojourn.quantile(0.5) >= 100_000);
        assert!(snap.types[0].sojourn.count() > 0);
        // Warm-up exit produced at least one reservation-update event
        // carrying the old→new guaranteed map.
        let update = snap.events.events.iter().find_map(|(_, e)| match e {
            SchedEvent::ReservationUpdate { new_guaranteed, .. } => Some(new_guaranteed),
            _ => None,
        });
        let new_map = update.expect("missing reservation-update event");
        assert_eq!(
            (new_map[0] as usize, new_map[1] as usize),
            (
                eng.guaranteed_workers(TypeId::new(0)),
                eng.guaranteed_workers(TypeId::new(1))
            )
        );
        // Queue-depth high-water marks were tracked.
        assert!(snap.types.iter().any(|t| t.counters.queue_depth_hwm > 0));
    }

    #[test]
    fn dispatch_kinds_distinguish_reserved_from_stolen() {
        let mut eng = hinted_engine(4);
        let now = micros(0);
        // Fill with shorts: first dispatch lands on the short group's
        // reserved core, later ones steal from the long group.
        for i in 0..4 {
            eng.enqueue(TypeId::new(0), i, now).unwrap();
        }
        let mut kinds = Vec::new();
        while let Some(d) = eng.poll(now) {
            kinds.push(d.kind);
        }
        assert_eq!(kinds[0], DispatchKind::Reserved);
        assert!(kinds.contains(&DispatchKind::Stolen));
        // UNKNOWN work arrives on the spillway.
        let mut eng = hinted_engine(2);
        eng.enqueue(TypeId::UNKNOWN, 9, now).unwrap();
        assert_eq!(eng.poll(now).unwrap().kind, DispatchKind::Spillway);
        // Warm-up c-FCFS reports the FCFS kind.
        let mut eng: DarcEngine<u32> = DarcEngine::new(EngineConfig::darc(1), 2, &[None, None]);
        eng.enqueue(TypeId::new(0), 1, now).unwrap();
        assert_eq!(eng.poll(now).unwrap().kind, DispatchKind::Fcfs);
    }

    #[test]
    fn deadline_shedding_expires_stale_heads() {
        let mut cfg = EngineConfig::darc(2);
        cfg.overload.deadline_slowdown = Some(10.0);
        let mut eng: DarcEngine<u32> =
            DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))]);
        eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
        eng.enqueue(TypeId::new(0), 2, micros(5)).unwrap();
        eng.enqueue(TypeId::new(1), 3, micros(0)).unwrap();
        // Type 0's deadline is 10 × 1 µs. At t = 11 µs its head has waited
        // 11 µs (expired) and the next entry 6 µs (kept); type 1's 1 ms
        // deadline is nowhere near.
        eng.expire_heads(micros(11));
        assert_eq!(eng.take_expired(), Some((TypeId::new(0), 1)));
        assert_eq!(eng.take_expired(), None);
        assert_eq!(eng.expired_total(), 1);
        assert_eq!(eng.pending(TypeId::new(0)), 1);
        assert_eq!(eng.pending(TypeId::new(1)), 1);
        // Off by default: a plain engine never expires anything.
        let mut plain = hinted_engine(2);
        plain.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
        plain.expire_heads(Nanos::from_secs(100));
        assert_eq!(plain.expired_total(), 0);
        assert_eq!(plain.pending(TypeId::new(0)), 1);
    }

    #[test]
    fn slo_sized_queues_track_reservation() {
        let mut cfg = EngineConfig::darc(14);
        cfg.overload.slo_queues = Some(SloQueueBounds { min: 2, max: 64 });
        let eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))]);
        // Hinted boot reserves 1 core for shorts and 13 for longs; with the
        // default slowdown SLO of 10 the capacities are 10×1 and 10×13,
        // the latter clamped to the configured max.
        assert_eq!(eng.queue_capacity_of(TypeId::new(0)), 10);
        assert_eq!(eng.queue_capacity_of(TypeId::new(1)), 64);
        // Off by default: queues keep the static (unbounded) capacity.
        let plain = hinted_engine(14);
        assert_eq!(plain.queue_capacity_of(TypeId::new(0)), 0);
    }

    #[test]
    fn stalled_worker_is_quarantined_and_released() {
        let mut cfg = EngineConfig::darc(2);
        cfg.overload.stall_factor = Some(5.0);
        cfg.overload.min_stall = micros(1);
        let mut eng: DarcEngine<u32> =
            DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))]);
        eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
        let d = eng.poll(micros(0)).unwrap();
        assert!(
            !eng.quiescent(),
            "a busy non-quarantined pool is not quiescent"
        );
        // 4 µs in, the request is under the 5 × 1 µs threshold: healthy.
        eng.check_health(micros(4));
        assert_eq!(eng.quarantined_workers(), 0);
        // 6 µs in, it is past the threshold: quarantined.
        eng.check_health(micros(6));
        assert!(eng.is_quarantined(d.worker));
        assert_eq!(eng.quarantined_workers(), 1);
        assert_eq!(eng.quarantines(), 1);
        assert!(
            eng.quiescent(),
            "only the quarantined worker is busy: shutdown must not wait on it"
        );
        // Re-checking never double-counts.
        eng.check_health(micros(7));
        assert_eq!(eng.quarantines(), 1);
        // The worker stays excluded from dispatch while quarantined.
        assert_eq!(eng.free_workers(), 1);
        // Its late completion releases it back into the pool.
        eng.complete(d.worker, micros(8), micros(8));
        assert!(!eng.is_quarantined(d.worker));
        assert_eq!(eng.quarantined_workers(), 0);
        assert_eq!(eng.releases(), 1);
        assert_eq!(eng.free_workers(), 2);
        assert!(eng.quiescent());
    }

    #[test]
    fn quarantined_reserved_core_is_covered_by_spillway() {
        use crate::reserve::Group;
        // Hand-built strict partition: short on w0, long on w1, spillway
        // w2, no stealing anywhere — so only the quarantine fallback can
        // keep the short type flowing when w0 stalls.
        let res = Reservation::custom(
            vec![
                Group {
                    types: vec![TypeId::new(0)],
                    mean_service_ns: 1_000.0,
                    demand: 0.5,
                    reserved: vec![WorkerId::new(0)],
                    stealable: Vec::new(),
                },
                Group {
                    types: vec![TypeId::new(1)],
                    mean_service_ns: 100_000.0,
                    demand: 0.5,
                    reserved: vec![WorkerId::new(1)],
                    stealable: Vec::new(),
                },
            ],
            vec![WorkerId::new(2)],
            2,
            3,
        );
        let mut cfg = EngineConfig {
            mode: EngineMode::Static(res),
            ..EngineConfig::darc(3)
        };
        cfg.overload.stall_factor = Some(5.0);
        cfg.overload.min_stall = micros(1);
        let mut eng: DarcEngine<u32> =
            DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))]);
        // Dispatch a short onto its reserved core and stall it.
        eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
        let d = eng.poll(micros(0)).unwrap();
        assert_eq!(d.worker, WorkerId::new(0));
        assert_eq!(d.kind, DispatchKind::Reserved);
        eng.check_health(micros(50));
        assert!(eng.is_quarantined(WorkerId::new(0)));
        // The next short cannot use w0 (quarantined) and has nothing to
        // steal; the spillway must absorb it.
        eng.enqueue(TypeId::new(0), 2, micros(50)).unwrap();
        let d2 = eng.poll(micros(50)).unwrap();
        assert_eq!(d2.worker, WorkerId::new(2));
        assert_eq!(d2.kind, DispatchKind::Spillway);
        // With the spillway busy too, nothing is schedulable for shorts.
        eng.enqueue(TypeId::new(0), 3, micros(50)).unwrap();
        assert!(eng.poll(micros(50)).is_none());
        // Longs are unaffected throughout.
        eng.enqueue(TypeId::new(1), 4, micros(50)).unwrap();
        assert_eq!(eng.poll(micros(50)).unwrap().worker, WorkerId::new(1));
    }

    #[test]
    fn drain_all_counts_and_returns_everything() {
        let mut eng = hinted_engine(2);
        eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
        eng.enqueue(TypeId::new(1), 2, micros(0)).unwrap();
        eng.enqueue(TypeId::UNKNOWN, 3, micros(0)).unwrap();
        let mut drained = Vec::new();
        eng.drain_all(micros(5), &mut drained);
        assert_eq!(drained.len(), 3);
        assert!(drained.contains(&(TypeId::new(0), 1)));
        assert!(drained.contains(&(TypeId::UNKNOWN, 3)));
        assert_eq!(eng.expired_total(), 3);
        assert_eq!(eng.total_pending(), 0);
        assert_eq!(eng.total_drops(), 0, "shedding is not an admission drop");
    }

    #[test]
    fn reservation_update_after_demand_shift() {
        let mut cfg = EngineConfig::darc(4);
        cfg.profiler.min_samples = 100;
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[None, None]);
        let mut now = Nanos::ZERO;
        // Warm-up window: type 0 short, type 1 long.
        for i in 0..100 {
            let ty = TypeId::new(i % 2);
            eng.enqueue(ty, i, now).unwrap();
            let d = eng.poll(now).unwrap();
            let service = if d.ty == TypeId::new(0) {
                micros(1)
            } else {
                micros(100)
            };
            now += service;
            eng.complete(d.worker, service, now);
        }
        assert!(!eng.in_warmup());
        let g_short = eng.reservation().group_of(TypeId::new(0)).unwrap();
        assert_eq!(
            eng.reservation().groups[g_short].types,
            vec![TypeId::new(0)]
        );
        let updates_before = eng.updates();
        // Phase change: type 0 becomes the long one. Enqueue a burst so a
        // backlog builds: queueing delays pile up ⇒ delay signal; demand
        // flips ⇒ deviation; window fills ⇒ update.
        for i in 0..400u32 {
            let ty = TypeId::new(i % 2);
            eng.enqueue(ty, i, now).unwrap();
        }
        while let Some(d) = eng.poll(now) {
            let service = if d.ty == TypeId::new(0) {
                micros(100)
            } else {
                micros(1)
            };
            now += service;
            eng.complete(d.worker, service, now);
        }
        assert!(eng.updates() > updates_before, "reservation must adapt");
        assert_eq!(eng.total_pending(), 0, "the backlog must fully drain");
    }

    #[test]
    fn trait_report_matches_inherent_counters() {
        let mut eng = hinted_engine(4);
        let now = micros(0);
        eng.enqueue(TypeId::new(0), 1, now).unwrap();
        let d = eng.poll(now).unwrap();
        eng.complete(d.worker, micros(1), micros(1));
        let report = ScheduleEngine::report(&eng);
        assert_eq!(report.policy, "DARC");
        assert_eq!(report.updates, eng.updates());
        assert_eq!(
            report.guaranteed,
            vec![
                eng.guaranteed_workers(TypeId::new(0)),
                eng.guaranteed_workers(TypeId::new(1))
            ]
        );
    }
}
