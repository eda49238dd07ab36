//! Quantum-based time sharing — the Shinjuku model (paper §2, §5.1, §6).
//!
//! Requests run for at most one quantum; when the quantum expires *and
//! other work is waiting*, the running request is preempted: its worker
//! pays the preemption overhead (the context switch) and the victim
//! re-enters the queue. When nothing is waiting, the request simply
//! continues — Shinjuku's interrupts are cheap no-ops for a worker with
//! an empty queue, and the paper's own simulation triggers preemption
//! "as soon as a short request is blocked in the queue" (§6). Two queue
//! disciplines, matching Shinjuku's policies:
//!
//! * **single queue** — preempted requests re-enter at the queue *tail*
//!   (used by the paper for Extreme Bimodal);
//! * **multi queue** — one queue per type, preempted requests re-enter at
//!   the *head* of their typed queue, and queues are selected by a
//!   Borrowed-Virtual-Time-like rule (least service consumed first).
//!
//! Figure 10's propagation delay is modeled faithfully: after the
//! preemption decision the victim keeps running (making progress) for
//! `propagation`, then burns `overhead` of pure loss.

use std::collections::VecDeque;

use persephone_core::policy::{TimeSharingParams, TsDiscipline};
use persephone_core::time::Nanos;

use crate::engine::{Core, Event, ReqId, SimPolicy};

/// The time-sharing policy.
pub struct TimeSharing {
    params: TimeSharingParams,
    single: VecDeque<ReqId>,
    typed: Vec<VecDeque<ReqId>>,
    /// Virtual time per type: nanoseconds of service consumed (BVT-like).
    vt: Vec<u64>,
    capacity: usize,
}

impl TimeSharing {
    /// Creates a time-sharing policy with the given parameters over
    /// `num_types` request types.
    pub fn new(params: TimeSharingParams, num_types: usize) -> Self {
        TimeSharing {
            params,
            single: VecDeque::new(),
            typed: vec![VecDeque::new(); num_types],
            vt: vec![0; num_types],
            capacity: 0,
        }
    }

    /// Bounds each queue (`0` = unbounded). Only fresh arrivals are
    /// dropped; preempted requests always re-enter their queue.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    fn queue_full(&self, ty: usize) -> bool {
        if self.capacity == 0 {
            return false;
        }
        match self.params.discipline {
            TsDiscipline::SingleQueue => self.single.len() >= self.capacity,
            TsDiscipline::MultiQueue => self.typed[ty].len() >= self.capacity,
        }
    }

    /// Slice budget per dispatch: the quantum plus the propagation window
    /// during which the victim still progresses.
    fn slice(&self) -> Nanos {
        self.params.quantum + self.params.propagation
    }

    fn enqueue_tail(&mut self, id: ReqId, ty: usize) {
        match self.params.discipline {
            TsDiscipline::SingleQueue => self.single.push_back(id),
            TsDiscipline::MultiQueue => {
                if self.typed[ty].is_empty() {
                    // BVT-style lag cap: a queue that slept must not hoard
                    // priority it "saved" while empty.
                    let min_live = self
                        .typed
                        .iter()
                        .enumerate()
                        .filter(|(t, q)| !q.is_empty() && *t != ty)
                        .map(|(t, _)| self.vt[t])
                        .min();
                    if let Some(m) = min_live {
                        self.vt[ty] = self.vt[ty].max(m);
                    }
                }
                self.typed[ty].push_back(id);
            }
        }
    }

    fn enqueue_preempted(&mut self, id: ReqId, ty: usize) {
        match self.params.discipline {
            TsDiscipline::SingleQueue => self.single.push_back(id),
            TsDiscipline::MultiQueue => self.typed[ty].push_front(id),
        }
    }

    fn has_waiting(&self) -> bool {
        match self.params.discipline {
            TsDiscipline::SingleQueue => !self.single.is_empty(),
            TsDiscipline::MultiQueue => self.typed.iter().any(|q| !q.is_empty()),
        }
    }

    fn pop_next(&mut self) -> Option<(ReqId, usize)> {
        match self.params.discipline {
            TsDiscipline::SingleQueue => self.single.pop_front().map(|id| (id, 0)),
            TsDiscipline::MultiQueue => {
                let ty = self
                    .typed
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| !q.is_empty())
                    .min_by_key(|(t, _)| self.vt[*t])
                    .map(|(t, _)| t)?;
                self.typed[ty].pop_front().map(|id| (id, ty))
            }
        }
    }

    /// Starts one slice of `id` on `worker`, charging `pre_cost` of
    /// context-switch time first.
    fn run(&mut self, worker: usize, id: ReqId, pre_cost: Nanos, core: &mut Core) {
        let ty = core.req(id).ty.index();
        let progress = core.req(id).remaining.min(self.slice());
        self.vt[ty] += progress.as_nanos();
        core.run_slice_after(worker, id, pre_cost, self.slice());
    }

    fn dispatch(&mut self, worker: usize, pre_cost: Nanos, core: &mut Core) {
        if let Some((id, _)) = self.pop_next() {
            self.run(worker, id, pre_cost, core);
        }
    }
}

impl SimPolicy for TimeSharing {
    fn name(&self) -> String {
        let total = self.params.overhead + self.params.propagation;
        format!("TS-{:.0}us", total.as_micros_f64())
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        match ev {
            Event::Arrival(id) => {
                let ty = core.req(id).ty.index();
                if let Some(w) = core.idle_worker() {
                    self.run(w, id, Nanos::ZERO, core);
                } else if self.queue_full(ty) {
                    core.drop_req(id);
                } else {
                    self.enqueue_tail(id, ty);
                }
            }
            Event::Completed { worker, .. } => {
                // A voluntary switch at completion costs nothing extra.
                self.dispatch(worker, Nanos::ZERO, core);
            }
            Event::SliceExpired { worker, req } => {
                if self.has_waiting() {
                    // A real preemption: requeue the victim, pay the
                    // context-switch cost, run the next request.
                    let ty = core.req(req).ty.index();
                    self.enqueue_preempted(req, ty);
                    self.dispatch(worker, self.params.overhead, core);
                } else {
                    // Nobody is waiting: the interrupt is a no-op and the
                    // request keeps its core for another quantum.
                    self.run(worker, req, Nanos::ZERO, core);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig, SimOutput};
    use crate::workload::{ArrivalGen, Workload};

    fn run_ts(params: TimeSharingParams, load: f64, seed: u64) -> SimOutput {
        let wl = Workload::extreme_bimodal();
        let dur = Nanos::from_millis(100);
        let gen = ArrivalGen::uniform(&wl, 8, load, dur, seed);
        let mut p = TimeSharing::new(params, 2);
        simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
    }

    #[test]
    fn protects_short_requests_against_longs() {
        let ts = run_ts(TimeSharingParams::ideal(), 0.7, 3);
        let cf = {
            let wl = Workload::extreme_bimodal();
            let dur = Nanos::from_millis(100);
            let gen = ArrivalGen::uniform(&wl, 8, 0.7, dur, 3);
            let mut p = super::super::cfcfs::CFcfs::new(8);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        assert!(
            ts.summary.per_type[0].slowdown.p999 < cf.summary.per_type[0].slowdown.p999,
            "TS {} vs c-FCFS {}",
            ts.summary.per_type[0].slowdown.p999,
            cf.summary.per_type[0].slowdown.p999
        );
    }

    #[test]
    fn overhead_costs_capacity() {
        let ideal = run_ts(TimeSharingParams::ideal(), 0.9, 5);
        let costly = run_ts(TimeSharingParams::shinjuku_fig1(), 0.9, 5);
        // At 90 % load preemptions are frequent (longs keep getting
        // displaced by waiting shorts); 1 µs per switch burns real CPU
        // and the tail must be clearly worse than the free-switch ideal.
        assert!(
            costly.summary.overall_slowdown.p999 > ideal.summary.overall_slowdown.p999 * 1.5,
            "costly {} vs ideal {}",
            costly.summary.overall_slowdown.p999,
            ideal.summary.overall_slowdown.p999
        );
        assert!(costly.mean_overhead_cores() > 0.05);
        assert_eq!(ideal.mean_overhead_cores(), 0.0);
    }

    #[test]
    fn no_preemption_cost_when_nothing_waits() {
        // At very low load the quantum expiries are no-ops: zero overhead
        // is charged even with expensive preemption parameters.
        let out = run_ts(TimeSharingParams::shinjuku_fig1(), 0.05, 7);
        assert_eq!(
            out.mean_overhead_cores(),
            0.0,
            "idle-queue interrupts must be free"
        );
        // Long requests also finish at their raw service time.
        let long_p50 = out.summary.per_type[1].latency_ns.p50;
        assert!(
            long_p50 < 520_000.0,
            "uncontended longs must not pay preemption tax: {long_p50}"
        );
    }

    #[test]
    fn long_requests_pay_the_preemption_tax_under_contention() {
        // At high load a 500 µs request is repeatedly displaced by
        // waiting shorts; with a 5 µs quantum and 1 µs switch cost the
        // paper reports ≥ 24 % inflation (620 µs for 500 µs of work,
        // §5.4.2). Check the p50 inflation at 85 % load.
        let out = run_ts(TimeSharingParams::shinjuku_fig1(), 0.85, 7);
        let long_p50 = out.summary.per_type[1].latency_ns.p50;
        assert!(
            long_p50 >= 500_000.0 * 1.15,
            "long p50 = {long_p50} ns, expected clearly above 500 µs"
        );
    }

    #[test]
    fn multi_queue_preempted_requests_resume_first() {
        let params = TimeSharingParams {
            discipline: TsDiscipline::MultiQueue,
            ..TimeSharingParams::shinjuku_fig1()
        };
        let out = run_ts(params, 0.6, 9);
        assert!(out.completions > 1_000);
    }

    #[test]
    fn single_queue_requeues_at_tail() {
        let mut ts = TimeSharing::new(TimeSharingParams::shinjuku_fig1(), 1);
        ts.enqueue_tail(1, 0);
        ts.enqueue_preempted(2, 0);
        assert_eq!(ts.pop_next(), Some((1, 0)), "tail re-entry keeps order");
    }

    #[test]
    fn multi_queue_requeues_at_head() {
        let params = TimeSharingParams {
            discipline: TsDiscipline::MultiQueue,
            ..TimeSharingParams::shinjuku_fig1()
        };
        let mut ts = TimeSharing::new(params, 2);
        ts.enqueue_tail(1, 0);
        ts.enqueue_preempted(2, 0);
        let (first, _) = ts.pop_next().unwrap();
        assert_eq!(first, 2, "preempted request resumes at queue head");
    }
}
