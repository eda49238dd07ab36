//! Deficit Round Robin (DRR) over typed queues — Table 5's
//! "(Deficit) (Weighted) Round Robin".
//!
//! Each type's queue accumulates a *deficit* of service nanoseconds every
//! round; a queue may dispatch its head only when the head's service
//! demand fits within the accumulated deficit, which is then charged.
//! DRR gives long-run fairness in *service time* (not request count)
//! across types, but — as Table 5 notes — provides no latency protection
//! for short requests: a short type must wait for the rotation to come
//! around.

use std::collections::VecDeque;

use persephone_core::time::Nanos;

use crate::engine::{Core, Event, ReqId, SimPolicy};

/// The DRR policy.
pub struct Drr {
    queues: Vec<VecDeque<ReqId>>,
    deficit: Vec<u64>,
    /// Service-nanoseconds granted to each queue per visit.
    quantum_ns: u64,
    /// Next queue the rotor will visit.
    cursor: usize,
    /// Whether the cursor's queue is at the *start* of its visit (gets
    /// its quantum exactly once per visit).
    fresh_visit: bool,
    capacity: usize,
}

impl Drr {
    /// Creates a DRR policy over `num_types` queues with the given
    /// per-round quantum.
    ///
    /// # Panics
    ///
    /// Panics if `num_types == 0` or the quantum is zero.
    pub fn new(num_types: usize, quantum: Nanos) -> Self {
        assert!(num_types > 0 && quantum > Nanos::ZERO);
        Drr {
            queues: vec![VecDeque::new(); num_types],
            deficit: vec![0; num_types],
            quantum_ns: quantum.as_nanos(),
            cursor: 0,
            fresh_visit: true,
            capacity: 0,
        }
    }

    /// Bounds each typed queue (`0` = unbounded).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.queues.len();
        self.fresh_visit = true;
    }

    /// Picks the next dispatchable request. The rotor serves the current
    /// queue while its deficit affords the head, then moves on; each
    /// queue's deficit is topped up exactly once per visit (classic DRR).
    /// The rotor loop always terminates with a dispatch when any queue is
    /// non-empty: every visit of a non-empty queue adds one quantum, so
    /// its head becomes affordable after finitely many rounds.
    fn pop_next(&mut self, core: &Core) -> Option<ReqId> {
        if self.queues.iter().all(|q| q.is_empty()) {
            return None;
        }
        loop {
            let ty = self.cursor;
            if self.fresh_visit && !self.queues[ty].is_empty() {
                self.deficit[ty] = self.deficit[ty].saturating_add(self.quantum_ns);
                self.fresh_visit = false;
            }
            match self.queues[ty].front() {
                Some(&head) => {
                    let need = core.req(head).service.as_nanos();
                    if self.deficit[ty] >= need {
                        self.deficit[ty] -= need;
                        return self.queues[ty].pop_front();
                    }
                    // Out of budget: this queue's turn ends.
                    self.advance();
                }
                None => {
                    // An empty queue's deficit resets (standard DRR).
                    self.deficit[ty] = 0;
                    self.advance();
                }
            }
        }
    }
}

impl SimPolicy for Drr {
    fn name(&self) -> String {
        "DRR".into()
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        match ev {
            Event::Arrival(id) => {
                let ty = core.req(id).ty.index().min(self.queues.len() - 1);
                if self.capacity != 0 && self.queues[ty].len() >= self.capacity {
                    core.drop_req(id);
                    return;
                }
                self.queues[ty].push_back(id);
                while let Some(w) = core.idle_worker() {
                    match self.pop_next(core) {
                        Some(next) => core.run(w, next),
                        None => break,
                    }
                }
            }
            Event::Completed { worker, .. } => {
                if let Some(next) = self.pop_next(core) {
                    core.run(worker, next);
                }
            }
            Event::SliceExpired { .. } => {
                unreachable!("DRR never slices")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::workload::{ArrivalGen, Workload};

    #[test]
    fn drr_serves_both_types() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(200);
        let gen = ArrivalGen::uniform(&wl, 8, 0.7, dur, 9);
        let mut p = Drr::new(2, Nanos::from_micros(100));
        let out = simulate(&mut p, gen, 2, dur, &SimConfig::new(8));
        assert!(out.summary.per_type[0].latency_ns.count > 100);
        assert!(out.summary.per_type[1].latency_ns.count > 100);
    }

    #[test]
    fn no_starvation_under_overload() {
        // At 2x overload with bounded queues, DRR is work conserving: the
        // short type's (tiny) offered service share completes essentially
        // in full, and the long type saturates the remaining capacity.
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(100);
        let gen = ArrivalGen::uniform(&wl, 4, 2.0, dur, 4);
        let mut p = Drr::new(2, Nanos::from_micros(100)).with_capacity(64);
        let out = simulate(&mut p, gen, 2, dur, &SimConfig::new(4));
        assert!(out.summary.dropped > 0, "2x overload must shed longs");
        let shorts = out.summary.per_type[0].latency_ns.count as f64;
        let longs = out.summary.per_type[1].latency_ns.count as f64;
        // Offered shorts ≈ 2 × 79.2k/s × 0.5 × 0.1 s × 0.9 (warm-up cut)
        // ≈ 7100; nearly all of them fit in 1 % of the service capacity.
        assert!(shorts > 5_000.0, "shorts completed = {shorts}");
        // Longs are capacity-bound: ≤ 4 workers × runtime / 100 µs.
        let budget = out.end_time.as_secs_f64() * 4.0 / 100e-6;
        assert!(
            longs <= budget * 1.05,
            "longs {longs} exceed capacity {budget}"
        );
        assert!(
            longs > budget * 0.5,
            "longs {longs} far below capacity {budget}"
        );
    }

    #[test]
    fn stale_deficit_is_consumed_or_reset() {
        let wl = Workload::high_bimodal();
        let mut p = Drr::new(2, Nanos::from_micros(50));
        p.deficit[1] = 1_000_000;
        // After a run in which type 1's queue repeatedly empties, the
        // seeded stale deficit must have been spent or reset, never kept.
        let dur = Nanos::from_millis(10);
        let gen = ArrivalGen::uniform(&wl, 2, 0.1, dur, 2);
        let _ = simulate(&mut p, gen, 2, dur, &SimConfig::new(2));
        assert!(
            p.deficit[1] < 1_000_000,
            "stale deficit survived: {}",
            p.deficit[1]
        );
    }
}
