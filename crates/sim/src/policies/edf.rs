//! Non-preemptive Earliest-Deadline-First (EDF) — Table 5.
//!
//! Each request's deadline is its arrival time plus a per-type relative
//! deadline (here: a slowdown target × the type's declared mean service
//! time). The dispatcher always starts the pending request with the
//! earliest absolute deadline. As Table 5 notes, EDF "can lead to
//! priority inversion": a long request whose deadline has almost expired
//! beats every fresh short request, and once running it cannot be
//! preempted.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use persephone_core::time::Nanos;

use crate::engine::{Core, Event, ReqId, SimPolicy};
use crate::workload::Workload;

/// The EDF policy.
pub struct Edf {
    heap: BinaryHeap<Reverse<(Nanos, u64, ReqId)>>,
    /// Relative deadline per type, ns.
    relative: Vec<Nanos>,
    seq: u64,
    capacity: usize,
}

impl Edf {
    /// Creates an EDF policy with relative deadlines of
    /// `slowdown_target ×` each type's declared mean service time.
    pub fn new(workload: &Workload, slowdown_target: f64) -> Self {
        let relative = workload
            .types
            .iter()
            .map(|t| {
                Nanos::from_nanos(
                    (t.service.mean().as_nanos() as f64 * slowdown_target.max(1.0)) as u64,
                )
            })
            .collect();
        Edf {
            heap: BinaryHeap::new(),
            relative,
            seq: 0,
            capacity: 0,
        }
    }

    /// Bounds the pending heap (`0` = unbounded).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    fn deadline(&self, core: &Core, id: ReqId) -> Nanos {
        let req = core.req(id);
        let rel = self
            .relative
            .get(req.ty.index())
            .copied()
            .unwrap_or(Nanos::from_millis(1));
        req.arrival.saturating_add(rel)
    }
}

impl SimPolicy for Edf {
    fn name(&self) -> String {
        "EDF".into()
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        match ev {
            Event::Arrival(id) => {
                if let Some(w) = core.idle_worker() {
                    core.run(w, id);
                } else if self.capacity != 0 && self.heap.len() >= self.capacity {
                    core.drop_req(id);
                } else {
                    let d = self.deadline(core, id);
                    self.seq += 1;
                    self.heap.push(Reverse((d, self.seq, id)));
                }
            }
            Event::Completed { worker, .. } => {
                if let Some(Reverse((_, _, next))) = self.heap.pop() {
                    core.run(worker, next);
                }
            }
            Event::SliceExpired { .. } => {
                unreachable!("EDF never slices")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::workload::ArrivalGen;

    #[test]
    fn edf_serves_everything_and_orders_by_deadline() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(200);
        let gen = ArrivalGen::uniform(&wl, 8, 0.8, dur, 3);
        let mut p = Edf::new(&wl, 10.0);
        let out = simulate(&mut p, gen, 2, dur, &SimConfig::new(8));
        assert!(out.completions > 1_000);
        // Tight per-type deadlines favor shorts: their p50 must beat longs.
        assert!(out.summary.per_type[0].latency_ns.p50 < out.summary.per_type[1].latency_ns.p50);
    }

    #[test]
    fn edf_with_type_proportional_deadlines_prioritizes_shorts() {
        // Compared with c-FCFS at high load, EDF's 10× relative deadlines
        // give short requests an earlier absolute deadline, improving
        // their tail.
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(300);
        let edf = {
            let gen = ArrivalGen::uniform(&wl, 8, 0.9, dur, 11);
            let mut p = Edf::new(&wl, 10.0);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        let cf = {
            let gen = ArrivalGen::uniform(&wl, 8, 0.9, dur, 11);
            let mut p = super::super::cfcfs::CFcfs::new(8);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        assert!(
            edf.summary.per_type[0].slowdown.p999 < cf.summary.per_type[0].slowdown.p999,
            "EDF short tail {} !< c-FCFS {}",
            edf.summary.per_type[0].slowdown.p999,
            cf.summary.per_type[0].slowdown.p999
        );
    }

    #[test]
    fn capacity_bound_drops() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(100);
        let gen = ArrivalGen::uniform(&wl, 1, 3.0, dur, 5);
        let mut p = Edf::new(&wl, 10.0).with_capacity(16);
        let out = simulate(&mut p, gen, 2, dur, &SimConfig::new(1));
        assert!(out.summary.dropped > 0, "3x overload must shed");
    }
}
