//! Cycle Stealing with Central Queue (CSCQ) — Harchol-Balter et al.,
//! SPAA'03, the policy DARC credits for its stealing mechanism (paper §3,
//! Table 5).
//!
//! Two job classes with dedicated servers; the *beneficiary* class (longs)
//! may additionally run on the *donor* servers (shorts') whenever no
//! donor job is waiting. The donor class never runs on beneficiary
//! servers. DARC inverts and generalizes the idea: in DARC it is the
//! *short* requests that steal from cores reserved for longer groups, and
//! stealing is unlimited for them.

use std::collections::VecDeque;

use crate::engine::{Core, Event, ReqId, SimPolicy};

/// The CSCQ policy over exactly two classes (type 0 = donor/short,
/// type 1 = beneficiary/long).
pub struct Cscq {
    short_q: VecDeque<ReqId>,
    long_q: VecDeque<ReqId>,
    /// Workers `0..donor_servers` belong to the donor (short) class.
    donor_servers: usize,
    capacity: usize,
}

impl Cscq {
    /// Creates a CSCQ policy with `donor_servers` of the machine's workers
    /// dedicated to the short class.
    pub fn new(donor_servers: usize) -> Self {
        Cscq {
            short_q: VecDeque::new(),
            long_q: VecDeque::new(),
            donor_servers,
            capacity: 0,
        }
    }

    /// Bounds each class queue (`0` = unbounded).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    fn idle_in(&self, core: &Core, range: std::ops::Range<usize>) -> Option<usize> {
        range.into_iter().find(|&w| core.worker_idle(w))
    }

    fn dispatch_all(&mut self, core: &mut Core) {
        loop {
            let mut progressed = false;
            // Shorts on their own servers first.
            if !self.short_q.is_empty() {
                if let Some(w) = self.idle_in(core, 0..self.donor_servers) {
                    let id = self.short_q.pop_front().unwrap();
                    core.run(w, id);
                    progressed = true;
                }
            }
            // Longs on their own servers.
            if !self.long_q.is_empty() {
                if let Some(w) = self.idle_in(core, self.donor_servers..core.num_workers()) {
                    let id = self.long_q.pop_front().unwrap();
                    core.run(w, id);
                    progressed = true;
                }
            }
            // Cycle stealing: a long may take a donor server, but only
            // when no short is waiting for it.
            if self.short_q.is_empty() && !self.long_q.is_empty() {
                if let Some(w) = self.idle_in(core, 0..self.donor_servers) {
                    let id = self.long_q.pop_front().unwrap();
                    core.run(w, id);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

impl SimPolicy for Cscq {
    fn name(&self) -> String {
        format!("CSCQ-{}", self.donor_servers)
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        match ev {
            Event::Arrival(id) => {
                let is_short = core.req(id).ty.index() == 0;
                let q = if is_short {
                    &mut self.short_q
                } else {
                    &mut self.long_q
                };
                if self.capacity != 0 && q.len() >= self.capacity {
                    core.drop_req(id);
                } else {
                    q.push_back(id);
                }
                self.dispatch_all(core);
            }
            Event::Completed { .. } => {
                self.dispatch_all(core);
            }
            Event::SliceExpired { .. } => {
                unreachable!("CSCQ never slices")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::workload::{ArrivalGen, Workload};
    use persephone_core::time::Nanos;

    #[test]
    fn cscq_protects_shorts_like_a_partition() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(300);
        let cscq = {
            let gen = ArrivalGen::uniform(&wl, 8, 0.85, dur, 7);
            let mut p = Cscq::new(1);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        let cf = {
            let gen = ArrivalGen::uniform(&wl, 8, 0.85, dur, 7);
            let mut p = super::super::cfcfs::CFcfs::new(8);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        assert!(
            cscq.summary.per_type[0].slowdown.p999 < cf.summary.per_type[0].slowdown.p999,
            "CSCQ short tail {} !< c-FCFS {}",
            cscq.summary.per_type[0].slowdown.p999,
            cf.summary.per_type[0].slowdown.p999
        );
    }

    /// DARC beats CSCQ for short-request tails because DARC's stealing
    /// direction lets shorts absorb bursts on long cores, while CSCQ only
    /// lets longs borrow the short core (paper §7: DARC "does not impose
    /// limits on stealing for shorter requests").
    #[test]
    fn darc_stealing_direction_beats_cscq_for_short_bursts() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(300);
        let cscq = {
            let gen = ArrivalGen::uniform(&wl, 8, 0.9, dur, 13);
            let mut p = Cscq::new(1);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        let darc = {
            let gen = ArrivalGen::uniform(&wl, 8, 0.9, dur, 13);
            let mut p = super::super::darc::DarcSim::dynamic(&wl, 8, 3_000);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        assert!(
            darc.summary.per_type[0].slowdown.p999 <= cscq.summary.per_type[0].slowdown.p999 * 1.5,
            "DARC {} should not lose badly to CSCQ {}",
            darc.summary.per_type[0].slowdown.p999,
            cscq.summary.per_type[0].slowdown.p999
        );
    }

    #[test]
    fn longs_steal_only_when_no_short_waits() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(100);
        let gen = ArrivalGen::uniform(&wl, 2, 0.5, dur, 3);
        let mut p = Cscq::new(1);
        let out = simulate(&mut p, gen, 2, dur, &SimConfig::new(2));
        assert!(out.completions > 100);
        // Both classes complete work on a 2-worker machine.
        assert!(out.summary.per_type[0].latency_ns.count > 0);
        assert!(out.summary.per_type[1].latency_ns.count > 0);
    }
}
