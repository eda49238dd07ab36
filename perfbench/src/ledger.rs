//! The client ledger: one entry per attempted request, indexed by its
//! wire id.
//!
//! Latency is timed from the request's *due* time, not from when the
//! client got round to sending it, so a stall anywhere — server, wire or
//! client — shows in the latency of every request it delays (no
//! coordinated omission). A request that fails (dropped, rejected,
//! starved for a buffer, or never answered within the grace bound) is
//! censored at the grace bound: it counts as missing every latency limit
//! instead of vanishing from the percentiles.

/// Where one request stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Scheduled, not yet sent.
    Unsent,
    /// On the wire, waiting for its response.
    Outstanding,
    /// Answered `Ok`.
    Ok,
    /// Answered `Dropped` by the server.
    Dropped,
    /// Answered `BadRequest`.
    Rejected,
    /// Never sent: the packet pool was empty when it fell due.
    Starved,
    /// Written off at the grace bound.
    TimedOut,
    /// Written off, and its response arrived afterwards.
    TimedOutLate,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    due_ns: u64,
    /// Kept only up to the grace bound, so 32 bits suffice.
    latency_ns: u32,
    ty: u8,
    state: State,
}

/// How a response's status reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Ok,
    Dropped,
    Rejected,
}

/// Outcome totals; `attempted` always equals the sum of the others once
/// the ledger is closed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub ok: u64,
    pub dropped: u64,
    pub rejected: u64,
    pub timed_out: u64,
    pub starved: u64,
    /// Responses that arrived after their request was written off (each
    /// request is still counted once, as timed out).
    pub late: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.dropped + self.rejected + self.timed_out + self.starved
    }
}

pub struct Ledger {
    entries: Vec<Entry>,
    /// Requests due before this are warm-up: they are sent, answered and
    /// checked, but left out of the percentiles (the simulator's rule:
    /// the first tenth of the schedule).
    warmup_end_ns: u64,
    grace_ns: u64,
    outstanding: usize,
    /// No entry below this index is still outstanding.
    oldest: usize,
    counts: Counts,
}

impl Ledger {
    /// A ledger with room for `capacity` requests. The room is touched up
    /// front, so the process's resident memory does not depend on how
    /// many requests a run gets through.
    pub fn new(capacity: usize, warmup_end_ns: u64, grace_ns: u64) -> Ledger {
        assert!(
            grace_ns <= u64::from(u32::MAX),
            "latencies are kept in 32 bits"
        );
        let blank = Entry {
            due_ns: 0,
            latency_ns: 0,
            ty: 0,
            state: State::Unsent,
        };
        let mut entries = vec![blank; capacity];
        entries.clear();
        Ledger {
            entries,
            warmup_end_ns,
            grace_ns,
            outstanding: 0,
            oldest: 0,
            counts: Counts::default(),
        }
    }

    /// Registers a request due at `due_ns`; returns its id.
    pub fn schedule(&mut self, due_ns: u64, ty: u8) -> u64 {
        self.entries.push(Entry {
            due_ns,
            latency_ns: 0,
            ty,
            state: State::Unsent,
        });
        self.counts.attempted += 1;
        (self.entries.len() - 1) as u64
    }

    pub fn due_ns(&self, id: u64) -> u64 {
        self.entries[id as usize].due_ns
    }

    pub fn sent(&mut self, id: u64) {
        let e = &mut self.entries[id as usize];
        assert_eq!(e.state, State::Unsent, "request {id} sent twice");
        e.state = State::Outstanding;
        self.outstanding += 1;
    }

    pub fn starved(&mut self, id: u64) {
        let e = &mut self.entries[id as usize];
        assert_eq!(e.state, State::Unsent, "request {id} starved after send");
        e.state = State::Starved;
        self.counts.starved += 1;
    }

    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Matches a response to its request. Errors on an id the client
    /// never sent, or on a second response to the same request.
    pub fn answer(&mut self, id: u64, answer: Answer, now_ns: u64) -> Result<(), String> {
        let Some(e) = self.entries.get_mut(id as usize) else {
            return Err(format!("response for unknown id {id}"));
        };
        match e.state {
            State::Outstanding => {
                e.latency_ns = now_ns.saturating_sub(e.due_ns).min(self.grace_ns) as u32;
                e.state = match answer {
                    Answer::Ok => {
                        self.counts.ok += 1;
                        State::Ok
                    }
                    Answer::Dropped => {
                        self.counts.dropped += 1;
                        State::Dropped
                    }
                    Answer::Rejected => {
                        self.counts.rejected += 1;
                        State::Rejected
                    }
                };
                self.outstanding -= 1;
                Ok(())
            }
            State::TimedOut => {
                e.state = State::TimedOutLate;
                self.counts.late += 1;
                Ok(())
            }
            State::Unsent | State::Starved => {
                Err(format!("response for request {id}, which was never sent"))
            }
            _ => Err(format!("second response for request {id}")),
        }
    }

    /// Writes off every outstanding request due at least the grace bound
    /// before `now_ns`.
    pub fn expire(&mut self, now_ns: u64) {
        while self.oldest < self.entries.len() {
            let e = &mut self.entries[self.oldest];
            match e.state {
                State::Unsent => break,
                State::Outstanding => {
                    if now_ns.saturating_sub(e.due_ns) < self.grace_ns {
                        break;
                    }
                    e.state = State::TimedOut;
                    self.counts.timed_out += 1;
                    self.outstanding -= 1;
                }
                _ => {}
            }
            self.oldest += 1;
        }
    }

    /// Writes off everything still outstanding, however young.
    pub fn close(&mut self) {
        for e in &mut self.entries[self.oldest..] {
            if e.state == State::Outstanding {
                e.state = State::TimedOut;
                self.counts.timed_out += 1;
                self.outstanding -= 1;
            }
        }
        self.oldest = self.entries.len();
    }

    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// The accounting identity every closed ledger must satisfy.
    pub fn check_conservation(&self) -> Result<(), String> {
        let c = self.counts;
        let sum = c.ok + c.dropped + c.rejected + c.timed_out + c.starved;
        if c.attempted != sum || self.outstanding != 0 {
            return Err(format!(
                "attempted {} != ok {} + dropped {} + rejected {} + timed out {} + starved {} \
                 ({} still outstanding)",
                c.attempted, c.ok, c.dropped, c.rejected, c.timed_out, c.starved, self.outstanding
            ));
        }
        Ok(())
    }

    /// Sorted latencies (ns) of the measured requests of type `ty`, with
    /// every failure censored at the grace bound.
    pub fn latencies(&self, ty: u8) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| e.ty == ty && e.due_ns >= self.warmup_end_ns)
            .map(|e| self.censored(e))
            .collect();
        v.sort_unstable();
        v
    }

    fn censored(&self, e: &Entry) -> u64 {
        match e.state {
            State::Ok => u64::from(e.latency_ns),
            State::Unsent | State::Outstanding => panic!("latencies() on an open ledger"),
            _ => self.grace_ns,
        }
    }

    /// Measured requests of every type answered `Ok`, and the mean of
    /// their latencies (ns) — the population the traced run reconciles
    /// its stage sums against.
    pub fn ok_mean_ns(&self) -> f64 {
        let ok: Vec<f64> = self
            .entries
            .iter()
            .filter(|e| e.state == State::Ok && e.due_ns >= self.warmup_end_ns)
            .map(|e| e.latency_ns as f64)
            .collect();
        crate::stats::mean(&ok)
    }

    /// Measured `Ok` responses.
    pub fn measured_ok(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.state == State::Ok && e.due_ns >= self.warmup_end_ns)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    const MS: u64 = 1_000_000;

    /// A client that falls behind for 50 ms — here, a stalled generator
    /// that sends everything due during the stall at once when it wakes —
    /// must see that stall in the latencies of every request due during
    /// it, because latency runs from the due time, not from the send.
    #[test]
    fn a_one_off_stall_appears_in_the_tail_timed_from_due() {
        let mut l = Ledger::new(1000, 0, 1_000 * MS);
        let service = 100_000; // 100 µs
        let mut ids = Vec::new();
        for i in 0..1000u64 {
            ids.push(l.schedule(i * MS, 0));
        }
        for &id in &ids {
            let due = l.due_ns(id);
            // Requests due in [500, 550) ms are only sent at 550 ms.
            let sent_at = if (500 * MS..550 * MS).contains(&due) {
                550 * MS
            } else {
                due
            };
            l.sent(id);
            l.answer(id, Answer::Ok, sent_at + service).unwrap();
        }
        l.close();
        l.check_conservation().unwrap();
        let lat = l.latencies(0);
        assert_eq!(lat.len(), 1000);
        // 50 of 1000 requests waited for the stall: p99 lands inside it
        // and the worst waited the full 50 ms.
        assert!(
            quantile(&lat, 0.99) >= 10 * MS,
            "p99 {}",
            quantile(&lat, 0.99)
        );
        assert_eq!(quantile(&lat, 1.0), 50 * MS + service);
        // Timed from the send instead, every request would read 100 µs.
        assert_eq!(quantile(&lat, 0.5), service);
    }

    #[test]
    fn lost_and_failed_requests_are_censored_at_the_grace_bound() {
        let grace = 200 * MS;
        let mut l = Ledger::new(8, 10 * MS, grace);
        let warm = l.schedule(0, 0); // warm-up: excluded from percentiles
        let ok = l.schedule(20 * MS, 0);
        let lost = l.schedule(21 * MS, 0);
        let dropped = l.schedule(22 * MS, 0);
        let starved = l.schedule(23 * MS, 0);
        for id in [warm, ok, lost, dropped] {
            l.sent(id);
        }
        l.starved(starved);
        l.answer(warm, Answer::Ok, MS).unwrap();
        l.answer(ok, Answer::Ok, 25 * MS).unwrap();
        l.answer(dropped, Answer::Dropped, 23 * MS).unwrap();
        l.expire(100 * MS);
        assert_eq!(l.outstanding(), 1, "not yet past the grace bound");
        l.expire(21 * MS + grace);
        assert_eq!(l.outstanding(), 0);
        // The lost request's response turns up after the write-off: it is
        // matched once, and a second copy is an error.
        l.answer(lost, Answer::Ok, 300 * MS).unwrap();
        assert!(l.answer(lost, Answer::Ok, 301 * MS).is_err());
        assert!(l.answer(ok, Answer::Ok, 26 * MS).is_err());
        assert!(l.answer(99, Answer::Ok, 26 * MS).is_err());
        l.check_conservation().unwrap();
        let c = l.counts();
        assert_eq!(
            (c.attempted, c.ok, c.dropped, c.timed_out, c.starved, c.late),
            (5, 2, 1, 1, 1, 1)
        );
        assert_eq!(c.failed(), 3);
        assert_eq!(l.latencies(0), vec![5 * MS, grace, grace, grace]);
    }

    #[test]
    fn an_unanswered_ledger_fails_conservation_until_closed() {
        let mut l = Ledger::new(2, 0, MS);
        let id = l.schedule(0, 0);
        l.sent(id);
        assert!(l.check_conservation().is_err());
        l.close();
        l.check_conservation().unwrap();
        assert_eq!(l.counts().timed_out, 1);
    }
}
