//! Open-loop Poisson load generator (paper §5.1's client).
//!
//! Sends typed requests at exponentially distributed intervals regardless
//! of response progress (open loop — the client never waits), records
//! per-type response latencies, and recycles response buffers into its
//! packet pool.
//!
//! In-flight bookkeeping is a bounded slab with one slot per pool buffer
//! (the pool already caps true in-flight count), keyed through the wire
//! id as `generation << SLOT_BITS | slot` (40 generation bits — wide
//! enough that ids never repeat within a run, even across a u32 wrap).
//! Requests whose response never arrives
//! — a lossy wire, a server that shed silently — are written off when
//! the grace window closes ([`LoadReport::timed_out`]), so memory stays
//! constant and the totals balance no matter how broken the server.

use std::time::{Duration, Instant};

use persephone_core::rng::Rng;
use persephone_net::nic::ClientPort;
use persephone_net::pool::{PoolAllocator, PoolReleaser};
use persephone_net::wire;

/// One request type in the client mix.
#[derive(Clone, Debug)]
pub struct LoadType {
    /// Wire type id.
    pub ty: u32,
    /// Fraction of traffic, `(0, 1]`.
    pub ratio: f64,
    /// Request payload bytes.
    pub payload: Vec<u8>,
}

/// The client mix.
#[derive(Clone, Debug)]
pub struct LoadSpec {
    /// The typed mixes; ratios must sum to ≈1.
    pub types: Vec<LoadType>,
}

impl LoadSpec {
    /// Creates a spec, validating ratios.
    ///
    /// # Panics
    ///
    /// Panics if empty or ratios do not sum to ≈1.
    pub fn new(types: Vec<LoadType>) -> Self {
        assert!(!types.is_empty());
        let total: f64 = types.iter().map(|t| t.ratio).sum();
        assert!((total - 1.0).abs() < 0.01, "ratios must sum to 1");
        LoadSpec { types }
    }
}

/// Client-side results.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Ok responses received.
    pub received: u64,
    /// Server-shed requests (Dropped status).
    pub dropped: u64,
    /// BadRequest responses.
    pub rejected: u64,
    /// Sends skipped because the packet pool was empty.
    pub starved: u64,
    /// Requests whose response never arrived within the grace window —
    /// lost on the wire or silently discarded server-side.
    pub timed_out: u64,
    /// Requests delivered into each NIC TX queue, in queue order — shows
    /// how the client's steering spread load across dispatcher shards
    /// (one entry for a single-queue port).
    pub per_queue_sent: Vec<u64>,
    /// Response latencies (ns) per type index.
    pub latencies_ns: Vec<Vec<u64>>,
    sorted: bool,
}

impl LoadReport {
    /// Sorts the latency vectors in place so subsequent
    /// [`LoadReport::percentile_ns`] calls index directly instead of
    /// cloning and re-sorting. [`run_open_loop`] calls this before
    /// returning; call it again only after mutating `latencies_ns`.
    pub fn finalize(&mut self) {
        for v in &mut self.latencies_ns {
            v.sort_unstable();
        }
        self.sorted = true;
    }

    /// Exact percentile (0–1) of one type's latencies, in nanoseconds.
    ///
    /// O(1) after [`LoadReport::finalize`]; falls back to a clone-and-sort
    /// for hand-built unsorted reports.
    pub fn percentile_ns(&self, ty: usize, p: f64) -> Option<u64> {
        let v = self.latencies_ns.get(ty)?;
        if v.is_empty() {
            return None;
        }
        let rank = (((v.len() as f64) * p).ceil() as usize).clamp(1, v.len()) - 1;
        if self.sorted {
            return Some(v[rank]);
        }
        let mut v = v.clone();
        v.sort_unstable();
        Some(v[rank])
    }

    /// Mean latency of one type, nanoseconds.
    pub fn mean_ns(&self, ty: usize) -> Option<f64> {
        let v = self.latencies_ns.get(ty)?;
        if v.is_empty() {
            return None;
        }
        Some(v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64)
    }
}

/// Bits of the wire id that address a slab slot; the rest carry the
/// slot's generation. 24 bits cover any plausible pool (16M buffers)
/// while leaving 40 generation bits — at one reuse per microsecond a
/// slot's generation first repeats after ~12 days, so a stale response
/// can never alias a live request within a run.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
const GEN_MASK: u64 = (1 << (64 - SLOT_BITS)) - 1;

/// The in-flight slab: fixed slots, a free list, and per-slot generations
/// so a response to an already-reclaimed (timed-out) slot is recognised
/// as stale instead of crediting a newer request.
struct Inflight {
    slots: Vec<Option<(Instant, usize)>>,
    gens: Vec<u64>,
    free: Vec<usize>,
    live: usize,
}

impl Inflight {
    fn new(capacity: usize) -> Self {
        assert!(
            capacity as u64 <= SLOT_MASK + 1,
            "inflight slab capped at 2^{SLOT_BITS} slots"
        );
        Inflight {
            slots: vec![None; capacity],
            gens: vec![0; capacity],
            free: (0..capacity).rev().collect(),
            live: 0,
        }
    }

    /// Claims a slot, returning the wire id to stamp on the request.
    fn claim(&mut self, sent_at: Instant, ty: usize) -> Option<u64> {
        let slot = self.free.pop()?;
        self.slots[slot] = Some((sent_at, ty));
        self.live += 1;
        Some((self.gens[slot] << SLOT_BITS) | slot as u64)
    }

    /// Reclaims the slot a response's wire id names, if it is still the
    /// same generation (i.e. not a stale duplicate of a reused slot).
    fn reclaim(&mut self, id: u64) -> Option<(Instant, usize)> {
        let slot = (id & SLOT_MASK) as usize;
        let gen = id >> SLOT_BITS;
        if slot >= self.slots.len() || self.gens[slot] != gen {
            return None;
        }
        let entry = self.slots[slot].take()?;
        self.gens[slot] = (self.gens[slot] + 1) & GEN_MASK;
        self.free.push(slot);
        self.live -= 1;
        Some(entry)
    }
}

/// Drains every response currently readable from `client` into `report`,
/// reconciling each against the in-flight slab and recycling the buffer.
fn drain_responses(
    client: &mut ClientPort,
    inflight: &mut Inflight,
    report: &mut LoadReport,
    releaser: &mut PoolReleaser,
) {
    while let Some(pkt) = client.recv() {
        if let Ok((hdr, _)) = wire::decode(pkt.as_slice()) {
            let matched = inflight.reclaim(hdr.id);
            match wire::response_status(&hdr) {
                Some(wire::Status::Ok) => {
                    if let Some((sent_at, ty)) = matched {
                        report.received += 1;
                        report.latencies_ns[ty].push(sent_at.elapsed().as_nanos() as u64);
                    }
                }
                Some(wire::Status::Dropped) => report.dropped += 1,
                _ => report.rejected += 1,
            }
        }
        releaser.release(pkt);
    }
}

/// Runs an open-loop Poisson client for `duration` at `rate_rps`, then
/// drains outstanding responses for up to `grace`.
///
/// The pool bounds client memory: if it runs dry (server slower than the
/// offered rate and responses not yet returned), sends are skipped and
/// counted in [`LoadReport::starved`]. Requests still unanswered when the
/// grace window closes are written off as [`LoadReport::timed_out`] —
/// lost on the wire or silently discarded server-side — so
/// `sent == received + dropped + rejected + timed_out` always balances.
///
/// The returned report is already [`LoadReport::finalize`]d.
pub fn run_open_loop(
    client: &mut ClientPort,
    pool: &mut PoolAllocator,
    spec: &LoadSpec,
    rate_rps: f64,
    duration: Duration,
    grace: Duration,
    seed: u64,
) -> LoadReport {
    assert!(rate_rps > 0.0);
    let num_types = spec.types.len();
    let mut report = LoadReport {
        latencies_ns: vec![Vec::new(); num_types],
        ..Default::default()
    };
    // The shared seeded xoshiro streams (one forked stream per concern,
    // exactly like the simulator's `ArrivalGen`), so gaps and type picks
    // are drawn from the same generator on both backends.
    let mut root = Rng::new(seed);
    let mut rng_arrival = root.fork();
    let mut rng_type = root.fork();
    let mean_gap_ns = 1e9 / rate_rps;
    let weights: Vec<f64> = spec.types.iter().map(|t| t.ratio).collect();

    let start = Instant::now();
    let deadline = start + duration;
    // One slab slot per pool buffer: the pool already bounds how many
    // requests can truly be outstanding.
    let mut inflight = Inflight::new(pool.total().max(1));
    let mut next_send = start;
    let mut releaser = pool.releaser();

    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if now >= next_send {
            // Schedule the next send first (open loop: the schedule never
            // depends on the server).
            let gap = rng_arrival.next_exp(mean_gap_ns);
            next_send += Duration::from_nanos(gap.max(1.0) as u64);

            // Pick the type.
            let ti = rng_type.pick_weighted(&weights);
            let lt = &spec.types[ti];

            releaser.flush();
            match pool.alloc() {
                Some(buf) => match inflight.claim(Instant::now(), ti) {
                    Some(id) => {
                        let mut buf = buf;
                        let len = wire::encode_request(buf.raw_mut(), lt.ty, id, &lt.payload)
                            .expect("pool buffers sized for requests");
                        buf.set_len(len);
                        report.sent += 1;
                        let mut pkt = buf;
                        loop {
                            match client.send(pkt) {
                                Ok(()) => break,
                                Err(e) => {
                                    pkt = e.0;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                    None => {
                        // Unreachable in practice (one slot per buffer),
                        // but return the buffer rather than leak it.
                        report.starved += 1;
                        releaser.release(buf);
                    }
                },
                None => report.starved += 1,
            }
        }
        drain_responses(client, &mut inflight, &mut report, &mut releaser);
    }

    // Grace period: collect stragglers.
    let grace_deadline = Instant::now() + grace;
    while Instant::now() < grace_deadline && inflight.live > 0 {
        drain_responses(client, &mut inflight, &mut report, &mut releaser);
        std::thread::yield_now();
    }
    // Whatever is still unanswered when the client gives up waiting has,
    // by definition, timed out; its slab slot dies with the slab.
    report.timed_out += inflight.live as u64;
    report.per_queue_sent = client.per_queue_sent().to_vec();
    releaser.flush();
    report.finalize();
    report
}

/// One pre-sampled request of a scenario schedule: send `at` nanoseconds
/// after the run starts, typed `ty`, asking the server to burn
/// `service_ns` of CPU (carried in the payload for
/// [`crate::handler::PayloadSpinHandler`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledRequest {
    /// Send offset from the start of the run, in nanoseconds.
    pub at_ns: u64,
    /// Wire type id.
    pub ty: u32,
    /// Per-request service demand, nanoseconds.
    pub service_ns: u64,
}

/// Replays a pre-sampled schedule open-loop, then drains responses until
/// none is outstanding or none has arrived for `grace`.
///
/// Where [`run_open_loop`] samples gaps and types on the fly, this replays
/// a schedule the scenario engine materialized up front — the *same*
/// trace the simulator consumes — so both backends serve an identical
/// request sequence under a fixed seed. Each request's sampled service
/// time travels in its first 8 payload bytes (little-endian nanoseconds);
/// pair with [`crate::handler::PayloadSpinHandler`] so arbitrary
/// service-time distributions replay exactly as sampled.
///
/// `num_types` sizes the per-type latency vectors (schedule entries with
/// `ty >= num_types` are still sent, but their latencies land in the last
/// slot). The same ledger balance as [`run_open_loop`] holds:
/// `sent == received + dropped + rejected + timed_out`, with skipped
/// sends in [`LoadReport::starved`].
///
/// The drain ends on progress, not on a fixed deadline: a server that is
/// still answering (say, on a host with fewer cores than its busy
/// threads) is waited for, and only `grace` of silence writes the
/// remaining requests off as timed out.
///
/// The returned report is already [`LoadReport::finalize`]d.
pub fn run_scheduled(
    client: &mut ClientPort,
    pool: &mut PoolAllocator,
    num_types: usize,
    schedule: &[ScheduledRequest],
    grace: Duration,
) -> LoadReport {
    assert!(num_types > 0, "run_scheduled needs at least one type");
    let mut report = LoadReport {
        latencies_ns: vec![Vec::new(); num_types],
        ..Default::default()
    };
    let start = Instant::now();
    let mut inflight = Inflight::new(pool.total().max(1));
    let mut releaser = pool.releaser();

    for req in schedule {
        // Open loop: wait for the scheduled send time regardless of
        // response progress, draining responses while early.
        loop {
            let elapsed = start.elapsed().as_nanos() as u64;
            if elapsed >= req.at_ns {
                break;
            }
            drain_responses(client, &mut inflight, &mut report, &mut releaser);
        }
        releaser.flush();
        let ti = (req.ty as usize).min(num_types - 1);
        match pool.alloc() {
            Some(mut buf) => match inflight.claim(Instant::now(), ti) {
                Some(id) => {
                    let payload = req.service_ns.to_le_bytes();
                    let len = wire::encode_request(buf.raw_mut(), req.ty, id, &payload)
                        .expect("pool buffers sized for requests");
                    buf.set_len(len);
                    report.sent += 1;
                    let mut pkt = buf;
                    loop {
                        match client.send(pkt) {
                            Ok(()) => break,
                            Err(e) => {
                                pkt = e.0;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
                None => {
                    report.starved += 1;
                    releaser.release(buf);
                }
            },
            None => report.starved += 1,
        }
        drain_responses(client, &mut inflight, &mut report, &mut releaser);
    }

    let mut last_progress = Instant::now();
    while inflight.live > 0 && last_progress.elapsed() < grace {
        let live = inflight.live;
        drain_responses(client, &mut inflight, &mut report, &mut releaser);
        if inflight.live < live {
            last_progress = Instant::now();
        }
        std::thread::yield_now();
    }
    report.timed_out += inflight.live as u64;
    report.per_queue_sent = client.per_queue_sent().to_vec();
    releaser.flush();
    report.finalize();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_spec_validates_ratios() {
        let spec = LoadSpec::new(vec![LoadType {
            ty: 0,
            ratio: 1.0,
            payload: vec![],
        }]);
        assert_eq!(spec.types.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ratios must sum to 1")]
    fn bad_ratios_rejected() {
        LoadSpec::new(vec![LoadType {
            ty: 0,
            ratio: 0.5,
            payload: vec![],
        }]);
    }

    #[test]
    fn report_percentiles() {
        let report = LoadReport {
            latencies_ns: vec![(1..=100u64).map(|i| i * 1000).collect()],
            ..Default::default()
        };
        assert_eq!(report.percentile_ns(0, 0.5), Some(50_000));
        assert_eq!(report.percentile_ns(0, 0.99), Some(99_000));
        assert_eq!(report.percentile_ns(0, 1.0), Some(100_000));
        assert!((report.mean_ns(0).unwrap() - 50_500.0).abs() < 1.0);
        assert_eq!(report.percentile_ns(1, 0.5), None);
        let empty = LoadReport {
            latencies_ns: vec![vec![]],
            ..Default::default()
        };
        assert_eq!(empty.percentile_ns(0, 0.5), None);
        assert_eq!(empty.mean_ns(0), None);
    }

    #[test]
    fn finalized_percentiles_agree_with_exact_sort_oracle() {
        // Deterministically shuffled latencies: finalize() must answer
        // every percentile exactly as a fresh clone-and-sort would.
        let mut vals: Vec<u64> = (0..997u64).map(|i| (i * 7919) % 100_003).collect();
        let oracle = {
            let mut v = vals.clone();
            v.sort_unstable();
            v
        };
        vals.rotate_left(313);
        let mut report = LoadReport {
            latencies_ns: vec![vals],
            ..Default::default()
        };
        let unsorted: Vec<Option<u64>> = [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .map(|&p| report.percentile_ns(0, p))
            .collect();
        report.finalize();
        for (i, &p) in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0].iter().enumerate() {
            let rank = (((oracle.len() as f64) * p).ceil() as usize).clamp(1, oracle.len()) - 1;
            let want = Some(oracle[rank]);
            assert_eq!(report.percentile_ns(0, p), want, "p={p}");
            assert_eq!(unsorted[i], want, "unsorted fallback disagrees at p={p}");
            // Repeated queries stay stable (no re-sorting side effects).
            assert_eq!(report.percentile_ns(0, p), want, "p={p} repeat");
        }
    }

    #[test]
    fn inflight_slab_is_bounded_and_generation_checked() {
        let mut slab = Inflight::new(2);
        let t0 = Instant::now();
        let a = slab.claim(t0, 0).unwrap();
        let b = slab.claim(t0, 1).unwrap();
        assert!(slab.claim(t0, 0).is_none(), "slab is bounded");
        assert_eq!(slab.live, 2);
        assert_eq!(slab.reclaim(a).map(|(_, ty)| ty), Some(0));
        assert_eq!(slab.live, 1);
        assert!(slab.reclaim(a).is_none(), "stale generation rejected");
        // The reused slot gets a fresh generation distinct from the old id.
        let c = slab.claim(Instant::now(), 1).unwrap();
        assert_ne!(c, a);
        assert_ne!(c, b);
        assert_eq!(slab.reclaim(c).map(|(_, ty)| ty), Some(1));
        assert!(slab.reclaim(c).is_none(), "double reclaim rejected");
        assert_eq!(slab.reclaim(b).map(|(_, ty)| ty), Some(1));
        assert_eq!(slab.live, 0, "everything reclaimed");
    }

    #[test]
    fn generation_tag_survives_u32_wraparound() {
        let mut slab = Inflight::new(1);
        let t = Instant::now();
        let first = slab.claim(t, 0).unwrap();
        slab.reclaim(first).unwrap();
        // Fast-forward this slot to the 32-bit generation boundary.
        slab.gens[0] = u64::from(u32::MAX);
        let at_edge = slab.claim(t, 1).unwrap();
        assert_eq!(at_edge >> SLOT_BITS, u64::from(u32::MAX));
        slab.reclaim(at_edge).unwrap();
        let past_edge = slab.claim(t, 2).unwrap();
        // When the generation was stored as a u32 it wrapped to 0 here,
        // making this id identical to `first`: a stale response for the
        // long-dead original request would be credited to this new one.
        assert_ne!(
            past_edge, first,
            "wire id must not repeat across the u32 boundary"
        );
        assert_eq!(past_edge >> SLOT_BITS, u64::from(u32::MAX) + 1);
        assert!(slab.reclaim(first).is_none(), "stale pre-wrap id rejected");
        assert_eq!(slab.reclaim(past_edge).map(|(_, ty)| ty), Some(2));
    }

    #[test]
    fn generation_wrap_at_full_width_is_masked() {
        // At the (astronomically distant) top of the 40-bit generation
        // space the counter must wrap cleanly instead of leaking into the
        // slot bits.
        let mut slab = Inflight::new(2);
        slab.gens[0] = GEN_MASK;
        let id = slab.claim(Instant::now(), 0).unwrap();
        assert_eq!(id & SLOT_MASK, 0, "free list hands out slot 0 first");
        assert_eq!(id >> SLOT_BITS, GEN_MASK);
        slab.reclaim(id).unwrap();
        assert_eq!(slab.gens[0], 0, "generation wraps within its field");
        let reused = slab.claim(Instant::now(), 0).unwrap();
        assert_eq!(reused & SLOT_MASK, 0);
        assert_eq!(reused >> SLOT_BITS, 0);
    }
}
