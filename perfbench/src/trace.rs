//! Spans for the traced run.
//!
//! Every layer is timed from outside, around calls into its public
//! interface: the client times its own calls into `net`; the server side
//! is timed by wrappers around the public [`Classifier`] and
//! [`RequestHandler`] traits. One clock (a process-wide monotonic base)
//! stamps all of them, and all spans of a request share its wire id.
//!
//! Spans are sampled: the client tags every [`SAMPLE_EVERY`]-th request
//! with a span slot in bytes 8..16 of its payload, and only tagged
//! requests are stamped. Stamps go into memory allocated before the run
//! and are read once the server threads have been joined.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use persephone_core::classifier::Classifier;
use persephone_core::types::TypeId;
use persephone_net::wire;
use persephone_runtime::handler::RequestHandler;

use crate::stats::mean;

/// One request in this many carries a span slot.
pub const SAMPLE_EVERY: u64 = 8;

/// Request payload: service demand (ns, read by `PayloadSleepHandler`)
/// then the span tag (slot + 1; 0 = not sampled).
pub const PAYLOAD_LEN: usize = 16;
const TAG_AT: usize = 8;

/// Nanoseconds since the process-wide clock base. Never 0 after
/// [`init_clock`].
pub fn now_ns() -> u64 {
    base().elapsed().as_nanos() as u64 + 1
}

fn base() -> Instant {
    static BASE: OnceLock<Instant> = OnceLock::new();
    *BASE.get_or_init(Instant::now)
}

pub fn init_clock() {
    let _ = base();
}

/// Builds a request payload.
pub fn payload(service_ns: u64, slot: Option<usize>) -> [u8; PAYLOAD_LEN] {
    let mut p = [0u8; PAYLOAD_LEN];
    p[..TAG_AT].copy_from_slice(&service_ns.to_le_bytes());
    let tag = slot.map_or(0, |s| s as u64 + 1);
    p[TAG_AT..].copy_from_slice(&tag.to_le_bytes());
    p
}

/// The span slot a request payload carries, if it was sampled.
fn slot_of(payload: &[u8]) -> Option<usize> {
    let tag = u64::from_le_bytes(payload.get(TAG_AT..PAYLOAD_LEN)?.try_into().ok()?);
    tag.checked_sub(1).map(|s| s as usize)
}

const CLS_IN: usize = 0;
const CLS_OUT: usize = 1;
const H_IN: usize = 2;
const H_OUT: usize = 3;

/// Server-side stamps per span slot: classifier entry/exit and handler
/// entry/exit.
pub struct ServerStamps {
    slots: Vec<[AtomicU64; 4]>,
}

impl ServerStamps {
    pub fn new(slots: usize) -> Arc<ServerStamps> {
        Arc::new(ServerStamps {
            slots: (0..slots).map(|_| Default::default()).collect(),
        })
    }

    fn record(&self, slot: usize, a: usize, ta: u64, b: usize, tb: u64) {
        if let Some(s) = self.slots.get(slot) {
            // Relaxed: the stamps publish nothing; they are read only
            // after the server threads that wrote them have been joined.
            s[a].store(ta, Ordering::Relaxed);
            s[b].store(tb, Ordering::Relaxed);
        }
    }

    fn get(&self, slot: usize) -> Option<[u64; 4]> {
        let s = self.slots.get(slot)?;
        let v = [0, 1, 2, 3].map(|i| s[i].load(Ordering::Relaxed));
        v.iter().all(|&t| t != 0).then_some(v)
    }
}

/// Times the dispatcher's calls into the wrapped classifier.
pub struct TracingClassifier<C> {
    pub inner: C,
    pub stamps: Arc<ServerStamps>,
}

impl<C: Classifier> Classifier for TracingClassifier<C> {
    fn classify(&mut self, pkt: &[u8]) -> TypeId {
        match pkt.get(wire::HEADER_LEN..).and_then(slot_of) {
            None => self.inner.classify(pkt),
            Some(slot) => {
                let t0 = now_ns();
                let ty = self.inner.classify(pkt);
                let t1 = now_ns();
                self.stamps.record(slot, CLS_IN, t0, CLS_OUT, t1);
                ty
            }
        }
    }
}

/// Times a worker's calls into the wrapped handler.
pub struct TracingHandler<H> {
    pub inner: H,
    pub stamps: Arc<ServerStamps>,
}

impl<H: RequestHandler> RequestHandler for TracingHandler<H> {
    fn handle(&mut self, ty: TypeId, payload: &mut [u8], request_len: usize) -> usize {
        let slot = if request_len >= PAYLOAD_LEN {
            slot_of(payload)
        } else {
            None
        };
        match slot {
            None => self.inner.handle(ty, payload, request_len),
            Some(slot) => {
                let t0 = now_ns();
                let n = self.inner.handle(ty, payload, request_len);
                let t1 = now_ns();
                self.stamps.record(slot, H_IN, t0, H_OUT, t1);
                n
            }
        }
    }
}

/// Client-side stamps of one sampled request (absolute ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientSpan {
    pub ty: u8,
    pub due: u64,
    /// The client began the send: lag = start − due.
    pub start: u64,
    /// Buffer allocated and request encoded; `ClientPort::send` called.
    pub send_call: u64,
    /// The response came out of `ClientPort::recv`.
    pub recv: u64,
    pub alloc_ns: u64,
    pub encode_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
}

/// Consecutive stages of a request; their durations telescope from the
/// due time to the client's receipt of the response.
pub const STAGES: [&str; 7] = [
    "driver.lag",
    "client.prep",
    "runtime.dispatcher.rx",
    "core.classifier.classify",
    "runtime.dispatcher.queue",
    "runtime.worker.service",
    "runtime.worker.tx",
];

/// Per-stage samples (ns) of every complete span.
#[derive(Default)]
pub struct StageSamples {
    /// `stages[i]` holds stage `STAGES[i]`, signed so a misordered stamp
    /// shows up instead of saturating away.
    pub stages: [Vec<i64>; 7],
    /// Stage samples split by request type (index = wire type).
    pub by_type: Vec<[Vec<i64>; 7]>,
    pub alloc_ns: Vec<u64>,
    pub encode_ns: Vec<u64>,
    pub send_ns: Vec<u64>,
    pub recv_ns: Vec<u64>,
    /// Spans the server never stamped (e.g. the request was shed).
    pub incomplete: u64,
}

impl StageSamples {
    pub fn collect(spans: &[ClientSpan], stamps: &ServerStamps, num_types: usize) -> Self {
        let mut out = StageSamples {
            by_type: (0..num_types).map(|_| Default::default()).collect(),
            ..Default::default()
        };
        for (slot, c) in spans.iter().enumerate() {
            let Some(s) = stamps.get(slot).filter(|_| c.recv != 0) else {
                out.incomplete += 1;
                continue;
            };
            let points = [
                c.due,
                c.start,
                c.send_call,
                s[CLS_IN],
                s[CLS_OUT],
                s[H_IN],
                s[H_OUT],
                c.recv,
            ];
            for i in 0..STAGES.len() {
                let d = points[i + 1] as i64 - points[i] as i64;
                out.stages[i].push(d);
                out.by_type[c.ty as usize][i].push(d);
            }
            out.alloc_ns.push(c.alloc_ns);
            out.encode_ns.push(c.encode_ns);
            out.send_ns.push(c.send_ns);
            out.recv_ns.push(c.recv_ns);
        }
        out
    }

    /// Number of complete spans.
    pub fn len(&self) -> usize {
        self.stages[0].len()
    }

    /// Sum of the stage means, ns.
    pub fn stage_mean_sum_ns(&self) -> f64 {
        self.stages.iter().map(|s| mean_i64(s)).sum()
    }

    /// End-to-end mean of the requests the client measured, minus the
    /// sum of the stage means of the sampled spans, µs. Sampling is
    /// uniform over request ids, so a large residual means time the
    /// stages do not cover, not noise.
    pub fn residual_us(&self, e2e_mean_ns: f64) -> f64 {
        (e2e_mean_ns - self.stage_mean_sum_ns()) / 1e3
    }
}

pub fn mean_i64(v: &[i64]) -> f64 {
    mean(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Sorted, non-negative copy of signed stage samples.
pub fn sorted_clamped(v: &[i64]) -> Vec<u64> {
    let mut out: Vec<u64> = v.iter().map(|&x| x.max(0) as u64).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(ty: u8, base: u64, gaps: [u64; 7]) -> ([u64; 8], ClientSpan) {
        let mut pts = [0u64; 8];
        pts[0] = base;
        for i in 0..7 {
            pts[i + 1] = pts[i] + gaps[i];
        }
        let c = ClientSpan {
            ty,
            due: pts[0],
            start: pts[1],
            send_call: pts[2],
            recv: pts[7],
            ..Default::default()
        };
        (pts, c)
    }

    #[test]
    fn stage_means_add_up_to_the_end_to_end_mean() {
        let stamps = ServerStamps::new(4);
        let mut spans = Vec::new();
        let mut e2e = Vec::new();
        for (slot, gaps) in [
            [1, 2, 30, 5, 400, 200_000, 25],
            [3, 2, 10, 5, 9_000, 10_000_000, 40],
            [0, 1, 20, 4, 50, 200_100, 30],
        ]
        .into_iter()
        .enumerate()
        {
            let (pts, c) = span((slot % 2) as u8, 1_000 * (slot as u64 + 1), gaps);
            stamps.record(slot, CLS_IN, pts[3], CLS_OUT, pts[4]);
            stamps.record(slot, H_IN, pts[5], H_OUT, pts[6]);
            e2e.push((pts[7] - pts[0]) as f64);
            spans.push(c);
        }
        // Slot 3 was sent but the server never stamped it (shed).
        spans.push(span(0, 9_000, [1; 7]).1);
        let s = StageSamples::collect(&spans, &stamps, 2);
        assert_eq!((s.len(), s.incomplete), (3, 1));
        assert_eq!(s.by_type[0][5].len(), 2);
        let e2e_mean = mean(&e2e);
        assert!((s.stage_mean_sum_ns() - e2e_mean).abs() < 1e-6);
        assert!(s.residual_us(e2e_mean).abs() < 1e-9);
        // Time no stage covers (here 3 µs more per request in the
        // client's own measurement) shows as the residual.
        assert!((s.residual_us(e2e_mean + 3_000.0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn payload_tags_round_trip() {
        let p = payload(200_000, Some(41));
        assert_eq!(u64::from_le_bytes(p[..8].try_into().unwrap()), 200_000);
        assert_eq!(slot_of(&p), Some(41));
        assert_eq!(slot_of(&payload(5, None)), None);
        assert_eq!(slot_of(&p[..12]), None);
    }
}
