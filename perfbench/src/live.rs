//! The two live workloads: the threaded DARC server driven by one client
//! thread over one client port.
//!
//! * `bimodal_loopback` — open-loop Poisson arrivals of a bimodal mix
//!   over the in-process loopback NIC, 2 workers running the public
//!   `PayloadSleepHandler` (sleep-modelled service keeps the busy threads
//!   within 2 cores).
//! * `pingpong_udp` — a closed loop of zero-service requests with one
//!   outstanding, over real 127.0.0.1 UDP sockets and 1 worker.
//!
//! The client uses only public `net`/`runtime` APIs; the server receives
//! only the generated requests.

use std::sync::Arc;

use persephone_core::classifier::HeaderClassifier;
use persephone_core::rng::Rng;
use persephone_core::time::Nanos;
use persephone_net::nic::{ClientPort, NicFaultPlan, QueueFull, Steering};
use persephone_net::pool::{BufferPool, PoolAllocator, PoolReleaser};
use persephone_net::udp::{self, UdpConfig, UdpQueueStats};
use persephone_net::wire;
use persephone_runtime::handler::PayloadSleepHandler;
use persephone_runtime::server::{RuntimeReport, ServerBuilder, ServerHandle, Transport};

use crate::ledger::{Answer, Ledger};
use crate::trace::{
    now_ns, payload, ClientSpan, ServerStamps, TracingClassifier, TracingHandler, SAMPLE_EVERY,
};

/// Share of the schedule, from its start, left out of every percentile —
/// the simulator's warm-up rule (`SimConfig::warmup_fraction`).
pub const WARMUP_FRACTION: f64 = 0.1;

/// Offered rate of `bimodal_loopback`, requests/s.
const BIMODAL_RPS: f64 = 2_000.0;
/// Bimodal mix: (share of arrivals, service ns) per type; type 0 is short.
/// Longs are 2 % of arrivals and about half the CPU demand (50×
/// dispersion). At 2000 rps the reserved short core runs at ~0.55, busy
/// enough for the typed-queue wait to matter, and a 30 s run holds ~1200
/// longs (12 beyond their p99).
const BIMODAL_MIX: [(f64, u64); 2] = [(0.98, 200_000), (0.02, 10_000_000)];
/// Profiling window for DARC on the bimodal mix: closes every ~0.7 s, so
/// the c-FCFS warm-up ends well inside the excluded warm-up period.
const BIMODAL_PROFILE_WINDOW: u64 = 2_000;

/// A request unanswered this long after its due time is written off and
/// censored at this bound.
const BIMODAL_GRACE_NS: u64 = 1_000_000_000;
const PINGPONG_GRACE_NS: u64 = 100_000_000;

const POOL_BUFFERS: usize = 4_096;
const BUF_SIZE: usize = 256;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Live {
    BimodalLoopback,
    PingpongUdp,
}

impl Live {
    pub fn workers(self) -> usize {
        match self {
            Live::BimodalLoopback => 2,
            Live::PingpongUdp => 1,
        }
    }

    pub fn num_types(self) -> usize {
        match self {
            Live::BimodalLoopback => 2,
            Live::PingpongUdp => 1,
        }
    }

    fn grace_ns(self) -> u64 {
        match self {
            Live::BimodalLoopback => BIMODAL_GRACE_NS,
            Live::PingpongUdp => PINGPONG_GRACE_NS,
        }
    }

    fn service_ns(self, ty: u8) -> u64 {
        match self {
            Live::BimodalLoopback => BIMODAL_MIX[ty as usize].1,
            Live::PingpongUdp => 0,
        }
    }
}

/// A started server and the client's end of its wire.
struct Server {
    handle: ServerHandle,
    port: ClientPort,
    pool: PoolAllocator,
}

fn start(kind: Live, stamps: Option<Arc<ServerStamps>>) -> Server {
    let nt = kind.num_types();
    let classifier = HeaderClassifier::new(wire::TYPE_OFFSET, nt as u32);
    let max = Nanos::from_millis(100);
    let mut b = ServerBuilder::new(kind.workers(), nt);
    b = match stamps {
        None => b
            .classifier(classifier)
            .handler_factory(move |_| Box::new(PayloadSleepHandler::new(max))),
        Some(stamps) => {
            let s = stamps.clone();
            b.classifier(TracingClassifier {
                inner: classifier,
                stamps,
            })
            .handler_factory(move |_| {
                Box::new(TracingHandler {
                    inner: PayloadSleepHandler::new(max),
                    stamps: s.clone(),
                })
            })
        }
    };
    let (handle, port) = match kind {
        Live::BimodalLoopback => {
            let (handle, bound) = b
                .tune_engine(|c| c.profiler.min_samples = BIMODAL_PROFILE_WINDOW)
                .start()
                .expect("a loopback server always starts");
            (handle, bound.into_loopback())
        }
        Live::PingpongUdp => {
            let addr = "127.0.0.1:0".parse().expect("a literal socket address");
            let (handle, bound) = b
                .transport(Transport::Udp(addr))
                .start()
                .expect("bind the server's UDP socket on 127.0.0.1");
            let port = udp::client(
                &bound.into_udp_addrs(),
                Steering::Rss,
                NicFaultPlan::default(),
                UdpConfig::default(),
            )
            .expect("bind the client's UDP socket");
            (handle, port)
        }
    };
    Server {
        handle,
        port,
        pool: BufferPool::new(POOL_BUFFERS, BUF_SIZE),
    }
}

/// Times the program's set-up — server start (threads, queues, telemetry,
/// sockets), client port and packet pool — `reps` times; returns seconds.
pub fn setup_times(kind: Live, reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = now_ns();
            let server = start(kind, None);
            let dt = (now_ns() - t0) as f64 / 1e9;
            drop(server.pool);
            drop(server.port);
            server.handle.stop();
            dt
        })
        .collect()
}

/// The seeded open-loop schedule: (offset ns from the start, type).
fn bimodal_schedule(seed: u64, total_ns: u64) -> Vec<(u64, u8)> {
    let mut root = Rng::new(seed);
    let (mut gaps, mut types) = (root.fork(), root.fork());
    let weights = BIMODAL_MIX.map(|(share, _)| share);
    let mean_gap = 1e9 / BIMODAL_RPS;
    let mut out = Vec::with_capacity((total_ns as f64 / mean_gap * 1.1) as usize);
    let mut t = gaps.next_exp(mean_gap);
    while (t as u64) < total_ns {
        out.push((t as u64, types.pick_weighted(&weights) as u8));
        t += gaps.next_exp(mean_gap);
    }
    out
}

/// What one measured phase leaves behind.
pub struct Phase {
    pub kind: Live,
    pub ledger: Ledger,
    pub report: RuntimeReport,
    pub spans: Vec<ClientSpan>,
    pub stamps: Option<Arc<ServerStamps>>,
    pub client_udp: Option<UdpQueueStats>,
    /// Wall seconds of the measured (post-warm-up) window.
    pub window_s: f64,
    /// Wall seconds from server start to stop.
    pub server_s: f64,
    /// Output checks that failed.
    pub errors: Vec<String>,
}

/// The client: one thread, one port, one ledger.
struct Client {
    kind: Live,
    port: ClientPort,
    pool: PoolAllocator,
    releaser: PoolReleaser,
    ledger: Ledger,
    traced: bool,
    spans: Vec<ClientSpan>,
    /// Responses matched to a request, by status (late ones included).
    ok_total: u64,
    dropped_total: u64,
    errors: Vec<String>,
}

impl Client {
    fn send(&mut self, id: u64, ty: u8) {
        let slot = (self.traced
            && id.is_multiple_of(SAMPLE_EVERY)
            && self.spans.len() < self.spans.capacity())
        .then_some(self.spans.len());
        let due = self.ledger.due_ns(id);
        let t0 = if slot.is_some() { now_ns() } else { 0 };
        self.releaser.flush();
        let Some(mut buf) = self.pool.alloc() else {
            self.ledger.starved(id);
            return self.push_span(slot, ty, due, [t0; 4]);
        };
        let t1 = if slot.is_some() { now_ns() } else { 0 };
        let len = wire::encode_request(
            buf.raw_mut(),
            u32::from(ty),
            id,
            &payload(self.kind.service_ns(ty), slot),
        )
        .expect("a pool buffer holds a header and 16 payload bytes");
        buf.set_len(len);
        let t2 = if slot.is_some() { now_ns() } else { 0 };
        match self.port.send(buf) {
            Ok(()) => self.ledger.sent(id),
            Err(QueueFull(buf)) => {
                self.releaser.release(buf);
                self.ledger.starved(id);
            }
        }
        let t3 = if slot.is_some() { now_ns() } else { 0 };
        self.push_span(slot, ty, due, [t0, t1, t2, t3]);
    }

    fn push_span(&mut self, slot: Option<usize>, ty: u8, due: u64, t: [u64; 4]) {
        if slot.is_some() {
            self.spans.push(ClientSpan {
                ty,
                due,
                start: t[0],
                send_call: t[2],
                alloc_ns: t[1].saturating_sub(t[0]),
                encode_ns: t[2].saturating_sub(t[1]),
                send_ns: t[3].saturating_sub(t[2]),
                ..Default::default()
            });
        }
    }

    /// Drains every response waiting at the port; true if any came.
    fn poll(&mut self) -> bool {
        let mut got = false;
        loop {
            let t0 = if self.traced { now_ns() } else { 0 };
            let Some(pkt) = self.port.recv() else { break };
            let t1 = now_ns();
            got = true;
            match wire::decode(pkt.as_slice()) {
                Ok((hdr, _)) => match wire::response_status(&hdr) {
                    Some(status) => {
                        let answer = match status {
                            wire::Status::Ok => Answer::Ok,
                            wire::Status::Dropped => Answer::Dropped,
                            wire::Status::BadRequest => Answer::Rejected,
                        };
                        match self.ledger.answer(hdr.id, answer, t1) {
                            Ok(()) => self.matched(hdr.id, answer, t0, t1),
                            Err(e) => self.errors.push(e),
                        }
                    }
                    None => self
                        .errors
                        .push(format!("non-response packet id {}", hdr.id)),
                },
                Err(e) => self.errors.push(format!("undecodable response: {e}")),
            }
            self.releaser.release(pkt);
        }
        got
    }

    fn matched(&mut self, id: u64, answer: Answer, t0: u64, t1: u64) {
        match answer {
            Answer::Ok => self.ok_total += 1,
            Answer::Dropped => self.dropped_total += 1,
            Answer::Rejected => {}
        }
        if self.traced && answer == Answer::Ok && id.is_multiple_of(SAMPLE_EVERY) {
            if let Some(s) = self.spans.get_mut((id / SAMPLE_EVERY) as usize) {
                s.recv = t1;
                s.recv_ns = t1 - t0;
            }
        }
    }
}

/// Runs one measured phase of `seconds` (plus the warm-up share before
/// it) and checks its outputs.
pub fn run(kind: Live, seed: u64, seconds: f64, traced: bool) -> Phase {
    let total_ns = (seconds / (1.0 - WARMUP_FRACTION) * 1e9) as u64;
    let schedule = match kind {
        Live::BimodalLoopback => bimodal_schedule(seed, total_ns),
        Live::PingpongUdp => Vec::new(),
    };
    let cap = match kind {
        Live::BimodalLoopback => schedule.len(),
        // Closed loop: requests are issued as responses return; size the
        // ledger for 110 k round trips per second, half again the ~72 k a
        // 2-vCPU Xeon VM reaches.
        Live::PingpongUdp => (total_ns as f64 * 110e-6) as usize,
    };
    let span_slots = cap / SAMPLE_EVERY as usize + 1;
    let stamps = traced.then(|| ServerStamps::new(span_slots));
    let server_t0 = now_ns();
    let Server { handle, port, pool } = start(kind, stamps.clone());
    // Start the schedule 1 ms out so the first request is not already late.
    let t0 = now_ns() + 1_000_000;
    let warmup_end = t0 + (total_ns as f64 * WARMUP_FRACTION) as u64;
    let mut c = Client {
        kind,
        port,
        releaser: pool.releaser(),
        pool,
        ledger: Ledger::new(cap, warmup_end, kind.grace_ns()),
        traced,
        spans: Vec::with_capacity(if traced { span_slots } else { 0 }),
        ok_total: 0,
        dropped_total: 0,
        errors: Vec::new(),
    };

    let window_s = match kind {
        Live::BimodalLoopback => {
            let types: Vec<u8> = schedule.iter().map(|&(_, ty)| ty).collect();
            for &(at, ty) in &schedule {
                c.ledger.schedule(t0 + at, ty);
            }
            open_loop(&mut c, &types);
            (total_ns - (warmup_end - t0)) as f64 / 1e9
        }
        Live::PingpongUdp => {
            while now_ns() < t0 {}
            closed_loop(&mut c, t0 + total_ns);
            (now_ns() - warmup_end) as f64 / 1e9
        }
    };

    let report = handle.stop();
    let server_s = (now_ns() - server_t0) as f64 / 1e9;
    // Collect anything answered during shutdown (shed requests).
    let settle = now_ns() + 20_000_000;
    while c.ledger.outstanding() > 0 && now_ns() < settle {
        if !c.poll() {
            std::thread::yield_now();
        }
    }
    c.ledger.close();
    c.releaser.flush();

    let mut errors = c.errors;
    if let Err(e) = c.ledger.check_conservation() {
        errors.push(e);
    }
    errors.extend(check_server(
        &c.ledger,
        &report,
        c.ok_total,
        c.dropped_total,
    ));
    Phase {
        kind,
        client_udp: c.port.udp_stats(),
        ledger: c.ledger,
        report,
        spans: c.spans,
        stamps,
        window_s,
        server_s,
        errors,
    }
}

/// Sends every request at its due time, regardless of responses.
fn open_loop(c: &mut Client, types: &[u8]) {
    let mut next = 0usize;
    loop {
        let now = now_ns();
        let mut busy = false;
        while next < types.len() && c.ledger.due_ns(next as u64) <= now {
            c.send(next as u64, types[next]);
            next += 1;
            busy = true;
        }
        busy |= c.poll();
        c.ledger.expire(now_ns());
        if next == types.len() && c.ledger.outstanding() == 0 {
            break;
        }
        if !busy {
            std::thread::yield_now();
        }
    }
}

/// One request outstanding: the next is due the moment the previous
/// response arrives.
fn closed_loop(c: &mut Client, end: u64) {
    loop {
        let due = now_ns();
        if due >= end {
            break;
        }
        let id = c.ledger.schedule(due, 0);
        c.send(id, 0);
        while c.ledger.outstanding() > 0 {
            if !c.poll() {
                c.ledger.expire(now_ns());
                std::thread::yield_now();
            }
        }
    }
}

/// The server's own counts must agree with the client ledger.
fn check_server(
    ledger: &Ledger,
    report: &RuntimeReport,
    ok_total: u64,
    dropped_total: u64,
) -> Vec<String> {
    let c = ledger.counts();
    let d = &report.dispatcher;
    let sent = c.attempted - c.starved;
    let handled = report.handled();
    let shed = d.dropped + d.expired + d.shed_at_shutdown;
    let mut errors = Vec::new();
    if d.received != sent {
        errors.push(format!(
            "server received {} requests, client sent {sent}",
            d.received
        ));
    }
    if d.malformed + d.unknown != 0 {
        errors.push(format!(
            "server saw {} malformed and {} unknown-type requests",
            d.malformed, d.unknown
        ));
    }
    if handled < ok_total || handled - ok_total > c.timed_out {
        errors.push(format!(
            "server handled {handled}, client got {ok_total} Ok responses and wrote off {}",
            c.timed_out
        ));
    }
    if dropped_total > shed {
        errors.push(format!(
            "client got {dropped_total} Dropped responses, server shed {shed}"
        ));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    #[test]
    fn the_schedule_is_a_function_of_the_seed() {
        let a = bimodal_schedule(7, 1_000_000_000);
        assert_eq!(a, bimodal_schedule(7, 1_000_000_000));
        assert_ne!(a, bimodal_schedule(8, 1_000_000_000));
        let longs = a.iter().filter(|&&(_, ty)| ty == 1).count() as f64;
        // One second of arrivals at the configured rate and mix.
        let n = a.len() as f64;
        assert!((n - BIMODAL_RPS).abs() < 0.12 * BIMODAL_RPS, "{n} arrivals");
        let expect_longs = BIMODAL_RPS * BIMODAL_MIX[1].0;
        assert!(
            (longs - expect_longs).abs() < 0.6 * expect_longs,
            "{longs} longs"
        );
    }

    /// A one-off 60 ms server stall on the only worker: every request
    /// due during it queues behind it, and the client — timing from the
    /// due time — must see that in its tail.
    #[test]
    fn a_server_stall_appears_in_the_client_tail() {
        struct StallOnce<H> {
            inner: H,
            seen: u64,
        }
        impl<H: persephone_runtime::handler::RequestHandler>
            persephone_runtime::handler::RequestHandler for StallOnce<H>
        {
            fn handle(
                &mut self,
                ty: persephone_core::types::TypeId,
                p: &mut [u8],
                n: usize,
            ) -> usize {
                self.seen += 1;
                if self.seen == 200 {
                    std::thread::sleep(std::time::Duration::from_millis(60));
                }
                self.inner.handle(ty, p, n)
            }
        }
        crate::trace::init_clock();
        let (handle, bound) = ServerBuilder::new(1, 1)
            .classifier(HeaderClassifier::new(wire::TYPE_OFFSET, 1))
            .handler_factory(|_| {
                Box::new(StallOnce {
                    inner: PayloadSleepHandler::new(Nanos::from_millis(1)),
                    seen: 0,
                })
            })
            .start()
            .unwrap();
        let pool = BufferPool::new(512, BUF_SIZE);
        let t0 = now_ns() + 1_000_000;
        let mut c = Client {
            kind: Live::PingpongUdp,
            port: bound.into_loopback(),
            releaser: pool.releaser(),
            pool,
            ledger: Ledger::new(600, t0, 1_000_000_000),
            traced: false,
            spans: Vec::new(),
            ok_total: 0,
            dropped_total: 0,
            errors: Vec::new(),
        };
        // 600 requests, one every 500 µs.
        for i in 0..600u64 {
            c.ledger.schedule(t0 + i * 500_000, 0);
        }
        open_loop(&mut c, &[0; 600]);
        let report = handle.stop();
        c.ledger.close();
        c.ledger.check_conservation().unwrap();
        assert!(c.errors.is_empty(), "{:?}", c.errors);
        assert!(check_server(&c.ledger, &report, c.ok_total, c.dropped_total).is_empty());
        let lat = c.ledger.latencies(0);
        // ~120 requests fall due during the stall; at least the p99 and
        // the max carry it.
        assert!(
            quantile(&lat, 0.99) > 20_000_000,
            "p99 {}",
            quantile(&lat, 0.99)
        );
        assert!(
            quantile(&lat, 1.0) >= 55_000_000,
            "max {}",
            quantile(&lat, 1.0)
        );
        assert!(
            quantile(&lat, 0.5) < 5_000_000,
            "p50 {}",
            quantile(&lat, 0.5)
        );
    }
}
