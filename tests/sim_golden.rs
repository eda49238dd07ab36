//! Golden outputs of the simulator: every policy, the rack tier, and the
//! arrival generator, each reduced to one 64-bit digest.
//!
//! The digests were recorded before the event loop moved from a binary
//! heap to the slot calendar, and must never change under a refactor or
//! a speed-up of `engine`, `workload` or `metrics`: a different digest
//! means a different scheduling decision, a different arrival, or a
//! different recorded sample. Change one only together with a deliberate
//! change of simulator behaviour, and say so in the commit.

use persephone::core::dist::Dist;
use persephone::core::policy::{Policy, TimeSharingParams, TsDiscipline};
use persephone::core::time::Nanos;
use persephone::core::types::TypeId;
use persephone::rack::{build_rack_policy, RackSim};
use persephone::sim::engine::{simulate, SimConfig, SimOutput, SimPolicy};
use persephone::sim::metrics::Percentiles;
use persephone::sim::policies::{self, cscq::Cscq, darc::DarcSim, drr::Drr, edf::Edf};
use persephone::sim::workload::{
    Arrival, ArrivalGen, BurstModel, Phase, PhasedWorkload, TypeMix, Workload,
};

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn pct(&mut self, p: &Percentiles) {
        for v in [p.p50, p.p99, p.p999, p.max, p.mean] {
            self.f64(v);
        }
        self.u64(p.count as u64);
    }
}

/// Digest of everything a run reports: summary percentiles per type
/// (latency and slowdown), the unknown bucket, the overall slowdown,
/// completions, drops, end time, and busy/overhead time per worker.
fn digest(out: &SimOutput) -> u64 {
    let mut h = Fnv::new();
    let s = &out.summary;
    for t in s.per_type.iter().chain(std::iter::once(&s.unknown)) {
        h.pct(&t.latency_ns);
        h.pct(&t.slowdown);
    }
    h.pct(&s.overall_slowdown);
    h.u64(s.completions);
    h.u64(s.dropped);
    h.u64(out.completions);
    h.u64(out.end_time.as_nanos());
    for (b, o) in out.busy.iter().zip(&out.overhead) {
        h.u64(b.as_nanos());
        h.u64(o.as_nanos());
    }
    h.0
}

fn stream_digest(arrivals: impl Iterator<Item = Arrival>) -> u64 {
    let mut h = Fnv::new();
    for a in arrivals {
        h.u64(a.at.as_nanos());
        h.u64(a.ty.index() as u64);
        h.u64(a.service.as_nanos());
    }
    h.0
}

/// Checks every `(case, digest, expected)` and reports all mismatches
/// at once, so a changed decision shows its whole footprint.
fn check(cases: &[(&str, u64, u64)]) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, expected {want:#018x}"))
        .collect();
    assert!(
        bad.is_empty(),
        "golden digests changed:\n{}",
        bad.join("\n")
    );
}

const SEED: u64 = 0x5EED;

/// Runs `policy` on `wl` at `load` for `ms` simulated milliseconds.
fn run(policy: &mut dyn SimPolicy, wl: &Workload, workers: usize, load: f64, ms: u64) -> u64 {
    let dur = Nanos::from_millis(ms);
    let gen = ArrivalGen::uniform(wl, workers, load, dur, SEED);
    digest(&simulate(
        policy,
        gen,
        wl.num_types(),
        dur,
        &SimConfig::new(workers),
    ))
}

fn built(p: &Policy, wl: &Workload, workers: usize, capacity: usize) -> Box<dyn SimPolicy> {
    policies::build(p, wl, workers, 500, capacity)
}

#[test]
fn engine_adapted_policies() {
    let (hb, eb, tpcc) = (
        Workload::high_bimodal(),
        Workload::extreme_bimodal(),
        Workload::tpcc(),
    );
    let d = |p: &Policy, wl: &Workload, w: usize, load: f64, ms: u64, cap: usize| {
        run(built(p, wl, w, cap).as_mut(), wl, w, load, ms)
    };
    check(&[
        (
            "d-FCFS",
            d(&Policy::DFcfs, &tpcc, 14, 0.8, 20, 0),
            0x0098254682d77f71,
        ),
        (
            "c-FCFS",
            d(&Policy::CFcfs, &eb, 14, 0.85, 4, 0),
            0xc20349ed99ee1178,
        ),
        (
            "c-FCFS 64 workers",
            d(&Policy::CFcfs, &tpcc, 64, 0.9, 4, 0),
            0x331ab929e0bef17d,
        ),
        (
            "c-FCFS bounded",
            d(&Policy::CFcfs, &hb, 4, 1.2, 20, 16),
            0xedf618dec35cafd0,
        ),
        (
            "FP",
            d(&Policy::FixedPriority, &tpcc, 14, 0.8, 20, 0),
            0x168adfd298ff1355,
        ),
        (
            "SJF",
            d(&Policy::Sjf, &hb, 14, 0.8, 40, 0),
            0x524e6b1f85dfba5e,
        ),
    ]);
}

#[test]
fn time_sharing() {
    let hb = Workload::high_bimodal();
    let single = TimeSharingParams::shinjuku_fig1();
    let multi = TimeSharingParams {
        quantum: Nanos::from_micros(5),
        overhead: Nanos::from_micros(1),
        propagation: Nanos::from_nanos(700),
        discipline: TsDiscipline::MultiQueue,
    };
    let d = |p: TimeSharingParams| {
        run(
            built(&Policy::TimeSharing(p), &hb, 8, 0).as_mut(),
            &hb,
            8,
            0.8,
            30,
        )
    };
    check(&[
        ("TS single queue", d(single), 0x2449f57dfcc982fc),
        ("TS multi queue", d(multi), 0x7cbfdaf917aee2a6),
    ]);
}

#[test]
fn darc_variants() {
    let (eb, tpcc) = (Workload::extreme_bimodal(), Workload::tpcc());
    check(&[
        (
            "DARC dynamic",
            run(built(&Policy::Darc, &eb, 14, 0).as_mut(), &eb, 14, 0.9, 4),
            0xe443d8787a6a7300,
        ),
        (
            "DARC dynamic bounded",
            run(
                built(&Policy::Darc, &tpcc, 14, 8).as_mut(),
                &tpcc,
                14,
                1.1,
                20,
            ),
            0x168803fd58d8653b,
        ),
        (
            "DARC hinted",
            run(&mut DarcSim::hinted(&tpcc, 14), &tpcc, 14, 0.9, 20),
            0x6fed7a0132859a7c,
        ),
        (
            "DARC static",
            run(
                built(&Policy::DarcStatic { reserved_short: 2 }, &eb, 14, 0).as_mut(),
                &eb,
                14,
                0.8,
                4,
            ),
            0x41e28e9071c4ae53,
        ),
        (
            "DARC random classifier",
            run(
                &mut DarcSim::random_classifier(&eb, 14, 500, 9),
                &eb,
                14,
                0.8,
                4,
            ),
            0xdf99667bdf8ba116,
        ),
    ]);
}

#[test]
fn simulator_only_policies() {
    let (hb, tpcc) = (Workload::high_bimodal(), Workload::tpcc());
    check(&[
        (
            "EDF",
            run(&mut Edf::new(&tpcc, 10.0), &tpcc, 14, 0.85, 20),
            0x8f614c6450e15750,
        ),
        (
            "DRR",
            run(
                &mut Drr::new(tpcc.num_types(), Nanos::from_micros(20)),
                &tpcc,
                14,
                0.85,
                20,
            ),
            0xbcdb2a0e09f586ca,
        ),
        (
            "CSCQ",
            run(&mut Cscq::new(2), &hb, 8, 0.8, 30),
            0x502101f2dc60afc2,
        ),
    ]);
}

#[test]
fn rack_sim() {
    let wl = Workload::new(
        "rack",
        vec![
            TypeMix::new("SHORT", 0.9, Dist::const_micros(1.0)),
            TypeMix::new("LONG", 0.1, Dist::const_micros(100.0)),
        ],
    );
    let mut rack = RackSim::new(
        build_rack_policy("po2c", 17).expect("po2c is a rack policy"),
        &Policy::Darc,
        3,
        4,
        2,
        &wl.hints(),
        500,
        0,
    );
    check(&[(
        "RackSim po2c/DARC",
        run(&mut rack, &wl, 12, 0.8, 20),
        0x6e5651d4b7210fdd,
    )]);
}

/// Arrivals on a coarse time grid with a few constant services: many
/// events fall on the same nanosecond, so the digest pins the engine's
/// tie order (time, then insertion order), not just its time order.
#[test]
fn tied_events_keep_insertion_order() {
    let lattice = || {
        (0..6_000u64).map(|i| Arrival {
            at: Nanos::from_nanos(2_000 * (i / 3)),
            ty: TypeId::new((i % 4 == 3) as u32),
            service: Nanos::from_nanos([500, 1_000, 1_500, 6_000][(i % 4) as usize]),
        })
    };
    let dur = Nanos::from_millis(4);
    let wl = Workload::high_bimodal();
    let d = |policy: &mut dyn SimPolicy| {
        digest(&simulate(policy, lattice(), 2, dur, &SimConfig::new(4)))
    };
    let ts = Policy::TimeSharing(TimeSharingParams {
        quantum: Nanos::from_nanos(1_000),
        overhead: Nanos::from_nanos(500),
        propagation: Nanos::ZERO,
        discipline: TsDiscipline::SingleQueue,
    });
    check(&[
        (
            "lattice c-FCFS",
            d(built(&Policy::CFcfs, &wl, 4, 0).as_mut()),
            0x95e28b3125e5485c,
        ),
        (
            "lattice TS",
            d(built(&ts, &wl, 4, 0).as_mut()),
            0x91c699d0e18ddf07,
        ),
        (
            "lattice DARC hinted",
            d(&mut DarcSim::hinted(&wl, 4)),
            0x8916b06889313034,
        ),
    ]);
}

#[test]
fn arrival_streams() {
    let phased = PhasedWorkload::new(
        PhasedWorkload::paper_fig7()
            .phases
            .into_iter()
            .map(|p| Phase {
                duration: Nanos::from_millis(3),
                ..p
            })
            .collect(),
    );
    let bursty = ArrivalGen::uniform(&Workload::tpcc(), 14, 0.7, Nanos::from_millis(30), SEED)
        .with_bursts(BurstModel {
            calm_mean: Nanos::from_micros(500),
            burst_mean: Nanos::from_micros(100),
            amplification: 3.0,
        });
    check(&[
        (
            "phased fig7 stream",
            stream_digest(ArrivalGen::phased(&phased, 14, SEED)),
            0x233b13f4fcbf01bd,
        ),
        (
            "bursty TPC-C stream",
            stream_digest(bursty),
            0x5aaefa6f826966fe,
        ),
    ]);
}
