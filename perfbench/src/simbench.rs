//! `paper_sim`: the discrete-event simulator, with no threads.
//!
//! One suite is DARC and c-FCFS on the paper's High Bimodal, Extreme
//! Bimodal and TPC-C mixes with 14 workers, at a few loads — the runs
//! behind Figs. 3, 5 and 6. DARC runs through the real `DarcEngine`, so
//! `core::dispatch`, `profile` and `reserve` do most of the work here.
//!
//! The suite is a function of the seed. The run executes it repeatedly
//! for the measured time; every repetition must reproduce the first
//! one's digest, and throughput is the median over repetitions.

use std::time::Instant;

use persephone_core::policy::Policy;
use persephone_core::time::Nanos;
use persephone_sim::engine::{simulate, Core, Event, SimConfig, SimPolicy};
use persephone_sim::metrics::RunSummary;
use persephone_sim::policies;
use persephone_sim::workload::{ArrivalGen, Workload};

use crate::stats::fnv1a;

pub const WORKERS: usize = 14;
pub const LOADS: [f64; 3] = [0.5, 0.7, 0.9];
/// Each point simulates this many arrivals' worth of time at load 1.0.
const ARRIVALS_AT_PEAK: f64 = 75_000.0;
/// DARC's profiling window (completions): closes several times inside
/// the excluded first tenth of every point.
const DARC_WINDOW: u64 = 2_000;
/// One policy call (or generator draw) in this many is timed in the
/// traced run: a clock read costs more than an engine cycle.
pub const SAMPLE_EVERY: u64 = 64;
/// Fraction of each point's arrivals discarded as warm-up.
pub const WARMUP_FRACTION: f64 = 0.1;

pub fn mixes() -> [Workload; 3] {
    [
        Workload::high_bimodal(),
        Workload::extreme_bimodal(),
        Workload::tpcc(),
    ]
}

pub fn policies() -> [Policy; 2] {
    [Policy::Darc, Policy::CFcfs]
}

/// One simulated point's outputs.
pub struct Point {
    pub mix: String,
    pub policy: String,
    pub load: f64,
    pub arrivals: u64,
    pub completions: u64,
    pub summary: RunSummary,
    /// Wall seconds the simulator took for this point.
    pub wall_s: f64,
}

impl Point {
    /// Canonical text of every decision-dependent output, for digests.
    fn canonical(&self) -> String {
        let mut s = format!(
            "{}|{}|{}|{}|{}|{}",
            self.mix, self.policy, self.load, self.arrivals, self.completions, self.summary.dropped
        );
        for t in &self.summary.per_type {
            let (l, sd) = (&t.latency_ns, &t.slowdown);
            s.push_str(&format!(
                "|{} {} {} {} {} {} {}",
                l.count, l.p50, l.p99, l.p999, l.max, l.mean, sd.p999
            ));
        }
        s
    }

    pub fn digest(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }
}

/// Sampled timers for the traced run.
#[derive(Default, Clone, Copy)]
pub struct Timers {
    pub policy_calls: u64,
    pub policy_sampled: u64,
    pub policy_ns: u64,
    pub gen_calls: u64,
    pub gen_sampled: u64,
    pub gen_ns: u64,
}

/// Times a sample of the wrapped policy's `handle` calls.
struct TimedPolicy<'a> {
    inner: &'a mut dyn SimPolicy,
    t: &'a mut Timers,
}

impl SimPolicy for TimedPolicy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        self.t.policy_calls += 1;
        if self.t.policy_calls.is_multiple_of(SAMPLE_EVERY) {
            let t0 = Instant::now();
            self.inner.handle(ev, core);
            self.t.policy_ns += t0.elapsed().as_nanos() as u64;
            self.t.policy_sampled += 1;
        } else {
            self.inner.handle(ev, core);
        }
    }
}

/// Everything one point needs before it runs: the policy object and the
/// seeded arrival generator.
pub struct Prepared {
    mix: Workload,
    policy: Box<dyn SimPolicy>,
    gen: ArrivalGen,
    duration: Nanos,
    load: f64,
}

/// Builds every point of the suite (the set-up the run times).
pub fn prepare(seed: u64) -> Vec<Prepared> {
    let mut out = Vec::new();
    let mut i = 0u64;
    for mix in mixes() {
        let duration = Nanos::from_nanos((ARRIVALS_AT_PEAK / mix.peak_rate(WORKERS) * 1e9) as u64);
        for policy in policies() {
            for load in LOADS {
                let p = policies::build(&policy, &mix, WORKERS, DARC_WINDOW, 0);
                let gen = ArrivalGen::uniform(&mix, WORKERS, load, duration, seed.wrapping_add(i));
                i += 1;
                out.push(Prepared {
                    mix: mix.clone(),
                    policy: p,
                    gen,
                    duration,
                    load,
                });
            }
        }
    }
    out
}

/// Runs one prepared point; with `timers`, samples the policy and the
/// generator.
pub fn run(p: Prepared, timers: Option<&mut Timers>) -> Point {
    let Prepared {
        mix,
        mut policy,
        mut gen,
        duration,
        load,
    } = p;
    let cfg = SimConfig {
        warmup_fraction: WARMUP_FRACTION,
        ..SimConfig::new(WORKERS)
    };
    let mut arrivals = 0u64;
    let nt = mix.num_types();
    let t0 = Instant::now();
    let out = match timers {
        None => {
            let g = std::iter::from_fn(|| {
                let a = gen.next();
                arrivals += u64::from(a.is_some());
                a
            });
            simulate(policy.as_mut(), g, nt, duration, &cfg)
        }
        Some(t) => {
            let mut gen_t = Timers::default();
            let g = std::iter::from_fn(|| {
                gen_t.gen_calls += 1;
                let a = if gen_t.gen_calls.is_multiple_of(SAMPLE_EVERY) {
                    let t0 = Instant::now();
                    let a = gen.next();
                    gen_t.gen_ns += t0.elapsed().as_nanos() as u64;
                    gen_t.gen_sampled += 1;
                    a
                } else {
                    gen.next()
                };
                arrivals += u64::from(a.is_some());
                a
            });
            let mut timed = TimedPolicy {
                inner: policy.as_mut(),
                t,
            };
            let out = simulate(&mut timed, g, nt, duration, &cfg);
            t.gen_calls += gen_t.gen_calls;
            t.gen_sampled += gen_t.gen_sampled;
            t.gen_ns += gen_t.gen_ns;
            out
        }
    };
    Point {
        mix: mix.name.clone(),
        policy: policy.name(),
        load,
        arrivals,
        completions: out.completions,
        summary: out.summary,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// One repetition of the suite: its points and wall seconds.
pub struct Rep {
    pub points: Vec<Point>,
    pub wall_s: f64,
}

impl Rep {
    pub fn arrivals(&self) -> u64 {
        self.points.iter().map(|p| p.arrivals).sum()
    }

    pub fn completions(&self) -> u64 {
        self.points.iter().map(|p| p.completions).sum()
    }

    pub fn digest(&self) -> u64 {
        let all: Vec<u8> = self
            .points
            .iter()
            .flat_map(|p| p.digest().to_le_bytes())
            .collect();
        fnv1a(&all)
    }

    pub fn point(&self, mix: &str, policy: &str, load: f64) -> &Point {
        self.points
            .iter()
            .find(|p| p.mix == mix && p.policy == policy && p.load == load)
            .expect("the suite has every (mix, policy, load) point")
    }
}

pub fn run_suite(seed: u64, mut timers: Option<&mut Timers>) -> Rep {
    let prepared = prepare(seed);
    let t0 = Instant::now();
    let points = prepared
        .into_iter()
        .map(|p| run(p, timers.as_deref_mut()))
        .collect();
    Rep {
        points,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// The suite's output checks.
pub fn check(rep: &Rep) -> Vec<String> {
    let mut errors = Vec::new();
    for p in &rep.points {
        if p.completions + p.summary.dropped != p.arrivals {
            errors.push(format!(
                "{} {} load {}: {} arrivals, {} completed + {} dropped",
                p.mix, p.policy, p.load, p.arrivals, p.completions, p.summary.dropped
            ));
        }
    }
    let top = LOADS[LOADS.len() - 1];
    for mix in mixes() {
        let darc = rep.point(&mix.name, "DARC", top).summary.per_type[0]
            .slowdown
            .p999;
        let cfcfs = rep.point(&mix.name, "c-FCFS", top).summary.per_type[0]
            .slowdown
            .p999;
        if darc > cfcfs {
            errors.push(format!(
                "{} load {top}: DARC short p99.9 slowdown {darc} exceeds c-FCFS's {cfcfs}",
                mix.name
            ));
        }
    }
    errors
}
