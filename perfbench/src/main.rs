//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bimodal_loopback|pingpong_udp|paper_sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a report line (host record, counts, checks) and, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs an untraced half and
//! a traced half and reports the per-layer metrics. Exits 1 when an
//! output check fails.

mod host;
mod ledger;
mod live;
mod simbench;
mod stats;
mod trace;

use host::Host;
use live::{Live, Phase};
use stats::{json_str, median, metrics_json, num, quantile, Metrics};
use trace::{sorted_clamped, StageSamples};

/// The end-to-end metrics every workload reports under `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("short_p50_us", "us"),
    ("short_p90_us", "us"),
    ("long_p50_us", "us"),
    ("long_p90_us", "us"),
    ("goodput_rps", "1/s"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Tails printed on the report line but not bounded: on a 2-vCPU VM
/// they track the hypervisor's steal time more than the program (see
/// README.md).
const UNBOUNDED_TAILS: [&str; 3] = ["short_p99_us", "short_p999_us", "long_p99_us"];

/// The per-layer metrics every workload reports under `--trace 1`; a
/// layer the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("net.wire.encode_ns.p50", "ns"),
    ("net.wire.encode_ns.p99", "ns"),
    ("net.pool.alloc_ns.p50", "ns"),
    ("net.pool.alloc_ns.p99", "ns"),
    ("net.nic.send_ns.p50", "ns"),
    ("net.nic.send_ns.p99", "ns"),
    ("net.nic.recv_ns.p50", "ns"),
    ("net.nic.recv_ns.p99", "ns"),
    ("runtime.dispatcher.rx_us.p50", "us"),
    ("runtime.dispatcher.rx_us.p99", "us"),
    ("core.classifier.classify_ns.p50", "ns"),
    ("core.classifier.classify_ns.p99", "ns"),
    ("runtime.worker.tx_us.p50", "us"),
    ("runtime.worker.tx_us.p99", "us"),
    ("runtime.dispatcher.queue_us.short.p50", "us"),
    ("runtime.dispatcher.queue_us.short.p99", "us"),
    ("runtime.dispatcher.queue_us.long.p50", "us"),
    ("runtime.dispatcher.queue_us.long.p99", "us"),
    ("runtime.worker.service_us.short.p50", "us"),
    ("runtime.worker.service_us.short.p99", "us"),
    ("runtime.worker.service_us.long.p50", "us"),
    ("runtime.worker.service_us.long.p99", "us"),
    ("core.dispatch.reservation_updates", "count"),
    ("core.dispatch.guaranteed_short", "count"),
    ("core.dispatch.steals", "count"),
    ("core.dispatch.spillway_hits", "count"),
    ("core.dispatch.drops", "count"),
    ("core.dispatch.expired", "count"),
    ("runtime.dispatcher.tx_give_ups", "count"),
    ("net.udp.would_block", "count"),
    ("net.udp.tx_errors", "count"),
    ("net.udp.rx_allocs", "count"),
    ("runtime.worker.busy_frac", "fraction"),
    ("telemetry.sojourn_p99_us.short", "us"),
    ("telemetry.sojourn_p99_us.long", "us"),
    ("telemetry.events_overwritten", "count"),
    ("sim.policy_ns_per_req", "ns"),
    ("sim.workload_ns_per_req", "ns"),
    ("sim.engine_ns_per_req", "ns"),
    ("driver.lag_us.p50", "us"),
    ("driver.lag_us.p99", "us"),
    ("trace.clock_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.residual_us", "us"),
    ("trace.spans", "count"),
    ("host.cores", "count"),
    ("host.threads_needed", "count"),
    ("host.oversubscribed", "bool"),
    ("sim.requests", "count"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a workload run hands back for printing.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Extra `"key": value` pairs for the report line.
    report: Vec<(String, String)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    trace::init_clock();
    let steal0 = host::steal_s();
    let (mut out, threads) = match args.workload.as_str() {
        "bimodal_loopback" => (live_workload(Live::BimodalLoopback, &args), 2 + 2),
        "pingpong_udp" => (live_workload(Live::PingpongUdp, &args), 2 + 1),
        "paper_sim" => (sim_workload(&args), 1),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::process::exit(2);
        }
    };
    let host = Host::probe(threads);
    if args.trace {
        out.metrics.put("host.cores", host.cores as f64, "count");
        out.metrics
            .put("host.threads_needed", host.threads_needed as f64, "count");
        out.metrics.put(
            "host.oversubscribed",
            f64::from(u8::from(host.oversubscribed())),
            "bool",
        );
    }
    out.metrics.put("peak_rss_mb", host::peak_rss_mb(), "MiB");
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let tails: Vec<(&str, f64)> = UNBOUNDED_TAILS
        .iter()
        .filter_map(|&n| out.metrics.get(n).map(|v| (n, v)))
        .collect();
    let metrics = out.metrics.select(names);

    let mut report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}",
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
        host.json()
    );
    report.push_str(&format!(
        ", \"host_steal_s\": {}",
        num(host::steal_s() - steal0)
    ));
    for (name, v) in tails {
        report.push_str(&format!(", \"{name}\": {}", num(v)));
    }
    for (k, v) in &out.report {
        report.push_str(&format!(", {}: {v}", json_str(k)));
    }
    let errs: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
    report.push_str(&format!(", \"check_failures\": [{}]}}", errs.join(", ")));
    println!("{report}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics_json(&metrics)
    );
    if !out.errors.is_empty() {
        for e in &out.errors {
            eprintln!("perfbench: check failed: {e}");
        }
        std::process::exit(1);
    }
}

fn live_workload(kind: Live, args: &Args) -> Outcome {
    let setup_s = median(&live::setup_times(kind, SETUP_REPS));
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    let phases = if args.trace {
        let half = args.seconds / 2.0;
        vec![
            live::run(kind, args.seed, half, false),
            live::run(kind, args.seed, half, true),
        ]
    } else {
        vec![live::run(kind, args.seed, args.seconds, false)]
    };
    let e2e = live_e2e(&phases[0]);
    if args.trace {
        live_layers(&mut m, &phases[1], &e2e);
    } else {
        for metric in e2e.0 {
            m.put(metric.name, metric.value, metric.unit);
        }
    }
    zero_unexercised(&mut m);

    let mut out = Outcome {
        metrics: m,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        report: Vec::new(),
    };
    for (i, p) in phases.iter().enumerate() {
        let c = p.ledger.counts();
        out.attempted += c.attempted;
        out.failed += c.failed();
        out.errors.extend(p.errors.iter().cloned());
        let d = &p.report.dispatcher;
        out.report.push((
            format!("phase{i}"),
            format!(
                "{{\"traced\": {}, \"attempted\": {}, \"ok\": {}, \"dropped\": {}, \"rejected\": {}, \
                 \"timed_out\": {}, \"starved\": {}, \"late\": {}, \"server_received\": {}, \
                 \"server_handled\": {}, \"reservation_updates\": {}, \"guaranteed\": {:?}, \
                 \"window_s\": {}}}",
                p.stamps.is_some(),
                c.attempted,
                c.ok,
                c.dropped,
                c.rejected,
                c.timed_out,
                c.starved,
                c.late,
                d.received,
                p.report.handled(),
                d.reservation_updates,
                d.guaranteed,
                num(p.window_s)
            ),
        ));
    }
    out
}

/// End-to-end metrics of one untraced phase.
fn live_e2e(p: &Phase) -> Metrics {
    let mut m = Metrics::default();
    let short = p.ledger.latencies(0);
    let long = p.ledger.latencies((p.kind.num_types() - 1) as u8);
    let us = |v: &[u64], q: f64| quantile(v, q) as f64 / 1e3;
    m.put("short_p50_us", us(&short, 0.5), "us");
    m.put("short_p90_us", us(&short, 0.9), "us");
    m.put("short_p99_us", us(&short, 0.99), "us");
    m.put("short_p999_us", us(&short, 0.999), "us");
    m.put("long_p50_us", us(&long, 0.5), "us");
    m.put("long_p90_us", us(&long, 0.9), "us");
    m.put("long_p99_us", us(&long, 0.99), "us");
    m.put(
        "goodput_rps",
        p.ledger.measured_ok() as f64 / p.window_s,
        "1/s",
    );
    let c = p.ledger.counts();
    m.put(
        "ok_frac",
        (c.attempted - c.failed()) as f64 / c.attempted.max(1) as f64,
        "fraction",
    );
    m
}

/// Per-layer metrics of the traced phase `p`; `plain` holds the untraced
/// phase's end-to-end metrics, for the tracing overhead.
fn live_layers(m: &mut Metrics, p: &Phase, plain: &Metrics) {
    let stamps = p.stamps.as_ref().expect("a traced phase has span stamps");
    let s = StageSamples::collect(&p.spans, stamps, p.kind.num_types());
    let sorted = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    m.put_p50_p99("net.wire.encode_ns", &sorted(&s.encode_ns), 1.0, "ns");
    m.put_p50_p99("net.pool.alloc_ns", &sorted(&s.alloc_ns), 1.0, "ns");
    m.put_p50_p99("net.nic.send_ns", &sorted(&s.send_ns), 1.0, "ns");
    m.put_p50_p99("net.nic.recv_ns", &sorted(&s.recv_ns), 1.0, "ns");
    // Stage indices follow trace::STAGES.
    m.put_p50_p99("driver.lag_us", &sorted_clamped(&s.stages[0]), 1e3, "us");
    m.put_p50_p99(
        "runtime.dispatcher.rx_us",
        &sorted_clamped(&s.stages[2]),
        1e3,
        "us",
    );
    m.put_p50_p99(
        "core.classifier.classify_ns",
        &sorted_clamped(&s.stages[3]),
        1.0,
        "ns",
    );
    m.put_p50_p99(
        "runtime.worker.tx_us",
        &sorted_clamped(&s.stages[6]),
        1e3,
        "us",
    );
    let long = p.kind.num_types() - 1;
    for (label, ty) in [("short", 0), ("long", long)] {
        m.put_p50_p99(
            &format!("runtime.dispatcher.queue_us.{label}"),
            &sorted_clamped(&s.by_type[ty][4]),
            1e3,
            "us",
        );
        m.put_p50_p99(
            &format!("runtime.worker.service_us.{label}"),
            &sorted_clamped(&s.by_type[ty][5]),
            1e3,
            "us",
        );
    }

    let r = &p.report;
    let d = &r.dispatcher;
    let tel = &d.telemetry;
    m.put(
        "core.dispatch.reservation_updates",
        d.reservation_updates as f64,
        "count",
    );
    m.put(
        "core.dispatch.guaranteed_short",
        d.guaranteed.first().copied().unwrap_or(0) as f64,
        "count",
    );
    let sum = |f: fn(&persephone_telemetry::counters::TypeCountersSnap) -> u64| {
        tel.types.iter().map(|t| f(&t.counters)).sum::<u64>() as f64
    };
    m.put("core.dispatch.steals", sum(|c| c.steals), "count");
    m.put(
        "core.dispatch.spillway_hits",
        sum(|c| c.spillway_hits),
        "count",
    );
    m.put("core.dispatch.drops", d.dropped as f64, "count");
    m.put("core.dispatch.expired", d.expired as f64, "count");
    let worker_give_ups: u64 = r.workers.iter().map(|w| w.tx_give_ups).sum();
    m.put(
        "runtime.dispatcher.tx_give_ups",
        (d.tx_give_ups + worker_give_ups) as f64,
        "count",
    );
    let udp = p.client_udp.unwrap_or_default();
    m.put("net.udp.would_block", udp.tx_would_block as f64, "count");
    m.put("net.udp.tx_errors", udp.tx_errors as f64, "count");
    m.put("net.udp.rx_allocs", udp.rx_allocs as f64, "count");
    let busy: u64 = r.workers.iter().map(|w| w.busy.as_nanos()).sum();
    m.put(
        "runtime.worker.busy_frac",
        busy as f64 / (r.workers.len() as f64 * p.server_s * 1e9),
        "fraction",
    );
    for (label, ty) in [("short", 0), ("long", long)] {
        let p99 = tel.types.get(ty).map_or(0, |t| t.sojourn.quantile(0.99));
        m.put(
            format!("telemetry.sojourn_p99_us.{label}"),
            p99 as f64 / 1e3,
            "us",
        );
    }
    m.put(
        "telemetry.events_overwritten",
        tel.events.overwritten as f64,
        "count",
    );

    m.put("trace.clock_ns", host::clock_read_ns(), "ns");
    let traced = live_e2e(p);
    let (t50, u50) = (
        traced.get("short_p50_us").unwrap_or(0.0),
        plain.get("short_p50_us").unwrap_or(0.0),
    );
    m.put(
        "trace.overhead_pct",
        if u50 > 0.0 {
            (t50 - u50) / u50 * 100.0
        } else {
            0.0
        },
        "%",
    );
    m.put(
        "trace.residual_us",
        s.residual_us(p.ledger.ok_mean_ns()),
        "us",
    );
    m.put("trace.spans", s.len() as f64, "count");
}

/// Per-layer metrics a workload does not exercise read 0.
fn zero_unexercised(m: &mut Metrics) {
    for (name, unit) in PER_LAYER {
        if m.get(name).is_none() && !name.starts_with("host.") {
            m.put(name, 0.0, unit);
        }
    }
}

fn sim_workload(args: &Args) -> Outcome {
    use simbench::Timers;
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let p = simbench::prepare(args.seed);
            let dt = t0.elapsed().as_secs_f64();
            drop(p);
            dt
        })
        .collect();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup), "s");

    // The reference repetition, then as many more as the time allows;
    // under --trace 1 the second half of the time runs traced.
    let t_end = std::time::Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let t_half = std::time::Instant::now() + std::time::Duration::from_secs_f64(args.seconds / 2.0);
    let first = simbench::run_suite(args.seed, None);
    let mut errors = simbench::check(&first);
    let digest = first.digest();
    let (mut plain, mut traced) = (vec![first], Vec::new());
    let mut timers = Timers::default();
    while std::time::Instant::now() < t_end || plain.len() < 3 || (args.trace && traced.is_empty())
    {
        let trace_now = args.trace && std::time::Instant::now() >= t_half && plain.len() >= 3;
        let rep = simbench::run_suite(args.seed, trace_now.then_some(&mut timers));
        if rep.digest() != digest {
            errors.push(format!(
                "repetition digest {:016x} differs from the first run's {digest:016x}",
                rep.digest()
            ));
        }
        if trace_now {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    let rate = |reps: &[simbench::Rep]| {
        median(
            &reps
                .iter()
                .map(|r| r.completions() as f64 / r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    let ns_per_req = |reps: &[simbench::Rep]| {
        median(
            &reps
                .iter()
                .map(|r| r.wall_s * 1e9 / r.arrivals() as f64)
                .collect::<Vec<_>>(),
        )
    };

    // A simulator user's request is a figure point, or the whole suite:
    // its latency is the wall time the simulator takes to produce it.
    let mut point_ns: Vec<u64> = plain
        .iter()
        .flat_map(|r| r.points.iter().map(|p| (p.wall_s * 1e9) as u64))
        .collect();
    point_ns.sort_unstable();
    let mut suite_ns: Vec<u64> = plain.iter().map(|r| (r.wall_s * 1e9) as u64).collect();
    suite_ns.sort_unstable();
    let us = |v: &[u64], q: f64| quantile(v, q) as f64 / 1e3;
    m.put("short_p50_us", us(&point_ns, 0.5), "us");
    m.put("short_p90_us", us(&point_ns, 0.9), "us");
    m.put("short_p99_us", us(&point_ns, 0.99), "us");
    m.put("short_p999_us", us(&point_ns, 0.999), "us");
    m.put("long_p50_us", us(&suite_ns, 0.5), "us");
    m.put("long_p90_us", us(&suite_ns, 0.9), "us");
    m.put("long_p99_us", us(&suite_ns, 0.99), "us");
    m.put("goodput_rps", rate(&plain), "1/s");
    let (arrivals, completions): (u64, u64) = plain
        .iter()
        .chain(&traced)
        .fold((0, 0), |(a, c), r| (a + r.arrivals(), c + r.completions()));
    m.put("ok_frac", completions as f64 / arrivals as f64, "fraction");
    m.put("sim.requests", plain[0].arrivals() as f64, "count");

    if args.trace {
        let clock = host::clock_read_ns();
        m.put("trace.clock_ns", clock, "ns");
        let per_req = |ns: u64, sampled: u64, calls: u64| {
            // Each sampled span also holds one clock read; take it out.
            let self_ns = (ns as f64 / sampled.max(1) as f64 - clock).max(0.0);
            self_ns * calls as f64
        };
        let reqs: u64 = traced.iter().map(|r| r.arrivals()).sum();
        let policy =
            per_req(timers.policy_ns, timers.policy_sampled, timers.policy_calls) / reqs as f64;
        let workload = per_req(timers.gen_ns, timers.gen_sampled, timers.gen_calls) / reqs as f64;
        let untraced = ns_per_req(&plain);
        m.put("sim.policy_ns_per_req", policy, "ns");
        m.put("sim.workload_ns_per_req", workload, "ns");
        m.put(
            "sim.engine_ns_per_req",
            (untraced - policy - workload).max(0.0),
            "ns",
        );
        m.put(
            "trace.overhead_pct",
            (ns_per_req(&traced) - untraced) / untraced * 100.0,
            "%",
        );
        // The engine share is the remainder, so the stages add up to the
        // untraced time per request by construction.
        m.put("trace.residual_us", 0.0, "us");
        m.put(
            "trace.spans",
            (timers.policy_sampled + timers.gen_sampled) as f64,
            "count",
        );
    }
    zero_unexercised(&mut m);

    let mut report = vec![
        ("suite_digest".to_string(), format!("\"{digest:016x}\"")),
        (
            "repetitions".to_string(),
            format!(
                "{{\"untraced\": {}, \"traced\": {}}}",
                plain.len(),
                traced.len()
            ),
        ),
    ];
    let points: Vec<String> = plain[0]
        .points
        .iter()
        .map(|p| {
            let t = &p.summary.per_type;
            format!(
                "{{\"mix\": {}, \"policy\": {}, \"load\": {}, \"arrivals\": {}, \"digest\": \"{:016x}\", \
                 \"short_p999_slowdown\": {}, \"short_p999_us\": {}, \"long_p99_us\": {}}}",
                json_str(&p.mix),
                json_str(&p.policy),
                num(p.load),
                p.arrivals,
                p.digest(),
                num(t[0].slowdown.p999),
                num(t[0].latency_ns.p999 / 1e3),
                num(t[t.len() - 1].latency_ns.p99 / 1e3)
            )
        })
        .collect();
    report.push(("points".to_string(), format!("[{}]", points.join(", "))));
    Outcome {
        metrics: m,
        attempted: arrivals,
        failed: arrivals - completions,
        errors,
        report,
    }
}
