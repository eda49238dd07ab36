//! The typed scenario model and its validating parser.
//!
//! A scenario is a declarative TOML description of one experiment:
//! request-type mix (optionally Zipf-skewed), per-type service
//! distributions, open-loop arrival process (Poisson, optionally
//! MMPP-bursty), a script of time-varying phases (load ramps, service
//! swaps, ratio shifts — generalizing the paper's §5.5 Figure 7 script),
//! scheduling policy/policies, engine tuning, and fault injection.
//!
//! Parsing is two-layered: the raw [`crate::value::Table`] (where
//! [`crate::env`] overrides apply) is lowered here into [`ScenarioSpec`]
//! with *actionable* errors — every failure names the offending path,
//! what was found, and what would be accepted. Unknown keys are rejected
//! so a typo (`worker = 14`) cannot silently run with a default.

use std::fmt;

use persephone_core::dist::Dist;
use persephone_core::policy::Policy;
use persephone_core::time::Nanos;
use persephone_sim::workload::{
    Arrival, ArrivalGen, BurstModel, Phase, PhasedWorkload, TypeMix, Workload,
};

use crate::value::{Table, Value};

/// A spec-validation failure: the TOML path and what to fix.
#[derive(Debug)]
pub struct SpecError {
    /// Dotted path of the offending key (`phases[1].load`).
    pub path: String,
    /// What went wrong and what is accepted.
    pub msg: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "scenario spec error: {}", self.msg)
        } else {
            write!(f, "scenario spec error at `{}`: {}", self.path, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

fn err(path: impl Into<String>, msg: impl Into<String>) -> SpecError {
    SpecError {
        path: path.into(),
        msg: msg.into(),
    }
}

/// One request type: display name, traffic share, service distribution.
#[derive(Clone, Debug)]
pub struct TypeSpec {
    /// Display name ("SHORT", "Payment", ...).
    pub name: String,
    /// Fraction of traffic, in `(0, 1]`. Overwritten when `zipf` is set.
    pub ratio: f64,
    /// Service-time distribution.
    pub service: Dist,
}

/// One phase of the time-varying script.
#[derive(Clone, Debug)]
pub struct PhaseSpec {
    /// Phase length, milliseconds of scenario time.
    pub duration_ms: f64,
    /// Offered load (fraction of peak); defaults to the top-level `load`.
    pub load: Option<f64>,
    /// Per-type ratio overrides for this phase (same arity as `types`).
    pub ratios: Option<Vec<f64>>,
    /// Per-type constant service-time overrides, microseconds.
    pub service_us: Option<Vec<f64>>,
}

/// The arrival process.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalSpec {
    /// Plain open-loop Poisson (the paper's §5.1 client).
    Poisson,
    /// Poisson modulated by a two-state MMPP burst model.
    Bursty {
        /// Mean dwell in the calm state, ms.
        calm_ms: f64,
        /// Mean dwell in the burst state, ms.
        burst_ms: f64,
        /// Rate multiplier while bursting (> 1).
        amplification: f64,
    },
}

/// Engine tuning shared by both backends.
#[derive(Clone, Debug)]
pub struct EngineTuning {
    /// DARC profiling-window size (completions per reservation update).
    pub darc_min_samples: u64,
    /// Per-type queue capacity; 0 = unbounded.
    pub queue_capacity: usize,
}

/// A scripted worker stall (reuses `persephone-runtime`'s `FaultPlan`).
#[derive(Clone, Debug)]
pub struct StallSpec {
    /// Global worker index to stall.
    pub worker: usize,
    /// Fire after this many requests handled by that worker.
    pub after_requests: u64,
    /// Stall length, milliseconds of wall time.
    pub stall_ms: f64,
}

/// Fault injection: NIC drops and worker stalls.
#[derive(Clone, Debug, Default)]
pub struct FaultsSpec {
    /// Drop every n-th client→server packet (0 = off); maps onto
    /// `NicFaultPlan::drop_every`.
    pub nic_drop_every: u64,
    /// Worker stalls (threaded backend only).
    pub stalls: Vec<StallSpec>,
}

/// Simulator-only tuning.
#[derive(Clone, Debug)]
pub struct SimTuning {
    /// Fraction of the run discarded as warm-up.
    pub warmup_fraction: f64,
    /// Reporting-only network RTT, microseconds.
    pub rtt_us: f64,
}

/// The rack tier: replicate the server N times behind inter-server
/// steering policies (crate `persephone-rack`).
///
/// When present, each backend additionally runs a 1-server baseline plus
/// one N-server rack run per steering policy, with the arrival rate
/// scaled to the rack's total capacity — so per-server offered load is
/// held constant while servers are added (the RackSched scaling claim).
#[derive(Clone, Debug)]
pub struct RackSpec {
    /// Servers in the rack (each gets `workers` workers, `shards`
    /// dispatcher shards, and its own engine).
    pub servers: usize,
    /// Steering policies to run; each becomes one rack run per backend.
    pub policies: Vec<String>,
}

/// The in-process hot-path microbench tier (see [`crate::hotpath`]).
///
/// When present, the report grows a `hotpath` section: per-policy
/// enqueue → poll → complete nanoseconds, the DARC idle-poll and
/// poll+complete decision costs, and a 1..=`shards_max` shard-scaling
/// curve. All wall-clock, machine-dependent — kept outside the
/// `deterministic` section by construction.
#[derive(Clone, Debug)]
pub struct HotpathSpec {
    /// Dispatch cycles per timed repetition.
    pub cycles: u64,
    /// Repetitions per metric; the fastest is reported.
    pub reps: usize,
    /// Largest shard count on the scaling curve (clamped to `workers`).
    pub shards_max: usize,
    /// Reference numbers echoed into the report (policy name → ns/op),
    /// recorded at an earlier commit on the same reference host — the
    /// "before" half of the committed before/after trajectory.
    pub baseline_ns: Vec<(String, f64)>,
}

/// Threaded-runtime-only tuning.
#[derive(Clone, Debug)]
pub struct ThreadedTuning {
    /// Uniform time compression: arrival times *and* service times are
    /// multiplied by this, so utilization (and thus slowdown) is
    /// preserved while a long simulated script replays in bounded wall
    /// time.
    pub time_scale: f64,
    /// NIC ring depth per queue.
    pub ring_depth: usize,
    /// Client packet-pool size.
    pub pool_buffers: usize,
    /// Packet buffer size, bytes.
    pub buf_size: usize,
    /// Post-run drain grace, milliseconds: a single-server run stops
    /// draining once no response has arrived for this long, a rack run
    /// this long after its last send.
    pub grace_ms: u64,
    /// Per-request spin clamp, milliseconds (guards a corrupt payload).
    pub max_service_ms: f64,
    /// RX steering: `"rss"` or `"by_type"` (round-robin types → queues).
    pub steering: String,
    /// Wire between client and server: `"loopback"` (in-process rings)
    /// or `"udp"` (one real 127.0.0.1 socket per shard).
    pub transport: String,
    /// How workers burn the payload-carried service demand: `"spin"`
    /// (calibrated busy loop — exact, but costs real CPU) or `"sleep"`
    /// (OS sleep — occupancy without CPU, for many-server rack scenarios
    /// on small machines; needs service times ≳ hundreds of µs).
    pub handler: String,
    /// Idle park per unproductive loop iteration, microseconds; `0.0`
    /// (the default) busy-yields. Applied to every server's dispatchers
    /// and workers ([`ServerBuilder::idle_backoff`]) and to the rack
    /// ingress. Set it (50–100µs) whenever the scenario runs more
    /// threads than the host has cores and service times are long enough
    /// to hide the wake-up latency — otherwise idle threads drown the
    /// busy ones in scheduler noise and the tail measurements are noise,
    /// not scheduling.
    ///
    /// [`ServerBuilder::idle_backoff`]: persephone_runtime::ServerBuilder::idle_backoff
    pub idle_backoff_us: f64,
}

/// A fully validated scenario.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Scenario name; the report lands in `BENCH_<name>.json`.
    pub name: String,
    /// Free-form description, carried into the report.
    pub description: String,
    /// Master seed for every RNG stream.
    pub seed: u64,
    /// Worker cores.
    pub workers: usize,
    /// Dispatcher shards (threaded backend; the simulator is unsharded).
    pub shards: usize,
    /// Policies to run; each becomes one entry in the report's `runs`.
    pub policies: Vec<Policy>,
    /// Default offered load (fraction of peak service rate).
    pub load: f64,
    /// Zipf popularity exponent: when set, type ratios are replaced by a
    /// Zipf(s) distribution over the declared type order.
    pub zipf: Option<f64>,
    /// The request types.
    pub types: Vec<TypeSpec>,
    /// The phase script (always at least one phase after validation).
    pub phases: Vec<PhaseSpec>,
    /// Arrival process.
    pub arrival: ArrivalSpec,
    /// Engine tuning.
    pub engine: EngineTuning,
    /// Fault injection.
    pub faults: FaultsSpec,
    /// Simulator tuning.
    pub sim: SimTuning,
    /// Threaded-runtime tuning.
    pub threaded: ThreadedTuning,
    /// Optional rack tier (N servers behind inter-server steering).
    pub rack: Option<RackSpec>,
    /// Optional hot-path microbench tier.
    pub hotpath: Option<HotpathSpec>,
}

/// Zipf weights over ranks 1..=n with exponent `s`, normalized to sum 1.
pub fn zipf_ratios(n: usize, s: f64) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

// ---------------------------------------------------------------------------
// Parsing helpers
// ---------------------------------------------------------------------------

/// A table plus the dotted path that reached it, for error reporting.
struct Ctx<'a> {
    table: &'a Table,
    path: String,
}

impl<'a> Ctx<'a> {
    fn at(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{}", self.path, key)
        }
    }

    /// Rejects keys outside `allowed`, listing what is accepted.
    fn known_keys(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (k, _) in self.table.entries() {
            if !allowed.contains(&k.as_str()) {
                return Err(err(
                    self.at(k),
                    format!("unknown key (accepted here: {})", allowed.join(", ")),
                ));
            }
        }
        Ok(())
    }

    fn opt_f64(&self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v.as_f64().map(Some).ok_or_else(|| {
                err(
                    self.at(key),
                    format!("expected a number, found {}", v.kind()),
                )
            }),
        }
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        Ok(self.opt_f64(key)?.unwrap_or(default))
    }

    fn req_f64(&self, key: &str) -> Result<f64, SpecError> {
        self.opt_f64(key)?
            .ok_or_else(|| err(self.at(key), "required number is missing"))
    }

    fn opt_u64(&self, key: &str) -> Result<Option<u64>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                err(
                    self.at(key),
                    format!("expected a non-negative integer, found {}", v.kind()),
                )
            }),
        }
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, SpecError> {
        Ok(self.opt_u64(key)?.unwrap_or(default))
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, SpecError> {
        Ok(self.u64_or(key, default as u64)? as usize)
    }

    fn opt_str(&self, key: &str) -> Result<Option<&'a str>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(v) => v.as_str().map(Some).ok_or_else(|| {
                err(
                    self.at(key),
                    format!("expected a string, found {}", v.kind()),
                )
            }),
        }
    }

    fn req_str(&self, key: &str) -> Result<&'a str, SpecError> {
        self.opt_str(key)?
            .ok_or_else(|| err(self.at(key), "required string is missing"))
    }

    fn opt_str_array(&self, key: &str) -> Result<Vec<String>, SpecError> {
        match self.table.get(key) {
            None => Ok(Vec::new()),
            Some(Value::Array(items)) => items
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let path = format!("{}[{i}]", self.at(key));
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| err(path, format!("expected a string, found {}", v.kind())))
                })
                .collect(),
            Some(v) => Err(err(
                self.at(key),
                format!("expected an array of strings, found {}", v.kind()),
            )),
        }
    }

    fn opt_table(&self, key: &str) -> Result<Option<Ctx<'a>>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Table(t)) => Ok(Some(Ctx {
                table: t,
                path: self.at(key),
            })),
            Some(v) => Err(err(
                self.at(key),
                format!("expected a table, found {}", v.kind()),
            )),
        }
    }

    /// An array of tables (`[[key]]`), as contexts.
    fn table_array(&self, key: &str) -> Result<Vec<Ctx<'a>>, SpecError> {
        match self.table.get(key) {
            None => Ok(Vec::new()),
            Some(Value::Array(items)) => items
                .iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Value::Table(t) => Ok(Ctx {
                        table: t,
                        path: format!("{}[{i}]", self.at(key)),
                    }),
                    other => Err(err(
                        format!("{}[{i}]", self.at(key)),
                        format!("expected a table, found {}", other.kind()),
                    )),
                })
                .collect(),
            Some(v) => Err(err(
                self.at(key),
                format!("expected an array of tables, found {}", v.kind()),
            )),
        }
    }

    fn opt_f64_array(&self, key: &str) -> Result<Option<Vec<f64>>, SpecError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Array(items)) => items
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    v.as_f64().ok_or_else(|| {
                        err(
                            format!("{}[{i}]", self.at(key)),
                            format!("expected a number, found {}", v.kind()),
                        )
                    })
                })
                .collect::<Result<Vec<f64>, _>>()
                .map(Some),
            Some(v) => Err(err(
                self.at(key),
                format!("expected an array of numbers, found {}", v.kind()),
            )),
        }
    }
}

fn parse_policy(s: &str, path: &str) -> Result<Policy, SpecError> {
    let lower = s.to_ascii_lowercase();
    if let Some(rest) = lower.strip_prefix("darc-static") {
        let reserved_short = match rest.strip_prefix(':') {
            None if rest.is_empty() => 1,
            Some(n) => n.parse().map_err(|_| {
                err(
                    path,
                    format!("`{s}`: expected darc-static:<cores>, e.g. darc-static:2"),
                )
            })?,
            _ => {
                return Err(err(
                    path,
                    format!("unknown policy `{s}` (did you mean darc-static:<cores>?)"),
                ))
            }
        };
        return Ok(Policy::DarcStatic { reserved_short });
    }
    match lower.as_str() {
        "darc" => Ok(Policy::Darc),
        "cfcfs" | "c-fcfs" => Ok(Policy::CFcfs),
        "dfcfs" | "d-fcfs" => Ok(Policy::DFcfs),
        "sjf" => Ok(Policy::Sjf),
        "fp" | "fixed-priority" => Ok(Policy::FixedPriority),
        _ => Err(err(
            path,
            format!(
                "unknown policy `{s}` (accepted: darc, darc-static[:<cores>], cfcfs, dfcfs, sjf, fp)"
            ),
        )),
    }
}

fn parse_service(ctx: &Ctx<'_>) -> Result<Dist, SpecError> {
    let dist = ctx.req_str("dist")?;
    let us = |v: f64| Nanos::from_micros_f64(v);
    match dist {
        "constant" => {
            ctx.known_keys(&["dist", "mean_us"])?;
            Ok(Dist::Constant(us(ctx.req_f64("mean_us")?)))
        }
        "exponential" => {
            ctx.known_keys(&["dist", "mean_us"])?;
            Ok(Dist::Exponential(us(ctx.req_f64("mean_us")?)))
        }
        "uniform" => {
            ctx.known_keys(&["dist", "low_us", "high_us"])?;
            let lo = ctx.req_f64("low_us")?;
            let hi = ctx.req_f64("high_us")?;
            if hi <= lo {
                return Err(err(
                    ctx.at("high_us"),
                    format!("high_us ({hi}) must exceed low_us ({lo})"),
                ));
            }
            Ok(Dist::Uniform(us(lo), us(hi)))
        }
        "lognormal" => {
            ctx.known_keys(&["dist", "mean_us", "sigma"])?;
            Ok(Dist::LogNormal {
                mean: us(ctx.req_f64("mean_us")?),
                sigma: ctx.req_f64("sigma")?,
            })
        }
        other => Err(err(
            ctx.at("dist"),
            format!(
                "unknown distribution `{other}` (accepted: constant, exponential, uniform, lognormal)"
            ),
        )),
    }
}

impl ScenarioSpec {
    /// Lowers a raw TOML table (post env-overrides) into a validated spec.
    pub fn from_table(table: &Table) -> Result<ScenarioSpec, SpecError> {
        let root = Ctx {
            table,
            path: String::new(),
        };
        root.known_keys(&[
            "name",
            "description",
            "seed",
            "workers",
            "shards",
            "policy",
            "policies",
            "load",
            "duration_ms",
            "zipf",
            "types",
            "phases",
            "arrival",
            "engine",
            "faults",
            "sim",
            "threaded",
            "rack",
            "hotpath",
        ])?;

        let name = root.req_str("name")?.to_string();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(err(
                "name",
                format!("`{name}` must be non-empty [A-Za-z0-9_-] (it names BENCH_<name>.json)"),
            ));
        }
        let description = root.opt_str("description")?.unwrap_or("").to_string();
        let seed = root.u64_or("seed", 1)?;
        let workers = root.usize_or("workers", 14)?;
        let shards = root.usize_or("shards", 1)?;
        if workers == 0 {
            return Err(err("workers", "must be at least 1"));
        }
        if shards == 0 || shards > workers {
            return Err(err(
                "shards",
                format!("must be in 1..={workers} (one dispatcher shard per group of workers)"),
            ));
        }

        let policies = match (root.opt_str("policy")?, root.table.get("policies")) {
            (Some(_), Some(_)) => {
                return Err(err(
                    "policies",
                    "set either `policy` or `policies`, not both",
                ))
            }
            (Some(p), None) => vec![parse_policy(p, "policy")?],
            (None, Some(Value::Array(items))) => {
                if items.is_empty() {
                    return Err(err("policies", "must list at least one policy"));
                }
                items
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let path = format!("policies[{i}]");
                        let s = v.as_str().ok_or_else(|| {
                            err(&path, format!("expected a string, found {}", v.kind()))
                        })?;
                        parse_policy(s, &path)
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            (None, Some(v)) => {
                return Err(err(
                    "policies",
                    format!("expected an array of strings, found {}", v.kind()),
                ))
            }
            (None, None) => vec![Policy::Darc],
        };

        let load = root.f64_or("load", 0.7)?;
        if !(load > 0.0 && load <= 2.0) {
            return Err(err(
                "load",
                format!("{load} is outside (0, 2] (fraction of peak service rate)"),
            ));
        }

        let zipf = root.opt_f64("zipf")?;
        if let Some(s) = zipf {
            if s <= 0.0 {
                return Err(err("zipf", format!("exponent {s} must be positive")));
            }
        }

        let type_ctxs = root.table_array("types")?;
        if type_ctxs.is_empty() {
            return Err(err(
                "types",
                "at least one [[types]] entry is required (name, ratio, service)",
            ));
        }
        let mut types = Vec::with_capacity(type_ctxs.len());
        for ctx in &type_ctxs {
            ctx.known_keys(&["name", "ratio", "service"])?;
            let ty_name = ctx.req_str("name")?.to_string();
            let ratio = if zipf.is_some() {
                // Zipf overwrites ratios; accept-and-ignore would hide a
                // conflicting intent, so reject the combination.
                if ctx.table.contains("ratio") {
                    return Err(err(
                        ctx.at("ratio"),
                        "remove per-type ratios when `zipf` is set (zipf assigns them by rank)",
                    ));
                }
                0.0
            } else {
                let r = ctx.req_f64("ratio")?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(err(ctx.at("ratio"), format!("{r} is outside [0, 1]")));
                }
                r
            };
            let service_ctx = ctx.opt_table("service")?.ok_or_else(|| {
                err(
                    ctx.at("service"),
                    "required table is missing, e.g. service = { dist = \"constant\", mean_us = 1.0 }",
                )
            })?;
            let service = parse_service(&service_ctx)?;
            types.push(TypeSpec {
                name: ty_name,
                ratio,
                service,
            });
        }
        if let Some(s) = zipf {
            for (ty, r) in types.iter_mut().zip(zipf_ratios(type_ctxs.len(), s)) {
                ty.ratio = r;
            }
        } else {
            let total: f64 = types.iter().map(|t| t.ratio).sum();
            if (total - 1.0).abs() >= 0.01 {
                return Err(err(
                    "types",
                    format!("type ratios must sum to 1 (±1%), got {total}"),
                ));
            }
        }

        let phase_ctxs = root.table_array("phases")?;
        let phases = if phase_ctxs.is_empty() {
            let duration_ms = root.opt_f64("duration_ms")?.ok_or_else(|| {
                err(
                    "duration_ms",
                    "required when no [[phases]] are declared (single-phase run length)",
                )
            })?;
            if duration_ms <= 0.0 {
                return Err(err(
                    "duration_ms",
                    format!("{duration_ms} must be positive"),
                ));
            }
            vec![PhaseSpec {
                duration_ms,
                load: None,
                ratios: None,
                service_us: None,
            }]
        } else {
            if root.table.contains("duration_ms") {
                return Err(err(
                    "duration_ms",
                    "remove the top-level duration when [[phases]] declare their own",
                ));
            }
            let mut out = Vec::with_capacity(phase_ctxs.len());
            for ctx in &phase_ctxs {
                ctx.known_keys(&["duration_ms", "load", "ratios", "service_us"])?;
                let duration_ms = ctx.req_f64("duration_ms")?;
                if duration_ms <= 0.0 {
                    return Err(err(
                        ctx.at("duration_ms"),
                        format!("{duration_ms} must be positive"),
                    ));
                }
                let p_load = ctx.opt_f64("load")?;
                if let Some(l) = p_load {
                    if !(l > 0.0 && l <= 2.0) {
                        return Err(err(ctx.at("load"), format!("{l} is outside (0, 2]")));
                    }
                }
                let ratios = ctx.opt_f64_array("ratios")?;
                if let Some(rs) = &ratios {
                    if rs.len() != types.len() {
                        return Err(err(
                            ctx.at("ratios"),
                            format!("{} entries for {} types", rs.len(), types.len()),
                        ));
                    }
                    let total: f64 = rs.iter().sum();
                    if (total - 1.0).abs() >= 0.01 {
                        return Err(err(
                            ctx.at("ratios"),
                            format!("must sum to 1 (±1%), got {total}"),
                        ));
                    }
                }
                let service_us = ctx.opt_f64_array("service_us")?;
                if let Some(ss) = &service_us {
                    if ss.len() != types.len() {
                        return Err(err(
                            ctx.at("service_us"),
                            format!("{} entries for {} types", ss.len(), types.len()),
                        ));
                    }
                    if let Some(bad) = ss.iter().find(|s| **s <= 0.0) {
                        return Err(err(
                            ctx.at("service_us"),
                            format!("{bad} µs: service times must be positive"),
                        ));
                    }
                }
                out.push(PhaseSpec {
                    duration_ms,
                    load: p_load,
                    ratios,
                    service_us,
                });
            }
            out
        };

        let arrival = match root.opt_table("arrival")? {
            None => ArrivalSpec::Poisson,
            Some(ctx) => {
                ctx.known_keys(&["process", "calm_ms", "burst_ms", "amplification"])?;
                match ctx.opt_str("process")?.unwrap_or("poisson") {
                    "poisson" => ArrivalSpec::Poisson,
                    "bursty" => {
                        let calm_ms = ctx.f64_or("calm_ms", 10.0)?;
                        let burst_ms = ctx.f64_or("burst_ms", 1.0)?;
                        let amplification = ctx.f64_or("amplification", 3.0)?;
                        if calm_ms <= 0.0 || burst_ms <= 0.0 {
                            return Err(err(
                                ctx.at("calm_ms"),
                                "dwell times must be positive milliseconds",
                            ));
                        }
                        if amplification <= 1.0 {
                            return Err(err(
                                ctx.at("amplification"),
                                format!(
                                    "{amplification} must exceed 1 (burst-state rate multiplier)"
                                ),
                            ));
                        }
                        // Mirrors ArrivalGen::with_bursts' feasibility
                        // assertion, as a spec error instead of a panic.
                        if amplification * burst_ms / (burst_ms + calm_ms) >= 1.0 {
                            return Err(err(
                                ctx.at("amplification"),
                                "burst state would exceed the total rate budget; \
                                 lower amplification or burst_ms",
                            ));
                        }
                        ArrivalSpec::Bursty {
                            calm_ms,
                            burst_ms,
                            amplification,
                        }
                    }
                    other => {
                        return Err(err(
                            ctx.at("process"),
                            format!("unknown process `{other}` (accepted: poisson, bursty)"),
                        ))
                    }
                }
            }
        };

        let engine = match root.opt_table("engine")? {
            None => EngineTuning {
                darc_min_samples: 5_000,
                queue_capacity: 0,
            },
            Some(ctx) => {
                ctx.known_keys(&["darc_min_samples", "queue_capacity"])?;
                EngineTuning {
                    darc_min_samples: ctx.u64_or("darc_min_samples", 5_000)?,
                    queue_capacity: ctx.usize_or("queue_capacity", 0)?,
                }
            }
        };

        let faults = match root.opt_table("faults")? {
            None => FaultsSpec::default(),
            Some(ctx) => {
                ctx.known_keys(&["nic_drop_every", "stall"])?;
                let nic_drop_every = ctx.u64_or("nic_drop_every", 0)?;
                let mut stalls = Vec::new();
                for sctx in ctx.table_array("stall")? {
                    sctx.known_keys(&["worker", "after_requests", "stall_ms"])?;
                    let worker = sctx.usize_or("worker", usize::MAX)?;
                    if worker >= workers {
                        return Err(err(
                            sctx.at("worker"),
                            format!("worker index must be below workers ({workers})"),
                        ));
                    }
                    stalls.push(StallSpec {
                        worker,
                        after_requests: sctx.u64_or("after_requests", 0)?,
                        stall_ms: sctx.req_f64("stall_ms")?,
                    });
                }
                FaultsSpec {
                    nic_drop_every,
                    stalls,
                }
            }
        };

        let sim = match root.opt_table("sim")? {
            None => SimTuning {
                warmup_fraction: 0.1,
                rtt_us: 0.0,
            },
            Some(ctx) => {
                ctx.known_keys(&["warmup_fraction", "rtt_us"])?;
                let warmup_fraction = ctx.f64_or("warmup_fraction", 0.1)?;
                if !(0.0..1.0).contains(&warmup_fraction) {
                    return Err(err(
                        ctx.at("warmup_fraction"),
                        format!("{warmup_fraction} is outside [0, 1)"),
                    ));
                }
                SimTuning {
                    warmup_fraction,
                    rtt_us: ctx.f64_or("rtt_us", 0.0)?,
                }
            }
        };

        let threaded = match root.opt_table("threaded")? {
            None => ThreadedTuning::default(),
            Some(ctx) => {
                ctx.known_keys(&[
                    "time_scale",
                    "ring_depth",
                    "pool_buffers",
                    "buf_size",
                    "grace_ms",
                    "max_service_ms",
                    "steering",
                    "transport",
                    "handler",
                    "idle_backoff_us",
                ])?;
                let time_scale = ctx.f64_or("time_scale", 1.0)?;
                if time_scale <= 0.0 {
                    return Err(err(
                        ctx.at("time_scale"),
                        format!("{time_scale} must be positive"),
                    ));
                }
                let steering = ctx.opt_str("steering")?.unwrap_or("rss").to_string();
                if steering != "rss" && steering != "by_type" {
                    return Err(err(
                        ctx.at("steering"),
                        format!("unknown steering `{steering}` (accepted: rss, by_type)"),
                    ));
                }
                let transport = ctx.opt_str("transport")?.unwrap_or("loopback").to_string();
                if transport != "loopback" && transport != "udp" {
                    return Err(err(
                        ctx.at("transport"),
                        format!("unknown transport `{transport}` (accepted: loopback, udp)"),
                    ));
                }
                let handler = ctx.opt_str("handler")?.unwrap_or("spin").to_string();
                if handler != "spin" && handler != "sleep" {
                    return Err(err(
                        ctx.at("handler"),
                        format!("unknown handler `{handler}` (accepted: spin, sleep)"),
                    ));
                }
                let idle_backoff_us = ctx.f64_or("idle_backoff_us", 0.0)?;
                if !idle_backoff_us.is_finite() || idle_backoff_us < 0.0 {
                    return Err(err(
                        ctx.at("idle_backoff_us"),
                        format!("{idle_backoff_us} must be finite and >= 0 (0 busy-yields)"),
                    ));
                }
                ThreadedTuning {
                    time_scale,
                    ring_depth: ctx.usize_or("ring_depth", 4096)?,
                    pool_buffers: ctx.usize_or("pool_buffers", 4096)?,
                    buf_size: ctx.usize_or("buf_size", 128)?,
                    grace_ms: ctx.u64_or("grace_ms", 200)?,
                    max_service_ms: ctx.f64_or("max_service_ms", 50.0)?,
                    steering,
                    transport,
                    handler,
                    idle_backoff_us,
                }
            }
        };

        let rack = match root.opt_table("rack")? {
            None => None,
            Some(ctx) => {
                ctx.known_keys(&["servers", "policy", "policies"])?;
                let servers = ctx.usize_or("servers", 2)?;
                if servers < 2 {
                    return Err(err(
                        ctx.at("servers"),
                        format!("{servers} must be at least 2 (1-server baseline runs anyway)"),
                    ));
                }
                let mut rack_policies = Vec::new();
                if let Some(one) = ctx.opt_str("policy")? {
                    rack_policies.push(one.to_string());
                }
                for p in ctx.opt_str_array("policies")? {
                    rack_policies.push(p);
                }
                if rack_policies.is_empty() {
                    return Err(err(
                        ctx.at("policy"),
                        "need `policy = \"...\"` or `policies = [...]`",
                    ));
                }
                for p in &rack_policies {
                    if let Err(e) = persephone_rack::build_rack_policy(p, 0) {
                        return Err(err(ctx.at("policy"), e));
                    }
                }
                Some(RackSpec {
                    servers,
                    policies: rack_policies,
                })
            }
        };

        let hotpath = match root.opt_table("hotpath")? {
            None => None,
            Some(ctx) => {
                ctx.known_keys(&["cycles", "reps", "shards_max", "baseline_ns"])?;
                let cycles = ctx.u64_or("cycles", 200_000)?;
                if cycles == 0 {
                    return Err(err(ctx.at("cycles"), "must be at least 1"));
                }
                let reps = ctx.usize_or("reps", 5)?;
                if reps == 0 {
                    return Err(err(ctx.at("reps"), "must be at least 1"));
                }
                let shards_max = ctx.usize_or("shards_max", 8)?;
                if shards_max == 0 {
                    return Err(err(ctx.at("shards_max"), "must be at least 1"));
                }
                let mut baseline_ns = Vec::new();
                if let Some(b) = ctx.opt_table("baseline_ns")? {
                    for (k, v) in b.table.entries() {
                        let ns = v.as_f64().ok_or_else(|| {
                            err(
                                b.at(k),
                                format!("expected nanoseconds (a number), found {}", v.kind()),
                            )
                        })?;
                        if !(ns.is_finite() && ns > 0.0) {
                            return Err(err(
                                b.at(k),
                                format!("{ns} is not a positive ns/op baseline"),
                            ));
                        }
                        baseline_ns.push((k.clone(), ns));
                    }
                }
                Some(HotpathSpec {
                    cycles,
                    reps,
                    shards_max,
                    baseline_ns,
                })
            }
        };

        Ok(ScenarioSpec {
            name,
            description,
            seed,
            workers,
            shards,
            policies,
            load,
            zipf,
            types,
            phases,
            arrival,
            engine,
            faults,
            sim,
            threaded,
            rack,
            hotpath,
        })
    }

    /// Parses TOML text straight into a validated spec.
    pub fn from_toml(text: &str) -> Result<ScenarioSpec, SpecError> {
        let table = crate::toml::parse(text).map_err(|e| err("", e.to_string()))?;
        ScenarioSpec::from_table(&table)
    }

    /// The workload of one phase: base types with the phase's ratio and
    /// service overrides applied.
    fn phase_workload(&self, phase: &PhaseSpec) -> Workload {
        let mixes = self
            .types
            .iter()
            .enumerate()
            .map(|(i, ty)| {
                let ratio = phase.ratios.as_ref().map_or(ty.ratio, |rs| rs[i]);
                let service = match &phase.service_us {
                    Some(ss) => Dist::const_micros(ss[i]),
                    None => ty.service,
                };
                TypeMix {
                    name: ty.name.clone(),
                    ratio,
                    service,
                }
            })
            .collect();
        Workload {
            name: self.name.clone(),
            types: mixes,
        }
    }

    /// The full phase script as the simulator's [`PhasedWorkload`].
    pub fn phased_workload(&self) -> PhasedWorkload {
        PhasedWorkload::new(
            self.phases
                .iter()
                .map(|p| Phase {
                    duration: Nanos::from_micros_f64(p.duration_ms * 1_000.0),
                    workload: self.phase_workload(p),
                    load: p.load.unwrap_or(self.load),
                })
                .collect(),
        )
    }

    /// The first phase's workload — the mix engines are built from
    /// (hints, SJF/FP ordering, DARC's initial profile).
    pub fn base_workload(&self) -> Workload {
        self.phase_workload(&self.phases[0])
    }

    /// Per-type service-time hints for the engines, from the base mix.
    pub fn hints(&self) -> Vec<Option<Nanos>> {
        self.base_workload()
            .types
            .iter()
            .map(|t| Some(t.service.mean()))
            .collect()
    }

    /// Total scripted duration.
    pub fn total_duration(&self) -> Nanos {
        self.phased_workload().total_duration()
    }

    /// Materializes the arrival schedule both backends replay: the
    /// single seeded-RNG source of arrival times, request types, and
    /// per-request service demands.
    pub fn build_trace(&self) -> Vec<Arrival> {
        self.build_trace_for(self.workers)
    }

    /// Like [`build_trace`](Self::build_trace), but with the arrival rate
    /// scaled to `capacity_workers` worker cores — used by rack runs to
    /// hold per-server offered load constant as servers are added.
    pub fn build_trace_for(&self, capacity_workers: usize) -> Vec<Arrival> {
        let pw = self.phased_workload();
        let mut gen = ArrivalGen::phased(&pw, capacity_workers, self.seed);
        if let ArrivalSpec::Bursty {
            calm_ms,
            burst_ms,
            amplification,
        } = self.arrival
        {
            gen = gen.with_bursts(BurstModel {
                calm_mean: Nanos::from_micros_f64(calm_ms * 1_000.0),
                burst_mean: Nanos::from_micros_f64(burst_ms * 1_000.0),
                amplification,
            });
        }
        gen.collect()
    }
}

impl Default for ThreadedTuning {
    fn default() -> Self {
        ThreadedTuning {
            time_scale: 1.0,
            ring_depth: 4096,
            pool_buffers: 4096,
            buf_size: 128,
            grace_ms: 200,
            max_service_ms: 50.0,
            steering: "rss".to_string(),
            transport: "loopback".to_string(),
            handler: "spin".to_string(),
            idle_backoff_us: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
name = "unit"
seed = 7
workers = 4
duration_ms = 10.0

[[types]]
name = "SHORT"
ratio = 0.5
service = { dist = "constant", mean_us = 1.0 }

[[types]]
name = "LONG"
ratio = 0.5
service = { dist = "constant", mean_us = 100.0 }
"#;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        assert_eq!(spec.name, "unit");
        assert_eq!(spec.policies, vec![Policy::Darc]);
        assert_eq!(spec.phases.len(), 1);
        assert_eq!(spec.load, 0.7);
        assert_eq!(spec.engine.darc_min_samples, 5_000);
        assert_eq!(spec.arrival, ArrivalSpec::Poisson);
        let trace = spec.build_trace();
        assert!(!trace.is_empty());
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn unknown_keys_are_rejected_with_the_accepted_list() {
        let bad = MINIMAL.replace("workers = 4", "worker = 4");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert_eq!(e.path, "worker");
        assert!(e.msg.contains("unknown key"), "{e}");
        assert!(e.msg.contains("workers"), "lists accepted keys: {e}");
    }

    #[test]
    fn transport_key_parses_and_rejects_unknown_wires() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        assert_eq!(spec.threaded.transport, "loopback", "default wire");
        let udp = MINIMAL.replace(
            "duration_ms = 10.0",
            "duration_ms = 10.0\n\n[threaded]\ntransport = \"udp\"",
        );
        let spec = ScenarioSpec::from_toml(&udp).unwrap();
        assert_eq!(spec.threaded.transport, "udp");
        let bad = udp.replace("\"udp\"", "\"rdma\"");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert_eq!(e.path, "threaded.transport");
        assert!(e.msg.contains("loopback, udp"), "lists accepted wires: {e}");
    }

    #[test]
    fn handler_key_parses_and_rejects_unknown_handlers() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        assert_eq!(spec.threaded.handler, "spin", "default handler");
        let sleepy = MINIMAL.replace(
            "duration_ms = 10.0",
            "duration_ms = 10.0\n\n[threaded]\nhandler = \"sleep\"",
        );
        let spec = ScenarioSpec::from_toml(&sleepy).unwrap();
        assert_eq!(spec.threaded.handler, "sleep");
        let bad = sleepy.replace("\"sleep\"", "\"yield\"");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert_eq!(e.path, "threaded.handler");
        assert!(e.msg.contains("spin, sleep"), "lists accepted: {e}");
    }

    #[test]
    fn idle_backoff_parses_and_rejects_negatives() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        assert_eq!(spec.threaded.idle_backoff_us, 0.0, "default busy-yields");
        let parked = MINIMAL.replace(
            "duration_ms = 10.0",
            "duration_ms = 10.0\n\n[threaded]\nidle_backoff_us = 50.0",
        );
        let spec = ScenarioSpec::from_toml(&parked).unwrap();
        assert_eq!(spec.threaded.idle_backoff_us, 50.0);
        let bad = parked.replace("50.0", "-1.0");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert_eq!(e.path, "threaded.idle_backoff_us");
        assert!(e.msg.contains(">= 0"), "states the bound: {e}");
    }

    #[test]
    fn rack_section_round_trips_and_rejects_bad_input() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        assert!(spec.rack.is_none(), "no [rack] means no rack tier");

        let racked = MINIMAL.replace(
            "duration_ms = 10.0",
            "duration_ms = 10.0\n\n[rack]\nservers = 4\npolicies = [\"random\", \"po2c\"]",
        );
        let spec = ScenarioSpec::from_toml(&racked).unwrap();
        let rack = spec.rack.expect("[rack] parses");
        assert_eq!(rack.servers, 4);
        assert_eq!(rack.policies, vec!["random", "po2c"]);

        let single = MINIMAL.replace(
            "duration_ms = 10.0",
            "duration_ms = 10.0\n\n[rack]\nservers = 2\npolicy = \"sed\"",
        );
        let rack = ScenarioSpec::from_toml(&single).unwrap().rack.unwrap();
        assert_eq!(rack.policies, vec!["sed"]);

        // Unknown steering policy names are rejected at parse time.
        let bad = racked.replace("\"po2c\"", "\"jsq2\"");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert!(e.msg.contains("jsq2"), "names the offender: {e}");

        // Unknown keys inside [rack] are rejected with the accepted list.
        let bad = racked.replace("servers = 4", "servers = 4\nreplicas = 3");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert!(e.msg.contains("servers"), "lists accepted keys: {e}");

        // A rack of one is a misconfiguration, not a degenerate run.
        let bad = racked.replace("servers = 4", "servers = 1");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert_eq!(e.path, "rack.servers");

        // A [rack] with no policy at all is rejected.
        let bad = racked.replace("\npolicies = [\"random\", \"po2c\"]", "");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert_eq!(e.path, "rack.policy");
    }

    #[test]
    fn hotpath_section_round_trips_and_rejects_bad_input() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        assert!(spec.hotpath.is_none(), "no [hotpath] means no microbench");

        let hot = MINIMAL.replace(
            "duration_ms = 10.0",
            "duration_ms = 10.0\n\n[hotpath]\ncycles = 1000\nreps = 3\nshards_max = 4\n\
             \n[hotpath.baseline_ns]\ndarc = 22.3\ncfcfs = 15.6",
        );
        let spec = ScenarioSpec::from_toml(&hot).unwrap();
        let h = spec.hotpath.expect("[hotpath] parses");
        assert_eq!(h.cycles, 1000);
        assert_eq!(h.reps, 3);
        assert_eq!(h.shards_max, 4);
        assert_eq!(
            h.baseline_ns,
            vec![("darc".to_string(), 22.3), ("cfcfs".to_string(), 15.6)]
        );

        // Defaults when the table is present but sparse.
        let sparse = MINIMAL.replace("duration_ms = 10.0", "duration_ms = 10.0\n\n[hotpath]");
        let h = ScenarioSpec::from_toml(&sparse).unwrap().hotpath.unwrap();
        assert_eq!((h.cycles, h.reps, h.shards_max), (200_000, 5, 8));
        assert!(h.baseline_ns.is_empty());

        // Unknown keys and non-positive baselines are rejected.
        let bad = hot.replace("cycles = 1000", "cycles = 1000\nwarmup = 5");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert!(e.msg.contains("shards_max"), "lists accepted keys: {e}");
        let bad = hot.replace("darc = 22.3", "darc = -1.0");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert_eq!(e.path, "hotpath.baseline_ns.darc");
    }

    #[test]
    fn trace_for_scaled_capacity_keeps_per_server_load_constant() {
        let spec = ScenarioSpec::from_toml(MINIMAL).unwrap();
        let one = spec.build_trace();
        let four = spec.build_trace_for(spec.workers * 4);
        // Same duration, ~4x the arrivals: per-server offered load holds.
        let ratio = four.len() as f64 / one.len() as f64;
        assert!(
            (3.0..5.0).contains(&ratio),
            "expected ~4x arrivals, got {}x ({} vs {})",
            ratio,
            four.len(),
            one.len()
        );
        assert_eq!(
            spec.build_trace_for(spec.workers).len(),
            one.len(),
            "build_trace == build_trace_for(workers)"
        );
    }

    #[test]
    fn bad_ratio_sum_and_bad_dist_are_actionable() {
        let bad = MINIMAL.replace("ratio = 0.5", "ratio = 0.4");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert!(e.msg.contains("sum to 1"), "{e}");
        let bad = MINIMAL.replace("constant", "gaussian");
        let e = ScenarioSpec::from_toml(&bad).unwrap_err();
        assert!(e.path.contains("service.dist"), "{e}");
        assert!(e.msg.contains("lognormal"), "lists alternatives: {e}");
    }

    #[test]
    fn zipf_assigns_ratios_by_rank() {
        let spec_text = MINIMAL
            .replace("duration_ms = 10.0", "duration_ms = 10.0\nzipf = 1.0")
            .replace("ratio = 0.5\n", "");
        let spec = ScenarioSpec::from_toml(&spec_text).unwrap();
        assert!(spec.types[0].ratio > spec.types[1].ratio);
        let sum: f64 = spec.types.iter().map(|t| t.ratio).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // zipf + explicit ratio is a contradiction, not a silent override.
        let e = ScenarioSpec::from_toml(
            &MINIMAL.replace("duration_ms = 10.0", "duration_ms = 10.0\nzipf = 1.0"),
        )
        .unwrap_err();
        assert!(e.msg.contains("zipf"), "{e}");
    }

    #[test]
    fn phases_override_load_ratios_and_service() {
        let text = r#"
name = "shifty"
workers = 4

[[types]]
name = "A"
ratio = 0.5
service = { dist = "constant", mean_us = 1.0 }

[[types]]
name = "B"
ratio = 0.5
service = { dist = "constant", mean_us = 100.0 }

[[phases]]
duration_ms = 5.0

[[phases]]
duration_ms = 5.0
load = 0.9
ratios = [0.9, 0.1]
service_us = [100.0, 1.0]
"#;
        let spec = ScenarioSpec::from_toml(text).unwrap();
        let pw = spec.phased_workload();
        assert_eq!(pw.phases.len(), 2);
        assert_eq!(pw.phases[0].load, 0.7);
        assert_eq!(pw.phases[1].load, 0.9);
        assert_eq!(pw.phases[1].workload.types[0].ratio, 0.9);
        assert_eq!(
            pw.phases[1].workload.types[0].service,
            Dist::const_micros(100.0)
        );
    }

    #[test]
    fn policies_parse_including_static_darc() {
        let text = MINIMAL.replace(
            "seed = 7",
            "seed = 7\npolicies = [\"darc\", \"darc-static:2\", \"cfcfs\"]",
        );
        let spec = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(
            spec.policies,
            vec![
                Policy::Darc,
                Policy::DarcStatic { reserved_short: 2 },
                Policy::CFcfs
            ]
        );
        let e =
            ScenarioSpec::from_toml(&MINIMAL.replace("seed = 7", "seed = 7\npolicy = \"lifo\""))
                .unwrap_err();
        assert!(e.msg.contains("accepted"), "{e}");
    }

    #[test]
    fn infeasible_burst_model_is_a_spec_error_not_a_panic() {
        let text = format!(
            "{MINIMAL}\n[arrival]\nprocess = \"bursty\"\ncalm_ms = 1.0\nburst_ms = 10.0\namplification = 5.0\n"
        );
        let e = ScenarioSpec::from_toml(&text).unwrap_err();
        assert!(e.msg.contains("rate budget"), "{e}");
    }

    #[test]
    fn same_seed_same_trace() {
        let a = ScenarioSpec::from_toml(MINIMAL).unwrap().build_trace();
        let b = ScenarioSpec::from_toml(MINIMAL).unwrap().build_trace();
        assert_eq!(a, b);
    }
}
