//! The rack tier in the simulator: one [`SimPolicy`] that fronts N
//! independent per-server schedule engines with an inter-server
//! [`RackPolicy`].
//!
//! The rack's worker space is flat: server `s` owns simulator workers
//! `s*W .. (s+1)*W`, where `W` is the per-server worker count. Arrivals
//! are steered by the rack policy, enqueued into that server's engine,
//! and dispatched onto that server's worker slice only — no intra-rack
//! work stealing, exactly like K physical machines. Each engine carries
//! its own [`Telemetry`]; SED's per-type service estimates are refreshed
//! from those snapshots, so the simulated and live rack share one
//! estimate path.

use std::sync::Arc;

use persephone_core::dispatch::{build_engine, EngineConfig, ScheduleEngine};
use persephone_core::policy::Policy;
use persephone_core::time::Nanos;
use persephone_core::types::WorkerId;
use persephone_sim::engine::{Core, Event, ReqId, SimPolicy};
use persephone_telemetry::{Snapshot, Telemetry, TelemetryConfig};

use crate::policy::{RackLoads, RackPolicy};

/// How many rack-wide completions between service-estimate refreshes.
const REFRESH_EVERY: u64 = 256;

/// A simulated rack: N per-server engines behind one steering policy.
pub struct RackSim {
    label: String,
    policy: Box<dyn RackPolicy>,
    engines: Vec<Box<dyn ScheduleEngine<ReqId>>>,
    telemetries: Vec<Arc<Telemetry>>,
    loads: RackLoads,
    workers_per_server: usize,
    since_refresh: u64,
}

impl RackSim {
    /// Builds `servers` copies of the intra-server engine (`intra`, with
    /// `workers_per_server` workers each) behind `rack` steering. Run it
    /// with `SimConfig::new(servers * workers_per_server)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rack: Box<dyn RackPolicy>,
        intra: &Policy,
        servers: usize,
        workers_per_server: usize,
        num_types: usize,
        hints: &[Option<Nanos>],
        darc_min_samples: u64,
        queue_capacity: usize,
    ) -> Self {
        assert!(servers > 0 && workers_per_server > 0);
        let mut engines = Vec::with_capacity(servers);
        let mut telemetries = Vec::with_capacity(servers);
        for _ in 0..servers {
            let mut cfg = EngineConfig::darc(workers_per_server);
            cfg.profiler.min_samples = darc_min_samples;
            cfg.queue_capacity = queue_capacity;
            let mut engine = build_engine::<ReqId>(intra, cfg, num_types, hints);
            let tel = Arc::new(Telemetry::new(TelemetryConfig::new(
                num_types,
                workers_per_server,
            )));
            engine.set_telemetry(tel.clone());
            engines.push(engine);
            telemetries.push(tel);
        }
        let label = format!("rack-{}/{}", rack.name(), intra.name());
        RackSim {
            label,
            policy: rack,
            engines,
            telemetries,
            loads: RackLoads::new(servers, num_types, workers_per_server, hints),
            workers_per_server,
            since_refresh: 0,
        }
    }

    /// The steering policy's short name (`po2c`, ...).
    pub fn rack_policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Per-server telemetry handles, in server order (for post-run
    /// report merging).
    pub fn telemetries(&self) -> &[Arc<Telemetry>] {
        &self.telemetries
    }

    fn drain(&mut self, server: usize, core: &mut Core) {
        let base = server * self.workers_per_server;
        while let Some(d) = self.engines[server].poll(core.now) {
            core.run(base + d.worker.index(), d.req);
        }
    }

    fn maybe_refresh(&mut self) {
        self.since_refresh += 1;
        if self.since_refresh >= REFRESH_EVERY {
            self.since_refresh = 0;
            let snaps: Vec<Snapshot> = self.telemetries.iter().map(|t| t.snapshot()).collect();
            self.loads.refresh_estimates(&snaps);
        }
    }
}

impl SimPolicy for RackSim {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        match ev {
            Event::Arrival(id) => {
                let ty = core.req(id).ty;
                let server = self.policy.pick(ty, &self.loads);
                debug_assert!(server < self.engines.len());
                match self.engines[server].enqueue(ty, id, core.now) {
                    Ok(()) => self.loads.sent(server, ty),
                    Err(rejected) => core.drop_req(rejected),
                }
                self.drain(server, core);
            }
            Event::Completed {
                worker,
                ty,
                service,
                ..
            } => {
                let server = worker / self.workers_per_server;
                let local = worker % self.workers_per_server;
                self.loads.completed(server, ty);
                self.engines[server].complete(WorkerId::new(local as u32), service, core.now);
                self.maybe_refresh();
                self.drain(server, core);
            }
            Event::SliceExpired { .. } => {
                unreachable!("rack engines are non-preemptive")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy;
    use persephone_core::dist::Dist;
    use persephone_sim::engine::{simulate, SimConfig};
    use persephone_sim::workload::{ArrivalGen, TypeMix, Workload};

    fn workload() -> Workload {
        Workload {
            name: "rack-unit".into(),
            types: vec![
                TypeMix {
                    name: "SHORT".into(),
                    ratio: 0.9,
                    service: Dist::Constant(Nanos::from_micros(1)),
                },
                TypeMix {
                    name: "LONG".into(),
                    ratio: 0.1,
                    service: Dist::Constant(Nanos::from_micros(100)),
                },
            ],
        }
    }

    fn run_rack(name: &str, servers: usize) -> u64 {
        let w = workload();
        let hints = w.hints();
        let workers = 2;
        let total = Nanos::from_micros(20_000);
        let arrivals = ArrivalGen::uniform(&w, workers * servers, 0.6, total, 11);
        let mut rack = RackSim::new(
            policy::build(name, 17).unwrap(),
            &Policy::Darc,
            servers,
            workers,
            2,
            &hints,
            u64::MAX,
            0,
        );
        let cfg = SimConfig::new(servers * workers);
        let out = simulate(&mut rack, arrivals, 2, total, &cfg);
        assert!(out.completions > 0, "[{name}] the rack served requests");
        out.completions
    }

    #[test]
    fn every_policy_completes_the_trace_without_stranding() {
        // `simulate` panics on stranded requests, so completing is the
        // whole assertion; unsteered workers would strand immediately.
        for name in policy::POLICY_NAMES {
            run_rack(name, 3);
        }
    }

    #[test]
    fn single_server_rack_degenerates_to_the_plain_engine() {
        run_rack("po2c", 1);
    }

    #[test]
    fn rack_sim_is_deterministic() {
        assert_eq!(run_rack("po2c", 4), run_rack("po2c", 4));
    }
}
