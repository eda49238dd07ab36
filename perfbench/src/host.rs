//! The host record printed with every result, and process memory.

use std::time::Instant;

use crate::stats::json_str;

/// What the run needs from the host, and what the host has.
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    /// Threads the workload keeps runnable: client + dispatcher + workers.
    pub threads_needed: usize,
}

impl Host {
    pub fn probe(threads_needed: usize) -> Host {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cores,
            cpu_model,
            threads_needed,
        }
    }

    /// More runnable threads than cores: every latency includes OS
    /// scheduling delay, and the report must say so.
    pub fn oversubscribed(&self) -> bool {
        self.threads_needed > self.cores
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu_model\": {}, \"threads_needed\": {}, \"oversubscribed\": {}}}",
            self.cores,
            json_str(&self.cpu_model),
            self.threads_needed,
            self.oversubscribed()
        )
    }
}

/// CPU time the hypervisor stole from this machine so far, seconds
/// (`steal` of `/proc/stat`, in USER_HZ = 100 ticks per second). A run
/// whose steal grows is measuring the host's neighbours, not the program.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Mean cost of one `Instant::now()` read, ns — the floor under every
/// span the traced run records.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 200_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(t0).as_nanos() as f64 / f64::from(READS)
}
