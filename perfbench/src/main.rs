//! Benchmark worker: runs one workload in one mode and prints one JSON
//! object on its last stdout line. `perfbench/run.py` spawns it, several
//! times per measurement, and turns the observations into metrics.
//!
//! ```text
//! perfbench <setup|run|trace> <workload> <seed> <seconds>
//! ```
//!
//! * `setup` — the workload's set-up, once, in this fresh process (so the
//!   synthesis memo cache starts empty), then exits.
//! * `run` — cold set-up, then timed rounds of the workload with telemetry
//!   recording off, for at least `seconds`.
//! * `trace` — the same rounds with recording off and on, then a replay of
//!   the workload through the public calls of each layer, timed per stage.

mod fig5;
mod out;
mod probe;
mod scrub;

use out::Obj;
use std::time::Instant;

/// The four workloads (see `perfbench/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5Paper,
    Fig5MultiError,
    ScrubNominal,
    ScrubOverload,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fig5_paper" => Some(Workload::Fig5Paper),
            "fig5_multi_error" => Some(Workload::Fig5MultiError),
            "scrub_nominal" => Some(Workload::ScrubNominal),
            "scrub_overload" => Some(Workload::ScrubOverload),
            _ => None,
        }
    }
}

/// The SplitMix64 golden-ratio increment.
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mix.
#[must_use]
pub fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps consecutive benchmark seeds to unrelated model seeds (the
/// Monte-Carlo gives chip `i` the seed `base + i`, so passing the benchmark
/// seed straight through would make seeds 1 and 2 share chips).
#[must_use]
pub fn mix_seed(seed: u64) -> u64 {
    splitmix(seed.wrapping_add(GOLDEN))
}

/// Peak resident set of this process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed integer workload, timed: a host-speed reference recorded beside
/// every result so host drift shows in the data. It is not a metric.
#[must_use]
pub fn host_reference_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left((x & 63) as u32));
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Seconds since `start`.
#[must_use]
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: perfbench <setup|run|trace> <workload> <seed> <seconds>";
    if args.len() != 5 {
        eprintln!("{usage}");
        std::process::exit(2);
    }
    let Some(workload) = Workload::parse(&args[2]) else {
        eprintln!("unknown workload {:?}", args[2]);
        std::process::exit(2);
    };
    let (Ok(seed), Ok(seconds)) = (args[3].parse::<u64>(), args[4].parse::<f64>()) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    // End-to-end figures are measured with recording off; the traced mode
    // switches it on around its traced rounds only.
    sfq_telemetry::set_recording(false);
    let mut result = Obj::new();
    match (args[1].as_str(), workload) {
        ("setup", Workload::Fig5Paper | Workload::Fig5MultiError) => {
            fig5::setup_only(workload, seed, &mut result);
        }
        ("setup", _) => scrub::setup_only(workload, seed, &mut result),
        ("run", Workload::Fig5Paper | Workload::Fig5MultiError) => {
            fig5::run(workload, seed, seconds, &mut result);
        }
        ("run", _) => scrub::run(workload, seed, seconds, &mut result),
        ("trace", Workload::Fig5Paper | Workload::Fig5MultiError) => {
            fig5::trace(workload, seed, &mut result);
        }
        ("trace", _) => scrub::trace(workload, seed, &mut result),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
    result.num("peak_rss_mb", peak_rss_mb());
    if args[1] != "setup" {
        result.num("host_reference_s", host_reference_s());
    }
    println!("{}", result.render());
}
