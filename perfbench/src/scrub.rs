//! The two scrub-service workloads: `ScrubService::run` at the nominal
//! operating point under the soak fault mix, at 1.0× and 1.5× the nominal
//! arrival rate.

use crate::out::{median, Obj};
use crate::probe::{self, BatchStages, LinkProbe, Ticket};
use crate::{mix_seed, secs, splitmix, Workload, GOLDEN};
use cryolink::Fig5Experiment;
use encoders::EncoderKind;
use sfq_batch::BatchCodec;
use sfq_cells::CellLibrary;
use sfq_stream::{ArrivalProcess, Fault, FaultScript, ScrubService, StreamConfig, StreamReport};
use std::collections::VecDeque;
use std::time::Instant;

/// Untraced/traced run pairs, each followed by a replay, in the traced
/// mode (medians).
const TRACE_PAIRS: usize = 15;
/// Chips of the link probes on the scrub code's encoder.
const PROBE_CHIPS: usize = 40;
const PROBE_PULSE_CHIPS: usize = 2;

struct Setup {
    config: StreamConfig,
    faults: FaultScript,
}

fn setup(workload: Workload, seed: u64) -> Setup {
    let mut config = StreamConfig::nominal();
    if workload == Workload::ScrubOverload {
        config = config.with_rate_factor(1500);
    }
    config.threads = 1;
    config.seed = mix_seed(seed);
    let faults = FaultScript::soak_mix(config.total_cycles, config.shards, 2);
    ScrubService::check_environment().expect("SFQ_BATCH_KERNEL must be valid");
    Setup { config, faults }
}

/// The set-up, timed; cold when it is the process's first.
fn timed_setup(workload: Workload, seed: u64, out: &mut Obj) -> Setup {
    let start = Instant::now();
    let setup = setup(workload, seed);
    out.num("setup_s", secs(start));
    setup
}

pub fn setup_only(workload: Workload, seed: u64, out: &mut Obj) {
    std::hint::black_box(timed_setup(workload, seed, out));
}

fn write_report(report: &StreamReport, out: &mut Obj) {
    let mut r = Obj::new();
    r.text("digest", &report.deterministic_digest());
    match report.validate() {
        Ok(()) => r.text("validate", "ok"),
        Err(e) => r.text("validate", &e),
    }
    r.int("arrivals", report.arrivals);
    r.int("completed_batches", report.completed_batches);
    r.int("shed_batches", report.shed_batches);
    r.int("poisoned_rejected", report.poisoned_rejected);
    r.int("deadline_misses", report.deadline_misses);
    r.int("max_backlog", report.max_backlog as u64);
    r.int("drain_cycles", report.time_to_drain);
    r.int("transitions", report.transitions.len() as u64);
    r.int("p50_latency_cycles", report.latency.p50);
    r.int("p99_latency_cycles", report.latency.p99);
    r.int("max_latency_cycles", report.latency.max);
    r.int("messages_decoded", report.messages_decoded);
    r.int("flagged_rescrub", report.flagged_rescrub);
    r.int("detect_rescrub", report.detect_rescrub);
    r.int("silent_wrong", report.silent_wrong);
    r.int("batch_messages", report.batch_messages);
    out.obj("report", r);
}

pub fn run(workload: Workload, seed: u64, seconds: f64, out: &mut Obj) {
    let Setup { config, faults } = timed_setup(workload, seed, out);
    let mut round_s = Vec::new();
    let mut first: Option<StreamReport> = None;
    let mut identical = true;
    let timed = Instant::now();
    loop {
        let start = Instant::now();
        let report = ScrubService::run(&config, &faults);
        round_s.push(secs(start));
        match &first {
            None => first = Some(report),
            Some(f) => identical &= f.deterministic_digest() == report.deterministic_digest(),
        }
        if secs(timed) >= seconds {
            break;
        }
    }
    let report = first.expect("at least one round");
    out.nums("round_s", &round_s);
    out.int("msgs_per_round", report.messages_decoded);
    out.boolean("rounds_identical", identical);
    write_report(&report, out);
}

/// SplitMix64 per-ticket seed, as the service derives it.
fn ticket_seed(master: u64, id: u64) -> u64 {
    splitmix(master ^ id.wrapping_mul(GOLDEN))
}

/// Re-derives the arriving batches from the configuration and fault
/// script with the public arrival process: the non-poisoned tickets, the
/// number of arrivals, and the number poisoned.
fn arriving_batches(config: &StreamConfig, faults: &FaultScript) -> (Vec<Ticket>, u64, u64) {
    let mut arrivals = ArrivalProcess::new(config.arrivals_per_1024);
    let events = faults.events();
    let mut next_event = 0;
    let mut bursts: VecDeque<u8> = VecDeque::new();
    let mut pending_poison = 0u64;
    let (mut tickets, mut id, mut poisoned) = (Vec::new(), 0u64, 0u64);
    for cycle in 0..config.total_cycles {
        while next_event < events.len() && events[next_event].0 <= cycle {
            match events[next_event].1 {
                Fault::RateSpike {
                    factor_milli,
                    duration,
                } => arrivals.spike(factor_milli, cycle + duration),
                Fault::ClockTreeBurst { width } => bursts.push_back(width.min(255) as u8),
                Fault::PoisonedBatch => pending_poison += 1,
                Fault::WorkerStall { .. } => {}
            }
            next_event += 1;
        }
        for _ in 0..arrivals.tick(cycle) {
            let burst_width = bursts.pop_front().unwrap_or(0);
            if pending_poison > 0 {
                pending_poison -= 1;
                poisoned += 1;
            } else {
                tickets.push(Ticket {
                    seed: ticket_seed(config.seed, id),
                    burst_width,
                });
            }
            id += 1;
        }
    }
    (tickets, id, poisoned)
}

pub fn trace(workload: Workload, seed: u64, out: &mut Obj) {
    // The synthesis, chip-sampling and link layers, probed on the encoder
    // of the service's code, which the service itself never builds.
    let designs = probe::build_traced(&[EncoderKind::SecDed(6)], out);
    let library = CellLibrary::coldflux();
    let experiment = Fig5Experiment {
        seed: mix_seed(seed),
        ..Fig5Experiment::paper_setup()
    };
    let mut link = LinkProbe::default();
    link.pulse(&designs[0], &library, &experiment, PROBE_PULSE_CHIPS);
    link.batched(&designs[0], &library, &experiment, PROBE_CHIPS);
    let mut link_out = Obj::new();
    link.write(&mut link_out);
    out.obj("link", link_out);

    let Setup { config, faults } = timed_setup(workload, seed, out);
    let (tickets, arrivals, poisoned) = arriving_batches(&config, &faults);
    let codec = BatchCodec::sec_ded(config.secded_m);
    // Untraced run, traced run, and a replay of the run's batches in one
    // decode mode, taking turns: the untraced/traced difference is the
    // tracing overhead, the traced runs' counters feed the per-layer
    // figures, and the replays interleave with the wall times they are
    // compared with.
    sfq_telemetry::global().reset();
    let report = ScrubService::run(&config, &faults);
    let (mut wall_off, mut wall_on) = (Vec::new(), Vec::new());
    let mut batch = BatchStages::default();
    let mut traced_digest_ok = true;
    for pair in 0..TRACE_PAIRS {
        let start = Instant::now();
        let untraced = ScrubService::run(&config, &faults);
        wall_off.push(secs(start));
        sfq_telemetry::set_recording(true);
        let start = Instant::now();
        let traced = ScrubService::run(&config, &faults);
        wall_on.push(secs(start));
        sfq_telemetry::set_recording(false);
        let digest = report.deterministic_digest();
        traced_digest_ok &=
            traced.deterministic_digest() == digest && untraced.deterministic_digest() == digest;
        let detect = pair % 2 == 1;
        batch.replay(
            &codec,
            &tickets,
            config.batch_messages,
            config.flip_prob,
            detect,
        );
    }
    probe::counters_snapshot(out);
    out.int("traced_rounds", TRACE_PAIRS as u64);
    out.num("wall_s", median(&wall_off));
    out.num("traced_wall_s", median(&wall_on));
    out.int("msgs_per_round", report.messages_decoded);
    let mut batch_out = Obj::new();
    batch.write(&mut batch_out);
    out.obj("batch_probe", batch_out);
    out.boolean(
        "replay_matches",
        traced_digest_ok && arrivals == report.arrivals && poisoned == report.poisoned_rejected,
    );
    write_report(&report, out);
}
