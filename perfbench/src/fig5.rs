//! The two Fig. 5 Monte-Carlo workloads: the paper's four designs through
//! the pulse-level path, and the multi-error registry through the batched
//! path.

use crate::out::{fnv_digest, median, Obj};
use crate::probe::{self, BatchStages, LinkProbe, Ticket};
use crate::{mix_seed, secs, Workload};
use cryolink::{
    batch_codec_for, paper_zero_error_probabilities, BatchLink, BatchLinkContext, CryoCable,
    ErrorCounting, Fig5Curve, Fig5Experiment, LinkScratch,
};
use ecc::{BchSpec, DecodeOutcome};
use encoders::{EncoderDesign, EncoderKind};
use gf2::BitSlice64;
use sfq_cells::CellLibrary;
use sfq_stream::StreamConfig;
use std::time::Instant;

/// Chips per design on `fig5_multi_error`: `multi_error_setup()` has 300,
/// which the ~1.2 s of cold synthesis would dwarf.
const MULTI_ERROR_CHIPS: usize = 1200;

/// Untraced/traced round pairs, with a replay between them, in the traced
/// mode (medians).
const TRACE_PAIRS: usize = 2;

/// Chips per design of the probe of the link path a workload does not
/// take: the batched one on `fig5_paper`, the pulse-level one (~200 µs a
/// message on these netlists) on `fig5_multi_error`.
const PROBE_CHIPS: usize = 100;
const PROBE_PULSE_CHIPS: usize = 2;

fn kinds(workload: Workload) -> Vec<EncoderKind> {
    match workload {
        Workload::Fig5Paper => EncoderKind::ALL.to_vec(),
        _ => vec![
            EncoderKind::Bch(BchSpec::BCH_63_45),
            EncoderKind::Bch(BchSpec::BCH_31_16),
            EncoderKind::SecDed(6),
        ],
    }
}

fn batched(workload: Workload) -> bool {
    workload == Workload::Fig5MultiError
}

/// The experiment with the benchmark seed and the one-worker budget.
fn experiment(workload: Workload, seed: u64) -> Fig5Experiment {
    let mut experiment = if batched(workload) {
        Fig5Experiment {
            chips: MULTI_ERROR_CHIPS,
            ..Fig5Experiment::multi_error_setup()
        }
    } else {
        Fig5Experiment::paper_setup()
    };
    experiment.seed = mix_seed(seed);
    experiment.threads = 1;
    experiment
}

/// Everything built before the first timed message.
struct Setup {
    library: CellLibrary,
    designs: Vec<EncoderDesign>,
    contexts: Vec<BatchLinkContext>,
}

fn contexts(workload: Workload, designs: &[EncoderDesign]) -> Vec<BatchLinkContext> {
    if batched(workload) {
        designs.iter().map(BatchLinkContext::new).collect()
    } else {
        Vec::new()
    }
}

fn setup(workload: Workload) -> Setup {
    let designs: Vec<EncoderDesign> = kinds(workload)
        .into_iter()
        .map(EncoderDesign::build)
        .collect();
    Setup {
        library: CellLibrary::coldflux(),
        contexts: contexts(workload, &designs),
        designs,
    }
}

fn run_round(workload: Workload, experiment: &Fig5Experiment, setup: &Setup) -> Vec<Fig5Curve> {
    setup
        .designs
        .iter()
        .map(|design| {
            if batched(workload) {
                experiment.run_design_batched(design, &setup.library)
            } else {
                experiment.run_design(design, &setup.library)
            }
        })
        .collect()
}

/// Whether two rounds drew the same per-chip error counts (the curves'
/// `parallelism` field holds host timings and always differs).
fn same_errors(a: &[Fig5Curve], b: &[Fig5Curve]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.errors_per_chip == y.errors_per_chip)
}

fn messages(experiment: &Fig5Experiment, designs: usize) -> u64 {
    (experiment.chips * experiment.messages_per_chip * designs) as u64
}

fn write_curves(curves: &[Fig5Curve], designs: &[EncoderDesign], out: &mut Obj) {
    let rows = curves
        .iter()
        .zip(designs)
        .map(|(curve, design)| {
            let mut row = Obj::new();
            row.text("design", &curve.name);
            row.int("chips", curve.chips() as u64);
            row.int("messages_per_chip", curve.messages_per_chip as u64);
            row.num("zero_error", curve.zero_error_probability());
            row.int("errors", curve.errors_per_chip.iter().sum::<usize>() as u64);
            row.text(
                "errors_digest",
                &fnv_digest(curve.errors_per_chip.iter().map(|&e| e as u64)),
            );
            let per_chip: Vec<f64> = curve.errors_per_chip.iter().map(|&e| e as f64).collect();
            row.nums("errors_per_chip", &per_chip);
            row.int("latency_cycles", design.latency() as u64);
            if let Some((_, p)) = paper_zero_error_probabilities()
                .into_iter()
                .find(|&(kind, _)| kind == curve.kind)
            {
                row.num("paper_zero_error", p);
            }
            row
        })
        .collect();
    out.objs("curves", rows);
}

pub fn setup_only(workload: Workload, _seed: u64, out: &mut Obj) {
    let start = Instant::now();
    let built = setup(workload);
    out.num("setup_s", secs(start));
    std::hint::black_box(built);
}

pub fn run(workload: Workload, seed: u64, seconds: f64, out: &mut Obj) {
    let start = Instant::now();
    let setup = setup(workload);
    out.num("setup_s", secs(start));
    let experiment = experiment(workload, seed);

    let mut round_s = Vec::new();
    let mut first: Option<Vec<Fig5Curve>> = None;
    let mut identical = true;
    let timed = Instant::now();
    loop {
        let start = Instant::now();
        let curves = run_round(workload, &experiment, &setup);
        round_s.push(secs(start));
        match &first {
            None => first = Some(curves),
            Some(f) => identical &= same_errors(f, &curves),
        }
        if secs(timed) >= seconds {
            break;
        }
    }
    out.nums("round_s", &round_s);
    out.int("msgs_per_round", messages(&experiment, setup.designs.len()));
    out.boolean("rounds_identical", identical);
    write_curves(&first.expect("at least one round"), &setup.designs, out);
}

/// Stage times of the pulse-level replay ([`cryolink::CryoLink::transmit`]
/// taken apart into its three calls) beyond what [`LinkProbe`] records.
#[derive(Default)]
struct PulseStages {
    regen_s: f64,
    encoder_sim_s: f64,
    channel_s: f64,
    decode_s: f64,
    classify_s: f64,
    /// Correct, flagged, silent.
    outcomes: [u64; 3],
}

/// Replays `simulate_one_chip` through public calls and returns whether
/// every chip's error count equals the curve's.
fn replay_pulse(
    experiment: &Fig5Experiment,
    design: &EncoderDesign,
    library: &CellLibrary,
    curve: &Fig5Curve,
    st: &mut PulseStages,
    link: &mut LinkProbe,
) -> bool {
    let cable = CryoCable::new(design.n(), experiment.channel);
    let mut matches = true;
    for chip in 0..experiment.chips {
        let (sample, mut rng) = link.sample_chip(design, library, experiment, chip);
        let mut errors = 0usize;
        for _ in 0..experiment.messages_per_chip {
            let t0 = Instant::now();
            let message = probe::random_message(design.k(), &mut rng);
            let t1 = Instant::now();
            let transmitted = design.transmit_with_faults(&message, &sample.faults, &mut rng);
            let t2 = Instant::now();
            let received = cable.transport(&transmitted, &mut rng);
            let t3 = Instant::now();
            let decoded = design.decode(&received);
            let t4 = Instant::now();
            let outcome = match decoded.outcome {
                DecodeOutcome::DetectedUncorrectable => 1,
                _ if decoded.message.as_ref() == Some(&message) => 0,
                _ => 2,
            };
            let erroneous = match experiment.counting {
                ErrorCounting::SilentOnly => outcome == 2,
                ErrorCounting::AnyWrong => outcome != 0,
            };
            errors += usize::from(erroneous);
            st.outcomes[outcome] += 1;
            let t5 = Instant::now();
            st.regen_s += (t1 - t0).as_secs_f64();
            st.encoder_sim_s += (t2 - t1).as_secs_f64();
            st.channel_s += (t3 - t2).as_secs_f64();
            st.decode_s += (t4 - t3).as_secs_f64();
            st.classify_s += (t5 - t4).as_secs_f64();
            link.pulse_s += (t5 - t1).as_secs_f64();
            link.pulse_msgs += 1;
        }
        matches &= errors == curve.errors_per_chip[chip];
    }
    matches
}

/// Replays the batched chip loop of `run_design_batched` through public
/// calls and returns whether every chip's error count equals the curve's.
fn replay_batched(
    experiment: &Fig5Experiment,
    design: &EncoderDesign,
    context: &BatchLinkContext,
    library: &CellLibrary,
    curve: &Fig5Curve,
    regen_s: &mut f64,
    link: &mut LinkProbe,
) -> bool {
    let mut batch_link = BatchLink::new(design, context);
    let mut messages = BitSlice64::default();
    let mut scratch = LinkScratch::new();
    let silent_only = experiment.counting == ErrorCounting::SilentOnly;
    let mut matches = true;
    for chip in 0..experiment.chips {
        let (sample, mut rng) = link.sample_chip(design, library, experiment, chip);
        let t0 = Instant::now();
        batch_link.rebind(&sample.faults, experiment.channel);
        let t1 = Instant::now();
        batch_link.random_messages_into(experiment.messages_per_chip, &mut rng, &mut messages);
        let t2 = Instant::now();
        let stats = batch_link.transmit_batch_with(&messages, &mut rng, &mut scratch);
        let t3 = Instant::now();
        link.rebind_s += (t1 - t0).as_secs_f64();
        *regen_s += (t2 - t1).as_secs_f64();
        link.transmit_batch_s += (t3 - t2).as_secs_f64();
        link.rebinds += 1;
        matches &= stats.erroneous(silent_only) == curve.errors_per_chip[chip];
    }
    matches
}

pub fn trace(workload: Workload, seed: u64, out: &mut Obj) {
    let experiment = experiment(workload, seed);
    let library = CellLibrary::coldflux();
    let designs = probe::build_traced(&kinds(workload), out);
    let contexts = contexts(workload, &designs);
    let setup = Setup {
        library,
        designs,
        contexts,
    };
    let msgs = messages(&experiment, setup.designs.len());
    out.int("msgs_per_round", msgs);

    // Untraced round, replay of the same work stage by stage, traced
    // round, taking turns: the untraced/traced difference is the tracing
    // overhead, the traced rounds' counters feed the per-layer figures, and
    // each replay sits next to the wall time it is compared with.
    sfq_telemetry::global().reset();
    let (mut wall_off, mut wall_on) = (Vec::new(), Vec::new());
    let mut curves: Option<Vec<Fig5Curve>> = None;
    let mut replay_ok = true;
    let mut link = LinkProbe::default();
    let mut pulse = PulseStages::default();
    let mut batched_regen_s = 0.0;
    for _ in 0..TRACE_PAIRS {
        let start = Instant::now();
        let untraced = run_round(workload, &experiment, &setup);
        wall_off.push(secs(start));
        let curves = curves.get_or_insert(untraced);
        for (i, (design, curve)) in setup.designs.iter().zip(curves.iter()).enumerate() {
            replay_ok &= if batched(workload) {
                replay_batched(
                    &experiment,
                    design,
                    &setup.contexts[i],
                    &setup.library,
                    curve,
                    &mut batched_regen_s,
                    &mut link,
                )
            } else {
                replay_pulse(
                    &experiment,
                    design,
                    &setup.library,
                    curve,
                    &mut pulse,
                    &mut link,
                )
            };
        }
        sfq_telemetry::set_recording(true);
        let start = Instant::now();
        let traced = run_round(workload, &experiment, &setup);
        wall_on.push(secs(start));
        sfq_telemetry::set_recording(false);
        replay_ok &= same_errors(curves, &traced);
    }
    let curves = curves.expect("at least one pair");
    probe::counters_snapshot(out);
    out.int("traced_rounds", TRACE_PAIRS as u64);
    out.num("wall_s", median(&wall_off));
    out.num("traced_wall_s", median(&wall_on));

    // Stage seconds per round; the link layer's other path is then probed
    // on a few chips.
    let rounds = TRACE_PAIRS as f64;
    let mut stages = Obj::new();
    stages.num("sim.sample_chip", link.sample_chip_s / rounds);
    if batched(workload) {
        stages.num("link.rebind", link.rebind_s / rounds);
        stages.num("link.regen", batched_regen_s / rounds);
        stages.num("link.transmit_batch", link.transmit_batch_s / rounds);
        for design in &setup.designs {
            link.pulse(design, &setup.library, &experiment, PROBE_PULSE_CHIPS);
        }
    } else {
        stages.num("link.regen", pulse.regen_s / rounds);
        stages.num("sim.encoder", pulse.encoder_sim_s / rounds);
        stages.num("link.channel", pulse.channel_s / rounds);
        stages.num("ecc.decode", pulse.decode_s / rounds);
        stages.num("link.classify", pulse.classify_s / rounds);
        let mut outcomes = Obj::new();
        for (name, count) in ["correct", "flagged", "silent"].iter().zip(pulse.outcomes) {
            outcomes.num(name, count as f64 / rounds);
        }
        out.obj("pulse_outcomes", outcomes);
        for design in &setup.designs {
            link.batched(design, &setup.library, &experiment, PROBE_CHIPS);
        }
    }
    out.obj("stages", stages);
    let mut link_out = Obj::new();
    link.write(&mut link_out);
    out.obj("link", link_out);
    out.boolean("replay_matches", replay_ok);

    // The batch layer, probed with the scrub worker's calls on this
    // workload's codes at its batch size and the service's error rate (not
    // part of the stage table).
    let flip_prob = StreamConfig::nominal().flip_prob;
    let mut batch = BatchStages::default();
    let tickets: Vec<Ticket> = (0..256u64)
        .map(|i| Ticket {
            seed: mix_seed(experiment.seed ^ i),
            burst_width: 0,
        })
        .collect();
    for design in &setup.designs {
        if design.n() > design.k() {
            let codec = batch_codec_for(design);
            for detect in [false, true] {
                batch.replay(
                    &codec,
                    &tickets,
                    experiment.messages_per_chip,
                    flip_prob,
                    detect,
                );
            }
        }
    }
    let mut batch_out = Obj::new();
    batch.write(&mut batch_out);
    out.obj("batch_probe", batch_out);
    write_curves(&curves, &setup.designs, out);
}
