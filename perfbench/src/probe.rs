//! Timed replays of single layers through their public calls. The traced
//! mode of every workload uses these: on a workload's own path they
//! attribute its wall time to stages; on a layer the workload bypasses
//! they time the same calls on the workload's code, outside the stage
//! table.

use crate::out::Obj;
use crate::secs;
use cryolink::burst::{BurstSource, SparseFlipSource};
use cryolink::{BatchLink, BatchLinkContext, CryoLink, Fig5Experiment, LinkScratch};
use ecc::{BatchDecode, BatchDecoded, BatchEncode, BatchScratch};
use encoders::{EncoderDesign, EncoderKind};
use gf2::{BitSlice64, BitVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_batch::BatchCodec;
use sfq_cells::CellLibrary;
use sfq_sim::ChipSample;
use std::time::Instant;

fn counter(name: &str) -> u64 {
    sfq_telemetry::global()
        .snapshot()
        .counter(name)
        .unwrap_or(0)
}

/// Builds `kinds` cold with recording on, timing each build and checking
/// that every synthesized design missed the cancellation memo cache (a
/// warm cache would halve the set-up figure silently). Adds `encoders` and
/// `synth` fields to `out`.
pub fn build_traced(kinds: &[EncoderKind], out: &mut Obj) -> Vec<EncoderDesign> {
    sfq_telemetry::set_recording(true);
    let mut designs = Vec::new();
    let mut per_design = Vec::new();
    let mut build_s = 0.0;
    let mut cold = true;
    for &kind in kinds {
        let misses = counter("synth.cancel.cache_misses");
        let start = Instant::now();
        let design = EncoderDesign::build(kind);
        let seconds = secs(start);
        build_s += seconds;
        let missed = counter("synth.cancel.cache_misses") - misses;
        let synthesized = design.synthesis_report().is_some();
        cold &= !synthesized || missed > 0;
        let mut row = Obj::new();
        row.text("design", design.name());
        row.num("build_s", seconds);
        row.boolean("synthesized", synthesized);
        row.int("cache_misses", missed);
        per_design.push(row);
        designs.push(design);
    }
    sfq_telemetry::set_recording(false);
    let snap = sfq_telemetry::global().snapshot();
    let mut passes = Obj::new();
    for h in &snap.histograms {
        if let Some(pass) = h
            .name
            .strip_prefix("synth.pass.")
            .and_then(|rest| rest.strip_suffix(".ns"))
        {
            passes.num(pass, h.sum as f64 * 1e-9);
        }
    }
    let mut synth = Obj::new();
    for name in [
        "synth.cancel.cache_hits",
        "synth.cancel.cache_misses",
        "synth.plan.candidates_priced",
    ] {
        synth.int(name, snap.counter(name).unwrap_or(0));
    }
    synth.obj("pass_s", passes);
    out.num("encoders_build_s", build_s);
    out.boolean("cold_cache", cold);
    out.objs("builds", per_design);
    out.obj("synth", synth);
    designs
}

/// Draws one uniform `k`-bit message exactly as the Monte-Carlo does.
pub fn random_message(k: usize, rng: &mut StdRng) -> BitVec {
    if k < 64 {
        BitVec::from_u64(k, rng.random_range(0..(1u64 << k)))
    } else {
        BitVec::from_u64(64, rng.random::<u64>())
    }
}

/// Per-call timings of chip sampling and of both link paths.
#[derive(Default)]
pub struct LinkProbe {
    pub chips: u64,
    pub faulty_cells: u64,
    pub sample_chip_s: f64,
    pub pulse_msgs: u64,
    pub pulse_s: f64,
    pub rebinds: u64,
    pub rebind_s: f64,
    pub transmit_batch_s: f64,
}

impl LinkProbe {
    /// Samples chip `chip` of the experiment, timed, and returns it with
    /// the chip's RNG positioned for its messages.
    pub fn sample_chip(
        &mut self,
        design: &EncoderDesign,
        library: &CellLibrary,
        experiment: &Fig5Experiment,
        chip: usize,
    ) -> (ChipSample, StdRng) {
        let mut rng = StdRng::seed_from_u64(experiment.seed.wrapping_add(chip as u64));
        let start = Instant::now();
        let sample = experiment
            .ppv
            .sample_chip(design.netlist(), library, &mut rng);
        self.sample_chip_s += secs(start);
        self.chips += 1;
        self.faulty_cells += sample.faults.faulty_count() as u64;
        (sample, rng)
    }

    /// Times [`CryoLink::transmit`] on the first `chips` chips.
    pub fn pulse(
        &mut self,
        design: &EncoderDesign,
        library: &CellLibrary,
        experiment: &Fig5Experiment,
        chips: usize,
    ) {
        for chip in 0..chips {
            let (sample, mut rng) = self.sample_chip(design, library, experiment, chip);
            let link = CryoLink::new(design, sample.faults, experiment.channel);
            for _ in 0..experiment.messages_per_chip {
                let message = random_message(design.k(), &mut rng);
                let start = Instant::now();
                std::hint::black_box(link.transmit(&message, &mut rng));
                self.pulse_s += secs(start);
                self.pulse_msgs += 1;
            }
        }
    }

    /// Times [`BatchLink::rebind`] and [`BatchLink::transmit_batch_with`]
    /// on the first `chips` chips.
    pub fn batched(
        &mut self,
        design: &EncoderDesign,
        library: &CellLibrary,
        experiment: &Fig5Experiment,
        chips: usize,
    ) {
        let context = BatchLinkContext::new(design);
        let mut link = BatchLink::new(design, &context);
        let mut messages = BitSlice64::default();
        let mut scratch = LinkScratch::new();
        for chip in 0..chips {
            let (sample, mut rng) = self.sample_chip(design, library, experiment, chip);
            let start = Instant::now();
            link.rebind(&sample.faults, experiment.channel);
            self.rebind_s += secs(start);
            link.random_messages_into(experiment.messages_per_chip, &mut rng, &mut messages);
            let start = Instant::now();
            std::hint::black_box(link.transmit_batch_with(&messages, &mut rng, &mut scratch));
            self.transmit_batch_s += secs(start);
            self.rebinds += 1;
        }
    }

    pub fn write(&self, out: &mut Obj) {
        out.int("chips", self.chips);
        out.int("faulty_cells", self.faulty_cells);
        out.num("sample_chip_s", self.sample_chip_s);
        out.int("pulse_msgs", self.pulse_msgs);
        out.num("pulse_s", self.pulse_s);
        out.int("rebinds", self.rebinds);
        out.num("rebind_s", self.rebind_s);
        out.num("transmit_batch_s", self.transmit_batch_s);
    }
}

/// Fills every lane with seeded random words under the tail mask, the way
/// the scrub worker regenerates a batch.
pub fn fill_random(frame: &mut BitSlice64, rng: &mut StdRng) {
    let words = frame.words();
    let tail = frame.tail_mask();
    for lane in 0..frame.bits() {
        for (w, slot) in frame.lane_mut(lane).iter_mut().enumerate() {
            let mask = if w + 1 == words { tail } else { u64::MAX };
            *slot = rng.random::<u64>() & mask;
        }
    }
}

/// One batch as the scrub worker sees it: its RNG seed and the clock-tree
/// burst width to strike it with (0 = none).
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    pub seed: u64,
    pub burst_width: u8,
}

/// Host time of each scrub-worker stage over replays of a set of batches.
#[derive(Default)]
pub struct BatchStages {
    pub batches: u64,
    pub limbs: u64,
    pub regen_s: f64,
    pub encode_s: f64,
    pub inject_s: f64,
    /// Full correction: `decode_batch_with` plus classification.
    pub full: ModeStages,
    /// Detection only: `detect_batch_with` plus classification.
    pub detect: ModeStages,
}

/// The decode-mode part of [`BatchStages`].
#[derive(Default)]
pub struct ModeStages {
    pub batches: u64,
    pub limbs: u64,
    pub call_s: f64,
    pub classify_s: f64,
}

impl ModeStages {
    fn write(&self) -> Obj {
        let mut out = Obj::new();
        out.int("batches", self.batches);
        out.int("limbs", self.limbs);
        out.num("call_s", self.call_s);
        out.num("classify_s", self.classify_s);
        out
    }
}

impl BatchStages {
    /// Replays the worker's public calls on the given batches, as the
    /// worker makes them in one mode: `encode_batch_into`,
    /// `SparseFlipSource::inject`, `BurstSource::strike`, then
    /// `decode_batch_with` or, with `detect`, `detect_batch_with`.
    pub fn replay(
        &mut self,
        codec: &BatchCodec,
        tickets: &[Ticket],
        batch_messages: usize,
        flip_prob: f64,
        detect: bool,
    ) {
        let (k, n) = (codec.k(), codec.n());
        let flips = SparseFlipSource::new(flip_prob);
        let mut scratch = BatchScratch::new();
        let mut decoded = BatchDecoded::empty();
        let mut dirty: Vec<u64> = Vec::new();
        let mut messages = BitSlice64::zeros(k, batch_messages);
        let mut clean = BitSlice64::default();
        let mut received = BitSlice64::default();
        let mut sink = 0u64;
        for ticket in tickets {
            let t0 = Instant::now();
            let mut rng = StdRng::seed_from_u64(ticket.seed);
            fill_random(&mut messages, &mut rng);
            let t1 = Instant::now();
            codec.encode_batch_into(&messages, &mut clean);
            let t2 = Instant::now();
            received.copy_from(&clean);
            flips.inject(&mut rng, &mut received);
            if ticket.burst_width > 0 {
                BurstSource::new(usize::from(ticket.burst_width), 1.0)
                    .strike(&mut rng, &mut received);
            }
            let t3 = Instant::now();
            let mode = if detect {
                codec.detect_batch_with(&received, &mut scratch, &mut dirty);
                &mut self.detect
            } else {
                codec.decode_batch_with(&received, &mut scratch, &mut decoded);
                &mut self.full
            };
            let t4 = Instant::now();
            sink += if detect {
                classify_detect(&received, &clean, &dirty, n)
            } else {
                classify_full(&decoded, &messages, k)
            };
            let t5 = Instant::now();
            self.regen_s += (t1 - t0).as_secs_f64();
            self.encode_s += (t2 - t1).as_secs_f64();
            self.inject_s += (t3 - t2).as_secs_f64();
            mode.call_s += (t4 - t3).as_secs_f64();
            mode.classify_s += (t5 - t4).as_secs_f64();
            mode.batches += 1;
            mode.limbs += messages.words() as u64;
            self.batches += 1;
            self.limbs += messages.words() as u64;
        }
        std::hint::black_box(sink);
    }

    pub fn write(&self, out: &mut Obj) {
        out.int("batches", self.batches);
        out.int("limbs", self.limbs);
        out.num("regen_s", self.regen_s);
        out.num("encode_s", self.encode_s);
        out.num("inject_s", self.inject_s);
        out.obj("full", self.full.write());
        out.obj("detect", self.detect.write());
    }
}

/// The worker's full-decode classification; returns the messages
/// delivered correctly (flagged and silently wrong ones are the rest).
fn classify_full(decoded: &BatchDecoded, messages: &BitSlice64, k: usize) -> u64 {
    let words = messages.words();
    let tail = messages.tail_mask();
    let mut ok = 0u64;
    for w in 0..words {
        let valid = if w + 1 == words { tail } else { u64::MAX };
        let flagged = decoded.flagged[w] & valid;
        let mut diff = 0u64;
        for lane in 0..k {
            diff |= decoded.messages.lane(lane)[w] ^ messages.lane(lane)[w];
        }
        let silent = diff & !flagged & valid;
        ok += u64::from((valid & !flagged & !silent).count_ones());
    }
    ok
}

/// The worker's detection-only classification; returns the messages
/// delivered clean (dirty ones go to rescrub).
fn classify_detect(received: &BitSlice64, clean: &BitSlice64, dirty: &[u64], n: usize) -> u64 {
    let words = received.words();
    let tail = received.tail_mask();
    let mut ok = 0u64;
    for (w, &dirty_word) in dirty.iter().enumerate().take(words) {
        let valid = if w + 1 == words { tail } else { u64::MAX };
        let mut diff = 0u64;
        for lane in 0..n {
            diff |= received.lane(lane)[w] ^ clean.lane(lane)[w];
        }
        ok += u64::from((valid & !(dirty_word & valid) & !diff).count_ones());
    }
    ok
}

/// Counters of the traced round that the per-layer metrics read, as one
/// object (absent counters read 0).
pub fn counters_snapshot(out: &mut Obj) {
    let snap = sfq_telemetry::global().snapshot();
    let mut counters = Obj::new();
    for c in &snap.counters {
        counters.int(&c.name, c.value);
    }
    let mut hist_sums = Obj::new();
    for h in &snap.histograms {
        hist_sums.int(&h.name, h.sum);
    }
    out.obj("counters", counters);
    out.obj("histogram_sums", hist_sums);
}
