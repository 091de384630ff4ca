//! Scalar vs bit-sliced batch codec throughput, and the batched Fig. 5
//! Monte-Carlo driver.
//!
//! Prints an encode+decode throughput comparison (messages/second) between
//! the scalar `ecc` path and the `sfq-batch` engine at 64-lane and 4096-lane
//! batches, then measures the kernels under Criterion. The acceptance target
//! for this workspace is >= 10x encode+decode throughput at 64-lane batches;
//! the measured ratio is printed by the comparison table.

use bench::{banner, banner_with_fingerprint, Fingerprint};
use criterion::{criterion_group, criterion_main, Criterion};
use cryolink::{BatchLink, BatchLinkContext, ChannelConfig, CryoLink, Fig5Experiment};
use ecc::{BatchDecode, BatchEncode, BlockCode, ColumnCode, HardDecoder};
use encoders::{EncoderDesign, EncoderKind};
use gf2::{BitSlice64, BitVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_batch::BatchCodec;
use sfq_cells::CellLibrary;
use sfq_sim::PpvModel;
use std::hint::black_box;
use std::time::Instant;

/// Measures one closure's sustained rate in messages/second.
fn throughput<F: FnMut() -> usize>(mut f: F) -> f64 {
    // Warm up (timed), then size the repetitions for ~200 ms of work.
    let start = Instant::now();
    let mut messages = f();
    let once = start.elapsed().max(std::time::Duration::from_nanos(100));
    let reps = (200_000_000 / once.as_nanos().max(1)).clamp(1, 2_000_000) as usize;
    let start = Instant::now();
    for _ in 0..reps {
        messages = black_box(f());
    }
    let elapsed = start.elapsed().as_secs_f64();
    (messages * reps) as f64 / elapsed
}

fn scalar_encode_decode(code: &ColumnCode, messages: &[BitVec]) -> usize {
    for msg in messages {
        let cw = code.encode(msg);
        let mut r = cw.clone();
        r.flip(3); // exercise the correction path, not just the clean path
        black_box(code.decode(&r));
    }
    messages.len()
}

fn batch_encode_decode(codec: &BatchCodec, messages: &BitSlice64) -> usize {
    let mut received = codec.encode_batch(messages);
    // Same single-bit error on every lane as the scalar loop applies.
    let words = received.words();
    let tail = received.tail_mask();
    for w in 0..words {
        let mask = if w + 1 == words { tail } else { u64::MAX };
        received.lane_mut(3)[w] ^= mask;
    }
    black_box(codec.decode_batch(&received));
    messages.batch()
}

fn print_comparison() {
    banner_with_fingerprint(
        "sfq-batch: scalar vs bit-sliced encode+decode throughput (Hamming(8,4))",
        &Fingerprint::new("hamming(8,4)", 0, 4096, 42, 1),
    );
    let code = ColumnCode::hamming84();
    let codec = BatchCodec::hamming84();
    let mut rng = StdRng::seed_from_u64(42);

    println!(
        "{:<12} {:>16} {:>16} {:>9}",
        "batch", "scalar msg/s", "batch msg/s", "speedup"
    );
    for &batch_size in &[64usize, 1024, 4096] {
        let messages: Vec<BitVec> = (0..batch_size)
            .map(|_| BitVec::from_u64(4, rng.random_range(0..16)))
            .collect();
        let packed = BitSlice64::pack(&messages);
        let scalar_rate = throughput(|| scalar_encode_decode(&code, &messages));
        let batch_rate = throughput(|| batch_encode_decode(&codec, &packed));
        println!(
            "{:<12} {:>16.3e} {:>16.3e} {:>8.1}x",
            batch_size,
            scalar_rate,
            batch_rate,
            batch_rate / scalar_rate
        );
    }

    banner("Fig. 5 inner loop: pulse-level vs batch link (100 messages/chip)");
    let library = CellLibrary::coldflux();
    let design = EncoderDesign::build(EncoderKind::Hamming84);
    let model = PpvModel::paper_defaults();
    let mut rng = StdRng::seed_from_u64(7);
    let chip = model.sample_chip(design.netlist(), &library, &mut rng);

    let scalar_link = CryoLink::new(&design, chip.faults.clone(), ChannelConfig::ideal());
    let messages: Vec<BitVec> = (0..100).map(|i| BitVec::from_u64(4, i % 16)).collect();
    let scalar_rate = throughput(|| {
        let mut rng = StdRng::seed_from_u64(9);
        black_box(scalar_link.transmit_batch(&messages, &mut rng));
        messages.len()
    });

    let context = BatchLinkContext::new(&design);
    let batch_link = BatchLink::with_chip(&design, &context, &chip.faults, ChannelConfig::ideal());
    let batch_rate = throughput(|| {
        let mut rng = StdRng::seed_from_u64(9);
        let batch = batch_link.random_messages(100, &mut rng);
        black_box(batch_link.transmit_batch(&batch, &mut rng));
        100
    });
    println!(
        "pulse-level link {scalar_rate:>12.3e} msg/s   batch link {batch_rate:>12.3e} msg/s   speedup {:>6.1}x",
        batch_rate / scalar_rate
    );
}

fn bench_batch_fig5(c: &mut Criterion) {
    print_comparison();

    let code = ColumnCode::hamming84();
    let codec = BatchCodec::hamming84();
    let mut rng = StdRng::seed_from_u64(42);
    let messages: Vec<BitVec> = (0..64)
        .map(|_| BitVec::from_u64(4, rng.random_range(0..16)))
        .collect();
    let packed = BitSlice64::pack(&messages);

    c.bench_function("batch_fig5/scalar_encode_decode_64", |b| {
        b.iter(|| scalar_encode_decode(&code, &messages))
    });
    c.bench_function("batch_fig5/batch_encode_decode_64", |b| {
        b.iter(|| batch_encode_decode(&codec, &packed))
    });

    let big: Vec<BitVec> = (0..4096)
        .map(|_| BitVec::from_u64(4, rng.random_range(0..16)))
        .collect();
    let big_packed = BitSlice64::pack(&big);
    c.bench_function("batch_fig5/batch_encode_decode_4096", |b| {
        b.iter(|| batch_encode_decode(&codec, &big_packed))
    });

    // End-to-end batched Fig. 5 (reduced size).
    let library = CellLibrary::coldflux();
    let design = EncoderDesign::build(EncoderKind::Hamming84);
    c.bench_function("batch_fig5/experiment_50_chips_batched", |b| {
        let experiment = Fig5Experiment {
            chips: 50,
            messages_per_chip: 100,
            threads: 4,
            ..Fig5Experiment::paper_setup()
        };
        b.iter(|| black_box(experiment.run_design_batched(&design, &library)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batch_fig5
}
criterion_main!(benches);
