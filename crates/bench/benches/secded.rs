//! SEC-DED family benchmarks: construction, synthesis, and wide-word codec
//! throughput on the (72,64) member, scalar vs bit-sliced batch.

use bench::banner;
use criterion::{criterion_group, criterion_main, Criterion};
use ecc::{BatchDecode, BatchEncode, BlockCode, ColumnCode, HardDecoder};
use encoders::{EncoderDesign, EncoderKind};
use gf2::{BitSlice64, BitVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfq_batch::BatchCodec;
use std::hint::black_box;

const LANES: usize = 4096;

fn print_throughput_summary() {
    banner("SEC-DED(72,64): scalar vs batch codec throughput");
    let code = ColumnCode::sec_ded(6);
    let codec = BatchCodec::sec_ded(6);
    let mut rng = StdRng::seed_from_u64(1);
    let messages: Vec<BitVec> = (0..LANES)
        .map(|_| BitVec::from_u64(64, rng.random::<u64>()))
        .collect();
    let batch = BitSlice64::pack(&messages);

    let start = std::time::Instant::now();
    for message in &messages {
        black_box(code.decode(&code.encode(message)));
    }
    let scalar = start.elapsed();

    let start = std::time::Instant::now();
    black_box(codec.decode_batch(&codec.encode_batch(&batch)));
    let batched = start.elapsed();

    println!(
        "encode+decode {LANES} words: scalar {scalar:?}, batch {batched:?} ({:.1}x)",
        scalar.as_secs_f64() / batched.as_secs_f64().max(1e-12)
    );
}

fn bench_secded(c: &mut Criterion) {
    print_throughput_summary();

    c.bench_function("secded/construct_72_64", |b| {
        b.iter(|| black_box(ColumnCode::sec_ded(6)))
    });
    c.bench_function("secded/batch_codec_build", |b| {
        b.iter(|| black_box(BatchCodec::sec_ded(6)))
    });
    c.bench_function("secded/synthesize_encoder_netlist", |b| {
        b.iter(|| black_box(EncoderDesign::build(EncoderKind::SecDed(6))))
    });

    let code = ColumnCode::sec_ded(6);
    let codec = BatchCodec::sec_ded(6);
    let mut rng = StdRng::seed_from_u64(2);
    let messages: Vec<BitVec> = (0..LANES)
        .map(|_| BitVec::from_u64(64, rng.random::<u64>()))
        .collect();
    let batch = BitSlice64::pack(&messages);
    let encoded = codec.encode_batch(&batch);

    c.bench_function("secded/scalar_encode_one", |b| {
        b.iter(|| black_box(code.encode(&messages[0])))
    });
    c.bench_function("secded/batch_encode_4096", |b| {
        b.iter(|| black_box(codec.encode_batch(&batch)))
    });
    c.bench_function("secded/batch_decode_4096", |b| {
        b.iter(|| black_box(codec.decode_batch(&encoded)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_secded
}
criterion_main!(benches);
