//! Table I — number of detected and corrected errors per code.
//!
//! Regenerates the table from exhaustive error-pattern analysis and measures
//! the cost of the analysis itself.

use bench::banner;
use criterion::{criterion_group, criterion_main, Criterion};
use ecc::analysis::{paper_table1, table1_row, CodeAnalysis, DecodingPolicy};
use ecc::{ColumnCode, Rm13};
use std::hint::black_box;

fn print_table1() {
    banner("Table I: number of detected and corrected errors");
    println!(
        "{:<14} {:>4} | {:>12} {:>13} | {:>11} {:>12} | {:>16}",
        "code",
        "dmin",
        "worst detect",
        "worst correct",
        "best detect",
        "best correct",
        "weight-3 caught"
    );
    let rows = vec![
        table1_row(&ColumnCode::hamming74()),
        table1_row(&ColumnCode::hamming84()),
        table1_row(&Rm13::new()),
    ];
    for row in &rows {
        println!(
            "{:<14} {:>4} | {:>12} {:>13} | {:>11} {:>12} | {:>15.0}%",
            row.code,
            row.dmin,
            row.worst_detected,
            row.worst_corrected,
            row.best_detected,
            row.best_corrected,
            row.weight3_detection_rate * 100.0
        );
    }
    println!();
    println!("paper's Table I (for comparison):");
    for row in paper_table1() {
        println!(
            "{:<14} {:>4} | {:>12} {:>13} | {:>11} {:>12}",
            row.code,
            row.dmin,
            row.worst_detected,
            row.worst_corrected,
            row.best_detected,
            row.best_corrected
        );
    }
}

fn bench_table1(c: &mut Criterion) {
    print_table1();
    let code = ColumnCode::hamming84();
    c.bench_function("table1/exhaustive_analysis_hamming84", |b| {
        b.iter(|| {
            black_box(CodeAnalysis::exhaustive(
                black_box(&code),
                DecodingPolicy::HardwareDecoder,
                4,
            ))
        })
    });
    c.bench_function("table1/full_row_rm13", |b| {
        let rm = Rm13::new();
        b.iter(|| black_box(table1_row(black_box(&rm))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_table1
}
criterion_main!(benches);
