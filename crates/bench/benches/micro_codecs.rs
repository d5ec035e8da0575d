//! Criterion micro-benchmarks for the codec substrate: the gzip/zstd/LZMA
//! speed-vs-ratio ordering the evaluation depends on, plus the per-capsule-
//! class ratio-vs-speed table the engine's codec cost model is derived from.

use codec::{Codec, Deflate, FastLz, LzmaLite};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Instant;

fn log_text(bytes: usize) -> Vec<u8> {
    let spec = workloads::by_name("Log A").expect("catalog has Log A");
    spec.generate(7, bytes)
}

/// Decomposes a workload into engine capsule payloads bucketed by class.
///
/// The classes mirror the Assembler's vector kinds: Real sub-value and
/// outlier capsules, Nominal dictionary and index capsules, and Plain
/// value capsules — the populations the per-capsule cost model chooses a
/// codec for.
fn capsule_class_payloads(bytes: usize) -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let spec = workloads::by_name("Log C").expect("catalog has Log C");
    let raw = spec.generate(bench::bench_seed(), bytes);
    let engine = loggrep::LogGrep::new(loggrep::LogGrepConfig::default());
    let boxed = engine.compress(&raw).expect("compress");
    let mut classes: Vec<(&'static str, Vec<Vec<u8>>)> = vec![
        ("real-sub", Vec::new()),
        ("real-outlier", Vec::new()),
        ("nominal-dict", Vec::new()),
        ("nominal-index", Vec::new()),
        ("plain", Vec::new()),
    ];
    let mut push = |class: usize, id: u32| {
        let payload = boxed.decompress_capsule(id).expect("capsule decodes");
        classes[class].1.push(payload);
    };
    for group in &boxed.groups {
        for vector in &group.vectors {
            match vector {
                loggrep::vector::VectorMeta::Real {
                    sub_caps,
                    outlier_cap,
                    ..
                } => {
                    for &id in sub_caps {
                        push(0, id);
                    }
                    push(1, *outlier_cap);
                }
                loggrep::vector::VectorMeta::Nominal {
                    dict_cap,
                    index_cap,
                    ..
                } => {
                    push(2, *dict_cap);
                    push(3, *index_cap);
                }
                loggrep::vector::VectorMeta::Plain { capsule } => push(4, *capsule),
            }
        }
    }
    classes.retain(|(_, payloads)| !payloads.is_empty());
    classes
}

/// Times `f` over `reps` runs and returns the best wall time in seconds.
fn best_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Prints the ratio-vs-speed table behind the cost model's thresholds:
/// for every capsule class and codec, the compression ratio and the
/// compress/decompress throughput over the class's real payload
/// population (Log C via the engine's own Assembler).
fn emit_cost_model_table(classes: &[(&'static str, Vec<Vec<u8>>)]) {
    eprintln!("\ncapsule-class ratio-vs-speed table (cost-model input):");
    eprintln!(
        "{:<14} {:>9} {:>10} | {:>7} {:>12} {:>12}",
        "class", "payloads", "bytes", "ratio", "comp MB/s", "decomp MB/s"
    );
    for (class, payloads) in classes {
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        for codec in codecs() {
            let mut packed: Vec<Vec<u8>> = Vec::new();
            let comp_secs = best_secs(3, || {
                packed = payloads.iter().map(|p| codec.compress(p)).collect();
            });
            let csize: usize = packed.iter().map(|p| p.len()).sum();
            let decomp_secs = best_secs(3, || {
                for p in &packed {
                    std::hint::black_box(codec.decompress(p).expect("valid"));
                }
            });
            eprintln!(
                "{:<14} {:>9} {:>10} | {:>7.3} {:>12.1} {:>12.1}  {}",
                class,
                payloads.len(),
                total,
                total as f64 / csize.max(1) as f64,
                total as f64 / 1e6 / comp_secs,
                total as f64 / 1e6 / decomp_secs,
                codec.name(),
            );
        }
    }
    eprintln!();
}

fn codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(FastLz::default()),
        Box::new(Deflate::default()),
        Box::new(LzmaLite::default()),
    ]
}

fn bench_compress(c: &mut Criterion) {
    let data = log_text(256 * 1024);
    let mut g = c.benchmark_group("codec_compress");
    g.throughput(Throughput::Bytes(data.len() as u64));
    for codec in codecs() {
        g.bench_with_input(
            BenchmarkId::from_parameter(codec.name()),
            &data,
            |b, data| b.iter(|| codec.compress(data)),
        );
    }
    g.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let data = log_text(256 * 1024);
    let mut g = c.benchmark_group("codec_decompress");
    g.throughput(Throughput::Bytes(data.len() as u64));
    for codec in codecs() {
        let packed = codec.compress(&data);
        g.bench_with_input(
            BenchmarkId::from_parameter(codec.name()),
            &packed,
            |b, packed| b.iter(|| codec.decompress(packed).expect("valid")),
        );
    }
    g.finish();
}

fn bench_capsule_classes(c: &mut Criterion) {
    // MICRO_CODECS_BYTES overrides the workload size when re-deriving the
    // cost-model table at other scales.
    let bytes = std::env::var("MICRO_CODECS_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(512 * 1024);
    let classes = capsule_class_payloads(bytes);
    emit_cost_model_table(&classes);
    let mut g = c.benchmark_group("codec_capsule_class");
    for (class, payloads) in &classes {
        let total: usize = payloads.iter().map(|p| p.len()).sum();
        g.throughput(Throughput::Bytes(total as u64));
        for codec in codecs() {
            g.bench_with_input(
                BenchmarkId::new(*class, codec.name()),
                payloads,
                |b, payloads| {
                    b.iter(|| {
                        for p in payloads {
                            std::hint::black_box(codec.compress(p));
                        }
                    })
                },
            );
        }
    }
    g.finish();
}

criterion_group!{
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(15);
    targets = bench_compress, bench_decompress, bench_capsule_classes
}
criterion_main!(benches);
