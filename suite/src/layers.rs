//! The traced run: per-layer numbers, measured by timing calls into each
//! layer's public functions on the workload's own corpus and op list.
//!
//! Layer names are this repository's modules. Times given as `*_ms` are
//! means per call (per block for the write side, per op for the read
//! side). Everything runs at the clients' one engine thread, so counts
//! repeat exactly for a given seed; the `pool` layer alone widens it.

use crate::harness::{self, Prepared, Settings};
use crate::oracle::Observed;
use crate::trace::Tracer;
use crate::util::{self, Pace, Scratch};
use crate::workload::{self, Action, Def, Kind};
use loggrep::capsule::{build_payload, codec_by_id, CapsuleView, Layout, Stamp};
use loggrep::extract::nominal::write_index_into;
use loggrep::extract::{extract_vector, Extraction};
use loggrep::query::lang::Query;
use loggrep::{AggLayer, AggSpec, Archive, LogGrepConfig};
use logparse::Parser;
use std::path::Path;
use std::time::{Duration, Instant};
use strsearch::fixed::Mode;

/// `(name, value)`; units are in `main::PER_LAYER`.
pub type Metric = (String, f64);

#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub trace_file: std::path::PathBuf,
    /// `(span name, count, self seconds)`.
    pub self_times: Vec<(&'static str, u64, f64)>,
}

const CODECS: [&str; 4] = ["store", "fastlz", "deflate", "lzma-lite"];
/// The codec and string-search layers time every 4th Capsule: lzma-lite
/// runs at a few MB/s, and a quarter of the payloads already covers every
/// Capsule class of every block.
const CAPSULE_SAMPLE_STRIDE: usize = 4;
const KEYWORDS_PER_BLOCK: usize = 4;
/// Paired on/off comparisons (pool, telemetry, tracing) repeat this often.
const PAIRS: usize = 3;
const BOXFILE_REPS: usize = 3;

/// One Capsule of the stored corpus, decompressed.
struct Capsule {
    block: usize,
    payload: Vec<u8>,
    meta: loggrep::capsule::CapsuleMeta,
}

fn capsules(prepared: &Prepared) -> Result<Vec<Capsule>, String> {
    let mut out = Vec::new();
    for (block, archive) in prepared.archives.iter().enumerate() {
        let boxed = archive.capsule_box();
        for (id, meta) in boxed.capsules.iter().enumerate() {
            let payload = boxed
                .decompress_capsule(id as u32)
                .map_err(|e| e.to_string())?;
            out.push(Capsule {
                block,
                payload,
                meta: meta.clone(),
            });
        }
    }
    Ok(out)
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

fn mb_s(bytes: f64, secs: f64) -> f64 {
    util::ratio(bytes / 1e6, secs)
}

fn median_of(mut samples: Vec<f64>) -> f64 {
    util::median(&mut samples)
}

/// The write path, stage by stage at one thread, beside the whole
/// `LogGrep::compress` + `to_bytes` it should add up to.
fn write_side(
    prepared: &Prepared,
    caps: &[Capsule],
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let config = LogGrepConfig {
        threads: util::CLIENT_THREADS,
        ..Default::default()
    };
    let engine = harness::engine(util::CLIENT_THREADS);
    let blocks = prepared.blocks.len() as f64;
    let (mut train, mut parse, mut extract, mut build, mut encode, mut pack, mut whole) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut templates, mut lines_total, mut catch_all) = (0usize, 0usize, 0usize);
    let (mut real, mut nominal, mut plain) = (0usize, 0usize, 0usize);
    let (mut outlier_rows, mut real_rows) = (0usize, 0usize);

    for (b, block) in prepared.blocks.iter().enumerate() {
        let boxed = prepared.archives[b].capsule_box();
        let lines = block.lines();
        lines_total += lines.len();
        tracer.scope("ingest.staged", |t| {
            let (parser, s) = t.call("logparse.train", || {
                Parser::train(&config.parser, lines.iter().copied())
            });
            train += s;
            let (parsed, s) = t.call("logparse.parse_all", || {
                parser.parse_all(lines.iter().copied())
            });
            parse += s;
            templates += parsed.templates.len();
            catch_all += parsed.groups[logparse::CATCH_ALL as usize].rows();

            let (extractions, s) = t.call("extract.extract_vector", || {
                let mut v = Vec::new();
                let mut vector_id = 0u64;
                for group in parsed.groups.iter().filter(|g| g.rows() > 0) {
                    for column in &group.vars {
                        vector_id += 1;
                        v.push((column, extract_vector(column, &config, vector_id)));
                    }
                }
                v
            });
            extract += s;
            for (column, extraction) in &extractions {
                match extraction {
                    Extraction::Real(ex) => {
                        real += 1;
                        real_rows += column.len();
                        outlier_rows += ex.outlier_rows.len();
                    }
                    Extraction::Nominal(_) => nominal += 1,
                    Extraction::Plain => plain += 1,
                }
            }

            // The Assembler's payload work, through the same public calls.
            let ((), s) = t.call("capsule.build_payload", || {
                for (column, extraction) in &extractions {
                    match extraction {
                        Extraction::Real(ex) => {
                            for sub in &ex.sub_values {
                                std::hint::black_box(build_payload(sub.iter().copied(), true));
                            }
                            std::hint::black_box(build_payload(
                                ex.outlier_values.iter().copied(),
                                false,
                            ));
                        }
                        Extraction::Nominal(ex) => {
                            let dict = ex.dict_values.iter().map(Vec::as_slice);
                            std::hint::black_box(build_payload(dict, true));
                            let width = ex.idx_len as usize;
                            let mut index = Vec::with_capacity(ex.index.len() * width);
                            for &i in &ex.index {
                                write_index_into(i, ex.idx_len, &mut index);
                            }
                            std::hint::black_box(Stamp::of(index.chunks_exact(width.max(1))));
                        }
                        Extraction::Plain => {
                            std::hint::black_box(build_payload(column.iter(), true));
                        }
                    }
                }
            });
            build += s;

            // What `auto` chose, re-run on the Capsules' real payloads.
            let ((), s) = t.call("codec.compress", || {
                for c in caps.iter().filter(|c| c.block == b) {
                    let codec = codec_by_id(c.meta.codec).expect("stored codec id");
                    std::hint::black_box(codec.compress(&c.payload));
                }
            });
            encode += s;
            let (_, s) = t.call("boxfile.to_bytes", || {
                std::hint::black_box(boxed.to_bytes())
            });
            pack += s;
        });
        let (stored, s) = tracer.call("ingest.whole", || {
            engine.compress(&block.raw).map(|b| b.to_bytes())
        });
        stored.map_err(|e| e.to_string())?;
        whole += s;
    }

    let raw = prepared.raw_bytes() as f64;
    out.push(("logparse.train_ms".into(), ms(train) / blocks));
    out.push(("logparse.parse_mb_s".into(), mb_s(raw, parse)));
    out.push(("logparse.templates".into(), templates as f64));
    out.push((
        "logparse.catch_all_rate".into(),
        util::ratio(catch_all as f64, lines_total as f64),
    ));
    out.push(("extract.ms".into(), ms(extract) / blocks));
    out.push(("extract.vectors_real".into(), real as f64));
    out.push(("extract.vectors_nominal".into(), nominal as f64));
    out.push(("extract.vectors_plain".into(), plain as f64));
    out.push((
        "extract.outlier_rate".into(),
        util::ratio(outlier_rows as f64, real_rows as f64),
    ));
    out.push(("capsule.build_ms".into(), ms(build) / blocks));
    out.push(("capsule.count".into(), caps.len() as f64));
    out.push((
        "capsule.payload_bytes".into(),
        caps.iter().map(|c| c.payload.len()).sum::<usize>() as f64,
    ));
    let staged = train + parse + extract + build + encode + pack;
    out.push((
        "ingest.attribution_coverage".into(),
        util::ratio(staged, whole),
    ));
    Ok(())
}

fn codec_layer(caps: &[Capsule], tracer: &mut Tracer, out: &mut Vec<Metric>) -> Result<(), String> {
    let total: usize = caps.iter().map(|c| c.payload.len()).sum();
    let sample: Vec<&Capsule> = caps.iter().step_by(CAPSULE_SAMPLE_STRIDE).collect();
    let sample_bytes: usize = sample.iter().map(|c| c.payload.len()).sum();
    for name in CODECS {
        let id = loggrep::capsule::codec_id_by_name(name).map_err(|e| e.to_string())?;
        let codec = codec::by_name(name).ok_or_else(|| format!("no codec {name}"))?;
        let (packed, pack_s) = tracer.call("codec.compress", || {
            sample
                .iter()
                .map(|c| codec.compress(&c.payload))
                .collect::<Vec<_>>()
        });
        let (result, unpack_s) = tracer.call("codec.decompress_into", || {
            let mut buf = Vec::new();
            packed.iter().zip(&sample).try_for_each(|(p, c)| {
                codec.decompress_into(p, &mut buf)?;
                if buf == c.payload {
                    Ok(())
                } else {
                    Err(codec::CodecError::new("round trip differs"))
                }
            })
        });
        result.map_err(|e| format!("{name}: {e}"))?;
        let packed_bytes: usize = packed.iter().map(Vec::len).sum();
        let chosen: usize = caps
            .iter()
            .filter(|c| c.meta.codec == id)
            .map(|c| c.payload.len())
            .sum();
        out.push((
            format!("codec.{name}.compress_mb_s"),
            mb_s(sample_bytes as f64, pack_s),
        ));
        out.push((
            format!("codec.{name}.decompress_mb_s"),
            mb_s(sample_bytes as f64, unpack_s),
        ));
        out.push((
            format!("codec.{name}.ratio"),
            util::ratio(sample_bytes as f64, packed_bytes as f64),
        ));
        out.push((
            format!("codec.{name}.byte_share"),
            util::ratio(chosen as f64, total as f64),
        ));
    }
    Ok(())
}

fn boxfile_layer(
    prepared: &Prepared,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let (mut pack, mut open) = (Vec::new(), Vec::new());
    let (mut metadata, mut blob) = (0u64, 0u64);
    for (archive, stored) in prepared.archives.iter().zip(&prepared.stored_bytes) {
        let boxed = archive.capsule_box();
        blob += boxed.blob.len() as u64;
        metadata += stored - boxed.blob.len() as u64;
        for _ in 0..BOXFILE_REPS {
            let (bytes, s) = tracer.call("boxfile.to_bytes", || boxed.to_bytes());
            pack.push(ms(s));
            let (opened, s) = tracer.call("boxfile.from_bytes", || Archive::from_bytes(&bytes));
            opened.map_err(|e| e.to_string())?;
            open.push(ms(s));
        }
    }
    out.push(("boxfile.serialize_ms".into(), util::mean(&pack)));
    out.push(("boxfile.open_ms".into(), util::mean(&open)));
    out.push(("boxfile.metadata_bytes".into(), metadata as f64));
    out.push(("boxfile.blob_bytes".into(), blob as f64));
    Ok(())
}

/// Totals of one pass over the schedule.
#[derive(Debug, Default)]
struct Pass {
    wall: f64,
    cacheable: u64,
    cache_hits: u64,
    hit_ms: Vec<f64>,
    capsules_total: u64,
    capsules_decompressed: u64,
    bytes_decompressed: u64,
    stamp_rejections: u64,
    rows_verified: u64,
    hits: u64,
}

/// `harness::read_pass` with a span per op (and per cold open), keeping
/// the engine's own per-op statistics.
fn traced_pass(
    prepared: &Prepared,
    cold: bool,
    tracer: &mut Tracer,
    observed: &mut Observed,
) -> Pass {
    let mut pass = Pass::default();
    if !cold {
        prepared.archives.iter().for_each(Archive::clear_caches);
    }
    let start = Instant::now();
    for &i in &prepared.list.schedule {
        let op = &prepared.list.ops[i as usize];
        let name = match op.action {
            Action::Query(_) => "op.query",
            Action::ReconstructAll => "op.reconstruct_all",
            Action::Agg { .. } => "op.agg",
        };
        let (outcome, secs) = tracer.scope(name, |t| {
            if cold {
                let (opened, _) = t.call("boxfile.open", || {
                    harness::open_file(&prepared.files[op.block])
                });
                opened.and_then(|archive| {
                    t.call("query.exec", || harness::run_action(&archive, &op.action))
                        .0
                        .map_err(|e| e.to_string())
                })
            } else {
                let archive = &prepared.archives[op.block];
                t.call("query.exec", || harness::run_action(archive, &op.action))
                    .0
                    .map_err(|e| e.to_string())
            }
        });
        if let Ok(harness::Outcome {
            hits,
            stats: Some(stats),
        }) = &outcome
        {
            pass.cacheable += 1;
            if stats.cache_hit {
                pass.cache_hits += 1;
                pass.hit_ms.push(ms(secs));
            } else if matches!(op.action, Action::Query(_)) {
                pass.capsules_total += u64::from(stats.capsules_total);
                pass.capsules_decompressed += stats.capsules_decompressed as u64;
                pass.bytes_decompressed += stats.bytes_decompressed;
                pass.stamp_rejections += stats.stamp_rejections as u64;
                pass.rows_verified += stats.rows_verified as u64;
                pass.hits += hits;
            }
        }
        observed.note(i, op, outcome.map(|o| o.hits));
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass
}

fn read_side(
    prepared: &Prepared,
    caps: &[Capsule],
    cold: bool,
    tracer: &mut Tracer,
    observed: &mut Observed,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    // Plan: explain every distinct line query, without decompressing.
    let (mut plan_ms, mut dead, mut groups) = (Vec::new(), 0usize, 0usize);
    for op in &prepared.list.ops {
        if let Action::Query(command) = &op.action {
            let archive = &prepared.archives[op.block];
            let (explained, s) = tracer.call("plan.explain", || archive.explain(command));
            let explained = explained.map_err(|e| e.to_string())?;
            plan_ms.push(ms(s));
            dead += explained.dead_groups();
            groups += explained.templates.len();
        }
    }
    out.push(("plan.ms".into(), util::mean(&plan_ms)));
    out.push((
        "plan.dead_group_share".into(),
        util::ratio(dead as f64, groups as f64),
    ));

    // Exec: one pass on held archives; the engine's own counts per op.
    let pass = traced_pass(prepared, false, tracer, observed);
    let (mut lines, mut secs) = (0u64, 0.0);
    for archive in &prepared.archives {
        let (all, s) = tracer.call("query.reconstruct_all", || archive.reconstruct_all());
        lines += all.map_err(|e| e.to_string())?.len() as u64;
        secs += s;
    }
    out.push((
        "exec.capsules_decompressed_share".into(),
        util::ratio(
            pass.capsules_decompressed as f64,
            pass.capsules_total as f64,
        ),
    ));
    out.push((
        "exec.bytes_decompressed".into(),
        pass.bytes_decompressed as f64,
    ));
    out.push(("exec.stamp_rejections".into(), pass.stamp_rejections as f64));
    out.push((
        "exec.rows_verified_per_hit".into(),
        util::ratio(pass.rows_verified as f64, pass.hits as f64),
    ));
    out.push((
        "exec.reconstruct_lines_per_s".into(),
        util::ratio(lines as f64, secs),
    ));
    out.push((
        "cache.hit_rate".into(),
        util::ratio(pass.cache_hits as f64, pass.cacheable as f64),
    ));
    out.push(("cache.hit_ms".into(), util::mean(&pass.hit_ms)));

    // String search: over the blocks' padded Capsules, the workload's
    // keywords where the Capsule's stamp admits them (the engine searches
    // no others), and always the Capsule's own middle value, a needle of
    // the right width that is certain to be there.
    let (mut bytes, mut secs) = (0usize, 0.0);
    for b in 0..prepared.blocks.len() {
        let keywords: Vec<Vec<u8>> = prepared
            .list
            .ops
            .iter()
            .filter(|op| op.block == b)
            .filter_map(|op| match &op.action {
                Action::Query(q) => Query::parse(q).ok(),
                _ => None,
            })
            .filter_map(|q| {
                q.expr
                    .search_strings()
                    .first()
                    .map(|s| s.longest_literal().to_vec())
            })
            .take(KEYWORDS_PER_BLOCK)
            .collect();
        let padded = caps
            .iter()
            .filter(|c| {
                c.block == b && c.meta.rows > 0 && matches!(c.meta.layout, Layout::Padded { .. })
            })
            .step_by(CAPSULE_SAMPLE_STRIDE);
        for c in padded {
            let view = CapsuleView::new(&c.payload, &c.meta).map_err(|e| e.to_string())?;
            let own = view.value(view.rows() / 2);
            let admitted = keywords
                .iter()
                .map(Vec::as_slice)
                .filter(|k| c.meta.stamp.admits(k));
            for needle in admitted.chain([own]).filter(|n| !n.is_empty()) {
                let (found, s) =
                    tracer.call("strsearch.find", || view.find(needle, Mode::Contains));
                std::hint::black_box(found);
                bytes += c.payload.len();
                secs += s;
            }
        }
    }
    out.push(("strsearch.fixed_mb_s".into(), mb_s(bytes as f64, secs)));

    // Aggregates: each verb on each block, and which layer answered.
    let verbs = ["count", "count-by-template", "histogram", "top-k"];
    let mut verb_ms: Vec<Vec<f64>> = vec![Vec::new(); verbs.len()];
    let layers = [
        AggLayer::Metadata,
        AggLayer::Dictionary,
        AggLayer::CapsuleScan,
        AggLayer::Reconstruct,
    ];
    let mut answered = [0u64; 4];
    let mut asked = 0u64;
    for (block, archive) in prepared.blocks.iter().zip(&prepared.archives) {
        archive.clear_caches();
        for action in workload::agg_actions(block, archive.capsule_box()) {
            let Action::Agg { filter, spec } = &action else {
                continue;
            };
            let (answer, s) = tracer.call("agg.query_agg", || {
                archive.query_agg(filter.as_deref(), spec)
            });
            let answer = answer.map_err(|e| e.to_string())?;
            asked += 1;
            if let Some(at) = answer
                .stats
                .agg_layer
                .and_then(|l| layers.iter().position(|x| *x == l))
            {
                answered[at] += 1;
            }
            if filter.is_none() {
                let verb = match spec {
                    AggSpec::Count => 0,
                    AggSpec::CountByTemplate => 1,
                    AggSpec::Histogram { .. } => 2,
                    AggSpec::TopK { .. } => 3,
                };
                verb_ms[verb].push(ms(s));
            }
        }
    }
    for (verb, samples) in verbs.iter().zip(&verb_ms) {
        out.push((format!("agg.{verb}.ms"), util::mean(samples)));
    }
    for (layer, n) in layers.iter().zip(answered) {
        out.push((
            format!("agg.layer_share.{}", layer.name()),
            util::ratio(n as f64, asked as f64),
        ));
    }

    // Telemetry: the workload's pass with the engine's telemetry on and off.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    tracer.set_recording(false);
    for _ in 0..PAIRS {
        telemetry::set_enabled(true);
        on.push(traced_pass(prepared, cold, tracer, observed).wall);
        telemetry::set_enabled(false);
        off.push(traced_pass(prepared, cold, tracer, observed).wall);
    }
    tracer.set_recording(true);
    let (on, off) = (median_of(on), median_of(off));
    out.push((
        "telemetry.enabled_overhead_pct".into(),
        util::ratio(on - off, off) * 100.0,
    ));
    Ok(())
}

/// Ingest, scan and reconstruct at one thread against `min(nproc, 2)` (the
/// same on a one-core box, where every speed-up reads 1).
fn pool_layer(
    prepared: &mut Prepared,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let many = util::pool_threads();
    let scans: Vec<String> = prepared
        .blocks
        .iter()
        .map(|b| workload::scan_commands(b).swap_remove(0))
        .collect();
    let mut secs = [
        [Vec::new(), Vec::new()],
        [Vec::new(), Vec::new()],
        [Vec::new(), Vec::new()],
    ];
    for _ in 0..PAIRS {
        for (side, threads) in [1, many].into_iter().enumerate() {
            let engine = harness::engine(threads);
            for archive in &mut prepared.archives {
                archive.set_threads(threads);
                archive.clear_caches();
            }
            let (result, s) = tracer.call("pool.ingest", || {
                prepared
                    .blocks
                    .iter()
                    .try_for_each(|b| engine.compress(&b.raw).map(drop))
            });
            result.map_err(|e| e.to_string())?;
            secs[0][side].push(s);
            let (result, s) = tracer.call("pool.scan", || {
                prepared
                    .archives
                    .iter()
                    .zip(&scans)
                    .try_for_each(|(a, q)| a.query(q).map(drop))
            });
            result.map_err(|e| e.to_string())?;
            secs[1][side].push(s);
            let (result, s) = tracer.call("pool.reconstruct", || {
                prepared
                    .archives
                    .iter()
                    .try_for_each(|a| a.reconstruct_all().map(drop))
            });
            result.map_err(|e| e.to_string())?;
            secs[2][side].push(s);
        }
    }
    for archive in &mut prepared.archives {
        archive.set_threads(util::CLIENT_THREADS);
    }
    for (name, [one, many]) in ["ingest", "scan", "reconstruct"].into_iter().zip(secs) {
        out.push((
            format!("pool.speedup_{name}"),
            util::ratio(median_of(one), median_of(many)),
        ));
    }
    Ok(())
}

/// Each side of a writer-beside-reader pair alone, then together: the
/// writer ingests the corpus in a loop, the reader asks the schedule in a
/// loop, one engine thread each.
fn contention_layer(
    prepared: &Prepared,
    cold: bool,
    window: Duration,
    dir: &Path,
    tracer: &mut Tracer,
    observed: &mut Observed,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let engine = harness::engine(util::CLIENT_THREADS);
    let writer = |deadline: Instant| -> Result<f64, String> {
        let (start, mut bytes) = (Instant::now(), 0u64);
        for (n, block) in prepared.blocks.iter().enumerate().cycle() {
            if Instant::now() >= deadline {
                break;
            }
            harness::ingest_block(&engine, &block.raw, &dir.join(format!("beside-{n}.lgb")))?;
            bytes += block.raw.len() as u64;
        }
        Ok(mb_s(bytes as f64, start.elapsed().as_secs_f64()))
    };
    let reader = |deadline: Instant| -> (f64, Observed) {
        let mut seen = Observed::new(prepared.list.ops.len());
        let mut pace = Pace::new();
        let (start, mut ops) = (Instant::now(), Vec::new());
        while Instant::now() < deadline {
            harness::read_pass(
                prepared,
                &prepared.list.schedule,
                cold,
                &mut pace,
                &mut ops,
                &mut seen,
            );
        }
        (
            util::ratio(ops.len() as f64, start.elapsed().as_secs_f64()),
            seen,
        )
    };
    let (solo_mb_s, _) = tracer.call("contention.writer_solo", || writer(Instant::now() + window));
    let ((solo_ops_s, seen), _) =
        tracer.call("contention.reader_solo", || reader(Instant::now() + window));
    observed.absorb(seen);
    let ((both_mb_s, (both_ops_s, seen)), _) = tracer.call("contention.together", || {
        let deadline = Instant::now() + window;
        std::thread::scope(|s| {
            let w = s.spawn(|| writer(deadline));
            let r = s.spawn(|| reader(deadline));
            (
                w.join().expect("writer thread"),
                r.join().expect("reader thread"),
            )
        })
    });
    observed.absorb(seen);
    out.push((
        "contention.ingest_slowdown".into(),
        util::ratio(solo_mb_s?, both_mb_s?),
    ));
    out.push((
        "contention.query_slowdown".into(),
        util::ratio(solo_ops_s, both_ops_s),
    ));
    Ok(())
}

pub fn run(def: &Def, settings: Settings, out_dir: &Path) -> Result<Report, String> {
    let scratch = Scratch::new(&format!("layers-{}", def.name)).map_err(|e| e.to_string())?;
    let cold = matches!(def.kind, Kind::ColdAgg | Kind::TailMixed);
    let mut prepared = harness::set_up(def, settings, scratch.path())?;
    let mut observed = Observed::new(prepared.list.ops.len());
    let mut tracer = Tracer::new();
    let mut metrics = Vec::new();
    let caps = capsules(&prepared)?;

    write_side(&prepared, &caps, &mut tracer, &mut metrics)?;
    codec_layer(&caps, &mut tracer, &mut metrics)?;
    boxfile_layer(&prepared, &mut tracer, &mut metrics)?;
    read_side(
        &prepared,
        &caps,
        cold,
        &mut tracer,
        &mut observed,
        &mut metrics,
    )?;
    pool_layer(&mut prepared, &mut tracer, &mut metrics)?;
    let window = Duration::from_secs_f64(settings.seconds / 8.0);
    contention_layer(
        &prepared,
        cold,
        window,
        scratch.path(),
        &mut tracer,
        &mut observed,
        &mut metrics,
    )?;

    // The paper's reference compressor (Fig. 7): whole-block gzip.
    let (gzip_bytes, _) = tracer.call("baselines.gzip", || -> usize {
        let deflate = codec::by_name("deflate").expect("deflate codec");
        prepared
            .blocks
            .iter()
            .map(|b| deflate.compress(&b.raw).len())
            .sum()
    });
    let gzip_ratio = util::ratio(prepared.raw_bytes() as f64, gzip_bytes as f64);
    metrics.push(("baselines.gzip_ratio".into(), gzip_ratio));
    metrics.push((
        "baselines.ratio_vs_gzip".into(),
        util::ratio(prepared.compression_ratio(), gzip_ratio),
    ));

    // Tracing overhead: the pass as `suite all` runs it against the pass
    // with a span per op.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut pace = Pace::new();
    for _ in 0..PAIRS {
        let (start, mut scrap) = (Instant::now(), Vec::new());
        harness::read_pass(
            &prepared,
            &prepared.list.schedule,
            cold,
            &mut pace,
            &mut scrap,
            &mut observed,
        );
        plain.push(start.elapsed().as_secs_f64());
        traced.push(traced_pass(&prepared, cold, &mut tracer, &mut observed).wall);
    }
    let (plain, traced) = (median_of(plain), median_of(traced));
    metrics.push((
        "trace_overhead_pct".into(),
        util::ratio(traced - plain, plain) * 100.0,
    ));

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let trace_file = out_dir.join(format!("trace-{}.json", def.name));
    std::fs::write(&trace_file, tracer.to_json()).map_err(|e| e.to_string())?;
    Ok(Report {
        metrics,
        attempted: observed.attempted,
        failed: observed.failed,
        notes: observed.notes,
        trace_file,
        self_times: tracer
            .self_times()
            .into_iter()
            .map(|(n, (c, s))| (n, c, s))
            .collect(),
    })
}
