//! The end-to-end run: set-up, timed phases with tracing off, and what a
//! user of the store would see — ingest throughput, bytes stored, open and
//! query latency, memory.
//!
//! Closed loop: a client asks its next op only after the previous one
//! returned. Every client pins the engine to one thread (see
//! `util::CLIENT_THREADS`); `tail_mixed` runs two clients. Files are
//! written with fsync into a scratch directory and read back through the OS
//! page cache, so latencies are this sandbox's and not a device's.

use crate::oracle::{self, Observed};
use crate::util::{self, Pace, Rng, Scratch};
use crate::workload::{self, Action, Block, Class, Def, Kind, OpList, Scale};
use loggrep::{AggResult, Archive, CapsuleBox, LogGrep, LogGrepConfig, QueryStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// Measuring time of one run, split between the timed phases.
    pub seconds: f64,
    pub scale: Scale,
}

/// Set-up is repeated and its median reported, so one slow page-in does
/// not decide `setup_s`.
const SETUP_REPS: usize = 3;
const WARMUP_OPS: usize = 64;
const MIN_INGEST_REPS: usize = 7;
const MIN_OPEN_SWEEPS: usize = 100;
/// p90 needs ten samples beyond it.
const MIN_QUERY_SAMPLES: usize = 120;
/// Shares of `seconds` given to each timed phase of a single-client run.
const INGEST_SHARE: f64 = 0.3;
const OPEN_SHARE: f64 = 0.1;
const QUERY_SHARE: f64 = 0.6;

/// tail_mixed: files kept on disk, and how far back the reader looks.
const RETAINED_FILES: usize = 16;
const READ_WINDOW: usize = 12;
const NEWEST: usize = 4;

pub fn engine(threads: usize) -> LogGrep {
    LogGrep::new(LogGrepConfig {
        threads,
        ..Default::default()
    })
}

/// Opens stored bytes the way a reader process would, the engine pinned to
/// the client's one thread (a fresh `Archive` would size its pool from the
/// environment).
pub fn open_archive(bytes: &[u8]) -> loggrep::Result<Archive> {
    let mut archive = Archive::from_bytes(bytes)?;
    archive.set_threads(util::CLIENT_THREADS);
    Ok(archive)
}

/// `fs::read` + [`open_archive`]: one cold open of a stored block.
pub fn open_file(path: &Path) -> Result<Archive, String> {
    let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
    open_archive(&bytes).map_err(|e| e.to_string())
}

#[derive(Debug)]
pub struct Outcome {
    /// Lines returned, or the size of an aggregate answer.
    pub hits: u64,
    /// `None` for `reconstruct_all`, which reports no statistics.
    pub stats: Option<QueryStats>,
}

pub fn run_action(archive: &Archive, action: &Action) -> loggrep::Result<Outcome> {
    Ok(match action {
        Action::Query(q) => {
            let r = archive.query(q)?;
            Outcome {
                hits: r.lines.len() as u64,
                stats: Some(r.stats),
            }
        }
        Action::ReconstructAll => {
            let lines = archive.reconstruct_all()?;
            Outcome {
                hits: std::hint::black_box(&lines).len() as u64,
                stats: None,
            }
        }
        Action::Agg { filter, spec } => {
            let r = archive.query_agg(filter.as_deref(), spec)?;
            let hits = match &r.agg {
                AggResult::Count(n) => *n,
                AggResult::CountByTemplate(v) => v.len() as u64,
                AggResult::TopK { values, .. } => values.len() as u64,
                AggResult::Histogram { buckets, .. } => buckets.len() as u64,
            };
            Outcome {
                hits,
                stats: Some(r.stats),
            }
        }
    })
}

/// Everything set-up leaves behind for the timed phases.
#[derive(Debug)]
pub struct Prepared {
    pub blocks: Vec<Block>,
    pub list: OpList,
    pub files: Vec<PathBuf>,
    pub stored_bytes: Vec<u64>,
    /// One opened archive per block, at the client's thread count.
    pub archives: Vec<Archive>,
}

impl Prepared {
    pub fn raw_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.raw.len() as u64).sum()
    }

    pub fn compression_ratio(&self) -> f64 {
        util::ratio(
            self.raw_bytes() as f64,
            self.stored_bytes.iter().sum::<u64>() as f64,
        )
    }
}

fn block_file(dir: &Path, n: usize) -> PathBuf {
    dir.join(format!("blk-{n:06}.lgb"))
}

/// One ingest as the caller sees it: compress, serialize, write, fsync.
pub fn ingest_block(engine: &LogGrep, raw: &[u8], path: &Path) -> Result<u64, String> {
    let boxed = engine.compress(raw).map_err(|e| e.to_string())?;
    let bytes = boxed.to_bytes();
    util::write_synced(path, &bytes).map_err(|e| e.to_string())?;
    Ok(bytes.len() as u64)
}

/// Corpus generation plus warm-up: everything before the first timed op.
pub fn set_up(def: &Def, settings: Settings, dir: &Path) -> Result<Prepared, String> {
    let blocks = workload::corpus(def, settings.seed, settings.scale);
    let engine = engine(util::CLIENT_THREADS);
    let mut files = Vec::new();
    let mut stored_bytes = Vec::new();
    let mut archives = Vec::new();
    for (n, block) in blocks.iter().enumerate() {
        let path = block_file(dir, n);
        stored_bytes.push(ingest_block(&engine, &block.raw, &path)?);
        archives.push(open_file(&path)?);
        files.push(path);
    }
    let boxes: Vec<&CapsuleBox> = archives.iter().map(Archive::capsule_box).collect();
    let list = workload::op_list(def, settings.seed, &blocks, &boxes);
    let prepared = Prepared {
        blocks,
        list,
        files,
        stored_bytes,
        archives,
    };
    let mut scrap = Vec::new();
    let mut observed = Observed::new(prepared.list.ops.len());
    let schedule = &prepared.list.schedule;
    let warm = &schedule[..WARMUP_OPS.min(schedule.len())];
    let cold = def.kind == Kind::ColdAgg;
    read_pass(
        &prepared,
        warm,
        cold,
        &mut Pace::new(),
        &mut scrap,
        &mut observed,
    );
    if observed.failed > 0 {
        return Err(format!("warm-up failed: {}", observed.notes.join("; ")));
    }
    Ok(prepared)
}

/// Asks `schedule` once, in order, timing each op as its caller sees it
/// (at the reference CPU speed, see [`Pace`]).
/// Cold ops pay `fs::read` + `Archive::from_bytes` inside the timed region
/// and drop the archive after; hot ops use the held archives, whose query
/// caches are emptied first so every pass meets the same cache state.
pub fn read_pass(
    prepared: &Prepared,
    schedule: &[u32],
    cold: bool,
    pace: &mut Pace,
    samples_ms: &mut Vec<f64>,
    observed: &mut Observed,
) {
    if !cold {
        prepared.archives.iter().for_each(Archive::clear_caches);
    }
    for &i in schedule {
        let op = &prepared.list.ops[i as usize];
        let (outcome, secs) = pace.time(|| {
            if cold {
                open_file(&prepared.files[op.block])
                    .and_then(|archive| run_action(&archive, &op.action).map_err(|e| e.to_string()))
            } else {
                run_action(&prepared.archives[op.block], &op.action).map_err(|e| e.to_string())
            }
        });
        samples_ms.push(secs * 1e3);
        observed.note(i, op, outcome.map(|o| o.hits));
    }
}

/// The end-to-end metrics of one run, with their sample counts.
#[derive(Debug)]
pub struct E2e {
    pub ingest_mb_s: f64,
    pub ingest_reps: usize,
    pub compression_ratio: f64,
    pub open_ms: f64,
    pub open_samples: usize,
    pub query_ms_p50: f64,
    pub query_ms_p90: f64,
    pub query_samples: usize,
    pub peak_rss_mb: f64,
    pub setup_s: f64,
    /// Median factor the timings were multiplied by (see [`Pace`]).
    pub cpu_scale: f64,
    pub verify_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl E2e {
    pub fn fail_share(&self) -> f64 {
        util::ratio(self.failed as f64, self.attempted as f64)
    }

    /// The metric values in BENCHMARK.json order (`main::END_TO_END`).
    pub fn values(&self) -> [f64; 7] {
        [
            self.ingest_mb_s,
            self.compression_ratio,
            self.open_ms,
            self.query_ms_p50,
            self.query_ms_p90,
            self.peak_rss_mb,
            self.setup_s,
        ]
    }
}

/// The timed samples of one run, each at the reference CPU speed.
struct Samples {
    /// Seconds per ingest sample, and the raw MB one sample ingests.
    ingest_secs: Vec<f64>,
    ingest_mb: f64,
    /// Milliseconds per block opened.
    open_ms: Vec<f64>,
    query_ms: Vec<f64>,
}

/// What a run knows once its timed phases are over.
struct Measured {
    samples: Samples,
    setup_s: f64,
    cpu_scale: f64,
    peak_rss_mb: f64,
    observed: Observed,
}

impl Measured {
    /// Runs the oracle checks every workload shares and sums the run up.
    fn verified(
        self,
        prepared: &Prepared,
        seed: u64,
        verify_begun: Instant,
    ) -> Result<E2e, String> {
        let Measured {
            mut samples,
            setup_s,
            cpu_scale,
            peak_rss_mb,
            mut observed,
        } = self;
        oracle::verify(
            &prepared.blocks,
            &prepared.archives,
            &prepared.list,
            seed,
            &mut observed,
        );
        if samples.ingest_secs.is_empty() {
            return Err("the writer completed no ingest".to_string());
        }
        Ok(E2e {
            ingest_mb_s: samples.ingest_mb / util::trimmed_mean(&mut samples.ingest_secs),
            ingest_reps: samples.ingest_secs.len(),
            compression_ratio: prepared.compression_ratio(),
            open_samples: samples.open_ms.len(),
            open_ms: util::trimmed_mean(&mut samples.open_ms),
            query_samples: samples.query_ms.len(),
            query_ms_p50: util::quantile(&mut samples.query_ms, 0.5),
            query_ms_p90: util::quantile(&mut samples.query_ms, 0.9),
            peak_rss_mb,
            setup_s,
            cpu_scale,
            verify_s: verify_begun.elapsed().as_secs_f64(),
            attempted: observed.attempted,
            failed: observed.failed,
            notes: observed.notes,
        })
    }
}

/// Runs set-up `SETUP_REPS` times; keeps the last result and the median time.
fn timed_set_up<T>(
    pace: &mut Pace,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (made, s) = pace.time(&mut f);
        last = Some(made?);
        secs.push(s);
    }
    Ok((last.expect("at least one set-up"), util::median(&mut secs)))
}

pub fn run(def: &Def, settings: Settings) -> Result<E2e, String> {
    let scratch = Scratch::new(&format!("e2e-{}", def.name)).map_err(|e| e.to_string())?;
    if def.kind == Kind::TailMixed {
        run_tail(def, settings, scratch.path())
    } else {
        run_single(def, settings, scratch.path())
    }
}

/// How many of each timed item one round holds, so that a round spends
/// its time on ingest, opens and queries in the fixed shares.
#[derive(Debug, Clone, Copy)]
struct Round {
    ingest_reps: usize,
    open_sweeps: usize,
    query_passes: usize,
}

impl Round {
    /// Sized from the first round's measured cost of one item of each kind.
    fn sized(ingest_secs: f64, sweep_secs: f64, pass_secs: f64) -> Round {
        let length = (ingest_secs / INGEST_SHARE)
            .max(sweep_secs / OPEN_SHARE)
            .max(pass_secs / QUERY_SHARE);
        let count = |share: f64, item: f64| ((share * length / item).round() as usize).max(1);
        Round {
            ingest_reps: count(INGEST_SHARE, ingest_secs),
            open_sweeps: count(OPEN_SHARE, sweep_secs),
            query_passes: count(QUERY_SHARE, pass_secs),
        }
    }
}

fn run_single(def: &Def, settings: Settings, dir: &Path) -> Result<E2e, String> {
    let cold = def.kind == Kind::ColdAgg;
    let mut pace = Pace::new();
    let (prepared, setup_s) = timed_set_up(&mut pace, || set_up(def, settings, dir))?;
    let mut observed = Observed::new(prepared.list.ops.len());
    let engine = engine(util::CLIENT_THREADS);
    let (mut rep_secs, mut sweep_secs, mut query_ms) = (Vec::new(), Vec::new(), Vec::new());

    // The three timed phases are interleaved in rounds over the whole
    // measuring time, so that each metric sees the same stretch of host
    // behaviour; the first round has one item of each and sizes the rest.
    let mut round = Round {
        ingest_reps: 1,
        open_sweeps: 1,
        query_passes: 1,
    };
    let begun = Instant::now();
    loop {
        // Ingest: whole-corpus repetitions, each block acknowledged after fsync.
        for _ in 0..round.ingest_reps {
            let (stored, secs) = pace.time(|| -> Vec<Result<u64, String>> {
                prepared
                    .blocks
                    .iter()
                    .zip(&prepared.files)
                    .map(|(block, path)| ingest_block(&engine, &block.raw, path))
                    .collect()
            });
            rep_secs.push(secs);
            for (got, want) in stored.into_iter().zip(&prepared.stored_bytes) {
                observed.note_ingest(got, *want);
            }
        }
        // Open: one sample is a sweep over every stored block.
        for _ in 0..round.open_sweeps {
            let ((), secs) = pace.time(|| {
                for path in &prepared.files {
                    observed.note_open(std::hint::black_box(open_file(path)).map(drop));
                }
            });
            sweep_secs.push(secs);
        }
        // Queries: whole passes of the op list.
        let pass_start = Instant::now();
        for _ in 0..round.query_passes {
            let schedule = &prepared.list.schedule;
            read_pass(
                &prepared,
                schedule,
                cold,
                &mut pace,
                &mut query_ms,
                &mut observed,
            );
        }
        if rep_secs.len() == 1 {
            let pass_secs = pass_start.elapsed().as_secs_f64();
            round = Round::sized(rep_secs[0], sweep_secs[0], pass_secs);
        }
        let enough = rep_secs.len() >= MIN_INGEST_REPS
            && sweep_secs.len() >= MIN_OPEN_SWEEPS
            && query_ms.len() >= MIN_QUERY_SAMPLES;
        if enough && begun.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }
    let measured = Measured {
        samples: Samples {
            ingest_secs: rep_secs,
            ingest_mb: prepared.raw_bytes() as f64 / 1e6,
            open_ms: sweep_secs
                .iter()
                .map(|s| s * 1e3 / prepared.files.len() as f64)
                .collect(),
            query_ms,
        },
        setup_s,
        cpu_scale: pace.median_scale(),
        peak_rss_mb: util::peak_rss_mb(),
        observed,
    };
    measured.verified(&prepared, settings.seed, Instant::now())
}

/// What the tail_mixed writer measured.
#[derive(Debug, Default)]
struct WriterLog {
    /// Seconds per ingested block, parallel to `results`.
    block_secs: Vec<f64>,
    results: Vec<(Result<u64, String>, u64)>,
}

/// Ingests pool blocks in turn until the reader is `done`, sealing each after fsync
/// and keeping the newest `RETAINED_FILES` on disk.
fn tail_writer(
    prepared: &Prepared,
    dir: &Path,
    sealed: &AtomicUsize,
    done: &AtomicBool,
) -> WriterLog {
    let engine = engine(util::CLIENT_THREADS);
    let pool = prepared.blocks.len();
    let mut log = WriterLog::default();
    let mut pace = Pace::new();
    let mut n = sealed.load(Ordering::Acquire);
    while !done.load(Ordering::Acquire) {
        let b = n % pool;
        let (got, secs) =
            pace.time(|| ingest_block(&engine, &prepared.blocks[b].raw, &block_file(dir, n)));
        log.block_secs.push(secs);
        log.results.push((got, prepared.stored_bytes[b]));
        n += 1;
        sealed.store(n, Ordering::Release);
        if n > RETAINED_FILES {
            // Keeps blocks n-RETAINED_FILES..n; the reader looks back at most
            // READ_WINDOW < RETAINED_FILES blocks.
            let _ = std::fs::remove_file(block_file(dir, n - RETAINED_FILES - 1));
        }
    }
    log
}

/// What the tail_mixed reader measured.
#[derive(Debug)]
struct ReaderLog {
    open_ms: Vec<f64>,
    query_ms: Vec<f64>,
    observed: Observed,
    pace: Pace,
}

/// Opens a sealed block and asks one op, until `deadline` and for at least
/// `MIN_QUERY_SAMPLES` ops, then tells the writer it is `done`. 70 % of ops on
/// the `NEWEST` blocks; two needle ops for every match-most op, so that
/// neither percentile sits on the edge between the two kinds.
fn tail_reader(
    prepared: &Prepared,
    dir: &Path,
    sealed: &AtomicUsize,
    deadline: Instant,
    done: &AtomicBool,
    seed: u64,
) -> ReaderLog {
    let pool = prepared.blocks.len();
    let by_class = |class| -> Vec<Vec<u32>> {
        (0..pool)
            .map(|b| prepared.list.of_block(b, class))
            .collect()
    };
    let (needle, scan) = (by_class(Class::Needle), by_class(Class::Scan));
    let mut rng = Rng::new(seed ^ 0x7ea1);
    let mut log = ReaderLog {
        open_ms: Vec::new(),
        query_ms: Vec::new(),
        observed: Observed::new(prepared.list.ops.len()),
        pace: Pace::new(),
    };
    let mut turn = 0usize;
    while Instant::now() < deadline || log.query_ms.len() < MIN_QUERY_SAMPLES {
        let have = sealed.load(Ordering::Acquire);
        let back = if rng.below(10) < 7 {
            NEWEST
        } else {
            READ_WINDOW
        };
        let n = have - 1 - rng.below(back.min(have));
        let choices = if turn % 3 == 2 {
            &scan[n % pool]
        } else {
            &needle[n % pool]
        };
        turn += 1;
        let i = choices[rng.below(choices.len())];
        let op = &prepared.list.ops[i as usize];

        let scale = log.pace.scale();
        let start = Instant::now();
        let bytes = match std::fs::read(block_file(dir, n)) {
            // Retention overtook a slow reader: the block has expired, which
            // is not an op. Ask for another.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            other => other,
        };
        let opened = bytes
            .map_err(|e| e.to_string())
            .and_then(|bytes| open_archive(&bytes).map_err(|e| e.to_string()));
        let open_done = start.elapsed();
        let outcome =
            opened.and_then(|archive| run_action(&archive, &op.action).map_err(|e| e.to_string()));
        log.query_ms
            .push(start.elapsed().as_secs_f64() * 1e3 * scale);
        log.open_ms.push(open_done.as_secs_f64() * 1e3 * scale);
        log.observed.note(i, op, outcome.map(|o| o.hits));
    }
    done.store(true, Ordering::Release);
    log
}

fn run_tail(def: &Def, settings: Settings, dir: &Path) -> Result<E2e, String> {
    if util::nproc() < 2 {
        eprintln!(
            "warning: tail_mixed runs two client threads on {} core(s)",
            util::nproc()
        );
    }
    // Set-up seals the pool's first cycle on disk.
    let (prepared, setup_s) = timed_set_up(&mut Pace::new(), || set_up(def, settings, dir))?;
    let sealed = AtomicUsize::new(prepared.blocks.len());
    let done = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(settings.seconds);
    let (writer, reader) = std::thread::scope(|s| {
        let w = s.spawn(|| tail_writer(&prepared, dir, &sealed, &done));
        let r = s.spawn(|| tail_reader(&prepared, dir, &sealed, deadline, &done, settings.seed));
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    let peak_rss_mb = util::peak_rss_mb();

    let verify_begun = Instant::now();
    let mut reader = reader;
    let mut observed = reader.observed;
    for (got, want) in writer.results {
        observed.note_ingest(got, want);
    }
    // Every file still retained must hold its pool block.
    let last = sealed.load(Ordering::Acquire);
    for n in last.saturating_sub(RETAINED_FILES)..last {
        match open_file(&block_file(dir, n)) {
            Ok(archive) => {
                let block = &prepared.blocks[n % prepared.blocks.len()];
                oracle::check_round_trip(block, &archive, &mut observed);
            }
            Err(e) => observed.note_open(Err(e)),
        }
    }
    let measured = Measured {
        samples: Samples {
            // Pool blocks are all of one size (to within a line).
            ingest_secs: writer.block_secs,
            ingest_mb: prepared.raw_bytes() as f64 / 1e6 / prepared.blocks.len() as f64,
            open_ms: reader.open_ms,
            query_ms: reader.query_ms,
        },
        setup_s,
        cpu_scale: reader.pace.median_scale(),
        peak_rss_mb,
        observed,
    };
    measured.verified(&prepared, settings.seed, verify_begun)
}
