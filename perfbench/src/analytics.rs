//! The `analytics` workload: `experiments::fullscale`'s streaming
//! pipeline at a fixed scale. The traced run rebuilds the pipeline's
//! loop from `loganalysis` and `devtools` parts, so that generation,
//! the summary sink and the sketch fold can be timed apart.

use std::time::Instant;

use devtools::par::Pool;
use experiments::fullscale::{self, FullScaleConfig, FullScaleResult, ServerRow};
use loganalysis::model::{ServerProfile, SERVERS};
use loganalysis::owd::OwdFilter;
use loganalysis::stream::ChunkSummary;
use loganalysis::synth::{chunk_plan, stream_chunk, LogRecord, StreamSynthConfig};

use crate::fleet::Fleet;
use crate::report::{
    jobs, median, repeat, setup_samples, timed, Checks, Digest, Metrics, Rep, Runs,
};
use crate::trace::Layers;
use crate::world::{self, Scenario};

/// Table 1 divided by 40: about 5.2 M records.
pub fn config() -> FullScaleConfig {
    FullScaleConfig {
        scale: 40,
        chunk_records: 1 << 12,
        k: devtools::sketch::DEFAULT_K,
    }
}

fn synth_config(cfg: &FullScaleConfig) -> StreamSynthConfig {
    StreamSynthConfig {
        scale: cfg.scale,
        duration_secs: 86_400,
        chunk_records: cfg.chunk_records,
    }
}

/// Chunks in flight per pool wave, as in the pipeline.
const WAVE: u64 = 64;

/// What the pipeline builds before it streams: every server's chunk
/// plan and the fold accumulators.
fn setup(cfg: &FullScaleConfig) -> u64 {
    let scfg = synth_config(cfg);
    let records: u64 = SERVERS
        .iter()
        .map(|s| chunk_plan(s, &scfg).total_records)
        .sum();
    let accumulators = [ChunkSummary::new(cfg.k), ChunkSummary::new(cfg.k)];
    std::hint::black_box((&accumulators, OwdFilter::default()));
    records
}

fn digest(r: &FullScaleResult) -> u64 {
    Digest::new()
        .bytes(fullscale::render(r).as_bytes())
        .finish()
}

/// Filtered one-way-delay p99 over every record, ms.
fn owd_p99_ms(r: &FullScaleResult) -> f64 {
    r.global.owd_all.query(0.99)
}

/// Timed runs for `seconds`, then the end-to-end metrics.
pub fn measure(seed: u64, seconds: f64, checks: &mut Checks) -> (Metrics, Runs) {
    let cfg = config();
    let par = Pool::with_jobs(jobs());
    let planned = setup(&cfg);
    // Set-up takes microseconds: time it in batches so that one reading
    // is well above the clock's resolution.
    const SETUP_BATCH: u32 = 100;
    let batch = || (0..SETUP_BATCH).map(|_| setup(&cfg)).sum::<u64>();
    let per_setup = |batch_s: f64| batch_s / f64::from(SETUP_BATCH);
    let mut p99 = 0.0;
    let setups = setup_samples(batch).into_iter().map(per_setup).collect();
    let runs = repeat(seconds, setups, checks, |checks| {
        let (_, setup) = timed(batch);
        let (r, run) = timed(|| fullscale::run_on(&par, seed, &cfg));
        checks.check(r.total_records == planned, || {
            format!(
                "analytics streamed {} records, chunk plans hold {planned}",
                r.total_records
            )
        });
        p99 = owd_p99_ms(&r);
        let items = r.total_records as f64;
        Rep {
            setup_s: per_setup(setup.wall_s),
            run,
            items,
            digest: digest(&r),
        }
    });
    let serial = digest(&fullscale::run_on(&Pool::with_jobs(1), seed, &cfg));
    checks.check(serial == runs.digest, || {
        format!(
            "analytics fold digest at jobs 1 {serial:016x} != jobs {} {:016x}",
            jobs(),
            runs.digest
        )
    });
    (runs.metrics(p99), runs)
}

/// One chunk's spans: generation into a buffer and the push of that
/// buffer into a fresh `ChunkSummary`, timed apart.
struct ChunkSpans {
    synth_ns: u64,
    sink_ns: u64,
    records: u64,
    summary: ChunkSummary,
}

fn traced_chunk(
    scfg: &StreamSynthConfig,
    k: usize,
    seed: u64,
    server: &ServerProfile,
    si: usize,
    chunk: u64,
) -> ChunkSpans {
    let filter = OwdFilter::default();
    let mut buf: Vec<LogRecord> = Vec::new();
    let t0 = Instant::now();
    stream_chunk(server, si, scfg, seed, chunk, &mut |r| buf.push(r.clone()));
    let synth_ns = t0.elapsed().as_nanos() as u64;
    let mut summary = ChunkSummary::new(k);
    let t1 = Instant::now();
    for r in &buf {
        summary.push(r, &filter);
    }
    let sink_ns = t1.elapsed().as_nanos() as u64;
    ChunkSpans {
        synth_ns,
        sink_ns,
        records: buf.len() as u64,
        summary,
    }
}

/// Analytics unit costs for a workload that does not run the analytics
/// pipeline: `(synth ns/record, sink ns/record, fold ns/chunk)` over the
/// first chunks of the largest Table 1 server, at this workload's scale.
pub fn probe(seed: u64) -> (f64, f64, f64) {
    const CHUNKS: u64 = 16;
    let cfg = config();
    let scfg = synth_config(&cfg);
    let (si, server) = SERVERS
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.total_measurements)
        .expect("Table 1 lists servers");
    let (mut synth, mut sink, mut records, mut fold) = (0u64, 0u64, 0u64, 0u128);
    let mut acc = ChunkSummary::new(cfg.k);
    for chunk in 0..CHUNKS {
        let s = traced_chunk(&scfg, cfg.k, seed, server, si, chunk);
        synth += s.synth_ns;
        sink += s.sink_ns;
        records += s.records;
        let t0 = Instant::now();
        acc.merge_adjacent(&s.summary);
        fold += t0.elapsed().as_nanos();
    }
    let r = records.max(1) as f64;
    (
        synth as f64 / r,
        sink as f64 / r,
        fold as f64 / CHUNKS as f64,
    )
}

/// The pipeline's loop with spans around each layer call. Returns the
/// result it assembles, which must equal the pipeline's own.
fn traced_run(
    par: &Pool,
    seed: u64,
    cfg: &FullScaleConfig,
    layers: &mut Layers,
) -> FullScaleResult {
    let scfg = synth_config(cfg);
    let mut global = ChunkSummary::new(cfg.k);
    let mut rows = Vec::with_capacity(SERVERS.len());
    let (mut synth_ns, mut sink_ns, mut fold_ns, mut folds) = (0u64, 0u64, 0u128, 0u64);
    let (mut peak_chunk_bytes, mut server_acc_bytes) = (0usize, 0usize);
    for (si, server) in SERVERS.iter().enumerate() {
        let plan = chunk_plan(server, &scfg);
        let mut server_sum = ChunkSummary::new(cfg.k);
        let mut next = 0u64;
        while next < plan.chunks {
            let hi = (next + WAVE).min(plan.chunks);
            let spans = par.map((next..hi).collect(), |chunk| {
                traced_chunk(&scfg, cfg.k, seed, server, si, chunk)
            });
            for s in &spans {
                synth_ns += s.synth_ns;
                sink_ns += s.sink_ns;
                layers.records += s.records;
                layers.chunk_ms.push((s.synth_ns + s.sink_ns) as f64 / 1e6);
                peak_chunk_bytes = peak_chunk_bytes.max(s.summary.state_bytes());
                let t0 = Instant::now();
                server_sum.merge_adjacent(&s.summary);
                fold_ns += t0.elapsed().as_nanos();
                folds += 1;
            }
            next = hi;
        }
        rows.push(ServerRow {
            id: server.id,
            clients: u64::from(plan.n_clients),
            records: server_sum.records,
            chunks: plan.chunks,
            sntp_share: server_sum.shapes.sntp_request_share(),
            owd_kept: server_sum.owd_kept,
        });
        server_acc_bytes = server_acc_bytes.max(server_sum.state_bytes());
        let t0 = Instant::now();
        global.merge_union(&server_sum);
        fold_ns += t0.elapsed().as_nanos();
        folds += 1;
    }
    let records = layers.records.max(1) as f64;
    layers.synth_ns_per_record = synth_ns as f64 / records;
    layers.sink_ns_per_record = sink_ns as f64 / records;
    layers.fold_ns_per_chunk = fold_ns as f64 / folds.max(1) as f64;
    layers.owd_kept = global.owd_kept;
    let accumulator_bytes = server_acc_bytes + global.state_bytes();
    layers.state_bytes_peak = (peak_chunk_bytes.max(accumulator_bytes)) as u64;
    FullScaleResult {
        cfg: cfg.clone(),
        total_records: rows.iter().map(|r| r.records).sum(),
        total_clients: rows.iter().map(|r| r.clients).sum(),
        servers: rows,
        peak_chunk_bytes,
        accumulator_bytes,
        global,
    }
}

/// World size of the reference fleet the simulator-layer probes run on
/// (this workload drives no simulator layer itself).
const PROBE_CLIENTS: usize = 1_000;

pub fn trace(seed: u64, checks: &mut Checks) -> Layers {
    let cfg = config();
    let par = Pool::with_jobs(jobs());
    let mut walls = Vec::new();
    let mut utils = Vec::new();
    let mut reference = 0;
    for _ in 0..world::REFERENCE_RUNS {
        let (r, span) = timed(|| fullscale::run_on(&par, seed, &cfg));
        walls.push(span.wall_s);
        utils.push(span.cpu_s / (span.wall_s * par.jobs() as f64));
        reference = digest(&r);
    }
    let mut layers = Layers::default();
    let (r, span) = timed(|| traced_run(&par, seed, &cfg, &mut layers));
    let d = digest(&r);
    checks.check(d == reference, || {
        format!("traced analytics digest {d:016x} != untraced {reference:016x}")
    });
    let planned = setup(&cfg);
    checks.check(layers.records == planned, || {
        format!(
            "traced analytics streamed {} records, chunk plans hold {planned}",
            layers.records
        )
    });
    layers.busy_ns = span.cpu_s * 1e9;
    layers.utilization = median(&utils);
    layers.overhead_share = span.wall_s / median(&walls) - 1.0;

    let sc = Fleet::new(PROBE_CLIENTS, seed);
    let probe_cfg = mntp::FleetRunConfig {
        collect_arrivals: true,
        ..sc.run_config()
    };
    let o = world::run(&par, &mut sc.build(&world::identity), &probe_cfg);
    let (probes, _) = world::probe_world(&sc, &o);
    layers.advance_ns_per_tick = probes.advance_ns_per_tick;
    layers.lane_op_ns = probes.lane_op_ns;
    layers.on_arrival_ns = probes.on_arrival_ns;
    layers.server_core_ns_per_pkt = probes.server_core_ns_per_pkt;
    layers
}
