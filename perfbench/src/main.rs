//! The repository's benchmark: three batch workloads through the
//! public entry points of the pipelines users run, end-to-end metrics
//! from untraced runs, and a per-layer breakdown from a separate traced
//! run.
//!
//! ```text
//! perfbench --workload <fleet|chaos|analytics> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `perfbench/run.py` builds this package and runs it with the same
//! arguments; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! # Load shape
//!
//! Every workload is a batch job: a fixed input size, no arrival
//! schedule, generated entirely from `--seed` inside this one process,
//! on `min(2, nproc)` workers. The job repeats until `--seconds` have
//! passed (at least three times), and each timing is the median over the
//! repeats; the first, cold repeat counts like any other, since a user
//! of the artifact pays it on every run. The same seed gives the same
//! inputs and the same output digest.
//!
//! # Workloads
//!
//! * `fleet` — the fleet sweep's large-trial world (`experiments::fleet`):
//!   20k clients in the 5/3/2 SNTP/MNTP/ntpd mix, 4 servers with the
//!   plain capacity model, 8 kernel shards, 600 simulated seconds with
//!   the steady-state sampling the ≥100k-client trials use. Why: it is
//!   the costliest artifact family. Loads: `core` (all three disciplines
//!   and the fleet runner), `ntpd-sim`, `netsim` (kernel shards,
//!   `ChannelBank` lanes, `ServerModel` in the serial Phase-B barrier),
//!   `sntp` (single-reply exchange phases). Bypasses: `loganalysis`,
//!   `devtools::sketch`, `sntp::server_core`, fan-out selection, the
//!   fault plan and the degradation ladder.
//! * `chaos` — `experiments::chaosfleet::run_timeline_on` on the
//!   `--quick` timeline (150 s units) at 4k clients: three full
//!   replays (resilient arm, ablation arm, serial lockstep replay). Why:
//!   it drives the same world layers differently. Every client is MNTP,
//!   the resilient arm with fan-out 3, so selection runs inside
//!   `complete` and a round costs three server visits; the fault plan
//!   drops and delays packets, blacks out and restarts a server, and
//!   steps clocks in a wave. Servers carry the degradation ladder, whose
//!   rung checks run on every arrival; at this population the backlog
//!   never reaches the shedding rung (the 100k-client artifact's herds
//!   do), so `netsim.server.shed` reads 0 here. Bypasses: `ntpd-sim`,
//!   naive SNTP, `loganalysis`, `devtools::sketch`, `sntp::server_core`.
//! * `analytics` — `experiments::fullscale::run_on` at Table 1 ÷ 40
//!   (about 5.2 M records in 4096-record chunks). Why:
//!   `loganalysis::synth::stream_chunk`, the `ChunkSummary` sinks and the
//!   sketch fold over pool waves do all the work. Bypasses every
//!   simulator layer (`core`, `ntpd-sim`, `netsim`, `sntp`).
//!
//! Predicted no-change pairings, for a change to one layer:
//!
//! * `core` disciplines: `fleet` and `chaos` move, `analytics` does not.
//! * `netsim` kernel, lanes and `ServerModel`: `fleet` and `chaos` move;
//!   `analytics` does not.
//! * `loganalysis` generator and sinks, `devtools::sketch`: `analytics`
//!   moves (`throughput`, `peak_rss_mb`); `fleet` and `chaos` do not.
//! * `devtools::par`: every workload may move.
//! * A gain for single-reply rounds that costs fan-out selection or the
//!   ladder shows as `fleet` up and `chaos` down.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! * `throughput` (`items/s`) — work per wall second at the stated size:
//!   client-ticks for `fleet` and `chaos` (for `chaos` the pipeline's own
//!   world construction is inside the timed call, since its API does not
//!   separate it), records for `analytics`.
//! * `setup_s` — world or plan construction, timed apart from the run:
//!   clients and disciplines, `FleetNet::new`, `ServerPool::new` (and the
//!   chaos plan and session) for the fleet worlds; chunk plans and fold
//!   accumulators for `analytics` (timed in batches of 100, being
//!   microseconds). Median over 25 constructions before the runs and one
//!   per repeat.
//! * `cpu_s` — process CPU time of one run (kernel accounting, all
//!   threads).
//! * `peak_rss_mb` — `VmHWM` of this process, which runs one workload
//!   only.
//! * `fidelity_p99_ms` — the paper-facing p99 the workload reproduces,
//!   deterministic per seed: MNTP's steady-state p99 |clock error|
//!   (`fleet`: over the second half of the run; `chaos`: the median of
//!   the resilient arm's per-group p99 samples over the settled steady
//!   phase) and the filtered one-way-delay p99 (`analytics`).
//!
//! `fail_share` (failed output checks over checks attempted) is printed
//! with the metrics and carried by the result line's `failed` and
//! `attempted`. The checks: every server conserves arrivals (`arrivals ==
//! served + rate + shed + dropped`); every repeat's output digest equals
//! the first; `chaos` reports `lockstep_ok` and its rebuilt arm equals
//! the pipeline's; the rebuilt `fleet` world equals `fleet_trial`;
//! `analytics` streams exactly the records its chunk plans hold and folds
//! to the same digest at one worker as at two.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run first runs the workload untraced three times, then
//! once with spans taken in this package around calls into each layer
//! (see `trace`). Its counters must equal the untraced run's, and the
//! captured `ServerModel` arrival log replayed into fresh models must
//! reproduce the run's per-server stats; otherwise the run is reported
//! failed. A layer the workload does not load still gets its unit-cost
//! probe (on a small reference input, so that every `ns` figure is a
//! measurement), while its in-run counts, calls and shares read 0.
//! Every `*.share` is a share of the traced run's CPU time.
//!
//! | metric | moves |
//! |---|---|
//! | `core.<stack>.{poll_ns,complete_ns,calls}`, `core.share` | `throughput` on `fleet`, `chaos` |
//! | `netsim.advance_ns_per_tick`, `netsim.lane_op_ns`, `netsim.lanes.share` | `throughput` on `fleet`, `chaos` |
//! | `netsim.server_model.on_arrival_ns` | `fleet` `throughput` (serial Phase B caps the speed-up) |
//! | `netsim.server.*` counts | nothing: they must stay fixed |
//! | `sntp.server_core.ns_per_pkt`, `sntp.exchange.*` | `throughput` on `fleet`, `chaos` |
//! | `loganalysis.*`, `devtools.sketch.*` | `throughput`, `peak_rss_mb` on `analytics` |
//! | `devtools.par.utilization` | `throughput` everywhere |
//! | `trace.overhead_share` | the traced run's wall time over the untraced median, minus one |
//!
//! Every result set begins with the machine fingerprint: `nproc` and the
//! time of a fixed calibration loop.

mod analytics;
mod chaos;
mod fleet;
mod report;
mod trace;
mod world;

use std::process::ExitCode;

use report::{emit, fingerprint, Checks};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let (seed, seconds) = (args.seed, args.seconds);
    fingerprint();
    println!(
        "workload={} seed={seed} trace={}",
        args.workload,
        u8::from(args.trace)
    );
    if args.trace {
        let layers = match args.workload.as_str() {
            "fleet" => fleet::trace(seed, &mut checks),
            "chaos" => chaos::trace(seed, &mut checks),
            "analytics" => analytics::trace(seed, &mut checks),
            w => {
                eprintln!("perfbench: unknown workload {w}");
                return ExitCode::from(2);
            }
        };
        emit(&layers.metrics(), &checks);
    } else {
        let (metrics, runs) = match args.workload.as_str() {
            "fleet" => fleet::measure(seed, seconds, &mut checks),
            "chaos" => chaos::measure(seed, seconds, &mut checks),
            "analytics" => analytics::measure(seed, seconds, &mut checks),
            w => {
                eprintln!("perfbench: unknown workload {w}");
                return ExitCode::from(2);
            }
        };
        println!(
            "timed_repeats={} digest={:016x}",
            runs.throughput.len(),
            runs.digest
        );
        emit(&metrics, &checks);
    }
    ExitCode::SUCCESS
}
