//! The traced run's instruments. Every span is taken here, around calls
//! into a layer's public functions; nothing inside the program is
//! probed.
//!
//! * [`Traced`] wraps a client's boxed [`Discipline`] and times `poll`
//!   and `complete` (the `core` layer, and `ntpd-sim` behind the same
//!   seam).
//! * [`advance_probe`], [`lane_probe`] and the replays time one
//!   simulator layer alone on a fresh world or on inputs captured from
//!   the run, so its unit cost can be scaled by the run's operation
//!   counts. The analytics spans live in `analytics`.
//! * [`Layers`] holds every per-layer metric; a layer a workload does not
//!   load keeps its in-run counts at zero.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use clocksim::time::{SimDuration, SimTime};
use clocksim::{ClockCommand, SimClock};
use mntp::{Directive, Discipline, ExchangeResult, QueryOutcome};
use netsim::fleet::{FleetConfig, FleetNet, ServerModel, ServerModelConfig, ServerModelStats};
use netsim::WirelessHints;
use sntp::fleet::FleetArrival;
use sntp::server_core::{CoreConfig, ReplyRing, RequestRing, ServerCore};
use sntp::ExchangeError;

use crate::report::{quantile, Metrics};

/// Span totals of one client stack's discipline calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub poll_ns: u64,
    pub polls: u64,
    pub complete_ns: u64,
    pub completes: u64,
    /// Polls the runner sampled lane hints for (`Lane::hints` calls).
    pub hinted: u64,
    /// Exchange results handed to `complete` (one uplink each).
    pub results: u64,
    /// Results that failed.
    pub failed: u64,
    /// Results whose reply crossed the wireless downlink
    /// (`Lane::transmit_down` calls).
    pub downlinks: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.poll_ns += o.poll_ns;
        self.polls += o.polls;
        self.complete_ns += o.complete_ns;
        self.completes += o.completes;
        self.hinted += o.hinted;
        self.results += o.results;
        self.failed += o.failed;
        self.downlinks += o.downlinks;
    }
}

/// One shared sink per client stack, indexed 0 = naive SNTP, 1 = MNTP,
/// 2 = ntpd; each wrapper adds its own tally on drop,
/// so the shard workers never contend while the run is going.
pub type Sinks = [Arc<Mutex<Tally>>; 3];

pub fn sinks() -> Sinks {
    std::array::from_fn(|_| Arc::new(Mutex::new(Tally::default())))
}

/// Sum of every stack's tally; call after the wrapped clients dropped.
pub fn drain(sinks: &Sinks) -> [Tally; 3] {
    std::array::from_fn(|i| sinks[i].lock().map(|t| *t).unwrap_or_default())
}

/// Timing decorator over a client's discipline. Every trait method is
/// delegated, `wants_hints` included, so the runner samples the hint
/// process exactly as often as for the bare discipline and the traced
/// world stays identical to the untraced one.
pub struct Traced {
    inner: Box<dyn Discipline>,
    local: Tally,
    sink: Arc<Mutex<Tally>>,
}

impl Traced {
    pub fn wrap(inner: Box<dyn Discipline>, sink: &Arc<Mutex<Tally>>) -> Box<dyn Discipline> {
        Box::new(Traced {
            inner,
            local: Tally::default(),
            sink: Arc::clone(sink),
        })
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        // A poisoned sink only loses this client's figures; never panic
        // in drop.
        if let Ok(mut total) = self.sink.lock() {
            total.add(&self.local);
        }
    }
}

/// Errors raised before the reply reached the client's wireless hop.
fn missed_downlink(e: &ExchangeError) -> bool {
    matches!(
        e,
        ExchangeError::LostLastHopUp
            | ExchangeError::LostBackboneUp
            | ExchangeError::LostBackboneDown
            | ExchangeError::Blackholed
            | ExchangeError::Timeout
    )
}

impl Discipline for Traced {
    fn wants_hints(&self) -> bool {
        self.inner.wants_hints()
    }

    fn poll(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        hints: Option<&WirelessHints>,
        select: &mut dyn sntp::ServerSelect,
    ) -> Directive {
        let t0 = Instant::now();
        let d = self.inner.poll(t, clock, hints, select);
        self.local.poll_ns += t0.elapsed().as_nanos() as u64;
        self.local.polls += 1;
        self.local.hinted += u64::from(hints.is_some());
        d
    }

    fn complete(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        round: &[ExchangeResult],
    ) -> Option<QueryOutcome> {
        let t0 = Instant::now();
        let out = self.inner.complete(t, clock, round);
        self.local.complete_ns += t0.elapsed().as_nanos() as u64;
        self.local.completes += 1;
        for r in round {
            self.local.results += 1;
            match &r.outcome {
                Ok(_) => self.local.downlinks += 1,
                Err(e) => {
                    self.local.failed += 1;
                    self.local.downlinks += u64::from(!missed_downlink(e));
                }
            }
        }
        out
    }

    fn take_commands(&mut self) -> Vec<ClockCommand> {
        self.inner.take_commands()
    }
}

/// Cost of `FleetNet::advance_to` per driver tick, ns: a fresh world
/// stepped over the run's tick schedule.
pub fn advance_probe(fcfg: &FleetConfig, seed: u64, ticks: u64, tick_secs: f64) -> f64 {
    let mut net = FleetNet::new(fcfg, seed);
    let t0 = Instant::now();
    for i in 0..=ticks {
        net.advance_to(SimTime::ZERO + SimDuration::from_secs_f64(i as f64 * tick_secs));
    }
    t0.elapsed().as_nanos() as f64 / (ticks + 1) as f64
}

/// Mean cost of one lane operation, ns: on a fresh world, every tick of
/// the schedule a sample of clients does what a polling client does —
/// `Lane::hints` and `transmit_up` at the tick, `transmit_down` a reply
/// later. About `ops` operations are timed.
pub fn lane_probe(fcfg: &FleetConfig, seed: u64, ticks: u64, ops: u64) -> f64 {
    let mut net = FleetNet::new(fcfg, seed);
    let n = fcfg.clients.max(1) as u64;
    let per_tick = (ops / 3 / (ticks + 1)).clamp(1, n);
    let stride = (n / per_tick).max(1) as usize;
    let mut timed_ns = 0u128;
    let mut done = 0u64;
    let (shards, _) = net.parts();
    for i in 0..=ticks {
        let t = SimTime::ZERO + SimDuration::from_secs(i as i64);
        let back = t + SimDuration::from_millis(30);
        for shard in shards.iter_mut() {
            shard.advance_to(t);
            let (lo, hi) = (shard.client_lo(), shard.client_lo() + shard.client_count());
            let t0 = Instant::now();
            for ci in (lo..hi).step_by(stride) {
                if let Some(mut lane) = shard.lane(ci) {
                    std::hint::black_box(lane.hints(t));
                    std::hint::black_box(lane.transmit_up(t));
                    std::hint::black_box(lane.transmit_down(back));
                    done += 3;
                }
            }
            timed_ns += t0.elapsed().as_nanos();
        }
    }
    timed_ns as f64 / done.max(1) as f64
}

/// A server restart to replay: `(server, at)`.
pub type Restart = (usize, SimTime);

/// Replay a captured arrival log through fresh `ServerModel`s. Returns
/// the mean `on_arrival` cost, ns, and the replayed per-server stats,
/// which must equal the run's.
pub fn replay_models(
    cfg: &ServerModelConfig,
    servers: usize,
    log: &[FleetArrival],
    restarts: &[Restart],
) -> (f64, Vec<ServerModelStats>) {
    let mut models: Vec<ServerModel> = (0..servers)
        .map(|_| ServerModel::new(cfg.clone()))
        .collect();
    let mut pending: Vec<Restart> = restarts.to_vec();
    let t0 = Instant::now();
    for a in log {
        // A restart lands at its tick, before that tick's arrivals.
        pending.retain(|&(sid, at)| {
            let due = sid == a.server_id && a.at >= at;
            if due {
                if let Some(m) = models.get_mut(sid) {
                    m.restart(at);
                }
            }
            !due
        });
        if let Some(m) = models.get_mut(a.server_id) {
            std::hint::black_box(m.on_arrival(a.client_id, a.at));
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / log.len().max(1) as f64;
    (ns, models.iter().map(|m| m.stats).collect())
}

/// Replay the captured requests through one `ServerCore` per server,
/// batched per second of arrival time. Returns the mean
/// `process_batch` cost per packet, ns.
pub fn replay_server_core(servers: usize, clients: usize, log: &[FleetArrival]) -> f64 {
    const BATCH: usize = 4096;
    let cfg = CoreConfig {
        min_poll_interval: Some(SimDuration::from_secs(2)),
        table_capacity: clients,
        ..CoreConfig::default()
    };
    let mut timed_ns = 0u128;
    let mut packets = 0u64;
    for sid in 0..servers {
        let mut core = ServerCore::new(cfg);
        let mut reqs = RequestRing::with_capacity(BATCH);
        let mut out = ReplyRing::new();
        let mut batch_sec = i64::MIN;
        let mut flush = |core: &mut ServerCore, reqs: &mut RequestRing, out: &mut ReplyRing| {
            if reqs.is_empty() {
                return;
            }
            let t0 = Instant::now();
            core.process_batch(reqs, out);
            timed_ns += t0.elapsed().as_nanos();
            packets += reqs.len() as u64;
            reqs.clear();
        };
        for a in log.iter().filter(|a| a.server_id == sid) {
            let sec = a.at.as_nanos() / 1_000_000_000;
            if sec != batch_sec || reqs.len() == BATCH {
                flush(&mut core, &mut reqs, &mut out);
                batch_sec = sec;
            }
            reqs.push(u64::from(a.client_id), a.at, &a.request);
        }
        flush(&mut core, &mut reqs, &mut out);
    }
    timed_ns as f64 / packets.max(1) as f64
}

/// Every per-layer metric of the traced run.
#[derive(Default)]
pub struct Layers {
    pub stacks: [Tally; 3],
    /// Thread-seconds the traced run had (its process CPU time), ns:
    /// the base of every `*.share`.
    pub busy_ns: f64,
    pub advance_ns_per_tick: f64,
    pub lane_op_ns: f64,
    pub on_arrival_ns: f64,
    pub servers: ServerModelStats,
    pub server_core_ns_per_pkt: f64,
    pub polls: u64,
    pub synth_ns_per_record: f64,
    pub sink_ns_per_record: f64,
    pub chunk_ms: Vec<f64>,
    pub records: u64,
    pub owd_kept: u64,
    pub fold_ns_per_chunk: f64,
    pub state_bytes_peak: u64,
    pub utilization: f64,
    pub overhead_share: f64,
}

/// Pool-wide sum of per-server stats (peak backlog: the deepest server).
pub fn total(stats: &[ServerModelStats]) -> ServerModelStats {
    let mut t = ServerModelStats::default();
    for s in stats {
        t.arrivals += s.arrivals;
        t.served += s.served;
        t.kod_sent += s.kod_sent;
        t.shed += s.shed;
        t.dropped += s.dropped;
        t.restarts += s.restarts;
        t.peak_backlog = t.peak_backlog.max(s.peak_backlog);
    }
    t
}

impl Layers {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let share = |ns: f64| {
            if self.busy_ns > 0.0 {
                ns / self.busy_ns
            } else {
                0.0
            }
        };
        let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        const NAMES: [[&str; 3]; 3] = [
            [
                "core.sntp.poll_ns",
                "core.sntp.complete_ns",
                "core.sntp.calls",
            ],
            [
                "core.mntp.poll_ns",
                "core.mntp.complete_ns",
                "core.mntp.calls",
            ],
            [
                "core.ntpd.poll_ns",
                "core.ntpd.complete_ns",
                "core.ntpd.calls",
            ],
        ];
        let mut core_ns = 0u64;
        for (t, names) in self.stacks.iter().zip(NAMES) {
            m.put(names[0], per(t.poll_ns, t.polls), "ns/call");
            m.put(names[1], per(t.complete_ns, t.completes), "ns/call");
            m.put(names[2], (t.polls + t.completes) as f64, "count");
            core_ns += t.poll_ns + t.complete_ns;
        }
        m.put("core.share", share(core_ns as f64), "share");

        let lane_ops: u64 = self
            .stacks
            .iter()
            .map(|t| t.hinted + t.results + t.downlinks)
            .sum();
        m.put(
            "netsim.advance_ns_per_tick",
            self.advance_ns_per_tick,
            "ns/tick",
        );
        m.put("netsim.lane_op_ns", self.lane_op_ns, "ns/op");
        m.put(
            "netsim.lanes.share",
            share(self.lane_op_ns * lane_ops as f64),
            "share",
        );
        m.put(
            "netsim.server_model.on_arrival_ns",
            self.on_arrival_ns,
            "ns/arrival",
        );
        let s = &self.servers;
        m.put("netsim.server.arrivals", s.arrivals as f64, "count");
        m.put("netsim.server.served", s.served as f64, "count");
        m.put("netsim.server.rate", s.kod_sent as f64, "count");
        m.put("netsim.server.shed", s.shed as f64, "count");
        m.put("netsim.server.dropped", s.dropped as f64, "count");
        m.put("netsim.server.peak_backlog", s.peak_backlog as f64, "count");
        let useful = if s.arrivals == 0 {
            0.0
        } else {
            s.served as f64 / s.arrivals as f64
        };
        m.put("netsim.server.useful_ratio", useful, "ratio");

        let (results, failed) = self
            .stacks
            .iter()
            .fold((0, 0), |(r, f), t| (r + t.results, f + t.failed));
        m.put(
            "sntp.server_core.ns_per_pkt",
            self.server_core_ns_per_pkt,
            "ns/pkt",
        );
        m.put("sntp.exchange.polls", self.polls as f64, "count");
        m.put("sntp.exchange.failed_share", per(failed, results), "share");

        m.put(
            "loganalysis.synth.ns_per_record",
            self.synth_ns_per_record,
            "ns/record",
        );
        m.put(
            "loganalysis.sink.ns_per_record",
            self.sink_ns_per_record,
            "ns/record",
        );
        m.put(
            "loganalysis.chunk_ms_p50",
            quantile(&self.chunk_ms, 0.50),
            "ms",
        );
        m.put(
            "loganalysis.chunk_ms_p99",
            quantile(&self.chunk_ms, 0.99),
            "ms",
        );
        m.put("loganalysis.records", self.records as f64, "count");
        m.put("loganalysis.owd_kept", self.owd_kept as f64, "count");

        m.put(
            "devtools.sketch.fold_ns_per_chunk",
            self.fold_ns_per_chunk,
            "ns/chunk",
        );
        m.put(
            "devtools.sketch.state_bytes_peak",
            self.state_bytes_peak as f64,
            "bytes",
        );
        m.put("devtools.par.utilization", self.utilization, "share");
        m.put("trace.overhead_share", self.overhead_share, "share");
        m
    }
}
