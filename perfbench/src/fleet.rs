//! The `fleet` workload: the fleet sweep's large-trial world, rebuilt
//! from public constructors so that set-up is timed apart from the run.

use clocksim::rng::SimRng;
use clocksim::{OscillatorConfig, SimClock};
use devtools::par::Pool;
use mntp::{
    Discipline, FleetClient, FleetRunConfig, MntpConfig, MntpDiscipline, RobustConfig,
    SntpDiscipline,
};
use netsim::fleet::{FleetConfig, FleetNet};
use ntpd_sim::{NtpdConfig, NtpdDiscipline};
use sntp::fleet::RequestShape;
use sntp::{PickLane, PoolConfig, ServerPool};

use crate::report::{jobs, repeat, setup_samples, timed, Checks, Digest, Metrics, Rep, Runs};
use crate::trace::{Layers, Restart};
use crate::world::{self, Outcome, Scenario, World, Wrap};

/// Clients in the timed world.
pub const CLIENTS: usize = 20_000;
/// Simulated seconds per run.
pub const DURATION_SECS: u64 = 600;
/// Clients in the world checked against `experiments::fleet::fleet_trial`.
const CROSS_CHECK_CLIENTS: usize = 2_000;

// The sweep's world shape (`experiments::fleet`).
const SERVERS: usize = 4;
const SHARDS: usize = 8;

pub struct Fleet {
    n: usize,
    seed: u64,
    fcfg: FleetConfig,
}

impl Fleet {
    pub fn new(n: usize, seed: u64) -> Fleet {
        let fcfg = FleetConfig {
            clients: n,
            servers: SERVERS,
            shards: SHARDS,
            ..FleetConfig::default()
        };
        Fleet { n, seed, fcfg }
    }
}

/// Stack index of client `i`: the sweep's 5/3/2
/// SNTP/MNTP/ntpd mix by id.
fn stack_for(i: usize) -> usize {
    match i % 10 {
        0..=4 => 0,
        5..=7 => 1,
        _ => 2,
    }
}

fn client_clock(seed: u64) -> SimClock {
    let osc = OscillatorConfig::laptop()
        .with_skew_ppm(30.0)
        .build(SimRng::new(seed));
    SimClock::new(osc, clocksim::time::SimTime::ZERO)
}

impl Scenario for Fleet {
    fn fleet_config(&self) -> &FleetConfig {
        &self.fcfg
    }

    /// The costly sweep trials' shape: steady-state sampling over the
    /// second half of the run.
    fn run_config(&self) -> FleetRunConfig {
        FleetRunConfig {
            start_secs: 0.0,
            duration_secs: DURATION_SECS,
            tick_secs: 1.0,
            sample_period_secs: 30.0,
            collect_arrivals: false,
            steady_cutoff_secs: Some(DURATION_SECS as f64 / 2.0),
        }
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn build(&self, wrap: Wrap<'_>) -> World {
        let seed = self.seed;
        let net = FleetNet::new(&self.fcfg, seed);
        let pool = ServerPool::new(
            PoolConfig {
                size: SERVERS,
                ..PoolConfig::default()
            },
            seed ^ 0x9001,
        );
        let clients = (0..self.n)
            .map(|i| {
                let clock = client_clock(seed ^ (0x10_000 + i as u64));
                let select = PickLane::new(SERVERS, seed ^ (0x30_000 + i as u64));
                let (discipline, shape): (Box<dyn Discipline>, _) = match stack_for(i) {
                    0 => (
                        Box::new(SntpDiscipline::naive().self_paced(5.0)),
                        RequestShape::Sntp,
                    ),
                    1 => {
                        let rcfg = RobustConfig {
                            health_seed: seed ^ (0x20_000 + i as u64),
                            ..RobustConfig::default()
                        };
                        let d = MntpDiscipline::hardened(MntpConfig::default(), &rcfg, SERVERS);
                        (Box::new(d), RequestShape::Sntp)
                    }
                    _ => {
                        let d =
                            NtpdDiscipline::new(&NtpdConfig::with_peers((0..SERVERS).collect()));
                        (Box::new(d), RequestShape::Ntpd)
                    }
                };
                FleetClient {
                    discipline: wrap(i, discipline),
                    clock,
                    select,
                    shape,
                }
            })
            .collect();
        World {
            clients,
            net,
            pool,
            session: None,
        }
    }

    fn stack_of(&self, i: usize) -> usize {
        stack_for(i)
    }

    fn restarts(&self) -> Vec<Restart> {
        Vec::new()
    }
}

/// MNTP clients' steady-state p99 |clock error|, ms.
fn mntp_p99_ms(o: &Outcome) -> f64 {
    let mut errs: Vec<f64> = o
        .run
        .steady_abs_ms
        .iter()
        .enumerate()
        .filter(|(i, _)| stack_for(*i) == 1)
        .flat_map(|(_, s)| s.iter().map(|&e| f64::from(e)))
        .collect();
    errs.sort_by(f64::total_cmp);
    devtools::sketch::percentile_nearest_rank(&errs, 0.99)
}

fn digest(o: &Outcome) -> u64 {
    let mut d = Digest::new();
    for c in world::counters(o) {
        d.u64(c);
    }
    for &a in &o.run.arrivals_per_sec {
        d.u64(a);
    }
    for s in &o.run.steady_abs_ms {
        for &e in s {
            d.u64(u64::from(e.to_bits()));
        }
    }
    d.finish()
}

/// The rebuilt world must reproduce the sweep's own trial: same server
/// fates, same polls, same MNTP percentiles (the sweep samples the full
/// series below 100k clients, the rebuild the compact f32 form, hence
/// the relative tolerance).
fn cross_check(seed: u64, checks: &mut Checks) {
    let (row, _) =
        experiments::fleet::fleet_trial(CROSS_CHECK_CLIENTS, seed, DURATION_SECS, false, jobs());
    let sc = Fleet::new(CROSS_CHECK_CLIENTS, seed);
    let o = world::run(
        &Pool::with_jobs(jobs()),
        &mut sc.build(&world::identity),
        &sc.run_config(),
    );
    let t = crate::trace::total(&o.servers);
    let ours = [
        t.arrivals,
        t.served,
        t.kod_sent,
        t.dropped,
        t.peak_backlog as u64,
        o.run.polls_sent,
    ];
    let theirs = [
        row.arrivals,
        row.served,
        row.kod,
        row.dropped,
        row.peak_backlog as u64,
        row.polls_sent,
    ];
    checks.check(ours == theirs, || {
        format!("rebuilt fleet counters {ours:?} != fleet_trial {theirs:?}")
    });
    let p99 = row
        .arms
        .iter()
        .find(|a| a.name.starts_with("MNTP"))
        .map_or(0.0, |a| a.p99_ms);
    let mine = mntp_p99_ms(&o);
    checks.check((mine - p99).abs() <= 1e-6 * p99.abs(), || {
        format!("rebuilt fleet MNTP p99 {mine} != fleet_trial {p99}")
    });
}

/// Timed runs for `seconds`, then the end-to-end metrics.
pub fn measure(seed: u64, seconds: f64, checks: &mut Checks) -> (Metrics, Runs) {
    let sc = Fleet::new(CLIENTS, seed);
    let par = Pool::with_jobs(jobs());
    let cfg = sc.run_config();
    let mut p99 = 0.0;
    let setups = setup_samples(|| sc.build(&world::identity));
    let runs = repeat(seconds, setups, checks, |checks| {
        let (mut w, setup) = timed(|| sc.build(&world::identity));
        let (o, run) = timed(|| world::run(&par, &mut w, &cfg));
        world::check_conservation(checks, "fleet", &o.servers);
        p99 = mntp_p99_ms(&o);
        let items = (CLIENTS as u64 * (DURATION_SECS + 1)) as f64;
        Rep {
            setup_s: setup.wall_s,
            run,
            items,
            digest: digest(&o),
        }
    });
    cross_check(seed, checks);
    (runs.metrics(p99), runs)
}

pub fn trace(seed: u64, checks: &mut Checks) -> Layers {
    world::trace(&Fleet::new(CLIENTS, seed), checks)
}
