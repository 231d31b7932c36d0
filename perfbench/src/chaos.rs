//! The `chaos` workload: `experiments::chaosfleet` on a scaled-down
//! timeline. The timed runs call the pipeline itself; set-up and the
//! traced run use its resilient arm rebuilt from public constructors,
//! because the pipeline builds its clients privately.

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};
use clocksim::{OscillatorConfig, SimClock};
use devtools::par::Pool;
use experiments::chaosfleet::{self, ChaosFleetResult, Timeline};
use mntp::{
    ApplyMode, AutoTuneConfig, ChaosSession, Directive, Discipline, ExchangeResult, FleetClient,
    FleetRunConfig, MntpConfig, MntpDiscipline, QueryOutcome, RobustConfig,
};
use netsim::chaos::ClientRange;
use netsim::fleet::{DegradationConfig, FleetConfig, FleetNet, ServerModelConfig};
use sntp::fleet::RequestShape;
use sntp::{PickLane, PoolConfig, ServerPool};

use crate::report::{
    jobs, median, repeat, setup_samples, timed, Checks, Digest, Metrics, Rep, Runs,
};
use crate::trace::{Layers, Restart};
use crate::world::{self, Outcome, Scenario, World, Wrap};

/// Clients in the timeline's world.
pub const CLIENTS: usize = 4_000;

// The pipeline's world shape (`experiments::chaosfleet`).
const SERVERS: usize = 4;
const SHARDS: usize = 8;
const FANOUT: usize = 3;
const DARK: usize = 0;

/// The `--quick` timeline (150 s units, 1350 s in all) at [`CLIENTS`].
pub fn timeline() -> Timeline {
    let mut tl = Timeline::new(true);
    tl.n_clients = CLIENTS;
    tl.domain = ClientRange::new(0, (CLIENTS / 4) as u32);
    tl
}

/// The pipeline's resilient arm, rebuilt.
pub struct Chaos {
    tl: Timeline,
    seed: u64,
    fcfg: FleetConfig,
}

impl Chaos {
    pub fn new(seed: u64) -> Chaos {
        let tl = timeline();
        let fcfg = FleetConfig {
            clients: tl.n_clients,
            servers: SERVERS,
            shards: SHARDS,
            server: ServerModelConfig {
                queue_capacity: 6144,
                service_time: SimDuration::from_secs_f64(60e-6),
                overload_backlog: 4608,
                ladder: Some(DegradationConfig {
                    ramp_backlog: 1536,
                    ..DegradationConfig::default()
                }),
                ..ServerModelConfig::default()
            },
            initial_frequency: 0.05,
            ..FleetConfig::default()
        };
        Chaos { tl, seed, fcfg }
    }

    fn mntp_config(&self) -> MntpConfig {
        let tl = &self.tl;
        MntpConfig {
            apply_mode: ApplyMode::Slew,
            warmup_period_secs: tl.phases[0].end_secs / 2.0,
            warmup_wait_secs: 20.0,
            regular_wait_secs: 60.0,
            holdover_max_wait_secs: 120.0,
            step_threshold_ms: Some(50.0),
            stepout_rejects: Some(5),
            reset_period_secs: 2.0 * tl.duration_secs as f64,
            ..MntpConfig::default()
        }
    }
}

/// Sleeps until its boot instant, then delegates: the pipeline's
/// per-client boot stagger.
struct BootStagger {
    inner: Box<dyn Discipline>,
    boot_secs: f64,
}

impl Discipline for BootStagger {
    fn wants_hints(&self) -> bool {
        self.inner.wants_hints()
    }

    fn poll(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        hints: Option<&netsim::WirelessHints>,
        select: &mut dyn sntp::ServerSelect,
    ) -> Directive {
        if t.as_secs_f64() < self.boot_secs {
            return Directive::Idle {
                record_deferred: false,
            };
        }
        self.inner.poll(t, clock, hints, select)
    }

    fn complete(
        &mut self,
        t: SimTime,
        clock: &mut SimClock,
        round: &[ExchangeResult],
    ) -> Option<QueryOutcome> {
        self.inner.complete(t, clock, round)
    }

    fn take_commands(&mut self) -> Vec<clocksim::ClockCommand> {
        self.inner.take_commands()
    }
}

impl Scenario for Chaos {
    fn fleet_config(&self) -> &FleetConfig {
        &self.fcfg
    }

    fn run_config(&self) -> FleetRunConfig {
        FleetRunConfig {
            start_secs: 0.0,
            duration_secs: self.tl.duration_secs,
            tick_secs: 1.0,
            sample_period_secs: 15.0,
            collect_arrivals: false,
            steady_cutoff_secs: Some(self.tl.duration_secs as f64 + 1.0),
        }
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn build(&self, wrap: Wrap<'_>) -> World {
        let (tl, seed) = (&self.tl, self.seed);
        let mut net = FleetNet::new(&self.fcfg, seed);
        let pool = ServerPool::new(
            PoolConfig {
                size: SERVERS,
                ..PoolConfig::default()
            },
            seed ^ 0x9001,
        );
        let cfg = self.mntp_config();
        let tune = || AutoTuneConfig {
            min_wait_secs: 20.0,
            max_wait_secs: cfg.regular_wait_secs,
            increase_secs: 15.0,
            decrease_factor: 0.5,
        };
        let clients = (0..tl.n_clients)
            .map(|i| {
                let osc = OscillatorConfig::laptop()
                    .with_skew_ppm(30.0)
                    .build(SimRng::new(seed ^ (0x10_000 + i as u64)));
                let clock = SimClock::new(osc, SimTime::ZERO);
                let select = PickLane::new(SERVERS, seed ^ (0x30_000 + i as u64));
                let rcfg = RobustConfig {
                    health_seed: seed ^ (0x20_000 + i as u64),
                    ..RobustConfig::default()
                };
                let inner: Box<dyn Discipline> = Box::new(
                    MntpDiscipline::resilient(cfg.clone(), &rcfg, SERVERS, FANOUT)
                        .with_autotune(tune()),
                );
                let boot_secs = cfg.regular_wait_secs
                    * ((i as u64).wrapping_mul(0x9E37_79B9) % 4096) as f64
                    / 4096.0;
                let discipline = wrap(i, Box::new(BootStagger { inner, boot_secs }));
                FleetClient {
                    discipline,
                    clock,
                    select,
                    shape: RequestShape::Sntp,
                }
            })
            .collect();
        let groups: Vec<u8> = (0..tl.n_clients)
            .map(|i| u8::from(!tl.domain.contains(i as u32)))
            .collect();
        let session = ChaosSession::new(tl.plan(seed ^ 0xC0A5), &mut net, groups, 2);
        World {
            clients,
            net,
            pool,
            session: Some(session),
        }
    }

    fn stack_of(&self, _: usize) -> usize {
        1
    }

    /// The dark server restarts at the first tick past its outage.
    fn restarts(&self) -> Vec<Restart> {
        let end = SimTime::ZERO + SimDuration::from_secs_f64(self.tl.phases[1].end_secs);
        vec![(DARK, end)]
    }
}

fn digest(r: &ChaosFleetResult) -> u64 {
    Digest::new()
        .bytes(chaosfleet::render(r).as_bytes())
        .finish()
}

/// The pipeline's own checks, plus every arm's pool-wide conservation.
fn check_result(r: &ChaosFleetResult, checks: &mut Checks) {
    checks.check(r.lockstep_ok, || {
        "chaos lockstep replay diverged".to_string()
    });
    for a in &r.arms {
        let s = &a.servers;
        checks.check(s.arrivals == s.served + s.kod + s.shed + s.dropped, || {
            format!(
                "chaos arm {}: arrivals {} != served+rate+shed+dropped {s:?}",
                a.name, s.arrivals
            )
        });
    }
}

/// The rebuilt resilient arm must reproduce the pipeline's, and every
/// one of its servers must conserve arrivals. Returns the rebuilt run.
fn cross_check(sc: &Chaos, r: &ChaosFleetResult, checks: &mut Checks) -> Outcome {
    let o = world::run(
        &Pool::with_jobs(jobs()),
        &mut sc.build(&world::identity),
        &sc.run_config(),
    );
    world::check_conservation(checks, "chaos rebuilt arm", &o.servers);
    let t = crate::trace::total(&o.servers);
    let ours = vec![
        t.arrivals,
        t.served,
        t.kod_sent,
        t.shed,
        t.dropped,
        t.restarts,
        o.run.polls_sent,
        o.run.chaos_dropped_up,
        o.run.chaos_dropped_down,
    ];
    let theirs = r.arms.first().map(|a| {
        let s = &a.servers;
        vec![
            s.arrivals,
            s.served,
            s.kod,
            s.shed,
            s.dropped,
            s.restarts,
            a.polls_sent,
            a.chaos_dropped_up,
            a.chaos_dropped_down,
        ]
    });
    checks.check(Some(&ours) == theirs.as_ref(), || {
        format!("rebuilt chaos arm {ours:?} != chaosfleet resilient arm {theirs:?}")
    });
    o
}

/// MNTP's steady-state p99 |clock error|, ms: the median of both client
/// groups' p99 samples over the settled half of the steady phase (the
/// first half is warm-up). The pipeline's own baseline is the in-domain
/// group's maximum over the same window, which swings with the seed.
fn steady_p99_ms(tl: &Timeline, o: &Outcome) -> f64 {
    let steady = tl.phases[0];
    let settle = (steady.start_secs + steady.end_secs) / 2.0;
    let samples: Vec<f64> = o
        .run
        .group_quantiles
        .iter()
        .flatten()
        .filter(|g| g.t_secs >= settle && g.t_secs < steady.end_secs)
        .map(|g| g.p99_ms)
        .collect();
    median(&samples)
}

/// Timed runs for `seconds`, then the end-to-end metrics.
pub fn measure(seed: u64, seconds: f64, checks: &mut Checks) -> (Metrics, Runs) {
    let sc = Chaos::new(seed);
    let par = Pool::with_jobs(jobs());
    let mut last = None;
    let setups = setup_samples(|| sc.build(&world::identity));
    let runs = repeat(seconds, setups, checks, |checks| {
        let (_, setup) = timed(|| sc.build(&world::identity));
        let (r, run) = timed(|| chaosfleet::run_timeline_on(&par, seed, &sc.tl));
        check_result(&r, checks);
        // Three arms (resilient, ablation, serial lockstep replay) a run.
        let items = (3 * CLIENTS as u64 * (sc.tl.duration_secs + 1)) as f64;
        let digest = digest(&r);
        last = Some(r);
        Rep {
            setup_s: setup.wall_s,
            run,
            items,
            digest,
        }
    });
    let p99 = last.map_or(0.0, |r| {
        steady_p99_ms(&sc.tl, &cross_check(&sc, &r, checks))
    });
    (runs.metrics(p99), runs)
}

pub fn trace(seed: u64, checks: &mut Checks) -> Layers {
    world::trace(&Chaos::new(seed), checks)
}
