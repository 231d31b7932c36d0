//! What the `fleet` and `chaos` workloads share: a fleet world built
//! from public constructors, one run of it through `mntp`'s fleet
//! runner, the per-server checks, and the traced run with its layer
//! probes.

use devtools::par::Pool;
use mntp::{
    run_fleet_chaos_on, run_fleet_on, ChaosSession, Discipline, FleetClient, FleetRun,
    FleetRunConfig,
};
use netsim::fleet::{FleetConfig, FleetNet, ServerModelStats};
use sntp::ServerPool;

use crate::report::{jobs, median, timed, Checks};
use crate::trace::{self, Layers, Restart, Traced};

/// Hook applied to every client's discipline as it is built: identity
/// for untraced runs, the [`Traced`] decorator for the traced one.
pub type Wrap<'a> = &'a dyn Fn(usize, Box<dyn Discipline>) -> Box<dyn Discipline>;

/// A world ready to run.
pub struct World {
    pub clients: Vec<FleetClient>,
    pub net: FleetNet,
    pub pool: ServerPool,
    pub session: Option<ChaosSession>,
}

/// How a workload builds and runs its world.
pub trait Scenario {
    fn fleet_config(&self) -> &FleetConfig;
    fn run_config(&self) -> FleetRunConfig;
    fn seed(&self) -> u64;
    fn build(&self, wrap: Wrap<'_>) -> World;
    /// Stack index of client `i` (see [`trace::Sinks`]).
    fn stack_of(&self, i: usize) -> usize;
    /// Server restarts the run applies (replayed into fresh models).
    fn restarts(&self) -> Vec<Restart>;
}

/// One run's counters and raw output.
pub struct Outcome {
    pub run: FleetRun,
    pub servers: Vec<ServerModelStats>,
}

pub fn run(par: &Pool, w: &mut World, cfg: &FleetRunConfig) -> Outcome {
    let run = match w.session.as_mut() {
        Some(s) => run_fleet_chaos_on(par, &mut w.clients, &mut w.net, &mut w.pool, cfg, s),
        None => run_fleet_on(par, &mut w.clients, &mut w.net, &mut w.pool, cfg),
    };
    let servers = (0..w.net.server_count())
        .filter_map(|j| w.net.server_model(j))
        .map(|m| m.stats)
        .collect();
    Outcome { run, servers }
}

pub fn identity(_: usize, d: Box<dyn Discipline>) -> Box<dyn Discipline> {
    d
}

/// Every field of each server's stats, in server order.
pub fn server_fields(servers: &[ServerModelStats]) -> Vec<u64> {
    servers
        .iter()
        .flat_map(|s| {
            [
                s.arrivals,
                s.served,
                s.kod_sent,
                s.shed,
                s.dropped,
                s.peak_backlog as u64,
                s.restarts,
            ]
        })
        .collect()
}

/// The counters that any change to the program's speed must leave
/// exactly as they are.
pub fn counters(o: &Outcome) -> Vec<u64> {
    let run = [
        o.run.polls_sent,
        o.run.chaos_dropped_up,
        o.run.chaos_dropped_down,
    ];
    [run.as_slice(), &server_fields(&o.servers)].concat()
}

/// Every server must account for each arrival exactly once.
pub fn check_conservation(checks: &mut Checks, label: &str, servers: &[ServerModelStats]) {
    for (j, s) in servers.iter().enumerate() {
        checks.check(
            s.arrivals == s.served + s.kod_sent + s.shed + s.dropped,
            || {
                format!(
                    "{label}: server {j} arrivals {} != served+rate+shed+dropped {:?}",
                    s.arrivals, s
                )
            },
        );
    }
}

/// Untraced runs a traced run is compared against.
pub const REFERENCE_RUNS: usize = 3;

/// The traced run of a fleet-world workload: [`REFERENCE_RUNS`] untraced
/// runs for reference, one run with every discipline wrapped and the arrival log
/// captured, then the layer probes on that run's inputs.
pub fn trace(sc: &dyn Scenario, checks: &mut Checks) -> Layers {
    let par = Pool::with_jobs(jobs());
    let cfg = sc.run_config();
    let mut walls = Vec::new();
    let mut utils = Vec::new();
    let mut reference = None;
    for _ in 0..REFERENCE_RUNS {
        let mut w = sc.build(&identity);
        let (o, span) = timed(|| run(&par, &mut w, &cfg));
        check_conservation(checks, "untraced", &o.servers);
        walls.push(span.wall_s);
        utils.push(span.cpu_s / (span.wall_s * par.jobs() as f64));
        reference = Some(counters(&o));
    }

    let sinks = trace::sinks();
    let wrap = |i: usize, d: Box<dyn Discipline>| Traced::wrap(d, &sinks[sc.stack_of(i)]);
    let mut w = sc.build(&wrap);
    let traced_cfg = FleetRunConfig {
        collect_arrivals: true,
        ..cfg.clone()
    };
    let (o, span) = timed(|| run(&par, &mut w, &traced_cfg));
    drop(w);
    let stacks = trace::drain(&sinks);
    check_conservation(checks, "traced", &o.servers);
    checks.check(
        reference.as_deref() == Some(counters(&o).as_slice()),
        || {
            format!(
                "traced counters {:?} != untraced {:?}",
                counters(&o),
                reference
            )
        },
    );

    let (mut layers, replayed) = probe_world(sc, &o);
    let (ran, replay) = (server_fields(&o.servers), server_fields(&replayed));
    checks.check(replay == ran, || {
        format!("ServerModel replay {replay:?} != run {ran:?}")
    });
    layers.stacks = stacks;
    layers.busy_ns = span.cpu_s * 1e9;
    layers.servers = trace::total(&o.servers);
    layers.polls = o.run.polls_sent;
    layers.utilization = median(&utils);
    layers.overhead_share = span.wall_s / median(&walls) - 1.0;
    let (synth, sink, fold) = crate::analytics::probe(sc.seed());
    layers.synth_ns_per_record = synth;
    layers.sink_ns_per_record = sink;
    layers.fold_ns_per_chunk = fold;
    layers
}

/// Unit costs of the simulator layers on a run's world and captured
/// arrival log: kernel advance, lane operations, `ServerModel`
/// admission, and `ServerCore` batches. Also returns the per-server
/// stats of the `ServerModel` replay, which must equal the run's.
pub fn probe_world(sc: &dyn Scenario, o: &Outcome) -> (Layers, Vec<ServerModelStats>) {
    let fcfg = sc.fleet_config();
    let cfg = sc.run_config();
    let ticks = (cfg.duration_secs as f64 / cfg.tick_secs).ceil() as u64;
    let lane_ops = 300_000;
    let (on_arrival_ns, replayed) = trace::replay_models(
        &fcfg.server,
        o.servers.len(),
        &o.run.arrivals,
        &sc.restarts(),
    );
    let layers = Layers {
        advance_ns_per_tick: trace::advance_probe(fcfg, sc.seed(), ticks, cfg.tick_secs),
        lane_op_ns: trace::lane_probe(fcfg, sc.seed(), ticks, lane_ops),
        on_arrival_ns,
        server_core_ns_per_pkt: trace::replay_server_core(
            o.servers.len(),
            fcfg.clients,
            &o.run.arrivals,
        ),
        ..Layers::default()
    };
    (layers, replayed)
}
