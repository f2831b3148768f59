//! The three workloads. Each runs single-threaded against the library's
//! public API, checks every outcome, and reports the end-to-end metrics
//! (untraced run) or the per-layer metrics (traced run).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use counters::CounterNode;
use rand::RngCore;
use reconfig::ReconfigNode;
use sharedmem::SharedMemNode;
use simnet::scenario::{catalog, find, run_scenario, ScenarioTarget};
use simnet::stack::Layer;
use simnet::{
    Arrival, FaultAction, LoadProfile, ProcessId, Scenario, ScenarioRun, SchedulerMode, SimRng,
    Simulation,
};
use vssmr::SmrNode;

use crate::calib::Speed;
use crate::stats::{median, ms, percentile, ratio};
use crate::trace::{self, allocs, Bucket, Lanes, Traced};

/// Every run uses the default event-driven scheduler.
const MODE: SchedulerMode = SchedulerMode::EventDriven;

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 21;

/// The four composite stacks, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// `ReconfigNode`: recSA/recMA/joining over Θ and the data link.
    Reconfig,
    /// `CounterNode`: labels and counters.
    Counter,
    /// `SharedMemNode`: MWMR registers over reconfiguration.
    SharedMem,
    /// `SmrNode`: virtually synchronous SMR over reconfiguration and
    /// counters.
    Smr,
}

/// All stacks, in report order.
pub const STACKS: [Stack; 4] = [
    Stack::Reconfig,
    Stack::Counter,
    Stack::SharedMem,
    Stack::Smr,
];

impl Stack {
    /// Report name of the stack.
    pub fn name(self) -> &'static str {
        match self {
            Stack::Reconfig => "reconfig",
            Stack::Counter => "counter",
            Stack::SharedMem => "sharedmem",
            Stack::Smr => "smr",
        }
    }

    /// Lane names of the stack's wire format and the nested-reconfig lane.
    pub fn lanes(self) -> (&'static [&'static str], Option<usize>) {
        fn of<W: Lanes>() -> (&'static [&'static str], Option<usize>) {
            (W::LANES, W::NESTED)
        }
        match self {
            Stack::Reconfig => of::<reconfig::ReconfigMsg>(),
            Stack::Counter => of::<counters::CounterMsg>(),
            Stack::SharedMem => of::<sharedmem::SharedMemMsg>(),
            Stack::Smr => of::<vssmr::SmrMsg>(),
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Calls the generic function `$f` instantiated at the node type of `$stack`.
macro_rules! dispatch {
    ($stack:expr, $f:ident ( $($arg:expr),* )) => {
        match $stack {
            Stack::Reconfig => $f::<ReconfigNode>($($arg),*),
            Stack::Counter => $f::<CounterNode>($($arg),*),
            Stack::SharedMem => $f::<SharedMemNode>($($arg),*),
            Stack::Smr => $f::<SmrNode>($($arg),*),
        }
    };
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked units of work (cells or stack runs).
    pub attempted: u64,
    /// Checked units whose outcome was wrong.
    pub failed: u64,
    /// Problems that make the whole run incorrect (a traced execution that
    /// differs from the untraced one).
    pub errors: Vec<String>,
    /// The metrics `BENCHMARK.json` declares for this mode.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed for the reader only.
    pub extras: Vec<Metric>,
    /// Spans and per-round layer buckets, one JSON object per line.
    pub spans: Vec<String>,
}

/// Sizes of the three workloads; tests shrink them.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Population sizes of the catalog matrix.
    pub matrix_ns: Vec<usize>,
    /// Seeds per matrix cell coordinate.
    pub matrix_seeds: u64,
    /// Population size of each stack on `steady-scale`.
    pub scale_ns: [usize; 4],
    /// Population size on `loaded-checked`.
    pub loaded_n: usize,
    /// Logical clients on `loaded-checked`.
    pub loaded_clients: u64,
    /// Poisson arrivals per round on `loaded-checked`.
    pub loaded_rate: f64,
    /// Op timeout in rounds on `loaded-checked`.
    pub loaded_timeout: u64,
    /// Workload window in rounds on `loaded-checked`.
    pub loaded_window: u64,
}

impl Default for Spec {
    fn default() -> Self {
        Spec {
            matrix_ns: (4..=8).collect(),
            matrix_seeds: 5,
            scale_ns: [128, 64, 64, 32],
            loaded_n: 16,
            loaded_clients: 10_000,
            loaded_rate: 2.0,
            loaded_timeout: 300,
            loaded_window: 600,
        }
    }
}

/// A cell passes when it converged, broke no invariant and its history (if
/// armed) showed no linearizability violation. An exhausted checker budget
/// (`lin_result = 2`) is inconclusive, not a failure (docs/HISTORIES.md);
/// such cells are counted separately.
pub fn cell_ok(run: &ScenarioRun) -> bool {
    run.converged && run.invariant_violations.is_empty() && run.counter("lin_result") != 1
}

// ---------------------------------------------------------------------------
// Executions.

/// One catalog cell: `Scenario::build_sim` then `run_scenario`.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Wall time of `build_sim`.
    pub build_ns: u64,
    /// Wall time of `run_scenario`.
    pub run_ns: u64,
    /// Wall time of the whole cell, dropping the simulation included.
    pub cell_ns: u64,
    /// The runner's verdict.
    pub run: ScenarioRun,
    /// Messages sent, from `Simulation::metrics`.
    pub msgs: u64,
    /// Scheduler wake-ups, from `Simulation::metrics`.
    pub wakeups: u64,
    /// Channel visits, from `Simulation::metrics`.
    pub visits: u64,
    /// Allocations during the cell (counted in the traced run only).
    pub allocs: u64,
    /// Machine-speed factor current when the cell ran (1 when not tracked).
    pub factor: f64,
}

fn run_cell<S: ScenarioTarget>(scenario: &Scenario, seed: u64) -> CellRun {
    let allocs_before = allocs();
    let start = Instant::now();
    let mut sim: Simulation<S> = scenario.build_sim(seed, MODE);
    let build_ns = start.elapsed().as_nanos() as u64;
    let run_start = Instant::now();
    let run = run_scenario(scenario, &mut sim);
    let run_ns = run_start.elapsed().as_nanos() as u64;
    let m = sim.metrics();
    let (msgs, wakeups, visits) = (m.messages_sent(), m.wakeups(), m.channel_visits());
    drop(sim);
    CellRun {
        build_ns,
        run_ns,
        cell_ns: start.elapsed().as_nanos() as u64,
        run,
        msgs,
        wakeups,
        visits,
        allocs: allocs() - allocs_before,
        factor: 1.0,
    }
}

fn build_only<S: ScenarioTarget>(scenario: &Scenario, seed: u64) {
    let sim: Simulation<S> = scenario.build_sim(seed, MODE);
    black_box(&sim);
}

/// Median scaled wall time, in seconds, of `SETUP_REPS` repetitions of
/// `set_up`, timing the reference kernel before each.
fn setup_seconds(mut set_up: impl FnMut()) -> (f64, usize) {
    let mut speed = Speed::with_period(Duration::ZERO);
    let reps: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let factor = speed.factor();
            let start = Instant::now();
            set_up();
            start.elapsed().as_secs_f64() * factor
        })
        .collect();
    (median(&reps), reps.len())
}

/// One simulated round of an adapter-driven execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRec {
    /// Wall time of `Simulation::step_round`.
    pub ns: u64,
    /// Allocations during the round.
    pub allocs: u64,
    /// Layer work inside the round.
    pub bucket: Bucket,
}

/// A stepped execution: per-round costs and the observables the traced and
/// untraced executions must agree on.
#[derive(Debug, Clone, Default)]
pub struct Stepped {
    /// Wall time of building the simulation.
    pub build_ns: u64,
    /// Per-round wall time (and layer work, when traced).
    pub rounds: Vec<RoundRec>,
    /// `messages_sent` after each round.
    pub sent: Vec<u64>,
    /// `messages_delivered` after each round.
    pub delivered: Vec<u64>,
    /// Each node's final `settle_token`, in identifier order.
    pub tokens: Vec<String>,
    /// First round after which the stack reported convergence (untraced
    /// executions only).
    pub converged_at: Option<u64>,
    /// Invariant violations at the end (untraced executions only).
    pub violations: Vec<String>,
    /// Scheduler wake-ups over the execution.
    pub wakeups: u64,
    /// Channel visits over the execution.
    pub visits: u64,
}

impl Stepped {
    fn total_ns(&self) -> u64 {
        self.rounds.iter().map(|r| r.ns).sum()
    }
}

/// A simulation stepped one timed round at a time with
/// `Simulation::step_round`.
trait Stepper {
    /// Steps and records one round.
    fn step(&mut self);
    /// Records the end-of-execution observables.
    fn finish(&mut self);
    /// What was recorded so far.
    fn rec(&self) -> &Stepped;
}

/// `build_sim`'s simulation, checked for convergence between rounds.
struct Plain<S: ScenarioTarget> {
    sim: Simulation<S>,
    rec: Stepped,
}

fn plain<S: ScenarioTarget + 'static>(scenario: &Scenario, seed: u64) -> Box<dyn Stepper> {
    let start = Instant::now();
    let sim: Simulation<S> = scenario.build_sim(seed, MODE);
    let rec = Stepped {
        build_ns: start.elapsed().as_nanos() as u64,
        ..Stepped::default()
    };
    Box::new(Plain { sim, rec })
}

impl<S: ScenarioTarget> Stepper for Plain<S> {
    fn step(&mut self) {
        let start = Instant::now();
        self.sim.step_round();
        let ns = start.elapsed().as_nanos() as u64;
        let (sim, rec) = (&self.sim, &mut self.rec);
        rec.rounds.push(RoundRec {
            ns,
            ..RoundRec::default()
        });
        rec.sent.push(sim.metrics().messages_sent());
        rec.delivered.push(sim.metrics().messages_delivered());
        if rec.converged_at.is_none() && S::converged(sim) {
            rec.converged_at = Some(sim.now().as_u64());
        }
    }

    fn finish(&mut self) {
        let (sim, rec) = (&self.sim, &mut self.rec);
        rec.violations = S::invariant_violations(sim);
        rec.tokens = sim.processes().map(|(_, p)| p.settle_token()).collect();
        rec.wakeups = sim.metrics().wakeups();
        rec.visits = sim.metrics().channel_visits();
    }

    fn rec(&self) -> &Stepped {
        &self.rec
    }
}

/// The same execution through the [`Traced`] adapter: the simulation is
/// built from `Scenario::sim_config` and `ScenarioTarget::spawn_initial`,
/// exactly as `build_sim` builds it.
struct Adapted<S: ScenarioTarget + Layer>
where
    S::Wire: Lanes,
{
    sim: Simulation<Traced<S>>,
    rec: Stepped,
}

impl<S> Adapted<S>
where
    S: ScenarioTarget + Layer,
    S::Wire: Lanes,
{
    fn new(scenario: &Scenario, seed: u64) -> Self {
        let start = Instant::now();
        let n = scenario.initial_size();
        let mut sim: Simulation<Traced<S>> = Simulation::new(scenario.sim_config(seed, MODE));
        for i in 0..n as u32 {
            let id = ProcessId::new(i);
            sim.add_process_with_id(id, Traced(S::spawn_initial(id, n)));
        }
        let rec = Stepped {
            build_ns: start.elapsed().as_nanos() as u64,
            ..Stepped::default()
        };
        Adapted { sim, rec }
    }
}

fn adapted<S>(scenario: &Scenario, seed: u64) -> Box<dyn Stepper>
where
    S: ScenarioTarget + Layer + 'static,
    S::Wire: Lanes,
{
    Box::new(Adapted::<S>::new(scenario, seed))
}

impl<S> Stepper for Adapted<S>
where
    S: ScenarioTarget + Layer,
    S::Wire: Lanes,
{
    fn step(&mut self) {
        trace::take_bucket();
        let allocs_before = allocs();
        let start = Instant::now();
        self.sim.step_round();
        let ns = start.elapsed().as_nanos() as u64;
        let (sim, rec) = (&self.sim, &mut self.rec);
        rec.rounds.push(RoundRec {
            ns,
            allocs: allocs() - allocs_before,
            bucket: trace::take_bucket(),
        });
        rec.sent.push(sim.metrics().messages_sent());
        rec.delivered.push(sim.metrics().messages_delivered());
    }

    fn finish(&mut self) {
        let (sim, rec) = (&self.sim, &mut self.rec);
        rec.tokens = sim.processes().map(|(_, p)| p.0.settle_token()).collect();
        rec.wakeups = sim.metrics().wakeups();
        rec.visits = sim.metrics().channel_visits();
    }

    fn rec(&self) -> &Stepped {
        &self.rec
    }
}

/// Salt the load engine folds into the simulation seed (`simnet::load`);
/// [`replay`] draws the same arrival stream with it.
const LOAD_SEED_SALT: u64 = 0x10ad_c11e_0a75_10ad;

/// The adapter pass of one cell: its initial population stepped through the
/// [`Traced`] adapter for as many rounds as the cell ran. When the cell
/// carries client load, its crash schedule and the load engine's arrivals
/// are replayed through the node-local hooks (`submit_local`,
/// `complete_local`), as `run_scenario` would apply them. Returns the record
/// and whether the final state digest equals the cell's.
fn replay<S>(cell: &Cell, run: &ScenarioRun) -> (Stepped, bool)
where
    S: ScenarioTarget + Layer + 'static,
    S::Wire: Lanes,
{
    let scenario = &cell.scenario;
    let mut stepper = Adapted::<S>::new(scenario, cell.seed);
    let load = scenario.load();
    let mut rng = SimRng::seed_from(cell.seed ^ LOAD_SEED_SALT);
    let mut next_value = 0;
    let mut outstanding: BTreeMap<ProcessId, usize> = BTreeMap::new();
    for _ in 0..run.rounds_run {
        let sim = &mut stepper.sim;
        let now = sim.now();
        if let Some(profile) = load {
            for action in scenario.actions_at(now) {
                if let FaultAction::Crash(victim) = action {
                    sim.crash(victim);
                }
            }
            let arrivals = if now.as_u64() < scenario.workload_rounds() {
                profile.arrival.draw(&mut rng, now.as_u64())
            } else {
                0
            };
            let actives = if arrivals > 0 {
                sim.active_ids()
            } else {
                Vec::new()
            };
            for _ in 0..arrivals {
                let client = rng.next_u64() % profile.clients.max(1);
                if actives.is_empty() {
                    continue;
                }
                let via = actives[(client % actives.len() as u64) as usize];
                next_value += 1;
                let node = sim.process_mut(via).expect("active process");
                if node.0.submit_local(client, next_value - 1) {
                    *outstanding.entry(via).or_default() += 1;
                }
            }
        }
        stepper.step();
        for (via, count) in &mut outstanding {
            let node = stepper.sim.process_mut(*via).expect("known process");
            while *count > 0 && node.0.complete_local().is_some() {
                *count -= 1;
            }
        }
    }
    let digest = stepper
        .sim
        .state_digest_with(|id, p| S::state_line(id, &p.0));
    stepper.finish();
    (stepper.rec, digest == run.state_digest)
}

// ---------------------------------------------------------------------------
// Aggregation.

/// Everything the traced run learns about one stack.
#[derive(Debug, Default)]
struct LayerAgg {
    build_ms: Vec<f64>,
    run_ms: Vec<f64>,
    rounds: Vec<f64>,
    total_rounds: u64,
    msgs: u64,
    wakeups: u64,
    visits: u64,
    allocs: u64,
    lane_rounds: u64,
    round_ns: u64,
    round_allocs: u64,
    lanes: Bucket,
}

impl LayerAgg {
    fn add_cell(&mut self, cell: &CellRun) {
        self.build_ms.push(ms(cell.build_ns));
        self.run_ms.push(ms(cell.run_ns));
        self.rounds.push(cell.run.rounds_run as f64);
        self.total_rounds += cell.run.rounds_run;
        self.msgs += cell.msgs;
        self.wakeups += cell.wakeups;
        self.visits += cell.visits;
        self.allocs += cell.allocs;
    }

    fn add_lanes(&mut self, stepped: &Stepped) {
        for r in &stepped.rounds {
            self.lane_rounds += 1;
            self.round_ns += r.ns;
            self.round_allocs += r.allocs;
            let (sum, b) = (&mut self.lanes, &r.bucket);
            sum.poll_ns += b.poll_ns;
            sum.node_allocs += b.node_allocs;
            sum.book_ns += b.book_ns;
            for l in 0..sum.msgs.len() {
                sum.handle_ns[l] += b.handle_ns[l];
                sum.nested_ns[l] += b.nested_ns[l];
                sum.msgs[l] += b.msgs[l];
                sum.bytes[l] += b.bytes[l];
            }
        }
    }

    fn metrics(&self, stack: Stack, out: &mut Vec<Metric>) {
        let s = stack.name();
        let mut push = |name: String, value: f64, unit, n| out.push(metric(name, value, unit, n));
        let (cells, rounds) = (self.build_ms.len(), self.lane_rounds as usize);
        let per_round = |v: u64| ratio(v as f64, self.total_rounds as f64);
        let lane_ms = |ns: u64| ratio(ms(ns), self.lane_rounds as f64);
        let lane_n = |v: u64| ratio(v as f64, self.lane_rounds as f64);
        push(format!("{s}.build_ms"), median(&self.build_ms), "ms", cells);
        push(format!("{s}.run_ms"), median(&self.run_ms), "ms", cells);
        push(format!("{s}.rounds"), median(&self.rounds), "rounds", cells);
        push(
            format!("{s}.msgs"),
            per_round(self.msgs),
            "msgs/round",
            cells,
        );
        push(
            format!("{s}.allocs"),
            per_round(self.allocs),
            "allocs/round",
            cells,
        );
        push(
            format!("{s}.wakeups"),
            per_round(self.wakeups),
            "1/round",
            cells,
        );
        push(
            format!("{s}.channel_visits"),
            per_round(self.visits),
            "1/round",
            cells,
        );
        let b = &self.lanes;
        let substrate_ns = self.round_ns.saturating_sub(b.node_ns() + b.book_ns);
        push(
            format!("{s}.substrate_ms"),
            lane_ms(substrate_ns),
            "ms",
            rounds,
        );
        push(format!("{s}.poll_ms"), lane_ms(b.poll_ns), "ms", rounds);
        let (lanes, nested) = stack.lanes();
        for (l, lane) in lanes.iter().enumerate() {
            push(
                format!("{s}.handle_ms.{lane}"),
                lane_ms(b.handle_ns[l]),
                "ms",
                rounds,
            );
            if nested == Some(l) {
                for (k, inner) in trace::RECONFIG_LANES.iter().enumerate() {
                    let name = format!("{s}.handle_ms.{lane}.{inner}");
                    push(name, lane_ms(b.nested_ns[k]), "ms", rounds);
                }
            }
        }
        for (l, lane) in lanes.iter().enumerate() {
            push(
                format!("{s}.msgs.{lane}"),
                lane_n(b.msgs[l]),
                "msgs/round",
                rounds,
            );
        }
        for (l, lane) in lanes.iter().enumerate() {
            push(
                format!("{s}.bytes.{lane}"),
                lane_n(b.bytes[l]),
                "B/round",
                rounds,
            );
        }
        let substrate_allocs = self.round_allocs.saturating_sub(b.node_allocs);
        push(
            format!("{s}.allocs_node"),
            lane_n(b.node_allocs),
            "allocs/round",
            rounds,
        );
        push(
            format!("{s}.allocs_substrate"),
            lane_n(substrate_allocs),
            "allocs/round",
            rounds,
        );
    }
}

/// Span records, written out when the run ends.
#[derive(Debug, Default)]
struct Spans {
    origin: Option<Instant>,
    lines: Vec<String>,
    next_id: u64,
}

impl Spans {
    fn open(&mut self) -> (u64, Instant) {
        let now = Instant::now();
        self.origin.get_or_insert(now);
        self.next_id += 1;
        (self.next_id, now)
    }

    /// Closes a span opened with [`Spans::open`].
    fn close(&mut self, (id, start): (u64, Instant), parent: u64, name: &str) {
        self.line(id, parent, name, start, start.elapsed().as_micros());
    }

    /// A closed span with a known duration that started at `start`; returns
    /// its identifier.
    fn record(&mut self, parent: u64, name: &str, start: Instant, dur_ns: u64) -> u64 {
        let (id, _) = self.open();
        self.line(id, parent, name, start, u128::from(dur_ns / 1_000));
        id
    }

    fn line(&mut self, id: u64, parent: u64, name: &str, start: Instant, dur_us: u128) {
        let origin = self.origin.expect("a span was opened");
        self.lines.push(format!(
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\"start_us\":{},\"dur_us\":{dur_us}}}",
            start.duration_since(origin).as_micros(),
        ));
    }

    /// Per-round layer buckets of a traced stepped execution, as child
    /// records of `parent` (aggregates: their duration is summed over the
    /// round's calls).
    fn buckets(&mut self, parent: u64, stack: Stack, stepped: &Stepped) {
        let (lanes, _) = stack.lanes();
        for (round, r) in stepped.rounds.iter().enumerate() {
            let b = &r.bucket;
            let mut line = format!(
                "{{\"parent\":{parent},\"stack\":\"{}\",\"round\":{round},\"round_us\":{},\"poll_us\":{}",
                stack.name(),
                r.ns / 1_000,
                b.poll_ns / 1_000
            );
            for (l, lane) in lanes.iter().enumerate() {
                line.push_str(&format!(",\"handle_us.{lane}\":{}", b.handle_ns[l] / 1_000));
                line.push_str(&format!(",\"msgs.{lane}\":{}", b.msgs[l]));
            }
            line.push_str(&format!(
                ",\"allocs\":{},\"node_allocs\":{}}}",
                r.allocs, b.node_allocs
            ));
            self.lines.push(line);
        }
    }
}

/// Per-stack samples of `<stack>_round_ms`: scaled and raw.
#[derive(Debug, Default)]
struct RoundTimes {
    scaled: [Vec<f64>; 4],
    raw: [Vec<f64>; 4],
}

impl RoundTimes {
    fn push(&mut self, stack: Stack, raw_ms: f64, factor: f64) {
        self.scaled[stack.index()].push(raw_ms * factor);
        self.raw[stack.index()].push(raw_ms);
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run's metrics: set-up and per-stack round times (scaled,
/// see `calib`), plus raw times, the kernel times and memory for the reader.
fn end_to_end(setup: (f64, usize), times: &RoundTimes, speed: &Speed, out: &mut Outcome) {
    out.metrics.push(metric("setup_s", setup.0, "s", setup.1));
    for stack in STACKS {
        let samples = &times.scaled[stack.index()];
        let name = format!("{}_round_ms", stack.name());
        out.metrics
            .push(metric(name, median(samples), "ms", samples.len()));
    }
    for stack in STACKS {
        let samples = &times.raw[stack.index()];
        let name = format!("{}_round_ms_raw", stack.name());
        out.extras
            .push(metric(name, median(samples), "ms", samples.len()));
    }
    let kernels = speed.kernels_ms();
    out.extras
        .push(metric("kernel_ms", median(kernels), "ms", kernels.len()));
    out.extras
        .push(metric("peak_rss_mb", peak_rss_mb(), "MB", 1));
}

// ---------------------------------------------------------------------------
// Cell-based workloads: catalog-matrix and loaded-checked.

/// One cell to run: a stack, a scenario and a seed.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The node type.
    pub stack: Stack,
    /// The scenario, already sized.
    pub scenario: Scenario,
    /// The simulation seed.
    pub seed: u64,
}

fn execute(cell: &Cell) -> CellRun {
    dispatch!(cell.stack, run_cell(&cell.scenario, cell.seed))
}

/// The catalog matrix: every catalog scenario × stack × n × cell seeds
/// `1..=matrix_seeds` (the campaign matrix CI sweeps), shuffled by `seed`
/// and `batch` so that any prefix is an even sample.
pub fn matrix_cells(spec: &Spec, seed: u64, batch: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in &spec.matrix_ns {
        for scenario in catalog(n) {
            for stack in STACKS {
                for cell_seed in 1..=spec.matrix_seeds {
                    cells.push(Cell {
                        stack,
                        scenario: scenario.clone(),
                        seed: cell_seed,
                    });
                }
            }
        }
    }
    SimRng::seed_from(seed ^ (batch << 32)).shuffle(&mut cells);
    cells
}

/// `crash-minority` under open-loop Poisson load with histories armed.
pub fn loaded_scenario(spec: &Spec, armed: bool) -> Scenario {
    let load = LoadProfile::new(
        spec.loaded_clients,
        Arrival::Poisson {
            rate: spec.loaded_rate,
        },
    )
    .with_op_timeout(spec.loaded_timeout);
    let scenario = find("crash-minority", spec.loaded_n)
        .expect("crash-minority is a catalog scenario")
        .with_workload_until(spec.loaded_window)
        .with_load(load);
    if armed {
        scenario.with_history()
    } else {
        scenario
    }
}

/// Stacks of `loaded-checked`, in cycle order.
const LOADED_STACKS: [Stack; 4] = [
    Stack::Counter,
    Stack::SharedMem,
    Stack::Smr,
    Stack::Reconfig,
];

fn loaded_cells(spec: &Spec, seed: u64, cycle: u64) -> Vec<Cell> {
    let scenario = loaded_scenario(spec, true);
    LOADED_STACKS
        .iter()
        .map(|&stack| Cell {
            stack,
            scenario: scenario.clone(),
            seed: seed.wrapping_mul(1_000).wrapping_add(1 + cycle),
        })
        .collect()
}

/// Which cell workload is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellKind {
    Matrix,
    Loaded,
}

impl CellKind {
    /// The `batch`-th batch of cells. Matrix batches are whole shuffled
    /// matrices; loaded batches are one cell per stack.
    fn batch(self, spec: &Spec, seed: u64, batch: u64) -> Vec<Cell> {
        match self {
            CellKind::Matrix => matrix_cells(spec, seed, batch),
            CellKind::Loaded => loaded_cells(spec, seed, batch),
        }
    }
}

/// Runs cells batch by batch until `budget` has passed, finishing at least
/// one cell of every stack, and tracking the machine's speed when `speed`
/// is given.
fn run_until(
    kind: CellKind,
    spec: &Spec,
    seed: u64,
    budget: Duration,
    mut speed: Option<&mut Speed>,
) -> (Vec<(Cell, CellRun)>, f64) {
    let start = Instant::now();
    let mut done: Vec<(Cell, CellRun)> = Vec::new();
    let mut seen = [false; 4];
    'batches: for batch in 0.. {
        for cell in kind.batch(spec, seed, batch) {
            if start.elapsed() >= budget && seen.iter().all(|&s| s) {
                break 'batches;
            }
            seen[cell.stack.index()] = true;
            let factor = speed.as_deref_mut().map_or(1.0, Speed::factor);
            let run = CellRun {
                factor,
                ..execute(&cell)
            };
            done.push((cell, run));
        }
    }
    (done, start.elapsed().as_secs_f64())
}

fn tally(out: &mut Outcome, runs: &[(Cell, CellRun)]) {
    out.attempted += runs.len() as u64;
    for (cell, run) in runs {
        if !cell_ok(&run.run) {
            out.failed += 1;
            eprintln!(
                "cell failed: {}/{}/n={}/seed={}: converged={} violations={:?} lin_result={}",
                cell.stack.name(),
                cell.scenario.name(),
                cell.scenario.initial_size(),
                cell.seed,
                run.run.converged,
                run.run.invariant_violations,
                run.run.counter("lin_result"),
            );
        }
    }
}

/// Minimum number of simulations one set-up repetition builds, so that the
/// timing is long enough to be steady.
const SETUP_CELLS: usize = 64;

fn set_up_cells(kind: CellKind, spec: &Spec, seed: u64) -> (f64, usize) {
    let mut cells = Vec::new();
    for batch in 0.. {
        if cells.len() >= SETUP_CELLS {
            break;
        }
        cells.extend(kind.batch(spec, seed, batch));
    }
    setup_seconds(|| {
        for cell in &cells {
            dispatch!(cell.stack, build_only(&cell.scenario, cell.seed));
        }
    })
}

/// The untraced run of a cell workload.
fn cells_untraced(kind: CellKind, spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let setup = set_up_cells(kind, spec, seed);
    let mut speed = Speed::default();
    let budget = Duration::from_secs_f64(seconds);
    let (runs, wall) = run_until(kind, spec, seed, budget, Some(&mut speed));
    summarize_cells(kind, setup, &runs, wall, &speed)
}

/// Checks and summarizes the cells of an untraced run. A failed cell is
/// counted, never fatal.
fn summarize_cells(
    kind: CellKind,
    setup: (f64, usize),
    runs: &[(Cell, CellRun)],
    wall: f64,
    speed: &Speed,
) -> Outcome {
    let mut out = Outcome::default();
    tally(&mut out, runs);
    let mut times = RoundTimes::default();
    for (cell, run) in runs {
        let round_ms = ratio(ms(run.run_ns), run.run.rounds_run as f64);
        times.push(cell.stack, round_ms, run.factor);
    }
    end_to_end(setup, &times, speed, &mut out);
    let cell_ms: Vec<f64> = runs.iter().map(|(_, r)| ms(r.cell_ns)).collect();
    let n = runs.len();
    match kind {
        CellKind::Matrix => {
            let x = &mut out.extras;
            x.push(metric(
                "fail_ratio",
                ratio(out.failed as f64, n as f64),
                "ratio",
                n,
            ));
            x.push(metric("cells_per_s", n as f64 / wall, "cells/s", n));
            x.push(metric("cell_ms_p50", median(&cell_ms), "ms", n));
            x.push(metric("cell_ms_p99", percentile(&cell_ms, 0.99), "ms", n));
        }
        CellKind::Loaded => loaded_extras(runs, wall, &mut out),
    }
    out
}

fn loaded_extras(runs: &[(Cell, CellRun)], wall: f64, out: &mut Outcome) {
    let sum = |key: &str| runs.iter().map(|(_, r)| r.run.counter(key)).sum::<u64>() as f64;
    let arrivals = sum("ops_submitted") + sum("ops_rejected");
    let lost = sum("ops_failed") + sum("op_timeouts") + sum("ops_rejected") + out.failed as f64;
    let n = runs.len();
    let inconclusive = runs
        .iter()
        .filter(|(_, r)| r.run.counter("lin_result") == 2);
    let inconclusive = inconclusive.count() as f64;
    let x = &mut out.extras;
    x.push(metric(
        "fail_ratio",
        ratio(lost, arrivals),
        "ratio",
        arrivals as usize,
    ));
    x.push(metric("ops_per_s", sum("ops_completed") / wall, "ops/s", n));
    x.push(metric("lin_inconclusive_cells", inconclusive, "cells", n));
    for stack in LOADED_STACKS {
        let p99: Vec<f64> = runs
            .iter()
            .filter(|(c, _)| c.stack == stack)
            .map(|(_, r)| r.run.counter("op_latency_p99_rounds") as f64)
            .collect();
        let name = format!("{}_op_p99_rounds", stack.name());
        x.push(metric(name, median(&p99), "rounds", p99.len()));
    }
}

/// The traced run of a cell workload: an untraced pass for half the time,
/// then the same cells again with spans and allocation counting, then the
/// per-lane adapter pass over each cell's initial population.
fn cells_traced(kind: CellKind, spec: &Spec, seed: u64, seconds: f64, name: &str) -> Outcome {
    let budget = Duration::from_secs_f64(seconds / 2.0);
    let (plain, plain_wall) = run_until(kind, spec, seed, budget, None);
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let mut aggs: [LayerAgg; 4] = Default::default();
    let root = spans.open();
    trace::counting(true);
    let traced_start = Instant::now();
    let mut traced = Vec::with_capacity(plain.len());
    for (cell, _) in &plain {
        let span = spans.open();
        let run = execute(cell);
        spans.record(span.0, "build_sim", span.1, run.build_ns);
        let run_start = span.1 + Duration::from_nanos(run.build_ns);
        spans.record(span.0, "run_scenario", run_start, run.run_ns);
        let label = format!(
            "cell {}/{}/n{}/s{}",
            cell.stack.name(),
            cell.scenario.name(),
            cell.scenario.initial_size(),
            cell.seed
        );
        spans.close(span, root.0, &label);
        traced.push(run);
    }
    let traced_wall = traced_start.elapsed().as_secs_f64();
    for ((cell, before), after) in plain.iter().zip(&traced) {
        if before.run != after.run {
            out.errors.push(format!(
                "traced cell {}/{} seed {} ran a different execution",
                cell.stack.name(),
                cell.scenario.name(),
                cell.seed
            ));
        }
        aggs[cell.stack.index()].add_cell(after);
    }
    let mut exact = 0;
    for ((cell, _), run) in plain.iter().zip(&traced) {
        let span = spans.open();
        let (stepped, same) = dispatch!(cell.stack, replay(cell, &run.run));
        spans.close(span, root.0, &format!("adapter {}", cell.stack.name()));
        aggs[cell.stack.index()].add_lanes(&stepped);
        exact += usize::from(same);
    }
    trace::counting(false);
    spans.close(root, 0, name);
    tally(&mut out, &plain);
    for stack in STACKS {
        aggs[stack.index()].metrics(stack, &mut out.metrics);
    }
    out.metrics.push(metric(
        "trace_overhead",
        traced_wall / plain_wall,
        "ratio",
        plain.len(),
    ));
    if kind == CellKind::Loaded {
        history_extras(spec, &plain, &traced, &mut out);
        let cells = plain.len();
        out.extras.push(metric(
            "adapter_replays_exact",
            exact as f64,
            "cells",
            cells,
        ));
    }
    out.spans = spans.lines;
    out
}

/// Loaded-only figures of the traced run: history cost, per-op costs,
/// timeouts and checked ops.
fn history_extras(spec: &Spec, plain: &[(Cell, CellRun)], traced: &[CellRun], out: &mut Outcome) {
    let unarmed = loaded_scenario(spec, false);
    for stack in LOADED_STACKS {
        let mut history_ms = Vec::new();
        let (mut ops, mut msgs, mut cell_allocs) = (0u64, 0u64, 0u64);
        let (mut p50, mut timeouts, mut checked) = (Vec::new(), 0u64, 0u64);
        for ((cell, armed), run) in plain.iter().zip(traced) {
            if cell.stack != stack {
                continue;
            }
            let bare = dispatch!(stack, run_cell(&unarmed, cell.seed));
            history_ms.push(ms(armed.run_ns) - ms(bare.run_ns));
            ops += armed.run.counter("ops_completed");
            msgs += run.msgs;
            cell_allocs += run.allocs;
            p50.push(armed.run.counter("op_latency_p50_rounds") as f64);
            timeouts += armed.run.counter("op_timeouts");
            checked += armed.run.counter("lin_ops_checked");
        }
        let s = stack.name();
        let cells = p50.len();
        let per_op = |v: u64| ratio(v as f64, ops as f64);
        let mut push = |what: &str, value: f64, unit| {
            out.extras
                .push(metric(format!("loaded.{s}.{what}"), value, unit, cells));
        };
        push("history_ms", median(&history_ms), "ms");
        push("op_p50_rounds", median(&p50), "rounds");
        push("msgs_per_op", per_op(msgs), "msgs/op");
        push("allocs_per_op", per_op(cell_allocs), "allocs/op");
        push("timeouts", timeouts as f64, "ops");
        push("lin_ops_checked", checked as f64, "ops");
    }
}

// ---------------------------------------------------------------------------
// steady-scale.

fn scale_scenarios(spec: &Spec) -> Vec<(Stack, Scenario)> {
    STACKS
        .iter()
        .zip(spec.scale_ns)
        .map(|(&stack, n)| {
            (
                stack,
                find("quiescent", n).expect("quiescent is a catalog scenario"),
            )
        })
        .collect()
}

fn check_scale(stack: Stack, stepped: &Stepped, out: &mut Outcome) {
    out.attempted += 1;
    if stepped.converged_at.is_none() || !stepped.violations.is_empty() {
        out.failed += 1;
        eprintln!(
            "steady-scale {} failed: converged_at={:?} violations={:?}",
            stack.name(),
            stepped.converged_at,
            stepped.violations
        );
    }
}

/// Steps the four stacks round-robin, one round each per pass, so that
/// machine noise during the run falls on every stack alike. Stops once
/// `budget` has passed and every stack has converged, or after four budgets.
fn scale_plain(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    mut speed: Option<&mut Speed>,
) -> Vec<(Stack, Scenario, Stepped, Vec<f64>)> {
    let scenarios = scale_scenarios(spec);
    let mut steppers: Vec<Box<dyn Stepper>> = scenarios
        .iter()
        .map(|(stack, scenario)| dispatch!(*stack, plain(scenario, seed)))
        .collect();
    let start = Instant::now();
    let round_cap = scenarios.iter().map(|(_, s)| s.rounds()).min().unwrap_or(0);
    let mut factors: Vec<Vec<f64>> = vec![Vec::new(); steppers.len()];
    loop {
        let elapsed = start.elapsed();
        let converged = steppers.iter().all(|s| s.rec().converged_at.is_some());
        let rounds = steppers[0].rec().rounds.len() as u64;
        if (elapsed >= budget && converged) || elapsed >= budget * 4 || rounds >= round_cap {
            break;
        }
        for (stepper, factors) in steppers.iter_mut().zip(&mut factors) {
            factors.push(speed.as_deref_mut().map_or(1.0, Speed::factor));
            stepper.step();
        }
    }
    scenarios
        .into_iter()
        .zip(steppers)
        .zip(factors)
        .map(|(((stack, scenario), mut stepper), factors)| {
            stepper.finish();
            let rec = stepper.rec().clone();
            (stack, scenario, rec, factors)
        })
        .collect()
}

fn scale_untraced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let scenarios = scale_scenarios(spec);
    // Rounds here take 10-100 ms: time the kernel before every one.
    let mut speed = Speed::with_period(Duration::ZERO);
    let setup = setup_seconds(|| {
        for (stack, scenario) in &scenarios {
            dispatch!(*stack, build_only(scenario, seed));
        }
    });
    let budget = Duration::from_secs_f64(seconds);
    let runs = scale_plain(spec, seed, budget, Some(&mut speed));
    let mut out = Outcome::default();
    let mut times = RoundTimes::default();
    for (stack, _, stepped, factors) in &runs {
        check_scale(*stack, stepped, &mut out);
        for (r, factor) in stepped.rounds.iter().zip(factors) {
            times.push(*stack, ms(r.ns), *factor);
        }
        let converged = stepped.converged_at.unwrap_or(0) as f64;
        let name = format!("{}_converged_round", stack.name());
        out.extras.push(metric(name, converged, "round", 1));
    }
    end_to_end(setup, &times, &speed, &mut out);
    out
}

fn scale_traced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let plain = scale_plain(spec, seed, Duration::from_secs_f64(seconds / 2.0), None);
    let mut out = Outcome::default();
    let mut spans = Spans::default();
    let root = spans.open();
    trace::counting(true);
    let traced_start = Instant::now();
    let rounds = plain
        .first()
        .map_or(0, |(_, _, s, _)| s.rounds.len() as u64);
    let mut steppers: Vec<(Box<dyn Stepper>, u64)> = Vec::new();
    for (stack, scenario, _, _) in &plain {
        let allocs_before = allocs();
        let stepper = dispatch!(*stack, adapted(scenario, seed));
        steppers.push((stepper, allocs() - allocs_before));
    }
    for _ in 0..rounds {
        for (stepper, allocs_total) in &mut steppers {
            let allocs_before = allocs();
            stepper.step();
            *allocs_total += allocs() - allocs_before;
        }
    }
    trace::counting(false);
    let (mut plain_ns, mut traced_ns) = (0, 0);
    for ((stack, scenario, before, _), (mut stepper, cell_allocs)) in plain.iter().zip(steppers) {
        check_scale(*stack, before, &mut out);
        stepper.finish();
        let after = stepper.rec();
        plain_ns += before.total_ns();
        traced_ns += after.total_ns();
        // The stacks were stepped interleaved, so each stack's span covers
        // the whole traced pass; its rounds are the bucket records.
        let name = format!("{} n{}", stack.name(), scenario.initial_size());
        let total_ns = after.build_ns + after.total_ns();
        let span = spans.record(root.0, &name, traced_start, total_ns);
        spans.record(span, "build_sim", traced_start, after.build_ns);
        spans.buckets(span, *stack, after);
        if (&before.sent, &before.delivered, &before.tokens)
            != (&after.sent, &after.delivered, &after.tokens)
        {
            out.errors.push(format!(
                "traced {} execution differs from the untraced one",
                stack.name()
            ));
        }
        let mut agg = LayerAgg::default();
        agg.build_ms.push(ms(after.build_ns));
        agg.run_ms.push(ms(after.total_ns()));
        agg.rounds.push(rounds as f64);
        agg.total_rounds = rounds;
        agg.msgs = after.sent.last().copied().unwrap_or(0);
        agg.wakeups = after.wakeups;
        agg.visits = after.visits;
        agg.allocs = cell_allocs;
        agg.add_lanes(after);
        agg.metrics(*stack, &mut out.metrics);
    }
    spans.close(root, 0, "steady-scale");
    let overhead = ratio(traced_ns as f64, plain_ns as f64);
    out.metrics
        .push(metric("trace_overhead", overhead, "ratio", plain.len()));
    out.spans = spans.lines;
    out
}

// ---------------------------------------------------------------------------
// Entry point.

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["catalog-matrix", "steady-scale", "loaded-checked"];

/// Runs workload `name` for about `seconds`, traced or not.
pub fn run(name: &str, spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    let outcome = match (name, traced) {
        ("catalog-matrix", false) => cells_untraced(CellKind::Matrix, spec, seed, seconds),
        ("catalog-matrix", true) => cells_traced(CellKind::Matrix, spec, seed, seconds, name),
        ("loaded-checked", false) => cells_untraced(CellKind::Loaded, spec, seed, seconds),
        ("loaded-checked", true) => cells_traced(CellKind::Loaded, spec, seed, seconds, name),
        ("steady-scale", false) => scale_untraced(spec, seed, seconds),
        ("steady-scale", true) => scale_traced(spec, seed, seconds),
        _ => return None,
    };
    Some(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Json;

    /// Smoke-sized versions of the three workloads.
    fn smoke() -> Spec {
        Spec {
            matrix_ns: vec![4],
            matrix_seeds: 1,
            scale_ns: [6, 5, 5, 4],
            loaded_n: 5,
            loaded_clients: 100,
            loaded_rate: 1.0,
            loaded_timeout: 100,
            loaded_window: 60,
        }
    }

    /// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(outcome: &Outcome) -> Vec<(String, String)> {
        outcome
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_prints_the_declared_metrics() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for name in WORKLOADS {
            let plain = run(name, &smoke(), 3, 0.3, false).expect("known workload");
            assert_eq!(printed(&plain), end_to_end, "{name} end-to-end metrics");
            assert!(
                plain.attempted > 0 && plain.failed == 0,
                "{name}: {plain:?}"
            );
            assert!(
                plain.metrics.iter().all(|m| m.value > 0.0),
                "{name}: {plain:?}"
            );
            let traced = run(name, &smoke(), 3, 0.3, true).expect("known workload");
            assert_eq!(printed(&traced), per_layer, "{name} per-layer metrics");
            assert!(traced.errors.is_empty(), "{name}: {:?}", traced.errors);
        }
        assert!(run("no-such-workload", &smoke(), 3, 0.01, false).is_none());
    }

    #[test]
    fn a_cell_out_of_rounds_is_counted_not_fatal() {
        let spec = smoke();
        let mut cells = matrix_cells(&spec, 3, 0);
        cells.truncate(2);
        cells[0].scenario = cells[0].scenario.clone().with_rounds(1);
        let runs: Vec<(Cell, CellRun)> = cells
            .into_iter()
            .map(|cell| {
                let run = execute(&cell);
                (cell, run)
            })
            .collect();
        let out = summarize_cells(CellKind::Matrix, (1.0, 1), &runs, 1.0, &Speed::default());
        assert_eq!((out.attempted, out.failed), (2, 1));
        let fail_ratio = out.extras.iter().find(|m| m.name == "fail_ratio");
        assert_eq!(fail_ratio.map(|m| m.value), Some(0.5));
    }
}
