//! End-to-end and per-layer benchmark of the B2BObjects order service
//! and its sharded runtime.
//!
//! Three closed-loop workloads drive the production crates through their
//! public APIs only:
//!
//! - `order-sync` — `b2b-server` over loopback HTTP, one synchronous
//!   signed round per customer update, each followed by a read;
//! - `order-bulk` — `b2b-server` with four-party orders, customer and
//!   supplier each sending 64-update deferred windows to the same orders;
//! - `mux-tcp` — about 1000 two-party groups on `ShardedTcpNet`, with no
//!   HTTP: a 16-update window outstanding on every load group, and timed
//!   single-update probe rounds on a few reserved groups.
//!
//! Every layer is measured from outside: the benchmark times its own
//! calls into each layer and reads counter deltas from the fleet's
//! `Telemetry` registry. An untraced run gives the end-to-end metrics; a
//! traced run repeats the workload with spans around every call into a
//! layer and reports the per-layer metrics.

pub mod layers;
pub mod micro;
pub mod mux_tcp;
pub mod run;
pub mod service;
pub mod spans;
pub mod stats;

use b2b_telemetry::{MetricsSnapshot, Telemetry};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Load threads of every workload (the box this was sized on has 2 CPUs).
pub const LOAD_THREADS: usize = 2;

/// How long any single wait on the system may block before the op counts
/// as failed (a timeout).
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Synchronous HTTP updates plus reads, two-party orders.
    OrderSync,
    /// Deferred 64-update HTTP windows from two organisations, four-party
    /// orders.
    OrderBulk,
    /// Raw sharded runtime over one multiplexed loopback socket pair.
    MuxTcp,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::OrderSync, Workload::OrderBulk, Workload::MuxTcp];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OrderSync => "order-sync",
            Workload::OrderBulk => "order-bulk",
            Workload::MuxTcp => "mux-tcp",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Updates per second this workload sustained on the reference box
    /// (2 CPUs); the measured phase runs `rate × seconds` updates, so it
    /// lasts about `seconds` there. A fixed op count, not a fixed time,
    /// keeps memory comparable: a faster commit does not do more work.
    fn reference_rate(self) -> u64 {
        match self {
            Workload::OrderSync => 2_100,
            Workload::OrderBulk => 5_500,
            Workload::MuxTcp => 15_000,
        }
    }
}

/// The sizes of one run.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Orders (coordination groups), probe groups included.
    pub groups: usize,
    /// Groups reserved for latency probes (`mux-tcp` only).
    pub probe_groups: usize,
    /// Updates submitted in the measured phase.
    pub ops: u64,
    /// Updates per window (1 = one synchronous round per op).
    pub window: usize,
    /// Fleet set-ups timed per untraced run; the median is `setup_s`.
    pub setups: usize,
    /// Measured phases per untraced run, each of `ops` updates on a
    /// fresh fleet; the end-to-end metrics pool their ops.
    pub phases: usize,
}

impl Sizes {
    /// The benchmark's sizes for a run of `seconds`.
    pub fn full(workload: Workload, seconds: u64) -> Sizes {
        let ops = workload.reference_rate() * seconds.max(1);
        match workload {
            Workload::OrderSync => Sizes {
                groups: 256,
                probe_groups: 0,
                ops,
                window: 1,
                setups: 5,
                // One fleet's median moves by up to a quarter between
                // runs: its rate decays as evidence piles up, and which
                // of the two client threads runs faster flips within a
                // run. Two fleets of the same size, pooled, halve that
                // without growing a fleet past the sizes it was tuned on.
                phases: 2,
            },
            Workload::OrderBulk => Sizes {
                groups: 256,
                probe_groups: 0,
                ops,
                window: 64,
                setups: 5,
                phases: 1,
            },
            Workload::MuxTcp => Sizes {
                groups: 1000,
                probe_groups: 4,
                ops,
                window: 16,
                setups: 5,
                phases: 1,
            },
        }
    }

    /// Tiny sizes for the self-tests: every code path and check, seconds
    /// of work.
    pub fn tiny(workload: Workload) -> Sizes {
        match workload {
            Workload::OrderSync => Sizes {
                groups: 6,
                probe_groups: 0,
                ops: 40,
                window: 1,
                setups: 2,
                phases: 2,
            },
            Workload::OrderBulk => Sizes {
                groups: 4,
                probe_groups: 0,
                ops: 8 * 64,
                window: 64,
                setups: 2,
                phases: 1,
            },
            Workload::MuxTcp => Sizes {
                groups: 10,
                probe_groups: 2,
                ops: 40 * 16,
                window: 16,
                setups: 2,
                phases: 1,
            },
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Run sizes.
    pub sizes: Sizes,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
    /// When the process started (`setup_s` of the first set-up counts
    /// from here).
    pub process_start: Instant,
    /// Directory for the trace file and scratch stores; created on
    /// demand, inside the working directory.
    pub out_dir: std::path::PathBuf,
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, stream `stream` (one per load thread).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What the load threads observed in one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
    /// Updates submitted.
    pub attempted: u64,
    /// Updates observed installed.
    pub installed: u64,
    /// Mutating requests sent (HTTP POSTs or `submit_update(s)` calls).
    pub mutating: u64,
    /// Mutating requests refused with `429` / `Busy`.
    pub refused: u64,
    /// Every request the client sent, reads included.
    pub requests: u64,
    /// Per-op latency, µs: one sync request or one window.
    pub latency_us: Vec<u64>,
    /// When each op of `latency_us` completed, µs after the phase began.
    pub done_us: Vec<u64>,
    /// Updates each op of `latency_us` installed.
    pub op_updates: Vec<u64>,
    /// Client time per route or call, µs.
    pub routes: BTreeMap<&'static str, Vec<u64>>,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    /// Spans (traced runs only).
    pub spans: Vec<spans::Span>,
}

impl Phase {
    /// Folds another load thread's observations into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.installed += other.installed;
        self.mutating += other.mutating;
        self.refused += other.refused;
        self.requests += other.requests;
        self.latency_us.extend(other.latency_us);
        self.done_us.extend(other.done_us);
        self.op_updates.extend(other.op_updates);
        for (route, samples) in other.routes {
            self.routes.entry(route).or_default().extend(samples);
        }
        for e in other.errors {
            self.note_error(e);
        }
        self.spans.extend(other.spans);
    }

    /// Appends a later phase: its completion times shift by this
    /// phase's wall time, as if it had run right after.
    pub fn append(&mut self, mut later: Phase) {
        let offset = (self.wall_s * 1e6) as u64;
        for done in &mut later.done_us {
            *done += offset;
        }
        self.wall_s += later.wall_s;
        self.absorb(later);
    }

    /// Records a failure description (the first ten are kept).
    pub fn note_error(&mut self, e: String) {
        if self.errors.len() < 10 {
            self.errors.push(e);
        }
    }

    /// Records one op that began at `t0` and just installed `updates`
    /// updates, in a phase that began at `start`.
    pub fn op_done(&mut self, t0: Instant, start: Instant, updates: u64) {
        self.latency_us.push(micros(t0));
        self.done_us.push(micros(start));
        self.op_updates.push(updates);
        self.installed += updates;
    }

    /// Records one call's client time under `route`.
    pub fn time(&mut self, route: &'static str, since: Instant) {
        self.routes.entry(route).or_default().push(micros(since));
    }

    /// Updates not installed.
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.installed)
    }
}

/// Microseconds since `t`, at least 1.
fn micros(t: Instant) -> u64 {
    (t.elapsed().as_micros() as u64).max(1)
}

/// A correctness check and whether it held.
pub type Check = (String, bool);

/// One measured phase with the readings taken around it.
pub struct Measured {
    /// What the load threads saw.
    pub phase: Phase,
    /// Telemetry counter deltas over the phase.
    pub counters: MetricsSnapshot,
    /// `VmHWM` right after the phase, MB.
    pub peak_rss_mb: f64,
    /// Evidence written during the phase, sampled from a few groups.
    pub evidence: layers::EvidenceSample,
    /// The correctness gate, run after the phase.
    pub checks: Vec<Check>,
}

impl Measured {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Ops failed: all of them when a check failed, else those not
    /// installed.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            self.phase.failed()
        } else {
            self.phase.attempted
        }
    }
}

/// A running fleet of one workload.
pub enum Fleet {
    /// `b2b-server` (order-sync, order-bulk).
    Service(service::Service),
    /// `ShardedTcpNet` groups (mux-tcp).
    Mux(mux_tcp::Mux),
}

impl Fleet {
    /// Stands the workload's fleet up: spawn, membership rounds, order
    /// creation, seed lines and warm-up.
    pub fn start(cfg: &Config) -> Fleet {
        match cfg.workload {
            Workload::OrderSync | Workload::OrderBulk => {
                Fleet::Service(service::Service::start(cfg.workload, &cfg.sizes, cfg.seed))
            }
            Workload::MuxTcp => Fleet::Mux(mux_tcp::Mux::start(&cfg.sizes, cfg.seed)),
        }
    }

    /// The fleet's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        match self {
            Fleet::Service(s) => s.telemetry(),
            Fleet::Mux(m) => m.telemetry(),
        }
    }

    /// Thread counts of the system under test, for provenance.
    pub fn threads(&self) -> BTreeMap<&'static str, usize> {
        match self {
            Fleet::Service(s) => s.threads(),
            Fleet::Mux(m) => m.threads(),
        }
    }

    /// Runs the measured phase.
    fn run(&self, cfg: &Config, traced: bool, epoch: Instant) -> Phase {
        match self {
            Fleet::Service(s) => s.run(cfg.workload, &cfg.sizes, cfg.seed, traced, epoch),
            Fleet::Mux(m) => m.run(&cfg.sizes, cfg.seed, traced, epoch),
        }
    }

    /// The correctness gate.
    fn check(&self) -> Vec<Check> {
        match self {
            Fleet::Service(s) => s.check(),
            Fleet::Mux(m) => m.check(),
        }
    }

    /// Evidence-store lengths of the sampled groups, per party.
    fn evidence_marks(&self) -> Vec<Vec<usize>> {
        match self {
            Fleet::Service(s) => s.evidence_marks(),
            Fleet::Mux(m) => m.evidence_marks(),
        }
    }

    /// Evidence written to the sampled groups since `marks`.
    fn evidence_since(&self, marks: &[Vec<usize>]) -> layers::EvidenceSample {
        match self {
            Fleet::Service(s) => s.evidence_since(marks),
            Fleet::Mux(m) => m.evidence_since(marks),
        }
    }

    /// Stops every thread of the fleet.
    pub fn shutdown(self) {
        match self {
            Fleet::Service(s) => s.shutdown(),
            Fleet::Mux(m) => m.shutdown(),
        }
    }

    /// Runs one measured phase and the readings around it.
    pub fn measure(&self, cfg: &Config, traced: bool, epoch: Instant) -> Measured {
        let marks = self.evidence_marks();
        let mut m = self.measure_with(|| self.run(cfg, traced, epoch));
        m.evidence = self.evidence_since(&marks);
        m
    }

    /// Times a phase `run` drives, reading counters and memory around
    /// it, then runs the correctness gate.
    pub fn measure_with(&self, run: impl FnOnce() -> Phase) -> Measured {
        let before = self.telemetry().metrics().snapshot();
        let phase = run();
        let peak_rss_mb = peak_rss_mb();
        let after = self.telemetry().metrics().snapshot();
        let mut checks = vec![(
            format!(
                "every op installed ({} of {}, {} refused answers retried)",
                phase.installed, phase.attempted, phase.refused
            ),
            phase.attempted > 0 && phase.failed() == 0,
        )];
        checks.extend(self.check());
        Measured {
            phase,
            counters: layers::delta(&before, &after),
            peak_rss_mb,
            evidence: layers::EvidenceSample::default(),
            checks,
        }
    }
}

/// `VmHWM` of this process, MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
