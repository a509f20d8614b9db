//! One benchmark run: set-up, measured phase(s), correctness gate and
//! the metrics they yield.

use crate::layers::{self, LayerInputs};
use crate::spans;
use crate::stats::{median, nearest_rank, tail, Tail};
use crate::{micro, Config, Fleet, Measured, Phase, Workload};
use b2b_crypto::TimeMs;
use b2b_crypto::{sha256, PartyId};
use b2b_evidence::{EvidenceKind, EvidenceRecord};
use std::time::Instant;

/// A run's result.
pub struct Outcome {
    /// Every correctness check of every phase held.
    pub correct: bool,
    /// Updates attempted.
    pub attempted: u64,
    /// Updates failed (all of a phase's when its gate failed).
    pub failed: u64,
    /// The metrics of the final JSON line: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            report: Vec::new(),
        }
    }

    fn gate(&mut self, label: &str, m: &Measured) {
        self.correct &= m.correct();
        self.attempted += m.phase.attempted;
        self.failed += m.failed();
        for (check, ok) in &m.checks {
            self.report.push(format!(
                "check [{label}] {}: {check}",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        for e in &m.phase.errors {
            self.report.push(format!("error [{label}] {e}"));
        }
    }

    /// Prints a metric by name without putting it on the final line.
    fn print(&mut self, name: &str, value: f64, unit: &str, detail: String) -> f64 {
        let value = if value.is_finite() { value } else { 0.0 };
        self.report
            .push(format!("metric {name} = {value} {unit}{detail}"));
        value
    }

    /// Prints a metric and puts it on the final line.
    fn metric(&mut self, name: &str, value: f64, unit: &str, detail: String) {
        let value = self.print(name, value, unit, detail);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// The final line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Stands a fleet up, timing it from `t0`.
fn timed_start(cfg: &Config, t0: Instant) -> (Fleet, f64) {
    let fleet = Fleet::start(cfg);
    (fleet, t0.elapsed().as_secs_f64())
}

/// Runs the benchmark as `cfg` says.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new();
    out.report.push(provenance(cfg));
    if cfg.trace {
        traced(cfg, &mut out);
    } else {
        untraced(cfg, &mut out);
    }
    out
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Most segments the measured phase is cut into. The tail latency is the
/// median of the segments' tails, so a burst of outside load on a shared
/// box moves one segment's tail, not the result.
const SEGMENTS: usize = 10;

/// Fewest ops in a tail segment: enough for p95 to have 10 samples
/// beyond it (p99 needs 1000, which order-sync and mux-tcp segments have).
const MIN_SEGMENT_OPS: usize = 200;

/// One run of consecutive ops, ordered by completion time.
struct Segment {
    /// Ops in the segment.
    n: usize,
    /// Updates installed by the segment's ops per second of the time
    /// since the previous segment's last op completed.
    updates_per_s: f64,
    /// Median op latency, µs.
    p50: u64,
    /// Tail op latency, µs.
    tail: Tail,
}

/// Cuts `ph`'s ops into `k` equal runs by completion time.
fn segments(ph: &Phase, k: usize) -> Vec<Segment> {
    let mut idx: Vec<usize> = (0..ph.done_us.len()).collect();
    idx.sort_by_key(|&i| ph.done_us[i]);
    let n = idx.len();
    let k = k.clamp(1, n.max(1));
    let mut prev_end = 0;
    (0..k)
        .filter_map(|j| {
            let chunk = &idx[j * n / k..(j + 1) * n / k];
            let end = ph.done_us[*chunk.last()?];
            let span = end.saturating_sub(prev_end).max(1);
            prev_end = end;
            let updates: u64 = chunk.iter().map(|&i| ph.op_updates[i]).sum();
            let lat: Vec<u64> = chunk.iter().map(|&i| ph.latency_us[i]).collect();
            let lat = sorted(&lat);
            Some(Segment {
                n: chunk.len(),
                updates_per_s: updates as f64 * 1e6 / span as f64,
                p50: nearest_rank(&lat, 50.0),
                tail: tail(&lat),
            })
        })
        .collect()
}

/// Names the percentile reported as p99 when the sample cannot support p99.
fn below_p99(t: &Tail) -> String {
    if t.pct == 99.0 {
        String::new()
    } else {
        format!(
            "; reported percentile is {}, too few samples for p99",
            t.label()
        )
    }
}

/// Prints `p50` and the supported tail of `samples` as `name_p50`/`name_p99`.
fn percentiles(out: &mut Outcome, name: &str, samples: &[u64], what: &str) {
    let s = sorted(samples);
    let t = tail(&s);
    out.print(
        &format!("{name}_p50_us"),
        nearest_rank(&s, 50.0) as f64,
        "us",
        format!(" (p50 of {} {what})", s.len()),
    );
    out.print(
        &format!("{name}_p99_us"),
        t.value as f64,
        "us",
        format!(
            " ({} of {} {what}, {} beyond{})",
            t.label(),
            s.len(),
            t.beyond,
            below_p99(&t)
        ),
    );
}

fn untraced(cfg: &Config, out: &mut Outcome) {
    // Set-ups before and after the phases, so setup_s samples the box at
    // both ends of the run; the first counts from process start. A
    // second phase runs on a fresh fleet whose set-up is one of them.
    let mut setups = Vec::new();
    let mut t0 = cfg.process_start;
    let before = cfg.sizes.setups.div_ceil(2);
    let fleet = loop {
        let (fleet, took) = timed_start(cfg, t0);
        setups.push(took);
        if setups.len() == before {
            break fleet;
        }
        fleet.shutdown();
        t0 = Instant::now();
    };
    let threads = fleet.threads();
    let mut measured = vec![fleet.measure(cfg, false, Instant::now())];
    fleet.shutdown();
    while measured.len() < cfg.sizes.phases {
        let (fleet, took) = timed_start(cfg, Instant::now());
        setups.push(took);
        measured.push(fleet.measure(cfg, false, Instant::now()));
        fleet.shutdown();
    }
    while setups.len() < cfg.sizes.setups {
        let (fleet, took) = timed_start(cfg, Instant::now());
        setups.push(took);
        fleet.shutdown();
    }
    out.report.push(format!("system threads: {threads:?}"));
    let mut failed = 0;
    let mut peak_rss_mb = 0.0_f64;
    let mut pooled = Phase::default();
    for (i, m) in measured.into_iter().enumerate() {
        out.gate(&format!("measured {}", i + 1), &m);
        failed += m.failed();
        peak_rss_mb = peak_rss_mb.max(m.peak_rss_mb);
        pooled.append(m.phase);
    }
    let ph = &pooled;
    let what = match cfg.workload {
        Workload::OrderSync => "sync requests",
        Workload::OrderBulk => "64-update windows",
        Workload::MuxTcp => "16-update windows",
    };
    // Tail segments hold at least `MIN_SEGMENT_OPS` ops each; the
    // display segments only show how the phase evolved.
    let segs = segments(
        ph,
        (ph.latency_us.len() / MIN_SEGMENT_OPS).clamp(1, SEGMENTS),
    );
    let shown = segments(ph, SEGMENTS);
    let list = |v: &[f64]| -> String {
        let parts: Vec<String> = v.iter().map(|x| format!("{x:.0}")).collect();
        parts.join(" ")
    };
    let rates: Vec<f64> = shown.iter().map(|s| s.updates_per_s).collect();
    out.metric(
        "throughput_ops_s",
        ph.installed as f64 / ph.wall_s,
        "updates/s",
        format!(
            " ({} updates installed in {:.3} s; per segment: {})",
            ph.installed,
            ph.wall_s,
            list(&rates)
        ),
    );
    let whole = sorted(&ph.latency_us);
    let p50s: Vec<f64> = shown.iter().map(|s| s.p50 as f64).collect();
    out.metric(
        "latency_p50_us",
        nearest_rank(&whole, 50.0) as f64,
        "us",
        format!(
            " (p50 of {} {what}; per segment: {})",
            whole.len(),
            list(&p50s)
        ),
    );
    let tails: Vec<f64> = segs.iter().map(|s| s.tail.value as f64).collect();
    let seg = segs.first().map_or(0, |s| s.n);
    let t = segs.first().map(|s| s.tail).unwrap_or_else(|| tail(&[]));
    let whole_tail = tail(&whole);
    out.metric(
        "latency_p99_us",
        median(&tails),
        "us",
        format!(
            " (median over {} segments of each one's {}, {seg} {what} and {} beyond per segment: {}; whole phase {} of {} = {}{})",
            segs.len(),
            t.label(),
            t.beyond,
            list(&tails),
            whole_tail.label(),
            whole.len(),
            whole_tail.value,
            below_p99(&t)
        ),
    );
    out.metric(
        "setup_s",
        median(&setups),
        "s",
        format!(" (median of {} set-ups: {setups:?})", setups.len()),
    );
    out.metric(
        "peak_rss_mb",
        peak_rss_mb,
        "MB",
        format!(
            " (VmHWM after {} phase(s) of {} updates, each on a fresh fleet)",
            cfg.sizes.phases, cfg.sizes.ops
        ),
    );
    // Printed by name, not part of the final line: reads and probes
    // exist on one workload each, and the ratios are 0 on a healthy run.
    if let Some(reads) = ph.routes.get("get_order") {
        percentiles(out, "read", reads, "GET /orders/:id");
    }
    if let Some(probes) = ph.routes.get("probe") {
        percentiles(out, "probe", probes, "single-update probe rounds");
    }
    out.print(
        "failed_ratio",
        layers::ratio(failed as f64, ph.attempted as f64),
        "ratio",
        format!(" ({failed} of {} updates)", ph.attempted),
    );
    out.print(
        "refused_ratio",
        layers::ratio(ph.refused as f64, ph.mutating as f64),
        "ratio",
        format!(" ({} of {} mutating requests)", ph.refused, ph.mutating),
    );
}

fn traced(cfg: &Config, out: &mut Outcome) {
    let run_phase = |traced: bool| {
        let fleet = Fleet::start(cfg);
        let m = fleet.measure(cfg, traced, Instant::now());
        let threads = fleet.threads();
        fleet.shutdown();
        (m, threads)
    };
    let (untraced, threads) = run_phase(false);
    out.report.push(format!("system threads: {threads:?}"));
    out.gate("untraced", &untraced);
    let (traced, _) = run_phase(true);
    out.gate("traced", &traced);

    let (core_round_us, paired_http_us) = match cfg.workload {
        Workload::OrderSync => {
            let fleet = Fleet::start(cfg);
            let Fleet::Service(svc) = &fleet else {
                unreachable!("order-sync runs the order service")
            };
            let mut core = fleet.measure_with(|| svc.run_core(&cfg.sizes, cfg.seed));
            fleet.shutdown();
            out.gate("core", &core);
            let http = core.phase.routes.remove("lines").unwrap_or_default();
            (core.phase.latency_us, http)
        }
        Workload::MuxTcp => (
            untraced
                .phase
                .routes
                .get("probe")
                .cloned()
                .unwrap_or_default(),
            Vec::new(),
        ),
        Workload::OrderBulk => (Vec::new(), Vec::new()),
    };

    let ev = &untraced.evidence;
    let template = ev.template.clone().unwrap_or_else(|| {
        EvidenceRecord::new(
            EvidenceKind::StateRespond,
            "order",
            "run",
            PartyId::new("supplier"),
            vec![0; ev.mean_proposal_bytes() as usize],
            None,
            None,
            TimeMs(0),
        )
    });
    let micro = micro::measure(
        cfg.seed,
        ev.mean_proposal_bytes().round() as usize,
        &template,
        ev.records_per_round_per_party().round() as usize,
        &cfg.out_dir.join(format!("scratch-{}", std::process::id())),
    )
    .expect("scratch evidence stores under the output directory");
    out.report.push(format!(
        "evidence sample: {} records in {} rounds at {} stores; mean record {:.0} B, mean proposal {:.0} B",
        ev.records,
        ev.rounds,
        ev.stores,
        ev.mean_record_bytes(),
        ev.mean_proposal_bytes()
    ));

    let (metrics, b) = layers::per_layer(&LayerInputs {
        workload: cfg.workload,
        parties: threads["parties"],
        untraced: &untraced,
        traced: &traced,
        core_round_us,
        paired_http_us,
        micro: &micro,
    });
    for (name, summary) in spans::summarise(&traced.phase.spans) {
        out.report.push(format!(
            "span {name}: n={} p50={:.1} us self_p50={:.1} us",
            summary.count, summary.p50_us, summary.self_p50_us
        ));
    }
    if cfg.workload == Workload::OrderSync {
        out.report.push(format!(
            "breakdown of latency_p50_us = {:.1} us:",
            b.latency_p50_us
        ));
        for (row, v) in [
            (
                "http + server (paired request p50 - core round p50)",
                b.http_us,
            ),
            ("core round p50 (without HTTP)", b.core_round_us),
            (
                "  crypto (sign x signs/op + verify x verifies/op)",
                b.crypto_us,
            ),
            ("  evidence (MemStore append x records/op)", b.evidence_us),
            ("  apps (apply x parties)", b.apps_us),
            ("unaccounted", b.unaccounted_us),
        ] {
            out.report.push(format!("  {row:<52} {v:>9.1} us"));
        }
    }
    for lm in metrics {
        out.metric(lm.name, lm.value, lm.unit, String::new());
    }
    let path = cfg.out_dir.join(format!(
        "trace-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    match std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, spans::chrome_json(&traced.phase.spans)))
    {
        Ok(()) => out.report.push(format!(
            "spans: {} written to {}",
            traced.phase.spans.len(),
            path.display()
        )),
        Err(e) => out.report.push(format!("spans: not written ({e})")),
    }
}

/// Provenance of a run: what was measured, on what, built how.
fn provenance(cfg: &Config) -> String {
    format!(
        "provenance: workload={} seed={} trace={} source_sha256={} nproc={} profile={} rustc=\"{}\" groups={} probe_groups={} ops={} window={} setups={} phases={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        source_digest(),
        crate::nproc(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        cfg.sizes.groups,
        cfg.sizes.probe_groups,
        cfg.sizes.ops,
        cfg.sizes.window,
        cfg.sizes.setups,
        if cfg.trace { 1 } else { cfg.sizes.phases },
    )
}

/// SHA-256 (first 16 hex digits) over the sources of the crates under
/// test and of the benchmark, standing in for a commit id in checkouts
/// without git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    sha256(&all).to_string()[..16].to_string()
}
