//! Per-layer readings: telemetry counter deltas, the evidence a phase
//! wrote, and the per-layer metrics computed from them.

use crate::micro::Micro;
use crate::stats::nearest_rank;
use crate::{Measured, Workload};
use b2b_crypto::PartyId;
use b2b_evidence::{EvidenceKind, EvidenceRecord};
use b2b_telemetry::metrics::{Histogram, BUCKET_BOUNDS};
use b2b_telemetry::{names, MetricsSnapshot};
use std::collections::BTreeSet;

/// `after − before` for every counter and histogram.
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = after.clone();
    for (name, value) in out.counters.iter_mut() {
        *value = value.saturating_sub(before.counter(name));
    }
    for (name, hist) in out.histograms.iter_mut() {
        if let Some(old) = before.histogram(name) {
            for (c, o) in hist.counts.iter_mut().zip(&old.counts) {
                *c = c.saturating_sub(*o);
            }
            hist.count = hist.count.saturating_sub(old.count);
            hist.sum = hist.sum.saturating_sub(old.sum);
        }
    }
    out
}

/// Sum of every counter named `prefix` or `prefix:<label>`.
fn counter_family(snap: &MetricsSnapshot, prefix: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(name, _)| {
            name.as_str() == prefix
                || name
                    .strip_prefix(prefix)
                    .is_some_and(|rest| rest.starts_with(':'))
        })
        .map(|(_, v)| *v)
        .sum()
}

/// Evidence appended during a phase at every party of a few sampled
/// groups.
#[derive(Clone, Debug, Default)]
pub struct EvidenceSample {
    /// Records sampled.
    pub records: usize,
    /// Their size as the write-ahead log frames them (JSON + 8 bytes).
    pub encoded_bytes: usize,
    /// `state-propose` records sampled.
    pub proposes: usize,
    /// Payload bytes of those proposals.
    pub propose_bytes: usize,
    /// State-coordination records each store's own party signed.
    pub own_signed: usize,
    /// Distinct state-coordination runs (rounds) in the sample.
    pub rounds: usize,
    /// Stores sampled.
    pub stores: usize,
    /// Groups sampled.
    pub groups: usize,
    /// A `state-respond` record: the template for the append micro-cost.
    pub template: Option<EvidenceRecord>,
}

impl EvidenceSample {
    /// Adds the records one group wrote, `(owner, records)` per party.
    pub fn add_group(&mut self, group: &[(PartyId, Vec<EvidenceRecord>)]) {
        let mut runs = BTreeSet::new();
        self.groups += 1;
        for (owner, records) in group {
            self.stores += 1;
            for r in records {
                self.records += 1;
                self.encoded_bytes += serde_json::to_vec(r).map(|b| b.len()).unwrap_or(0) + 8;
                let state = matches!(
                    r.kind,
                    EvidenceKind::StatePropose
                        | EvidenceKind::StateRespond
                        | EvidenceKind::StateDecide
                );
                if state {
                    runs.insert(r.run.clone());
                    if &r.origin == owner && r.signature.is_some() {
                        self.own_signed += 1;
                    }
                }
                if r.kind == EvidenceKind::StatePropose {
                    self.proposes += 1;
                    self.propose_bytes += r.payload.len();
                }
                if r.kind == EvidenceKind::StateRespond && self.template.is_none() {
                    self.template = Some(r.clone());
                }
            }
        }
        self.rounds += runs.len();
    }

    /// Mean encoded record size, bytes.
    pub fn mean_record_bytes(&self) -> f64 {
        ratio(self.encoded_bytes as f64, self.records as f64)
    }

    /// Mean proposal payload, bytes.
    pub fn mean_proposal_bytes(&self) -> f64 {
        ratio(self.propose_bytes as f64, self.proposes as f64)
    }

    /// Signatures made per round across the group.
    pub fn signs_per_round(&self) -> f64 {
        ratio(self.own_signed as f64, self.rounds as f64)
    }

    /// Records one party appends per round.
    pub fn records_per_round_per_party(&self) -> f64 {
        let parties = ratio(self.stores as f64, self.groups as f64);
        ratio(self.records as f64, self.rounds as f64 * parties)
    }
}

/// Upper bound of the bucket holding quantile `q` of a delta histogram;
/// the overflow bucket reads as the last bound (a lower bound). The
/// histogram's own min/max span its whole life, not the delta, so
/// `Histogram::quantile` cannot be used here.
fn bucket_quantile(h: &Histogram, q: f64) -> f64 {
    let target = ((q * h.count as f64).ceil() as u64).max(1);
    let mut cumulative = 0;
    for (i, c) in h.counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= target {
            return BUCKET_BOUNDS[i.min(BUCKET_BOUNDS.len() - 1)] as f64;
        }
    }
    0.0
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One per-layer metric.
pub struct LayerMetric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Which workload.
    pub workload: Workload,
    /// Parties per group.
    pub parties: usize,
    /// The untraced phase of the traced run.
    pub untraced: &'a Measured,
    /// The traced phase.
    pub traced: &'a Measured,
    /// Core rounds without HTTP (order-sync: a phase of its own; mux-tcp:
    /// the single-update probe rounds), µs.
    pub core_round_us: Vec<u64>,
    /// order-sync: the same update as a sync HTTP request, interleaved
    /// with those core rounds on the same fleet, µs.
    pub paired_http_us: Vec<u64>,
    /// Micro-costs.
    pub micro: &'a Micro,
}

/// The `latency_p50_us` breakdown rows of order-sync, µs.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// The measured end-to-end median.
    pub latency_p50_us: f64,
    /// HTTP + server: sync request p50 minus core round p50, measured
    /// side by side.
    pub http_us: f64,
    /// The core round p50 without HTTP.
    pub core_round_us: f64,
    /// Inside the round: sign × signs/op + verify × verifies/op.
    pub crypto_us: f64,
    /// Inside the round: append × records/op.
    pub evidence_us: f64,
    /// Inside the round: apply × parties.
    pub apps_us: f64,
    /// What the rows above leave unexplained; never folded into a row.
    pub unaccounted_us: f64,
}

fn p(samples: &[u64], pct: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    nearest_rank(&s, pct) as f64
}

/// Computes every per-layer metric (0 where a layer is bypassed) and the
/// order-sync breakdown.
pub fn per_layer(inp: &LayerInputs) -> (Vec<LayerMetric>, Breakdown) {
    let m = inp.untraced;
    let c = &m.counters;
    let ops = m.phase.installed as f64;
    let per_op = |v: u64| ratio(v as f64, ops);
    let route = |r: &str, pct: f64| p(m.phase.routes.get(r).map_or(&[][..], |v| v), pct);
    let core_p50 = p(&inp.core_round_us, 50.0);
    let lines_p50 = route("lines", 50.0);
    let sync = inp.workload == Workload::OrderSync;
    // Measured side by side, so the difference is HTTP and the server,
    // not a change of load on the box between two phases.
    let server_overhead = if sync {
        p(&inp.paired_http_us, 50.0) - core_p50
    } else {
        0.0
    };

    let occupancy = c
        .histogram(names::BATCH_OCCUPANCY)
        .map_or(0.0, |h| ratio(h.sum as f64, h.count as f64));
    let rounds_per_op = ratio(
        per_op(c.counter(names::ROUNDS_COMMITTED)),
        inp.parties as f64,
    );
    let verifies = per_op(c.counter(names::SIG_VERIFY_COUNT));
    let hits = c.counter(names::SIG_CACHE_HITS) as f64;
    let records_per_op = per_op(c.counter(names::EVIDENCE_RECORDS_APPENDED));
    let signs_per_op = m.evidence.signs_per_round() * rounds_per_op;
    let mux_frames = c.counter(names::MUX_FRAMES_SENT);
    let overhead_pct = 100.0
        * (ratio(inp.traced.phase.wall_s, inp.traced.phase.installed as f64)
            / ratio(m.phase.wall_s, ops).max(f64::MIN_POSITIVE)
            - 1.0);

    let mu = inp.micro;
    let mut b = Breakdown::default();
    if sync {
        b.latency_p50_us = p(&m.phase.latency_us, 50.0);
        b.core_round_us = core_p50;
        b.http_us = server_overhead;
        b.crypto_us = mu.sign_us * signs_per_op + mu.verify_us * verifies;
        b.evidence_us = mu.append_mem_us * records_per_op;
        b.apps_us = mu.apply_us * inp.parties as f64;
        b.unaccounted_us = b.latency_p50_us - b.http_us - b.crypto_us - b.evidence_us - b.apps_us;
    }

    let metric =
        |name: &'static str, value: f64, unit: &'static str| LayerMetric { name, value, unit };
    let metrics = vec![
        metric("httpd.request_us.lines.p50", lines_p50, "us"),
        metric("httpd.request_us.lines.p99", route("lines", 99.0), "us"),
        metric("httpd.request_us.bulk.p50", route("bulk", 50.0), "us"),
        metric("httpd.request_us.bulk.p99", route("bulk", 99.0), "us"),
        metric("httpd.request_us.tickets.p50", route("tickets", 50.0), "us"),
        metric("httpd.request_us.tickets.p99", route("tickets", 99.0), "us"),
        metric(
            "httpd.request_us.get_order.p50",
            route("get_order", 50.0),
            "us",
        ),
        metric(
            "httpd.request_us.get_order.p99",
            route("get_order", 99.0),
            "us",
        ),
        metric("server.overhead_us", server_overhead, "us"),
        metric("server.requests_per_op", per_op(m.phase.requests), "count"),
        metric("core.sync_round_us.p50", core_p50, "us"),
        metric("core.sync_round_us.p99", p(&inp.core_round_us, 99.0), "us"),
        metric("core.rounds_per_op", rounds_per_op, "count"),
        metric("core.batch_occupancy", occupancy, "count"),
        metric(
            "core.retried_per_op",
            per_op(c.counter(names::ROUNDS_RETRIED)),
            "count",
        ),
        metric(
            "core.aborted_per_op",
            per_op(c.counter(names::ROUNDS_ABORTED)),
            "count",
        ),
        metric("crypto.sign_us", mu.sign_us, "us"),
        metric("crypto.verify_us", mu.verify_us, "us"),
        metric(
            "crypto.verify_batch_us_per_sig.3",
            mu.verify_batch3_us_per_sig,
            "us",
        ),
        metric(
            "crypto.verify_batch_us_per_sig.16",
            mu.verify_batch16_us_per_sig,
            "us",
        ),
        metric("crypto.sha256_ns_per_kib", mu.sha256_ns_per_kib, "ns"),
        metric("crypto.signs_per_op", signs_per_op, "count"),
        metric("crypto.verifies_per_op", verifies, "count"),
        metric(
            "crypto.sig_cache_hit_ratio",
            ratio(hits, hits + c.counter(names::SIG_VERIFY_COUNT) as f64),
            "ratio",
        ),
        metric("evidence.records_per_op", records_per_op, "count"),
        metric(
            "evidence.bytes_per_op",
            records_per_op * m.evidence.mean_record_bytes(),
            "B",
        ),
        metric("evidence.append_us.mem", mu.append_mem_us, "us"),
        metric("evidence.append_us.file", mu.append_file_us, "us"),
        metric(
            "evidence.append_us.file_group",
            mu.append_file_group_us,
            "us",
        ),
        metric("apps.apply_us", mu.apply_us, "us"),
        metric(
            "shard.events_per_op",
            per_op(counter_family(c, names::SHARD_EVENTS)),
            "count",
        ),
        metric(
            "shard.queue_depth_p99",
            c.histogram(names::SHARD_QUEUE_DEPTH)
                .map_or(0.0, |h| bucket_quantile(h, 0.99)),
            "count",
        ),
        metric(
            "shard.inbox_full_stalls",
            c.counter(names::INBOX_FULL_STALLS) as f64,
            "count",
        ),
        metric(
            "reliable.retransmits_per_op",
            per_op(c.counter(names::RETRANSMITS)),
            "count",
        ),
        metric(
            "reliable.dedup_drops_per_op",
            per_op(c.counter(names::DEDUP_DROPS)),
            "count",
        ),
        metric("mux.frames_per_op", per_op(mux_frames), "count"),
        metric(
            "mux.bytes_per_op",
            per_op(c.counter(names::MUX_BYTES_SENT)),
            "B",
        ),
        metric(
            "mux.frames_per_write_syscall",
            ratio(
                mux_frames as f64,
                c.counter(names::MUX_WRITE_SYSCALLS) as f64,
            ),
            "count",
        ),
        metric(
            "mux.poll_rounds_per_op",
            per_op(c.counter(names::MUX_POLL_ROUNDS)),
            "count",
        ),
        metric(
            "mux.read_stalls",
            c.counter(names::MUX_READ_STALLS) as f64,
            "count",
        ),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("breakdown.latency_p50_us", b.latency_p50_us, "us"),
        metric("breakdown.http_us", b.http_us, "us"),
        metric("breakdown.core_round_us", b.core_round_us, "us"),
        metric("breakdown.crypto_us", b.crypto_us, "us"),
        metric("breakdown.evidence_us", b.evidence_us, "us"),
        metric("breakdown.apps_us", b.apps_us, "us"),
        metric("breakdown.unaccounted_us", b.unaccounted_us, "us"),
    ];
    (metrics, b)
}
