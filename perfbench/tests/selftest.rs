//! Self-tests: a tiny run of every workload with every correctness check
//! on, and the percentile helpers the reported tails rest on.

use perfbench::run::{run, Outcome};
use perfbench::stats::{nearest_rank, tail};
use perfbench::{Config, Phase, Sizes, Workload};
use std::time::Instant;

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let cfg = Config {
        workload,
        seed: 7,
        sizes: Sizes::tiny(workload),
        trace,
        process_start: Instant::now(),
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{}-{trace}", workload.name())),
    };
    run(&cfg)
}

/// Every metric a run reports is declared in `BENCHMARK.json` under
/// `section`, and the run passed its correctness gate.
fn assert_clean(out: &Outcome, section: &str) {
    assert!(out.correct, "gate failed:\n{}", out.report.join("\n"));
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let declared = &spec[spec.find(&format!("\"{section}\"")).expect("section")..];
    let declared = &declared[..declared.find(']').expect("section end")];
    for (name, value, _) in &out.metrics {
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            declared.contains(&format!("\"name\": \"{name}\"")),
            "{name} is not declared under {section}"
        );
    }
    assert_eq!(
        declared.matches("\"name\":").count(),
        out.metrics.len(),
        "every declared {section} metric is reported"
    );
}

#[test]
fn order_sync_smoke() {
    let out = tiny(Workload::OrderSync, false);
    assert_clean(&out, "end_to_end");
    assert!(out
        .report
        .iter()
        .any(|l| l.starts_with("metric read_p50_us")));
    // Both of order-sync's measured phases ran and passed their gate.
    assert!(out
        .report
        .iter()
        .any(|l| l.starts_with("check [measured 2] ok")));
}

#[test]
fn order_bulk_smoke() {
    assert_clean(&tiny(Workload::OrderBulk, false), "end_to_end");
}

#[test]
fn mux_tcp_smoke() {
    let out = tiny(Workload::MuxTcp, false);
    assert_clean(&out, "end_to_end");
    assert!(out
        .report
        .iter()
        .any(|l| l.starts_with("metric probe_p50_us")));
}

#[test]
fn order_sync_traced_smoke() {
    let out = tiny(Workload::OrderSync, true);
    assert_clean(&out, "per_layer");
    assert!(out
        .report
        .iter()
        .any(|l| l.trim_start().starts_with("unaccounted")));
    let value = |name: &str| {
        out.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
            .expect(name)
    };
    // One round per update; a warm-up round still finishing at the peer
    // when the phase starts may land in the phase's counter delta.
    let rounds = value("core.rounds_per_op");
    assert!(
        (1.0..1.05).contains(&rounds),
        "order-sync runs k=1 rounds: {rounds}"
    );
    assert!(value("core.sync_round_us.p50") > 0.0);
    assert!(value("crypto.sign_us") > 0.0);
}

#[test]
fn mux_tcp_traced_smoke() {
    let out = tiny(Workload::MuxTcp, true);
    assert_clean(&out, "per_layer");
}

#[test]
fn nearest_rank_percentiles() {
    let s = [15, 20, 35, 40, 50];
    assert_eq!(nearest_rank(&s, 5.0), 15);
    assert_eq!(nearest_rank(&s, 30.0), 20);
    assert_eq!(nearest_rank(&s, 40.0), 20);
    assert_eq!(nearest_rank(&s, 50.0), 35);
    assert_eq!(nearest_rank(&s, 100.0), 50);
    assert_eq!(nearest_rank(&[], 50.0), 0);
    let hundred: Vec<u64> = (1..=100).collect();
    assert_eq!(nearest_rank(&hundred, 99.0), 99);
    assert_eq!(nearest_rank(&hundred, 99.5), 100);
}

#[test]
fn tail_is_p99_with_ten_samples_beyond() {
    let s: Vec<u64> = (1..=1000).collect();
    let t = tail(&s);
    assert_eq!((t.pct, t.value, t.beyond), (99.0, 990, 10));
    assert_eq!(t.label(), "p99");
}

#[test]
fn tail_drops_below_p99_when_fewer_than_ten_beyond() {
    // 999 samples leave only 9 beyond p99: p98 is reported instead.
    let s: Vec<u64> = (1..=999).collect();
    let t = tail(&s);
    assert_eq!((t.pct, t.value, t.beyond), (98.0, 980, 19));
    assert_eq!(t.label(), "p98");
    // 100 samples support p90 (10 beyond), not p95 (5 beyond).
    let s: Vec<u64> = (1..=100).collect();
    assert_eq!(tail(&s).pct, 90.0);
    // Too few for any tail: the median, labelled as such.
    let t = tail(&[10, 20, 30]);
    assert_eq!(t.pct, 50.0);
}

#[test]
fn order_bulk_traced_smoke() {
    assert_clean(&tiny(Workload::OrderBulk, true), "per_layer");
}

#[test]
fn appended_phase_runs_after_the_first() {
    let mut first = Phase {
        wall_s: 2.0,
        done_us: vec![500_000, 2_000_000],
        latency_us: vec![10, 20],
        ..Phase::default()
    };
    let second = Phase {
        wall_s: 1.5,
        done_us: vec![1_000_000],
        latency_us: vec![30],
        ..Phase::default()
    };
    first.append(second);
    assert_eq!(first.wall_s, 3.5);
    assert_eq!(first.done_us, vec![500_000, 2_000_000, 3_000_000]);
    assert_eq!(first.latency_us, vec![10, 20, 30]);
}
