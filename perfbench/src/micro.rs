//! Layer micro-costs: the benchmark times single calls into the crypto,
//! evidence and application layers on inputs the size of the run's own.

use crate::stats::median;
use b2b_apps::{Order, OrderUpdate};
use b2b_crypto::{sha256, verify_batch, KeyPair, PublicKey, SigVerifier, Signature, Signer};
use b2b_evidence::{EvidenceRecord, EvidenceStore, FileStore, MemStore};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed batches per micro-cost; the median batch is reported.
const BATCHES: usize = 15;

/// Micro-costs of one run, µs per call unless named otherwise.
#[derive(Clone, Debug, Default)]
pub struct Micro {
    /// `Signer::sign` on a proposal-sized message.
    pub sign_us: f64,
    /// `SigVerifier::verify` on a proposal-sized message.
    pub verify_us: f64,
    /// `verify_batch` of 3 signatures, per signature.
    pub verify_batch3_us_per_sig: f64,
    /// `verify_batch` of 16 signatures, per signature.
    pub verify_batch16_us_per_sig: f64,
    /// `sha256` of 1 KiB, ns.
    pub sha256_ns_per_kib: f64,
    /// `MemStore::append` of a run-sized record.
    pub append_mem_us: f64,
    /// `FileStore::append`, durable per append.
    pub append_file_us: f64,
    /// `FileStore::append` in group-commit mode, flushed once per
    /// protocol step's worth of records.
    pub append_file_group_us: f64,
    /// `Order::from_bytes` + `OrderUpdate::apply` + `Order::to_bytes` on a
    /// four-line order.
    pub apply_us: f64,
}

/// µs per call: the median over [`BATCHES`] batches of `calls` calls.
fn per_call(calls: usize, mut batch: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            batch(b);
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Seeded filler bytes.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = crate::Rng::new(seed, 7);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Measures every micro-cost. `proposal_bytes` sizes the signed
/// messages, `record` is a real record of the run, `records_per_flush`
/// the records one protocol step appends at one party, and `dir` a
/// scratch directory (removed afterwards).
pub fn measure(
    seed: u64,
    proposal_bytes: usize,
    record: &EvidenceRecord,
    records_per_flush: usize,
    dir: &Path,
) -> std::io::Result<Micro> {
    let msg = bytes(seed, proposal_bytes.max(1));
    let keys: Vec<KeyPair> = (0..16)
        .map(|i| KeyPair::generate_from_seed(seed.wrapping_add(i)))
        .collect();
    let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(&msg)).collect();
    let publics: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();

    let mut m = Micro {
        sign_us: per_call(200, |_| {
            for _ in 0..200 {
                black_box(keys[0].sign(black_box(&msg)));
            }
        }),
        verify_us: per_call(200, |_| {
            for _ in 0..200 {
                publics[0]
                    .verify(black_box(&msg), &sigs[0])
                    .expect("a fresh signature verifies");
            }
        }),
        ..Micro::default()
    };
    let batch_cost = |n: usize| {
        let items: Vec<(&PublicKey, &[u8], &Signature)> = (0..n)
            .map(|i| (&publics[i], msg.as_slice(), &sigs[i]))
            .collect();
        per_call(50 * n, |_| {
            for _ in 0..50 {
                verify_batch(black_box(&items)).expect("fresh signatures verify");
            }
        })
    };
    m.verify_batch3_us_per_sig = batch_cost(3);
    m.verify_batch16_us_per_sig = batch_cost(16);
    let kib = bytes(seed, 1024);
    m.sha256_ns_per_kib = per_call(2000, |_| {
        for _ in 0..2000 {
            black_box(sha256(black_box(&kib)));
        }
    }) * 1e3;

    // Appends take ownership of their record, so each batch's records
    // are cloned before its clock starts.
    const APPENDS: usize = 400;
    let copies = || vec![record.clone(); APPENDS];
    m.append_mem_us = timed_appends(APPENDS, |_| MemStore::new(), copies, 0);
    std::fs::create_dir_all(dir)?;
    m.append_file_us = timed_appends(
        APPENDS,
        |b| FileStore::open(dir.join(format!("file-{b}"))).expect("open scratch store"),
        copies,
        0,
    );
    m.append_file_group_us = timed_appends(
        APPENDS,
        |b| {
            FileStore::open(dir.join(format!("group-{b}")))
                .expect("open scratch store")
                .group_commit(true)
        },
        copies,
        records_per_flush.max(1),
    );
    std::fs::remove_dir_all(dir)?;

    let mut order = Order::new();
    for (i, qty) in [3u32, 5, 7, 11].iter().enumerate() {
        order.set_quantity(&format!("i{i}"), *qty);
        order.set_price(&format!("i{i}"), 100 + *qty);
    }
    let state = order.to_bytes();
    let delta = OrderUpdate::SetQuantity {
        item: "i2".to_string(),
        qty: 42,
    };
    m.apply_us = per_call(500, |_| {
        for _ in 0..500 {
            let mut o = Order::from_bytes(black_box(&state)).expect("order decodes");
            delta.apply(&mut o).expect("delta applies");
            black_box(o.to_bytes());
        }
    });
    Ok(m)
}

/// µs per append into a fresh store per batch; with `flush_every` > 0 the
/// store is flushed after every `flush_every` appends (and at the end).
fn timed_appends<S: EvidenceStore>(
    appends: usize,
    open: impl Fn(usize) -> S,
    records: impl Fn() -> Vec<EvidenceRecord>,
    flush_every: usize,
) -> f64 {
    let mut batch = 0;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            batch += 1;
            let store = open(batch);
            let recs = records();
            let t = Instant::now();
            for (i, r) in recs.into_iter().enumerate() {
                store.append(r).expect("scratch append");
                if flush_every > 0 && (i + 1) % flush_every == 0 {
                    store.flush().expect("scratch flush");
                }
            }
            store.flush().expect("scratch flush");
            t.elapsed().as_secs_f64() * 1e6 / appends as f64
        })
        .collect();
    median(&samples)
}
