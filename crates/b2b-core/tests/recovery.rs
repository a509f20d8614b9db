//! Crash-recovery (§3 check-pointing / §4.2 crash-and-recover nodes) and
//! liveness under temporary failures (§1, §4.1).

mod common;

use b2b_core::messages::{ProposeMsg, WireMsg};
use b2b_core::replica::ReplicaSnapshot;
use b2b_core::{CoordinatorConfig, Misbehaviour, ObjectId};
use b2b_crypto::{CachedCanonical, KeyPair, PartyId, Signer, TimeMs};
use b2b_evidence::SnapshotStore;
use b2b_net::intruder::{FnIntruder, InterceptAction};
use b2b_net::FaultPlan;
use common::*;
use std::sync::{Arc, Mutex};

#[test]
fn recipient_crash_during_run_recovers_and_completes() {
    // org1 crashes after the propose is in flight and recovers later; the
    // reliable layer plus persisted run state complete the run.
    let mut cluster = Cluster::new(2, 60);
    cluster.setup_object("counter", counter_factory);
    let t0 = cluster.net.now();
    // Slow links so the crash window is easy to hit.
    cluster
        .net
        .set_default_plan(FaultPlan::new().delay(TimeMs(10), TimeMs(10)));
    cluster.net.crash_at(t0 + TimeMs(5), party(1));
    cluster.net.recover_at(t0 + TimeMs(2_000), party(1));
    let oid = ObjectId::new("counter");
    let run = cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(5), ctx).unwrap()
    });
    cluster.run();
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
    assert_eq!(dec(&cluster.state(1, "counter")), 5);
    assert_eq!(dec(&cluster.state(0, "counter")), 5);
}

#[test]
fn recipient_crash_after_respond_before_decide_recovers() {
    // Crash in the window between sending m2 and receiving m3: the
    // persisted active run lets the recovered node accept the decide.
    let mut cluster = Cluster::new(2, 61);
    cluster.setup_object("counter", counter_factory);
    let t0 = cluster.net.now();
    // org0→org1 fast, org1→org0 slow: m1 arrives quickly, m2 crawls back,
    // and m3 arrives while org1 is down.
    cluster.net.set_link_plan(
        party(1),
        party(0),
        FaultPlan::new().delay(TimeMs(50), TimeMs(50)),
    );
    cluster.net.crash_at(t0 + TimeMs(30), party(1)); // after m1+respond
    cluster.net.recover_at(t0 + TimeMs(3_000), party(1));
    let oid = ObjectId::new("counter");
    let run = cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(9), ctx).unwrap()
    });
    cluster.run();
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
    assert_eq!(dec(&cluster.state(1, "counter")), 9);
}

#[test]
fn proposer_crash_midrun_recovers_and_finishes() {
    let mut cluster = Cluster::new(3, 62);
    cluster.setup_object("counter", counter_factory);
    let t0 = cluster.net.now();
    cluster
        .net
        .set_default_plan(FaultPlan::new().delay(TimeMs(20), TimeMs(20)));
    // Crash the proposer before responses can arrive; recover later.
    cluster.net.crash_at(t0 + TimeMs(25), party(0));
    cluster.net.recover_at(t0 + TimeMs(5_000), party(0));
    let oid = ObjectId::new("counter");
    let run = cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(7), ctx).unwrap()
    });
    cluster.run();
    for who in 0..3 {
        assert!(
            cluster.outcome(who, &run).is_some(),
            "org{who} should learn the outcome after recovery"
        );
        assert_eq!(dec(&cluster.state(who, "counter")), 7);
    }
}

#[test]
fn recovered_party_keeps_agreed_state_from_checkpoint() {
    let mut cluster = Cluster::new(2, 63);
    cluster.setup_object("counter", counter_factory);
    cluster.propose(0, "counter", enc(41));
    let t0 = cluster.net.now();
    cluster.net.crash_at(t0 + TimeMs(1), party(1));
    cluster.net.recover_at(t0 + TimeMs(100), party(1));
    cluster.run();
    // The checkpointed state and membership survive the crash.
    assert_eq!(dec(&cluster.state(1, "counter")), 41);
    assert_eq!(cluster.members(1, "counter").len(), 2);
    // And the recovered party keeps coordinating.
    let run = cluster.propose(1, "counter", enc(50));
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
}

#[test]
fn subject_crash_during_connect_retries_and_joins() {
    let mut cluster = Cluster::new(2, 64);
    cluster.net.invoke(&party(0), |c, _| {
        c.register_object(ObjectId::new("c"), Box::new(counter_factory))
            .unwrap();
    });
    let t0 = cluster.net.now();
    cluster
        .net
        .set_default_plan(FaultPlan::new().delay(TimeMs(30), TimeMs(30)));
    cluster.net.crash_at(t0 + TimeMs(10), party(1));
    cluster.net.recover_at(t0 + TimeMs(2_000), party(1));
    let sponsor = party(0);
    cluster.net.invoke(&party(1), move |c, ctx| {
        c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
            .unwrap();
    });
    cluster.run();
    assert!(cluster.net.node(&party(1)).is_member(&ObjectId::new("c")));
    assert_eq!(cluster.members(0, "c").len(), 2);
}

#[test]
fn liveness_under_heavy_loss_and_duplication() {
    // §1: "if no party misbehaves, agreed interactions will take place
    // despite a bounded number of temporary network failures". 30% loss +
    // duplication + jitter; retransmission carries every run through.
    for seed in [70u64, 71, 72] {
        let mut cluster = Cluster::with_config(
            3,
            seed,
            b2b_core::CoordinatorConfig::default(),
            FaultPlan::new()
                .drop_rate(0.3)
                .dup_rate(0.2)
                .delay(TimeMs(1), TimeMs(40)),
        );
        cluster.setup_object("counter", counter_factory);
        for v in [3u64, 8, 21] {
            let run = cluster.propose((v % 3) as usize, "counter", enc(v));
            for who in 0..3 {
                assert!(
                    cluster
                        .outcome(who, &run)
                        .map(|o| o.is_installed())
                        .unwrap_or(false),
                    "seed {seed} value {v} org{who}: run must complete under loss"
                );
            }
        }
        for who in 0..3 {
            assert_eq!(dec(&cluster.state(who, "counter")), 21, "seed {seed}");
        }
    }
}

#[test]
fn liveness_through_a_healing_partition() {
    let mut cluster = Cluster::new(2, 73);
    cluster.setup_object("counter", counter_factory);
    let t0 = cluster.net.now();
    cluster
        .net
        .partition([party(0)], [party(1)], t0 + TimeMs(3_000));
    let oid = ObjectId::new("counter");
    let run = cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(4), ctx).unwrap()
    });
    // While partitioned, no outcome; after healing, it completes.
    cluster.net.run_until(t0 + TimeMs(2_000));
    assert!(cluster.outcome(0, &run).is_none());
    cluster.run();
    assert!(cluster.outcome(0, &run).unwrap().is_installed());
    assert_eq!(dec(&cluster.state(1, "counter")), 4);
}

#[test]
fn deadline_aborts_blocked_run_and_rolls_back() {
    // §7 termination extension: with a configured deadline, a proposer
    // whose recipient never answers aborts instead of blocking forever.
    let config = b2b_core::CoordinatorConfig::new().run_deadline(TimeMs(1_000));
    let mut cluster = Cluster::with_config(2, 74, config, FaultPlan::default());
    cluster.setup_object("counter", counter_factory);
    let t0 = cluster.net.now();
    // org1 goes silent forever.
    cluster
        .net
        .partition([party(0)], [party(1)], t0 + TimeMs(1_000_000));
    let oid = ObjectId::new("counter");
    let run = cluster.net.invoke(&party(0), move |c, ctx| {
        c.propose_overwrite(&oid, enc(4), ctx).unwrap()
    });
    cluster.net.run_until(t0 + TimeMs(10_000));
    match cluster.outcome(0, &run).unwrap() {
        b2b_core::Outcome::Aborted { reason } => assert!(reason.contains("deadline")),
        other => panic!("expected abort, got {other:?}"),
    }
    // Rolled back: agreed state unchanged, object idle again.
    assert_eq!(dec(&cluster.state(0, "counter")), 0);
    assert!(!cluster
        .net
        .node(&party(0))
        .is_busy(&ObjectId::new("counter")));
}

/// Reliable-layer frame header: kind(1) + epoch(8) + seq(8) + trace(17).
const FRAME_HEADER: usize = 34;

/// The m1 inside a reliable-layer data frame, if it carries one.
fn propose_in(raw: &[u8]) -> Option<ProposeMsg> {
    if raw.len() <= FRAME_HEADER || raw[0] != 0 {
        return None; // ack or malformed
    }
    match WireMsg::from_bytes(&raw[FRAME_HEADER..])? {
        WireMsg::Propose(m) => Some(m),
        _ => None,
    }
}

/// Re-frames a protocol message under a fresh reliable-layer epoch,
/// keeping `template`'s trace context.
fn reframe(template: &[u8], epoch: u64, msg: &WireMsg) -> Vec<u8> {
    let mut frame = vec![0u8];
    frame.extend_from_slice(&epoch.to_be_bytes());
    frame.extend_from_slice(&0u64.to_be_bytes());
    frame.extend_from_slice(&template[17..FRAME_HEADER]);
    frame.extend_from_slice(&msg.to_bytes());
    frame
}

#[test]
fn replay_window_survives_recovery_after_it_fills() {
    // The replay-detection sets come back from the checkpoint: after more
    // rounds than `replay_window`, a crashed-and-recovered recipient still
    // flags both §4.4 replay faces as ReplayedProposal. A re-reply cap
    // below the window makes the re-delivered run one whose reply is no
    // longer retained, so it reaches the replay checks instead of being
    // answered idempotently.
    let config = CoordinatorConfig::default().completed_replies_cap(4);
    let window = config.replay_window;
    let mut cluster = Cluster::with_config(2, 75, config, FaultPlan::default());
    cluster.setup_object("counter", counter_factory);
    let frames: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
    let rec = Arc::clone(&frames);
    cluster.net.set_intruder(FnIntruder::new(
        move |_f: &PartyId, _t: &PartyId, raw: &[u8], _n| {
            if propose_in(raw).is_some() {
                rec.lock().unwrap().push(raw.to_vec());
            }
            InterceptAction::Deliver
        },
    ));
    let rounds = window + 6;
    for v in 1..=rounds {
        let run = cluster.propose(0, "counter", enc(v));
        assert!(cluster.outcome(1, &run).unwrap().is_installed());
    }
    let t0 = cluster.net.now();
    cluster.net.crash_at(t0 + TimeMs(1), party(1));
    cluster.net.recover_at(t0 + TimeMs(100), party(1));
    cluster.run();
    assert_eq!(dec(&cluster.state(1, "counter")), rounds);

    // A run well inside the window, older than the retained re-replies.
    let (template, old) = frames
        .lock()
        .unwrap()
        .iter()
        .find_map(|raw| {
            let m = propose_in(raw)?;
            (m.proposal.proposed.seq == rounds - 10).then(|| (raw.clone(), m))
        })
        .expect("recorded m1");
    // A fresh, correctly signed proposal reusing that run's tuple.
    let mut fresh = old.clone();
    fresh.proposal.auth_commit = b2b_crypto::sha256(b"different-commitment");
    fresh.memo = CachedCanonical::new();
    fresh.sig = KeyPair::generate_from_seed(1000).sign(&fresh.proposal_bytes());
    assert_ne!(fresh.run_id(), old.run_id());

    let replayed = reframe(&template, 0xdead_beef, &WireMsg::Propose(old.clone()));
    let reused = reframe(&template, 0xabad_1dea, &WireMsg::Propose(fresh.clone()));
    cluster.net.invoke(&party(0), move |_c, ctx| {
        ctx.send(party(1), replayed);
        ctx.send(party(1), reused);
    });
    cluster.run();
    let detected = cluster.net.node(&party(1)).detected();
    for run in [old.run_id(), fresh.run_id()] {
        assert!(
            detected.contains(&Misbehaviour::ReplayedProposal { run }),
            "{run:?} not flagged as replayed: {detected:?}"
        );
    }
    assert_eq!(dec(&cluster.state(1, "counter")), rounds);
}

#[test]
fn corrupt_checkpoint_is_skipped_on_recovery() {
    // One unreadable checkpoint must not take recovery down: the object
    // is skipped, as an unparsable document already was.
    let mut cluster = Cluster::new(2, 76);
    cluster.setup_object("counter", counter_factory);
    cluster.setup_object("other", counter_factory);
    cluster.propose(0, "counter", enc(3));
    cluster.propose(0, "other", enc(4));
    let store = Arc::clone(&cluster.stores[&party(1)]);
    let key = "obj-counter";
    let mut snap: ReplicaSnapshot =
        serde_json::from_slice(&store.get_snapshot(key).unwrap()).unwrap();
    snap.seen_tuples = "00".repeat(39); // whole bytes, not a whole record
    store
        .put_snapshot(key, serde_json::to_vec(&snap).unwrap())
        .unwrap();
    let t0 = cluster.net.now();
    cluster.net.crash_at(t0 + TimeMs(1), party(1));
    cluster.net.recover_at(t0 + TimeMs(100), party(1));
    cluster.run();
    let node = cluster.net.node(&party(1));
    assert!(node.agreed_state(&ObjectId::new("counter")).is_none());
    assert_eq!(dec(&cluster.state(1, "other")), 4);
}
