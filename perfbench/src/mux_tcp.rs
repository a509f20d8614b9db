//! The `mux-tcp` workload: two-party order groups on `ShardedTcpNet`,
//! every protocol frame crossing one multiplexed loopback socket pair.
//! No HTTP: the load threads call the coordinators directly.

use crate::layers::EvidenceSample;
use crate::service::ITEMS;
use crate::spans::Recorder;
use crate::{Check, Phase, Rng, Sizes};
use b2b_apps::{OrderObject, OrderRoles, OrderUpdate};
use b2b_core::{B2BObject, CoordError, Coordinator, CoordinatorConfig, ObjectId, TicketId};
use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, VerifyPool};
use b2b_evidence::{LogAuditor, MemStore};
use b2b_net::{GroupHandle, GroupId, ShardedTcpConfig, ShardedTcpNet};
use b2b_telemetry::Telemetry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Groups whose evidence is sampled for the per-layer record sizes.
const EVIDENCE_SAMPLE_GROUPS: usize = 8;

/// How long set-up and checks may wait for the fleet.
const SETUP_TIMEOUT: Duration = Duration::from_secs(120);

/// Seed quantities stay below this; measured values start above it.
const FRESH_BASE: u64 = 1_000_000;

/// The order groups and their stores.
pub struct Mux {
    net: ShardedTcpNet<Coordinator>,
    stores: Vec<[Arc<MemStore>; 2]>,
    ring: Arc<KeyRing>,
    parties: [PartyId; 2],
    object: ObjectId,
    telemetry: Telemetry,
    groups: usize,
    shards: usize,
    verify_workers: usize,
}

fn order_object(roles: &OrderRoles) -> Box<dyn B2BObject> {
    Box::new(OrderObject::new(roles.clone()))
}

/// Raises its flag when dropped.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// `n` customer quantity deltas, each to a fresh value.
fn deltas(n: usize, rng: &mut Rng, value: &mut u64) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            *value += 1;
            OrderUpdate::SetQuantity {
                item: format!("i{}", rng.below(ITEMS)),
                qty: *value as u32,
            }
            .to_bytes()
        })
        .collect()
}

/// How many of `tickets` installed at `h`.
fn installed(h: &GroupHandle<Coordinator>, tickets: &[TicketId]) -> u64 {
    h.read(|c| {
        tickets
            .iter()
            .filter(|t| c.outcome_of_ticket(t).is_some_and(|o| o.is_installed()))
            .count() as u64
    })
}

/// Waits until every ticket has an outcome at `h`.
fn settled(h: &GroupHandle<Coordinator>, tickets: &[TicketId]) -> bool {
    h.wait_until(crate::OP_TIMEOUT, |c| {
        tickets.iter().all(|t| c.outcome_of_ticket(t).is_some())
    })
}

impl Mux {
    /// Spawns the groups over loopback TCP, joins the supplier to every
    /// group (pipelined across groups) and seeds each order's lines.
    pub fn start(sizes: &Sizes, seed: u64) -> Mux {
        let parties = [PartyId::new("customer"), PartyId::new("supplier")];
        let mut ring = KeyRing::new();
        let keys: Vec<KeyPair> = (0..2)
            .map(|i| {
                let kp = KeyPair::generate_from_seed(3000 + i);
                ring.register(parties[i as usize].clone(), kp.public_key());
                kp
            })
            .collect();
        let ring = Arc::new(ring);
        let telemetry = Telemetry::new();
        let pool = Arc::new(VerifyPool::with_default_parallelism());
        let config = CoordinatorConfig::default().batch_max(sizes.window);
        let mut stores = Vec::with_capacity(sizes.groups);
        let groups: Vec<(GroupId, Vec<Coordinator>)> = (0..sizes.groups)
            .map(|g| {
                let pair = [Arc::new(MemStore::new()), Arc::new(MemStore::new())];
                let nodes = (0..2)
                    .map(|i| {
                        Coordinator::builder(parties[i].clone(), keys[i].clone())
                            .shared_ring(Arc::clone(&ring))
                            .config(config.clone())
                            .store(Arc::clone(&pair[i]))
                            .seed(seed.wrapping_add((2 * g + i) as u64))
                            .telemetry(telemetry.clone())
                            .verify_pool(Arc::clone(&pool))
                            .build()
                    })
                    .collect();
                stores.push(pair);
                (GroupId(g as u64), nodes)
            })
            .collect();
        let shards = crate::nproc();
        let net = ShardedTcpNet::spawn_loopback_with(
            groups,
            ShardedTcpConfig::new()
                .shards(shards)
                .telemetry(telemetry.clone()),
        )
        .expect("spawn loopback endpoints");
        let mux = Mux {
            net,
            stores,
            ring,
            parties,
            object: ObjectId::new("order"),
            telemetry,
            groups: sizes.groups,
            shards,
            verify_workers: pool.workers(),
        };

        let roles = OrderRoles::two_party(mux.parties[0].clone(), mux.parties[1].clone());
        for g in 0..mux.groups {
            let (oid, roles) = (mux.object.clone(), roles.clone());
            mux.handle(g, 0).invoke(move |c, _| {
                c.register_object(oid, Box::new(move || order_object(&roles)))
                    .expect("register order object");
            });
        }
        for g in 0..mux.groups {
            let (oid, roles) = (mux.object.clone(), roles.clone());
            let sponsor = mux.parties[0].clone();
            mux.handle(g, 1).invoke(move |c, ctx| {
                c.request_connect(oid, Box::new(move || order_object(&roles)), sponsor, ctx)
                    .expect("request connect");
            });
        }
        for g in 0..mux.groups {
            let oid = mux.object.clone();
            assert!(
                mux.handle(g, 1)
                    .wait_until(SETUP_TIMEOUT, move |c| c.is_member(&oid)),
                "supplier of group {g} failed to join"
            );
        }
        // Seed lines: one window per group, all in flight together.
        let mut rng = Rng::new(seed, 100);
        let mut seeds = Vec::with_capacity(mux.groups);
        for g in 0..mux.groups {
            let updates: Vec<Vec<u8>> = (0..ITEMS)
                .map(|i| {
                    OrderUpdate::SetQuantity {
                        item: format!("i{i}"),
                        qty: 1 + rng.below(FRESH_BASE / 2) as u32,
                    }
                    .to_bytes()
                })
                .collect();
            let oid = mux.object.clone();
            let tickets = mux
                .handle(g, 0)
                .invoke(move |c, ctx| c.submit_updates(&oid, updates, ctx))
                .expect("seed lines admitted");
            seeds.push(tickets);
        }
        for (g, tickets) in seeds.iter().enumerate() {
            let h = mux.handle(g, 0);
            assert!(
                settled(&h, tickets) && installed(&h, tickets) == tickets.len() as u64,
                "seed lines of group {g} must install"
            );
        }
        mux
    }

    fn handle(&self, g: usize, p: usize) -> GroupHandle<Coordinator> {
        self.net.handle(GroupId(g as u64), &self.parties[p])
    }

    /// The fleet's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Thread counts of the fleet, for provenance.
    pub fn threads(&self) -> BTreeMap<&'static str, usize> {
        BTreeMap::from([
            ("endpoints", 2),
            ("parties", 2),
            ("shards_per_endpoint", self.shards),
            ("verify_pool_workers", self.verify_workers),
            ("groups", self.groups),
        ])
    }

    /// Runs the measured phase: thread 0 keeps one window outstanding on
    /// every load group until `sizes.ops` updates are submitted, timing
    /// each window from submit to installed; thread 1 times
    /// single-update rounds on the probe groups meanwhile.
    pub fn run(&self, sizes: &Sizes, seed: u64, traced: bool, epoch: Instant) -> Phase {
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let (load, probe) = std::thread::scope(|s| {
            let load = s.spawn(|| {
                // Stops the probes even if the load thread panics.
                let _done = SetOnDrop(&done);
                let mut rec = Recorder::new(traced, epoch, 0);
                let phase = self.load(sizes, start, &mut Rng::new(seed, 0), &mut rec);
                (phase, rec.into_spans())
            });
            let probe = s.spawn(|| {
                let mut rec = Recorder::new(traced, epoch, 1);
                let phase = self.probe(sizes, start, &mut Rng::new(seed, 1), &mut rec, &done);
                (phase, rec.into_spans())
            });
            (
                load.join().expect("load thread"),
                probe.join().expect("probe thread"),
            )
        });
        // The windows are the load and the latency sample: a probe round
        // queues behind the whole fleet's traffic, so its latency swings
        // with where the outstanding updates happen to sit; the probes
        // are reported under their own name.
        let (mut phase, spans) = load;
        let (mut probes, probe_spans) = probe;
        let probe_us = std::mem::take(&mut probes.latency_us);
        probes.done_us.clear();
        probes.op_updates.clear();
        phase.absorb(probes);
        phase.routes.insert("probe", probe_us);
        phase.spans.extend(spans);
        phase.spans.extend(probe_spans);
        phase.wall_s = start.elapsed().as_secs_f64();
        phase
    }

    /// Submits one window at group `g`, retrying while the coordinator
    /// answers `Busy`.
    fn submit(&self, g: usize, updates: Vec<Vec<u8>>, phase: &mut Phase) -> Option<Vec<TicketId>> {
        let h = self.handle(g, 0);
        loop {
            let oid = self.object.clone();
            let batch = updates.clone();
            phase.mutating += 1;
            match h.invoke(move |c, ctx| c.submit_updates(&oid, batch, ctx)) {
                Ok(tickets) => return Some(tickets),
                Err(CoordError::Busy { .. }) => {
                    phase.refused += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    phase.note_error(format!("group {g}: submit_updates: {e}"));
                    return None;
                }
            }
        }
    }

    fn load(&self, sizes: &Sizes, start: Instant, rng: &mut Rng, rec: &mut Recorder) -> Phase {
        let mut phase = Phase::default();
        let mut value = FRESH_BASE;
        let windows = sizes.ops.div_ceil(sizes.window as u64);
        let mut submitted = 0u64;
        let mut inflight: VecDeque<(usize, Vec<TicketId>, Instant, crate::spans::Open)> =
            VecDeque::new();
        let mut next_window = |g: usize, phase: &mut Phase, rec: &mut Recorder| {
            let op = rec.begin("op.window", 0);
            let updates = deltas(sizes.window, rng, &mut value);
            phase.attempted += updates.len() as u64;
            let t0 = Instant::now();
            let tickets = rec.span("core.submit_updates", op.id(), || {
                self.submit(g, updates, phase)
            });
            (tickets, t0, op)
        };
        for g in sizes.probe_groups..sizes.groups {
            if submitted == windows {
                break;
            }
            submitted += 1;
            let (tickets, t0, op) = next_window(g, &mut phase, rec);
            match tickets {
                Some(t) => inflight.push_back((g, t, t0, op)),
                None => rec.end(op),
            }
        }
        while let Some((g, tickets, t0, op)) = inflight.pop_front() {
            let h = self.handle(g, 0);
            let ok = rec.span("core.wait_window", op.id(), || settled(&h, &tickets));
            let n = installed(&h, &tickets);
            rec.end(op);
            if ok && n == tickets.len() as u64 {
                phase.op_done(t0, start, n);
            } else {
                phase.installed += n;
                phase.note_error(format!("group {g}: {n} of {} installed", tickets.len()));
            }
            if submitted < windows {
                submitted += 1;
                let (tickets, t0, op) = next_window(g, &mut phase, rec);
                match tickets {
                    Some(t) => inflight.push_back((g, t, t0, op)),
                    None => rec.end(op),
                }
            }
        }
        phase
    }

    fn probe(
        &self,
        sizes: &Sizes,
        start: Instant,
        rng: &mut Rng,
        rec: &mut Recorder,
        done: &AtomicBool,
    ) -> Phase {
        let mut phase = Phase::default();
        let mut value = FRESH_BASE;
        let mut i = 0usize;
        while !done.load(Ordering::SeqCst) {
            let g = i % sizes.probe_groups;
            i += 1;
            let h = self.handle(g, 0);
            let mut update = deltas(1, rng, &mut value);
            let op = rec.begin("op.probe_round", 0);
            phase.attempted += 1;
            let t0 = Instant::now();
            let submitted = rec.span("core.submit_update", op.id(), || {
                let oid = self.object.clone();
                let update = update.pop().expect("one delta");
                phase.mutating += 1;
                h.invoke(move |c, ctx| c.submit_update(&oid, update, ctx))
            });
            let ticket = match submitted {
                Ok(t) => t,
                Err(e) => {
                    phase.note_error(format!("probe group {g}: submit_update: {e}"));
                    rec.end(op);
                    continue;
                }
            };
            let ok = rec.span("core.wait_round", op.id(), || settled(&h, &[ticket]));
            rec.end(op);
            if ok && installed(&h, &[ticket]) == 1 {
                phase.op_done(t0, start, 1);
            } else {
                phase.note_error(format!("probe group {g}: round not installed"));
            }
        }
        phase
    }

    /// Each group's members agree on the same state, and every party's
    /// evidence audits clean.
    pub fn check(&self) -> Vec<Check> {
        let mut agreed = true;
        for g in 0..self.groups {
            let states: Vec<Option<Vec<u8>>> = (0..2)
                .map(|p| {
                    let h = self.handle(g, p);
                    let oid = self.object.clone();
                    h.wait_until(SETUP_TIMEOUT, |c| {
                        c.pending_update_count(&oid) == 0 && !c.is_busy(&oid)
                    });
                    let oid = self.object.clone();
                    h.read(move |c| c.agreed_state(&oid))
                })
                .collect();
            agreed &= states[0].is_some() && states[0] == states[1];
        }
        let auditor = LogAuditor::new((*self.ring).clone(), None);
        let mut clean = true;
        let mut records = 0;
        for pair in &self.stores {
            for store in pair {
                let report = auditor.audit(store.as_ref());
                clean &= report.is_clean();
                records += report.total;
            }
        }
        vec![
            (
                "members of every group agree on the order".to_string(),
                agreed,
            ),
            (
                format!("evidence audit clean at every party ({records} records)"),
                clean,
            ),
        ]
    }

    /// Evidence-store lengths of the sampled groups, per party.
    pub fn evidence_marks(&self) -> Vec<Vec<usize>> {
        self.sampled()
            .map(|g| {
                (0..2)
                    .map(|p| self.handle(g, p).read(|c| c.evidence().len()))
                    .collect()
            })
            .collect()
    }

    /// Sampled groups: load groups only (the probes run a different
    /// batch size).
    fn sampled(&self) -> impl Iterator<Item = usize> {
        let first = self.groups.saturating_sub(EVIDENCE_SAMPLE_GROUPS);
        first..self.groups
    }

    /// Records the sampled groups appended since `marks`.
    pub fn evidence_since(&self, marks: &[Vec<usize>]) -> EvidenceSample {
        let mut sample = EvidenceSample::default();
        for (g, parties) in self.sampled().zip(marks) {
            let group: Vec<_> = parties
                .iter()
                .enumerate()
                .map(|(p, &from)| {
                    self.handle(g, p).read(|c| {
                        let records = c.evidence().records();
                        (
                            c.party().clone(),
                            records[from.min(records.len())..].to_vec(),
                        )
                    })
                })
                .collect();
            sample.add_group(&group);
        }
        sample
    }

    /// Stops both endpoints.
    pub fn shutdown(self) {
        self.net.shutdown();
    }
}
