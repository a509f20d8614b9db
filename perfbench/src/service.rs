//! The `order-sync` and `order-bulk` workloads: `b2b-server` in process,
//! driven over loopback HTTP by two keep-alive client connections.

use crate::layers::EvidenceSample;
use crate::spans::Recorder;
use crate::{Check, Phase, Rng, Sizes, Workload, LOAD_THREADS, OP_TIMEOUT};
use b2b_apps::OrderUpdate;
use b2b_core::{CoordinatorConfig, ObjectId};
use b2b_crypto::VerifyPool;
use b2b_net::HttpClient;
use b2b_server::{OrderServer, OrderServerOptions, ROLES};
use b2b_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Items every order carries; each update changes one of them.
pub const ITEMS: u64 = 4;

/// HTTP worker threads: one per load connection, one for set-up and
/// checks, one spare.
const HTTP_WORKERS: usize = LOAD_THREADS + 2;

/// Orders whose evidence is sampled for the per-layer record sizes.
const EVIDENCE_SAMPLE_GROUPS: usize = 4;

/// Seed quantities and prices stay below this; measured-phase values
/// start above it, so no update re-proposes the agreed state.
const FRESH_BASE: u64 = 1_000_000;

/// A running order service plus its provisioning facts.
pub struct Service {
    server: OrderServer,
    telemetry: Telemetry,
    parties: usize,
    orders: usize,
    shards: usize,
    verify_workers: usize,
}

/// Pulls the integer array `"key":[n,…]` out of a JSON body.
fn int_array(body: &str, key: &str) -> Vec<u64> {
    let tag = format!("\"{key}\":[");
    let Some(at) = body.find(&tag) else {
        return Vec::new();
    };
    let rest = &body[at + tag.len()..];
    let end = rest.find(']').unwrap_or(rest.len());
    rest[..end]
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// One bulk element: a customer quantity or a supplier price.
fn bulk_op(role: usize, item: u64, value: u64) -> String {
    if role == 0 {
        format!("{{\"op\":\"line\",\"item\":\"i{item}\",\"qty\":{value}}}")
    } else {
        format!("{{\"op\":\"price\",\"item\":\"i{item}\",\"unit_price\":{value}}}")
    }
}

/// Outcome of draining one window of tickets.
enum Drained {
    /// Every ticket installed.
    Installed,
    /// Some did not: how many installed, and why the rest failed.
    Failed(u64, String),
}

/// Long-polls `tickets` until every one is terminal (or [`OP_TIMEOUT`]).
fn drain(http: &mut HttpClient, tickets: &[u64], phase: &mut Phase) -> Drained {
    let ids: Vec<String> = tickets.iter().map(|t| t.to_string()).collect();
    let path = format!("/tickets?ids={}&wait_ms=10000", ids.join(","));
    let deadline = Instant::now() + OP_TIMEOUT;
    loop {
        let t = Instant::now();
        let answer = http.get(&path);
        phase.requests += 1;
        phase.time("tickets", t);
        let body = match answer {
            Ok((200, body)) => body,
            Ok((status, body)) => return Drained::Failed(0, format!("tickets {status}: {body}")),
            Err(e) => return Drained::Failed(0, format!("tickets: {e}")),
        };
        let installed = body.matches("\"status\":\"installed\"").count() as u64;
        if installed == tickets.len() as u64 {
            return Drained::Installed;
        }
        let pending = body.matches("\"status\":\"pending\"").count();
        if pending == 0 || Instant::now() >= deadline {
            return Drained::Failed(installed, format!("window ended: {body}"));
        }
    }
}

/// POSTs until the answer is not `429`, counting refusals.
fn post_admitted(
    http: &mut HttpClient,
    path: &str,
    body: &str,
    route: &'static str,
    phase: &mut Phase,
) -> std::io::Result<(u16, String)> {
    loop {
        let t = Instant::now();
        let answer = http.post(path, body);
        phase.requests += 1;
        phase.mutating += 1;
        phase.time(route, t);
        match answer {
            Ok((429, _)) => {
                phase.refused += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            other => return other,
        }
    }
}

impl Service {
    /// Boots the server (fleet spawn and membership rounds), creates
    /// every order, seeds its lines (and, four-party, their prices) and
    /// warms the request path.
    pub fn start(workload: Workload, sizes: &Sizes, seed: u64) -> Service {
        let parties = if workload == Workload::OrderSync {
            2
        } else {
            4
        };
        let telemetry = Telemetry::new();
        let shards = crate::nproc();
        let pool = Arc::new(VerifyPool::with_default_parallelism());
        let verify_workers = pool.workers();
        let server = OrderServer::start(OrderServerOptions {
            orders: sizes.groups,
            parties,
            shards: Some(shards),
            http_workers: HTTP_WORKERS,
            config: CoordinatorConfig::default().batch_max(sizes.window.max(1)),
            telemetry: telemetry.clone(),
            verify_pool: Some(pool),
            sync_timeout: OP_TIMEOUT,
            ..OrderServerOptions::default()
        })
        .expect("order server starts");
        let svc = Service {
            server,
            telemetry,
            parties,
            orders: sizes.groups,
            shards,
            verify_workers,
        };
        let mut http = HttpClient::connect(svc.server.addr()).expect("connect to order server");
        for _ in 0..svc.orders {
            let (status, body) = http.post("/orders", "").expect("create order");
            assert_eq!(status, 201, "create order: {body}");
        }
        // Seed lines, then (four-party) prices: one deferred bulk per
        // order, all in flight together, drained 64 tickets at a time.
        let mut rng = Rng::new(seed, 100);
        let roles = if parties == 4 { 2 } else { 1 };
        for (role, name) in ROLES.iter().enumerate().take(roles) {
            let mut tickets = Vec::new();
            for g in 0..svc.orders {
                let ops: Vec<String> = (0..ITEMS)
                    .map(|i| bulk_op(role, i, 1 + rng.below(FRESH_BASE / 2)))
                    .collect();
                let path = format!("/orders/{g}/bulk?mode=deferred&as={name}");
                let (status, body) = http
                    .post(&path, &format!("{{\"ops\":[{}]}}", ops.join(",")))
                    .expect("seed order");
                assert_eq!(status, 202, "seed order {g}: {body}");
                tickets.extend(int_array(&body, "tickets"));
            }
            let mut scratch = Phase::default();
            for chunk in tickets.chunks(64) {
                assert!(
                    matches!(drain(&mut http, chunk, &mut scratch), Drained::Installed),
                    "seed lines must install"
                );
            }
        }
        // Warm-up: one update per order on the measured path.
        for g in 0..svc.orders {
            let value = FRESH_BASE / 2 + 1 + g as u64;
            let (status, body) = if workload == Workload::OrderSync {
                http.post(
                    &format!("/orders/{g}/lines?mode=sync"),
                    &format!("{{\"item\":\"i0\",\"qty\":{value}}}"),
                )
            } else {
                http.post(
                    &format!("/orders/{g}/bulk?mode=sync"),
                    &format!("{{\"ops\":[{}]}}", bulk_op(0, 0, value)),
                )
            }
            .expect("warm-up update");
            assert_eq!(status, 200, "warm-up update on order {g}: {body}");
        }
        svc
    }

    /// The server's telemetry registry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Thread counts of the service, for provenance.
    pub fn threads(&self) -> BTreeMap<&'static str, usize> {
        BTreeMap::from([
            ("http_workers", HTTP_WORKERS),
            ("shards", self.shards),
            ("verify_pool_workers", self.verify_workers),
            ("parties", self.parties),
            ("orders", self.orders),
        ])
    }

    /// Runs `client` on every load thread against one shared quota of
    /// `total` units, and merges what the threads saw.
    fn drive(&self, total: u64, client: impl Fn(Load, usize) -> Phase + Sync) -> Phase {
        let next = AtomicU64::new(0);
        let load = Load {
            addr: self.server.addr(),
            orders: self.orders,
            next: &next,
            total,
            start: Instant::now(),
        };
        let mut phase = std::thread::scope(|s| {
            let client = &client;
            let workers: Vec<_> = (0..LOAD_THREADS)
                .map(|t| s.spawn(move || client(load, t)))
                .collect();
            let mut all = Phase::default();
            for w in workers {
                all.absorb(w.join().expect("load thread"));
            }
            all
        });
        phase.wall_s = load.start.elapsed().as_secs_f64();
        phase
    }

    /// Runs the measured phase: two load threads, one connection each.
    pub fn run(
        &self,
        workload: Workload,
        sizes: &Sizes,
        seed: u64,
        traced: bool,
        epoch: Instant,
    ) -> Phase {
        let window = sizes.window as u64;
        self.drive(sizes.ops.div_ceil(window), |load, t| {
            let mut rec = Recorder::new(traced, epoch, t as u32);
            let mut rng = Rng::new(seed, t as u64);
            let mut phase = match workload {
                Workload::OrderSync => sync_client(load, t, &mut rng, &mut rec),
                _ => bulk_client(load, t, window, &mut rng, &mut rec),
            };
            phase.spans = rec.into_spans();
            phase
        })
    }

    /// Core rounds without HTTP (order-sync's `core.sync_round_us`),
    /// interleaved with the same updates over HTTP: the same orders, load
    /// threads and op count as the measured phase.
    pub fn run_core(&self, sizes: &Sizes, seed: u64) -> Phase {
        self.drive(sizes.ops, |load, t| {
            core_client(&self.server, load, t, &mut Rng::new(seed, t as u64))
        })
    }

    /// Replicas agree, and every party's evidence audits clean.
    pub fn check(&self) -> Vec<Check> {
        let converged = self.server.wait_converged(Duration::from_secs(120));
        let (clean, records) = self.server.audit();
        vec![
            ("replicas converged on every order".to_string(), converged),
            (
                format!("evidence audit clean at every party ({records} records)"),
                clean,
            ),
        ]
    }

    /// Evidence-store lengths of the sampled orders, per party.
    pub fn evidence_marks(&self) -> Vec<Vec<usize>> {
        (0..EVIDENCE_SAMPLE_GROUPS.min(self.orders))
            .map(|g| {
                (0..self.parties)
                    .map(|p| self.server.handle(g, p).read(|c| c.evidence().len()))
                    .collect()
            })
            .collect()
    }

    /// Records the sampled orders appended since `marks`.
    pub fn evidence_since(&self, marks: &[Vec<usize>]) -> EvidenceSample {
        let mut sample = EvidenceSample::default();
        for (g, parties) in marks.iter().enumerate() {
            let group: Vec<_> = parties
                .iter()
                .enumerate()
                .map(|(p, &from)| {
                    self.server.handle(g, p).read(|c| {
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

    /// Stops the HTTP front-end and the engine fleet.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// What the load threads of one phase share.
#[derive(Clone, Copy)]
struct Load<'a> {
    addr: SocketAddr,
    orders: usize,
    /// Ops (order-sync) or windows (order-bulk) claimed so far.
    next: &'a AtomicU64,
    /// The phase's quota of them. The threads share one quota, so they
    /// finish together instead of one running on alone.
    total: u64,
    start: Instant,
}

impl Load<'_> {
    /// Claims one unit of the quota; `false` once it is used up.
    fn claim(&self) -> bool {
        // A statistic only: it publishes no other data.
        self.next.fetch_add(1, Ordering::Relaxed) < self.total
    }
}

/// The order-sync load thread with and without HTTP, alternating: even
/// ops are core rounds — `handle(g, 0).invoke(submit_update)` then
/// `wait_until(outcome_of_ticket)` — and odd ops the same update as a
/// synchronous `POST /orders/:id/lines`, so both see the same fleet,
/// memory and moment.
fn core_client(server: &OrderServer, load: Load, t: usize, rng: &mut Rng) -> Phase {
    let mut phase = Phase::default();
    let mut http = HttpClient::connect(load.addr).expect("load connection");
    let object = ObjectId::new("order");
    let owned: Vec<usize> = (t..load.orders).step_by(LOAD_THREADS).collect();
    for i in (0..).take_while(|_| load.claim()) {
        let g = owned[i as usize % owned.len()];
        let item = format!("i{}", rng.below(ITEMS));
        let qty = fresh(i, t);
        phase.attempted += 1;
        if i % 2 == 1 {
            let body = format!("{{\"item\":\"{item}\",\"qty\":{qty}}}");
            let path = format!("/orders/{g}/lines?mode=sync");
            match post_admitted(&mut http, &path, &body, "lines", &mut phase) {
                Ok((200, body)) if body.contains("\"installed\"") => phase.installed += 1,
                other => phase.note_error(format!("order {g}: {other:?}")),
            }
            continue;
        }
        let handle = server.handle(g, 0);
        let delta = OrderUpdate::SetQuantity {
            item,
            qty: qty as u32,
        }
        .to_bytes();
        phase.mutating += 1;
        let t0 = Instant::now();
        let oid = object.clone();
        let ticket = match handle.invoke(move |c, ctx| c.submit_update(&oid, delta, ctx)) {
            Ok(ticket) => ticket,
            Err(e) => {
                phase.note_error(format!("order {g}: submit_update: {e}"));
                continue;
            }
        };
        let done = handle.wait_until(OP_TIMEOUT, move |c| c.outcome_of_ticket(&ticket).is_some());
        if done
            && handle.read(move |c| {
                c.outcome_of_ticket(&ticket)
                    .is_some_and(|o| o.is_installed())
            })
        {
            phase.op_done(t0, load.start, 1);
        } else {
            phase.note_error(format!("order {g}: core round not installed"));
        }
    }
    phase
}

/// The quantity of thread `t`'s `i`-th order-sync update: above every
/// seed and warm-up value and never repeated, since the threads own
/// disjoint orders.
fn fresh(i: u64, t: usize) -> u64 {
    FRESH_BASE + (i + 1) * LOAD_THREADS as u64 + t as u64
}

/// order-sync load thread `t`: round-robin over its own orders, each op a
/// synchronous customer update followed by a read of the order.
fn sync_client(load: Load, t: usize, rng: &mut Rng, rec: &mut Recorder) -> Phase {
    let mut phase = Phase::default();
    let mut http = HttpClient::connect(load.addr).expect("load connection");
    let owned: Vec<usize> = (t..load.orders).step_by(LOAD_THREADS).collect();
    for i in (0..).take_while(|_| load.claim()) {
        let g = owned[i as usize % owned.len()];
        let item = rng.below(ITEMS);
        let qty = fresh(i, t);
        let op = rec.begin("op.sync_update", 0);
        phase.attempted += 1;
        let t0 = Instant::now();
        let answer = rec.span("http.post_lines", op.id(), || {
            post_admitted(
                &mut http,
                &format!("/orders/{g}/lines?mode=sync"),
                &format!("{{\"item\":\"i{item}\",\"qty\":{qty}}}"),
                "lines",
                &mut phase,
            )
        });
        let installed = match answer {
            Ok((200, body)) if body.contains("\"installed\"") => {
                phase.op_done(t0, load.start, 1);
                true
            }
            Ok((status, body)) => {
                phase.note_error(format!("order {g}: {status} {body}"));
                false
            }
            Err(e) => {
                phase.note_error(format!("order {g}: {e}"));
                http = HttpClient::connect(load.addr).expect("reconnect");
                false
            }
        };
        let t1 = Instant::now();
        let read = rec.span("http.get_order", op.id(), || {
            http.get(&format!("/orders/{g}"))
        });
        phase.requests += 1;
        phase.time("get_order", t1);
        rec.end(op);
        // An update reported installed must show in the read that follows.
        let needle = format!("\"item\":\"i{item}\",\"qty\":{qty},");
        let shown = match read {
            Ok((200, body)) => body.contains(&needle) || !installed,
            Ok((status, body)) => {
                phase.note_error(format!("read of order {g}: {status} {body}"));
                false
            }
            Err(e) => {
                phase.note_error(format!("read of order {g}: {e}"));
                http = HttpClient::connect(load.addr).expect("reconnect");
                false
            }
        };
        if installed && !shown {
            phase.installed -= 1;
            phase.note_error(format!("read of order {g} lacks {needle}"));
        }
    }
    phase
}

/// order-bulk load thread `t`: thread 0 is the customer sending quantity
/// windows, thread 1 the supplier sending price windows, both visiting
/// every order round-robin (the supplier half an order-cycle behind).
fn bulk_client(load: Load, t: usize, window: u64, rng: &mut Rng, rec: &mut Recorder) -> Phase {
    let mut phase = Phase::default();
    let mut http = HttpClient::connect(load.addr).expect("load connection");
    let role = t % 2;
    let mut value = FRESH_BASE;
    for w in (0..).take_while(|_| load.claim()) {
        let g = (w as usize + t * load.orders / LOAD_THREADS) % load.orders;
        let ops: Vec<String> = (0..window)
            .map(|_| {
                value += 1;
                bulk_op(role, rng.below(ITEMS), value)
            })
            .collect();
        let op = rec.begin("op.window", 0);
        phase.attempted += window;
        let t0 = Instant::now();
        let answer = rec.span("http.post_bulk", op.id(), || {
            post_admitted(
                &mut http,
                &format!("/orders/{g}/bulk?mode=deferred&as={}", ROLES[role]),
                &format!("{{\"ops\":[{}]}}", ops.join(",")),
                "bulk",
                &mut phase,
            )
        });
        let tickets = match answer {
            Ok((202, body)) => int_array(&body, "tickets"),
            Ok((status, body)) => {
                phase.note_error(format!("order {g}: bulk {status} {body}"));
                rec.end(op);
                continue;
            }
            Err(e) => {
                phase.note_error(format!("order {g}: bulk {e}"));
                http = HttpClient::connect(load.addr).expect("reconnect");
                rec.end(op);
                continue;
            }
        };
        let drained = rec.span("http.get_tickets", op.id(), || {
            drain(&mut http, &tickets, &mut phase)
        });
        rec.end(op);
        match drained {
            Drained::Installed if tickets.len() as u64 == window => {
                phase.op_done(t0, load.start, window)
            }
            Drained::Installed => phase.note_error(format!(
                "order {g}: {} tickets for {window} ops",
                tickets.len()
            )),
            Drained::Failed(installed, why) => {
                phase.installed += installed;
                phase.note_error(format!("order {g}: {why}"));
            }
        }
    }
    phase
}
