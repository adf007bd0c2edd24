//! The timed phases: open loop, saturation and attack.

use crate::inputs::Schedule;
use crate::setup::Prepared;
use crate::stats::Ops;
use crate::trace::Tracer;
use duo_attack::DuoAttack;
use duo_retrieval::{EpochTransition, QueryOracle};
use duo_serve::{ClientHandle, ClientStats, RetrievalService, ServiceOracle};
use duo_tensor::Rng64;
use duo_video::{Video, VideoId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SALT_SATURATION: u64 = 0x5A7_0000;
const SALT_ATTACK: u64 = 0xA77A_C000;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// A successful read: the pool clip it queried and the list it got.
pub type Reply = (usize, Vec<VideoId>);

/// What the open phase measured.
#[derive(Debug, Default)]
pub struct Open {
    /// Reads, timed from their due time to the reply.
    pub reads: Ops,
    /// How late each read was sent against its due time, ms.
    pub lags_ms: Vec<f64>,
    /// Wall time of each `ClientHandle::retrieve` call, ms.
    pub calls_ms: Vec<f64>,
    /// Mutation batches, timed per `MutatorHandle::apply` call.
    pub writes: Ops,
    /// The epoch transition of each successful write.
    pub transitions: Vec<EpochTransition>,
    /// Rebalances, timed per `MutatorHandle::rebalance` call.
    pub rebalances: Ops,
    /// Successful reads.
    pub replies: Vec<Reply>,
    /// The reader clients' counters at the end of the phase.
    pub clients: Vec<ClientStats>,
}

impl Open {
    /// Folds another reader's, the writer's or another round's results
    /// into these.
    pub fn absorb(&mut self, other: Open) {
        self.reads.absorb(&other.reads);
        self.lags_ms.extend(other.lags_ms);
        self.calls_ms.extend(other.calls_ms);
        self.writes.absorb(&other.writes);
        self.transitions.extend(other.transitions);
        self.rebalances.absorb(&other.rebalances);
        self.replies.extend(other.replies);
        self.clients.extend(other.clients);
    }
}

/// Runs one round's open-loop schedule. `readers` threads, each its own client,
/// take reads in schedule order, sleep until each is due and time it
/// from then, so a stall delays and charges every later read. One writer
/// thread applies the mutation batches in plan order at their due times,
/// so a long publish never holds up a read inside the generator.
pub fn open(p: &Prepared, schedule: &Schedule, tracer: &Tracer, readers: usize) -> Open {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let due = |s: f64| t0 + Duration::from_secs_f64(s);
    let mut total = Open::default();
    std::thread::scope(|scope| {
        let writer = {
            let mutator = p.service.mutator();
            scope.spawn(move || {
                let mut local = Open::default();
                for &(at, k) in &schedule.writes {
                    sleep_until(due(at));
                    let start = Instant::now();
                    let result = tracer.span("serve.apply", None, k as u64, |_| {
                        mutator.apply(&p.plan.batches[k])
                    });
                    local.writes.record(&result, ms(start.elapsed()));
                    local.transitions.extend(result.ok());
                    if p.plan.rebalance_after(k) {
                        let start = Instant::now();
                        let result =
                            tracer.span("serve.rebalance", None, k as u64, |_| mutator.rebalance());
                        local.rebalances.record(&result, ms(start.elapsed()));
                    }
                }
                local
            })
        };
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let client = p.service.client(None, None);
                let next = &next;
                scope.spawn(move || {
                    let mut local = Open::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&(at, q)) = schedule.reads.get(i) else {
                            break;
                        };
                        let due = due(at);
                        sleep_until(due);
                        let (root, call) = (tracer.reserve(), tracer.reserve());
                        let start = Instant::now();
                        let result = client.retrieve(&p.pool[q]);
                        let end = Instant::now();
                        tracer.record(call, "serve.retrieve", Some(root), i as u64, start, end);
                        tracer.record(root, "gen.request", None, i as u64, due, end);
                        local.lags_ms.push(ms(start - due));
                        local.calls_ms.push(ms(end - start));
                        local.reads.record(&result, ms(end - due));
                        if let Ok(list) = result {
                            local.replies.push((q, list));
                        }
                    }
                    local.clients.extend(client.stats());
                    local
                })
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("open-loop reader panicked"));
        }
        total.absorb(writer.join().expect("open-loop writer panicked"));
    });
    total
}

/// What the saturation phase measured.
#[derive(Debug, Default)]
pub struct Saturation {
    /// Closed-loop reads, timed per call.
    pub ops: Ops,
    /// Successful reads.
    pub replies: Vec<Reply>,
    /// Phase wall time, seconds.
    pub elapsed_s: f64,
    /// The sender clients' counters at the end of the phase.
    pub clients: Vec<ClientStats>,
}

impl Saturation {
    /// Completed reads per second of phase wall time.
    pub fn capacity_qps(&self) -> f64 {
        self.ops.succeeded as f64 / self.elapsed_s
    }

    /// Folds another round's phase into this one, keeping its replies
    /// out: those are checked round by round.
    pub fn absorb(&mut self, other: Saturation) {
        self.ops.absorb(&other.ops);
        self.elapsed_s += other.elapsed_s;
        self.clients.extend(other.clients);
    }
}

/// `senders` closed-loop clients send seeded pool clips back to back for
/// `length`.
pub fn saturation(
    p: &Prepared,
    tracer: &Tracer,
    senders: usize,
    length: Duration,
    seed: u64,
) -> Saturation {
    let t0 = Instant::now();
    let stop = t0 + length;
    let mut total = Saturation::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|thread| {
                let client = p.service.client(None, None);
                scope.spawn(move || {
                    let mut rng = Rng64::new(seed ^ SALT_SATURATION ^ thread as u64);
                    let mut local = Saturation::default();
                    let mut request = (thread as u64) << 32;
                    while Instant::now() < stop {
                        let q = rng.below(p.pool.len());
                        let start = Instant::now();
                        let result = tracer.span("serve.retrieve", None, request, |_| {
                            client.retrieve(&p.pool[q])
                        });
                        local.ops.record(&result, ms(start.elapsed()));
                        if let Ok(list) = result {
                            local.replies.push((q, list));
                        }
                        request += 1;
                    }
                    local.clients.extend(client.stats());
                    local
                })
            })
            .collect();
        for handle in handles {
            let local = handle.join().expect("saturation sender panicked");
            total.ops.absorb(&local.ops);
            total.replies.extend(local.replies);
            total.clients.extend(local.clients);
        }
    });
    total.elapsed_s = t0.elapsed().as_secs_f64();
    total
}

/// The attacker's [`QueryOracle`]: a [`ServiceOracle`] that times every
/// call into the service. Against a defended service it also rotates to
/// a fresh account before the streaming detector's throttle band could
/// start, the way an attacker holding many accounts would; undefended,
/// one account serves the whole attack.
struct AttackerOracle<'a> {
    service: &'a RetrievalService,
    rotate_every: Option<u64>,
    accounts: Vec<ClientHandle>,
    current: ServiceOracle,
    sent_on_current: u64,
    tracer: &'a Tracer,
    parent: u64,
    request: u64,
    ops: Ops,
}

impl<'a> AttackerOracle<'a> {
    fn new(service: &'a RetrievalService, tracer: &'a Tracer, parent: u64, request: u64) -> Self {
        let client = service.client(None, None);
        AttackerOracle {
            service,
            rotate_every: service
                .config()
                .defense
                .map(|d| d.stream.throttle_after.saturating_sub(1).max(1)),
            current: ServiceOracle::new(client.clone()),
            accounts: vec![client],
            sent_on_current: 0,
            tracer,
            parent,
            request,
            ops: Ops::default(),
        }
    }
}

impl QueryOracle for AttackerOracle<'_> {
    fn retrieve(&mut self, video: &Video) -> duo_retrieval::Result<Vec<VideoId>> {
        if self.rotate_every == Some(self.sent_on_current) {
            let client = self.service.client(None, None);
            self.current = ServiceOracle::new(client.clone());
            self.accounts.push(client);
            self.sent_on_current = 0;
        }
        self.sent_on_current += 1;
        let id = self.tracer.reserve();
        let start = Instant::now();
        let result = self.current.retrieve(video);
        let end = Instant::now();
        self.tracer.record(
            id,
            "attack.oracle",
            Some(self.parent),
            self.request,
            start,
            end,
        );
        self.ops.record(&result, ms(end - start));
        result
    }

    fn queries_used(&self) -> u64 {
        self.accounts.iter().map(ClientHandle::queries_used).sum()
    }

    fn budget_remaining(&self) -> Option<u64> {
        None
    }

    fn m(&self) -> usize {
        self.current.m()
    }
}

/// One attack's outcome.
#[derive(Debug)]
pub struct AttackRun {
    /// The `(v, v_t)` pair.
    pub pair: (VideoId, VideoId),
    /// `DuoAttack::run` wall time, seconds.
    pub wall_s: f64,
    /// Oracle wall time inside the attack, seconds.
    pub oracle_s: f64,
    /// Queries the attack reports, read from the service's ledgers.
    pub queries: u64,
    /// Oracle calls answered, as counted by the timing wrapper. Each
    /// answered call is billed exactly once (deadline-shed retries are
    /// refunded, refusals are never charged), so it must equal `queries`.
    pub answered: u64,
    /// The adversarial clip.
    pub adversarial: Video,
    /// Perturbed elements (Spa).
    pub spa: usize,
    /// Largest absolute perturbation (L∞).
    pub linf: f32,
}

/// What the attack phase measured.
#[derive(Debug, Default)]
pub struct Attacks {
    /// Completed attacks.
    pub runs: Vec<AttackRun>,
    /// Every oracle call, timed per call.
    pub oracle: Ops,
    /// Attacks that returned an error.
    pub errors: Vec<String>,
}

impl Attacks {
    /// Folds another round's attacks into these.
    pub fn absorb(&mut self, other: Attacks) {
        self.runs.extend(other.runs);
        self.oracle.absorb(&other.oracle);
        self.errors.extend(other.errors);
    }
}

/// One closed-loop attacker runs DUO on every planned pair, in order, each
/// pair on fresh service accounts so its charges are its own. Every round
/// starts from the stolen surrogate and seeds each pair's attack from the
/// pair's index, so all rounds do the same work.
pub fn attacks(p: &Prepared, tracer: &Tracer, seed: u64) -> Attacks {
    let mut attack = DuoAttack::new(p.surrogate.clone(), p.duo);
    let mut total = Attacks::default();
    for (k, (pair, (v, v_t))) in p.pairs.iter().enumerate() {
        let root = tracer.reserve();
        let mut oracle = AttackerOracle::new(&p.service, tracer, root, k as u64);
        let mut rng = Rng64::new(seed ^ SALT_ATTACK ^ (k as u64).wrapping_mul(0x9E37_79B9));
        let start = Instant::now();
        let outcome = attack.run(&mut oracle, v, v_t, &mut rng);
        let end = Instant::now();
        tracer.record(root, "attack.run", None, k as u64, start, end);
        total.oracle.absorb(&oracle.ops);
        match outcome {
            Ok(outcome) => total.runs.push(AttackRun {
                pair: *pair,
                wall_s: (end - start).as_secs_f64(),
                oracle_s: oracle
                    .ops
                    .latencies_ms
                    .iter()
                    .filter(|x| x.is_finite())
                    .sum::<f64>()
                    / 1e3,
                queries: outcome.queries,
                answered: oracle.ops.succeeded,
                spa: outcome.spa(),
                linf: outcome
                    .perturbation
                    .as_slice()
                    .iter()
                    .fold(0.0f32, |m, x| m.max(x.abs())),
                adversarial: outcome.adversarial,
            }),
            Err(e) => total.errors.push(format!("pair {pair:?}: {e}")),
        }
    }
    total
}
