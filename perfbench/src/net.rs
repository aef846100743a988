//! `net-interactive`: queries through the TCP coordinator daemon, with
//! two `PlayerSession`s on threads over loopback, everything confined to
//! one CPU.
//!
//! Set-up binds a `TcpCoordinator`, starts the players, makes the input,
//! hands each player its share and registers both (`accept_players_with`);
//! each player then builds its state. Every query re-keys the players
//! with `adopt_shared`, as `triad serve --runs` does between sessions,
//! and runs `UnrestrictedTester::run_on` over `Runtime<Tally>` and
//! `SharedTransport` on a triangle-free input, so every query does the
//! full search: ~12 000 request/response round trips of the smallest
//! frames over the same registration.

use crate::trace::{Trace, Tracer};
use crate::{
    fold, jnum, jstr, median_setup, phases, report_tracing, stats, sub_seed, Ctx, Loop, Report,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use triad_comm::player::players_from_shares;
use triad_comm::runtime::SharedTransport;
use triad_comm::wire::{read_frame, write_frame, WireMessage};
use triad_comm::{
    CommStats, ConnectOptions, CostModel, LocalTransport, NetError, Payload, PayloadRepr,
    PlayerRequest, PlayerSession, PlayerState, RunError, Runtime, ServeConfig, ServeSummary,
    SessionOptions, SharedRandomness, SimMessage, Tally, TcpCoordinator, TcpTransport, Transport,
};
use triad_graph::partition::{random_disjoint, Partition};
use triad_graph::{Edge, Graph};
use triad_protocols::amplify::rep_seed;
use triad_protocols::{TestOutcome, Tuning, UnrestrictedTester};

const PLAYERS: usize = 2;
const N: usize = 1000;
const D: f64 = 8.0;
const EPSILON: f64 = 0.2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Distinct public seeds the queries cycle through.
const SEED_CYCLE: u32 = 16;
const TIMEOUT: Duration = Duration::from_secs(30);

/// The triangle-free input graph and its split between the players.
fn input(seed: u64) -> (Graph, Partition) {
    let mut rng = ChaCha8Rng::seed_from_u64(sub_seed(seed, 1));
    let graph = crate::bipartite(N, D, &mut rng);
    let partition = random_disjoint(&graph, PLAYERS, &mut rng);
    (graph, partition)
}

fn tuning() -> Tuning {
    // What `triad serve` uses by default.
    Tuning::practical(EPSILON).with_repr(PayloadRepr::Auto)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The transport keeps no invariant a panicked holder could break
    // that a later delivery would not report as a typed error.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The player threads; dropping it joins every one of them.
struct Players(Vec<JoinHandle<Result<ServeSummary, NetError>>>);

impl Players {
    fn join(&mut self) -> Vec<Result<ServeSummary, String>> {
        self.0
            .drain(..)
            .map(|h| match h.join() {
                Ok(Ok(summary)) => Ok(summary),
                Ok(Err(e)) => Err(e.to_string()),
                Err(_) => Err("a player thread panicked".into()),
            })
            .collect()
    }
}

impl Drop for Players {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// A registered daemon: the coordinator's transport, the player
/// threads serving it, and the input they hold.
struct Daemon {
    handle: Arc<Mutex<TcpTransport>>,
    players: Players,
    graph: Graph,
    partition: Partition,
    census_ms: f64,
}

impl Daemon {
    /// Says goodbye and joins the players, returning their summaries.
    fn finish(&mut self) -> Vec<Result<ServeSummary, String>> {
        lock(&self.handle).goodbye("done");
        self.players.join()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// One player: dial, learn the slot, take the share, build the state,
/// serve until the coordinator says goodbye.
fn player(
    slot: usize,
    addr: SocketAddr,
    dialing: mpsc::Sender<()>,
    share: mpsc::Receiver<Vec<Edge>>,
    ready: mpsc::Sender<()>,
    tracer: Arc<Tracer>,
) -> Result<ServeSummary, NetError> {
    let opts = ConnectOptions {
        slot: Some(slot as u32),
        timeout: TIMEOUT,
        ..ConnectOptions::default()
    };
    let _ = dialing.send(());
    let s = tracer.begin("daemon.connect", 0, 0);
    let session = PlayerSession::connect_with(addr, &opts);
    tracer.end(s);
    let session = session?;
    let share = share
        .recv()
        .map_err(|_| NetError::Protocol("set-up ended before the share arrived".into()))?;
    let n = session.welcome().n as usize;
    let s = tracer.begin("player.prepare", 0, 0);
    let state = PlayerState::new(slot, n, &share);
    tracer.end(s);
    let _ = ready.send(());
    // An interactive run never asks for a one-round message.
    session.serve(&state, |_, _| SimMessage::empty())
}

/// Brings up one daemon. The players dial before the coordinator starts
/// polling its listener, and the input is made while their connections
/// wait in the backlog, so the census accepts without sleeping.
fn bring_up(seed: u64, first_seed: u64, tracer: &Arc<Tracer>) -> Result<Daemon, String> {
    // Declared first so it drops last: by then the listener and the
    // share senders are gone and every player thread can exit.
    let mut players = Players(Vec::new());
    let coordinator = TcpCoordinator::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("local address: {e}"))?;
    let (dial_tx, dial_rx) = mpsc::channel();
    let (ready_tx, ready_rx) = mpsc::channel();
    let mut share_txs = Vec::new();
    for slot in 0..PLAYERS {
        let (share_tx, share_rx) = mpsc::channel();
        share_txs.push(share_tx);
        let (dialing, ready, tracer) = (dial_tx.clone(), ready_tx.clone(), Arc::clone(tracer));
        players.0.push(std::thread::spawn(move || {
            player(slot, addr, dialing, share_rx, ready, tracer)
        }));
    }
    drop((dial_tx, ready_tx));
    for _ in 0..PLAYERS {
        dial_rx
            .recv()
            .map_err(|_| "a player exited before dialing".to_string())?;
    }
    // Hand the CPU to the dialing players before making the input.
    std::thread::yield_now();
    let (graph, partition) = input(seed);
    for (tx, share) in share_txs.iter().zip(partition.shares()) {
        tx.send(share.clone())
            .map_err(|_| "a player exited before its share arrived".to_string())?;
    }
    let cfg = ServeConfig {
        k: PLAYERS,
        n: graph.vertex_count(),
        seed: first_seed,
        cost_model: CostModel::Coordinator,
        protocol: "unrestricted".into(),
        params: format!("eps={EPSILON} repr=auto"),
    };
    let s = tracer.begin("daemon.census", 0, 0);
    let start = Instant::now();
    let transport = coordinator.accept_players_with(&cfg, TIMEOUT, &SessionOptions::default());
    let census_ms = start.elapsed().as_secs_f64() * 1e3;
    tracer.end(s);
    let transport = transport.map_err(|e| format!("census: {e}"))?;
    for _ in 0..PLAYERS {
        ready_rx
            .recv()
            .map_err(|_| "a player exited while building its state".to_string())?;
    }
    Ok(Daemon {
        handle: Arc::new(Mutex::new(transport)),
        players,
        graph,
        partition,
        census_ms,
    })
}

/// Request deliveries counted and timed by [`TimedTransport`].
#[derive(Debug, Default)]
struct Deliveries {
    first: Option<Instant>,
    busy_ns: u64,
    calls: u64,
}

/// Times every delivery of the wrapped transport (traced queries only).
struct TimedTransport<T> {
    inner: T,
    deliveries: Arc<Mutex<Deliveries>>,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        let start = Instant::now();
        let out = self.inner.try_deliver(player, req);
        let ns = start.elapsed().as_nanos() as u64;
        let mut d = lock(&self.deliveries);
        d.first.get_or_insert(start);
        d.busy_ns += ns;
        d.calls += 1;
        out
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        self.inner.adopt_shared(shared);
    }
}

/// What one query returned.
struct Answer {
    latency_ms: f64,
    outcome: TestOutcome,
    stats: CommStats,
    /// Set when the query ended in a typed error.
    fault: Option<RunError>,
}

fn query(d: &Daemon, tracer: &Tracer, q: u32, shared: SharedRandomness) -> Answer {
    let start = Instant::now();
    let qs = tracer.begin("query", 0, q);
    let s = tracer.begin("tcp.reseed", qs.id, q);
    lock(&d.handle).adopt_shared(shared);
    tracer.end(s);
    let s = tracer.begin("runtime.run_on", qs.id, q);
    let plain = SharedTransport::new(Arc::clone(&d.handle));
    let deliveries = tracer
        .enabled()
        .then(|| Arc::new(Mutex::new(Deliveries::default())));
    let transport: Box<dyn Transport> = match &deliveries {
        Some(deliveries) => Box::new(TimedTransport {
            inner: plain,
            deliveries: Arc::clone(deliveries),
        }),
        None => Box::new(plain),
    };
    let mut rt: Runtime<Tally> = Runtime::new_with(
        transport,
        d.graph.vertex_count(),
        shared,
        CostModel::Coordinator,
    );
    let outcome = UnrestrictedTester::new(tuning()).run_on(&mut rt);
    let fault = rt.take_fault();
    let stats = rt.stats();
    drop(rt);
    let run_on = s.id;
    tracer.end(s);
    if let Some(deliveries) = deliveries {
        let d = lock(&deliveries);
        if let Some(first) = d.first {
            tracer.aggregate("tcp.try_deliver", run_on, q, first, d.busy_ns, d.calls);
        }
    }
    tracer.end(qs);
    Answer {
        latency_ms: start.elapsed().as_secs_f64() * 1e3,
        outcome,
        stats,
        fault,
    }
}

/// Every request and response of a run, in order.
type Exchanges = Vec<(PlayerRequest, Payload<'static>)>;

/// Records the exchanges of the wrapped transport.
struct Recording<T> {
    inner: T,
    exchanges: Arc<Mutex<Exchanges>>,
}

impl<T: Transport> Transport for Recording<T> {
    fn k(&self) -> usize {
        self.inner.k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        let out = self.inner.try_deliver(player, req)?;
        lock(&self.exchanges).push((req.clone(), out.clone()));
        Ok(out)
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        self.inner.adopt_shared(shared);
    }
}

/// The same query in process, over the same shares and seed, with its
/// exchanges recorded.
fn in_process(
    players: &Arc<Vec<PlayerState>>,
    n: usize,
    shared: SharedRandomness,
) -> (TestOutcome, CommStats, Exchanges) {
    let exchanges = Arc::new(Mutex::new(Vec::new()));
    let transport = Recording {
        inner: LocalTransport::from_shared(Arc::clone(players), shared),
        exchanges: Arc::clone(&exchanges),
    };
    let mut rt = Runtime::<Tally>::new_with(Box::new(transport), n, shared, CostModel::Coordinator);
    let outcome = UnrestrictedTester::new(tuning()).run_on(&mut rt);
    let stats = rt.stats();
    drop(rt);
    let exchanges = std::mem::take(&mut *lock(&exchanges));
    (outcome, stats, exchanges)
}

/// Passes a query's exchanges through the wire codec as the request and
/// response frames the coordinator and players sent, timing each side.
/// Returns the frame bytes.
fn wire_replay(exchanges: Exchanges, tracer: &Tracer, q: u32, report: &mut Report) -> u64 {
    let frames: Vec<WireMessage> = exchanges
        .into_iter()
        .enumerate()
        .flat_map(|(id, (req, payload))| {
            let id = id as u64;
            [
                WireMessage::Request { id, req },
                WireMessage::Response { id, payload },
            ]
        })
        .collect();
    let mut buf = Vec::new();
    let encoded = tracer.span("wire.encode", 0, q, |_| {
        frames.iter().try_for_each(|f| write_frame(&mut buf, f))
    });
    let mut reader = buf.as_slice();
    let decoded = tracer.span("wire.decode", 0, q, |_| {
        frames
            .iter()
            .map(|_| read_frame(&mut reader))
            .collect::<Result<Vec<_>, _>>()
    });
    match (encoded, decoded) {
        (Ok(()), Ok(back)) if back == frames => {}
        _ => report.mismatch(format!("query {q}: a frame did not survive the wire codec")),
    }
    buf.len() as u64
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let seed = ctx.args.seed;
    let query_seed = |i: u32| rep_seed(sub_seed(seed, 2), i % SEED_CYCLE);
    let tracer = &ctx.tracer;
    // Set-up is traced in the traced run; it never overlaps a query.
    tracer.set_enabled(ctx.args.trace);
    let mut census = Vec::new();
    let (setup_s, mut daemon) = median_setup(SETUPS, &mut report, || {
        let d = bring_up(seed, query_seed(0), tracer)?;
        census.push(d.census_ms);
        Ok(d)
    })?;
    tracer.set_enabled(false);
    report.note("census_ms_median", jnum(stats::median(&census)));
    let n = daemon.graph.vertex_count();
    report.note("vertices", n.to_string());
    report.note("edges", daemon.graph.edge_count().to_string());
    report.note("eps_far_queries", "0");
    let reference_players = Arc::new(players_from_shares(n, daemon.partition.shares()));

    let mut bits_by_slot: Vec<Option<u64>> = vec![None; SEED_CYCLE as usize];
    let mut served = 0u64;
    let mut q = 0u32;
    let mut wire_bytes = Vec::new();
    let mut measure = |seconds: f64, report: &mut Report, daemon: &Daemon| {
        Loop::run(seconds, || {
            let i = q;
            q += 1;
            report.attempted += 1;
            served += 1;
            let shared = SharedRandomness::new(query_seed(i));
            let answer = query(daemon, tracer, q, shared);
            if let Some(fault) = &answer.fault {
                if report.failed == 0 {
                    report.note("first_error", jstr(&format!("query {q}: {fault}")));
                }
                report.failed += 1;
                // Only a witness survives a fault; anything else is
                // inconclusive, and the registration may be gone.
                answer.outcome.triangle()?;
            }
            if let Some(t) = answer.outcome.triangle() {
                report.mismatch(format!(
                    "query {q}: triangle {t} reported on a triangle-free input"
                ));
            }
            let slot = &mut bits_by_slot[(i % SEED_CYCLE) as usize];
            match *slot {
                None => *slot = Some(answer.stats.total_bits),
                Some(bits) if bits != answer.stats.total_bits => report.mismatch(format!(
                    "query {q}: {} bits, but {bits} bits the last time this seed ran",
                    answer.stats.total_bits
                )),
                Some(_) => {}
            }
            if tracer.enabled() {
                let (outcome, stats, exchanges) = in_process(&reference_players, n, shared);
                if (outcome, stats) != (answer.outcome, answer.stats) {
                    report.mismatch(format!(
                        "query {q}: TCP gave {:?} / {:?}, in process {outcome:?} / {stats:?}",
                        answer.outcome, answer.stats
                    ));
                }
                wire_bytes.push(wire_replay(exchanges, tracer, q, report) as f64);
            }
            Some(answer.latency_ms)
        })
    };

    // One unmeasured query warms the connections and caches.
    measure(0.0, &mut report, &daemon);
    let (untraced, traced) = phases(ctx, |seconds| measure(seconds, &mut report, &daemon));
    let mut requests = 0u64;
    for summary in daemon.finish() {
        requests += summary.map_err(|e| format!("player: {e}"))?.requests;
    }
    drop(daemon);
    let seen: Vec<u64> = bits_by_slot.iter().flatten().copied().collect();
    let bits_per_query = seen.iter().sum::<u64>() as f64 / seen.len().max(1) as f64;
    report.note("seed_cycle", SEED_CYCLE.to_string());
    report.note("requests", requests.to_string());
    report.digest.push(("seeds".into(), seen.len().to_string()));
    report
        .digest
        .push(("bits_per_query".into(), jnum(bits_per_query)));
    report.digest.push((
        "hash".into(),
        jstr(&format!("{:016x}", seen.iter().fold(0, |h, &b| fold(h, b)))),
    ));

    let Some(traced) = traced else {
        report.metric("setup_s", setup_s);
        untraced.report_latency(&mut report);
        report.metric("queries_per_s", untraced.per_s());
        report.metric("bits_per_query", bits_per_query);
        // The input is triangle-free, so no query can miss a triangle.
        report.metric("detect_rate", 1.0);
        report.note("cpu_share", jnum(untraced.cpu_share()));
        return Ok(report);
    };

    let trace = Trace::new(tracer.spans());
    let med = |name: &str| stats::median(&trace.per_query_ms(name));
    report.metric(
        "daemon.census_ms",
        stats::median(&trace.durations_ms("daemon.census")),
    );
    report.metric(
        "daemon.connect_ms",
        stats::median(&trace.durations_ms("daemon.connect")),
    );
    report.metric(
        "player.prepare_ms",
        stats::median(&trace.durations_ms("player.prepare")),
    );
    report.metric("tcp.reseed_ms", med("tcp.reseed"));
    report.metric(
        "runtime.requests_per_query",
        requests as f64 / served.max(1) as f64,
    );
    let self_ms: Vec<f64> = trace
        .named("runtime.run_on")
        .map(|s| trace.self_ns(s) as f64 / 1e6)
        .collect();
    report.metric("runtime.self_ms", stats::median(&self_ms));
    let round_trip_us: Vec<f64> = trace
        .named("tcp.try_deliver")
        .map(|s| s.dur_ns() as f64 / 1e3 / s.calls as f64)
        .collect();
    report.metric("tcp.round_trip_us", stats::median(&round_trip_us));
    report.metric("wire.encode_ms", med("wire.encode"));
    report.metric("wire.decode_ms", med("wire.decode"));
    report.metric("wire.bytes_per_query", stats::median(&wire_bytes));
    report_tracing(&mut report, &untraced, &traced, &trace);
    Ok(report)
}
