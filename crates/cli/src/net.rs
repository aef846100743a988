//! `triad serve` / `triad connect` — the networked coordinator pair.
//!
//! `serve` binds a TCP listener, registers `k` players against the
//! expected roster, drives one protocol run over the sockets, and prints
//! the same verdict/stats lines as `triad test` (for a fault-free run
//! the bit accounting is byte-identical to the in-process transports —
//! the recorders charge logical payload bits, never wire bytes).
//! `connect` joins as one player: it loads the share named by the
//! coordinator's Welcome, then answers requests until the coordinator
//! says goodbye. The wire format is specified in `docs/NETWORKING.md`.

use crate::args::{ArgMap, CliError};
use crate::commands::load_graph;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use triad_comm::{
    run_simultaneous_collected, CommStats, ConnectOptions, CostModel, NetError, PayloadRepr,
    PlayerSession, PlayerState, ResumeClaim, Runtime, ServeConfig, SessionOptions,
    SharedRandomness, SharedTransport, SimMessage, SimultaneousProtocol, Tally, TcpCoordinator,
    TcpTransport, Transport,
};
use triad_protocols::amplify::rep_seed;
use triad_protocols::baseline::SendEverything;
use triad_protocols::simultaneous::{AlgHigh, AlgLow, Oblivious};
use triad_protocols::{single_run_verdict, ChaosOutcome, TestOutcome, Tuning, UnrestrictedTester};

const PROTOCOLS: [&str; 5] = ["unrestricted", "low", "high", "oblivious", "exact"];

fn parse_cost_model(args: &ArgMap) -> Result<CostModel, CliError> {
    match args.optional("cost-model").unwrap_or("coordinator") {
        "coordinator" => Ok(CostModel::Coordinator),
        "blackboard" => Ok(CostModel::Blackboard),
        "message-passing" => Ok(CostModel::MessagePassing),
        other => Err(CliError::Usage(format!("unknown --cost-model `{other}`"))),
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Removes the published port file when the serve run ends (any exit
/// path — success or error), so a later `triad connect` can never read
/// a stale port from a finished run.
struct PortFileGuard(PathBuf);

impl Drop for PortFileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Publishes `addr` to `path` atomically: the line is written to a
/// temp file beside the target (same filesystem) and renamed into
/// place, so a concurrent reader sees the previous contents, nothing,
/// or the complete `host:port` line — never a partial write.
fn publish_port_file(path: &str, addr: SocketAddr) -> std::io::Result<PortFileGuard> {
    let tmp = PathBuf::from(format!("{path}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, format!("{addr}\n"))?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(PortFileGuard(PathBuf::from(path))),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// `triad serve` — host one or more networked coordinator runs.
///
/// The effective shared seed is `rep_seed(--seed, 0)`, exactly the seed
/// `triad test --reps 1` uses for its single repetition, so a fault-free
/// served run's first two output lines are byte-comparable to `triad
/// test` over the same partition.
///
/// With `--runs R` the daemon keeps the registered players and
/// dispatches `R` successive sessions over the same connections —
/// session `i` re-keys every player to `rep_seed(--seed, i)` with an
/// `AdoptShared` frame, no re-registration (see `docs/NETWORKING.md`,
/// "Persistent sessions").
pub fn serve(args: &ArgMap) -> Result<String, CliError> {
    let bind = args.required("bind")?;
    let k: usize = args.required_parsed("k")?;
    if k == 0 {
        return Err(CliError::Usage("--k must be positive".into()));
    }
    let protocol = args.required("protocol")?;
    if !PROTOCOLS.contains(&protocol) {
        return Err(CliError::Usage(format!("unknown --protocol `{protocol}`")));
    }
    // The coordinator has no input of its own; it only needs the vertex
    // count (and, for the degree-aware protocols, a density hint). With
    // --graph both default from the file; --n serves a run whose input
    // the coordinator never sees.
    let (n, d_default) = match args.optional("graph") {
        Some(path) => {
            let g = load_graph(path)?;
            (g.vertex_count(), g.average_degree())
        }
        None => (args.required_parsed("n")?, 8.0),
    };
    let eps: f64 = args.parsed_or("eps", 0.2)?;
    let d: f64 = args.parsed_or("d", d_default)?;
    if (protocol == "low" || protocol == "high") && d <= 0.0 {
        return Err(CliError::Usage(
            "--d must be positive for the degree-aware protocols".into(),
        ));
    }
    let seed: u64 = args.parsed_or("seed", 0)?;
    let runs: u32 = args.parsed_or("runs", 1)?;
    if runs == 0 {
        return Err(CliError::Usage("--runs must be positive".into()));
    }
    let repr: PayloadRepr = args.parsed_or("payload", PayloadRepr::Auto)?;
    let cost_model = parse_cost_model(args)?;
    let timeout = Duration::from_secs(args.parsed_or("timeout-secs", 30)?);
    // The census deadline defaults to the per-response timeout (the
    // historical coupling) but is independently tunable: a slow fleet
    // may need minutes to register while responses stay snappy.
    let deadline =
        Duration::from_millis(args.parsed_or("deadline-ms", timeout.as_millis() as u64)?);
    if deadline.is_zero() {
        return Err(CliError::Usage("--deadline-ms must be positive".into()));
    }
    let options = SessionOptions {
        auth_token: args.optional("auth-token").map(str::to_string),
        reconnect_window: Duration::from_millis(args.parsed_or("window-ms", 0)?),
    };
    let cfg = ServeConfig {
        k,
        n,
        seed: rep_seed(seed, 0),
        cost_model,
        protocol: protocol.to_string(),
        // `repr` travels in the Welcome so every player picks the same
        // payload representation the coordinator's referee expects.
        params: format!("eps={eps} d={d} repr={repr}"),
    };
    let coordinator = TcpCoordinator::bind(bind)?;
    let addr = coordinator.local_addr()?;
    // Published after bind, so a poller that sees the file sees the
    // real (possibly ephemeral) port; the guard removes it when this
    // function returns, so no later run can read a stale port.
    let _port_file = args
        .optional("port-file")
        .map(|path| publish_port_file(path, addr))
        .transpose()?;
    let transport = coordinator
        .accept_players_with(&cfg, deadline, &options)?
        .with_timeout(timeout);
    let handle = Arc::new(Mutex::new(transport));
    let tuning = Tuning::practical(eps).with_repr(repr);
    let mut out = String::new();
    let mut last_verdict = String::new();
    for run in 0..runs {
        let shared = SharedRandomness::new(rep_seed(seed, run));
        if run > 0 {
            // Dispatch the next session over the existing registration:
            // re-key every player's shared randomness in place.
            lock(&handle).adopt_shared(SharedRandomness::new(rep_seed(seed, run)));
        }
        let (outcome, fault, stats) = if protocol == "unrestricted" {
            let boxed = Box::new(SharedTransport::new(Arc::clone(&handle)));
            let mut rt: Runtime<Tally> = Runtime::new_with(boxed, n, shared, cost_model);
            let outcome = UnrestrictedTester::new(tuning)
                .with_cost_model(cost_model)
                .run_on(&mut rt);
            let fault = rt.take_fault();
            let stats = rt.stats();
            (outcome, fault, stats)
        } else {
            match collect_and_referee(&handle, protocol, tuning, d, k, n, shared) {
                Ok((outcome, stats)) => (outcome, None, stats),
                Err(e) => (TestOutcome::NoTriangleFound, Some(e), CommStats::default()),
            }
        };
        let verdict = match single_run_verdict(outcome, fault.as_ref()) {
            ChaosOutcome::TriangleFound(t) => format!("triangle {t}"),
            ChaosOutcome::NoTriangleFound => "accepted (no triangle found)".to_string(),
            ChaosOutcome::Inconclusive => {
                let err = fault.as_ref().expect("inconclusive implies a fault");
                format!("inconclusive (quorum lost; {err})")
            }
        };
        let stats_line = format!(
            "{} bits, {} rounds, {} messages, max player message {} bits",
            stats.total_bits, stats.rounds, stats.messages, stats.max_player_sent_bits
        );
        if runs == 1 {
            // Single-run output stays byte-identical to the historical
            // format (and to `triad test --reps 1`'s first two lines).
            out.push_str(&format!("{verdict}\n{stats_line}\n"));
        } else {
            out.push_str(&format!("run {run}: {verdict}\nrun {run}: {stats_line}\n"));
        }
        last_verdict = verdict;
    }
    lock(&handle).goodbye(&last_verdict);
    let roster = if runs == 1 {
        format!("served {k} players on {addr} (protocol {protocol}, seed {seed})\n")
    } else {
        format!(
            "served {k} players on {addr} (protocol {protocol}, seed {seed}, {runs} sessions)\n"
        )
    };
    Ok(out + &roster)
}

/// One simultaneous round over TCP: collect every player's (single)
/// message, then run the referee locally. Charging happens in
/// `run_simultaneous_collected`, which the in-process paths use too, so
/// accounting matches `run_simultaneous_prepared` bit for bit.
///
/// The wire decoder cannot bound endpoints by `n`, so every gathered
/// edge is checked here: a remote edge outside `0..n` aborts the run
/// (reported `inconclusive`) instead of reaching the referee.
fn collect_and_referee(
    handle: &Mutex<TcpTransport>,
    protocol: &str,
    tuning: Tuning,
    d: f64,
    k: usize,
    n: usize,
    shared: SharedRandomness,
) -> Result<(TestOutcome, CommStats), triad_comm::RunError> {
    let messages = lock(handle).collect_sim_messages()?;
    for (player, m) in messages.iter().enumerate() {
        if let Some(e) = m.edges().find(|e| e.v().index() >= n) {
            return Err(triad_comm::RunError::Aborted {
                reason: format!("player {player} posted edge {e} outside the {n}-vertex graph"),
            });
        }
    }
    let (output, stats) = match protocol {
        "low" => {
            let p = AlgLow::new(tuning, d);
            let run = run_simultaneous_collected::<_, Tally>(&p, n, messages, shared);
            (run.output, run.stats)
        }
        "high" => {
            let p = AlgHigh::new(tuning, d);
            let run = run_simultaneous_collected::<_, Tally>(&p, n, messages, shared);
            (run.output, run.stats)
        }
        "oblivious" => {
            let p = Oblivious::new(tuning, k);
            let run = run_simultaneous_collected::<_, Tally>(&p, n, messages, shared);
            (run.output, run.stats)
        }
        // `serve` validated the protocol name up front; everything that
        // is not unrestricted or a §3.4 tester is the exact baseline.
        _ => {
            let p = SendEverything::with_repr(tuning.repr);
            let run = run_simultaneous_collected::<_, Tally>(&p, n, messages, shared);
            (run.output, run.stats)
        }
    };
    Ok((TestOutcome::from(output), stats))
}

/// The longest `--session-file` read: twice the longest text `connect`
/// writes, `"{u32} {u64}\n"` (32 bytes).
const MAX_SESSION_FILE: u64 = 64;

/// The `--session-file` text for a claim on `slot` with `nonce`: what
/// `connect` writes, and the only text it accepts back.
fn session_claim_text(slot: u32, nonce: u64) -> String {
    format!("{slot} {nonce}\n")
}

/// Reads a `--session-file` left by a previous incarnation of this
/// player. Anything unreadable, longer than [`MAX_SESSION_FILE`], or not
/// exactly what [`session_claim_text`] writes is treated as no
/// credential (the client registers fresh).
fn read_session_claim(path: &std::path::Path) -> Option<ResumeClaim> {
    use std::io::Read;
    let mut bytes = Vec::new();
    let mut file = std::fs::File::open(path).ok()?.take(MAX_SESSION_FILE);
    file.read_to_end(&mut bytes).ok()?;
    parse_session_claim(&bytes)
}

/// Parses exactly the text [`session_claim_text`] writes for some claim
/// (at most 32 bytes).
fn parse_session_claim(bytes: &[u8]) -> Option<ResumeClaim> {
    let text = std::str::from_utf8(bytes).ok()?;
    let (slot, nonce) = text.strip_suffix('\n')?.split_once(' ')?;
    let (slot, nonce) = (slot.parse().ok()?, nonce.parse().ok()?);
    (session_claim_text(slot, nonce) == text).then_some(ResumeClaim {
        slot,
        nonce,
        // A relaunched process has no request log; replay is driven by
        // the coordinator's fresh correlation ids, so 0 is honest.
        last_acked: 0,
    })
}

/// `triad connect` — join a `triad serve` run as one player.
///
/// The Welcome tells this player its slot, the run geometry, the seed,
/// and the protocol; the share file `{--shares}.{player}` is loaded and
/// validated against the advertised vertex count before serving.
///
/// Refused dials are absorbed by a bounded exponential backoff
/// (`--connect-retries`/`--backoff-ms`), so a client racing the
/// daemon's `--port-file` publication no longer dies on a raw
/// `ConnectionRefused`. With `--session-file` the resume credential
/// from the Welcome is persisted, a relaunched process presents it to
/// reclaim its slot inside the daemon's reconnect window, and the file
/// is removed again on a clean farewell.
pub fn connect(args: &ArgMap) -> Result<String, CliError> {
    let addr = args.required("addr")?;
    let prefix = args.required("shares")?;
    let slot = match args.optional("slot") {
        None => None,
        Some(v) => Some(
            v.parse::<u32>()
                .map_err(|e| CliError::Usage(format!("could not parse --slot value `{v}`: {e}")))?,
        ),
    };
    let timeout = Duration::from_secs(args.parsed_or("timeout-secs", 30)?);
    let opts = ConnectOptions {
        slot,
        token: args.optional("auth-token").map(str::to_string),
        timeout,
        retries: args.parsed_or("connect-retries", 5)?,
        backoff: Duration::from_millis(args.parsed_or("backoff-ms", 50)?),
    };
    let session_file = args.optional("session-file").map(PathBuf::from);
    let session = match session_file.as_deref().and_then(read_session_claim) {
        Some(claim) => match PlayerSession::rejoin_with(addr, &opts, claim) {
            Ok(session) => session,
            // A stale credential — the window expired, the daemon
            // restarted, or the slot was reassigned — falls back to a
            // fresh registration rather than giving up.
            Err(NetError::Unauthorized(_) | NetError::WindowExpired(_) | NetError::Protocol(_)) => {
                PlayerSession::connect_with(addr, &opts)?
            }
            Err(e) => return Err(CliError::Net(e)),
        },
        None => PlayerSession::connect_with(addr, &opts)?,
    };
    let w = session.welcome().clone();
    if let Some(path) = &session_file {
        if w.resume_nonce != 0 {
            std::fs::write(path, session_claim_text(w.player, w.resume_nonce))?;
        }
    }
    let path = format!("{prefix}.{}", w.player);
    if !std::path::Path::new(&path).exists() {
        return Err(CliError::Usage(format!(
            "no share file `{path}` for player {} (expected `{prefix}.J` per player)",
            w.player
        )));
    }
    let share = load_graph(&path)?;
    if share.vertex_count() != w.n as usize {
        return Err(CliError::Usage(format!(
            "share `{path}` declares {} vertices but the coordinator serves n={}",
            share.vertex_count(),
            w.n
        )));
    }
    let state = PlayerState::new(w.player as usize, w.n as usize, share.edges());
    let sim = sim_closure(&w)?;
    // `serve_rejoining` degrades to plain `serve` semantics when the
    // Welcome carried no resume nonce (daemon without a window).
    let summary = session
        .serve_rejoining(addr, &opts, &state, sim)
        .map_err(CliError::Net)?;
    let rejoined = match summary.rejoins {
        0 => String::new(),
        r => format!(" (rejoined {r}x)"),
    };
    Ok(match summary.farewell {
        Some(farewell) => {
            // A clean goodbye retires the resume credential: nothing is
            // left to resume, and the next run must not present it.
            if let Some(path) = &session_file {
                let _ = std::fs::remove_file(path);
            }
            format!(
                "player {} served {} requests in {} frames{rejoined}\ncoordinator verdict: {farewell}\n",
                w.player, summary.requests, summary.frames
            )
        }
        None => format!(
            "player {} served {} requests in {} frames{rejoined} (connection closed without a farewell)\n",
            w.player, summary.requests, summary.frames
        ),
    })
}

/// The player-side one-round responder `PlayerSession::serve` drives.
type SimResponder = Box<dyn FnMut(&PlayerState, &SharedRandomness) -> SimMessage<'static>>;

/// Builds the player's one-round responder from the Welcome: the same
/// protocol object the coordinator's referee uses, fed the same shared
/// randomness, so the posted message matches the in-process transcript.
fn sim_closure(w: &triad_comm::Welcome) -> Result<SimResponder, CliError> {
    let mut eps = 0.2f64;
    let mut d = 8.0f64;
    let mut repr = PayloadRepr::Auto;
    for tok in w.params.split_whitespace() {
        if let Some((key, val)) = tok.split_once('=') {
            match key {
                "eps" => {
                    eps = val.parse().map_err(|e| {
                        CliError::Usage(format!("bad eps `{val}` in coordinator params: {e}"))
                    })?;
                }
                "d" => {
                    d = val.parse().map_err(|e| {
                        CliError::Usage(format!("bad d `{val}` in coordinator params: {e}"))
                    })?;
                }
                "repr" => {
                    repr = val.parse().map_err(|e| {
                        CliError::Usage(format!("bad repr `{val}` in coordinator params: {e}"))
                    })?;
                }
                _ => {} // Forward compatibility: ignore unknown params.
            }
        }
    }
    let tuning = Tuning::practical(eps).with_repr(repr);
    Ok(match w.protocol.as_str() {
        "low" => {
            let p = AlgLow::new(tuning, d);
            Box::new(move |s, r| p.message(s, r).into_owned())
        }
        "high" => {
            let p = AlgHigh::new(tuning, d);
            Box::new(move |s, r| p.message(s, r).into_owned())
        }
        "oblivious" => {
            let p = Oblivious::new(tuning, w.k as usize);
            Box::new(move |s, r| p.message(s, r).into_owned())
        }
        "exact" => Box::new(move |s, r| SendEverything::with_repr(repr).message(s, r).into_owned()),
        // Interactive protocols never send a SimRequest; an empty
        // message keeps the player well-defined if one arrives anyway.
        "unrestricted" => Box::new(|_, _| SimMessage::empty()),
        other => {
            return Err(CliError::Net(NetError::Protocol(format!(
                "coordinator serves unknown protocol `{other}`"
            ))))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_shape_round_trips() {
        for slot in [0, 1, 7, 4096, u32::MAX] {
            for nonce in [0, 1, 0x5EED, u64::from(u32::MAX) + 1, u64::MAX] {
                let text = session_claim_text(slot, nonce);
                let claim = parse_session_claim(text.as_bytes()).expect("a written claim parses");
                assert_eq!(
                    (claim.slot, claim.nonce, claim.last_acked),
                    (slot, nonce, 0)
                );
            }
        }
        let longest = session_claim_text(u32::MAX, u64::MAX);
        assert_eq!(longest.len(), 32);
        assert!(longest.len() as u64 <= MAX_SESSION_FILE);
    }

    #[test]
    fn text_connect_never_writes_is_no_credential() {
        for text in [
            "3 5 junk\n",
            "3 5",
            " 3 5\n",
            "3  5\n",
            "3 5 \n",
            "3\t5\n",
            "3 5\r\n",
            "3 5\n\n",
            "+3 5\n",
            "03 5\n",
            "3 05\n",
            "-3 5\n",
            "4294967296 5\n",
            "3 18446744073709551616\n",
            "3\n",
            "\n",
            "",
        ] {
            assert!(
                parse_session_claim(text.as_bytes()).is_none(),
                "accepted {text:?}"
            );
        }
        let long = format!("3 5\n{}", " ".repeat(MAX_SESSION_FILE as usize));
        assert!(parse_session_claim(long.as_bytes()).is_none());
    }

    #[test]
    fn a_session_file_is_read_only_up_to_its_bound() {
        let dir = std::env::temp_dir().join(format!("triad-session-claim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.0");
        std::fs::write(&path, session_claim_text(2, 99)).unwrap();
        let claim = read_session_claim(&path).expect("a written claim reads back");
        assert_eq!((claim.slot, claim.nonce), (2, 99));
        // A valid claim followed by enough padding to pass the bound.
        let padded = format!("2 99\n{}", "0".repeat(MAX_SESSION_FILE as usize));
        std::fs::write(&path, padded).unwrap();
        assert!(read_session_claim(&path).is_none());
        assert!(read_session_claim(&dir.join("missing")).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
        // An endless file ends the read at the bound.
        let endless = std::path::Path::new("/dev/zero");
        if endless.exists() {
            assert!(read_session_claim(endless).is_none());
        }
    }

    #[test]
    fn every_accepted_mutation_re_encodes_to_itself() {
        let mut state = 0x5E55_1011_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            triad_comm::mix64(state)
        };
        let alphabet = b"0123456789 \n+-x\t";
        let mut accepted = 0;
        for case in 0..20_000u64 {
            let slot = [0, 1, 42, u32::MAX][(next() % 4) as usize];
            let nonce = [0, 7, 1 << 40, u64::MAX][(next() % 4) as usize];
            let mut bytes = session_claim_text(slot, nonce).into_bytes();
            for _ in 0..1 + next() % 3 {
                let at = (next() % (bytes.len() as u64 + 1)) as usize;
                let byte = alphabet[(next() % alphabet.len() as u64) as usize];
                match next() % 3 {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            if let Some(claim) = parse_session_claim(&bytes) {
                accepted += 1;
                assert_eq!(
                    session_claim_text(claim.slot, claim.nonce).as_bytes(),
                    &bytes[..],
                    "case {case}: accepted text does not re-encode to itself"
                );
            }
        }
        assert!(
            accepted > 100,
            "the mutations should keep some claims valid"
        );
    }
}
