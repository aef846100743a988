//! [`TcpTransport`]: coordinator-side message delivery over real
//! sockets, speaking the framed wire protocol of [`crate::wire`]
//! (specified in `docs/NETWORKING.md`).
//!
//! The transport keeps the daemon's slot table, one slot per player
//! ordered by player index, which [`crate::daemon::TcpCoordinator`]'s
//! census filled. A single delivery is one
//! [`Request`](crate::wire::WireMessage::Request) frame tagged with a
//! fresh correlation id; each frame of a round of independent requests
//! (at most [`MAX_FRAME_REQUESTS`](super::MAX_FRAME_REQUESTS) of them) is
//! one [`Batch`](crate::wire::WireMessage::Batch) frame per player,
//! written to every player before any answer is read. Answers with stale ids
//! (to a delivery the coordinator already timed out) are discarded
//! instead of desynchronizing the stream, which is what makes the
//! runtime's bounded-retry loop sound over TCP.
//!
//! Cost accounting is **unchanged** by this transport: the recorder
//! charges model bit costs (`bit_len`), never wire bytes, so a
//! fault-free TCP run produces accounting byte-identical to
//! [`LocalTransport`](super::LocalTransport) for the same
//! (protocol, seed, k).

use crate::daemon::{SessionHost, Slot};
use crate::message::Payload;
use crate::rand::SharedRandomness;
use crate::request::PlayerRequest;
use crate::runtime::{RunError, Transport, TransportError};
use crate::simultaneous::SimMessage;
use crate::wire::{self, WireError, WireMessage};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Default per-response deadline of a networked run. Generous because a
/// remote player may legitimately scan a large share; operators tune it
/// with `--timeout-secs`.
pub const DEFAULT_NET_TIMEOUT: Duration = Duration::from_secs(30);

/// Maps a wire-level failure on `player`'s connection onto the typed
/// [`RunError`] taxonomy (normative table in `docs/NETWORKING.md`):
/// read deadline → `Timeout` (retryable), garbled or version-confused
/// frame → `Corrupt` (retryable), dead socket → `Transport`
/// (player stays dead), protocol violation → `Aborted`.
fn map_wire(player: usize, e: WireError) -> RunError {
    if e.is_timeout() {
        return RunError::Timeout { player };
    }
    match e {
        WireError::Io(_) => RunError::Transport(TransportError { player }),
        WireError::Corrupt(_) | WireError::Version { .. } => RunError::Corrupt { player },
        WireError::Protocol(reason) => RunError::Aborted {
            reason: format!("player {player}: {reason}"),
        },
    }
}

/// A [`Transport`] over one TCP connection per player.
///
/// Constructed by
/// [`TcpCoordinator::accept_players_with`](crate::daemon::TcpCoordinator::accept_players_with)
/// once the census has filled every slot. It keeps the census's slot
/// table for the rest of the run: with a reconnect window armed, a slot
/// whose connection dies detaches, and the blocked delivery polls the
/// listener itself, through the census's accept loop and handshake,
/// until the slot is resumed or its window expires.
///
/// # Example
///
/// A complete single-player loopback run — coordinator on one side,
/// [`PlayerSession`](crate::daemon::PlayerSession) on the other — driven
/// through a [`Runtime`](crate::runtime::Runtime) exactly like any
/// in-process transport:
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use std::time::Duration;
/// use triad_comm::daemon::{PlayerSession, ServeConfig, TcpCoordinator};
/// use triad_comm::runtime::SharedTransport;
/// use triad_comm::{
///     CostModel, Payload, PlayerRequest, PlayerState, Runtime, SharedRandomness, SimMessage,
/// };
/// use triad_graph::{Edge, VertexId};
///
/// let coordinator = TcpCoordinator::bind("127.0.0.1:0")?;
/// let addr = coordinator.local_addr()?;
/// let cfg = ServeConfig {
///     k: 1,
///     n: 4,
///     seed: 7,
///     cost_model: CostModel::Coordinator,
///     protocol: "unrestricted".into(),
///     params: String::new(),
/// };
///
/// let player = std::thread::spawn(move || {
///     let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
///     let share = vec![Edge::new(VertexId(0), VertexId(1))];
///     let state = PlayerState::new(session.welcome().player as usize, 4, &share);
///     session.serve(&state, |_, _| SimMessage::empty()).unwrap()
/// });
///
/// let transport = coordinator.accept_players(&cfg, Duration::from_secs(10))?;
/// let handle = Arc::new(Mutex::new(transport));
/// let mut rt = Runtime::new(
///     Box::new(SharedTransport::new(handle.clone())),
///     4,
///     SharedRandomness::new(7),
///     CostModel::Coordinator,
/// );
/// assert_eq!(rt.request(0, PlayerRequest::LocalEdgeCount), Payload::Count(1));
/// drop(rt);
/// handle.lock().unwrap().goodbye("done");
/// let summary = player.join().unwrap();
/// assert_eq!(summary.farewell.as_deref(), Some("done"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TcpTransport {
    slots: Vec<Slot>,
    next_id: u64,
    timeout: Duration,
    pending_fault: Option<RunError>,
    /// The accept loop and handshake rejoins go through; `None` when no
    /// reconnect window is armed, so slots never detach.
    session: Option<SessionHost>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("k", &self.slots.len())
            .field(
                "detached",
                &self.slots.iter().filter(|s| !s.is_active()).count(),
            )
            .field("timeout", &self.timeout)
            .field("pending_fault", &self.pending_fault)
            .field("session", &self.session)
            .finish()
    }
}

impl TcpTransport {
    /// Wraps the census's slot table, arming each live connection with
    /// the per-response read deadline. `session` is the host whose
    /// reconnect window lets detached slots rejoin mid-run.
    pub(crate) fn new(slots: Vec<Slot>, timeout: Duration, session: Option<SessionHost>) -> Self {
        let mut t = TcpTransport {
            slots,
            next_id: 0,
            timeout,
            pending_fault: None,
            session,
        };
        t.arm_timeouts();
        t
    }

    fn arm_timeouts(&mut self) {
        for slot in &self.slots {
            // A connection that cannot even accept a deadline is as good
            // as dead; the next delivery on it will surface the error.
            if let Slot::Active(stream) = slot {
                let _ = stream.set_read_timeout(Some(self.timeout));
            }
        }
    }

    /// Whether `e` is a failure the reconnect window absorbs: the
    /// connection went silent or died. Corrupt frames and protocol
    /// violations stay fatal-or-retryable exactly as before — they come
    /// from a *live* peer, so a rejoin would change nothing.
    fn detachable(&self, e: &RunError) -> bool {
        self.session.is_some() && matches!(e, RunError::Timeout { .. } | RunError::Transport(_))
    }

    /// Marks `player`'s slot detached as of now, recording the failure
    /// that killed the connection.
    fn detach(&mut self, player: usize, cause: RunError) {
        self.slots[player] = Slot::Detached {
            since: Instant::now(),
            cause,
        };
    }

    /// Ensures `player`'s slot has a live connection, blocking while its
    /// reconnect window is open: runs the session's accept loop, which
    /// reattaches any valid claimant (for *any* detached slot — rejoins
    /// are accepted even for players the current delivery is not
    /// waiting on), and fails with a typed `Aborted` once the window
    /// expires. The loop empties the backlog before it returns, so late
    /// claimants and the loser of a rejoin race get their typed
    /// rejections at once.
    fn ensure_active(&mut self, player: usize) -> Result<(), RunError> {
        let (Slot::Detached { since, cause }, Some(session)) = (&self.slots[player], &self.session)
        else {
            // Live, or never detachable: `active` types the failure.
            return Ok(());
        };
        let window = session.window();
        let (deadline, cause) = (*since + window, cause.clone());
        let attached = session.poll(&mut self.slots, deadline, self.timeout, |s| {
            s[player].is_active()
        });
        let reason = match attached {
            Ok(true) => return Ok(()),
            Ok(false) => format!(
                "player {player} reconnect window expired after {} ms ({cause})",
                window.as_millis()
            ),
            Err(e) => {
                format!("player {player} reconnect wait failed: listener error {e} ({cause})")
            }
        };
        Err(RunError::Aborted { reason })
    }

    /// The live stream for `player`; typed failure if the slot is
    /// vacant or detached (callers go through
    /// [`ensure_active`](Self::ensure_active) first).
    fn active(&mut self, player: usize) -> Result<&mut TcpStream, RunError> {
        match &mut self.slots[player] {
            Slot::Active(stream) => Ok(stream),
            _ => Err(RunError::Transport(TransportError { player })),
        }
    }

    /// Test hook: drops `player`'s live connection (closing the socket
    /// under the remote peer) and marks the slot detached, as if the
    /// coordinator had just observed the disconnect.
    #[cfg(test)]
    pub(crate) fn sever_for_test(&mut self, player: usize) {
        self.detach(player, RunError::Transport(TransportError { player }));
    }

    /// Replaces the per-response deadline (builder-style).
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self.arm_timeouts();
        self
    }

    /// The per-response deadline in force.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Asks every player for its one-shot simultaneous message, in
    /// player order — the networked gather feeding
    /// [`run_simultaneous_collected`](crate::simultaneous::run_simultaneous_collected).
    ///
    /// # Errors
    ///
    /// Returns the first delivery failure, mapped onto [`RunError`] like
    /// any other exchange.
    pub fn collect_sim_messages(&mut self) -> Result<Vec<SimMessage<'static>>, RunError> {
        if let Some(f) = self.pending_fault.take() {
            return Err(f);
        }
        (0..self.slots.len())
            .map(|player| {
                // A gather interrupted by a disconnect replays the sim
                // request on the rejoined connection with a fresh id —
                // invisible to cost accounting, identical to an
                // uninterrupted gather.
                self.with_rejoin(player, |stream, id| {
                    send(stream, player, &WireMessage::SimRequest { id })?;
                    await_answer(stream, player, id, |msg| match msg {
                        WireMessage::SimResponse { id: got, message } if got == id => Ok(message),
                        other => Err(other),
                    })
                })
            })
            .collect()
    }

    /// The reconnect loop every delivery runs under: `attempt` writes
    /// one frame under the fresh correlation id it is given and awaits
    /// the answer. A delivery interrupted by a disconnect waits out the
    /// rejoin (bounded by the session window) and runs `attempt` again
    /// with a fresh id on the new connection. The replay happens entirely
    /// below the runtime's charging layer, so a run interrupted and
    /// resumed is bit-identical — verdict, stats and tally — to an
    /// uninterrupted one (docs/NETWORKING.md).
    fn with_rejoin<T>(
        &mut self,
        player: usize,
        mut attempt: impl FnMut(&mut TcpStream, u64) -> Result<T, RunError>,
    ) -> Result<T, RunError> {
        loop {
            self.ensure_active(player)?;
            let id = self.fresh_id();
            let result = attempt(self.active(player)?, id);
            match result {
                Ok(out) => return Ok(out),
                Err(e) if self.detachable(&e) => self.detach(player, e),
                Err(e) => return Err(e),
            }
        }
    }

    /// Delivers `reqs` to `player` as one batch under the reconnect loop:
    /// a batch cut off by a disconnect is replayed whole, with a fresh
    /// id, on the rejoined connection.
    fn replay_batch(
        &mut self,
        player: usize,
        reqs: &[PlayerRequest],
    ) -> Result<Vec<Payload<'static>>, RunError> {
        self.with_rejoin(player, |stream, id| {
            send_batch(stream, player, id, reqs)?;
            await_batch(stream, player, id, reqs.len())
        })
    }

    /// Best-effort farewell: sends a [`Goodbye`](WireMessage::Goodbye)
    /// carrying the run's verdict line to every player, so remote
    /// sessions exit cleanly instead of reading EOF. Errors are ignored —
    /// the run is already over. Detached slots are skipped (their
    /// connection is gone; a claimant arriving later finds the listener
    /// closed).
    pub fn goodbye(&mut self, summary: &str) {
        let msg = WireMessage::Goodbye {
            summary: summary.to_owned(),
        };
        for slot in &mut self.slots {
            if let Slot::Active(stream) = slot {
                let _ = wire::write_frame(stream, &msg);
            }
        }
    }
}

/// Writes one frame to `player`'s stream; a failed write means the
/// connection is gone.
fn send(stream: &mut TcpStream, player: usize, msg: &WireMessage) -> Result<(), RunError> {
    wire::write_frame(stream, msg).map_err(|_| RunError::Transport(TransportError { player }))
}

/// The correlation id of a data answer, whatever its shape.
fn answer_id(msg: &WireMessage) -> Option<u64> {
    match msg {
        WireMessage::Response { id, .. }
        | WireMessage::SimResponse { id, .. }
        | WireMessage::BatchResponse { id, .. } => Some(*id),
        _ => None,
    }
}

/// Reads frames from `player`'s stream until `take` accepts one,
/// discarding along the way any data answer with an id below `id` — a
/// late answer to a delivery the runtime already timed out and retried.
/// `take` hands back every frame it does not want.
fn await_answer<T>(
    stream: &mut TcpStream,
    player: usize,
    id: u64,
    mut take: impl FnMut(WireMessage) -> Result<T, WireMessage>,
) -> Result<T, RunError> {
    loop {
        let msg = wire::read_frame(stream).map_err(|e| map_wire(player, e))?;
        match take(msg) {
            Ok(out) => return Ok(out),
            Err(msg) if answer_id(&msg).is_some_and(|got| got < id) => continue,
            Err(WireMessage::Error { reason, .. }) => {
                return Err(RunError::Aborted {
                    reason: format!("player {player}: {reason}"),
                })
            }
            Err(other) => {
                return Err(RunError::Aborted {
                    reason: format!("player {player} sent an unexpected {} frame", other.kind()),
                })
            }
        }
    }
}

/// Writes `reqs` to `player` as one batch under correlation id `id`.
fn send_batch(
    stream: &mut TcpStream,
    player: usize,
    id: u64,
    reqs: &[PlayerRequest],
) -> Result<(), RunError> {
    wire::write_batch(stream, id, reqs).map_err(|_| RunError::Transport(TransportError { player }))
}

/// Waits for the `BatchResponse` with correlation id `id`, which must
/// answer exactly `count` requests.
fn await_batch(
    stream: &mut TcpStream,
    player: usize,
    id: u64,
    count: usize,
) -> Result<Vec<Payload<'static>>, RunError> {
    let payloads = await_answer(stream, player, id, |msg| match msg {
        WireMessage::BatchResponse { id: got, payloads } if got == id => Ok(payloads),
        other => Err(other),
    })?;
    if payloads.len() != count {
        return Err(RunError::Aborted {
            reason: format!(
                "player {player} answered {} of the {count} requests in a batch",
                payloads.len()
            ),
        });
    }
    Ok(payloads)
}

impl Transport for TcpTransport {
    fn k(&self) -> usize {
        self.slots.len()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        if let Some(f) = self.pending_fault.take() {
            return Err(f);
        }
        self.with_rejoin(player, |stream, id| {
            let msg = WireMessage::Request {
                id,
                req: req.clone(),
            };
            send(stream, player, &msg)?;
            await_answer(stream, player, id, |msg| match msg {
                WireMessage::Response { id: got, payload } if got == id => Ok(payload),
                other => Err(other),
            })
        })
    }

    /// One [`Batch`](WireMessage::Batch) frame per player, encoded from
    /// the borrowed requests: every live player is sent the whole frame
    /// before any answer is read, so the players work on it at once;
    /// then each `BatchResponse` is read in
    /// player order. A player whose connection fails goes through the
    /// same detach-and-rejoin loop as [`try_deliver`](Self::try_deliver),
    /// replaying the whole batch with a fresh id. A parked fault defers
    /// to the per-request path, which surfaces it.
    fn try_deliver_round(
        &mut self,
        reqs: &[PlayerRequest],
    ) -> Option<Vec<Result<Vec<Payload<'static>>, RunError>>> {
        if self.pending_fault.is_some() {
            return None;
        }
        // The id each player's batch went out under; `None` for a slot
        // that is detached or whose write just detached it.
        let mut sent = Vec::with_capacity(self.slots.len());
        for player in 0..self.slots.len() {
            if !self.slots[player].is_active() {
                sent.push(None);
                continue;
            }
            let id = self.fresh_id();
            let written = self
                .active(player)
                .and_then(|s| send_batch(s, player, id, reqs));
            sent.push(match written {
                Ok(()) => Some(Ok(id)),
                Err(e) if self.detachable(&e) => {
                    self.detach(player, e);
                    None
                }
                Err(e) => Some(Err(e)),
            });
        }
        let mut out = Vec::with_capacity(sent.len());
        for (player, sent) in sent.into_iter().enumerate() {
            out.push(match sent {
                Some(Ok(id)) => {
                    let first = self
                        .active(player)
                        .and_then(|s| await_batch(s, player, id, reqs.len()));
                    match first {
                        Err(e) if self.detachable(&e) => {
                            self.detach(player, e);
                            self.replay_batch(player, reqs)
                        }
                        first => first,
                    }
                }
                Some(Err(e)) => Err(e),
                None => self.replay_batch(player, reqs),
            });
        }
        Some(out)
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        // The trait signature is infallible (in-process transports cannot
        // fail here), so a network failure is parked and surfaced by the
        // next delivery instead of panicking on a dead peer.
        if self.pending_fault.is_some() {
            return;
        }
        let seed = shared.seed();
        // Record the seed *before* telling anyone: a player that
        // detaches mid-reseed learns the new seed from its rejoin
        // Welcome instead of the lost AdoptShared frame.
        if let Some(session) = &mut self.session {
            session.note_seed(seed);
        }
        for player in 0..self.slots.len() {
            // A detached slot owes no Ack: re-arm its window (each run
            // in persistent mode grants a fresh rejoin opportunity) and
            // let the rejoin Welcome carry the seed.
            if let Slot::Detached { since, .. } = &mut self.slots[player] {
                *since = Instant::now();
                continue;
            }
            let attempt = self.active(player).and_then(|stream| {
                send(stream, player, &WireMessage::AdoptShared { seed })?;
                // An `Ack` carries no id: every data answer still in
                // flight is stale.
                await_answer(stream, player, u64::MAX, |msg| match msg {
                    WireMessage::Ack => Ok(()),
                    other => Err(other),
                })
            });
            match attempt {
                Ok(()) => {}
                Err(e) if self.detachable(&e) => {
                    // The slot detaches with a fresh window; the seed
                    // travels in the rejoin Welcome, so there is
                    // nothing to retry here.
                    self.detach(player, e);
                }
                Err(e) => {
                    self.pending_fault = Some(e);
                    return;
                }
            }
        }
    }
}

/// A cloneable [`Transport`] handle over a mutex-guarded inner
/// transport.
///
/// [`Runtime`](crate::runtime::Runtime) consumes its transport as
/// `Box<dyn Transport>`, which would strand a [`TcpTransport`]'s
/// connections inside the finished runtime — no way to send the final
/// [`goodbye`](TcpTransport::goodbye).
/// `SharedTransport` keeps the inner transport behind an
/// `Arc<Mutex<…>>`: hand one clone to the runtime, keep the `Arc`.
/// All trait methods delegate — including `try_deliver_round`, so a
/// wrapped [`TcpTransport`] keeps its rounds.
pub struct SharedTransport<T: Transport> {
    inner: Arc<Mutex<T>>,
}

impl<T: Transport> SharedTransport<T> {
    /// Wraps a shared inner transport.
    pub fn new(inner: Arc<Mutex<T>>) -> Self {
        SharedTransport { inner }
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Transport> Clone for SharedTransport<T> {
    fn clone(&self) -> Self {
        SharedTransport {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Transport> Transport for SharedTransport<T> {
    fn k(&self) -> usize {
        self.lock().k()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        self.lock().try_deliver(player, req)
    }

    fn try_deliver_round(
        &mut self,
        reqs: &[PlayerRequest],
    ) -> Option<Vec<Result<Vec<Payload<'static>>, RunError>>> {
        self.lock().try_deliver_round(reqs)
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        self.lock().adopt_shared(shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RunErrorKind;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpListener, std::net::SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    #[test]
    fn stale_responses_are_discarded_until_the_matching_id() {
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let id = match wire::read_frame(&mut s).unwrap() {
                WireMessage::Request { id, .. } => id,
                other => panic!("expected request, got {other:?}"),
            };
            // A late answer to an earlier (timed-out) delivery first…
            wire::write_frame(
                &mut s,
                &WireMessage::Response {
                    id: id - 1,
                    payload: Payload::Bit(false),
                },
            )
            .unwrap();
            // …then the real one.
            wire::write_frame(
                &mut s,
                &WireMessage::Response {
                    id,
                    payload: Payload::Bit(true),
                },
            )
            .unwrap();
            s
        });
        let conn = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::new(vec![Slot::Active(conn)], Duration::from_secs(10), None);
        // Burn an id so the server's `id - 1` is a valid stale id.
        t.next_id = 1;
        let resp = t.try_deliver(0, &PlayerRequest::LocalEdgeCount).unwrap();
        assert_eq!(resp, Payload::Bit(true));
        drop(server.join().unwrap());
    }

    fn sample_round(m: u64) -> Vec<PlayerRequest> {
        (1..=m)
            .map(|tag| PlayerRequest::SampleHit {
                v: triad_graph::VertexId(0),
                tag,
                p: 0.5,
            })
            .collect()
    }

    #[test]
    fn batch_answers_with_the_wrong_item_count_are_aborted_naming_the_player() {
        for delta in [-1i64, 1] {
            let (listener, addr) = pair();
            let server = std::thread::spawn(move || {
                let (mut s, _) = listener.accept().unwrap();
                let (id, count) = match wire::read_frame(&mut s).unwrap() {
                    WireMessage::Batch { id, reqs } => (id, reqs.len() as i64),
                    other => panic!("expected batch, got {other:?}"),
                };
                let payloads = vec![Payload::Bit(true); (count + delta) as usize];
                wire::write_frame(&mut s, &WireMessage::BatchResponse { id, payloads }).unwrap();
                s
            });
            let conn = TcpStream::connect(addr).unwrap();
            let mut t = TcpTransport::new(vec![Slot::Active(conn)], Duration::from_secs(10), None);
            let round = t
                .try_deliver_round(&sample_round(3))
                .expect("tcp delivers rounds");
            let err = round.into_iter().next().unwrap().unwrap_err();
            assert_eq!(err.kind(), RunErrorKind::Aborted, "{err}");
            assert!(err.to_string().contains("player 0 answered"), "{err}");
            drop(server.join().unwrap());
        }
    }

    #[test]
    fn stale_answers_of_either_shape_are_discarded() {
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // A single request, answered after a stale batch answer…
            let id = match wire::read_frame(&mut s).unwrap() {
                WireMessage::Request { id, .. } => id,
                other => panic!("expected request, got {other:?}"),
            };
            let stale = WireMessage::BatchResponse {
                id: id - 1,
                payloads: vec![Payload::Bit(false)],
            };
            wire::write_frame(&mut s, &stale).unwrap();
            let answer = WireMessage::Response {
                id,
                payload: Payload::Count(4),
            };
            wire::write_frame(&mut s, &answer).unwrap();
            // …then a batch, answered after a stale single answer.
            let (id, count) = match wire::read_frame(&mut s).unwrap() {
                WireMessage::Batch { id, reqs } => (id, reqs.len()),
                other => panic!("expected batch, got {other:?}"),
            };
            let stale = WireMessage::Response {
                id: id - 1,
                payload: Payload::Bit(false),
            };
            wire::write_frame(&mut s, &stale).unwrap();
            let payloads = vec![Payload::Bit(true); count];
            wire::write_frame(&mut s, &WireMessage::BatchResponse { id, payloads }).unwrap();
            s
        });
        let conn = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::new(vec![Slot::Active(conn)], Duration::from_secs(10), None);
        t.next_id = 1;
        let resp = t.try_deliver(0, &PlayerRequest::LocalEdgeCount).unwrap();
        assert_eq!(resp, Payload::Count(4));
        let round = t
            .try_deliver_round(&sample_round(2))
            .expect("tcp delivers rounds");
        let answers = round.into_iter().next().unwrap().unwrap();
        assert_eq!(answers, vec![Payload::Bit(true); 2]);
        drop(server.join().unwrap());
    }

    #[test]
    fn silence_maps_to_timeout() {
        let (listener, addr) = pair();
        let conn = TcpStream::connect(addr).unwrap();
        let (held, _) = listener.accept().unwrap();
        let mut t = TcpTransport::new(vec![Slot::Active(conn)], Duration::from_millis(50), None);
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::Timeout);
        assert_eq!(err.player(), Some(0));
        assert!(err.is_retryable());
        drop(held);
    }

    #[test]
    fn garbled_frames_map_to_corrupt() {
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let id = match wire::read_frame(&mut s).unwrap() {
                WireMessage::Request { id, .. } => id,
                other => panic!("expected request, got {other:?}"),
            };
            let mut buf = Vec::new();
            wire::write_frame(
                &mut buf,
                &WireMessage::Response {
                    id,
                    payload: Payload::Count(9),
                },
            )
            .unwrap();
            // Flip a body bit so the checksum fails on arrival.
            let at = buf.len() - 9;
            buf[at] ^= 0x01;
            s.write_all(&buf).unwrap();
            s.flush().unwrap();
            s
        });
        let conn = TcpStream::connect(addr).unwrap();
        let mut t = TcpTransport::new(vec![Slot::Active(conn)], Duration::from_secs(10), None);
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::Corrupt);
        assert!(err.is_retryable());
        drop(server.join().unwrap());
    }

    #[test]
    fn hangup_maps_to_transport_and_is_not_retryable() {
        let (listener, addr) = pair();
        let conn = TcpStream::connect(addr).unwrap();
        drop(listener.accept().unwrap()); // peer hangs up immediately
        let mut t = TcpTransport::new(vec![Slot::Active(conn)], Duration::from_secs(10), None);
        let err = t
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        assert_eq!(err.kind(), RunErrorKind::Transport);
        assert!(!err.is_retryable());
        assert_eq!(err.player(), Some(0));
    }

    #[test]
    fn shared_transport_delegates_and_survives_clone() {
        let (listener, addr) = pair();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let id = match wire::read_frame(&mut s).unwrap() {
                    WireMessage::Request { id, .. } => id,
                    other => panic!("expected request, got {other:?}"),
                };
                wire::write_frame(
                    &mut s,
                    &WireMessage::Response {
                        id,
                        payload: Payload::Count(3),
                    },
                )
                .unwrap();
            }
            s
        });
        let conn = TcpStream::connect(addr).unwrap();
        let inner = Arc::new(Mutex::new(TcpTransport::new(
            vec![Slot::Active(conn)],
            Duration::from_secs(10),
            None,
        )));
        let mut handle = SharedTransport::new(inner.clone());
        assert_eq!(handle.k(), 1);
        let mut other = handle.clone();
        assert_eq!(
            handle
                .try_deliver(0, &PlayerRequest::LocalEdgeCount)
                .unwrap(),
            Payload::Count(3)
        );
        assert_eq!(
            other
                .try_deliver(0, &PlayerRequest::LocalEdgeCount)
                .unwrap(),
            Payload::Count(3)
        );
        drop(server.join().unwrap());
    }
}
