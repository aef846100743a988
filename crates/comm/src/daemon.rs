//! The networked coordinator daemon and its player-side counterpart —
//! the two halves of `triad serve` / `triad connect`.
//!
//! [`TcpCoordinator`] owns the listening socket: it accepts player
//! connections, handshakes each one (a [`Hello`] answered by a
//! [`Welcome`] carrying protocol name, `k`, `n`, seed, cost model and
//! the player's slot), and once every expected slot is filled hands
//! back a [`TcpTransport`] ready to drop into a
//! [`Runtime`](crate::runtime::Runtime). [`PlayerSession`] is the other
//! side: connect, learn your assignment, then [`serve`] requests against
//! a local [`PlayerState`] until the coordinator says
//! [`Goodbye`](crate::wire::WireMessage::Goodbye).
//!
//! The wire format both halves speak is specified normatively in
//! `docs/NETWORKING.md`; the codec lives in [`crate::wire`].
//!
//! [`Hello`]: crate::wire::WireMessage::Hello
//! [`Welcome`]: crate::wire::Welcome
//! [`serve`]: PlayerSession::serve

use crate::player::PlayerState;
use crate::rand::{mix64, SharedRandomness};
use crate::runtime::{CostModel, RunError, TcpTransport};
use crate::simultaneous::SimMessage;
use crate::wire::{self, ErrorCode, ResumeClaim, Welcome, WireError, WireMessage};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long the daemon's one accept loop, which serves the census and
/// every reconnect wait, sleeps between non-blocking accept polls.
/// Short enough that a claimant in the backlog is picked up promptly;
/// long enough not to spin a core. It is also the least time a
/// claimant's `Hello` read is given, so a late claim still learns its
/// typed answer.
pub const ACCEPT_POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Failures of session establishment and player-side serving — the
/// pre-run phase, before the [`RunError`] taxonomy of an executing
/// protocol applies.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// Socket-level failure (connect refused, listener died, EOF).
    Io(std::io::Error),
    /// A frame-level failure from the wire codec.
    Wire(WireError),
    /// The peer violated the session protocol (rejected registration,
    /// unexpected frame, bad parameters).
    Protocol(String),
    /// The coordinator rejected this session's credential: wrong or
    /// missing `--auth-token`, or a resume claim with a bad nonce.
    Unauthorized(String),
    /// A resume claim was valid but arrived after the slot's reconnect
    /// window had expired; the run has already degraded without us.
    WindowExpired(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Protocol(what) => write!(f, "session error: {what}"),
            NetError::Unauthorized(what) => write!(f, "unauthorized: {what}"),
            NetError::WindowExpired(what) => write!(f, "reconnect window expired: {what}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::Protocol(_) | NetError::Unauthorized(_) | NetError::WindowExpired(_) => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// Everything a run needs agreed between coordinator and players — the
/// contents of the [`Welcome`] each player receives, minus its slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of players the run expects; `accept_players` returns once
    /// this many slots are filled.
    pub k: usize,
    /// Number of vertices of the global graph.
    pub n: usize,
    /// The shared-randomness seed in force (already rep-derived if the
    /// caller amplifies).
    pub seed: u64,
    /// The charging model.
    pub cost_model: CostModel,
    /// Protocol name (`unrestricted`, `low`, `high`, `oblivious`,
    /// `exact`).
    pub protocol: String,
    /// Free-form `key=value` protocol parameters (e.g. `eps=0.2 d=8`).
    pub params: String,
}

/// Session-layer policy for
/// [`accept_players_with`](TcpCoordinator::accept_players_with): the
/// shared secret required of every `Hello`, and the reconnect window a
/// detached slot is held open for. The default (`None`, zero) is the
/// pre-session behavior: no authentication, any mid-run disconnect is
/// final.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// When `Some`, every `Hello` (fresh registration or resume) must
    /// carry exactly this token; mismatches are answered with a typed
    /// [`ErrorCode::Unauthorized`] `Error` frame. Compared in constant
    /// time. Plaintext on the wire — a perimeter against accidental
    /// cross-run joins, not a cryptographic identity (docs/NETWORKING.md).
    pub auth_token: Option<String>,
    /// How long a slot that times out or hangs up mid-run stays
    /// [`Detached`](docs/NETWORKING.md) awaiting a resume claim before
    /// the run degrades. `Duration::ZERO` disables the reconnect
    /// machinery entirely.
    pub reconnect_window: Duration,
}

/// Constant-time byte-string equality: scans `max(len_a, len_b)`
/// positions unconditionally so the comparison's duration leaks neither
/// the match prefix length nor the expected token's contents.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// `true` when `presented` satisfies `expected`. A daemon without a
/// configured token accepts anything (including tokens — forward
/// compatible); a daemon with one requires an exact constant-time match.
fn token_ok(expected: Option<&str>, presented: Option<&str>) -> bool {
    match expected {
        None => true,
        Some(want) => {
            presented.is_some_and(|got| constant_time_eq(want.as_bytes(), got.as_bytes()))
        }
    }
}

/// Issues a fresh per-slot resume nonce. Unpredictable enough to stop
/// accidental cross-session resumes (seed, slot, process id and a
/// process-global counter all diffused through [`mix64`]); **not** a
/// cryptographic credential — it travels plaintext, exactly like the
/// auth token (docs/NETWORKING.md).
fn issue_nonce(seed: u64, slot: u32) -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let count = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = u64::from(std::process::id());
    mix64(mix64(seed ^ 0x4E4F_4E43_4530_5F5Fu64) ^ (u64::from(slot) << 32) ^ pid ^ (count << 48))
}

/// One slot of the daemon's slot table, the only record of who holds
/// which player slot from the census to the end of the run (normative
/// diagram in `docs/NETWORKING.md`). Without a reconnect window slots
/// never detach: the first failure surfaces directly.
pub(crate) enum Slot {
    /// No player has registered for the slot yet; the census is open.
    Vacant,
    /// A live handshaken connection.
    Active(TcpStream),
    /// The connection died at `since`; `cause` is the failure that
    /// detached it. Deliveries poll for a rejoin until
    /// `since + window`, after which the run degrades with a typed
    /// `Aborted`.
    Detached { since: Instant, cause: RunError },
}

impl Slot {
    pub(crate) fn is_active(&self) -> bool {
        matches!(self, Slot::Active(_))
    }
}

/// The daemon-side session state: a clone of the listening socket (kept
/// non-blocking), the run template for `Welcome`s, the auth policy, the
/// per-slot resume nonces, and the seed in force (updated on every
/// reseed so a rejoining player reconstructs the right shared
/// randomness).
///
/// Every claimant, from the census to the end of the run, is admitted
/// through its one accept loop ([`poll`](Self::poll)) and its one
/// handshake ([`admit`](Self::admit)). [`TcpTransport`] keeps the host
/// while a reconnect window is armed and polls it whenever a slot is
/// detached.
pub(crate) struct SessionHost {
    listener: TcpListener,
    cfg: ServeConfig,
    options: SessionOptions,
    nonces: Vec<u64>,
    seed: u64,
}

impl std::fmt::Debug for SessionHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHost")
            .field("k", &self.cfg.k)
            .field("window", &self.options.reconnect_window)
            .field("auth", &self.options.auth_token.is_some())
            .finish()
    }
}

impl SessionHost {
    /// The reconnect window slots are held open for.
    pub(crate) fn window(&self) -> Duration {
        self.options.reconnect_window
    }

    /// Records the seed now in force so rejoin `Welcome`s carry it.
    /// Called by the transport *before* it propagates a reseed, so a
    /// player that detaches mid-reseed still learns the new seed on
    /// rejoin.
    pub(crate) fn note_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The one accept loop: accepts claimants and [`admit`](Self::admit)s
    /// them into `slots` until the backlog is empty and `done(slots)`
    /// holds (`Ok(true)`), or the backlog is empty and `deadline` has
    /// passed (`Ok(false)`). Sleeps [`ACCEPT_POLL_INTERVAL`] between
    /// empty polls. Each handshake reads for at most
    /// `min(timeout, time left before deadline)` and at least one poll
    /// interval; an admitted connection is armed with `timeout` as its
    /// per-response deadline.
    ///
    /// # Errors
    ///
    /// A failure of the listener itself.
    pub(crate) fn poll(
        &self,
        slots: &mut [Slot],
        deadline: Instant,
        timeout: Duration,
        done: impl Fn(&[Slot]) -> bool,
    ) -> std::io::Result<bool> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let read = timeout.min(left).max(ACCEPT_POLL_INTERVAL);
                    if let Some((slot, stream)) = self.admit(stream, slots, read) {
                        let _ = stream.set_read_timeout(Some(timeout));
                        slots[slot] = Slot::Active(stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if done(slots) {
                        return Ok(true);
                    }
                    if Instant::now() >= deadline {
                        return Ok(false);
                    }
                    std::thread::sleep(ACCEPT_POLL_INTERVAL);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The one handshake: reads the claimant's `Hello` for at most
    /// `read`, and either writes its `Welcome` (the seed in force, and
    /// the slot's nonce when a window is armed) and returns the slot it
    /// won, or answers a typed `Error` frame ([`assign`](Self::assign))
    /// and drops it. Never propagates an error: a hostile, silent or
    /// garbled claimant costs only itself and its handshake window,
    /// never the listener.
    fn admit(
        &self,
        mut stream: TcpStream,
        slots: &[Slot],
        read: Duration,
    ) -> Option<(usize, TcpStream)> {
        // The accepted socket may inherit the listener's non-blocking
        // mode; the handshake wants a plain bounded read. A socket that
        // dies during setup, or a garbled or silent dialer, is a
        // rejected claimant, not a dead run.
        stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_nodelay(true))
            .and_then(|()| stream.set_read_timeout(Some(read)))
            .ok()?;
        let hello = wire::read_frame(&mut stream).ok()?;
        let slot = match self.assign(hello, slots) {
            Ok(slot) => slot,
            Err((code, reason)) => {
                let _ = wire::write_frame(&mut stream, &WireMessage::Error { code, reason });
                return None;
            }
        };
        // The resume nonce is only a live credential when a reconnect
        // window exists; without one it is 0 so players know not to try.
        let resume_nonce = if self.window().is_zero() {
            0
        } else {
            self.nonces[slot]
        };
        let welcome = Welcome {
            player: slot as u32,
            k: self.cfg.k as u32,
            n: self.cfg.n as u64,
            seed: self.seed,
            cost_model: self.cfg.cost_model,
            protocol: self.cfg.protocol.clone(),
            params: self.cfg.params.clone(),
            resume_nonce,
        };
        // A peer that hangs up between its Hello and our Welcome must
        // not kill the listener: drop it and leave the slot for a real
        // claimant.
        wire::write_frame(&mut stream, &WireMessage::Welcome(welcome)).ok()?;
        Some((slot, stream))
    }

    /// Which slot a first frame wins, or the typed rejection it gets.
    /// While any slot is vacant the census rules apply: a fresh `Hello`
    /// gets the slot it asked for or the lowest vacant one. Once none
    /// is, only a resume claim for a detached slot inside its window
    /// wins. Bad token or nonce → [`ErrorCode::Unauthorized`], expired
    /// slot → [`ErrorCode::WindowExpired`], attached slot →
    /// [`ErrorCode::SlotAttached`] (the retryable race), anything else →
    /// [`ErrorCode::Generic`].
    fn assign(&self, hello: WireMessage, slots: &[Slot]) -> Result<usize, (ErrorCode, String)> {
        let (asked, token, resume) = match hello {
            WireMessage::Hello {
                slot,
                token,
                resume,
            } => (slot, token, resume),
            other => {
                let reason = format!("expected hello, got {}", other.kind());
                return Err((ErrorCode::Generic, reason));
            }
        };
        if !token_ok(self.options.auth_token.as_deref(), token.as_deref()) {
            let reason = "invalid or missing auth token".into();
            return Err((ErrorCode::Unauthorized, reason));
        }
        let k = self.cfg.k;
        let vacant = slots.iter().position(|s| matches!(s, Slot::Vacant));
        let claim = match (vacant, resume) {
            (Some(_), Some(_)) => {
                let reason = "nothing to resume: the census is still open".into();
                return Err((ErrorCode::Unauthorized, reason));
            }
            (Some(lowest), None) => {
                return match asked.map(|s| s as usize) {
                    None => Ok(lowest),
                    Some(s) if s >= k => Err((
                        ErrorCode::Generic,
                        format!("slot {s} out of range for k={k}"),
                    )),
                    Some(s) if !matches!(slots[s], Slot::Vacant) => {
                        Err((ErrorCode::Generic, format!("slot {s} already taken")))
                    }
                    Some(s) => Ok(s),
                }
            }
            (None, None) => {
                let reason = "census is closed; only resume claims are accepted".into();
                return Err((ErrorCode::Generic, reason));
            }
            (None, Some(claim)) => claim,
        };
        let slot = claim.slot as usize;
        if slot >= k {
            let reason = format!("resume slot {slot} out of range for k={k}");
            return Err((ErrorCode::Generic, reason));
        }
        if claim.nonce != self.nonces[slot] {
            let reason = format!("invalid resume nonce for slot {slot}");
            return Err((ErrorCode::Unauthorized, reason));
        }
        let window = self.window();
        match &slots[slot] {
            Slot::Detached { since, .. } if Instant::now() >= *since + window => Err((
                ErrorCode::WindowExpired,
                format!(
                    "slot {slot} reconnect window ({} ms) has expired",
                    window.as_millis()
                ),
            )),
            Slot::Detached { .. } => Ok(slot),
            _ => Err((
                ErrorCode::SlotAttached,
                format!("slot {slot} is still attached; back off and retry"),
            )),
        }
    }
}

/// The listening half of `triad serve`: accepts and registers player
/// connections until the expected player set is complete.
#[derive(Debug)]
pub struct TcpCoordinator {
    listener: TcpListener,
}

impl TcpCoordinator {
    /// Binds the coordinator's listening socket. Bind to port 0 to let
    /// the OS pick — [`local_addr`](Self::local_addr) reports the
    /// result.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Ok(TcpCoordinator {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The address the coordinator actually listens on.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until all `cfg.k` slots are filled, then
    /// returns the ordered [`TcpTransport`].
    ///
    /// Each connection is handshaken inline: a
    /// [`Hello`](WireMessage::Hello) may claim an explicit slot (useful
    /// when share files are pre-assigned) or take the lowest free one.
    /// Out-of-range and already-taken slots are answered with an
    /// [`Error`](WireMessage::Error) frame and the connection is
    /// dropped — the run keeps waiting for a valid claimant.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] when `timeout` expires before the player
    /// set completes; I/O failures of the listener itself propagate as
    /// [`NetError::Io`].
    pub fn accept_players(
        &self,
        cfg: &ServeConfig,
        timeout: Duration,
    ) -> Result<TcpTransport, NetError> {
        self.accept_players_with(cfg, timeout, &SessionOptions::default())
    }

    /// [`accept_players`](Self::accept_players) with an explicit
    /// session-layer policy: an auth token every `Hello` must present,
    /// and a reconnect window during which a slot that dies mid-run may
    /// be resumed (see `docs/NETWORKING.md`). The census runs the same
    /// accept loop and handshake that later admit rejoins, until every
    /// slot is active and the backlog is empty: a claimant already
    /// queued when the last slot fills is told the census is closed.
    /// With a non-zero window the listener stays open for the
    /// transport's lifetime, polling for resume claims whenever a slot
    /// is detached.
    ///
    /// # Errors
    ///
    /// As [`accept_players`](Self::accept_players); the census-timeout
    /// error additionally names the filled and missing slots.
    pub fn accept_players_with(
        &self,
        cfg: &ServeConfig,
        timeout: Duration,
        options: &SessionOptions,
    ) -> Result<TcpTransport, NetError> {
        if cfg.k == 0 {
            return Err(NetError::Protocol("k must be at least 1".into()));
        }
        let deadline = Instant::now() + timeout;
        // The clone shares the underlying socket, including its
        // non-blocking flag, which the accept loop relies on.
        let host = SessionHost {
            listener: self.listener.try_clone()?,
            cfg: cfg.clone(),
            options: options.clone(),
            nonces: (0..cfg.k as u32)
                .map(|slot| issue_nonce(cfg.seed, slot))
                .collect(),
            seed: cfg.seed,
        };
        host.listener.set_nonblocking(true)?;
        let mut slots: Vec<Slot> = (0..cfg.k).map(|_| Slot::Vacant).collect();
        let filled = host.poll(&mut slots, deadline, timeout, |s| {
            s.iter().all(Slot::is_active)
        })?;
        if !filled {
            let (present, missing): (Vec<usize>, Vec<usize>) =
                (0..cfg.k).partition(|&j| slots[j].is_active());
            return Err(NetError::Protocol(format!(
                "timed out with {}/{} players registered \
                 (registered slots {present:?}, missing {missing:?})",
                present.len(),
                cfg.k
            )));
        }
        if options.reconnect_window.is_zero() {
            self.listener.set_nonblocking(false)?;
            return Ok(TcpTransport::new(slots, timeout, None));
        }
        Ok(TcpTransport::new(slots, timeout, Some(host)))
    }
}

/// How a player session ended: the request count it served and the
/// coordinator's farewell, when the session closed cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Number of logical protocol requests answered (control frames
    /// excluded); a batch counts once per request it carries.
    pub requests: u64,
    /// Number of request-bearing frames answered (`Request`, `Batch`
    /// and `SimRequest`). `requests ÷ frames` is how many requests the
    /// coordinator packed into each round trip.
    pub frames: u64,
    /// The verdict line from the coordinator's
    /// [`Goodbye`](WireMessage::Goodbye), or `None` when the session
    /// ended by hitting a [`serve_until`](PlayerSession::serve_until)
    /// limit.
    pub farewell: Option<String>,
    /// How many times the session lost its connection and successfully
    /// resumed its slot ([`serve_rejoining`](PlayerSession::serve_rejoining));
    /// `0` for a session that never dropped.
    pub rejoins: u64,
}

/// Client-side dialing policy for [`PlayerSession::connect_with`] and
/// [`PlayerSession::serve_rejoining`]: the slot and credential to
/// present, the handshake deadline, and the bounded exponential backoff
/// applied when the dial is refused (racing `--port-file` publication)
/// or a rejoin races the coordinator's detach detection.
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// Explicit player slot to claim (`None` = any free slot).
    pub slot: Option<u32>,
    /// Auth token to present in the `Hello`, for daemons started with
    /// `--auth-token`.
    pub token: Option<String>,
    /// Handshake deadline (dial + `Hello`/`Welcome` exchange). Once
    /// registered the session waits indefinitely between requests.
    pub timeout: Duration,
    /// How many times a refused dial or a
    /// [`SlotAttached`](crate::wire::ErrorCode::SlotAttached) rejection
    /// is retried before the error surfaces. `0` = fail fast.
    pub retries: u32,
    /// Initial backoff between retries; doubles each attempt, capped at
    /// [`ConnectOptions::MAX_BACKOFF`].
    pub backoff: Duration,
}

impl ConnectOptions {
    /// The ceiling the exponential backoff saturates at.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(2);

    /// The backoff before retry number `attempt` (0-based): doubled
    /// each time, saturating at [`Self::MAX_BACKOFF`].
    fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = self
            .backoff
            .saturating_mul(2u32.saturating_pow(attempt.min(16)));
        exp.min(Self::MAX_BACKOFF)
    }
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            slot: None,
            token: None,
            timeout: crate::runtime::DEFAULT_NET_TIMEOUT,
            retries: 0,
            backoff: Duration::from_millis(50),
        }
    }
}

/// What one dial + handshake attempt produced: a registered session, or
/// a failure the bounded backoff loop retries.
enum Dial {
    Ok(PlayerSession),
    Retry(NetError),
}

/// `true` for dial failures the bounded backoff loop should absorb: the
/// listener is not up yet (racing `--port-file`) or dropped the attempt.
fn dial_retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::AddrNotAvailable
    )
}

/// The player half of a networked run: one registered connection plus
/// the [`Welcome`] describing the assignment.
#[derive(Debug)]
pub struct PlayerSession {
    stream: TcpStream,
    welcome: Welcome,
}

impl PlayerSession {
    /// Dials the coordinator and completes the handshake, optionally
    /// claiming an explicit player slot. `timeout` bounds the handshake
    /// only; once registered, the session waits indefinitely between
    /// requests (the coordinator is allowed to think).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the dial fails, [`NetError::Unauthorized`]
    /// when the daemon requires a token, [`NetError::Protocol`] for any
    /// other rejection (the reason is passed through).
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        slot: Option<u32>,
        timeout: Duration,
    ) -> Result<Self, NetError> {
        Self::connect_with(
            addr,
            &ConnectOptions {
                slot,
                timeout,
                ..ConnectOptions::default()
            },
        )
    }

    /// [`connect`](Self::connect) under an explicit [`ConnectOptions`]
    /// policy: presents the auth token, and absorbs up to
    /// `opts.retries` refused dials with exponential backoff — the fix
    /// for clients racing the daemon's `--port-file` publication.
    ///
    /// # Errors
    ///
    /// As [`connect`](Self::connect), after the retry budget is spent.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        opts: &ConnectOptions,
    ) -> Result<Self, NetError> {
        let hello = WireMessage::Hello {
            slot: opts.slot,
            token: opts.token.clone(),
            resume: None,
        };
        Self::dial_retrying(addr, opts, &hello)
    }

    /// Reattaches to a slot this client registered earlier in the
    /// session, presenting the `Welcome`'s resume nonce. Retries both
    /// refused dials and
    /// [`SlotAttached`](crate::wire::ErrorCode::SlotAttached) rejections
    /// (the claimant racing the coordinator's detach detection) under
    /// the same bounded backoff.
    ///
    /// # Errors
    ///
    /// [`NetError::Unauthorized`] for a bad token or nonce,
    /// [`NetError::WindowExpired`] when the slot already degraded, and
    /// the usual [`NetError::Io`]/[`NetError::Protocol`] otherwise.
    pub fn rejoin_with<A: ToSocketAddrs>(
        addr: A,
        opts: &ConnectOptions,
        claim: ResumeClaim,
    ) -> Result<Self, NetError> {
        let hello = WireMessage::Hello {
            slot: None,
            token: opts.token.clone(),
            resume: Some(claim),
        };
        Self::dial_retrying(addr, opts, &hello)
    }

    /// The one dial loop: [`dial`](Self::dial)s and retries each
    /// [`Dial::Retry`] up to `opts.retries` times, sleeping
    /// [`backoff_for`](ConnectOptions::backoff_for) in between. Every
    /// other failure returns at once.
    fn dial_retrying<A: ToSocketAddrs>(
        addr: A,
        opts: &ConnectOptions,
        hello: &WireMessage,
    ) -> Result<Self, NetError> {
        let mut attempt = 0u32;
        loop {
            match Self::dial(&addr, opts, hello)? {
                Dial::Ok(session) => return Ok(session),
                Dial::Retry(e) if attempt >= opts.retries => return Err(e),
                Dial::Retry(_) => {
                    std::thread::sleep(opts.backoff_for(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// One dial + handshake attempt. A refused dial and a
    /// [`SlotAttached`](ErrorCode::SlotAttached) rejection come back as
    /// [`Dial::Retry`]; every other typed rejection and hard local
    /// failure (e.g. an unresolvable address) propagates.
    fn dial<A: ToSocketAddrs>(
        addr: &A,
        opts: &ConnectOptions,
        hello: &WireMessage,
    ) -> Result<Dial, NetError> {
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) if dial_retryable(&e) => return Ok(Dial::Retry(NetError::Io(e))),
            Err(e) => return Err(NetError::Io(e)),
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(opts.timeout))?;
        if let Err(e) = wire::write_frame(&mut stream, hello) {
            return Ok(Dial::Retry(NetError::Io(e)));
        }
        let welcome = match wire::read_frame(&mut stream) {
            Ok(WireMessage::Welcome(w)) => w,
            Ok(WireMessage::Error {
                code: ErrorCode::SlotAttached,
                reason,
            }) => return Ok(Dial::Retry(rejection(ErrorCode::SlotAttached, reason))),
            Ok(WireMessage::Error { code, reason }) => return Err(rejection(code, reason)),
            Ok(other) => {
                return Err(NetError::Protocol(format!(
                    "expected welcome, got {}",
                    other.kind()
                )))
            }
            Err(e) => return Err(NetError::Wire(e)),
        };
        stream.set_read_timeout(None)?;
        Ok(Dial::Ok(PlayerSession { stream, welcome }))
    }

    /// The run assignment the coordinator handed this player.
    pub fn welcome(&self) -> &Welcome {
        &self.welcome
    }

    /// Serves coordinator requests against `state` until the coordinator
    /// says goodbye. `sim` computes this player's one-shot message when
    /// a simultaneous protocol is being run (players in multi-round runs
    /// can pass a closure returning [`SimMessage::empty`]).
    ///
    /// # Errors
    ///
    /// Surfaces socket failures, garbled frames and protocol violations
    /// as [`NetError`]; a clean [`Goodbye`](WireMessage::Goodbye)
    /// returns the [`ServeSummary`].
    pub fn serve<F>(self, state: &PlayerState, sim: F) -> Result<ServeSummary, NetError>
    where
        F: FnMut(&PlayerState, &SharedRandomness) -> SimMessage<'static>,
    {
        self.serve_until(state, sim, None)
    }

    /// [`serve`](Self::serve) with a request budget: after answering
    /// `limit` protocol requests — or on reading a frame whose requests
    /// would take it past `limit`, before answering any of them — the
    /// session returns early and **drops the connection**: a player that
    /// walks away mid-round. This is
    /// deliberate conformance-test support: the coordinator observes the
    /// hangup as a typed [`RunError::Transport`] and its quorum
    /// machinery must degrade to `inconclusive`, never flip a
    /// verdict (see `docs/NETWORKING.md` and the TCP differential
    /// suite).
    ///
    /// # Errors
    ///
    /// As [`serve`](Self::serve).
    pub fn serve_until<F>(
        mut self,
        state: &PlayerState,
        mut sim: F,
        limit: Option<u64>,
    ) -> Result<ServeSummary, NetError>
    where
        F: FnMut(&PlayerState, &SharedRandomness) -> SimMessage<'static>,
    {
        let mut progress = ServeProgress::fresh(self.welcome.seed);
        let farewell = self.serve_core(state, &mut sim, limit, &mut progress)?;
        Ok(ServeSummary {
            requests: progress.requests,
            frames: progress.frames,
            farewell,
            rejoins: 0,
        })
    }

    /// Serves like [`serve`](Self::serve) but survives connection loss:
    /// when the socket dies mid-session, the player presents its resume
    /// nonce (with `opts`'s token and backoff policy) and — if the
    /// coordinator's reconnect window is still open — picks up exactly
    /// where it left off. Requests are answered statelessly from the
    /// seed in force, so a replayed request after rejoin produces the
    /// byte-identical payload (see `docs/NETWORKING.md`). Up to
    /// `opts.retries` rejoins are attempted over the session's lifetime.
    ///
    /// A session whose `Welcome` carried `resume_nonce == 0` (daemon
    /// without a reconnect window) falls back to plain
    /// [`serve`](Self::serve) semantics: the first disconnect is final.
    ///
    /// # Errors
    ///
    /// As [`serve`](Self::serve), plus [`NetError::Unauthorized`] /
    /// [`NetError::WindowExpired`] when a rejoin attempt is rejected.
    pub fn serve_rejoining<A, F>(
        mut self,
        addr: A,
        opts: &ConnectOptions,
        state: &PlayerState,
        mut sim: F,
    ) -> Result<ServeSummary, NetError>
    where
        A: ToSocketAddrs,
        F: FnMut(&PlayerState, &SharedRandomness) -> SimMessage<'static>,
    {
        let mut progress = ServeProgress::fresh(self.welcome.seed);
        let mut rejoins = 0u64;
        loop {
            match self.serve_core(state, &mut sim, None, &mut progress) {
                Ok(farewell) => {
                    return Ok(ServeSummary {
                        requests: progress.requests,
                        frames: progress.frames,
                        farewell,
                        rejoins,
                    })
                }
                Err(e) if connection_lost(&e) && self.welcome.resume_nonce != 0 => {
                    if rejoins >= u64::from(opts.retries) {
                        return Err(e);
                    }
                    let claim = ResumeClaim {
                        slot: self.welcome.player,
                        nonce: self.welcome.resume_nonce,
                        last_acked: progress.last_acked,
                    };
                    self = Self::rejoin_with(&addr, opts, claim)?;
                    // The rejoin Welcome carries the seed currently in
                    // force (the coordinator may have reseeded while we
                    // were gone).
                    progress.shared = SharedRandomness::new(self.welcome.seed);
                    rejoins += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The serve loop proper, factored out so [`serve_until`] and
    /// [`serve_rejoining`](Self::serve_rejoining) share it. Returns the
    /// farewell on a clean `Goodbye`, `None` when `limit` was hit;
    /// `progress` survives the call so a rejoin resumes counting where
    /// the dead connection stopped.
    ///
    /// [`serve_until`]: Self::serve_until
    fn serve_core<F>(
        &mut self,
        state: &PlayerState,
        sim: &mut F,
        limit: Option<u64>,
        progress: &mut ServeProgress,
    ) -> Result<Option<String>, NetError>
    where
        F: FnMut(&PlayerState, &SharedRandomness) -> SimMessage<'static>,
    {
        loop {
            let msg = wire::read_frame(&mut self.stream)?;
            let carried = match &msg {
                WireMessage::Request { .. } | WireMessage::SimRequest { .. } => 1,
                WireMessage::Batch { reqs, .. } => reqs.len() as u64,
                _ => 0,
            };
            if limit.is_some_and(|max| progress.requests + carried > max) {
                return Ok(None);
            }
            let (id, answer) = match msg {
                WireMessage::Request { id, req } => {
                    let payload = state.handle(&req, &progress.shared);
                    (id, WireMessage::Response { id, payload })
                }
                WireMessage::Batch { id, reqs } => {
                    // Answered in order, from the seed in force, so a
                    // batch replayed after a rejoin answers identically.
                    let payloads = reqs
                        .iter()
                        .map(|req| state.handle(req, &progress.shared))
                        .collect();
                    (id, WireMessage::BatchResponse { id, payloads })
                }
                WireMessage::SimRequest { id } => {
                    let message = sim(state, &progress.shared);
                    (id, WireMessage::SimResponse { id, message })
                }
                WireMessage::AdoptShared { seed } => {
                    progress.shared = SharedRandomness::new(seed);
                    wire::write_frame(&mut self.stream, &WireMessage::Ack).map_err(NetError::Io)?;
                    continue;
                }
                WireMessage::Goodbye { summary } => return Ok(Some(summary)),
                WireMessage::Error { code, reason } => return Err(rejection(code, reason)),
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected {} frame from coordinator",
                        other.kind()
                    )))
                }
            };
            wire::write_frame(&mut self.stream, &answer).map_err(NetError::Io)?;
            progress.requests += carried;
            progress.frames += 1;
            progress.last_acked = id;
            if limit.is_some_and(|max| progress.requests >= max) {
                return Ok(None);
            }
        }
    }
}

/// Serve-loop state that must outlive any single connection so a rejoin
/// resumes rather than restarts: the shared randomness in force, the
/// requests and request-bearing frames answered so far, and the last
/// acknowledged correlation id.
#[derive(Debug)]
struct ServeProgress {
    shared: SharedRandomness,
    requests: u64,
    frames: u64,
    last_acked: u64,
}

impl ServeProgress {
    fn fresh(seed: u64) -> Self {
        ServeProgress {
            shared: SharedRandomness::new(seed),
            requests: 0,
            frames: 0,
            last_acked: 0,
        }
    }
}

/// Maps a typed wire rejection onto the [`NetError`] taxonomy.
fn rejection(code: ErrorCode, reason: String) -> NetError {
    match code {
        ErrorCode::Unauthorized => NetError::Unauthorized(reason),
        ErrorCode::WindowExpired => NetError::WindowExpired(reason),
        ErrorCode::Generic | ErrorCode::SlotAttached => NetError::Protocol(reason),
    }
}

/// `true` for failures that mean the connection itself died (the
/// rejoinable case), as opposed to a typed rejection or protocol
/// violation.
fn connection_lost(e: &NetError) -> bool {
    matches!(e, NetError::Io(_) | NetError::Wire(WireError::Io(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use crate::request::PlayerRequest;
    use crate::runtime::Transport;
    use std::time::Duration;
    use triad_graph::{Edge, VertexId};

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    fn cfg(k: usize) -> ServeConfig {
        ServeConfig {
            k,
            n: 4,
            seed: 11,
            cost_model: CostModel::Coordinator,
            protocol: "unrestricted".into(),
            params: "eps=0.5".into(),
        }
    }

    #[test]
    fn full_session_roundtrip_with_reseed_and_goodbye() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let shares = [vec![e(0, 1), e(1, 2)], vec![e(0, 2)]];
        let players: Vec<_> = (0..2u32)
            .map(|j| {
                let share = shares[j as usize].clone();
                std::thread::spawn(move || {
                    // Player 1 claims its slot explicitly, player 0 takes
                    // the free one.
                    let slot = (j == 1).then_some(1);
                    let session =
                        PlayerSession::connect(addr, slot, Duration::from_secs(10)).unwrap();
                    let w = session.welcome().clone();
                    assert_eq!(w.k, 2);
                    assert_eq!(w.protocol, "unrestricted");
                    let state = PlayerState::new(w.player as usize, w.n as usize, &share);
                    session.serve(&state, |_, _| SimMessage::empty()).unwrap()
                })
            })
            .collect();
        let mut transport = coordinator
            .accept_players(&cfg(2), Duration::from_secs(10))
            .unwrap();
        assert_eq!(transport.k(), 2);
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::HasEdge(e(0, 1))),
            Ok(Payload::Bit(true))
        );
        assert_eq!(
            transport.try_deliver(1, &PlayerRequest::HasEdge(e(0, 1))),
            Ok(Payload::Bit(false))
        );
        transport.adopt_shared(SharedRandomness::new(99));
        assert_eq!(
            transport.try_deliver(1, &PlayerRequest::LocalEdgeCount),
            Ok(Payload::Count(1))
        );
        let sims = transport.collect_sim_messages().unwrap();
        assert_eq!(sims.len(), 2);
        // One batch per player answers the whole round, in order.
        let round = [
            PlayerRequest::HasEdge(e(0, 2)),
            PlayerRequest::LocalEdgeCount,
            PlayerRequest::HasEdge(e(1, 2)),
        ];
        let answers: Vec<Vec<Payload<'static>>> = transport
            .try_deliver_round(&round)
            .expect("tcp delivers rounds")
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(
            answers,
            vec![
                vec![Payload::Bit(false), Payload::Count(2), Payload::Bit(true)],
                vec![Payload::Bit(true), Payload::Count(1), Payload::Bit(false)],
            ]
        );
        transport.goodbye("accepted (no triangle found)");
        let mut summaries: Vec<_> = players.into_iter().map(|h| h.join().unwrap()).collect();
        summaries.sort_by_key(|s| s.requests);
        for s in &summaries {
            assert_eq!(s.farewell.as_deref(), Some("accepted (no triangle found)"));
        }
        // 2 + 1 deliveries, one sim request and a batch of 3 each.
        assert_eq!(summaries[0].requests + summaries[1].requests, 3 + 2 + 2 * 3);
        assert_eq!(summaries[0].frames + summaries[1].frames, 3 + 2 + 2);
    }

    #[test]
    fn request_limit_stops_before_a_batch_that_would_cross_it() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let player = std::thread::spawn(move || {
            let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
            let state = PlayerState::new(0, 4, &[e(0, 1)]);
            session
                .serve_until(&state, |_, _| SimMessage::empty(), Some(3))
                .unwrap()
        });
        let mut transport = coordinator
            .accept_players(&cfg(1), Duration::from_secs(10))
            .unwrap();
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::LocalEdgeCount),
            Ok(Payload::Count(1))
        );
        // 1 answered + 5 carried > 3: the player walks away unanswered.
        let round = vec![PlayerRequest::LocalEdgeCount; 5];
        let answers = transport
            .try_deliver_round(&round)
            .expect("tcp delivers rounds");
        let err = answers.into_iter().next().unwrap().unwrap_err();
        assert_eq!(err.kind(), crate::runtime::RunErrorKind::Transport, "{err}");
        let summary = player.join().unwrap();
        assert_eq!((summary.requests, summary.frames), (1, 1));
        assert_eq!(summary.farewell, None);
    }

    #[test]
    fn bad_slot_claims_are_rejected_without_killing_the_run() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            coordinator.accept_players(&cfg(2), Duration::from_secs(10))
        });
        // Out of range.
        let err = PlayerSession::connect(addr, Some(5), Duration::from_secs(10)).unwrap_err();
        assert!(
            matches!(&err, NetError::Protocol(r) if r.contains("out of range")),
            "{err}"
        );
        // Valid explicit claim.
        let a = PlayerSession::connect(addr, Some(0), Duration::from_secs(10)).unwrap();
        assert_eq!(a.welcome().player, 0);
        // Duplicate claim.
        let err = PlayerSession::connect(addr, Some(0), Duration::from_secs(10)).unwrap_err();
        assert!(
            matches!(&err, NetError::Protocol(r) if r.contains("already taken")),
            "{err}"
        );
        // Free-slot claim completes the set.
        let b = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
        assert_eq!(b.welcome().player, 1);
        let transport = accept.join().unwrap().unwrap();
        assert_eq!(transport.k(), 2);
    }

    #[test]
    fn malformed_hello_battery_never_kills_the_listener() {
        use std::io::Write;
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            coordinator.accept_players(&cfg(1), Duration::from_secs(10))
        });
        // (a) Pure garbage instead of a frame.
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(&[0xFF; 32]).unwrap();
        drop(garbage);
        // (b) A truncated frame: a length prefix promising 100 bytes,
        // then a hangup three bytes in.
        let mut truncated = TcpStream::connect(addr).unwrap();
        truncated.write_all(&100u32.to_le_bytes()).unwrap();
        truncated.write_all(&[1, 2, 3]).unwrap();
        drop(truncated);
        // (c) Hangup before sending anything at all.
        drop(TcpStream::connect(addr).unwrap());
        // (d) A well-formed frame of the wrong type.
        let mut wrong = TcpStream::connect(addr).unwrap();
        wire::write_frame(&mut wrong, &WireMessage::Ack).unwrap();
        match wire::read_frame(&mut wrong).unwrap() {
            WireMessage::Error { reason, .. } => {
                assert!(reason.contains("expected hello"), "{reason}")
            }
            other => panic!("expected error frame, got {}", other.kind()),
        }
        drop(wrong);
        // (e) A real player still registers and the run completes.
        let share = vec![e(0, 1)];
        let player = std::thread::spawn(move || {
            let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
            let state = PlayerState::new(0, 4, &share);
            session.serve(&state, |_, _| SimMessage::empty()).unwrap()
        });
        let mut transport = accept.join().unwrap().expect("listener must survive");
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::HasEdge(e(0, 1))),
            Ok(Payload::Bit(true))
        );
        transport.goodbye("done");
        assert_eq!(player.join().unwrap().requests, 1);
    }

    #[test]
    fn duplicate_slot_raw_frames_get_typed_rejections() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            coordinator.accept_players(&cfg(2), Duration::from_secs(10))
        });
        // First raw claimant takes slot 0.
        let mut first = TcpStream::connect(addr).unwrap();
        wire::write_frame(
            &mut first,
            &WireMessage::Hello {
                slot: Some(0),
                token: None,
                resume: None,
            },
        )
        .unwrap();
        match wire::read_frame(&mut first).unwrap() {
            WireMessage::Welcome(w) => assert_eq!(w.player, 0),
            other => panic!("expected welcome, got {}", other.kind()),
        }
        // Second claimant of the same slot gets an Error frame, not a
        // dead listener.
        let mut dup = TcpStream::connect(addr).unwrap();
        wire::write_frame(
            &mut dup,
            &WireMessage::Hello {
                slot: Some(0),
                token: None,
                resume: None,
            },
        )
        .unwrap();
        match wire::read_frame(&mut dup).unwrap() {
            WireMessage::Error { reason, .. } => {
                assert!(reason.contains("already taken"), "{reason}")
            }
            other => panic!("expected error frame, got {}", other.kind()),
        }
        drop(dup);
        // Slot 1 completes the census.
        let mut second = TcpStream::connect(addr).unwrap();
        wire::write_frame(
            &mut second,
            &WireMessage::Hello {
                slot: Some(1),
                token: None,
                resume: None,
            },
        )
        .unwrap();
        match wire::read_frame(&mut second).unwrap() {
            WireMessage::Welcome(w) => assert_eq!(w.player, 1),
            other => panic!("expected welcome, got {}", other.kind()),
        }
        let transport = accept.join().unwrap().expect("listener must survive");
        assert_eq!(transport.k(), 2);
    }

    #[test]
    fn hangup_after_hello_degrades_typed_never_panics() {
        // A dialer that sends a valid Hello and vanishes: depending on
        // socket timing the Welcome write either fails (the dialer is
        // rejected and the census times out) or lands in the kernel
        // buffer (the census completes over a dead connection and the
        // first delivery surfaces a typed RunError). Both are survival;
        // neither is a panic.
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            coordinator.accept_players(&cfg(1), Duration::from_millis(400))
        });
        let mut ghost = TcpStream::connect(addr).unwrap();
        wire::write_frame(
            &mut ghost,
            &WireMessage::Hello {
                slot: Some(0),
                token: None,
                resume: None,
            },
        )
        .unwrap();
        drop(ghost);
        match accept.join().unwrap() {
            Ok(mut transport) => {
                // unwrap_err: the dead connection must fail *typed*.
                transport
                    .try_deliver(0, &PlayerRequest::LocalEdgeCount)
                    .unwrap_err();
            }
            Err(NetError::Protocol(census)) => {
                assert!(census.contains("players"), "{census}");
            }
            Err(other) => panic!("expected census timeout, got {other}"),
        }
    }

    #[test]
    fn accept_times_out_with_a_player_census() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let err = coordinator
            .accept_players(&cfg(3), Duration::from_millis(60))
            .unwrap_err();
        assert!(
            matches!(&err, NetError::Protocol(r) if r.contains("0/3 players")),
            "{err}"
        );
    }

    #[test]
    fn census_timeout_names_registered_and_missing_slots() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let holder = std::thread::spawn(move || {
            // Fill slot 1 only, then hold the connection open so the
            // census report sees it registered.
            let session = PlayerSession::connect(addr, Some(1), Duration::from_secs(10)).unwrap();
            std::thread::sleep(Duration::from_millis(600));
            drop(session);
        });
        let err = coordinator
            .accept_players(&cfg(3), Duration::from_millis(300))
            .unwrap_err();
        assert!(
            matches!(&err, NetError::Protocol(r) if r.contains("1/3 players")
                && r.contains("registered slots [1]")
                && r.contains("missing [0, 2]")),
            "{err}"
        );
        holder.join().unwrap();
    }

    #[test]
    fn net_error_display_and_source_pin_operator_messages() {
        use std::error::Error as _;
        let io = NetError::Io(std::io::Error::other("boom"));
        assert_eq!(io.to_string(), "network error: boom");
        assert!(io.source().is_some());
        let wire_err = NetError::Wire(WireError::Protocol("bad frame".into()));
        assert_eq!(
            wire_err.to_string(),
            "wire error: protocol violation: bad frame"
        );
        assert!(wire_err.source().is_some());
        let proto = NetError::Protocol("slot 3 already taken".into());
        assert_eq!(proto.to_string(), "session error: slot 3 already taken");
        assert!(proto.source().is_none());
        let unauthorized = NetError::Unauthorized("invalid or missing auth token".into());
        assert_eq!(
            unauthorized.to_string(),
            "unauthorized: invalid or missing auth token"
        );
        assert!(unauthorized.source().is_none());
        let expired =
            NetError::WindowExpired("slot 0 reconnect window (250 ms) has expired".into());
        assert_eq!(
            expired.to_string(),
            "reconnect window expired: slot 0 reconnect window (250 ms) has expired"
        );
        assert!(expired.source().is_none());
    }

    #[test]
    fn token_matching_is_exact_and_constant_time_eq_is_total() {
        assert!(token_ok(None, None));
        assert!(token_ok(None, Some("anything")));
        assert!(!token_ok(Some("secret"), None));
        assert!(!token_ok(Some("secret"), Some("secret2")));
        assert!(!token_ok(Some("secret2"), Some("secret")));
        assert!(!token_ok(Some("secret"), Some("")));
        assert!(token_ok(Some("secret"), Some("secret")));
        assert!(constant_time_eq(b"", b""));
        assert!(!constant_time_eq(b"", b"x"));
        assert!(!constant_time_eq(b"x", b""));
    }

    #[test]
    fn backoff_doubles_and_saturates_at_the_cap() {
        let opts = ConnectOptions {
            backoff: Duration::from_millis(50),
            ..ConnectOptions::default()
        };
        assert_eq!(opts.backoff_for(0), Duration::from_millis(50));
        assert_eq!(opts.backoff_for(1), Duration::from_millis(100));
        assert_eq!(opts.backoff_for(2), Duration::from_millis(200));
        assert_eq!(opts.backoff_for(10), ConnectOptions::MAX_BACKOFF);
        assert_eq!(opts.backoff_for(u32::MAX), ConnectOptions::MAX_BACKOFF);
    }

    #[test]
    fn auth_token_gates_registration_with_typed_rejections() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let options = SessionOptions {
            auth_token: Some("hunter2".into()),
            reconnect_window: Duration::ZERO,
        };
        let accept = std::thread::spawn(move || {
            coordinator.accept_players_with(&cfg(1), Duration::from_secs(10), &options)
        });
        // Wrong token. A retry budget must not be spent on a typed
        // rejection: only refused dials and `SlotAttached` are retried,
        // so this returns well before the first 1 s backoff would end.
        let started = Instant::now();
        let err = PlayerSession::connect_with(
            addr,
            &ConnectOptions {
                token: Some("wrong".into()),
                retries: 5,
                backoff: Duration::from_secs(1),
                ..ConnectOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, NetError::Unauthorized(r) if r.contains("auth token")),
            "{err}"
        );
        assert!(started.elapsed() < Duration::from_secs(1));
        // Missing token.
        let err = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap_err();
        assert!(matches!(&err, NetError::Unauthorized(_)), "{err}");
        // Correct token registers — the listener survived both rejects.
        let session = PlayerSession::connect_with(
            addr,
            &ConnectOptions {
                token: Some("hunter2".into()),
                ..ConnectOptions::default()
            },
        )
        .unwrap();
        assert_eq!(session.welcome().player, 0);
        let transport = accept.join().unwrap().expect("listener must survive");
        assert_eq!(transport.k(), 1);
    }

    #[test]
    fn resume_claims_during_census_are_rejected_typed() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let accept = std::thread::spawn(move || {
            coordinator.accept_players(&cfg(1), Duration::from_secs(10))
        });
        let err = PlayerSession::rejoin_with(
            addr,
            &ConnectOptions::default(),
            ResumeClaim {
                slot: 0,
                nonce: 42,
                last_acked: 0,
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, NetError::Unauthorized(r) if r.contains("census is still open")),
            "{err}"
        );
        let _session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
        accept.join().unwrap().expect("listener must survive");
    }

    #[test]
    fn welcome_nonce_is_zero_without_a_reconnect_window() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let player = std::thread::spawn(move || {
            let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
            session.welcome().clone()
        });
        let _transport = coordinator
            .accept_players(&cfg(1), Duration::from_secs(10))
            .unwrap();
        assert_eq!(player.join().unwrap().resume_nonce, 0);
    }

    #[test]
    fn refused_dials_are_retried_with_bounded_backoff() {
        // Reserve a port, then free it so the first dials are refused.
        let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = placeholder.local_addr().unwrap();
        drop(placeholder);
        let started = Instant::now();
        let err = PlayerSession::connect_with(
            addr,
            &ConnectOptions {
                retries: 2,
                backoff: Duration::from_millis(20),
                timeout: Duration::from_secs(1),
                ..ConnectOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(&err, NetError::Io(_)), "{err}");
        // Two retries at 20 ms and 40 ms: at least 60 ms were slept.
        assert!(started.elapsed() >= Duration::from_millis(60));
        // A daemon that comes up late is absorbed by the same loop —
        // the fix for clients racing `--port-file` publication.
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            let coordinator = TcpCoordinator::bind(addr).unwrap();
            coordinator.accept_players(&cfg(1), Duration::from_secs(10))
        });
        let session = PlayerSession::connect_with(
            addr,
            &ConnectOptions {
                retries: 40,
                backoff: Duration::from_millis(25),
                ..ConnectOptions::default()
            },
        )
        .unwrap();
        assert_eq!(session.welcome().player, 0);
        late.join().unwrap().expect("census must complete");
    }

    /// Session options with a reconnect window and no auth token.
    fn windowed(ms: u64) -> SessionOptions {
        SessionOptions {
            auth_token: None,
            reconnect_window: Duration::from_millis(ms),
        }
    }

    #[test]
    fn detached_player_rejoins_within_window_and_delivery_replays() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let share = vec![e(0, 1), e(1, 2)];
        let (nonce_tx, nonce_rx) = std::sync::mpsc::channel();
        let first_share = share.clone();
        let first = std::thread::spawn(move || {
            let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
            let w = session.welcome().clone();
            nonce_tx.send((w.player, w.resume_nonce)).unwrap();
            let state = PlayerState::new(w.player as usize, 4, &first_share);
            // Answer exactly one request, then walk away (drops the
            // connection).
            session
                .serve_until(&state, |_, _| SimMessage::empty(), Some(1))
                .unwrap()
        });
        let mut transport = coordinator
            .accept_players_with(&cfg(1), Duration::from_secs(10), &windowed(10_000))
            .unwrap();
        let (slot, nonce) = nonce_rx.recv().unwrap();
        assert_ne!(nonce, 0, "a windowed daemon must issue a live nonce");
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::HasEdge(e(0, 1))),
            Ok(Payload::Bit(true))
        );
        first.join().unwrap();
        // The second incarnation presents the nonce and serves to the
        // goodbye; the interrupted delivery below replays onto it.
        let second = std::thread::spawn(move || {
            let session = PlayerSession::rejoin_with(
                addr,
                &ConnectOptions {
                    retries: 20,
                    backoff: Duration::from_millis(10),
                    ..ConnectOptions::default()
                },
                ResumeClaim {
                    slot,
                    nonce,
                    last_acked: 1,
                },
            )
            .unwrap();
            let state = PlayerState::new(slot as usize, 4, &share);
            session.serve(&state, |_, _| SimMessage::empty()).unwrap()
        });
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::LocalEdgeCount),
            Ok(Payload::Count(2))
        );
        transport.goodbye("done");
        let summary = second.join().unwrap();
        assert_eq!(summary.farewell.as_deref(), Some("done"));
    }

    #[test]
    fn rejoins_with_bad_credentials_are_rejected_and_the_run_still_recovers() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let token = || Some("hunter2".to_string());
        let options = SessionOptions {
            auth_token: token(),
            reconnect_window: Duration::from_millis(10_000),
        };
        let share = vec![e(0, 1)];
        let (nonce_tx, nonce_rx) = std::sync::mpsc::channel();
        let first_share = share.clone();
        let first = std::thread::spawn(move || {
            let session = PlayerSession::connect_with(
                addr,
                &ConnectOptions {
                    token: Some("hunter2".into()),
                    ..ConnectOptions::default()
                },
            )
            .unwrap();
            let w = session.welcome().clone();
            nonce_tx.send((w.player, w.resume_nonce)).unwrap();
            let state = PlayerState::new(w.player as usize, 4, &first_share);
            session
                .serve_until(&state, |_, _| SimMessage::empty(), Some(1))
                .unwrap()
        });
        let mut transport = coordinator
            .accept_players_with(&cfg(1), Duration::from_secs(10), &options)
            .unwrap();
        let (slot, nonce) = nonce_rx.recv().unwrap();
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::HasEdge(e(0, 1))),
            Ok(Payload::Bit(true))
        );
        first.join().unwrap();
        // Two invalid claimants queue up before any valid one: a wrong
        // nonce (right token) and a wrong token (right nonce). Both must
        // be answered with typed Unauthorized frames — and the slot must
        // still be rejoinable afterwards.
        let mut bad_nonce = TcpStream::connect(addr).unwrap();
        wire::write_frame(
            &mut bad_nonce,
            &WireMessage::Hello {
                slot: None,
                token: token(),
                resume: Some(ResumeClaim {
                    slot,
                    nonce: nonce.wrapping_add(1),
                    last_acked: 1,
                }),
            },
        )
        .unwrap();
        let mut bad_token = TcpStream::connect(addr).unwrap();
        wire::write_frame(
            &mut bad_token,
            &WireMessage::Hello {
                slot: None,
                token: Some("wrong".into()),
                resume: Some(ResumeClaim {
                    slot,
                    nonce,
                    last_acked: 1,
                }),
            },
        )
        .unwrap();
        let second = std::thread::spawn(move || {
            let session = PlayerSession::rejoin_with(
                addr,
                &ConnectOptions {
                    token: Some("hunter2".into()),
                    retries: 20,
                    backoff: Duration::from_millis(10),
                    ..ConnectOptions::default()
                },
                ResumeClaim {
                    slot,
                    nonce,
                    last_acked: 1,
                },
            )
            .unwrap();
            let state = PlayerState::new(slot as usize, 4, &share);
            session.serve(&state, |_, _| SimMessage::empty()).unwrap()
        });
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::LocalEdgeCount),
            Ok(Payload::Count(1))
        );
        for (stream, expect) in [
            (&mut bad_nonce, "invalid resume nonce"),
            (&mut bad_token, "auth token"),
        ] {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            match wire::read_frame(stream).unwrap() {
                WireMessage::Error { code, reason } => {
                    assert_eq!(code, ErrorCode::Unauthorized, "{reason}");
                    assert!(reason.contains(expect), "{reason}");
                }
                other => panic!("expected error frame, got {}", other.kind()),
            }
        }
        transport.goodbye("done");
        let summary = second.join().unwrap();
        assert_eq!(summary.farewell.as_deref(), Some("done"));
    }

    #[test]
    fn duplicate_rejoin_race_has_exactly_one_winner() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let (nonce_tx, nonce_rx) = std::sync::mpsc::channel();
        let share = vec![e(0, 1), e(0, 2), e(1, 2)];
        let first = std::thread::spawn(move || {
            let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
            let w = session.welcome().clone();
            nonce_tx.send((w.player, w.resume_nonce)).unwrap();
            let state = PlayerState::new(w.player as usize, 4, &share);
            session
                .serve_until(&state, |_, _| SimMessage::empty(), Some(1))
                .unwrap()
        });
        let mut transport = coordinator
            .accept_players_with(&cfg(1), Duration::from_secs(10), &windowed(10_000))
            .unwrap();
        let (slot, nonce) = nonce_rx.recv().unwrap();
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::LocalEdgeCount),
            Ok(Payload::Count(3))
        );
        first.join().unwrap();
        // Two claimants present the same valid claim before the
        // coordinator notices the disconnect. Exactly one must win the
        // slot; the other must get a typed SlotAttached rejection in the
        // same drain.
        let claim = ResumeClaim {
            slot,
            nonce,
            last_acked: 1,
        };
        let hello = WireMessage::Hello {
            slot: None,
            token: None,
            resume: Some(claim),
        };
        let mut a = TcpStream::connect(addr).unwrap();
        wire::write_frame(&mut a, &hello).unwrap();
        let mut b = TcpStream::connect(addr).unwrap();
        wire::write_frame(&mut b, &hello).unwrap();
        let servicer = std::thread::spawn(move || {
            for s in [&mut a, &mut b] {
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            }
            let first_frame = wire::read_frame(&mut a).unwrap();
            let second_frame = wire::read_frame(&mut b).unwrap();
            let (mut winner, frames) = match (first_frame, second_frame) {
                (WireMessage::Welcome(_), loser) => (a, loser),
                (loser, WireMessage::Welcome(_)) => (b, loser),
                (x, y) => panic!(
                    "expected exactly one welcome, got {} and {}",
                    x.kind(),
                    y.kind()
                ),
            };
            match frames {
                WireMessage::Error { code, reason } => {
                    assert_eq!(code, ErrorCode::SlotAttached, "{reason}");
                    assert!(reason.contains("still attached"), "{reason}");
                }
                other => panic!("loser expected SlotAttached, got {}", other.kind()),
            }
            // The winner answers the replayed request.
            match wire::read_frame(&mut winner).unwrap() {
                WireMessage::Request { id, .. } => {
                    wire::write_frame(
                        &mut winner,
                        &WireMessage::Response {
                            id,
                            payload: Payload::Count(3),
                        },
                    )
                    .unwrap();
                }
                other => panic!("winner expected request, got {}", other.kind()),
            }
            winner
        });
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::LocalEdgeCount),
            Ok(Payload::Count(3))
        );
        drop(servicer.join().unwrap());
    }

    #[test]
    fn window_expiry_degrades_typed_and_late_claimants_learn_it() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let (nonce_tx, nonce_rx) = std::sync::mpsc::channel();
        let share = vec![e(0, 1)];
        let first = std::thread::spawn(move || {
            let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
            let w = session.welcome().clone();
            nonce_tx.send((w.player, w.resume_nonce)).unwrap();
            let state = PlayerState::new(w.player as usize, 4, &share);
            session
                .serve_until(&state, |_, _| SimMessage::empty(), Some(1))
                .unwrap()
        });
        let mut transport = coordinator
            .accept_players_with(&cfg(1), Duration::from_secs(10), &windowed(250))
            .unwrap();
        let (slot, nonce) = nonce_rx.recv().unwrap();
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::HasEdge(e(0, 1))),
            Ok(Payload::Bit(true))
        );
        first.join().unwrap();
        // Nobody rejoins: the delivery waits out the window and degrades
        // with a typed Aborted naming the expiry and the original cause.
        let err = transport
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        match &err {
            crate::runtime::RunError::Aborted { reason } => {
                assert!(reason.contains("reconnect window expired"), "{reason}");
                assert!(reason.contains("player 0"), "{reason}");
            }
            other => panic!("expected aborted, got {other}"),
        }
        // A claimant arriving after expiry — with perfectly valid
        // credentials — is answered with a typed WindowExpired frame by
        // the next delivery attempt's poll.
        let mut late = TcpStream::connect(addr).unwrap();
        wire::write_frame(
            &mut late,
            &WireMessage::Hello {
                slot: None,
                token: None,
                resume: Some(ResumeClaim {
                    slot,
                    nonce,
                    last_acked: 1,
                }),
            },
        )
        .unwrap();
        transport
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        late.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match wire::read_frame(&mut late).unwrap() {
            WireMessage::Error { code, reason } => {
                assert_eq!(code, ErrorCode::WindowExpired, "{reason}");
                assert!(reason.contains("expired"), "{reason}");
            }
            other => panic!("expected error frame, got {}", other.kind()),
        }
    }

    #[test]
    fn a_silent_dialer_cannot_hold_a_reconnect_wait_past_its_window() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let first = std::thread::spawn(move || {
            let session = PlayerSession::connect(addr, None, Duration::from_secs(10)).unwrap();
            let state = PlayerState::new(0, 4, &[e(0, 1)]);
            session
                .serve_until(&state, |_, _| SimMessage::empty(), Some(1))
                .unwrap()
        });
        // The response timeout is 10 s; the window is 250 ms.
        let mut transport = coordinator
            .accept_players_with(&cfg(1), Duration::from_secs(10), &windowed(250))
            .unwrap();
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::HasEdge(e(0, 1))),
            Ok(Payload::Bit(true))
        );
        first.join().unwrap();
        // A dialer that connects and never sends its Hello: its handshake
        // is bounded by the waiting slot's expiry, not the 10 s timeout.
        let silent = TcpStream::connect(addr).unwrap();
        let started = Instant::now();
        let err = transport
            .try_deliver(0, &PlayerRequest::LocalEdgeCount)
            .unwrap_err();
        let waited = started.elapsed();
        match &err {
            crate::runtime::RunError::Aborted { reason } => {
                assert!(
                    reason.contains("reconnect window expired after 250 ms"),
                    "{reason}"
                );
            }
            other => panic!("expected aborted, got {other}"),
        }
        assert!(waited < Duration::from_secs(2), "waited {waited:?}");
        drop(silent);
    }

    #[test]
    fn serve_rejoining_survives_a_dropped_connection_transparently() {
        let coordinator = TcpCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coordinator.local_addr().unwrap();
        let share = vec![e(0, 1), e(1, 2)];
        let player = std::thread::spawn(move || {
            let opts = ConnectOptions {
                retries: 20,
                backoff: Duration::from_millis(10),
                ..ConnectOptions::default()
            };
            let session = PlayerSession::connect_with(addr, &opts).unwrap();
            let state = PlayerState::new(session.welcome().player as usize, 4, &share);
            session
                .serve_rejoining(addr, &opts, &state, |_, _| SimMessage::empty())
                .unwrap()
        });
        let mut transport = coordinator
            .accept_players_with(&cfg(1), Duration::from_secs(10), &windowed(10_000))
            .unwrap();
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::HasEdge(e(0, 1))),
            Ok(Payload::Bit(true))
        );
        // Sever the connection out from under the player by replacing
        // its slot with a detached marker: the player sees EOF and
        // rejoins via its resume nonce; the coordinator welcomes it on
        // the next delivery and replays.
        transport.sever_for_test(0);
        // A reseed while the player is detached must travel in the
        // rejoin Welcome, not be lost with the dead connection.
        transport.adopt_shared(SharedRandomness::new(4242));
        assert_eq!(
            transport.try_deliver(0, &PlayerRequest::LocalEdgeCount),
            Ok(Payload::Count(2))
        );
        transport.goodbye("accepted");
        let summary = player.join().unwrap();
        assert_eq!(summary.farewell.as_deref(), Some("accepted"));
        assert_eq!(summary.rejoins, 1);
    }
}
