use std::sync::Arc;

use super::{RunError, Transport};
use crate::message::Payload;
use crate::player::{players_from_shares, PlayerState};
use crate::rand::SharedRandomness;
use crate::request::PlayerRequest;
use triad_graph::Edge;

/// Deterministic in-process transport: the coordinator calls player
/// handlers directly. The reference execution mode — fast, allocation-light
/// and reproducible.
///
/// Player states are held behind an [`Arc`] so prepared inputs can share
/// one set of players across many repetitions without re-deriving
/// adjacency (request handlers take `&self`, so sharing is sound).
///
/// # Example
///
/// Handing an explicitly built `LocalTransport` to a
/// [`Runtime`](crate::runtime::Runtime) — what the
/// [`Runtime::local`](crate::runtime::Runtime::local) convenience does
/// internally:
///
/// ```
/// use triad_comm::{
///     CostModel, LocalTransport, Payload, PlayerRequest, Runtime, SharedRandomness,
/// };
/// use triad_graph::{Edge, VertexId};
///
/// let e = |a, b| Edge::new(VertexId(a), VertexId(b));
/// let shares = vec![vec![e(0, 1), e(1, 2)], vec![e(0, 2)]];
/// let shared = SharedRandomness::new(7);
/// let transport = LocalTransport::new(3, &shares, shared);
/// let mut rt = Runtime::new(Box::new(transport), 3, shared, CostModel::Coordinator);
/// assert_eq!(rt.request(1, PlayerRequest::LocalEdgeCount), Payload::Count(1));
/// ```
#[derive(Debug)]
pub struct LocalTransport {
    players: Arc<Vec<PlayerState>>,
    shared: SharedRandomness,
}

impl LocalTransport {
    /// Builds player states from edge shares.
    pub fn new(n: usize, shares: &[Vec<Edge>], shared: SharedRandomness) -> Self {
        LocalTransport {
            players: Arc::new(players_from_shares(n, shares)),
            shared,
        }
    }

    /// Shares pre-built player states with other transports — the
    /// prepared-input fast path of amplified sweeps (`docs/RUNTIME.md`).
    pub fn from_shared(players: Arc<Vec<PlayerState>>, shared: SharedRandomness) -> Self {
        LocalTransport { players, shared }
    }

    /// Read-only access to the players (tests and diagnostics).
    pub fn players(&self) -> &[PlayerState] {
        &self.players
    }
}

impl Transport for LocalTransport {
    fn k(&self) -> usize {
        self.players.len()
    }

    fn try_deliver(
        &mut self,
        player: usize,
        req: &PlayerRequest,
    ) -> Result<Payload<'static>, RunError> {
        // In-process handlers cannot lose or garble a response.
        Ok(self.players[player].handle(req, &self.shared))
    }

    fn adopt_shared(&mut self, shared: SharedRandomness) {
        self.shared = shared;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_graph::VertexId;

    #[test]
    fn delivers_to_correct_player() {
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let e12 = Edge::new(VertexId(1), VertexId(2));
        let shared = SharedRandomness::new(5);
        let mut t = LocalTransport::new(3, &[vec![e01], vec![e12]], shared);
        assert_eq!(t.k(), 2);
        assert_eq!(
            t.try_deliver(0, &PlayerRequest::HasEdge(e01)).unwrap(),
            Payload::Bit(true)
        );
        assert_eq!(
            t.try_deliver(1, &PlayerRequest::HasEdge(e01)).unwrap(),
            Payload::Bit(false)
        );
        assert_eq!(t.players()[1].edge_count(), 1);
    }
}
