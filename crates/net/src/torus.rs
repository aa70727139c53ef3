//! 3-D torus topology and dimension-ordered routing (SeaStar style).
//!
//! Nodes are laid out on an `X × Y × Z` grid with wraparound in every
//! dimension. Each node owns six directed outgoing links (±X, ±Y, ±Z).
//! Routes are dimension-ordered (X, then Y, then Z), each dimension taking
//! the shorter wrap direction — the deterministic routing the SeaStar router
//! implements.

/// A node's identifier: its index in row-major (x-fastest) order.
pub type NodeId = usize;

/// Direction of a torus link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// +X neighbour.
    XPlus,
    /// −X neighbour.
    XMinus,
    /// +Y neighbour.
    YPlus,
    /// −Y neighbour.
    YMinus,
    /// +Z neighbour.
    ZPlus,
    /// −Z neighbour.
    ZMinus,
}

impl Direction {
    /// All six directions in canonical order.
    pub const ALL: [Direction; 6] = [
        Direction::XPlus,
        Direction::XMinus,
        Direction::YPlus,
        Direction::YMinus,
        Direction::ZPlus,
        Direction::ZMinus,
    ];

    /// Canonical index 0..6 (used to number link resources).
    pub fn index(self) -> usize {
        match self {
            Direction::XPlus => 0,
            Direction::XMinus => 1,
            Direction::YPlus => 2,
            Direction::YMinus => 3,
            Direction::ZPlus => 4,
            Direction::ZMinus => 5,
        }
    }
}

/// A directed torus link: the `direction`-ward output port of `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TorusLink {
    /// Source node of the directed link.
    pub from: NodeId,
    /// Output direction.
    pub direction: Direction,
}

impl TorusLink {
    /// Dense index of this link in `[0, 6 * nodes)`.
    pub fn index(&self) -> usize {
        self.from * 6 + self.direction.index()
    }
}

/// A 3-D torus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus3D {
    dims: [usize; 3],
}

impl Torus3D {
    /// Build a torus with the given dimensions (each ≥ 1).
    pub fn new(dims: [usize; 3]) -> Self {
        // xtsim-lint: allow(panic-propagation, "construction-time dimension validation; runs once at platform setup, never mid-event")
        assert!(dims.iter().all(|&d| d >= 1), "torus dims must be >= 1");
        Torus3D { dims }
    }

    /// Dimensions (X, Y, Z).
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Total directed link count (6 per node).
    pub fn link_count(&self) -> usize {
        self.node_count() * 6
    }

    /// Node id → (x, y, z) coordinates.
    pub fn coords(&self, node: NodeId) -> [usize; 3] {
        let [dx, dy, _dz] = self.dims;
        let x = node % dx;
        let y = (node / dx) % dy;
        let z = node / (dx * dy);
        [x, y, z]
    }

    /// (x, y, z) coordinates → node id.
    pub fn node_at(&self, c: [usize; 3]) -> NodeId {
        let [dx, dy, dz] = self.dims;
        debug_assert!(c[0] < dx && c[1] < dy && c[2] < dz);
        c[0] + c[1] * dx + c[2] * dx * dy
    }

    /// Signed shortest offset from `a` to `b` along dimension `dim`
    /// (positive = travel in the + direction).
    fn shortest_offset(&self, a: usize, b: usize, dim: usize) -> isize {
        let d = self.dims[dim] as isize;
        let fwd = (b as isize - a as isize).rem_euclid(d);
        // Prefer the +direction on ties (deterministic router behaviour).
        if fwd <= d - fwd {
            fwd
        } else {
            fwd - d
        }
    }

    /// Minimal hop count between two nodes on the torus (Manhattan distance
    /// with wraparound).
    pub fn hops(&self, a: NodeId, b: NodeId) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..3)
            .map(|i| self.shortest_offset(ca[i], cb[i], i).unsigned_abs())
            .sum()
    }

    /// Dimension-ordered route from `a` to `b`: the sequence of directed
    /// links a packet traverses. Empty when `a == b`.
    pub fn route(&self, a: NodeId, b: NodeId) -> Vec<TorusLink> {
        let mut links = Vec::with_capacity(self.hops(a, b));
        self.route_into(a, b, &mut links);
        links
    }

    /// Allocation-free variant of [`route`](Self::route): appends the route
    /// to `links`, which the caller clears and reuses across messages.
    pub fn route_into(&self, a: NodeId, b: NodeId, links: &mut Vec<TorusLink>) {
        let mut cur = self.coords(a);
        let target = self.coords(b);
        for dim in 0..3 {
            let off = self.shortest_offset(cur[dim], target[dim], dim);
            // `dim` ranges over 0..3, so the `_` arms are exactly dim == 2 —
            // no unreachable! needed on an event-dispatch route.
            let (dir, step) = match (dim, off >= 0) {
                (0, true) => (Direction::XPlus, 1isize),
                (0, false) => (Direction::XMinus, -1),
                (1, true) => (Direction::YPlus, 1),
                (1, false) => (Direction::YMinus, -1),
                (_, true) => (Direction::ZPlus, 1),
                (_, false) => (Direction::ZMinus, -1),
            };
            for _ in 0..off.unsigned_abs() {
                let from = self.node_at(cur);
                links.push(TorusLink {
                    from,
                    direction: dir,
                });
                let d = self.dims[dim] as isize;
                cur[dim] = ((cur[dim] as isize + step).rem_euclid(d)) as usize;
            }
        }
        debug_assert_eq!(cur, target);
    }

    /// Average minimal hop count over random node pairs — the expected
    /// distance `(X + Y + Z) / 4` for even dimensions (used by
    /// [`crate::Platform::message_time_estimate`] for modeled collectives).
    pub fn mean_hops(&self) -> f64 {
        self.dims
            .iter()
            .map(|&d| {
                // Mean shortest wrap distance on a ring of size d.
                let d = d as f64;
                if d <= 1.0 {
                    0.0
                } else {
                    // Sum over offsets 0..d of min(k, d-k), divided by d.
                    let half = (d / 2.0).floor();
                    let sum = if (d as usize).is_multiple_of(2) {
                        half * half
                    } else {
                        half * (half + 1.0)
                    };
                    sum / d
                }
            })
            .sum()
    }

    /// Bisection link count: number of directed links crossing the midplane
    /// of the longest dimension (both directions). Used by the analytic
    /// global-traffic model.
    pub fn bisection_links(&self) -> usize {
        let longest = *self.dims.iter().max().expect("3 dims");
        let cross_section: usize = self.node_count() / longest;
        // A torus cut crosses twice (wraparound), each with directed links
        // both ways: 4 directed links per cross-section node... but for odd
        // or size-1 dimensions fall back to at least one crossing.
        if longest >= 2 {
            cross_section * 4
        } else {
            cross_section
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = Torus3D::new([3, 4, 5]);
        for n in 0..t.node_count() {
            assert_eq!(t.node_at(t.coords(n)), n);
        }
    }

    #[test]
    fn hops_matches_route_length() {
        let t = Torus3D::new([4, 3, 5]);
        for a in [0usize, 7, 33, 59] {
            for b in [0usize, 1, 12, 58] {
                let route = t.route(a, b);
                assert_eq!(route.len(), t.hops(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn route_is_contiguous_and_ends_at_target() {
        let t = Torus3D::new([5, 5, 5]);
        let (a, b) = (3, 117);
        let route = t.route(a, b);
        let mut cur = a;
        for link in &route {
            assert_eq!(link.from, cur);
            let c = t.coords(cur);
            let dims = t.dims();
            cur = match link.direction {
                Direction::XPlus => t.node_at([(c[0] + 1) % dims[0], c[1], c[2]]),
                Direction::XMinus => t.node_at([(c[0] + dims[0] - 1) % dims[0], c[1], c[2]]),
                Direction::YPlus => t.node_at([c[0], (c[1] + 1) % dims[1], c[2]]),
                Direction::YMinus => t.node_at([c[0], (c[1] + dims[1] - 1) % dims[1], c[2]]),
                Direction::ZPlus => t.node_at([c[0], c[1], (c[2] + 1) % dims[2]]),
                Direction::ZMinus => t.node_at([c[0], c[1], (c[2] + dims[2] - 1) % dims[2]]),
            };
        }
        assert_eq!(cur, b);
    }

    #[test]
    fn wraparound_takes_short_way() {
        let t = Torus3D::new([10, 1, 1]);
        // 0 -> 9 is 1 hop backwards, not 9 forwards.
        assert_eq!(t.hops(0, 9), 1);
        assert_eq!(t.route(0, 9)[0].direction, Direction::XMinus);
        // 0 -> 5 on a ring of 10: tie, prefer +.
        assert_eq!(t.hops(0, 5), 5);
        assert_eq!(t.route(0, 5)[0].direction, Direction::XPlus);
    }

    #[test]
    fn self_route_is_empty() {
        let t = Torus3D::new([4, 4, 4]);
        assert!(t.route(21, 21).is_empty());
        assert_eq!(t.hops(21, 21), 0);
    }

    #[test]
    fn link_indices_are_dense_and_unique() {
        let t = Torus3D::new([3, 3, 3]);
        let mut seen = vec![false; t.link_count()];
        for n in 0..t.node_count() {
            for d in Direction::ALL {
                let l = TorusLink {
                    from: n,
                    direction: d,
                };
                assert!(l.index() < t.link_count());
                assert!(!seen[l.index()]);
                seen[l.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mean_hops_even_ring() {
        // Ring of 4: distances from any node: 0,1,2,1 -> mean 1.0.
        let t = Torus3D::new([4, 1, 1]);
        assert!((t.mean_hops() - 1.0).abs() < 1e-12);
        // 4x4x4: 3.0 total.
        let t = Torus3D::new([4, 4, 4]);
        assert!((t.mean_hops() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_hops_matches_exhaustive() {
        let t = Torus3D::new([4, 3, 5]);
        let n = t.node_count();
        let total: usize = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| t.hops(a, b))
            .sum();
        let exact = total as f64 / (n * n) as f64;
        assert!(
            (t.mean_hops() - exact).abs() < 1e-9,
            "analytic {} vs exhaustive {}",
            t.mean_hops(),
            exact
        );
    }

    #[test]
    fn bisection_links_cube() {
        let t = Torus3D::new([8, 8, 8]);
        // Cross-section 64 nodes, two cuts, both directions: 256.
        assert_eq!(t.bisection_links(), 256);
    }
}
