"""Pluggable NoC topologies and deterministic routing.

The network model (:mod:`repro.noc.network`) is topology-agnostic: it asks a
:class:`Topology` for the directed-link route between two nodes and reserves
those links.  Every topology here produces *deterministic* routes — together
with FIFO links this yields the point-to-point ordering the coherence
protocol and the Proxy Cache depend on (see ``docs/noc.md``).

Four implementations are provided:

* :class:`Mesh2D` — the paper's OpenPiton P-Mesh, dimension-ordered (XY)
  routing.  Tiles are numbered row-major: node ``n`` sits at
  ``(x, y) = (n % width, n // width)``.
* :class:`Torus2D` — a mesh with wraparound links in both dimensions;
  XY routing taking the shorter direction per dimension (ties break toward
  increasing coordinates, keeping routes deterministic).
* :class:`Ring` — a 1D torus; shortest direction around the ring.
* :class:`Crossbar` — a full crossbar: every pair of distinct nodes is one
  hop apart (an idealized upper bound for scaling studies).

Routes are cached per (src, dst) pair and returned as immutable tuples —
the route tables are tiny (O(n²) entries) and route computation would
otherwise dominate the batched-injection fast path in
:meth:`repro.noc.network.NocNetwork.send`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Link = Tuple[int, int]
Route = Tuple[Link, ...]


class Topology:
    """Base class: node naming, route caching and the routing contract.

    Subclasses implement :meth:`hop_count` and :meth:`_compute_route`;
    ``route`` wraps the latter with a per-pair cache.  The contract every
    implementation must honour (property-tested in
    ``tests/test_noc_topologies.py``):

    * ``len(route(src, dst)) == hop_count(src, dst)``;
    * the route is contiguous, starts at ``src``, ends at ``dst``, and each
      link ``(a, b)`` has ``hop_count(a, b) == 1``;
    * ``route(src, src) == ()`` — a local message never enters the fabric;
    * routes are deterministic (the same pair always yields the same route).
    """

    #: Short identifier used by configs, the factory and benchmarks.
    kind = "abstract"

    #: Whether the fabric is laid out on a width x height grid.  Non-grid
    #: (flat) fabrics are built over a plain node count, and tile planners
    #: lay them out in a single row (see ``TilePlan.plan``).
    is_grid = False

    def __init__(self, node_count: int) -> None:
        if node_count < 1:
            raise ValueError(f"a topology needs at least one node, got {node_count}")
        self.node_count = node_count
        self._route_cache: Dict[Tuple[int, int], Route] = {}

    # ------------------------------------------------------------------ #
    # Routing contract
    # ------------------------------------------------------------------ #
    def route(self, src: int, dst: int) -> Route:
        """Directed-link route from ``src`` to ``dst`` (cached, immutable).

        An empty tuple means source and destination are the same node (the
        message never enters the network fabric).
        """
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            self._check_node(src)
            self._check_node(dst)
            cached = self._route_cache[key] = tuple(self._compute_route(src, dst))
        return cached

    def hop_count(self, src: int, dst: int) -> int:
        raise NotImplementedError

    def _compute_route(self, src: int, dst: int) -> List[Link]:
        raise NotImplementedError

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.node_count):
            raise ValueError(
                f"node {node} outside {self.kind} topology of {self.node_count} nodes"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} n={self.node_count}>"


class Mesh2D(Topology):
    """A ``width`` x ``height`` 2D mesh with dimension-ordered (XY) routing."""

    kind = "mesh"
    is_grid = True

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError(f"mesh dimensions must be positive ({width}x{height})")
        super().__init__(width * height)
        self.width = width
        self.height = height

    def coordinates(self, node: int) -> Tuple[int, int]:
        """Return the ``(x, y)`` coordinates of ``node``."""
        self._check_node(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """Return the node id at coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinates ({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def hop_count(self, src: int, dst: int) -> int:
        """Manhattan distance between two nodes."""
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return abs(sx - dx) + abs(sy - dy)

    def _compute_route(self, src: int, dst: int) -> List[Link]:
        links: List[Link] = []
        x, y = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        current = src
        while x != dx:
            x += 1 if dx > x else -1
            nxt = self.node_at(x, y)
            links.append((current, nxt))
            current = nxt
        while y != dy:
            y += 1 if dy > y else -1
            nxt = self.node_at(x, y)
            links.append((current, nxt))
            current = nxt
        return links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Mesh2D {self.width}x{self.height}>"


class Torus2D(Mesh2D):
    """A 2D torus: a mesh with wraparound links in both dimensions.

    Routing is still dimension-ordered (X first, then Y) but takes the
    shorter way around each dimension; when both directions are equally
    long (an even dimension, exactly half-way) the route goes in the
    increasing-coordinate direction so routes stay deterministic.
    """

    kind = "torus"

    @staticmethod
    def _steps(src_coord: int, dst_coord: int, size: int) -> Tuple[int, int]:
        """(number of hops, per-hop delta) along one wrapped dimension."""
        forward = (dst_coord - src_coord) % size
        if forward == 0:
            return 0, 0
        if 2 * forward <= size:
            return forward, 1
        return size - forward, -1

    def hop_count(self, src: int, dst: int) -> int:
        sx, sy = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        return (self._steps(sx, dx, self.width)[0]
                + self._steps(sy, dy, self.height)[0])

    def _compute_route(self, src: int, dst: int) -> List[Link]:
        links: List[Link] = []
        x, y = self.coordinates(src)
        dx, dy = self.coordinates(dst)
        current = src
        hops, step = self._steps(x, dx, self.width)
        for _ in range(hops):
            x = (x + step) % self.width
            nxt = self.node_at(x, y)
            links.append((current, nxt))
            current = nxt
        hops, step = self._steps(y, dy, self.height)
        for _ in range(hops):
            y = (y + step) % self.height
            nxt = self.node_at(x, y)
            links.append((current, nxt))
            current = nxt
        return links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Torus2D {self.width}x{self.height}>"


class Ring(Topology):
    """A unidirectional-link bidirectional ring (a 1D torus).

    Node ``i`` connects to ``(i - 1) % n`` and ``(i + 1) % n``; routes take
    the shorter way around, ties breaking toward increasing node ids.
    """

    kind = "ring"

    def hop_count(self, src: int, dst: int) -> int:
        self._check_node(src)
        self._check_node(dst)
        forward = (dst - src) % self.node_count
        return min(forward, self.node_count - forward)

    def _compute_route(self, src: int, dst: int) -> List[Link]:
        n = self.node_count
        forward = (dst - src) % n
        if forward == 0:
            return []
        step = 1 if 2 * forward <= n else -1
        hops = forward if step == 1 else n - forward
        links: List[Link] = []
        current = src
        for _ in range(hops):
            nxt = (current + step) % n
            links.append((current, nxt))
            current = nxt
        return links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Ring n={self.node_count}>"


class Crossbar(Topology):
    """A full crossbar: a dedicated link between every ordered node pair.

    Every message crosses exactly one link, so latency is distance-free and
    contention only arises between messages sharing the same (src, dst)
    pair and plane — an idealized upper bound for the scaling studies.
    """

    kind = "crossbar"

    def hop_count(self, src: int, dst: int) -> int:
        self._check_node(src)
        self._check_node(dst)
        return 0 if src == dst else 1

    def _compute_route(self, src: int, dst: int) -> List[Link]:
        if src == dst:
            return []
        return [(src, dst)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Crossbar n={self.node_count}>"


#: Registry of constructible topology kinds (see :func:`make_topology`).
TOPOLOGY_KINDS: Dict[str, type] = {
    Mesh2D.kind: Mesh2D,
    Torus2D.kind: Torus2D,
    Ring.kind: Ring,
    Crossbar.kind: Crossbar,
}


def make_topology(kind: str, width: int, height: int = 1) -> Topology:
    """Build a topology of ``kind`` spanning ``width * height`` nodes.

    Grid kinds (``mesh``, ``torus``) use ``width`` x ``height`` directly;
    flat kinds (``ring``, ``crossbar``) flatten to ``width * height`` nodes
    so a tile plan sized for a grid maps onto any topology unchanged.
    """
    try:
        cls = TOPOLOGY_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_KINDS))
        raise ValueError(f"unknown topology kind {kind!r}; known kinds: {known}") from None
    if cls.is_grid:
        return cls(width, height)
    return cls(width * height)
