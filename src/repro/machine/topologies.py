"""The interconnection families of the paper's Figure 2, plus extensions.

Banger supports "hypercubes, meshes, trees, stars, and fully-connected
topologies"; we add rings, linear arrays, 2-D tori, and a shared bus.  Each
regular family overrides :meth:`route` with its textbook routing algorithm
(e-cube for hypercubes, XY for meshes/tori); tests check these produce
shortest paths by comparing against the BFS tables of the base class; a
distance is ``len(route) - 1``, so no family keeps a second formula for it.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import MachineError
from repro.machine.topology import CustomTopology, Topology


class FullyConnected(Topology):
    """Every processor pair shares a dedicated link (diameter 1)."""

    family = "full"

    def __init__(self, n_procs: int):
        links = [(a, b) for a in range(n_procs) for b in range(a + 1, n_procs)]
        super().__init__(n_procs, links, name=f"full({n_procs})")

    def route(self, src: int, dst: int) -> list[int]:
        self._check_proc(src)
        self._check_proc(dst)
        return [src] if src == dst else [src, dst]


class Bus(Topology):
    """A single shared medium: any pair is one hop, but all traffic shares it.

    Structurally identical to :class:`FullyConnected`; the distinguishing
    ``shared_medium`` flag makes the contention-aware simulator serialise
    every message through one resource.
    """

    family = "bus"
    shared_medium = True

    def __init__(self, n_procs: int):
        links = [(a, b) for a in range(n_procs) for b in range(a + 1, n_procs)]
        super().__init__(n_procs, links, name=f"bus({n_procs})")

    def route(self, src: int, dst: int) -> list[int]:
        self._check_proc(src)
        self._check_proc(dst)
        return [src] if src == dst else [src, dst]


class Star(Topology):
    """Processor 0 is the hub; every other processor hangs off it."""

    family = "star"

    def __init__(self, n_procs: int):
        links = [(0, p) for p in range(1, n_procs)]
        super().__init__(n_procs, links, name=f"star({n_procs})")
        self.hub = 0

    def route(self, src: int, dst: int) -> list[int]:
        self._check_proc(src)
        self._check_proc(dst)
        if src == dst:
            return [src]
        if src == self.hub or dst == self.hub:
            return [src, dst]
        return [src, self.hub, dst]


class Ring(Topology):
    """A cycle; messages take the shorter way around."""

    family = "ring"

    def __init__(self, n_procs: int):
        if n_procs < 3:
            raise MachineError(f"ring needs >= 3 processors, got {n_procs}")
        links = [(p, (p + 1) % n_procs) for p in range(n_procs)]
        super().__init__(n_procs, links, name=f"ring({n_procs})")

    def route(self, src: int, dst: int) -> list[int]:
        self._check_proc(src)
        self._check_proc(dst)
        n = self.n_procs
        if src == dst:
            return [src]
        clockwise = (dst - src) % n
        step = 1 if clockwise <= n - clockwise else -1
        path = [src]
        cur = src
        while cur != dst:
            cur = (cur + step) % n
            path.append(cur)
        return path


class LinearArray(Topology):
    """An open chain ``0 - 1 - ... - n-1``."""

    family = "linear"

    def __init__(self, n_procs: int):
        links = [(p, p + 1) for p in range(n_procs - 1)]
        super().__init__(n_procs, links, name=f"linear({n_procs})")

    def route(self, src: int, dst: int) -> list[int]:
        self._check_proc(src)
        self._check_proc(dst)
        step = 1 if dst >= src else -1
        return list(range(src, dst + step, step))


class Hypercube(Topology):
    """A binary d-cube over ``2**dim`` processors with e-cube routing.

    Processors are linked when their labels differ in exactly one bit; the
    distance between two processors is the Hamming distance of their labels.
    This is the family of the paper's Figure 3 experiments.
    """

    family = "hypercube"

    def __init__(self, dim: int):
        if dim < 0:
            raise MachineError(f"hypercube dimension must be >= 0, got {dim}")
        if dim > 16:
            raise MachineError(f"hypercube dimension {dim} is unreasonably large")
        n = 1 << dim
        links = [
            (p, p ^ (1 << bit))
            for p in range(n)
            for bit in range(dim)
            if p < (p ^ (1 << bit))
        ]
        super().__init__(n, links, name=f"hypercube({n})")
        self.dim = dim

    @classmethod
    def for_procs(cls, n_procs: int) -> "Hypercube":
        """The hypercube with exactly ``n_procs`` (must be a power of two)."""
        if n_procs < 1 or n_procs & (n_procs - 1):
            raise MachineError(f"hypercube size must be a power of two, got {n_procs}")
        return cls(n_procs.bit_length() - 1)

    def route(self, src: int, dst: int) -> list[int]:
        """Dimension-ordered (e-cube) routing: fix differing bits low→high."""
        self._check_proc(src)
        self._check_proc(dst)
        path = [src]
        cur = src
        for bit in range(self.dim):
            if (cur ^ dst) & (1 << bit):
                cur ^= 1 << bit
                path.append(cur)
        return path


class Mesh2D(Topology):
    """An open ``rows × cols`` grid with XY (row-first) routing.

    Processor ``p`` sits at ``(p // cols, p % cols)``.
    """

    family = "mesh"

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise MachineError(f"mesh needs positive extents, got {rows}x{cols}")
        n = rows * cols
        links = []
        for r in range(rows):
            for c in range(cols):
                p = r * cols + c
                if c + 1 < cols:
                    links.append((p, p + 1))
                if r + 1 < rows:
                    links.append((p, p + cols))
        super().__init__(n, links, name=f"mesh({rows}x{cols})")
        self.rows = rows
        self.cols = cols

    @classmethod
    def square(cls, n_procs: int) -> "Mesh2D":
        side = math.isqrt(n_procs)
        if side * side != n_procs:
            raise MachineError(f"square mesh size must be a perfect square, got {n_procs}")
        return cls(side, side)

    def coords(self, p: int) -> tuple[int, int]:
        self._check_proc(p)
        return divmod(p, self.cols)

    def proc_at(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise MachineError(f"coordinates ({row}, {col}) outside {self.name}")
        return row * self.cols + col

    def route(self, src: int, dst: int) -> list[int]:
        """XY routing: travel along the row to the target column, then down."""
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        path = [src]
        c_step = 1 if c2 > c1 else -1
        for c in range(c1 + c_step, c2 + c_step, c_step) if c1 != c2 else ():
            path.append(self.proc_at(r1, c))
        r_step = 1 if r2 > r1 else -1
        for r in range(r1 + r_step, r2 + r_step, r_step) if r1 != r2 else ():
            path.append(self.proc_at(r, c2))
        return path


class Torus2D(Mesh2D):
    """A ``rows × cols`` grid with wraparound links in both dimensions."""

    family = "torus"

    def __init__(self, rows: int, cols: int):
        super().__init__(rows, cols)
        self.name = f"torus({rows}x{cols})"
        if cols > 2:
            for r in range(rows):
                self.add_link(self.proc_at(r, 0), self.proc_at(r, cols - 1))
        if rows > 2:
            for c in range(cols):
                self.add_link(self.proc_at(0, c), self.proc_at(rows - 1, c))

    def _axis_steps(self, a: int, b: int, extent: int, wrap: bool) -> list[int]:
        """Signed unit steps from a to b along one axis, the short way."""
        if a == b:
            return []
        fwd = (b - a) % extent
        back = (a - b) % extent
        if wrap and back < fwd:
            return [-1] * back
        if wrap and fwd <= back:
            return [1] * fwd
        return [1] * (b - a) if b > a else [-1] * (a - b)

    def route(self, src: int, dst: int) -> list[int]:
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        path = [src]
        r, c = r1, c1
        for step in self._axis_steps(c1, c2, self.cols, self.cols > 2):
            c = (c + step) % self.cols
            path.append(self.proc_at(r, c))
        for step in self._axis_steps(r1, r2, self.rows, self.rows > 2):
            r = (r + step) % self.rows
            path.append(self.proc_at(r, c))
        return path


class Mesh3D(Topology):
    """An open ``nx × ny × nz`` grid with XYZ dimension-ordered routing."""

    family = "mesh3d"

    def __init__(self, nx: int, ny: int, nz: int):
        if min(nx, ny, nz) < 1:
            raise MachineError(f"mesh3d needs positive extents, got {nx}x{ny}x{nz}")
        n = nx * ny * nz
        links = []
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    p = (x * ny + y) * nz + z
                    if z + 1 < nz:
                        links.append((p, p + 1))
                    if y + 1 < ny:
                        links.append((p, p + nz))
                    if x + 1 < nx:
                        links.append((p, p + ny * nz))
        super().__init__(n, links, name=f"mesh3d({nx}x{ny}x{nz})")
        self.nx, self.ny, self.nz = nx, ny, nz

    def coords(self, p: int) -> tuple[int, int, int]:
        self._check_proc(p)
        x, rem = divmod(p, self.ny * self.nz)
        y, z = divmod(rem, self.nz)
        return x, y, z

    def proc_at(self, x: int, y: int, z: int) -> int:
        if not (0 <= x < self.nx and 0 <= y < self.ny and 0 <= z < self.nz):
            raise MachineError(f"coordinates ({x},{y},{z}) outside {self.name}")
        return (x * self.ny + y) * self.nz + z

    def route(self, src: int, dst: int) -> list[int]:
        (x1, y1, z1), (x2, y2, z2) = self.coords(src), self.coords(dst)
        path = [src]
        x, y, z = x1, y1, z1
        for target, axis in ((x2, "x"), (y2, "y"), (z2, "z")):
            cur = {"x": x, "y": y, "z": z}[axis]
            step = 1 if target > cur else -1
            while cur != target:
                cur += step
                if axis == "x":
                    x = cur
                elif axis == "y":
                    y = cur
                else:
                    z = cur
                path.append(self.proc_at(x, y, z))
        return path


class ChordalRing(Topology):
    """A ring with extra chords every ``chord`` positions (ILLIAC-style).

    Chords shorten the diameter without the full cost of a hypercube;
    routing falls back to the base class's BFS tables.
    """

    family = "chordal"

    def __init__(self, n_procs: int, chord: int):
        if n_procs < 3:
            raise MachineError(f"chordal ring needs >= 3 processors, got {n_procs}")
        if not 2 <= chord < n_procs:
            raise MachineError(
                f"chord must be in 2..{n_procs - 1}, got {chord}"
            )
        links = [(p, (p + 1) % n_procs) for p in range(n_procs)]
        for p in range(n_procs):
            q = (p + chord) % n_procs
            if p != q:
                links.append((min(p, q), max(p, q)))
        super().__init__(n_procs, links, name=f"chordal({n_procs},{chord})")
        self.chord = chord


class BalancedTree(Topology):
    """A complete ``arity``-ary tree of the given depth (root = processor 0).

    Depth 1 is a single processor; depth 2 adds ``arity`` children, etc.
    """

    family = "tree"

    def __init__(self, depth: int, arity: int = 2):
        if depth < 1:
            raise MachineError(f"tree depth must be >= 1, got {depth}")
        if arity < 1:
            raise MachineError(f"tree arity must be >= 1, got {arity}")
        n = sum(arity**level for level in range(depth))
        links = [(p, (p - 1) // arity) for p in range(1, n)]
        super().__init__(n, links, name=f"tree(d{depth},a{arity})")
        self.depth = depth
        self.arity = arity

    def parent(self, p: int) -> int | None:
        self._check_proc(p)
        return None if p == 0 else (p - 1) // self.arity

    def children(self, p: int) -> list[int]:
        self._check_proc(p)
        first = p * self.arity + 1
        return [c for c in range(first, first + self.arity) if c < self.n_procs]

    def route(self, src: int, dst: int) -> list[int]:
        """Up from both endpoints to their lowest common ancestor."""
        self._check_proc(src)
        self._check_proc(dst)
        up_src = [src]
        while up_src[-1] != 0:
            up_src.append((up_src[-1] - 1) // self.arity)
        up_dst = [dst]
        while up_dst[-1] != 0:
            up_dst.append((up_dst[-1] - 1) // self.arity)
        ancestors = set(up_src)
        lca = next(p for p in up_dst if p in ancestors)
        head = up_src[: up_src.index(lca) + 1]
        tail = up_dst[: up_dst.index(lca)]
        return head + tail[::-1]


#: family name -> builder taking a processor count (approximate for meshes).
def build_topology(family: str, n_procs: int) -> Topology:
    """Build a named family sized for (roughly) ``n_procs`` processors.

    ``hypercube`` requires a power of two; ``mesh``/``torus`` require a
    perfect square; others accept any count their structure allows.
    """
    family = family.lower()
    if family in ("full", "fully-connected", "fullyconnected", "complete"):
        return FullyConnected(n_procs)
    if family == "bus":
        return Bus(n_procs)
    if family == "star":
        return Star(n_procs)
    if family == "ring":
        return Ring(n_procs)
    if family in ("linear", "chain", "array"):
        return LinearArray(n_procs)
    if family == "hypercube":
        return Hypercube.for_procs(n_procs)
    if family == "mesh":
        return Mesh2D.square(n_procs)
    if family == "torus":
        side = math.isqrt(n_procs)
        if side * side != n_procs:
            raise MachineError(f"torus size must be a perfect square, got {n_procs}")
        return Torus2D(side, side)
    if family == "mesh3d":
        side = round(n_procs ** (1 / 3))
        if side**3 != n_procs:
            raise MachineError(f"mesh3d size must be a perfect cube, got {n_procs}")
        return Mesh3D(side, side, side)
    if family == "chordal":
        return ChordalRing(n_procs, max(2, n_procs // 4))
    if family == "tree":
        depth, total = 1, 1
        while total < n_procs:
            depth += 1
            total += 2**(depth - 1)
        if total != n_procs:
            raise MachineError(
                f"binary tree sizes are 1, 3, 7, 15, ...; got {n_procs}"
            )
        return BalancedTree(depth, 2)
    raise MachineError(f"unknown topology family {family!r}")


def routing_topology(
    family: str, n_procs: int, links: Sequence[tuple[int, int]]
) -> Topology:
    """The topology — and with it the router — a machine *document* describes.

    The one place a router is chosen: the registered family's topology
    (analytic routes, a bus's shared medium) exactly when
    ``build_topology(family, n_procs)`` reproduces ``links``; otherwise —
    unknown family, a size the builder rejects, hand-edited links, a
    Python-only shape such as ``Mesh2D(2, 8)`` — a BFS-routed
    :class:`CustomTopology`.  Loading a document and compiling an in-memory
    machine's tables both decide here, so equal documents route alike.
    """
    try:
        built = build_topology(family, n_procs)
    except MachineError:
        built = None
    if built is not None and built._links == {
        (min(a, b), max(a, b)) for a, b in links
    }:
        return built
    return CustomTopology(n_procs, links)


#: The families the paper names, for sweep benchmarks.
PAPER_FAMILIES = ("hypercube", "mesh", "tree", "star", "full")
