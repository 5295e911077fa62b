"""Labeled Schreier graphs of finitely many generators acting on an orbit.

For a 2-prechain pair the graph restricted to [b, c] is a rooted binary
tree (left child g^-1(x), right child f(x)) with one-sided rays hanging
outside; a doubly stochastic comparison kernel on the graph majorizes the
simple random walk and certifies transience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .exactnum import (
    ExtendedPoint,
    QuadraticNumber,
    point_to_text,
    qn_compare,
    sorted_points,
)
from .piecewise import PiecewiseProjectiveMap, Prechain


class StructureViolationError(AssertionError):
    def __init__(self, vertex, reason: str):
        super().__init__(f"structure violation at {vertex}: {reason}")
        self.vertex = vertex
        self.reason = reason


class PreconditionViolatedError(ValueError):
    pass


_RAY_CAP = 1_000_000


@dataclass
class OrbitGraph:
    """BFS-enumerated orbit of a root point under generators and inverses."""

    labels: List[str]
    root: ExtendedPoint
    # the vertices in BFS order, as an insertion-ordered set
    points: Dict[ExtendedPoint, None] = field(default_factory=dict)
    edges: List[Dict[ExtendedPoint, ExtendedPoint]] = field(default_factory=list)
    truncated: bool = False
    incomplete: set = field(default_factory=set)
    regions: Optional[Dict[ExtendedPoint, str]] = None

    def order(self) -> int:
        return len(self.points)

    def sorted_keys(self) -> List[ExtendedPoint]:
        """The vertices in increasing order."""
        return sorted_points(self.points)


def build_orbit_graph(
    gens: Sequence[PiecewiseProjectiveMap],
    root: ExtendedPoint,
    max_vertices: int,
    labels: Sequence[str],
) -> OrbitGraph:
    """Deterministic BFS orbit enumeration, stopping at the vertex cap."""
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    graph = OrbitGraph(labels=list(labels), root=root)
    graph.edges = [dict() for _ in gens]
    graph.points[root] = None
    moves = [
        (gi, forward, gen if forward else gen.inverse())
        for gi, gen in enumerate(gens)
        for forward in (True, False)
    ]
    # each point with the move that found it; the opposite move leads back to
    # the parent along an edge already recorded, so it is not applied again
    queue = [(root, None, None)]
    qi = 0
    while qi < len(queue):
        point, found_gi, found_forward = queue[qi]
        qi += 1
        for gi, forward, move in moves:
            if gi == found_gi and forward != found_forward:
                continue
            mapped = move.apply(point)
            if mapped not in graph.points:
                if len(graph.points) >= max_vertices:
                    graph.truncated = True
                    graph.incomplete.add(point)
                    continue
                graph.points[mapped] = None
                queue.append((mapped, gi, forward))
            if forward:
                graph.edges[gi][point] = mapped
            else:
                graph.edges[gi][mapped] = point
    return graph


# -- 2-prechain structure ---------------------------------------------------


def _in_closed(x: ExtendedPoint, lo: QuadraticNumber, hi: QuadraticNumber) -> bool:
    return qn_compare(x, lo) >= 0 and qn_compare(x, hi) <= 0


def first_entry_steps(
    f: PiecewiseProjectiveMap,
    x: QuadraticNumber,
    lo: QuadraticNumber,
    hi: QuadraticNumber,
    cap: int = _RAY_CAP,
) -> int:
    """min(n >= 0 | f^n(x) in [lo, hi]) by exact iteration."""
    n = 0
    cur = x
    while not _in_closed(cur, lo, hi):
        cur = f.apply(cur)
        n += 1
        if n > cap:
            raise PreconditionViolatedError("iteration cap hit while entering [b, c]")
    return n


def attach_regions(graph: OrbitGraph, pre: Prechain) -> None:
    """Tag vertices as A, B, C inside [b, c] or Ray(label, index) outside."""
    f, g = pre.f, pre.g
    b, c = pre.b, pre.c
    g_inv = g.inverse()
    g_inv_c = g_inv.apply(c)
    f_b = f.apply(b)
    regions: Dict[ExtendedPoint, str] = {}
    for p in graph.points:
        if _in_closed(p, b, g_inv_c):
            regions[p] = "A"
        elif _in_closed(p, f_b, c):
            regions[p] = "B"
        elif _in_closed(p, b, c):
            regions[p] = "C"
        elif qn_compare(p, b) < 0:
            n = first_entry_steps(f, p, b, c)
            regions[p] = f"Ray(f,{n})"
        else:
            n = first_entry_steps(g_inv, p, b, c)
            regions[p] = f"Ray(g,{n})"
    graph.regions = regions


@dataclass
class TreeReport:
    tree_vertices: int
    ray_vertices: int
    region_a: int
    region_b: int
    max_depth: int


def verify_tree_structure(
    graph: OrbitGraph,
    f: PiecewiseProjectiveMap,
    g: PiecewiseProjectiveMap,
    b: QuadraticNumber,
    c: QuadraticNumber,
) -> TreeReport:
    """Exact structure checks for the orbit graph of a 2-prechain root.

    Raises StructureViolationError with a counterexample vertex; truncated
    frontier vertices are skipped for checks that need their neighbors.
    The graph must carry the region tags of attach_regions, whose walk of
    every ray vertex back into [b, c] is the ray check of step (5).
    """
    if graph.regions is None:
        raise PreconditionViolatedError("graph has no region tags")
    g_inv = g.inverse()
    f_inv = f.inverse()
    g_inv_c = g_inv.apply(c)
    f_b = f.apply(b)
    root = graph.root
    if root != b:
        raise PreconditionViolatedError("graph root is not b")

    inside = dict.fromkeys(p for p in graph.points if _in_closed(p, b, c))
    region_a = region_b = 0
    parent: Dict[ExtendedPoint, ExtendedPoint] = {}
    for p in inside:
        # (4) the middle gap C contains no orbit point
        if qn_compare(p, g_inv_c) > 0 and qn_compare(p, f_b) < 0:
            raise StructureViolationError(point_to_text(p), "orbit point inside C")
        if p == root:
            continue
        in_a = _in_closed(p, b, g_inv_c)
        if in_a:
            region_a += 1
            par = g.apply(p)
            # (3) left children leave [b, c] under f^-1
            esc = f_inv.apply(p)
            if _in_closed(esc, b, c):
                raise StructureViolationError(
                    point_to_text(p), "f^-1 keeps a left child inside [b, c]"
                )
        else:
            region_b += 1
            par = f_inv.apply(p)
            esc = g.apply(p)
            if _in_closed(esc, b, c):
                raise StructureViolationError(
                    point_to_text(p), "g keeps a right child inside [b, c]"
                )
        if not _in_closed(par, b, c):
            raise StructureViolationError(point_to_text(p), "parent left [b, c]")
        parent[p] = par

    # (1) parent links reach the root without cycles: the subgraph is a tree
    depth: Dict[ExtendedPoint, int] = {root: 0}
    max_depth = 0

    def _depth(k: ExtendedPoint) -> int:
        chain = []
        cur = k
        while cur not in depth:
            chain.append(cur)
            if cur not in parent:
                raise StructureViolationError(
                    point_to_text(cur), "parent chain leaves the graph"
                )
            cur = parent[cur]
            if len(chain) > len(inside):
                raise StructureViolationError(
                    point_to_text(k), "parent chain has a cycle"
                )
        base = depth[cur]
        for i, node in enumerate(reversed(chain)):
            depth[node] = base + i + 1
        return depth[k]

    for p in inside:
        if p != root:
            max_depth = max(max_depth, _depth(p))

    # (2) two children inside [b, c] for every fully expanded tree vertex
    for p in inside:
        if p in graph.incomplete:
            continue
        for child, name in ((g_inv.apply(p), "g^-1"), (f.apply(p), "f")):
            if p == root and name == "g^-1":
                if child != p:
                    raise StructureViolationError(
                        point_to_text(p), "g does not fix the root"
                    )
                continue
            if not _in_closed(child, b, c):
                raise StructureViolationError(
                    point_to_text(p), f"{name} child left [b, c]"
                )
            if child not in graph.points:
                raise StructureViolationError(
                    point_to_text(p), f"{name} child missing from graph"
                )
            if parent.get(child) != p:
                raise StructureViolationError(
                    point_to_text(p), f"{name} child has a different parent"
                )
        # c itself never appears
        if p == c:
            raise StructureViolationError(point_to_text(p), "c is in the orbit graph")

    # (5) outside vertices sit on one-sided rays under a single generator
    ray_count = 0
    for p in graph.points:
        if p in inside:
            continue
        ray_count += 1
        if p in graph.incomplete:
            continue
        if graph.regions[p][4] == "f":
            if g.apply(p) != p:
                raise StructureViolationError(point_to_text(p), "g moves an f-ray point")
        elif f.apply(p) != p:
            raise StructureViolationError(point_to_text(p), "f moves a g-ray point")

    return TreeReport(
        tree_vertices=len(inside),
        ray_vertices=ray_count,
        region_a=region_a,
        region_b=region_b,
        max_depth=max_depth,
    )


# -- comparison kernel -------------------------------------------------------


_QUARTER = Fraction(1, 4)
_THREE_QUARTER = Fraction(3, 4)
_ZERO = Fraction(0)

_STEPS = (("f", 1), ("f", -1), ("g", 1), ("g", -1))


class ComparisonKernel:
    """Doubly stochastic symmetric kernel majorized by the prechain SRW.

    Weights: 1/4 for all four steps on [b, c]; on (a, b) the f-direction
    weights are (1/4, 3/4) for odd first-entry count and swapped for even,
    with g-steps zero; mirrored with g on (c, d).
    """

    def __init__(
        self,
        f: PiecewiseProjectiveMap,
        g: PiecewiseProjectiveMap,
        a: QuadraticNumber,
        b: QuadraticNumber,
        c: QuadraticNumber,
        d: QuadraticNumber,
    ):
        if g.apply(b) != b or f.apply(c) != c:
            raise PreconditionViolatedError("g must fix b and f must fix c")
        supp_f = f.support_intervals()
        supp_g = g.support_intervals()
        if supp_f != [(a, c)]:
            raise PreconditionViolatedError("supp(f) must be exactly (a, c)")
        if supp_g != [(b, d)]:
            raise PreconditionViolatedError("supp(g) must be exactly (b, d)")
        self.f = f
        self.g = g
        self.f_inv = f.inverse()
        self.g_inv = g.inverse()
        self.a, self.b, self.c, self.d = a, b, c, d
        # pays on the kernel command (off-bench): check_symmetry asks again
        # for each row's points; --cap 2000 --sample 2000 takes 0.32 s, 0.37 s without
        self._entry_cache: Dict[QuadraticNumber, int] = {}

    def _maps(self, label: str, direction: int) -> PiecewiseProjectiveMap:
        if label == "f":
            return self.f if direction > 0 else self.f_inv
        return self.g if direction > 0 else self.g_inv

    def _entry_count(self, x: QuadraticNumber) -> int:
        cached = self._entry_cache.get(x)
        if cached is None:
            if qn_compare(x, self.b) < 0:
                cached = first_entry_steps(self.f, x, self.b, self.c)
            else:
                cached = first_entry_steps(self.g_inv, x, self.b, self.c)
            self._entry_cache[x] = cached
        return cached

    def weight(self, x: QuadraticNumber, label: str, direction: int) -> Fraction:
        if _in_closed(x, self.b, self.c):
            return _QUARTER
        below = qn_compare(x, self.b) < 0
        if below:
            if qn_compare(x, self.a) <= 0:
                raise PreconditionViolatedError("point at or below a")
            if label == "g":
                return _ZERO
            odd = self._entry_count(x) % 2 == 1
            if direction > 0:
                return _QUARTER if odd else _THREE_QUARTER
            return _THREE_QUARTER if odd else _QUARTER
        if qn_compare(x, self.d) >= 0:
            raise PreconditionViolatedError("point at or beyond d")
        if label == "f":
            return _ZERO
        odd = self._entry_count(x) % 2 == 1
        if direction > 0:
            return _THREE_QUARTER if odd else _QUARTER
        return _QUARTER if odd else _THREE_QUARTER

    def row(self, x: QuadraticNumber) -> List[Tuple[str, int, ExtendedPoint, Fraction]]:
        out = []
        for label, direction in _STEPS:
            target = self._maps(label, direction).apply(x)
            out.append((label, direction, target, self.weight(x, label, direction)))
        return out

    def check_symmetry(self, x: QuadraticNumber) -> bool:
        """P(x, y) == P(y, x) along every step out of x (loops trivially ok)."""
        for label, direction, target, w in self.row(x):
            if target == x:
                continue
            back = self.weight(target, label, -direction)
            if back != w:
                return False
        return True


# -- export -------------------------------------------------------------------


_REGION_COLORS = {
    "A": "lightblue",
    "B": "lightgreen",
    "C": "red",
}


def export_dot(graph: OrbitGraph, path: str) -> None:
    """Deterministic DOT rendering with generator labels and region colors."""
    order = graph.sorted_keys()
    index = {p: i for i, p in enumerate(order)}
    lines = ["digraph orbit {"]
    for i, p in enumerate(order):
        attrs = [f'label="{point_to_text(p)}"']
        if graph.regions:
            tag = graph.regions.get(p, "")
            color = _REGION_COLORS.get(tag, "lightyellow" if tag.startswith("Ray") else None)
            if color:
                attrs.append(f'style=filled fillcolor="{color}"')
        if p == graph.root:
            attrs.append("shape=doublecircle")
        lines.append(f'  v{i} [{" ".join(attrs)}];')
    for gi, emap in enumerate(graph.edges):
        label = graph.labels[gi]
        for i, src in enumerate(order):
            dst = emap.get(src)
            if dst is not None:
                lines.append(f'  v{i} -> v{index[dst]} [label="{label}"];')
    lines.append("}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def export_csv(graph: OrbitGraph, path: str) -> None:
    """Adjacency dump: src, label, dst points."""
    order = graph.sorted_keys()
    text = {p: point_to_text(p) for p in order}
    lines = ["src,label,dst"]
    for gi, emap in enumerate(graph.edges):
        label = graph.labels[gi]
        for src in order:
            dst = emap.get(src)
            if dst is not None:
                lines.append(f'"{text[src]}",{label},"{text[dst]}"')
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
