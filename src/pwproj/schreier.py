"""Labeled Schreier graphs of finitely many generators acting on an orbit.

For a 2-prechain pair the graph restricted to [b, c] is a rooted binary
tree (left child g^-1(x), right child f(x)) with one-sided rays hanging
outside; a doubly stochastic comparison kernel on the graph majorizes the
simple random walk and certifies transience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


# the kernel's ray walks; attach_regions bounds its own by the graph's order
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
    # each vertex's (kind, first-entry count) under the prechain region rule
    regions: Optional[Dict[ExtendedPoint, Tuple[str, int]]] = None
    # the (f, g, b, c) of the rule that made regions
    tagged_with: Optional[tuple] = None

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
    cap: int,
) -> int:
    """min(n >= 1 | f^n(x) in [lo, hi]) by exact iteration, at most cap steps.

    x lies outside [lo, hi] (the region rule has placed it below lo or above
    hi), so the test starts at the first apply.  It stays two-sided: an
    orbit that steps over [lo, hi], as off a prechain, runs into the cap.
    """
    cur = x
    for n in range(1, cap + 1):
        cur = f.apply(cur)
        if _in_closed(cur, lo, hi):
            return n
    raise PreconditionViolatedError("iteration cap hit while entering [b, c]")


def _region_rule(
    f: PiecewiseProjectiveMap,
    g: PiecewiseProjectiveMap,
    b: QuadraticNumber,
    c: QuadraticNumber,
) -> Callable[[QuadraticNumber, int], Tuple[str, int]]:
    """The rule placing a point in the orbit structure of the 2-prechain (f, g).

    ("A", 0) on [b, g^-1(c)], ("B", 0) on [f(b), c], ("C", 0) between them;
    ("f", n) below b and ("g", n) above c, where n is the first_entry_steps
    count of f (g^-1) within the cap that the caller passes.
    """
    g_inv = g.inverse()
    g_inv_c = g_inv.apply(c)
    f_b = f.apply(b)

    def region(x: QuadraticNumber, cap: int) -> Tuple[str, int]:
        if qn_compare(x, b) < 0:
            return "f", first_entry_steps(f, x, b, c, cap)
        if qn_compare(x, c) > 0:
            return "g", first_entry_steps(g_inv, x, b, c, cap)
        if qn_compare(x, g_inv_c) <= 0:
            return "A", 0
        if qn_compare(x, f_b) >= 0:
            return "B", 0
        return "C", 0

    return region


def attach_regions(graph: OrbitGraph, pre: Prechain) -> None:
    """Tag every vertex with its (kind, first-entry count) under the region rule.

    On a 2-prechain a ray vertex is reached only along its own ray, so its
    walk into [b, c] passes only vertices; a longer one means (f, g) is no
    prechain, and raises PreconditionViolatedError.
    """
    region = _region_rule(pre.f, pre.g, pre.b, pre.c)
    graph.regions = {p: region(p, graph.order() - 1) for p in graph.points}
    graph.tagged_with = (pre.f, pre.g, pre.b, pre.c)


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
    The graph must carry the region tags of attach_regions, made with this
    f, g, b and c, which say what lies inside [b, c], in A, B or C, or on
    which ray; the rule's walk of every ray vertex back into [b, c] is the
    ray check of step (5).
    """
    regions = graph.regions
    if regions is None:
        raise PreconditionViolatedError("graph has no region tags")
    if graph.tagged_with != (f, g, b, c):
        raise PreconditionViolatedError("graph's region tags are for another f, g, b or c")
    g_inv = g.inverse()
    f_inv = f.inverse()
    root = graph.root
    if root != b:
        raise PreconditionViolatedError("graph root is not b")

    # first-entry count 0: the vertices inside [b, c]
    inside = dict.fromkeys(p for p in graph.points if regions[p][1] == 0)
    region_a = region_b = 0
    parent: Dict[ExtendedPoint, ExtendedPoint] = {}
    for p in inside:
        kind = regions[p][0]
        # (4) the middle gap C contains no orbit point
        if kind == "C":
            raise StructureViolationError(point_to_text(p), "orbit point inside C")
        if p == root:
            continue
        if kind == "A":
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
    for p in graph.points:
        if p in inside or p in graph.incomplete:
            continue
        if regions[p][0] == "f":
            if g.apply(p) != p:
                raise StructureViolationError(point_to_text(p), "g moves an f-ray point")
        elif f.apply(p) != p:
            raise StructureViolationError(point_to_text(p), "f moves a g-ray point")

    return TreeReport(
        tree_vertices=len(inside),
        ray_vertices=graph.order() - len(inside),
        region_a=region_a,
        region_b=region_b,
        max_depth=max_depth,
    )


# -- comparison kernel -------------------------------------------------------


_QUARTER = Fraction(1, 4)
_THREE_QUARTER = Fraction(3, 4)
_ZERO = Fraction(0)

class ComparisonKernel:
    """Doubly stochastic symmetric kernel majorized by the prechain SRW.

    Weights: 1/4 for all four steps on [b, c].  Outside, a point of the f-ray
    (below b) or the g-ray (above c) with first-entry count n steps only by
    its own generator: 3/4 on the step away from [b, c] at odd n and on the
    step toward it at even n, 1/4 on the other.
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
        # the four steps, in the order of a row
        self._steps = {("f", 1): f, ("f", -1): f.inverse(), ("g", 1): g, ("g", -1): g.inverse()}
        self.a, self.d = a, d
        self._rule = _region_rule(f, g, b, c)
        # pays on the kernel command (off-bench): check_symmetry asks again for
        # each row's points; --cap 2000 --sample 2000 takes 0.20-0.25 s, 0.37-0.39 s without
        self._regions: Dict[QuadraticNumber, Tuple[str, int]] = {}

    def weight(self, x: QuadraticNumber, label: str, direction: int) -> Fraction:
        region = self._regions.get(x)
        if region is None:
            # f and g fix every point outside (a, d): its ray walk would not end
            if qn_compare(x, self.a) <= 0:
                raise PreconditionViolatedError("point at or below a")
            if qn_compare(x, self.d) >= 0:
                raise PreconditionViolatedError("point at or beyond d")
            region = self._regions[x] = self._rule(x, _RAY_CAP)
        kind, n = region
        if n == 0:
            return _QUARTER
        if label != kind:
            return _ZERO
        # f steps its ray up toward b, g^-1 steps its ray down toward c
        toward = 1 if kind == "f" else -1
        heavy = -toward if n % 2 else toward
        return _THREE_QUARTER if direction == heavy else _QUARTER

    def row(self, x: QuadraticNumber) -> List[Tuple[str, int, ExtendedPoint, Fraction]]:
        return [
            (label, direction, move.apply(x), self.weight(x, label, direction))
            for (label, direction), move in self._steps.items()
        ]

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
    "f": "lightyellow",
    "g": "lightyellow",
}


def export_dot(graph: OrbitGraph, path: str) -> None:
    """Deterministic DOT rendering with generator labels and region colors."""
    order = graph.sorted_keys()
    index = {p: i for i, p in enumerate(order)}
    lines = ["digraph orbit {"]
    for i, p in enumerate(order):
        attrs = [f'label="{point_to_text(p)}"']
        if graph.regions:
            kind = graph.regions[p][0]
            attrs.append(f'style=filled fillcolor="{_REGION_COLORS[kind]}"')
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
