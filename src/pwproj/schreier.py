"""Labeled Schreier graphs of finitely many generators acting on an orbit.

For a 2-prechain pair the graph restricted to [b, c] is a rooted binary
tree (left child g^-1(x), right child f(x)) with one-sided rays hanging
outside; a doubly stochastic comparison kernel on the graph majorizes the
simple random walk and certifies transience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .exactnum import (
    ExtendedPoint,
    QuadraticNumber,
    canonical_key,
    point_order_keys,
    point_to_text,
    qn_compare,
)
from .piecewise import PiecewiseProjectiveMap, Prechain


class StructureViolationError(AssertionError):
    def __init__(self, vertex, reason: str):
        super().__init__(f"structure violation at {vertex}: {reason}")
        self.vertex = vertex
        self.reason = reason


class PreconditionViolatedError(ValueError):
    pass


# a vertex id, or a point that is no vertex of the graph
Node = Union[int, ExtendedPoint]


@dataclass
class OrbitGraph:
    """BFS-enumerated orbit of a root point under generators and inverses.

    Vertex i is points[i], numbered in BFS order from the root, 0.  The
    edges are per-generator int arrays: succ[gi][i] is the vertex that
    gens[gi] maps i to, pred[gi][i] the one that gens[gi]^-1 maps it to,
    and -1 stands where the BFS recorded no image (past the vertex cap, or
    at a vertex added after the BFS).
    """

    gens: Tuple[PiecewiseProjectiveMap, ...]
    # gens[gi]^-1, for the images that no edge records
    inverses: Tuple[PiecewiseProjectiveMap, ...]
    labels: List[str]
    points: List[ExtendedPoint] = field(default_factory=list)
    # canonical_key of each vertex's point -> its id
    index: Dict[tuple, int] = field(default_factory=dict)
    succ: List[List[int]] = field(default_factory=list)
    pred: List[List[int]] = field(default_factory=list)
    truncated: bool = False
    # the ids of the vertices with an image left out at the cap
    incomplete: Set[int] = field(default_factory=set)
    # each vertex's (kind, first-entry count) under the prechain region rule
    regions: Optional[List[Tuple[str, int]]] = None
    # the (f, g, b, c) of the rule that made regions
    tagged_with: Optional[tuple] = None
    # made once for the exports: the ids in increasing order of their
    # points, and each vertex's point as text
    _sorted: Optional[List[int]] = field(default=None, repr=False)
    _texts: Optional[List[str]] = field(default=None, repr=False)

    @property
    def root(self) -> ExtendedPoint:
        return self.points[0]

    def order(self) -> int:
        return len(self.points)

    def vertex(self, p: ExtendedPoint) -> Optional[int]:
        """The id of the vertex at p, None if p is no vertex."""
        return self.index.get(canonical_key(p))

    def add_vertex(self, p: ExtendedPoint) -> int:
        """The id of p, which becomes a vertex without edges if it is none yet.

        A new vertex drops the region tags and the export order, as they no
        longer cover every vertex.
        """
        key = canonical_key(p)
        i = self.index.get(key)
        if i is None:
            i = self.index[key] = len(self.points)
            self.points.append(p)
            for arrays in (self.succ, self.pred):
                for arr in arrays:
                    arr.append(-1)
            self.regions = self.tagged_with = self._sorted = self._texts = None
        return i

    def point(self, x: Node) -> ExtendedPoint:
        return self.points[x] if x.__class__ is int else x

    def image(self, x: Node, gi: int, inverse: bool = False) -> Node:
        """x moved by gens[gi], or by its inverse: a vertex id where it is one.

        Reads the recorded edge where there is one.  Only where there is
        none, at a frontier vertex, a vertex added after the BFS or a point
        off the graph, it applies the map.
        """
        if x.__class__ is int:
            j = (self.pred if inverse else self.succ)[gi][x]
            if j >= 0:
                return j
            x = self.points[x]
        y = (self.inverses if inverse else self.gens)[gi].apply(x)
        j = self.vertex(y)
        return y if j is None else j

    def sorted_ids(self) -> List[int]:
        """The vertex ids in increasing order of their points."""
        if self._sorted is None:
            keys = point_order_keys(self.points)
            self._sorted = sorted(range(len(keys)), key=keys.__getitem__)
        return self._sorted

    def texts(self) -> List[str]:
        """Each vertex's point as text, by id."""
        if self._texts is None:
            self._texts = [point_to_text(p) for p in self.points]
        return self._texts


def build_orbit_graph(
    gens: Sequence[PiecewiseProjectiveMap],
    root: ExtendedPoint,
    max_vertices: int,
    labels: Sequence[str],
) -> OrbitGraph:
    """Deterministic BFS orbit enumeration, stopping at the vertex cap.

    Each edge is applied once, from the end the BFS expands first, and
    recorded in both directions; the other end finds it recorded.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    if len(labels) != len(gens):
        raise ValueError(f"{len(labels)} labels for {len(gens)} generators")
    graph = OrbitGraph(
        gens=tuple(gens), inverses=tuple(gen.inverse() for gen in gens), labels=list(labels)
    )
    graph.succ = [[] for _ in gens]
    graph.pred = [[] for _ in gens]
    graph.add_vertex(root)
    points, index, add_vertex = graph.points, graph.index, graph.add_vertex
    # each move with the array of its images and the array of the reverse move
    moves = []
    for gen, inv, succ, pred in zip(graph.gens, graph.inverses, graph.succ, graph.pred):
        moves += [(gen, succ, pred), (inv, pred, succ)]
    i = 0
    while i < len(points):
        x = points[i]
        for move, out, back in moves:
            if out[i] >= 0:
                continue
            y = move.apply(x)
            j = index.get(canonical_key(y))
            if j is None:
                if len(points) >= max_vertices:
                    graph.truncated = True
                    graph.incomplete.add(i)
                    continue
                j = add_vertex(y)
            out[i] = j
            back[j] = i
        i += 1
    return graph


# -- 2-prechain structure ---------------------------------------------------


def _in_closed(x: ExtendedPoint, lo: QuadraticNumber, hi: QuadraticNumber) -> bool:
    return qn_compare(x, lo) >= 0 and qn_compare(x, hi) <= 0


def _region_rule(
    graph: OrbitGraph, pre: Prechain, tags: List[Tuple[str, int]], cap: int
) -> Callable[[Node], Tuple[str, int]]:
    """The rule placing a point in the orbit structure of the 2-prechain (f, g).

    ("A", 0) on [b, g^-1(c)], ("B", 0) on [f(b), c], ("C", 0) between them;
    ("f", n) below b and ("g", n) above c, where n is the first-entry count
    min(n >= 1 | f^n(x) in [b, c]) (g^-1 for "g") within the cap that the
    caller passes.  The rule takes a vertex id or a point off the graph, and
    its ray walk steps by f or g^-1 along the graph's edges, applying the
    map only where the graph records no image.  tags[i] is the region
    already decided for vertex i < len(tags): a walk that reaches a vertex
    of its own ray adds that vertex's count (f^n(x) = f^(n-m)(y) when
    y = f^m(x)), and one that reaches a vertex inside [b, c] stops, without
    comparing again.
    """
    f, b, c = pre.f, pre.b, pre.c
    g_inv_c = pre.g.inverse().apply(c)
    f_b = f.apply(b)
    image, at = graph.image, graph.point

    def first_entry(kind: str, x: Node) -> int:
        # x lies outside [b, c], so the test starts at the first step; it
        # stays two-sided: an orbit that steps over [b, c], as off a
        # prechain, runs into the cap.  f steps the f-ray up, g^-1 steps
        # the g-ray down
        gi = 0 if kind == "f" else 1
        for n in range(1, cap + 1):
            x = image(x, gi, gi == 1)
            if x.__class__ is int and x < len(tags):
                tag = tags[x]
                if tag[1] == 0:
                    return n
                if tag[0] == kind and n + tag[1] <= cap:
                    return n + tag[1]
            elif _in_closed(at(x), b, c):
                return n
        raise PreconditionViolatedError("iteration cap hit while entering [b, c]")

    def region(x: Node) -> Tuple[str, int]:
        p = at(x)
        if qn_compare(p, b) < 0:
            return "f", first_entry("f", x)
        if qn_compare(p, c) > 0:
            return "g", first_entry("g", x)
        if qn_compare(p, g_inv_c) <= 0:
            return "A", 0
        if qn_compare(p, f_b) >= 0:
            return "B", 0
        return "C", 0

    return region


def _check_generators(graph: OrbitGraph, f: PiecewiseProjectiveMap, g: PiecewiseProjectiveMap):
    # the edges of generator 0 are read as f's, those of generator 1 as g's
    if graph.gens != (f, g):
        raise PreconditionViolatedError("graph's edges are for generators other than (f, g)")


def _check_tags(
    graph: OrbitGraph,
    f: PiecewiseProjectiveMap,
    g: PiecewiseProjectiveMap,
    b: QuadraticNumber,
    c: QuadraticNumber,
) -> List[Tuple[str, int]]:
    """The graph's region tags, which attach_regions must have made with f, g, b and c."""
    _check_generators(graph, f, g)
    if graph.regions is None:
        raise PreconditionViolatedError("graph has no region tags")
    if graph.tagged_with != (f, g, b, c):
        raise PreconditionViolatedError("graph's region tags are for another f, g, b or c")
    return graph.regions


def attach_regions(graph: OrbitGraph, pre: Prechain) -> None:
    """Tag every vertex with its (kind, first-entry count) under the region rule.

    A ray walk steps along the recorded edges.  On a 2-prechain a ray
    vertex is reached only along its own ray, from the vertex one step
    further in, which has a smaller id and so its tag already; the walk
    reads that tag.  A walk that has to go on passes only vertices; a
    longer one means (f, g) is no prechain, and raises
    PreconditionViolatedError.
    """
    _check_generators(graph, pre.f, pre.g)
    tags: List[Tuple[str, int]] = []
    region = _region_rule(graph, pre, tags, graph.order() - 1)
    for i in range(graph.order()):
        tags.append(region(i))
    graph.regions = tags
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
    The graph must be built from (f, g), whose images its edges record,
    and carry the region tags of attach_regions, made with this f, g, b and
    c, which say what lies inside [b, c], in A, B or C, or on which ray; the
    rule's walk of every ray vertex back into [b, c] is the ray check of
    step (5).  A map is applied only where the graph records no image.
    """
    regions = _check_tags(graph, f, g, b, c)
    if graph.root != b:
        raise PreconditionViolatedError("graph root is not b")
    image, at, incomplete = graph.image, graph.point, graph.incomplete
    order = graph.order()

    def text(x: Node) -> str:
        return point_to_text(at(x))

    def within(x: Node) -> bool:
        # a vertex's tag says whether it lies in [b, c]
        return regions[x][1] == 0 if x.__class__ is int else _in_closed(x, b, c)

    def same(x: Node, i: int) -> bool:
        return x.__class__ is int and x == i

    # first-entry count 0: the vertices inside [b, c]; the root is vertex 0
    inside = [i for i in range(order) if regions[i][1] == 0]
    region_a = region_b = 0
    # each inside vertex's parent, -1 where it is no vertex
    parent = [-1] * order
    for i in inside:
        kind = regions[i][0]
        # (4) the middle gap C contains no orbit point
        if kind == "C":
            raise StructureViolationError(text(i), "orbit point inside C")
        if i == 0:
            continue
        if kind == "A":
            region_a += 1
            par = image(i, 1)
            # (3) left children leave [b, c] under f^-1
            if within(image(i, 0, inverse=True)):
                raise StructureViolationError(text(i), "f^-1 keeps a left child inside [b, c]")
        else:
            region_b += 1
            par = image(i, 0, inverse=True)
            if within(image(i, 1)):
                raise StructureViolationError(text(i), "g keeps a right child inside [b, c]")
        if not within(par):
            raise StructureViolationError(text(i), "parent left [b, c]")
        if par.__class__ is int:
            parent[i] = par

    # (1) parent links reach the root without cycles: the subgraph is a tree
    depth = [-1] * order
    depth[0] = 0
    max_depth = 0
    for k in inside:
        chain = []
        cur = k
        while depth[cur] < 0:
            chain.append(cur)
            if parent[cur] < 0:
                raise StructureViolationError(text(cur), "parent chain leaves the graph")
            cur = parent[cur]
            if len(chain) > len(inside):
                raise StructureViolationError(text(k), "parent chain has a cycle")
        base = depth[cur]
        for n, node in enumerate(reversed(chain), 1):
            depth[node] = base + n
        max_depth = max(max_depth, depth[k])

    # (2) two children inside [b, c] for every fully expanded tree vertex
    c_vertex = graph.vertex(c)
    for i in inside:
        if i in incomplete:
            continue
        for child, name in ((image(i, 1, inverse=True), "g^-1"), (image(i, 0), "f")):
            if i == 0 and name == "g^-1":
                if not same(child, i):
                    raise StructureViolationError(text(i), "g does not fix the root")
                continue
            if not within(child):
                raise StructureViolationError(text(i), f"{name} child left [b, c]")
            if child.__class__ is not int:
                raise StructureViolationError(text(i), f"{name} child missing from graph")
            if parent[child] != i:
                raise StructureViolationError(text(i), f"{name} child has a different parent")
        # c itself never appears
        if i == c_vertex:
            raise StructureViolationError(text(i), "c is in the orbit graph")

    # (5) outside vertices sit on one-sided rays under a single generator
    for i in range(order):
        kind, n = regions[i]
        if n == 0 or i in incomplete:
            continue
        if kind == "f":
            if not same(image(i, 1), i):
                raise StructureViolationError(text(i), "g moves an f-ray point")
        elif not same(image(i, 0), i):
            raise StructureViolationError(text(i), "f moves a g-ray point")

    return TreeReport(
        tree_vertices=len(inside),
        ray_vertices=order - len(inside),
        region_a=region_a,
        region_b=region_b,
        max_depth=max_depth,
    )


# -- comparison kernel -------------------------------------------------------


_QUARTER = Fraction(1, 4)
_THREE_QUARTER = Fraction(3, 4)
_ZERO = Fraction(0)

# the four steps of a row: label, generator index, direction
_STEPS = (("f", 0, 1), ("f", 0, -1), ("g", 1, 1), ("g", 1, -1))


class ComparisonKernel:
    """Doubly stochastic symmetric kernel majorized by the prechain SRW.

    Weights: 1/4 for all four steps on [b, c].  Outside, a point of the f-ray
    (below b) or the g-ray (above c) with first-entry count n steps only by
    its own generator: 3/4 on the step away from [b, c] at odd n and on the
    step toward it at even n, 1/4 on the other.

    The kernel lives on an orbit graph of b that attach_regions has tagged
    with the same prechain: a row's targets are the graph's edges and a
    vertex's weights come from its tag.  Only an image that the graph does
    not record, one step off a frontier vertex, is placed by the region rule.
    """

    def __init__(self, graph: OrbitGraph, pre: Prechain):
        f, g, b, c = pre.f, pre.g, pre.b, pre.c
        if g.apply(b) != b or f.apply(c) != c:
            raise PreconditionViolatedError("g must fix b and f must fix c")
        if f.support_intervals() != [(pre.a, c)]:
            raise PreconditionViolatedError("supp(f) must be exactly (a, c)")
        if g.support_intervals() != [(b, pre.d)]:
            raise PreconditionViolatedError("supp(g) must be exactly (b, d)")
        self._image = graph.image
        self._regions = _check_tags(graph, f, g, b, c)
        # an image off the graph is one step from a vertex, whose count is
        # at most order() - 1
        self._region = _region_rule(graph, pre, self._regions, graph.order())

    def weight(self, x: Node, label: str, direction: int) -> Fraction:
        kind, n = self._regions[x] if x.__class__ is int else self._region(x)
        if n == 0:
            return _QUARTER
        if label != kind:
            return _ZERO
        # f steps its ray up toward b, g^-1 steps its ray down toward c
        toward = 1 if kind == "f" else -1
        heavy = -toward if n % 2 else toward
        return _THREE_QUARTER if direction == heavy else _QUARTER

    def row(self, i: int) -> List[Tuple[str, int, Node, Fraction]]:
        """The steps out of vertex i: label, direction, target and weight."""
        return [
            (label, direction, self._image(i, gi, direction < 0), self.weight(i, label, direction))
            for label, gi, direction in _STEPS
        ]

    def check_symmetry(self, i: int, row: List[Tuple[str, int, Node, Fraction]]) -> bool:
        """P(i, y) == P(y, i) along every step of row, vertex i's row (loops trivially ok)."""
        for label, direction, target, w in row:
            if target.__class__ is int and target == i:
                continue
            if self.weight(target, label, -direction) != w:
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
    order, text, regions = graph.sorted_ids(), graph.texts(), graph.regions
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    lines = ["digraph orbit {"]
    for r, i in enumerate(order):
        attrs = [f'label="{text[i]}"']
        if regions:
            attrs.append(f'style=filled fillcolor="{_REGION_COLORS[regions[i][0]]}"')
        if i == 0:
            attrs.append("shape=doublecircle")
        lines.append(f'  v{r} [{" ".join(attrs)}];')
    for label, succ in zip(graph.labels, graph.succ):
        for r, i in enumerate(order):
            j = succ[i]
            if j >= 0:
                lines.append(f'  v{r} -> v{rank[j]} [label="{label}"];')
    lines.append("}")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def export_csv(graph: OrbitGraph, path: str) -> None:
    """Adjacency dump: src, label, dst points."""
    order, text = graph.sorted_ids(), graph.texts()
    lines = ["src,label,dst"]
    for label, succ in zip(graph.labels, graph.succ):
        for i in order:
            j = succ[i]
            if j >= 0:
                lines.append(f'"{text[i]}",{label},"{text[j]}"')
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
