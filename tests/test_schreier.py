import dataclasses
import hashlib
import os
import threading
from fractions import Fraction

import pytest

from pwproj.exactnum import QuadraticNumber, qn_compare, qn_from_text
from pwproj.piecewise import PiecewiseProjectiveMap, construct_prechain, pm_from_matrix
from pwproj.psl2 import ProjectiveMatrix, orbit_equivalent
from pwproj.schreier import (
    ComparisonKernel,
    PreconditionViolatedError,
    StructureViolationError,
    attach_regions,
    build_orbit_graph,
    export_csv,
    export_dot,
    verify_tree_structure,
)


def q(a, b=0, k=1):
    return QuadraticNumber(Fraction(a), Fraction(b), k)


SQRT3 = q(0, 1, 3)


@pytest.fixture(scope="module")
def pre3():
    return construct_prechain(SQRT3)


@pytest.fixture(scope="module")
def graph600(pre3):
    graph = build_orbit_graph([pre3.f, pre3.g], pre3.b, 600, labels=["f", "g"])
    attach_regions(graph, pre3)
    return graph


def test_translation_orbit_path():
    a1 = pm_from_matrix(ProjectiveMatrix.translation(1))
    graph = build_orbit_graph([a1], q(0), 5, labels=["a1"])
    assert graph.order() == 5
    assert graph.truncated
    points = sorted(float(p) for p in graph.points)
    assert points == [-2.0, -1.0, 0.0, 1.0, 2.0]
    # a rational vertex is found by an equal point built on its own
    assert graph.vertex(qn_from_text("-2")) is not None
    assert graph.vertex(QuadraticNumber(Fraction(2))) is not None
    assert graph.vertex(qn_from_text("3")) is None


def test_labels_must_match_generators(pre3):
    # the exports pair each label with its generator's edges
    with pytest.raises(ValueError, match="1 labels for 2 generators"):
        build_orbit_graph([pre3.f, pre3.g], pre3.b, 20, labels=["f"])


def test_fixed_point_loop(pre3):
    hs = pre3.hs.map
    graph = build_orbit_graph([hs], SQRT3, 5, labels=["g0"])
    # the delta element fixes its base point: single vertex with loops
    assert graph.order() == 1
    assert graph.succ[0] == graph.pred[0] == [0]


def test_root_loop_under_g(graph600, pre3):
    gi = graph600.labels.index("g")
    assert graph600.succ[gi][0] == graph600.pred[gi][0] == 0


def test_bfs_deterministic(pre3):
    g1 = build_orbit_graph([pre3.f, pre3.g], pre3.b, 200, labels=["f", "g"])
    g2 = build_orbit_graph([pre3.f, pre3.g], pre3.b, 200, labels=["f", "g"])
    assert g1.points == g2.points
    assert (g1.succ, g1.pred) == (g2.succ, g2.pred)


def test_edges_realized_by_maps(graph600, pre3):
    maps = {"f": pre3.f, "g": pre3.g}
    points = graph600.points
    for label, succ, pred in zip(graph600.labels, graph600.succ, graph600.pred):
        for i, j in enumerate(succ):
            if j >= 0:
                assert maps[label](points[i]) == points[j]
                assert pred[j] == i
        for j, i in enumerate(pred):
            if i >= 0:
                assert succ[i] == j
        # only a frontier vertex misses an image, in either direction
        missing = {i for i in range(len(points)) if succ[i] < 0 or pred[i] < 0}
        assert missing <= graph600.incomplete


def test_all_vertices_orbit_equivalent(graph600):
    for p in graph600.points:
        assert orbit_equivalent(graph600.root, p)


def test_tree_structure(graph600, pre3):
    report = verify_tree_structure(graph600, pre3.f, pre3.g, pre3.b, pre3.c)
    assert report.tree_vertices + report.ray_vertices == graph600.order()
    assert report.region_a + report.region_b + 1 == report.tree_vertices
    assert report.max_depth >= 5


def _tagged_graph(pre, cap, planted=()):
    """The orbit graph of pre.b at cap, with points planted before tagging.

    A planted vertex has no recorded edges, so verification applies the
    maps to it.
    """
    graph = build_orbit_graph([pre.f, pre.g], pre.b, cap, labels=["f", "g"])
    for p in planted:
        graph.add_vertex(p)
    attach_regions(graph, pre)
    return graph


def test_tree_structure_rejects_a_broken_parent_chain(pre3):
    # f^20(b) lies in the tree, deeper than the cap reaches: its parent
    # f^19(b) is no vertex
    deep = pre3.b
    for _ in range(20):
        deep = pre3.f(deep)
    graph = _tagged_graph(pre3, 400, planted=[deep])
    with pytest.raises(StructureViolationError, match="parent chain leaves the graph"):
        verify_tree_structure(graph, pre3.f, pre3.g, pre3.b, pre3.c)


def test_tree_structure_rejects_a_wrong_right_end(pre3):
    # with d for c the g-ray joins [b, c], where f^-1 keeps f(b) inside
    graph = _tagged_graph(dataclasses.replace(pre3, c=pre3.d), 400)
    with pytest.raises(StructureViolationError, match=r"f\^-1 keeps a left child inside"):
        verify_tree_structure(graph, pre3.f, pre3.g, pre3.b, pre3.d)


def test_tree_structure_refuses_another_graphs_edges(pre3):
    # the edges of (g, f) are not those of (f, g), whatever the tags say
    graph = build_orbit_graph([pre3.g, pre3.f], pre3.b, 400, labels=["g", "f"])
    with pytest.raises(PreconditionViolatedError, match="edges are for generators other"):
        attach_regions(graph, pre3)
    graph.regions = _tagged_graph(pre3, 400).regions
    graph.tagged_with = (pre3.f, pre3.g, pre3.b, pre3.c)
    with pytest.raises(PreconditionViolatedError, match="edges are for generators other"):
        verify_tree_structure(graph, pre3.f, pre3.g, pre3.b, pre3.c)


def test_tree_structure_applies_maps_only_at_the_frontier(graph600, pre3, monkeypatch):
    # every other image is read from the recorded edges
    applied = []
    apply = PiecewiseProjectiveMap.apply

    def counted(self, x):
        applied.append(x)
        return apply(self, x)

    monkeypatch.setattr(PiecewiseProjectiveMap, "apply", counted)
    verify_tree_structure(graph600, pre3.f, pre3.g, pre3.b, pre3.c)
    assert applied
    assert {graph600.vertex(x) for x in applied} <= graph600.incomplete


def test_tree_structure_needs_the_tagging_endpoints(pre3):
    # tags made with c, checked with d for c: the tags do not describe [b, d]
    graph = _tagged_graph(pre3, 400)
    with pytest.raises(PreconditionViolatedError, match="region tags are for another"):
        verify_tree_structure(graph, pre3.f, pre3.g, pre3.b, pre3.d)


def test_tree_structure_rejects_a_point_in_the_gap(pre3):
    # the gap C runs from g^-1(c) ~ 1.809 to f(b) ~ 3.229
    graph = _tagged_graph(pre3, 400, planted=[q(Fraction(5, 2))])
    with pytest.raises(StructureViolationError, match="orbit point inside C"):
        verify_tree_structure(graph, pre3.f, pre3.g, pre3.b, pre3.c)


def test_tree_structure_rejects_c(pre3):
    # f fixes c, so c is its own parent
    graph = _tagged_graph(pre3, 400, planted=[pre3.c])
    with pytest.raises(StructureViolationError, match="parent chain has a cycle"):
        verify_tree_structure(graph, pre3.f, pre3.g, pre3.b, pre3.c)


@pytest.mark.parametrize("pair", ["f, g^-1", "g, f"])
def test_attach_regions_fails_fast_off_a_prechain(pre3, pair):
    # the walk of a ray vertex into [b, c] never ends on these pairs; on a
    # prechain it passes only vertices, so the graph's order bounds it
    swapped = {
        "f, g^-1": dataclasses.replace(pre3, g=pre3.g.inverse()),
        "g, f": dataclasses.replace(pre3, f=pre3.g, g=pre3.f),
    }[pair]
    graph = build_orbit_graph([swapped.f, swapped.g], swapped.b, 50, labels=["f", "g"])
    out = []

    def run():
        try:
            attach_regions(graph, swapped)
        except PreconditionViolatedError as exc:
            out.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=0.5)
    assert not worker.is_alive(), f"attach_regions on ({pair}) took over 0.5 s"
    assert len(out) == 1


def test_tree_structure_needs_region_tags(pre3):
    graph = build_orbit_graph([pre3.f, pre3.g], pre3.b, 50, labels=["f", "g"])
    with pytest.raises(PreconditionViolatedError):
        verify_tree_structure(graph, pre3.f, pre3.g, pre3.b, pre3.c)


def test_c_not_in_graph(graph600, pre3):
    assert graph600.vertex(pre3.c) is None


def test_binary_growth(graph600, pre3):
    # the [b, c] subgraph is a binary tree: exactly 2^d vertices per depth
    g_map, f_map = pre3.g, pre3.f
    depth = {0: 0}  # by vertex id; the root is vertex 0
    counts = {0: 1}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            if i in graph600.incomplete:
                continue
            p = graph600.points[i]
            for child in (g_map.inverse()(p), f_map(p)):
                if i == 0 and child == p:
                    continue
                if qn_compare(child, pre3.b) >= 0 and qn_compare(child, pre3.c) <= 0:
                    j = graph600.vertex(child)
                    if j is not None and j not in depth:
                        depth[j] = depth[i] + 1
                        counts[depth[j]] = counts.get(depth[j], 0) + 1
                        nxt.append(j)
        frontier = nxt
    # the root has the single child f(b); every deeper vertex has two
    assert counts[0] == 1
    for d in range(1, 8):
        assert counts.get(d, 0) == 2 ** (d - 1), (d, counts)


def _entry_steps(step, x, pre):
    """The number of applications of step that bring x into [b, c]."""
    n = 0
    while not (pre.b <= x <= pre.c):
        x = step(x)
        n += 1
        assert n < 1000
    return n


def test_kernel_weights(graph600, pre3):
    ker = ComparisonKernel(graph600, pre3)
    seen_cases = set()
    for i in range(200):
        p = graph600.points[i]
        row = ker.row(i)
        assert sum(w for *_, w in row) == 1
        assert ker.check_symmetry(i, row)
        if qn_compare(p, pre3.b) >= 0 and qn_compare(p, pre3.c) <= 0:
            for lbl, d in (("f", 1), ("f", -1), ("g", 1), ("g", -1)):
                assert ker.weight(i, lbl, d) == Fraction(1, 4)
            seen_cases.add("middle")
        elif qn_compare(p, pre3.b) < 0:
            n = _entry_steps(pre3.f, p, pre3)
            if n % 2 == 1:
                assert ker.weight(i, "f", 1) == Fraction(1, 4)
                assert ker.weight(i, "f", -1) == Fraction(3, 4)
                seen_cases.add("below-odd")
            else:
                assert ker.weight(i, "f", 1) == Fraction(3, 4)
                assert ker.weight(i, "f", -1) == Fraction(1, 4)
                seen_cases.add("below-even")
            assert ker.weight(i, "g", 1) == 0
        else:
            m = _entry_steps(pre3.g.inverse(), p, pre3)
            if m % 2 == 1:
                assert ker.weight(i, "g", 1) == Fraction(3, 4)
                seen_cases.add("above-odd")
            else:
                assert ker.weight(i, "g", -1) == Fraction(3, 4)
                seen_cases.add("above-even")
            assert ker.weight(i, "f", 1) == 0
    assert {"middle", "below-odd", "below-even", "above-odd", "above-even"} <= seen_cases


def test_kernel_preconditions(graph600, pre3):
    with pytest.raises(PreconditionViolatedError):
        ComparisonKernel(graph600, dataclasses.replace(pre3, f=pre3.g, g=pre3.f))
    untagged = build_orbit_graph([pre3.f, pre3.g], pre3.b, 50, labels=["f", "g"])
    with pytest.raises(PreconditionViolatedError, match="no region tags"):
        ComparisonKernel(untagged, pre3)
    # tagged with d for c: the tags do not describe [b, c]
    other = _tagged_graph(dataclasses.replace(pre3, c=pre3.d), 50)
    with pytest.raises(PreconditionViolatedError, match="region tags are for another"):
        ComparisonKernel(other, pre3)


def test_kernel_applies_maps_only_at_the_frontier(graph600, pre3, monkeypatch):
    # rows read the recorded edges and the tags; a map is applied only to a
    # frontier vertex and to its images that the cap left out of the graph
    ker = ComparisonKernel(graph600, pre3)
    moves = graph600.gens + graph600.inverses
    off_graph = set()
    for i in graph600.incomplete:
        for move in moves:
            y = move.apply(graph600.points[i])
            if graph600.vertex(y) is None:
                off_graph.add(y)
    assert off_graph
    applied = []
    apply = PiecewiseProjectiveMap.apply

    def counted(self, x):
        applied.append(x)
        return apply(self, x)

    monkeypatch.setattr(PiecewiseProjectiveMap, "apply", counted)
    for i in range(graph600.order()):
        assert ker.check_symmetry(i, ker.row(i))
    assert applied
    for x in applied:
        j = graph600.vertex(x)
        assert j in graph600.incomplete if j is not None else x in off_graph


def test_tree_structure_mirrored_base():
    # base point with negative irrational part: mirrored prechain roles
    pc = construct_prechain(q(0, -1, 3))
    graph = build_orbit_graph([pc.f, pc.g], pc.b, 400, labels=["f", "g"])
    attach_regions(graph, pc)
    report = verify_tree_structure(graph, pc.f, pc.g, pc.b, pc.c)
    assert report.tree_vertices > 100
    assert report.region_a + report.region_b + 1 == report.tree_vertices


def test_export_deterministic(tmp_path, graph600):
    p1 = os.path.join(tmp_path, "a.dot")
    p2 = os.path.join(tmp_path, "b.dot")
    export_dot(graph600, p1)
    export_dot(graph600, p2)
    with open(p1, "rb") as h1, open(p2, "rb") as h2:
        assert h1.read() == h2.read()


def test_export_bytes_at_cap_600(tmp_path, graph600):
    # in process, the digests that test_cli's GRAPH_EXPORTS pins through the
    # graph command: they fix the vertex order, the colours and the edge lines
    expected = {
        "dot": "3d18c166daa61061e55a84f443f63a54f2d082a2df88f067defbeeb8f3cd0b7b",
        "csv": "926b7ef12bf457c4a2306733f1f8e241c9ac13c0a834fa1910052c1428c1054f",
    }
    for fmt, export in (("dot", export_dot), ("csv", export_csv)):
        path = os.path.join(tmp_path, f"graph_600.{fmt}")
        export(graph600, path)
        with open(path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == expected[fmt], fmt


def test_export_dot_syntax(tmp_path, pre3):
    hs = pre3.hs.map
    graph = build_orbit_graph([hs], SQRT3, 5, labels=["g0"])
    path = os.path.join(tmp_path, "loop.dot")
    export_dot(graph, path)
    with open(path) as fh:
        text = fh.read()
    assert text.startswith("digraph orbit {")
    assert text.rstrip().endswith("}")
    assert "v0 -> v0" in text  # rendered self-loop
    csvp = os.path.join(tmp_path, "loop.csv")
    export_csv(graph, csvp)
    with open(csvp) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "src,label,dst"
    assert len(lines) == 2
