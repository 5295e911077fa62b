"""The benchmark workloads: inputs built from a seed, timed batches, checks.

Each workload calls the same public pwproj functions as the matching CLI
command, in the same order, with threads=1.  A batch is the unit of work
that is timed; its checks run outside the timed region.

Importing this module imports pwproj from the checkout's own ``src``
directory and refuses any other copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RECORDED_PATH = os.path.join(HERE, "recorded.json")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import pwproj  # noqa: E402
from pwproj import exactnum, piecewise, psl2, schreier, walk  # noqa: E402

if not os.path.abspath(pwproj.__file__).startswith(SRC + os.sep):
    raise ImportError(f"pwproj was imported from {pwproj.__file__}, not from {SRC}")

BASE_POINT = "0+1*sqrt(3)"  # the README's base point
EPSILON = Fraction(1, 4)  # CLI defaults of witness, entropy and walk
ALPHA = Fraction(4, 5)
RETURNS_SIGMAS = 5  # a horizon's mean may sit this many standard errors off


@dataclass
class Batch:
    ops: int
    seconds: float
    result: object
    counters: Dict[str, float] = field(default_factory=dict)


def batch_seed(seed: int, index: int) -> int:
    """Master seed of batch `index` in a run with the given --seed."""
    return seed * 1000 + index


def digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def load_recorded() -> dict:
    with open(RECORDED_PATH) as handle:
        return json.load(handle)


def expected_returns(n: int) -> Fraction:
    """Exact mean number of visits to 0 in steps 1..n of the simple walk on Z.

    sum_{j=1}^{J} C(2j, j) / 4^j with J = n // 2, in the closed form
    (2J + 1) C(2J, J) / 4^J - 1.
    """
    half = n // 2
    return Fraction((2 * half + 1) * comb(2 * half, half), 4**half) - 1


def witness_inputs():
    """Prechain and measure exactly as the CLI's witness and entropy commands build them."""
    pre = piecewise.construct_prechain(exactnum.qn_from_text(BASE_POINT))
    translation = piecewise.pm_from_matrix(psl2.ProjectiveMatrix.translation(1))
    mu = walk.witness_measure(pre.hs.map, pre.companion, translation, EPSILON, ALPHA)
    return pre, mu


# -- checks ---------------------------------------------------------------


def tree_failures(summary: dict, expected: Optional[dict]) -> List[str]:
    if expected is None:
        return [f"no recorded tree values for cap {summary['cap']}"]
    return [
        f"tree {name} is {summary.get(name)!r}, recorded {value!r}"
        for name, value in sorted(expected.items())
        if summary.get(name) != value
    ]


def witness_failures(
    report: dict, steps: int, trajectories: int, expected_digest: Optional[str]
) -> List[str]:
    """Structural invariants of a witness report, plus its recorded digest if any."""
    out = []
    if (
        report["steps"] != steps
        or report["trajectories"] != trajectories
        or report["stabilization_horizon"] != steps // 2
    ):
        out.append("witness report echoes another configuration")
    keys = list(report["value_histogram"])
    hist = {int(k): v for k, v in report["value_histogram"].items()}
    if keys != [str(v) for v in sorted(hist)] or any(c <= 0 for c in hist.values()):
        out.append("witness histogram is not sorted or has empty bins")
    stabilized = sum(hist.values())
    if stabilized > trajectories or report["stabilized_fraction"] != stabilized / trajectories:
        out.append("witness stabilized fraction disagrees with the histogram")
    frequent = sorted(v for v, c in hist.items() if c / trajectories >= 0.10)
    if report["frequent_values"] != frequent:
        out.append("witness frequent values disagree with the histogram")
    if not 0 <= report["frozen_runs"] <= trajectories:
        out.append("witness frozen_runs out of range")
    succeed = report["stabilized_fraction"] >= 0.95 and len(frequent) >= 2
    if report["verdict"] != ("SUCCEED" if succeed else "FAIL"):
        out.append("witness verdict disagrees with its own numbers")
    if expected_digest is not None and digest(report) != expected_digest:
        out.append("witness report digest differs from the recorded one")
    return out


def returns_failures(report, horizons, trajectories) -> List[str]:
    out = []
    if list(report.horizons) != list(horizons) or report.trajectories != trajectories:
        out.append("returns report echoes another configuration")
        return out
    for n, mean, err in zip(report.horizons, report.means, report.stderrs):
        exact = float(expected_returns(n))
        if not err > 0 or abs(mean - exact) > RETURNS_SIGMAS * err:
            out.append(f"returns at n={n}: mean {mean} vs exact {exact} (stderr {err})")
    return out


# -- workloads ------------------------------------------------------------


class Tree:
    """verify-tree plus graph --format both, at one vertex cap."""

    name = "tree"
    CAP = 2000  # README size of verify-tree

    def __init__(self, seed: int, recorded: dict, outdir: str):
        self.pre = piecewise.construct_prechain(exactnum.qn_from_text(BASE_POINT))
        self.expected = recorded.get("tree", {}).get(str(self.CAP))
        self.dot_path = os.path.join(outdir, f"graph_{self.CAP}.dot")
        self.csv_path = os.path.join(outdir, f"graph_{self.CAP}.csv")

    def batch(self, index: int) -> Batch:
        pre = self.pre
        clock = time.perf_counter
        t0 = clock()
        graph = schreier.build_orbit_graph([pre.f, pre.g], pre.b, self.CAP, labels=["f", "g"])
        t1 = clock()
        schreier.attach_regions(graph, pre)
        t2 = clock()
        report = schreier.verify_tree_structure(graph, pre.f, pre.g, pre.b, pre.c)
        t3 = clock()
        schreier.export_dot(graph, self.dot_path)
        schreier.export_csv(graph, self.csv_path)
        t4 = clock()
        summary = {
            "cap": self.CAP,
            "vertices": graph.order(),
            "truncated": graph.truncated,
            "tree_vertices": report.tree_vertices,
            "ray_vertices": report.ray_vertices,
            "region_a": report.region_a,
            "region_b": report.region_b,
            "max_depth": report.max_depth,
            "dot_sha256": file_digest(self.dot_path),
            "csv_sha256": file_digest(self.csv_path),
        }
        counters = {
            "vertices": graph.order(),
            "bfs_s": t1 - t0,
            "regions_s": t2 - t1,
            "verify_s": t3 - t2,
            "export_s": t4 - t3,
        }
        return Batch(graph.order(), t4 - t0, summary, counters)

    def check(self, summary: dict):
        return 1, tree_failures(summary, self.expected)


class Products:
    """Sampled word pairs from the witness measure, composed and checked.

    The sampling and composition path of `entropy`; the checks are the
    cocycle identity of acceptance criterion 2 and the inverse round trip.
    """

    name = "products"
    PAIRS = 40  # word pairs per batch
    WORD = 4  # word length n

    def __init__(self, seed: int, recorded: dict, outdir: str):
        self.seed = seed
        pre, self.mu = witness_inputs()
        self.s = pre.hs.base

    def _word(self, rng):
        prod = piecewise.pm_identity()
        for _ in range(self.WORD):
            prod = self.mu.sample(rng) * prod
        return prod

    def batch(self, index: int) -> Batch:
        s = self.s
        outcomes = []
        start = time.perf_counter()
        for t in range(index * self.PAIRS, (index + 1) * self.PAIRS):
            rng = walk.trajectory_rng(self.seed, t)
            h = self._word(rng)
            g = self._word(rng)
            cocycle = piecewise.config_act(
                g, piecewise.configuration(h, s)
            ) == piecewise.configuration(h * g, s)
            round_trip = (h * h.inverse()).is_identity
            outcomes.append((t, cocycle, round_trip))
        seconds = time.perf_counter() - start
        return Batch(self.PAIRS, seconds, outcomes)

    def check(self, outcomes):
        failures = [
            f"pair {t}: cocycle {cocycle}, inverse round trip {round_trip}"
            for t, cocycle, round_trip in outcomes
            if not (cocycle and round_trip)
        ]
        return len(outcomes), failures


class Witness:
    """nontriviality_witness at the README's T, one call per batch."""

    name = "witness"
    T = 20000
    M = 50  # trajectories per call

    def __init__(self, seed: int, recorded: dict, outdir: str):
        self.seed = seed
        pre, self.mu = witness_inputs()
        self.s = pre.hs.base
        self.digests = recorded.get("witness", {}).get(f"T={self.T},M={self.M}", {})

    def batch(self, index: int) -> Batch:
        master = batch_seed(self.seed, index)
        start = time.perf_counter()
        report = walk.nontriviality_witness(self.mu, self.s, self.T, self.M, master, threads=1)
        seconds = time.perf_counter() - start
        counters = {"steps": self.T * self.M, "frozen_runs": report["frozen_runs"]}
        return Batch(self.M, seconds, (master, report), counters)

    def check(self, result):
        master, report = result
        return 1, witness_failures(report, self.T, self.M, self.digests.get(str(master)))


class ReturnsZ:
    """estimate_returns with the +-1 translation measure of `returns --target z`."""

    name = "returns-z"
    HORIZONS = (10000, 20000)  # CLI default horizons
    M = 100  # trajectories per call

    def __init__(self, seed: int, recorded: dict, outdir: str):
        self.seed = seed
        translation = piecewise.pm_from_matrix(psl2.ProjectiveMatrix.translation(1))
        self.mu = walk.uniform_measure([translation, translation.inverse()])
        self.start = exactnum.QuadraticNumber(0)

    def batch(self, index: int) -> Batch:
        master = batch_seed(self.seed, index)
        start = time.perf_counter()
        report = walk.estimate_returns(
            self.mu, self.start, list(self.HORIZONS), self.M, master, threads=1
        )
        seconds = time.perf_counter() - start
        return Batch(self.M, seconds, report, {"steps": self.M * max(self.HORIZONS)})

    def check(self, report):
        return len(self.HORIZONS), returns_failures(report, self.HORIZONS, self.M)


WORKLOADS = {cls.name: cls for cls in (Tree, Products, Witness, ReturnsZ)}
