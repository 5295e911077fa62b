"""Per-layer tracing by wrapping public pwproj functions from the outside.

No source file of the program is touched: the tracer replaces each listed
function or method with a timing wrapper for the duration of a traced run
and puts the original object back afterwards.  A module-level function is
replaced in every loaded ``pwproj`` module that bound it with
``from ... import``, so calls through those names are seen as well.

Spans are aggregated in memory per group: call count, inclusive time and
self time (inclusive time minus the time of wrapped calls made inside it).
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Dict, List, Tuple

PACKAGE = "pwproj"
ARITH_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__",
)

# (group, module inside pwproj, attribute path in that module)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("exactnum.qn_compare", "exactnum", "qn_compare"),
    ("exactnum.canonical_key", "exactnum", "canonical_key"),
    *(("exactnum.arith", "exactnum", f"QuadraticNumber.{op}") for op in ARITH_OPS),
    ("psl2.apply", "psl2", "ProjectiveMatrix.apply"),
    ("psl2.stabilizer", "psl2", "stabilizer_generator"),
    ("psl2.stabilizer", "psl2", "germ_exponent"),
    ("piecewise.apply", "piecewise", "PiecewiseProjectiveMap.apply"),
    ("piecewise.compose", "piecewise", "PiecewiseProjectiveMap.compose"),
    ("piecewise.inverse", "piecewise", "PiecewiseProjectiveMap.inverse"),
    ("piecewise.configuration", "piecewise", "configuration"),
    ("piecewise.configuration", "piecewise", "config_act"),
    ("walk.kernel", "walk", "nontriviality_witness"),
    ("walk.kernel", "walk", "estimate_returns"),
    ("walk.sampler", "walk", "PowerLawSampler.sample_signed"),
)

GROUPS: Tuple[str, ...] = tuple(dict.fromkeys(group for group, _, _ in TARGETS))


class Tracer:
    """Installs timing wrappers on TARGETS and restores the originals."""

    def __init__(self):
        # group -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {g: [0, 0.0, 0.0] for g in GROUPS}
        self.patches: List[Tuple[object, str, object]] = []
        self._stack: List[List[float]] = []

    def _wrap(self, group: str, fn):
        stat = self.stats[group]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - child[0]
                if stack:
                    stack[-1][0] += span

        return traced

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install_all()
        except BaseException:
            self.uninstall()
            raise

    def _install_all(self) -> None:
        modules = self._modules()
        for group, module, path in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(group, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(group, original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def report(self) -> Dict[str, Dict[str, float]]:
        return {
            group: {"calls": int(calls), "incl_s": incl, "self_s": own}
            for group, (calls, incl, own) in self.stats.items()
        }
