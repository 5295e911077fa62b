"""Command-line front end: constructions, graphs, and walk experiments.

Every stochastic command requires --seed and echoes its full configuration
into the JSON report, so identical invocations produce identical bytes.
Exit codes: 0 success, 1 validation error, 2 structure-check failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .exactnum import QuadraticNumber, point_to_text, qn_from_text
from .piecewise import (
    ConstructionFailedError,
    PiecewiseMapError,
    build_hs,
    configuration,
    construct_prechain,
    membership,
    pm_from_matrix,
)
from .psl2 import ProjectiveMatrix
from .schreier import (
    ComparisonKernel,
    StructureViolationError,
    attach_regions,
    build_orbit_graph,
    export_csv,
    export_dot,
    verify_tree_structure,
)
from .walk import (
    PrechainTreeModel,
    entropy_estimate,
    estimate_returns,
    lamplighter_demo,
    nontriviality_witness,
    simulate_config_walk,
    summability_diagnostic,
    trajectory_rng,
    uniform_measure,
    witness_measure,
)

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _positive_int_list(text: str) -> str:
    """Check a comma list of positive ints; the text itself is kept for the report."""
    for part in text.split(","):
        _positive_int(part)
    return text


def _out_path(args, default_name: str) -> str:
    return os.path.join(args.out, default_name)


def _emit(args, name: str, payload: dict) -> str:
    path = _out_path(args, name)
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print(text)
    return path


def _config_echo(args, fields) -> dict:
    return {f: getattr(args, f) for f in fields if getattr(args, f, None) is not None}


def _base_point(args) -> QuadraticNumber:
    try:
        return qn_from_text(args.s)
    except ZeroDivisionError:
        raise ValueError(f"--s: zero denominator in {args.s!r}") from None


def _prechain_for(args):
    return construct_prechain(_base_point(args))


def cmd_construct_hs(args) -> int:
    s = _base_point(args)
    built = build_hs(s)
    payload = {
        "command": "construct-hs",
        "config": _config_echo(args, ["s"]),
        "map": built.map.to_text(),
        "branch": built.branch,
        "prime": built.prime,
        "breaks": [point_to_text(b) for b in built.map.breaks],
        "break_fields": [b.k for b in built.map.breaks],
        "configuration": configuration(built.map, s).as_text_dict(),
        "hz_member": membership(built.map, "HZ"),
        "support": [
            [point_to_text(lo), point_to_text(hi)]
            for lo, hi in built.map.support_intervals()
        ],
    }
    _emit(args, "construct_hs.json", payload)
    return 0


def cmd_prechain(args) -> int:
    pre = _prechain_for(args)
    payload = {
        "command": "prechain",
        "config": _config_echo(args, ["s"]),
        "f": pre.f.to_text(),
        "g": pre.g.to_text(),
        "endpoints": {
            "a": point_to_text(pre.a),
            "b": point_to_text(pre.b),
            "c": point_to_text(pre.c),
            "d": point_to_text(pre.d),
        },
        "f_power": pre.f_power,
        "g_power": pre.g_power,
        "interleaving": "a<b<c<d with g^-1(c) < f(b)",
    }
    _emit(args, "prechain.json", payload)
    return 0


def cmd_graph(args) -> int:
    pre = _prechain_for(args)
    graph = build_orbit_graph([pre.f, pre.g], pre.b, args.cap, labels=["f", "g"])
    attach_regions(graph, pre)
    base = f"graph_{args.cap}"
    paths = []
    if args.format in ("dot", "both"):
        p = _out_path(args, base + ".dot")
        export_dot(graph, p)
        paths.append(p)
    if args.format in ("csv", "both"):
        p = _out_path(args, base + ".csv")
        export_csv(graph, p)
        paths.append(p)
    payload = {
        "command": "graph",
        "config": _config_echo(args, ["s", "cap", "format"]),
        "vertices": graph.order(),
        "truncated": graph.truncated,
        "outputs": [os.path.basename(p) for p in paths],
    }
    _emit(args, "graph.json", payload)
    return 0


def cmd_verify_tree(args) -> int:
    pre = _prechain_for(args)
    graph = build_orbit_graph([pre.f, pre.g], pre.b, args.cap, labels=["f", "g"])
    attach_regions(graph, pre)
    try:
        report = verify_tree_structure(graph, pre.f, pre.g, pre.b, pre.c)
    except StructureViolationError as exc:
        payload = {
            "command": "verify-tree",
            "config": _config_echo(args, ["s", "cap"]),
            "verdict": "VIOLATION",
            "detail": str(exc),
        }
        _emit(args, "verify_tree.json", payload)
        return 2
    payload = {
        "command": "verify-tree",
        "config": _config_echo(args, ["s", "cap"]),
        "verdict": "OK",
        "tree_vertices": report.tree_vertices,
        "ray_vertices": report.ray_vertices,
        "region_a": report.region_a,
        "region_b": report.region_b,
        "max_depth": report.max_depth,
    }
    _emit(args, "verify_tree.json", payload)
    return 0


def cmd_kernel(args) -> int:
    pre = _prechain_for(args)
    kernel = ComparisonKernel(pre.f, pre.g, pre.a, pre.b, pre.c, pre.d)
    graph = build_orbit_graph([pre.f, pre.g], pre.b, args.cap, labels=["f", "g"])
    rows = []
    bad = 0
    for p in graph.sorted_keys()[: args.sample]:
        row = kernel.row(p)
        total = sum(w for _, _, _, w in row)
        sym = kernel.check_symmetry(p)
        if total != 1 or not sym:
            bad += 1
        rows.append(
            {
                "point": point_to_text(p),
                "weights": {f"{lbl}{'+' if d > 0 else '-'}": str(w) for lbl, d, _, w in row},
                "row_sum": str(total),
                "symmetric": sym,
            }
        )
    payload = {
        "command": "kernel",
        "config": _config_echo(args, ["s", "cap", "sample"]),
        "checked": len(rows),
        "violations": bad,
        "rows": rows[: min(len(rows), 16)],
    }
    _emit(args, "kernel.json", payload)
    return 2 if bad else 0


# the fraction options: the condition each must meet, as text and as a test
_FRACTION_RULES = {
    "epsilon": ("0 <= epsilon < 1", lambda v: 0 <= v < 1),
    "alpha": ("0 < alpha < 1", lambda v: 0 < v < 1),
}


def _fraction_option(args, name: str) -> Fraction:
    """The fraction given as --name; ValueError naming it if it is bad."""
    text = getattr(args, name)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--{name}: not a fraction: {text!r}") from None
    rule, holds = _FRACTION_RULES[name]
    if not holds(value):
        raise ValueError(f"--{name} must satisfy {rule}, got {text}")
    return value


def _witness_measure_for(args):
    # options first: the construction can take seconds
    eps = _fraction_option(args, "epsilon")
    alpha = _fraction_option(args, "alpha")
    pre = _prechain_for(args)
    translation = pm_from_matrix(ProjectiveMatrix.translation(1))
    return pre, witness_measure(pre.hs.map, pre.companion, translation, eps, alpha)


def cmd_walk(args) -> int:
    pre, mu = _witness_measure_for(args)
    s = pre.hs.base
    tracker = simulate_config_walk(mu, s, s, args.T, trajectory_rng(args.seed, 0))
    payload = {
        "command": "walk",
        "config": _config_echo(args, ["s", "T", "seed", "epsilon", "alpha"]),
        "value": tracker.value,
        "last_change": tracker.last_change,
        "changes": len(tracker.change_log),
        "frozen_at": tracker.frozen_at,
        "final_point": point_to_text(tracker.x),
    }
    _emit(args, "walk.json", payload)
    return 0


def cmd_witness(args) -> int:
    pre, mu = _witness_measure_for(args)
    report = nontriviality_witness(mu, pre.hs.base, args.T, args.M, args.seed)
    payload = {
        "command": "witness",
        "config": _config_echo(args, ["s", "T", "M", "seed", "epsilon", "alpha"]),
        **report,
    }
    _emit(args, "witness.json", payload)
    return 0


def cmd_summability(args) -> int:
    pre, mu = _witness_measure_for(args)
    s = pre.hs.base
    report = summability_diagnostic(mu, s, s, args.T, args.M, args.seed)
    series_path = _out_path(args, "summability.csv")
    with open(series_path, "w") as handle:
        handle.write("step,hit_mass,cumulative\n")
        for i, (h, c) in enumerate(
            zip(report["per_step_hit_mass"], report["cumulative"]), start=1
        ):
            handle.write(f"{i},{h},{c}\n")
    payload = {
        "command": "summability",
        "config": _config_echo(args, ["s", "T", "M", "seed", "epsilon", "alpha"]),
        "atom_l1_mass": report["atom_l1_mass"],
        "cumulative_final": report["cumulative"][-1] if report["cumulative"] else 0.0,
        "series_file": os.path.basename(series_path),
    }
    _emit(args, "summability.json", payload)
    return 0


def cmd_entropy(args) -> int:
    pre, mu = _witness_measure_for(args)
    report = entropy_estimate(mu, args.n, args.M, args.seed)
    payload = {
        "command": "entropy",
        "config": _config_echo(args, ["s", "n", "M", "seed", "epsilon", "alpha"]),
        **report,
    }
    _emit(args, "entropy.json", payload)
    return 0


def cmd_lamplighter(args) -> int:
    alpha = _fraction_option(args, "alpha")
    heavy = lamplighter_demo(alpha, args.T, args.M, args.seed, True)
    control = lamplighter_demo(alpha, args.T, args.M, args.seed, False)
    payload = {
        "command": "lamplighter",
        "config": _config_echo(args, ["alpha", "T", "M", "seed"]),
        "heavy_tail": heavy,
        "srw_control": control,
    }
    _emit(args, "lamplighter.json", payload)
    return 0


def cmd_returns(args) -> int:
    horizons = [int(h) for h in args.horizons.split(",")]
    if args.target == "z":
        translation = pm_from_matrix(ProjectiveMatrix.translation(1))
        mu = uniform_measure([translation, translation.inverse()])
        rep = estimate_returns(mu, QuadraticNumber(0), horizons, args.M, args.seed)
    else:
        pre = _prechain_for(args)
        rep = estimate_returns(PrechainTreeModel(pre), pre.b, horizons, args.M, args.seed)
    payload = {
        "command": "returns",
        "config": _config_echo(args, ["s", "target", "horizons", "M", "seed"]),
        **rep.as_dict(),
    }
    _emit(args, "returns.json", payload)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pwproj", description=__doc__)
    parser.add_argument("--out", help="output directory (default: PWPROJ_OUT or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *, s=False, seed=False, extras=()):
        p = sub.add_parser(name)
        if s:
            p.add_argument("--s", required=True, help='base point, e.g. "0+1*sqrt(3)"')
        for flag, kw in extras:
            p.add_argument(flag, **kw)
        if seed:
            p.add_argument("--seed", type=int, required=True)
        p.set_defaults(fn=fn)
        return p

    add("construct-hs", cmd_construct_hs, s=True)
    add("prechain", cmd_prechain, s=True)
    add(
        "graph",
        cmd_graph,
        s=True,
        extras=[
            ("--cap", dict(type=_positive_int, default=500)),
            ("--format", dict(choices=["dot", "csv", "both"], default="dot")),
        ],
    )
    add(
        "verify-tree",
        cmd_verify_tree,
        s=True,
        extras=[("--cap", dict(type=_positive_int, default=2000))],
    )
    add(
        "kernel",
        cmd_kernel,
        s=True,
        extras=[
            ("--cap", dict(type=_positive_int, default=500)),
            ("--sample", dict(type=_positive_int, default=200)),
        ],
    )
    # the witness measure's options, shared by every command that builds it
    measure = [
        ("--epsilon", dict(default="1/4")),
        ("--alpha", dict(default="4/5")),
    ]
    long_walk = ("--T", dict(type=_positive_int, default=20000))
    add("walk", cmd_walk, s=True, seed=True, extras=[long_walk] + measure)
    add(
        "witness",
        cmd_witness,
        s=True,
        seed=True,
        extras=[long_walk, ("--M", dict(type=_positive_int, default=500))] + measure,
    )
    add(
        "summability",
        cmd_summability,
        s=True,
        seed=True,
        extras=[
            ("--T", dict(type=_positive_int, default=2000)),
            ("--M", dict(type=_positive_int, default=200)),
        ]
        + measure,
    )
    add(
        "entropy",
        cmd_entropy,
        s=True,
        seed=True,
        extras=[
            ("--n", dict(type=_positive_int, default=8)),
            ("--M", dict(type=_positive_int, default=500)),
        ]
        + measure,
    )
    add(
        "lamplighter",
        cmd_lamplighter,
        seed=True,
        extras=[
            ("--alpha", dict(default="4/5")),
            ("--T", dict(type=_positive_int, default=10000)),
            ("--M", dict(type=_positive_int, default=1000)),
        ],
    )
    add(
        "returns",
        cmd_returns,
        seed=True,
        extras=[
            ("--target", dict(choices=["z", "prechain"], default="prechain")),
            ("--s", dict(default="0+1*sqrt(3)")),
            ("--horizons", dict(type=_positive_int_list, default="10000,20000")),
            ("--M", dict(type=_positive_int, default=500)),
        ],
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # made before the run, so an unusable directory fails before the work
    source = "--out" if args.out else "PWPROJ_OUT"
    args.out = args.out or os.environ.get("PWPROJ_OUT", ".")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        message = f"cannot make directory {args.out!r}: {exc.strerror}"
        print(f"error: {source}: {message}", file=sys.stderr)
        return 1
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (PiecewiseMapError, ConstructionFailedError, ValueError, ZeroDivisionError) as exc:
        # ZeroDivisionError: arithmetic on input that no option check caught
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone; the report file is already written.
        # Point stdout at devnull so the flush at exit cannot fail again
        # (the "Note on SIGPIPE" in the signal module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
