"""Command-line interface.

    equivol multiplicity --scenario S.json --k 4 --mu 0
    equivol multiplicity --scenario S.json --k 4 --all-mu
    equivol volume       --scenario S.json --mu-range=-3..3
    equivol exponent     --scenario S.json --m-max 60
    equivol classify     --scenario S.json
    equivol predict      --scenario S.json --mu-range 0..4
    equivol verify       --suite oracle --scenario extra.json
    equivol table        --scenario S.json --k-max 6

Every command is a pure function of the scenario document and flags;
repeated runs emit byte-identical tables.  Volumes come from a certified
interpolation with no horizon to set.  Exit codes: 0 success, 1 check
failure, 2 input error (including an --out path that cannot be written) or
an exceeded engine limit (EngineLimit).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import counting, geometry, suites, tables
from .corpus import default_corpus
from .counting import EngineLimit, full_weight_distribution, isotypic_table, section_dimension
from .model import Scenario, ScenarioError, UnsupportedScenario, scenario_from_dict
from .tables import render_rational, render_weight
from .volumes import M_MAX, equivariant_volume, g_exponent


class InputError(Exception):
    pass


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"scenario {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    try:
        return scenario_from_dict(doc)
    except ScenarioError as exc:
        raise InputError(f"scenario {path}: {exc}") from exc


def _weights(args, s: Scenario):
    """The weights that the command's weight flags select on `s`, read
    right after the scenario loads, before any count, fit or
    classification: ``[mu]`` for --mu, the dominant weights of the
    --mu-range box, None for --all-mu (every weight of the level), and the
    default window for a command without --mu given no range.  A command
    with --mu takes exactly one of --mu and its other flag."""
    text, box, every = getattr(args, "mu", None), getattr(args, "mu_range", None), getattr(args, "all_mu", False)
    if hasattr(args, "mu"):
        other = "--all-mu" if hasattr(args, "all_mu") else "--mu-range"
        if text is not None and (every or box is not None):
            raise InputError(f"{args.command} takes --mu or {other}, not both")
        if text is None and not (every or box is not None):
            raise InputError(f"{args.command} needs --mu or {other}")
    if text is not None:
        try:
            return [tuple(int(x) for x in text.strip("()").split(",")) if "," in text else int(text)]
        except ValueError as exc:
            raise InputError(f"cannot parse weight {text!r}") from exc
    if every:
        return None
    if box is None:
        return s.default_mus()
    try:
        lo, hi = box.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"cannot parse range {box!r}; expected a..b") from exc
    if lo > hi:
        raise InputError(f"empty range {box!r}")
    first = max(lo, 0) if s.group.is_su2 else lo  # su2 weights start at 0
    size = max(hi - first + 1, 0) ** s.group.torus_rank
    if size > counting.CELL_BUDGET:  # counted before the box is listed
        raise InputError(f"--mu-range {box!r} spans {size} weights > budget {counting.CELL_BUDGET}")
    if not (mus := s.weights_in_box(lo, hi)):
        raise InputError(f"no dominant weight in range {box!r}")
    return mus


def _write(text: str, path) -> None:
    """Write `text` to stdout, or to the --out `path` when one is given.
    A failing stdout raises as it is; a path that cannot be written is an
    input error."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(rows, fieldnames, args):
    """Rows are tuples in `fieldnames` order, read once, so a one-pass
    iterator serves; JSON writes one object per row."""
    if args.format == "json":
        text = tables.to_json([dict(zip(fieldnames, row)) for row in rows])
    else:
        text = tables.to_csv(rows, fieldnames)
    _write(text, args.out)


def cmd_multiplicity(args) -> int:
    s = load_scenario(args.scenario)
    mus = _weights(args, s)
    if mus is None:
        dist = full_weight_distribution(s, args.k)
        level = (args.k, list(dist), [n * s.dim_irrep(mu) for mu, n in dist.items()])
    else:
        level = (args.k, mus, [section_dimension(s, args.k, mu) for mu in mus])
    _emit(tables.multiplicity_rows(s, [level]), ["k", "mu", "dim"], args)
    return 0


def cmd_volume(args) -> int:
    s = load_scenario(args.scenario)
    mus = _weights(args, s)
    pairs = [(mu, equivariant_volume(s, mu)) for mu in mus]
    _emit(tables.volume_rows(pairs), ["mu", "value", "status", "residue", "period"], args)
    return 0


def cmd_exponent(args) -> int:
    s = load_scenario(args.scenario)
    res = g_exponent(s, args.m_max)
    payload = {
        "semigroup": sorted(res.semigroup),
        "exponent": res.exponent,
        "m_stab": res.m_stab,
        "m_max": res.m_max,
    }
    text = tables.to_json(payload) if args.format == "json" else "\n".join(
        f"{k}: {v}" for k, v in payload.items()
    ) + "\n"
    _write(text, args.out)
    return 0


def _render_image(img) -> str:
    if img.rank == 1:
        lo, hi = img.interval
        tag = "dominant interval" if img.dominant else "interval"
        return f"{tag} [{lo}, {hi}]"
    verts = ", ".join(f"({x},{y})" for x, y in img.vertices)
    return f"polygon [{verts}]"


def cmd_classify(args) -> int:
    s = load_scenario(args.scenario)
    mus = _weights(args, s)
    rep = geometry.classify_stability(s)
    lines = [
        f"stability: {rep.stability}",
        f"zero_position: {rep.zero_position}",
        f"moment_image: {_render_image(rep.moment_image)}",
    ]
    stab = geometry.generic_stabilizer(s)
    if stab.finite:
        lines.append(f"generic_stabilizer_order: {stab.order}")
        lines.append(f"invariant_factors: {','.join(map(str, stab.invariant_factors))}")
    else:
        lines.append("generic_stabilizer_order: infinite")
    if rep.stability == geometry.UNSTABLE:
        lines.append("vanishing_bounds:")
        for mu in mus:
            r = geometry.vanishing_certificate(s, mu)
            lines.append(f"  mu={render_weight(mu)}: r_mu={r}")
    text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return 0


def cmd_predict(args) -> int:
    s = load_scenario(args.scenario)
    mus = _weights(args, s)
    rep = geometry.classify_stability(s)
    if rep.stability != geometry.REGULAR:
        raise InputError(f"prediction is defined for regular scenarios, got {rep.stability}")
    vol0 = equivariant_volume(s, s.zero_weight)
    if not vol0.finite:
        print(f"vol_0 is {vol0.status}", file=sys.stderr)
        return 1
    rows = []
    for mu in mus:
        cert = geometry.numerically_compatible(s, mu)
        predicted = geometry.predicted_volume(s, mu, vol0.value)
        witness = "" if cert.witness is None else cert.witness
        rows.append((render_weight(mu), cert.compatible, witness, render_rational(predicted)))
    _emit(rows, ["mu", "compatible", "witness", "predicted"], args)
    return 0


def cmd_verify(args) -> int:
    corpus = default_corpus()
    for extra in args.scenario or []:
        corpus.append((extra, load_scenario(extra)))
    names = [args.suite] if args.suite else list(suites.SUITE_NAMES)
    reports = []
    for name in names:
        rep = suites.run_suite(name, corpus)
        reports.append(rep)
        print(rep.summary())
    if args.out or args.format == "json":
        payload = [r.to_dict() for r in reports]
        _write(tables.to_json(payload), args.out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_table(args) -> int:
    s = load_scenario(args.scenario)
    if args.k_max < 0:
        raise InputError(f"--k-max must be >= 0, got {args.k_max}")
    table = isotypic_table(s, args.k_max)
    _emit(tables.multiplicity_rows(s, table.sorted_items()), ["k", "mu", "dim"], args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equivol",
        description="Exact equivariant volumes and isotypic section counts "
        "for linearized actions on products of projective spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True, formats=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario document (JSON)")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("multiplicity", help="isotypic dimensions at one level")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--all-mu", action="store_true")
    p.set_defaults(func=cmd_multiplicity)

    p = sub.add_parser("volume", help="equivariant volumes with fit diagnostics")
    common(p)
    p.add_argument("--mu", default=None)
    p.add_argument("--mu-range", default=None, help="a..b")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("exponent", help="invariant semigroup and G-exponent")
    common(p)
    p.add_argument("--m-max", type=int, default=M_MAX)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("classify", help="stability class and moment image")
    common(p, formats=False)
    p.add_argument("--mu-range", default=None, help="a..b for the r_mu table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("predict", help="closed-form volume prediction (regular case)")
    common(p)
    p.add_argument("--mu-range", default=None, help="a..b")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="run verification suites on the corpus")
    common(p, scenario=False)
    p.add_argument("--suite", choices=suites.SUITE_NAMES, default=None,
                   help="one suite (default: all)")
    p.add_argument("--scenario", action="append", default=None,
                   help="extra scenario documents to include")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="full isotypic table up to k-max")
    common(p)
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ScenarioError, UnsupportedScenario, EngineLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
