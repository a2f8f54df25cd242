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
failure, 2 input error or an exceeded engine limit (EngineLimit).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import geometry, suites, tables
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


def _parse_mu(text: str):
    try:
        if "," in text:
            return tuple(int(x) for x in text.strip("()").split(","))
        return int(text)
    except ValueError as exc:
        raise InputError(f"cannot parse weight {text!r}") from exc


def _parse_mu_range(text: str, s: Scenario):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise InputError(f"cannot parse range {text!r}; expected a..b") from exc
    if lo > hi:
        raise InputError(f"empty range {text!r}")
    return s.weights_in_box(lo, hi)


def _mus(args, s: Scenario):
    """The weights of --mu-range, or the default window."""
    return _parse_mu_range(args.mu_range, s) if args.mu_range else s.default_mus()


def _emit(rows, fieldnames, args):
    """Rows are tuples in `fieldnames` order; JSON writes one object per row."""
    if args.format == "json":
        text = tables.to_json([dict(zip(fieldnames, row)) for row in rows])
    else:
        text = tables.to_csv(rows, fieldnames)
    tables.emit(text, args.out)


def cmd_multiplicity(args) -> int:
    s = load_scenario(args.scenario)
    if args.all_mu:
        items = [
            ((args.k, mu), n * s.dim_irrep(mu))
            for mu, n in full_weight_distribution(s, args.k).items()
        ]
    else:
        if args.mu is None:
            raise InputError("multiplicity needs --mu or --all-mu")
        mu = _parse_mu(args.mu)
        items = [((args.k, mu), section_dimension(s, args.k, mu))]
    _emit(tables.multiplicity_rows(s, items), ["k", "mu", "dim"], args)
    return 0


def cmd_volume(args) -> int:
    s = load_scenario(args.scenario)
    if args.mu is not None:
        mus = [_parse_mu(args.mu)]
    elif args.mu_range is not None:
        mus = _parse_mu_range(args.mu_range, s)
    else:
        raise InputError("volume needs --mu or --mu-range")
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
    tables.emit(text, args.out)
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
    rep = geometry.classify_stability(s)
    lines = [
        f"stability: {rep.stability}",
        f"zero_position: {rep.zero_position}",
        f"moment_image: {_render_image(rep.moment_image)}",
    ]
    try:
        stab = geometry.generic_stabilizer(s)
        if stab.finite:
            lines.append(f"generic_stabilizer_order: {stab.order}")
            lines.append(f"invariant_factors: {','.join(map(str, stab.invariant_factors))}")
        else:
            lines.append("generic_stabilizer_order: infinite")
    except UnsupportedScenario:
        pass
    if rep.stability == "unstable_everywhere":
        lines.append("vanishing_bounds:")
        for mu in _mus(args, s):
            r = geometry.vanishing_certificate(s, mu)
            lines.append(f"  mu={render_weight(mu)}: r_mu={r}")
    text = "\n".join(lines) + "\n"
    tables.emit(text, args.out)
    return 0


def cmd_predict(args) -> int:
    s = load_scenario(args.scenario)
    rep = geometry.classify_stability(s)
    if rep.stability != "regular":
        raise InputError(f"prediction is defined for regular scenarios, got {rep.stability}")
    vol0 = equivariant_volume(s, s.zero_weight)
    if not vol0.finite:
        print(f"vol_0 is {vol0.status}", file=sys.stderr)
        return 1
    rows = []
    for mu in _mus(args, s):
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
        tables.emit(tables.to_json(payload), args.out)
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

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario document (JSON)")
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
    common(p)
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
