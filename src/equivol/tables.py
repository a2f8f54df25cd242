"""Deterministic table emission.

Identical inputs produce byte-identical files: rows keep the
lexicographic (k, weight vector) order their callers pass them in (the
emitters do not sort), rationals render as ``p/q`` in lowest terms (plain
integer string when integral), and JSON is emitted with sorted keys and a
fixed separator convention.  Every row emitter yields tuples in the order
of its header; CSV writes them as they are, and JSON zips each with the
header into an object.  :func:`multiplicity_rows` streams its rows level
by level from the levels' own lists, so a table is never copied into a
list of rows, and each reader reads them once; its CSV is written a level
at a time from those lists, with no row tuple built.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from itertools import chain, repeat
from operator import add


def render_rational(x) -> str:
    if x is None:
        return ""
    x = Fraction(x)
    return str(x)  # Fraction renders as p/q in lowest terms, or a bare int


def render_weight(mu) -> str:
    if isinstance(mu, tuple):
        return "(" + ",".join(map(str, mu)) + ")"
    return str(mu)


class _Names(dict):
    """Rendered weights, each rendered once, on its first lookup."""

    def __missing__(self, mu):
        name = self[mu] = render_weight(mu)
        return name


class _TableRows(chain):
    """The rows of :func:`multiplicity_rows`, with the `levels` they are
    read from, so that :func:`to_csv` can write a level at a time."""

    levels: list


def multiplicity_rows(s, levels):
    """(k, mu, dim) rows from (k, weights, dims) levels, one row per weight,
    in the order given, as a one-pass iterator that keeps the levels.

    Callers pass the levels in k order and each level's weights in weight
    order, which is the order of the rows; `s` is not consulted.  Each
    distinct weight is rendered once, and its rows share the string.  The
    rows are zipped from the levels' lists by C iterators, so no Python
    code runs per row; :func:`to_csv` reads the levels' lists instead.
    """
    names = _Names()
    rows = _TableRows.from_iterable(zip(repeat(k), map(names.__getitem__, mus), ns) for k, mus, ns in levels)
    rows.levels = levels
    return rows


def _level_csv(level) -> str:
    """The CSV lines of one (k, weights, dims) level: one %-template per
    row, repeated and filled from the level's lists in one call.  A weight
    is quoted exactly when its rendered form has a comma, as csv.writer
    quotes it."""
    k, mus, ns = level
    if not mus:
        return ""
    mu = mus[0]
    if not isinstance(mu, tuple):
        return f"{k},%d,%d\n" * len(mus) % tuple(chain.from_iterable(zip(mus, ns)))
    name = "(" + ",".join(["%d"] * len(mu)) + ")"
    if len(mu) > 1:
        name = f'"{name}"'
    return f"{k},{name},%d\n" * len(mus) % tuple(chain.from_iterable(map(add, mus, zip(ns))))


def volume_rows(pairs):
    """(mu, value, status, residue, period) rows from (mu, VolumeEstimate)
    pairs, in the order given; callers pass them in weight order."""
    out = []
    for mu, est in pairs:
        fit = ("", "") if est.fit is None else (est.fit.residue, est.fit.period)
        out.append((render_weight(mu), render_rational(est.value), est.status, *fit))
    return out


def to_csv(rows, fieldnames) -> str:
    """A header line of `fieldnames`, then the rows, each a sequence of
    values in header order.  The rows of :func:`multiplicity_rows` are
    written a level at a time from the levels' lists and joined once; any
    other rows, whose strings may need quoting, go to one csv.writer call."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    if isinstance(rows, _TableRows):
        return "".join(chain((buf.getvalue(),), map(_level_csv, rows.levels)))
    writer.writerows(rows)
    return buf.getvalue()


def to_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_encode) + "\n"


def _encode(obj):
    if isinstance(obj, Fraction):
        return render_rational(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {obj!r}")


def emit(text: str, destination=None) -> None:
    """Write to a path, or to stdout when destination is None."""
    if destination is None:
        sys.stdout.write(text)
        return
    with open(destination, "w") as fh:
        fh.write(text)
