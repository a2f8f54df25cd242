"""Deterministic table emission.

Identical inputs produce byte-identical files: rows are ordered
lexicographically in (k, weight vector), rationals render as ``p/q`` in
lowest terms (plain integer string when integral), and JSON is emitted
with sorted keys and a fixed separator convention.  Every row emitter
returns tuples in the order of its header; CSV writes them as they are,
and JSON zips each with the header into an object.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction


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


def multiplicity_rows(s, items):
    """(k, mu, dim) rows in lexicographic (k, weight) order.

    The weights of one scenario are all ints or all tuples, so the natural
    order of the ((k, mu), dim) items is that order; `s` is not consulted.
    Each distinct weight is rendered once, and its rows share the string.
    """
    names = _Names()
    return [(k, names[mu], dim) for (k, mu), dim in sorted(items)]


def volume_rows(pairs):
    """(mu, value, status, residue, period) rows from (mu, VolumeEstimate)
    pairs, in weight order."""
    out = []
    for mu, est in sorted(pairs, key=lambda p: p[0]):
        fit = ("", "") if est.fit is None else (est.fit.residue, est.fit.period)
        out.append((render_weight(mu), render_rational(est.value), est.status, *fit))
    return out


def to_csv(rows, fieldnames) -> str:
    """A header line of `fieldnames`, then the rows, each a sequence of
    values in header order, written in one call."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
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
