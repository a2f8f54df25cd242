"""Deterministic table emission.

Identical inputs produce byte-identical files: rows are ordered
lexicographically in (k, weight vector), rationals render as ``p/q`` in
lowest terms (plain integer string when integral), and JSON is emitted
with sorted keys and a fixed separator convention.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from operator import itemgetter


def render_rational(x) -> str:
    if x is None:
        return ""
    x = Fraction(x)
    return str(x)  # Fraction renders as p/q in lowest terms, or a bare int


def render_weight(mu) -> str:
    if isinstance(mu, tuple):
        return "(" + ",".join(str(x) for x in mu) + ")"
    return str(mu)


def multiplicity_rows(s, items):
    """(k, mu, dim) rows in lexicographic (k, weight) order.

    The weights of one scenario are all ints or all tuples, so the natural
    order of the ((k, mu), dim) items is that order; `s` is not consulted.
    Each distinct weight is rendered once.
    """
    items = sorted(items)
    names = {mu: render_weight(mu) for mu in {mu for (_, mu), _ in items}}
    return [{"k": k, "mu": names[mu], "dim": dim} for (k, mu), dim in items]


def volume_rows(pairs):
    """Rows from (mu, VolumeEstimate) pairs in weight order; header
    mu,value,status,residue,period."""
    out = []
    for mu, est in sorted(pairs, key=lambda p: p[0]):
        fit = est.fit
        out.append(
            {
                "mu": render_weight(mu),
                "value": render_rational(est.value),
                "status": est.status,
                "residue": "" if fit is None else fit.residue,
                "period": "" if fit is None else fit.period,
            }
        )
    return out


def to_csv(rows, fieldnames=None) -> str:
    """A header line, then each row's values in `fieldnames` order (default:
    the first row's keys), written in one call; every row has every field."""
    buf = io.StringIO()
    if fieldnames is None:
        fieldnames = list(rows[0]) if rows else []
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    # itemgetter of one key returns a bare value, not a sequence
    values = itemgetter(*fieldnames) if len(fieldnames) > 1 else lambda row: [row[f] for f in fieldnames]
    writer.writerows(map(values, rows))
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
