"""Scenario documents of every workload, made from the seed.

Run as a script to print them, one JSON object a line, or to write each
one as a scenario file that the equivol command line can replay:

    python3 perfbench/documents.py --workload table_sweep --seed 1
    python3 perfbench/documents.py --workload table_sweep --seed 1 --out perfbench/out/docs

Only the standard library is used here, so documents can be printed
without importing equivol.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from math import comb
from pathlib import Path

from reference import factor_coordinates

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS_DIR = ROOT / "src" / "equivol" / "scenarios"

CORPUS_NAMES = (
    "p1_hyperplane", "p1_square", "p2_circle", "p3_semistable", "p3_last_coordinate",
    "p1_unstable", "p2_trivial", "p3_balanced", "p2_skew", "p1p1_diag",
    "p2p1_product", "su2_p3", "su2_p1", "su2_p5",
)
VERIFY_EXTRAS = ("verify_p3_mixed", "verify_su2_p4")

# table_sweep: k_max is the largest level whose estimated cost, summed over
# levels 0..k_max, stays within TABLE_BUDGET_US.  The estimate counts the
# work of the weight DP, the product convolution and the emitted rows, with
# per-unit costs in microseconds measured on single documents with the
# current engine.  It keeps every request near the same cost, so the
# workload's total does not swing with the documents a seed draws.
TABLE_BUDGET_US = 50_000.0
TABLE_K_MIN, TABLE_K_MAX = 4, 60
COST_US = {
    "dp_cell": 0.05,     # rank-1 DP grid cell
    "dp_step": 0.5,      # one (degree, coordinate) step of any DP
    "dict_item": 1.2,    # rank-2 DP dictionary entry touched
    "conv_pair": 0.02,   # rank-1 convolution pair
    "conv_pair_nd": 2.0, # rank-2 convolution pair
    "row": 10.0,         # emitted table row, rank 1
    "row_nd": 12.0,      # emitted table row, rank 2
}


def _load(path: Path) -> dict:
    with path.open() as fh:
        return json.load(fh)


def _corpus() -> list[dict]:
    return [{"name": n, "scenario": _load(CORPUS_DIR / f"{n}.json")} for n in CORPUS_NAMES]


def verify_corpus(seed: int) -> list[dict]:
    """The corpus, then the extra documents with their coordinates (or SU(2)
    blocks) in a seed-drawn order; every count and volume is unchanged."""
    rng = random.Random(seed)
    extras = []
    for n in VERIFY_EXTRAS:
        doc = _load(HERE / "docs" / f"{n}.json")
        for f in doc["factors"]:
            rng.shuffle(f["sym_powers" if "sym_powers" in f else "weights"])
        extras.append({"name": n, "scenario": doc})
    return _corpus() + extras


def _circle(factors, degrees, twist) -> dict:
    g = len(twist)
    return {
        "group": "circle_power",
        "g": g,
        "factors": [{"dim": len(ws) - 1, "weights": ws} for ws in factors],
        "bundle": {"degrees": degrees, "twist": twist},
    }


def _su2(blocks, degree) -> dict:
    return {
        "group": "su2",
        "g": 3,
        "factors": [{"dim": sum(m + 1 for m in blocks) - 1, "sym_powers": blocks}],
        "bundle": {"degrees": [degree]},
    }


def table_cost_us(doc: dict, k: int) -> float:
    """Estimated microseconds for level k of isotypic_table and its rows."""
    cost, sizes, grids, box = 0.0, [], [], None
    for coords, d in zip(factor_coordinates(doc), doc["bundle"]["degrees"]):
        m, n, rank = k * d, len(coords), len(coords[0])
        lo = [min(w[i] for w in coords) for i in range(rank)]
        hi = [max(w[i] for w in coords) for i in range(rank)]
        spans = [m * (h - l) for h, l in zip(hi, lo)]
        box = spans if box is None else [b + s for b, s in zip(box, spans)]
        cost += COST_US["dp_step"] * (m + 1) * n
        if rank == 1:
            grid = m * (max(hi[0], 0) - min(lo[0], 0)) + 1
            cost += COST_US["dp_cell"] * (m + 1) * grid * n
            sizes.append(spans[0] + 1)
            grids.append(grid)
            continue

        def reach(deg):
            pts = 1
            for h, l in zip(hi, lo):
                pts *= deg * (h - l) + 1
            return min(comb(deg + n - 1, n - 1), pts)

        cost += COST_US["dict_item"] * n * sum(reach(deg) for deg in range(m + 1))
        sizes.append(reach(m))
    rank = len(box)
    support = sizes[0]
    for i, size in enumerate(sizes[1:]):
        if rank == 1:
            cost += COST_US["conv_pair"] * support * grids[i + 1]
            support += size - 1
        else:
            cost += COST_US["conv_pair_nd"] * support * size
            support *= size
    rows = 1
    for b in box:
        rows *= b + 1
    rows = min(rows, support)
    if doc["group"] == "su2":
        rows = rows // 2 + 1
    return cost + COST_US["row" if rank == 1 else "row_nd"] * rows


def table_k_max(doc: dict) -> int:
    total, k = table_cost_us(doc, 0), 0
    while k < TABLE_K_MAX:
        total += table_cost_us(doc, k + 1)
        if total > TABLE_BUDGET_US and k >= TABLE_K_MIN:
            break
        k += 1
    return k


def table_sweep(seed: int, per_kind: int = 30) -> list[dict]:
    rng = random.Random(seed)
    docs = [e["scenario"] for e in _corpus()]
    for _ in range(per_kind):
        nf = rng.choice((2, 3))
        factors = [[rng.randint(-2, 2) for _ in range(rng.choice((1, 2)) + 1)] for _ in range(nf)]
        docs.append(_circle(factors, [rng.choice((1, 2)) for _ in range(nf)], [rng.randint(-2, 2)]))
    for _ in range(per_kind):
        blocks = [rng.randint(0, 4) for _ in range(rng.choice((1, 2, 3)))]
        if blocks == [0]:
            blocks = [rng.randint(1, 4)]
        docs.append(_su2(blocks, rng.choice((1, 2))))
    vecs = [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for _ in range(per_kind):
        factors = []
        for n in (1, 2):
            while True:
                ws = [rng.choice(vecs) for _ in range(n + 1)]
                # a factor whose coordinate weights all coincide is counted
                # wrongly by the rank-2 engine; see CHANGES.md
                if len({tuple(w) for w in ws}) > 1:
                    break
            factors.append(ws)
        docs.append(_circle(factors, [rng.choice((1, 2)), 1], [rng.randint(-1, 1), rng.randint(-1, 1)]))
    names = list(CORPUS_NAMES) + [f"table_{i:03d}" for i in range(len(docs) - len(CORPUS_NAMES))]
    return [{"name": n, "scenario": d, "k_max": table_k_max(d)} for n, d in zip(names, docs)]


WORKLOADS = {
    "verify_corpus": verify_corpus,
    "table_sweep": table_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", default=None, help="directory to write one scenario file per document")
    args = parser.parse_args(argv)
    entries = WORKLOADS[args.workload](args.seed)
    if args.out is None:
        for e in entries:
            print(json.dumps(e, sort_keys=True))
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for e in entries:
        path = out / f"{e['name']}.json"
        path.write_text(json.dumps(e["scenario"]) + "\n")
        if "k_max" in e:
            print(f"equivol table --scenario {path} --k-max {e['k_max']}")
        else:
            print(f"equivol verify --scenario {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
