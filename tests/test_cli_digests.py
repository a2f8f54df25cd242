"""Byte-level CLI gate: the sha256 of every run's exit code, stdout and
stderr must equal the committed digest in ``cli_digests.json``.

The runs are in-process ``cli.main`` calls:

* on every corpus document, the same seven commands;
* on each document under ``tests/docs/``, its own run list in
  ``DOCUMENT_RUNS``, labelled by the file's stem: the degenerate rank-2
  moment images (a point, two segments off the origin and one through
  it); levels whose top total dimension needs 3, 5 and 9 bytes a count;
  the SU(2) products ``P(Sym^1) x P(Sym^2)`` and ``(P^1)^3``; a circle of
  rank 3; SU(2) ``P(Sym^5)``; and a rank-2 document past the weight DP
  budget.  Every document also runs ``verify``, whose bytes pin the
  first error each suite meets.  Runs
  that exit 2 (geometry out of scope, an engine limit) are gated too;
* ``verify --format json``, and ``verify`` in text with each benchmark
  document under ``perfbench/docs/``.

Runs whose output would embed a file path are left out (so the benchmark
documents run in text only), and the digests do not depend on where the
package lives.  A change that means to alter CLI bytes rewrites the file
with

    PYTHONPATH=src python tests/test_cli_digests.py

and says in its description which digests moved and why.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from equivol.cli import main
from equivol.corpus import CORPUS_NAMES, scenario_path

DIGESTS = Path(__file__).with_name("cli_digests.json")
DOCS = Path(__file__).with_name("docs")
BENCHMARK_DOCS = ("verify_p3_mixed", "verify_su2_p4")

PER_DOCUMENT = (
    "table --k-max 6",
    "multiplicity --k 7 --all-mu",
    "volume --mu-range=-6..6",
    "volume --mu-range=-6..6 --format json",
    "classify --mu-range=-4..4",
    "exponent",
    "predict",
)

DEGENERATE = ("classify --mu-range=-4..4", "volume --mu-range=-2..2", "verify")
SU2_PRODUCT = (
    "table --k-max 6",
    "multiplicity --k 7 --all-mu",
    "exponent",
    "classify",
    "volume --mu-range=0..2",
    "verify",
)


def _level_runs(k):
    """Every weight of level k, and the zero weight alone."""
    return (f"multiplicity --k {k} --all-mu", f"multiplicity --k {k} --mu 0")


DOCUMENT_RUNS = {
    "diagonal_segment": DEGENERATE,
    "point": DEGENERATE,
    "segment_through_zero": DEGENERATE,
    "vertical_segment": DEGENERATE,
    "width3_p5": (*_level_runs(30), "verify"),  # top total 324,632
    "width5_p11": (*_level_runs(40), "verify"),  # top total 47,626,016,970
    "width9_p25": (*_level_runs(60), "verify"),  # top total about 2.2e21
    "su2_sym1_x_sym2": SU2_PRODUCT,
    "su2_p1_cubed": SU2_PRODUCT,
    "circle_rank3_p4": ("table --k-max 4", "multiplicity --k 3 --all-mu", "exponent", "volume --mu=0,0,0", "verify"),
    "su2_sym5": ("volume --mu-range=0..2", "table --k-max 8", "verify"),
    "rank2_p1p2_engine_limit": ("volume --mu=-1,0", "verify"),
}


def runs():
    """(label, argv) for every gated run, in a fixed order."""
    gated = [(name, scenario_path(name), PER_DOCUMENT) for name in CORPUS_NAMES]
    gated += [(stem, DOCS / f"{stem}.json", flags) for stem, flags in DOCUMENT_RUNS.items()]
    for label, path, per_document in gated:
        for flags in per_document:
            command, *rest = flags.split()
            yield f"{label}: {flags}", [command, "--scenario", str(path), *rest]
    yield "verify --format json", ["verify", "--format", "json"]
    for stem in BENCHMARK_DOCS:
        path = Path(__file__).parents[1] / "perfbench" / "docs" / f"{stem}.json"
        yield f"verify --scenario perfbench/docs/{stem}.json", ["verify", "--scenario", str(path)]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def current_digests() -> dict:
    return {label: digest(argv) for label, argv in runs()}


def test_every_document_has_a_run_list():
    assert sorted(DOCUMENT_RUNS) == sorted(path.stem for path in DOCS.glob("*.json"))


def test_cli_bytes_match_committed_digests():
    want = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert list(got) == list(want)
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"CLI bytes changed: {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=1) + "\n")
