"""Byte-level CLI gate: the sha256 of every run's exit code, stdout and
stderr must equal the committed digest in ``cli_digests.json``.

The runs are in-process ``cli.main`` calls on every corpus document; on
each degenerate rank-2 document under ``tests/docs/`` (a point, two
segments off the origin and one through it), ``classify`` and ``volume``,
labelled by the file's stem; plus ``verify --format json``.  Runs whose
output would embed a file path are left out, so the digests do not depend
on where the package lives.  A change that means to alter CLI bytes
rewrites the file with

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
DEGENERATE = sorted(Path(__file__).with_name("docs").glob("*.json"))

PER_DOCUMENT = (
    "table --k-max 6",
    "multiplicity --k 7 --all-mu",
    "volume --mu-range=-6..6",
    "volume --mu-range=-6..6 --format json",
    "classify --mu-range=-4..4",
    "exponent",
    "predict",
)

PER_DEGENERATE = (
    "classify --mu-range=-4..4",
    "volume --mu-range=-2..2",
)


def runs():
    """(label, argv) for every gated run, in a fixed order."""
    gated = [(name, scenario_path(name), PER_DOCUMENT) for name in CORPUS_NAMES]
    gated += [(path.stem, path, PER_DEGENERATE) for path in DEGENERATE]
    for label, path, per_document in gated:
        for flags in per_document:
            command, *rest = flags.split()
            yield f"{label}: {flags}", [command, "--scenario", str(path), *rest]
    yield "verify --format json", ["verify", "--format", "json"]


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def current_digests() -> dict:
    return {label: digest(argv) for label, argv in runs()}


def test_cli_bytes_match_committed_digests():
    want = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert list(got) == list(want)
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"CLI bytes changed: {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(current_digests(), indent=1) + "\n")
