"""Operations of every workload, and the checks on their outputs.

A workload is built from its documents (see documents.py) in the set-up
phase; `operations` lists (label, thunk) pairs that each call equivol's
public API the way one command-line request would, and `check` judges the
outputs afterwards, apart from the timed region.  `check` returns, for
every operation, None when all its checks pass or the reason it failed.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import documents
import reference
from equivol import counting, model, suites, tables, volumes

TABLE_HEADER = ["k", "mu", "dim"]

# vol_mu on the shipped documents, in closed form (mu as an int)
CLOSED_FORMS = {
    "p1_hyperplane": lambda mu: Fraction(1),
    "p2_circle": lambda mu: Fraction(1, 2),
    "p3_balanced": lambda mu: Fraction(1, 2),
    "p2_skew": lambda mu: Fraction(1, 6),
    "su2_p3": lambda mu: Fraction((mu + 1) ** 2),
    "su2_p5": lambda mu: Fraction((mu + 1) ** 2, 4),
    "p3_last_coordinate": lambda mu: Fraction(1 if mu >= 0 else 0),
    "p1_unstable": lambda mu: Fraction(0),
    "p2_trivial": lambda mu: None if mu == 0 else Fraction(0),  # None: infinite
}


def default_mus(doc: dict) -> list:
    """The command line's default mu range for a document."""
    if doc["group"] == "su2":
        return list(range(0, 7))
    if doc["g"] == 1:
        return list(range(-6, 7))
    return [(a, b) for a in range(-2, 3) for b in range(-2, 3)]


def _vec(mu) -> tuple:
    return mu if isinstance(mu, tuple) else (mu,)


def _parse_weight(text: str) -> tuple:
    return tuple(int(x) for x in text.strip("()").split(","))


class Raised:
    """Output of an operation that raised; always a failed operation."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Raised({self.text})"


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.entries = documents.WORKLOADS[self.name](seed)

    def operations(self) -> list:
        raise NotImplementedError

    def check(self, outputs: list) -> list:
        raise NotImplementedError

    @staticmethod
    def fingerprint(output) -> str:
        """Canonical text of one output, compared between rounds."""
        return output if isinstance(output, str) else repr(output)


class VerifyCorpus(Workload):
    """The eight suites of `equivol verify` over the corpus plus extra
    documents; one operation is one suite on one document, and the
    continuity suite, which reads no document, is one operation."""

    name = "verify_corpus"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.corpus = [(e["name"], model.scenario_from_dict(e["scenario"])) for e in self.entries]

    def operations(self):
        ops = []
        for suite in suites.SUITE_NAMES:
            if suite == "continuity":
                ops.append((suite, lambda: suites.run_suite("continuity", self.corpus)))
                continue
            for label, s in self.corpus:
                ops.append((f"{suite}:{label}", lambda suite=suite, pair=(label, s): suites.run_suite(suite, [pair])))
        return ops

    @staticmethod
    def fingerprint(output) -> str:
        if isinstance(output, suites.SuiteReport):
            return json.dumps(output.to_dict(), sort_keys=True, default=str)
        return repr(output)

    def check(self, outputs):
        verdicts = []
        for out in outputs:
            if isinstance(out, Raised):
                verdicts.append(repr(out))
            elif not out.passed:
                bad = [r.claim for r in out.records if not r.passed]
                verdicts.append(f"{len(bad)} failed records, first: {bad[0]}")
            else:
                verdicts.append(None)
        # closed forms, charged to the homogeneity operation of the document
        labels = [label for label, _ in self.operations()]
        for e, (name, s) in zip(self.entries, self.corpus):
            form = CLOSED_FORMS.get(name)
            if form is None:
                continue
            for mu in default_mus(e["scenario"]):
                est = volumes.equivariant_volume(s, mu)
                want = form(mu)
                ok = est.status == "infinite" if want is None else (est.finite and est.value == want)
                if not ok:
                    i = labels.index(f"homogeneity:{name}")
                    verdicts[i] = verdicts[i] or f"vol_{mu} = {est.value} [{est.status}], closed form {want}"
        return verdicts


class TableSweep(Workload):
    """`equivol table`: isotypic_table(s, k_max), then multiplicity_rows and
    CSV.  One operation is one document."""

    name = "table_sweep"
    ORACLE_LEVELS = 3
    SPOT_LEVEL = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        self.parsed = [(e, model.scenario_from_dict(e["scenario"])) for e in self.entries]

    def operations(self):
        def op(s, k_max):
            table = counting.isotypic_table(s, k_max)
            return tables.to_csv(tables.multiplicity_rows(s, table.sorted_items()), TABLE_HEADER)
        return [(e["name"], lambda s=s, k=e["k_max"]: op(s, k)) for e, s in self.parsed]

    def check(self, outputs):
        return [self._check_one(e, s, out) for (e, s), out in zip(self.parsed, outputs)]

    def _check_one(self, e, s, text):
        if isinstance(text, Raised):
            return repr(text)
        doc, k_max = e["scenario"], e["k_max"]
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != TABLE_HEADER:
            return f"header {rows[0]}"
        parsed = [(int(k), _parse_weight(mu), int(dim)) for k, mu, dim in rows[1:]]
        keys = [(k, w) for k, w, _ in parsed]
        if keys != sorted(set(keys)):
            return "rows not in strictly increasing (k, weight) order"
        levels: dict = {}
        for k, w, dim in parsed:
            if dim <= 0:
                return f"nonpositive dimension at k={k}, mu={w}"
            levels.setdefault(k, {})[w] = dim
        for k in range(k_max + 1):
            total = sum(levels.get(k, {}).values())
            if total != reference.total_dimension(doc, k):
                return f"level {k} sums to {total}, expected {reference.total_dimension(doc, k)}"
        for k in range(min(k_max, self.ORACLE_LEVELS) + 1):
            oracle = counting.brute_force_oracle(s, k)
            want = {_vec(mu): n * (mu + 1 if doc["group"] == "su2" else 1) for mu, n in oracle.items()}
            if levels.get(k, {}) != want:
                return f"level {k} differs from brute_force_oracle"
        k = min(k_max, self.SPOT_LEVEL)
        if levels.get(k, {}) != reference.isotypic_dimensions(doc, k):
            return f"level {k} differs from the reference enumeration"
        return None


WORKLOADS = {w.name: w for w in (VerifyCorpus, TableSweep)}
