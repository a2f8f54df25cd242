"""Shows that every workload's checks reject a wrong answer.

    python3 perfbench/selftest.py

Each case runs a few operations of one workload, confirms the checks pass
on the true outputs, then corrupts one output (a perturbed weight
distribution, a dropped CSV row, a failed suite record) or the volumes the
checks compute (off by a factor of 2), and confirms the checks name that
operation.  Takes about a second.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

from round import import_equivol

import_equivol()
import workloads  # noqa: E402

SEED = 1


def outputs_of(workload):
    return [op() for _, op in workload.operations()]


def expect_rejected(name, workload, outputs, corrupt, index) -> bool:
    clean = workload.check(outputs)
    if any(clean):
        print(f"FAIL {name}: checks reject the true outputs: {[v for v in clean if v]}")
        return False
    bad = list(outputs)
    bad[index] = corrupt(copy.deepcopy(outputs[index]))
    verdict = workload.check(bad)[index]
    if verdict is None:
        print(f"FAIL {name}: checks accepted the corrupted output")
        return False
    print(f"ok   {name}: rejected with: {verdict}")
    return True


def table_sweep_cases() -> bool:
    w = workloads.TableSweep(SEED)
    w.parsed = w.parsed[:3]
    outs = outputs_of(w)

    def perturb(text):
        lines = text.splitlines()
        k, mu, dim = lines[len(lines) // 2].rsplit(",", 2)
        lines[len(lines) // 2] = f"{k},{mu},{int(dim) + 1}"
        return "\n".join(lines) + "\n"

    def drop_row(text):
        lines = text.splitlines()
        del lines[len(lines) // 2]
        return "\n".join(lines) + "\n"

    return all([expect_rejected("table_sweep: perturbed weight distribution", w, outs, perturb, 2),
                expect_rejected("table_sweep: dropped CSV row", w, outs, drop_row, 2)])


def verify_corpus_cases() -> bool:
    w = workloads.VerifyCorpus(SEED)
    w.corpus = [pair for pair in w.corpus if pair[0] == "p2_circle"]
    outs = outputs_of(w)

    def fail_record(report):
        report.records[0].passed = False
        return report

    index = [label for label, _ in w.operations()].index("homogeneity:p2_circle")
    if not expect_rejected("verify_corpus: a failed suite record", w, outs, fail_record, index):
        return False

    # the closed forms are checked against volumes computed in check()
    true_volume = workloads.volumes.equivariant_volume

    def doubled(s, mu):
        est = true_volume(s, mu)
        return dataclasses.replace(est, value=2 * est.value)

    workloads.volumes.equivariant_volume = doubled
    try:
        verdict = w.check(outs)[index]
    finally:
        workloads.volumes.equivariant_volume = true_volume
    if verdict is None:
        print("FAIL verify_corpus: checks accepted a volume off by a factor of 2")
        return False
    print(f"ok   verify_corpus: volume off by a factor of 2 rejected with: {verdict}")
    return True


def main() -> int:
    results = [case() for case in (table_sweep_cases, verify_corpus_cases)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
