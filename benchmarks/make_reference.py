"""Record the outputs of the default seed that every benchmark run compares.

    PYTHONPATH=src python3 benchmarks/make_reference.py

Writes reference/suite_seed7.csv (the default suite at seed 7, one row
per check: descriptor, verdict, lhs, rhs) and reference/measures_seed7.json
(pure_kme and density_neg outputs of their first pass at the default
seed).  Rerun it only for a change that is meant to alter those outputs,
and say so in CHANGES.md.
"""
import json
import os

import workloads


def main() -> None:
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    suite = workloads.VerifySuite()
    workloads.write_suite_reference([suite.run(op) for op in suite.reference_ops()])
    measured = {}
    for wl in (workloads.PureKme(), workloads.DensityNeg()):
        measured[wl.name] = [wl.reference_entry(wl.run(op)) for op in wl.reference_ops()]
    with open(workloads.MEASURE_REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]"
            for name, entries in measured.items()
        ) + "\n}\n")


if __name__ == "__main__":
    main()
