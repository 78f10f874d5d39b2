"""Record the reference digests the benchmark checks results against.

    PYTHONPATH=src python3 bench/references.py

writes bench/references.json: for every value op any seed can draw, the
digest of its canonical rational strings, and for every catalogue sweep, its
admissible-point count.  Before writing, the values are cross-checked once
against independent routes the package ships:

- Euler numbers against the binomial recurrence;
- Genocchi numbers against G_n = n * E_(n-1);
- poly-Euler polynomials and both poly tables against the Stirling closed
  form (poly_euler_via_theorem3);
- each classical DC sum against the poly sum at k = 1;
- each Stirling row against sum |S_1(n, m)| = n!.

Run it again only when a change is meant to alter results.
"""

import json
import sys
from math import factorial
from pathlib import Path

from polydc import dc_sums, sequences

import workloads

REFERENCES = Path(__file__).resolve().parent / "references.json"


def _cross_check_rows() -> None:
    n = workloads.ROW_N
    euler = sequences.euler_numbers(n)
    if euler != sequences._euler_numbers_recurrence(n):
        raise SystemExit("euler_numbers disagrees with the recurrence")
    genocchi = sequences.genocchi_numbers(n)
    if genocchi[0] != 0 or any(genocchi[i] != i * euler[i - 1] for i in range(1, n + 1)):
        raise SystemExit("genocchi_numbers disagrees with G_n = n * E_(n-1)")
    for i in range(n + 1):
        if sum(abs(sequences.stirling1(i, m)) for m in range(i + 1)) != factorial(i):
            raise SystemExit(f"Stirling row {i} does not sum to {i}!")


def _cross_check_poly(k: int) -> None:
    n = workloads.POLY_N
    via3 = [sequences.poly_euler_via_theorem3(k, i) for i in range(n + 1)]
    if sequences.poly_euler_numbers(k, n) != [poly[0] for poly in via3]:
        raise SystemExit(f"poly_euler_numbers({k}) disagrees with theorem 3")
    genocchi = sequences.poly_genocchi_numbers(k, n)
    if genocchi[0] != 0 or any(genocchi[i + 1] != (i + 1) * via3[i][0] for i in range(n)):
        raise SystemExit(f"poly_genocchi_numbers({k}) disagrees with theorem 3")
    for i in range(workloads.EVAL_N + 1):
        if sequences.poly_euler_poly(k, i) != via3[i]:
            raise SystemExit(f"poly_euler_poly({k}, {i}) disagrees with theorem 3")


def _cross_check_sums() -> None:
    for slot in range(workloads.SUM_SLOTS):
        for _, p, h, m in workloads._sum_candidates("dc_sum", slot):
            if dc_sums.dc_sum(p, h, m) != dc_sums.poly_dc_sum(1, p, h, m):
                raise SystemExit(f"dc_sum({p}, {h}, {m}) disagrees with the poly sum at k = 1")


def record() -> dict:
    _cross_check_rows()
    for k in workloads.SEQ_KS:
        _cross_check_poly(k)
    _cross_check_sums()
    refs = {
        op.key: workloads.digest(workloads.run_op(op))
        for op in workloads.seq_build_pool() + workloads.big_sums_pool()
    }
    for op in workloads.catalogue_pool():
        result = workloads.run_op(op)
        if result.failed:
            raise SystemExit(f"{op.key}: {result.failed} failing points")
        refs[op.key] = result.total
    return refs


def main() -> int:
    refs = record()
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} references to {REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
