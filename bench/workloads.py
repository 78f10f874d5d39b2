"""Seeded workloads for the polydc benchmark.

A workload is a list of ops.  An op is what one CLI invocation asks of the
library: one or more calls into the package's public functions (the calls the
CLI handler for that subcommand makes), plus how to check the result.

Every op's top-level calls may carry `below`: the lower-layer calls that the
call repeats internally.  A traced run makes those first, bottom up, each in
its own span, so that a layer's self time is its span minus its children's.

Inputs come only from the seed.  Where a result is checked against a recorded
digest (`references.json`), the seed picks among a fixed pool of candidate
inputs, so that every input a seed can produce has a reference.
"""

import hashlib
import random
from fractions import Fraction
from math import gcd
from typing import Any, Callable, NamedTuple

from polydc import dc_sums, exact_algebra, identity_suite, sequences

WORKLOADS = ("recip-sweep", "seq-build", "big-sums", "catalogue")


class Call(NamedTuple):
    """One call into a layer (a polydc module) by the benchmark's client."""

    layer: str
    name: str
    fn: Callable[[], Any]
    below: tuple = ()


class Op(NamedTuple):
    """One client operation.

    check is "digest" (result's canonical strings must match the recorded
    digest under `key`), "holds" (an identity's two sides agree) or "sweep"
    (no failing point, and the admissible-point count recorded under `key`).
    """

    key: str
    check: str
    steps: tuple


def canonical(value) -> str:
    """Canonical rational strings of a result, nested sequences joined."""
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    return str(Fraction(value))


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:20]


def check_result(op: Op, result, refs: dict) -> bool:
    """True when the op's result is correct.  Never mutates the result."""
    if op.check == "holds":
        return result.holds is True
    if op.check == "sweep":
        return result.failed == 0 and result.total == refs.get(op.key)
    return refs.get(op.key) == digest(result)


def run_op(op: Op):
    """Make the op's calls in order; the result of a one-call op is that call's."""
    results = tuple(step.fn() for step in op.steps)
    return results[0] if len(results) == 1 else results


# ---------------------------------------------------------------------------
# recip-sweep: thm14 over a 6 x 6 x 5 x 5 grid shaped like the acceptance one
# ---------------------------------------------------------------------------

ODD_TO_11 = (1, 3, 5, 7, 9, 11)


def recip_grid(seed: int) -> dict:
    """k: 6 consecutive values; p: 1..6; h, m: five odd values <= 11 each.

    h drops one of 3, 5, 7, 9 and m drops its mirror 12 - that value, and
    the k window always holds k = 1 (whose sums are cheap), so the cost of
    the grid stays within about 2% across seeds.
    """
    rng = random.Random(f"recip-sweep/{seed}")
    k0 = rng.choice((-3, -2, -1))
    dropped = rng.choice((3, 5, 7, 9))
    return {
        "k": list(range(k0, k0 + 6)),
        "p": list(range(1, 7)),
        "h": [v for v in ODD_TO_11 if v != dropped],
        "m": [v for v in ODD_TO_11 if v != 12 - dropped],
    }


def _thm14_point(k: int, p: int, h: int, m: int) -> Call:
    """verify("thm14", ...), which repeats reciprocity_sides, which repeats
    two poly_dc_sum calls over poly_euler_poly(k, p)."""
    return Call(
        "identity_suite",
        "verify",
        lambda: identity_suite.verify("thm14", {"k": k, "p": p, "h": h, "m": m}),
        (_reciprocity(k, p, h, m),),
    )


def _reciprocity(k: int, p: int, h: int, m: int) -> Call:
    pep = Call("sequences", "poly_euler_poly", lambda: sequences.poly_euler_poly(k, p))
    return Call(
        "dc_sums",
        "reciprocity_sides",
        lambda: dc_sums.reciprocity_sides(k, p, h, m),
        (
            Call("dc_sums", "poly_dc_sum", lambda: dc_sums.poly_dc_sum(k, p, h, m), (pep,)),
            Call("dc_sums", "poly_dc_sum", lambda: dc_sums.poly_dc_sum(k, p, m, h)),
        ),
    )


def recip_sweep(seed: int) -> list[Op]:
    grid = recip_grid(seed)
    points = [
        (k, p, h, m) for k in grid["k"] for p in grid["p"] for h in grid["h"] for m in grid["m"]
    ]
    random.Random(f"recip-sweep/order/{seed}").shuffle(points)
    return [
        Op(f"verify thm14 k={k} p={p} h={h} m={m}", "holds", (_thm14_point(k, p, h, m),))
        for k, p, h, m in points
    ]


# ---------------------------------------------------------------------------
# seq-build: table construction
# ---------------------------------------------------------------------------

ROW_N = 200
POLY_N = 48
EVAL_N = 40
SEQ_KS = (-4, -2, 0, 1, 3, 5)
X_CHOICES = 4


def _stirling_table(max_n: int) -> list[int]:
    """What `polydc table stirling1 max_n=N` asks of the library."""
    return [sequences.stirling1(n, m) for n in range(max_n + 1) for m in range(n + 1)]


def _row_ops() -> list[Op]:
    return [
        Op(f"table euler {ROW_N}", "digest",
           (Call("sequences", "euler_numbers", lambda: sequences.euler_numbers(ROW_N)),)),
        Op(f"table genocchi {ROW_N}", "digest",
           (Call("sequences", "genocchi_numbers", lambda: sequences.genocchi_numbers(ROW_N)),)),
        Op(f"table stirling1 {ROW_N}", "digest",
           (Call("sequences", "stirling1", lambda: _stirling_table(ROW_N)),)),
    ]


def _table_ops(k: int) -> list[Op]:
    """Both poly tables at N = 48.

    The poly-Euler table comes first: it needs G_49^(k), so the poly-Genocchi
    table after it is served from the same fill (order 49), as it would be
    in a fresh CLI process.
    """
    fill = Call(
        "sequences", "poly_genocchi_numbers",
        lambda: sequences.poly_genocchi_numbers(k, POLY_N + 1),
    )
    return [
        Op(f"table poly-euler k={k} {POLY_N}", "digest",
           (Call("sequences", "poly_euler_numbers",
                 lambda: sequences.poly_euler_numbers(k, POLY_N), (fill,)),)),
        Op(f"table poly-genocchi k={k} {POLY_N}", "digest",
           (Call("sequences", "poly_genocchi_numbers",
                 lambda: sequences.poly_genocchi_numbers(k, POLY_N)),)),
    ]


def _eval_op(k: int, n: int, choice: int) -> Op:
    """`polydc eval poly-euler-poly k=K n=N x=X`: the polynomial, then its value."""
    x = Fraction((-1) ** choice * (2 * n + 1 + 2 * (choice // 2)), 5)  # alike in size
    return Op(f"eval poly-euler-poly k={k} n={n} x={x}", "digest", (
        Call("sequences", "poly_euler_poly", lambda: sequences.poly_euler_poly(k, n)),
        Call("exact_algebra", "poly_eval",
             lambda: exact_algebra.poly_eval(sequences.poly_euler_poly(k, n), x)),
    ))


def seq_build_pool() -> list[Op]:
    """Every op a seed can draw (for recording references)."""
    return _row_ops() + [
        op
        for k in SEQ_KS
        for op in _table_ops(k)
        + [_eval_op(k, n, c) for n in range(EVAL_N + 1) for c in range(X_CHOICES)]
    ]


def seq_build(seed: int) -> list[Op]:
    """Rows at N = 200; then, for each k in seeded order, both poly tables
    and poly_euler_poly(k, n) evaluated at a seeded point for n = 0..40."""
    rng = random.Random(f"seq-build/{seed}")
    ks = list(SEQ_KS)
    rng.shuffle(ks)
    ops = _row_ops()
    for k in ks:
        ops += _table_ops(k)
        ops += [_eval_op(k, n, rng.randrange(X_CHOICES)) for n in range(EVAL_N + 1)]
    return ops


# ---------------------------------------------------------------------------
# big-sums: few large single points
# ---------------------------------------------------------------------------

SUM_SLOTS = 40  # per sum kind: poly_dc_sum and dc_sum
SUM_M = (301, 1001)
RECIP_SLOTS = 20
RECIP_P = 3
RECIP_K = (-2, -1, 0, 2, 3)
RECIP_H = (15, 17, 19, 21, 23, 25)  # m = 40 - h
CANDIDATES = 4


def _sum_candidates(kind: str, slot: int) -> list[tuple]:
    """Candidate (k, p, h, m) for one slot: k and p fixed by the slot, m in
    the slot's band of SUM_M, so every seed draws the same mix of sizes."""
    rng = random.Random(f"big-sums/pool/{kind}/{slot}")
    lo, hi = SUM_M
    band_lo = lo + (hi - lo) * slot // SUM_SLOTS
    band_hi = lo + (hi - lo) * (slot + 1) // SUM_SLOTS
    k = (-2, -1, 0, 1, 2, 3)[slot // 6 % 6] if kind == "poly_dc_sum" else 1
    p = 1 + slot % 6
    return [
        (k, p, rng.randrange(1, 16, 2), rng.randrange(band_lo, band_hi) | 1)
        for _ in range(CANDIDATES)
    ]


def _recip_candidates(slot: int) -> list[tuple]:
    """Candidate (k, p, h, m): k fixed by the slot, h + m = 40, h*m in 375..399."""
    rng = random.Random(f"big-sums/pool/reciprocity_sides/{slot}")
    k = RECIP_K[slot % len(RECIP_K)]
    return [(k, RECIP_P, h, 40 - h) for h in rng.sample(RECIP_H, CANDIDATES)]


def _sum_op(kind: str, k: int, p: int, h: int, m: int) -> Op:
    if kind == "poly_dc_sum":
        pep = Call("sequences", "poly_euler_poly", lambda: sequences.poly_euler_poly(k, p))
        call = Call("dc_sums", kind, lambda: dc_sums.poly_dc_sum(k, p, h, m), (pep,))
        return Op(f"dcsum k={k} p={p} h={h} m={m}", "digest", (call,))
    ep = Call("sequences", "euler_poly", lambda: sequences.euler_poly(p))
    call = Call("dc_sums", kind, lambda: dc_sums.dc_sum(p, h, m), (ep,))
    return Op(f"dcsum p={p} h={h} m={m}", "digest", (call,))


def big_sums_pool() -> list[Op]:
    """Every sum op a seed can draw (for recording references)."""
    return [
        _sum_op(kind, *point)
        for kind in ("poly_dc_sum", "dc_sum")
        for slot in range(SUM_SLOTS)
        for point in _sum_candidates(kind, slot)
    ]


def big_sums(seed: int) -> list[Op]:
    rng = random.Random(f"big-sums/{seed}")
    ops = [
        _sum_op(kind, *rng.choice(_sum_candidates(kind, slot)))
        for kind in ("poly_dc_sum", "dc_sum")
        for slot in range(SUM_SLOTS)
    ]
    for slot in range(RECIP_SLOTS):
        k, p, h, m = rng.choice(_recip_candidates(slot))
        ops.append(Op(f"reciprocity_sides k={k} p={p} h={h} m={m}", "holds",
                      (_reciprocity(k, p, h, m),)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# catalogue: oracle_equivalence plus the catalogue grids, one sweep per row
# ---------------------------------------------------------------------------

CATALOGUE_GRIDS = (
    ("oracle_equivalence", {"k": range(-2, 4), "n": range(0, 13), "m": [1, 3, 5]}),
    ("eq4", {"n": range(1, 11), "l": range(0, 9)}),
    ("eq18", {"n": range(0, 11), "m": [1, 3, 5, 7]}),
    ("thm1", {"n": range(1, 13), "k": range(-2, 4)}),
    ("cor2", {"n": range(1, 13), "k": range(-2, 4)}),
    ("thm3", {"k": range(-2, 4), "n": range(0, 13)}),
    ("thm4", {"x": range(1, 7), "n": range(1, 11), "k": range(-2, 4)}),
    ("cor5", {"x": range(1, 7), "n": range(1, 11), "k": range(-2, 4)}),
    ("thm6", {"k": range(-2, 4), "n": range(0, 11), "m": [1, 3, 5]}),
    ("cor7", {"k": range(-2, 4), "n": range(0, 11), "m": [1, 3, 5]}),
    ("lemma8", {"k": range(-2, 4), "p": range(1, 11), "s": range(1, 11)}),
    ("lemma9", {"k": range(-2, 4), "p": range(1, 11)}),
    ("eq40", {"k": range(-3, 5)}),
    ("thm10", {"k": range(-2, 4), "p": [1, 3, 5, 7, 9], "m": [1, 3, 5, 7, 9]}),
    ("thm11", {"k": range(-2, 4), "p": [3, 5, 7, 9], "m": [1, 3, 5, 7, 9]}),
    ("thm12", {"k": range(-2, 4), "p": [3, 5, 7, 9], "m": [1, 3, 5, 7, 9]}),
    ("thm13", {"k": range(-2, 4), "p": range(1, 7), "h": range(1, 10), "m": range(1, 10)}),
)

def _seq(name: str, *args) -> Call:
    return Call("sequences", name, lambda: getattr(sequences, name)(*args))


def _dcs(name: str, *args) -> Call:
    return Call("dc_sums", name, lambda: getattr(dc_sums, name)(*args))


#: For each catalogue verifier, the lower-layer calls its compute function
#: makes at one admissible point (traced runs replay them before the sweep).
_BELOW = {
    "oracle_equivalence": lambda q: [
        _seq("poly_euler_poly", q["k"], q["n"]),
        _seq("poly_euler_via_theorem3", q["k"], q["n"]),
        _seq("poly_euler_via_corollary7", q["k"], q["n"], q["m"]),
    ],
    "eq4": lambda q: [_seq("euler_poly", q["l"]), _seq("euler_numbers", q["l"])],
    "eq18": lambda q: [_seq("euler_poly", q["n"])],
    "thm1": lambda q: [
        _seq("stirling1_row", q["n"]),
        _seq("poly_genocchi_poly", q["k"], q["n"]),
        _seq("poly_genocchi_numbers", q["k"], q["n"]),
    ],
    "cor2": lambda q: [
        _seq("stirling1_row", q["n"]),
        _seq("poly_euler_poly", q["k"], q["n"] - 1),
        _seq("poly_euler_numbers", q["k"], q["n"] - 1),
    ],
    "thm3": lambda q: [
        _seq("poly_euler_poly", q["k"], q["n"]),
        _seq("poly_euler_via_theorem3", q["k"], q["n"]),
    ],
    "thm4": lambda q: [
        _seq("poly_genocchi_poly", q["k"], q["n"]),
        _seq("poly_genocchi_numbers", q["k"], q["n"]),
    ],
    "cor5": lambda q: [
        _seq("poly_euler_poly", q["k"], q["n"] - 1),
        _seq("poly_euler_numbers", q["k"], q["n"] - 1),
    ],
    "thm6": lambda q: [_seq("poly_genocchi_poly", q["k"], q["n"])]
    + [_seq("genocchi_poly", l) for l in range(q["n"] + 1)],
    "cor7": lambda q: [
        _seq("poly_euler_poly", q["k"], q["n"]),
        _seq("poly_euler_via_corollary7", q["k"], q["n"], q["m"]),
    ],
    "lemma8": lambda q: [
        _seq("poly_euler_numbers", q["k"], q["p"]),
        _seq("poly_euler_poly", q["k"], q["p"] - q["s"]),
        _seq("poly_euler_poly", q["k"], q["p"] - q["s"] + 1),
    ],
    "lemma9": lambda q: [
        _seq("poly_euler_poly", q["k"], q["p"] + 1),
        _seq("poly_euler_poly", q["k"], q["p"] + 2),
        _seq("poly_euler_numbers", q["k"], q["p"] + 2),
    ],
    "eq40": lambda q: [_seq("poly_euler_poly", q["k"], 1), _seq("poly_euler_numbers", q["k"], 1)],
    "thm10": lambda q: [_dcs("s_pk_of_1_m", q["k"], q["p"], q["m"])],
    "thm11": lambda q: [_dcs("theorem11_sides", q["k"], q["p"], q["m"])],
    "thm12": lambda q: [_dcs("theorem12_sides", q["k"], q["p"], q["m"])],
    "thm13": lambda q: [_dcs("theorem13_sides", q["k"], q["p"], q["h"], q["m"])],
}

#: Hypotheses the catalogue grids violate at some points; the sweep filters
#: those points out, and so does the traced replay.
_ADMISSIBLE = {
    "lemma8": lambda q: 1 <= q["s"] < q["p"],
    "thm13": lambda q: q["m"] % 2 == 1 and gcd(q["h"], q["m"]) == 1,
}


def _row_points(names: tuple, row: dict) -> list[dict]:
    points = [{}]
    for name in names:
        points = [dict(q, **{name: v}) for q in points for v in row[name]]
    return points


def catalogue_rows() -> list[tuple[str, dict]]:
    """Each grid as sweeps along its last parameter, one per point of the others.

    Rows with no admissible point are left out: sweep rejects them.
    """
    rows = []
    for vid, grid in CATALOGUE_GRIDS:
        *fixed, last = grid
        admissible = _ADMISSIBLE.get(vid, lambda q: True)
        for q in _row_points(tuple(fixed), grid):
            row = {name: [q[name]] for name in fixed}
            row[last] = list(grid[last])
            if any(admissible(point) for point in _row_points(tuple(row), row)):
                rows.append((vid, row))
    return rows


def _row_label(vid: str, row: dict) -> str:
    return f"sweep {vid} " + " ".join(
        f"{name}={','.join(map(str, values))}" for name, values in row.items()
    )


def _sweep_op(vid: str, row: dict) -> Op:
    admissible = _ADMISSIBLE.get(vid, lambda q: True)
    below = tuple(
        call
        for q in _row_points(tuple(row), row)
        if admissible(q)
        for call in _BELOW[vid](q)
    )
    call = Call("identity_suite", "sweep", lambda: identity_suite.sweep(vid, row), below)
    return Op(_row_label(vid, row), "sweep", (call,))


def catalogue_pool() -> list[Op]:
    return [_sweep_op(vid, row) for vid, row in catalogue_rows()]


def catalogue(seed: int) -> list[Op]:
    ops = catalogue_pool()
    random.Random(f"catalogue/{seed}").shuffle(ops)
    return ops


GENERATORS = {
    "recip-sweep": recip_sweep,
    "seq-build": seq_build,
    "big-sums": big_sums,
    "catalogue": catalogue,
}


def build(workload: str, seed: int) -> list[Op]:
    return GENERATORS[workload](seed)
