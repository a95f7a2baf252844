"""Self-test of the benchmark's answer checkers; runs in a few seconds.

    python3 perfbench/selftest.py

For each workload it takes one real answer from crsing, confirms that the
checker accepts it, and then confirms that the checker rejects a copy with
one deliberate fault:

- a kernel (CR basis) vector with one entry changed,
- a CR basis with one element dropped,
- an extension F with one term off,
- an ODE witness plus a constant,
- a recovered formal extension F differing from the planted one.

Exit code 0 when every checker behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402


def rejects(check, crs, inp, out):
    try:
        check(crs, inp, out)
    except wl.CheckFailed:
        return True
    return False


def first(gen, pred):
    for item in gen:
        if pred(item):
            return item
    raise RuntimeError("no generated input has the wanted property")


def bump(crs, poly, zbar=False):
    """The same polynomial with one coefficient increased by one: the first
    one, or with zbar=True the first one of a term that involves zbar (a
    holomorphic term alone would still be CR)."""
    terms = dict(poly.terms)
    mono = next(m for m in terms if not zbar or any(m.zb))
    terms[mono] = terms[mono] + 1
    return crs.Poly(poly.n, terms)


def has_zbar(poly):
    return any(any(m.zb) for m in poly.terms)


def case_basis(crs, rng):
    # a small grid point keeps the self-test fast
    inp = dict(first(wl.basis_generate(rng, 3), lambda i: i["n"] == 3), degree=3)
    out = wl.basis_run(crs, wl.basis_prepare(crs, inp))
    doc = json.loads(out[1])
    res = doc["result"]
    n = inp["n"]

    changed = copy.deepcopy(doc)
    polys = [crs.parse_poly(text, n) for text in res["basis"]]
    k = next(k for k, p in enumerate(polys) if has_zbar(p))
    changed["result"]["basis"][k] = crs.format_poly(bump(crs, polys[k], zbar=True))

    dropped = copy.deepcopy(doc)
    dropped["result"]["basis"].pop()
    dropped["result"]["dimension"] -= 1
    dropped["result"]["matrix_rank"] += 1  # keep rank + dimension = columns

    return [
        ("basis: real answer accepted", not rejects(wl.basis_check, crs, inp, out)),
        ("basis: kernel vector with one entry changed", rejects(wl.basis_check, crs, inp, (0, json.dumps(changed)))),
        ("basis: basis with one element dropped", rejects(wl.basis_check, crs, inp, (0, json.dumps(dropped)))),
    ]


def case_sweep(crs, rng):
    inputs = wl.sweep_generate(rng, 60)
    full = first(inputs, lambda i: wl.stacked_rank(i["A"], i["B"]) >= 2)
    one = first(inputs, lambda i: wl.stacked_rank(i["A"], i["B"]) == 1)
    results = []
    for inp, tag in ((full, "rank >= 2"), (one, "rank 1")):
        out = wl.sweep_run(crs, wl.sweep_prepare(crs, inp))
        results.append(("sweep %s: real answer accepted" % tag, not rejects(wl.sweep_check, crs, inp, out)))
    out = wl.sweep_run(crs, wl.sweep_prepare(crs, full))
    d, basis, extensions = out["degrees"][1]
    off = dict(out, degrees=[(d, basis, [bump(crs, extensions[0])] + extensions[1:])] + out["degrees"][2:])
    results.append(("sweep: extension F with one term off", rejects(wl.sweep_check, crs, full, off)))
    degrees = list(out["degrees"])
    d, basis, extensions = degrees[2]
    k = next(k for k, p in enumerate(basis) if has_zbar(p))
    degrees[2] = (d, basis[:k] + [bump(crs, basis[k], zbar=True)] + basis[k + 1 :], extensions)
    changed = dict(out, degrees=degrees)
    results.append(("sweep: kernel vector with one entry changed", rejects(wl.sweep_check, crs, full, changed)))
    return results


def case_formal(crs, rng):
    inp = min(wl.formal_generate(rng, 6), key=lambda i: len(i["f"]))
    out = wl.formal_run(crs, wl.formal_prepare(crs, inp))
    wrong = copy.copy(out)
    wrong.F = bump(crs, out.F)
    return [
        ("formal: real answer accepted", not rejects(wl.formal_check, crs, inp, out)),
        ("formal: recovered F differing from the planted one", rejects(wl.formal_check, crs, inp, wrong)),
    ]


def case_ode(crs, rng):
    inp = first(wl.ode_generate(rng, 60), lambda i: i["planted"] == "nonconstant_poly")
    decision, brute = wl.ode_run(crs, wl.ode_prepare(crs, inp))
    shifted = copy.copy(decision)
    shifted.witness = decision.witness + 1
    return [
        ("ode: real answer accepted", not rejects(wl.ode_check, crs, inp, (decision, brute))),
        ("ode: witness plus a constant", rejects(wl.ode_check, crs, inp, (shifted, brute))),
    ]


def main():
    crs = run.load_crsing()
    rng = random.Random(20190911)
    rows = []
    for case in (case_basis, case_sweep, case_formal, case_ode):
        rows += case(crs, rng)
    for label, ok in rows:
        print("%s  %s" % ("ok  " if ok else "FAIL", label))
    return 0 if all(ok for _, ok in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
