"""Resolution map of the index pipeline on the Blaschke powers b_a^w.

b_a(xi) = (2 pi i xi - a)/(2 pi i xi + a) winds once; the kernel of b_a^w,
w > 0, is, in closed form,

    sum_{j=1..w} C(w, j) (-2a)^j x^(j-1) e^(-ax) / (j-1)!   on x > 0,

with the midpoint value -w a at x = 0, and its mirror x -> -x for w < 0.
Its sections are triangular, and the finite-section index should be -w.

For w in +-1..+-8, a in {0.5, 1, 1.5, 2}, h in {0.1, 0.05} and the
truncations (256, 512) and (512, 1024), each case runs what index1d runs
(make_symbol, then classical_index) on the window T = max(52, 2N h), the
packaged 52 unless the larger truncation needs more, and falls in one of
three classes:

    agrees     the report's numerical index and index both equal -w;
    error      a typed domain error, named by its category;
    disagrees  a report whose numerical index or winding is not -w or w,
               with no error; its detail names the near-null count of
               each truncation (report.sections), so that a count that
               saturates at both reads as one.

For each case that does not agree, the scan then doubles the truncations,
(N, 2N) with N = 512, 1024, 2048 above its own, on the window grown to fit
them, and records the least such N at which the case agrees, or None up
to (2048, 4096).  The scan has no random input: two runs print the same
map.

Run by hand, from the repository root:

    PYTHONPATH=src python tools/index_map.py [--json map.json]

It prints one line per case and a summary per (h, truncations).  On a
2-core Xeon it takes a few minutes, most of it in the doubled truncations.
"""

import argparse
import json
import sys
from collections import Counter
from functools import cache
from math import comb, factorial

import numpy as np

from conewh.errors import DomainError
from conewh.wiener_hopf import classical_index, make_symbol

WINDINGS = [w for n in range(1, 9) for w in (n, -n)]
SCALES = (0.5, 1.0, 1.5, 2.0)
STEPS = (0.1, 0.05)
LADDER = (256, 512, 1024, 2048)     # the smaller truncation N of each pair (N, 2N)
TRUNCATIONS = LADDER[:2]            # the pairs of the map itself


def blaschke_kernel(a, w):
    """The kernel of b_a^w in closed form (mirrored for w < 0)."""
    n = abs(w)

    def f(x):
        t = np.maximum(x if w > 0 else -x, 0.0)
        poly = sum(comb(n, j) * (-2 * a) ** j * t ** (j - 1) / factorial(j - 1)
                   for j in range(1, n + 1))
        return np.where(t > 0, poly * np.exp(-a * t), np.where(x == 0, -n * a, 0.0))
    return f


@cache
def classify(w, a, h, N):
    """("agrees" | "error" | "disagrees", detail) of one case at (N, 2N)."""
    T = max(52.0, 2 * N * h)
    try:
        report = classical_index(make_symbol(blaschke_kernel(a, w), 1, h, T),
                                 truncations=(N, 2 * N))
    except DomainError as exc:
        return "error", exc.category
    if report.numerical_index == report.index == -w:
        return "agrees", ""
    counts = ", ".join(f"{s.count} at N = {M}" for M, s in report.sections.items())
    return "disagrees", (f"numerical index {report.numerical_index}, winding {report.winding}, "
                         f"near-null count {counts}, verdict {report.verdict}")


def least_agreeing(w, a, h, N):
    """The least N' > N of LADDER at which (N', 2N') agrees, else None."""
    return next((M for M in LADDER if M > N and classify(w, a, h, M)[0] == "agrees"), None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", help="write every case to this file as well")
    args = parser.parse_args(argv)
    cases = []
    for h in STEPS:
        for N in TRUNCATIONS:
            for a in SCALES:
                for w in WINDINGS:
                    kind, detail = classify(w, a, h, N)
                    case = {"h": h, "N": [N, 2 * N], "a": a, "w": w, "class": kind,
                            "detail": detail}
                    if kind != "agrees":
                        case["agrees_from_N"] = least_agreeing(w, a, h, N)
                    cases.append(case)
                    print(json.dumps(case), flush=True)
    print()
    for h in STEPS:
        for N in TRUNCATIONS:
            rows = [c for c in cases if c["h"] == h and c["N"][0] == N]
            tally = Counter(c["class"] if c["class"] != "error" else f"error [{c['detail']}]"
                            for c in rows)
            later = Counter(c["agrees_from_N"] for c in rows if c["class"] != "agrees")
            print(f"h = {h}, N = ({N}, {2 * N}): "
                  + ", ".join(f"{key} {n}" for key, n in sorted(tally.items()))
                  + "; the rest agree from N = "
                  + ", ".join(f"{key}: {n}" for key, n in
                              sorted(later.items(), key=lambda kv: (kv[0] is None, kv[0] or 0))))
    if args.json:
        with open(args.json, "w") as out:
            json.dump(cases, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
