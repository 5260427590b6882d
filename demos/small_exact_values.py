"""
Exhaustive exact values at small parameters
===========================================

The search core enumerates two-colorings of complete graphs by edge
DFS with containment pruning, isomorph rejection and degree windows
from smaller Ramsey numbers it proves along the way.  For parameters
where a packaged construction exists, the search starts from that
construction's order instead of the bottom of the range, so the run
spends its time on the single order that needs refutation.
"""

import time

from fanram import closed_formula, ramsey_number

# the classic warm-up: every 2-coloring of K6 forces a monochromatic triangle
t0 = time.perf_counter()
res = ramsey_number("K3", "K3", lo=3, hi=8)
print(f"r(K3, K3) = {res.value}  [{res.status}, {res.stats.nodes} nodes, "
      f"{time.perf_counter() - t0:.2f}s]")

# matching versus fan, three instances; the closed formula agrees
for s, t, n in [(2, 2, 1), (3, 2, 1), (2, 2, 2)]:
    red, blue = f"M:{s}", f"F:{t},{n}"
    res = ramsey_number(red, blue, lo=2, hi=12)
    formula = closed_formula("lem2.7", {"s": s, "t": t, "n": n})
    mark = "==" if res.value == formula.value else "!="
    print(f"r({red}, {blue}) = {res.value} {mark} lem2.7 value {formula.value}")
    # the witness at value - 1 is a concrete free coloring
    w = res.witness
    print(f"   witness on {w.host.order} vertices, {w.red_graph().size()} red edges")
