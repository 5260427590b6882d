"""Spot-check the clique packing property on random graphs.

Claim under test: a graph of order t*n with minimum degree at least
(t-1)*n contains n pairwise vertex-disjoint copies of K_t.  The
checker samples random graphs meeting the degree floor and looks for
a counterexample.
"""

from fanram import packing_property_check

for t, n in [(2, 4), (2, 5), (3, 3), (3, 4)]:
    report = packing_property_check(t, n, trials=100, seed=7)
    verdict = "ok" if report.ok else f"FAILED on {len(report.failures)} graphs"
    print(
        f"t={t} n={n}: order {t * n}, degree floor {report.min_degree_floor}, "
        f"{report.trials} trials, {verdict}"
    )
