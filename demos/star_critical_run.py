"""Star-critical search walkthrough.

The star-critical value for a pair (G, H) with Ramsey number r asks
how many spokes a fresh vertex attached to K_{r-1} needs before every
coloring of the combined host forces a red G or blue H.  The search
enumerates every free coloring of K_{r-1} up to isomorphism and, for
each, finds the largest spoke set that still extends freely.
"""

from fanram import star_critical, star_lower_bound, complete, generalized_fan

res = star_critical("K3", "K3", 6)
print(f"star-critical value for (K3, K3) at r=6: {res.value}")
print(f"search visited {res.stats.nodes} nodes")

# witness: a free coloring of K5 plus a vertex joined to value-1 spokes
w = res.witness
print(f"witness host order {w.host.order}, new vertex degree {w.host.degree(w.host.order - 1)}")

# degree-based lower bound for triangle versus fan hosts
for n in (4, 6, 8):
    b = star_lower_bound(complete(3), generalized_fan(3, n))
    print(f"(K3, F:3,{n}): star lower bound {b.value}")
