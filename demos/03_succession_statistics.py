"""Succession statistics and their exact distributions.

A k-circular succession is an uncolored value k above its position; the
linear variants look at consecutive letters instead.  Brute-force counts of
"successions bounded by m" reproduce the g table for every k at once.
"""

from wreathperm import (
    bounded_matrix,
    build_table,
    circular_successions,
    distribution,
    enumerate_group,
    linear_pairs,
    parse_one_line,
    skew_linear_pairs,
)

pi = parse_one_line("1^1 5 9^2 6^1 8 7^1 3^3 4^2 2^1", 4, 9)
print("pi =", pi)
print("  3-circular successions:", tuple(sorted(circular_successions(pi, 3))))

rho = parse_one_line("5^1 2^1 4 7 9 1^1 3^1 8^2 6", 4, 9)
print("rho =", rho)
print("  2-linear successions:", tuple(sorted(v for k, v in linear_pairs(rho) if k == 2)))
print("  2-skew-linear:", tuple(sorted(v for k, v in skew_linear_pairs(rho) if k == 2)))
print()

print("fixed-point distribution over the 2-color group on 2 letters:",
      distribution(2, 2, 0, "circular"))
bounded = [p for p in enumerate_group(2, 2) if max(circular_successions(p, 0), default=0) <= 1]
print("elements with fixed points inside [1]:", ", ".join(str(p) for p in bounded))
print()

ell, n = 2, 4
g = build_table(ell, n, "g")
matrix = bounded_matrix(ell, n)
print(f"counts of 'k-successions bounded by m' over {ell} colors, {n} letters")
print("(independent of k, matching the g row", g.rows[n], "):")
for k in range(n + 1):
    running, row = 0, []
    for m in range(n + 1):
        running += matrix[k][m]
        row.append(running if k <= m else None)
    print(f"  k={k}:", " ".join("." if v is None else str(v) for v in row))
