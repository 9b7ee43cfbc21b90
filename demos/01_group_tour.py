"""Tour of the colored permutation group: elements, arithmetic, cycle form.

An element on n letters with ell colors is written in one-line form with
tokens ``v`` (color 0) or ``v^j`` (color exponent j), or as a product of
cycles in which each value wears its own color.
"""

from wreathperm import (
    ColoredPermutation,
    ColoredSymbol,
    format_cycles,
    parse_cycles,
    parse_one_line,
    rotate_right,
)

ELL, N = 4, 11
pi = parse_one_line("3 5^2 1^2 9 6^1 2 7^1 4^1 11^3 8^1 10^1", ELL, N)

print(f"an element of the group with {ELL} colors on {N} letters:")
print("  one-line:", pi)
print("  cycles:  ", format_cycles(pi))
print("  image of position 2:", pi.image(2))
print("  action on the colored symbol 2^3:", pi.apply(ColoredSymbol(2, 3)))
print()

e = ColoredPermutation.identity(ELL, N)
print("group structure:")
print("  pi * pi^-1 == identity:", pi * pi.inverse() == e)
print("  word rotated right:", " ".join(str(s) for s in rotate_right(pi).one_line()[:5]), "...")
print()

roundtrip = parse_cycles(format_cycles(pi), ELL, N)
print("cycle text roundtrips:", roundtrip == pi)
