"""The two difference tables and their independent closed forms.

The g table starts each row at ell^n * n! and differences leftwards; its
first column counts derangements.  The d table divides out ell^m * m!, a
fact checked here three independent ways.
"""

from wreathperm import (
    build_table,
    check_recurrences,
    derangement_number,
    egf_coefficient,
    g_closed_form,
)

for ell in (1, 2):
    print(f"g table, {ell} color(s):")
    table = build_table(ell, 5, "g")
    for n in range(6):
        print(f"  n={n}:", *table.rows[n])
    print()

d2 = build_table(2, 5, "d")
print("d table, 2 colors, row 5:", *d2.rows[5])
print()

print("three routes to the same numbers (2 colors):")
g2 = build_table(2, 8, "g")
for n in (5, 8):
    print(
        f"  n={n}: table={g2.entry(n, 0)}",
        f"closed-form={g_closed_form(2, n, 0)}",
        f"derangement-sum={derangement_number(2, n)}",
        f"egf={egf_coefficient(2, 0, n)}",
    )
print()

report = check_recurrences(3, 30)
print(f"recurrence suite, 3 colors, 30 rows: {len(report)} identities,",
      "all pass" if all(r.passed for r in report) else "FAILURES")
