"""The determinant route: Hurwitz matrix and exact leading minors.

A polynomial with positive leading coefficient is stable exactly when all
leading principal minors of its Hurwitz matrix are positive.  Minors are
computed exactly by fraction-free elimination, so this is a genuinely
independent second opinion on every Routh verdict.

`hurwitz_stable` reads the minors from the fraction-free Routh pass, also
past the paper's two special cases: s^4 + 1 has a zero row, and s^3 - 7s - 6
and the quintic a zero first entry.  After the zero pivot its minors are
printed next to those of `leading_minors`, which takes a determinant per
minor there.
"""

from routhkit import (Polynomial, classify, hurwitz_matrix, hurwitz_stable,
                      leading_minors)

for text in ("s^3 + 2*s^2 + 3*s + 4", "s^4 + 1", "s^2 + 2*s + 1",
             "s^3 - 7*s - 6", "s^5 + 2*s^4 + 3*s^3 + 6*s^2 + 10*s + 5"):
    poly = Polynomial.parse(text)
    matrix = hurwitz_matrix(poly)
    print(f"p(s) = {poly}")
    for row in matrix.entries:
        print("   [" + "  ".join(f"{str(c):>4}" for c in row) + "]")
    minors = leading_minors(matrix)
    print("  leading minors:", [str(m) for m in minors])
    decision = hurwitz_stable(poly)
    if 0 in minors:
        k = minors.index(0)
        print(f"  from Delta_{k + 1} = 0 on, one Routh pass gives",
              [str(m) for m in decision.minors[k:]])
        print("          and the determinants give",
              [str(m) for m in minors[k:]])
    routh = classify(poly)
    print(f"  hurwitz says {'stable' if decision.stable else 'not stable'};"
          f" routh verdict is {routh.verdict.value}")
    print()
