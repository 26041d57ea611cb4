"""The two degenerate cases and the three repair policies, side by side.

s^4 + 1 is the showcase: its second array row is entirely zero, so the
plain recurrence stalls immediately.  Policy `eps-row` replaces the whole
zero row with the infinitesimal e; `derivative` substitutes the derivative
of the auxiliary polynomial; `single-eps` only handles zero *first*
elements and refuses a fully zero row.  Both repairs count two sign
changes, and the polynomial indeed has two roots with positive real part.
"""

from routhkit import (Policy, PolicyUnsupported, Polynomial, build_array,
                      classify, count_sign_changes, find_roots,
                      half_plane_counts)

poly = Polynomial.parse("s^4 + 1")
print(f"p(s) = {poly}\n")

for policy in (Policy.EPSILON_ROW, Policy.DERIVATIVE_ROW, Policy.SINGLE_EPSILON):
    print(f"policy {policy.value}:")
    try:
        array = build_array(poly, policy)
    except PolicyUnsupported as exc:
        print(f"  refused: {exc}\n")
        continue
    for i, row in enumerate(array.rows):
        print(f"  s^{array.row_power(i)} | " + "  ".join(str(e) for e in row))
    for event in array.events:
        print(f"  event at s^{event.row_power}: {event.kind.value} -> {event.remedy}")
    signs, changes = count_sign_changes(array)
    print("  signs:", " ".join("+" if s > 0 else "-" for s in signs),
          f"  changes: {changes}\n")

counts = half_plane_counts(find_roots(poly))
print(f"independent root count: lhp={counts.lhp} rhp={counts.rhp} axis={counts.axis}")

# The zero-first-element case: (s+1)(s+2)(s-3) stalls at the s^2 row.
cubic = Polynomial.parse("s^3 - 7*s - 6")
array = build_array(cubic, Policy.SINGLE_EPSILON)
print(f"\np(s) = {cubic} under single-eps:")
for i, row in enumerate(array.rows):
    print(f"  s^{array.row_power(i)} | " + "  ".join(str(e) for e in row))
print("  one sign change -> one unstable root (it is s = 3)")

# A larger ZeroFirstElement case: 1 + s + ... + s^40, whose roots are the
# 41st roots of unity other than 1 (20 of them in the RHP).  Its e entries
# reach e-degree 36; each one is kept in lowest terms by an exact gcd.
ones = Polynomial([1] * 41)
report = classify(ones, Policy.EPSILON_ROW)
print(f"\n1 + s + ... + s^40 under eps-row: {report.rhp_count} RHP roots, "
      f"verdict {report.verdict.value}")
print("  events:", ", ".join(f"{ev.kind.value}@s^{ev.row_power}"
                              for ev in report.events))
