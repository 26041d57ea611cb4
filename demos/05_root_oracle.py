"""The numeric cross-check: simultaneous root iteration.

All root estimates are refined at once (no deflation), then classified by
half-plane with a magnitude-relative axis band.  Residuals make the answer
self-checking: |p(root)| is reported for the worst root.
"""

from routhkit import Polynomial, find_roots, half_plane_counts

for text in ("s^2 - 1", "s^2 + 1", "s^4 + 1", "s^3 - 7*s - 6"):
    poly = Polynomial.parse(text)
    rs = find_roots(poly)
    print(f"p(s) = {poly}")
    for r in rs.roots:
        print(f"   {r.real:+.12f} {r.imag:+.12f}j   |p(root)| = "
              f"{abs(poly.evaluate(r)):.2e}")
    counts = half_plane_counts(rs)
    print(f"   converged={rs.converged}  max residual={rs.max_residual:.2e}  "
          f"lhp={counts.lhp} rhp={counts.rhp} axis={counts.axis}\n")

# Round trip: build a polynomial from chosen roots, then recover them.
chosen = [-1.5, -0.25, complex(0.75, 2.0), complex(0.75, -2.0)]
poly = Polynomial.from_roots(chosen)
print(f"from_roots({chosen})")
print(f"  -> {poly}")
recovered = find_roots(poly)
print("  recovered:", [f"{r.real:+.6f}{r.imag:+.6f}j" for r in recovered.roots])

# A repeated root: rounding noise in p(z) spreads the four estimates of
# (s+1)^4 about 3e-4 around -1, and no Newton correction falls below the
# relative tolerance there.  Each estimate leaves the sweep once its residual
# is at the rounding floor of Horner evaluation, so the run still reports
# converged=True.
poly = Polynomial.from_roots([-1] * 4)
rs = find_roots(poly)
counts = half_plane_counts(rs)
print(f"\n(s+1)^4 = {poly}")
print(f"   converged={rs.converged}  max residual={rs.max_residual:.2e}  "
      f"max |root + 1|={max(abs(r + 1) for r in rs.roots):.1e}  "
      f"lhp={counts.lhp} rhp={counts.rhp} axis={counts.axis}")
