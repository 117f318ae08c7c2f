#!/usr/bin/env python3
"""Print Floer cohomology decompositions over a parameter grid.

Shows the Novikov-module decomposition of the Floer complex of the
Gr(2,4) fiber L_t as t varies, for a fixed bounding parameter x, plus
the Fl(3) fiber for a few profiles.  Torsion exponents are exact
rationals; "free" is the rank of the free summand over Lambda_0.

Usage:
    python3 scripts/floer_table.py --lam 1 --x-im 0.0
"""

import argparse
from fractions import Fraction

from gcfloer.novikov import m1_fl3, m1b_gr24, module_presentation


def fmt(dec):
    tors = ", ".join(str(e) for e in dec.torsion_exponents) or "-"
    return f"free {dec.free_rank}, torsion [{tors}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=Fraction, default=Fraction(1))
    ap.add_argument("--x-re", type=float, default=0.0)
    ap.add_argument("--x-im", type=float, default=0.0)
    ap.add_argument("--denom", type=int, default=8, help="t runs over k*lam/denom")
    args = ap.parse_args()

    x = complex(args.x_re, args.x_im)
    lam = args.lam
    print(f"Gr(2,4) fiber L_t, lam = {lam}, x = {x}:")
    for k in range(-args.denom + 1, args.denom):
        t = lam * Fraction(k, args.denom)
        d = m1b_gr24(lam, t, x)
        dec = module_presentation(d)
        lrank = module_presentation(d, ring="Lambda").lambda_rank()
        print(f"  t = {str(t):>6}: {fmt(dec)}; rank over Lambda = {lrank}")

    print("\nFl(3) central fiber:")
    for l1, l2 in ((Fraction(3, 10), Fraction(7, 10)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))):
        dec = module_presentation(m1_fl3(l1, l2))
        print(f"  (l1, l2) = ({l1}, {l2}): {fmt(dec)}")


if __name__ == "__main__":
    main()
