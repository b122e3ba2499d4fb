"""The scaling threshold theta and distance to the order-continuous part.

theta(f) is the infimum of scales lambda for which the modular of f/lambda
is finite, read in closed form from how phi, the weight and f grow at 0 and
at infinity.  Finite-support elements always have theta = 0; heavy analytic
tails can have theta > 0, and truncating such a tail leaves remainders whose
norms decrease toward theta — never below it.

Run:  python demos/threshold_scaling.py
"""

import math

import olk


def main():
    phi = olk.ExpOrlicz()                    # phi(u) = e^u - u - 1
    w = olk.StepWeight(((math.inf, 1.0),))   # w = 1
    f = olk.LogTailProfile(1.0)              # f(t) = log(1 + 1/t)

    print("phi(u) = e^u - u - 1, w = 1, f(t) = log(1 + 1/t)")
    print()
    print("Modular of f / lambda as lambda crosses 1:")
    for lam in (1.25, 1.1, 1.0, 0.9):
        val = olk.rho_modular(phi, w, f.scaled(1.0 / lam))
        shown = f"{val:.6f}" if math.isfinite(val) else "infinite"
        print(f"  lambda = {lam:4.2f}: modular = {shown}")
    print()

    th = olk.theta(phi, w, f)
    lux = olk.luxemburg_norm(phi, w, f)
    print(f"theta(f) = {th:.6f}   (a / (1 - beta) for exp on a log head)")
    print(f"gauge norm = {lux:.6f}   (theta <= norm always)")
    print()

    print("Truncation remainders f - f_n (values clipped to [1/n, n]):")
    print(f"  {'n':>4s}  {'gauge norm':>12s}  {'Amemiya norm':>13s}")
    for n in (2, 4, 8, 16, 32):
        rem = olk.truncation_remainder(f, n)
        g = olk.luxemburg_norm(phi, w, rem)
        a = olk.orlicz_norm_amemiya(phi, w, rem)
        print(f"  {n:4d}  {g:12.6f}  {a:13.6f}")
    print(f"  both columns decrease toward theta = {th:.4f} from above;")
    print(f"  the limit is the distance from f to the order-continuous "
          f"subspace.")
    print()

    print("Finite-support elements always sit at theta = 0:")
    g = olk.StepFunction(((5.0, 2.0), (1.0, 3.0)))
    print(f"  step function:          theta = {olk.theta(phi, w, g):g}")
    band = olk.BandRestriction(olk.PowerTailProfile(1.0, 1.0), 0.25, 4.0)
    print(f"  band-restricted tail:   theta = {olk.theta(phi, w, band):g}")
    print()

    print("Sequence setting, same phenomenon:")
    phi_s = olk.FlatZeroOrlicz(0.4)
    w_s = olk.ConstantSeqWeight(1.0)
    x = olk.LogSeqTail(0.75)
    th_s = olk.theta(phi_s, w_s, x)
    print(f"  phi flat near zero (cutoff 0.4), x_n = 0.75 / log(n + 1)")
    print(f"  theta = {th_s:.6f}   (a (1 - beta) for flat phi on 1 / log)")


if __name__ == "__main__":
    main()
