"""Dual norms, the Young-equality witness, and the norm gap.

Computes the dual modular through the level function and confirms it
against a direct constrained minimization; builds the element where Young's
inequality is tight; then attaches a singular scalar to a regular element
and shows the two functional norms disagree — additively on the gauge side,
strictly smaller on the Orlicz side.

Run:  python demos/dual_norms_and_gap.py
"""

import math

import olk


def main():
    phi = olk.PowerOrlicz(2.0, 0.5)          # phi(t) = t^2/2, self-conjugate
    w = olk.StepWeight(((1.0, 4.0), (math.inf, 1.0)))
    h = olk.StepFunction(((4.0, 1.0), (3.0, 1.0)))

    print("Dual modular P(h): level-function formula vs direct minimization")
    formula = olk.P_modular(phi, w, h)
    direct = olk.P_modular_oracle(phi, w, h)
    print(f"  level formula   P(h) = {formula:.12f}")
    print(f"  minimization    P(h) = {direct:.12f}")
    print(f"  relative difference  = {abs(formula - direct) / formula:.2e}")
    print()

    print("Young-equality witness: a companion element v with")
    print("  (a) modular of the level ratios = P(h)")
    print("  (b) the pairing of h with v computed two ways agrees")
    wit = olk.young_witness(phi, w, h)
    print(f"  level-ratio modular   = {wit.level_modular:.12f}")
    print(f"  witness modular       = {wit.young_modular:.12f}")
    print(f"  pairing (direct)      = {wit.companion_direct:.12f}")
    print(f"  pairing (rearranged)  = {wit.companion_rearranged:.12f}")
    print()

    print("Dual norms of h (both routes):")
    dual_lux = olk.dual_luxemburg_norm(phi, w, h)
    dual_orl = olk.dual_orlicz_norm(phi, w, h)
    print(f"  gauge-type dual norm   = {dual_lux:.12f}")
    print(f"  Amemiya-type dual norm = {dual_orl:.12f}")
    print()

    print("Attach a singular scalar s to a regular part h and compare the")
    print("two functional norms (phi(t)=t^2/2, w = 1 on [0,10)):")
    phi2 = olk.PowerOrlicz(2.0, 0.5)
    w2 = olk.StepWeight(((10.0, 1.0),))
    rep = olk.non_m_ideal_witness(phi2, w2, 0.5, 1.0)
    print(f"  witness h = u * w on (0, t0): u = {rep.extras['u_used']:g}, "
          f"t0 = {rep.extras['t0']:g}, s = {rep.s:g}")
    print(f"  gauge-side norm    = {rep.lux_side_norm:.12f} "
          f"(= dual Amemiya norm + s, exactly additive)")
    print(f"  Orlicz-side norm   = {rep.orlicz_side_norm:.12f}")
    print(f"  additive reference = {rep.additive_sum:.12f} "
          f"(= dual gauge norm + s)")
    print(f"  gap                = {rep.gap:.12f}  (> 0: the norms do NOT "
          f"add on this side)")
    print()

    print("The gap closes exactly when the singular part vanishes:")
    for s in (0.4, 0.2, 0.05, 0.0):
        r = olk.functional_norm_report(phi2, w2, rep.h, s)
        print(f"  s = {s:4.2f}: Orlicz-side {r.orlicz_side_norm:.9f}, "
              f"additive {olk.dual_luxemburg_norm(phi2, w2, rep.h) + s:.9f}, "
              f"gap {r.gap:.9f}")


if __name__ == "__main__":
    main()
