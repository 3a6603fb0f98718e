"""Independent high-precision oracle for the junction integrals.

Recomputes the golden-rule spectral function with mpmath adaptive
quadrature at 30 significant digits, using only the definitions (Dynes
density of states, Fermi factors) and the package's unit pins.  Run
this script to regenerate the frozen values asserted in
tests/test_qcr.py.
"""
import mpmath as mp

mp.mp.dps = 30

H_MEV_PER_GHZ = mp.mpf("4.135667696e-3")
H_OVER_KB = mp.mpf("0.0479924")
KB_MEV_PER_K = H_MEV_PER_GHZ / H_OVER_KB

DELTA = mp.mpf("0.215")      # meV
GAMMA_D = mp.mpf("2.3e-3")
T_N = mp.mpf("0.1")          # K
LIM = mp.mpf(30)


def dynes(x, gamma_d=GAMMA_D):
    z = mp.mpc(x, gamma_d)
    return abs(mp.re(z / mp.sqrt(z * z - 1)))


def fermi(y):
    if y > 700:
        return mp.mpf(0)
    if y < -700:
        return mp.mpf(1)
    return 1 / (1 + mp.exp(y))


def spectral(e_mev, v_mv, gamma_d=GAMMA_D, t_n=T_N):
    beta = DELTA / (KB_MEV_PER_K * mp.mpf(t_n))
    u = abs(mp.mpf(v_mv)) / DELTA
    w = mp.mpf(e_mev) / DELTA
    gamma_d = mp.mpf(gamma_d)

    def f(x):
        return dynes(x, gamma_d) * (fermi(beta * (x - u - w)) + fermi(beta * (x + u - w))) * (1 - fermi(beta * x))

    lim = LIM + u + abs(w)  # LIM beyond the furthest Fermi edge
    pts = sorted({p for p in (-1, 1, u + w, -u + w, mp.mpf(0)) if -lim < p < lim})
    knots = [-lim] + list(pts) + [lim]
    return mp.quad(f, knots)


if __name__ == "__main__":
    e_ge = H_MEV_PER_GHZ * mp.mpf("4.09")     # g<->e photon at the design point
    e_ef = H_MEV_PER_GHZ * mp.mpf("3.817")    # e<->f photon (anharmonic ladder)
    print("SPECTRAL = {")
    # the last pin lies beyond 30 Delta - |E|, where a fixed window
    # would cut the Fermi edge off
    pins = [(e, v) for e in (e_ge, -e_ge, e_ef) for v in ("0.0", "0.6", "1.2")]
    for e, v in pins + [(e_ge, "10.0")]:
        val = spectral(e, v)
        print(f'    ({mp.nstr(e, 17)!r}, {v!r}): "{mp.nstr(val, 17)}",')
    print("}")
    # sharp gap edges in a cold junction, with a Fermi edge near a gap
    # edge: (gamma_d, photon GHz, bias mV) at t_n = 0.03 K
    print("SHARP_EDGE = {")
    for g, f_ghz, v in (("1e-5", "4.09", "0.2"), ("1e-4", "-4.09", "0.23"),
                        ("1e-5", "-1.0", "0.22")):
        val = spectral(H_MEV_PER_GHZ * mp.mpf(f_ghz), v, g, "0.03")
        print(f'    ({g}, {f_ghz}, {v}): "{mp.nstr(val, 17)}",')
    print("}")
