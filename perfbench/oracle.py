"""mpmath reference values for the sweep workload.

Imported by the benchmark only, never by the library. Every oracle works
at `DIGITS` significant digits and returns a float.
"""

import mpmath as mp

DIGITS = 30
# loosest tolerance of the identity catalog: a call further than this
# from its oracle counts as failed
FAIL_TOL = 1e-6


def _sph_j(n, x):
    return mp.sqrt(mp.pi / (2 * x)) * mp.besselj(n + mp.mpf(1) / 2, x)


def _s_pair(nu, x):
    """(S1, S2) from the Anger and Weber functions: the library's matrix
    [[c, s], [s, -c]] with c = cos(nu pi/2), s = sin(nu pi/2) is its own
    inverse."""
    a, w = mp.angerj(nu, x), mp.webere(nu, x)
    c, s = mp.cos(nu * mp.pi / 2), mp.sin(nu * mp.pi / 2)
    return c * a + s * w, s * a - c * w


def _humbert(z, *indices):
    pre = mp.mpf(1)
    for m in indices:
        pre *= mp.rgamma(m + 1)
    return pre * mp.hyper([], [m + 1 for m in indices], -z)


_ORACLES = {
    "sph_j": _sph_j,
    "rayleigh_jn": _sph_j,
    "cyl_j": mp.besselj,
    "mod_i0": lambda t: mp.besseli(0, t),
    "struve_h": mp.struveh,
    "humbert2": lambda mu, nu, z: _humbert(z, mu, nu),
    "humbert3": lambda mu, nu, rho, z: _humbert(z, mu, nu, rho),
    "hyp1f2": mp.hyp1f2,
    "delta_fn": lambda a, b, g, x: mp.gamma(g) * mp.rgamma(1 + a) * mp.rgamma(1 + b)
    * mp.hyp1f2(g, 1 + a, 1 + b, -(x * x) / 4),
    "s1": lambda nu, x: _s_pair(nu, x)[0],
    "s2": lambda nu, x: _s_pair(nu, x)[1],
    "anger": mp.angerj,
    "weber": mp.webere,
    "sph_j_deriv": lambda n, x: mp.diff(lambda t: mp.sin(t) / t, x, n),
}


def reference(family, args):
    """The oracle value of `family` at `args`, rounded to a float."""
    with mp.workdps(DIGITS):
        return float(_ORACLES[family](*args))


def error(value, ref):
    """|value - ref| / max(1, |ref|): relative error, absolute near zeros."""
    return abs(value - ref) / max(1.0, abs(ref))
