"""Double-double building blocks on (hi, lo) float pairs.

The extended-precision series path carries its sums in double-double,
roughly 31 significant digits, because alternating sums lose ~x/ln10
digits to cancellation between the crossover and the asymptotic
switchover.  Its kernel (`functions._sum_ratio_series_dd`) inlines the
error-free transformations for speed; this module keeps the Dekker
splitter and the exact product `two_prod`.  No FMA is assumed.
"""

_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a, b):
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err
