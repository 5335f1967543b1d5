"""Operational (umbral) expression machinery.

The function families in this package all admit a formal image in which
a symbol raised to a real power stands for a reciprocal gamma value:
reducing `symbol**a` yields 1/Gamma(1+a).  A finite weighted sum of such
monomials in up to three symbols is an `UmbralExpr`; the truncated
exponential of a symbol monomial is an `UmbralExpSeries`.  Two rewrite
rules close the calculus over everything needed here:

* a Gaussian integral over the real line maps an exponential image to
  another exponential image with the symbol power shifted by -1/2,
* a Laplace-type integral over [0, inf) maps it to a binomial image
  whose reduction is a 1F2 hypergeometric value.

Reduction is linear and exact in the coefficients; certification of a
truncated exponential is a tail-bound check on the reduced terms.  A
symbol monomial factor only shifts exponents, so an image times a
polynomial in each symbol, such as a truncated generating function
sum_m (u c)**m, reduces in one pass, with one weighted gamma sum per
term and symbol (`reduce_weighted`).
"""

import math
import operator
from collections import namedtuple

from .errors import ConvergenceError, DomainError
from .gammakit import gamma, rgamma

__all__ = [
    "UmbralTerm",
    "UmbralExpr",
    "UmbralExpSeries",
    "reduce_expr",
    "reduce_weighted",
    "expand",
    "gaussian_reduce",
    "laplace_reduce",
]

_MAX_ORDER = 500


def _is_order(order):
    """A nonnegative integer value, such as 3 or 3.0; inf and nan are not."""
    return order >= 0 and order % 1 == 0


UmbralTerm = namedtuple("UmbralTerm", "coeff exponents")
UmbralTerm.__doc__ = """coeff * symbol_1**e_1 * ... * symbol_m**e_m."""


class UmbralExpr(namedtuple("UmbralExpr", "symbol_count terms")):
    """Finite sum of umbral monomials over `symbol_count` symbols."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.symbol_count not in (1, 2, 3):
            raise DomainError("UmbralExpr: symbol_count must be 1, 2 or 3")
        for t in self.terms:
            if len(t.exponents) != self.symbol_count:
                raise DomainError(
                    "UmbralExpr: term exponent vector length "
                    f"{len(t.exponents)} != symbol_count {self.symbol_count}"
                )
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class UmbralExpSeries(namedtuple("UmbralExpSeries", "prefactor_exponents step_degrees scale order")):
    """Truncated exponential image.

    Expanding to order N produces N+1 terms; term k carries coefficient
    scale**k / k! and exponent vector prefactor_exponents + k*step_degrees.
    A negative scale gives the alternating series.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.prefactor_exponents) != len(self.step_degrees):
            raise DomainError("UmbralExpSeries: exponent/step length mismatch")
        if any(d < 0 or d != int(d) for d in self.step_degrees):
            raise DomainError("UmbralExpSeries: step degrees must be nonnegative integers")
        if not _is_order(self.order):
            raise DomainError(f"UmbralExpSeries: order must be a nonnegative integer, not {self.order!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


def expand(series):
    """Expand a truncated umbral exponential into an explicit UmbralExpr."""
    if series.order > _MAX_ORDER:
        raise DomainError(f"expand: order {series.order} exceeds limit {_MAX_ORDER}")
    m = len(series.prefactor_exponents)
    coeff = 1.0
    terms = []
    for k in range(int(series.order) + 1):
        if k > 0:
            coeff *= series.scale / k
        exps = tuple(
            series.prefactor_exponents[i] + k * series.step_degrees[i] for i in range(m)
        )
        terms.append(UmbralTerm(coeff, exps))
    return UmbralExpr(symbol_count=m, terms=tuple(terms))


def reduce_expr(expr, check_tail_rel=None):
    """Apply symbol**a -> 1/Gamma(1+a) to every term and sum.

    The sum is correctly rounded by `math.fsum`, or, where fsum meets
    inf - inf or overflows, is the plain IEEE sum (nan or inf).  With
    `check_tail_rel` set, the sum must be finite and the last two reduced
    terms must each be below check_tail_rel * |sum|, certifying the
    truncation of an expanded exponential; otherwise a ConvergenceError
    is raised.
    """
    return reduce_weighted(expr, ((0.0, (1.0,)),) * expr.symbol_count, check_tail_rel)


def _sum(values):
    """math.fsum, or where it meets inf - inf or overflows, the plain IEEE
    sum (nan or inf)."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return sum(values)


def _dot(weights, values):
    """`_sum` of the products w * v, formed without a Python-level loop."""
    try:
        return math.fsum(map(operator.mul, weights, values))
    except (ValueError, OverflowError):
        return sum(map(operator.mul, weights, values))


def _on_grid(v):
    """Whether v is a multiple of 2^-16 of size at most 2^32: a sum of
    such values, 1.0 and a whole number below 2^32 is exact in binary64."""
    return abs(v) <= 2.0**32 and (v * 65536.0).is_integer()


def _weighted_sums(exponents, lowest, weights, rgammas):
    """{e: A(e)} for the distinct `exponents` of one symbol, A(e) the
    `_dot` of `weights` with rgamma(1 + (e + (lowest + j))), j = 0, 1, ....

    Exponents a whole number apart share their arguments, shifted: where
    e and `lowest` lie on the 2^-16 grid every argument is exact, so the
    exponents of one class (e mod 1) whose windows overlap or touch read
    one list of reciprocal gammas, each A a slice of it.  Any other
    exponent reads a list of its own.  `rgammas` maps each argument to
    its value, so each distinct argument is evaluated once."""
    width = len(weights)

    def reciprocal_gammas(base, count):
        args = [1.0 + (base + (lowest + j)) for j in range(count)]
        for a in args:
            if a not in rgammas:
                rgammas[a] = rgamma(a)
        return list(map(rgammas.__getitem__, args))

    sums, classes = {}, {}
    exact = _on_grid(lowest)
    for e in exponents:
        if exact and _on_grid(e):
            classes.setdefault(e % 1.0, []).append(e)
        else:
            sums[e] = _dot(weights, reciprocal_gammas(e, width))
    for members in classes.values():
        members.sort()
        start = 0
        for i in range(1, len(members) + 1):
            if i < len(members) and members[i] - members[i - 1] <= width:
                continue
            base = members[start]
            rg = reciprocal_gammas(base, int(members[i - 1] - base) + width)
            for e in members[start:i]:
                o = int(e - base)
                sums[e] = _dot(weights, rg[o:o + width])
            start = i
    return sums


def reduce_weighted(expr, factors, check_tail_rel=None):
    """Reduce `expr` times, for each symbol c_i, the polynomial
    sum_j w_j * c_i**(lowest + j) over its factor (lowest, weights),
    `factors[i]`: weights on consecutive shifts from `lowest` up, a gap a
    zero weight, and no weights the zero polynomial.

    Reduction is linear and a symbol power only shifts a gamma argument,
    so a term coeff * c_1**e_1 ... c_m**e_m reduces to
    coeff * A_1(e_1) * ... * A_m(e_m), where A_i(e) is the `math.fsum`
    of w_j * rgamma(1 + (e + (lowest + j))) over symbol i's weights.
    Each A is formed once per symbol and distinct exponent, as one `fsum`
    of a window of reciprocal gammas (`_weighted_sums`), and each
    distinct rgamma argument is evaluated once; the products, multiplied
    left to right, are summed as `reduce_expr` sums its terms and
    certified by the same tail check.  With the factor (s, (1.0,)) per
    symbol this is the reduction of the image times the monomial
    c_1**s_1 ... c_m**s_m, bit for bit.
    """
    m = expr.symbol_count
    if len(factors) != m:
        raise DomainError(f"reduce_weighted: {len(factors)} factors for {m} symbols")
    rgammas = {}  # argument -> rgamma(argument), across the symbols
    weighted = [
        _weighted_sums(dict.fromkeys(t.exponents[i] for t in expr.terms), lowest, weights, rgammas)
        for i, (lowest, weights) in enumerate(factors)
    ]
    products = []
    for t in expr.terms:
        r = t.coeff
        for e, sums in zip(t.exponents, weighted):
            r *= sums[e]
        products.append(r)
    total = _sum(products)
    if check_tail_rel is not None and products:
        bound = check_tail_rel * max(abs(total), 1e-300)
        # a one-term expression's tail is its one term; a nan or infinite
        # sum certifies nothing, whatever its last terms
        tail = products[-2:]
        if not math.isfinite(total) or max(map(abs, tail)) > bound:
            raise ConvergenceError(
                f"reduce_weighted: truncation not certified, sum {total}, last terms {tail} exceed {bound}"
            )
    return total


def gaussian_reduce(a, q, p, order=60):
    """Rewrite the real-line Gaussian image as an exponential image.

    integral over R of c**a exp(-c q x**2 + c p x) dx equals
    sqrt(pi/q) * c**(a-1/2) * exp(+c p**2/(4q)); this returns the
    exponential image (the caller owns the scalar sqrt(pi/q) factor).
    """
    if not q > 0:
        raise DomainError("gaussian_reduce: q must be positive")
    return UmbralExpSeries(
        prefactor_exponents=(a - 0.5,),
        step_degrees=(1,),
        scale=p * p / (4.0 * q),
        order=order,
    )


def laplace_reduce(gamma_exp, w, alpha, beta, order=60):
    """Binomially expanded Laplace image of a two-symbol exponential.

    integral over [0, inf) of s**(g-1) exp(-s (1 + c1 c2 w)) ds against
    the prefactor c1**alpha c2**beta gives Gamma(g) (1 + c1 c2 w)**(-g);
    expanded to `order`, term k carries coefficient (-w)**k Gamma(g+k)/k!
    and exponents (alpha+k, beta+k).  Reducing the result evaluates
    Gamma(g)/(Gamma(1+alpha)Gamma(1+beta)) * 1F2(g; 1+alpha, 1+beta; -w)
    up to the truncation order.
    """
    if not gamma_exp > 0:
        raise DomainError("laplace_reduce: exponent parameter must be positive")
    if not _is_order(order):
        raise DomainError(f"laplace_reduce: order must be a nonnegative integer, not {order!r}")
    if order > _MAX_ORDER:
        raise DomainError(f"laplace_reduce: order {order} exceeds limit {_MAX_ORDER}")
    coeff = gamma(gamma_exp)
    terms = []
    for k in range(int(order) + 1):
        if k > 0:
            # ratio Gamma(g+k)/Gamma(g+k-1) * (-w)/k
            coeff *= (gamma_exp + k - 1.0) * (-w) / k
        terms.append(UmbralTerm(coeff, (alpha + k, beta + k)))
    return UmbralExpr(symbol_count=2, terms=tuple(terms))
