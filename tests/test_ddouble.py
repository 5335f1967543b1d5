import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphstruve.ddouble import (
    dd,
    dd_add,
    dd_add_d,
    dd_div,
    dd_div_d,
    dd_mul,
    dd_mul_d,
    two_prod,
    two_sum,
)


@pytest.fixture(autouse=True, scope="module")
def _decimal_prec_50():
    # scoped to this module: the exactness checks need 50 digits, and a
    # global setting would leak into every module collected after this one
    with localcontext() as ctx:
        ctx.prec = 50
        yield


finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False).filter(lambda v: abs(v) > 1e-8)


def as_dec(x):
    return Decimal(x[0]) + Decimal(x[1])


@given(finite, finite)
@settings(max_examples=300, deadline=None)
def test_two_sum_exact(a, b):
    s, e = two_sum(a, b)
    assert Decimal(s) + Decimal(e) == Decimal(a) + Decimal(b)


@given(finite, finite)
@settings(max_examples=300, deadline=None)
def test_two_prod_exact(a, b):
    p, e = two_prod(a, b)
    assert Decimal(p) + Decimal(e) == Decimal(a) * Decimal(b)


@given(finite, finite)
@settings(max_examples=300, deadline=None)
def test_mul_accuracy(a, b):
    got = as_dec(dd_mul(dd(a), dd(b)))
    want = Decimal(a) * Decimal(b)
    assert abs(got - want) <= abs(want) * Decimal("1e-30")


@given(finite, finite)
@settings(max_examples=300, deadline=None)
def test_div_accuracy(a, b):
    got = as_dec(dd_div(dd(a), dd(b)))
    want = Decimal(a) / Decimal(b)
    assert abs(got - want) <= abs(want) * Decimal("1e-30")


@given(finite, finite)
@settings(max_examples=200, deadline=None)
def test_div_d_accuracy(a, b):
    got = as_dec(dd_div_d(dd(a), b))
    want = Decimal(a) / Decimal(b)
    assert abs(got - want) <= abs(want) * Decimal("1e-30")


def test_cancellation_heavy_sum():
    # exp(-20) by its alternating series: loses ~17 digits in binary64,
    # double-double keeps the result at full double accuracy.
    term = dd(1.0)
    total = dd(0.0)
    for k in range(1, 200):
        total = dd_add(total, term)
        term = dd_div_d(dd_mul_d(term, -20.0), float(k))
    want = Decimal(-20).exp()
    got = as_dec(total)
    assert abs(got - want) <= abs(want) * Decimal("1e-15")


def test_add_d_matches_add():
    x = dd_mul_d(dd(math.pi), 1e3)
    assert dd_add_d(x, 2.5) == dd_add(x, dd(2.5))
