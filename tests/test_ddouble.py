from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphstruve.ddouble import two_prod
from sphstruve.functions import EvalPolicy, _sum_ratio_series, _sum_ratio_series_dd


@pytest.fixture(autouse=True, scope="module")
def _decimal_prec_50():
    # scoped to this module: the exactness checks need 50 digits, and a
    # global setting would leak into every module collected after this one
    with localcontext() as ctx:
        ctx.prec = 50
        yield


finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False).filter(lambda v: abs(v) > 1e-8)


@given(finite, finite)
@settings(max_examples=300, deadline=None)
def test_two_prod_exact(a, b):
    p, e = two_prod(a, b)
    assert Decimal(p) + Decimal(e) == Decimal(a) * Decimal(b)


def test_cancellation_heavy_sum():
    # exp(-20) by its alternating series, summed by the library's
    # double-double ratio kernel: binary64 loses ~17 digits here, the
    # double-double kernel keeps full double accuracy.
    policy = EvalPolicy(rel_tol=1e-20)
    want = Decimal(-20).exp()
    got, _, _, mag = _sum_ratio_series_dd(1.0, -20.0, 0.0, (), (1.0,), policy)
    assert abs(Decimal(got) - want) <= abs(want) * Decimal("1e-15")
    # the sum of |term| the kernel returns for its rounding bound is e^20
    assert abs(Decimal(mag) - Decimal(20).exp()) <= Decimal(20).exp() * Decimal("1e-14")
    plain, _, _ = _sum_ratio_series(1.0, -20.0, (), (1.0,), policy)
    assert abs(Decimal(plain) - want) > abs(want) * Decimal("1e-15")
