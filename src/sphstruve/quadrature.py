"""Certified numerical integration.

Three kernels cover every integral the identity catalog needs:

* adaptive finite-interval quadrature with an embedded Gauss/Kronrod
  pair (free per-cell error estimate, greedy refinement),
* generalized Gauss-Laguerre rules for exp(-s) s^sigma kernels on
  [0, inf), with node-doubling error estimates,
* oscillatory semi-infinite integration: fixed cells between estimated
  zeros, nonlinear acceleration (Levin u-transform, iterated-averaging
  fallback) of the partial-sum sequence.

The oscillatory kernel expects a decaying, asymptotically alternating
cell sequence; integrands that mix an algebraic monotone tail into the
oscillation should be split by the caller (the identity registry does
this with the function-family asymptotics).
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .gammakit import gamma

__all__ = [
    "QuadraturePlan",
    "QuadratureResult",
    "finite_plan",
    "laguerre_plan",
    "oscillatory_plan",
    "real_line_plan",
    "integrate_finite",
    "integrate_laguerre",
    "integrate_oscillatory",
    "integrate_real_line",
    "gauss_laguerre_nodes",
    "levin_u",
]

# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule
# (the classic QUADPACK dqk15 constants).
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass(frozen=True)
class QuadraturePlan:
    """Domain + strategy + accuracy targets for one integration.

    domain: ("finite", a, b) | ("semi_infinite", a) | ("real_line",)
    strategy: ("adaptive", max_cells)
            | ("laguerre", sigma, nodes)
            | ("oscillatory", period_hint, start_x, max_cells)
    """

    domain: tuple
    strategy: tuple
    target_abs: float = 1e-10
    target_rel: float = 1e-10

    def __post_init__(self):
        kind = self.domain[0]
        if kind == "finite":
            if not self.domain[1] < self.domain[2]:
                raise DomainError("QuadraturePlan: finite domain requires a < b")
        elif kind == "semi_infinite":
            pass
        elif kind == "real_line":
            pass
        else:
            raise DomainError(f"QuadraturePlan: unknown domain {kind!r}")
        s = self.strategy[0]
        if s == "laguerre":
            if not self.strategy[1] > -1.0:
                raise DomainError("QuadraturePlan: laguerre weight exponent must exceed -1")
        elif s == "oscillatory":
            if not self.strategy[1] > 0.0:
                raise DomainError("QuadraturePlan: oscillatory period_hint must be positive")
        elif s != "adaptive":
            raise DomainError(f"QuadraturePlan: unknown strategy {s!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    cells_or_nodes: int
    status: str  # converged | max_refinement | accelerated


def finite_plan(a, b, target_abs=1e-10, target_rel=1e-10, max_cells=2000):
    return QuadraturePlan(("finite", a, b), ("adaptive", max_cells), target_abs, target_rel)


def laguerre_plan(sigma, nodes, target_abs=1e-10, target_rel=1e-10):
    return QuadraturePlan(("semi_infinite", 0.0), ("laguerre", sigma, nodes), target_abs, target_rel)


def oscillatory_plan(period_hint, start_x, max_cells=60, target_abs=1e-10, target_rel=1e-10):
    return QuadraturePlan(
        ("semi_infinite", start_x),
        ("oscillatory", period_hint, start_x, max_cells),
        target_abs,
        target_rel,
    )


def real_line_plan(period_hint=math.pi, start_x=40.0, max_cells=60, target_abs=1e-10, target_rel=1e-10):
    return QuadraturePlan(
        ("real_line",),
        ("oscillatory", period_hint, start_x, max_cells),
        target_abs,
        target_rel,
    )


def _gk15(f, a, b):
    """(kronrod, error estimate) on [a, b].

    The error uses the standard QUADPACK rescaling of |K15 - G7| against
    the centered absolute integral, which tracks the true Kronrod error
    far better than the raw difference."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    if not math.isfinite(fc):
        raise DomainError(f"integrand returned non-finite value at {mid!r}")
    vals = [fc]
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for j in range(7):
        u = half * _XGK[j]
        f1 = f(mid - u)
        f2 = f(mid + u)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise DomainError("integrand returned non-finite value")
        vals.append(f1)
        vals.append(f2)
        s = f1 + f2
        resk += _WGK[j] * s
        if j % 2 == 1:
            resg += _WG[j // 2] * s
    err = abs(resk - resg) * half
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    i = 1
    for j in range(7):
        resasc += _WGK[j] * (abs(vals[i] - mean) + abs(vals[i + 1] - mean))
        i += 2
    resasc *= abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * half, err


def integrate_finite(f, a, b, plan=None):
    """Adaptive bisection with the embedded pair; greedy on the largest
    cell error until the combined estimate meets the plan targets."""
    if plan is None:
        plan = finite_plan(a, b)
    if not a < b:
        raise DomainError("integrate_finite: requires a < b")
    max_cells = plan.strategy[1] if plan.strategy[0] == "adaptive" else 2000
    val, err = _gk15(f, a, b)
    # heap of (-err, seq, a, b, val, err); seq breaks ties deterministically
    seq = 0
    cells = [(-err, seq, a, b, val, err)]
    total_val = val
    total_err = err
    n = 1
    while n < max_cells:
        bound = max(plan.target_abs, plan.target_rel * abs(total_val))
        if total_err <= bound:
            break
        neg, _, ca, cb, cval, cerr = heapq.heappop(cells)
        cm = 0.5 * (ca + cb)
        if cm <= ca or cm >= cb:
            # interval at floating-point resolution; keep its estimate
            heapq.heappush(cells, (0.0, seq + 1, ca, cb, cval, cerr))
            seq += 1
            continue
        v1, e1 = _gk15(f, ca, cm)
        v2, e2 = _gk15(f, cm, cb)
        total_val += v1 + v2 - cval
        total_err += e1 + e2 - cerr
        seq += 1
        heapq.heappush(cells, (-e1, seq, ca, cm, v1, e1))
        seq += 1
        heapq.heappush(cells, (-e2, seq, cm, cb, v2, e2))
        n += 1
    # deterministic final summation in interval order
    ordered = sorted(cells, key=lambda c: c[2])
    total_val = math.fsum(c[4] for c in ordered)
    total_err = math.fsum(c[5] for c in ordered)
    bound = max(plan.target_abs, plan.target_rel * abs(total_val))
    status = "converged" if total_err <= bound else "max_refinement"
    return QuadratureResult(total_val, total_err, n, status)


_LAGUERRE_CACHE = {}


def gauss_laguerre_nodes(sigma, n):
    """Nodes and weights of the n-point generalized Gauss-Laguerre rule
    for the weight s**sigma exp(-s), by Golub-Welsch on the Jacobi matrix."""
    if not sigma > -1.0:
        raise DomainError("gauss_laguerre_nodes: sigma must exceed -1")
    key = (float(sigma), int(n))
    hit = _LAGUERRE_CACHE.get(key)
    if hit is not None:
        return hit
    i = np.arange(n, dtype=float)
    diag = 2.0 * i + sigma + 1.0
    off = np.sqrt(i[1:] * (i[1:] + sigma))
    jm = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vals, vecs = np.linalg.eigh(jm)
    mu0 = gamma(sigma + 1.0)
    weights = mu0 * (vecs[0, :] ** 2)
    # The eigensolver's first-row components bottom out near 1e-30, so
    # far-node weights (truly ~exp(-s)) surface as pure noise; any weight
    # above the generous physical bound exp(-s + sigma ln s + 30) is noise
    # and gets zeroed before it can meet a growing integrand tail.
    with np.errstate(over="ignore"):
        bound = np.exp(np.minimum(-vals + sigma * np.log(np.maximum(vals, 1e-300)) + 30.0, 700.0))
    weights = np.where(weights <= bound, weights, 0.0)
    out = (vals.copy(), weights.copy())
    _LAGUERRE_CACHE[key] = out
    return out


def integrate_laguerre(f, sigma, nodes, plan=None):
    """integral over [0, inf) of s**sigma exp(-s) f(s) ds.

    Error estimated by doubling the node count; the returned value is the
    doubled-rule one."""
    if not sigma > -1.0:
        raise DomainError("integrate_laguerre: sigma must exceed -1")
    if not 8 <= nodes <= 200:
        raise DomainError("integrate_laguerre: nodes must lie in [8, 200]")
    xs1, ws1 = gauss_laguerre_nodes(sigma, nodes)
    xs2, ws2 = gauss_laguerre_nodes(sigma, 2 * nodes)
    v1 = math.fsum(w * f(x) for x, w in zip(xs1, ws1))
    v2 = math.fsum(w * f(x) for x, w in zip(xs2, ws2))
    err = abs(v2 - v1)
    target = plan.target_abs if plan is not None else 1e-10
    rel = plan.target_rel if plan is not None else 1e-10
    status = "converged" if err <= max(target, rel * abs(v2)) else "max_refinement"
    return QuadratureResult(v2, err, 3 * nodes, status)


def levin_u(terms, beta=1.0):
    """Levin u-transform estimates of sum(terms), one per order.

    Returns the list of order-k estimates (k = 1 .. len(terms)-1) from the
    standard triangular recurrence with remainder model (beta+n)*a_n."""
    n = len(terms)
    if n < 2:
        raise ConvergenceError("levin_u: need at least two terms")
    s = 0.0
    N = []
    D = []
    for j, a in enumerate(terms):
        s += a
        if a == 0.0:
            # zero cell: remainder model breaks down; perturb negligibly
            a = 1e-300
        w = (beta + j) * a
        N.append(s / w)
        D.append(1.0 / w)
    ests = []
    for k in range(1, n):
        Nn = []
        Dn = []
        for j in range(n - k):
            if k == 1:
                b = 1.0
            else:
                b = (beta + j) * (beta + j + k - 1) ** (k - 2) / (beta + j + k) ** (k - 1)
            Nn.append(N[j + 1] - b * N[j])
            Dn.append(D[j + 1] - b * D[j])
        N, D = Nn, Dn
        if D[0] != 0.0 and math.isfinite(N[0]) and math.isfinite(D[0]):
            ests.append(N[0] / D[0])
        elif ests:
            ests.append(ests[-1])
        else:
            ests.append(s)
    return ests


def _euler_fallback(terms):
    """Iterated averaging of partial sums; robust for plainly alternating
    sequences when the Levin table degenerates."""
    s = []
    acc = 0.0
    for a in terms:
        acc += a
        s.append(acc)
    prev_last = s[-1]
    err = math.inf
    while len(s) > 1:
        s = [0.5 * (s[i] + s[i + 1]) for i in range(len(s) - 1)]
        err = abs(s[-1] - prev_last)
        prev_last = s[-1]
    return prev_last, err


_LEVIN_MAX_ORDER = 20


def _first_zero(f, start, period_hint):
    """First sign change of f within two periods of `start`, found on a
    grid of period_hint/16 steps and bisected to floating-point
    resolution; `start` itself when f keeps one sign there."""
    step = period_hint / 16.0
    a, fa = start, f(start)
    for k in range(1, 33):
        if fa == 0.0:
            return a
        b = start + k * step
        fb = f(b)
        if (fa < 0.0) != (fb < 0.0):
            while True:
                m = 0.5 * (a + b)
                if m <= a or m >= b:
                    return b
                fm = f(m)
                if (fm < 0.0) == (fa < 0.0):
                    a, fa = m, fm
                else:
                    b = m
        a, fa = b, fb
    return start


def integrate_oscillatory(f, start, period_hint, plan=None):
    """Semi-infinite oscillatory integral from `start`: fixed cells of
    width `period_hint` between estimated zeros, Levin-u acceleration of
    the cell partial sums.  The cells start at the first sign change of f
    past `start` (the piece before it is one Kronrod cell), so each cell
    holds one lobe; without a sign change within two periods they start
    at `start`.  Status is 'accelerated'; the error estimate is the spread
    of the last two usable transform orders plus the head cell's estimate."""
    if plan is None:
        plan = oscillatory_plan(period_hint, start)
    if not period_hint > 0.0:
        raise DomainError("integrate_oscillatory: period_hint must be positive")
    max_cells = plan.strategy[3] if plan.strategy[0] == "oscillatory" else 60
    target = max(plan.target_abs, 1e-14)
    x0 = _first_zero(f, start, period_hint)
    head, head_err = _gk15(f, start, x0) if x0 > start else (0.0, 0.0)
    terms = []
    grow = 0
    best = None
    for k in range(max_cells):
        x1 = x0 + period_hint
        # one refinement level keeps the cell rule error well under the
        # acceleration noise for smooth half-period lobes
        vm, _ = _gk15(f, x0, 0.5 * (x0 + x1))
        vp, _ = _gk15(f, 0.5 * (x0 + x1), x1)
        cell = vm + vp
        terms.append(cell)
        x0 = x1
        if len(terms) >= 3:
            if abs(terms[-1]) > 1.1 * abs(terms[-2]) > 0.0:
                grow += 1
                if grow >= 4:
                    raise ConvergenceError(
                        "integrate_oscillatory: cell magnitudes keep growing; "
                        "integrand looks non-decaying over the sampled range"
                    )
            else:
                grow = 0
        if len(terms) < 6 or grow:
            continue
        use = terms[-(_LEVIN_MAX_ORDER + 1):] if len(terms) > _LEVIN_MAX_ORDER + 1 else terms
        if all(t == 0.0 for t in use):
            return QuadratureResult(head + math.fsum(terms), head_err, len(terms), "converged")
        ests = levin_u(use)
        spread = abs(ests[-1] - ests[-2]) if len(ests) >= 2 else math.inf
        if math.isfinite(ests[-1]) and (best is None or spread < best[0]):
            best = (spread, ests[-1], len(terms))
        if best is not None and best[0] <= 0.1 * target:
            break
    if best is None or not math.isfinite(best[1]):
        value, err = _euler_fallback(terms)
        return QuadratureResult(head + value, head_err + err, len(terms), "accelerated")
    return QuadratureResult(head + best[1], head_err + best[0], best[2], "accelerated")


_PARITY_PROBES = (0.6180339887498949, 1.7320508075688772, 2.23606797749979, 3.7416573867739413)


def integrate_real_line(f, plan=None):
    """Real-line integral: probes parity first (library evaluators are
    bitwise parity-faithful), integrating even integrands as twice the
    half-line and odd ones as exactly zero; otherwise both half-lines are
    composed from a finite adaptive part plus an oscillatory tail."""
    if plan is None:
        plan = real_line_plan()
    if plan.strategy[0] == "oscillatory":
        period = plan.strategy[1]
        split = plan.strategy[2]
        max_cells = plan.strategy[3]
    else:
        period, split, max_cells = math.pi, 40.0, 60
    even = all(f(-p) == f(p) for p in _PARITY_PROBES)
    odd = not even and all(f(-p) == -f(p) for p in _PARITY_PROBES)
    if odd:
        return QuadratureResult(0.0, 0.0, 0, "converged")

    def half_line(g):
        fin = integrate_finite(g, 0.0, split, finite_plan(0.0, split, plan.target_abs / 4, plan.target_rel / 4))
        tail = integrate_oscillatory(
            g, split, period, oscillatory_plan(period, split, max_cells, plan.target_abs / 4, plan.target_rel / 4)
        )
        return fin, tail

    if even:
        fin, tail = half_line(f)
        return QuadratureResult(
            2.0 * (fin.value + tail.value),
            2.0 * (fin.error_estimate + tail.error_estimate),
            fin.cells_or_nodes + tail.cells_or_nodes,
            "accelerated",
        )
    fin_p, tail_p = half_line(f)
    fin_m, tail_m = half_line(lambda u: f(-u))
    return QuadratureResult(
        fin_p.value + tail_p.value + fin_m.value + tail_m.value,
        fin_p.error_estimate + tail_p.error_estimate + fin_m.error_estimate + tail_m.error_estimate,
        fin_p.cells_or_nodes + tail_p.cells_or_nodes + fin_m.cells_or_nodes + tail_m.cells_or_nodes,
        "accelerated",
    )
