"""Flows n -> complex, their Moebius-weighted average series, decay fits, and
the bilinear (Bourgain-Sarnak-Ziegler) criterion check.

A Flow is a pure vectorized map from index arrays to values with a declared
sup bound, evaluated only through one checked call; its value at n depends
on n alone, bit for bit.  spectral_flow builds a finite-dimensional flow as
a quadratic form in the eigenphase characters e(theta_j n).  average_series
is one moebius.weighted_average call over all its checkpoints, with Flow.at
as f, so each run is evaluated at its squarefree n only, whole, at any
worker count.
"""

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import moebius
from .moebius import MoebiusTable, characters, phase_values

BSZ_PRIME_CAP = 200  # 46 primes, 1035 pair correlations: enough to screen the hypothesis
BOUND_SLACK = 1e-9  # rounding lets computed values pass an exact declared bound by a few ulps
BSZ_BOUND_SLACK = 1e-12  # a declared bound of 1 that was computed may read a few ulps above 1


class FlowEvaluationError(RuntimeError):
    pass


class Flow:
    """Sequence n -> complex with |value| <= declared_bound for 1 <= n <= valid_n.

    values_at maps an int64 index array to the complex values there; it must
    be pure, vectorized and pointwise: values_at(ns)[i] depends only on
    ns[i], bit for bit, whatever the other n, their order or their number
    (moebius.by_row_tiles never gives a matrix-row evaluator one n).  Every
    consumer evaluates through the checked call at(), which enforces the
    domain, the shape, finiteness and the declared bound on the values it
    computes.  average_series asks at() only for the squarefree n, so these
    checks cover exactly the values that enter a Moebius sum.  The keyword
    evaluator is accepted and ignored, for its one caller,
    perfbench/trace_run.py: no value is ever computed through it.
    """

    def __init__(
        self,
        values_at: Callable[[np.ndarray], np.ndarray],
        declared_bound: float,
        label: str,
        valid_n: Optional[int] = None,
        evaluator=None,
    ):
        self.values_at = values_at
        self.declared_bound = declared_bound
        self.label = label
        self.valid_n = valid_n

    def at(self, ns) -> np.ndarray:
        """Checked values at a 1-D int64 index array."""
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size and ns.min() < 1:
            raise ValueError(
                f"flow {self.label!r} is defined for n >= 1, requested n = {ns.min()}"
            )
        if ns.size and self.valid_n is not None and ns.max() > self.valid_n:
            raise ValueError(
                f"flow {self.label!r} is only defined for n <= {self.valid_n}, "
                f"requested n = {ns.max()}"
            )
        vals = np.asarray(self.values_at(ns), dtype=np.complex128)
        if vals.shape != ns.shape:
            raise FlowEvaluationError(
                f"flow {self.label!r} returned {vals.shape} values for {ns.size} indices"
            )
        # one pass: a NaN fails the comparison too, and only then are the
        # non-finite and over-bound values told apart
        if np.all(np.abs(vals) <= self.declared_bound + BOUND_SLACK):
            return vals
        finite = np.isfinite(vals)  # complex: both parts finite
        if not finite.all():
            raise FlowEvaluationError(
                f"flow {self.label!r} produced a non-finite value at "
                f"n = {ns[np.argmin(finite)]}"
            )
        over = np.abs(vals) > self.declared_bound + BOUND_SLACK
        raise FlowEvaluationError(
            f"flow {self.label!r} exceeded its declared bound "
            f"{self.declared_bound:g} at n = {ns[np.argmax(over)]}"
        )


@dataclass(frozen=True)
class AverageSeries:
    """s_N = (1/N) sum_{n<=N} mu(n) f(n) at each checkpoint."""

    label: str
    declared_bound: float
    checkpoints: tuple
    values: np.ndarray
    abs_mu_counts: tuple  # sum_{n<=N} |mu(n)| per checkpoint, exact

    def running_bounds(self) -> np.ndarray:
        """declared_bound * (1/N) sum |mu(n)|, the trivial majorant of |s_N|."""
        counts = np.asarray(self.abs_mu_counts, dtype=np.float64)
        ns = np.asarray(self.checkpoints, dtype=np.float64)
        return self.declared_bound * counts / ns

    def csv_rows(self):
        bounds = self.running_bounds()
        for i, n in enumerate(self.checkpoints):
            v = self.values[i]
            yield (n, v.real, v.imag, abs(v), bounds[i])


CSV_COLUMNS = ("N", "re", "im", "abs", "running_bound")


def average_series(
    flow: Flow,
    table: MoebiusTable,
    checkpoints: Iterable[int],
    *,
    workers: int = 1,
) -> AverageSeries:
    """Moebius-weighted average of a flow at ascending checkpoints, single pass.

    One moebius.weighted_average call at all the checkpoints, which also
    counts the squarefree n up to each: each run is evaluated through
    flow.at at its squarefree n only, and threads take whole runs, so the
    bits are the same for any worker count.
    """
    cps = moebius.checked_checkpoints(table.n_max, checkpoints)
    if flow.valid_n is not None and cps[-1] > flow.valid_n:
        raise ValueError(
            f"flow {flow.label!r} is only defined for n <= {flow.valid_n}, "
            f"requested series up to N = {cps[-1]}"
        )
    values, counts = zip(*moebius.weighted_average(table, cps, flow.at, workers=workers))
    return AverageSeries(
        label=flow.label,
        declared_bound=flow.declared_bound,
        checkpoints=tuple(cps),
        values=np.asarray(values, dtype=np.complex128),
        abs_mu_counts=counts,
    )


def geometric_checkpoints(n_max: int) -> tuple:
    """1000, 1000*sqrt(10), ... rounded, capped at n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = []
    x = 1000.0
    while round(x) < n_max:
        out.append(int(round(x)))
        x *= math.sqrt(10.0)
    out.append(n_max)
    return tuple(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# concrete scalar flows


def rotation_flow(theta: float, label: Optional[str] = None) -> Flow:
    """f(n) = e(theta n)."""
    coeffs = (0.0, float(theta))
    return Flow(
        values_at=lambda ns: phase_values(coeffs, ns),
        declared_bound=1.0,
        label=label or f"rotation(theta={theta!r})",
    )


def constant_flow(value: complex, label: str = "constant") -> Flow:
    value = complex(value)
    return Flow(
        values_at=lambda ns: np.full(ns.shape, value, dtype=np.complex128),
        declared_bound=abs(value),
        label=label,
    )


def spectral_flow(angles, coeffs, *, declared_bound: float, label: str) -> Flow:
    """Flow n -> z(n)^T C conj(z(n)) with z_j(n) = e(angles[j] n) and C = coeffs.

    A finite-dimensional flow takes this form in the eigenbasis of its
    unitary (angles in turns, C a k x k matrix).  The characters come from
    moebius.characters, each phase theta_j n reduced exactly mod 1, so the
    value at n carries no error accumulated over earlier n and costs O(k^2)
    per point.  The rows go through moebius.by_row_tiles, so a call holds
    O(k) temporaries for at most _ROW_TILE n at a time.
    """
    angles = np.asarray(angles, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if angles.ndim != 1 or coeffs.shape != (angles.size, angles.size):
        raise ValueError(
            f"need k angles and a k x k coefficient matrix, got {angles.shape} "
            f"and {coeffs.shape}"
        )

    def form(ns):
        z = characters(angles, ns)
        return ((z @ coeffs) * np.conj(z)).sum(axis=1)

    return Flow(
        values_at=lambda ns: moebius.by_row_tiles(form, ns),
        declared_bound=declared_bound,
        label=label,
    )


# ---------------------------------------------------------------------------
# decay fit


@dataclass(frozen=True)
class DecayFit:
    """Least squares of log |s_N| against log log N: |s_N| ~ C (log N)^-h."""

    C: float
    h: float
    r_squared: float
    n_used: int
    n_zero_dropped: int
    exact_zero: bool = False


def check_fit_checkpoints(checkpoints) -> None:
    """Refuse fewer than 3 checkpoints, or any N <= e, where log log N is undefined."""
    if len(checkpoints) < 3:
        raise ValueError("decay fit needs at least 3 checkpoints")
    if min(checkpoints) <= math.e:
        raise ValueError("decay fit needs checkpoints with log log N defined (N > e)")


def decay_fit(series: AverageSeries) -> DecayFit:
    check_fit_checkpoints(series.checkpoints)
    ns = np.asarray(series.checkpoints, dtype=np.float64)
    mags = np.abs(series.values)
    keep = mags > 0.0
    dropped = int(np.count_nonzero(~keep))
    if not keep.any():
        return DecayFit(
            C=0.0, h=math.inf, r_squared=1.0, n_used=0,
            n_zero_dropped=dropped, exact_zero=True,
        )
    if np.count_nonzero(keep) < 3:
        raise ValueError("decay fit needs at least 3 nonzero checkpoints")
    x = np.log(np.log(ns[keep]))
    y = np.log(mags[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(y - y.mean(), y - y.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        C=float(np.exp(intercept)),
        h=float(-slope),
        r_squared=r2,
        n_used=int(np.count_nonzero(keep)),
        n_zero_dropped=dropped,
    )


# ---------------------------------------------------------------------------
# bilinear criterion


@dataclass(frozen=True)
class BSZReport:
    """Bilinear-criterion audit at level epsilon.

    hypothesis_holds iff every checked prime pair p1 < p2 satisfies
    |sum_{m<=M} f(p1 m) conj(f(p2 m))| <= epsilon M; max_correlation_ratio is
    the largest |sum| / (epsilon M).  mobius_sum_abs = |sum_{n<=N} mu(n) f(n)|
    (unnormalized) and analytic_bound = 2 sqrt(eps log(1/eps)) N.
    """

    epsilon: float
    M: int
    N: int
    prime_cap: int
    prime_pairs_checked: int
    hypothesis_holds: bool
    max_correlation_ratio: float
    mobius_sum_abs: float
    analytic_bound: float

    @property
    def within_analytic_bound(self) -> bool:
        return self.mobius_sum_abs <= self.analytic_bound


def bsz_prime_cap(epsilon: float, M: int, n_max: int) -> int:
    """floor(min(e^(1/eps), BSZ_PRIME_CAP, n_max / M)), the largest prime p
    whose multiples p m, m <= M, the bilinear check reads from a table to
    n_max.  Refuses eps outside (0, 1), and a cap below 3, which leaves no
    prime pair.  The exponent is clipped where it no longer decides the
    minimum, so a small eps cannot overflow exp."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    reach = math.exp(min(1.0 / epsilon, math.log(BSZ_PRIME_CAP) + 1.0))
    cap = int(math.floor(min(reach, float(BSZ_PRIME_CAP), n_max / M)))
    if cap < 3:
        raise ValueError(
            f"the bilinear check needs a prime pair, but its prime cap "
            f"floor(min(e^(1/epsilon), {BSZ_PRIME_CAP}, n_max / M)) is {cap} < 3"
        )
    return cap


def bsz_check(flow: Flow, table: MoebiusTable, epsilon: float, M: int, N: int) -> BSZReport:
    """Check the bilinear hypothesis for a bounded flow and report the
    Moebius-sum bound it buys, over the primes up to
    bsz_prime_cap(epsilon, M, table.n_max).
    """
    if M < 1 or N < 1 or N > table.n_max:
        raise ValueError("need M >= 1 and 1 <= N <= table.n_max")
    if flow.declared_bound > 1.0 + BSZ_BOUND_SLACK:
        raise ValueError("bsz_check requires |f| <= 1 (declared_bound <= 1)")
    cap = bsz_prime_cap(epsilon, M, table.n_max)
    primes = [int(p) for p in moebius.primes_upto(cap)]
    per_prime = {
        p: flow.at(np.arange(1, M + 1, dtype=np.int64) * p) for p in primes
    }
    worst = 0.0
    pairs = 0
    for i, p1 in enumerate(primes):
        for p2 in primes[i + 1 :]:
            corr = complex(np.add.reduce(per_prime[p1] * np.conj(per_prime[p2])))
            worst = max(worst, abs(corr))
            pairs += 1
    ratio = worst / (epsilon * M)
    mob = abs(average_series(flow, table, [N]).values[0]) * N
    bound = 2.0 * math.sqrt(epsilon * math.log(1.0 / epsilon)) * N
    return BSZReport(
        epsilon=epsilon,
        M=M,
        N=N,
        prime_cap=cap,
        prime_pairs_checked=pairs,
        hypothesis_holds=ratio <= 1.0,
        max_correlation_ratio=ratio,
        mobius_sum_abs=float(mob),
        analytic_bound=bound,
    )
