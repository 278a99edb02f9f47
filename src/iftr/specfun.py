"""Self-contained special-function kernels.

Covers exactly what the fading statistics need, each as a logarithm:
Gauss 2F1 (real arguments in (-inf, 1) plus the complex off-cut values met
on Bromwich contours), the integer-order Kummer 1F1(m; 1; z) finite sum,
the modified Bessel function I0, the three-argument Lauricella F_D
evaluated through its one-dimensional Euler integral, and the trapezoid
engine over theta in [0, pi/2] that integrates it (and the BER integrals).

Series are summed with dynamic rescaling so intermediate overflow cannot
occur even when the function value itself only makes sense combined with
tiny prefactors.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "hyp2f1_ln",
    "kummer_1f1_ln",
    "log_i0",
    "lauricella_fd3_ln",
    "theta_quadrature_ln",
]


class ConvergenceError(ArithmeticError):
    """A series or quadrature failed to converge within its node budget."""


_MAX_SERIES_TERMS = 500_000
# Settle checks after which a settling entry re-arms the series' settle gate.
_REARM_AFTER = 8
_RESCALE_LIMIT = 1e250
_RESCALE_LOG = math.log(_RESCALE_LIMIT)


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0.0 and abs(x - round(x)) < 1e-12


def _series_2f1_ln(a: float, b: float, c: float, z: np.ndarray) -> np.ndarray:
    """log of sum_n (a)_n (b)_n / ((c)_n n!) z^n for a flat complex array z.

    Accumulates with dynamic rescaling; raises ConvergenceError if any entry
    fails to settle within ``_MAX_SERIES_TERMS``.  Hopeless arguments (the
    geometric tail alone would need more than the budget) fail fast instead
    of iterating.

    An entry settles after two consecutive terms of at most 1e-17 |sum|;
    its log is written out then, and the entry leaves the working arrays
    once half of them have settled, so later terms cost only about the
    entries still open.  Each entry sees the same operations whichever
    entries share its call.

    The settle and rescale checks are skipped while Python-float majorants
    show they cannot fire (Johansson, "Computing hypergeometric functions
    rigorously", ACM TOMS 2019, bounds series tails the same way).  With
    P_n = prod_{k<n} |coef_k| the term magnitudes at |z| = r are r^n P_n,
    so every entry has |term_n| / |sum_n| >= r^n P_n / sum_{k<=n} r^k P_k,
    a bound that grows with r.  At r_lo = min |z| it holds for every
    entry: while it exceeds 2e-17 (twice the settle threshold, far beyond
    the rounding of either side, ~1e-10 relative within the term budget)
    no entry can settle.  At r_hi = max |z| the majorant sum bounds every
    |term| and |sum|: while it stays below 1e-2 ``_RESCALE_LIMIT`` no entry
    can need a rescale.  Each gate stays shut until its bound fails (or
    its majorant turns inf or NaN).  Both restart from the current term,
    with q_j the coefficient-modulus product since: the settle gate
    when settled entries leave the arrays, or settle after at least
    ``_REARM_AFTER`` checks, from r_lo and rho = max |sum| / |term| over
    the open ones (none can settle while
    r_lo^j q_j exceeds 2e-17 (rho + sum_{i<=j} r_lo^i q_i)), and the
    rescale gate after every rescale check that rescaled nothing, from the
    largest |sum| and |term| (max |sum| + max |term| sum_{i<=j} r_hi^i q_i
    bounds every later |sum|).  So the long tails of the entries near
    |z| = 1 mostly pay for the settle check alone.  The skipped checks
    would have found nothing, so the results are bit-identical to checking
    every term.  A lone entry takes the same loop as any batch.
    """
    out = np.empty(z.shape, dtype=complex)
    if not z.size:
        return out
    abs_z = np.abs(z)
    r_lo = float(abs_z.min())
    r_hi = float(abs_z.max())
    if not (_is_nonpositive_int(a) or _is_nonpositive_int(b)):
        needed = (40.0 + max(0.0, a + b - c)) / max(1.0 - r_hi, 1e-300)
        if r_hi >= 1.0 or needed > _MAX_SERIES_TERMS:
            raise ConvergenceError(
                f"2F1 series needs ~{needed:.3g} terms for |z|={r_hi:.6g} "
                f"(budget {_MAX_SERIES_TERMS}; a={a}, b={b}, c={c})"
            )
    idx = np.arange(z.size)
    s = np.ones(z.shape, dtype=complex)
    term = np.ones(z.shape, dtype=complex)
    log_scale = np.zeros(z.shape, dtype=float)
    prev_small = np.zeros(z.shape, dtype=bool)
    is_open = np.ones(z.shape, dtype=bool)
    n_open = z.size
    # Majorant term and sum at r_lo and at r_hi (see the docstring); an inf
    # or NaN majorant fails its comparison and opens its gate.
    t_lo = s_lo = t_hi = s_hi = 1.0
    settle_gated = rescale_gated = True
    skipped = False
    checked = 0  # settle checks since the settle gate was last re-armed
    for n in range(_MAX_SERIES_TERMS):
        coef = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        # Both products out of place and in this operand order: numpy's
        # in-place paths (`term *= ...` on one entry, or a large temporary
        # reused as the output) round differently from its vector loop.
        ratio = z * coef
        term = term * ratio
        s += term
        if rescale_gated:
            t_hi *= r_hi * abs(coef)
            s_hi += t_hi
            rescale_gated = s_hi < 1e-2 * _RESCALE_LIMIT
        if settle_gated:
            t_lo *= r_lo * abs(coef)
            s_lo += t_lo
            settle_gated = t_lo > 2e-17 * s_lo
        if settle_gated:
            skipped = True
            if rescale_gated:
                continue
        abs_term = np.abs(term)
        abs_s = np.abs(s)
        if not settle_gated:
            if skipped:
                # The skipped term before this one was small nowhere.
                prev_small = np.zeros(z.shape, dtype=bool)
                skipped = False
            checked += 1
            small = abs_term <= 1e-17 * abs_s
            done = small & prev_small if np.count_nonzero(small) else None
            prev_small = small
            if done is not None and np.count_nonzero(done):
                k = np.flatnonzero(done)
                out[idx[k]] = np.log(s[k]) + log_scale[k]
                n_open -= k.size
                if not n_open:
                    return out
                # A settled entry keeps a zero term and a NaN sum, so it
                # never settles again or asks for a rescale.  Compressing
                # only once half the entries have settled keeps the copies
                # from costing more than the terms they save.
                s[k] = np.nan
                term[k] = 0.0
                is_open[k] = False
                abs_z[k] = abs_s[k] = np.nan
                if 2 * n_open <= idx.size:
                    idx, z, s, term, log_scale, prev_small, is_open, abs_term, abs_s, abs_z = (
                        v[is_open]
                        for v in (idx, z, s, term, log_scale, prev_small, is_open, abs_term, abs_s, abs_z)
                    )
                    checked = _REARM_AFTER
                if checked >= _REARM_AFTER:
                    # Re-arm the settle gate for the entries still open; not
                    # after every settle, where entries settle term by term.
                    r_lo = float(np.fmin.reduce(abs_z))
                    with np.errstate(divide="ignore", invalid="ignore"):
                        s_lo = float(np.fmax.reduce(abs_s / abs_term))
                    t_lo = 1.0
                    settle_gated = True
                    checked = 0
        if not rescale_gated:
            # fmax skips the NaN sums of settled entries, as the comparisons below do.
            t_hi = np.fmax.reduce(abs_term)
            s_hi = np.fmax.reduce(abs_s)
            if s_hi > _RESCALE_LIMIT or t_hi > _RESCALE_LIMIT:
                big = (abs_s > _RESCALE_LIMIT) | (abs_term > _RESCALE_LIMIT)
                s[big] /= _RESCALE_LIMIT
                term[big] /= _RESCALE_LIMIT
                log_scale[big] += _RESCALE_LOG
            else:
                t_hi, s_hi = float(t_hi), float(s_hi)
                rescale_gated = s_hi < 1e-2 * _RESCALE_LIMIT
    raise ConvergenceError(
        f"2F1 series did not converge within {_MAX_SERIES_TERMS} terms "
        f"(a={a}, b={b}, c={c}, worst |z|={np.abs(z[is_open]).max():.6g})"
    )


def _log_gamma_signed(x: float) -> complex:
    """log Gamma(x) for real x, as a complex log carrying the sign; +inf at
    the poles x = 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x.is_integer():
        return complex(math.inf)
    # Gamma(x) < 0 exactly where floor(x) is a negative odd integer.
    if x < 0.0 and math.floor(x) % 2:
        return math.lgamma(x) + 1j * math.pi
    return complex(math.lgamma(x))


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0, ..., n - 1."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def _connection_at_one_ln(a, b, c, omz: np.ndarray) -> np.ndarray:
    """log 2F1 via the two-series expansion around z = 1 (|1 - z| small).

    Requires c - a - b away from the integers (the caller guards this);
    both inner series then converge geometrically in 1 - z.
    """
    s1 = _series_2f1_ln(a, b, a + b - c + 1.0, omz)
    s2 = _series_2f1_ln(c - a, c - b, c - a - b + 1.0, omz)
    g1 = (
        _log_gamma_signed(c)
        + _log_gamma_signed(c - a - b)
        - _log_gamma_signed(c - a)
        - _log_gamma_signed(c - b)
    )
    g2 = (
        _log_gamma_signed(c)
        + _log_gamma_signed(a + b - c)
        - _log_gamma_signed(a)
        - _log_gamma_signed(b)
    )
    t1 = g1 + s1
    t2 = g2 + (c - a - b) * np.log(omz) + s2
    shift = np.maximum(t1.real, t2.real)
    return shift + np.log(np.exp(t1 - shift) + np.exp(t2 - shift))


# Euler's transformation 2F1(a, b; c; z) = (1 - z)^(c - a - b) 2F1(c - a,
# c - b; c; z) pays a log(1 - z) per entry (a few direct-series terms on a
# large call) and, on a call it splits, a second series call and the
# routing, which on calls of 16-64 entries outweigh a gain of 8-16 terms.
# Euler's series must settle this many terms sooner.
_EULER_LOG_TERMS = 16
# The route rule tabulates its majorants at r_k = 1 / (1 + 2^-k), so in
# octaves of r / (1 - r), for |k| <= _EULER_GRID_MAX.
_EULER_GRID_MAX = 40
_EULER_NO = 1e300  # a grid excess that no entry can meet
# Allowance on the conditioning guard, in log units: at a real z the two
# sides can be equal, and 1 - |z| and the given 1 - z differ by an ulp; 1 %
# more rounding is immaterial, and a table whose excess stays within it
# spares every entry the guard's arithmetic.
_EULER_GUARD_SLACK = 0.01


def _majorant_point(a: float, b: float, c: float, k: int) -> tuple:
    """``(d, x, short)``: the Euler route's majorant data at r_k.

    Runs, in Python floats, the majorants sum_n r^n P_n of the direct
    series (P_n the product of its coefficient moduli) and of Euler's
    series 2F1(c - a, c - b; c; r), with Euler's signed sum beside them.
    ``d`` is how many terms sooner Euler's majorant settles (the rule of
    ``_series_2f1_ln``), counted up to 2 ``_EULER_LOG_TERMS`` beyond
    Euler's count, and 0 when the direct majorant settles first.  ``x`` is
    log S_e - log S_d - (a + b - c) log(1 - r), the excess conditioning of
    Euler's series over the direct one at a real argument r.  With a, b,
    c > 0 the direct coefficients are positive, so S_d = 2F1(a, b; c; r) =
    (1 - r)^(c - a - b) F_e(r) and ``x`` = log(S_e / F_e(r)) needs Euler's
    loop alone, while that loop keeps six digits of F_e; past that S_d is
    scipy's real 2F1, which does not cancel there.  Otherwise, or when that
    overflows, the direct majorant's partial sum bounds S_d from below, so
    ``x`` errs towards the direct series.  ``short`` says the direct
    majorant settled within ``_EULER_LOG_TERMS + 1`` terms, so no smaller
    radius can gain.
    """
    r = _grid_radius(k)
    log_1mr = -math.log1p(2.0 ** k)
    if 40.0 * (1.0 + 2.0 ** k) > _MAX_SERIES_TERMS:
        return 0.0, _EULER_NO, False  # Euler's own series would give up
    ae, be = c - a, c - b
    positive = a > 0.0 and b > 0.0 and c > 0.0
    td = sd = te = se = fte = fe = 1.0
    log_sd = log_se = 0.0
    nd = ne = 0
    prev_d = prev_e = False
    limit, extra = _RESCALE_LIMIT, 2 * _EULER_LOG_TERMS
    for n in range(_MAX_SERIES_TERMS):
        den = (c + n) * (n + 1.0)
        if not nd:
            td *= r * abs((a + n) * (b + n) / den)
            sd += td
            small = td <= 1e-17 * sd
            if small and prev_d:
                nd = n + 1
            prev_d = small
            if sd > limit:
                td /= limit
                sd /= limit
                log_sd += _RESCALE_LOG
        if not ne:
            coef = r * ((ae + n) * (be + n) / den)
            te *= abs(coef)
            se += te
            fte *= coef
            fe += fte
            small = te <= 1e-17 * se
            if small and prev_e:
                ne = n + 1
            prev_e = small
            if se > limit:
                te /= limit
                se /= limit
                fte /= limit
                fe /= limit
                log_se += _RESCALE_LOG
        elif nd or n + 1 >= ne + extra:
            break
        if nd and not ne:
            return 0.0, _EULER_NO, nd <= _EULER_LOG_TERMS + 1
    else:
        return 0.0, _EULER_NO, False
    d = float((nd or n + 1) - ne)
    if positive and fe >= 1e-6 * se:
        x = math.log(se / fe)
    else:
        if positive and not nd:
            from scipy.special import hyp2f1  # deferred: a rare branch

            f = float(hyp2f1(a, b, c, r))
            if 0.0 < f < math.inf and math.log(f) > log_sd + math.log(sd):
                log_sd, sd = 0.0, f
        x = log_se + math.log(se) - log_sd - math.log(sd) - (a + b - c) * log_1mr
    return d, x, 0 < nd <= _EULER_LOG_TERMS + 1


def _grid_radius(k: int) -> float:
    return 1.0 / (1.0 + 2.0 ** -k)


_GRID_SCALE = 1.0 / math.log(2.0)


def _direct_limit(a: float, b: float, c: float) -> float:
    """The |z| beyond which ``_series_2f1_ln`` gives up on the direct series
    at once; Euler's series takes those entries whatever the grid says."""
    return 1.0 - (40.0 + a + b - c) / _MAX_SERIES_TERMS


# A pass of the benchmark's curves reads 13 tables of 10 shapes, all held
# here.  Each evaluation of a fit is a new shape (its 479 calls read 467
# tables of 459 shapes), so a cache of grid points beside this one would
# spare 8 of the 632 points a fit computes.
@functools.lru_cache(maxsize=128)
def _euler_table(a: float, b: float, c: float, k_hi: int):
    """The Euler route's rule for radii up to r_k_hi: ``(k, gain, excess,
    r_lo)``, or None if Euler's series gains nowhere there.

    Walks down from k_hi to the first grid point whose direct majorant
    settles within ``_EULER_LOG_TERMS + 1`` terms.  N_d only falls with r
    and Euler's count is at least 2, so no grid value below reaches the
    cost, nor does any interpolation between them: the short cut never
    changes a route, and neither does where the walk starts.  ``k`` holds
    the grid abscissae from the point just before the first whose settle
    gain reaches the cost up to k_hi, ``gain`` and ``excess`` their
    ``_majorant_point`` values (None for the excess when it is everywhere
    within the guard's allowance), and ``r_lo`` the radius of the first.
    """
    points = []
    for k in range(k_hi, -_EULER_GRID_MAX - 1, -1):
        points.append(_majorant_point(a, b, c, k))
        if points[-1][2]:
            break
    points.reverse()
    k_lo = k_hi + 1 - len(points)
    first = next((j for j, (d, _, _) in enumerate(points) if d >= _EULER_LOG_TERMS), None)
    if first is None:
        return None
    j = max(first - 1, 0)
    gain, excess, _ = (np.array(v) for v in zip(*points[j:]))
    k = np.arange(k_lo + j, k_hi + 1.0)
    return k, gain, excess if excess.max() > _EULER_GUARD_SLACK else None, _grid_radius(k_lo + j)


def _euler_entries(a, b, c, r, abs_omz, table):
    """Which entries of radius r (and |1 - z| ``abs_omz``) take Euler's
    series, by the ``_euler_table`` rule.

    Euler needs a settle gain of at least ``_EULER_LOG_TERMS`` terms, and
    an excess within the room a complex z leaves it over the real argument
    of the same modulus: (a + b - c) (log|1 - z| - log(1 - |z|)), never
    negative.  Both are read by ``np.interp`` at the grid coordinate
    log2(r / (1 - r)), which holds the end values beyond the table.
    """
    k, gain, excess, _ = table
    log1p_neg_r = np.log1p(-r)
    u = (np.log(r) - log1p_neg_r) * _GRID_SCALE
    fast = np.interp(u, k, gain) >= _EULER_LOG_TERMS
    if excess is None or not fast.any():
        return fast
    i = np.flatnonzero(fast)
    room = (a + b - c) * (np.log(abs_omz[i]) - log1p_neg_r[i])
    fast[i] = np.interp(u[i], k, excess) <= np.maximum(room, 0.0) + _EULER_GUARD_SLACK
    return fast


def _series_or_euler_ln(a, b, c, z, omz, abs_z, abs_omz):
    """log 2F1 for entries inside the unit disc, each summed by the direct
    series or by Euler's, 2F1(c - a, c - b; c; z) (DLMF 15.8.1), by the
    one per-entry route rule: Euler's series when a + b - c > 0 and, by
    the majorants at the entry's |z| (``_euler_table``, ``_euler_entries``),
    it settles at least ``_EULER_LOG_TERMS`` terms sooner and is no worse
    conditioned, log S_e <= log S_d + (a + b - c) log|1 - z| (see
    ``_majorant_point``), or when the direct series would give up at once.
    ``abs_z`` and ``abs_omz`` are |z| and |1 - z|; the table is the one
    for the grid point just above the largest |z|."""
    use_euler = None
    r_hi = float(abs_z.max())
    if a + b - c > 0.0 and r_hi > 0.0:
        use_euler = abs_z > _direct_limit(a, b, c)
        k_hi = _EULER_GRID_MAX
        if r_hi < 1.0:
            u = (math.log(r_hi) - math.log1p(-r_hi)) * _GRID_SCALE
            k_hi = min(max(math.floor(u) + 1, 1 - _EULER_GRID_MAX), _EULER_GRID_MAX)
        table = _euler_table(a, b, c, k_hi)
        if table is not None:
            # Entries past the direct limit already take Euler's series, and
            # the rest have |z| < 1 for the rule's logs.
            i = np.flatnonzero((abs_z > table[3]) & ~use_euler)
            use_euler[i] = _euler_entries(a, b, c, abs_z[i], abs_omz[i], table)
    if use_euler is None or not use_euler.any():
        return _series_2f1_ln(a, b, c, z)
    if use_euler.all():
        return _euler_ln(a, b, c, z, omz)
    out = np.empty(z.shape, dtype=complex)
    out[use_euler] = _euler_ln(a, b, c, z[use_euler], omz[use_euler])
    out[~use_euler] = _series_2f1_ln(a, b, c, z[~use_euler])
    return out


def _pfaff_ln(a, b, c, z, omz):
    """log 2F1 by Pfaff's transformation, with w = z / (z - 1).

    Pfaff's two forms, (1 - z)^(-a) 2F1(a, c - b; c; w) and (1 - z)^(-b)
    2F1(c - a, b; c; w), are Euler transforms of each other, because 1 - w
    = 1 / (1 - z).  So with a >= b (2F1 is symmetric in a and b) this is
    (1 - z)^(-a) times ``_series_or_euler_ln`` at w, whose rule picks the
    form per entry.
    """
    w = -z / omz
    abs_w = np.abs(w)
    if np.any(abs_w > 0.999):
        raise ConvergenceError(
            "Pfaff-transformed 2F1 argument too close to the unit circle "
            f"(worst |w|={abs_w.max():.6g})"
        )
    a, b = max(a, b), min(a, b)
    omw = 1.0 / omz
    return -a * np.log(omz) + _series_or_euler_ln(a, c - b, c, w, omw, abs_w, np.abs(omw))


def _euler_ln(a, b, c, z, omz):
    """log 2F1 by Euler's transformation (DLMF 15.8.1).

    log(1 - z) is taken as log|1 - z| + i arg(1 - z) from real ufuncs, a
    tenth of the cost of numpy's complex log.  The factor (1 - z)^(c - a -
    b) multiplies the relative rounding of 1 - z by |c - a - b|, so while
    |1 - z|^2 is within 1/2 of 1 the log is taken from z itself, as
    log1p(x (x - 2) + y^2) / 2 and atan2(-y, 1 - x) with x + iy = z: a
    1 - z rounded apart from z (the caller's, say) would cost the digits
    the direct series keeps.  Elsewhere, nearer the cut, the given 1 - z
    is the better input.
    """
    x, y = z.real, z.imag
    w = x * (x - 2.0) + y * y  # |1 - z|^2 - 1
    near = np.abs(w) <= 0.5
    log_omz = 0.5 * np.log1p(w) + 1j * np.arctan2(-y, 1.0 - x)
    if not near.all():
        far = ~near
        log_omz[far] = np.log(np.abs(omz[far])) + 1j * np.arctan2(omz.imag[far], omz.real[far])
    return (c - a - b) * log_omz + _series_2f1_ln(c - a, c - b, c, z)


def hyp2f1_ln(a, b, c, z, one_minus_z=None):
    """Principal-branch log of 2F1(a, b; c; z) for scalar parameters.

    ``z`` may be real or complex, scalar or array, anywhere off the branch
    cut [1, inf).  ``one_minus_z`` may be supplied when ``1 - z`` is known
    more accurately than it can be recomputed.

    Re(z) < 0 or |z| > 1 goes through Pfaff's transformation to w = z /
    (z - 1), and |1 - z| < 0.05 otherwise through the expansion around
    z = 1 when c - a - b is not an integer.  Every other entry sums one
    series, at z or at w, picked by one rule (``_series_or_euler_ln``):
    Euler's series where the coefficient-modulus majorants say it settles
    at least ``_EULER_LOG_TERMS`` terms sooner and is no worse conditioned,
    the direct series otherwise; at w the rule picks between Pfaff's two
    forms.  Each entry's route depends on its own z and 1 - z only, never
    on the other entries of the call.
    """
    a = float(a)
    b = float(b)
    c = float(c)
    z_arr = np.asarray(z, dtype=complex)
    # The series' fail-fast test compares NaN as False and would run the
    # whole term budget before giving up.
    if math.isnan(a) or math.isnan(b) or math.isnan(c) or np.isnan(z_arr).any():
        raise ValueError(f"2F1 arguments must not be NaN (a={a}, b={b}, c={c}, or in z)")
    if _is_nonpositive_int(c) and not (
        (_is_nonpositive_int(a) and round(a) > round(c))
        or (_is_nonpositive_int(b) and round(b) > round(c))
    ):
        raise ValueError(f"c={c} is a non-positive integer pole of 2F1")
    flat = z_arr.ravel()
    omz = (
        (1.0 - flat)
        if one_minus_z is None
        else np.asarray(one_minus_z, dtype=complex).ravel()
    )
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        out = _series_2f1_ln(a, b, c, flat)
    else:
        out = _hyp2f1_routed_ln(a, b, c, flat, omz)
    return out.reshape(z_arr.shape) if z_arr.shape else out[0]


def _can_connect(a: float, b: float, c: float) -> bool:
    # The expansion around z = 1 needs c - a - b away from the integers
    # (the log case is not implemented).
    cab = c - a - b
    return abs(cab - round(cab)) > 1e-6


def _hyp2f1_routed_ln(a, b, c, flat, omz):
    out = np.empty(flat.shape, dtype=complex)
    if ((flat.imag == 0.0) & (flat.real >= 1.0)).any():
        raise ValueError("2F1 argument lies on the branch cut [1, inf)")
    abs_z = np.abs(flat)
    abs_omz = np.abs(omz)
    use_pfaff = (flat.real < 0.0) | (abs_z > 1.0)
    use_rule = ~use_pfaff
    # Expansion around z = 1 wherever it applies: geometric in 1 - z, so it
    # replaces tens of thousands of ascending-series terms near the cut.
    use_conn = use_rule & (abs_omz < 0.05) if _can_connect(a, b, c) else None
    if use_conn is not None:
        use_rule &= ~use_conn
    routes = (
        (use_conn, lambda m: _connection_at_one_ln(a, b, c, omz[m])),
        (use_pfaff, lambda m: _pfaff_ln(a, b, c, flat[m], omz[m])),
        (use_rule, lambda m: _series_or_euler_ln(a, b, c, flat[m], omz[m], abs_z[m], abs_omz[m])),
    )
    for mask, route in routes:
        if mask is not None and mask.any():
            if mask.all():  # one route for every entry: no gather or scatter
                return route(slice(None))
            out[mask] = route(mask)
    return out


def _log_sum_exp(log_x, weights=None):
    """``(log|S|, sign(S))`` of S = sum_j weights_j exp(log_x_j) over the
    last axis (unit weights unless ``weights`` is given).

    The shifted form a + log sum_j w_j exp(log_x_j - a), with a the largest
    log_x_j of a nonzero weight, as analysed by Blanchard, Higham & Higham
    (IMA J. Numer. Anal. 41, 2021): no term overflows and none that matters
    underflows.  It agrees with ``scipy.special.logsumexp`` to about 1e-15
    of S, without the array-API dispatch that costs most of that call.
    Weights may be signed; a zero weight drops its term whatever its log.
    A row with no terms, or whose terms cancel exactly, gives (-inf, 0).
    Raises no floating-point warning for any of these.
    """
    log_x = np.asarray(log_x, dtype=float)
    if weights is not None:
        log_x = np.where(weights != 0.0, log_x, -np.inf)
    shift = np.max(log_x, axis=-1, keepdims=True)
    shift[shift == -np.inf] = 0.0
    terms = np.exp(log_x - shift)
    if weights is not None:
        terms = weights * terms
    total = np.sum(terms, axis=-1)
    log_abs = np.log(np.abs(total), out=np.full(total.shape, -np.inf), where=total != 0.0)
    return log_abs + shift[..., 0], np.sign(total)


def kummer_1f1_ln(m: int, z):
    """log of 1F1(m; 1; z) for positive integer m and z >= 0, via

        1F1(m; 1; z) = e^z  sum_{n=0}^{m-1} C(m-1, n) z^n / n!

    computed as a log-sum-exp so arbitrarily large z is safe.  ``z`` may be
    a scalar (float result) or an array (one log-sum-exp over all of it).
    Negative z makes the function oscillate through zero, so no log form
    exists there.
    """
    if m != int(m) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    m = int(m)
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError(f"log form needs z >= 0, got {z.min()}")
    n = np.arange(m)
    log_fact = _log_factorials(m)
    log_binom = log_fact[m - 1] - log_fact - log_fact[::-1]
    # n log z, with the n = 0 term exactly 0 also at z = 0
    log_z = np.log(z, out=np.full(z.shape, -np.inf), where=z > 0.0)[..., None]
    n_log_z = np.multiply(n, log_z, out=np.zeros(z.shape + n.shape), where=n > 0)
    log_sum, _ = _log_sum_exp(log_binom + n_log_z - log_fact)
    out = z + log_sum
    return out if z.ndim else float(out)


# Asymptotic coefficients p_k = prod_{j=1..k} (2j-1)^2 / (k! 8^k) for I0.
_I0_ASYMPTOTIC_ORDER = 22
_I0_P = np.ones(_I0_ASYMPTOTIC_ORDER + 1)
for _k in range(1, _I0_ASYMPTOTIC_ORDER + 1):
    _I0_P[_k] = _I0_P[_k - 1] * (2.0 * _k - 1.0) ** 2 / (8.0 * _k)
_I0_SERIES_RADIUS = 20.0


def _i0_series(z: np.ndarray) -> np.ndarray:
    q = 0.25 * z * z
    term = np.ones(z.shape, dtype=z.dtype)
    s = np.ones(z.shape, dtype=z.dtype)
    for k in range(1, 200):
        term = term * q / (k * k)
        s = s + term
        if np.all(np.abs(term) <= 1e-17 * np.abs(s)):
            break
    return s


def _i0_asymptotic_pieces(z: np.ndarray):
    """(P, Q) tail sums of the large-argument expansion at Re(z) >= 0."""
    inv = 1.0 / z
    p = np.full(z.shape, _I0_P[_I0_ASYMPTOTIC_ORDER], dtype=complex)
    q = p * ((-1.0) ** _I0_ASYMPTOTIC_ORDER)
    for k in range(_I0_ASYMPTOTIC_ORDER - 1, -1, -1):
        p = p * inv + _I0_P[k]
        q = q * inv + _I0_P[k] * ((-1.0) ** k)
    return p, q


def log_i0(z):
    """A logarithm of I0(z) for real or complex z.

    ``exp(log_i0(z)) = I0(z)`` and the real part is log|I0(z)|; the
    imaginary part is not reduced to the principal branch (it tracks
    Im z at large |z|: ``log_i0(1e5j).imag`` is about 1e5).

    Ascending series up to |z| <= 20, large-argument asymptotics beyond,
    including the recessive exponential that matters near the imaginary
    axis.  I0 is even, so the argument is first flipped into Re(z) >= 0.
    """
    z_arr = np.asarray(z, dtype=complex)
    flat = np.where(z_arr.real < 0.0, -z_arr, z_arr).ravel()
    out = np.empty(flat.shape, dtype=complex)
    small = np.abs(flat) <= _I0_SERIES_RADIUS
    if small.any():
        out[small] = np.log(_i0_series(flat[small]))
    big = ~small
    if big.any():
        w = flat[big]
        p, q = _i0_asymptotic_pieces(w)
        sign = np.where(w.imag >= 0.0, 1.0j, -1.0j)
        out[big] = w - 0.5 * np.log(2.0 * math.pi * w) + np.log(p + sign * np.exp(-2.0 * w) * q)
    out = out.reshape(z_arr.shape)
    return out if z_arr.shape else out[()]


_THETA_FIRST_INTERVALS = 16
_THETA_MAX_INTERVALS = 1 << 16
_THETA_CHUNK = 4096


def _theta_nodes(phi, tau):
    """(sin^2, cos^2, log d(theta)/d(phi)) of theta = arctan(tau tan(phi))."""
    s2 = np.sin(phi) ** 2
    c2 = np.cos(phi) ** 2
    den = c2 + tau * tau * s2
    return tau * tau * s2 / den, c2 / den, np.log(tau) - np.log(den)


def _theta_sum_ln(log_f, rows, tau, phi, log_w=None):
    """log of sum_j w_j g_rows(phi_j) over the given phi nodes (unit
    weights unless ``log_w`` is given), in fixed-size chunks so that memory
    stays bounded and a row's sum never depends on how many rows share the
    call."""
    total = np.full(rows.size, -np.inf)
    for lo in range(0, phi.size, _THETA_CHUNK):
        part = slice(lo, lo + _THETA_CHUNK)
        sin2, cos2, log_jac = _theta_nodes(phi[None, part], tau)
        log_g = log_f(rows, sin2, cos2) + log_jac
        if log_w is not None:
            log_g = log_g + log_w[part]
        total = np.logaddexp(total, _log_sum_exp(log_g)[0])
    return total


def theta_quadrature_ln(log_f, n_rows: int, tau=1.0, rtol: float = 1e-10):
    """Log-integrals over theta in [0, pi/2] of a batch of positive integrands.

    ``log_f(rows, sin2, cos2)`` returns the logs of the integrands of the
    rows indexed by ``rows`` at nodes given by sin^2(theta) and
    cos^2(theta), as an array of shape ``(rows.size, nodes)``; ``sin2``
    and ``cos2`` have one row, or one per indexed row when ``tau`` varies
    by row.  Each integrand must be an analytic, even, pi-periodic
    function of theta (a function of sin^2(theta) is).  For such
    integrands the trapezoid rule converges geometrically, and a doubling
    of the nodes that changes the result by ``d`` leaves an error near
    ``d**2``.

    ``tau`` (scalar or one per row) sets the node-clustering change of
    variable theta = arctan(tau tan(phi)), which keeps the integrand
    analytic, even and pi-periodic in phi: tau < 1 crowds the nodes
    towards theta = 0, tau > 1 towards pi/2.  The rule starts from
    16 intervals in phi and doubles, reusing every earlier node; each row
    stops at the first doubling that changes it by at most ``rtol``
    relative and keeps that value, so a row's result never depends on the
    other rows.  Returns ``(log_integral, rel_err)`` with ``rel_err`` the
    last relative change.  Raises :class:`ConvergenceError` when a row is
    still open at the node budget (65,537 nodes).
    """
    if n_rows == 0:
        return np.empty(0), np.empty(0)
    tau = np.broadcast_to(np.asarray(tau, dtype=float).reshape(-1, 1), (n_rows, 1))
    # One row of nodes serves every row when tau is shared.
    shared = bool(np.all(tau == tau[0]))
    out = np.empty(n_rows)
    err = np.empty(n_rows)
    rows = np.arange(n_rows)
    n = _THETA_FIRST_INTERVALS
    h = 0.5 * math.pi / n
    ends = np.zeros(n + 1)
    ends[[0, -1]] = -math.log(2.0)
    log_sum = _theta_sum_ln(log_f, rows, tau[:1] if shared else tau, h * np.arange(n + 1.0), ends)
    log_coarse = math.log(h) + log_sum
    while rows.size:
        if 2 * n > _THETA_MAX_INTERVALS:
            raise ConvergenceError(
                f"theta quadrature did not reach rtol={rtol:g} within "
                f"{n + 1} nodes ({rows.size} of {n_rows} rows open)"
            )
        t = tau[:1] if shared else tau[rows]
        log_sum = np.logaddexp(log_sum, _theta_sum_ln(log_f, rows, t, h * (np.arange(n) + 0.5)))
        n *= 2
        h *= 0.5
        log_fine = math.log(h) + log_sum
        change = np.abs(np.expm1(log_coarse - log_fine))
        done = change <= rtol
        out[rows[done]] = log_fine[done]
        err[rows[done]] = change[done]
        rows, log_sum, log_coarse = rows[~done], log_sum[~done], log_fine[~done]
    return out, err


def lauricella_fd3_ln(a, b1, b2, b3, c, x, y, z):
    """log of F_D^(3)(a; b1, b2, b3; c; x, y, z) for arguments < 1, with
    its relative error estimate.

    Euler integral under t = sin^2(theta):

        Gamma(c) / (Gamma(a) Gamma(c - a)) * integral_0^{pi/2}
            2 sin^(2a-1) cos^(2c-2a-1) prod_i (1 - x_i sin^2)^(-b_i) d(theta),

    through :func:`theta_quadrature_ln`.  ``a - 1/2`` and ``c - a - 1/2``
    must be non-negative integers (the model uses a = 3/2, c = 2), so that
    the integrand is analytic, even and pi-periodic.  The exponents ``b1,
    b2, b3`` may be broadcastable arrays, evaluated in one batch with array
    results; scalars give floats.  Returns ``(log_value, rel_err)``, with
    ``rel_err`` the engine's last relative change.  The engine's node
    clustering follows the extreme arguments, tau = ((1 - min x)(1 - max x))^(-1/4)
    with min x <= 0 <= max x: a large negative argument confines the
    integrand's change to sin^2 ~ 1/|x| near theta = 0, an argument close to
    1 to cos^2 ~ 1 - x near theta = pi/2.
    """
    a = float(a)
    c = float(c)
    e_sin = a - 0.5
    e_cos = c - a - 0.5
    for name, e in (("a - 1/2", e_sin), ("c - a - 1/2", e_cos)):
        if not (e >= 0.0 and e.is_integer()):
            raise ValueError(
                f"{name} must be a non-negative integer (got a={a}, c={c}): only "
                "then is the theta integrand of F_D analytic and periodic"
            )
    args = (float(x), float(y), float(z))
    for x_i in args:
        if x_i >= 1.0:
            raise ValueError(f"arguments must be < 1, got {x_i}")
    b = np.broadcast_arrays(*(np.asarray(b_i, dtype=float) for b_i in (b1, b2, b3)))
    shape = b[0].shape
    cols = [(b_i.reshape(-1, 1), x_i) for b_i, x_i in zip(b, args) if x_i != 0.0 and np.any(b_i != 0.0)]

    def log_f(rows, sin2, cos2):
        with np.errstate(divide="ignore"):
            log_g = np.full(sin2.shape, math.log(2.0))
            if e_sin:
                log_g = log_g + e_sin * np.log(sin2)
            if e_cos:
                log_g = log_g + e_cos * np.log(cos2)
        out = np.broadcast_to(log_g, (rows.size, sin2.shape[1]))
        for b_i, x_i in cols:
            # 1 - x sin^2, written so that it keeps its digits as x -> 1
            out = out - b_i[rows] * np.log(cos2 + (1.0 - x_i) * sin2)
        return out

    tau = ((1.0 - min(0.0, *args)) * (1.0 - max(0.0, *args))) ** -0.25
    log_int, err = theta_quadrature_ln(log_f, int(np.prod(shape)), tau=tau)
    log_pref = math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a)
    out = (log_pref + log_int).reshape(shape)
    if not shape:
        return float(out), float(err[0])
    return out, err.reshape(shape)
