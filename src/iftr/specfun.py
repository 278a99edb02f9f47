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

import math

import numpy as np
from scipy.special import gammaln, gammasgn, xlogy

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

    The settle and rescale checks are skipped while two Python-float
    majorants show they cannot fire (Johansson, "Computing hypergeometric
    functions rigorously", ACM TOMS 2019, bounds series tails the same
    way).  With P_n = prod_{k<n} |coef_k| the term magnitudes at |z| = r
    are r^n P_n, so every entry has |term_n| / |sum_n| >= r^n P_n /
    sum_{k<=n} r^k P_k, a bound that grows with r.  At r_lo = min |z| it
    holds for every entry: while it exceeds 1e-15 (100 times the settle
    threshold, far beyond the rounding of either side) no entry can
    settle.  At r_hi = max |z| the majorant sum bounds every |term| and
    |sum|: while it stays below 1e-2 ``_RESCALE_LIMIT`` no entry can need a
    rescale.  Until either bound fails (or a majorant turns inf or NaN)
    a term costs only its ratio, product and sum; from then on the checks
    run on every term.  The skipped checks would have found nothing, so
    the results are bit-identical to checking every term.

    A call with one entry whose imaginary part is 0.0 (the CDF slope's
    2F1, and any scalar real ``hyp2f1_ln`` on any route) is summed by
    ``_real_series_2f1_ln`` in Python floats, which checks every term
    because a check costs no more than the term.  Numpy's per-term
    dispatch on one-element arrays is most of the cost it saves.  Only
    real arguments qualify: with zero imaginary parts numpy's complex
    products and sums round exactly as float ones do, and a complex
    number divided by a real one is a product with the reciprocal, so the
    float loop rescales its sum and term by ``* (1.0 / _RESCALE_LIMIT)``;
    ``/ _RESCALE_LIMIT`` rounds differently on rare sums.  The two loops
    agree bit for bit, error messages included.
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
    if z.size == 1 and z.imag[0] == 0.0:
        out[0] = _real_series_2f1_ln(a, b, c, float(z.real[0]))
        return out
    idx = np.arange(z.size)
    s = np.ones(z.shape, dtype=complex)
    term = np.ones(z.shape, dtype=complex)
    log_scale = np.zeros(z.shape, dtype=float)
    prev_small = np.zeros(z.shape, dtype=bool)
    is_open = np.ones(z.shape, dtype=bool)
    n_open = z.size
    # Majorant term and sum at r_lo and at r_hi (see the docstring); an inf
    # or NaN majorant fails its comparison and ends the gate.
    t_lo = s_lo = t_hi = s_hi = 1.0
    gated = True
    for n in range(_MAX_SERIES_TERMS):
        coef = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        # Both products out of place and in this operand order: numpy's
        # in-place paths (`term *= ...` on one entry, or a large temporary
        # reused as the output) round differently from its vector loop.
        ratio = z * coef
        term = term * ratio
        s += term
        if gated:
            t_lo *= r_lo * abs(coef)
            s_lo += t_lo
            t_hi *= r_hi * abs(coef)
            s_hi += t_hi
            if t_lo > 1e-15 * s_lo and s_hi < 1e-2 * _RESCALE_LIMIT:
                continue
            gated = False
        abs_term = np.abs(term)
        abs_s = np.abs(s)
        small = abs_term <= 1e-17 * abs_s
        done = small & prev_small
        prev_small = small
        if done.any():
            k = np.flatnonzero(done)
            out[idx[k]] = np.log(s[k]) + log_scale[k]
            n_open -= k.size
            if not n_open:
                return out
            # A settled entry keeps a zero term and a NaN sum, so it never
            # settles again or asks for a rescale.  Compressing only once
            # half the entries have settled keeps the copies from costing
            # more than the terms they save.
            s[k] = np.nan
            term[k] = 0.0
            is_open[k] = False
            if 2 * n_open <= idx.size:
                idx, z, s, term, log_scale, prev_small, is_open, abs_term, abs_s = (
                    v[is_open]
                    for v in (idx, z, s, term, log_scale, prev_small, is_open, abs_term, abs_s)
                )
        # fmax skips the NaN sums of settled entries, as the comparisons below do.
        if np.fmax.reduce(abs_s) > _RESCALE_LIMIT or np.fmax.reduce(abs_term) > _RESCALE_LIMIT:
            big = (abs_s > _RESCALE_LIMIT) | (abs_term > _RESCALE_LIMIT)
            s[big] /= _RESCALE_LIMIT
            term[big] /= _RESCALE_LIMIT
            log_scale[big] += _RESCALE_LOG
    raise ConvergenceError(
        f"2F1 series did not converge within {_MAX_SERIES_TERMS} terms "
        f"(a={a}, b={b}, c={c}, worst |z|={np.abs(z[is_open]).max():.6g})"
    )


def _real_series_2f1_ln(a: float, b: float, c: float, x: float) -> complex:
    """``_series_2f1_ln`` for one real argument, summed in Python floats.

    The same recurrence (in the same operand order), settle rule, rescale
    and term budget as the vector loop, checked on every term; see
    ``_series_2f1_ln`` for why the result is bit-identical.
    """
    s = term = 1.0
    log_scale = 0.0
    prev_small = False
    for n in range(_MAX_SERIES_TERMS):
        coef = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        ratio = x * coef
        term = term * ratio
        s += term
        small = abs(term) <= 1e-17 * abs(s)
        if small and prev_small:
            return np.log(np.complex128(s)) + log_scale
        prev_small = small
        if abs(s) > _RESCALE_LIMIT or abs(term) > _RESCALE_LIMIT:
            s = s * (1.0 / _RESCALE_LIMIT)
            term = term * (1.0 / _RESCALE_LIMIT)
            log_scale += _RESCALE_LOG
    raise ConvergenceError(
        f"2F1 series did not converge within {_MAX_SERIES_TERMS} terms "
        f"(a={a}, b={b}, c={c}, worst |z|={abs(x):.6g})"
    )


def _log_gamma_signed(x: float) -> complex:
    """log Gamma(x) for real non-pole x, as a complex log carrying the sign."""
    if gammasgn(x) < 0.0:
        return gammaln(x) + 1j * math.pi
    return complex(gammaln(x))


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


def hyp2f1_ln(a, b, c, z, one_minus_z=None):
    """Principal-branch log of 2F1(a, b; c; z) for scalar parameters.

    ``z`` may be real or complex, scalar or array, anywhere off the branch
    cut [1, inf).  ``one_minus_z`` may be supplied when ``1 - z`` is known
    more accurately than it can be recomputed.

    Re(z) < 0 or |z| > 1 goes through the Pfaff transformation, |z| <= 0.9
    through the ascending series, and the remaining near-unit annulus
    through Euler's transformation whenever that improves the tail decay.
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
    out = np.empty(flat.shape, dtype=complex)

    on_cut = (flat.imag == 0.0) & (flat.real >= 1.0)
    terminating = _is_nonpositive_int(a) or _is_nonpositive_int(b)
    if on_cut.any() and not terminating:
        raise ValueError("2F1 argument lies on the branch cut [1, inf)")

    if terminating:
        out[:] = _series_2f1_ln(a, b, c, flat)
        return out.reshape(z_arr.shape) if z_arr.shape else out[0]

    use_pfaff = (flat.real < 0.0) | (np.abs(flat) > 1.0)
    rest = ~use_pfaff
    # Expansion around z = 1 wherever it applies: geometric in 1 - z, so it
    # replaces tens of thousands of ascending-series terms near the cut.
    # Needs c - a - b away from the integers (log case not implemented).
    cab = c - a - b
    can_connect = abs(cab - round(cab)) > 1e-6
    if can_connect:
        use_conn = rest & (np.abs(omz) < 0.05)
    else:
        use_conn = np.zeros_like(rest)
    remaining = rest & ~use_conn
    near_one = remaining & (np.abs(flat) > 0.9)
    use_euler = near_one & ((a + b - c) > 0.0)
    use_direct = remaining & ~use_euler

    if use_conn.any():
        out[use_conn] = _connection_at_one_ln(a, b, c, omz[use_conn])
    if use_pfaff.any():
        zp = flat[use_pfaff]
        omzp = omz[use_pfaff]
        w = -zp / omzp
        if np.any(np.abs(w) > 0.999):
            raise ConvergenceError(
                "Pfaff-transformed 2F1 argument too close to the unit circle "
                f"(worst |w|={np.abs(w).max():.6g})"
            )
        if a >= b:
            out[use_pfaff] = -b * np.log(omzp) + _series_2f1_ln(c - a, b, c, w)
        else:
            out[use_pfaff] = -a * np.log(omzp) + _series_2f1_ln(c - b, a, c, w)
    if use_euler.any():
        out[use_euler] = (c - a - b) * np.log(omz[use_euler]) + _series_2f1_ln(
            c - a, c - b, c, flat[use_euler]
        )
    if use_direct.any():
        out[use_direct] = _series_2f1_ln(a, b, c, flat[use_direct])

    return out.reshape(z_arr.shape) if z_arr.shape else out[0]


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
    log_binom = gammaln(m) - gammaln(n + 1) - gammaln(m - n)
    log_sum, _ = _log_sum_exp(log_binom + xlogy(n, z[..., None]) - gammaln(n + 1))
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
    log_pref = gammaln(c) - gammaln(a) - gammaln(c - a)
    out = (log_pref + log_int).reshape(shape)
    if not shape:
        return float(out), float(err[0])
    return out, err.reshape(shape)
