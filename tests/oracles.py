"""Independent brute-force reference implementations used by the tests.

Everything here favors obviousness over speed: plain Python loops, full
agent-history scans, pairwise sums. These stay deliberately separate from
the library code paths they check.
"""

import math

import numpy as np


def durations_by_scan(poor):
    """Consecutive-poor run lengths via a per-agent walk."""
    n, t = poor.shape
    out = np.zeros((n, t), dtype=int)
    for i in range(n):
        run = 0
        for j in range(t):
            run = run + 1 if poor[i, j] else 0
            out[i, j] = run
    return out


def transition_counts(poor, j):
    """Counts at column j (needs j >= 1): scans every agent history."""
    n = poor.shape[0]
    n_in = n_out = n_p_prev = n_p_cur = 0
    for i in range(n):
        if poor[i, j - 1]:
            n_p_prev += 1
            if not poor[i, j]:
                n_out += 1
        elif poor[i, j]:
            n_in += 1
        if poor[i, j]:
            n_p_cur += 1
    return dict(n_in=n_in, n_out=n_out, n_p_prev=n_p_prev, n_p_cur=n_p_cur,
                n_np_prev=n - n_p_prev, n_np_cur=n - n_p_cur)


def transition_probs(poor, j):
    c = transition_counts(poor, j)
    def ratio(a, b):
        return a / b if b > 0 else float("nan")
    return (ratio(c["n_in"], c["n_p_cur"]),
            ratio(c["n_out"], c["n_p_prev"]),
            ratio(c["n_in"] + c["n_out"], c["n_p_cur"] + c["n_p_prev"]))


def persistence_probs(poor, j, t_p, dur=None):
    """(p_esc, p_stic) at column j via full history scans; ``dur``, if
    given, is ``durations_by_scan(poor)``, scanned once by the caller."""
    if dur is None:
        dur = durations_by_scan(poor)
    n = poor.shape[0]
    n_esc = n_stick = n_np_cur = n_p_cur = 0
    for i in range(n):
        long_spell = poor[i, j - 1] and dur[i, j - 1] >= t_p
        if poor[i, j]:
            n_p_cur += 1
            if long_spell:
                n_stick += 1
        else:
            n_np_cur += 1
            if long_spell:
                n_esc += 1
    p_esc = n_esc / n_np_cur if n_np_cur > 0 else float("nan")
    p_stic = n_stick / n_p_cur if n_p_cur > 0 else float("nan")
    return p_esc, p_stic


def pooled_counts(poor, first_j, last_j, t_p, dur=None):
    """Summed numerators/denominators over columns first_j..last_j;
    ``dur`` as in :func:`persistence_probs`."""
    if dur is None:
        dur = durations_by_scan(poor)
    n = poor.shape[0]
    sums = dict(n_in=0, n_out=0, n_p_prev=0, n_p_cur=0, n_np_cur=0,
                n_esc=0, n_stick=0)
    for j in range(first_j, last_j + 1):
        for i in range(n):
            long_spell = poor[i, j - 1] and dur[i, j - 1] >= t_p
            if poor[i, j - 1] and not poor[i, j]:
                sums["n_out"] += 1
            if not poor[i, j - 1] and poor[i, j]:
                sums["n_in"] += 1
            sums["n_p_prev"] += poor[i, j - 1]
            sums["n_p_cur"] += poor[i, j]
            sums["n_np_cur"] += not poor[i, j]
            if long_spell and poor[i, j]:
                sums["n_stick"] += 1
            if long_spell and not poor[i, j]:
                sums["n_esc"] += 1
    return sums


def gini_pairwise(values):
    """Mean absolute difference over every ordered pair / (2 * mean)."""
    x = list(map(float, values))
    n = len(x)
    total = sum(x)
    acc = 0.0
    for a in x:
        for b in x:
            acc += abs(a - b)
    return acc / (2.0 * n * n * (total / n))


def bottom_share_sorted(values, fraction):
    """Sort-based bottom share (module uses a partition)."""
    xs = sorted(map(float, values))
    k = math.floor(fraction * len(xs))
    return sum(xs[:k]) / sum(xs)


def lognormal_sigma_by_bisection(target, tol=1e-12):
    """Solve Phi(-s) = target for s using only the normal CDF."""
    from scipy.special import ndtr
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ndtr(-mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def step_closed_form(x, mu, dt, tau):
    """Noise-free update: the two-line formula for sigma = 0."""
    x = np.asarray(x, dtype=float)
    m = x.mean()
    return x + x * (mu * dt) - tau * dt * (x - m)
