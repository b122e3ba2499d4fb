"""Independent reference values for the benchmark's ops.

Everything here is computed from the plain-data specs in workloads.py with
NumPy alone; nothing calls into the library.  Closed forms are used where
they exist:

* PowerOrlicz a t^r on decreasing values v_i with weight masses m_i, with
  S = sum v_i^r m_i:  Luxemburg (a S)^(1/r), Amemiya r/(r-1) (a S (r-1))^(1/r).
* The level function is the slope of the least concave majorant of the
  cumulative (W, H) graph, found here with a monotone-chain upper hull (the
  library uses a stack merge, the verify suite a greedy chord search).  The
  dual norms are the primal norms of the conjugate on (ratio, mass) blocks.
* theta of the catalog profiles: a / (1 - beta) for ExpOrlicz on a
  LogTailProfile against a weight ~ t^-beta near 0, and 0 where the modular
  is finite at every scale.

Otherwise a norm is a bracketed root (Luxemburg) or a golden-section minimum
(Amemiya) of a modular evaluated here.  Profile modulars are integrated by
composite Gauss-Legendre rules after a log substitution; sequence tails are
summed to 50 000 terms and the rest integrated.
"""

import math

import numpy as np

LUX_RTOL = 1e-8
PROFILE_RTOL = 1e-6
LEVEL_RTOL = 1e-9
THETA_REL_TOL = 1e-3          # the library default for theta

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_SEQ_HEAD = 50_000


# ---------------------------------------------------------------------------
# Orlicz functions and conjugates

def phi_value(spec, t):
    t = np.asarray(t, dtype=float)
    family = spec[0]
    with np.errstate(over="ignore", invalid="ignore"):
        if family == "power":
            return spec[2] * t ** spec[1]
        if family == "exp":
            return np.expm1(t) - t
        if family == "log":
            return (1.0 + t) * np.log1p(t) - t
        if family == "flat_zero":
            c = spec[1]
            fc = math.exp(-1.0 / c)
            pc = fc / c**2
            curv = fc * (1.0 - 2.0 * c) / c**4
            with np.errstate(divide="ignore"):
                head = np.exp(-1.0 / np.maximum(t, 1e-300))
            d = t - c
            return np.where(t <= c, head, fc + pc * d + 0.5 * curv * d * d)
        if family == "tabulated":
            ts = np.array([k[0] for k in spec[1]])
            ys = np.array([k[1] for k in spec[1]])
            last = (ys[-1] - ys[-2]) / (ts[-1] - ts[-2])
            return np.where(t <= ts[-1], np.interp(t, ts, ys),
                            ys[-1] + last * (t - ts[-1]))
    raise ValueError(family)


def phi_slope(spec, t):
    t = np.asarray(t, dtype=float)
    family = spec[0]
    if family == "flat_zero":
        c = spec[1]
        fc = math.exp(-1.0 / c)
        safe = np.maximum(t, 1e-300)
        with np.errstate(over="ignore", divide="ignore"):
            head = np.exp(-1.0 / safe) / safe**2
        return np.where(t <= c, head,
                        fc / c**2 + fc * (1.0 - 2.0 * c) / c**4 * (t - c))
    raise ValueError(family)


def conjugate_spec(spec):
    """Spec of the convex conjugate: sup_t (s t - phi(t))."""
    family = spec[0]
    if family == "power":
        r, a = spec[1], spec[2]
        return ("power", r / (r - 1.0),
                (1.0 - 1.0 / r) * (a * r) ** (-1.0 / (r - 1.0)))
    if family == "exp":
        return ("log",)
    if family == "log":
        return ("exp",)
    if family == "flat_zero":
        return ("conjugate_of", spec)
    raise ValueError(family)


def orlicz_value(spec, t):
    if spec[0] != "conjugate_of":
        return phi_value(spec, t)
    # the slope of flat_zero is continuous and increasing: solve
    # phi'(u) = s by bisection in log u, then s u - phi(u)
    base = spec[1]
    s = np.asarray(t, dtype=float)
    lo = np.full(s.shape, math.log(1e-6))
    hi = np.full(s.shape, math.log(1e12))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = phi_slope(base, np.exp(mid)) < s
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    u = np.exp(hi)
    return np.where(s > 0.0, s * u - phi_value(base, u), 0.0)


# ---------------------------------------------------------------------------
# layouts: decreasing values with their weight masses

def seq_weights(spec, n):
    i = np.arange(1, n + 1, dtype=float)
    kind = spec[0]
    if kind == "harmonic":
        return 1.0 / i
    if kind == "power_seq":
        return i ** (-spec[1])
    if kind == "constant":
        return np.full(n, spec[1])
    if kind == "explicit":
        head = np.asarray(spec[1], dtype=float)
        idx = np.minimum(np.arange(n), head.size - 1)
        return head[idx]
    raise ValueError(kind)


def step_cumulative(pieces, t):
    """W(t) of a StepWeight given as (length, level) pieces."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    start = 0.0
    for length, level in pieces:
        out += level * np.clip(t - start, 0.0, length)
        start += length
    return out


def step_level(pieces, t):
    t = np.asarray(t, dtype=float)
    ends = np.cumsum([p[0] for p in pieces])
    levels = np.array([p[1] for p in pieces])
    idx = np.minimum(np.searchsorted(ends, t, side="right"), levels.size - 1)
    return levels[idx]


def step_breakpoints(pieces):
    edges = np.cumsum([p[0] for p in pieces[:-1]])
    return [float(e) for e in edges if math.isfinite(e)]


def canonical(values, measures):
    """Decreasing positive values; equal step values merge their measure."""
    mags = np.abs(np.asarray(values, dtype=float))
    if measures is None:
        v = np.sort(mags[mags > 0.0])[::-1]
        return v, None
    keep = mags > 0.0
    mags, meas = mags[keep], np.asarray(measures, dtype=float)[keep]
    uniq, inverse = np.unique(mags, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, meas)
    return uniq[::-1], merged[::-1]


def layout(ref):
    """(values, weight masses) of the rearranged element."""
    v, meas = canonical(ref["values"], ref["measures"])
    if meas is None:
        return v, seq_weights(ref["weight"], v.size)
    cuts = np.concatenate(([0.0], np.cumsum(meas)))
    return v, np.diff(step_cumulative(ref["weight"][1], cuts))


def refined_pieces(ref):
    """(h masses, w masses, right edges) of h* split at weight breakpoints.

    Sequence pieces are the positions 1..n; their right edges are indices.
    """
    v, meas = canonical(ref["values"], ref["measures"])
    if meas is None:
        return v, seq_weights(ref["weight"], v.size), np.arange(1, v.size + 1.0)
    cuts = np.cumsum(meas)
    total = float(cuts[-1])
    bps = [b for b in step_breakpoints(ref["weight"][1]) if b < total]
    edges = np.unique(np.concatenate((cuts, bps)))
    lefts = np.concatenate(([0.0], edges[:-1]))
    which = np.searchsorted(cuts, 0.5 * (lefts + edges), side="right")
    h = v[which] * (edges - lefts)
    w = np.diff(step_cumulative(ref["weight"][1],
                                np.concatenate(([0.0], edges))))
    return h, w, edges


def concave_majorant(h, w):
    """Vertex indices of the least concave majorant of (W_k, H_k), k=0..n.

    Collinear points are dropped, so tied ratios share one block.
    """
    H = np.concatenate(([0.0], np.cumsum(h)))
    W = np.concatenate(([0.0], np.cumsum(w)))
    hull = [0]
    for i in range(1, H.size):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (H[b] - H[a]) * (W[i] - W[a]) <= (H[i] - H[a]) * (W[b] - W[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    idx = np.array(hull)
    ratios = np.diff(H[idx]) / np.diff(W[idx])
    masses = np.diff(W[idx])
    return idx, ratios, masses


def level_blocks(ref):
    """Per refined piece, the level ratio of its block, plus the edges."""
    h, w, edges = refined_pieces(ref)
    idx, ratios, masses = concave_majorant(h, w)
    per_piece = np.repeat(ratios, np.diff(idx))
    return per_piece, edges, ratios, masses


# ---------------------------------------------------------------------------
# norms of a layout

def modular(spec, values, masses, c):
    terms = orlicz_value(spec, c * values) * masses
    with np.errstate(invalid="ignore"):
        total = float(np.sum(terms))
    return total if math.isfinite(total) else math.inf


def gauge(modular_at):
    """inf{eps : modular_at(1/eps) <= 1}, bisection in log eps."""
    lo, hi = -1.0, 1.0
    while modular_at(math.exp(-hi)) > 1.0:
        lo, hi = hi, 2.0 * hi
    while modular_at(math.exp(-lo)) <= 1.0:
        lo, hi = 2.0 * lo if lo < 0 else -1.0, lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-15:
            break
        if modular_at(math.exp(-mid)) <= 1.0:
            hi = mid
        else:
            lo = mid
    return math.exp(hi)


def amemiya(modular_at, lo=-70.0, hi=70.0):
    """min over k of (1 + modular_at(k)) / k; the objective is unimodal in
    k for convex phi, so golden section in log k finds it."""
    def g(x):
        k = math.exp(x)
        m = modular_at(k)
        return (1.0 + m) / k if math.isfinite(m) else math.inf

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - inv * (b - a), a + inv * (b - a)
    f1, f2 = g(x1), g(x2)
    for _ in range(300):
        if b - a < 1e-13:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = g(x2)
    return min(f1, f2)


def layout_norms(spec, values, masses):
    """(Luxemburg, Amemiya) norms of a layout under the Orlicz spec."""
    if spec[0] == "power":
        r, a = spec[1], spec[2]
        s = float(np.sum(values ** r * masses))
        return ((a * s) ** (1.0 / r),
                r / (r - 1.0) * (a * s * (r - 1.0)) ** (1.0 / r))
    return (gauge(lambda c: modular(spec, values, masses, c)),
            amemiya(lambda k: modular(spec, values, masses, k)))


# ---------------------------------------------------------------------------
# profiles

def _level_measure(spec, lam):
    if spec[0] == "log_tail":
        return 1.0 / math.expm1(lam / spec[1])
    if spec[0] == "power_tail":
        return (spec[2] / lam) ** (1.0 / spec[1])
    raise ValueError(spec[0])


def _base_value(spec, t):
    with np.errstate(divide="ignore", over="ignore"):
        if spec[0] == "log_tail":
            return spec[1] * np.log1p(1.0 / t)
        return spec[2] * t ** (-spec[1])


def profile_rearranged(prof, remainder=None):
    """(f*, support end, kinks) of a function profile spec."""
    if prof[0] == "band":
        base, lower, upper = prof[1], prof[2], prof[3]
        head = _level_measure(base, upper)
        end = _level_measure(base, lower) - head
        return (lambda t: np.where(t < end, _base_value(base, t + head), 0.0),
                end, [])
    if remainder is not None:
        head = _level_measure(prof, float(remainder))
        gap = _level_measure(prof, 1.0 / remainder) - head
        return (lambda t: _base_value(prof, np.where(t < head, t, t + gap)),
                math.inf, [head])
    return (lambda t: _base_value(prof, t)), math.inf, []


def _weight_function(spec):
    if spec[0] == "power":
        beta = spec[1]
        return (lambda t: t ** (-beta)), []
    pieces = spec[1]
    return (lambda t: step_level(pieces, t)), step_breakpoints(pieces)


def _gl_nodes(edges, width):
    """Nodes and weights of a composite 20-point Gauss-Legendre rule."""
    xs, ws = [], []
    for a, b in zip(edges, edges[1:]):
        k = max(1, int(math.ceil((b - a) / width)))
        cuts = np.linspace(a, b, k + 1)
        half = 0.5 * np.diff(cuts)
        mids = 0.5 * (cuts[1:] + cuts[:-1])
        xs.append((mids[:, None] + half[:, None] * _GL_X).ravel())
        ws.append((half[:, None] * _GL_W).ravel())
    return np.concatenate(xs), np.concatenate(ws)


class ProfileModular:
    """rho(c f) for a profile, with f and the quadrature fixed once."""

    def __init__(self, ref):
        phi, weight, prof = ref["phi"], ref["weight"], ref["profile"]
        self.phi = phi
        m = ref.get("remainder")
        if prof[0] in ("log_seq_tail", "power_seq_tail"):
            self._init_sequence(prof, weight, m or 0)
        else:
            self._init_function(prof, weight, m)

    def _init_function(self, prof, weight, m):
        fstar, end, kinks = profile_rearranged(prof, m)
        wfun, bps = _weight_function(weight)
        top = math.log(end) if math.isfinite(end) else 60.0
        feats = sorted({-400.0, 0.0, top}
                       | {math.log(b) for b in list(bps) + kinks if b > 0})
        feats = [x for x in feats if x <= top]
        x, wq = _gl_nodes(feats, 0.5)
        t = np.exp(x)
        self.values = fstar(t)
        self.masses = wq * wfun(t) * t

    def _init_sequence(self, prof, weight, shift):
        i = np.arange(1, _SEQ_HEAD + 1, dtype=float)
        beta = 1.0 if weight[0] == "harmonic" else weight[1]
        if prof[0] == "log_seq_tail":
            a = prof[1]
            head_v = a / np.log1p(i + shift)
            # x = exp(y0 e^s): algebraic decay in y needs a second log
            y0 = math.log(_SEQ_HEAD + 0.5)
            s, ws = _gl_nodes([0.0, 120.0], 0.5)
            y = y0 * np.exp(s)
            tail_v = a / (y + np.log1p((shift + 1.0) * np.exp(-y)))
            tail_m = ws * y * np.exp((1.0 - beta) * y)
        else:
            e, a = prof[1], prof[2]
            head_v = a * (i + shift) ** (-e)
            y0 = math.log(_SEQ_HEAD + 0.5)
            y, ws = _gl_nodes([y0, y0 + 400.0], 0.5)
            tail_v = a * np.exp(-e * y) * (1.0 + shift * np.exp(-y)) ** (-e)
            tail_m = ws * np.exp((1.0 - beta) * y)
        self.values = np.concatenate((head_v, tail_v))
        self.masses = np.concatenate((i ** (-beta), tail_m))

    def __call__(self, c):
        return modular(self.phi, self.values, self.masses, c)


def profile_theta(ref):
    prof, phi, weight = ref["profile"], ref["phi"], ref["weight"]
    if prof[0] == "log_tail" and phi[0] == "exp":
        beta = weight[1] if weight[0] == "power" else 0.0
        return prof[1] / (1.0 - beta)
    return 0.0


# ---------------------------------------------------------------------------
# checks

def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _close(name, got, want, rtol):
    if not (isinstance(got, float) and math.isfinite(got)):
        return f"{name}: got {got!r}, want {want!r}"
    if rel(got, want) > rtol:
        return f"{name}: got {got!r}, want {want!r} (rel {rel(got, want):.2e})"
    return None


def check_finite(kind, ref, result):
    """None when the result of a finite-element op matches its reference.

    result is a float, or for "level" a sequence of (lower, upper, ratio,
    ...) intervals, or for "k_interval" a (lower, upper, attained norm)
    triple.
    """
    if kind == "level":
        per_piece, edges, _, _ = level_blocks(ref)
        uppers = np.array([iv[1] for iv in result])
        ratios = np.array([iv[2] for iv in result])
        lefts = np.concatenate(([0.0], edges[:-1]))
        mids = 0.5 * (lefts + edges)
        pos = np.searchsorted(uppers, mids, side="right")
        if uppers.size == 0 or pos.max() >= uppers.size:
            return "level: intervals do not cover the support"
        worst = float(np.max(np.abs(ratios[pos] - per_piece)
                             / np.maximum(per_piece, 1e-300)))
        if worst > LEVEL_RTOL:
            return f"level: ratio mismatch {worst:.2e}"
        return None
    spec = ref["phi"]
    if ref.get("dual"):
        _, _, ratios, masses = level_blocks(ref)
        lux, ame = layout_norms(conjugate_spec(spec), ratios, masses)
        if kind == "dual_luxemburg":
            return _close(kind, result, lux, LUX_RTOL)
        return _close(kind, result, ame, LUX_RTOL)
    values, masses = layout(ref)
    lux, ame = layout_norms(spec, values, masses)
    if kind == "luxemburg":
        return _close(kind, result, lux, LUX_RTOL)
    if kind == "amemiya":
        return _close(kind, result, ame, LUX_RTOL)
    if kind == "k_interval":
        lower, upper, attained = result
        bad = _close("k_interval.attained_norm", attained, ame, LUX_RTOL)
        if bad:
            return bad
        # both ends come from bisections stopped at abs 1e-12 / rel 1e-13,
        # so a one-point interval may come back inverted by that much
        slack = 2.0 * max(1e-12, 1e-13 * abs(upper))
        if not (lower > 0.0 and lower <= upper + slack):
            return f"k_interval: bad interval {result!r}"
        for k in (lower, upper):
            value = (1.0 + modular(spec, values, masses, k)) / k
            bad = _close("k_interval.objective", value, ame, 1e-7)
            if bad:
                return bad
        return None
    raise ValueError(kind)


def check_profile(kind, ref, result):
    if kind == "theta":
        want = profile_theta(ref)
        if want == 0.0:
            return None if result == 0.0 else f"theta: got {result!r}, want 0"
        if not (isinstance(result, float)
                and abs(result / want - 1.0) <= 5.0 * THETA_REL_TOL):
            return f"theta: got {result!r}, want {want!r} within 5 rel_tol"
        return None
    rho = ProfileModular(ref)
    if kind == "rho":
        return _close(kind, result, rho(1.0), PROFILE_RTOL)
    if kind in ("luxemburg", "remainder"):
        return _close(kind, result, gauge(rho), PROFILE_RTOL)
    if kind == "amemiya":
        return _close(kind, result, amemiya(rho), PROFILE_RTOL)
    raise ValueError(kind)
