"""Compactly supported smooth test functions with exact derivatives.

The working family is built from polynomial bumps ``(1 - ((x-c)/r)^2)^m``
and plateau bumps with polynomial smoothstep edges.  Every member is stored
piecewise as one term ``P(x) * u(x)^k`` per piece, with ``P`` a
polynomial, ``u(x) = (1 + x^2)^(1/2)`` and ``k`` an integer, which keeps
the family closed under differentiation, scaling, sums of equal powers of
u, and multiplication by ``u`` and ``u^2``: each but the sum maps one
piece's term at a time.  Derivatives are therefore exact (no finite
differencing, no symbolic engine).  Each ``P`` is a 1-d
float64 array of Chebyshev coefficients in its piece's own variable,
worked on by the ``numpy.polynomial.chebyshev`` functions.
"""

import math
from functools import cache, partial

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polyutils as pu


class UnsupportedFamilyError(ValueError):
    """Raised when an exact dyadic root is requested outside the closed family."""


class DerivativeOrderError(ValueError):
    """Raised when a derivative beyond the guaranteed order is requested."""


# max_order sentinel for functions smooth to all orders we ever use
_UNLIMITED = 10**6

_WINDOW = (-1.0, 1.0)


def _memoized(f, key, compute):
    """f's own value for ``key`` in its ``_constants`` table, from
    ``compute()`` on first use."""
    if key not in f._constants:
        f._constants[key] = compute()
    return f._constants[key]


def _domain(lo, hi):
    """The interval that the variable of a piece on [lo, hi] maps onto
    [-1, 1]: the piece itself, or (-1, 1), x itself, on an infinite or empty
    piece.  The local variable avoids the catastrophic coefficient growth of
    global monomial expansions (a plateau edge raised to a power is otherwise
    evaluated with ~1e16-scale cancellation)."""
    if math.isinf(lo) or math.isinf(hi) or hi <= lo:
        return _WINDOW
    return (lo, hi)


def _rebase(c, domain, a, b, window=_WINDOW):
    """The series c in the variable that maps ``domain`` onto ``window``,
    as coefficients in the variable of the piece [a, b]."""
    return Chebyshev(c, domain, window).convert(domain=[a, b]).coef


@cache
def _smoothstep(s):
    """Polynomial S with S(0)=0, S(1)=1 and S', .., S^(s) vanishing at 0 and
    1, in the variable that maps [0, 1] onto [-1, 1]; built once per order
    and read-only, since every plateau of that edge order shares it."""
    S = (Polynomial([0.0, 1.0]) ** s * Polynomial([1.0, -1.0]) ** s).integ()
    coef = (S / S(1.0)).convert(domain=[0.0, 1.0], kind=Chebyshev).coef
    coef.setflags(write=False)
    return coef


def _eval_stacked(plan, domain, x, rows):
    """``rows`` rows at the points x of a piece of that ``_domain``, from one
    series evaluation: P(x) u(x)^k for each live row of a ``_stack_plans``
    plan, +0.0 for every other row."""
    live, C = plan
    v = cheb.chebval(pu.mapdomain(x, domain, _WINDOW), C)
    out = np.zeros((rows, x.size))
    for (row, k, _), vals in zip(live, v):
        out[row] += vals * (1.0 + x * x) ** (0.5 * k) if k else vals
    return out


def _sorted_unique(parts):
    """The distinct values of the concatenated arrays, ascending: what
    ``np.unique`` gives for NaN-free floats (a sort, then a mask of the
    entries that differ from their predecessor), without the ``numpy.ma``
    import that ``np.unique`` makes."""
    vals = np.concatenate(parts)
    vals.sort()
    keep = np.empty(vals.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = vals[1:] != vals[:-1]
    return vals[keep]


class SmoothCompactFunction:
    """Piecewise ``P(x) u(x)^k``: breaks plus one term per piece.

    ``breaks`` are the piece boundaries; ``piece_terms[i]`` holds the term
    ``(k, c)`` valid on ``(breaks[i], breaks[i+1])``, c the Chebyshev
    coefficients of P in the piece's ``_domain`` variable, or None where the
    function is zero, as it is outside ``[breaks[0], breaks[-1]]``.  A
    whole-line function (the weight ``u``) is one piece on breaks
    ``[-inf, inf]``.

    Every value that depends only on the function lives in its one
    ``_constants`` table, keyed by name and arguments: its derivative
    objects, roots, u-weighted products, sup and L2 norms, sampling grids,
    and the (f, n) constants of ``bounds``.
    They live and die with the function.
    """

    def __init__(self, breaks, piece_terms, max_order, power=None):
        self.breaks = np.asarray(breaks, dtype=float)
        self.piece_terms = piece_terms
        self.max_order = max_order
        # (rebuild, integer exponent m, coeff > 0) when an exact power: the
        # function is coeff * rebuild(m), and rebuild(m') gives its other powers
        self.power = power
        self._constants = {}

    # -- basic geometry -------------------------------------------------

    @property
    def support(self):
        """(lo, hi) hull of the support; (-inf, inf) for a whole-line function."""
        return (float(self.breaks[0]), float(self.breaks[-1]))

    @property
    def unbounded(self):
        return math.isinf(self.breaks[0]) or math.isinf(self.breaks[-1])

    # -- evaluation -----------------------------------------------------

    def value(self, x):
        return self.deriv(0, x)

    def deriv(self, j, x):
        """Exact j-th derivative at x (scalar or array): one row of ``derivs``."""
        scalar = np.isscalar(x)
        out = self.derivs((j,), x)[0]
        return float(out[0]) if scalar else out

    def derivs(self, orders, x):
        """Exact f^(j) at the points x for every j in ``orders``, as the rows
        of one array, from one pass over the pieces.

        On each piece, the Chebyshev coefficients of every order stand in
        one array, zero-padded at the high end, and one Clenshaw recursion
        evaluates them all.  Zero padding leaves the recursion's state
        bitwise unchanged, so each row equals the evaluation of its order's
        series alone.
        """
        orders = tuple(orders)
        for j in orders:
            if j > self.max_order:
                raise DerivativeOrderError(
                    f"derivative order {j} exceeds guaranteed order {self.max_order}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        plans = _memoized(self, ("derivs", orders), lambda: self._stack_plans(orders))
        out = np.zeros((len(orders), x.size))
        idx, inside = self._locate(x)
        for i, plan in enumerate(plans):
            mask = inside & (idx == i)
            if plan[0] and np.any(mask):
                domain = _domain(*self.breaks[i:i + 2])
                out[:, mask] = _eval_stacked(plan, domain, x[mask], len(orders))
        return out

    def _locate(self, x):
        """The piece that holds each x, the right-hand one on an interior
        break, and whether x lies in [breaks[0], breaks[-1]] (False for NaN)."""
        return (np.searchsorted(self.breaks[1:-1], x, side="right"),
                (x >= self.breaks[0]) & (x <= self.breaks[-1]))

    def _stack_plans(self, orders):
        """Evaluation plan of every piece over the derivatives of the given
        orders: (row, k, c) for each row whose term is live there, and one
        array ``C[j, i]`` of the coefficients j of the i-th of them,
        zero-padded at the high end."""
        plans = []
        for terms in zip(*(self._derivative_obj(j).piece_terms for j in orders)):
            live = [(row, *t) for row, t in enumerate(terms) if t is not None]
            C = np.zeros((max((c.size for *_, c in live), default=1), len(live)))
            for i, (*_, c) in enumerate(live):
                C[:c.size, i] = c
            plans.append((live, C))
        return plans

    # -- differentiation ------------------------------------------------

    @staticmethod
    def _diff_terms(term, domain):
        # d/dx (P u^k) = (P' u^2 + k x P) u^(k-2), in the piece's variable; a
        # derivative with no nonzero coefficient (of a constant) is None
        k, c = term
        dc = cheb.chebder(c, 1, pu.mapparms(domain, _WINDOW)[1])
        if k != 0:
            x = cheb.chebline(*pu.mapparms(_WINDOW, domain))
            dc, k = cheb.chebadd(cheb.chebmul(dc, _u2_series(domain)),
                                 cheb.chebmul(cheb.chebmul(k, x), c)), k - 2
        return (k, dc) if np.any(dc) else None

    def derivative(self):
        return self._derivative_obj(1)

    def _derivative_obj(self, j):
        # order 0 is self, kept out of ``_constants`` so that a function is
        # freed by reference counting, with its tables
        if j == 0:
            return self

        def compute():
            prev = self._derivative_obj(j - 1)
            return prev._map(self._diff_terms, max(prev.max_order - 1, 0))
        return _memoized(self, ("derivative", j), compute)

    # -- algebra ---------------------------------------------------------

    def _map(self, rule, max_order, power=None):
        """The function on the same breaks whose term on each piece is
        ``rule(term, domain)``, with domain the piece's ``_domain``; a piece
        where the function is zero stays None."""
        return SmoothCompactFunction(
            self.breaks, [None if t is None else rule(t, _domain(*self.breaks[i:i + 2]))
                          for i, t in enumerate(self.piece_terms)],
            max_order, power=power)

    def _pieces_on(self, lo, hi):
        """Term valid on the open interval (lo, hi), its series rebased
        onto it; None where the function is zero."""
        i, inside = self._locate(0.5 * (lo + hi))
        term = self.piece_terms[i] if inside else None
        domain = _domain(*self.breaks[i:i + 2])
        if term is None or domain == (lo, hi):
            return term
        return term[0], _rebase(term[1], domain, lo, hi)

    def add(self, other):
        """Pointwise sum, on the merged breaks of both operands, which must
        be compactly supported and have one power of u on each piece."""
        if self.unbounded or other.unbounded:
            raise ValueError("sum of whole-line functions is not supported")
        breaks = _sorted_unique([self.breaks, other.breaks])
        pieces = [_plus(self._pieces_on(a, b), other._pieces_on(a, b))
                  for a, b in zip(breaks[:-1], breaks[1:])]
        return SmoothCompactFunction(
            breaks, pieces, min(self.max_order, other.max_order))

    def scale(self, c):
        """c times the function; an exact power stays one for c > 0 only."""
        c = float(c)
        power = None
        if self.power is not None and c > 0:
            rebuild, m, coeff = self.power
            power = (rebuild, m, coeff * c)
        return self._map(lambda t, _: (t[0], cheb.chebmul(c, t[1])),
                         self.max_order, power=power)


def _plus(s, o):
    """The term s + o, None read as 0; it needs one power of u."""
    if s is None or o is None:
        return s or o
    if s[0] != o[0]:
        raise ValueError(f"sum of terms in u^{s[0]} and u^{o[0]} is not supported")
    return s[0], cheb.chebadd(s[1], o[1])


def _u2_series(domain):
    """1 + x^2, u^2, as a Chebyshev series in the variable of a piece of
    that ``_domain``."""
    x = cheb.chebline(*pu.mapparms(_WINDOW, domain))
    return cheb.chebadd(1.0, cheb.chebmul(x, x))


class FractionalPower:
    """``base(x)**alpha`` for a nonnegative piecewise-polynomial base.

    Derivatives come from the log-derivative recursion
    ``h' = h * (alpha * g'/g)``; near the support boundary, where the base
    vanishes to high order, the value is flushed to the correct limit 0.
    """

    def __init__(self, base, alpha, max_order):
        if base.unbounded:
            raise UnsupportedFamilyError("fractional power needs compact support")
        if any(t is not None and t[0] != 0 for t in base.piece_terms):
            raise UnsupportedFamilyError(
                "fractional power defined only for polynomial pieces")
        self.base = base
        self.alpha = float(alpha)
        # no more derivatives than the base has
        self.max_order = min(max_order, base.max_order)
        self.breaks = base.breaks
        self._constants = {}

    # the evaluation surface of SmoothCompactFunction, which reads only
    # ``breaks`` and ``derivs``
    support = SmoothCompactFunction.support
    unbounded = SmoothCompactFunction.unbounded
    value = SmoothCompactFunction.value
    deriv = SmoothCompactFunction.deriv

    def derivs(self, orders, x):
        """h^(j) at the points x for every j in ``orders``, as the rows of one
        array, from one pass of the base's orders 0..max(orders)."""
        orders = tuple(orders)
        top = max(orders)
        if top > self.max_order:
            raise DerivativeOrderError(
                f"derivative order {top} exceeds guaranteed order {self.max_order}")
        h = self._orders(self.base.derivs(range(top + 1), x))
        return np.array([h[j] for j in orders])

    def _orders(self, g):
        """[h, h', ..] to order len(g) - 1 from the base derivatives
        g = [g, g', ..] at the same points; order r reads only g[:r+1]."""
        tiny = 1e-250
        safe = g[0] > tiny
        gs = np.where(safe, g[0], 1.0)
        h, l = [np.where(safe, gs**self.alpha, 0.0)], [None]
        for r in range(1, len(g)):
            # l[r] = (log g)^(r); solved from g^(r) = sum C(r-1,i) g^(i) l[r-i]
            acc = g[r].copy()
            for i in range(1, r):
                acc = acc - math.comb(r - 1, i) * g[i] * l[r - i]
            l.append(acc / gs)
            acc = np.zeros_like(g[0])
            for i in range(r):
                acc += math.comb(r - 1, i) * h[i] * (self.alpha * l[r - i])
            h.append(np.where(safe, acc, 0.0))
        return h


def make_poly_bump(center, radius, m):
    """Bump ``(1 - ((x-center)/radius)^2)^m`` on its support, 0 outside.

    C_c^(m-1); derivatives are exact polynomials.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if m < 2:
        # (1 - s^2)^1 has a kink at either end of its support
        raise DerivativeOrderError(f"a bump of exponent {m} has no derivative")
    # (1 - s^2)^m expanded in Chebyshev series of s = (x-center)/radius,
    # the variable of the one piece.  The Chebyshev coefficients stay O(1),
    # so evaluation keeps ~1e-15 absolute accuracy; the global monomial
    # expansion loses ~8 digits to binomial-scale cancellation at this degree.
    c = cheb.chebpow([0.5, 0.0, -0.5], m, maxpower=m)
    return SmoothCompactFunction(
        [center - radius, center + radius], [(0, c)], m - 1,
        power=(partial(make_poly_bump, center, radius), int(m), 1.0))


def make_plateau_bump(inner_lo, inner_hi, pad, edge_order, exponent=1):
    """Plateau equal to 1 on [inner_lo, inner_hi], smoothstep edges of width
    ``pad``, raised to an integer ``exponent``.  C^(edge_order) across the
    junctions."""
    if pad <= 0 or inner_hi < inner_lo:
        raise ValueError("bad plateau geometry")
    if exponent < 1:
        raise ValueError(f"a plateau of exponent {exponent} < 1 is not smooth")
    lo, hi = inner_lo - pad, inner_hi + pad
    # S**exponent as a Chebyshev series in the rising edge's own variable,
    # and its mirror image on the falling edge; a global monomial expansion
    # is numerically useless here, and even the edge-local monomial basis
    # loses ~8 digits at moderate exponents.
    rise = cheb.chebpow(_smoothstep(edge_order), exponent, maxpower=exponent)
    fall = _rebase(rise, (inner_hi, hi), inner_hi, hi, window=(1.0, -1.0))
    pieces = [(0, rise), (0, np.array([1.0])), (0, fall)]
    return SmoothCompactFunction(
        [lo, inner_lo, inner_hi, hi], pieces, edge_order,
        power=(partial(make_plateau_bump, inner_lo, inner_hi, pad, edge_order),
               int(exponent), 1.0))


def dyadic_root(f, k):
    """Exact ``f^(2^-k)`` for members of the closed power family."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return f
    if getattr(f, "power", None) is None:
        raise UnsupportedFamilyError("no exact dyadic root for this function")
    rebuild, m, coeff = f.power
    if m % (1 << k) != 0:
        raise UnsupportedFamilyError(f"exponent {m} not divisible by 2^{k}")

    def compute():
        root, c = rebuild(m >> k), coeff ** (2.0 ** -k)
        return root if c == 1.0 else root.scale(c)
    return _memoized(f, ("dyadic_root", k), compute)


def j_of(n):
    """Dyadic-root depth 1 + floor(log2 n): the constants of order n read the
    roots f^(2^-k) for k = 1..j_of(n)."""
    if n < 1:
        raise ValueError("index must be >= 1")
    return 1 + int(math.floor(math.log2(n)))


def fractional_root(f, k, max_order):
    """``f^(2^-k)``: exact when available, otherwise via FractionalPower."""
    try:
        return dyadic_root(f, k)
    except UnsupportedFamilyError:
        return FractionalPower(f, 2.0 ** -k, max_order)


@cache
def weight_u():
    """The weight u(t) = (1 + t^2)^(1/2), with exact derivatives of all
    orders: one piece on the whole line."""
    return SmoothCompactFunction([-math.inf, math.inf], [(1, np.array([1.0]))],
                                 _UNLIMITED)


def product_with_u(f):
    """f(x) * u(x), memoized on f: one more power of u on every piece."""
    return _memoized(f, "product_with_u", lambda: f._map(
        lambda t, _: (t[0] + 1, t[1]), f.max_order))


def product_with_u2(f):
    """f(x) * (1 + x^2), memoized on f: every piece's series times u^2's."""
    return _memoized(f, "product_with_u2", lambda: f._map(
        lambda t, domain: (t[0], cheb.chebmul(t[1], _u2_series(domain))),
        f.max_order))


# -- norms and seminorms -------------------------------------------------

@cache
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


_SUP_GRID = "sup"
_PANELS = 128  # the seminorms' quadrature grid


def _grid(f, grid):
    """f's sampling grid ``grid``, memoized on f, or on the base of a
    ``FractionalPower`` (which shares its breaks and support).  For ``grid``
    panels (split at f's breaks; [-100, 100] for a whole-line function):
    the flattened nodes of the composite 16-point Gauss-Legendre rule and
    the half-width of each panel, shape (m, 1).  For ``_SUP_GRID``: the sup
    sample of f's compact support, 4001 equispaced points and the breaks
    (empty for an empty support), and None."""
    f = getattr(f, "base", f)

    def compute():
        if grid == _SUP_GRID:
            lo, hi = f.support
            return (_sorted_unique([np.linspace(lo, hi, 4001), f.breaks])
                    if hi > lo else np.empty(0)), None
        lo, hi = (-100.0, 100.0) if f.unbounded else f.support
        edges = _sorted_unique([np.linspace(lo, hi, grid + 1),
                                f.breaks[(f.breaks > lo) & (f.breaks < hi)]])
        a, b = edges[:-1, None], edges[1:, None]
        half = 0.5 * (b - a)
        return (half * _gauss_legendre(16)[0] + 0.5 * (a + b)).ravel(), half
    return _memoized(f, ("grid", grid), compute)


def _norm_sum(f, p, panels):
    """||f^(p)||_2 + ||f^(p+1)||_2 by the quadrature rule on ``panels``
    panels, each norm memoized on f per order and grid.  A miss evaluates
    every order not yet known in one ``f.derivs`` pass, from min(p, 1) (2
    for the whole-line weight, which has no G_1) to p+1, so the lower
    seminorms of f read no pass of their own.  For the whole-line
    weight the integrals are truncated to [-100, 100] (derivatives of order
    >= 2 decay at least like |x|^-3, so the tail is far below the
    quadrature error)."""
    if f.unbounded and p < 2:
        raise DerivativeOrderError("whole-line weight is in G_p only for p >= 2")
    if p + 1 > f.max_order:
        raise DerivativeOrderError(
            f"G_{p} needs derivatives up to order {p + 1}; have {f.max_order}")
    missing = [j for j in range(2 if f.unbounded else min(p, 1), p + 2)
               if ("l2_norm", j, panels) not in f._constants]
    if missing:
        x, half = _grid(f, panels)
        W = half * _gauss_legendre(16)[1]
        for j, vals in zip(missing, f.derivs(missing, x)):
            f._constants["l2_norm", j, panels] = math.sqrt(
                max(float(np.sum((vals ** 2).reshape(W.shape) * W)), 0.0))
    return sum(f._constants["l2_norm", j, panels] for j in (p, p + 1))


def gp_seminorm(f, p):
    """sqrt(2)/p! * (||f^(p)||_2 + ||f^(p+1)||_2), by composite Gauss-Legendre
    on ``_PANELS`` panels."""
    return math.sqrt(2.0) / math.factorial(p) * _norm_sum(f, p, _PANELS)


def quadrature_error(f, p):
    """Panel-doubling error estimate of ``gp_seminorm(f, p)``, sqrt(2)/p! times
    the norm sum's change from _PANELS // 2 panels; no certificate reads it."""
    coarse, fine = _norm_sum(f, p, _PANELS // 2), _norm_sum(f, p, _PANELS)
    return math.sqrt(2.0) / math.factorial(p) * abs(fine - coarse)


_FOURIER_GRID = 2**14  # samples of f^(p) before the 16-fold zero padding


def fourier_l1_norm(f, p):
    """L1 norm of the Fourier transform of f^(p) over [-span, span], span =
    200 / (half the support width).

    Convention: fhat(s) = (1/2pi) * integral f(x) exp(-i s x) dx, under which
    ||fhat^(p)||_1 / p! <= ||f||_{G_p} holds.  The transform is computed by
    sampling the exact derivative on a uniform grid, zero-padding to 16 times
    its length, and an FFT; truncation/aliasing are controlled by the grid
    size ``_FOURIER_GRID`` and the span (the integrand decays polynomially
    for the bump family).
    """
    if f.unbounded:
        raise ValueError("Fourier L1 norm defined for compact support only")
    lo, hi = f.support
    if hi <= lo:
        return 0.0
    span = 200.0 / (0.5 * (hi - lo))
    x = np.linspace(lo, hi, _FOURIER_GRID, endpoint=False)
    dx = (hi - lo) / _FOURIER_GRID
    g = f.deriv(p, x)
    npad = 16 * _FOURIER_GRID
    # the trapezoid rule needs s ascending: fftshift starts both at the most
    # negative frequency
    F = np.fft.fftshift(np.fft.fft(g, n=npad))
    s = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(npad, d=dx))
    mag = (dx / (2.0 * np.pi)) * np.abs(F)
    band = np.abs(s) <= span
    return float(np.trapezoid(mag[band], s[band]))


def sup_norm(f):
    """Sup of |f| over its support (dense grid plus breakpoints), memoized
    on f; a whole-line function has no sample that bounds it."""
    if f.unbounded:
        raise ValueError("sup norm defined for compact support only")

    def compute():
        values = f.derivs((0,), _grid(f, _SUP_GRID)[0])[0]
        return float(np.max(np.abs(values))) if values.size else 0.0
    return _memoized(f, "sup_norm", compute)


def decompose_signed(f, n):
    """Split f = f1 - f2 with f1, f2 >= 0 and dyadic roots of order j_n available.

    f2 = 2 sup|f| * b for a plateau bump b = beta^(2^j_n) equal to 1 on supp f
    (support padded by half the support radius), and f1 = f2 + f.
    """
    if f.unbounded:
        raise UnsupportedFamilyError("signed decomposition needs compact support")
    lo, hi = f.support
    pad = max(0.25 * (hi - lo), 1e-3)
    b = make_plateau_bump(lo, hi, pad, n + 1, exponent=1 << j_of(n))
    f2 = b.scale(2.0 * sup_norm(f))
    return f2.add(f), f2
