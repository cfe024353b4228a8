"""Compactly supported smooth test functions with exact derivatives.

The working family is built from polynomial bumps ``(1 - ((x-c)/r)^2)^m``
and plateau bumps with polynomial smoothstep edges.  Every member is stored
piecewise as sums of terms ``P(x) * u(x)^k`` with ``P`` a polynomial,
``u(x) = (1 + x^2)^(1/2)`` and ``k`` an integer, which keeps the family
closed under differentiation, sums, products, and multiplication by ``u``
and ``u^2``.  Derivatives are therefore exact (no finite differencing, no
symbolic engine).
"""

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial import polyutils as pu


class UnsupportedFamilyError(ValueError):
    """Raised when an exact dyadic root is requested outside the closed family."""


class DerivativeOrderError(ValueError):
    """Raised when a derivative beyond the guaranteed order is requested."""


_X = Polynomial([0.0, 1.0])

# max_order sentinel for functions smooth to all orders we ever use
_UNLIMITED = 10**6


def _memoized(f, key, compute):
    """f's own value for ``key`` in its ``_constants`` table, from
    ``compute()`` on first use."""
    if key not in f._constants:
        f._constants[key] = compute()
    return f._constants[key]


@dataclass(frozen=True)
class _BumpAtom:
    center: float
    radius: float


@dataclass(frozen=True)
class _PlateauAtom:
    lo: float
    inner_lo: float
    inner_hi: float
    hi: float
    edge_order: int


def _smoothstep(s):
    """Polynomial S with S(0)=0, S(1)=1 and S', .., S^(s) vanishing at 0 and 1."""
    base = _X**s * (Polynomial([1.0, -1.0])) ** s
    S = base.integ()
    return S / S(1.0)


def _rebase(P, a, b):
    """Equivalent polynomial mapped from [a, b] to the window [-1, 1].

    Keeping piece polynomials in a local variable avoids the catastrophic
    coefficient growth of global monomial expansions (edge polynomials of a
    plateau raised to a power are otherwise evaluated with ~1e16-scale
    cancellation).
    """
    if (isinstance(P, Chebyshev) and tuple(P.domain) == (a, b)
            and tuple(P.window) == (-1.0, 1.0)):
        return P
    return P.convert(domain=[a, b], window=[-1.0, 1.0], kind=Chebyshev)


def _stack_terms(term_dicts):
    """Evaluation plan for the term dicts ``{k: P_k}`` of one piece, one dict
    per row: the series of every row that share a kind, a domain map and a
    power u^k become the columns of one coefficient matrix, zero-padded at
    the high end.  Returns the stacks ``(P, k, C)``, with P a series that
    carries the stack's map, and for each row its (stack, column) pairs in
    the row's own term order."""
    stack_of = {}   # (kind, domain, window, k) -> stack index
    members = []    # per stack: k and its series, one per column
    rows = []
    for terms in term_dicts:
        row = []
        for k, P in terms.items():
            key = (type(P), P.domain.tobytes(), P.window.tobytes(), k)
            s = stack_of.setdefault(key, len(members))
            if s == len(members):
                members.append((k, []))
            row.append((s, len(members[s][1])))
            members[s][1].append(P)
        rows.append(row)
    stacks = []
    for k, series in members:
        C = np.zeros((max(P.coef.size for P in series), len(series)))
        for col, P in enumerate(series):
            C[:P.coef.size, col] = P.coef
        stacks.append((series[0], k, C))
    return stacks, rows


def _eval_stacked(plan, x):
    """Rows sum_k P_k(x) u(x)^k of a ``_stack_terms`` plan at the points x,
    one series evaluation per stack; each term is formed and summed as
    ``P(x) * u(x)**k`` would be, in the row's term order."""
    stacks, rows = plan
    vals = []
    for P, k, C in stacks:
        v = P._val(pu.mapdomain(x, P.domain, P.window), C)
        vals.append(v * (1.0 + x * x) ** (0.5 * k) if k else v)
    out = np.zeros((len(rows), x.size))
    for r, row in enumerate(rows):
        for s, col in row:
            out[r] += vals[s][col]
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
    """Piecewise ``sum_k P_k(x) u(x)^k``: breaks plus one term dict per piece.

    ``breaks`` are the piece boundaries; ``piece_terms[i]`` holds the term
    dictionary valid on ``(breaks[i], breaks[i+1])``.  The function is zero
    outside ``[breaks[0], breaks[-1]]``.  A whole-line function (the weight
    ``u`` and the multiplier ``u^2``) is one piece on breaks ``[-inf, inf]``.

    Every value that depends only on the function lives in its one
    ``_constants`` table, keyed by name and arguments: its derivative
    objects, roots, u-weighted products, sup and L2 norms, derivative tables
    on sampling grids and the (f, n) constants of ``bounds``.  They live and
    die with the function.
    """

    def __init__(self, breaks, piece_terms, max_order, power=None):
        self.breaks = np.asarray(breaks, dtype=float)
        self.piece_terms = piece_terms
        self.max_order = max_order
        self.power = power  # (atom, integer exponent, coeff) when an exact power
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

    def __call__(self, x):
        return self.deriv(0, x)

    def deriv(self, j, x):
        """Exact j-th derivative at x (scalar or array): one row of ``derivs``."""
        scalar = np.isscalar(x)
        out = self.derivs((j,), x)[0]
        return float(out[0]) if scalar else out

    def derivs(self, orders, x):
        """Exact f^(j) at the points x for every j in ``orders``, as the rows
        of one array, from one pass over the pieces.

        On each piece, the Chebyshev coefficients of every order that share a
        power u^k stand as the columns of one matrix, zero-padded at the high
        end, and one Clenshaw recursion evaluates them all.  Zero padding
        leaves the recursion's state bitwise unchanged, so each row equals
        the evaluation of its order's series alone.
        """
        orders = tuple(orders)
        for j in orders:
            if j > self.max_order:
                raise DerivativeOrderError(
                    f"derivative order {j} exceeds guaranteed order {self.max_order}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        plans = _memoized(self, ("derivs", orders), lambda: self._stack_plans(orders))
        out = np.zeros((len(orders), x.size))
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        # close the right endpoint of the support
        idx[x == self.breaks[-1]] = len(self.piece_terms) - 1
        inside = (idx >= 0) & (idx <= len(self.piece_terms) - 1) & (x <= self.breaks[-1])
        for i, plan in enumerate(plans):
            mask = inside & (idx == i)
            if np.any(mask):
                out[:, mask] = _eval_stacked(plan, x[mask])
        return out

    def _stack_plans(self, orders):
        """The ``_stack_terms`` plan of every piece over the derivatives of
        the given orders."""
        gs = [self._derivative_obj(j) for j in orders]
        return [_stack_terms([g.piece_terms[i] for g in gs])
                for i in range(len(self.piece_terms))]

    # -- differentiation ------------------------------------------------

    @staticmethod
    def _diff_terms(terms):
        # d/dx (P u^k) = P' u^k + k x P u^(k-2)
        new = {}
        for k, P in terms.items():
            dP = P.deriv()
            new[k] = new[k] + dP if k in new else dP
            if k != 0:
                ident = type(P).identity(domain=P.domain, window=P.window)
                xP = (k * ident) * P
                new[k - 2] = new[k - 2] + xP if (k - 2) in new else xP
        return new

    def derivative(self):
        return self._derivative_obj(1)

    def _derivative_obj(self, j):
        # order 0 is self, kept out of ``_constants`` so that a function is
        # freed by reference counting, with its tables
        if j == 0:
            return self

        def compute():
            prev = self._derivative_obj(j - 1)
            return SmoothCompactFunction(
                prev.breaks, [self._diff_terms(t) for t in prev.piece_terms],
                max(prev.max_order - 1, 0))
        return _memoized(self, ("derivative", j), compute)

    def _grid_derivs(self, orders, grid):
        """f^(j) for every j in ``orders`` at the points of f's sampling grid
        ``grid`` (``_grid_points``), from one pass."""
        return self.derivs(orders, _grid_points(self, grid))

    def _grid_table(self, grid, j):
        """[f, f', .., f^(j)] on f's sampling grid ``grid``, kept per grid in
        ``_constants`` and extended by the missing orders in one pass: every
        fractional power of f reads it."""
        table = self._constants.setdefault(("grid_table", grid), [])
        if len(table) <= j:
            table.extend(self.derivs(range(len(table), j + 1),
                                     _grid_points(self, grid)))
        return table

    # -- algebra ---------------------------------------------------------

    def _pieces_on(self, lo, hi):
        """Term dict valid on the open interval (lo, hi)."""
        mid = 0.5 * (lo + hi)
        if mid < self.breaks[0] or mid > self.breaks[-1]:
            return {}
        i = int(np.searchsorted(self.breaks, mid, side="right") - 1)
        i = min(i, len(self.piece_terms) - 1)
        return self.piece_terms[i]

    @staticmethod
    def _merge_breaks(a, b, lo, hi):
        pts = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
        pts = pts[(pts >= lo) & (pts <= hi)]
        return _sorted_unique([pts, [lo, hi]])

    def add(self, other):
        """Pointwise sum; both operands must be compactly supported."""
        if self.unbounded or other.unbounded:
            raise ValueError("sum of whole-line functions is not supported")
        lo = min(self.breaks[0], other.breaks[0])
        hi = max(self.breaks[-1], other.breaks[-1])
        breaks = self._merge_breaks(self.breaks, other.breaks, lo, hi)
        pieces = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            t1 = self._pieces_on(a, b)
            t2 = other._pieces_on(a, b)
            merged = {}
            for src in (t1, t2):
                for k, P in src.items():
                    Q = _rebase(P, a, b)
                    merged[k] = merged[k] + Q if k in merged else Q
            pieces.append(merged)
        return SmoothCompactFunction(
            breaks, pieces, min(self.max_order, other.max_order))

    def scale(self, c):
        c = float(c)
        power = None
        if self.power is not None and self.power[2] * c >= 0:
            atom, m, coeff = self.power
            power = (atom, m, coeff * c) if c > 0 else None
        return SmoothCompactFunction(
            self.breaks, [{k: c * P for k, P in t.items()} for t in self.piece_terms],
            self.max_order, power=power)

    def mul(self, other):
        """Pointwise product; at least one operand compactly supported."""
        if self.unbounded and other.unbounded:
            raise ValueError("product of whole-line functions is not supported")
        if self.unbounded:
            return other.mul(self)
        lo = max(self.breaks[0], other.breaks[0])
        hi = min(self.breaks[-1], other.breaks[-1])
        if lo >= hi:
            return zero_function()
        breaks = self._merge_breaks(self.breaks, other.breaks, lo, hi)
        pieces = []
        for a, b in zip(breaks[:-1], breaks[1:]):
            t1 = self._pieces_on(a, b)
            t2 = other._pieces_on(a, b)
            prod = {}
            for k1, P1 in t1.items():
                Q1 = _rebase(P1, a, b)
                for k2, P2 in t2.items():
                    k = k1 + k2
                    Q = Q1 * _rebase(P2, a, b)
                    prod[k] = prod[k] + Q if k in prod else Q
            pieces.append(prod)
        return SmoothCompactFunction(breaks, pieces,
                                     min(self.max_order, other.max_order))


class FractionalPower:
    """``base(x)**alpha`` for a nonnegative piecewise-polynomial base.

    Derivatives come from the log-derivative recursion
    ``h' = h * (alpha * g'/g)``; near the support boundary, where the base
    vanishes to high order, the value is flushed to the correct limit 0.
    """

    def __init__(self, base, alpha, max_order):
        if base.unbounded:
            raise UnsupportedFamilyError("fractional power needs compact support")
        for terms in base.piece_terms:
            if any(k != 0 for k in terms):
                raise UnsupportedFamilyError(
                    "fractional power defined only for polynomial pieces")
        self.base = base
        self.alpha = float(alpha)
        self.max_order = max_order
        self.breaks = base.breaks
        self._constants = {}

    @property
    def support(self):
        return self.base.support

    @property
    def unbounded(self):
        return False

    def value(self, x):
        return self.deriv(0, x)

    def __call__(self, x):
        return self.deriv(0, x)

    def deriv(self, j, x):
        scalar = np.isscalar(x)
        out = self.derivs((j,), x)[0]
        return float(out[0]) if scalar else out

    def derivs(self, orders, x):
        """h^(j) at the points x for every j in ``orders``, as the rows of one
        array, from one pass of the base's orders 0..max(orders)."""
        orders = tuple(orders)
        top = max(orders)
        if top > self.max_order:
            raise DerivativeOrderError(
                f"derivative order {top} exceeds guaranteed order {self.max_order}")
        h = []
        self._extend(list(self.base.derivs(range(top + 1), x)), h)
        return np.array([h[j] for j in orders])

    def _extend(self, g, h):
        """Extend h = [h, h', ..] to order len(g) - 1 from the base
        derivatives g = [g, g', ..] at the same points.  Order r reads only
        g[:r+1] and h[:r], so its value does not depend on how the list was
        extended."""
        tiny = 1e-250
        safe = g[0] > tiny
        gs = np.where(safe, g[0], 1.0)
        # l[r] = (log g)^(r); solved from g^(r) = sum C(r-1,i) g^(i) l[r-i]
        l = [None] * len(g)
        for r in range(1, len(g)):
            acc = g[r].copy()
            for i in range(1, r):
                acc = acc - math.comb(r - 1, i) * g[i] * l[r - i]
            l[r] = acc / gs
        if not h:
            h.append(np.where(safe, gs**self.alpha, 0.0))
        for r in range(len(h), len(g)):
            acc = np.zeros_like(g[0])
            for i in range(r):
                acc += math.comb(r - 1, i) * h[i] * (self.alpha * l[r - i])
            h.append(np.where(safe, acc, 0.0))

    def _grid_derivs(self, orders, grid):
        """h^(j) for every j in ``orders`` on the sampling grid ``grid`` (the
        base's: same support and breaks), from the base's table for that
        grid.  The orders found so far are kept per grid, so each is found
        once per grid."""
        top = max(orders)
        h = self._constants.setdefault(("grid_derivs", grid), [])
        self._extend(self.base._grid_table(grid, top)[:top + 1], h)
        return [h[j] for j in orders]


def zero_function():
    return SmoothCompactFunction([0.0, 0.0], [{}], _UNLIMITED)


def make_poly_bump(center, radius, m):
    """Bump ``(1 - ((x-center)/radius)^2)^m`` on its support, 0 outside.

    C_c^(m-1); derivatives are exact polynomials.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if m < 2:
        raise ValueError("exponent m must be at least 2")
    # (1 - s^2)^m expanded in Chebyshev series of s = (x-center)/radius,
    # with the affine map carried by the domain attribute.  The Chebyshev
    # coefficients stay O(1), so evaluation keeps ~1e-15 absolute accuracy;
    # the global monomial expansion loses ~8 digits to binomial-scale
    # cancellation at this degree.
    P = Chebyshev((Chebyshev([0.5, 0.0, -0.5]) ** m).coef,
                  domain=[center - radius, center + radius],
                  window=[-1.0, 1.0])
    return SmoothCompactFunction(
        [center - radius, center + radius], [{0: P}], m - 1,
        power=(_BumpAtom(float(center), float(radius)), int(m), 1.0))


def make_plateau_bump(inner_lo, inner_hi, pad, edge_order, exponent=1, coeff=1.0):
    """Plateau equal to ``coeff`` on [inner_lo, inner_hi], smoothstep edges of
    width ``pad``, raised to an integer ``exponent`` (plateau value unchanged
    when coeff == 1).  C^(edge_order) across the junctions."""
    if pad <= 0 or inner_hi < inner_lo:
        raise ValueError("bad plateau geometry")
    lo, hi = inner_lo - pad, inner_hi + pad
    S = _smoothstep(edge_order)
    # Expand S**exponent as a Chebyshev series in an edge-local variable and
    # let the domain attribute carry the affine change of variable; a global
    # monomial expansion is numerically useless here, and even the edge-local
    # monomial basis loses ~8 digits at moderate exponents.
    Se = S.convert(domain=[0.0, 1.0], window=[-1.0, 1.0], kind=Chebyshev) ** exponent
    rise = _rebase(Chebyshev(Se.coef, domain=[lo, inner_lo],
                             window=[-1.0, 1.0]), lo, inner_lo)
    fall = _rebase(Chebyshev(Se.coef, domain=[inner_hi, hi],
                             window=[1.0, -1.0]), inner_hi, hi)
    flat = Chebyshev([1.0])
    pieces = [{0: coeff * rise}, {0: coeff * flat}, {0: coeff * fall}]
    atom = _PlateauAtom(float(lo), float(inner_lo), float(inner_hi), float(hi),
                        int(edge_order))
    return SmoothCompactFunction(
        [lo, inner_lo, inner_hi, hi], pieces, edge_order,
        power=(atom, int(exponent), float(coeff)))


def _from_power(atom, exponent, coeff):
    if isinstance(atom, _BumpAtom):
        if exponent < 2:
            # (1 - s^2)^1 has a kink at either end of its support
            raise DerivativeOrderError(
                f"a bump of exponent {exponent} has no derivative")
        f = make_poly_bump(atom.center, atom.radius, exponent)
        return f if coeff == 1.0 else f.scale(coeff)
    return make_plateau_bump(atom.inner_lo, atom.inner_hi,
                             atom.inner_lo - atom.lo, atom.edge_order,
                             exponent=exponent, coeff=coeff)


def dyadic_root(f, k):
    """Exact ``f^(2^-k)`` for members of the closed power family."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return f
    if getattr(f, "power", None) is None:
        raise UnsupportedFamilyError("no exact dyadic root for this function")
    atom, m, coeff = f.power
    if coeff < 0 or m % (1 << k) != 0:
        raise UnsupportedFamilyError(
            f"exponent {m} not divisible by 2^{k} (or negative scale)")
    return _memoized(f, ("dyadic_root", k),
                    lambda: _from_power(atom, m >> k, coeff ** (2.0 ** -k)))


def fractional_root(f, k, max_order):
    """``f^(2^-k)``: exact when available, otherwise via FractionalPower."""
    try:
        return dyadic_root(f, k)
    except UnsupportedFamilyError:
        return FractionalPower(f, 2.0 ** -k, max_order)


def _on_the_line(terms):
    """``sum_k P_k(x) u(x)^k`` on the whole line: one piece on (-inf, inf)."""
    return SmoothCompactFunction([-math.inf, math.inf], [terms], _UNLIMITED)


@lru_cache(maxsize=1)
def weight_u():
    """The weight u(t) = (1 + t^2)^(1/2), with exact derivatives of all orders."""
    return _on_the_line({1: Chebyshev([1.0])})


@lru_cache(maxsize=1)
def _weight_u2():
    """The multiplier u(t)^2 = 1 + t^2, a polynomial on the whole line."""
    return _on_the_line({0: Chebyshev([1.5, 0.0, 0.5])})


def product_with_u(f):
    """f(x) * u(x), memoized on f."""
    return _memoized(f, "product_with_u", lambda: f.mul(weight_u()))


def product_with_u2(f):
    """f(x) * (1 + x^2), memoized on f; stays polynomial-piecewise."""
    return _memoized(f, "product_with_u2", lambda: f.mul(_weight_u2()))


# -- norms and seminorms -------------------------------------------------

@dataclass
class SeminormReport:
    p: int
    value_gp: float
    quadrature_error: float


@cache
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


def _quad_edges(f, panels):
    lo, hi = (-100.0, 100.0) if f.unbounded else f.support
    edges = np.linspace(lo, hi, panels + 1)
    br = f.breaks[(f.breaks > lo) & (f.breaks < hi)]
    return _sorted_unique([edges, br])


def _quad_rule(f, panels):
    """Nodes and weights, each of shape (m, 16), of the composite 16-point
    Gauss-Legendre rule on f's ``panels`` panels (split at f's breaks)."""
    edges = _quad_edges(f, panels)
    x0, w0 = _gauss_legendre(16)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    X = 0.5 * (b - a) * x0[None, :] + 0.5 * (a + b)
    W = 0.5 * (b - a) * w0[None, :]
    return X, W


_SUP_GRID = "sup"


def _grid_points(f, grid):
    """The points of f's sampling grid ``grid``, memoized on f: the flattened
    quadrature nodes for ``grid`` panels, or for ``_SUP_GRID`` the sup
    sample of f's support (of [-1e3, 1e3] for a whole-line function), 4001
    equispaced points and the finite breaks (empty for an empty support)."""
    def compute():
        if grid != _SUP_GRID:
            return _quad_rule(f, grid)[0].ravel()
        lo, hi = (-1e3, 1e3) if f.unbounded else f.support
        if hi <= lo:
            return np.empty(0)
        return _sorted_unique([np.linspace(lo, hi, 4001),
                               f.breaks[np.isfinite(f.breaks)]])
    return _memoized(f, ("grid_points", grid), compute)


def _l2_norms(f, orders, panels):
    """||f^(j)||_2 for every j in ``orders``, by the quadrature rule on
    ``panels`` panels, memoized on f per order; the orders not yet known
    are evaluated in one pass."""
    missing = [j for j in orders if ("l2_norm", j, panels) not in f._constants]
    if missing:
        X, W = _quad_rule(f, panels)
        for j, vals in zip(missing, f._grid_derivs(missing, panels)):
            f._constants["l2_norm", j, panels] = math.sqrt(
                max(float(np.sum((vals ** 2).reshape(X.shape) * W)), 0.0))
    return [f._constants["l2_norm", j, panels] for j in orders]


def gp_seminorm(f, p, panels=64):
    """sqrt(2)/p! * (||f^(p)||_2 + ||f^(p+1)||_2), by composite Gauss-Legendre.

    The quadrature error is estimated by panel doubling; for the whole-line
    weight the integral is truncated to [-100, 100] (derivatives of order
    >= 2 decay at least like |x|^-3, so the tail is far below the estimate).
    """
    if f.unbounded and p < 2:
        raise DerivativeOrderError("whole-line weight is in G_p only for p >= 2")
    if p + 1 > f.max_order:
        raise DerivativeOrderError(
            f"G_{p} needs derivatives up to order {p + 1}; have {f.max_order}")
    coarse = sum(_l2_norms(f, (p, p + 1), panels))
    fine = sum(_l2_norms(f, (p, p + 1), 2 * panels))
    c = math.sqrt(2.0) / math.factorial(p)
    return SeminormReport(p=p, value_gp=c * fine, quadrature_error=c * abs(fine - coarse))


def fourier_l1_norm(f, p, grid=2**14):
    """L1 norm of the Fourier transform of f^(p) over [-span, span], span =
    200 / (half the support width).

    Convention: fhat(s) = (1/2pi) * integral f(x) exp(-i s x) dx, under which
    ||fhat^(p)||_1 / p! <= ||f||_{G_p} holds.  The transform is computed by
    sampling the exact derivative on a uniform grid, zero-padding to 16 times
    its length, and an FFT; truncation/aliasing are controlled by the grid
    size and the span (the integrand decays polynomially for the bump
    family).
    """
    if p > f.max_order:
        raise DerivativeOrderError("derivative order unavailable")
    if f.unbounded:
        raise ValueError("Fourier L1 norm defined for compact support only")
    lo, hi = f.support
    if hi <= lo:
        return 0.0
    span = 200.0 / (0.5 * (hi - lo))
    x = np.linspace(lo, hi, grid, endpoint=False)
    dx = (hi - lo) / grid
    g = f.deriv(p, x)
    npad = 16 * grid
    F = np.fft.fft(g, n=npad)
    s = 2.0 * np.pi * np.fft.fftfreq(npad, d=dx)
    mag = (dx / (2.0 * np.pi)) * np.abs(F)
    order = np.argsort(s)
    s = s[order]
    mag = mag[order]
    band = np.abs(s) <= span
    return float(np.trapezoid(mag[band], s[band]))


def sup_norm(f):
    """Sup of |f| over its support (dense grid plus breakpoints), memoized
    on f."""
    return _memoized(f, "sup_norm",
                     lambda: _max_abs(f._grid_derivs((0,), _SUP_GRID)[0]))


def _max_abs(values):
    return float(np.max(np.abs(values))) if values.size else 0.0


def decompose_signed(f, n):
    """Split f = f1 - f2 with f1, f2 >= 0 and dyadic roots of order j_n available.

    f2 = 2 sup|f| * b for a plateau bump b = beta^(2^j_n) equal to 1 on supp f
    (support padded by half the support radius), and f1 = f2 + f.
    """
    if f.unbounded:
        raise UnsupportedFamilyError("signed decomposition needs compact support")
    lo, hi = f.support
    jn = 1 + int(math.floor(math.log2(n))) if n >= 1 else 1
    pad = max(0.25 * (hi - lo), 1e-3)
    M = sup_norm(f)
    b = make_plateau_bump(lo, hi, pad, n + 1, exponent=1 << jn)
    if M == 0.0:
        zf = b.scale(0.0)
        return zf, zf
    f2 = b.scale(2.0 * M)
    return f2.add(f), f2
