"""Adapted base chart: box domains, finite differences, tensor quadrature, Stokes check.

Everything downstream (stress identities, equilibrium, the boundary-value
residuals) integrates by parts at some point; the Stokes residual computed
here is the oracle those identities are checked against.

Axes are 0-based.  A field is any callable taking a coordinate array X of
shape (..., d) and returning the values of shape (...): one call evaluates a
whole node set or probe lattice, and a single point is the case ... = ().
The jet-coordinate densities of `material` follow the same contract.  A
coefficient handed to the quadrature may also carry leading axes in front of
the node axis, (..., N), and then yields one integral per leading index,
each one numpy pairwise sum, so no value depends on the BLAS thread count.
This module is the one place that walks a point set (`sup_norm` over a probe
lattice, the quadrature sum), builds a first jet (`jet`), sums a divergence
(`fd_divergence`) or evaluates a derivative expression (`Derivative`); the
identity modules compose these.  A finite difference is two steps.
`stencil_values` calls each field once on one block that stacks the points
and the stencil rows of the axes asked for (`_stencil`), in slices of at most
_FD_ROWS rows (`_evaluate`), and `weigh` weighs a stencil's values with its
weight table.  `partial_derivative`, `jet` and a `Derivative`'s first level
take these steps, and an identity check that needs a field's values and
derivatives on one point set takes them too, so that it evaluates the field
once there and forms every side from the same values.  The weights are exact
rationals rounded once (`_fd_weights`), so an axis on which no point shifts
its stencil, every periodic one among them, leaves out the centre row, whose
weight is exactly 0.

A `Derivative` sums s * d_axis(child) terms, through `Scaled` children and
derivatives on its domain and scheme down to the leaf fields; `forms` builds
one per exterior-derivative component, nested ones such as d(*dA) too.  It
walks at most _FD_ROWS // (order + 1) points at a time, so that a nested
probe block stays small.  Where P might keep a block (`_keeps`), every part
slices P's `_stencil` and a first-level leaf is called once on its block, as
partial_derivative calls it; else each part probes its own points
(`_first_level`).  Other leaves are called once per part and unordered axis
path (`_path_values`), so d_a d_b and d_b d_a read the same values, and
every value is bitwise what nested `partial_derivative` calls give.

Node sets are shared: `volume_nodes`, `face_nodes`, `uniform_grid` and
`face_grid` build each set once per argument tuple (for the last
_NODE_SETS_KEPT of them) and hand every caller the same read-only arrays, so a
field must not write into its points.  A node set's stencil blocks and weight
tables belong to it (`_kept`) and are freed with its points, so one
`_node_set.cache_clear()` frees every stencil that no caller can reach.  A
block of more than _STENCIL_ROWS_KEPT rows and the stencils of other point
sets are built anew on every call.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

Evaluator = Callable[[np.ndarray], np.ndarray]

BOUNDARY = "boundary"
PERIODIC = "periodic"


@dataclass(frozen=True)
class BoundaryFace:
    """One face of the chart box, on a non-periodic axis."""

    axis: int
    side: str  # "lower" | "upper"

    def __post_init__(self) -> None:
        if self.side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {self.side!r}")

    @property
    def induced_sign(self) -> float:
        """Orientation sign of the face: +1 upper, -1 lower.

        Only the sign on the adapted (upper) face is forced by the chart
        convention; the lower-face sign is the one that makes the Stokes
        identity hold globally (see stokes_residual).
        """
        return 1.0 if self.side == "upper" else -1.0


@dataclass(frozen=True)
class ChartDomain:
    """Axis-aligned box with per-axis boundary/periodic flags.

    The volume coefficient convention is dX = dx^0 ^ ... ^ dx^(d-1) with
    coefficient 1, standard coordinate orientation.
    """

    bounds: tuple[tuple[float, float], ...]
    axis_kind: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.bounds) != len(self.axis_kind):
            raise ValueError("bounds and axis_kind length mismatch")
        if not self.bounds:
            raise ValueError("domain needs at least one axis")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"axis interval [{lo}, {hi}] is not finite")
            if not lo < hi:
                raise ValueError(f"empty axis interval [{lo}, {hi}]")
        for kind in self.axis_kind:
            if kind not in (BOUNDARY, PERIODIC):
                raise ValueError(f"unknown axis kind {kind!r}")

    @classmethod
    def box(cls, bounds: Iterable[Sequence[float]], periodic: Iterable[int] = ()) -> "ChartDomain":
        bounds = tuple((float(a), float(b)) for a, b in bounds)
        per = set(periodic)
        if not per <= set(range(len(bounds))):
            raise ValueError(f"periodic axes {sorted(per)} outside 0..{len(bounds) - 1}")
        kinds = tuple(PERIODIC if i in per else BOUNDARY for i in range(len(bounds)))
        return cls(bounds, kinds)

    @classmethod
    def unit(cls, dim: int, periodic: Iterable[int] = ()) -> "ChartDomain":
        return cls.box([(0.0, 1.0)] * dim, periodic)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def is_periodic(self, axis: int) -> bool:
        return self.axis_kind[axis] == PERIODIC

    def faces(self) -> Iterator[BoundaryFace]:
        for axis in range(self.dim):
            if not self.is_periodic(axis):
                yield BoundaryFace(axis, "lower")
                yield BoundaryFace(axis, "upper")


@dataclass(frozen=True)
class ScalarField:
    """Deterministic coefficient field over the chart.

    Called on one point (d,) it returns a float; on a point set (N, d) an (N,)
    array.  A constant result broadcasts; any other shape is an error.
    """

    func: Evaluator

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        out = np.asarray(self.func(X), dtype=float)
        if out.shape != X.shape[:-1]:
            if out.ndim:
                raise ValueError(f"field returned shape {out.shape} for points of shape {X.shape}")
            out = np.full(X.shape[:-1], out)
        return float(out) if X.ndim == 1 else out


@dataclass(frozen=True)
class FDScheme:
    """Central finite differences of order 2 or 4, with one-sided fallback
    of the same order near boundary faces."""

    step: float = 1e-3
    order: int = 4

    def __post_init__(self) -> None:
        if self.order not in (2, 4):
            raise ValueError("FD order must be 2 or 4")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"FD step must be finite and positive, got {self.step}")


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only because every
    rule of this order shares them."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _fd_weights(offsets: tuple[int, ...]) -> np.ndarray:
    """First-derivative weights for distinct integer offsets at unit step,
    read-only: weight j is L_j'(0) for the Lagrange basis polynomial
    L_j(x) = prod_k (x - o_k) / prod_k (o_j - o_k) over the other offsets o_k
    (Fornberg 1988).  Its numerator and denominator are integers, and Python's
    int / int rounds their exact quotient once, so each weight is the exact
    rational rounded to float, and the centre weight of a centred stencil is
    exactly 0.0."""
    weights = []
    for j, oj in enumerate(offsets):
        others = offsets[:j] + offsets[j + 1:]
        # d/dx prod_k (x - o_k) at x = 0: drop one factor, keep the others at 0
        slope = sum(math.prod(-o for i, o in enumerate(others) if i != m)
                    for m in range(len(others)))
        # a zero slope gives +0.0, where 0 / -k would give -0.0
        weights.append(slope / math.prod(oj - o for o in others) if slope else 0.0)
    w = np.array(weights)
    w.flags.writeable = False
    return w


def _stencil_shifts(x: np.ndarray, lo: float, hi: float, h: float, r: int) -> np.ndarray:
    """Per row, how far the centred stencil -r..r must shift so that every
    probe point lies inside [lo, hi]."""
    shift = np.zeros(len(x), dtype=int)
    while (low := x + (shift - r) * h < lo - 1e-14).any():
        shift += low
    while (high := x + (shift + r) * h > hi + 1e-14).any():
        shift -= high
    return shift


def _probes(x: np.ndarray, offsets: np.ndarray, h: float, lo: float, hi: float,
            periodic: bool) -> np.ndarray:
    """Probe coordinates x + o*h along one axis, wrapped into [lo, hi) on a
    periodic axis and clamped to [lo, hi] on a boundary axis.  Its
    temporaries are freed on return, before the field sees the block.

    The wrap is lo + (probe - lo) % (hi - lo).  numpy's float % is slow, and
    it returns a value already in [0, hi - lo) unchanged, so only the probes
    outside one period go through it."""
    probe = x + offsets * h
    if not periodic:
        return np.minimum(np.maximum(probe, lo), hi)
    t = probe - lo
    outside = (t < 0) | (t >= hi - lo)
    t[outside] %= hi - lo
    return lo + t


# most stencil rows handed to f in one call; without a limit the peak memory
# of a nested derivative grows with up to (order + 1)**2 times the lattice,
# and at this one the default scenarios run no slower than without
# (BENCH_7.json).  A `Derivative` walks _FD_ROWS // (order + 1) points at a
# time for the same reason.
_FD_ROWS = 2**14


@lru_cache(maxsize=None)
def _shift_weights(r: int) -> np.ndarray:
    """(2r + 1, 2r + 1) first-derivative weights: column shift + r holds the
    weights of the stencil shift - r .. shift + r, in offset order, so the
    middle entry of the centred column r is exactly 0.0 (`_fd_weights`)."""
    w = np.array([_fd_weights(tuple(range(s - r, s + r + 1))) for s in range(-r, r + 1)]).T
    w.flags.writeable = False
    return w


def _new_stencil(P: np.ndarray, axis: int, dom: ChartDomain,
                 scheme: FDScheme) -> tuple[np.ndarray, np.ndarray]:
    """The (k * N, d) stencil block of a derivative along `axis` at the points
    P (N, d), read-only because every field differentiated at P along `axis`
    is handed the same block, and its weight table; row j * N + n of the block
    probes point n at one offset, weighed by table[j, n] (`_axis_stencil`)."""
    if not 0 <= axis < dom.dim:
        raise ValueError(f"axis {axis} out of range for dim {dom.dim}")
    # contiguous, so that the (k, N) probe arithmetic runs on a unit stride
    probes, table = _axis_stencil(np.ascontiguousarray(P[:, axis]), axis, dom, scheme)
    block = np.empty((len(probes),) + P.shape)
    block[:] = P
    block[..., axis] = probes
    flat = block.reshape(-1, dom.dim)
    flat.flags.writeable = False
    return flat, table


def _axis_stencil(x: np.ndarray, axis: int, dom: ChartDomain,
                  scheme: FDScheme) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n) probe coordinates along `axis` at the coordinates x (n,) on
    that axis, and their weight table.  Where no point shifts its stencil, as
    on every periodic axis, k = order, the offsets are -r .. -1, 1 .. r and
    the table is the one (order, 1) column of their weights, which every point
    shares; else k = order + 1, row j probes offset shift_n - r + j and the
    table is (k, n)."""
    h, r = scheme.step, scheme.order // 2
    lo, hi = dom.bounds[axis]
    if h * scheme.order >= hi - lo:
        raise ValueError("FD step too large for axis extent")
    weights = _shift_weights(r)
    periodic = dom.is_periodic(axis)
    shifts = None if periodic else _stencil_shifts(x, lo, hi, h, r)
    if shifts is None or not shifts.any():
        kept = np.flatnonzero(weights[:, r])
        offsets, table = (kept - r)[:, None], weights[kept, r:r + 1]
    else:
        offsets = shifts + np.arange(-r, r + 1)[:, None]
        # np.take returns the table row-major, like the values it weighs;
        # [:, idx] would return it column-major, which multiplies them more slowly
        table = np.take(weights, shifts + r, axis=1)
    return _probes(x, offsets, h, lo, hi, periodic), table


# id(P) -> {(axis, dom, scheme): (block, table)} for the point array P of
# every live node set; `_node_set` adds P's entry and a finalizer removes it
# when P is freed, so no other array takes the id meanwhile.  A block of more
# than _STENCIL_ROWS_KEPT rows is not kept: a large lattice's blocks would
# hold their memory as long as it lives (the peak RSS of `maxwell_vacuum` at
# samples 17 rose from 60 to 88 MiB without this cap).
_kept: dict[int, dict] = {}
_STENCIL_ROWS_KEPT = 2**18


def _keeps(P: np.ndarray, rows: int) -> bool:
    """Whether a stencil block of `rows` rows at P is kept: P must be the
    points of a live node set."""
    return id(P) in _kept and rows <= _STENCIL_ROWS_KEPT


def _stencil(P: np.ndarray, axis: int, dom: ChartDomain,
             scheme: FDScheme) -> tuple[np.ndarray, np.ndarray]:
    """`_new_stencil` of P, built once per (axis, domain, scheme) where
    `_keeps` keeps it; else built anew."""
    kept, key = _kept.get(id(P), {}), (axis, dom, scheme)
    if key not in kept:
        stencil = _new_stencil(P, axis, dom, scheme)
        if not _keeps(P, len(stencil[0])):
            return stencil
        kept[key] = stencil
    return kept[key]


def _evaluate(f: Evaluator, block: np.ndarray, out: np.ndarray) -> None:
    """f's values on the (rows, d) block into out (rows,), in slices of at
    most _FD_ROWS rows."""
    for i in range(0, len(block), _FD_ROWS):
        out[i:i + _FD_ROWS] = f(block[i:i + _FD_ROWS])


def _values(fs: Sequence[Evaluator], stencils: Sequence[tuple[np.ndarray, np.ndarray | None]]
            ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Each field of fs called once on the blocks of `stencils` stacked into
    one, and a lone block handed as it is; per (block, table) its values,
    (len(fs), k, N) for a stencil with a (k, N) or (k, 1) table, and
    (len(fs), N) for a block of points, whose table is None."""
    blocks = [b for b, _ in stencils]
    block = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    vals = np.empty((len(fs), len(block)))
    for f, out in zip(fs, vals):
        _evaluate(f, block, out)
    out, start = [], 0
    for b, table in stencils:
        part = vals[:, start:start + len(b)]
        out.append((part, None) if table is None
                   else (part.reshape(len(fs), len(table), -1), table))
        start += len(b)
    return out


def stencil_values(fs: Sequence[Evaluator], P: np.ndarray, axes: Sequence[int | None],
                   dom: ChartDomain, scheme: FDScheme
                   ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The fields fs at the points P (N, d) and on their stencils, each field
    called once on one block (in slices of at most _FD_ROWS rows): for each
    entry of `axes` in turn, the N points for None, else the `_stencil` rows
    along that axis.  Per entry, the values, (len(fs), N) at the points with
    table None, or (len(fs), k, N) on a stencil with its weight table, which
    `weigh` turns into derivatives along the axis.  P is used as it is, so
    that a node set finds its kept stencils."""
    return _values(fs, [(P, None) if a is None else _stencil(P, a, dom, scheme) for a in axes])


def weigh(vals: np.ndarray, table: np.ndarray, h: float) -> np.ndarray:
    """(..., N) derivative values from the (..., k, N) stencil values, weighed
    by a (k, N) or (k, 1) table, or one that broadcasts to them, summed in
    offset order and divided by h.  Writeable values are weighed in place, so
    a caller that reads them again weighs them last or hands a read-only view."""
    vals = np.multiply(vals, table, out=vals if vals.flags.writeable else None)
    out = np.add.reduce(vals, axis=-2, initial=0.0)
    out /= h
    return out


def _first_level(P: np.ndarray, part: slice, axis: int, dom: ChartDomain, scheme: FDScheme,
                 whole: dict) -> tuple[np.ndarray, np.ndarray]:
    """The (k, n) probe coordinates along `axis` of the points P[part] and their
    weight table: a slice of P's `_stencil`, held in `whole` for the call, where P
    might keep its block of at least order * N rows, else `_axis_stencil`'s at P[part]."""
    if axis not in whole:
        whole[axis] = _stencil(P, axis, dom, scheme) if _keeps(P, scheme.order * len(P)) else None
    if whole[axis] is None:
        return _axis_stencil(np.ascontiguousarray(P[part, axis]), axis, dom, scheme)
    block, table = whole[axis]
    probes = block[:, axis].reshape(len(table), -1)[:, part]
    return probes, table if table.shape[1] == 1 else table[:, part]


def _path_values(f: Evaluator, P: np.ndarray, cols: dict) -> np.ndarray:
    """f's values (k_0, ..., k_m-1, n), read-only, on the probe block of an
    axis path at the points P (n, d) whose coordinates are `cols`."""
    shape = np.broadcast_shapes(*(c.shape for c in cols.values()))
    block = np.empty(shape + P.shape[1:])
    block[:] = P
    for a, col in cols.items():
        block[..., a] = col
    block.flags.writeable = False
    vals = np.empty(shape)
    _evaluate(f, block.reshape(-1, P.shape[1]), vals.reshape(-1))
    vals.flags.writeable = False
    return vals


class Scaled(NamedTuple):
    """c * f(X), the function of a `fields.scaled` field, seen through by a walk."""

    c: float
    f: ScalarField

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.c * self.f(X)


class Derivative(NamedTuple):
    """The sum of s * d_axis(child) over its (s, axis, child) terms, s = +-1."""

    terms: tuple[tuple[int, int, ScalarField], ...]
    dom: ChartDomain
    scheme: FDScheme

    def __call__(self, X: np.ndarray) -> np.ndarray:
        P = X if X.ndim == 2 else X.reshape(-1, self.dom.dim)
        # `whole` holds the call's first levels on all of P, each part's memo the rest
        step, whole, out = _FD_ROWS // (self.scheme.order + 1), {}, np.empty(len(P))
        for i in range(0, len(P), step):
            out[i:i + step] = self.at(P, slice(i, i + step), (), {}, {}, whole)
        return out.reshape(X.shape[:-1])

    def at(self, P: np.ndarray, part: slice, path: tuple[int, ...], cols: dict, memo: dict,
           whole: dict) -> np.ndarray:
        """The values (k_0, ..., k_m-1, n) on the probe block of `path` at the
        points P[part], whose coordinates are `cols`."""
        total = 0
        for s, ax, g in self.terms:
            deeper, table = self.level(P, part, cols, ax, memo, whole)
            # for s = +-1, s * (sum / h) is bitwise sum / (s * h)
            total = total + weigh(self.child(g, P, part, path + (ax,), deeper, memo, whole),
                                   table, s * self.scheme.step)
        return total

    def level(self, P: np.ndarray, part: slice, cols: dict, axis: int, memo: dict,
              whole: dict) -> tuple[dict, np.ndarray]:
        """`cols` one level deeper along `axis` and its weight table: the part's
        first level, or a repeated axis's stencil at its last level's probes."""
        deeper = {b: c[..., None, :] for b, c in cols.items()}
        if axis not in cols:
            if axis not in memo:
                memo[axis] = _first_level(P, part, axis, self.dom, self.scheme, whole)
            deeper[axis], table = memo[axis]
            return deeper, table
        x = cols[axis]
        probes, table = _axis_stencil(x.ravel(), axis, self.dom, self.scheme)
        # (k, x.size) -> (x's levels, k, n); a (k, 1) table broadcasts as it is
        shape, lift = (-1,) + x.shape, (*range(1, x.ndim), 0, x.ndim)
        deeper[axis] = probes.reshape(shape).transpose(lift)
        return deeper, table if table.shape[1] == 1 else table.reshape(shape).transpose(lift)

    def child(self, f: ScalarField, P: np.ndarray, part: slice, path: tuple[int, ...],
              cols: dict, memo: dict, whole: dict) -> np.ndarray:
        node = getattr(f, "func", None)
        if isinstance(node, Scaled):
            return node.c * self.child(node.f, P, part, path, cols, memo, whole)
        if isinstance(node, Derivative) and (node.dom, node.scheme) == (self.dom, self.scheme):
            return node.at(P, part, path, cols, memo, whole)
        key = (id(f), tuple(sorted(path)))
        if len(path) == 1 and whole[path[0]]:  # once on P's stencil, as partial_derivative
            if key not in whole:
                [(vals, _)] = _values([f], [whole[path[0]]])
                whole[key] = vals[0]
                whole[key].flags.writeable = False
            return whole[key][:, part]
        # a leaf's values are kept with their levels in axis order, shared by
        # the orders of one path, which probe the same points
        order = sorted(range(len(path)), key=path.__getitem__)
        if key not in memo:
            memo[key] = _path_values(f, P[part], cols).transpose(order + [len(path)])
        return memo[key].transpose(sorted(range(len(path)), key=order.__getitem__)
                                   + [len(path)])


def partial_derivative(f: Evaluator, axis: int, p, dom: ChartDomain,
                       scheme: FDScheme = FDScheme()):
    """Finite-difference estimate of the base derivative of f along `axis` at
    p: a float for one point (d,), an array of shape (...) for points (..., d).

    Wraps coordinates on periodic axes; uses one-sided stencils of the same
    order within stencil reach of a boundary face.  f is called once on the
    stencil block of all the points, in slices of at most _FD_ROWS rows, and
    each row's value is weighed by its entry of the block's weight table.  An
    (N, d) p is used as it is, not reshaped, so that a node set finds its
    kept stencils.
    """
    p = np.asarray(p, dtype=float)
    P = p if p.ndim == 2 else p.reshape(-1, dom.dim)
    [(vals, table)] = stencil_values([f], P, (axis,), dom, scheme)
    out = weigh(vals[0], table, scheme.step)
    return float(out[0]) if p.ndim == 1 else out.reshape(p.shape[:-1])


def jet(fs: Sequence[Evaluator], X, dom: ChartDomain,
        scheme: FDScheme = FDScheme()) -> tuple[np.ndarray, np.ndarray]:
    """First jet of the fields fs at X (..., d): the values (..., m) and the
    (..., m, d) block of base derivatives, entry [..., i, a] differentiating
    fs[i] along axis a.  Each field is called once (per _FD_ROWS slice), on
    one block of X's N rows followed by every axis's stencil rows
    (`stencil_values`), so the values are bitwise fs[i](X) and entry
    [..., i, a] is bitwise the partial_derivative of fs[i] along a."""
    X = np.asarray(X, dtype=float)
    P = X if X.ndim == 2 else X.reshape(-1, dom.dim)
    (vals, _), *stencils = stencil_values(fs, P, (None, *range(dom.dim)), dom, scheme)
    grad = np.empty((len(P), len(fs), dom.dim))
    for a, (axis_vals, table) in enumerate(stencils):
        grad[..., a] = weigh(axis_vals, table, scheme.step).T
    # a copy, so that the values do not hold the whole block
    return (vals.T.copy().reshape(X.shape[:-1] + (len(fs),)),
            grad.reshape(X.shape[:-1] + grad.shape[1:]))


def fd_divergence(omega: Sequence[Evaluator], X, dom: ChartDomain,
                  scheme: FDScheme = FDScheme()):
    """sum_a d_a omega[a] at X, one partial_derivative per component, summed
    in axis order: the divergence of the (d-1)-form with components omega[a]
    against (e_a interior-product dX); it needs one component per axis."""
    if len(omega) != dom.dim:
        raise ValueError("need one component per axis")
    return sum(partial_derivative(w, a, X, dom, scheme) for a, w in enumerate(omega))


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor-product Gauss-Legendre rule; `panels` splits each axis into
    equal composite cells (panels=1 is the plain rule)."""

    order: int = 8
    panels: int = 1

    def __post_init__(self) -> None:
        if self.order < 1 or self.panels < 1:
            raise ValueError("quadrature order and panels must be positive")

    def axis_nodes(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        ref_x, ref_w = _leggauss(self.order)
        width = (hi - lo) / self.panels
        starts = lo + np.arange(self.panels)[:, None] * width
        return ((starts + (ref_x + 1.0) * 0.5 * width).ravel(),
                np.tile(ref_w * 0.5 * width, self.panels))


def _lattice(axes: Sequence[np.ndarray]) -> np.ndarray:
    """(N, d) tensor lattice of the per-axis coordinates, last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _tensor_nodes(axes: Sequence[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = zip(*axes)
    return _lattice(xs), _lattice(ws).prod(axis=1)


def _pinned(dom: ChartDomain, face: BoundaryFace) -> float:
    """Coordinate of the face along its own axis."""
    lo, hi = dom.bounds[face.axis]
    return lo if face.side == "lower" else hi


# distinct node sets kept; a scenario uses a volume set, its faces and a
# lattice or two, so this holds every node set of a d <= 3 run
_NODE_SETS_KEPT = 32


@lru_cache(maxsize=_NODE_SETS_KEPT)
def _node_set(build: Callable, *args):
    """build(*args), an array or a tuple of arrays whose first is the points,
    made read-only and kept for the last _NODE_SETS_KEPT argument tuples, so
    that every caller of one node set shares its arrays and its stencils.
    Its points get an empty entry of kept stencils, which lives as long as
    they do.
    The public builders call this one and stay plain functions, the only
    kind perfbench's tracer wraps."""
    out = build(*args)
    arrays = out if isinstance(out, tuple) else (out,)
    for a in arrays:
        a.flags.writeable = False
    _kept[id(arrays[0])] = {}
    weakref.finalize(arrays[0], _kept.pop, id(arrays[0]))
    return out


def _volume_nodes(dom: ChartDomain, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    return _tensor_nodes([rule.axis_nodes(lo, hi) for lo, hi in dom.bounds])


def volume_nodes(dom: ChartDomain, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of the rule on the box: shared, read-only arrays."""
    return _node_set(_volume_nodes, dom, rule)


def _weighted_sum(coeff: Evaluator, nodes: tuple[np.ndarray, np.ndarray]):
    """Quadrature sum of coeff over (points, weights): a float for values of
    shape (N,) or a constant, an array of shape (...) for values (..., N),
    one integral per leading index.  numpy's pairwise summation adds each
    row in one thread, in an order fixed by N alone, so an integral does not
    depend on the BLAS thread count and is bitwise equal to the one of a
    lone (N,) row.  The product is laid out row-major (order="C") because a
    reduction over values laid out point-major, as the stacked jets of
    `virtual_power_of_stress` are, would add them sequentially instead."""
    pts, wts = nodes
    sums = np.add.reduce(np.multiply(coeff(pts), wts, order="C"), axis=-1)
    return float(sums) if sums.ndim == 0 else sums


def integrate_volume(coeff: Evaluator, dom: ChartDomain, rule: QuadratureRule = QuadratureRule()):
    """Quadrature of a volume-form coefficient against dX over the box; a
    coefficient with leading axes (..., N) gives one integral per leading index."""
    return _weighted_sum(coeff, volume_nodes(dom, rule))


def _face_nodes(dom: ChartDomain, face: BoundaryFace,
                rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    return _tensor_nodes([(np.array([_pinned(dom, face)]), np.array([1.0])) if a == face.axis
                          else rule.axis_nodes(lo, hi) for a, (lo, hi) in enumerate(dom.bounds)])


def face_nodes(dom: ChartDomain, face: BoundaryFace, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of the rule on one face: shared, read-only arrays."""
    return _node_set(_face_nodes, dom, face, rule)


def integrate_face(coeff: Evaluator, face: BoundaryFace, dom: ChartDomain,
                   rule: QuadratureRule) -> float:
    """Unsigned quadrature of a (d-1)-form coefficient over one face, against
    the interior product of the face axis with dX."""
    return _weighted_sum(coeff, face_nodes(dom, face, rule))


def integrate_boundary(coeff: Evaluator, face: BoundaryFace, dom: ChartDomain,
                       rule: QuadratureRule = QuadratureRule()) -> float:
    """Oriented face integral: induced_sign times the unsigned face quadrature."""
    if dom.is_periodic(face.axis):
        raise ValueError(f"axis {face.axis} is periodic and has no boundary faces")
    return face.induced_sign * integrate_face(coeff, face, dom, rule)


def stokes_residual(
    omega: Sequence[Evaluator],
    dom: ChartDomain,
    rule: QuadratureRule = QuadratureRule(),
    scheme: FDScheme = FDScheme(),
) -> float:
    """|volume integral of the divergence - oriented boundary sum| for the
    (d-1)-form with components omega[a] against (e_a interior-product dX).

    Periodic axes contribute no faces; their divergence terms integrate to
    zero for periodic data.
    """
    lhs = integrate_volume(lambda X: fd_divergence(omega, X, dom, scheme), dom, rule)
    rhs = sum(integrate_boundary(omega[f.axis], f, dom, rule) for f in dom.faces())
    return abs(lhs - rhs)


def _grid_axes(dom: ChartDomain, samples: int) -> list[np.ndarray]:
    return [np.linspace(lo, hi, samples, endpoint=not dom.is_periodic(a))
            for a, (lo, hi) in enumerate(dom.bounds)]


def _uniform_grid(dom: ChartDomain, samples: int) -> np.ndarray:
    return _lattice(_grid_axes(dom, samples))


def uniform_grid(dom: ChartDomain, samples: int) -> np.ndarray:
    """Uniform probe lattice, `samples` points per axis; periodic axes drop
    the duplicate endpoint.  The array is shared and read-only."""
    return _node_set(_uniform_grid, dom, samples)


def _face_grid(dom: ChartDomain, face: BoundaryFace, samples: int) -> np.ndarray:
    axes = _grid_axes(dom, samples)
    axes[face.axis] = np.array([_pinned(dom, face)])
    return _lattice(axes)


def face_grid(dom: ChartDomain, face: BoundaryFace, samples: int) -> np.ndarray:
    """Uniform probe lattice on one boundary face: the volume lattice's axes
    with the face axis pinned.  The array is shared and read-only."""
    return _node_set(_face_grid, dom, face, samples)


def sup_norm(f: Callable[[np.ndarray], object], points: np.ndarray) -> float:
    """Largest |entry| of f, evaluated once on the whole (N, d) point set.  A
    list-valued f (a check's components or form indices) is reduced over
    every entry of every piece: a NaN in any piece is the result, and zero
    pieces give 0.0.  An empty point set raises, so no check passes vacuously.
    """
    if len(points) == 0:
        raise ValueError("sup norm over an empty point set")
    return float(np.maximum.reduce(np.abs(f(points)), axis=None, initial=0.0))
