"""Time-varying discrete-time systems with disturbances and inputs.

A system is the tuple (f, H, h, D): state update ``x(t+1) = f(t, d(t), x(t),
u(t))`` with ``d(t)`` ranging over a compact box D, stabilized output
``Y(t) = H(t, x(t))`` and measured output ``y(t) = h(t, x(t))``.  Unforced
systems have input dimension k = 0.  All operations here are pure; systems,
policies with fixed seeds and trajectories are deterministic and replayable.
Policies hold their state from construction on; a fresh run takes a fresh
policy.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
import numpy as np

from .expr import (Dims, Expr, ExprDomainError, parse_expression, row_norms,
                   substitute, vecnorm)

__all__ = [
    "SystemDef", "Trajectory", "SampleConfig", "ReachableBound",
    "DisturbancePolicy", "ConstantDisturbance", "RandomDisturbance",
    "GreedyDisturbance", "InputPolicy", "ZeroInput", "ConstantInput",
    "SequenceInput",
    "step", "simulate", "closed_loop", "reachable_bound",
    "parse_system_file", "vecnorm", "row_norms", "d_candidates",
    "sphere_points", "sampled_sup", "first_max", "require_samples",
    "WorstMargin", "CertificateReport", "bind_inputs",
    "output_maps", "VectorMap", "EquilibriumWarning", "SystemFileError",
]

SLAB_ROWS = 4096  # points per evaluation slab in sampled_sup


class SystemFileError(ValueError):
    """Malformed system definition document."""


class EquilibriumWarning(UserWarning):
    """Zero-equilibrium spot check failed; carries a witness in the message."""


_EMPTY = np.zeros(0)
_NO_AUX = {}  # compiled expressions only read their aux mapping


class VectorMap:
    """A map (t, x, d, u) -> R^dim: a system's f, H or h, a feedback k, or
    a Lyapunov candidate V (dim 1).

    ``spec`` is a list of expression strings or ASTs, one per component
    (strings are parsed against dimensions ``n``, ``m``, ``k``); a callable,
    or one string or AST not in a list, is refused with
    :class:`SystemFileError`.  The map is evaluated by
    :meth:`eval` at one point, :meth:`rows` over N row-aligned points and
    :meth:`grid` over a product of outer and inner rows (one array
    evaluation per component), equal bit for bit, errors included: of
    several failing points, the first in C order raises.  ``dim``, when
    given, must match the expression count.
    """

    def __init__(self, spec, what: str, dim: int = None, n: int = None,
                 m: int = 0, k: int = 0):
        if callable(spec) or isinstance(spec, (str, Expr)):
            raise SystemFileError(f"{what} ({type(spec).__name__}) is not an "
                                  f"expression list")
        exprs = []
        for i, e in enumerate(spec):
            if isinstance(e, str):
                e = parse_expression(e, Dims(n=n, m=m, k=k))
            elif not isinstance(e, Expr):
                raise SystemFileError(f"{what}[{i}] ({type(e).__name__}) is not "
                                      f"an expression")
            exprs.append(e)
        if dim is not None and len(exprs) != dim:
            raise SystemFileError(
                f"{what} has {len(exprs)} components, expected {dim}")
        self.exprs, self.dim = tuple(exprs), len(exprs)

    @functools.cached_property
    def _fns(self):
        """The point evaluators, compiled at the first point call: a map
        evaluated only over rows, or only substituted, compiles no scalar
        code."""
        return [e.compiled() for e in self.exprs]

    def eval(self, t, x, d=_EMPTY, u=_EMPTY) -> np.ndarray:
        """The map at one point: a float ``t`` and float vectors."""
        return np.array([fn(t, x, d, u, _NO_AUX) for fn in self._fns], dtype=float)

    def scalar(self, t, x, d=_EMPTY, u=_EMPTY):
        """The first component's float at one point, without building the
        vector."""
        return self._fns[0](t, x, d, u, _NO_AUX)

    def rows(self, t, X, D=None, U=None) -> np.ndarray:
        """(N, dim) values at the rows of the (N, ·) arrays X, D and U (None:
        the empty vector).  ``t`` is one time for every row or a column of N
        per-row times.  Row i equals :meth:`eval` of row i bit for bit (NaN
        sign bits aside, see :mod:`dtstab.expr`)."""
        X = np.asarray(X, dtype=float)
        N = X.shape[0]
        t = np.asarray(t, dtype=float)
        t = float(t) if t.ndim == 0 else t.reshape(N)
        cols = (X.T, _EMPTY if D is None else D.T, _EMPTY if U is None else U.T)
        return self._fill(np.empty((N, self.dim)), t, cols, X, D, U)

    def grid(self, t, X, D=None, U=None) -> np.ndarray:
        """(R, K, dim) values at one time ``t`` on a product of row sets:
        each of X, D and U (None: the empty vector) is an (R, 1, ·) array of
        outer rows or a (1, K, ·) array of inner rows, and entry (r, k) equals
        :meth:`eval` at the (r, k) rows bit for bit.  A component is one
        array evaluation over (R, 1) and (1, K) columns, so a term that reads
        only the outer sets runs R times, not R·K."""
        shape = np.broadcast_shapes(*(A.shape[:2] for A in (X, D, U) if A is not None))
        cols = [_EMPTY if A is None else A.transpose(2, 0, 1) for A in (X, D, U)]
        return self._fill(np.empty(shape + (self.dim,)), float(t), cols, X, D, U)

    def _fill(self, out, t, cols, X, D, U):
        """``out[..., j]``: component j over the columns ``cols``, broadcast
        (a float fills).  On :class:`ExprDomainError`, :meth:`eval` runs at
        each point of ``out``, t and the row sets X, D and U broadcast to
        it, in C order: the first failing point's error is raised."""
        try:
            for j, e in enumerate(self.exprs):
                out[..., j] = e.batched()(t, *cols, _NO_AUX)
        except ExprDomainError:
            shape = out.shape[:-1]
            t = np.broadcast_to(t, shape)
            sets = [None if A is None else np.broadcast_to(A, shape + A.shape[-1:])
                    for A in (X, D, U)]
            for i in np.ndindex(shape):
                self.eval(float(t[i]), *(_EMPTY if A is None else A[i] for A in sets))
            raise
        return out


@dataclass
class SystemDef:
    """System (f, H, h, D).  Treated as immutable after construction.

    ``f``, ``H`` and ``h`` are lists of expression strings (parsed against
    the declared dimensions) or ASTs; ``h=None`` reuses H as the measured
    output.  The output widths ``p_Y`` and ``p_y`` are the component counts
    of H and h.
    """

    n: int
    m: int
    k: int
    d_box: np.ndarray
    f: object
    H: object
    h: object = None
    name: str = ""

    def __post_init__(self):
        box = np.asarray(self.d_box, dtype=float).reshape(self.m, 2)
        if not np.all(np.isfinite(box)):
            raise SystemFileError("d_box bounds must be finite")
        if np.any(box[:, 0] > box[:, 1]):
            raise SystemFileError("d_box must satisfy lo <= hi componentwise")
        box.flags.writeable = False
        self.d_box = box

        self._fmap = VectorMap(self.f, "f", self.n, n=self.n, m=self.m, k=self.k)
        self._Hmap = VectorMap(self.H, "H", n=self.n)
        self._hmap = (self._Hmap if self.h is None  # h=None reuses H
                      else VectorMap(self.h, "h", n=self.n))
        self.f_exprs, self.H_exprs, self.h_exprs = (
            self._fmap.exprs, self._Hmap.exprs, self._hmap.exprs)
        self.p_Y, self.p_y = self._Hmap.dim, self._hmap.dim
        # the scalar paths (f_eval, simulate, greedy adversaries) call these
        self._f, self._H, self._h = self._fmap.eval, self._Hmap.eval, self._hmap.eval

    # -- evaluation --

    def f_eval(self, t, d, x, u=None) -> np.ndarray:
        if u is None:
            u = _EMPTY
        return np.asarray(self._f(float(t), np.asarray(x, dtype=float),
                                  np.asarray(d, dtype=float),
                                  np.asarray(u, dtype=float)), dtype=float)

    def H_eval(self, t, x) -> np.ndarray:
        return self._H(float(t), np.asarray(x, dtype=float))

    def f_rows(self, t, X, D, U=None) -> np.ndarray:
        """f(t, d, x, u) for the row-aligned (N, dim) arrays X, D, U.

        ``t`` is one time for every row or a column of N per-row times.
        Returns (N, n) rows, each bit-identical to :meth:`f_eval` of its row
        (see :meth:`VectorMap.rows`).
        """
        X = np.asarray(X, dtype=float)
        N = X.shape[0]
        D = np.asarray(D, dtype=float).reshape(N, self.m)
        U = None if U is None else np.asarray(U, dtype=float).reshape(N, self.k)
        return self._fmap.rows(t, X, D, U)

    def H_rows(self, t, X) -> np.ndarray:
        """H(t, x) for every row of X (``t`` one time or a column): (N, p_Y),
        bit-identical to H_eval."""
        return self._Hmap.rows(t, X)

    def h_rows(self, t, X) -> np.ndarray:
        """h(t, x) for every row of X (``t`` one time or a column): (N, p_y),
        bit-identical to h_eval."""
        return self._hmap.rows(t, X)

    def h_eval(self, t, x) -> np.ndarray:
        return self._h(float(t), np.asarray(x, dtype=float))

    def d_mid(self) -> np.ndarray:
        return (self.d_box[:, 0] + self.d_box[:, 1]) / 2.0

    @functools.cached_property
    def d_corners(self) -> np.ndarray:
        """The corners of D (at most 256, see ``_box_corners``), computed
        once per system; read-only."""
        corners = _box_corners(self.d_box)
        corners.flags.writeable = False
        return corners

    def check_equilibrium(self, ts=range(21)) -> list:
        """Spot-check f(t,d,0,0)=0, H(t,0)=0, h(t,0)=0 at box corners.

        Returns witness dicts (empty when the checks hold on the sample).
        """
        witnesses = []
        zero_x = np.zeros(self.n)
        zero_u = np.zeros(self.k)
        for t in ts:
            for dcorner in self.d_corners:
                val = self.f_eval(t, dcorner, zero_x, zero_u)
                if np.any(val != 0.0):
                    witnesses.append({"map": "f", "t": int(t),
                                      "d": dcorner.tolist(), "value": val.tolist()})
            for mapname, fn in (("H", self.H_eval), ("h", self.h_eval)):
                val = fn(t, zero_x)
                if np.any(val != 0.0):
                    witnesses.append({"map": mapname, "t": int(t),
                                      "value": val.tolist()})
        return witnesses


def _box_corners(box: np.ndarray, cap: int = 256) -> np.ndarray:
    m = box.shape[0]
    if m == 0:
        return np.zeros((1, 0))
    if 2 ** m > cap:
        m_full = int(np.log2(cap))
        corners = _box_corners(box[:m_full], cap)
        mid = np.tile((box[m_full:, 0] + box[m_full:, 1]) / 2.0, (corners.shape[0], 1))
        return np.hstack([corners, mid])
    grid = np.meshgrid(*[box[i] for i in range(m)], indexing="ij")
    return np.stack([g.reshape(-1) for g in grid], axis=1)


def d_candidates(d_box, grid: int = 9, random: int = 0, rng=None) -> np.ndarray:
    """Deterministic corner + per-dimension grid candidates, plus random fills.

    This is the sampled stand-in for suprema over the disturbance set: corners
    catch bilinear worst cases, the grid interior extrema, random points the
    rest.  Always a finite under-approximation of the true sup.
    """
    box = np.asarray(d_box, dtype=float).reshape(-1, 2)
    m = box.shape[0]
    if m == 0:
        return np.zeros((1, 0))
    pieces = [_box_corners(box)]
    if grid > 0:
        if m == 1:
            pieces.append(np.linspace(box[0, 0], box[0, 1], grid).reshape(-1, 1))
        else:
            axes = [np.linspace(lo, hi, grid) for lo, hi in box]
            total = grid ** m
            if total <= 4096:
                mesh = np.meshgrid(*axes, indexing="ij")
                pieces.append(np.stack([g.reshape(-1) for g in mesh], axis=1))
            else:  # axis sweeps through the midpoint instead of a full product
                mid = (box[:, 0] + box[:, 1]) / 2.0
                for i in range(m):
                    sweep = np.tile(mid, (grid, 1))
                    sweep[:, i] = axes[i]
                    pieces.append(sweep)
    if random > 0:
        rng = np.random.default_rng(rng)
        pieces.append(rng.uniform(box[:, 0], box[:, 1], size=(random, m)))
    cands = np.vstack(pieces)
    return np.unique(cands, axis=0)


def sphere_points(dim: int, radius: float, directions: int = 64,
                  scales=(1.0,), rng=None) -> np.ndarray:
    """Points with norm radius*scale: signed axis vectors plus random directions."""
    if dim == 0:
        return np.zeros((1, 0))
    if radius == 0.0:
        return np.zeros((1, dim))
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    dirs = [axes]
    if directions > 0:
        rng = np.random.default_rng(rng)
        g = rng.standard_normal((directions, dim))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs.append(g / norms)
    dirs = np.vstack(dirs)
    return np.vstack([dirs * (radius * s) for s in scales])


def first_max(values) -> tuple:
    """(value, index) of the first maximum of a 1-D array; NaN wins."""
    i = int(np.argmax(values))  # argmax returns the first NaN, else the first max
    return float(values[i]), i


def _beats(value, best) -> bool:
    """Whether ``value`` replaces ``best`` in a first-maximum scan (NaN wins)."""
    return value > best or (value != value and best == best)


PASS, PASS_TOL, FAIL = "pass", "pass (tolerance)", "fail"


def require_samples(count, what: str):
    """Refuse a check over no samples: none would read as "no violation"."""
    if count < 1:
        raise ValueError(f"empty sample set: no {what}")


class WorstMargin:
    """Worst margin of a check, fed one array of margins at a time: the first
    maximum (a NaN wins), its rhs and witness, and the sample count.  With a
    ``floor``, only a margin above it takes the witness.  A verdict over no
    samples raises ValueError.
    """

    def __init__(self, what: str, floor: float = None):
        self.what = what
        self.margin = floor  # None: the first margin fed is the first maximum
        self.rhs = None
        self.witness = None
        self.samples = 0

    def add(self, margins, rhs, witness):
        """Scan one t-slice, trajectory or sample set; ``rhs`` is an array
        like ``margins`` or one value; ``witness(i)`` builds the witness of
        flat index i when it becomes the worst."""
        margins = np.asarray(margins, dtype=float).reshape(-1)
        if margins.shape[0] == 0:
            return
        self.samples += margins.shape[0]
        value, i = first_max(margins)
        if self.margin is None or _beats(value, self.margin):
            rhs = np.asarray(rhs, dtype=float)
            self.margin = value
            self.rhs = float(rhs.reshape(-1)[i] if rhs.ndim else rhs)
            self.witness = witness(i)

    def verdict(self, tol) -> str:
        """The one rule for ``LHS <= RHS``, margin ``LHS - RHS``: pass when
        margin <= 0, pass (tolerance) when margin is finite and <= tol * (1 +
        |rhs|), fail otherwise, NaN and +inf included (+inf against an rhs
        of -inf would read as within an infinite tolerance)."""
        require_samples(self.samples, self.what)
        if self.margin <= 0.0:
            return PASS
        if self.margin < math.inf and self.margin <= tol * (1.0 + abs(self.rhs)):
            return PASS_TOL
        return FAIL


class _FieldsJSON:
    """A dataclass whose fields are its JSON keys: :meth:`to_json` maps each
    field name to its value."""

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class CertificateReport(_FieldsJSON):
    """Verdict of one ``LHS <= RHS`` check, as a :class:`WorstMargin` scan
    found it: the worst margin, its witness and the sample count."""

    check: str
    verdict: str
    worst_margin: float
    witness: dict
    samples: int
    tol: float
    details: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.verdict != FAIL


def sampled_sup(sys: "SystemDef", t, sets, score, keep: int = 0):
    """First maximum of ``score`` over f(t, d, x, u) on a product of sample sets.

    ``sets`` lists (name, rows) pairs, name in "d", "x", "u", outermost loop
    first; a left-out "u" is the empty input.  ``score(F, idx)`` maps a
    slab's (N, n) successor states and its index arrays ``idx[name]`` to N
    values.  The first ``keep`` sets are kept: the maximum is taken over the
    remaining sets separately for each index tuple of the kept ones.

    Returns (sup, arg): the maximum and the flat index, in nested-loop order
    over the reduced sets, of its first occurrence; arrays shaped by the kept
    sets, or a float and an int when keep=0.  NaN wins the max, so a NaN
    score is reported, never passed over.

    Points are evaluated in slabs of at most SLAB_ROWS points through
    :meth:`VectorMap.grid`.  The innermost set is the last one with more
    than one row; the one-row sets after it are (1, 1) columns, which change
    no flat index.  A slab is R rows of the outer sets (the sets before the
    innermost, in loop order) times K rows of the innermost set, all of it,
    or a chunk of it with R = 1 when it alone is longer than a slab.  So an
    expression term of f that reads only the outer sets runs once per outer
    row, not once per innermost row.  Slabs are contiguous runs of the
    nested-loop order, in which ``score`` sees them; only the scores of the
    whole product (8 bytes a point) are held at once.  A slab's points are
    in the C order of its grid, so an :class:`ExprDomainError` is the first
    failing point's in nested-loop order, whatever the slab bounds.
    """
    names = [name for name, _ in sets]
    dims = {"d": sys.m, "x": sys.n, "u": sys.k}
    rows = []
    for name, r in sets:
        r = np.asarray(r, dtype=float)
        require_samples(r.shape[0], f"{name} values")
        rows.append(r.reshape(r.shape[0], dims[name]))
    shape = tuple(r.shape[0] for r in rows)
    groups, size = math.prod(shape[:keep]), math.prod(shape[keep:])
    j = max((i for i, count in enumerate(shape) if count > 1), default=0)  # innermost
    outer, inner = math.prod(shape[:j]), shape[j]
    per_slab = max(1, SLAB_ROWS // inner)  # outer rows in a slab
    chunk = min(inner, SLAB_ROWS)  # innermost rows in a slab

    scores = np.empty(groups * size)
    for r0 in range(0, outer, per_slab):
        r1 = min(outer, r0 + per_slab)
        for k0 in range(0, inner, chunk):
            k1 = min(inner, k0 + chunk)
            lo, hi = r0 * inner + k0, (r1 - 1) * inner + k1
            idx = dict(zip(names, np.unravel_index(np.arange(lo, hi), shape)))
            # each outer row of the slab spans k1 - k0 consecutive points
            got = {name: r[idx[name][::k1 - k0], None]
                   for name, r in zip(names[:j], rows)}
            got[names[j]] = rows[j][None, k0:k1]
            got.update((name, r[None]) for name, r in zip(names[j + 1:], rows[j + 1:]))
            F = sys._fmap.grid(t, got["x"], got["d"], got.get("u"))
            scores[lo:hi] = score(F.reshape(hi - lo, sys.n), idx)  # a float fills
    scores = scores.reshape(groups, size)
    arg = np.argmax(scores, axis=1)  # the first NaN, else the first max
    sup = scores[np.arange(groups), arg]
    if keep == 0:
        return float(sup[0]), int(arg[0])
    return sup.reshape(shape[:keep]), arg.reshape(shape[:keep])


def _norm_score(F, idx):
    return row_norms(F)


def _sup_norm_f(sys: "SystemDef", t_max: int, t_cap: int, sets, memo=None):
    """First maximum of ||f(t, d, x, u)|| over t = 0..t_max and the sample
    product ``sets`` (as in :func:`sampled_sup`), scanning t in order from
    a best of 0; a NaN wins.  More than ``t_cap`` times are thinned to at
    most ``t_cap`` evenly spread integers.  Returns (sup, t, flat index of
    the product), t and index None when no sample exceeds 0.

    ``memo``, a dict t -> (sup, flat index) of this product's time slices,
    saves re-evaluating a slice: a slice found there is read, not evaluated,
    and a slice evaluated is stored (one that raises is not).  The scan over
    t is the same either way.
    """
    ts = np.arange(0, t_max + 1)
    if ts.shape[0] > t_cap:
        ts = np.unique(np.linspace(0, t_max, t_cap).astype(int))
    memo = {} if memo is None else memo
    best, arg_t, arg_i = 0.0, None, None
    for t in ts:
        if t not in memo:
            memo[t] = sampled_sup(sys, t, sets, _norm_score)
        val, i = memo[t]
        if _beats(val, best):
            best, arg_t, arg_i = val, int(t), i
    return best, arg_t, arg_i


@dataclass
class SampleConfig:
    """Sampling effort for the sup-estimating operations."""

    d_grid: int = 9
    d_random: int = 256
    x_directions: int = 512
    x_scales: tuple = (1.0,)
    u_directions: int = 16
    t_cap: int = 64
    seed: int = 42


# --- policies ---

class DisturbancePolicy:
    def __call__(self, sys: SystemDef, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def descriptor(self) -> str:
        return type(self).__name__


class ConstantDisturbance(DisturbancePolicy):
    def __init__(self, value):
        self.value = np.asarray(value, dtype=float).reshape(-1)

    def __call__(self, sys, t, x, u):
        return self.value

    def descriptor(self):
        return f"constant(d={self.value.tolist()})"


class RandomDisturbance(DisturbancePolicy):
    """Seeded per-step sampler: box corners, interior points, or a mix.

    Every pick reads the same number of doubles from the generator's
    ``random``: in mode "mixed" first a coin (below 0.5: a corner), then
    one double r per component in every mode.  At a corner a component is
    ``hi`` when r >= 0.5, else ``lo``; inside the box it is ``lo + (hi - lo)
    * r``, which is ``Generator.uniform(lo, hi)`` bit for bit.  So N picks
    are one ``random((N, coin + m))`` call, equal row for row to N picks of
    one, on every bit generator.
    """

    def __init__(self, seed=0, mode="interior"):
        if mode not in ("interior", "corner", "mixed"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    @classmethod
    def _from_generator(cls, rng, seed, mode):
        """``cls(seed, mode)`` from ``rng``, a ready generator equal to
        ``default_rng(seed)``."""
        pol = cls(rng, mode)  # default_rng passes a Generator through
        pol.seed = seed
        return pol

    def __call__(self, sys, t, x, u):
        return self.table(sys.d_box, 1)[0]

    def table(self, box, N):
        """The next N picks in the (m, 2) ``box``, an (N, m) array."""
        box = np.asarray(box, dtype=float)
        lo, hi = box[:, 0], box[:, 1]
        coin = int(self.mode == "mixed")
        r = self.rng.random((N, coin + box.shape[0]))
        draws = r[:, coin:]
        if self.mode == "interior":
            return lo + (hi - lo) * draws
        corner = np.where(draws >= 0.5, hi, lo)
        if self.mode == "corner":
            return corner
        return np.where(r[:, :1] < 0.5, corner, lo + (hi - lo) * draws)

    def descriptor(self):
        return f"random(mode={self.mode}, seed={self.seed})"


class GreedyDisturbance(DisturbancePolicy):
    """Per-step output-seeking adversary: picks the candidate d maximizing
    the stabilized-output norm ||H(t + 1, f(t, x, d, u))|| at the successor.

    Candidates are box corners plus a ``grid``-point per-dimension grid, so
    this is an explicit lower bound on the true adversary.  The pick is the
    first strict maximum, never a NaN score, and the first candidate when
    every score is NaN.  ``seed`` draws nothing; it names the trajectory's
    adversary in its descriptor.
    """

    def __init__(self, grid: int = 5, seed=0):
        self.grid = grid
        self.seed = seed
        self._cands = None

    def __call__(self, sys, t, x, u):
        if self._cands is None:
            self._cands = d_candidates(sys.d_box, grid=self.grid, random=0)
        t = float(t)
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        best, best_score = self._cands[0], -np.inf
        for dcand in self._cands:
            score = vecnorm(sys._H(t + 1.0, sys._f(t, x, dcand, u)))
            if score > best_score:
                best, best_score = dcand, score
        return best

    def descriptor(self):
        return f"greedy(output-seeking, grid={self.grid}, seed={self.seed})"


class InputPolicy:
    def __call__(self, sys: SystemDef, t: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def descriptor(self) -> str:
        return type(self).__name__


class ZeroInput(InputPolicy):
    def __call__(self, sys, t, x):
        return np.zeros(sys.k)

    def descriptor(self):
        return "zero"


class ConstantInput(InputPolicy):
    def __init__(self, value):
        self.value = np.asarray(value, dtype=float).reshape(-1)

    def __call__(self, sys, t, x):
        return self.value

    def descriptor(self):
        return f"constant(u={self.value.tolist()})"


class SequenceInput(InputPolicy):
    """Plays a fixed sequence indexed by t - t0 (zero once exhausted)."""

    def __init__(self, values, t0=0):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values.reshape(-1, 1)
        self.t0 = t0

    def __call__(self, sys, t, x):
        i = int(t) - self.t0
        if 0 <= i < self.values.shape[0]:
            return self.values[i]
        return np.zeros(sys.k)

    def descriptor(self):
        return f"sequence(len={self.values.shape[0]})"


# --- trajectories ---

@dataclass
class Trajectory:
    """Time-indexed rows (t, x, d, u, Y, y), plus controller state if present.

    Consecutive rows satisfy x(t+1) = f(t, d(t), x(t), u(t)) exactly as
    evaluated; the final row still records the policies' (d, u) picks.
    """

    t0: int
    t: np.ndarray
    x: np.ndarray
    d: np.ndarray
    u: np.ndarray
    Y: np.ndarray
    y: np.ndarray
    w: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __len__(self):
        return self.t.shape[0]

    @property
    def x0(self):
        return self.x[0]

    def write_csv(self, path):
        cols = [("x", self.x), ("d", self.d), ("u", self.u),
                ("Y", self.Y), ("y", self.y)]
        if self.w is not None:
            cols.append(("w", self.w))
        header = ["t"]
        for name, arr in cols:
            header.extend(f"{name}{i + 1}" for i in range(arr.shape[1]))
        lines = [",".join(header)]
        for i in range(len(self)):
            row = [str(int(self.t[i]))]
            for _, arr in cols:
                row.extend(f"{v:.17g}" for v in arr[i])
            lines.append(",".join(row))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def read_csv(cls, path):
        lines = Path(path).read_text().strip().split("\n")
        header = lines[0].split(",")
        counts = {"x": 0, "d": 0, "u": 0, "Y": 0, "y": 0, "w": 0}
        for name in header[1:]:
            counts[name.rstrip("0123456789")] += 1
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        ts = data[:, 0].astype(int)
        out, ofs = {}, 1
        for key in ("x", "d", "u", "Y", "y", "w"):
            out[key] = data[:, ofs:ofs + counts[key]]
            ofs += counts[key]
        w = out["w"] if counts["w"] else None
        return cls(t0=int(ts[0]), t=ts, x=out["x"], d=out["d"], u=out["u"],
                   Y=out["Y"], y=out["y"], w=w)


def step(sys: SystemDef, t: int, x, d, u=None) -> np.ndarray:
    """One transition x(t+1) = f(t, d, x, u).  Pure.

    ``u`` may be omitted only for unforced systems (k = 0).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)
    u = np.zeros(0) if u is None else np.asarray(u, dtype=float).reshape(-1)
    if x.shape[0] != sys.n or d.shape[0] != sys.m or u.shape[0] != sys.k:
        raise ValueError(
            f"dimension mismatch: got (x={x.shape[0]}, d={d.shape[0]}, "
            f"u={u.shape[0]}), system is (n={sys.n}, m={sys.m}, k={sys.k})")
    if np.any(d < sys.d_box[:, 0]) or np.any(d > sys.d_box[:, 1]):
        raise ValueError(f"disturbance {d.tolist()} outside the declared box")
    return sys.f_eval(t, d, x, u)


def simulate(sys: SystemDef, t0: int, x0, dpol: DisturbancePolicy = None,
             upol: InputPolicy = None, horizon: int = 60,
             meta: dict = None) -> Trajectory:
    """Roll the system forward for ``horizon`` steps (horizon+1 rows)."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    dpol = dpol if dpol is not None else ConstantDisturbance(sys.d_mid())
    upol = upol if upol is not None else ZeroInput()
    N = horizon + 1
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != sys.n:
        raise ValueError(f"x0 has dimension {x.shape[0]}, expected {sys.n}")
    T = np.arange(t0, t0 + N)
    X = np.empty((N, sys.n))
    D = np.empty((N, sys.m))
    U = np.empty((N, sys.k))
    Yv = np.empty((N, sys.p_Y))
    yv = np.empty((N, sys.p_y))
    f_, H_, h_ = sys._f, sys._H, sys._h
    for i, t in enumerate(T):
        tf = float(t)
        X[i] = x
        Yv[i] = H_(tf, x)
        yv[i] = h_(tf, x)
        u = np.asarray(upol(sys, t, x), dtype=float).reshape(-1)
        d = np.asarray(dpol(sys, t, x, u), dtype=float).reshape(-1)
        U[i], D[i] = u, d
        if i + 1 < N:
            x = f_(tf, x, d, u)
    info = {"d_policy": dpol.descriptor(), "u_policy": upol.descriptor()}
    if meta:
        info.update(meta)
    return Trajectory(t0=t0, t=T, x=X, d=D, u=U, Y=Yv, y=yv, meta=info)


def bind_inputs(f_exprs, u_exprs) -> list:
    """``f_exprs`` with each input ``u_i`` replaced by the AST ``u_exprs[i-1]``,
    bound by index, not spelling (the parser keeps "u01" as it is written)."""
    used = frozenset().union(*(e.variables() for e in f_exprs))
    bindings = {v: u_exprs[int(v[1:]) - 1] for v in used if v[0] == "u"}
    return [substitute(e, bindings) for e in f_exprs]


def output_maps(sys: SystemDef) -> dict:
    """The ``H`` and ``h`` arguments that give a derived system the outputs
    of ``sys``: its expression lists, and ``h=None`` when ``sys`` reuses H."""
    return {"H": list(sys.H_exprs),
            "h": None if sys.h is None else list(sys.h_exprs)}


def closed_loop(sys: SystemDef, fb) -> SystemDef:
    """Absorb a state feedback u = k(t, x) into the dynamics (k becomes 0).

    On an unforced system any feedback is vacuous and the system is returned
    unchanged.  Otherwise the feedback, an expression list over (t, x1..xn)
    one component per input, is substituted for u into the plant's ASTs,
    so the closed loop is again an expression system (same values bit for
    bit, and batchable); the outputs are the plant's (see
    :func:`output_maps`) and its name is the plant's and the feedback's
    text.  Anything but an expression list of width k is refused with
    ValueError (:class:`SystemFileError`).  The zero equilibrium is
    preserved iff f(t,d,0,k(t,0)) = 0; this is spot-checked and a warning
    is emitted otherwise.
    """
    if sys.k == 0:
        return sys
    k_exprs = VectorMap(fb, "feedback", sys.k, n=sys.n).exprs
    text = ", ".join(map(str, k_exprs))
    out = SystemDef(n=sys.n, m=sys.m, k=0, d_box=sys.d_box,
                    f=bind_inputs(sys.f_exprs, k_exprs), **output_maps(sys),
                    name=f"{sys.name}|state-feedback({text})")
    bad = out.check_equilibrium(ts=range(0, 21, 5))
    if bad:
        warnings.warn(f"feedback moves the zero equilibrium: {bad[0]}",
                      EquilibriumWarning, stacklevel=2)
    return out


@dataclass
class ReachableBound:
    """Radius estimates rho(0..T) for the iterated-image reachability recursion.

    rho(k) is the max of ||f|| over sampled (t <= 2T, d, ||x|| <= rho(k-1),
    ||u|| <= r); a sampled under-approximation of the true sup that still
    upper-bounds every sampled trajectory.
    """

    r: float
    T: int
    rho: np.ndarray
    witnesses: list


def reachable_bound(sys: SystemDef, r: float, T: int,
                    sample_cfg: SampleConfig = None) -> ReachableBound:
    if not 0.0 <= r < math.inf or T < 0:  # NaN fails the comparison
        raise ValueError("require a finite r >= 0 and T >= 0")
    cfg = sample_cfg or SampleConfig(d_random=32, x_directions=64, u_directions=8)
    rng = np.random.default_rng(cfg.seed)
    dcands = d_candidates(sys.d_box, grid=cfg.d_grid, random=cfg.d_random, rng=rng)
    if sys.k > 0:
        ucands = np.vstack([np.zeros((1, sys.k)),
                            sphere_points(sys.k, r, cfg.u_directions,
                                          scales=(1.0, 0.5), rng=rng)])
    else:
        ucands = np.zeros((1, 0))

    rho = np.empty(T + 1)
    rho[0] = r
    witnesses = [None]
    for kstep in range(1, T + 1):
        xs = sphere_points(sys.n, rho[kstep - 1], cfg.x_directions,
                           scales=cfg.x_scales, rng=rng)
        best, t, i = _sup_norm_f(sys, 2 * T, cfg.t_cap,
                                 (("d", dcands), ("x", xs), ("u", ucands)))
        wit = None
        if t is not None:
            di, xi, ui = np.unravel_index(i, (len(dcands), len(xs), len(ucands)))
            wit = {"t": t, "d": dcands[di].tolist(), "x": xs[xi].tolist(),
                   "u": ucands[ui].tolist(), "norm": best}
        rho[kstep] = best
        witnesses.append(wit)
    return ReachableBound(r=r, T=T, rho=rho, witnesses=witnesses)


def parse_system_file(doc) -> SystemDef:
    """Build a SystemDef from a JSON document (text, mapping or path).

    Required keys: n, m, k, d_box, f, H.  Optional: h (defaults to H), name.
    The zero-equilibrium property is spot-checked at t in 0..20 and box
    corners; failures are reported as :class:`EquilibriumWarning` witnesses.
    """
    if isinstance(doc, (str, Path)) and "{" not in str(doc):
        doc = Path(doc).read_text()
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as ex:
            raise SystemFileError(f"not valid JSON: {ex}") from None
    if not isinstance(doc, dict):
        raise SystemFileError("system document must be a JSON object")
    missing = [key for key in ("n", "m", "k", "d_box", "f", "H") if key not in doc]
    if missing:
        raise SystemFileError(f"missing keys: {', '.join(missing)}")
    n, m, k = (int(doc[key]) for key in ("n", "m", "k"))
    d_box = doc["d_box"]
    if len(d_box) != m:
        raise SystemFileError(f"d_box has {len(d_box)} rows, expected m={m}")
    sys_ = SystemDef(n=n, m=m, k=k, d_box=d_box, f=list(doc["f"]),
                     H=list(doc["H"]),
                     h=list(doc["h"]) if doc.get("h") is not None else None,
                     name=str(doc.get("name", "")))
    bad = sys_.check_equilibrium()
    if bad:
        warnings.warn(
            f"zero-equilibrium spot check failed for '{sys_.name}': {bad[0]}",
            EquilibriumWarning, stacklevel=2)
    return sys_
