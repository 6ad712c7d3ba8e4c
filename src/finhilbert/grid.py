"""Sampled functions on (-1, 1) with quadrature weights, and their builders.

A :class:`GridFunction` is the concrete carrier for every function in the
library: complex samples at a declared node family plus weights for
integration over (-1, 1).  Values are immutable after construction; all
operations return new objects, so everything here is safe to share between
threads.  A function may additionally carry a :mod:`profile
<finhilbert.profiles>` describing its exact structure; evaluation,
integration, transforms and inversion all read :attr:`GridFunction.structure`.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field

import numpy as np

from . import chebalg as ca
from .intervals import as_interval_set
from .profiles import Profile

CHEBYSHEV = "chebyshev-gauss"
UNIFORM = "uniform"
CUSTOM = "custom"

DEFAULT_NODES = 512


@dataclass(frozen=True, eq=False)   # identity semantics: ndarray fields
class GridFunction:
    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    node_family: str = CHEBYSHEV
    profile: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        weights = np.asarray(self.weights, dtype=float)
        if not (len(nodes) == len(values) == len(weights)):
            raise ValueError("nodes, values and weights must have equal length")
        if len(nodes) and (nodes[0] <= -1.0 or nodes[-1] >= 1.0):
            raise ValueError("nodes must lie in the open interval (-1, 1)")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample values must be finite (no NaN or inf)")
        for arr in (nodes, values, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    # ------------------------------------------------------------- evaluation
    def __len__(self):
        return len(self.nodes)

    def eval_at(self, x):
        """Values at arbitrary points: those of the :attr:`structure`."""
        return self.structure.eval(x)

    @functools.cached_property
    def structure(self):
        """The :class:`Profile` of exactly what :meth:`eval_at` evaluates: the
        profile; else the interpolant of ``chebyshev-gauss`` samples; else
        that of ``uniform`` and ``custom`` ones, :meth:`Profile.linear`."""
        if self.profile is not None:
            return self.profile
        if self.node_family == CHEBYSHEV:
            return Profile.poly(self._interpolant)
        return Profile.linear(self.nodes, self.values)

    @functools.cached_property
    def _interpolant(self):
        """Chebyshev coefficients of the samples, fitted once per object."""
        return ca.fit_chebyshev(self.values)

    def with_values(self, values, profile=None):
        return GridFunction(self.nodes, values, self.weights, self.node_family, profile)

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other):
        self._check_aligned(other)
        prof = None
        if self.profile is not None and other.profile is not None:
            prof = self.profile.plus(other.profile)
        return self.with_values(self.values + other.values, prof)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, c):
        if isinstance(c, GridFunction):
            self._check_aligned(c)
            prof = None
            if self.profile is not None and c.profile is not None:
                prof = self.profile.times(c.profile)
            return self.with_values(self.values * c.values, prof)
        prof = self.profile.scaled(c) if self.profile is not None else None
        return self.with_values(self.values * c, prof)

    __rmul__ = __mul__

    def _check_aligned(self, other):
        if len(self) != len(other) or not np.array_equal(self.nodes, other.nodes):
            raise ValueError("grid functions are defined on different nodes")

    # ------------------------------------------------------------ persistence
    def to_csv(self, path_or_buf):
        rows = zip(self.nodes.tolist(), self.values.real.tolist(),
                   self.values.imag.tolist(), self.weights.tolist())
        if hasattr(path_or_buf, "write"):
            _write_csv(path_or_buf, rows)
        else:
            with open(path_or_buf, "w", newline="") as fh:
                _write_csv(fh, rows)

    def to_dict(self):
        """The JSON payload: ``node_family`` and the ``node``, ``re``, ``im``
        and ``weight`` lists, as Python floats that round-trip exactly."""
        return {
            "node_family": self.node_family,
            "node": self.nodes.tolist(),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
            "weight": self.weights.tolist(),
        }

    def to_json(self, path=None):
        text = json.dumps(self.to_dict(), sort_keys=True)
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)
        return text

    @staticmethod
    def from_csv(path_or_buf, node_family=CUSTOM):
        if hasattr(path_or_buf, "read"):
            rows = list(csv.DictReader(path_or_buf))
        else:
            with open(path_or_buf, newline="") as fh:
                rows = list(csv.DictReader(fh))
        nodes = np.array([float(r["node"]) for r in rows])
        vals = np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows])
        weights = np.array([float(r["weight"]) for r in rows])
        return GridFunction(nodes, vals, weights, node_family)

    @staticmethod
    def from_json(text_or_path):
        if isinstance(text_or_path, str) and text_or_path.lstrip().startswith("{"):
            payload = json.loads(text_or_path)
        else:
            with open(text_or_path) as fh:
                payload = json.load(fh)
        # a ``finhilbert solve`` artifact nests the grid under "solution"
        payload = payload.get("solution", payload)
        vals = np.array(payload["re"]) + 1j * np.array(payload["im"])
        return GridFunction(
            np.array(payload["node"]), vals, np.array(payload["weight"]),
            payload.get("node_family", CUSTOM),
        )


def _write_csv(fh, rows):
    # rows of Python floats: csv writes str(v), which is repr(v)
    writer = csv.writer(fh)
    writer.writerow(["node", "re", "im", "weight"])
    writer.writerows(rows)


# ------------------------------------------------------------------- families

def make_grid(n=DEFAULT_NODES, family=CHEBYSHEV):
    """Nodes and weights of a built-in family; weights sum to 2 exactly.

    ``chebyshev-gauss`` needs at least 3 nodes (the calibration of
    :func:`chebalg.fejer1_weights` is singular below) and ``uniform`` at
    least 1; fewer raise ValueError.  The arrays are read-only and shared:
    each (n, family) is computed once and kept in a bounded cache.
    """
    return _family_grid(int(n), family)


_MIN_NODES = {CHEBYSHEV: 3, UNIFORM: 1}


@functools.lru_cache(maxsize=32)
def _family_grid(n, family):
    if family not in _MIN_NODES:
        raise ValueError(f"unknown node family: {family}")
    if n < (least := _MIN_NODES[family]):
        raise ValueError(f"a {family} grid needs at least {least} nodes, got {n}")
    if family == CHEBYSHEV:
        nodes, weights = ca.chebyshev_nodes(n), ca.fejer1_weights(n)
    else:
        nodes, weights = ca.uniform_nodes(n), np.full(n, 2.0 / n)
    for arr in (nodes, weights):
        arr.setflags(write=False)
    return nodes, weights


def from_callable(fn, n=DEFAULT_NODES, family=CHEBYSHEV, profile=None):
    """Sample a callable onto a grid.  The closure is used only here.

    A scalar result (a constant callable) is broadcast to every node; any
    other result whose shape differs from the nodes' raises ValueError.
    """
    nodes, weights = make_grid(n, family)
    vals = np.asarray(fn(nodes), dtype=complex)
    if vals.ndim == 0:
        vals = np.full(nodes.shape, vals)
    elif vals.shape != nodes.shape:
        raise ValueError(f"callable returned shape {vals.shape} for {len(nodes)} nodes")
    return GridFunction(nodes, vals, weights, family, profile)


def from_profile(profile, n=DEFAULT_NODES, family=CHEBYSHEV):
    nodes, weights = make_grid(n, family)
    return GridFunction(nodes, profile.eval(nodes), weights, family, profile)


def poly_fn(coeffs, n=DEFAULT_NODES, family=CHEBYSHEV, basis="power"):
    """Polynomial sum c_k x^k (basis="power") or sum c_k T_k (basis="chebyshev")."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    cheb = np.polynomial.chebyshev.poly2cheb(c) if basis == "power" else c
    return from_profile(Profile.poly(cheb), n, family)


def const_fn(c=1.0, n=DEFAULT_NODES, family=CHEBYSHEV):
    return poly_fn([c], n, family)


def indicator_fn(interval_set, n=DEFAULT_NODES, family=CHEBYSHEV):
    prof = Profile(tuple((a, b, (1.0,), 0) for a, b in as_interval_set(interval_set)))
    return from_profile(prof, n, family)


def weight_fn(n=DEFAULT_NODES, family=CHEBYSHEV):
    """w(x) = sqrt(1 - x^2)."""
    return from_profile(Profile.poly((1.0,), wpow=1), n, family)


def inv_weight_fn(n=DEFAULT_NODES, family=CHEBYSHEV):
    """1/w(x); the kernel direction of the transform in the high-index regime."""
    return from_profile(Profile.poly((1.0,), wpow=-1), n, family)


def sign_fn(n=DEFAULT_NODES, family=CHEBYSHEV):
    """sigma = -1 on (-1,0), +1 on (0,1)."""
    prof = Profile(((-1.0, 0.0, (-1.0,), 0), (0.0, 1.0, (1.0,), 0)))
    return from_profile(prof, n, family)


# ------------------------------------------------------------------ operations

def integrate(f):
    """Integral over (-1, 1), the structure's closed form (on ``uniform``
    samples, whose interpolant is piecewise linear: the midpoint rule)."""
    return f.structure.integral(-1.0, 1.0)


def integrate_interval(f, lo, hi):
    """Integral over a subinterval; falls back to clipped-cell weights."""
    if f.profile is not None:
        return f.profile.integral(lo, hi)
    cells = _cell_edges(f.nodes)
    overlap = np.maximum(
        0.0, np.minimum(cells[1:], hi) - np.maximum(cells[:-1], lo)
    )
    return complex(np.sum(overlap * f.values))


def _cell_edges(nodes):
    inner = (nodes[1:] + nodes[:-1]) / 2.0
    return np.concatenate([[-1.0], inner, [1.0]])


def restrict(f, interval_set):
    """f * chi_A: values zeroed at nodes outside A; nodes and weights kept."""
    mask = np.zeros(len(f), dtype=bool)
    for a, b in interval_set:
        mask |= (f.nodes > a) & (f.nodes < b)
    vals = np.where(mask, f.values, 0.0)
    return f.with_values(vals, f.structure.restricted(interval_set))


def pairing(f, g):
    """<f, g> = integral of f*g over (-1,1) (bilinear, no conjugation)."""
    if len(f) == len(g) and np.array_equal(f.nodes, g.nodes):
        return integrate(f * g)
    raise ValueError("pairing requires functions on the same nodes")


def sample_series(f):
    """Chebyshev coefficients of f as one series: its structure's plain
    series, else the full-degree interpolant of its samples, which only
    ``chebyshev-gauss`` samples have (ValueError otherwise)."""
    coeffs = f.structure.series()
    if coeffs is None and f.node_family != CHEBYSHEV:
        raise ValueError(f"{f.node_family} samples without a series profile "
                         "cannot be read as a Chebyshev series")
    return f._interpolant if coeffs is None else coeffs


def cell_structure(f):
    """A profile of f that :meth:`Profile.restricted` cuts exactly: the
    structure without log terms, else the series of :func:`sample_series`."""
    return Profile.poly(sample_series(f)) if f.structure.logs else f.structure
