"""Sampled functions on (-1, 1) with quadrature weights, and their builders.

A :class:`GridFunction` is the concrete carrier for every function in the
library: complex samples at a declared node family plus weights for
integration over (-1, 1).  Values are immutable after construction; all
operations return new objects, so everything here is safe to share between
threads.  A function may additionally carry a :mod:`profile
<finhilbert.profiles>` describing its exact structure; operations use it for
closed-form integration and transforms whenever possible and silently fall
back to sample arithmetic otherwise.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import chebalg as ca
from .intervals import IntervalSet
from .profiles import PiecewiseProfile, PolyProfile, product_profile

CHEBYSHEV = "chebyshev-gauss"
UNIFORM = "uniform"
CUSTOM = "custom"

DEFAULT_NODES = 512


@dataclass(frozen=True)
class ChebyshevSeries:
    """First-kind Chebyshev coefficients a_0..a_N."""

    coefficients: tuple

    def __init__(self, coefficients):
        c = np.atleast_1d(np.asarray(coefficients, dtype=complex))
        object.__setattr__(self, "coefficients", tuple(c))

    def __call__(self, x):
        return ca.chebval(np.asarray(x, dtype=float), np.asarray(self.coefficients))

    def __len__(self):
        return len(self.coefficients)

    def asarray(self):
        return np.asarray(self.coefficients, dtype=complex)


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
        for arr in (nodes, values, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    # ------------------------------------------------------------- evaluation
    def __len__(self):
        return len(self.nodes)

    def eval_at(self, x):
        """Values at arbitrary points: exact via the profile when present,
        otherwise Chebyshev interpolation (chebyshev-gauss family) or linear
        interpolation."""
        x = np.asarray(x, dtype=float)
        if self.profile is not None:
            return self.profile.eval(x)
        if self.node_family == CHEBYSHEV:
            coeffs = ca.fit_chebyshev(self.values)
            return ca.chebval(x, coeffs)
        re = np.interp(x, self.nodes, self.values.real)
        im = np.interp(x, self.nodes, self.values.imag)
        return re + 1j * im

    def with_values(self, values, profile=None):
        return GridFunction(self.nodes, values, self.weights, self.node_family, profile)

    def map_values(self, fn):
        return self.with_values(fn(self.values))

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other):
        self._check_aligned(other)
        prof = None
        if self.profile is not None and other.profile is not None:
            prof = self.profile.plus(other.profile)
            if prof is None:
                prof = other.profile.plus(self.profile)
        return self.with_values(self.values + other.values, prof)

    def __sub__(self, other):
        return self + (other * (-1.0))

    def __mul__(self, c):
        if isinstance(c, GridFunction):
            self._check_aligned(c)
            return self.with_values(
                self.values * c.values, product_profile(self.profile, c.profile)
            )
        prof = self.profile.scaled(c) if self.profile is not None else None
        return self.with_values(self.values * c, prof)

    __rmul__ = __mul__

    def _check_aligned(self, other):
        if len(self) != len(other) or not np.array_equal(self.nodes, other.nodes):
            raise ValueError("grid functions are defined on different nodes")

    # ------------------------------------------------------------ persistence
    def to_csv(self, path_or_buf):
        rows = zip(self.nodes, self.values.real, self.values.imag, self.weights)
        if hasattr(path_or_buf, "write"):
            _write_csv(path_or_buf, rows)
        else:
            with open(path_or_buf, "w", newline="") as fh:
                _write_csv(fh, rows)

    def to_json(self, path=None):
        payload = {
            "node_family": self.node_family,
            "node": [float(x) for x in self.nodes],
            "re": [float(v) for v in self.values.real],
            "im": [float(v) for v in self.values.imag],
            "weight": [float(w) for w in self.weights],
        }
        text = json.dumps(payload, sort_keys=True)
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
        vals = np.array(payload["re"]) + 1j * np.array(payload["im"])
        return GridFunction(
            np.array(payload["node"]), vals, np.array(payload["weight"]),
            payload.get("node_family", CUSTOM),
        )


def _write_csv(fh, rows):
    writer = csv.writer(fh)
    writer.writerow(["node", "re", "im", "weight"])
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])


# ------------------------------------------------------------------- families

def make_grid(n=DEFAULT_NODES, family=CHEBYSHEV):
    """Nodes and weights of a built-in family; weights sum to 2 exactly."""
    if family == CHEBYSHEV:
        return ca.chebyshev_nodes(n), ca.fejer1_weights(n)
    if family == UNIFORM:
        return ca.uniform_nodes(n), np.full(n, 2.0 / n)
    raise ValueError(f"unknown node family: {family}")


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
    return from_profile(PolyProfile(cheb, 0), n, family)


def const_fn(c=1.0, n=DEFAULT_NODES, family=CHEBYSHEV):
    return poly_fn([c], n, family)


def indicator_fn(interval_set, n=DEFAULT_NODES, family=CHEBYSHEV):
    if isinstance(interval_set, tuple) and len(interval_set) == 2 \
            and not isinstance(interval_set[0], tuple):
        interval_set = IntervalSet((interval_set,))
    prof = PiecewiseProfile(tuple((a, b, (1.0,)) for a, b in interval_set))
    return from_profile(prof, n, family)


def weight_fn(n=DEFAULT_NODES, family=CHEBYSHEV):
    """w(x) = sqrt(1 - x^2)."""
    return from_profile(PolyProfile((1.0,), wpow=1), n, family)


def inv_weight_fn(n=DEFAULT_NODES, family=CHEBYSHEV):
    """1/w(x); the kernel direction of the transform in the high-index regime."""
    return from_profile(PolyProfile((1.0,), wpow=-1), n, family)


def sign_fn(n=DEFAULT_NODES, family=CHEBYSHEV):
    """sigma = -1 on (-1,0), +1 on (0,1)."""
    prof = PiecewiseProfile(((-1.0, 0.0, (-1.0,)), (0.0, 1.0, (1.0,))))
    return from_profile(prof, n, family)


# ------------------------------------------------------------------ operations

def integrate(f):
    """Integral over (-1, 1).

    Uses the profile's closed form when available (exact for polynomial,
    piecewise and log-mix structure); otherwise the weighted sample sum,
    whose error is O(N^-k) for smooth integrands on the built-in families.
    """
    if f.profile is not None:
        try:
            return complex(f.profile.integral(-1.0, 1.0))
        except NotImplementedError:
            pass
    return complex(f.weights @ f.values)


def integrate_interval(f, lo, hi):
    """Integral over a subinterval; falls back to clipped-cell weights."""
    if f.profile is not None:
        try:
            return complex(f.profile.integral(lo, hi))
        except NotImplementedError:
            pass
    cells = _cell_edges(f.nodes)
    overlap = np.maximum(
        0.0, np.minimum(cells[1:], hi) - np.maximum(cells[:-1], lo)
    )
    return complex(np.sum(overlap * f.values))


def integrate_set(f, interval_set):
    return sum((integrate_interval(f, a, b) for a, b in interval_set), 0.0 + 0.0j)


def _cell_edges(nodes):
    inner = (nodes[1:] + nodes[:-1]) / 2.0
    return np.concatenate([[-1.0], inner, [1.0]])


def restrict(f, interval_set):
    """f * chi_A: values zeroed at nodes outside A; nodes and weights kept."""
    mask = np.zeros(len(f), dtype=bool)
    for a, b in interval_set:
        mask |= (f.nodes > a) & (f.nodes < b)
    vals = np.where(mask, f.values, 0.0)
    prof = f.profile.restricted(interval_set) if f.profile is not None else None
    return f.with_values(vals, prof)


def pairing(f, g):
    """<f, g> = integral of f*g over (-1,1) (bilinear, no conjugation)."""
    if len(f) == len(g) and np.array_equal(f.nodes, g.nodes):
        return integrate(f * g)
    raise ValueError("pairing requires functions on the same nodes")


def cheb_fit(f_or_values, degree=None):
    """Chebyshev interpolant of samples taken at first-kind nodes."""
    values = f_or_values.values if isinstance(f_or_values, GridFunction) else f_or_values
    values = np.asarray(values, dtype=complex)
    coeffs = ca.fit_chebyshev(values)
    if degree is not None:
        if degree + 1 > len(values):
            raise ValueError("degree exceeds what the node count can resolve")
        coeffs = coeffs[: degree + 1]
    return ChebyshevSeries(coeffs)


def cheb_eval(series, x):
    return series(x)
