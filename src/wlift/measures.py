"""Finite discrete probability measures on a metric space."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spaces
from .errors import SpaceMismatchError, ValidationError

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    space: spaces.Space
    atoms: np.ndarray  # (n, dim), canonicalized
    weights: np.ndarray  # (n,), positive, sums to 1

    @property
    def size(self) -> int:
        return self.atoms.shape[0]

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (
            self.space == other.space
            and self.atoms.shape == other.atoms.shape
            and np.array_equal(self.atoms, other.atoms)
            and np.array_equal(self.weights, other.weights)
        )

    __hash__ = None


def make_measure(space, atoms, weights) -> DiscreteMeasure:
    """Build a measure; merges exactly-duplicate atoms, checks normalization."""
    atoms = spaces.canonicalize_points(space, np.asarray(atoms, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if atoms.shape[0] == 0:
        raise ValidationError("empty support")
    if weights.shape != (atoms.shape[0],):
        raise ValidationError("weights length does not match atom count")
    if not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be finite")
    if np.any(weights <= 0):
        raise ValidationError("weights must be strictly positive")
    s = weights.sum()
    if abs(s - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights sum to {s}, not 1")

    # merge duplicates by exact coordinate equality (after wrapping)
    order = np.lexsort(atoms.T[::-1])
    atoms = atoms[order]
    weights = weights[order]
    keep = np.ones(len(weights), dtype=bool)
    keep[1:] = np.any(atoms[1:] != atoms[:-1], axis=1)
    if not keep.all():
        merged_w = np.zeros(keep.sum())
        idx = np.cumsum(keep) - 1
        np.add.at(merged_w, idx, weights)
        atoms = atoms[keep]
        weights = merged_w

    weights = weights / weights.sum()
    atoms.setflags(write=False)
    weights.setflags(write=False)
    return DiscreteMeasure(space, atoms, weights)


def dirac(space, x) -> DiscreteMeasure:
    return make_measure(space, [spaces.as_point(space, x)], [1.0])


def measures_equal(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Exact equality of space, sorted atoms and weights."""
    return mu == nu


def _check_exponent(p: float, name: str = "p"):
    """Transport and variation exponents must be finite and >= 1."""
    if not (1 <= p < np.inf):
        raise ValidationError(f"{name} must be a finite number >= 1, got {p}")


def p_moment(mu: DiscreteMeasure, base, p: float) -> float:
    """Sum_i w_i d(base, x_i)^p."""
    _check_exponent(p)
    base = spaces.as_point(mu.space, base)
    d = spaces.distance_matrix(mu.space, base[None, :], mu.atoms)[0]
    return float(np.sum(mu.weights * d**p))


def check_same_space(mu: DiscreteMeasure, nu: DiscreteMeasure):
    if mu.space != nu.space:
        raise SpaceMismatchError(
            f"measures on different spaces: {mu.space} vs {nu.space}"
        )
