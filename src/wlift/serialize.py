"""JSON/CSV serialization for spaces, measures, paths, multi-couplings and
reports."""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager

from . import spaces
from .errors import ValidationError
from .measures import DiscreteMeasure, make_measure
from .paths import PiecewiseGeodesicPath
from .transport import MultiCoupling


@contextmanager
def _malformed(what: str):
    """Turn the errors a JSON object of the wrong shape or with non-numeric
    values raises on the way in into ValidationError."""
    try:
        yield
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc


def space_to_json(space: spaces.Space) -> dict:
    if space.kind == "euclidean":
        return {"kind": "euclidean", "d": space.dim}
    return {"kind": space.kind, "perimeter": space.perimeter}


def space_from_json(obj: dict) -> spaces.Space:
    if not isinstance(obj, dict):
        raise ValidationError(f"space JSON must be an object, got {obj!r}")
    kind = obj.get("kind")
    with _malformed("space"):
        if kind == "euclidean":
            return spaces.euclidean(int(obj.get("d", 1)))
        if kind == "circle":
            return spaces.circle(float(obj.get("perimeter", 2.0)))
        if kind == "cylinder":
            return spaces.cylinder(float(obj.get("perimeter", 2.0)))
    raise ValidationError(f"unknown space kind {kind!r}")


def measure_to_json(mu: DiscreteMeasure) -> dict:
    return {
        "space": space_to_json(mu.space),
        "atoms": mu.atoms.tolist(),
        "weights": mu.weights.tolist(),
    }


def measure_from_json(obj: dict) -> DiscreteMeasure:
    with _malformed("measure"):
        return make_measure(space_from_json(obj["space"]), obj["atoms"], obj["weights"])


def path_from_json(obj: dict) -> PiecewiseGeodesicPath:
    """A path from {"space": ..., "breakpoints": [2^n + 1 points]}."""
    with _malformed("path"):
        return PiecewiseGeodesicPath(space_from_json(obj["space"]), obj["breakpoints"])


def multicoupling_to_json(mc: MultiCoupling) -> dict:
    return {
        "marginals": [measure_to_json(m) for m in mc.marginals],
        "indices": mc.indices.tolist(),
        "weights": mc.weights.tolist(),
        "labels": list(mc.labels),
    }


def norm_report(norm: str, params: dict, value: float, truncation_level=None, tail_estimate=None) -> dict:
    return {
        "norm": norm,
        "params": params,
        "value": value,
        "truncation_level": truncation_level,
        "tail_estimate": tail_estimate,
    }


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON {path}: {exc}") from exc


def dump_json(obj, path: str | None):
    text = json.dumps(obj, indent=2, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def dump_csv(rows, fieldnames, path: str | None):
    if path:
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fieldnames)
            w.writeheader()
            w.writerows(rows)
    else:
        import sys

        w = csv.DictWriter(sys.stdout, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)
