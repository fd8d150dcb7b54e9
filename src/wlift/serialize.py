"""JSON/CSV serialization for spaces, measures, paths, multi-couplings and
reports."""

from __future__ import annotations

import csv
import io
import json
import os
import stat
import sys
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


def _write(text: str, path: str | None):
    """Write `text` to the file `path` in place, or to stdout without one.
    The file is opened without O_TRUNC and cut to the written length
    afterwards, and only if it is a regular file: ftruncate fails on
    /dev/null and on pipes.  On ext4, truncating a file on open waits for
    the writeback of what it held (50-90 ms when the last call wrote it);
    overwriting in place does not."""
    if not path:
        sys.stdout.write(text)
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode())
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def dump_json(obj, path: str | None):
    _write(json.dumps(obj, indent=2, default=float) + "\n", path)


def dump_csv(rows, fieldnames, path: str | None):
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fieldnames)
    w.writeheader()
    w.writerows(rows)
    _write(buf.getvalue(), path)
