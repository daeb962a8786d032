"""Available object types (cuboids and cylinders) that plans may reference.

Dimensions are stored in millimetres; downstream geometry works in metres.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import DimensionOutOfRange, DuplicateId, ParseError, UnknownObject

CUBOID = "CUBOID"
CYLINDER = "CYLINDER"

MIN_DIM_MM = 10.0
MAX_DIM_MM = 250.0

MM = 0.001  # millimetres to metres


@dataclass(frozen=True)
class ObjectType:
    id: str
    shape: str  # CUBOID | CYLINDER
    dims: tuple  # cuboid: (dx, dy, dz) mm; cylinder: (radius, length) mm

    @property
    def is_cuboid(self) -> bool:
        return self.shape == CUBOID

    @property
    def principal_dims_mm(self) -> tuple:
        """Dimensions checked against the shipped 10-250 mm envelope."""
        if self.is_cuboid:
            return self.dims
        r, length = self.dims
        return (2.0 * r, length)


class Catalog:
    def __init__(self, objects):
        self.objects = list(objects)
        self._index = {}
        for obj in self.objects:
            if obj.id in self._index:
                raise DuplicateId(f"duplicate object id: {obj.id!r}")
            self._index[obj.id] = obj

    def lookup(self, object_id: str) -> ObjectType:
        try:
            return self._index[object_id]
        except KeyError:
            raise UnknownObject(object_id) from None


def _validate_entry(raw, strict: bool):
    if not isinstance(raw, dict):
        raise ParseError(f"catalog entry is not an object: {raw!r}")
    for key in ("id", "shape", "dims"):
        if key not in raw:
            raise ParseError(f"catalog entry missing {key!r}: {raw!r}")
    shape = raw["shape"]
    dims = raw["dims"]
    if not isinstance(dims, list) or not all(
            isinstance(d, (int, float)) and not isinstance(d, bool)
            and math.isfinite(d) for d in dims):
        raise ParseError(f"dims of {raw['id']!r} are not a list of finite "
                         f"numbers: {dims!r}")
    if shape == CUBOID:
        if len(dims) != 3:
            raise ParseError(f"cuboid {raw['id']!r} needs 3 dims, got {dims!r}")
    elif shape == CYLINDER:
        if len(dims) != 2:
            raise ParseError(f"cylinder {raw['id']!r} needs 2 dims, got {dims!r}")
    else:
        raise ParseError(f"unknown shape {shape!r} for {raw['id']!r}")
    dims = tuple(float(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise ParseError(f"non-positive dimension in {raw['id']!r}: {dims!r}")
    obj = ObjectType(id=str(raw["id"]), shape=shape, dims=dims)
    out_of_range = [
        d for d in obj.principal_dims_mm if not MIN_DIM_MM <= d <= MAX_DIM_MM
    ]
    if out_of_range:
        msg = f"object {obj.id!r} has dimensions outside [10, 250] mm: {out_of_range}"
        if strict:
            raise DimensionOutOfRange(msg)
        import warnings

        warnings.warn(msg, stacklevel=3)
    return obj


def parse_catalog(text: str, strict: bool = False) -> Catalog:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"catalog is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "objects" not in payload:
        raise ParseError('catalog JSON must be {"objects": [...]}')
    return Catalog(_validate_entry(e, strict) for e in payload["objects"])


def read_text(path):
    """The file's UTF-8 text; a UnicodeDecodeError names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        exc.reason = f"{exc.reason}, in {path}"
        raise


def load_catalog(path, strict: bool = False) -> Catalog:
    """The catalog in the file ``path``; an unreadable file raises OSError."""
    return parse_catalog(read_text(path), strict=strict)


def default_catalog() -> Catalog:
    text = resources.files("craftkit.data").joinpath("catalog_default.json").read_text()
    return parse_catalog(text, strict=True)
