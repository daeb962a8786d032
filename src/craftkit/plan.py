"""Plan language: normalization and parsing with error accumulation.

A plan is a list of part entries.  Every field name and enum value is
normalized to uppercase with hyphens replaced by underscores before any
validation happens, so the parser only ever sees canonical tokens.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .catalog import Catalog, canonical_token, read_text
from .errors import JsonSyntaxError, UnknownObject

# Token sets of the plan language. FRONT/BACK map to +X/-X, LEFT/RIGHT to
# +Y/-Y and TOP(HIGH)/BOTTOM(LOW) to +Z/-Z.
CYL_ORIENTATIONS = ("FRONT_BACK", "LEFT_RIGHT", "TOP_BOTTOM")
FACES = ("TOP", "BOTTOM", "RIGHT", "LEFT", "FRONT", "BACK")
ALIGN_POS = {
    "x": ("FRONT", "CENTER", "BACK"),
    "y": ("RIGHT", "CENTER", "LEFT"),
    "z": ("TOP", "CENTER", "BOTTOM"),
}
MOD_POS = {
    "x": ("FRONT", "CENTER", "BACK"),
    "y": ("RIGHT", "CENTER", "LEFT"),
    "z": ("HIGH", "CENTER", "LOW"),
}
MOD_THROUGH = {
    "x": ("FRONT_BACK_FULL", "FRONT_BACK_HALF", "BACK_FRONT_HALF"),
    "y": ("RIGHT_LEFT_FULL", "RIGHT_LEFT_HALF", "LEFT_RIGHT_HALF"),
    "z": ("HIGH_LOW_FULL", "HIGH_LOW_HALF", "LOW_HIGH_HALF"),
}
CONTACT_TYPES = ("SURFACE", "INSERTED")
JOINT_TYPES = ("FIXED", "NON_FIXED")
MOD_TYPES = ("HOLE",)
AXES = ("x", "y", "z")

# Underscores allowed inside the type name so multi-word parts (SIDE_PANEL_1)
# pass; the trailing numeral is still mandatory.
NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*_[0-9]+$")

# Arrays and objects one answer may nest; a plan needs at most 5.  The
# bound sits far under the interpreter's recursion limit, which counts the
# caller's own frames too.
MAX_NESTING = 32
# A value of the answer is shown whole in a message up to this many
# characters of its repr, and cut there past it.
MAX_SHOWN_CHARS = 200

_FENCE_RE = re.compile(r"^\s*```[a-zA-Z0-9_-]*\s*$")
# a JSON string (to its end, if unterminated) or one bracket
_BRACKET_RE = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{}]', re.S)


@dataclass(frozen=True)
class OrientationSpec:
    # cuboid: axis_dims is the (dim_x, dim_y, dim_z) permutation in mm
    # cylinder: axis_token is one of CYL_ORIENTATIONS
    axis_dims: tuple | None = None
    axis_token: str | None = None


@dataclass(frozen=True)
class ModificationSpec:
    name: str
    mod_type: str
    align: tuple  # (align_x, align_y, align_z) tokens

    @property
    def through_axis(self) -> str:
        for ax, token in zip(AXES, self.align):
            if token in MOD_THROUGH[ax]:
                return ax
        raise ValueError(f"modification {self.name!r} has no through-axis token")


@dataclass(frozen=True)
class ConnectionSpec:
    to_part: str
    contact_type: str  # SURFACE | INSERTED
    joint_type: str  # FIXED | NON_FIXED
    to_face: str | None = None
    align: tuple | None = None  # SURFACE: (align_x, align_y, align_z)
    to_modification: str | None = None


@dataclass(frozen=True)
class PartSpec:
    name: str
    available_obj: str
    orientation: OrientationSpec
    modifications: tuple
    connections: tuple
    exec_function: bool


@dataclass(frozen=True)
class CraftPlan:
    parts: tuple

    def part(self, name: str) -> PartSpec:
        for p in self.parts:
            if p.name == name:
                return p
        raise KeyError(name)


@dataclass
class FormatReport:
    errors: list = field(default_factory=list)  # (part, field, code, message)

    @property
    def ok(self) -> bool:
        return not self.errors

    def add(self, part, field_name, code, message):
        self.errors.append((part, field_name, code, message))


def strip_code_fences(raw: str) -> str:
    lines = raw.splitlines()
    kept = [ln for ln in lines if not _FENCE_RE.match(ln)]
    return "\n".join(kept)


def _shown(value):
    """``repr(value)``, cut to MAX_SHOWN_CHARS characters when longer."""
    text = repr(value)
    if len(text) <= MAX_SHOWN_CHARS:
        return text
    return f"{text[:MAX_SHOWN_CHARS]}... ({len(text)} characters)"


def _normalize_value(value, depth=0):
    """``value`` normalized; ``depth`` arrays and objects hold it."""
    if isinstance(value, str):
        return canonical_token(value)
    if not isinstance(value, (dict, list)):
        return value
    if depth == MAX_NESTING:
        raise JsonSyntaxError("nested too deeply")
    depth += 1
    if isinstance(value, dict):
        return {
            canonical_token(str(k)): _normalize_value(v, depth)
            for k, v in value.items()
        }
    return [_normalize_value(v, depth) for v in value]


def _nesting(text):
    """How deep arrays and objects nest in ``text``, strings skipped."""
    depth = most = 0
    for token in _BRACKET_RE.findall(text):
        if token in "[{":
            depth += 1
            most = max(most, depth)
        elif token in "]}":
            depth -= 1
    return most


def normalize_raw(raw: str):
    """Parse raw LLM text into normalized JSON: keys and string values are
    uppercased with hyphens replaced by underscores.  Text that is not JSON,
    or nests more than MAX_NESTING arrays and objects (before its error, if
    it is not JSON), raises ``JsonSyntaxError``."""
    try:
        return _normalize_value(json.loads(strip_code_fences(raw)))
    except json.JSONDecodeError as exc:
        # on a deeper stack the parser may stop in there first
        if _nesting(exc.doc[:exc.pos]) > MAX_NESTING:
            raise JsonSyntaxError("nested too deeply") from None
        raise JsonSyntaxError(str(exc)) from exc
    except RecursionError:
        raise JsonSyntaxError("nested too deeply") from None


def _as_part_list(normalized):
    if isinstance(normalized, list):
        return normalized
    if isinstance(normalized, dict):
        # accept a wrapping object such as {"PARTS": [...]}
        lists = [v for v in normalized.values() if isinstance(v, list)]
        if len(lists) == 1:
            return lists[0]
        if all(isinstance(v, dict) for v in normalized.values()) and normalized:
            return list(normalized.values())
    return None


def _parse_orientation(raw, obj, part_name, report):
    if obj is None:
        # the object is missing or unknown, which the report already holds
        return None
    if obj.is_cuboid:
        if not isinstance(raw, list) or len(raw) != 3 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
        ):
            report.add(part_name, "ORIENTATION", "UnknownToken",
                       "cuboid orientation must be a 3-number list, "
                       f"got {_shown(raw)}")
            return None
        dims = tuple(float(v) for v in raw)
        if sorted(dims) != sorted(obj.dims):
            report.add(part_name, "ORIENTATION", "BadOrientationPermutation",
                       f"{list(dims)} is not a permutation of catalog dims "
                       f"{list(obj.dims)}")
            return None
        return OrientationSpec(axis_dims=dims)
    if not isinstance(raw, str) or raw not in CYL_ORIENTATIONS:
        report.add(part_name, "ORIENTATION", "UnknownToken",
                   f"cylinder orientation must be one of {list(CYL_ORIENTATIONS)}, "
                   f"got {_shown(raw)}")
        return None
    return OrientationSpec(axis_token=raw)


def _parse_modification(raw, part_name, report):
    if not isinstance(raw, dict):
        report.add(part_name, "MODIFICATIONS", "UnknownToken",
                   f"modification entry is not an object: {_shown(raw)}")
        return None
    ok = True
    name = raw.get("NAME")
    if not isinstance(name, str) or not NAME_RE.match(name or ""):
        report.add(part_name, "MODIFICATIONS.NAME", "BadNamePattern",
                   f"bad modification name {_shown(name)}")
        ok = False
    mod_type = raw.get("TYPE")
    if mod_type not in MOD_TYPES:
        report.add(part_name, "MODIFICATIONS.TYPE", "UnknownToken",
                   f"modification type must be one of {list(MOD_TYPES)}, "
                   f"got {_shown(mod_type)}")
        ok = False
    align = []
    through_axes = []
    for ax in AXES:
        key = f"ALIGN_{ax.upper()}"
        token = raw.get(key)
        if token is None:
            report.add(part_name, f"MODIFICATIONS.{key}", "MissingField",
                       f"{key} is required on a modification")
            ok = False
            continue
        if token in MOD_THROUGH[ax]:
            through_axes.append(ax)
        elif token not in MOD_POS[ax]:
            report.add(part_name, f"MODIFICATIONS.{key}", "UnknownToken",
                       f"{_shown(token)} not in "
                       f"{list(MOD_POS[ax]) + list(MOD_THROUGH[ax])}")
            ok = False
        align.append(token)
    if ok and len(through_axes) != 1:
        report.add(part_name, "MODIFICATIONS", "UnknownToken",
                   f"exactly one axis must carry a FULL/HALF token, "
                   f"got {len(through_axes)}")
        ok = False
    if not ok:
        return None
    return ModificationSpec(name=name, mod_type=mod_type, align=tuple(align))


def _parse_connection(raw, part_name, report):
    if not isinstance(raw, dict):
        report.add(part_name, "CONNECTIONS", "UnknownToken",
                   f"connection entry is not an object: {_shown(raw)}")
        return None
    ok = True
    to_part = raw.get("TO_PART")
    if not isinstance(to_part, str) or not to_part:
        report.add(part_name, "CONNECTIONS.TO_PART", "MissingField",
                   "TO_PART is required on a connection")
        ok = False
    elif to_part == part_name:
        report.add(part_name, "CONNECTIONS.TO_PART", "DanglingReference",
                   "a part cannot connect to itself")
        ok = False
    contact = raw.get("CONTACT_TYPE")
    if contact not in CONTACT_TYPES:
        report.add(part_name, "CONNECTIONS.CONTACT_TYPE", "UnknownToken",
                   f"contact type must be one of {list(CONTACT_TYPES)}, "
                   f"got {_shown(contact)}")
        return None
    joint = raw.get("TYPE")
    if joint is None:
        # fixed is the default for face contact, free-standing for insertion
        joint = "FIXED" if contact == "SURFACE" else "NON_FIXED"
    elif joint not in JOINT_TYPES:
        report.add(part_name, "CONNECTIONS.TYPE", "UnknownToken",
                   f"joint type must be one of {list(JOINT_TYPES)}, "
                   f"got {_shown(joint)}")
        ok = False
    to_face = None
    align = None
    to_mod = None
    if contact == "SURFACE":
        to_face = raw.get("TO_FACE")
        if to_face not in FACES:
            report.add(part_name, "CONNECTIONS.TO_FACE",
                       "MissingField" if to_face is None else "UnknownToken",
                       f"TO_FACE must be one of {list(FACES)}, "
                       f"got {_shown(to_face)}")
            ok = False
        align_tokens = []
        for ax in AXES:
            key = f"ALIGN_{ax.upper()}"
            token = raw.get(key)
            if token is None:
                report.add(part_name, f"CONNECTIONS.{key}", "MissingField",
                           f"{key} is required on a SURFACE connection")
                ok = False
            elif token not in ALIGN_POS[ax]:
                report.add(part_name, f"CONNECTIONS.{key}", "UnknownToken",
                           f"{_shown(token)} not in {list(ALIGN_POS[ax])}")
                ok = False
            align_tokens.append(token)
        align = tuple(align_tokens)
    else:
        to_mod = raw.get("TO_MODIFICATION")
        if not isinstance(to_mod, str) or not to_mod:
            report.add(part_name, "CONNECTIONS.TO_MODIFICATION", "MissingField",
                       "TO_MODIFICATION is required on an INSERTED connection")
            ok = False
    if not ok:
        return None
    return ConnectionSpec(to_part=to_part, contact_type=contact, joint_type=joint,
                          to_face=to_face, align=align, to_modification=to_mod)


def parse_plan(normalized, catalog: Catalog):
    """Validate normalized JSON against the plan language and the catalog.

    Returns (CraftPlan, FormatReport); the plan is None when the report
    carries errors.  All violations are accumulated, not fail-fast.
    """
    report = FormatReport()
    entries = _as_part_list(normalized)
    if entries is None:
        report.add(None, None, "MissingField",
                   "plan must be a JSON array of part objects")
        return None, report

    if not entries:
        report.add(None, None, "MissingField", "plan must contain at least one part")
        return None, report

    parts = []
    seen_names = set()
    for i, raw in enumerate(entries):
        if not isinstance(raw, dict):
            report.add(f"#{i}", None, "MissingField",
                       f"part entry is not an object: {_shown(raw)}")
            continue
        name = raw.get("NAME")
        label = name if isinstance(name, str) and name else f"#{i}"
        if not isinstance(name, str) or not NAME_RE.match(name or ""):
            report.add(label, "NAME", "BadNamePattern",
                       f"part name {_shown(name)} must match TYPE_<numeral>")
            name = label
        if name in seen_names:
            report.add(name, "NAME", "DuplicateName",
                       f"part name {_shown(name)} is not unique")
        seen_names.add(name)

        obj_id = raw.get("AVAILABLE_OBJ")
        obj = None
        if not isinstance(obj_id, str) or not obj_id:
            report.add(name, "AVAILABLE_OBJ", "MissingField",
                       "AVAILABLE_OBJ is required")
        else:
            try:
                obj = catalog.lookup(obj_id)
            except UnknownObject:
                report.add(name, "AVAILABLE_OBJ", "UnknownObject",
                           f"{_shown(obj_id)} is not in the catalog")

        if "ORIENTATION" not in raw:
            report.add(name, "ORIENTATION", "MissingField", "ORIENTATION is required")
            orientation = None
        else:
            orientation = _parse_orientation(raw["ORIENTATION"], obj, name, report)

        mods = []
        raw_mods = raw.get("MODIFICATIONS", [])
        if not isinstance(raw_mods, list):
            report.add(name, "MODIFICATIONS", "UnknownToken",
                       "MODIFICATIONS must be a list")
            raw_mods = []
        mod_names = set()
        for m in raw_mods:
            spec = _parse_modification(m, name, report)
            if spec is not None:
                if spec.name in mod_names:
                    report.add(name, "MODIFICATIONS.NAME", "DuplicateName",
                               f"modification name {_shown(spec.name)} repeats")
                mod_names.add(spec.name)
                mods.append(spec)

        conns = []
        raw_conns = raw.get("CONNECTIONS", [])
        if not isinstance(raw_conns, list):
            report.add(name, "CONNECTIONS", "UnknownToken",
                       "CONNECTIONS must be a list")
            raw_conns = []
        for c in raw_conns:
            spec = _parse_connection(c, name, report)
            if spec is not None:
                conns.append(spec)

        if "EXEC_FUNCTION" not in raw:
            report.add(name, "EXEC_FUNCTION", "MissingField",
                       "EXEC_FUNCTION is required")
            exec_fn = False
        elif not isinstance(raw["EXEC_FUNCTION"], bool):
            report.add(name, "EXEC_FUNCTION", "UnknownToken",
                       f"EXEC_FUNCTION must be a boolean, "
                       f"got {_shown(raw['EXEC_FUNCTION'])}")
            exec_fn = False
        else:
            exec_fn = raw["EXEC_FUNCTION"]

        parts.append(PartSpec(
            name=name,
            available_obj=obj_id if isinstance(obj_id, str) else "",
            orientation=orientation if orientation is not None
            else OrientationSpec(),
            modifications=tuple(mods),
            connections=tuple(conns),
            exec_function=exec_fn,
        ))

    # cross-part references
    names = {p.name for p in parts}
    mods_by_part = {p.name: {m.name for m in p.modifications} for p in parts}
    for p in parts:
        for c in p.connections:
            if c.to_part not in names:
                report.add(p.name, "CONNECTIONS.TO_PART", "DanglingReference",
                           f"TO_PART {_shown(c.to_part)} does not exist")
            elif c.contact_type == "INSERTED":
                if c.to_modification not in mods_by_part.get(c.to_part, set()):
                    report.add(p.name, "CONNECTIONS.TO_MODIFICATION",
                               "DanglingReference",
                               f"{_shown(c.to_part)} has no modification "
                               f"{_shown(c.to_modification)}")

    if not report.ok:
        return None, report
    return CraftPlan(parts=tuple(parts)), report


def load_plan(path, catalog: Catalog):
    return parse_plan(normalize_raw(read_text(path)), catalog)
