import json

import pytest

from craftkit.errors import JsonSyntaxError
from craftkit.plan import (
    normalize_raw,
    parse_plan,
    plan_to_jsonable,
    serialize_plan,
    strip_code_fences,
)


def codes(report):
    return {c for _, _, c, _ in report.errors}


def parse_text(text, catalog):
    return parse_plan(normalize_raw(text), catalog)


def test_strip_code_fences():
    raw = "```json\n[1, 2]\n```"
    assert json.loads(strip_code_fences(raw)) == [1, 2]


def test_normalize_uppercases_and_underscores():
    out = normalize_raw('{"contact-type": "non-fixed", "n": 3}')
    assert out == {"CONTACT_TYPE": "NON_FIXED", "N": 3}


def test_normalize_idempotent():
    raw = '[{"Name": "Leg_1", "align-y": "left", "v": [1, {"x": "a-b"}]}]'
    once = normalize_raw(raw)
    twice = normalize_raw(json.dumps(once))
    assert once == twice


def test_bad_json_raises():
    with pytest.raises(JsonSyntaxError):
        normalize_raw("{not json")


def test_golden_plans_parse(catalog, fixture_raw):
    for name in ("hammer_valid_1", "table_valid_1", "chair_valid_1",
                 "skateboard_valid_1", "bookshelf_valid_1", "bus_valid_1"):
        plan, report = parse_text(fixture_raw(name), catalog)
        assert plan is not None, (name, report.errors)
        assert report.ok


def test_wrapped_object_accepted(catalog, fixture_raw):
    parts = json.loads(fixture_raw("hammer_valid_1"))
    wrapped = json.dumps({"parts": parts})
    plan, report = parse_text(wrapped, catalog)
    assert plan is not None, report.errors


@pytest.mark.parametrize("name,expected", [
    ("hammer_invalid_1", "BadOrientationPermutation"),
    ("hammer_invalid_2", "MissingField"),
    ("table_invalid_1", "UnknownObject"),
    ("table_invalid_2", "DuplicateName"),
    ("chair_invalid_1", "UnknownToken"),
    ("chair_invalid_2", "DanglingReference"),
    ("skateboard_invalid_1", "MissingField"),
    ("skateboard_invalid_2", "DanglingReference"),
    ("bookshelf_invalid_1", "BadNamePattern"),
    ("bookshelf_invalid_2", "UnknownToken"),
    ("bus_invalid_1", "UnknownToken"),
    ("bus_invalid_2", "UnknownToken"),
])
def test_invalid_fixture_codes(catalog, fixture_raw, name, expected):
    plan, report = parse_text(fixture_raw(name), catalog)
    assert plan is None
    assert expected in codes(report), report.errors


def test_error_accumulation_not_fail_fast(catalog):
    parts = [
        {"Name": "bad name", "Available_obj": "NOPE",
         "Orientation": "SIDEWAYS", "exec_function": "yes"},
    ]
    plan, report = parse_text(json.dumps(parts), catalog)
    assert plan is None
    assert len(report.errors) >= 3
    assert {"BadNamePattern", "UnknownObject"} <= codes(report)


def test_joint_type_defaults(catalog, fixture_raw):
    plan, _ = parse_text(fixture_raw("bus_valid_1"), catalog)
    axle = plan.part("AXLE_1")
    assert axle.connections[0].joint_type == "FIXED"
    wheel = plan.part("WHEEL_1")
    assert wheel.connections[0].joint_type == "NON_FIXED"


def test_inserted_default_non_fixed(catalog):
    parts = [
        {"Name": "BASE_1", "Available_obj": "CUBOID_100X100X100",
         "Orientation": [100, 100, 100],
         "Modifications": [{"Name": "HOLE_1", "Type": "HOLE",
                            "Align_x": "CENTER", "Align_y": "CENTER",
                            "Align_z": "HIGH_LOW_FULL"}],
         "exec_function": False},
        {"Name": "PEG_1", "Available_obj": "CYLINDER_R10_L200",
         "Orientation": "TOP_BOTTOM",
         "Connections": [{"to_part": "BASE_1", "contact_type": "Inserted",
                          "to_modification": "HOLE_1"}],
         "exec_function": True},
    ]
    plan, report = parse_text(json.dumps(parts), catalog)
    assert plan is not None, report.errors
    assert plan.part("PEG_1").connections[0].joint_type == "NON_FIXED"


def test_serialize_roundtrip(catalog, fixture_raw):
    plan, _ = parse_text(fixture_raw("skateboard_valid_1"), catalog)
    text = serialize_plan(plan)
    again, report = parse_text(text, catalog)
    assert again is not None, report.errors
    assert plan_to_jsonable(again) == plan_to_jsonable(plan)


def test_modification_through_axis(catalog, fixture_raw):
    plan, _ = parse_text(fixture_raw("skateboard_valid_1"), catalog)
    mod = plan.part("SUPPORT_1").modifications[0]
    assert mod.through_axis == "y"
