import json

import pytest

from craftkit import build_assembly
from craftkit.assembler import connectivity_check
from craftkit.errors import (
    HoleExceedsOwner,
    HoleNotCarvedYet,
    InconsistentConnection,
    Unplaceable,
)
from craftkit.plan import normalize_raw, parse_plan

import pins

MM = 0.001


def build_text(text, catalog):
    plan, report = parse_plan(normalize_raw(text), catalog)
    assert plan is not None, report.errors
    return plan, build_assembly(plan, catalog)


def test_seed_rests_on_ground(build_fixture):
    _, asm = build_fixture("table_valid_1")
    top = asm.part("TABLETOP_1")
    assert top.position[0] == 0.0
    assert top.position[1] == 0.0
    lo, _ = top.aabb()
    # the seed rests its own underside on z=0; legs may extend below
    assert lo[2] == pytest.approx(0.0, abs=1e-12)
    assert asm.min_z() < 0.0


def test_skateboard_golden_coordinates(build_fixture):
    _, asm = build_fixture("skateboard_valid_1")
    assert asm.part("DECK_1").position == pytest.approx(
        (0, 0, 0.010), abs=1e-12)
    assert asm.part("SUPPORT_1").position == pytest.approx(
        (0.090, 0.0, -0.025), abs=1e-12)
    assert asm.part("SUPPORT_2").position == pytest.approx(
        (-0.090, 0.0, -0.025), abs=1e-12)
    assert asm.part("WHEEL_1").position == pytest.approx(
        (0.090, 0.035, -0.025), abs=1e-12)
    assert asm.part("WHEEL_2").position == pytest.approx(
        (0.090, -0.035, -0.025), abs=1e-12)
    assert asm.part("AXLE_1").position == pytest.approx(
        (0.090, 0.0, -0.025), abs=1e-12)
    # wheels are the lowest parts and carry the ground set
    assert asm.ground_set == {"WHEEL_1", "WHEEL_2", "WHEEL_3", "WHEEL_4"}


def test_skateboard_hole_cross_sections(build_fixture):
    _, asm = build_fixture("skateboard_valid_1")
    support_hole = asm.part("SUPPORT_1").solid.holes[0]
    wheel_hole = asm.part("WHEEL_1").solid.holes[0]
    # axle radius 5 mm + 1 mm clearance
    assert support_hole.radius == pytest.approx(0.006, abs=1e-12)
    assert wheel_hole.radius == pytest.approx(0.006, abs=1e-12)
    assert support_hole.through
    assert support_hole.axis == 1


def test_hammer_golden_coordinates(build_fixture):
    _, asm = build_fixture("hammer_valid_1")
    handle = asm.part("HANDLE_1")
    head = asm.part("HEAD_1")
    assert handle.position == pytest.approx((0.0, 0.0, 0.010), abs=1e-12)
    # head hangs under the front end of the handle, flush at the tip
    assert head.position == pytest.approx((0.070, 0.0, -0.020), abs=1e-12)


def test_table_flush_legs(build_fixture):
    _, asm = build_fixture("table_valid_1")
    top = asm.part("TABLETOP_1")
    leg = asm.part("LEG_1")  # FRONT, LEFT
    top_lo, top_hi = top.aabb()
    leg_lo, leg_hi = leg.aabb()
    assert leg_hi[0] == pytest.approx(top_hi[0], abs=1e-12)
    assert leg_hi[1] == pytest.approx(top_hi[1], abs=1e-12)
    # leg top face touches tabletop bottom face
    assert leg_hi[2] == pytest.approx(top_lo[2], abs=1e-12)


def test_center_alignment_agreement(catalog):
    parts = [
        {"Name": "BASE_1", "Available_obj": "CUBOID_100X100X100",
         "Orientation": [100, 100, 100], "exec_function": False},
        {"Name": "CAP_1", "Available_obj": "CUBOID_50X50X20",
         "Orientation": [50, 50, 20],
         "Connections": [{"to_part": "BASE_1", "contact_type": "Surface",
                          "to_face": "BOTTOM", "align_x": "CENTER",
                          "align_y": "CENTER", "align_z": "CENTER"}],
         "exec_function": True},
    ]
    _, asm = build_text(json.dumps(parts), catalog)
    base = asm.part("BASE_1").position
    cap = asm.part("CAP_1").position
    assert abs(base[0] - cap[0]) <= 1e-12
    assert abs(base[1] - cap[1]) <= 1e-12


def test_determinism_byte_identical(catalog, fixture_raw):
    for name in ("table_valid_1", "hammer_valid_1", "skateboard_valid_1"):
        _, a = build_text(fixture_raw(name), catalog)
        _, b = build_text(fixture_raw(name), catalog)
        assert a.to_json() == b.to_json()


def _mirror_tokens(obj):
    swap = {"LEFT": "RIGHT", "RIGHT": "LEFT"}
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if k in ("align_y", "to_face") and v in swap:
                out[k] = swap[v]
            else:
                out[k] = _mirror_tokens(v)
        return out
    if isinstance(obj, list):
        return [_mirror_tokens(v) for v in obj]
    return obj


def test_chair_mirror_property(catalog, fixture_raw):
    raw = fixture_raw("chair_valid_1")
    _, original = build_text(raw, catalog)
    mirrored_json = json.dumps(_mirror_tokens(json.loads(raw)))
    _, mirrored = build_text(mirrored_json, catalog)
    for name in original.placed:
        a = original.part(name).position
        b = mirrored.part(name).position
        assert a[0] == b[0]
        assert a[1] == -b[1]
        assert a[2] == b[2]


def test_unplaceable_raises(catalog):
    parts = [
        {"Name": "BASE_1", "Available_obj": "CUBOID_100X100X100",
         "Orientation": [100, 100, 100], "exec_function": False},
        {"Name": "LOOSE_1", "Available_obj": "CUBOID_50X50X20",
         "Orientation": [50, 50, 20], "exec_function": False},
    ]
    plan, report = parse_plan(normalize_raw(json.dumps(parts)), catalog)
    assert plan is not None, report.errors
    with pytest.raises(Unplaceable):
        build_assembly(plan, catalog)


def test_hole_not_carved_yet(catalog):
    parts = [
        {"Name": "BASE_1", "Available_obj": "CUBOID_100X100X100",
         "Orientation": [100, 100, 100], "exec_function": False},
        {"Name": "PEG_1", "Available_obj": "CYLINDER_R10_L200",
         "Orientation": "TOP_BOTTOM",
         "Connections": [{"to_part": "FLOAT_1", "contact_type": "Inserted",
                          "to_modification": "HOLE_1"}],
         "exec_function": False},
        {"Name": "FLOAT_1", "Available_obj": "CUBOID_50X50X20",
         "Orientation": [50, 50, 20],
         "Modifications": [{"Name": "HOLE_1", "Type": "HOLE",
                            "Align_x": "CENTER", "Align_y": "CENTER",
                            "Align_z": "HIGH_LOW_FULL"}],
         "exec_function": False},
    ]
    plan, report = parse_plan(normalize_raw(json.dumps(parts)), catalog)
    assert plan is not None, report.errors
    with pytest.raises(HoleNotCarvedYet):
        build_assembly(plan, catalog)


def test_placement_error_comes_before_hole_exceeds_owner(catalog):
    # the hole in WHEEL_1 is too wide for it, and LOOSE_1 cannot be placed
    parts = [
        {"Name": "WHEEL_1", "Available_obj": "CYLINDER_R15_L30",
         "Orientation": "LEFT_RIGHT",
         "Modifications": [{"Name": "HOLE_1", "Type": "HOLE",
                            "Align_x": "CENTER",
                            "Align_y": "RIGHT_LEFT_FULL",
                            "Align_z": "CENTER"}],
         "exec_function": False},
        {"Name": "AXLE_1", "Available_obj": "CYLINDER_R20_L100",
         "Orientation": "LEFT_RIGHT",
         "Connections": [{"to_part": "WHEEL_1", "contact_type": "Inserted",
                          "to_modification": "HOLE_1"}],
         "exec_function": False},
        {"Name": "LOOSE_1", "Available_obj": "CUBOID_50X50X20",
         "Orientation": [50, 50, 20], "exec_function": False},
    ]
    plan, report = parse_plan(normalize_raw(json.dumps(parts)), catalog)
    assert plan is not None, report.errors
    with pytest.raises(Unplaceable):
        build_assembly(plan, catalog)


def test_placed_is_in_placement_order(catalog):
    # TOP_1 hangs off SIDE_1, which comes after it in the plan, so it is
    # placed in the second pass
    def on(to_part):
        return [{"to_part": to_part, "contact_type": "Surface",
                 "to_face": "TOP", "align_x": "CENTER",
                 "align_y": "CENTER", "align_z": "CENTER",
                 "Type": "Fixed"}]

    parts = [
        {"Name": "BASE_1", "Available_obj": "CUBOID_100X100X100",
         "Orientation": [100, 100, 100], "exec_function": False},
        {"Name": "TOP_1", "Available_obj": "CUBOID_50X50X20",
         "Orientation": [50, 50, 20], "Connections": on("SIDE_1"),
         "exec_function": False},
        {"Name": "SIDE_1", "Available_obj": "CUBOID_50X50X20",
         "Orientation": [50, 50, 20], "Connections": on("BASE_1"),
         "exec_function": False},
    ]
    _, asm = build_text(json.dumps(parts), catalog)
    assert list(asm.placed) == ["BASE_1", "SIDE_1", "TOP_1"]
    assert [p["name"] for p in asm.to_jsonable()["parts"]] == \
        ["BASE_1", "SIDE_1", "TOP_1"]


def test_assembly_json_digest_of_buildable_fixtures():
    pins.assert_holds("assembly_json")


def test_collision_report_digest_of_buildable_fixtures():
    pins.assert_holds("collision_report")


def test_inconsistent_second_connection(catalog, fixture_raw):
    doc = json.loads(fixture_raw("bookshelf_valid_1"))
    for entry in doc:
        if entry["Name"] == "SHELF_2":
            entry["Connections"][1]["to_face"] = "TOP"
    plan, report = parse_plan(normalize_raw(json.dumps(doc)), catalog)
    assert plan is not None, report.errors
    with pytest.raises(InconsistentConnection):
        build_assembly(plan, catalog)


def test_hole_exceeds_owner(catalog):
    parts = [
        {"Name": "WHEEL_1", "Available_obj": "CYLINDER_R15_L30",
         "Orientation": "LEFT_RIGHT",
         "Modifications": [{"Name": "HOLE_1", "Type": "HOLE",
                            "Align_x": "CENTER",
                            "Align_y": "RIGHT_LEFT_FULL",
                            "Align_z": "CENTER"}],
         "exec_function": False},
        {"Name": "AXLE_1", "Available_obj": "CYLINDER_R20_L100",
         "Orientation": "LEFT_RIGHT",
         "Connections": [{"to_part": "WHEEL_1", "contact_type": "Inserted",
                          "to_modification": "HOLE_1"}],
         "exec_function": False},
    ]
    plan, report = parse_plan(normalize_raw(json.dumps(parts)), catalog)
    assert plan is not None, report.errors
    with pytest.raises(HoleExceedsOwner):
        build_assembly(plan, catalog)


def test_half_hole_geometry(catalog):
    parts = [
        {"Name": "BLOCK_1", "Available_obj": "CUBOID_100X100X100",
         "Orientation": [100, 100, 100],
         "Modifications": [{"Name": "HOLE_1", "Type": "HOLE",
                            "Align_x": "CENTER", "Align_y": "CENTER",
                            "Align_z": "HIGH_LOW_HALF"}],
         "exec_function": False},
    ]
    plan, report = parse_plan(normalize_raw(json.dumps(parts)), catalog)
    assert plan is not None, report.errors
    asm = build_assembly(plan, catalog)
    hole = asm.part("BLOCK_1").solid.holes[0]
    # blind hole from the top face down to half depth
    assert not hole.through
    assert hole.depth == pytest.approx(0.050, abs=1e-12)
    assert hole.offset[2] == pytest.approx(0.025, abs=1e-12)
    assert hole.open_sign == 1
    # default radius when nothing is inserted
    assert hole.radius == pytest.approx(0.005, abs=1e-12)


def test_transverse_quarter_point(catalog):
    parts = [
        {"Name": "BLOCK_1", "Available_obj": "CUBOID_100X100X100",
         "Orientation": [100, 100, 100],
         "Modifications": [{"Name": "HOLE_1", "Type": "HOLE",
                            "Align_x": "FRONT", "Align_y": "CENTER",
                            "Align_z": "HIGH_LOW_FULL"}],
         "exec_function": False},
    ]
    plan, report = parse_plan(normalize_raw(json.dumps(parts)), catalog)
    assert plan is not None, report.errors
    asm = build_assembly(plan, catalog)
    hole = asm.part("BLOCK_1").solid.holes[0]
    assert hole.offset[0] == pytest.approx(0.025, abs=1e-12)


def test_connectivity_of_goldens(build_fixture):
    for name in ("table_valid_1", "skateboard_valid_1", "bookshelf_valid_1"):
        _, asm = build_fixture(name)
        assert connectivity_check(asm) is None


def test_connectivity_partition():
    # assembled by hand: two placed parts, no graph edges
    from craftkit.assembler import Assembly, PlacedPart
    from craftkit.geometry import Solid
    from craftkit.plan import OrientationSpec, PartSpec

    def mk(name, x):
        spec = PartSpec(name=name, available_obj="CUBOID_100X100X100",
                        orientation=OrientationSpec(axis_dims=(100,) * 3),
                        modifications=(), connections=(), exec_function=False)
        return PlacedPart(spec=spec, solid=Solid.box((0.1, 0.1, 0.1)),
                          position=(x, 0.0, 0.05))

    asm = Assembly(placed={"A_1": mk("A_1", 0.0), "B_1": mk("B_1", 1.0)})
    components = connectivity_check(asm)
    assert components is not None
    assert sorted(sorted(c) for c in components) == [["A_1"], ["B_1"]]
    assert len(connectivity_check(asm)) == 2
