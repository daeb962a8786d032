import json
import warnings

import pytest

from craftkit.catalog import (
    CUBOID,
    CYLINDER,
    MAX_DIM_MM,
    MIN_DIM_MM,
    Catalog,
    ObjectType,
    default_catalog,
    parse_catalog,
)
from craftkit.errors import DuplicateId, ParseError, UnknownObject


def test_default_catalog_has_41_objects():
    cat = default_catalog()
    assert len(cat.objects) == 41


def test_default_catalog_stays_inside_the_envelope():
    # an object outside 10-250 mm would warn, and the warning raise here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_catalog()


def test_default_catalog_shapes_and_ranges():
    cat = default_catalog()
    shapes = {o.shape for o in cat.objects}
    assert shapes == {CUBOID, CYLINDER}
    for obj in cat.objects:
        for d in obj.principal_dims_mm:
            assert MIN_DIM_MM <= d <= MAX_DIM_MM


def test_lookup_known_and_unknown():
    cat = default_catalog()
    obj = cat.lookup("CYLINDER_R30_L20")
    assert obj.shape == CYLINDER
    assert obj.dims == (30.0, 20.0)
    with pytest.raises(UnknownObject):
        cat.lookup("CYLINDER_R999_L1")


def test_cylinder_principal_dims_use_diameter():
    obj = ObjectType(id="CYLINDER_R30_L20", shape=CYLINDER, dims=(30, 20))
    assert obj.principal_dims_mm == (60.0, 20.0)


def test_duplicate_id_rejected():
    obj = ObjectType(id="A_1", shape=CUBOID, dims=(10, 10, 10))
    with pytest.raises(DuplicateId):
        Catalog([obj, obj])


def test_ids_are_canonicalized_like_plan_tokens():
    cat = parse_catalog(json.dumps({"objects": [
        {"id": "cuboid-100x100x100", "shape": "CUBOID",
         "dims": [100, 100, 100]},
        {"id": "Cylinder_r30_l20", "shape": "CYLINDER", "dims": [30, 20]}]}))
    assert [o.id for o in cat.objects] == ["CUBOID_100X100X100",
                                           "CYLINDER_R30_L20"]
    assert cat.lookup("CUBOID_100X100X100").dims == (100.0, 100.0, 100.0)


def test_ids_that_canonicalize_alike_are_duplicates():
    text = json.dumps({"objects": [
        {"id": i, "shape": "CUBOID", "dims": [10, 10, 10]}
        for i in ("a-1", "A_1")]})
    with pytest.raises(DuplicateId):
        parse_catalog(text)


def test_parse_catalog_strict_range():
    text = json.dumps({"objects": [
        {"id": "CUBOID_300X10X10", "shape": "CUBOID", "dims": [300, 10, 10]},
    ]})
    # a catalog outside the envelope only warns
    with pytest.warns(UserWarning):
        cat = parse_catalog(text)
    assert len(cat.objects) == 1


@pytest.mark.parametrize("payload", [
    "not json",
    json.dumps([1, 2, 3]),
    json.dumps({"objects": 5}),
    json.dumps({"objects": None}),
    json.dumps({"objects": [{"id": "X_1", "shape": "SPHERE", "dims": [1]}]}),
    json.dumps({"objects": [{"id": "X_1", "shape": "CUBOID", "dims": [1, 2]}]}),
    json.dumps({"objects": [{"id": "X_1", "shape": "CYLINDER",
                             "dims": [10, -5]}]}),
    json.dumps({"objects": [{"id": "X_1", "shape": "CUBOID",
                             "dims": "abc"}]}),
    json.dumps({"objects": [{"id": "X_1", "shape": "CUBOID", "dims": 5}]}),
    json.dumps({"objects": [{"id": "X_1", "shape": "CUBOID",
                             "dims": [float("nan"), 20, 30]}]}),
    json.dumps({"objects": [5]}),
    json.dumps({"objects": [{"id": "X_1", "shape": "CUBOID"}]}),
    json.dumps({"objects": [{"id": "X_1", "shape": "CYLINDER",
                             "dims": [10, 20, 30]}]}),
])
def test_parse_catalog_bad_payloads(payload):
    with pytest.raises(ParseError):
        parse_catalog(payload)
