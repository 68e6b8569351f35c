"""The report rule: every result dataclass's to_dict() is its field names."""

import dataclasses
import json
import re

import numpy as np
import pytest

from ctrlgauge import (
    LdtSystem,
    OracleConfig,
    Zonotope,
    compare_ability,
    controllability_report,
    expansion_check,
    mc_volume,
    min_time,
    reach_region,
    verify_theorem1,
)

A = np.array([[0.9, 0.2, 0.0], [-0.1, 0.8, 0.3], [0.0, 0.1, 0.7]])
B = np.array([[1.0], [0.5], [0.2]])
SMALL = LdtSystem(name="small", A=A, B=B)
LARGE = LdtSystem(name="large", A=A, B=2.0 * B)

# one result of each report class, with its array fields set
REPORTS = {
    "ControlSolution": lambda: min_time(SMALL, [0.5, 0.3, 0.1], max_steps=8),
    "AbilityVerdict": lambda: compare_ability(SMALL, LARGE, 3),
    "TheoremReport": lambda: verify_theorem1(SMALL, LARGE, 3, samples=4),
    "ShapeReport": lambda: Zonotope(reach_region(SMALL, 3).rows).shape_report(),
    "ControllabilityReport": lambda: controllability_report(SMALL, 3),
    # one generator added to a 3-D stage leaves a witness direction
    "ExpansionReport": lambda: expansion_check(reach_region(SMALL, 3), 1, 2),
    "McVolumeResult": lambda: mc_volume(Zonotope(np.eye(2)), OracleConfig(mc_samples=1000)),
}


@pytest.mark.parametrize("name", list(REPORTS))
def test_to_dict_is_the_field_names(name):
    result = REPORTS[name]()
    assert type(result).__name__ == name
    report = result.to_dict()
    fields = [f.name for f in dataclasses.fields(result)]
    keys = [re.sub(r"_([a-z])", lambda m: m.group(1).upper(), f) for f in fields]
    assert list(report) == keys
    arrays = 0
    for field, key in zip(fields, keys):
        value = getattr(result, field)
        if isinstance(value, np.ndarray):
            arrays += 1
            assert report[key] == value.tolist() and isinstance(report[key], list)
        elif field == "planar_shape_factors":
            # the one exception: axis pairs become 1-based "x1,x2" keys
            assert report[key] == {f"x{i + 1},x{j + 1}": v for (i, j), v in value.items()}
        else:
            assert report[key] is value
    array_fields = {"ControlSolution": 2, "ShapeReport": 1, "ExpansionReport": 1}
    assert arrays == array_fields.get(name, 0)
    assert json.loads(json.dumps(report)) == report
