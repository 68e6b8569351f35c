"""The one rule from a result dataclass to its JSON-ready report.

A report is the dataclass's fields in declaration order under their
camelCase names (rank_pn -> rankPn), numpy arrays as lists and every other
value as it is. Report classes take it as their to_dict method.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np


@functools.cache
def _keys(cls):
    """(field name, report key) pairs of a dataclass, built once per class."""
    pairs = []
    for f in dataclasses.fields(cls):
        head, *rest = f.name.split("_")
        pairs.append((f.name, head + "".join(word.capitalize() for word in rest)))
    return tuple(pairs)


def to_dict(obj):
    """The report of a result dataclass: camelCase keys in field order."""
    report = {}
    for name, key in _keys(type(obj)):
        value = getattr(obj, name)
        report[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return report
