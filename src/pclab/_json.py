"""The one rule by which results become JSON data."""
from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

from .exactpow import RationalExponent


class Report:
    """Base of the result dataclasses: the JSON form is every field in
    declaration order, each passed through ``jsonable``."""

    def to_json(self) -> dict:
        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}


def jsonable(x):
    """x as plain JSON data.

    Ratios and exponents become "num/den", complex values [re, im], tuples
    lists, numpy scalars Python numbers and reports their ``to_json()``.
    """
    if isinstance(x, Report):
        return x.to_json()
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, RationalExponent):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if hasattr(x, "item") and callable(x.item):  # numpy scalar
        return x.item()
    return x
