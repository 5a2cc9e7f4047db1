"""The one rule by which results become JSON: a report lists its fields."""
import ast
import json
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import pclab
from pclab import constants as cn
from pclab import experiments as ex
from pclab import expsum as es
from pclab._json import Report, jsonable
from pclab.exactpow import parse_exponent

SRC = Path(pclab.__file__).parent


def _reports() -> list:
    """One small instance of every Report subclass that keeps the base rule."""
    return [
        ex.almost_prime_census(1000, "3/2", 3),
        ex.squarefree_census(1000, "7/5"),
        ex.ps_prime_count(1000, "3/2"),
        ex.residue_histogram(1000, "3/2", 7),
        ex.level_error(1000, "10521/10000", 5),
        ex.star_discrepancy(200, "10521/10000", 1, 7),
        es.weyl_sum("5/2", 1, F(3, 10), 50),
        cn.regime_inequalities("5/2")[0],
        cn.r_bound("5/2"),
        cn.threshold("3.4", "1.8", "2.4"),
        cn.margin_verify("5/2", F(1, 1000)),
    ]


def test_every_report_lists_its_fields_in_order():
    reports = _reports()
    assert {type(r) for r in reports} == set(Report.__subclasses__()) - {cn.RegimeConstants}
    for r in reports:
        j = r.to_json()
        assert list(j) == [f.name for f in fields(r)], type(r).__name__
        assert json.loads(json.dumps(j)) == j, type(r).__name__  # plain JSON data


def test_report_values_render_by_the_one_rule():
    census, _, _, hist, _, _, weyl, _, rb, _, margins = _reports()
    assert census.to_json()["c"] == "3/2"
    assert hist.to_json()["counts"] == list(hist.counts)
    assert weyl.to_json()["value"] == [weyl.value.real, weyl.value.imag]
    assert rb.to_json()["exact_bound"] == "5475/4"
    assert margins.to_json()["type1_at"] == list(margins.type1_at)


def test_jsonable_rules():
    assert jsonable(F(3)) == "3/1"
    assert jsonable(parse_exponent("2.2")) == "11/5"
    assert jsonable(1 + 2j) == [1.0, 2.0]
    assert jsonable({"a": (F(1, 2), np.int64(7))}) == {"a": ["1/2", 7]}
    assert type(jsonable(np.float64(0.5))) is float
    r = cn.r_bound("5/2")
    assert jsonable([r]) == [r.to_json()]


def test_rbound_and_regime_constants_shapes():
    assert list(cn.r_bound(F(5, 2)).to_json()) == ["real_bound", "exact_bound", "integer_R"]
    j = cn.regime_constants(F(5, 2)).to_json()
    names = ("c", "sigma", "beta", "c1", "c2")
    assert list(j) == ["coeff", *(k for name in names for k in (name, f"{name}_float"))]
    assert j["sigma"] == "25/13676" and j["sigma_float"] == 25 / 13676


def test_one_json_rule_in_source():
    # jsonable lives in _json alone, and only RegimeConstants, with its float
    # mirrors, overrides the fields rule that Report.to_json applies
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "jsonable":
                assert path.name == "_json.py", path.name
            if isinstance(node, ast.ClassDef) and path.name != "_json.py":
                methods = {n.name for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
                if "to_json" in methods:
                    assert node.name == "RegimeConstants", f"{path.name}: {node.name}"
