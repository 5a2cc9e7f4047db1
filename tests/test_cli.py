import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pclab
from pclab import cli

REPO = Path(__file__).resolve().parents[1]


def run_cli(argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.run(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_floor_example():
    code, out = run_cli(["floor", "-n", "97", "-c", "6/5"])
    assert code == 0
    rec = json.loads(out)
    assert rec["result"]["floor"] == 242
    assert list(rec) == ["command", "params", "result", "tool_version", "elapsed_ms"]


def test_delta_example():
    code, out = run_cli(["constants", "delta", "-R", "2"])
    assert code == 0
    assert json.loads(out)["result"]["delta"] == 0.044560


def test_integer_exponent_usage_error():
    code, _ = run_cli(["floor", "-n", "97", "-c", "2"])
    assert code == 1


def test_unknown_flag_usage_error():
    code, _ = run_cli(["floor", "-n", "97", "--nope", "1"])
    assert code == 1


def subcommand_parsers(parser=None, path=()) -> dict:
    """{command path: parser} for every subcommand under build_parser()."""
    found = {}
    for action in (parser or cli.build_parser())._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[(*path, name)] = sub
                found.update(subcommand_parsers(sub, (*path, name)))
    return found


def test_help_exits_zero_everywhere():
    subcommands = subcommand_parsers()
    assert len(subcommands) == 23
    for sub in subcommands:
        code, _ = run_cli([*sub, "--help"])
        assert code == 0, sub


# the scoped flags each leaf command reads, and so accepts
_SCOPED_FLAGS = {
    ("census",): {"--jobs"},
    ("squarefree",): {"--jobs"},
    ("psprimes",): {"--jobs"},
    ("verify",): {"--jobs", "--fixtures"},
    ("discrepancy",): {"--tol"},
    ("constants", "maxc"): {"--tol"},
    ("constants", "threshold"): {"--tol"},
    ("expsum", "trilinear"): {"--seed"},
}

# one valid invocation per leaf command
_LEAF_ARGV = {
    ("floor",): ["-n", "97", "-c", "6/5"],
    ("census",): ["--x", "100", "-c", "3/2", "-R", "2"],
    ("squarefree",): ["--x", "100", "-c", "3/2"],
    ("psprimes",): ["--x", "100", "-c", "3/2"],
    ("histogram",): ["--x", "100", "-c", "3/2", "--d", "3"],
    ("leveldist",): ["--x", "100", "-c", "3/2", "--D", "3"],
    ("discrepancy",): ["--x", "100", "-c", "3/2", "--h", "1", "--d", "3"],
    ("expsum", "weyl"): ["-c", "5/2", "--Theta", "1", "--Delta", "3/10", "--N", "100"],
    ("expsum", "prime"): ["--x", "100", "-c", "11/5", "--h", "3", "--d", "7"],
    ("expsum", "trilinear"): ["--D", "2", "--M", "4", "--L", "4", "--h", "1", "-c", "8/5"],
    ("expsum", "triple"): ["--x", "100", "--D", "2", "--H", "2", "-c", "3/2"],
    ("constants", "delta"): ["-R", "2"],
    ("constants", "table"): [],
    ("constants", "lemma23"): ["-c", "1.05", "--theta", "1/100"],
    ("constants", "maxc"): ["-R", "8"],
    ("constants", "sigma"): ["-c", "5/2"],
    ("constants", "rbound"): ["-c", "5/2"],
    ("constants", "regime"): ["-c", "3"],
    ("constants", "threshold"): ["--ineq", "3.2", "--lo", "13/10", "--hi", "3/2"],
    ("constants", "margins"): ["-c", "2.5"],
    ("verify",): [],
}

_SCOPED_VALUES = {"--jobs": "2", "--seed": "9", "--tol": "1e-3", "--fixtures": "fixtures.jsonl"}


def test_each_scoped_flag_is_on_the_commands_that_read_it():
    subcommands = subcommand_parsers()
    assert {path for path, parser in subcommands.items() if not subcommand_parsers(parser)} == set(_LEAF_ARGV)
    assert sum(len(flags) for flags in _SCOPED_FLAGS.values()) == 9
    for path, parser in [((), cli.build_parser()), *subcommands.items()]:
        options = set(parser._option_string_actions)
        assert {"--format", "--config", "--timing"} <= options, path
        assert options & set(_SCOPED_VALUES) == _SCOPED_FLAGS.get(path, set()), path


def test_a_flag_a_command_does_not_read_is_a_usage_error(capsys):
    refused = 0
    for path, argv in _LEAF_ARGV.items():
        for flag, value in _SCOPED_VALUES.items():
            if flag in _SCOPED_FLAGS.get(path, set()):
                continue
            code, out = run_cli([*path, *argv, flag, value])
            err = capsys.readouterr().err.splitlines()
            assert code == 1 and out == "", (path, flag)
            assert len(err) == 1 and err[0] == f"pclab: unrecognized arguments: {flag} {value}", (path, flag)
            refused += 1
    assert refused == 75


def test_a_scoped_flag_before_the_subcommand_is_named(capsys):
    for path, flags in _SCOPED_FLAGS.items():
        for flag in flags:
            value = _SCOPED_VALUES[flag]
            for given in ([flag, value], [f"{flag}={value}"], ["--format", "jsonl", flag, value]):
                code, out = run_cli([*given, *path, *_LEAF_ARGV[path]])
                err = capsys.readouterr().err.splitlines()
                assert code == 1 and out == "", given
                assert err == [f"pclab: {flag} goes after the subcommand, not before it"], given


# sha256 of each leaf command's stdout in jsonl and csv, keyed by its path;
# re-pinning one is a listed change, as for the fixtures
_GOLDEN_STDOUT = {
    ("floor",): (
        "d49ea5293af510566f3155bbc98688e475f973626c30eda4b5a13ca9d0bec1a4",
        "7936301d109a0802d4dab55a6e7c7f92e0115ce37568ef1adb70f9c8e27a4aec",
    ),
    ("census",): (
        "ccffbf7d9cce8faa22dd2cbdb6a4128b50f33c68c68d0d0a31b9009fe1f92741",
        "5b075b742a64ffe49210ece7de5cf554d764a3c2f798081cb2b20628b80d0ccb",
    ),
    ("squarefree",): (
        "5f9a9823bc6697cf28e4331baca57aa0532418acffbafbe1a9d219a9351e6ac1",
        "58785e7128f64df193de99785464343a9284a8c7de4e6709f6bd69ff1aadc156",
    ),
    ("psprimes",): (
        "27e30afdbf2194098a7a1fc1d504c4a256caf004c33fb6bd40c0a802c481c108",
        "682bf03b5289f198ec101486cf94da013e61a03f2433409291b4acec953dbafa",
    ),
    ("histogram",): (
        "d4202ed2c3e0d16decddb3bb9dea10054019da3bb3e08f37187d10543b692e51",
        "21aec29c48fc9769e2261333fd0d4d8226b00cb0364ee8a546b9025ed42badeb",
    ),
    ("leveldist",): (
        "96eb111588351b34587069f425c84535da42351881473511d85d42980ecc161a",
        "dfb3f86cd26674f29c1b82db67f66ca12ecb29df822a1c4eab0dcb8b39937451",
    ),
    ("discrepancy",): (
        "953fb00e718618693143fca97873500cac5c98f5a15f6bae4fc5088fbfe708ba",
        "afe7f3498c9e806073a4c9d639ed69aa2c402dc8f14fd174b5aef2a893881c1e",
    ),
    ("expsum", "weyl"): (
        "9a02dd38256afb9dc2c168dfa7033aec68988ea95bfeb1bc529ffda01e411176",
        "53c5b20361d192074094ca91ea47aead601733084bece38c40e1accd4925a0d3",
    ),
    ("expsum", "prime"): (
        "22dd77cd41eb1822608b5f4273b03907835fa6ee2cd29529330efa23a245473d",
        "ce10b8e140f55a7bdebba93af0fb5a7bde2ea977501194707538c1a0a6464d15",
    ),
    ("expsum", "trilinear"): (
        "7ee4bd77d98df120e2666c4e73a78df70cdb4e717a7db4f8d7448024906513d2",
        "5127c38abfe9d1dcf1cd35e77bcf05c9f01737e06f02491d384668f9a1b28ef2",
    ),
    ("expsum", "triple"): (
        "d75e2cd3a60948f3a866125b05e72a2c6842101d93d8af3160d6cf5d94a7889d",
        "55e414052c2e1a232334f1963c564ac710c0574a1c7f2c30b4ebb09a35d46f20",
    ),
    ("constants", "delta"): (
        "a8a7fde1ae4f37e91ee26a5e959fae9be414d2353af9bbf8fbd4b517442be175",
        "5fb52500e99c54cdb514aede4d589549f1cbf451396a2ce1d37d156243429cd1",
    ),
    ("constants", "table"): (
        "ae8726e524ae8147bf1fe69f161d85eb988479a507a3c477ade4f33a4ff6fd1c",
        "8317254613d136944836452919f3c9df273a78a886fc2ac8aff814b4857542c7",
    ),
    ("constants", "lemma23"): (
        "2309c0f276e802cc0447f2343465b6c245ab3f8d4072c2c5f40fa742bcbea6a9",
        "40616a31448f23a846dfe5d296932c1a916ec9113a9b4c0933fd3d6940cff02f",
    ),
    ("constants", "maxc"): (
        "9848111cc9d8e09f3013b0049fc92e283c0d3238b1adae2f53c306180e607916",
        "bcf553bf29a4274701b92a287894bcc0ec098fd7dfbd72d641c289253e1e09b9",
    ),
    ("constants", "sigma"): (
        "714821e8b950d7c0d76adc8e172a6bbdb0313b4f01fce7a084977e42b58ecb5d",
        "74668dfef200d4e6a56563001c07804f9874d53e831e2a79c19835073c6685be",
    ),
    ("constants", "rbound"): (
        "79cbb40bdbe58e7ac09f12ef14907eb6e6e46280f00470bfdb30252b80cd22ab",
        "5842ef8906a2fcd05e46e227a8cad5536e5957d932b088c1c1aa0459c1d0080a",
    ),
    ("constants", "regime"): (
        "6a17b35013103bd8842568bfbfce9881ca20dbd570e8a0d6ddbb26f101240d6f",
        "14bef47d49f16ada561c9f8d7f5a95a18b62fdf655c0ecab0c801e2322bb9d85",
    ),
    ("constants", "threshold"): (
        "57fb22d55adb92afadf6904cd5991e34e2b37db0707bc01dd4a19b9393ebf5ec",
        "dd2537ed0ec4936a2ac9eaa61fc42f9b6d35e2b34105393d593411686a81e0f2",
    ),
    ("constants", "margins"): (
        "585420ea9963bbb0b1bf29ee3defb7a8e626417a5295570de8b8df77dda3967a",
        "03ff524a2fb3c9f6bee5ef336e44040efd1b4c9510eafbea0dc0549d0bd02491",
    ),
}


def test_leaf_command_stdout_is_pinned():
    assert set(_GOLDEN_STDOUT) == set(_LEAF_ARGV) - {("verify",)}
    for path, hashes in _GOLDEN_STDOUT.items():
        for fmt, want in zip(("jsonl", "csv"), hashes):
            code, out = run_cli([*path, *_LEAF_ARGV[path], "--format", fmt])
            assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == want, (path, fmt)


def test_resource_cap_exit_code():
    code, _ = run_cli(["psprimes", "--x", "1e11", "-c", "3/2"])
    assert code == 3


def test_seed_byte_identity():
    argv = ["expsum", "trilinear", "--D", "2", "--M", "4", "--L", "4",
            "--h", "1", "-c", "8/5", "--weights", "pm1", "--seed", "9"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_jobs_change_results_never():
    base = ["census", "--x", "2000", "-c", "7/5", "-R", "3"]
    _, out1 = run_cli(base + ["--jobs", "1"])
    _, out2 = run_cli(base + ["--jobs", "3"])
    assert out1 == out2  # elapsed_ms is 0 without --timing


def test_global_flags_accepted_before_and_after_subcommand():
    _, a = run_cli(["--format", "csv", "histogram", "--x", "100", "-c", "3/2", "--d", "3"])
    _, b = run_cli(["histogram", "--x", "100", "-c", "3/2", "--d", "3", "--format", "csv"])
    assert a == b
    assert a.splitlines()[0].startswith("command,")


def test_csv_quoting():
    code, out = run_cli(["histogram", "--x", "100", "-c", "3/2", "--d", "4", "--format", "csv"])
    assert code == 0
    header, row = out.splitlines()
    assert "result.counts" in header
    assert '"[6, 5, 10, 4]"' in row


# two criteria whose results have different fields, as verify's records do
_TWO_CRITERIA = [({"mismatches": 0}, True), ({"value": 1.5, "points": [1, 2]}, False)]


@pytest.mark.parametrize("fixture_line,code,rows", [("", 2, 4), ('{"command":"nope","params":{},"result":{},"key":"k"}', 1, 3)],
                         ids=["whole run", "error after some records"])
def test_verify_csv_is_one_table(monkeypatch, tmp_path, capsys, fixture_line, code, rows):
    from pclab import acceptance as ac

    results = [ac.CriterionResult(cid, f"c{cid}", ok, values) for cid, (values, ok) in enumerate(_TWO_CRITERIA, 1)]
    monkeypatch.setattr(ac, "run_criteria", lambda jobs, caps: results)
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text(fixture_line + "\n")  # an empty file holds zero fixtures
    got, out = run_cli(["verify", "--jobs", "1", "--fixtures", str(fixtures), "--format", "csv"])
    assert got == code
    assert len(capsys.readouterr().err.splitlines()) == (code == 1)  # a usage error's one line
    table = list(csv.DictReader(io.StringIO(out)))
    assert len(table) == rows and all(None not in row and None not in row.values() for row in table)
    assert [row["params.criterion"] for row in table[:3]] == ["1", "2", "14"]
    assert (table[0]["result.mismatches"], table[1]["result.mismatches"]) == ("0", "")
    assert (table[0]["result.value"], table[1]["result.value"]) == ("", "1.5")


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("format=csv\njobs=2\n")
    code, out = run_cli(["--config", str(cfg), "constants", "delta", "-R", "3"])
    assert code == 0
    assert out.startswith("command,")
    # explicit flag overrides the file
    code, out = run_cli(["--config", str(cfg), "--format", "jsonl", "constants", "delta", "-R", "3"])
    assert out.startswith("{")
    code, out = run_cli([f"--config={cfg}", "constants", "delta", "-R", "3"])
    assert code == 0
    assert out.startswith("command,")


def test_config_file_reaches_scoped_flags(tmp_path):
    cfg = tmp_path / "lab.cfg"
    trilinear = ["expsum", "trilinear", *_LEAF_ARGV[("expsum", "trilinear")], "--weights", "pm1"]
    cfg.write_text("seed=9\n")
    code, from_file = run_cli(["--config", str(cfg), *trilinear])
    assert code == 0
    assert from_file == run_cli([*trilinear, "--seed", "9"])[1] != run_cli(trilinear)[1]
    cfg.write_text("tol=1e-3\n")
    code, out = run_cli(["--config", str(cfg), "constants", "maxc", "-R", "8"])
    assert code == 0
    assert '"tol":0.001' in out


def test_params_echo_lossless():
    _, out = run_cli(["expsum", "weyl", "-c", "5/2", "--Theta", "1", "--Delta", "3/10", "--N", "100"])
    rec = json.loads(out)
    assert rec["params"]["theta"] == "1/1"
    assert rec["params"]["delta"] == "3/10"
    assert rec["params"]["c"] == "5/2"


# exact stdout of constants commands that no fixture covers; the version
# is substituted so that a release bump does not touch the pins
_PINNED_STDOUT = [
    (["constants", "rbound", "-c", "5/2"],
     '{"command":"constants.rbound","params":{"c":"5/2"},"result":{"real_bound":1368.75,"exact_bound":"5475/4",'
     '"integer_R":1368},"tool_version":"VERSION","elapsed_ms":0}'),
    (["constants", "sigma", "-c", "5/2"],
     '{"command":"constants.sigma","params":{"c":"5/2"},"result":{"coeff":179,"c":"5/2","c_float":2.5,'
     '"sigma":"25/13676","sigma_float":0.0018280198888563908,"beta":"1175/13676","beta_float":0.08591693477625037,'
     '"c1":"34215/13676","c1_float":2.5018280198888565,"c2":"20589/13676","c2_float":1.505484059666569},'
     '"tool_version":"VERSION","elapsed_ms":0}'),
    (["constants", "margins", "-c", "2.5"],
     '{"command":"constants.margins","params":{"c":"2.5","eps":"1/1000"},"result":{"c":2.5,"epsilon":0.001,'
     '"sigma":0.0018280198888563908,"beta":0.08591693477625037,"type1_worst":1.5388412041307624e-05,'
     '"type1_at":[0.41408306522374966,1.4629643170517694],"type1_ok":true,"type2_worst":0.0028630078413348376,'
     '"type2_at":[0.6666666666666666,0.4981719801111436],"type2_ok":true,"minorant1":0.002817201233809213,'
     '"minorant1_ok":false,"minorant2":0.004981684613586902,"minorant2_ok":false,"ok":true},'
     '"tool_version":"VERSION","elapsed_ms":0}'),
    (["constants", "regime", "-c", "3"],
     '{"command":"constants.regime","params":{"c":"3"},"result":{"all_hold":true,"inequalities":[{"id":"3.2",'
     '"lhs":0.002453285357975222,"rhs":0.002687786973250312,"slack":0.00023450161527509048,"holds":true},'
     '{"id":"3.3","lhs":0.004906570715950444,"rhs":0.004933388273331363,"slack":2.6817557380919703e-05,'
     '"holds":true},{"id":"3.4","lhs":0.004906570715950444,"rhs":0.00671816263187193,'
     '"slack":0.0018115919159214864,"holds":true},{"id":"beta-cap","lhs":0.04906570715950444,"rhs":0.1,'
     '"slack":0.05093429284049556,"holds":true}]},"tool_version":"VERSION","elapsed_ms":0}'),
    (["constants", "lemma23", "-c", "1.05", "--theta", "1/100"],
     '{"command":"constants.lemma23","params":{"c":"1.05","theta":"1/100","kappa":"1/1000000"},"result":'
     '{"alpha":0.05,"all_hold":true,"inequalities":[{"id":"i","lhs":0.12,"rhs":1.05,"slack":0.93,"holds":true},'
     '{"id":"ii","lhs":1.2,"rhs":2.0,"slack":0.8,"holds":true},{"id":"iii","lhs":156.73666666666668,"rhs":174.0,'
     '"slack":17.263333333333332,"holds":true},{"id":"iv","lhs":3.736666666666667,"rhs":4.0,'
     '"slack":0.2633333333333333,"holds":true},{"id":"v","lhs":3.09,"rhs":4.0,"slack":0.91,"holds":true},'
     '{"id":"vi","lhs":0.91,"rhs":1.0,"slack":0.09,"holds":true},{"id":"vii","lhs":0.955,"rhs":1.0,'
     '"slack":0.045,"holds":true},{"id":"viii","lhs":0.6766666666666666,"rhs":1.0,"slack":0.3233333333333333,'
     '"holds":true},{"id":"ix","lhs":0.49,"rhs":1.0,"slack":0.51,"holds":true},{"id":"x","lhs":0.545,'
     '"rhs":1.05,"slack":0.505,"holds":true},{"id":"xi","lhs":2.21,"rhs":3.0,"slack":0.79,"holds":true}]},'
     '"tool_version":"VERSION","elapsed_ms":0}'),
    (["constants", "maxc", "-R", "12", "--greaves-degree"],
     '{"command":"constants.maxc","params":{"R":12,"tol":1e-06,"greaves_degree":true},'
     '"result":{"max_c":1.141143227174282},"tool_version":"VERSION","elapsed_ms":0}'),
    (["constants", "threshold", "--ineq", "3.2", "--lo", "13/10", "--hi", "3/2"],
     '{"command":"constants.threshold","params":{"ineq":"3.2","lo":"13/10","hi":"3/2","tol":0.001},'
     '"result":{"value":1.4194444444444445,"multi_crossing":false},"tool_version":"VERSION","elapsed_ms":0}'),
    (["constants", "threshold", "--ineq", "3.4", "--lo", "9/5", "--hi", "12/5"],
     '{"command":"constants.threshold","params":{"ineq":"3.4","lo":"9/5","hi":"12/5","tol":0.001},'
     '"result":{"value":2.1973484848484848,"multi_crossing":false},"tool_version":"VERSION","elapsed_ms":0}'),
]


@pytest.mark.parametrize("argv,want", _PINNED_STDOUT, ids=[" ".join(a) for a, _ in _PINNED_STDOUT])
def test_constants_stdout_is_pinned(argv, want):
    code, out = run_cli(argv)
    assert code == 0
    assert out == want.replace("VERSION", pclab.__version__) + "\n"


def test_regime_verdicts_stay_exact_where_floats_underflow():
    # at c = 1e400 the values of 3.2-3.4 lie below the float range, and the
    # exact slack, though positive, is below the strictness margin
    code, out = run_cli(["constants", "regime", "-c", "1e400"])
    assert code == 0
    reports = json.loads(out)["result"]["inequalities"]
    assert [(r["lhs"], r["rhs"], r["holds"]) for r in reports][:3] == [(0.0, 0.0, False)] * 3


def test_timing_flag_controls_elapsed():
    _, out = run_cli(["constants", "table"])
    assert json.loads(out)["elapsed_ms"] == 0
    _, out = run_cli(["constants", "table", "--timing"])
    assert json.loads(out)["elapsed_ms"] >= 0


def test_scientific_notation_exact():
    code, out = run_cli(["psprimes", "--x", "1e3", "-c", "3/2"])
    assert code == 0
    assert json.loads(out)["result"]["x"] == 1000
    code, _ = run_cli(["psprimes", "--x", "1.5e0", "-c", "3/2"])
    assert code == 1  # not an exact integer


HUGE_DEN_THETA = "1.0000000000000000000000000000001"
BIG = str(10**400 + 1)  # past the float range

# argv ("{file}" names a file holding file_text), file_text, environment
BAD_INPUTS = {
    "zero denominator": (["constants", "sigma", "-c", "1/0"], None, {}),
    "infinite tol": (["constants", "maxc", "-R", "8", "--tol", "inf"], None, {}),
    "trailing --config": (["constants", "table", "--config"], None, {}),
    "bad config value": (["--config", "{file}", "constants", "table"], "jobs=abc\n", {}),
    "bad config format": (["--config", "{file}", "constants", "table"], "format=xml\n", {}),
    "bad PSC_LAB_CAP": (["constants", "table"], None, {"PSC_LAB_CAP": "abc"}),
    "fractional PSC_LAB_CAP": (["constants", "table"], None, {"PSC_LAB_CAP": "2.5"}),
    "negative PSC_LAB_CAP": (["constants", "table"], None, {"PSC_LAB_CAP": "-5"}),
    "fractional named cap": (["constants", "table"], None, {"PSC_LAB_CAP": "weyl_terms=2.9"}),
    "non-JSON fixtures line": (["verify", "--fixtures", "{file}"], "not json\n", {}),
    "missing fixtures file": (["verify", "--jobs", "1", "--fixtures", "/nonexistent/typo.jsonl"], None, {}),
    "NaN tol": (["discrepancy", "--x", "100", "-c", "3/2", "--h", "1", "--d", "3", "--tol", "nan"], None, {}),
    "tol below 2^-52": (["discrepancy", "--x", "100", "-c", "3/2", "--h", "1", "--d", "3", "--tol", "1e-20"], None, {}),
    "negative H": (["expsum", "triple", "--x", "100", "--D", "2", "--H", "-1", "-c", "3/2"], None, {}),
    "zero scale": (["expsum", "trilinear", "--D", "0", "--M", "2", "--L", "2", "--h", "1", "-c", "3/2"], None, {}),
    "zero maxc tol": (["constants", "maxc", "-R", "8", "--tol", "0"], None, {}),
    "zero threshold tol": (["constants", "threshold", "--ineq", "3.3", "--lo", "9/5", "--hi", "12/5", "--tol", "0"],
                           None, {}),
    "zero discrepancy tol": (["discrepancy", "--x", "100", "-c", "3/2", "--h", "1", "--d", "3", "--tol", "0"],
                             None, {}),
    "zero jobs": (["constants", "table", "--jobs", "0"], None, {}),
    "negative jobs": (["constants", "table", "--jobs", "-1"], None, {}),
    "zero jobs in config": (["--config", "{file}", "constants", "table"], "jobs=0\n", {}),
    "verify with zero jobs": (["verify", "--jobs", "0"], None, {}),
    "zero maxc kappa": (["constants", "maxc", "-R", "8", "--kappa", "0"], None, {}),
    "negative maxc kappa": (["constants", "maxc", "-R", "8", "--kappa", "-1"], None, {}),
    "tol on floor": (["floor", "-n", "97", "-c", "6/5", "--tol", "0"], None, {}),
    "tol on regime": (["constants", "regime", "-c", "3", "--tol", "5"], None, {}),
    "zero census jobs": (["census", "--x", "100", "-c", "3/2", "-R", "2", "--jobs", "0"], None, {}),
    "jobs before the subcommand": (["--jobs", "2", "census", "--x", "100", "-c", "3/2", "-R", "2"], None, {}),
    "tol= before the subcommand": (["--tol=1e-3", "discrepancy", "--x", "100", "-c", "3/2", "--h", "1", "--d", "3"],
                                   None, {}),
    "removed member_bits cap": (["constants", "table"], None, {"PSC_LAB_CAP": "member_bits=200"}),
    "removed triple_x cap": (["constants", "table"], None, {"PSC_LAB_CAP": "triple_x=5"}),
    "removed f-model flag": (["leveldist", "--x", "100", "-c", "3/2", "--D", "3", "--f-model", "unit"], None, {}),
    "huge sigma c": (["constants", "sigma", "-c", "1e400"], None, {}),
    "huge rbound c": (["constants", "rbound", "-c", "1e400"], None, {}),
    "huge margins c": (["constants", "margins", "-c", "1e400"], None, {}),
    "huge lemma23 c": (["constants", "lemma23", "-c", "1e400", "--theta", "1/100"], None, {}),
    # about 1e400 degrees, from 2c down to 2 + eps, were listed before the one that raises
    "huge margins c and eps": (["constants", "margins", "-c", "1e400", "--eps", "1e400"], None, {}),
    "rbound beyond float range": (["constants", "rbound", "-c", "1e120"], None, {}),
    "histogram d past int64": (["histogram", "--x", "2", "-c", "3/2", "--d", "1e30"], None, {}),
    "histogram d past the table cap": (["histogram", "--x", "2", "-c", "3/2", "--d", "1e11"], None, {}),
    "leveldist D past int64": (["leveldist", "--x", "2", "-c", "3/2", "--D", "1e30"], None, {}),
    "leveldist D squared past the table cap": (["leveldist", "--x", "2", "-c", "3/2", "--D", "2e7"], None, {}),
    "weyl N^Theta with 12 million bits": (
        ["expsum", "weyl", "-c", "5/2", "--Theta", "1000000", "--Delta", "1", "--N", "1e12"], None, {}
    ),
    # num and den near 1e31: the bit-length test passes, and floor(N^Theta) = N > 1e8
    "weyl huge-den Theta past the cap": (
        ["expsum", "weyl", "-c", "5/2", "--Theta", HUGE_DEN_THETA, "--Delta", "1", "--N", "134217727"], None, {}
    ),
    "floor c past the float range": (["floor", "-n", "3", "-c", f"{BIG}/3"], None, {}),
    "census c past the float range": (["census", "--x", "100", "-c", f"{BIG}/3", "-R", "2"], None, {}),
    "discrepancy c past the float range": (["discrepancy", "--x", "100", "-c", f"{BIG}/3", "--h", "1", "--d", "3"],
                                           None, {}),
    "weyl Delta 1e300": (["expsum", "weyl", "-c", "5/2", "--Theta", "1/2", "--Delta", "1e300", "--N", "100"], None, {}),
    "weyl Delta past the float range": (
        ["expsum", "weyl", "-c", "5/2", "--Theta", "1/2", "--Delta", "1e400", "--N", "100"], None, {}
    ),
    "prime h past the float range": (["expsum", "prime", "--x", "100", "-c", "3/2", "--h", "1e400", "--d", "7"],
                                     None, {}),
    "prime d past the float range": (["expsum", "prime", "--x", "100", "-c", "3/2", "--h", "1", "--d", "1e400"],
                                     None, {}),
    "discrepancy d past the float range": (
        ["discrepancy", "--x", "100", "-c", "3/2", "--h", "3", "--d", "1e400"], None, {}
    ),
    "trilinear h past the float range": (
        ["expsum", "trilinear", "--D", "2", "--M", "2", "--L", "2", "--h", "1e400", "-c", "3/2"], None, {}
    ),
    "triple D past the float range with H = 0": (
        ["expsum", "triple", "--x", "100", "--D", "1e400", "--H", "0", "-c", "3/2"], None, {}
    ),
}

# cases that end on a resource cap, exit 3; every other case exits 1
BAD_INPUT_CODES = {
    "histogram d past int64": 3,
    "histogram d past the table cap": 3,
    "leveldist D past int64": 3,
    "leveldist D squared past the table cap": 3,
    "weyl N^Theta with 12 million bits": 3,
    "weyl huge-den Theta past the cap": 3,
    "floor c past the float range": 3,
    "census c past the float range": 3,
    "discrepancy c past the float range": 3,
    "weyl Delta 1e300": 3,
    "weyl Delta past the float range": 3,
}

# the whole stderr line of the cases whose message is pinned
BAD_INPUT_MESSAGES = {
    "jobs before the subcommand": "pclab: --jobs goes after the subcommand, not before it",
    "tol= before the subcommand": "pclab: --tol goes after the subcommand, not before it",
    "weyl N^Theta with 12 million bits": "pclab: resource cap: N^theta terms exceed cap 100000000",
    "weyl huge-den Theta past the cap": "pclab: resource cap: N^theta terms exceed cap 100000000",
    "missing fixtures file": "pclab: no fixtures file /nonexistent/typo.jsonl (record one with verify --record)",
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_is_one_line_exit_1(case, tmp_path):
    argv, file_text, extra_env = BAD_INPUTS[case]
    if file_text is not None:
        path = tmp_path / "input"
        path.write_text(file_text)
        argv = [str(path) if a == "{file}" else a for a in argv]
    src = str(Path(pclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **extra_env}
    proc = subprocess.run([sys.executable, "-m", "pclab.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == BAD_INPUT_CODES.get(case, 1)
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("pclab: ")
    assert lines[0] == BAD_INPUT_MESSAGES.get(case, lines[0])
    assert proc.stdout == ""


# the fuzzer's values: signs, zero and empty text, 1/0, non-finite and
# past-float text, a 24-digit integer, long decimals near 1, a den-10^8
# exponent, integer and <= 1 exponents
_ADVERSARIAL = (
    "0", "-1", "", "1/0", "nan", "inf", "1e400", "1e30", "123456789012345678901234",
    "1.00000000000000000000001", "0.99999999999999999999999", "100000001/100000000", "2", "1", "1/2",
)
# verify is left out: one call runs the whole suite
_FUZZED = sorted(path for path, argv in _LEAF_ARGV.items() if argv and path != ("verify",))
# one valid value for each optional value flag, so that the fuzzer swaps those too
_FUZZED_OPTIONS = {
    ("expsum", "weyl"): ["--eps", "1/10"],
    ("constants", "margins"): ["--eps", "1/1000"],
    ("constants", "lemma23"): ["--kappa", "1/1000000"],
    ("constants", "maxc"): ["--kappa", "1/1000000000", "--tol", "1e-3"],
    ("discrepancy",): ["--tol", "1e-3"],
    ("constants", "threshold"): ["--tol", "1e-3"],
    ("expsum", "trilinear"): ["--seed", "9", "--weights", "pm1"],
}


class NoExit(Exception):
    """A fuzzed call still running at the alarm; not an OSError, which run() reports."""


@contextlib.contextmanager
def _alarm(seconds: int):
    def ring(signum, frame):
        raise NoExit(f"no exit within {seconds} s")

    old = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_swapped_values_end_with_one_line_and_a_documented_exit(data):
    path = data.draw(st.sampled_from(_FUZZED))
    argv = [*_LEAF_ARGV[path], *_FUZZED_OPTIONS.get(path, [])]
    slots = data.draw(st.lists(st.sampled_from(range(1, len(argv), 2)), min_size=1, max_size=2, unique=True))
    for i in slots:
        argv[i] = data.draw(st.sampled_from(_ADVERSARIAL))
    out, err = io.StringIO(), io.StringIO()
    # a small cap keeps every accepted call short; the alarm catches a hang, not slowness
    with mock.patch.dict(os.environ, {"PSC_LAB_CAP": "100000"}), _alarm(60):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([*path, *argv])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert len(lines) <= 1
    if code:
        assert lines and lines[0].startswith("pclab: ") and out.getvalue() == ""


def test_weyl_with_a_huge_theta_denominator_ends():
    # floor(N^Theta) comes from intervals, not from N^num with num near 1e31
    src = str(Path(pclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["expsum", "weyl", "-c", "5/2", "--Theta", HUGE_DEN_THETA, "--Delta", "1", "--N", "100"]
    proc = subprocess.run([sys.executable, "-m", "pclab.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["params"]["terms"] == 100


# a fresh interpreter imports pclab.cli, lists which of the modules that load
# on first use are already there, then takes one floor on the interval path
# (a denominator above 64 sends it there)
_IMPORT_PROBE = """
import json, sys
import pclab.cli
deferred = ("mpmath", "concurrent.futures.process", "multiprocessing", "hashlib", "csv", "pclab.acceptance")
loaded = [m for m in deferred if m in sys.modules]
from pclab.exactpow import floor_pow
r = floor_pow(10**9 + 7, "10521/10000")
print(json.dumps({"loaded": loaded, "r": r, "mpmath_after": "mpmath" in sys.modules}))
"""


def test_cli_import_defers_unused_dependencies():
    src = str(Path(pclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == []
    n, num, den, r = 10**9 + 7, 10521, 10000, got["r"]
    assert r**den <= n**num < (r + 1) ** den
    assert got["mpmath_after"]


def test_verify_record_reproduces_fixtures(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    code, _ = run_cli(["verify", "--record", "--fixtures", str(path)])
    assert code == 0
    assert path.read_bytes() == (REPO / "fixtures" / "fixtures.jsonl").read_bytes()
