import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "NaN tol": (["discrepancy", "--x", "100", "-c", "3/2", "--h", "1", "--d", "3", "--tol", "nan"], None, {}),
    "tol below 2^-52": (["discrepancy", "--x", "100", "-c", "3/2", "--h", "1", "--d", "3", "--tol", "1e-20"], None, {}),
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
    "huge sigma c": (["constants", "sigma", "-c", "1e400"], None, {}),
    "huge rbound c": (["constants", "rbound", "-c", "1e400"], None, {}),
    "huge margins c": (["constants", "margins", "-c", "1e400"], None, {}),
    "huge lemma23 c": (["constants", "lemma23", "-c", "1e400", "--theta", "1/100"], None, {}),
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


def test_weyl_with_a_huge_theta_denominator_ends():
    # floor(N^Theta) comes from intervals, not from N^num with num near 1e31
    src = str(Path(pclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["expsum", "weyl", "-c", "5/2", "--Theta", HUGE_DEN_THETA, "--Delta", "1", "--N", "100"]
    proc = subprocess.run([sys.executable, "-m", "pclab.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["params"]["terms"] == 100


def test_verify_record_reproduces_fixtures(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    code, _ = run_cli(["verify", "--record", "--fixtures", str(path)])
    assert code == 0
    assert path.read_bytes() == (REPO / "fixtures" / "fixtures.jsonl").read_bytes()
