import argparse
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gaussem import cli, thermo
from gaussem.cli import build_parser, main, parse_model
from gaussem.disorder import SeedPolicy, make_sampler, write_draws
from gaussem.errors import ValidationError
from gaussem.models import GREMModel, MixedModel, PSpinModel, REMModel, SKModel

TREE_TEXT = "2 2\n1 1\n0.6 0.4\n"


@pytest.fixture()
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text(TREE_TEXT)
    return path


def read_rows(path):
    import csv

    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    parsed = list(csv.reader(lines))
    header = parsed[0]
    return header, [dict(zip(header, row)) for row in parsed[1:]]


def test_parse_model_kinds(tree_file):
    assert isinstance(parse_model("sk", 4), SKModel)
    assert isinstance(parse_model("rem", 3), REMModel)
    p = parse_model("pspin:3", 5)
    assert isinstance(p, PSpinModel) and p.p == 3
    m = parse_model("mixed:2=0.5,4=0.5", 4)
    assert isinstance(m, MixedModel)
    assert m.orders == {2: Fraction(1, 2), 4: Fraction(1, 2)}
    g = parse_model(f"grem:{tree_file.name}", None, base=tree_file.parent)
    assert isinstance(g, GREMModel) and g.n == 2


def test_parse_model_errors(tmp_path):
    with pytest.raises(ValidationError, match="unknown model"):
        parse_model("nope", 3)
    with pytest.raises(ValidationError, match="needs an explicit --n"):
        parse_model("sk")
    with pytest.raises(ValidationError, match="sum to 0.5"):
        parse_model("mixed:2=0.5", 4)
    with pytest.raises(ValidationError, match="p=w"):
        parse_model("mixed:2", 4)
    with pytest.raises(ValidationError, match="integer order"):
        parse_model("pspin:x", 4)
    with pytest.raises(ValidationError, match="cannot read"):
        parse_model("grem:missing.txt", None, base=tmp_path)


def test_check_detects_odd_p_violation(tmp_path):
    out = tmp_path / "check.csv"
    status = main(["check", "--model", "pspin:3", "--n", "3", "--out", str(out)])
    assert status == 1  # violation found and reported
    header, rows = read_rows(out)
    assert header == ["n", "partition_mask", "n1", "max_gap",
                      "witness_sigma", "witness_tau", "verdict"]
    assert all(r["verdict"] == "VIOLATED" for r in rows)
    worst = rows[0]
    assert float(worst["max_gap"]) == pytest.approx(8 / 27, abs=1e-12)
    assert worst["witness_sigma"] == "+++"
    assert worst["witness_tau"] == "+--"


def test_check_even_p_passes(tmp_path):
    out = tmp_path / "check.csv"
    assert main(["check", "--model", "sk", "--n", "5", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 4
    assert all(float(r["max_gap"]) <= 1e-12 for r in rows)


def test_alpha_beta_zero(tmp_path):
    out = tmp_path / "alpha.csv"
    status = main(["alpha", "--model", "rem", "--n", "6", "--beta", "0",
                   "--samples", "10", "--out", str(out)])
    assert status == 0
    _, rows = read_rows(out)
    assert float(rows[0]["value"]) == math.log(2)
    assert float(rows[0]["std_error"]) == 0.0
    assert rows[0]["verdict"] == "BOUNDED"


def test_alpha_json_format(tmp_path):
    out = tmp_path / "alpha.json"
    status = main(["alpha", "--model", "sk", "--n", "3", "--beta", "0.5,1",
                   "--samples", "50", "--seed", "7", "--format", "json",
                   "--out", str(out)])
    assert status == 0
    doc = json.loads(out.read_text())
    assert doc["tool"] == "gaussem"
    assert doc["config"]["model"] == "sk"
    assert doc["config"]["seed"] == 7
    assert len(doc["rows"]) == 2


def test_superadd_runs(tmp_path):
    out = tmp_path / "super.csv"
    status = main(["superadd", "--model", "sk", "--n", "4", "--n1", "2",
                   "--beta", "0,1", "--samples", "400", "--seed", "3",
                   "--out", str(out)])
    assert status == 0
    _, rows = read_rows(out)
    assert [r["verdict"] for r in rows] == ["SATISFIED", "SATISFIED"]
    assert float(rows[0]["margin"]) == 0.0


def test_interp_rerun_is_byte_identical(tmp_path):
    tree = tmp_path / "tree4.txt"
    tree.write_text("2 4\n2 2\n0.6 0.4\n")
    cases = {
        "sk": ["--model", "sk", "--n", "4", "--n1", "2"],
        "pspin3": ["--model", "pspin:3", "--n", "5", "--n1", "2"],
        "grem": ["--model", f"grem:{tree}", "--mask", "5"],
    }
    for name, model in cases.items():
        args = ["interp", *model, "--beta", "1", "--tgrid", "0.1:0.9:5",
                "--samples", "200", "--seed", "42"]
        outs = [tmp_path / f"{name}{i}.csv" for i in range(3)]
        statuses = [main(args + ["--threads", threads, "--out", str(out)])
                    for threads, out in zip(("1", "1", "4"), outs)]
        assert statuses == [statuses[0]] * 3 and statuses[0] in (0, 1), name
        assert outs[0].read_bytes() == outs[1].read_bytes(), name
        # thread count never leaks into output
        assert outs[0].read_bytes() == outs[2].read_bytes(), name
        _, rows = read_rows(outs[0])
        assert len(rows) == 5
        if name == "sk":
            assert statuses[0] == 0


def test_interp_runs_past_the_audit_cap(tmp_path):
    # the derivative reads the 46 pair characters of SK(12), not a 4**12 gap matrix
    out = tmp_path / "interp12.csv"
    assert main(["interp", "--model", "sk", "--n", "12", "--n1", "6", "--beta", "1",
                 "--samples", "4", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 9


def test_import_leaves_scipy_unloaded():
    # only factorization needs scipy.linalg; it is imported where it is used
    code = "import sys, gaussem.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_psd_command(tmp_path):
    out = tmp_path / "psd.csv"
    assert main(["psd", "--model", "rem", "--n", "3", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert rows[0]["psd"] == "True"
    assert float(rows[0]["min_eigenvalue_estimate"]) == pytest.approx(1.0)


def test_grem_verify(tree_file, tmp_path):
    out = tmp_path / "verify.csv"
    status = main(["grem-verify", "--tree", str(tree_file), "--out", str(out)])
    assert status == 0
    _, rows = read_rows(out)
    checks = {r["check"]: r["status"] for r in rows}
    assert checks["validate_tree"] == "OK"
    assert checks["psd"] == "OK"
    assert checks["lift_c1"] == "OK"
    assert checks["lift_c2"] == "OK"
    assert checks["condition_audit"] in ("HOLDS", "HOLDS_WITH_EQUALITY")


def test_sample_dump_deterministic(tmp_path):
    args = ["sample-dump", "--model", "rem", "--n", "3", "--samples", "5",
            "--seed", "11"]
    out1 = tmp_path / "d1.txt"
    out2 = tmp_path / "d2.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = [[float(tok) for tok in ln.split()] for ln in out1.read_text().splitlines()]
    assert len(rows) == 5
    assert all(len(r) == 8 for r in rows)


@pytest.mark.parametrize("command", [
    ["alpha", "--model", "sk", "--n", "8", "--beta", "0.5,2"],
    ["superadd", "--model", "sk", "--n", "8", "--n1", "4", "--beta", "1"],
])
def test_estimates_same_bytes_at_any_threads_and_block_size(tmp_path, monkeypatch, command):
    # 257 draws of SK(8) straddle the default block of 256 rows
    args = command + ["--samples", "257", "--seed", "5"]
    outputs = []
    for block in (thermo.BLOCK_ENERGIES, 1 << 10):
        monkeypatch.setattr(thermo, "BLOCK_ENERGIES", block)
        for threads in ("1", "2"):
            out = tmp_path / f"{block}.{threads}.csv"
            assert main(args + ["--threads", threads, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
    assert all(o == outputs[0] for o in outputs[1:])


def test_sample_dump_equals_per_draw_streams(tmp_path):
    out = tmp_path / "d.txt"
    assert main(["sample-dump", "--model", "sk", "--n", "4", "--samples", "6",
                 "--seed", "9", "--out", str(out)]) == 0
    model, seeds = SKModel(4), SeedPolicy(9)
    sampler = make_sampler(model)
    expected = io.StringIO()
    write_draws(expected, [sampler.sample(seeds.stream("dump", i)) for i in range(6)])
    assert out.read_text() == expected.getvalue()


def test_alpha_does_not_build_a_generator_per_draw(tmp_path, monkeypatch):
    def refuse(self, experiment, draw):
        raise AssertionError("estimators re-key one generator per block")

    monkeypatch.setattr(SeedPolicy, "stream", refuse)
    out = tmp_path / "a.csv"
    assert main(["alpha", "--model", "sk", "--n", "6", "--beta", "1",
                 "--samples", "20", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 1


def test_sample_dump_builds_one_sampler(tmp_path, monkeypatch):
    built = []
    original = cli.make_sampler

    def counting(model):
        built.append(model)
        return original(model)

    monkeypatch.setattr(cli, "make_sampler", counting)
    out = tmp_path / "d.txt"
    assert main(["sample-dump", "--model", "mixed:2=0.5,4=0.5", "--n", "4",
                 "--samples", "5", "--out", str(out)]) == 0
    assert len(built) == 1
    assert len(out.read_text().splitlines()) == 5


def test_alpha_samples_pspin_over_the_coupling_budget(tmp_path, capsys):
    # 6**10 couplings exceed the character-map budget: the model falls back
    # to factorizing its 64 x 64 covariance, with no option to ask for it
    args = ["alpha", "--model", "pspin:10", "--n", "6", "--beta", "1", "--samples", "20"]
    assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
    assert main(args + ["--method", "cholesky"]) == 2
    capsys.readouterr()


def test_interp_pspin_over_the_coupling_budget(tmp_path):
    # 6**10 couplings: the draws factorize the covariance, and the derivative
    # reads the 32 characters of the gap, whatever the number of couplings
    out = tmp_path / "interp.csv"
    assert main(["interp", "--model", "pspin:10", "--n", "6", "--n1", "3", "--beta", "1",
                 "--samples", "20", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 9


def test_sampler_refusal_names_both_caps(capsys):
    # SK(20): the character map is over the coupling budget and the dense
    # covariance over the matrix cap; the message names both refusals
    assert main(["alpha", "--model", "sk", "--n", "20", "--beta", "1"]) == 2
    err = capsys.readouterr().err
    assert "exceeds the budget of 50000000 elements" in err
    assert "exceeds the matrix cap 12" in err


def test_subcommand_options():
    common = {"--seed", "--threads", "--out", "--format"}
    model = common | {"--model", "--n"}
    split = {"--n1", "--mask", "--beta", "--samples"}
    expected = {
        "check": model | {"--mode", "--tolerance"},
        "psd": model | {"--tol"},
        "alpha": model | {"--beta", "--samples"},
        "superadd": model | split,
        "interp": model | split | {"--tgrid"},
        "grem-verify": common | {"--tree", "--split", "--mode"},
        "sample-dump": model | {"--samples"},
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    found = {
        name: {opt for action in sp._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert found == expected


def test_custom_model_via_file(tmp_path):
    path = tmp_path / "cov.txt"
    path.write_text("4\n" + "\n".join(" ".join(str(float(x)) for x in row)
                                      for row in np.eye(4)) + "\n")
    out = tmp_path / "psd.csv"
    assert main(["psd", "--model", f"custom:{path}", "--out", str(out)]) == 0
    # audits need the sub-matrices, which the file format cannot carry
    assert main(["check", "--model", f"custom:{path}", "--out", str(out)]) == 2


def test_usage_errors_return_two(tmp_path, capsys):
    assert main(["check", "--model", "sk", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["alpha", "--model", "sk", "--n", "3", "--beta", "oops"]) == 2
    assert main(["nope"]) == 2
    assert main(["interp", "--model", "sk", "--n", "4", "--beta", "1",
                 "--tgrid", "bad"]) == 2
    capsys.readouterr()


def test_threads_must_be_positive(capsys):
    assert main(["alpha", "--model", "sk", "--n", "3", "--beta", "1", "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("args, message", [
    (["check", "--model", "pspin:3", "--n", "4", "--tolerance", "nan"], "tolerance"),
    (["check", "--model", "pspin:3", "--n", "4", "--tolerance", "inf"], "tolerance"),
    (["check", "--model", "pspin:3", "--n", "4", "--tolerance", "-1"], "tolerance"),
    (["psd", "--model", "sk", "--n", "4", "--tol", "nan"], "tol"),
    (["psd", "--model", "sk", "--n", "4", "--tol", "-1"], "tol"),
    (["alpha", "--model", "sk", "--n", "4", "--beta", ""], "--beta"),
    (["superadd", "--model", "sk", "--n", "4", "--n1", "2", "--beta", ","], "--beta"),
    (["alpha", "--model", "sk", "--n", "4", "--beta", "inf"], "--beta"),
    (["alpha", "--model", "sk", "--n", "4", "--beta", "nan"], "--beta"),
    (["interp", "--model", "sk", "--n", "4", "--n1", "2", "--beta", "1", "--samples", "0"],
     "at least 2 samples"),
    (["interp", "--model", "sk", "--n", "4", "--n1", "2", "--beta", "1", "--samples", "1"],
     "at least 2 samples"),
    (["sample-dump", "--model", "sk", "--n", "4", "--samples", "-3"], "--samples"),
])
@pytest.mark.filterwarnings("error")
def test_bad_numeric_inputs_exit_two_with_one_error(args, message, capsys):
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("command", ["superadd", "interp"])
@pytest.mark.parametrize("split", [
    ["--n1", "0"], ["--n1", "4"], ["--n1", "-1"],
    ["--mask", "0"], ["--mask", "15"], ["--mask", "16"],
    ["--n1", "2", "--mask", "1"],
])
def test_bad_partitions_exit_two_with_one_error(command, split, capsys):
    assert main([command, "--model", "sk", "--n", "4", *split, "--beta", "1",
                 "--samples", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and errors[0].startswith("gaussem: error:")


@pytest.mark.parametrize("args, status, message", [
    (["--n", "21"], 2, "enumeration cap"),
    (["--n", "11", "--mode", "all"], 2, "--mode all"),
    (["--n", "20"], 0, None),
])
def test_check_caps(args, status, message, tmp_path, capsys):
    out = tmp_path / "check.csv"
    assert main(["check", "--model", "sk", *args, "--out", str(out)]) == status
    err = capsys.readouterr().err
    if message is None:
        _, rows = read_rows(out)
        assert len(rows) == 19
    else:
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("args", [
    ["check", "--model", "grem:nan_tree.txt"],
    ["grem-verify", "--tree", "nan_tree.txt"],
    ["interp", "--model", "grem:nan_tree.txt", "--n1", "1", "--beta", "1"],
    ["alpha", "--model", "grem:nan_tree.txt", "--beta", "1"],
    ["psd", "--model", "custom:nan_matrix.txt"],
    ["grem-verify", "--tree", "tree.txt", "--split", "a,b,c"],
    ["grem-verify", "--tree", "tree.txt", "--split", "1,,1"],
])
def test_invalid_files_and_splits_exit_two_with_one_error(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan_tree.txt").write_text("2 2\n1 1\nnan 1.0\n")
    (tmp_path / "nan_matrix.txt").write_text(
        "4\n1 nan 0 0\nnan 1 0 0\n0 0 1 0\n0 0 0 1\n")
    (tmp_path / "tree.txt").write_text(TREE_TEXT)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and errors[0].startswith("gaussem: error:")
