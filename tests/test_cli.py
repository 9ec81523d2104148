import json
import os
import subprocess
import sys

import pytest

import fraisse
from fraisse.classes import builtin
from fraisse.cli import main
from fraisse.config import identity_interpretation, parse_formula, product_configuration
from fraisse.config import InterpretationMap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# -- exit code 0 paths ------------------------------------------------------------------


def test_enumerate(capsys):
    code, data = run_json(capsys, "enumerate", "--class", "G", "--n", "3")
    assert code == 0
    assert data["count"] == 4
    assert len(data["structures"]) == 4


def test_check_class_all_verified(capsys):
    code, data = run_json(capsys, "check-class", "--class", "G", "--bound", "3")
    assert code == 0
    assert set(data["reports"]) == {
        "hereditary", "joint-embedding", "amalgamation", "strong-amalgamation"
    }
    assert all(r["status"] == "verified" for r in data["reports"].values())


def test_types(capsys):
    code, data = run_json(capsys, "types", "--class", "LO^3")
    assert code == 0
    assert data["count"] == 8


def test_generic_model_closed(capsys):
    code, data = run_json(
        capsys, "generic-model", "--class", "G", "--level", "2", "--size-cap", "64"
    )
    assert code == 0
    assert data["closed"] is True
    assert data["model"]["size"] == 22


def test_ramsey_box_bound(capsys):
    code, data = run_json(capsys, "ramsey-box", "--k", "2", "--colors", "2", "--m", "2")
    assert code == 0
    assert data["bound"] == 9
    assert data["directions"] == 5


def test_ramsey_box_demo_with_seed(capsys):
    code, data = run_json(
        capsys, "ramsey-box", "--k", "1", "--colors", "2", "--m", "2", "--seed", "0"
    )
    assert code == 0
    assert data["witness"] is not None


def test_dagger(capsys):
    code, data = run_json(capsys, "dagger")
    assert code == 0
    assert data["pair_types"] == 12
    assert data["base_bound"] == 13


def test_rank_table(capsys):
    code, data = run_json(capsys, "rank", "--class", "LO", "--n", "2")
    assert code == 0
    exacts = [(r["n"], r["exact"]) for r in data["results"]]
    assert exacts == [(1, 0), (2, 3)]


# -- exit code 1 (refuted) ------------------------------------------------------------


def test_self_sim_refuted(capsys):
    code, data = run_json(capsys, "self-sim", "--class", "E", "--bound", "3")
    assert code == 1
    assert data["report"]["status"] == "refuted"


def test_self_sim_verified(capsys):
    code, data = run_json(capsys, "self-sim", "--class", "LO", "--bound", "3")
    assert code == 0


# -- exit code 2 (inconclusive / cap) ---------------------------------------------------


def test_generic_model_cap_hit(capsys):
    code, data = run_json(
        capsys, "generic-model", "--class", "LO*G", "--level", "1", "--size-cap", "32"
    )
    assert code == 2
    assert data["closed"] is False


def test_generic_model_without_room_is_inconclusive(capsys):
    code, data = run_json(
        capsys, "generic-model", "--class", "G", "--level", "2", "--size-cap", "0"
    )
    assert code == 2
    assert data["closed"] is False
    assert data["model"]["certified_level"] == -1


def test_ramsey_box_directed_overflow_is_cap_hit(capsys):
    code, out, err = run(
        capsys, "ramsey-box", "--k", "2", "--colors", "2", "--m", "2",
        "--kind", "directed",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("cap hit:") and err.count("\n") == 1


# -- a reader that closes the pipe early ------------------------------------------------


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["enumerate", "--class", "G", "--n", "4"], 0),
        (["self-sim", "--class", "E", "--bound", "2"], 1),
        (["--version"], 0),
    ],
)
def test_closed_pipe_keeps_exit_code_without_traceback(argv, expected):
    # the read end is closed before the child starts, so every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(fraisse.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "fraisse.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.stderr == b""
    assert child.returncode == expected


# -- exit code 3 (usage) ----------------------------------------------------------------


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 3


def test_missing_required_argument(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "3")
    assert code == 3
    assert "error" in err


def test_bad_class_expression(capsys):
    code, _, err = run(capsys, "enumerate", "--class", "NOPE", "--n", "2")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--class", "G", "--n", "-1"),
        ("generic-model", "--class", "G", "--level", "-3"),
        ("rank", "--class", "G", "--n", "1", "--level", "-1"),
        ("generic-model", "--class", "G", "--level", "2", "--size-cap", "-1"),
        ("rank", "--class", "G", "--n", "0"),
        ("rank", "--class", "G", "--n", "-1"),
        ("self-sim", "--class", "G", "--budget", "-5"),
        ("enumerate", "--class", "G", "--n", "2", "--budget", "-1"),
        ("check-class", "--class", "G", "--bound", "2", "--budget", "-1"),
    ],
    ids=[
        "enumerate-size",
        "generic-model-level",
        "rank-default-target-level",
        "generic-model-size-cap",
        "rank-n-zero",
        "rank-n-negative",
        "self-sim-budget",
        "enumerate-budget",
        "check-class-budget",
    ],
)
def test_negative_size_or_level_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_config_file(capsys, tmp_path):
    model_path = tmp_path / "m.json"
    model_path.write_text("{}")
    code, _, err = run(
        capsys, "verify-config", "--config", str(tmp_path / "absent.json"),
        "--target", str(model_path),
    )
    assert code == 3


# -- verify-config via files --------------------------------------------------------------


def write_config_files(tmp_path, graph_model, interp):
    config_path = tmp_path / "interp.json"
    target_path = tmp_path / "target.json"
    config_path.write_text(json.dumps(interp.to_json()))
    target_path.write_text(graph_model.dumps())
    return str(config_path), str(target_path)


@pytest.fixture()
def config_files(tmp_path, graph_model):
    return write_config_files(tmp_path, graph_model, identity_interpretation(builtin("G")))


def test_verify_config_verified(capsys, config_files):
    config_path, target_path = config_files
    code, data = run_json(
        capsys, "verify-config", "--config", config_path,
        "--target", target_path, "--bound", "3",
    )
    assert code == 0
    assert data["verdict"] == "verified"
    assert data["recheck"] == "verified"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_verify_config_jobs_below_one_is_usage_error(capsys, config_files, jobs):
    config_path, target_path = config_files
    code, out, err = run(
        capsys, "verify-config", "--config", config_path, "--target", target_path,
        "--jobs", jobs,
    )
    assert code == 3
    assert out == ""
    assert err == f"error: jobs {jobs} < 1\n"


def test_verify_config_deterministic_and_jobs_equivalent(capsys, tmp_path, graph_model):
    ident = identity_interpretation(builtin("G"))
    for interp in (ident, product_configuration(ident, ident)):
        config_path, target_path = write_config_files(tmp_path, graph_model, interp)
        argv = ("verify-config", "--config", config_path, "--target", target_path, "--bound", "3")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2  # byte-identical reruns
        _, out4, _ = run(capsys, *argv, "--jobs", "4")
        assert json.loads(out4) == json.loads(out1)


def test_verify_config_refuted(capsys, tmp_path, graph_model):
    # reading the equivalence relation as inequality misses reflexive members
    interp = InterpretationMap(
        index_spec=builtin("E"),
        target_signature=graph_model.structure.signature,
        tuple_length=1,
        parameters=(),
        formulas=(("E", parse_formula("!(0.0 = 1.0)")),),
    )
    config_path = tmp_path / "bad.json"
    target_path = tmp_path / "target.json"
    config_path.write_text(json.dumps(interp.to_json()))
    target_path.write_text(graph_model.dumps())
    code, data = run_json(
        capsys, "verify-config", "--config", str(config_path),
        "--target", str(target_path), "--bound", "3",
    )
    assert code == 1
    assert data["verdict"] == "refuted"


@pytest.mark.parametrize(
    "key", ["spec", "size", "signature", "relations", "certified_level"]
)
def test_verify_config_model_without_key_is_usage_error(
    capsys, tmp_path, config_files, key
):
    config_path, target_path = config_files
    with open(target_path, encoding="utf-8") as handle:
        data = json.load(handle)
    del data[key]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "verify-config", "--config", config_path, "--target", str(broken)
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and repr(key) in err


@pytest.mark.parametrize("key", ["index", "formulas", "target_signature", "tuple_length"])
def test_verify_config_interpretation_without_key_is_usage_error(
    capsys, tmp_path, config_files, key
):
    config_path, target_path = config_files
    with open(config_path, encoding="utf-8") as handle:
        data = json.load(handle)
    del data[key]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "verify-config", "--config", str(broken), "--target", target_path
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and repr(key) in err


@pytest.mark.parametrize(
    "formula,message",
    [("E(0.0)", "has 1 arguments, E has arity 2"), ("F(0.0, 1.0)", "no relation named 'F'")],
    ids=["wrong-arity", "unknown-relation"],
)
def test_verify_config_atom_outside_target_signature_is_usage_error(
    capsys, tmp_path, config_files, formula, message
):
    # such an atom used to read as false, and the map was reported refuted
    config_path, target_path = config_files
    with open(config_path, encoding="utf-8") as handle:
        data = json.load(handle)
    data["formulas"] = {"E": formula}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "verify-config", "--config", str(broken), "--target", target_path
    )
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and message in err


# -- output shape ------------------------------------------------------------------------


def test_pretty_flag_changes_bytes_not_content(capsys):
    _, plain, _ = run(capsys, "types", "--class", "G")
    _, pretty, _ = run(capsys, "types", "--class", "G", "--pretty")
    assert plain != pretty
    assert json.loads(plain) == json.loads(pretty)


def test_timing_flag_adds_field(capsys):
    _, plain = run_json(capsys, "types", "--class", "G")
    _, timed = run_json(capsys, "types", "--class", "G", "--timing")
    assert "elapsed_seconds" not in plain
    assert "elapsed_seconds" in timed


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
