"""Command-line surface: outputs, exit codes, determinism."""
import json

import pytest

from famop import cli, omega


@pytest.fixture
def proj2_file(tmp_path):
    path = tmp_path / "proj2.json"
    path.write_text(json.dumps(omega.ds_projections(2).to_json()))
    return str(path)


@pytest.fixture
def edus_file(tmp_path):
    path = tmp_path / "edus.json"
    path.write_text(json.dumps(omega.enumerate_structures(2, "edus")[0].to_json()))
    return str(path)


@pytest.fixture
def magma_file(tmp_path):
    path = tmp_path / "magma.json"
    path.write_text(json.dumps({"size": 2, "table": [[0, 0], [0, 0]]}))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_dims_r_pinned_output(capsys):
    code, out, _ = run(capsys, ["dims", "r", "--n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == "[0,0,0,-3,8]"


def test_dims_r_eval_and_verify(capsys):
    code, out, _ = run(capsys, ["dims", "r", "--n", "5", "--eval", "1", "--verify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value_at"] == {"w": 1, "v": "42"}
    assert payload["identities"]["passed"] is True


def test_dims_count(capsys):
    code, out, _ = run(capsys, ["dims", "count", "--n", "3", "--w", "2"])
    assert code == 0
    assert json.loads(out)["count"] == "104"


def test_present_quotient(capsys):
    code, out, _ = run(capsys, ["present", "quotient", "--preset", "dendriform",
                                "--arity", "3"])
    assert code == 0
    assert json.loads(out)["classes"] == 3


def test_present_mix_census(capsys, proj2_file):
    code, out, _ = run(capsys, ["present", "mix", "--preset", "duplicial",
                                "--omega", proj2_file, "--arity", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["classes"] == 5


def test_present_mix_single_query(capsys, proj2_file):
    code, out, _ = run(capsys, ["present", "mix", "--preset", "duplicial",
                                "--omega", proj2_file, "--arity", "2",
                                "--coloring", "0,1", "--output", "0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["members"] == ["(prec 1 2)"]


def test_present_mix_on_a_magma_file_is_a_usage_error(capsys, magma_file):
    code, out, err = run(capsys, ["present", "mix", "--preset", "duplicial",
                                  "--omega", magma_file, "--arity", "3"])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "'prec'" in err and "left_arrow" in err


def test_operad_check_twist(capsys):
    code, out, _ = run(capsys, ["operad", "check", "--which", "twist",
                                "--max", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["seq_cases"] == 9
    assert payload["par_cases"] == 7


def test_operad_iso(capsys):
    code, out, _ = run(capsys, ["operad", "iso", "--max-arity", "3"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_omega_check_pass_and_fail(capsys, proj2_file, tmp_path):
    code, out, _ = run(capsys, ["omega", "check", "--kind", "diassociative",
                                "--input", proj2_file])
    assert code == 0
    assert json.loads(out)["passed"] is True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"size": 2, "left": [[0, 1], [1, 0]],
                               "right": [[0, 0], [0, 0]]}))
    code, out, _ = run(capsys, ["omega", "check", "--kind", "diassociative",
                                "--input", str(bad)])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False and payload["witnesses"]


@pytest.mark.parametrize("entry", [1.9, "1", True])
def test_omega_check_rejects_non_integer_entries(capsys, tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"size": 2, "left": [[0, entry], [1, 0]],
                               "right": [[0, 0], [0, 0]]}))
    code, out, err = run(capsys, ["omega", "check", "--kind", "diassociative",
                                  "--input", str(bad)])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "not an integer" in err


@pytest.mark.parametrize("data", [
    {"size": 2}, [1, 2],
    {"size": 2, "left": 5, "right": [[0, 0], [0, 0]]},
    {"size": 2, "left": [[0, 0], [0, 0]], "right": [[0, 0], [0, 0]], "ltri": 5,
     "rtri": [[0, 0], [0, 0]]},
    {"size": 2, "table": [1, 2]},
])
@pytest.mark.parametrize("argv", [
    ["omega", "check", "--kind", "duplicial", "--input"],
    ["family", "check", "--mode", "two_param", "--omega"],
    ["trees", "product", "--mode", "prec2", "--param", "0,1",
     "(x . . _ _)", "(y . . _ _)", "--omega"],
    ["present", "mix", "--preset", "duplicial", "--arity", "3", "--omega"],
])
def test_malformed_structure_file_is_a_usage_error(capsys, tmp_path, data, argv):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, argv + [str(bad)])
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


def test_deeply_nested_input_is_a_usage_error(capsys, proj2_file, tmp_path):
    deep_tree = "(x . 0 _ " * 1200 + "(y . . _ _)" + ")" * 1200
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100000 + "]" * 100000)
    for argv in (["trees", "product", "--mode", "prec2", "--omega", proj2_file,
                  "--param", "0,1", deep_tree, "(y . . _ _)"],
                 ["omega", "check", "--kind", "duplicial", "--input", str(deep_json)]):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


def test_omega_check_magma(capsys, magma_file):
    code, out, _ = run(capsys, ["omega", "check", "--kind", "perm",
                                "--input", magma_file])
    assert code == 0


def test_omega_enumerate(capsys):
    code, out, _ = run(capsys, ["omega", "enumerate", "--size", "2",
                                "--kind", "associative"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    assert len(payload["structures"]) == 8


def test_resource_bound_exit_code(capsys):
    code, out, _ = run(capsys, ["omega", "enumerate", "--size", "9",
                                "--kind", "duplicial"])
    assert code == 3
    assert "error" in json.loads(out)


def test_env_override_raises_bound(capsys, monkeypatch):
    monkeypatch.setenv("FAMOP_MAX_SIZE", "2")
    code, _, _ = run(capsys, ["omega", "enumerate", "--size", "3",
                              "--kind", "associative"])
    assert code == 3


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["omega", "check", "--kind", "bogus", "--input", "x.json"])
    assert exc.value.code == 2
    code, _, err = run(capsys, ["omega", "check", "--kind", "duplicial",
                                "--input", "/nonexistent.json"])
    assert code == 2
    assert "error" in err


def test_trees_product_modes(capsys, proj2_file, edus_file):
    code, out, _ = run(capsys, ["trees", "product", "--mode", "prec2",
                                "--omega", proj2_file, "--param", "0,1",
                                "(x . . _ _)", "(y . . _ _)"])
    assert code == 0
    assert json.loads(out)["result"] == "(x . 0:1 _ (y . . _ _))"
    code, out, _ = run(capsys, ["trees", "product", "--mode", "succ1",
                                "--omega", edus_file, "--param", "1",
                                "(x . . _ _)", "(y . . _ _)"])
    assert code == 0
    assert json.loads(out)["result"] == "(y 1 . (x . . _ _) _)"


def test_family_check(capsys, proj2_file, edus_file, tmp_path):
    code, out, _ = run(capsys, ["family", "check", "--mode", "two_param",
                                "--omega", proj2_file, "--max-vertices", "2"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run(capsys, ["family", "check", "--mode", "one_param",
                                "--omega", edus_file, "--max-vertices", "2"])
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"size": 2, "left": [[0, 1], [1, 0]],
                               "right": [[0, 0], [0, 0]]}))
    code, out, _ = run(capsys, ["family", "check", "--mode", "two_param",
                                "--omega", str(bad), "--max-vertices", "2"])
    assert code == 1


def test_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, ["omega", "enumerate", "--size", "2",
                              "--kind", "duplicial"])
    _, out2, _ = run(capsys, ["omega", "enumerate", "--size", "2",
                              "--kind", "duplicial"])
    assert out1 == out2
    _, out1, _ = run(capsys, ["present", "quotient", "--preset", "duplicial",
                              "--arity", "4"])
    _, out2, _ = run(capsys, ["present", "quotient", "--preset", "duplicial",
                              "--arity", "4"])
    assert out1 == out2


def test_stdout_is_json_on_check_paths(capsys, proj2_file):
    for argv in (["omega", "check", "--kind", "duplicial", "--input", proj2_file],
                 ["dims", "r", "--n", "2"],
                 ["operad", "check", "--which", "perm", "--max", "2"]):
        _, out, _ = run(capsys, argv)
        json.loads(out)
