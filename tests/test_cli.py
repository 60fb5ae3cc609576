"""The chernlab command line surface and its exit codes."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from chernlab.cli import main


def run_cli(args):
    return main(args)


def test_fixture_and_validate(tmp_path):
    fx = tmp_path / "module.json"
    assert run_cli(["fixture", "discrete_circle", "--seed", "0",
                    "--params", '{"n": 3}', "-o", str(fx)]) == 0
    assert run_cli(["validate", str(fx)]) == 0


def test_validate_catches_broken_instance(tmp_path):
    fx = tmp_path / "module.json"
    run_cli(["fixture", "discrete_circle", "--seed", "0", "--params", '{"n": 3}', "-o", str(fx)])
    data = json.loads(fx.read_text())
    data["Q"]["data"][1] = [999.0, 0.0]  # breaks hermiticity and the commutator rule
    fx.write_text(json.dumps(data))
    assert run_cli(["validate", str(fx)]) == 1


def test_validate_algebra_instance(tmp_path):
    from chernlab.fixtures import discrete_circle_algebra
    from chernlab.serialize import dump_json

    path = tmp_path / "alg.json"
    dump_json(discrete_circle_algebra(3).to_json_dict(), path)
    assert run_cli(["validate", str(path)]) == 0


NOT_AN_INTEGER = "bad input: 'float' object cannot be interpreted as an integer"


@pytest.mark.parametrize("key, value, message", [
    (None, None, None),
    ("sigma_index", 18, "bad input: sigma_index must name a basis element of degree -1"),
    ("sigma_index", 0, "bad input: sigma_index must name a basis element of degree -1"),
    ("sigma_index", 9.5, NOT_AN_INTEGER),
    ("base_dim", 6, "bad input: base_dim must be half the dimension of the extension"),
    ("unit_index", 0.7, NOT_AN_INTEGER),
    ("dim", 18.5, NOT_AN_INTEGER),
    ("degrees", lambda degrees: [0.5] + degrees[1:], NOT_AN_INTEGER),
    ("mul", lambda mul: [[1.5] + mul[0][1:]] + mul[1:], NOT_AN_INTEGER),
    ("mul", lambda mul: [[-1] + mul[0][1:]] + mul[1:], "bad input: triplet index -1 out of range"),
], ids=["valid", "sigma-out-of-range", "sigma-of-degree-0", "sigma-not-an-integer", "base-dim-not-half",
        "unit-index-not-an-integer", "dim-not-an-integer", "degree-not-an-integer", "mul-index-not-an-integer",
        "mul-index-negative"])
def test_validate_an_acyclic_extension(tmp_path, capsys, key, value, message):
    from chernlab.algebra import acyclic_extension
    from chernlab.fixtures import discrete_circle_algebra

    data = acyclic_extension(discrete_circle_algebra(3)).to_json_dict()
    if key is not None:
        data[key] = value(data[key]) if callable(value) else value
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(data))
    code = run_cli(["validate", str(path)])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and err.count("\n") == 1 and err.startswith(message)


def test_unknown_fixture_exit_code(tmp_path):
    assert run_cli(["fixture", "bogus"]) == 2


@pytest.mark.parametrize("params, message", [
    ({"q": -1}, "q must be a nonnegative integer, got -1"),
    ({"q": 1.5}, "q must be a nonnegative integer, got 1.5"),
    ({"q": True}, "q must be a nonnegative integer, got True"),
    ({"hdim": 0, "q": 0}, "hdim must be a positive multiple of 2^ceil(q/2) = 1, got 0"),
    ({"hdim": 6, "q": 3}, "hdim must be a positive multiple of 2^ceil(q/2) = 4, got 6"),
], ids=["negative-q", "float-q", "bool-q", "empty-space", "hdim-not-a-spinor-multiple"])
def test_bad_clifford_fixture_exits_2_with_one_line(capsys, params, message):
    code = run_cli(["fixture", "random_weak_cq", "--params", json.dumps(params)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"fixture error: {message}\n"


def test_q3_fixture_is_built_and_validates(tmp_path):
    fx = tmp_path / "q3.json"
    assert run_cli(["fixture", "random_weak_cq", "--params", '{"q": 3, "hdim": 8}', "-o", str(fx)]) == 0
    assert json.loads(fx.read_text())["clifford"]["q"] == 3
    assert run_cli(["validate", str(fx)]) == 0


def test_suite_subset_and_explain(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["suite", "--group", "brackets", "--seed", "1", "--fast", "-o", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert list(report["results"]) == ["brackets"]
    capsys.readouterr()
    assert run_cli(["explain", str(out), "block-exponential-vs-oracle"]) == 0
    shown = capsys.readouterr().out
    assert "residual" in shown and "formula" in shown
    assert run_cli(["explain", str(out), "no-such-check"]) == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_suite_reports_reproducible(tmp_path, monkeypatch, workers):
    # the --stable report is byte-identical on one worker and on several; the
    # groups run on no more threads than the usable CPUs
    import chernlab.suite as suite

    threads = set()
    for name in ("brackets", "algebra"):
        def traced(cfg, inner=suite.GROUP_RUNNERS[name]):
            threads.add(threading.get_ident())
            return inner(cfg)
        monkeypatch.setitem(suite.GROUP_RUNNERS, name, traced)
    reports = []
    for n_cpus in (1, workers):
        monkeypatch.setattr(suite, "_usable_cpus", lambda n_cpus=n_cpus: n_cpus)
        threads.clear()
        path = tmp_path / f"{len(reports)}.json"
        assert run_cli(["suite", "--group", "brackets", "--group", "algebra", "--seed", "3",
                        "--fast", "--stable", "-o", str(path)]) == 0
        assert len(threads) <= n_cpus
        reports.append(path.read_text())
    assert reports[0] == reports[1]
    assert sorted(json.loads(reports[0])["config"]) == ["fast", "groups", "seed"]


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groups": ["nonsense"]}))
    assert run_cli(["suite", "-c", str(cfg)]) == 2


@pytest.mark.parametrize("config, message", [
    ({"fast": "no", "groups": ["brackets"]}, "fast must be true or false, not 'no'"),
    ({"seed": "7", "groups": ["algebra"]}, "seed must be an integer, not '7'"),
    ({"seed": True, "groups": ["algebra"]}, "seed must be an integer, not True"),
    ({"groups": "pairing"}, "groups must be a list of group names, not 'pairing'"),
    # a repeated group would run twice and leave one result under its name
    ({"groups": ["brackets", "brackets"]}, "repeated groups: ['brackets']"),
], ids=["string-fast", "string-seed", "bool-seed", "string-groups", "repeated-group"])
def test_mistyped_config_exits_2(tmp_path, capsys, config, message):
    # the config is type-checked before any group runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["suite", "-c", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {message}\n"
    assert captured.out == ""


def _pair_inputs(tmp_path, module_seed=0):
    from chernlab.fixtures import discrete_circle, circle_loop_element
    from chernlab.serialize import complex_pair, dump_json, module_to_json

    M = discrete_circle(6, seed=module_seed)
    mod_path = tmp_path / "module.json"
    dump_json(module_to_json(M), mod_path)
    g = circle_loop_element(M.alg, eps=0.10, seed=7)
    g_path = tmp_path / "g.json"
    entries = [[[complex_pair(z) for z in g.entries[p, q]] for q in range(1)] for p in range(1)]
    g_path.write_text(json.dumps({"m": 1, "entries": entries}))
    return ["-m", str(mod_path), "-g", str(g_path)]


def test_pair_command(tmp_path):
    out = tmp_path / "pairing.json"
    assert run_cli(["pair", *_pair_inputs(tmp_path), "--nmax", "8", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] is True
    assert len(report["terms"]) == 8


def test_pair_reports_are_stable_without_the_volatile_section(tmp_path):
    texts = []
    for k in range(2):
        out = tmp_path / f"pairing{k}.json"
        assert run_cli(["pair", *_pair_inputs(tmp_path), "--nmax", "8", "-o", str(out)]) == 0
        texts.append(out.read_text())
    reports = [json.loads(t) for t in texts]
    assert sorted(reports[0]["volatile"]["timings"]) == ["setup", "sf", "terms"]
    assert "timings" not in reports[0]
    for rep in reports:
        del rep["volatile"]
    assert json.dumps(reports[0]) == json.dumps(reports[1])


def test_pair_report_matches_the_library_on_the_fixture(tmp_path):
    # the module and g read back from JSON compute the same bits as the
    # fixture objects they were written from
    from chernlab.fixtures import circle_loop_element, discrete_circle
    from chernlab.spectral import pairing

    out = tmp_path / "pairing.json"
    assert run_cli(["pair", *_pair_inputs(tmp_path), "--nmax", "8", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    M = discrete_circle(6, seed=0)
    expected = json.loads(json.dumps(pairing(M, circle_loop_element(M.alg, eps=0.10, seed=7), 8).as_dict()))
    del report["volatile"], expected["volatile"]
    assert report == expected


def test_pair_refusal_exits_2(tmp_path, capsys):
    # the tail of this module does not certify at N_max = 2: the input is
    # refused, which is not a verification failure
    code = run_cli(["pair", *_pair_inputs(tmp_path, module_seed=3), "--nmax", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "certified tail" in err and "need N_max about" in err


def _nan_q(module):
    module["Q"]["data"][1] = [float("nan"), 0.0]


def _no_q(module):
    del module["Q"]


def _flat_q(module):
    module["Q"]["shape"] = [1, len(module["Q"]["data"])]


def _string_weak(module):
    module["weak"] = "false"  # truthy: a strong module would read as weak


def _numeric_name(module):
    module["name"] = 5


def _as_cq_module(module):
    from chernlab.fixtures import random_weak_cq
    from chernlab.serialize import module_to_json

    module.clear()
    module.update(json.loads(json.dumps(module_to_json(random_weak_cq(6, q=1, seed=0)))))


def _fractional_q(module):
    _as_cq_module(module)
    module["clifford"]["q"] = 1.5


def _infinite_parity(module):
    _as_cq_module(module)
    module["clifford"]["parity"][0] = float("inf")


def _huge_parity(module):
    _as_cq_module(module)
    module["clifford"]["parity"][0] = 10 ** 30


def _nan_g(g):
    g["entries"][0][0][2] = [float("nan"), 0.0]


def _large_g(g):
    from chernlab.fixtures import circle_function, discrete_circle_algebra
    from chernlab.serialize import complex_pair

    # slots this large overflow the float power of the pairing's tail bound
    g["entries"][0][0] = [complex_pair(z) for z in circle_function(discrete_circle_algebra(6), [1, 30] * 3)]


def _short_g(g):
    g["entries"][0][0].pop()


def _singular_g(g):
    from chernlab.fixtures import circle_function, discrete_circle_algebra
    from chernlab.serialize import complex_pair

    vals = np.ones(6)
    vals[2] = 0.0  # g vanishes at one point of Z_6
    g["entries"][0][0] = [complex_pair(z) for z in circle_function(discrete_circle_algebra(6), vals)]


@pytest.mark.parametrize("command, spoil, nmax, message", [
    ("pair", _nan_q, "8", "pairing refused: module fails Q-hermitian"),
    ("pair", _nan_g, "8", "pairing refused: g has a non-finite entry"),
    ("pair", _short_g, "8", "pairing refused: entry length does not match the algebra dimension"),
    ("pair", _singular_g, "8", "pairing refused: matrix has no two-sided inverse"),
    ("pair", _large_g, "2", "pairing refused: certified tail inf above 1.0e-06; the term bound is not finite, "
     "so no N_max certifies it"),
    ("pair", None, "-3", "pairing refused: N_max must be >= 1"),
    ("pair", _no_q, "8", "bad input: missing key 'Q'"),
    ("pair", _flat_q, "8", "bad input: Q has wrong shape"),
    ("validate", _no_q, None, "bad input: missing key 'Q'"),
    ("validate", _flat_q, None, "bad input: Q has wrong shape"),
    ("pair", _string_weak, "8", "bad input: weak must be a JSON boolean and name a string, got 'false' and"),
    ("validate", _string_weak, None, "bad input: weak must be a JSON boolean and name a string, got 'false' and"),
    ("validate", _numeric_name, None, "bad input: weak must be a JSON boolean and name a string, got False and 5"),
    ("validate", _fractional_q, None, "bad input: 'float' object cannot be interpreted as an integer"),
    ("validate", _infinite_parity, None, "bad input: 'float' object cannot be interpreted as an integer"),
    ("validate", _huge_parity, None, "bad input: Python int too large to convert to C long"),
], ids=["nan-Q", "nan-g", "short-g-entry", "singular-g", "overflowing-tail", "negative-nmax", "pair-no-Q",
        "pair-Q-shape", "validate-no-Q", "validate-Q-shape", "pair-weak-string", "validate-weak-string",
        "validate-name-number", "validate-fractional-q", "validate-infinite-parity", "validate-huge-parity"])
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, command, spoil, nmax, message):
    # a malformed or invalid input is refused in one stderr line, not with a traceback
    args = _pair_inputs(tmp_path)
    if spoil is not None:
        path = tmp_path / ("g.json" if spoil.__name__.endswith("_g") else "module.json")
        data = json.loads(path.read_text())
        spoil(data)
        path.write_text(json.dumps(data))
    argv = ["pair", *args, "--nmax", nmax] if command == "pair" else ["validate", str(tmp_path / "module.json")]
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith(message)
    assert "Traceback" not in err


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "chernlab.cli", "validate", "/nonexistent.json"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_failing_report_exits_1(tmp_path, monkeypatch, capsys):
    import chernlab.suite as suite
    from chernlab.report import ValidationReport

    def failing(cfg):
        rep = ValidationReport("forced")
        rep.add("always-fails", 1.0, 0.5, "1 <= 0.5")
        return [rep]

    monkeypatch.setitem(suite.GROUP_RUNNERS, "brackets", failing)
    out = tmp_path / "r.json"
    code = run_cli(["suite", "--group", "brackets", "--seed", "2", "--fast", "-o", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert "FAIL forced :: always-fails" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["tol_scale", "pairing_eps", "pairing_N_max", "chg_N_max", "jobs", "n"])
def test_tol_scale_is_an_unknown_config_key(tmp_path, capsys, key):
    # a tolerance scale would loosen every pinned tolerance, and the pairing
    # fixture and degrees, the circle size and the worker count are pinned in
    # the suite; no such knobs exist
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"groups": ["brackets"], "seed": 2, "fast": True, key: 2}))
    assert run_cli(["suite", "-c", str(cfg)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_validate_nan_module_fails(tmp_path):
    fx = tmp_path / "module.json"
    run_cli(["fixture", "discrete_circle", "--seed", "0", "--params", '{"n": 3}', "-o", str(fx)])
    data = json.loads(fx.read_text())
    data["c"][1]["data"][0] = [float("nan"), 0.0]
    fx.write_text(json.dumps(data))
    assert run_cli(["validate", str(fx)]) == 1


def test_validate_algebra_above_the_exhaustive_size(tmp_path):
    from chernlab.algebra import acyclic_extension
    from chernlab.fixtures import discrete_circle_algebra
    from chernlab.serialize import dump_json

    path = tmp_path / "alg.json"
    dump_json(acyclic_extension(discrete_circle_algebra(9)).to_json_dict(), path)
    assert run_cli(["validate", str(path)]) == 0


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_import_defaults_to_one_blas_thread(given, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", "import chernlab, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == expected
