"""CLI behavior: exit codes, determinism, spec files, report shapes."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tiltlab
from tiltlab.cli import run


def invoke(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_sharp_pflat_prints_p():
    code, out, _ = invoke(
        ["sharp", "--prime", "5", "--prec", "6", "--depth", "4",
         "--layer", "0", "--element", "pflat"]
    )
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == 1
    assert body["report"]["value"] == "5"
    assert body["report"]["effective_precision"] == "6"


def test_sharp_arbitrary_expression():
    code, out, _ = invoke(
        ["sharp", "--prime", "5", "--prec", "6", "--depth", "4",
         "--layer", "0", "--element", "1 + pflat + T^2"]
    )
    assert code == 0
    body = json.loads(out)
    assert body["report"]["element"].startswith("1 +")


def test_axioms_exit_zero_and_shape():
    code, out, _ = invoke(
        ["axioms", "--prime", "5", "--prec", "6", "--depth", "3",
         "--samples", "50", "--seed", "7"]
    )
    assert code == 0
    body = json.loads(out)
    assert body["ok"] is True
    assert set(body["report"]["axioms"]) == set("abcdefg")


def test_axioms_reads_spec_file(tmp_path):
    spec = {
        "prime": 5, "n_digits": 6, "depth": 3, "kind": "kummer", "m": 2,
        "ideal_exp": "3/25", "start_level": 2, "num_vars": 0,
        "var_degree_cap": "0",
    }
    path = tmp_path / "kummer.json"
    path.write_text(json.dumps(spec))
    code, out, _ = invoke(
        ["axioms", "--spec", str(path), "--samples", "20", "--seed", "1"]
    )
    assert code == 0
    assert json.loads(out)["report"]["all_pass"] is True


def test_out_file_and_markdown(tmp_path):
    target = tmp_path / "report.md"
    code, out, _ = invoke(
        ["--format", "md", "--out", str(target),
         "tilt", "--prime", "5", "--prec", "6", "--depth", "3",
         "--layer", "0", "--tilt-depth", "3"]
    )
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("# tiltlab tilt")
    assert "quotient_exponent: 125" in text


def test_ramify_values():
    code, out, _ = invoke(
        ["ramify", "--p", "5", "--m", "2", "--levels", "5",
         "--prec", "6", "--depth", "3", "--samples", "50", "--seed", "7"]
    )
    assert code == 0
    body = json.loads(out)
    rep = body["report"]
    assert rep["epsilon"] == "3/25"
    assert rep["start_level"] == 2
    assert rep["delta_table"]["rows"][0]["delta"] == "2/5"
    assert rep["axioms"]["all_pass"] is True
    assert rep["smalltilt_normality"]["all_ok"] is True


def test_ramify_builds_the_delta_table_once(monkeypatch):
    import tiltlab.ramified as ramified

    real, calls = ramified.delta_table, []

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr("tiltlab.ramified.delta_table", counted)
    monkeypatch.setattr("tiltlab.cli.delta_table", counted)
    code, _, _ = invoke(
        ["ramify", "--p", "5", "--m", "2", "--levels", "5",
         "--prec", "6", "--depth", "2", "--samples", "10", "--seed", "0"]
    )
    assert code == 0 and len(calls) == 1


def test_closure_command():
    code, out, _ = invoke(
        ["closure", "--prime", "2", "--prec", "2", "--depth", "3",
         "--mode", "exact", "--samples", "50", "--seed", "3"]
    )
    assert code == 0
    assert json.loads(out)["report"]["all_ok"] is True


def test_closure_exact_is_exact_at_size():
    # layers far past the enumeration cap still get exact root-closure rows
    code, out, _ = invoke(
        ["closure", "--prime", "5", "--prec", "6", "--depth", "3", "--mode", "exact"]
    )
    assert code == 0
    report = json.loads(out)["report"]
    rows = report["root_closed"] + report["tilt_root_closed"]
    assert len(rows) == 7
    assert all(row["verdict"] == "PASS_EXACT" for row in rows)


def test_internal_fault_exits_three(monkeypatch):
    from tiltlab.towers import MethodDisagreement

    def disagree(seed):
        raise MethodDisagreement("fast path disagrees with oracle")

    monkeypatch.setattr("tiltlab.cli.run_battery", disagree)
    code, out, err = invoke(["suite", "--seed", "7"])
    assert code == 3 and out == ""
    assert err == "tiltlab: internal fault: fast path disagrees with oracle\n"


def test_usage_errors_exit_two(tmp_path):
    code, _, err = invoke(["axioms"])  # no spec, no prime
    assert code == 2 and "spec" in err
    code, _, _ = invoke(["axioms", "--prime", "6", "--prec", "2", "--depth", "2"])
    assert code == 2
    code, _, _ = invoke(["nonsense"])
    assert code == 2
    code, _, _ = invoke(
        ["sharp", "--prime", "5", "--prec", "6", "--depth", "3",
         "--layer", "0", "--element", "not (an) element"]
    )
    assert code == 2
    # malformed spec files and fractions: one line on stderr, no traceback
    no_prime = tmp_path / "no_prime.json"
    no_prime.write_text(json.dumps({"n_digits": 2, "depth": 2}))
    a_list = tmp_path / "list.json"
    a_list.write_text("[1, 2]")
    float_m = tmp_path / "float_m.json"
    float_m.write_text(json.dumps({"prime": 5, "n_digits": 4, "depth": 2,
                                   "kind": "kummer", "m": 2.0, "ideal_exp": "1/2"}))
    float_depth = tmp_path / "float_depth.json"
    float_depth.write_text(json.dumps({"prime": 5, "n_digits": 4, "depth": 2.7}))
    inline = ["axioms", "--prime", "5", "--prec", "2", "--depth", "2"]
    ramify = ["ramify", "--p", "5", "--m", "2", "--levels", "3", "--prec", "3",
              "--depth", "2", "--samples", "5"]
    for argv in (
        ["axioms", "--spec", str(no_prime)],
        ["axioms", "--spec", str(a_list)],
        ["axioms", "--spec", str(float_m)],
        ["axioms", "--spec", str(float_depth)],
        [*inline, "--var-cap", "1/0"],
        [*inline, "--kind", "kummer", "--m", "2", "--ideal-exp", "1/0"],
        [*ramify, "--pillar-override", "1/0"],
    ):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("tiltlab: ") and err.count("\n") == 1, err
    # a sampled verdict on zero samples would pass on no evidence
    closure = ["closure", "--prime", "2", "--prec", "2", "--depth", "2"]
    for argv in (
        [*closure, "--samples", "-5"],
        [*closure, "--ccap", "0"],
        [*closure, "--ncap", "0"],
        [*inline, "--samples", "-3"],
        [*ramify, "--samples", "0"],
        [*ramify, "--samples", "x"],
    ):
        code, out, err = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert "must be an integer >= 1" in err


def test_failing_check_exits_one_with_report():
    # the negative-control replay flag forces a wrong pillar, so the
    # axiom suite fails but the report is still emitted
    code, out, _ = invoke(
        ["ramify", "--p", "5", "--m", "2", "--levels", "5",
         "--prec", "6", "--depth", "2", "--samples", "10", "--seed", "0",
         "--pillar-override", "1/2"]
    )
    assert code == 1
    body = json.loads(out)
    assert body["ok"] is False
    assert body["report"]["axioms"]["axioms"]["f"]["verdict"] == "FAIL"
    assert "witness" in body["report"]["axioms"]["axioms"]["f"]


def test_suite_determinism_bytes():
    code1, out1, _ = invoke(["suite", "--seed", "7"])
    code2, out2, _ = invoke(["suite", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert hashlib.sha256(out1.encode()).hexdigest() == _workloads().SUITE_SHA256
    body = json.loads(out1)
    assert body["ok"] is True


def _workloads():
    # the benchmark's pinned suite digest, read from its own file
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module", ["tiltlab", "tiltlab.cli"])
def test_python_dash_m_matches_run(module):
    argv = ["sharp", "--prime", "5", "--prec", "6", "--depth", "4",
            "--layer", "0", "--element", "pflat"]
    code, out, _ = invoke(argv)
    env = dict(os.environ)
    src = str(Path(tiltlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()


def _write_spec(tmp_path, depth, components=0):
    spec = {"prime": 5, "n_digits": 3, "depth": depth}
    if components:
        spec = {**spec, "kind": "product", "components": [spec] * components}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _spec_params(out):
    return json.loads(out)["params"]["spec"]


def test_spec_file_keeps_its_own_depth(tmp_path):
    # --depth has no default when --spec is given: depth 2 stays 2
    path = _write_spec(tmp_path, depth=2)
    code, out, _ = invoke(["axioms", "--spec", path, "--samples", "2"])
    assert code == 0
    assert _spec_params(out)["depth"] == 2


@pytest.mark.parametrize("command", [
    ["axioms", "--samples", "2"],
    ["tilt", "--layer", "0", "--tilt-depth", "1"],
    ["sharp", "--element", "pflat"],
], ids=["axioms", "tilt", "sharp"])
def test_product_spec_file_at_its_own_depth(tmp_path, command):
    path = _write_spec(tmp_path, depth=2, components=2)
    code, out, err = invoke([*command, "--spec", path])
    assert code == 0, err
    spec = _spec_params(out)
    assert [spec["depth"]] + [c["depth"] for c in spec["components"]] == [2, 2, 2]


def test_spec_overrides_reach_every_component(tmp_path):
    path = _write_spec(tmp_path, depth=2, components=2)
    code, out, err = invoke(
        ["axioms", "--spec", path, "--depth", "3", "--prec", "4", "--samples", "2"]
    )
    assert code == 0, err
    spec = _spec_params(out)
    for node in [spec, *spec["components"]]:
        assert (node["depth"], node["n_digits"]) == (3, 4)


def test_sharp_tilt_depth_defaults_from_the_spec_depth(tmp_path):
    path = _write_spec(tmp_path, depth=3)
    code, out, _ = invoke(["sharp", "--spec", path, "--layer", "1", "--element", "pflat"])
    assert code == 0
    body = json.loads(out)
    assert body["params"]["depth"] == body["report"]["depth"] == 2


def test_closure_refuses_product_spec(tmp_path):
    path = _write_spec(tmp_path, depth=3, components=2)
    code, out, err = invoke(["closure", "--spec", path, "--samples", "2"])
    assert code == 2 and out == ""
    assert "product" in err


def test_var_cap_needs_a_p_power_denominator():
    base = ["axioms", "--prime", "5", "--prec", "3", "--depth", "2", "--vars", "1",
            "--samples", "2"]
    code, out, err = invoke([*base, "--var-cap", "1/3"])
    assert code == 2 and out == ""
    assert "1/3" in err
    code, _, _ = invoke([*base, "--var-cap", "6/5"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    "ramify --p 5 --m 2 --prec 0",
    "axioms --prime 5 --vars -1",
    "axioms --prime 5 --vars 1 --var-cap -1",
    "axioms --prime 5 --depth 1",
    "ramify --p 5 --m 2 --levels 1",
    "sharp --prime 5 --element t^{1/0}",
    "sharp --prime 5 --element pflat --tilt-depth 0",
    "tilt --prime 5 --layer 0 --tilt-depth 9",
    "ramify --p 4 --m 2",
    "axioms --prime 5 --start -1",
    "axioms --prime 5 --prec 1 --depth 2 --samples 5",
    "closure --prime 5 --prec 1 --depth 2",
    "ramify --p 5 --m 2 --prec 1",
    "ramify --p 5 --m 2 --levels 5 --prec 6 --depth 2 --samples 10 --pillar-override -1",
    "ramify --p 5 --m 2 --levels 5 --prec 6 --depth 2 --samples 10 --pillar-override 0",
    "axioms --spec PRODUCT_WITH_VARS",
])
def test_named_input_errors_exit_two(argv, tmp_path):
    # PRODUCT_WITH_VARS: a product spec file giving num_vars to the product
    # itself rather than to its components
    spec = {"prime": 5, "n_digits": 3, "depth": 2}
    path = tmp_path / "product.json"
    path.write_text(json.dumps({**spec, "kind": "product", "num_vars": 2,
                                "components": [spec, spec]}))
    code, out, err = invoke(argv.replace("PRODUCT_WITH_VARS", str(path)).split())
    assert (code, out) == (2, "")
    assert err.startswith("tiltlab: ") and err.count("\n") == 1, err
    assert "internal fault" not in err and "invalid ring shape" not in err


@pytest.mark.parametrize("argv", [
    "axioms --prime 5 --prec 1 --depth 2 --samples 5",
    "closure --prime 5 --prec 1 --depth 2",
    "ramify --p 5 --m 2 --prec 1",
])
def test_a_precision_at_which_the_ideal_vanishes_is_named(argv):
    # f0 = p is 0 mod p: the refusal names the precision, not a pair or a
    # generator the run met later
    code, out, err = invoke(argv.split())
    assert (code, out) == (2, "")
    assert "n_digits = 1" in err, err


def test_ramify_names_the_levels_flag():
    # --levels is the cover's depth, --depth the assembled tower's; the
    # spec's own "depth must be >= 1" would not say which one
    code, out, err = invoke("ramify --p 5 --m 2 --levels 0".split())
    assert (code, out, err) == (2, "", "tiltlab: --levels must be >= 1, got 0\n")


def test_unparseable_spec_files_exit_two(tmp_path):
    spec = b'{"prime": 5, "n_digits": 3, "depth": 2, '
    cases = {
        "fraction.json": spec + b'"var_degree_cap": "abc"}',
        "ideal.json": spec + b'"ideal_exp": "x"}',
        "truncated.json": spec,
        "latin1.json": b'\xff\xfe',
    }
    for name, data in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = invoke(["axioms", "--spec", str(path)])
        assert (code, out) == (2, ""), name
        assert err.startswith("tiltlab: ") and err.count("\n") == 1, err
        assert "internal fault" not in err


def test_an_unwritable_out_file_exits_two(tmp_path):
    argv = ["--out", str(tmp_path / "missing" / "report.json"),
            "tilt", "--prime", "5", "--layer", "0", "--tilt-depth", "1"]
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err.startswith("tiltlab: ") and err.count("\n") == 1, err


def test_an_internal_value_error_exits_three(monkeypatch):
    # axiom (e) reads only NotInvertible from invert; a ValueError from
    # inside the library is a fault, not a usage error
    def broken_invert(self, x):
        raise ValueError("negative powers are not defined here")

    monkeypatch.setattr("tiltlab.core.LayerRing.invert", broken_invert)
    code, out, err = invoke(
        ["axioms", "--prime", "5", "--prec", "2", "--depth", "2", "--samples", "2"]
    )
    assert (code, out) == (3, "")
    assert err == (
        "tiltlab: internal fault: ValueError: negative powers are not defined here\n"
    )


def test_ramify_markdown_puts_the_delta_table_under_the_header():
    argv = ["--format", "md", "ramify", "--p", "5", "--m", "2", "--levels", "5",
            "--prec", "6", "--depth", "2", "--samples", "10", "--seed", "0"]
    code1, out1, _ = invoke(argv)
    code2, out2, _ = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[:3] == ["# tiltlab ramify", "", "* ok: yes"]
    table = lines.index("| n | delta_n | p^n * delta_n | annihilator (lattice units) |")
    params_end = max(i for i, line in enumerate(lines) if line.startswith("* "))
    assert table == params_end + 2 and lines[params_end + 1] == ""
    assert [line[:4] for line in lines[table + 2:table + 7]] == [
        f"| {n} " for n in range(5)
    ]
    assert lines[table + 7] == ""
    assert "delta_table_markdown" not in out1


def test_ramify_rejects_zero_precision():
    code, out, err = invoke(
        ["ramify", "--p", "5", "--m", "2", "--levels", "5", "--prec", "0",
         "--depth", "2", "--samples", "2"]
    )
    assert code == 2 and out == ""
    assert "n_digits" in err


def test_closure_on_a_tower_with_variables():
    code, out, err = invoke(
        ["closure", "--prime", "3", "--prec", "2", "--depth", "2", "--vars", "1",
         "--var-cap", "1"]
    )
    assert code == 0, err
    report = json.loads(out)["report"]
    probes = report["almost_integral_probes"]
    assert [row["level"] for row in probes] == [0, 1, 2]
    assert all(row["verdict"] == "NOT_APPLICABLE" for row in probes)
    assert all(row["verdict"] == "NOT_APPLICABLE" for row in report["root_closed"])
