"""Golden bytes for product towers: every check, componentwise.

The reports in data/product_golden.json were recorded before ProductTower
shared TowerHandle's code; a refactor must reproduce them byte for byte.
Three sets of library entries were re-recorded since:

- sharp_reduction, when that check moved from seeded samples to a
  decision on the monomial basis: its samples count went, and
  per-component details with basis_dim arrived.
- sharp_reduction, tilt_quotient_iso, pillar_valuation and
  torsion_bijection in both cases, when every product check moved to the
  one product rule, verdict.per_component: each component's details now
  sit under "component_i" (pillar_valuation's "(1 | 1)" unit and
  torsion_bijection's shared level table split per component), and
  vars_x_pure's sharp_reduction counts its window_restricted_monomials.
  No verdict word changed, and the axioms and CLI entries kept their
  bytes.
- tilt_quotient_iso in both cases, when its ring-map half moved from
  seeded pairs to a decision on generators times basis: its samples
  count went, and each component's details gained ring_map_checks.

Print a fresh copy with

    PYTHONPATH=src python tests/test_product_golden.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tiltlab.cli import run
from tiltlab.monoidal import (
    check_pillar_valuation,
    check_sharp_reduction,
    check_tilt_quotient_iso,
    sharp,
    torsion_bijection,
)
from tiltlab.tilts import p_flat, small_tilt, tilt_tower
from tiltlab.towers import TowerSpec, build_tower, check_axioms

GOLDEN = Path(__file__).with_name("data") / "product_golden.json"

PURE = TowerSpec(prime=5, n_digits=3, depth=3)
VARS = TowerSpec(prime=5, n_digits=3, depth=3, num_vars=1, var_degree_cap=Fraction(1))


def _product(*components):
    return TowerSpec(prime=5, n_digits=3, depth=3, kind="product", components=components)


CASES = {
    "pure_x_pure": _product(PURE, PURE),
    "vars_x_pure": _product(VARS, PURE),
}

CLI_CASES = {
    "axioms": ["axioms", "--samples", "5", "--seed", "2"],
    "tilt": ["tilt", "--layer", "1", "--tilt-depth", "2"],
    "sharp": ["sharp", "--depth", "3", "--layer", "0", "--element", "1 + pflat"],
}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def library_reports(spec) -> dict:
    h = build_tower(spec)
    return {
        "axioms": check_axioms(h, samples=5, seed=3).to_json_dict(),
        "small_tilt": small_tilt(h, 0, 2).to_json_dict(),
        "sharp_pflat": sharp(h, p_flat(h, 0, 2)).to_json_dict(),
        "sharp_reduction": check_sharp_reduction(h, 0).to_json_dict(),
        "tilt_quotient_iso": check_tilt_quotient_iso(h, 1, 1).to_json_dict(),
        "pillar_valuation": check_pillar_valuation(h, 0).to_json_dict(),
        "torsion_bijection": torsion_bijection(h).to_json_dict(),
        "tilt_tower_axioms": check_axioms(tilt_tower(h, 1), samples=5, seed=4).to_json_dict(),
    }


def cli_report(argv, spec_path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([*argv, "--spec", str(spec_path)])
    return f"{code} {out.getvalue()}"


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_product_library_reports_golden_bytes(case):
    want = _golden()["library"][case]
    got = library_reports(CASES[case])
    for key in want:
        assert canonical(got[key]) == canonical(want[key]), key
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("command", sorted(CLI_CASES))
def test_product_spec_file_golden_bytes(command, tmp_path):
    path = tmp_path / "product.json"
    path.write_text(json.dumps(CASES["vars_x_pure"].to_json_dict()))
    assert cli_report(CLI_CASES[command], path) == _golden()["cli"][command]


def _record(tmp_dir: Path) -> dict:
    path = tmp_dir / "product.json"
    path.write_text(json.dumps(CASES["vars_x_pure"].to_json_dict()))
    return {
        "library": {case: library_reports(spec) for case, spec in CASES.items()},
        "cli": {cmd: cli_report(argv, path) for cmd, argv in CLI_CASES.items()},
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = _record(Path(tmp))
    sys.stdout.write(json.dumps(record, sort_keys=True, indent=1) + "\n")
