"""Golden reports: the versioned JSON schema must not drift silently."""

import contextlib
import hashlib
import io
import json

import pytest

from tiltlab.cli import run


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


GOLDEN_TILT = (
    '{"command":"tilt","ok":true,"params":{"depth":3,"layer":0,'
    '"spec":{"depth":3,"ideal_exp":"1","kind":"pure","n_digits":6,'
    '"num_vars":0,"prime":5,"start_level":0,"var_degree_cap":"0"}},'
    '"report":{"depth":3,"generator_map":["0","T^{1/5}","T^{1/25}",'
    '"T^{1/125}"],"layer":0,"quotient_exponent":125},"schema":1}\n'
)

GOLDEN_SHARP = (
    '{"command":"sharp","ok":true,"params":{"depth":4,"element":"pflat",'
    '"layer":0,"spec":{"depth":4,"ideal_exp":"1","kind":"pure",'
    '"n_digits":6,"num_vars":0,"prime":5,"start_level":0,'
    '"var_degree_cap":"0"}},"report":{"depth":4,"effective_precision":"6",'
    '"element":"T","layer":0,"value":"5"},"schema":1}\n'
)


RAMIFY = ["ramify", "--p", "5", "--m", "2", "--levels", "5", "--prec", "6",
          "--depth", "2", "--samples", "10", "--seed", "0"]

# Exit code and sha256 of three whole reports, held fixed across changes
# that do not mean to change a report.
PINNED_REPORTS = [
    (["suite", "--seed", "7"], 0,
     "898cb1648d32df72a437326dbaea0abceeb038bda2439b833a836946ee8949f6"),
    (RAMIFY, 0,
     "acb698a930ff7f574492da331e511db39ce6d2057fda6d6d8ba9ea83a530c188"),
    (RAMIFY + ["--pillar-override", "1/2"], 1,
     "ca5937fba462712a0432f8cdbfa8a02b190ef822374874bd385cfb9df647e7ed"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED_REPORTS,
                         ids=["suite", "ramify", "ramify-pillar-override"])
def test_report_bytes_are_pinned(argv, code, digest):
    got, out = capture(argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_tilt_report_golden_bytes():
    code, out = capture(
        ["tilt", "--prime", "5", "--prec", "6", "--depth", "3",
         "--layer", "0", "--tilt-depth", "3"]
    )
    assert code == 0
    assert out == GOLDEN_TILT


def test_sharp_report_golden_bytes():
    code, out = capture(
        ["sharp", "--prime", "5", "--prec", "6", "--depth", "4",
         "--layer", "0", "--element", "pflat"]
    )
    assert code == 0
    assert out == GOLDEN_SHARP


def test_axioms_report_stable_keys():
    code, out = capture(
        ["axioms", "--prime", "5", "--prec", "6", "--depth", "2",
         "--samples", "10", "--seed", "0"]
    )
    assert code == 0
    body = json.loads(out)
    assert body["schema"] == 1
    assert list(body) == sorted(body)  # envelope keys serialize sorted
    assert list(body["report"]["axioms"]) == list("abcdefg")
