"""Golden payloads for the CLI: the bytes it prints, minus the timing line.

Regenerate with TORIFIED_REGEN_GOLDEN=1 pytest.
"""

import os
import re

import pytest

from torified.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "torify_gr24": ["torify", "grassmannian", "2", "4"],
    "torify_sl2": ["torify", "sl", "2"],
    "torify_flag12": ["torify", "flag", "1", "2"],
    "count_flag111": ["count", "--family", "flag", "1", "1", "1", "--q", "2,3,5"],
    "zeta_p2": ["zeta", "--family", "projective", "2"],
    "spec_singular": ["spec", "--cone", "1,0;1,2"],
    "gadget_sl2_z2": ["gadget", "--group", "2", "--family", "sl", "2"],
    "gadget_elements_sl2_z2": ["gadget", "--elements", "--group", "2", "--family", "sl", "2"],
    "soule_singular_m2": ["soule", "--m", "2", "--cone", "1,0;1,2", "--elements"],
    "verify_gr24": ["verify", "--family", "grassmannian", "2", "4", "--q", "2,3,5,7"],
}

# the envelope's keys are sorted, so timing_ms sits between result and tool
TIMING_LINE = re.compile(r'^  "timing_ms": [0-9.e+-]+,\n', re.MULTILINE)


def payload_for(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    stripped, n = TIMING_LINE.subn("", out)
    assert n == 1
    return stripped


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    got = payload_for(capsys, CASES[name])
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if os.environ.get("TORIFIED_REGEN_GOLDEN"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(got)
    with open(path) as fh:
        assert got == fh.read()
