"""Byte-for-byte JSON and text output of a few fast CLI calls, one per
output path: an exact and a certified decomposition, the degree-8 and
degree-12 reference pencils of the benchmark corpus, a degree-8 form whose
witness comes from the pinned search (kernel dims 0, 2 and 4), an
analysis, a verification and a fixture.
A change that alters any byte of these must say why and regenerate the
goldens with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from binforms.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; every call exits 0 in both output modes.
CASES = {
    "decompose-exact": ["decompose", "(x+y)^6 + 2*(x-y)^6 - 3*(x+2*y)^6"],
    "decompose-certified": ["decompose", "6*x^5*y + 40*x^3*y^3 + 6*x*y^5"],
    "decompose-pencil-d8": [
        "decompose",
        "7*(x + 3*y)^8 + 8*(x + 4*y)^8 + 4*(x - 8*y)^8 - 5*(x - 1*y)^8 - 2*(x + 6*y)^8",
    ],
    "decompose-pencil-d12": [
        "decompose",
        "-8*(x + 7*y)^12 + 4*(x - 1*y)^12 + 2*(x - 8*y)^12 - 4*(x - 9*y)^12"
        " - 3*(x + 9*y)^12 + 2*(x + 2*y)^12 - 6*(x - 3*y)^12",
    ],
    "decompose-pinned-d8": [
        "decompose",
        "8*x^8 - 6*x^7*y + 5*x^6*y^2 - 5*x^4*y^4 - 7*x^3*y^5 + 8*x^2*y^6 - 8*x*y^7 + 3*y^8",
    ],
    "analyze-sextic-family": ["analyze", "6*x^5*y - 4*x^3*y^3 + 6*x*y^5"],
    "verify-readme": ["verify", str(GOLDEN / "verify-rep.json"), "24*y^4"],
    "fixture-certified-circle": ["fixtures", "--filter", "certified-circle-identity"],
}


# output mode -> golden file suffix
MODES = {"json": "json", "text": "txt"}


def _stdout(argv, mode):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--output", mode])
    return code, buf.getvalue()


# A JSON case's id is its bare name; a text case's id adds "-text".
@pytest.mark.parametrize(
    "name, mode",
    [
        pytest.param(name, mode, id=name if mode == "json" else f"{name}-{mode}")
        for name in sorted(CASES)
        for mode in sorted(MODES)
    ],
)
def test_output_bytes_unchanged(name, mode):
    code, out = _stdout(CASES[name], mode)
    assert code == 0
    assert out == (GOLDEN / f"{name}.{MODES[mode]}").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES.items():
        for mode, suffix in MODES.items():
            code, out = _stdout(argv, mode)
            assert code == 0, name
            (GOLDEN / f"{name}.{suffix}").write_text(out, encoding="utf-8")
