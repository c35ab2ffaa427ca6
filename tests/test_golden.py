"""Golden outputs: each pinned sweep CSV must stay byte-identical.

The pins are sha256 digests in ``tests/golden/sweep.json``, written by
``tests/pin_golden.py``. numpy or BLAS builds can move low-order bits, so a
failure names the case and both numpy versions.
"""

import json

import numpy as np
import pytest

from pin_golden import CASES, PINS, sweep_digest

_PINNED = json.loads(PINS.read_text())


def test_pins_cover_every_case():
    assert sorted(_PINNED["sha256"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_matches_pin(tmp_path, capsys, name):
    got = sweep_digest(CASES[name], tmp_path)
    assert capsys.readouterr().out == ""
    want = _PINNED["sha256"].get(name)
    assert got == want, (
        f"sweep case {name!r} (latfun sweep {' '.join(CASES[name])}) wrote sha256 "
        f"{got}, pinned {want}; numpy {np.__version__} here, pins taken with numpy "
        f"{_PINNED['numpy']}"
    )
