"""Golden outputs: each pinned case must stay byte-identical.

The pins are in ``tests/golden/``, written by ``tests/pin_golden.py``:
sha256 digests of the sweep CSVs, the closest-point layer's outputs and the
A2/D4 two-user codec reports, and the full stdout of ``region``,
``simulate`` and ``lattice`` CLI cases. numpy or BLAS builds can move
low-order bits, so a failure names the case and both numpy versions.
"""

import json

import numpy as np
import pytest

from pin_golden import (
    CASES,
    CLI_CASES,
    CLI_PINS,
    CLOSEST_POINT_CASES,
    CLOSEST_POINT_PINS,
    CODEC_CASES,
    CODEC_PINS,
    PINS,
    cli_stdout,
    closest_point_digest,
    codec_digest,
    sweep_digest,
)

_PINNED = json.loads(PINS.read_text())
_CLOSEST_POINT = json.loads(CLOSEST_POINT_PINS.read_text())
_CODECS = json.loads(CODEC_PINS.read_text())
_CLI = json.loads(CLI_PINS.read_text())


def _mismatch(kind, name, got, pinned):
    return (f"{kind} case {name!r} gave sha256 {got}, pinned {pinned['sha256'].get(name)}; "
            f"numpy {np.__version__} here, pins taken with numpy {pinned['numpy']}")


def test_pins_cover_every_case():
    assert sorted(_PINNED["sha256"]) == sorted(CASES)
    assert sorted(_CLOSEST_POINT["sha256"]) == sorted(CLOSEST_POINT_CASES)
    assert sorted(_CODECS["sha256"]) == sorted(CODEC_CASES)
    assert sorted(_CLI["stdout"]) == sorted(CLI_CASES)


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


@pytest.mark.parametrize("name", CLOSEST_POINT_CASES)
def test_closest_point_matches_pin(name):
    got = closest_point_digest(name)
    assert got == _CLOSEST_POINT["sha256"].get(name), _mismatch(
        "closest-point", name, got, _CLOSEST_POINT)


# Chunks run in the calling thread, so one run per case covers every thread
# count; the test keeps its name so that the case ids stay stable.
@pytest.mark.parametrize("name", CODEC_CASES)
def test_codec_report_matches_pin_at_one_and_two_threads(name):
    got = codec_digest(name)
    assert got == _CODECS["sha256"].get(name), _mismatch("codec", name, got, _CODECS)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_pin(capsys, name):
    got = cli_stdout(name)
    assert capsys.readouterr() == ("", "")
    want = _CLI["stdout"].get(name)
    assert got == want, (
        f"CLI case {name!r} (latfun {' '.join(CLI_CASES[name])}) printed\n{got}pinned\n"
        f"{want}numpy {np.__version__} here, pins taken with numpy {_CLI['numpy']}"
    )
