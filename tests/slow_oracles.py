"""Oracle checks too slow for the Tier-1 suite (about 5 s together); run them with

    PYTHONPATH=src python -m pytest -q tests/slow_oracles.py

The file name does not match ``test_*.py``, so the default collection leaves
it out; naming the file collects it.
"""

from __future__ import annotations

import pytest

from polyhelpers import assert_grid_decompositions_are_the_mpf_loops


@pytest.mark.parametrize(
    "lam, phi, bits, n_max, cells",
    [
        ("0.5", "0.9", 256, 13, 660),
        ("0.5", "0.9", 512, 9, 248),
        ("20", "0.1", 256, 9, 248),
        ("0.5", "0.9", 113, 12, 534),
    ],
    ids=["grid-n13", "512-bits-n9", "lambda20-phi0.1-n9", "113-bits"],
)
def test_larger_grid_decompositions_are_the_mpf_loops_bit_for_bit(lam, phi, bits, n_max, cells):
    assert assert_grid_decompositions_are_the_mpf_loops(lam, phi, bits, n_max) == cells
