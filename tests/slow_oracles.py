"""Oracle checks too slow for the Tier-1 suite (about 20 s together); run them with

    PYTHONPATH=src python -m pytest -q tests/slow_oracles.py

The file name does not match ``test_*.py``, so the default collection leaves
it out; naming the file collects it.
"""

from __future__ import annotations

import pytest

from christoffel import mp_family, pj_family
from polyhelpers import (
    NODE_SETS,
    assert_grid_decompositions_are_the_mpf_loops,
    assert_grid_q_is_the_mpf_route,
    assert_transforms_are_the_mpc_loops,
)

_CONFIGS = [
    ("0.5", "0.9", 256, 13),
    ("0.5", "0.9", 512, 9),
    ("20", "0.1", 256, 9),
    ("0.5", "0.9", 113, 12),
]
_IDS = ["grid-n13", "512-bits-n9", "lambda20-phi0.1-n9", "113-bits"]


@pytest.mark.parametrize("lam, phi, bits, n_max, cells", [(*c, n) for c, n in zip(_CONFIGS, (660, 248, 248, 534))], ids=_IDS)
def test_larger_grid_decompositions_are_the_mpf_loops_bit_for_bit(lam, phi, bits, n_max, cells):
    assert assert_grid_decompositions_are_the_mpf_loops(lam, phi, bits, n_max) == cells


@pytest.mark.parametrize("lam, phi, bits, n_max", _CONFIGS, ids=_IDS)
def test_larger_grid_q_and_verdicts_are_the_mpf_route_bit_for_bit(lam, phi, bits, n_max):
    # every cell with deg G = m - 1 is checked; the law gives that for each k <= m
    assert assert_grid_q_is_the_mpf_route(lam, phi, bits, n_max) == sum(m + 1 for n in range(4, n_max + 1) for m in range(2, n + 1))


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
@pytest.mark.parametrize(
    "family",
    [
        lambda policy: mp_family("0.5", "0.9", policy),
        lambda policy: mp_family("3.25", "2.4", policy),
        lambda policy: pj_family("-12", "8", policy),
    ],
    ids=["MP(0.5,0.9)", "MP(3.25,2.4)", "PJ(-12,8)"],
)
def test_determinant_transforms_are_the_mpc_loops_bit_for_bit(family, bits):
    # k = 1..3 and every node set at degrees 0..5: 576 transforms over the twelve cases
    assert assert_transforms_are_the_mpc_loops(family, bits, range(6), list(NODE_SETS)) == {"ok": 48}
