"""Oracle checks too slow for the Tier-1 suite (about 30 s together); run them with

    PYTHONPATH=src python -m pytest -q tests/slow_oracles.py

The file name does not match ``test_*.py``, so the default collection leaves
it out; naming the file collects it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from christoffel import TolerancePolicy, cli, mp_family, pj_family
from polyhelpers import (
    NODE_SETS,
    assert_bound_extremes_are_the_full_solve,
    assert_grid_decompositions_are_the_mpf_loops,
    assert_grid_q_is_the_mpf_route,
    assert_transforms_are_the_mpc_loops,
    bound_families,
    certified_and_exact_reports,
    solved_span_label,
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


@pytest.mark.parametrize("bits", [64, 113, 256, 512])
def test_bound_extremes_are_the_full_solve_bit_for_bit(bits):
    # every valid degree up to 30 of the families Tier-1 samples, W+31, and three more up to
    # degree 48: 110 cases per precision.  W+31's cluster takes the full solve, whose default
    # tolerance rejects its top pair, 4.9e-25 apart, below 256 bits.
    pol = TolerancePolicy(precision_bits=bits)
    cases = [
        (label, family, degrees if label == "W+31" else range(2, 6 if label == "PJ(-5.5,0)" else 31))
        for label, family, degrees in bound_families(pol)
    ]
    cases += [
        ("MP(20,0.1)", lambda pol: mp_family(20, "0.1", pol), (2, 5, 12, 25, 30, 48)),
        ("MP(3.25,2.4)", lambda pol: mp_family("3.25", "2.4", pol), (2, 5, 12, 25, 30, 48)),
        ("PJ(-60,8)", lambda pol: pj_family(-60, 8, pol), (2, 5, 12, 25, 30, 48)),
    ]
    outcomes = Counter(
        (label, assert_bound_extremes_are_the_full_solve(family, n, pol)) for label, family, degrees in cases for n in degrees
    )
    extremes = {"MP(0.5,0.9)": 29, "MP(0.5,pi/2)": 29, "PJ(-5.5,0)": 4, "PJ(-35,8)": 29}
    extremes |= {"MP(20,0.1)": 6, "MP(3.25,2.4)": 6, "PJ(-60,8)": 6}
    w31 = ("W+31", "full solve" if bits >= 256 else "raises")
    assert outcomes == Counter({(label, "extremes"): k for label, k in extremes.items()} | {w31: 1})


# the grids that measure wrong degrees at this precision (ROADMAP item 1): each still names its failed cells
_WRONG_DEGREE_GRIDS = [
    ("20", "0.1", 256, 10),
    ("20", "3.0", 256, 10),
    ("50", "0.5", 256, 12),
    ("50", "2.4", 256, 12),
    ("100", "0.5", 256, 12),
    ("100", "1.5", 256, 12),
    ("0.5", "0.9", 113, 12),
]


@pytest.mark.parametrize("lam, phi, bits, n_max", _WRONG_DEGREE_GRIDS, ids=str)
def test_failed_cells_name_the_counts_of_solved_zeros(lam, phi, bits, n_max):
    # the labels come from Sturm counts; solving G's roots by polyroots and g's by the zero solver is the oracle
    pol = TolerancePolicy(precision_bits=bits)
    rows, _ = cli._grid_rows(cli.RunConfig("grid", lam=lam, phi=phi, n=n_max, precision_bits=bits), pol)
    failed = {tuple(r["inputs"].values()): r["computed"]["interlace"] for r in rows if r["computed"]["interlace"].startswith("fails")}
    assert sorted(failed) == [(n, 2, 3) for n in range(4, n_max + 1)]
    fam = mp_family(lam, phi, pol)
    assert failed == {(n, m, k): solved_span_label(fam, n, pol, m, k) for n, m, k in failed}


# the grids where the double certificate's margins are thinnest: 64 and 113 bits, cot(phi) near 0, large lambda
_TIGHT_GRIDS = [
    ("--grid", "--n", "10", "--precision-bits", "64"),
    ("--grid", "--n", "16", "--precision-bits", "113"),
    ("--grid", "--phi", "1.5707963267948966", "--n", "8", "--precision-bits", "64"),
    ("--grid", "--lambda", "100", "--phi", "0.5"),
    ("--grid", "--lambda", "20", "--phi", "0.1", "--n", "10"),
]


@pytest.mark.parametrize("argv", _TIGHT_GRIDS, ids=" ".join)
def test_double_certificate_on_tight_grids_is_the_exact_route(argv):
    # no sign doubles decide differs from the kernel q's, and the report is the all-exact one byte for byte
    certified, exact, left = certified_and_exact_reports(argv)
    assert certified == exact and left > 0
