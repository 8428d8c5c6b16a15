"""The names ``run_facts.py`` counts must exist and count work: its CI step gates nothing, so a rename would
show there only as a traceback under a green check."""

from __future__ import annotations

import sys

import pytest

from christoffel import RecurrenceFamily

from run_facts import BAREISS, COUNTS, FRESH, MULADDS, counting, import_cost, quiet, resolve


def _held() -> list:
    """The names of every christoffel module, and of RecurrenceFamily."""
    return [dict(vars(m)) for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "christoffel"] + [dict(vars(RecurrenceFamily))]


def test_every_count_reads_its_work():
    # --verify reaches every count but _q_at and _root_counts, for doubles decide all its interlacing and it has no
    # grid cells; this grid leaves one zero to _q_at and counts G's roots in its 8 cells of m = 2, k = 3, the only
    # cells that do not hold
    held = _held()
    with counting(COUNTS) as seen:
        assert quiet(["--verify"]) == 0
        assert quiet(["--grid", "--n", "11"]) == 0
    assert all(seen[name] > 0 for name in COUNTS), seen
    assert seen["zeros._q_at"] == 1 and seen["core._root_counts"] == 8
    assert _held() == held


def test_verify_transform_work_is_pinned():
    # --verify's 28 transforms run top down per modifier, so each degree below the top takes its minor 0 from the
    # trunk of the one above: 1121 entry updates and 803 magnitudes; 158 node-row values
    with counting({**FRESH, **BAREISS}) as seen:
        assert quiet(["--verify"]) == 0
    assert [seen[name] for name in ("core._cupdate", "core._cabs", "core._chorner")] == [1121, 803, 158]


def test_grid_multiply_adds_are_pinned():
    # the default grid's real multiply-adds; products skip a zero multiplier, such as each odd coefficient of c_{2k}:
    # c g takes 2805 and the modifiers' own products 1680, and the identity defects' 74923 are the largest share
    with counting(MULADDS) as seen:
        assert quiet(["--grid"]) == 0
    assert seen["core._accumulate"] == 134282


@pytest.mark.parametrize("name", COUNTS)
def test_a_missing_counted_name_raises(name, monkeypatch):
    monkeypatch.delattr(*resolve(name))
    held = _held()
    with pytest.raises(KeyError, match=name.rsplit(".", 1)[1]), counting(COUNTS):
        pass
    # the names wrapped before it are put back
    assert _held() == held


def test_import_cost_reads_every_module():
    own, total = import_cost()
    assert sorted(own) == sorted(key for key in sys.modules if key.split(".")[0] == "christoffel")
    assert all(us > 0 for us in own.values()) and sum(own.values()) < total


def test_the_library_import_skips_the_connection_layer():
    own, total = import_cost("christoffel")
    assert sorted(own) == ["christoffel", "christoffel.associated", "christoffel.core", "christoffel.families", "christoffel.zeros"]
    assert sum(own.values()) < total
