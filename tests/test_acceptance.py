"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
per check.

The checks live in ``pdmdirac.verify``, so ``pdmdirac verify`` runs the same
ones; every tolerance is fixed there, nothing is calibrated at runtime, and
each check must pass at tolerance scale 1.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-check report.
"""

import pytest

from pdmdirac import verify


@pytest.fixture(scope="module")
def results():
    return verify.run_suites(sorted(verify.SUITES))[0]


def assert_passing(results, selected):
    rows = [row for row in results if selected(row[1].name)]
    assert rows, "no check selected"
    for row in rows:
        print(verify.result_line(*row))
    failed = [check.name for _, check, ok in rows if not ok]
    assert not failed, f"failed: {failed}"


def criterion(num: int):
    return lambda name: name.startswith(f"criterion {num}:")


def test_criterion_01_rm2_oracle_agreement(results):
    assert_passing(results, criterion(1))


def test_criterion_02_gpt_oracle_agreement(results):
    assert_passing(results, criterion(2))


def test_criterion_03_shape_invariance_residual(results):
    assert_passing(results, criterion(3))


def test_criterion_04_similarity_identity(results):
    assert_passing(results, criterion(4))


def test_criterion_05_imaginary_cancellation(results):
    assert_passing(results, criterion(5))


def test_criterion_06_formula_cross_equivalences(results):
    assert_passing(results, criterion(6))


def test_criterion_07_half_line_reality_window(results):
    assert_passing(results, criterion(7))


def test_criterion_08_whole_line_imaginary_window(results):
    assert_passing(results, criterion(8))


def test_criterion_09_wavefunction_quality(results):
    assert_passing(results, criterion(9))


def test_criterion_10_partner_degeneracy(results):
    assert_passing(results, criterion(10))


def test_criterion_11_jacobi_oracle(results):
    assert_passing(results, criterion(11))


def test_criterion_12_ladder_construction(results):
    assert_passing(results, criterion(12))


def test_checks_beyond_the_criteria(results):
    assert_passing(results, lambda name: not name.startswith("criterion "))
