"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion is exact (zero tolerance); the stated wall-clock budgets are
asserted where the criterion pins one.  Run with -s to see the lines as they
pass; the CLI command `monoidkit verify all` prints the same report.
"""

from monoidkit.verify import (
    suite_ann_decision,
    suite_annihilators,
    suite_chain,
    suite_embeddings,
    suite_green,
    suite_kappa,
    suite_meet_left,
    suite_meet_right,
    suite_nc,
    suite_nf_mul,
    suite_presentation,
    suite_star,
)

SEED = 0


def _report(number, result, budget=None):
    print(f"ACCEPTANCE {number:2d} {result.line()}")
    assert result.ok, result.detail
    if budget is not None:
        assert result.seconds < budget, (
            f"criterion {number} took {result.seconds:.2f}s, budget {budget}s"
        )


def test_criterion_01_presentation_soundness():
    _report(1, suite_presentation(), budget=1.0)


def test_criterion_02_nc_conditions():
    _report(2, suite_nc(), budget=1.0)


def test_criterion_03_nf_multiplication_oracle():
    _report(3, suite_nf_mul(seed=SEED), budget=5.0)


def test_criterion_04_right_ideal_meets():
    _report(4, suite_meet_right(), budget=60.0)


def test_criterion_05_left_ideal_meets():
    _report(5, suite_meet_left(), budget=60.0)


def test_criterion_06_power_orbit_congruence():
    _report(6, suite_kappa())


def test_criterion_07_annihilator_corollaries():
    _report(7, suite_annihilators())


def test_criterion_08_green_agreement():
    _report(8, suite_green())


def test_criterion_09_annihilator_decision_and_witness():
    _report(9, suite_ann_decision(seed=SEED))


def test_criterion_10_strict_chain_evidence():
    _report(10, suite_chain(), budget=30.0)


def test_criterion_11_embedding_multiplicativity():
    _report(11, suite_embeddings())


def test_criterion_12_star_laws():
    _report(12, suite_star(seed=SEED))
