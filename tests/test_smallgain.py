import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ieskit.cli import EXIT_REFUSED, main
from ieskit.dynsys import (
    CouplingMap,
    Interconnection,
    TimeVaryingField,
    linear_coupling,
    linear_field,
)
from ieskit.fhn import build_fc, fc_candidate, fhn_field, figure_params, sup_constants
from ieskit.finsler import FinslerCandidate
from ieskit.smallgain import (
    CertificationError,
    GainCertificate,
    InfeasibleBudgetError,
    SupConstants,
    certify,
    default_epsilons,
    extract_constants,
    gain_budget,
    parse_certificate_record,
)

def half_norm_candidate():
    """V = dz^2 / 2, with the Assumption-2 bounds gamma = 0 and zeta = 1."""
    return FinslerCandidate(
        1, lambda z: np.full(np.shape(z) + (1,), 0.5),
        lambda z: np.zeros(np.shape(z) + (1, 1)), 0.5, 0.5)


def scalar_linear_interconnection(rho1=0.0, rho2=0.0):
    f1 = linear_field([[-1.0]])
    f2 = linear_field([[-1.0]])
    g1 = linear_coupling([[-1.0]])
    g2 = linear_coupling([[1.0]])
    return Interconnection(f1, f2, g1, g2, rho1, rho2)


def unit_constants(**overrides):
    values = dict(radius=1.0, a1=1.0, a2=1.0, b1=1.0, b2=1.0,
                  eta1=1.0, eta2=1.0, theta1=1.0, theta2=1.0)
    values.update(overrides)
    return SupConstants(**values)


class TestExtractConstants:
    def test_linear_coupling_supremum(self):
        ic = scalar_linear_interconnection()
        half = half_norm_candidate()
        cons = extract_constants(ic, half, half, radius=3.0)
        assert cons.a1 == pytest.approx(3.0 * 1.05)
        assert cons.b1 == pytest.approx(1.05)
        assert cons.a2 == pytest.approx(3.0 * 1.05)
        assert cons.b2 == pytest.approx(1.05)
        assert cons.eta1 == 0.0
        assert cons.theta1 == pytest.approx(1.05)

    def test_fhn_couplings(self, default_table):
        params = default_table.params
        ic = fhn_field(params)
        c1, c2 = fc_candidate(default_table)
        radius = 4.0
        cons = extract_constants(ic, c1, c2, radius)
        assert cons.a1 == pytest.approx(radius * 1.05)
        assert cons.a2 == pytest.approx(radius / params.epsilon * 1.05)
        assert cons.b1 == pytest.approx(1.05)
        assert cons.b2 == pytest.approx(1.05 / params.epsilon)
        # gradient-bound sups against the table constants
        assert cons.eta1 <= default_table.eta * 1.05 + 1e-12
        assert cons.eta1 >= default_table.eta * 1.05 * 0.98
        assert cons.theta1 == pytest.approx(2.0 * default_table.left_plateau * 1.05,
                                            rel=1e-9)
        assert cons.eta2 == 0.0
        assert cons.theta2 == pytest.approx(1.05)

    def test_monotone_in_radius(self, default_table):
        ic = fhn_field(default_table.params)
        c1, c2 = fc_candidate(default_table)
        small = extract_constants(ic, c1, c2, 2.0)
        large = extract_constants(ic, c1, c2, 5.0)
        for name in ("a1", "a2", "b1", "b2", "eta1", "eta2", "theta1", "theta2"):
            assert getattr(large, name) >= getattr(small, name) - 1e-12

    def test_non_finite_rejected(self):
        f1 = linear_field([[-1.0]])
        f2 = linear_field([[-1.0]])

        def reciprocal(y):
            with np.errstate(divide="ignore"):
                return 1.0 / y

        g1 = CouplingMap(1, 1, reciprocal,
                         lambda y: -reciprocal(y)[..., None] ** 2)
        g2 = linear_coupling([[1.0]])
        ic = Interconnection(f1, f2, g1, g2, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            extract_constants(ic, half_norm_candidate(), half_norm_candidate(), radius=1.0)

    # a density of 1 used to divide by zero, and 0 to take the argmax of no points
    @pytest.mark.parametrize("density", [1, 0])
    def test_degenerate_grid_refused(self, density):
        ic = scalar_linear_interconnection()
        with pytest.raises(ValueError, match="grid_density must be at least 2"):
            extract_constants(ic, half_norm_candidate(), half_norm_candidate(), radius=1.0,
                              grid_density=density)


class TestGainBudget:
    def test_hand_checkable_substitution(self):
        cons = unit_constants()
        rho1, rho2 = gain_budget(cons, alpha1=1.0, alpha2=1.0, alpha=0.5,
                                 epsilons=(0.2, 0.2, 0.2, 0.2))
        assert rho1 == pytest.approx(min(0.4 / 3.0, 0.4))
        assert rho2 == pytest.approx(2.0 / 15.0)

    def test_zero_coupling_jacobians_make_second_branch_infinite(self):
        cons = unit_constants(b1=0.0, b2=0.0, eta1=0.0, eta2=0.0)
        rho1, rho2 = gain_budget(cons, 1.0, 1.0, 0.5)
        assert math.isinf(rho1)
        assert math.isinf(rho2)

    def test_a_denominator_past_the_float_range_reads_zero(self):
        # theta1^2 = 1e400 is past the float range: that branch reads 0, as a
        # zero denominator reads inf, and the other budget does not move
        rho1, rho2 = gain_budget(unit_constants(theta1=1e200), 1.0, 1.0, 0.5)
        assert rho1 == 0.0
        assert rho2 == gain_budget(unit_constants(), 1.0, 1.0, 0.5)[1]

    def test_infeasible_alpha(self):
        cons = unit_constants()
        with pytest.raises(InfeasibleBudgetError, match="alpha"):
            gain_budget(cons, alpha1=1.0, alpha2=0.4, alpha=0.4)

    def test_bad_epsilons_rejected(self):
        cons = unit_constants()
        with pytest.raises(InfeasibleBudgetError):
            gain_budget(cons, 1.0, 1.0, 0.5, epsilons=(0.3, 0.3, 0.2, 0.2))
        with pytest.raises(InfeasibleBudgetError):
            gain_budget(cons, 1.0, 1.0, 0.5, epsilons=(0.0, 0.1, 0.1, 0.1))

    def test_shrinking_epsilons_never_enlarges_budgets(self):
        cons = unit_constants()
        full = gain_budget(cons, 1.0, 1.0, 0.5)
        e = tuple(0.5 * v for v in default_epsilons(1.0, 1.0, 0.5))
        half = gain_budget(cons, 1.0, 1.0, 0.5, epsilons=e)
        assert half[0] <= full[0]
        assert half[1] <= full[1]

    def test_fig2_budgets_positive_but_conservative(self):
        # the sampled-constant budget at the second benchmark set is positive
        # yet far below the empirically contracting gain 0.1: the recovery
        # rate b/eps = 0.1 caps e3 + e4, and the weight constants are large
        params = figure_params(2)
        table = build_fc(params)
        ic = fhn_field(params)
        c1, c2 = fc_candidate(table)
        cons = extract_constants(ic, c1, c2, radius=5.1)
        rho1, rho2 = gain_budget(cons, params.alpha, params.b / params.epsilon,
                                 alpha=0.01)
        assert 0.0 < rho1 < 0.1
        assert 0.0 < rho2 < 0.1


@given(
    vals=st.lists(st.floats(0.05, 4.0), min_size=8, max_size=8),
    alpha1=st.floats(0.5, 3.0),
    alpha2=st.floats(0.5, 3.0),
)
@settings(max_examples=100, deadline=None)
def test_budget_satisfies_proof_inequalities(vals, alpha1, alpha2):
    a1, a2, b1, b2, e1, e2, t1, t2 = vals
    cons = SupConstants(radius=1.0, a1=a1, a2=a2, b1=b1, b2=b2,
                        eta1=e1, eta2=e2, theta1=t1, theta2=t2)
    alpha = 0.5 * min(alpha1, alpha2)
    rho1, rho2 = gain_budget(cons, alpha1, alpha2, alpha)
    lhs1 = -alpha1 + rho1 * (a1 * e1 + b1 * t1**2 / 2.0) + rho2 * b2 / 2.0
    lhs2 = -alpha2 + rho2 * (a2 * e2 + b2 * t2**2 / 2.0) + rho1 * b1 / 2.0
    assert lhs1 <= -alpha + 1e-12
    assert lhs2 <= -alpha + 1e-12


class TestCertify:
    def test_decoupled_certificate(self):
        ic = scalar_linear_interconnection()
        half = half_norm_candidate()
        cert = certify(
            ic, half, half, radius=2.0,
            alpha1=1.0, alpha2=1.0, alpha=0.9, requested_gains=(0.0, 0.0),
        )
        assert cert.decay_report.passed
        assert cert.rho1_max > 0 and cert.rho2_max > 0

    def test_fhn_default_certificate(self, default_table):
        params = default_table.params
        ic = fhn_field(params)
        c1, c2 = fc_candidate(default_table)
        cert = certify(ic, c1, c2, radius=16.0,
                       alpha1=params.alpha, alpha2=params.b / params.epsilon,
                       alpha=0.5)
        assert cert.decay_report.passed
        assert cert.rho1_max == pytest.approx(0.008111130461831116, rel=1e-6)
        assert cert.rho2_max == pytest.approx(2.0 / 7.0, rel=1e-6)

    def test_requested_gains_above_budget_refused(self):
        params = figure_params(1)
        table = build_fc(params)
        ic = fhn_field(params)
        c1, c2 = fc_candidate(table)
        with pytest.raises(CertificationError, match="exceed"):
            certify(ic, c1, c2, radius=5.1,
                    alpha1=params.alpha, alpha2=params.b / params.epsilon,
                    alpha=0.01, requested_gains=(1.0, 1.0))

    def test_component_check_failure_refused(self):
        # claiming a decay rate above the true one must be caught
        ic = scalar_linear_interconnection()
        half = half_norm_candidate()
        with pytest.raises(CertificationError, match="component"):
            certify(ic, half, half, radius=2.0,
                    alpha1=1.5, alpha2=1.0, alpha=0.9)

    def test_given_constants_are_taken_after_the_component_checks(self):
        ic = scalar_linear_interconnection()
        half = half_norm_candidate()
        radii = []

        def constants(radius):
            radii.append(radius)
            return unit_constants(radius=radius, a2=math.inf)

        with pytest.raises(CertificationError, match="first component"):
            certify(ic, half, half, radius=2.0, alpha1=1.5, alpha2=1.0, alpha=0.9,
                    sup_constants=constants)
        assert radii == []
        with pytest.raises(CertificationError,
                           match=re.escape("no finite sup-constants on the ball of radius "
                                           "2.0: a2 must be finite and nonnegative")):
            certify(ic, half, half, radius=2.0, alpha1=1.0, alpha2=1.0, alpha=0.9,
                    sup_constants=constants)
        assert radii == [2.0]

    def test_a_tolerance_whose_slack_reaches_alpha_is_refused(self):
        # with tol (1 + c_upper) >= alpha the decay checks would pass a field
        # that does not decay at all; c_upper is 1/2 for both candidates here
        zero = linear_field([[0.0]])
        still = Interconnection(zero, zero, linear_coupling([[-1.0]]),
                                linear_coupling([[1.0]]), 0.0, 0.0)
        half = half_norm_candidate()
        with pytest.raises(CertificationError, match=re.escape(
                "tolerance 1.0 leaves a slack of 1.500e+00 in the decay checks, not below "
                "alpha = 0.75")):
            certify(still, half, half, radius=2.0, alpha1=1.0, alpha2=1.0, alpha=0.75,
                    tol=1.0)
        cert = certify(scalar_linear_interconnection(), half, half, radius=2.0, alpha1=1.0,
                       alpha2=1.0, alpha=0.75, tol=0.25)
        assert cert.decay_report.passed
        # "no budget exists" is named first
        with pytest.raises(InfeasibleBudgetError, match="no budget exists"):
            certify(still, half, half, radius=2.0, alpha1=1.0, alpha2=1.0, alpha=1.0,
                    tol=1e300)

    def test_closed_form_certificate_names_its_basis(self, tmp_path, default_table):
        params = default_table.params
        cert = certify(fhn_field(params), *fc_candidate(default_table), radius=8.0,
                       alpha1=params.alpha, alpha2=params.b / params.epsilon, alpha=0.5,
                       sup_constants=partial(sup_constants, default_table))
        rec_path = tmp_path / "cert.rec"
        cert.write_record(rec_path)
        assert rec_path.read_text() == cert.record_text()
        parsed = parse_certificate_record(rec_path)
        assert (parsed["safety"], parsed["provenance"]) == ("1.05", "closed form, inflated")
        assert cert.to_text().startswith(
            "gain certificate (constants are closed-form suprema times a safety factor)\n")

    @pytest.mark.parametrize("gains", [(math.nan, 0.0), (-1.0, 0.0), (0.0, math.inf),
                                       (0.0, -0.5)])
    def test_bad_requested_gains_refused(self, gains):
        params = figure_params(3)
        table = build_fc(params)
        ic = fhn_field(params)
        c1, c2 = fc_candidate(table)
        with pytest.raises(CertificationError,
                           match=re.escape(f"requested gains {gains}") + ".*finite"):
            certify(ic, c1, c2, radius=8.0,
                    alpha1=params.alpha, alpha2=params.b / params.epsilon,
                    alpha=0.5, requested_gains=gains)

    def test_composite_check_failure_refused(self):
        # both blocks decay at rate 2, but a zeta = 1 understates the true
        # |dV/d(dz)| / |dz| = 2, so the budget gains are too large for the
        # composite to keep rate 1
        class UnderstatedZeta(FinslerCandidate):
            def zeta(self, z):
                return np.ones(np.shape(z)[:-1])

        unit = UnderstatedZeta(
            1, lambda z: np.ones(np.shape(z) + (1,)),
            lambda z: np.zeros(np.shape(z) + (1, 1)), 1.0, 1.0)
        ic = Interconnection(linear_field([[-1.0]]), linear_field([[-1.0]]),
                             linear_coupling([[1.0]]), linear_coupling([[1.0]]), 0.0, 0.0)
        with pytest.raises(CertificationError, match="composite.*budget gains"):
            certify(ic, unit, unit, radius=2.0,
                    alpha1=2.0, alpha2=2.0, alpha=1.0)

    def test_infinite_budget_is_checked_at_a_finite_gain(self):
        # zero couplings make both budgets infinite; an interconnection takes
        # only finite gains, so the composite check runs at the clamped gain
        zero = linear_coupling([[0.0]])
        ic = Interconnection(linear_field([[-1.0]]), linear_field([[-1.0]]), zero, zero,
                             0.0, 0.0)
        half = half_norm_candidate()
        cert = certify(ic, half, half, radius=2.0,
                       alpha1=1.0, alpha2=1.0, alpha=0.5)
        assert math.isinf(cert.rho1_max) and math.isinf(cert.rho2_max)
        assert cert.decay_report.passed

    def test_certificate_roundtrip(self, tmp_path, default_table):
        params = default_table.params
        ic = fhn_field(params)
        c1, c2 = fc_candidate(default_table)
        cert = certify(ic, c1, c2, radius=8.0,
                       alpha1=params.alpha, alpha2=params.b / params.epsilon,
                       alpha=0.5)
        rec_path = tmp_path / "cert.rec"
        txt_path = tmp_path / "cert.txt"
        cert.write_record(rec_path)
        cert.write_report(txt_path)
        parsed = parse_certificate_record(rec_path)
        assert float(parsed["rho1_max"]) == cert.rho1_max
        assert float(parsed["rho2_max"]) == cert.rho2_max
        assert float(parsed["a1"]) == cert.constants.a1
        assert parsed["decay_check"] == "pass"
        # the two labels are module constants, not fields of the constants
        assert (parsed["safety"], parsed["provenance"]) == ("1.05", "sampled, inflated")
        assert "sampled" in txt_path.read_text()


def test_sup_constants_validate():
    with pytest.raises(ValueError):
        unit_constants(a1=-1.0)
    with pytest.raises(ValueError, match="unknown provenance 'guessed'"):
        unit_constants(provenance="guessed")
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="a2 must be finite and nonnegative"):
            unit_constants(a2=bad)


# a block whose first rate alpha1 = 50 it does not have: the decay check
# refutes it at the default tolerance, and a tolerance large enough to pass
# it is refused after the budget
LARGE_TOLERANCE_CERTIFY = """
[scenario]
system = fhn
action = certify
tolerance = {tolerance}

[params]
r = 2.1
b = 1
epsilon = 0.9

[certify]
radius = 8
alpha1 = 50
alpha = 0.4
"""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tolerance, slack", [("25", "7.468e+01"), ("1e300", "2.987e+300")])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_a_large_tolerance_exits_4_without_a_certificate(tolerance, slack, where,
                                                         tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(LARGE_TOLERANCE_CERTIFY.format(
        tolerance=tolerance if where == "config" else "1e-9"))
    out = tmp_path / "o"
    flag = ["--tolerance", tolerance] if where == "flag" else []
    assert main(["certify", "--config", str(cfg), "--out", str(out), *flag]) == EXIT_REFUSED
    err = capsys.readouterr().err
    assert err == (f"certification refused: tolerance {float(tolerance)!r} leaves a slack "
                   f"of {slack} in the decay checks, not below alpha = 0.4: a field with "
                   f"no decay would pass them\n")
    assert not (out / "certificate.rec").exists()


def test_the_default_tolerance_refutes_the_rate(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(LARGE_TOLERANCE_CERTIFY.format(tolerance="1e-9"))
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_REFUSED
    assert capsys.readouterr().err.startswith(
        "certification refused: first component decay check failed")
