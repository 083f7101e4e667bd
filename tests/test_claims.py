"""The teo1 claims are identities in Q(c, d, k): a wrong printed form or
eigenvalue makes them fail, with the failing identity in the report."""

import dataclasses

import pytest

from hopfcm import verify
from hopfcm.polysys import hopf_test

PRINTED_L1 = verify._printed_L1
CLEARING_E1 = verify._clearing_e1


@pytest.mark.parametrize(
    "name,replacement",
    [
        # the coefficient -1 of d becomes 0
        ("_printed_L1", lambda c, d, k: PRINTED_L1(c, d, k) + d),
        # the factor d^4 + 4k^2 is dropped
        ("_clearing_e1", lambda c, d, k: 4 * k * (c * c * d * d + k * k)),
        ("_clearing_e1", lambda c, d, k: 2 * CLEARING_E1(c, d, k)),
    ],
    ids=["printed-coefficient", "clearing-factor-dropped", "clearing-doubled"],
)
def test_a_wrong_printed_form_fails_teo1_l1(monkeypatch, name, replacement):
    monkeypatch.setattr(verify, name, replacement)
    res = verify.claim_teo1_l1()
    assert res["passed"] is False
    assert res["scales"] != ["1"]
    assert res["identity_failures"] == res["scales"]
    assert res["zero_set_failures"] and res["sign_failures"]


@pytest.mark.parametrize(
    "identity,perturb",
    [
        ("gamma - alpha*beta = 0", lambda r: {"conditions": {
            **r.conditions,
            "gamma_minus_alpha_beta": r.conditions["gamma_minus_alpha_beta"] + 1,
        }}),
        ("omega^2 = (k/d)^2", lambda r: {"omega_squared": 2 * r.omega_squared}),
        ("lambda3 = -d", lambda r: {"lambda3": r.lambda3 + 1}),
    ],
    ids=["residual", "omega", "lambda3"],
)
def test_a_perturbed_eigenvalue_identity_fails_teo1_hopf(monkeypatch, identity, perturb):
    # is_hopf is left alone, so only the identity fails, not the sampled
    # characterization
    def perturbed(cubic):
        report = hopf_test(cubic)
        return dataclasses.replace(report, **perturb(report))

    monkeypatch.setattr(verify, "hopf_test", perturbed)
    res = verify.claim_teo1_hopf()
    assert res["passed"] is False
    assert res["eigen_failures"] == [identity]
    assert res["mismatches"] == []
