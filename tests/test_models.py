"""Model loading, validation, derived coefficients, and the frozen rate."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from merton_factor import (
    DomainError,
    ModelError,
    coefficients_at,
    distortion_power,
    eta_profile,
    frozen_rate,
    load_model,
    model_to_dict,
    to_zero_correlation,
)


def test_frozen_rate_matches_definition_black_scholes(bs_model):
    expected = oracles.frozen_rate_scalar(2.0, 0.1, 0.02, 0.3)
    assert frozen_rate(bs_model, 0.0) == pytest.approx(expected, rel=0, abs=1e-15)
    assert expected == pytest.approx(0.07125, rel=0, abs=1e-15)


def test_frozen_rate_regime_vector(regime2_model):
    eta = frozen_rate(regime2_model)
    exp0 = oracles.frozen_rate_scalar(2.0, 0.3, 0.02, 0.4)
    exp1 = oracles.frozen_rate_scalar(2.0, 0.18, 0.01, 0.1)
    assert eta == pytest.approx([exp0, exp1], rel=0, abs=1e-15)
    assert eta == pytest.approx([0.18, 0.09625], rel=0, abs=1e-15)
    assert frozen_rate(regime2_model, 1) == pytest.approx(exp1, rel=0, abs=0)


def test_frozen_rate_mpr_profile(mpr_model):
    # lambda(y) = y, R = 3/2, delta = 0.05, r = 0.02:
    # eta(y) = (0.05 + (1/2)(0.02 + y^2/3)) / (3/2) = 0.04 + y^2 / 9.
    y = np.array([-2.0, 0.0, 0.5, 3.0])
    assert frozen_rate(mpr_model, y) == pytest.approx(0.04 + y**2 / 9.0, rel=0, abs=1e-15)
    assert frozen_rate(mpr_model, 0.0) == 0.04


def test_eta_profile_triple_agrees_with_frozen_rate(mpr_model):
    g, g_prime, g_second = eta_profile(mpr_model)
    y = np.linspace(-3.0, 3.0, 7)
    assert g(y) == pytest.approx(frozen_rate(mpr_model, y), rel=0, abs=0)
    assert g_prime(y) == pytest.approx(2.0 * y / 9.0, rel=0, abs=1e-15)
    assert g_second(y) == pytest.approx(np.full_like(y, 2.0 / 9.0), rel=0, abs=1e-15)


def test_distortion_power_identities():
    assert distortion_power(1.7, 0.0) == 1.0
    assert distortion_power(1.0, -0.9) == 1.0
    # R=1.5, rho=-0.2: phi = 1/(1 - (1/3)*0.04) = 75/74.
    assert distortion_power(1.5, -0.2) == pytest.approx(75.0 / 74.0, rel=0, abs=1e-15)
    assert distortion_power(1.5, -0.2) == pytest.approx(1.013514, abs=5e-7)
    # R=2, rho=-0.84: phi = 1/(1 - 0.5*0.7056) = 1/0.6472.
    assert distortion_power(2.0, -0.84) == pytest.approx(1.0 / 0.6472, rel=0, abs=1e-14)


def test_derived_coefficients_mpr(mpr_model):
    y = np.array([0.0, 1.0])
    c = coefficients_at(mpr_model, y)
    # a_tilde = kappa(theta - y) + ((1-R)/R) rho nu lambda(y)
    #         = 0.3(0.5 - y) + (-1/3)(-0.2)(0.6) y = 0.15 - 0.26 y.
    assert c.a_tilde == pytest.approx([0.15, -0.11], rel=0, abs=1e-15)
    assert c.eta == pytest.approx(0.04 + y**2 / 9.0, rel=0, abs=1e-15)
    assert c.phi == pytest.approx(75.0 / 74.0, rel=0, abs=1e-15)
    assert c.R_tilde == pytest.approx(1.5 * 74.0 / 75.0, rel=0, abs=1e-15)
    # d = b^2/2 ((1 - rho^2) R + rho^2 + 1) = 0.18 * (1.48 + 1.04) / ... compute:
    d_expected = 0.5 * 0.6**2 * ((1 - 0.04) * 1.5 + 0.04 + 1.0)
    assert c.d == pytest.approx([d_expected, d_expected], rel=0, abs=1e-15)


def test_zero_correlation_transform_preserves_eta_and_a_tilde(mpr_model):
    transformed, phi = to_zero_correlation(mpr_model)
    assert phi == pytest.approx(75.0 / 74.0, rel=0, abs=1e-15)
    assert transformed.rho == 0.0
    assert transformed.R == pytest.approx(mpr_model.R / phi, rel=0, abs=1e-15)
    y = np.linspace(-2.0, 2.0, 9)
    assert transformed.eta(y) == pytest.approx(mpr_model.eta(y), rel=0, abs=1e-15)
    assert transformed.a(y) == pytest.approx(mpr_model.a_tilde(y), rel=0, abs=1e-15)
    assert transformed.b(y) == pytest.approx(mpr_model.b(y), rel=0, abs=0)
    # Already-uncorrelated models pass through with phi = 1.
    again, phi2 = to_zero_correlation(transformed)
    assert phi2 == 1.0
    assert again.eta(y) == pytest.approx(transformed.eta(y), rel=0, abs=0)


def test_model_dict_round_trip(mpr_model, regime2_model):
    for model in (mpr_model, regime2_model):
        clone = load_model(json.loads(json.dumps(model_to_dict(model))))
        assert model_to_dict(clone) == model_to_dict(model)


def test_load_model_rejects_bad_inputs():
    with pytest.raises(ModelError, match="family"):
        load_model({"params": {}})
    with pytest.raises(ModelError, match="missing"):
        load_model({"family": "mpr", "params": {"R": 1.5}})
    with pytest.raises(ModelError, match="unknown field"):
        load_model(
            {
                "family": "black_scholes",
                "params": {"R": 2.0, "delta": 0.1, "r": 0.02, "lambda": 0.3, "spread": 1.0},
            }
        )
    with pytest.raises(ModelError, match="R must be positive"):
        load_model(
            {
                "family": "black_scholes",
                "params": {"R": -2.0, "delta": 0.1, "r": 0.02, "lambda": 0.3},
            }
        )
    with pytest.raises(ModelError, match="finite"):
        load_model(
            {
                "family": "black_scholes",
                "params": {"R": 2.0, "delta": math.inf, "r": 0.02, "lambda": 0.3},
            }
        )


def test_load_model_rejects_bad_generator():
    base = {
        "family": "regime",
        "r": [0.02, 0.01],
        "lambda": [0.4, 0.1],
        "sigma": [0.25, 0.2],
        "delta": [0.3, 0.18],
        "R": 2.0,
    }
    with pytest.raises(ModelError, match="row"):
        load_model({**base, "Q": [[-0.5, 0.4], [0.5, -0.5]]})
    with pytest.raises(ModelError, match="off-diagonal"):
        load_model({**base, "Q": [[0.5, -0.5], [-0.5, 0.5]]})


def test_load_model_reports_json_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "family": "mpr",\n  "params": {,}\n}\n')
    with pytest.raises(ModelError, match=r"line 3, column 14"):
        load_model(bad)


def test_heston_domain_is_positive_half_line(heston_model):
    y = np.array([0.01, 0.035, 0.2])
    assert np.all(heston_model.b(y) > 0.0)
    with pytest.raises(Exception):
        coefficients_at(heston_model, np.array([-0.5]))


def test_coefficients_refuse_points_beyond_finite_interval_ends(heston_model):
    y = np.linspace(-1.0, 1.0, 5)
    table = {k: (0.2 + 0.0 * y).tolist() for k in ("r", "lambda", "sigma", "delta", "a", "b")}
    tab = load_model({"family": "tabulated", "params": {"R": 2.0, "y": y.tolist(), **table}})
    methods = (
        "r", "lam", "sigma", "delta", "a", "b",
        "eta", "eta_prime", "eta_second", "a_tilde", "d_coefficient",
    )
    for model, inside, outside in (
        (heston_model, 0.0, -1e-12),
        (tab, -1.0, -1.0 - 1e-12),
        (tab, 1.0, 1.0 + 1e-12),
    ):
        for name in methods:
            method = getattr(model, name)
            # The closed interval is accepted, its end included.
            assert np.all(np.isfinite(method(np.array([inside, 0.5]))))
            with pytest.raises(DomainError, match="outside state interval"):
                method(np.array([0.5, outside]))
            with pytest.raises(DomainError, match="outside state interval"):
                method(outside)


def test_tabulated_model_interpolates():
    y = np.linspace(-1.0, 1.0, 21)
    model = load_model(
        {
            "family": "tabulated",
            "params": {
                "R": 2.0,
                "y": y.tolist(),
                "r": (0.02 + 0.0 * y).tolist(),
                "lambda": (0.3 * y).tolist(),
                "sigma": (0.25 + 0.0 * y).tolist(),
                "delta": (0.1 + 0.0 * y).tolist(),
                "a": (-0.5 * y).tolist(),
                "b": (0.4 + 0.0 * y).tolist(),
            },
        }
    )
    probe = np.array([-0.95, 0.0, 0.425])
    assert model.lam(probe) == pytest.approx(0.3 * probe, rel=0, abs=1e-15)
    assert model.a(probe) == pytest.approx(-0.5 * probe, rel=0, abs=1e-15)
    expected_eta = np.array(
        [oracles.frozen_rate_scalar(2.0, 0.1, 0.02, 0.3 * v) for v in probe]
    )
    assert model.eta(probe) == pytest.approx(expected_eta, rel=0, abs=1e-15)


_TABULATED = {
    "family": "tabulated",
    "params": {
        "R": 2.0,
        "y": [-1.0, 0.0, 1.0],
        "r": [0.02, 0.02, 0.02],
        "lambda": [0.1, 0.3, 0.2],
        "sigma": [0.2, 0.25, 0.2],
        "delta": [0.1, 0.1, 0.1],
        "a": [0.5, 0.0, -0.5],
        "b": [0.4, 0.4, 0.4],
    },
}
_BS = {"family": "black_scholes", "params": {"R": 2.0, "delta": 0.1, "r": 0.02, "lambda": 0.3}}
_MPR = {
    "family": "mpr",
    "params": {"R": 1.5, "delta": 0.05, "r": 0.02, "sigma": 0.2, "kappa": 0.3,
               "theta": 0.5, "nu": 0.6, "rho": -0.2},
}
_HESTON = {
    "family": "heston",
    "params": {"R": 2.0, "delta": 0.02, "r": 0.013, "lambda": 1.66, "kappa": 0.088,
               "theta": 0.035, "nu": 0.031, "rho": -0.84},
}
_VASICEK = {
    "family": "vasicek",
    "params": {"R": 1.5, "delta": 0.02, "lambda": 0.38, "sigma": 0.18, "kappa": 0.43,
               "theta": 0.013, "nu": 0.033},
}
_REGIME = {
    "family": "regime",
    "Q": [[-0.5, 0.5], [0.5, -0.5]],
    "r": [0.02, 0.01],
    "lambda": [0.4, 0.1],
    "sigma": [0.25, 0.2],
    "delta": [0.3, 0.18],
    "R": 2.0,
}


@pytest.mark.parametrize(
    "base, field, value, message",
    [
        (_REGIME, "Q", "x", "Q must be"),
        (_REGIME, "Q", [[-0.5, 0.5], [0.5]], "Q must be"),
        (_REGIME, "sigma", [0.25, [0.2]], "sigma must be"),
        (_TABULATED, "y", {"a": 1}, "tabulated y must be"),
        (_TABULATED, "y", "abc", "tabulated y must be"),
        (_TABULATED, "y", [-1.0, 0.0, math.inf], "tabulated y grid must be finite"),
        (_TABULATED, "r", [0.02, [0.02, 0.03], 0.02], "tabulated r must be"),
        (_TABULATED, "y", [-1.0, 0.0, 0.0], "^tabulated y grid must be strictly increasing$"),
        (_TABULATED, "delta", [0.1, math.nan, 0.1], "^tabulated delta contains non-finite entries$"),
        (_TABULATED, "sigma", [0.2, 0.0, 0.2], "^tabulated sigma must be positive everywhere$"),
        (_TABULATED, "b", [0.4, 0.0, 0.4], "^tabulated b must be nonzero everywhere$"),
        (_BS, "sigma", 0.0, "^sigma must be positive$"),
        (_MPR, "sigma", -0.2, "^sigma must be positive$"),
        (_VASICEK, "sigma", 0.0, "^sigma must be positive$"),
        (_MPR, "nu", 0.0, "^nu must be nonzero$"),
        (_HESTON, "nu", -0.0, "^nu must be nonzero$"),
        (_VASICEK, "nu", 0, "^nu must be nonzero$"),
    ],
    ids=[
        "Q-string", "Q-ragged", "sigma-ragged", "y-object", "y-string", "y-infinite",
        "column-ragged", "y-not-increasing", "column-nan", "tabulated-sigma-zero",
        "tabulated-b-zero", "bs-sigma-zero", "mpr-sigma-negative", "vasicek-sigma-zero",
        "mpr-nu-zero", "heston-nu-zero", "vasicek-nu-zero",
    ],
)
def test_malformed_model_arrays_raise_model_error(base, field, value, message):
    document = copy.deepcopy(base)
    fields = document if document["family"] == "regime" else document["params"]
    fields[field] = value
    with pytest.raises(ModelError, match=message):
        load_model(document)


# Valid documents of every family; the fuzz below breaks one to three fields.
_VALID_DOCUMENTS = (_REGIME, _TABULATED, _BS, _MPR, _HESTON, _VASICEK)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=4)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_NUMERIC = st.floats() | st.integers(-3, 3) | st.sampled_from([10**400, 1e300])
_FIELD_VALUES = (
    _JSON
    | _NUMERIC
    | st.lists(_NUMERIC, max_size=6)
    | st.lists(st.lists(_NUMERIC, max_size=3), max_size=3)
)


@st.composite
def _model_documents(draw):
    """Arbitrary JSON, or a valid model document with one to three fields broken."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JSON)
    document = copy.deepcopy(draw(st.sampled_from(_VALID_DOCUMENTS)))
    fields = document if document["family"] == "regime" else document["params"]
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(sorted(fields) + ["extra", "family", "params"]))
        target = document if key in ("family", "params") else fields
        if target is fields and key in fields and draw(st.integers(0, 5)) == 0:
            del fields[key]
        else:
            target[key] = draw(_FIELD_VALUES)
    return document


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(document=_model_documents())
def test_load_model_refuses_malformed_json_only_with_model_error(document, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzzed_model.json"
    path.write_text(json.dumps(document))
    try:
        load_model(path)
    except ModelError:
        pass
