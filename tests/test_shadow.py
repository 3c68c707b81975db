"""integrate against its truncation-only shadow (shadow.py): the float64 channels
differ from it by rounding alone, and the shadow alone has criterion 11's orders."""

import numpy as np
import pytest

import exact_family
import shadow
from metricbundle.evolution import integrate
from metricbundle.zoo import builtin_models, get_demo

pytestmark = pytest.mark.skipif(
    shadow.LONG_EPS >= 1e-18,
    reason=f"long double eps is {shadow.LONG_EPS:.2e}, not below 1e-18: no shadow precision",
)

# The bound's multiple: at t1 = 1 the largest relative difference is 3.8e-2 of
# eps * steps * kappa (pt-ep, where ||U_R|| grows linearly), 13x under K.
K = 0.5
EPS = float(np.finfo(float).eps)


@pytest.mark.parametrize("name", sorted(builtin_models()))
def test_float64_channels_are_the_shadow_up_to_rounding(name):
    scenario = get_demo(name, t1=1.0)
    bundle = integrate(scenario)
    ref = shadow.run(scenario)
    assert np.array_equal(ref["ts"], bundle.ts)
    kappa = np.max(shadow.norms(ref["u_r"]) * shadow.norms(ref["u_l"]))
    bound = K * EPS * (bundle.n_nodes - 1) * kappa
    for channel in ("u_r", "u_l", "g"):
        diff = shadow.norms(getattr(bundle, channel) - ref[channel]) / shadow.norms(ref[channel])
        assert np.max(diff) <= bound, channel


def test_shadow_alone_has_the_convergence_orders():
    # Criterion 11's windows on the exact family at n = 4, with no float64
    # rounding in the channels: U_R's error falls 16x per halving, and
    # max ||U_L U_R - I|| 32x.
    errors, inverse_residuals = [], []
    for step in (0.04, 0.02, 0.01, 0.005):
        ref = shadow.run(exact_family.scenario(4, t1=1.0, step=step))
        exact = exact_family.exact(4, ref["ts"])
        errors.append(np.max(shadow.norms(ref["u_r"] - exact["u_r"])))
        inverse_residuals.append(np.max(shadow.norms(ref["u_l"] @ ref["u_r"] - np.eye(4))))
    for a, b in zip(errors, errors[1:]):
        assert 16.0 * 0.8 <= a / b <= 16.0 * 1.2, errors
    for a, b in zip(inverse_residuals, inverse_residuals[1:]):
        assert 32.0 * 0.8 <= a / b <= 32.0 * 1.2, inverse_residuals
