"""Property-based tests (hypothesis) on the library's core invariants.

The invariants tested here must hold on *any* valid network or input, not
only on the IEEE benchmark cases:

* DC power flow conserves power at every bus and is linear in the injections.
* Stealthy attacks ``a = Hc`` are invisible to the matching BDD for every
  ``c`` and undetectability is preserved under scaling.
* Principal angles are symmetric, bounded and invariant to column scaling.
* Attack-magnitude scaling achieves the requested ratio for every target.
* The detection probability is monotone in the attack magnitude, and
  lies in ``[α, 1]`` nondecreasing in the noncentrality, whether a batch
  is priced by the central-χ² series or by ``stats.ncx2.sf``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.fdi import stealthy_attack
from repro.attacks.scaling import attack_measurement_ratio, scale_attack_to_measurement_ratio
from repro.estimation.bdd import BadDataDetector, _detection_survival
from repro.estimation.measurement import MeasurementSystem
from repro.grid.cases import case14, synthetic_case
from repro.grid.matrices import reduced_measurement_matrix
from repro.mtd.subspace import principal_angles, subspace_angle
from repro.powerflow.dc import solve_dc_power_flow

# A modest profile: each property runs a few dozen cases, which keeps the
# whole suite fast while still exploring the input space.
PROPERTY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_NET14 = case14()
_SYSTEM14 = MeasurementSystem.for_network(_NET14)
_H14 = _SYSTEM14.matrix()
_DETECTOR14 = BadDataDetector(_SYSTEM14)
_MODEL14 = _DETECTOR14.model


state_bias_strategy = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False),
    min_size=13,
    max_size=13,
).map(np.array)


generation_strategy = st.lists(
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, allow_infinity=False),
    min_size=5,
    max_size=5,
).map(np.array)


@PROPERTY_SETTINGS
@given(generation=generation_strategy)
def test_power_flow_balances_at_every_bus(generation):
    """Net injection equals net outgoing flow at every non-slack bus."""
    result = solve_dc_power_flow(_NET14, generation_mw=generation)
    for bus in range(_NET14.n_buses):
        if bus == _NET14.slack_bus:
            continue
        outgoing = sum(
            result.flows_mw[br.index] for br in _NET14.branches if br.from_bus == bus
        )
        incoming = sum(
            result.flows_mw[br.index] for br in _NET14.branches if br.to_bus == bus
        )
        assert outgoing - incoming == pytest.approx(result.injections_mw[bus], abs=1e-6)


@PROPERTY_SETTINGS
@given(generation=generation_strategy, scale=st.floats(min_value=0.1, max_value=3.0))
def test_power_flow_is_linear_in_injections(generation, scale):
    """Scaling every injection scales every flow by the same factor."""
    base = solve_dc_power_flow(_NET14, injections_mw=np.zeros(14) + _injections(generation))
    scaled = solve_dc_power_flow(_NET14, injections_mw=scale * _injections(generation))
    np.testing.assert_allclose(scaled.flows_mw, scale * base.flows_mw, atol=1e-6)


def _injections(generation: np.ndarray) -> np.ndarray:
    injections = -_NET14.loads_mw()
    for gen in _NET14.generators:
        injections[gen.bus] += generation[gen.index]
    return injections


@PROPERTY_SETTINGS
@given(bias=state_bias_strategy)
def test_stealthy_attacks_have_zero_residual_on_matching_system(bias):
    """Proposition: (I − Γ)Hc = 0 for every state bias c."""
    attack = stealthy_attack(_H14, bias)
    assert _MODEL14.attack_residual_norms(attack[None, :])[0] == pytest.approx(0.0, abs=1e-7)
    assert _DETECTOR14.detection_probability(attack) == pytest.approx(
        _DETECTOR14.false_positive_rate
    )


@PROPERTY_SETTINGS
@given(bias=state_bias_strategy, scale=st.floats(min_value=0.01, max_value=100.0))
def test_stealthiness_is_scale_invariant(bias, scale):
    """Scaling a stealthy attack keeps it stealthy on the matching system."""
    attack = scale * stealthy_attack(_H14, bias)
    assert _MODEL14.attack_residual_norms(attack[None, :])[0] == pytest.approx(0.0, abs=1e-6)


@PROPERTY_SETTINGS
@given(
    bias=state_bias_strategy,
    small=st.floats(min_value=0.01, max_value=0.5),
    factor=st.floats(min_value=1.5, max_value=10.0),
)
def test_detection_probability_monotone_in_attack_magnitude(bias, small, factor):
    """Against a perturbed system, a larger attack is never harder to detect."""
    if not np.any(np.abs(bias) > 1e-3):
        return  # the all-zero attack is uninformative
    x = _NET14.reactances()
    for index in _NET14.dfacts_branches:
        x[index] *= 1.4
    detector = BadDataDetector(_SYSTEM14.with_reactances(x))
    attack = stealthy_attack(_H14, bias)
    p_small = detector.detection_probability(small * attack)
    p_large = detector.detection_probability(small * factor * attack)
    assert p_large >= p_small - 1e-9


@PROPERTY_SETTINGS
@given(
    dof=st.sampled_from([1, 2, 9, 41, 83, 205, 1079, 3983]),
    alpha=st.sampled_from([5e-4, 1e-2, 5e-2]),
    noncentralities=st.lists(
        st.floats(min_value=1e-12, max_value=1e4), min_size=1, max_size=40
    ).map(np.sort),
)
def test_detection_probability_bounded_and_monotone_in_noncentrality(
    dof, alpha, noncentralities
):
    """α ≤ P_D ≤ 1 and P_D nondecreasing in λ, to rounding, for a batch and
    for its attacks priced one at a time (which may take the other path)."""
    batch = _detection_survival(noncentralities, alpha, dof)
    one_by_one = np.array(
        [_detection_survival(lam[None], alpha, dof)[0] for lam in noncentralities]
    )
    for probabilities in (batch, one_by_one):
        assert np.all(probabilities >= alpha * (1.0 - 1e-12))
        assert np.all(probabilities <= 1.0 + 1e-15)
        assert np.all(np.diff(probabilities) >= -1e-13 * probabilities[1:])


@PROPERTY_SETTINGS
@given(
    bias=state_bias_strategy,
    ratio=st.floats(min_value=0.01, max_value=0.5),
)
def test_attack_scaling_achieves_any_ratio(bias, ratio):
    if not np.any(np.abs(bias) > 1e-6):
        return
    z = _SYSTEM14.noiseless_measurements(np.zeros(14) + _operating_angles())
    attack = stealthy_attack(_H14, bias)
    scaled = scale_attack_to_measurement_ratio(attack, z, target_ratio=ratio)
    assert attack_measurement_ratio(scaled, z) == pytest.approx(ratio, rel=1e-9)


def _operating_angles() -> np.ndarray:
    from repro.opf.dc_opf import solve_dc_opf

    return solve_dc_opf(_NET14).angles_rad


@PROPERTY_SETTINGS
@given(
    factors=st.lists(
        st.floats(min_value=0.5, max_value=1.5, allow_nan=False),
        min_size=6,
        max_size=6,
    )
)
def test_subspace_angle_properties(factors):
    """Symmetry, bounds and zero self-distance of the design metric, for any
    realisable D-FACTS perturbation."""
    x = _NET14.reactances()
    dfacts = list(_NET14.dfacts_branches)
    x[dfacts] = _NET14.reactances()[dfacts] * np.array(factors)
    H_perturbed = reduced_measurement_matrix(_NET14, x)
    angle_ab = subspace_angle(_H14, H_perturbed)
    angle_ba = subspace_angle(H_perturbed, _H14)
    assert angle_ab == pytest.approx(angle_ba, abs=1e-8)
    assert 0.0 <= angle_ab <= np.pi / 2 + 1e-9
    assert subspace_angle(H_perturbed, H_perturbed) == pytest.approx(0.0, abs=1e-9)
    angles = principal_angles(_H14, H_perturbed)
    assert np.all(np.diff(angles) >= -1e-12)


@PROPERTY_SETTINGS
@given(
    factors=st.lists(
        st.floats(min_value=0.5, max_value=1.5, allow_nan=False),
        min_size=6,
        max_size=6,
    ),
    scale=st.floats(min_value=0.5, max_value=2.0),
)
def test_subspace_angle_invariant_to_uniform_scaling(factors, scale):
    """γ(H, cH') = γ(H, H'): the metric sees column spaces, not magnitudes."""
    x = _NET14.reactances()
    dfacts = list(_NET14.dfacts_branches)
    x[dfacts] = _NET14.reactances()[dfacts] * np.array(factors)
    H_perturbed = reduced_measurement_matrix(_NET14, x)
    assert subspace_angle(_H14, H_perturbed) == pytest.approx(
        subspace_angle(_H14, scale * H_perturbed), abs=1e-8
    )


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_synthetic_networks_are_structurally_sound(seed):
    """Every generated network is connected, observable and adequately
    provisioned — the contract property tests elsewhere rely on."""
    net = synthetic_case(n_buses=9, seed=seed)
    assert net.n_buses == 9
    assert net.total_generation_capacity_mw() >= net.total_load_mw()
    H = reduced_measurement_matrix(net)
    assert np.linalg.matrix_rank(H) == net.n_buses - 1


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    generation_scale=st.floats(min_value=0.0, max_value=1.0),
)
def test_power_flow_balance_on_synthetic_networks(seed, generation_scale):
    """The nodal-balance invariant holds on arbitrary synthetic topologies."""
    net = synthetic_case(n_buses=7, seed=seed)
    _, p_max = net.generator_limits_mw()
    result = solve_dc_power_flow(net, generation_mw=generation_scale * p_max)
    for bus in range(net.n_buses):
        if bus == net.slack_bus:
            continue
        outgoing = sum(result.flows_mw[br.index] for br in net.branches if br.from_bus == bus)
        incoming = sum(result.flows_mw[br.index] for br in net.branches if br.to_bus == bus)
        assert outgoing - incoming == pytest.approx(result.injections_mw[bus], abs=1e-6)
