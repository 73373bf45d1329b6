"""Independent re-computation of the quantities a trial reports.

The oracle shares no kernel code with the library.  Given the inputs a
trial handed to :meth:`EffectivenessEvaluator.evaluate` — the evaluator
(attacker matrix, attack ensemble) and the post-perturbation reactances —
it recomputes

* the largest principal angle between ``Col(H)`` and ``Col(H')`` (the SPA
  the library reports), from orthonormal bases, with the sine taken from
  the residual of the projection so that small angles keep their digits;
* each attack's detection probability, from a least-squares (SVD) residual
  and the noncentral χ² survival function.

``H'`` itself comes from the library's grid assembly, after a structural
check against the attacker's matrix: the flow rows of ``H`` scale with the
reciprocal reactances, so ``H'`` must equal ``H`` with its flow rows
rescaled by ``x / x'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import stats

#: Largest accepted relative difference between reported and recomputed
#: detection probabilities (the two agree to ~1e-13 on every workload).
PROBABILITY_RTOL = 1e-8
#: Tolerance for ties of a probability with a threshold δ, and for means.
PROBABILITY_ATOL = 1e-6
#: Largest accepted absolute difference between angles (radians).
ANGLE_ATOL = 1e-8
#: Largest accepted relative difference between measurement-matrix entries.
MATRIX_RTOL = 1e-12


def largest_principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Largest principal angle between the column spaces of ``a`` and ``b``."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    cosine = np.linalg.svd(qa.T @ qb, compute_uv=False).min()
    sine = np.linalg.norm(qb - qa @ (qa.T @ qb), 2)
    return float(np.arctan2(sine, cosine))


def detection_probabilities(
    matrix: np.ndarray, attacks: np.ndarray, noise_sigma: float, alpha: float
) -> np.ndarray:
    """χ² BDD detection probability of each attack row against ``matrix``."""
    m, n = matrix.shape
    solution, *_ = np.linalg.lstsq(matrix, attacks.T, rcond=None)
    residual = attacks.T - matrix @ solution
    noncentrality = np.sum(residual**2, axis=0) / noise_sigma**2
    dof = m - n
    threshold = stats.chi2.ppf(1.0 - alpha, dof)
    probabilities = np.full(noncentrality.shape, alpha)
    visible = noncentrality > 1e-12
    probabilities[visible] = stats.ncx2.sf(threshold, dof, noncentrality[visible])
    return probabilities


def eta_bounds(probabilities: np.ndarray, delta: float) -> tuple[float, float]:
    """Range of ``η(δ)`` allowed when probabilities within tolerance of δ tie."""
    low = float(np.mean(probabilities >= delta + PROBABILITY_ATOL))
    high = float(np.mean(probabilities >= delta - PROBABILITY_ATOL))
    return low, high


@dataclass
class Evaluation:
    """The oracle's view of one captured ``evaluate`` call."""

    expected: np.ndarray
    spa: float


@dataclass
class Capture:
    """Records every ``EffectivenessEvaluator.evaluate`` call while active."""

    network: Any
    noise_sigma: float
    alpha: float
    calls: list[tuple[Any, np.ndarray, np.ndarray]] = field(default_factory=list)

    def __enter__(self) -> "Capture":
        from repro.mtd.effectiveness import EffectivenessEvaluator

        self._owner = EffectivenessEvaluator
        self._original = EffectivenessEvaluator.evaluate
        original = self._original
        calls = self.calls

        def evaluate(evaluator, perturbed_reactances, *args, **kwargs):
            result = original(evaluator, perturbed_reactances, *args, **kwargs)
            calls.append(
                (
                    evaluator,
                    np.array(perturbed_reactances, dtype=float).ravel(),
                    np.array(result.detection_probabilities, dtype=float),
                )
            )
            return result

        EffectivenessEvaluator.evaluate = evaluate
        return self

    def __exit__(self, *exc: object) -> None:
        self._owner.evaluate = self._original

    def evaluations(self) -> list[Evaluation]:
        """Oracle results of the captured calls; raises on a mismatch."""
        from repro.grid.matrices import reduced_measurement_matrix

        out = []
        for evaluator, reactances, reported in self.calls:
            attacker = np.asarray(evaluator.attacker_matrix, dtype=float)
            base = np.asarray(evaluator.base_reactances, dtype=float)
            post = np.asarray(reduced_measurement_matrix(self.network, reactances), dtype=float)
            _check_flow_rows(attacker, post, base, reactances)
            expected = detection_probabilities(
                post, np.asarray(evaluator.ensemble.attacks, dtype=float),
                self.noise_sigma, self.alpha,
            )
            if reported.shape != expected.shape:
                raise AssertionError(f"{reported.shape} detection probabilities, expected {expected.shape}")
            if not np.allclose(reported, expected, rtol=PROBABILITY_RTOL, atol=1e-12):
                gap = float(np.max(np.abs(expected - reported) / np.abs(expected)))
                raise AssertionError(
                    f"detection probabilities differ from the oracle by {gap:.3g} (relative)"
                )
            out.append(Evaluation(expected=expected, spa=largest_principal_angle(attacker, post)))
        return out


def _check_flow_rows(
    attacker: np.ndarray, post: np.ndarray, base_x: np.ndarray, post_x: np.ndarray
) -> None:
    n_branches = base_x.shape[0]
    if attacker.shape != post.shape:
        raise AssertionError(f"H' has shape {post.shape}, H has {attacker.shape}")
    expected = attacker[:n_branches] * (base_x / post_x)[:, None]
    scale = max(float(np.max(np.abs(expected))), 1.0)
    for block in (post[:n_branches], -post[n_branches : 2 * n_branches]):
        if float(np.max(np.abs(block - expected))) > MATRIX_RTOL * scale:
            raise AssertionError("flow rows of H' do not scale with 1/x'")


def check_trial_metrics(metrics: dict[str, float], deltas: tuple[float, ...], evaluation: Evaluation) -> None:
    """Compare one effectiveness trial's metrics with the oracle."""
    expected = evaluation.expected
    mean = float(np.mean(expected))
    if abs(metrics["mean_detection_probability"] - mean) > PROBABILITY_ATOL:
        raise AssertionError(
            f"mean detection probability {metrics['mean_detection_probability']} != {mean}"
        )
    for delta in deltas:
        low, high = eta_bounds(expected, delta)
        value = metrics[f"eta({delta:g})"]
        if not (low - 1e-12 <= value <= high + 1e-12):
            raise AssertionError(f"eta({delta:g}) = {value} outside [{low}, {high}]")
    if abs(metrics["spa"] - evaluation.spa) > ANGLE_ATOL:
        raise AssertionError(f"spa {metrics['spa']} != oracle {evaluation.spa}")
