"""State estimation and bad-data detection.

Implements the DC-model supervisory stack of Section III of the paper:

* :class:`~repro.estimation.measurement.MeasurementSystem` — the SCADA
  measurement model ``z = Hθ + n`` (forward/reverse branch flows and nodal
  injections, Gaussian noise).
* :class:`~repro.estimation.linear_model.LinearModel` — the
  maximum-likelihood (weighted least squares) estimator
  ``θ̂ = (HᵀWH)⁻¹HᵀWz`` as a factorized batched kernel: Jacobian,
  gain-matrix Cholesky and residual projector computed once per
  perturbation and applied to whole ``(B, M)`` measurement/attack batches
  with single BLAS calls.
* :mod:`~repro.estimation.backends` — pluggable factorization backends
  behind the model: dense QR (the original arithmetic) and a Q-less
  gain-matrix Cholesky for 1000+ bus cases, selected per model via
  ``backend="auto"``.
* :class:`~repro.estimation.bdd.BadDataDetector` — the residual-based
  detector holding one model, with a threshold calibrated to a target
  false-positive rate, plus analytic (noncentral-χ²) and Monte-Carlo
  detection-probability evaluators.
"""

from repro.estimation.backends import (
    BACKEND_CHOICES,
    DenseQRBackend,
    FactorizationBackend,
    SparseQlessBackend,
    available_backends,
    resolve_backend,
)
from repro.estimation.linear_model import BatchStateEstimate, LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.estimation.bdd import BadDataDetector
from repro.estimation.observability import is_observable, observability_report

__all__ = [
    "MeasurementSystem",
    "BadDataDetector",
    "LinearModel",
    "BatchStateEstimate",
    "FactorizationBackend",
    "DenseQRBackend",
    "SparseQlessBackend",
    "BACKEND_CHOICES",
    "available_backends",
    "resolve_backend",
    "is_observable",
    "observability_report",
]
