"""Scale benchmark — dense QR vs sparse Q-less factorization backends.

The estimation stack factorises one weighted Jacobian per (case,
perturbation) pair and then answers batched residual queries from the
factorisation.  Below :data:`~repro.grid.matrices.SPARSE_BUS_THRESHOLD`
buses the dense thin-QR path is optimal; above it the ``O(M·n²)`` SVD
guard plus QR and the dense ``(M, n)`` factor ``Q`` dominate the trial
budget.  This benchmark times both backends through the public
:class:`~repro.estimation.linear_model.LinearModel` API across the scale
suite's case ladder (IEEE 14 → synthetic 300 → synthetic 1354 bus):

* **factorize** — ``LinearModel.from_measurement_system(system, backend=…)``,
  i.e. Jacobian assembly (dense vs CSR builder) + observability guard +
  factorisation, the once-per-perturbation cost;
* **solve** — a batched :meth:`~repro.estimation.linear_model.LinearModel.
  estimate_batch` over ``B`` measurement rows (states + residual norms +
  fitted measurements), the per-trial cost.

Each is timed as the median of :data:`N_WARM_TRIALS` calls after one
first call.  The first call is timed too, and each backend's first
factorize is kept in the record (``*_factorize_first_seconds``): a
process's first BLAS/LAPACK calls can stall (on a 2-CPU host at default
BLAS threads, the first sparse factorizes of synthetic300 took up to
0.5 s against 3–9 ms warm), and a single cold call would put that stall
into the headline.

Each case also records two end-to-end numbers from the scale suite's
``scale-<case>`` scenario (a random perturbation, a fresh 200-attack
ensemble, its BDD evaluation and SPA per trial):
``first_trial_seconds``, the wall time of trial 0 from cleared context
caches, which builds the scenario context (network, baseline OPF, the
attacker side); and ``warm_trial_seconds``, the median wall time of the
warm :func:`~repro.engine.run_trial` calls that follow a second, untimed
trial.  The first one or two trials after a context is built can stall
(on a 2-CPU host at default BLAS threads, to ~0.1 s at 300 buses against
~0.02 s warm), so the warm median skips both and the stall shows in
``first_trial_seconds`` instead.  Both land, in seconds, on the record's
``history.ndjson`` line.

Correctness is cross-checked in the same run: the dense backend must be
*bit-identical* to an inline reference of the pre-backend arithmetic
(``np.linalg.qr`` of ``W^{1/2}H`` + triangular solve), and the sparse
backend must agree with the dense one within the documented tolerance
(states and residual norms to ~1e-9 relative — the same bound the tier-1
agreement tests pin).  The sparse path must clear :data:`MIN_SPEEDUP` on
every case of at least :data:`LARGE_CASE_BUSES` buses at the quick/full
budgets.  Timings land in ``BENCH_scale.json`` (checked by CI's docs job).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.analysis.reporting import format_table
from repro.engine import clear_context_caches, run_trial, scenario_suite
from repro.estimation.linear_model import LinearModel
from repro.estimation.measurement import MeasurementSystem
from repro.grid.cases.registry import load_case

from _bench_utils import emit_bench_json, print_banner, time_call

#: Case ladder per scale.  Smoke (CI's docs job) stops at 300 buses so the
#: dense reference stays cheap; quick/full climb to the production-scale
#: 1354-bus synthetic case the sparse backend exists for.
CASES = {
    "smoke": ("ieee14", "synthetic300"),
    "quick": ("ieee14", "synthetic300", "synthetic1354"),
    "full": ("ieee14", "synthetic300", "synthetic1354"),
}

#: Minimum sparse-over-dense factorize+solve speedup asserted at the
#: quick/full budgets for cases of at least :data:`LARGE_CASE_BUSES` buses.
MIN_SPEEDUP = 3.0

#: Bus count from which the speedup floor is enforced.  Small cases are
#: *expected* to favour the dense path — that is why ``backend="auto"``
#: keeps them on it.
LARGE_CASE_BUSES = 1000

#: Measurement rows per batched solve, by scale name.
N_TRIALS = {"smoke": 16, "quick": 64, "full": 256}

#: Warm calls timed per case, by scale name: of each backend's factorize
#: and batched solve, and of ``run_trial`` (the scale scenarios have 8
#: trials; trials 0 and 1 are the warm-up).
N_WARM_TRIALS = {"smoke": 2, "quick": 3, "full": 5}

#: Agreement tolerance between the backends (relative, on states and
#: residual norms).  Documented in docs/architecture.md and pinned tighter
#: by tests/test_estimation_backends.py.
AGREEMENT_RTOL = 1e-9


def _reference_dense(system: MeasurementSystem, Z: np.ndarray) -> dict:
    """The pre-backend arithmetic, inlined: QR of ``W^{1/2}H`` + solves."""
    H = system.matrix()
    sqrt_w = np.sqrt(system.weights())
    q, r = np.linalg.qr(sqrt_w[:, None] * H)
    weighted = Z * sqrt_w
    coeffs = weighted @ q
    theta = scipy.linalg.solve_triangular(r, coeffs.T).T
    residual_norms = np.linalg.norm(weighted - coeffs @ q.T, axis=1)
    return {"q": q, "r": r, "theta": theta, "residual_norms": residual_norms}


def trial_seconds(case: str, n_trials: int) -> tuple[float, float]:
    """``(first, warm)`` wall times of ``scale-<case>``'s trials.

    ``first`` is trial 0 from cleared context caches; ``warm`` the median
    of trials ``2 … n_trials + 1``, after trial 1 has run untimed.
    """
    (spec,) = [s for s in scenario_suite("scale") if s.name == f"scale-{case}"]
    clear_context_caches()
    _, first = time_call(run_trial, spec, 0)
    run_trial(spec, 1)
    warm = np.median([time_call(run_trial, spec, i)[1] for i in range(2, n_trials + 2)])
    return first, float(warm)


def warm_median(n_calls: int, fn, *args, **kwargs) -> tuple:
    """``(result, first-call seconds, median seconds of n_calls more calls)``.

    The result is the last call's; only one earlier result is alive at a
    time.
    """
    result, first = time_call(fn, *args, **kwargs)
    seconds = []
    for _ in range(n_calls):
        result, elapsed = time_call(fn, *args, **kwargs)
        seconds.append(elapsed)
    return result, first, float(np.median(seconds))


def compare_backends(case: str, n_trials: int, n_calls: int) -> dict:
    """Time factorize + batched solve through both backends for one case."""
    network = load_case(case)
    system = MeasurementSystem(network)
    rng = np.random.default_rng(network.n_buses)
    Z = rng.normal(0.0, system.noise_sigma, size=(n_trials, system.n_measurements))

    dense, dense_factorize_first, dense_factorize = warm_median(
        n_calls, LinearModel.from_measurement_system, system, backend="dense"
    )
    sparse, sparse_factorize_first, sparse_factorize = warm_median(
        n_calls, LinearModel.from_measurement_system, system, backend="sparse"
    )
    dense_est, _, dense_solve = warm_median(n_calls, dense.estimate_batch, Z)
    sparse_est, _, sparse_solve = warm_median(n_calls, sparse.estimate_batch, Z)

    # Dense bit-identity: the refactored backend must reproduce the
    # pre-backend expressions byte-for-byte, factors and solves alike.
    ref = _reference_dense(system, Z)
    assert np.array_equal(dense.q, ref["q"]), f"{case}: dense Q drifted"
    assert np.array_equal(dense.r, ref["r"]), f"{case}: dense R drifted"
    assert np.array_equal(dense_est.angles_rad, ref["theta"]), (
        f"{case}: dense states drifted from the reference arithmetic"
    )
    assert np.array_equal(dense_est.residual_norms, ref["residual_norms"]), (
        f"{case}: dense residual norms drifted from the reference arithmetic"
    )

    # Sparse agreement: same estimates within the documented tolerance.
    theta_scale = np.abs(dense_est.angles_rad).max() or 1.0
    assert np.allclose(
        sparse_est.angles_rad,
        dense_est.angles_rad,
        rtol=AGREEMENT_RTOL,
        atol=AGREEMENT_RTOL * theta_scale,
    ), f"{case}: sparse states disagree with dense beyond {AGREEMENT_RTOL}"
    assert np.allclose(
        sparse_est.residual_norms,
        dense_est.residual_norms,
        rtol=AGREEMENT_RTOL,
        atol=0.0,
    ), f"{case}: sparse residual norms disagree with dense beyond {AGREEMENT_RTOL}"

    dense_total = dense_factorize + dense_solve
    sparse_total = sparse_factorize + sparse_solve
    return {
        "case": case,
        "n_buses": network.n_buses,
        "n_measurements": system.n_measurements,
        "n_states": system.n_states,
        "n_trials": n_trials,
        "dense_factorize_first_seconds": dense_factorize_first,
        "sparse_factorize_first_seconds": sparse_factorize_first,
        "dense_factorize_seconds": dense_factorize,
        "sparse_factorize_seconds": sparse_factorize,
        "dense_solve_seconds": dense_solve,
        "sparse_solve_seconds": sparse_solve,
        "factorize_speedup": (
            dense_factorize / sparse_factorize if sparse_factorize > 0 else float("inf")
        ),
        "speedup": dense_total / sparse_total if sparse_total > 0 else float("inf"),
        "dense_trials_per_second": n_trials / dense_total if dense_total > 0 else float("inf"),
        "sparse_trials_per_second": n_trials / sparse_total if sparse_total > 0 else float("inf"),
        "max_state_delta": float(
            np.abs(sparse_est.angles_rad - dense_est.angles_rad).max()
        ),
    }


def bench_scale(benchmark, scale):
    """Time dense-QR vs sparse Q-less factorize + solve across case sizes."""
    cases = CASES.get(scale.name, CASES["quick"])
    n_trials = N_TRIALS.get(scale.name, N_TRIALS["quick"])
    n_warm = N_WARM_TRIALS.get(scale.name, N_WARM_TRIALS["quick"])
    results, total_seconds = benchmark.pedantic(
        time_call,
        args=(lambda: [compare_backends(case, n_trials, n_warm) for case in cases],),
        rounds=1,
        iterations=1,
    )
    for r in results:
        r["first_trial_seconds"], r["warm_trial_seconds"] = trial_seconds(r["case"], n_warm)

    print_banner(
        f"Factorization backends — factorize + {n_trials}-row batched solve "
        f"per case (scale: {scale.name})"
    )
    print(
        format_table(
            [
                "case",
                "buses",
                "dense fact (s)",
                "sparse fact (s)",
                "dense solve (s)",
                "sparse solve (s)",
                "speedup",
                "first trial (s)",
                "warm trial (s)",
            ],
            [
                [
                    r["case"],
                    str(r["n_buses"]),
                    f"{r['dense_factorize_seconds']:.4f}",
                    f"{r['sparse_factorize_seconds']:.4f}",
                    f"{r['dense_solve_seconds']:.4f}",
                    f"{r['sparse_solve_seconds']:.4f}",
                    f"{r['speedup']:.1f}x",
                    f"{r['first_trial_seconds']:.4f}",
                    f"{r['warm_trial_seconds']:.4f}",
                ]
                for r in results
            ],
        )
    )
    print(
        "The sparse backend factorises the n × n gain matrix G = HᵀWH "
        "with a dense Cholesky and never materialises Q or a dense H; the "
        "dense backend keeps the original SVD-guarded thin QR.  Small cases favour dense "
        "(which is why backend='auto' keeps them on it); at 1000+ buses "
        "the sparse path wins on both factorize and end-to-end cost.  Each "
        f"factorize and solve is the median of {n_warm} calls after a first "
        "one; the first trial builds the case's scale-suite scenario context "
        "from cleared caches, and the warm trial is the median of as many "
        "run_trial calls after a second warm-up trial."
    )

    # Headline metric: end-to-end speedup on the largest benchmarked case.
    headline = results[-1]["speedup"]
    emit_bench_json(
        "scale",
        {
            "scale": scale.name,
            "n_trials": n_trials,
            "n_warm_trials": n_warm,
            "total_seconds": total_seconds,
            "speedup": headline,
            "cases": results,
            "min_speedup_target": MIN_SPEEDUP,
            "large_case_buses": LARGE_CASE_BUSES,
            "agreement_rtol": AGREEMENT_RTOL,
            "history_seconds": {
                f"{r['case']}.{phase}_trial": r[f"{phase}_trial_seconds"]
                for r in results
                for phase in ("first", "warm")
            },
        },
    )

    # Bit-identity and agreement are asserted inside compare_backends; the
    # speedup floor holds for production-scale cases at real budgets
    # (smoke stops below LARGE_CASE_BUSES anyway).
    if scale.name != "smoke":
        for r in results:
            if r["n_buses"] >= LARGE_CASE_BUSES:
                assert r["speedup"] >= MIN_SPEEDUP, (
                    f"{r['case']}: sparse-backend speedup {r['speedup']:.2f}x "
                    f"below the {MIN_SPEEDUP}x target"
                )
