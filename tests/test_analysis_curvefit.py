"""Unit tests for curve fitting and the model-selection protocol."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    FittedCurve,
    fit_hoerl,
    fit_linear,
    fit_mmf,
    rmse,
    select_best_curve,
)
from repro.common.errors import FitError


class TestLinear:
    def test_recovers_exact_line(self):
        x = np.arange(1, 50, dtype=float)
        y = 3.0 + 0.5 * x
        fit = fit_linear(x, y)
        assert fit.params[0] == pytest.approx(3.0)
        assert fit.params[1] == pytest.approx(0.5)
        assert rmse(fit, x, y) < 1e-9

    def test_needs_two_points(self):
        with pytest.raises(FitError):
            fit_linear([1.0], [2.0])

    def test_predict_scalar(self):
        fit = fit_linear([0, 1], [0, 2])
        assert float(fit.predict(10.0)) == pytest.approx(20.0)


class TestMmf:
    def test_recovers_mmf_shape(self):
        x = np.arange(1, 200, dtype=float)
        true = (1.0 * 50 + 20.0 * x**1.2) / (50 + x**1.2)
        fit = fit_mmf(x, true)
        assert rmse(fit, x, true) < 0.1

    def test_saturating_data_prefers_mmf_over_linear(self):
        x = np.arange(1, 300, dtype=float)
        y = 100 * x / (x + 40)  # saturating
        mmf = fit_mmf(x, y)
        lin = fit_linear(x, y)
        assert rmse(mmf, x, y) < rmse(lin, x, y)

    def test_needs_five_points(self):
        with pytest.raises(FitError):
            fit_mmf([1, 2, 3], [1, 2, 3])


class TestHoerl:
    def test_recovers_hoerl_shape(self):
        x = np.arange(1, 100, dtype=float)
        y = 2.0 * (1.002**x) * x**0.7
        fit = fit_hoerl(x, y)
        assert rmse(fit, x, y) / y.mean() < 0.02

    def test_rejects_nonpositive(self):
        with pytest.raises(FitError):
            fit_hoerl([1, 2, 3], [1.0, -2.0, 3.0])

    def test_no_overflow_for_large_x(self):
        x = np.arange(1, 600, dtype=float)
        y = 0.03 * x + 1.0
        fit = fit_hoerl(x, y)
        assert np.isfinite(fit.predict(3000.0))


class TestSelection:
    def test_linear_wins_on_linear_data(self):
        """Table 3's situation: disk consumption is linear in cache count."""
        rng = np.random.default_rng(1)
        x = np.arange(1, 400, dtype=float)
        y = 2.0 + 0.03 * x + rng.normal(0, 0.02, x.size)
        selection = select_best_curve(x, y)
        assert selection.winner_name == "linear"

    def test_mmf_wins_on_saturating_data(self):
        """Table 4's situation: memory consumption saturates."""
        rng = np.random.default_rng(2)
        x = np.arange(1, 400, dtype=float)
        y = 120 * x / (x + 60) + rng.normal(0, 0.3, x.size)
        selection = select_best_curve(x, y)
        assert selection.winner_name == "MMF"

    def test_all_candidates_scored(self):
        x = np.arange(1, 100, dtype=float)
        y = 1.0 + 0.1 * x
        selection = select_best_curve(x, y)
        assert set(selection.rmse_all) == {"linear", "MMF", "hoerl"}

    def test_winner_refit_on_all_points(self):
        """Step 4 of the protocol: the winner must fit all points better
        than its train-on-half version (barring degenerate ties)."""
        rng = np.random.default_rng(3)
        x = np.arange(1, 200, dtype=float)
        y = 5 + 0.2 * x + rng.normal(0, 1.0, x.size)
        selection = select_best_curve(x, y)
        refit_err = rmse(selection.winner, x, y)
        half_err = rmse(selection.half_fits[selection.winner_name], x, y)
        assert refit_err <= half_err + 1e-9

    @given(
        slope=st.floats(0.01, 10.0),
        intercept=st.floats(0.0, 100.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_linear_exact_recovery(self, slope, intercept):
        x = np.arange(1, 60, dtype=float)
        y = intercept + slope * x
        fit = fit_linear(x, y)
        assert rmse(fit, x, y) < 1e-6 * max(1.0, y.max())


class TestFittedCurve:
    def test_vector_prediction(self):
        fit = FittedCurve("linear", (1.0, 2.0), lambda x, a, b: a + b * x)
        out = fit.predict(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(out, [1.0, 3.0, 5.0])


class TestLazyScipy:
    def test_importing_experiments_does_not_import_scipy(self):
        """scipy loads on the first MMF fit, not with the package: it is most
        of the import time and memory of every CLI call that never fits."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import sys, repro.experiments\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "[]"
