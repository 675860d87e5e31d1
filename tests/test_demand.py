import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.optimize import bisect

from eolstop import (
    IntensityModel,
    NonNormalizable,
    OutOfHorizon,
    build_named_intensity,
    load_rates_table,
)
from eolstop.demand import parse_rates_table


class TestNamedBuilders:
    def test_constant_uniform_split(self):
        m = build_named_intensity("constant", 50, 500.0)
        assert np.allclose(m.rates, 10.0)

    def test_convex_initial_rate_matches_bisection(self):
        # independent oracle: bisect the normalization sum on lam0
        m = build_named_intensity("convex", 50, 500.0)
        f = lambda lam0: np.sum(lam0 * 0.9 ** np.arange(50)) - 500.0
        lam0 = bisect(f, 1.0, 200.0, xtol=1e-12)
        assert m.rates[0] == pytest.approx(lam0, rel=1e-10)
        assert lam0 == pytest.approx(50.259, abs=1e-3)

    def test_linear_t100_arithmetic_series(self):
        m = build_named_intensity("linear", 100, 500.0)
        assert m.rates[0] == pytest.approx(5 + 0.099 * 99 / 2)  # 9.9005
        assert m.rates.sum() == pytest.approx(500.0, rel=1e-12)

    @pytest.mark.parametrize("kind", ["convex", "concave", "linear", "constant"])
    @pytest.mark.parametrize("T", [50, 100])
    def test_normalization_and_monotonicity(self, kind, T):
        m = build_named_intensity(kind, T, 500.0)
        assert m.rates.sum() == pytest.approx(500.0, rel=1e-9)
        assert np.all(m.rates >= 0)
        assert np.all(np.diff(m.rates) <= 1e-12)  # non-increasing

    @pytest.mark.parametrize("kind", ["convex", "concave", "linear"])
    @pytest.mark.parametrize("T", [30, 75, 130])
    def test_other_horizons_extend_the_shape(self, kind, T):
        # keep the per-period scale of the reference shapes so the fixed
        # total drop stays feasible
        m = build_named_intensity(kind, T, 10.0 * T)
        assert m.rates.sum() == pytest.approx(10.0 * T, rel=1e-9)
        assert np.all(np.diff(m.rates) <= 1e-12)

    def test_non_normalizable(self):
        with pytest.raises(NonNormalizable):
            build_named_intensity("concave", 50, 1.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_named_intensity("convex", 0, 10.0)
        with pytest.raises(ValueError):
            build_named_intensity("convex", 50, -1.0)
        with pytest.raises(ValueError):
            build_named_intensity("cubic", 50, 10.0)


class TestMeanValue:
    def test_constant(self):
        m = build_named_intensity("constant", 50, 500.0)
        assert m.mean_value(3.0) == pytest.approx(30.0)
        assert m.mean_value(0.0) == 0.0

    def test_total_demand_at_horizon(self):
        m = build_named_intensity("convex", 50, 500.0)
        assert m.mean_value(50.0) == pytest.approx(500.0, rel=1e-12)

    def test_out_of_horizon(self):
        m = build_named_intensity("constant", 10, 10.0)
        with pytest.raises(OutOfHorizon):
            m.mean_value(-0.1)
        with pytest.raises(OutOfHorizon):
            m.mean_value(10.5)

    @given(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=30))
    @hyp_settings(max_examples=50, deadline=None)
    def test_mean_value_nondecreasing(self, rates):
        m = IntensityModel(horizon=len(rates), rates=np.array(rates))
        ts = np.linspace(0, m.horizon, 67)
        vals = m.mean_value(ts)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-12)


def test_load_rates_table(tmp_path):
    f = tmp_path / "rates.txt"
    f.write_text("1.5\n0\n2.25\n")
    m = load_rates_table(f)
    assert m.horizon == 3
    assert np.allclose(m.rates, [1.5, 0.0, 2.25])
    assert m.kind == "custom"


def test_parse_rates_table_takes_text_only(tmp_path):
    m = parse_rates_table("1.5\n\n0\n2.25")
    assert np.allclose(m.rates, [1.5, 0.0, 2.25])
    f = tmp_path / "one.txt"
    f.write_text("4.0\n")
    with pytest.raises(ValueError):
        parse_rates_table(str(f))  # a path is text, not a file to open
    with pytest.raises(ValueError, match="empty"):
        parse_rates_table("\n  \n")
