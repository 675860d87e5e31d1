import pytest

from eolstop.settings import (
    N_SETTINGS,
    iter_settings,
    setting_cost_params,
    setting_from_id,
    setting_intensity,
)


def test_first_setting_is_the_base_case():
    s = setting_from_id(1)
    assert (s.kind, s.horizon, s.c4, s.gamma, s.delta, s.c2_bar) == (
        "convex", 50, 25.0, 0.01, 0.005, 200.0)


def test_setting_125_expansion():
    s = setting_from_id(125)
    assert (s.kind, s.horizon, s.c4, s.gamma, s.delta, s.c2_bar) == (
        "constant", 100, -25.0, 1e-6, 0.005, 200.0)


def test_setting_tuples_are_distinct():
    tuples = {(s.kind, s.horizon, s.c4, s.gamma, s.delta, s.c2_bar) for s in iter_settings()}
    assert len(tuples) == N_SETTINGS


def test_full_grid_size():
    assert sum(1 for _ in iter_settings()) == N_SETTINGS
    assert N_SETTINGS == 128


def test_out_of_range_rejected():
    for bad in (0, 129, -3):
        with pytest.raises(ValueError):
            setting_from_id(bad)


def test_tied_scalars():
    s = setting_from_id(7)
    p = setting_cost_params(s, K=1000.0)
    assert p.c1 == 1.0 and p.c3_bar == 200.0 and p.c_bar == 100.0 and p.K == 1000.0
    m = setting_intensity(s)
    assert m.horizon == s.horizon
    assert m.total_demand == pytest.approx(500.0, rel=1e-9)
