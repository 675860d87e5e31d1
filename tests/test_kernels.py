import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson

from eolstop import (
    CostParameters,
    IntensityModel,
    LostSalesConvention,
    build_kernel_table,
    build_named_intensity,
    constant_A,
)
from eolstop.kernels import (
    _unit_poisson_rows,
    build_kernel_tables,
    unit_poisson_integrals,
    unit_poisson_integrals_quadrature,
)

from conftest import base_params
from scalar_kernels import period_c3_term

ARR = LostSalesConvention.ARRIVAL
PAP = LostSalesConvention.PAPER
# a zero-rate period, and a 40-per-period one whose support cap exceeds 30
EDGE_MODEL = IntensityModel(horizon=4, rates=np.array([0.0, 3.0, 40.0, 0.5]))


def table(params, model, conv=ARR, x_max=300):
    return build_kernel_table(params, model, conv, x_max=x_max)


def stop_cost(kt, k, x):
    """S(k, x) = c4*x + stop_tail[k] from the table."""
    return kt.params.c4 * x + kt.stop_tail[k]


def quad_L(params, model, k, x, upper):
    """Replacement cost by adaptive quadrature of the defining integrals."""
    lam = model.rates[k]

    def c2(u):
        return params.c2_bar + params.c3_bar * np.exp(-params.gamma * u)

    full = quad(lambda u: np.exp(-params.delta * (u - k)) * c2(u) * lam, k, k + 1,
                epsabs=1e-13, epsrel=1e-13)[0]
    sub = 0.0
    for i in range(upper + 1):
        sub += quad(
            lambda u: np.exp(-params.delta * (u - k)) * c2(u) * lam
            * poisson.pmf(i, lam * (u - k)),
            k, k + 1, epsabs=1e-13, epsrel=1e-13,
        )[0]
    return full - sub


def quad_H(params, model, k, x):
    lam = model.rates[k]
    return params.c1 * quad(
        lambda u: np.exp(-params.delta * (u - k))
        * sum(poisson.cdf(n, lam * (u - k)) for n in range(x)),
        k, k + 1, epsabs=1e-13, epsrel=1e-13,
    )[0]


class TestIntegralEngine:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 2.0, 10.0, 50.259])
    @pytest.mark.parametrize("decay", [0.0, 0.005, 0.015])
    def test_closed_form_vs_gauss_legendre(self, lam, decay):
        imax = 40
        closed = unit_poisson_integrals(lam, decay, imax)
        gl = unit_poisson_integrals_quadrature(lam, decay, imax)
        assert np.allclose(closed, gl, rtol=1e-9, atol=1e-15)

    def test_sums_to_discount_integral(self):
        # sum_i P_i = int_0^1 e^{-decay s} ds once the Poisson mass is spent
        out = unit_poisson_integrals(3.0, 0.5, 200)
        assert out.sum() == pytest.approx((1 - np.exp(-0.5)) / 0.5, rel=1e-12)


class TestHoldingCost:
    def test_zero_inventory(self, base_kernels):
        for k in (0, 17, 49):
            assert base_kernels.H[k, 0] == 0.0

    def test_closed_form_single_unit(self):
        # delta = 0, lam = 2, c1 = 1, x = 1  ->  (1 - e^-2)/2
        m = IntensityModel(horizon=1, rates=np.array([2.0]))
        val = table(base_params(T=1, delta=0.0), m).H[0, 1]
        assert val == pytest.approx((1 - np.exp(-2)) / 2, rel=1e-12)
        assert val == pytest.approx(0.43233235838169365, rel=1e-9)

    def test_no_demand_full_period(self):
        m = IntensityModel(horizon=1, rates=np.array([0.0]))
        assert table(base_params(T=1, delta=0.0), m).H[0, 3] == pytest.approx(3.0, rel=1e-12)

    def test_against_quadrature(self, base_model, base_kernels):
        p = base_params()
        for k, x in [(0, 1), (0, 7), (12, 3), (49, 2)]:
            assert base_kernels.H[k, x] == pytest.approx(
                quad_H(p, base_model, k, x), rel=1e-9
            )


class TestReplacementCost:
    def test_zero_when_no_penalty(self, base_model):
        kt = table(base_params(c2_bar=0.0, c3_bar=0.0), base_model)
        for k, x in [(0, 0), (5, 3), (49, 10)]:
            assert kt.L[k, x] == pytest.approx(0.0, abs=1e-15)

    def test_vanishes_for_large_inventory(self, base_kernels):
        assert base_kernels.L[0, 1200] < 1e-6 * base_kernels.L[0, 0]

    def test_all_arrivals_lost_at_zero_stock(self):
        # delta = gamma = 0, lam = 2, c2 = 1: every arrival lost -> cost 2
        m = IntensityModel(horizon=1, rates=np.array([2.0]))
        p = base_params(T=1, delta=0.0, gamma=0.0, c2_bar=1.0, c3_bar=0.0)
        assert table(p, m).L[0, 0] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("conv,upper_of", [(ARR, lambda x: x - 1), (PAP, lambda x: x)])
    def test_against_quadrature(self, base_model, conv, upper_of):
        p = base_params()
        kt = table(p, base_model, conv)
        for k, x in [(0, 0), (0, 4), (30, 2)]:
            assert kt.L[k, x] == pytest.approx(
                quad_L(p, base_model, k, x, upper_of(x)), rel=1e-9
            )

    def test_conventions_differ_by_one_term(self, base_kernels, base_kernels_paper):
        diff = base_kernels.L[3, 5] - base_kernels_paper.L[3, 5]
        assert diff > 0  # the paper-printed sum subtracts one extra term


class TestOnePeriodCost:
    def test_zero_case(self, base_model):
        assert table(base_params(c2_bar=0.0, c3_bar=0.0), base_model).C[0, 0] == 0.0

    def test_is_sum_of_kernels(self, base_kernels):
        kt = base_kernels
        for k, x in [(0, 0), (7, 11), (49, 120)]:
            assert kt.C[k, x] == pytest.approx(kt.H[k, x] + kt.L[k, x], rel=1e-15)


class TestStoppingCost:
    def test_terminal_is_scrap_only(self, base_kernels):
        assert stop_cost(base_kernels, 50, 10) == pytest.approx(250.0)

    def test_no_outside_source(self, base_model):
        kt = table(base_params(c3_bar=0.0), base_model)
        assert stop_cost(kt, 3, 7) == pytest.approx(7 * 25.0)

    def test_undiscounted_collapses_to_mean_demand(self, base_model):
        kt = table(base_params(delta=0.0, gamma=0.0), base_model)
        want = 25.0 * 4 + 200.0 * base_model.total_demand
        assert stop_cost(kt, 0, 4) == pytest.approx(want, rel=1e-12)

    def test_against_quadrature(self, base_model, base_kernels):
        p = base_params()
        k = 20
        tail = quad(
            lambda u: np.exp(-p.delta * (u - k)) * p.c3_bar * np.exp(-p.gamma * u)
            * base_model.rates[min(int(u), 49)],
            k, 50, epsabs=1e-10, epsrel=1e-12, limit=400,
            points=list(range(k, 51)),
        )[0]
        assert stop_cost(base_kernels, k, 6) == pytest.approx(25.0 * 6 + tail, rel=1e-8)


class TestReformulatedCost:
    def test_vanishes_without_premium(self, base_model):
        kt = table(base_params(c2_bar=0.0), base_model)
        assert kt.C_tilde[4, 0] == pytest.approx(0.0, abs=1e-15)

    def test_identity_with_one_period_cost(self, base_model, base_kernels):
        # C - C_tilde equals the period's outside-source integral
        p, kt = base_params(), base_kernels
        for k in (0, 13, 49):
            c3k = period_c3_term(p, base_model, k)
            for x in (0, 1, 2, 9, 40):
                assert kt.C[k, x] - kt.C_tilde[k, x] == pytest.approx(c3k, rel=1e-12)

    def test_paper_mode_identity_only_beyond_zero(self, base_model, base_kernels_paper):
        # the printed x = 0 special case follows the arrival accounting, so
        # under the paper-printed convention the identity breaks exactly there
        kt = base_kernels_paper
        c30 = period_c3_term(base_params(), base_model, 0)
        for x in (1, 3, 8):
            assert kt.C[0, x] - kt.C_tilde[0, x] == pytest.approx(c30, rel=1e-12)
        assert abs(kt.C[0, 0] - kt.C_tilde[0, 0] - c30) > 1e-6

    def test_base_case_x0_against_quadrature(self, base_model, base_kernels):
        # premium integral: int_0^1 e^{-delta u} (c2 - c3)(u) lam(u) du
        p = base_params()
        lam = base_model.rates[0]
        want = quad(lambda u: np.exp(-p.delta * u) * p.c2_bar * lam, 0, 1,
                    epsabs=1e-13, epsrel=1e-13)[0]
        assert base_kernels.C_tilde[0, 0] == pytest.approx(want, rel=1e-9)


class TestConstantA:
    def test_zero_without_outside_source(self, base_model):
        assert constant_A(base_params(c3_bar=0.0), base_model) == 0.0

    def test_undiscounted_total(self, base_model):
        p = base_params(delta=0.0, gamma=0.0)
        assert constant_A(p, base_model) == pytest.approx(200.0 * 500.0, rel=1e-9)


class TestKernelTable:
    @pytest.mark.parametrize("conv", [ARR, PAP])
    def test_clipped_table_matches_wider_table_at_edges(self, conv):
        # x_max = 30 clips the support cap of EDGE_MODEL's 40/period period;
        # x_max = 300 holds every cap, and its first 31 columns are the same
        p = base_params(T=4)
        kt = build_kernel_table(p, EDGE_MODEL, conv, x_max=30)
        wide = build_kernel_table(p, EDGE_MODEL, conv, x_max=300)
        for k in range(4):
            tol = dict(rel=1e-12, abs=1e-12 * max(1.0, kt.L[k, 0]))
            for name in ("H", "L", "C", "C_tilde"):
                assert getattr(kt, name)[k] == pytest.approx(
                    getattr(wide, name)[k, :31], **tol), (name, k)
            assert kt.c3_period[k] == pytest.approx(period_c3_term(p, EDGE_MODEL, k), rel=1e-12)
            n = len(kt.pmfs[k])
            np.testing.assert_allclose(kt.pmfs[k],
                                       poisson.pmf(np.arange(n), EDGE_MODEL.rates[k]),
                                       rtol=2e-13, atol=0)
        no_demand = p.c1 * np.arange(31) * (1.0 - np.exp(-p.delta)) / p.delta
        assert np.all(kt.L[0] == 0.0) and kt.H[0] == pytest.approx(no_demand, rel=1e-12)
        assert list(kt.pmfs[0]) == [1.0] and list(kt.pmf_tails[0]) == [0.0]
        assert kt.A == constant_A(p, EDGE_MODEL)
        with pytest.raises(ValueError, match="horizon"):
            constant_A(base_params(), EDGE_MODEL)

    def test_monotonicity_and_additivity(self, base_kernels):
        kt = base_kernels
        scale = kt.L[:, :1]  # per-period magnitude for tolerance
        assert np.all(np.diff(kt.H, axis=1) >= -1e-12)
        assert np.all(np.diff(kt.L, axis=1) <= 1e-12 * np.maximum(scale, 1.0))
        assert np.all(kt.H >= 0) and np.all(kt.L >= 0)
        assert np.allclose(kt.C, kt.H + kt.L, rtol=0, atol=0)
        assert np.all(kt.H[:, 0] == 0)
        assert np.all(kt.L[:, -1] < 1e-6 * kt.L[:, 0])

    def test_pmf_mass_accounted(self, base_kernels):
        for pmf, tail in zip(base_kernels.pmfs, base_kernels.pmf_tails):
            assert pmf.sum() + tail[-1] == pytest.approx(1.0, abs=1e-9)
            assert tail[-1] < 1e-11

    def test_huge_int_cost_is_read_as_a_float(self):
        # gamma as a Python int: kept as given, gamma * periods wrapped in
        # int64, c3(5) came out inf and C_tilde and the total NaN
        from eolstop import ModelSpec, solve

        params = base_params(T=6, gamma=1844674407370955162)
        assert type(params.gamma) is float
        kt = build_kernel_table(params, build_named_intensity("convex", 6, 60.0),
                                LostSalesConvention.ARRIVAL, x_max=60)
        assert np.isfinite(kt.C_tilde).all()
        assert np.isfinite(solve(ModelSpec.parse("D/inf/F"), kt, 0).total_cost)


class TestTailSumIdentity:
    def test_expected_surplus_matches_direct_expectation(self):
        # E[(x - N)^+] = sum_{n<x} P{N <= n}, against the truncated pmf
        for mu in (0.4, 3.0, 17.5):
            grid = np.arange(200)
            pmf = poisson.pmf(grid, mu)
            for x in range(21):
                direct = np.sum(np.maximum(x - grid, 0) * pmf)
                tail_sum = sum(poisson.cdf(n, mu) for n in range(x))
                assert direct == pytest.approx(tail_sum, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# kernel tables pinned bit for bit
# ---------------------------------------------------------------------------

KT_FIELDS = ("H", "L", "C", "C_tilde", "c3_period", "stop_tail", "A", "pmfs", "pmf_tails")
# "<setting id or edge>/<convention>" -> sha256 of "field sha256\n" over
# KT_FIELDS, each field as float64 bytes (pmf rows each followed by "|");
# settings at K = 0 and x_max 1200, the edge model at x_max 30
PINNED_TABLES = {
    "1/arrival": "22c53632eadce86013638d67e6b7153b9e29ae4f00f4468886c870497cc16bbb",
    "1/paper": "77c42dcd2f9f00f000cd64142cc86da03c2e9da3f3e91029b28712b55c6c7158",
    "62/arrival": "3fbe17b5d95aa957dee8e419ba09c832ebd9dcdcd509d6c861b72a7341cb6759",
    "62/paper": "11fe3517ffe1f51f29ab1289e9eecdbc265688a0a9b7ac7927a056018438a52f",
    "125/arrival": "5367fa09b63fd3e7538b5884d023aa077ad0eac3cec358ac4c11368685c59e92",
    "125/paper": "85e7a22b7b5c778c83ced94491b47c57878fa9078dc40a8c365eb6cd66c4af75",
    "edge/arrival": "a3a7dc475ea34267ea4c7fbe146a7f20e4c3639e42606d8c1d1641b15e056df6",
    "edge/paper": "567b3cade373db092d2f4ccdb4388871fb5ae25ae95b9bf1e551faebb71152a5",
}


def _table_digest(kt):
    import hashlib

    def field_bytes(name):
        v = getattr(kt, name)
        if name in ("pmfs", "pmf_tails"):
            return b"".join(np.asarray(r, dtype=np.float64).tobytes() + b"|" for r in v)
        return np.asarray(v, dtype=np.float64).tobytes()

    listing = "".join(f"{n} {hashlib.sha256(field_bytes(n)).hexdigest()}\n" for n in KT_FIELDS)
    return hashlib.sha256(listing.encode()).hexdigest(), listing


@pytest.mark.parametrize("case", sorted(PINNED_TABLES))
def test_kernel_table_is_pinned(case):
    from eolstop.settings import setting_cost_params, setting_from_id, setting_intensity

    name, conv = case.split("/")
    conv = LostSalesConvention(conv)
    if name == "edge":
        kt = build_kernel_table(base_params(T=4), EDGE_MODEL, conv, x_max=30)
    else:
        s = setting_from_id(int(name))
        kt = build_kernel_table(setting_cost_params(s, 0.0), setting_intensity(s), conv, x_max=1200)
    digest, listing = _table_digest(kt)
    assert digest == PINNED_TABLES[case], listing


def test_cost_rates_follow_the_exponential_family():
    p = base_params(c2_bar=7.0, c3_bar=50.0, gamma=0.1)
    u = np.array([0.0, 2.5, 40.0])
    assert np.array_equal(p.c3(u), 50.0 * np.exp(-0.1 * u))
    assert np.array_equal(p.c2(u), 7.0 + p.c3(u))
    assert p.c3(0.0) == 50.0


def test_tables_on_one_model_share_read_only_pmf_rows():
    model = build_named_intensity("convex", 50, 500.0)
    a = build_kernel_table(base_params(), model, ARR, x_max=300)
    b = build_kernel_table(base_params(c4=-25.0, delta=1e-6), model, PAP, x_max=600)
    for rows_a, rows_b in ((a.pmfs, b.pmfs), (a.pmf_tails, b.pmf_tails)):
        assert len(rows_a) == 50 and all(ra is rb for ra, rb in zip(rows_a, rows_b))
        assert not any(r.flags.writeable for r in rows_a)
    with pytest.raises(ValueError):
        a.pmfs[3][0] = 0.0


def test_original_form_rows_are_derived_on_first_use(base_model):
    from eolstop import kernels_with_K, solve_values
    from eolstop.solver import ModelSpec

    kt = build_kernel_table(base_params(), base_model, ARR, x_max=300)
    solve_values(ModelSpec.parse("D/inf/F"), [kt], [0.0, 1000.0])
    assert "_original_rows" not in vars(kt)  # the reformulated pass reads only C_tilde
    H, L, C = kt.H, kt.L, kt.C
    assert kt.H is H and np.array_equal(C, H + L)
    other = kernels_with_K(kt, 1000.0)  # K-free rows come along with the table
    assert other.params.K == 1000.0 and other.C is C and other.L is L


def test_unit_poisson_rows_equal_the_full_rectangle_formula():
    # the rows keep only the cells i <= imax[k]; the full-rectangle formula,
    # one tail row per rate and zeroed past each cap, must come out bit for
    # bit the same
    from eolstop import _poisson

    rng = np.random.default_rng(3)
    for decay in (0.0, 0.005, 0.015):
        rates = np.append(rng.uniform(0.0, 60.0, size=30), 0.0)
        rng.shuffle(rates)
        imax = rng.integers(0, 120, size=len(rates))
        i = np.arange(imax.max() + 1)
        want = np.zeros((len(rates), len(i)))
        pos = rates > 0
        lam = rates[pos, None]
        b = decay + lam
        ratio = np.exp(i * (np.log(lam) - np.log(b)))
        tail = _poisson.tail_rows(b[:, 0], len(i) - 1)[1]
        want[pos] = np.where(i <= imax[pos, None], ratio * tail / b, 0.0)
        want[~pos, 0] = (1.0 - np.exp(-decay)) / decay if decay > 0 else 1.0
        assert np.array_equal(_unit_poisson_rows(rates, decay, imax), want)


class TestKernelTables:
    """``build_kernel_tables`` against one ``build_kernel_table`` per set."""

    def assert_tables_equal(self, got, want):
        assert len(got) == len(want)
        assert all("_original_rows" not in vars(kt) for kt in got)  # H, L, C wait for first use
        for g, w in zip(got, want):
            assert g.params == w.params and g.x_max == w.x_max and g.convention is w.convention
            for f in ("C_tilde", "c3_period", "stop_tail", "A", "H", "L", "C"):
                assert np.array_equal(getattr(g, f), getattr(w, f)), f

    @pytest.mark.parametrize("conv", [ARR, PAP])
    @pytest.mark.parametrize("first, last", [(1, 8), (9, 16), (113, 128)])
    def test_equal_to_one_build_per_setting(self, first, last, conv):
        from eolstop.settings import setting_cost_params, setting_from_id, setting_intensity

        chosen = [setting_from_id(sid) for sid in range(first, last + 1)]
        model = setting_intensity(chosen[0])
        params = [setting_cost_params(s, 0.0) for s in chosen]
        got = build_kernel_tables(params, model, conv, x_max=1200)
        want = [build_kernel_table(p, model, conv, x_max=1200) for p in params]
        self.assert_tables_equal(got, want)

    @pytest.mark.parametrize("conv", [ARR, PAP])
    def test_mixed_holding_rates_in_input_order(self, conv):
        # (delta, c1) runs interleaved, a repeated set, and a zero-rate period
        params = [base_params(T=4, **kw) for kw in (
            dict(c1=1.0), dict(c1=3.0, gamma=0.0), dict(c1=1.0, delta=0.02),
            dict(c1=1.0, c2_bar=900.0), dict(c1=3.0), dict(c1=1.0))]
        got = build_kernel_tables(params, EDGE_MODEL, conv, x_max=30)
        want = [build_kernel_table(p, EDGE_MODEL, conv, x_max=30) for p in params]
        self.assert_tables_equal(got, want)

    def test_input_checks(self, base_model):
        with pytest.raises(ValueError, match="horizon"):
            build_kernel_tables([base_params(), base_params(T=4)], base_model)
        with pytest.raises(ValueError):
            build_kernel_tables([base_params()], base_model, x_max=0)
        assert build_kernel_tables([], base_model) == []
