import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson

from eolstop import (
    CostParameters,
    IntensityModel,
    LostSalesConvention,
    OutOfGrid,
    build_kernel_table,
    build_named_intensity,
    constant_A,
    holding_cost,
    one_period_cost,
    reformulated_cost,
    replacement_cost,
    stopping_cost,
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
    def test_zero_inventory(self, base_model):
        p = base_params()
        for k in (0, 17, 49):
            assert holding_cost(p, base_model, k, 0) == 0.0

    def test_closed_form_single_unit(self):
        # delta = 0, lam = 2, c1 = 1, x = 1  ->  (1 - e^-2)/2
        m = IntensityModel(horizon=1, rates=np.array([2.0]))
        p = base_params(T=1, delta=0.0)
        val = holding_cost(p, m, 0, 1)
        assert val == pytest.approx((1 - np.exp(-2)) / 2, rel=1e-12)
        assert val == pytest.approx(0.43233235838169365, rel=1e-9)

    def test_no_demand_full_period(self):
        m = IntensityModel(horizon=1, rates=np.array([0.0]))
        p = base_params(T=1, delta=0.0)
        assert holding_cost(p, m, 0, 3) == pytest.approx(3.0, rel=1e-12)

    def test_against_quadrature(self, base_model):
        p = base_params()
        for k, x in [(0, 1), (0, 7), (12, 3), (49, 2)]:
            assert holding_cost(p, base_model, k, x) == pytest.approx(
                quad_H(p, base_model, k, x), rel=1e-9
            )

    def test_out_of_grid(self, base_model):
        with pytest.raises(OutOfGrid):
            holding_cost(base_params(), base_model, 50, 1)


class TestReplacementCost:
    def test_zero_when_no_penalty(self, base_model):
        p = base_params(c2_bar=0.0, c3_bar=0.0)
        for k, x in [(0, 0), (5, 3), (49, 10)]:
            assert replacement_cost(p, base_model, ARR, k, x) == pytest.approx(0.0, abs=1e-15)

    def test_vanishes_for_large_inventory(self, base_model):
        p = base_params()
        l0 = replacement_cost(p, base_model, ARR, 0, 0)
        assert replacement_cost(p, base_model, ARR, 0, 1200) < 1e-6 * l0

    def test_all_arrivals_lost_at_zero_stock(self):
        # delta = gamma = 0, lam = 2, c2 = 1: every arrival lost -> cost 2
        m = IntensityModel(horizon=1, rates=np.array([2.0]))
        p = base_params(T=1, delta=0.0, gamma=0.0, c2_bar=1.0, c3_bar=0.0)
        assert replacement_cost(p, m, ARR, 0, 0) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("conv,upper_of", [(ARR, lambda x: x - 1), (PAP, lambda x: x)])
    def test_against_quadrature(self, base_model, conv, upper_of):
        p = base_params()
        for k, x in [(0, 0), (0, 4), (30, 2)]:
            assert replacement_cost(p, base_model, conv, k, x) == pytest.approx(
                quad_L(p, base_model, k, x, upper_of(x)), rel=1e-9
            )

    def test_conventions_differ_by_one_term(self, base_model):
        p = base_params()
        diff = replacement_cost(p, base_model, ARR, 3, 5) - replacement_cost(p, base_model, PAP, 3, 5)
        assert diff > 0  # the paper-printed sum subtracts one extra term


class TestOnePeriodCost:
    def test_zero_case(self, base_model):
        p = base_params(c2_bar=0.0, c3_bar=0.0)
        assert one_period_cost(p, base_model, ARR, 0, 0) == 0.0

    def test_is_sum_of_kernels(self, base_model):
        p = base_params()
        for k, x in [(0, 0), (7, 11), (49, 120)]:
            assert one_period_cost(p, base_model, ARR, k, x) == pytest.approx(
                holding_cost(p, base_model, k, x)
                + replacement_cost(p, base_model, ARR, k, x),
                rel=1e-15,
            )


class TestStoppingCost:
    def test_terminal_is_scrap_only(self, base_model):
        p = base_params()
        assert stopping_cost(p, base_model, 50, 10) == pytest.approx(250.0)

    def test_no_outside_source(self, base_model):
        p = base_params(c3_bar=0.0)
        assert stopping_cost(p, base_model, 3, 7) == pytest.approx(7 * 25.0)

    def test_undiscounted_collapses_to_mean_demand(self, base_model):
        p = base_params(delta=0.0, gamma=0.0)
        want = 25.0 * 4 + 200.0 * base_model.total_demand
        assert stopping_cost(p, base_model, 0, 4) == pytest.approx(want, rel=1e-12)

    def test_against_quadrature(self, base_model):
        p = base_params()
        k = 20
        tail = quad(
            lambda u: np.exp(-p.delta * (u - k)) * p.c3_bar * np.exp(-p.gamma * u)
            * base_model.rates[min(int(u), 49)],
            k, 50, epsabs=1e-10, epsrel=1e-12, limit=400,
            points=list(range(k, 51)),
        )[0]
        assert stopping_cost(p, base_model, k, 6) == pytest.approx(25.0 * 6 + tail, rel=1e-8)


class TestReformulatedCost:
    def test_vanishes_without_premium(self, base_model):
        p = base_params(c2_bar=0.0)
        assert reformulated_cost(p, base_model, ARR, 4, 0) == pytest.approx(0.0, abs=1e-15)

    def test_identity_with_one_period_cost(self, base_model):
        # C - C_tilde equals the period's outside-source integral
        p = base_params()
        for k in (0, 13, 49):
            c3k = period_c3_term(p, base_model, k)
            for x in (0, 1, 2, 9, 40):
                lhs = one_period_cost(p, base_model, ARR, k, x) - reformulated_cost(
                    p, base_model, ARR, k, x
                )
                assert lhs == pytest.approx(c3k, rel=1e-12)

    def test_paper_mode_identity_only_beyond_zero(self, base_model):
        # the printed x = 0 special case follows the arrival accounting, so
        # under the paper-printed convention the identity breaks exactly there
        p = base_params()
        c30 = period_c3_term(p, base_model, 0)
        for x in (1, 3, 8):
            lhs = one_period_cost(p, base_model, PAP, 0, x) - reformulated_cost(
                p, base_model, PAP, 0, x
            )
            assert lhs == pytest.approx(c30, rel=1e-12)
        mismatch = one_period_cost(p, base_model, PAP, 0, 0) - reformulated_cost(
            p, base_model, PAP, 0, 0
        )
        assert abs(mismatch - c30) > 1e-6

    def test_base_case_x0_against_quadrature(self, base_model):
        # premium integral: int_0^1 e^{-delta u} (c2 - c3)(u) lam(u) du
        p = base_params()
        lam = base_model.rates[0]
        want = quad(lambda u: np.exp(-p.delta * u) * p.c2_bar * lam, 0, 1,
                    epsabs=1e-13, epsrel=1e-13)[0]
        assert reformulated_cost(p, base_model, ARR, 0, 0) == pytest.approx(want, rel=1e-9)


class TestConstantA:
    def test_zero_without_outside_source(self, base_model):
        assert constant_A(base_params(c3_bar=0.0), base_model) == 0.0

    def test_undiscounted_total(self, base_model):
        p = base_params(delta=0.0, gamma=0.0)
        assert constant_A(p, base_model) == pytest.approx(200.0 * 500.0, rel=1e-9)


class TestKernelTable:
    def test_matches_direct_evaluation(self, base_model):
        p = base_params()
        for conv in (ARR, PAP):
            kt = build_kernel_table(p, base_model, conv, x_max=300)
            rng = np.random.default_rng(5)
            for _ in range(25):
                k = int(rng.integers(0, 50))
                x = int(rng.integers(0, 301))
                # 1e-12 relative to the kernel's natural scale
                tol = dict(rel=1e-12, abs=1e-12 * max(1.0, kt.L[k, 0]))
                assert kt.H[k, x] == pytest.approx(holding_cost(p, base_model, k, x), **tol)
                assert kt.L[k, x] == pytest.approx(
                    replacement_cost(p, base_model, conv, k, x), **tol)
                assert kt.C_tilde[k, x] == pytest.approx(
                    reformulated_cost(p, base_model, conv, k, x), **tol)
            assert kt.A == pytest.approx(constant_A(p, base_model), rel=1e-12)
            assert kt.stop_tail[17] == pytest.approx(
                stopping_cost(p, base_model, 17, 0), rel=1e-12)

    @pytest.mark.parametrize("conv", [ARR, PAP])
    def test_every_cell_matches_point_functions_at_edges(self, conv):
        # a zero-rate period, and x_max below the support cap of the 40/period one
        model = IntensityModel(horizon=4, rates=np.array([0.0, 3.0, 40.0, 0.5]))
        p = base_params(T=4)
        kt = build_kernel_table(p, model, conv, x_max=30)
        for k in range(4):
            tol = dict(rel=1e-12, abs=1e-12 * max(1.0, kt.L[k, 0]))
            for x in range(31):
                assert kt.H[k, x] == pytest.approx(holding_cost(p, model, k, x), **tol)
                assert kt.L[k, x] == pytest.approx(replacement_cost(p, model, conv, k, x), **tol)
                assert kt.C_tilde[k, x] == pytest.approx(
                    reformulated_cost(p, model, conv, k, x), **tol)
            assert kt.c3_period[k] == pytest.approx(period_c3_term(p, model, k), rel=1e-12)
            assert kt.stop_tail[k] == pytest.approx(stopping_cost(p, model, k, 0), rel=1e-12)
            n = len(kt.pmfs[k])
            assert np.array_equal(kt.pmfs[k], poisson.pmf(np.arange(n), model.rates[k]))
        no_demand = p.c1 * np.arange(31) * (1.0 - np.exp(-p.delta)) / p.delta
        assert np.all(kt.L[0] == 0.0) and kt.H[0] == pytest.approx(no_demand, rel=1e-12)
        assert list(kt.pmfs[0]) == [1.0] and list(kt.pmf_tails[0]) == [0.0]

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
# values recorded before the point kernels became rows of the table builder
# ---------------------------------------------------------------------------

EDGE_MODEL = IntensityModel(horizon=4, rates=np.array([0.0, 3.0, 40.0, 0.5]))
KT_FIELDS = ("H", "L", "C", "C_tilde", "c3_period", "stop_tail", "A", "pmfs", "pmf_tails")
# "<setting id or edge>/<convention>" -> sha256 of "field sha256\n" over
# KT_FIELDS, each field as float64 bytes (pmf rows each followed by "|");
# settings at K = 0 and x_max 1200, the edge model at x_max 30
PINNED_TABLES = {
    "1/arrival": "0f115300d7fda4d0c3676fb2618e6c7d476a1c1fb771bccab9cf00d7af755216",
    "1/paper": "79defecdd9a0896a461dc4181729ae6512c0758a42cfacd8c9d7429fb40d12a8",
    "62/arrival": "11b98eaeaec296852fb130e28084a7c8b884d4660e823c3e09dd49802e560c09",
    "62/paper": "c5dc98f86bc98115f5c79d0a36954f877ff4d6e1d8ccb93d17e46155c5dec8f7",
    "125/arrival": "121c26949713e3719992c685585526b7f4cd3d1336b296eaf03b31eda1a024bb",
    "125/paper": "86c716866a011e2c8e8a9f30f5d6d19bb1849821b49f19be8fc15827ccc0f436",
    "edge/arrival": "f76455c9a4652b61707d8a7977132c73774368f270e95f5655faa5d9f7378905",
    "edge/paper": "c96ddbad8592a97b6b6ed52a5bde9c69ef4489f10a68ac13a62f0a480b15dab2",
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


# every point kernel as f(params, model, k, x)
POINT_KERNELS = {
    "H": holding_cost,
    "L/arrival": lambda p, m, k, x: replacement_cost(p, m, ARR, k, x),
    "L/paper": lambda p, m, k, x: replacement_cost(p, m, PAP, k, x),
    "C/arrival": lambda p, m, k, x: one_period_cost(p, m, ARR, k, x),
    "C/paper": lambda p, m, k, x: one_period_cost(p, m, PAP, k, x),
    "Ct/arrival": lambda p, m, k, x: reformulated_cost(p, m, ARR, k, x),
    "Ct/paper": lambda p, m, k, x: reformulated_cost(p, m, PAP, k, x),
    "S": stopping_cost,
}
# (model, k) -> x -> POINT_KERNELS values in order
HUGE_X = {
    ("base", 0): {
        10**6: (997479.1155598711, 0.0, 0.0, 997479.1155598711, 997479.1155598711,
                987502.3238199952, 987502.3238199952, 25087765.15847341),
        10**9: (997504136.4176334, 0.0, 0.0, 997504136.4176334, 997504136.4176334,
                997494159.6258936, 997494159.6258936, 25000087765.158474),
    },
    ("base", 49): {
        10**6: (997504.0180402512, 0.0, 0.0, 997504.0180402512, 997504.0180402512,
                997469.0179170527, 997469.0179170527, 25000035.0001232),
        10**9: (997504161.3201139, 0.0, 0.0, 997504161.3201139, 997504161.3201139,
                997504126.3199906, 997504126.3199906, 25000000035.000122),
    },
    ("edge", 0): {
        10**6: (997504.161463536, 0.0, 0.0, 997504.161463536, 997504.161463536,
                997504.161463536, 997504.161463536, 25008387.170145392),
        10**9: (997504161.463536, 0.0, 0.0, 997504161.463536, 997504161.463536,
                997504161.463536, 997504161.463536, 25000008387.170147),
    },
    ("edge", 2): {
        10**6: (997484.2280053657, 4.3655745685100555e-11, 4.3655745685100555e-11,
                997484.2280053657, 997484.2280053657, 989701.1575791318, 989701.1575791318,
                25007878.91037128),
        10**9: (997504141.5300744, 4.3655745685100555e-11, 4.3655745685100555e-11,
                997504141.5300744, 997504141.5300744, 997496358.4596481, 997496358.4596481,
                25000007878.91037),
    },
}


@pytest.mark.parametrize("case", sorted(HUGE_X))
def test_point_kernels_at_huge_inventory(case, base_model):
    name, k = case
    p, m = (base_params(), base_model) if name == "base" else (base_params(T=4), EDGE_MODEL)
    # 1e-12 relative, or of the period's lost-sales scale where L is rounding noise
    atol = 1e-12 * max(1.0, replacement_cost(p, m, ARR, k, 0))
    for x, want in HUGE_X[case].items():
        for (kernel, f), w in zip(POINT_KERNELS.items(), want):
            assert f(p, m, k, x) == pytest.approx(w, rel=1e-12, abs=atol), (kernel, x)


@pytest.mark.parametrize("kernel", sorted(POINT_KERNELS))
def test_point_kernel_input_checks(kernel, base_model):
    f = POINT_KERNELS[kernel]
    p = base_params()
    past = p.horizon + 1 if kernel == "S" else p.horizon  # S(k, x) is defined at k = T
    for k, x in [(-1, 1), (past, 1), (0, -1)]:
        with pytest.raises(OutOfGrid):
            f(p, base_model, k, x)
    with pytest.raises(ValueError):
        f(base_params(T=4), base_model, 0, 1)


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
        tail = _poisson.tail_rows(b[:, 0], len(i) - 1)
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
