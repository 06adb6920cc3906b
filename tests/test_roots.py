import math

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from diskmag import crossings, degennes, roots, spectrum
from diskmag.crossings import crossing_by_curves, crossing_by_phi
from diskmag.degennes import minimize_theta0
from diskmag.derivatives import conjecture_scan
from diskmag.errors import BracketFailure, InvalidParams, NonConvergence
from diskmag.roots import RTOL, brent_root
from diskmag.spectrum import lowest_eigenvalue


def counted(f):
    """f with a count of its calls in .calls."""
    def g(x):
        g.calls += 1
        return f(x)
    g.calls = 0
    return g


def assert_same_as_brentq(f, a, b, xtol) -> float | None:
    """brent_root and scipy's brentq give the same float from the same
    number of function evaluations, or both stop at the iteration cap."""
    ours, theirs = counted(f), counted(f)
    try:
        expected = brentq(theirs, a, b, xtol=xtol, rtol=RTOL)
    except RuntimeError:  # brentq: not converged in 100 iterations
        with pytest.raises(NonConvergence, match="100 iterations"):
            brent_root(ours, a, b, xtol=xtol)
        assert ours.calls == theirs.calls
        return None
    root = brent_root(ours, a, b, xtol=xtol)
    assert type(root) is float
    assert root == expected
    assert ours.calls == theirs.calls
    return root


@pytest.fixture
def recorded(monkeypatch):
    """Record every brent_root call of the solver modules: (f, a, b, xtol,
    root); each known end value passed on must be f at that end, bit for bit."""
    calls = []

    def recording(f, a, b, xtol, fa=None, fb=None):
        for x, fx in ((a, fa), (b, fb)):
            assert fx is None or fx.hex() == float(f(x)).hex()
        root = brent_root(f, a, b, xtol=xtol, fa=fa, fb=fb)
        calls.append((f, a, b, xtol, root))
        return root

    for module in (spectrum, crossings, degennes):
        monkeypatch.setattr(module, "brent_root", recording)
    return calls


class TestMatchesBrentq:
    @pytest.mark.parametrize("n,beta", [(5, 40.0), (20, 0.5), (400, 10.0)])
    def test_eta_residual(self, n, beta, recorded):
        # beta <= 2n solves in eta; beta > 2n, as at (5, 40), in u = ln nu
        point = spectrum._lowest_eigenvalue_cached.__wrapped__(n, beta)
        [(f, a, b, xtol, root)] = recorded
        assert xtol == 1e-100
        assert assert_same_as_brentq(f, a, b, xtol) == root
        if beta > 2 * n:
            assert point.nu == math.exp(root)
            assert point.eta == 1.0 - 2.0 * point.nu
        else:
            assert root == point.eta

    @pytest.mark.parametrize("n", [3, 50])
    def test_crossing_gap_and_phi(self, n, recorded):
        by_curves, by_phi = crossing_by_curves(n), crossing_by_phi(n)
        gap, phi = [call for call in recorded if call[0].__name__ in ("gap", "phi")]
        for f, a, b, xtol, root in (gap, phi):
            assert assert_same_as_brentq(f, a, b, xtol) == root
        assert by_curves.beta_n == gap[4]
        assert by_phi.eta_star == 1.0 - 2.0 * phi[4]

    def test_degennes_stationarity(self, recorded):
        constants = minimize_theta0.__wrapped__()
        [(f, a, b, xtol, root)] = recorded
        assert xtol == 1e-12
        assert assert_same_as_brentq(f, a, b, xtol) == root == constants.xi0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=1e-3, max_value=4.0),
           st.floats(min_value=1e-3, max_value=4.0),
           st.sampled_from(["cubic", "tanh", "exp", "scaled"]),
           st.floats(min_value=0.05, max_value=50.0),
           st.sampled_from([1e-100, 1e-12, 2e-12, 1e-6]))
    # a root at 0 with xtol 1e-100 needs more than 100 steps: both give up
    @example(0.0, 1.90625, 0.001, "scaled", 17.5, 1e-100)
    def test_smooth_monotone_functions(self, root, left, right, kind, slope,
                                       xtol):
        f = {"cubic": lambda x: (x - root) ** 3 + slope * (x - root),
             "tanh": lambda x: math.tanh(slope * (x - root)),
             "exp": lambda x: math.expm1(slope * (x - root)),
             "scaled": lambda x: 1e-200 * math.atan(slope * (x - root))}[kind]
        assert_same_as_brentq(f, root - left, root + right, xtol)


@pytest.mark.parametrize("solve", [
    lambda: spectrum._lowest_eigenvalue_cached.__wrapped__(5, 40.0),
    lambda: spectrum._lowest_eigenvalue_cached.__wrapped__(20, 0.5),
    lambda: spectrum._lowest_eigenvalue_cached.__wrapped__(400, 10.0),
    lambda: crossings.crossing_by_system(3)],
    ids=["log_nu", "eta_walk_20", "eta_walk_400", "system"])
def test_solvers_evaluate_no_residual_twice(solve, monkeypatch):
    # the bracket ends reach brent_root as values, and the crossing
    # system's last residuals reach the CrossingPoint
    seen = []

    def recording(original):
        def residual(*args):
            seen.append(args)
            return original(*args)
        return residual

    monkeypatch.setattr(spectrum, "boundary_residual",
                        recording(spectrum.boundary_residual))
    monkeypatch.setattr(crossings, "neumann_residual",
                        recording(crossings.neumann_residual))
    solve()
    assert seen and len(set(seen)) == len(seen)


@pytest.mark.parametrize("module,solve", [
    (spectrum, lambda: spectrum._lowest_eigenvalue_cached.__wrapped__(5, 40.0)),
    (crossings, lambda: crossing_by_phi(3)),
    (crossings, lambda: crossing_by_curves(3))], ids=["log_nu", "phi", "curves"])
def test_bracket_ends_reach_brent_root(module, solve, monkeypatch):
    # Brent itself may evaluate an interior point twice, as brentq does
    # in crossing_by_phi(3); the ends it is given it never evaluates
    given = []

    def recording(f, a, b, xtol, fa=None, fb=None):
        given.append((fa, fb))
        return brent_root(f, a, b, xtol=xtol, fa=fa, fb=fb)

    monkeypatch.setattr(module, "brent_root", recording)
    solve()
    assert given and None not in given[0]


class TestKnownValues:
    """fa and fb stand in for f(a) and f(b) and change no step."""

    @pytest.mark.parametrize("fa,fb", [(math.nan, None), (None, math.nan)])
    def test_nan_value_given(self, fa, fb):
        with pytest.raises(NonConvergence, match="NaN"):
            brent_root(lambda x: x - 0.5, 0.0, 1.0, xtol=1e-12, fa=fa, fb=fb)

    def test_same_sign_values_given(self):
        # f itself changes sign on [0, 1]; the given values decide
        with pytest.raises(BracketFailure):
            brent_root(lambda x: x - 0.5, 0.0, 1.0, xtol=1e-12, fa=1.0, fb=2.0)

    @pytest.mark.parametrize("give_a,give_b", [(True, False), (False, True),
                                               (True, True)])
    @pytest.mark.parametrize("f,a,b", [
        (lambda x: math.tanh(3.0 * (x - 0.3)), 0.0, 1.0),
        (lambda x: x ** 3 - 2.0, -1.0, 4.0),
        (lambda x: 1e-200 * math.atan(x - 1.7), -5.0, 2.0)],
        ids=["tanh", "cubic", "scaled"])
    def test_saves_exactly_those_calls(self, f, a, b, give_a, give_b):
        theirs, ours = counted(f), counted(f)
        expected = brentq(theirs, a, b, xtol=1e-100, rtol=RTOL)
        root = brent_root(ours, a, b, xtol=1e-100, fa=f(a) if give_a else None,
                          fb=f(b) if give_b else None)
        assert root == expected
        assert ours.calls == theirs.calls - give_a - give_b


class TestFailures:
    def test_same_sign_bracket(self):
        with pytest.raises(BracketFailure):
            brent_root(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)

    @pytest.mark.parametrize("nan_at", [0.0, 1.0, 0.5])
    def test_nan_value(self, nan_at):
        # 0.5 is the first interior trial point, a bisection step
        def f(x):
            return math.nan if x == nan_at else x - 0.5
        with pytest.raises(NonConvergence, match="NaN"):
            brent_root(f, 0.0, 1.0, xtol=1e-12)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(roots, "_MAX_ITER", 3)
        f = counted(lambda x: math.tanh(x - 0.3))
        with pytest.raises(NonConvergence, match="3 iterations"):
            brent_root(f, 0.0, 1.0, xtol=1e-100)
        assert f.calls == 2 + 3

    @pytest.mark.parametrize("xtol", [0.0, -1e-12])
    def test_rejects_tolerances_brentq_rejects(self, xtol):
        with pytest.raises(InvalidParams):
            brent_root(lambda x: x, -1.0, 1.0, xtol=xtol)

    def test_root_at_bracket_end(self):
        assert brent_root(lambda x: x - 2.0, 2.0, 5.0, xtol=1e-12) == 2.0
        assert brent_root(lambda x: x - 5.0, 2.0, 5.0, xtol=1e-12) == 5.0


def test_results_are_plain_python_types(constants):
    # an np.float64 root makes ScanItem.passed an np.bool_, which
    # json.dumps refuses in the conjectures command
    report = conjecture_scan([1.0, 2.0, 3.0], 400, constants.theta0)
    assert all(type(item.passed) is bool for item in report.items)
    assert type(lowest_eigenvalue(5, 40.0).eta) is float
    assert type(lowest_eigenvalue(20, 0.5).eta) is float
    assert type(crossing_by_phi(3).beta_n) is float
    assert type(minimize_theta0().xi0) is float
