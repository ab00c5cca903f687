import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damped_szego import hankel
from damped_szego.errors import InvalidMatrixError, TruncationError
from damped_szego.hankel import (
    KSpectrum,
    Verdict,
    eigenvalues,
    explosion_criterion,
    f_functional,
    gram_h,
    gram_k,
    k_spectrum,
    tail_mass,
)
from damped_szego.hardy import HardyState, l2_norm_sq, momentum
from damped_szego.initial_conditions import blaschke_state, circle_state, pole_state
from damped_szego.presets import spectrum_report
from damped_szego.wmanifold import WState, w_to_hardy
from helpers import char_poly_eigenvalues, criterion, random_hermitian


def make_spectrum(values, mults=None):
    values = np.asarray(values, dtype=float)
    mults = np.ones(len(values), dtype=int) if mults is None else np.asarray(mults)
    return KSpectrum(values, mults, cluster_tol=1e-8, rank_cutoff=0.0)


# --- Gram matrices ---------------------------------------------------------

def test_gram_h_circle():
    c = 1.5 - 0.5j
    u = circle_state(c, 32)
    a = gram_h(u, 8)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[1, 1] = abs(c) ** 2
    assert np.max(np.abs(a - expected)) < 1e-14
    assert np.trace(a).real == pytest.approx(2 * abs(c) ** 2, rel=1e-14)


def test_gram_zero_state():
    u = HardyState(np.zeros(16, dtype=complex), 32)
    assert np.max(np.abs(gram_h(u, 8))) == 0.0
    assert np.max(np.abs(gram_k(u, 8))) == 0.0


def test_gram_h_trace_identity_single_pole():
    u = pole_state(0.5, 256)
    a = gram_h(u, 64)
    assert np.trace(a).real == pytest.approx(28.0 / 9.0, rel=1e-10)
    assert np.trace(a).real == pytest.approx(l2_norm_sq(u) + momentum(u), rel=1e-10)


def test_gram_k_circle_rank_one():
    c = 2.0 + 1.0j
    u = circle_state(c, 32)
    b = gram_k(u, 8)
    assert b[0, 0] == pytest.approx(abs(c) ** 2, rel=1e-14)
    assert np.sum(np.abs(b)) == pytest.approx(abs(c) ** 2, rel=1e-14)


def test_gram_k_constant_symbol_is_zero():
    u = HardyState(np.r_[2.5 + 0j, np.zeros(15, complex)], 32)
    assert np.max(np.abs(gram_k(u, 8))) == 0.0


def test_gram_k_trace_is_momentum():
    u = pole_state(0.5, 256)
    assert np.trace(gram_k(u, 64)).real == pytest.approx(momentum(u), rel=1e-10)
    assert np.trace(gram_k(u, 64)).real == pytest.approx(16.0 / 9.0, rel=1e-10)


def test_gram_size_validation():
    u = pole_state(0.5, 32)
    with pytest.raises(TruncationError):
        gram_h(u, 17)
    with pytest.raises(TruncationError):
        gram_k(u, 100)


def test_tail_mass():
    u = pole_state(0.5, 64)
    k = np.arange(8, 32)
    expected = np.sum((k + 1) * 0.25 ** (k - 1))
    assert tail_mass(u, 8) == pytest.approx(expected, rel=1e-12)


# --- eigenvalue solver -----------------------------------------------------

def test_eigenvalues_diagonal():
    assert np.array_equal(eigenvalues(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])


def test_eigenvalues_2x2_closed_form():
    got = eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(got, [3.0, 1.0], atol=1e-14)


def test_eigenvalues_rejects_non_hermitian():
    with pytest.raises(InvalidMatrixError):
        eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidMatrixError):
        eigenvalues(np.ones((2, 3)))


def test_eigenvalues_deterministic(rng):
    m = random_hermitian(rng, 6)
    assert np.array_equal(eigenvalues(m), eigenvalues(m.copy()))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eigenvalues_against_char_poly_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        m = random_hermitian(rng, n)
        got = eigenvalues(m)
        want = char_poly_eigenvalues(m)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


def test_gram_k_single_pole_eigenvalue():
    u = pole_state(0.5, 256)
    evals = eigenvalues(gram_k(u, 64))
    assert evals[0] == pytest.approx(16.0 / 9.0, rel=1e-10)
    assert abs(evals[1]) < 1e-12


# --- clustered spectrum ----------------------------------------------------

def test_k_spectrum_circle():
    spec = k_spectrum(circle_state(1.3, 64), size=16)
    assert len(spec) == 1
    assert spec.multiplicities[0] == 1
    assert spec.distinct_eigenvalues[0] == pytest.approx(1.3**2, rel=1e-12)


def test_k_spectrum_blaschke_degree_two():
    u = blaschke_state([0.3, 0.5], 512)
    spec = k_spectrum(u, size=128)
    assert len(spec) == 1
    assert spec.multiplicities[0] == 2
    assert spec.has_degenerate_cluster
    assert spec.distinct_eigenvalues[0] == pytest.approx(1.0, abs=1e-10)


def test_k_spectrum_zero_state():
    spec = k_spectrum(HardyState(np.zeros(16, complex), 32), size=8)
    assert len(spec) == 0


def test_k_spectrum_two_poles_rank_two():
    coeffs = np.zeros(512, dtype=complex)
    k = np.arange(511)
    coeffs[1:] = 0.7**k + 0.8**k
    spec = k_spectrum(HardyState(coeffs, 1024), size=256)
    assert len(spec) == 2
    assert list(spec.multiplicities) == [1, 1]
    assert spec.distinct_eigenvalues.sum() == pytest.approx(
        momentum(HardyState(coeffs, 1024)), rel=1e-9
    )


# --- F functional and verdicts ---------------------------------------------

def test_f_functional_values():
    assert f_functional(make_spectrum([5.0, 3.0, 2.0])) == 4.0
    assert f_functional(make_spectrum([1.0])) == 1.0
    assert f_functional(make_spectrum([4.0, 1.0])) == 3.0


def test_f_ignores_multiplicities():
    assert f_functional(make_spectrum([2.0, 1.0], mults=[3, 2])) == 1.0


def test_f_single_pole():
    spec = k_spectrum(pole_state(0.5, 256), size=64)
    assert f_functional(spec) == pytest.approx(16.0 / 9.0, rel=1e-10)


def test_criterion_single_pole_strict():
    v = criterion(pole_state(0.5, 512), size=128)
    assert v.verdict is Verdict.EXPLODES_STRICT
    assert v.l2_sq == pytest.approx(4.0 / 3.0, rel=1e-10)
    assert v.f_value == pytest.approx(16.0 / 9.0, rel=1e-10)


def test_criterion_blaschke_equal_case():
    v = criterion(blaschke_state([0.3], 512), size=128)
    assert v.verdict is Verdict.EXPLODES_EQUAL_CASE
    assert v.l2_sq == pytest.approx(1.0, rel=1e-10)
    assert v.f_value == pytest.approx(1.0, rel=1e-10)
    assert v.u0_coeff_abs == pytest.approx(0.3, rel=1e-10)


def test_criterion_circle_inconclusive():
    v = criterion(circle_state(1.0, 512), size=128)
    assert v.verdict is Verdict.INCONCLUSIVE


def test_criterion_zero_state():
    v = criterion(HardyState(np.zeros(64, complex), 128), size=16)
    assert v.verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("ic", [pole_state(0.5, 512), blaschke_state([0.3, -0.6j], 512),
                                circle_state(1.0, 512)])
def test_spectrum_report_eigendecomposes_once(monkeypatch, ic):
    calls = {"gram_k": 0, "eigenvalues": 0}

    def counted(name):
        original = getattr(hankel, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(hankel, name, wrapper)

    counted("gram_k")
    counted("eigenvalues")
    spec, verdict, summary = spectrum_report(ic, size=128, tol=1e-9)
    assert calls == {"gram_k": 1, "eigenvalues": 1}
    monkeypatch.undo()

    alone = k_spectrum(ic, size=128)
    assert np.array_equal(spec.distinct_eigenvalues, alone.distinct_eigenvalues)
    assert np.array_equal(spec.multiplicities, alone.multiplicities)
    assert spec.rank_cutoff == alone.rank_cutoff
    assert verdict == explosion_criterion(ic, alone, tol=1e-9)
    assert summary["verdict"] == verdict.verdict.value


# --- structural properties -------------------------------------------------

def test_interlacing_rational_symbols():
    coeffs = np.zeros(512, dtype=complex)
    k = np.arange(511)
    coeffs[0] = 0.3
    coeffs[1:] = 0.9 * 0.5**k + 0.5 * (-0.4) ** k
    u = HardyState(coeffs, 1024)
    h_vals = eigenvalues(gram_h(u, 128))[:6]
    k_vals = eigenvalues(gram_k(u, 128))[:6]
    tol = 1e-8
    for i in range(4):
        assert h_vals[i] >= k_vals[i] - tol
        assert k_vals[i] >= h_vals[i + 1] - tol


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.05, 0.7),
    st.floats(0.2, 2.0),
    st.floats(0.0, 1.5),
    st.floats(0.0, 2 * np.pi),
)
def test_rank_one_states_have_momentum_eigenvalue(p_abs, c_abs, b_abs, phase):
    w = WState(b=b_abs * np.exp(0.5j * phase), c=c_abs * np.exp(1j * phase), p=p_abs)
    u = w_to_hardy(w, 512)
    spec = k_spectrum(u, size=128)
    assert len(spec) == 1
    assert spec.multiplicities[0] == 1
    assert spec.distinct_eigenvalues[0] == pytest.approx(w.momentum, rel=1e-8)


def test_spectrum_invariants_enforced():
    with pytest.raises(ValueError):
        KSpectrum(np.array([1.0, 2.0]), np.array([1, 1]), 1e-8, 0.0)
    with pytest.raises(ValueError):
        KSpectrum(np.array([1.0]), np.array([0]), 1e-8, 0.0)
