import numpy as np
import pytest
from hypothesis import example, given, settings
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
    k_eigenvalues,
    k_spectrum,
    tail_mass,
)
from damped_szego.hardy import HardyState, l2_norm_sq, momentum
from damped_szego.initial_conditions import (
    blaschke_state,
    circle_state,
    gaussian_state,
    parse_initial_condition,
    pole_state,
    poles_sum_state,
)
from damped_szego.presets import spectrum_report
from damped_szego.wmanifold import WState, w_to_hardy
from helpers import (
    char_poly_eigenvalues,
    criterion,
    dense_gram,
    full_k_eigenvalues,
    random_hermitian,
)


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


@st.composite
def gram_inputs(draw):
    """A state and a Gram size: random, zero, or geometric data whose tail
    underflows into subnormal numbers."""
    kind = draw(st.sampled_from(["random", "zero", "geometric"]))
    if kind == "geometric":
        p = draw(st.floats(0.3, 0.7)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        u = pole_state(p, 4096, offset=draw(st.floats(-1.0, 1.0)))
        return u, draw(st.one_of(st.just(1), st.integers(1, 256)))
    n = 2 * draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
    u = HardyState(coeffs if kind == "random" else 0 * coeffs, n)
    return u, draw(st.one_of(st.just(1), st.just(u.n_modes), st.integers(1, u.n_modes)))


@settings(max_examples=40, deadline=None)
@given(gram_inputs())
@example((HardyState(np.zeros(8, complex), 16), 8))
@example((pole_state(0.3, 4096), 1))
@example((pole_state(0.7j, 4096), 256))
def test_gram_matches_dense_product(case):
    u, size = case
    for gram, coeffs in ((gram_h, u.coeffs), (gram_k, u.coeffs[1:])):
        a = gram(u, size)
        want = dense_gram(coeffs, size)
        assert np.max(np.abs(a - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(a, a.conj().T)
        assert np.array_equal(a, gram(u, size))


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


# --- K_u^2 eigenvalues on the numerical-rank block -------------------------

def _kept_rows(u, size):
    """The rows kept, those whose trace tail sum_{m>=n} d[m] of the K_u^2
    Gram diagonal d exceeds eps d[0], and that tail for n < size."""
    d = gram_k(u, size).diagonal().real
    tail = np.cumsum(d[::-1])[::-1]
    return int(np.count_nonzero(tail > np.finfo(float).eps * d[0])), tail


@st.composite
def k_states(draw):
    """Pole, pole-sum, Blaschke and gaussian states (N <= 4096) or random
    coefficients, with a Gram size <= 512."""
    kind = draw(st.sampled_from(["pole", "poles", "blaschke", "gaussian", "random"]))
    n = 2 ** draw(st.integers(7, 12))
    radius = st.floats(0.05, 0.75)
    phase = st.floats(0.0, 2 * np.pi)
    if kind == "pole":
        u = pole_state(draw(radius) * np.exp(1j * draw(phase)), n,
                       amplitude=draw(st.floats(0.1, 3.0)), offset=draw(st.floats(-1.0, 1.0)))
    elif kind in ("poles", "blaschke"):
        ps = [draw(radius) * np.exp(1j * draw(phase)) for _ in range(draw(st.integers(1, 3)))]
        u = (poles_sum_state if kind == "poles" else blaschke_state)(ps, n)
    elif kind == "gaussian":
        u = gaussian_state(draw(st.floats(3.0, 12.0)), n)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        decay = draw(st.floats(0.0, 0.5))
        k = np.arange(n // 2)
        u = HardyState((rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2))
                       * np.exp(-decay * k), n)
    return u, draw(st.integers(1, min(512, u.n_modes)))


@settings(max_examples=40, deadline=None)
@given(k_states())
@example((pole_state(0.5, 4096), 512))
@example((blaschke_state([0.3, 0.6j], 4096), 512))
@example((gaussian_state(9.0, 4096), 512))
@example((HardyState(np.zeros(16, complex), 32), 8))
def test_k_eigenvalues_match_the_full_gram(case):
    u, size = case
    got = k_eigenvalues(u, size)
    want = full_k_eigenvalues(u, size)
    assert got.shape == (size,)
    assert np.all(np.diff(got) <= 0)
    # For the zero state both are zeros.
    assert np.max(np.abs(got - want)) <= 1e-14 * want[0]


@settings(max_examples=25, deadline=None)
@given(k_states(), st.floats(0.0, 1.0))
def test_block_eigenvalues_sandwich_the_full_gram(case, share):
    """Weyl: the leading k x k block's eigenvalues, padded with zeros, lie
    below the full Gram's and at most the dropped trace above them."""
    u, size = case
    eps_k, tail = _kept_rows(u, size)
    want = full_k_eigenvalues(u, size)
    slack = 1e-14 * want[0]
    for k in (max(1, int(share * size)), eps_k):
        block = np.zeros(size)
        block[:k] = eigenvalues(gram_k(u, size)[:k, :k])
        block = np.sort(block)[::-1]
        dropped = tail[k] if k < size else 0.0
        assert np.all(block <= want + slack)
        assert np.all(want <= block + dropped + slack)
    # The last block is the one k_eigenvalues keeps.
    assert np.array_equal(k_eigenvalues(u, size), block)


@pytest.mark.parametrize("seed, n, size", [(0, 64, 8), (1, 256, 64), (2, 1024, 128)])
def test_k_eigenvalues_equal_the_full_gram_when_nothing_is_dropped(seed, n, size):
    rng = np.random.default_rng(seed)
    u = HardyState(rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2), n)
    assert _kept_rows(u, size)[0] == size
    assert np.array_equal(k_eigenvalues(u, size), full_k_eigenvalues(u, size))


@pytest.mark.parametrize("size", [1, 128, 512])
def test_k_spectrum_builds_the_gram_at_the_requested_size(monkeypatch, size):
    shapes = []
    original = hankel.gram_k

    def spy(u, n):
        a = original(u, n)
        shapes.append(a.shape)
        return a

    monkeypatch.setattr(hankel, "gram_k", spy)
    k_spectrum(pole_state(0.5, 4096), size=size)
    spectrum_report(blaschke_state([0.3], 4096), size=size)
    assert shapes == [(size, size)] * 2


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


# The benchmark's four kinds of criterion state at N = 4096.
SIZE_512_STATES = [
    ("poles", poles_sum_state([r * np.exp(1j * (0.3 + 2 * np.pi * i / 3))
                               for i, r in enumerate((0.4, 0.55, 0.7))], 4096)),
    ("pole", pole_state(0.6 * np.exp(1.1j), 4096, np.exp(2.0j), 0.5 * np.exp(-0.7j))),
    ("blaschke", blaschke_state([0.3 * np.exp(0.4j), 0.6 * np.exp(-2.1j)], 4096)),
    ("gaussian", gaussian_state(7.5, 4096)),
]


@pytest.mark.parametrize("kind, u", SIZE_512_STATES)
def test_spectrum_at_size_512_has_the_rank_and_trace_of_the_data(kind, u):
    spec, verdict, summary = spectrum_report(u, size=512)
    momentum, tail = summary["momentum"], summary["tail_mass"]
    rank = int(spec.multiplicities.sum())
    trace = float((spec.distinct_eigenvalues * spec.multiplicities).sum())
    # Eigenvalues under the rank cutoff are dropped; each is below the cutoff.
    assert abs(trace - momentum) <= tail + 512 * spec.rank_cutoff + 1e-9 * momentum
    if kind == "poles":
        assert rank == 3
    if kind == "pole":
        closed_form = 1.0 / (1.0 - 0.6**2) ** 2
        assert momentum == pytest.approx(closed_form, rel=1e-9)
        assert rank == 1
        assert abs(spec.distinct_eigenvalues[0] - closed_form) <= 1e-9 * closed_form + tail
    if kind == "blaschke":
        assert verdict.verdict is Verdict.EXPLODES_EQUAL_CASE


@pytest.mark.parametrize("kind, u", SIZE_512_STATES)
def test_spectrum_report_at_size_512_matches_the_full_gram(monkeypatch, kind, u):
    spec, verdict, summary = spectrum_report(u, size=512)
    monkeypatch.setattr(hankel, "k_eigenvalues", full_k_eigenvalues)
    full_spec, full_verdict, full_summary = spectrum_report(u, size=512)
    top = full_spec.distinct_eigenvalues[0]
    assert np.array_equal(spec.multiplicities, full_spec.multiplicities)
    assert np.max(np.abs(spec.distinct_eigenvalues - full_spec.distinct_eigenvalues)) <= 1e-14 * top
    assert verdict.verdict is full_verdict.verdict
    assert summary["degenerate_clusters"] == full_summary["degenerate_clusters"]


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
