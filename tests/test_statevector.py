"""Statevector core: gates, collapse, Born statistics, invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzqdc import statevector
from ghzqdc.statevector import (
    ATOL,
    BELL_OUTCOMES,
    X_OUTCOMES,
    BellOutcome,
    Gate1Q,
    H,
    PureState,
    HX,
    I,
    X,
    XOutcome,
    append_qubit,
    apply_gate,
    apply_two_qubit,
    make_state,
    measure_bell,
    measure_x,
    measure_z,
    new_ghz3,
)

import oracles
from oracles import basis_state, states_equal_up_to_global_phase

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def stack(state, rows):
    """`rows` copies of a one-row state as one register."""
    return make_state(np.tile(state.amplitudes, (rows, 1)), state.labels)


# ---------------------------------------------------------------------------
# Strategies

def random_states(num_qubits):
    """Normalized random states with the given qubit count."""
    dim = 2**num_qubits
    finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

    def build(values):
        re = np.array(values[:dim])
        im = np.array(values[dim:])
        amps = re + 1j * im
        nrm = np.linalg.norm(amps)
        if nrm < 1e-3:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
            return amps
        return amps / nrm

    return st.lists(finite, min_size=2 * dim, max_size=2 * dim).map(build)


# ---------------------------------------------------------------------------
# Construction and gates


def test_ghz_amplitudes():
    s = new_ghz3()
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = INV_SQRT2
    assert np.allclose(s.amplitudes, expected, atol=ATOL)
    assert s.labels == ("A", "T", "B")


def test_ghz_single_qubit_z_is_unbiased():
    s = new_ghz3()
    for q in range(3):
        assert oracles.prob(s, oracles.z_proj(q, 0)) == pytest.approx(0.5, abs=ATOL)


def test_ghz_perfect_correlation_after_collapse():
    s = new_ghz3()
    p, collapsed = oracles.collapse(s, oracles.z_proj(0, 0))
    assert p == pytest.approx(0.5, abs=ATOL)
    for q in (1, 2):
        assert oracles.prob(collapsed, oracles.z_proj(q, 0)) == pytest.approx(1.0, abs=ATOL)


def test_h_twice_restores_state():
    s = new_ghz3()
    s2 = apply_gate(apply_gate(s, H, 0), H, 0)
    assert np.allclose(s2.amplitudes, s.amplitudes, atol=ATOL)


def test_h_on_ghz_matches_full_matrix_oracle():
    """Cross-check the tensor route against an explicit 8x8 multiply."""
    s = apply_gate(new_ghz3(), H, 0)
    expected = oracles.embed_1q(oracles.M_H, 0, 3) @ oracles.ghz3()
    assert np.allclose(s.amplitudes, expected, atol=ATOL)
    # frozen hand expansion: (|000> + |100> + |011> - |111>) / 2
    hand = np.zeros(8, dtype=complex)
    hand[0b000] = hand[0b100] = hand[0b011] = 0.5
    hand[0b111] = -0.5
    assert np.allclose(s.amplitudes, hand, atol=ATOL)


def test_x_flips_basis_state():
    s = basis_state("0")
    assert np.allclose(apply_gate(s, X, 0).amplitudes, [0, 1], atol=ATOL)


def test_hx_order_is_x_then_h():
    # HX|0> = H|1> = |->
    s = apply_gate(basis_state("0"), HX, 0)
    assert np.allclose(s.amplitudes, [INV_SQRT2, -INV_SQRT2], atol=ATOL)


@pytest.mark.parametrize("gate", [I, H, X, HX])
@pytest.mark.parametrize("target", [0, 1, 2])
def test_apply_gate_equals_brute_force_on_all_basis_states(gate, target):
    oracle_mats = {"I": oracles.M_I, "H": oracles.M_H, "X": oracles.M_X, "HX": oracles.M_HX}
    full = oracles.embed_1q(oracle_mats[gate.name], target, 3)
    for k in range(8):
        s = basis_state(format(k, "03b"))
        got = apply_gate(s, gate, target)
        assert np.allclose(got.amplitudes, full[:, k], atol=ATOL)


def test_gate_unitarity():
    for gate in (I, H, X, HX):
        assert np.allclose(gate.matrix @ gate.matrix.conj().T, np.eye(2), atol=ATOL)


def test_non_unitary_gate_rejected():
    with pytest.raises(ValueError):
        Gate1Q("H", np.array([[1, 0], [0, 2]]))


def test_apply_gate_bad_target():
    with pytest.raises(ValueError):
        apply_gate(new_ghz3(), H, 3)


def test_make_state_validation():
    with pytest.raises(ValueError):
        make_state([1, 0, 0], ("a", "b"))
    with pytest.raises(ValueError):
        make_state([0.5, 0.5], ("a",))  # not normalized
    with pytest.raises(ValueError):
        make_state([1, 0, 0, 0], ("a", "a"))


def test_append_qubit_and_two_qubit_gate():
    s = append_qubit(basis_state("10"), [1, 0], "E")
    assert s.labels == ("q0", "q1", "E")
    assert np.allclose(s.amplitudes[0, 0b100], 1.0)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    s2 = apply_two_qubit(s, cnot, 0, 2)
    assert np.allclose(s2.amplitudes[0, 0b101], 1.0)
    with pytest.raises(ValueError):
        apply_two_qubit(s, cnot, 1, 1)


# ---------------------------------------------------------------------------
# Measurements


def test_measure_z_eigenstate():
    rng = np.random.default_rng(0)
    outcome, after = measure_z(basis_state("1"), 0, rng.random(1))
    assert outcome.tolist() == [1]
    assert np.allclose(after.amplitudes, [0, 1], atol=ATOL)


def test_measure_z_collapses_ghz():
    rng = np.random.default_rng(5)
    outcome, after = measure_z(new_ghz3(), 0, rng.random(1))
    target = basis_state("000") if outcome[0] == 0 else basis_state("111")
    assert np.allclose(after.amplitudes, target.amplitudes, atol=ATOL)


def test_measure_z_born_frequency():
    """Empirical z frequencies of H|0> against the Born rule."""
    rng = np.random.default_rng(42)
    plus = apply_gate(basis_state("0"), H, 0)
    outcomes, _ = measure_z(stack(plus, 10_000), 0, rng.random(10_000))
    zeros = int((outcomes == 0).sum())
    assert zeros / 10_000 == pytest.approx(0.5, abs=0.02)


def test_measure_x_eigenstate():
    rng = np.random.default_rng(0)
    plus = apply_gate(basis_state("0"), H, 0)
    outcome, after = measure_x(plus, 0, rng.random(1))
    assert X_OUTCOMES[outcome[0]] is XOutcome.PLUS
    assert states_equal_up_to_global_phase(after, plus)


def test_measure_x_unbiased_on_z_eigenstate():
    s = basis_state("0")
    assert oracles.prob(s, oracles.x_proj(0, XOutcome.PLUS, 1)) == pytest.approx(0.5, abs=ATOL)
    assert oracles.prob(s, oracles.x_proj(0, XOutcome.MINUS, 1)) == pytest.approx(0.5, abs=ATOL)


@given(random_states(2), st.integers(min_value=0, max_value=1), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_measure_x_equals_h_then_z(amps, target, seed):
    """x measurement == apply H then measure z, mapping 0->plus, 1->minus."""
    s = make_state(amps, ("u", "v"))
    out_x, _ = measure_x(s, target, np.random.default_rng(seed).random(1))
    out_z, _ = measure_z(apply_gate(s, H, target), target, np.random.default_rng(seed).random(1))
    assert (out_z[0] == 0) == (X_OUTCOMES[out_x[0]] is XOutcome.PLUS)


def test_measure_bell_eigenstate():
    rng = np.random.default_rng(0)
    phi_plus = np.zeros(8, dtype=complex)
    phi_plus[0b000] = INV_SQRT2  # |0>_q2 tensor, pair (0,1)
    phi_plus[0b110] = INV_SQRT2
    s = make_state(phi_plus, ("a", "b", "c"))
    outcome, _ = measure_bell(s, 0, 1, rng.random(1))
    assert BELL_OUTCOMES[outcome[0]] is BellOutcome.PHI_PLUS


def test_measure_bell_rejects_same_qubit():
    with pytest.raises(ValueError):
        measure_bell(new_ghz3(), 1, 1, np.random.default_rng(0).random(1))


def test_bell_x_joint_after_h_on_ghz():
    """Joint (Bell on (A,B), x on T) statistics after H on A: four pairs at
    1/4 each, all others exactly zero, matching the brute-force oracle."""
    s = apply_gate(new_ghz3(), H, 0)
    oracle = oracles.bell_x_joint(s.amplitudes[0], bell_pair=(0, 2), x_qubit=1)
    allowed = {
        ("phi_plus", "minus"),
        ("phi_minus", "plus"),
        ("psi_plus", "plus"),
        ("psi_minus", "minus"),
    }
    for bell in BellOutcome:
        for x in XOutcome:
            joint = oracles.joint_prob(s, [oracles.bell_proj(0, 2, bell), oracles.x_proj(1, x)])
            assert joint == pytest.approx(oracle[(bell.value, x.value)], abs=1e-12)
            if (bell.value, x.value) in allowed:
                assert joint == pytest.approx(0.25, abs=ATOL)
            else:
                assert joint == pytest.approx(0.0, abs=1e-12)


def test_bell_measurement_sampling_matches_probabilities():
    rng = np.random.default_rng(11)
    s = apply_gate(new_ghz3(), H, 0)
    outcomes, _ = measure_bell(stack(s, 4000), 0, 2, rng.random(4000))
    counts = {o: int((outcomes == k).sum()) for k, o in enumerate(BELL_OUTCOMES)}
    for o in BellOutcome:
        assert counts[o] / 4000 == pytest.approx(0.25, abs=0.03)


# ---------------------------------------------------------------------------
# Property-style invariants


@given(random_states(3), st.sampled_from([H, X, HX]), st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_normalization_preserved_by_gates(amps, gate, target):
    s = make_state(amps, ("a", "b", "c"))
    out = apply_gate(s, gate, target)
    assert abs(np.vdot(out.amplitudes, out.amplitudes).real - 1.0) <= ATOL


@given(random_states(2), st.sampled_from([H, X]), st.integers(0, 1))
@settings(max_examples=80, deadline=None)
def test_h_and_x_are_involutions(amps, gate, target):
    s = make_state(amps, ("a", "b"))
    out = apply_gate(apply_gate(s, gate, target), gate, target)
    assert np.allclose(out.amplitudes, s.amplitudes, atol=ATOL)


@given(random_states(3), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_measurement_completeness(amps, target):
    s = make_state(amps, ("a", "b", "c"))

    def total(qubits, basis):
        return statevector._probs(statevector._residuals(s.amplitudes, 3, qubits, basis)).sum()

    z_total = total((target,), statevector._Z_BASIS)
    x_total = total((target,), statevector._X_BASIS)
    bell_total = total((target, (target + 1) % 3), statevector._BELL_BASIS)
    assert z_total == pytest.approx(1.0, abs=ATOL)
    assert x_total == pytest.approx(1.0, abs=ATOL)
    assert bell_total == pytest.approx(1.0, abs=ATOL)


@given(random_states(3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_measurement_repeatability(amps, seed):
    """Repeating a projective measurement reproduces the outcome surely."""
    rng = np.random.default_rng(seed)
    s = make_state(amps, ("a", "b", "c"))
    out1, after = measure_z(s, 1, rng.random(1))
    out2, _ = measure_z(after, 1, rng.random(1))
    assert out1.tolist() == out2.tolist()
    bout1, after = measure_bell(s, 0, 2, rng.random(1))
    bout2, _ = measure_bell(after, 0, 2, rng.random(1))
    assert bout1.tolist() == bout2.tolist()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(3, 5), seed=st.integers(0, 2**32 - 1), sparse=st.booleans(),
       basis=st.sampled_from(["z", "x", "bell"]), data=st.data())
def test_branch_probabilities_and_collapse_match_oracle(n, seed, sparse, basis, data):
    """The engine's exact branch probabilities, and the state each branch
    collapses to, agree with brute-force projectors on one-row states."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    if sparse:  # some branches then have probability zero
        amps[rng.random(2**n) < 0.6] = 0.0
        amps[rng.integers(2**n)] += 1.0
    state = make_state(amps / np.linalg.norm(amps), tuple(f"q{i}" for i in range(n)))
    qubits = tuple(data.draw(st.permutations(range(n)))[: 2 if basis == "bell" else 1])
    if basis == "z":
        measure, vecs = measure_z, statevector._Z_BASIS
        projectors = [oracles.z_proj(*qubits, k, n) for k in (0, 1)]
    elif basis == "x":
        measure, vecs = measure_x, statevector._X_BASIS
        projectors = [oracles.x_proj(*qubits, o, n) for o in X_OUTCOMES]
    else:
        measure, vecs = measure_bell, statevector._BELL_BASIS
        projectors = [oracles.bell_proj(*qubits, o, n) for o in BELL_OUTCOMES]
    probs = statevector._probs(statevector._residuals(state.amplitudes, n, qubits, vecs))[0]
    want = [oracles.prob(state, p) for p in projectors]
    assert np.allclose(probs, want, rtol=0, atol=1e-12)
    below = 0.0
    for k, p in enumerate(want):
        if p > 1e-9:  # the midpoint of k's cumulative interval picks k
            code, after = measure(state, *qubits, np.array([below + p / 2]))
            assert code.tolist() == [k]
            assert states_equal_up_to_global_phase(after, oracles.collapse(state, projectors[k])[1])
        below += p


def test_global_phase_equality_helper():
    s = new_ghz3()
    assert states_equal_up_to_global_phase(s, np.exp(1j * 0.7) * s.amplitudes)
    assert not states_equal_up_to_global_phase(s, basis_state("000"))


# ---------------------------------------------------------------------------
# Rows of a stack are independent registers


@st.composite
def row_stacks(draw):
    """A stack of random normalised 3-6 qubit rows (some with zeroed
    amplitudes), one uniform per row, and a row mask or None."""
    n = draw(st.integers(3, 6))
    rows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    if draw(st.booleans()):
        amps[rng.random(amps.shape) < 0.6] = 0.0
        amps[:, rng.integers(2**n)] += 1.0
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    u = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=rows, max_size=rows)))
    where = draw(st.none() | st.lists(st.booleans(), min_size=rows, max_size=rows).map(np.array))
    return make_state(amps, tuple(f"q{i}" for i in range(n))), u, where


def random_unitary(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


ROW_KERNELS = ("gate", "two_qubit", "append", "z", "x", "bell")


def run_kernel(name, state, q1, q2, u, where, seed):
    """(outcomes or None, state) of one kernel; `where` is ignored by append_qubit."""
    if name == "gate":
        return None, apply_gate(state, HX, q1, where=where)
    if name == "two_qubit":
        return None, apply_two_qubit(state, random_unitary(seed), q1, q2, where=where)
    if name == "append":
        return None, append_qubit(state, [0.6, 0.8j], "E")
    if name == "z":
        return measure_z(state, q1, u, where)
    if name == "x":
        return measure_x(state, q1, u, where)
    return measure_bell(state, q1, q2, u, where)


@given(row_stacks(), st.sampled_from(ROW_KERNELS), st.data())
@settings(max_examples=300, deadline=None)
def test_kernels_act_on_each_row_alone(stack_u_where, name, data):
    """A kernel on a stack gives exactly the outcomes and amplitudes of the
    same kernel on each row alone, with the row's uniform and mask bit."""
    state, u, where = stack_u_where
    q1, q2 = data.draw(st.permutations(range(state.num_qubits)))[:2]
    seed = data.draw(st.integers(0, 2**32 - 1))
    singles = []
    for r in range(state.rows):
        w = None if where is None else where[r : r + 1]
        try:
            singles.append(run_kernel(name, state.take([r]), q1, q2, u[r : r + 1], w, seed))
        except RuntimeError:  # a uniform that lands on a (near-)zero branch
            with pytest.raises(RuntimeError):
                run_kernel(name, state, q1, q2, u, where, seed)
            return
    outcomes, after = run_kernel(name, state, q1, q2, u, where, seed)
    assert after.rows == state.rows
    assert after.labels == singles[0][1].labels
    assert np.array_equal(after.amplitudes, np.concatenate([s.amplitudes for _, s in singles]))
    if outcomes is not None:
        assert outcomes.tolist() == [int(o[0]) for o, _ in singles]


@pytest.mark.parametrize("name", ROW_KERNELS)
def test_stack_with_one_unnormalised_row_raises(name):
    amps = np.tile(new_ghz3().amplitudes, (4, 1))
    amps[2] *= 1.01
    with pytest.raises(ValueError):
        make_state(amps, ("A", "T", "B"))
    bad = PureState(amps, ("A", "T", "B"))  # bypasses make_state's check
    with pytest.raises((ValueError, RuntimeError)):
        run_kernel(name, bad, 0, 2, np.full(4, 0.3), None, 0)
