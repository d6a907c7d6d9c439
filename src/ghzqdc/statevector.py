"""Dense pure-state simulation of small qubit registers, many rows at once.

Provides exactly what the messaging protocols need: GHZ triple
preparation, single- and two-qubit unitaries, and projective measurements
in the z, x, and Bell bases with post-measurement collapse. Bell
measurements are implemented directly as a four-projector family, not via
a basis-change circuit.

Conventions:
  * A register stack is a read-only complex array of shape (rows, 2**n),
    one row of amplitudes per independent n-qubit register; n follows
    from the row width. Every kernel acts on all rows in one numpy
    expression. A caller that wants different operations on different rows
    runs each on its own rows and stacks the results, as the session
    engine's branch-table builder does per code.
  * Qubit 0 is the leftmost slot in ket notation and the most significant
    bit of an amplitude index: in a GHZ triple's register, whose qubits are
    A, T, B in that order, ``state[r, 0b011]`` multiplies |0>_A |1>_T |1>_B
    in row r.
  * Operations never mutate their input; they return fresh arrays.
  * A gate is a read-only complex 2x2 matrix: ``H``, and ``HX`` (X first,
    then H).
  * A measurement takes one uniform variate per row, drawn by the caller,
    and returns an outcome code per row: the first outcome whose
    cumulative probability exceeds the uniform. A z code is the bit; x and
    Bell codes index the name tuples ``X_OUTCOMES`` and ``BELL_OUTCOMES``.
    Each sampling kernel is ``pick`` over ``measure_branches``, which
    returns every branch of a measurement.
  * The squared norm of every row is re-checked after every operation
    (tolerance 1e-9); a NaN or Inf amplitude fails that check as well.
    Measurements also check each row's probability sum and refuse to
    collapse a row onto a (near-)zero branch.
  * Global phase is not tracked; observable contracts are phrased over
    probabilities and post-measurement states up to global phase.

Internals move the acted-on qubits to the last axis, as a
(rows * rest, 2**k) array, and contract them in one einsum (no BLAS call,
whose work buffers would outweigh these small registers).
"""
from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np

ATOL = 1e-9

_INV_SQRT2 = 1.0 / sqrt(2.0)


def complex_constant(v) -> np.ndarray:
    """A complex copy of `v` that no caller can write into."""
    out = np.array(v, dtype=complex)
    out.setflags(write=False)
    return out


# Outcome codes returned by measure_x and measure_bell index these names.
X_OUTCOMES = ("plus", "minus")
BELL_OUTCOMES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

H = complex_constant(np.array([[1.0, 1.0], [1.0, -1.0]]) * _INV_SQRT2)
HX = complex_constant(H @ np.array([[0.0, 1.0], [1.0, 0.0]]))  # X first, then H


def make_state(amplitudes) -> np.ndarray:
    """A checked, read-only copy of one amplitude vector, or of a (rows, 2**n)
    stack with n >= 1, as a (rows, 2**n) register stack."""
    amps = np.array(amplitudes, dtype=complex, order="C")
    if amps.ndim == 1:
        amps = amps[None, :]
    width = amps.shape[1] if amps.ndim == 2 else 0
    if width < 2 or width & (width - 1):
        raise ValueError(f"expected rows of 2**n amplitudes with n >= 1, got shape {amps.shape}")
    # Single check per row covers both invariants: a NaN/Inf amplitude
    # makes the norm comparison fail too.
    flat = amps.view(np.float64)
    nrm = np.einsum("ij,ij->i", flat, flat)
    bad = ~(np.abs(nrm - 1.0) <= ATOL)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(f"row {row}: state norm^2 = {nrm[row]!r}, not 1 within {ATOL}")
    amps.setflags(write=False)
    return amps


def num_qubits(state: np.ndarray) -> int:
    """The qubit count n of a (rows, 2**n) register stack."""
    return state.shape[1].bit_length() - 1


_GHZ3 = np.zeros(8, dtype=complex)
_GHZ3[0b000] = _INV_SQRT2
_GHZ3[0b111] = _INV_SQRT2


def new_ghz3() -> np.ndarray:
    """A fresh (|000> + |111>)/sqrt(2) register over qubits (A, T, B)."""
    return make_state(_GHZ3)


# ---------------------------------------------------------------------------
# Kernels on raw (rows, 2**n) amplitude arrays


@lru_cache(maxsize=None)
def _layout(n: int, qubits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis orders of a (rows, 2, ..., 2) view that move `qubits` last and back."""
    rest = [q for q in range(n) if q not in qubits]
    last = (0,) + tuple(1 + q for q in rest + list(qubits))
    return last, tuple(int(i) for i in np.argsort(last))


def _qubits_last(amps: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """(rows * rest, 2**k): the k acted-on qubits last, in the given order."""
    t = amps.reshape((amps.shape[0],) + (2,) * n).transpose(_layout(n, qubits)[0])
    return t.reshape(amps.shape[0] << (n - len(qubits)), 1 << len(qubits))


def _qubits_back(t: np.ndarray, n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Inverse of _qubits_last: back to (rows, 2**n)."""
    rows = t.size >> n
    t = t.reshape((rows,) + (2,) * n).transpose(_layout(n, qubits)[1])
    return t.reshape(rows, 1 << n)


def _apply(amps: np.ndarray, n: int, qubits: tuple[int, ...], m: np.ndarray) -> np.ndarray:
    return _qubits_back(np.einsum("ij,kj->ik", _qubits_last(amps, n, qubits), m), n, qubits)


def _check_qubit(state: np.ndarray, qubit: int) -> None:
    if not 0 <= qubit < num_qubits(state):
        raise ValueError(f"qubit {qubit} out of range for {num_qubits(state)} qubits")


def apply_gate(state: np.ndarray, matrix: np.ndarray, target: int) -> np.ndarray:
    """Apply a 2x2 unitary to ``target`` (identity elsewhere) on every row."""
    _check_qubit(state, target)
    return make_state(_apply(state, num_qubits(state), (target,), matrix))


def apply_two_qubit(state: np.ndarray, matrix: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """Apply a 4x4 unitary to the ordered qubit pair (q1, q2) on every row.

    The matrix acts on the pair basis |q1 q2>, index 2*bit(q1) + bit(q2).
    The caller is responsible for supplying a unitary; a norm-breaking
    matrix is caught by the output check.
    """
    if q1 == q2:
        raise ValueError("q1 and q2 must be distinct")
    _check_qubit(state, q1)
    _check_qubit(state, q2)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError("two-qubit matrix must be 4x4")
    return make_state(_apply(state, num_qubits(state), (q1, q2), m))


def append_qubit(state: np.ndarray, amplitudes) -> np.ndarray:
    """Tensor the same fresh single qubit onto every row as the last qubit."""
    extra = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if extra.shape[0] != 2:
        raise ValueError("appended qubit needs exactly 2 amplitudes")
    out = (state[:, :, None] * extra[None, None, :]).reshape(state.shape[0], 2 * state.shape[1])
    return make_state(out)


# ---------------------------------------------------------------------------
# Measurement


# One row per outcome code; pair vectors index 2*bit(first qubit) + bit(second).
_Z_BASIS = complex_constant([[1.0, 0.0], [0.0, 1.0]])
_X_BASIS = complex_constant([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]])
_BELL_BASIS = complex_constant([
    [_INV_SQRT2, 0.0, 0.0, _INV_SQRT2],
    [_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2],
    [0.0, _INV_SQRT2, _INV_SQRT2, 0.0],
    [0.0, _INV_SQRT2, -_INV_SQRT2, 0.0],
])

_DEGENERATE = 1e-12


def _residuals(amps: np.ndarray, n: int, qubits: tuple[int, ...], vecs: np.ndarray) -> np.ndarray:
    """Each <vec| contracted into `qubits`: the unnormalised branches, (rows, rest, outcomes)."""
    out = np.einsum("ij,kj->ik", _qubits_last(amps, n, qubits), vecs.conj())
    return out.reshape(amps.shape[0], 1 << (n - len(qubits)), len(vecs))


def _probs(residuals: np.ndarray) -> np.ndarray:
    """Born probabilities, (rows, outcomes)."""
    return np.einsum("ijk,ijk->ik", residuals.conj(), residuals).real


def pick(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of Born probabilities (rows, outcomes), the first outcome whose cumulative
    probability exceeds the row's uniform from `u`. Raises when a row's probabilities do
    not sum to 1 or the picked branch has (near-)zero probability."""
    acc = np.cumsum(probs, axis=1)
    bad = ~(np.abs(acc[:, -1] - 1.0) <= ATOL)
    if bad.any():
        raise RuntimeError(f"measurement probabilities sum to {acc[bad][0, -1]!r}")
    k = np.minimum((u[:, None] >= acc).sum(axis=1), probs.shape[1] - 1)
    if (probs[np.arange(len(k)), k] < _DEGENERATE).any():
        raise RuntimeError("projection onto a (near-)zero branch; internal logic error")
    return k


def _collapse(residuals, probs, rows, k, basis, n, qubits) -> np.ndarray:
    """Row `rows[i]` collapsed onto outcome `k[i]`: |vec> on the measured
    qubits times the renormalised residual, as (len(rows), 2**n) amplitudes."""
    scaled = residuals[rows, :, k] / np.sqrt(probs[rows, k])[:, None]
    return _qubits_back(scaled[:, :, None] * basis[k][:, None, :], n, qubits)


_BASES = {"z": _Z_BASIS, "x": _X_BASIS, "bell": _BELL_BASIS}


def measure_branches(
    state: np.ndarray, qubits: tuple[int, ...], basis: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every branch of measuring `qubits` of each row in `basis` ("z", "x" or "bell").

    Returns the Born probabilities (rows, outcomes), the mask of branches a
    uniform can pick (not degenerate), and those branches collapsed, one row
    each in row-major (row, outcome) order. It is the only measurement
    implementation: each measure_* kernel picks one of these branches per row.
    """
    for q in qubits:
        _check_qubit(state, q)
    n, vecs = num_qubits(state), _BASES[basis]
    residuals = _residuals(state, n, qubits, vecs)
    probs = _probs(residuals)
    reached = probs >= _DEGENERATE
    rows, k = np.nonzero(reached)
    return probs, reached, make_state(_collapse(residuals, probs, rows, k, vecs, n, qubits))


def _measure(state: np.ndarray, qubits: tuple[int, ...], basis: str, u):
    """`pick` over `measure_branches`: each row's outcome and its collapsed branch."""
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != len(state):
        raise ValueError(f"{u.shape[0]} uniforms for {len(state)} rows")
    probs, reached, branches = measure_branches(state, qubits, basis)
    k = pick(probs, u)
    # Where each reached branch sits in `branches`, which lists them row-major.
    at = np.cumsum(reached).reshape(reached.shape) - 1
    return k, make_state(branches[at[np.arange(len(k)), k]])


def measure_z(state: np.ndarray, target: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Projective z-basis measurement of each row with its uniform from `u`.

    Returns (outcomes 0/1, collapsed state).
    """
    return _measure(state, (target,), "z", u)


def measure_x(state: np.ndarray, target: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Projective {|+>, |->} measurement; outcome codes index X_OUTCOMES."""
    return _measure(state, (target,), "x", u)


def measure_bell(state: np.ndarray, q1: int, q2: int, u) -> tuple[np.ndarray, np.ndarray]:
    """Bell-basis measurement of the ordered pair (q1, q2); codes index BELL_OUTCOMES."""
    if q1 == q2:
        raise ValueError("Bell measurement needs two distinct qubits")
    return _measure(state, (q1, q2), "bell", u)
