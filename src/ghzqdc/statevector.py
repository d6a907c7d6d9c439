"""Dense pure-state simulation of small qubit registers, many rows at once.

Provides exactly what the messaging protocols need: GHZ triple
preparation, single- and two-qubit unitaries, and projective measurements
in the z, x, and Bell bases with post-measurement collapse. Bell
measurements are implemented directly as a four-projector family, not via
a basis-change circuit.

Conventions:
  * A PureState is a stack of independent registers over the same
    labelled qubits: ``amplitudes`` has shape (rows, 2**num_qubits), one
    row per register. Every kernel acts on all rows, or on the rows of a
    boolean ``where`` mask, in one numpy expression; the other rows pass
    through unchanged.
  * Qubit 0 is the leftmost slot in ket notation and the most significant
    bit of an amplitude index: with labels (A, T, B), ``amplitudes[r, 0b011]``
    multiplies |0>_A |1>_T |1>_B in row r.
  * Operations never mutate their input; they return fresh states, so
    states can be handed between threads without locking.
  * A measurement takes one uniform variate per row, drawn by the caller,
    and returns an outcome code per row: the first outcome whose
    cumulative probability exceeds the uniform. Codes index the outcome
    order: z 0/1, x ``X_OUTCOMES`` (plus, minus), Bell ``BELL_OUTCOMES``.
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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import sqrt

import numpy as np

ATOL = 1e-9
MAX_QUBITS = 8

_INV_SQRT2 = 1.0 / sqrt(2.0)


class XOutcome(Enum):
    """Outcome of a measurement in the {|+>, |->} basis."""

    PLUS = "plus"
    MINUS = "minus"


class BellOutcome(Enum):
    """Outcome of a two-qubit Bell-basis measurement."""

    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


# Outcome codes returned by measure_x and measure_bell index these.
X_OUTCOMES = (XOutcome.PLUS, XOutcome.MINUS)
BELL_OUTCOMES = (
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
)


@dataclass(frozen=True, eq=False)
class Gate1Q:
    """A named single-qubit unitary. "HX" means: apply X first, then H."""

    name: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.name not in ("I", "H", "X", "HX"):
            raise ValueError(f"unknown gate name: {self.name!r}")
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("gate matrix must be 2x2")
        if not np.allclose(m @ m.conj().T, np.eye(2), atol=ATOL):
            raise ValueError(f"gate {self.name} is not unitary")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


I = Gate1Q("I", np.eye(2))
H = Gate1Q("H", np.array([[1.0, 1.0], [1.0, -1.0]]) * _INV_SQRT2)
X = Gate1Q("X", np.array([[0.0, 1.0], [1.0, 0.0]]))
HX = Gate1Q("HX", H.matrix @ X.matrix)


@dataclass(frozen=True, eq=False)
class PureState:
    """Rows of normalized complex amplitudes over one labelled qubit register."""

    amplitudes: np.ndarray  # (rows, 2**num_qubits)
    labels: tuple[str, ...]

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    @property
    def rows(self) -> int:
        return self.amplitudes.shape[0]

    def take(self, rows) -> PureState:
        """The selected rows (an index array or a boolean mask), in order."""
        return _wrap(self.amplitudes[rows], self.labels)


def make_state(amplitudes, labels) -> PureState:
    """Validate and wrap one amplitude vector, or a (rows, 2**n) stack, as a PureState."""
    amps = np.array(amplitudes, dtype=complex)
    if amps.ndim == 1:
        amps = amps[None, :]
    labels = tuple(labels)
    n = len(labels)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"register must hold 1..{MAX_QUBITS} qubits, got {n}")
    if len(set(labels)) != n:
        raise ValueError(f"duplicate qubit labels: {labels}")
    if amps.ndim != 2 or amps.shape[1] != 2**n:
        raise ValueError(f"expected rows of {2**n} amplitudes for {n} qubits, got {amps.shape}")
    return _wrap(amps, labels)


def _wrap(amps: np.ndarray, labels: tuple[str, ...]) -> PureState:
    # Single check per row covers both invariants: a NaN/Inf amplitude
    # makes the norm comparison fail too.
    amps = np.ascontiguousarray(amps)
    flat = amps.view(np.float64)
    nrm = np.einsum("ij,ij->i", flat, flat)
    bad = ~(np.abs(nrm - 1.0) <= ATOL)
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(f"row {row}: state norm^2 = {nrm[row]!r}, not 1 within {ATOL}")
    amps.setflags(write=False)
    return PureState(amps, labels)


_GHZ3 = np.zeros(8, dtype=complex)
_GHZ3[0b000] = _INV_SQRT2
_GHZ3[0b111] = _INV_SQRT2


def new_ghz3(rows: int = 1) -> PureState:
    """`rows` fresh (|000> + |111>)/sqrt(2) registers with labels (A, T, B)."""
    return _wrap(np.tile(_GHZ3, (rows, 1)), ("A", "T", "B"))


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


def _check_qubit(state: PureState, qubit: int) -> None:
    if not 0 <= qubit < len(state.labels):
        raise ValueError(f"qubit {qubit} out of range for {len(state.labels)} qubits")


def _rows(state: PureState, where):
    """Index of the rows a kernel acts on: all of them, or a boolean mask."""
    if where is None:
        return slice(None)
    where = np.asarray(where, dtype=bool)
    if where.shape != (state.rows,):
        raise ValueError(f"where mask of shape {where.shape} for {state.rows} rows")
    return where


def _replace_rows(state: PureState, rows, amps: np.ndarray) -> PureState:
    if isinstance(rows, slice):  # every row: nothing of the old state is kept
        return _wrap(amps, state.labels)
    out = state.amplitudes.copy()
    out[rows] = amps
    return _wrap(out, state.labels)


def apply_gate(state: PureState, gate: Gate1Q, target: int, where=None) -> PureState:
    """Apply a single-qubit unitary to ``target`` (identity elsewhere) on the `where` rows."""
    _check_qubit(state, target)
    rows = _rows(state, where)
    if gate.name == "I":
        return state
    return _replace_rows(
        state, rows, _apply(state.amplitudes[rows], state.num_qubits, (target,), gate.matrix)
    )


def apply_two_qubit(
    state: PureState, matrix: np.ndarray, q1: int, q2: int, where=None
) -> PureState:
    """Apply a 4x4 unitary to the ordered qubit pair (q1, q2) on the `where` rows.

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
    rows = _rows(state, where)
    return _replace_rows(state, rows, _apply(state.amplitudes[rows], state.num_qubits, (q1, q2), m))


def append_qubit(state: PureState, amplitudes, label: str) -> PureState:
    """Tensor the same fresh single qubit onto every row as the last qubit."""
    if label in state.labels:
        raise ValueError(f"label {label!r} already present")
    if state.num_qubits + 1 > MAX_QUBITS:
        raise ValueError(f"register limited to {MAX_QUBITS} qubits")
    extra = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if extra.shape[0] != 2:
        raise ValueError("appended qubit needs exactly 2 amplitudes")
    amps = state.amplitudes
    out = (amps[:, :, None] * extra[None, None, :]).reshape(amps.shape[0], 2 * amps.shape[1])
    return _wrap(out, state.labels + (label,))


# ---------------------------------------------------------------------------
# Measurement


def _basis(*vectors) -> np.ndarray:
    """Outcome vectors as the rows of a read-only matrix."""
    out = np.array(vectors, dtype=complex)
    out.setflags(write=False)
    return out


# One row per outcome code; pair vectors index 2*bit(first qubit) + bit(second).
_Z_BASIS = _basis([1.0, 0.0], [0.0, 1.0])
_X_BASIS = _basis([_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2])
_BELL_BASIS = _basis(
    [_INV_SQRT2, 0.0, 0.0, _INV_SQRT2],
    [_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2],
    [0.0, _INV_SQRT2, _INV_SQRT2, 0.0],
    [0.0, _INV_SQRT2, -_INV_SQRT2, 0.0],
)

_DEGENERATE = 1e-12


def _residuals(amps: np.ndarray, n: int, qubits: tuple[int, ...], vecs: np.ndarray) -> np.ndarray:
    """Each <vec| contracted into `qubits`: the unnormalised branches, (rows, rest, outcomes)."""
    out = np.einsum("ij,kj->ik", _qubits_last(amps, n, qubits), vecs.conj())
    return out.reshape(amps.shape[0], 1 << (n - len(qubits)), len(vecs))


def _probs(residuals: np.ndarray) -> np.ndarray:
    """Born probabilities, (rows, outcomes)."""
    return np.einsum("ijk,ijk->ik", residuals.conj(), residuals).real


def _pick(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first outcome whose cumulative probability exceeds u."""
    acc = np.cumsum(probs, axis=1)
    bad = ~(np.abs(acc[:, -1] - 1.0) <= ATOL)
    if bad.any():
        raise RuntimeError(f"measurement probabilities sum to {acc[bad][0, -1]!r}")
    return np.minimum((u[:, None] >= acc).sum(axis=1), probs.shape[1] - 1)


def _collapse(residual: np.ndarray, vecs: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Per row, |vec> on the measured qubits times the renormalised (rows, rest) residual."""
    scaled = residual / np.sqrt(prob)[:, None]
    return scaled[:, :, None] * vecs[:, None, :]


def _measure_rows(amps, n, qubits, basis, u):
    """(outcome codes, collapsed amplitudes) of rows measured in `basis`."""
    residuals = _residuals(amps, n, qubits, basis)
    probs = _probs(residuals)
    k = _pick(probs, u)
    rows = np.arange(amps.shape[0])
    prob = probs[rows, k]
    if (prob < _DEGENERATE).any():
        raise RuntimeError("projection onto a (near-)zero branch; internal logic error")
    return k, _qubits_back(_collapse(residuals[rows, :, k], basis[k], prob), n, qubits)


def _measure(state: PureState, qubits: tuple[int, ...], basis: np.ndarray, u, where):
    for q in qubits:
        _check_qubit(state, q)
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != state.rows:
        raise ValueError(f"{u.shape[0]} uniforms for {state.rows} rows")
    rows = _rows(state, where)
    outcomes = np.full(state.rows, -1)
    outcomes[rows], amps = _measure_rows(
        state.amplitudes[rows], state.num_qubits, qubits, basis, u[rows]
    )
    return outcomes, _replace_rows(state, rows, amps)


def measure_z(state: PureState, target: int, u, where=None) -> tuple[np.ndarray, PureState]:
    """Projective z-basis measurement of each row with its uniform from `u`.

    Returns (outcomes 0/1, collapsed state); rows outside `where` keep
    their amplitudes and read -1.
    """
    return _measure(state, (target,), _Z_BASIS, u, where)


def measure_x(state: PureState, target: int, u, where=None) -> tuple[np.ndarray, PureState]:
    """Projective {|+>, |->} measurement; outcome codes index X_OUTCOMES."""
    return _measure(state, (target,), _X_BASIS, u, where)


def measure_bell(state: PureState, q1: int, q2: int, u, where=None) -> tuple[np.ndarray, PureState]:
    """Bell-basis measurement of the ordered pair (q1, q2); codes index BELL_OUTCOMES."""
    if q1 == q2:
        raise ValueError("Bell measurement needs two distinct qubits")
    return _measure(state, (q1, q2), _BELL_BASIS, u, where)
