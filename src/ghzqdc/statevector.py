"""Dense pure-state simulation of small qubit registers.

Provides exactly what the messaging protocols need: GHZ triple
preparation, single- and two-qubit unitaries, and projective measurements
in the z, x, and Bell bases with post-measurement collapse. Bell
measurements are implemented directly as a four-projector family, not via
a basis-change circuit.

Conventions:
  * Qubit 0 is the leftmost slot in ket notation and the most significant
    bit of an amplitude index: with labels (A, T, B), ``amplitudes[0b011]``
    multiplies |0>_A |1>_T |1>_B.
  * Operations never mutate their input; they return fresh states, so
    states can be handed between threads without locking.
  * Every measurement draws exactly one uniform variate from the injected
    numpy Generator, whatever the basis.
  * The squared norm is re-checked after every operation (tolerance 1e-9);
    a NaN or Inf amplitude fails that check as well.
  * Global phase is not tracked; observable contracts are phrased over
    probabilities and post-measurement states up to global phase.

Internals reshape the amplitude vector as (prefix, 2, suffix) blocks per
target qubit instead of routing tiny arrays through tensordot; sessions
spend almost all their time here.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import sqrt
from typing import Union

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


# ZOutcome is a plain int in {0, 1}.
ZOutcome = int


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

GATES = {g.name: g for g in (I, H, X, HX)}


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over a labelled qubit register."""

    amplitudes: np.ndarray
    labels: tuple[str, ...]

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)

    def probabilities(self) -> np.ndarray:
        """Born probabilities of the computational basis states."""
        return np.abs(self.amplitudes) ** 2


def make_state(amplitudes, labels) -> PureState:
    """Validate and wrap an amplitude vector as a PureState."""
    amps = np.array(amplitudes, dtype=complex).reshape(-1)
    labels = tuple(labels)
    n = len(labels)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"register must hold 1..{MAX_QUBITS} qubits, got {n}")
    if len(set(labels)) != n:
        raise ValueError(f"duplicate qubit labels: {labels}")
    if amps.shape[0] != 2**n:
        raise ValueError(f"expected {2**n} amplitudes for {n} qubits, got {amps.shape[0]}")
    return _wrap(amps, labels)


def _wrap(amps: np.ndarray, labels: tuple[str, ...]) -> PureState:
    # Single check covers both invariants: a NaN/Inf amplitude makes the
    # norm comparison fail too.
    nrm = float(np.vdot(amps, amps).real)
    if not abs(nrm - 1.0) <= ATOL:
        raise ValueError(f"state norm^2 = {nrm!r}, not 1 within {ATOL}")
    amps.setflags(write=False)
    return PureState(amps, labels)


_GHZ3 = np.zeros(8, dtype=complex)
_GHZ3[0b000] = _INV_SQRT2
_GHZ3[0b111] = _INV_SQRT2


def new_ghz3() -> PureState:
    """Fresh (|000> + |111>)/sqrt(2) register with labels (A, T, B)."""
    return _wrap(_GHZ3.copy(), ("A", "T", "B"))


def basis_state(bits: str, labels=None) -> PureState:
    """Computational basis state |bits>, e.g. basis_state("010")."""
    n = len(bits)
    if labels is None:
        labels = tuple(f"q{i}" for i in range(n))
    amps = np.zeros(2**n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return make_state(amps, labels)


# ---------------------------------------------------------------------------
# Kernels on raw amplitude arrays


def _split1(amps: np.ndarray, q: int) -> np.ndarray:
    """View as (prefix, 2, suffix) blocks around qubit q."""
    return amps.reshape(1 << q, 2, -1)


def _apply_1q(amps: np.ndarray, q: int, m: np.ndarray) -> np.ndarray:
    psi = _split1(amps, q)
    a, b = psi[:, 0], psi[:, 1]
    out = np.empty_like(psi)
    out[:, 0] = m[0, 0] * a + m[0, 1] * b
    out[:, 1] = m[1, 0] * a + m[1, 1] * b
    return out.reshape(-1)


_PAIR_SWAP = np.array([0, 2, 1, 3])


def _split2(amps: np.ndarray, q1: int, q2: int):
    """View as (pre, 2, mid, 2, post) around the sorted qubit pair."""
    return amps.reshape(1 << q1, 2, 1 << (q2 - q1 - 1), 2, -1)


def _apply_2q(amps: np.ndarray, q1: int, q2: int, m: np.ndarray) -> np.ndarray:
    if q1 > q2:
        m = m[np.ix_(_PAIR_SWAP, _PAIR_SWAP)]
        q1, q2 = q2, q1
    psi = _split2(amps, q1, q2)
    blocks = [psi[:, 0, :, 0], psi[:, 0, :, 1], psi[:, 1, :, 0], psi[:, 1, :, 1]]
    out = np.empty_like(psi)
    for row in range(4):
        terms = [(m[row, col], blocks[col]) for col in range(4) if m[row, col] != 0]
        target = out[:, row >> 1, :, row & 1]
        if not terms:
            target[...] = 0.0
        elif len(terms) == 1 and terms[0][0] == 1.0:
            # permutation-style rows (the controlled flip) are plain copies
            target[...] = terms[0][1]
        else:
            acc = terms[0][0] * terms[0][1]
            for coeff, block in terms[1:]:
                acc += coeff * block
            target[...] = acc
    return out.reshape(-1)


def _residual(amps: np.ndarray, qubits: tuple[int, ...], vec: np.ndarray) -> np.ndarray:
    """<vec| contracted into `qubits` (one or a pair): the unnormalised branch."""
    if len(qubits) == 1:
        psi = _split1(amps, qubits[0])
        return np.conj(vec[0]) * psi[:, 0] + np.conj(vec[1]) * psi[:, 1]
    q1, q2 = qubits
    if q1 > q2:
        vec = vec[_PAIR_SWAP]
        q1, q2 = q2, q1
    psi = _split2(amps, q1, q2)
    v = np.conj(vec)
    out = v[0] * psi[:, 0, :, 0]
    for idx, (b1, b2) in enumerate(((0, 1), (1, 0), (1, 1)), start=1):
        if v[idx] != 0:
            out = out + v[idx] * psi[:, b1, :, b2]
    return out


def _collapse(
    qubits: tuple[int, ...], vec: np.ndarray, residual: np.ndarray, prob: float
) -> np.ndarray:
    """|vec> on `qubits` tensored with the renormalised residual."""
    scaled = residual * (1.0 / sqrt(prob))
    if len(qubits) == 1:
        out = np.empty((residual.shape[0], 2, residual.shape[1]), dtype=complex)
        out[:, 0] = vec[0] * scaled
        out[:, 1] = vec[1] * scaled
        return out.reshape(-1)
    if qubits[0] > qubits[1]:
        vec = vec[_PAIR_SWAP]
    pre, mid, post = residual.shape
    out = np.empty((pre, 2, mid, 2, post), dtype=complex)
    for idx in range(4):
        out[:, idx >> 1, :, idx & 1] = vec[idx] * scaled
    return out.reshape(-1)


def _check_qubit(state: PureState, qubit: int) -> None:
    if not 0 <= qubit < len(state.labels):
        raise ValueError(f"qubit {qubit} out of range for {len(state.labels)} qubits")


def apply_gate(state: PureState, gate: Gate1Q, target: int) -> PureState:
    """Apply a single-qubit unitary to ``target``, identity elsewhere."""
    _check_qubit(state, target)
    if gate.name == "I":
        return state
    return _wrap(_apply_1q(state.amplitudes, target, gate.matrix), state.labels)


def apply_two_qubit(state: PureState, matrix: np.ndarray, q1: int, q2: int) -> PureState:
    """Apply a 4x4 unitary to the ordered qubit pair (q1, q2).

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
    return _wrap(_apply_2q(state.amplitudes, q1, q2, m), state.labels)


def append_qubit(state: PureState, amplitudes, label: str) -> PureState:
    """Tensor a fresh single qubit onto the register as the last qubit."""
    if label in state.labels:
        raise ValueError(f"label {label!r} already present")
    if state.num_qubits + 1 > MAX_QUBITS:
        raise ValueError(f"register limited to {MAX_QUBITS} qubits")
    extra = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if extra.shape[0] != 2:
        raise ValueError("appended qubit needs exactly 2 amplitudes")
    out = (state.amplitudes[:, None] * extra[None, :]).reshape(-1)
    return _wrap(out, state.labels + (label,))


# ---------------------------------------------------------------------------
# Projectors and measurement


@dataclass(frozen=True)
class ZProjector:
    qubit: int
    outcome: int

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise ValueError("z outcome must be 0 or 1")


@dataclass(frozen=True)
class XProjector:
    qubit: int
    outcome: XOutcome

    def __post_init__(self):
        if not isinstance(self.outcome, XOutcome):
            raise TypeError("x outcome must be an XOutcome")


@dataclass(frozen=True)
class BellProjector:
    qubit_a: int
    qubit_b: int
    outcome: BellOutcome

    def __post_init__(self):
        if not isinstance(self.outcome, BellOutcome):
            raise TypeError("bell outcome must be a BellOutcome")
        if self.qubit_a == self.qubit_b:
            raise ValueError("Bell projector needs two distinct qubits")


Projector = Union[ZProjector, XProjector, BellProjector]

_Z_VECS = {
    0: np.array([1.0, 0.0], dtype=complex),
    1: np.array([0.0, 1.0], dtype=complex),
}
_X_VECS = {
    XOutcome.PLUS: np.array([1.0, 1.0], dtype=complex) * _INV_SQRT2,
    XOutcome.MINUS: np.array([1.0, -1.0], dtype=complex) * _INV_SQRT2,
}
# Pair-basis index order: 2*bit(first qubit) + bit(second qubit).
_BELL_VECS = {
    BellOutcome.PHI_PLUS: np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) * _INV_SQRT2,
    BellOutcome.PHI_MINUS: np.array([1.0, 0.0, 0.0, -1.0], dtype=complex) * _INV_SQRT2,
    BellOutcome.PSI_PLUS: np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) * _INV_SQRT2,
    BellOutcome.PSI_MINUS: np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) * _INV_SQRT2,
}

_Z_ORDER = (0, 1)
_X_ORDER = (XOutcome.PLUS, XOutcome.MINUS)
_BELL_ORDER = (
    BellOutcome.PHI_PLUS,
    BellOutcome.PHI_MINUS,
    BellOutcome.PSI_PLUS,
    BellOutcome.PSI_MINUS,
)

_DEGENERATE = 1e-12


def _norm2(arr: np.ndarray) -> float:
    return float(np.vdot(arr, arr).real)


def _pick(rng: np.random.Generator, probs) -> int:
    total = sum(probs)
    if abs(total - 1.0) > ATOL:
        raise RuntimeError(f"measurement probabilities sum to {total!r}")
    r = rng.random()
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if r < acc:
            return k
    return len(probs) - 1


def _guard(prob: float) -> None:
    if prob < _DEGENERATE:
        raise RuntimeError("projection onto a (near-)zero branch; internal logic error")


def measure_z(state: PureState, target: int, rng: np.random.Generator) -> tuple[int, PureState]:
    """Projective z-basis measurement; returns (outcome, collapsed state)."""
    # Plain slices instead of _measure: auth checks call this for every
    # checked qubit, and the generic residual/collapse doubles its cost.
    _check_qubit(state, target)
    psi = _split1(state.amplitudes, target)
    residuals = (psi[:, 0], psi[:, 1])
    probs = [_norm2(res) for res in residuals]
    k = _pick(rng, probs)
    _guard(probs[k])
    out = np.zeros_like(psi)
    out[:, k] = residuals[k] * (1.0 / sqrt(probs[k]))
    return _Z_ORDER[k], _wrap(out.reshape(-1), state.labels)


def _measure(
    state: PureState, qubits: tuple[int, ...], order: tuple, vecs: dict, rng: np.random.Generator
):
    for q in qubits:
        _check_qubit(state, q)
    residuals = [_residual(state.amplitudes, qubits, vecs[o]) for o in order]
    probs = [_norm2(res) for res in residuals]
    k = _pick(rng, probs)
    _guard(probs[k])
    outcome = order[k]
    amps = _collapse(qubits, vecs[outcome], residuals[k], probs[k])
    return outcome, _wrap(amps, state.labels)


def measure_x(state: PureState, target: int, rng: np.random.Generator) -> tuple[XOutcome, PureState]:
    """Projective {|+>, |->} measurement; returns (outcome, collapsed state)."""
    return _measure(state, (target,), _X_ORDER, _X_VECS, rng)


def measure_bell(
    state: PureState, q1: int, q2: int, rng: np.random.Generator
) -> tuple[BellOutcome, PureState]:
    """Bell-basis measurement of the ordered pair (q1, q2)."""
    if q1 == q2:
        raise ValueError("Bell measurement needs two distinct qubits")
    return _measure(state, (q1, q2), _BELL_ORDER, _BELL_VECS, rng)


def _resolve(state: PureState, projector: Projector) -> tuple[tuple[int, ...], np.ndarray]:
    """(qubits, projector vector) of a z / x / Bell projector, qubits range-checked."""
    if isinstance(projector, ZProjector):
        qubits, vec = (projector.qubit,), _Z_VECS[projector.outcome]
    elif isinstance(projector, XProjector):
        qubits, vec = (projector.qubit,), _X_VECS[projector.outcome]
    elif isinstance(projector, BellProjector):
        qubits, vec = (projector.qubit_a, projector.qubit_b), _BELL_VECS[projector.outcome]
    else:
        raise TypeError(f"malformed projector: {projector!r}")
    for q in qubits:
        _check_qubit(state, q)
    return qubits, vec


def project(state: PureState, projector: Projector) -> tuple[float, PureState | None]:
    """Deterministic projection: (Born probability, collapsed state or None).

    The collapsed state is None when the probability is numerically zero.
    Useful as an exact oracle that avoids sampling noise.
    """
    qubits, vec = _resolve(state, projector)
    residual = _residual(state.amplitudes, qubits, vec)
    prob = _norm2(residual)
    if prob < _DEGENERATE:
        return prob, None
    return prob, _wrap(_collapse(qubits, vec, residual, prob), state.labels)


def probability_of(state: PureState, projector: Projector) -> float:
    """Exact Born probability of a z / x / Bell projector."""
    qubits, vec = _resolve(state, projector)
    return _norm2(_residual(state.amplitudes, qubits, vec))


def states_equal_up_to_global_phase(a, b, tol: float = ATOL) -> bool:
    """True when two normalized states differ only by a global phase."""
    va = a.amplitudes if isinstance(a, PureState) else np.asarray(a, dtype=complex)
    vb = b.amplitudes if isinstance(b, PureState) else np.asarray(b, dtype=complex)
    if va.shape != vb.shape:
        return False
    return abs(abs(np.vdot(va, vb)) - 1.0) <= tol
