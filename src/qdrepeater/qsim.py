"""Small exact quantum oracle for the protocol's quantum steps.

Two layers:

* state-vector dynamics of the electron to nuclear-ensemble flip-flop
  transfer, both in the collective excitation-number basis and in the full
  2**(N+1) product space (brute-force cross-check).  Every coupling is
  real, so both Hamiltonians are real symmetric float64 matrices.  The
  collective register (2*(N+1) wide) is diagonalized.  The full-space
  evolution never forms a matrix: each register index has at most N
  flip-flop partners, so H acts on a state vector as one gather over a
  partner table, and exp(-iHt) acts as a truncated Taylor series in steps
  short enough that the truncation error stays below float64 rounding
  (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), and
* a dense density-matrix register (up to 8 qubits) used to simulate the
  swap circuit and power-of-two chains with scalar-fidelity noise channels.
  A gate or Kraus channel on k qubits acts as its 4**k superoperator on
  the (2,)*2n tensor view of the matrix; no full-register operator is
  ever built.  The swap's gates and gate noise act as one fused channel on
  the two middle qubits.  Each Z-readout outcome of those qubits is one
  slice of the tensor view, which projects and traces them out in one
  step; its trace is the outcome's probability.  The four slices are read
  in one einsum, and the record-conditioned corrections of all kept
  branches are applied as one stacked U rho U^dagger.

Conventions: qubit |0> is spin-down, |1> is spin-up; qubit 0 is the most
significant bit of the register index.  The controlled-Z gate flips the sign
of |11> (both spins up) only.  Scalar fidelities are realized as depolarizing
channels: a pair fidelity F maps to a Werner state of parameter
(4F-1)/3, a gate fidelity to a two-qubit depolarizing channel of matching
average gate fidelity.  Readout errors flip the classical record with
probability 1 - F_readout; no extra quantum back-action.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .params import record

_NORM_TOL = 1e-9
_TRACE_TOL = 1e-10

MAX_FULL_SPACE_NUCLEI = 10

#: Largest ||H dt|| of one Taylor step of the full-space exp(-iHt).
_TAYLOR_STEP_NORM = 3.0
#: Lowest Taylor order whose a-priori remainder at that norm x,
#: x**(m+1)/(m+1)! * (m+2)/(m+2-x), is below the float64 unit roundoff.
_TAYLOR_ORDER = next(
    m for m in itertools.count(math.ceil(_TAYLOR_STEP_NORM))
    if _TAYLOR_STEP_NORM ** (m + 1) / math.factorial(m + 1)
    * (m + 2) / (m + 2 - _TAYLOR_STEP_NORM) <= np.finfo(float).eps / 2)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
CZ_GATE = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

#: The target Bell state |psi_plus> = (|01> + |10>)/sqrt(2).
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# transfer dynamics
# ---------------------------------------------------------------------------

@record
class TransferParams:
    """Flip-flop transfer configuration.

    ``coupling`` is the rescaled per-nucleus hyperfine rate (rad/s); from the
    polarized ensemble the collective Rabi rate is sqrt(n_nuclei)*coupling.
    """

    n_nuclei: int
    coupling: float

    def __post_init__(self):
        if self.n_nuclei < 1:
            raise ValueError("need at least one nucleus")

    @property
    def rabi_rate(self) -> float:
        return math.sqrt(self.n_nuclei) * self.coupling


@record
class PureState:
    """State vector over a labeled register.

    ``space`` is ``"collective"`` (electron times excitation number,
    dimension 2*(N+1)) or ``"full"`` (electron times N spin-1/2 nuclei,
    dimension 2**(N+1)).
    """

    amps: np.ndarray
    n_nuclei: int
    space: str = "collective"

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        expected = (2 * (self.n_nuclei + 1) if self.space == "collective"
                    else 2 ** (self.n_nuclei + 1))
        if amps.shape != (expected,):
            raise ValueError(f"state dimension {amps.shape} does not match "
                             f"{self.space} register of {self.n_nuclei} nuclei")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state is not normalized (|norm-1| = {abs(norm-1):.2e})")

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amps, other.amps))


def collective_index(electron_up: int, excitations: int, n_nuclei: int) -> int:
    """Index of |electron, k excitations> in the collective register."""
    return electron_up * (n_nuclei + 1) + excitations


def collective_state(alpha: complex, beta: complex, n_nuclei: int) -> PureState:
    """(alpha |up> + beta |down>) electron over the polarized ensemble."""
    amps = np.zeros(2 * (n_nuclei + 1), dtype=complex)
    amps[collective_index(1, 0, n_nuclei)] = alpha
    amps[collective_index(0, 0, n_nuclei)] = beta
    norm = np.linalg.norm(amps)
    return PureState(amps / norm, n_nuclei, "collective")


def build_flipflop_hamiltonian(p: TransferParams) -> np.ndarray:
    """Flip-flop Hamiltonian on the electron x collective-excitation basis.

    Couples |up, k> to |down, k+1> with the spin-1/2 collective ladder
    element coupling*sqrt((k+1)(N-k)); |down, 0> is exactly stationary.
    Every element is real, so the matrix is real symmetric (float64).
    """
    n = p.n_nuclei
    dim = 2 * (n + 1)
    H = np.zeros((dim, dim))
    for k in range(n):
        elem = p.coupling * math.sqrt((k + 1) * (n - k))
        i_up = collective_index(1, k, n)
        i_dn = collective_index(0, k + 1, n)
        H[i_up, i_dn] = elem
        H[i_dn, i_up] = elem
    return H


def transfer_propagator(p: TransferParams,
                        t: float | np.ndarray) -> np.ndarray:
    """Exact unitary exp(-i H t) on the collective register (complex).

    ``t`` may be an array of times; the result then stacks one unitary per
    time, from a single diagonalization.
    """
    energies, modes = np.linalg.eigh(build_flipflop_hamiltonian(p))
    phases = np.exp(-1j * energies * np.asarray(t)[..., None])
    return (modes * phases[..., None, :]) @ modes.T


def evolve_transfer(state: PureState, p: TransferParams, t: float) -> PureState:
    """Evolve a collective-register state for time t under the flip-flop."""
    if state.space != "collective":
        raise ValueError("evolve_transfer expects a collective-basis state")
    if state.n_nuclei != p.n_nuclei:
        raise ValueError("state and parameters disagree on the nucleus count")
    amps = transfer_propagator(p, t) @ state.amps
    return PureState(amps, p.n_nuclei, "collective")


def _flipflop_partners(p: TransferParams) -> np.ndarray:
    """Flip-flop partner table of the 2**(N+1) product register.

    The electron is the most significant bit of the register index.  Row i
    holds, for every index, the index with the electron and nucleus i
    (bit i) both flipped; the two are coupled when those bits differ.
    Where they agree the entry is 2**(N+1), one past the register, so a
    gather from the amplitudes padded with one zero skips it.
    """
    if p.n_nuclei > MAX_FULL_SPACE_NUCLEI:
        raise ValueError(f"full space limited to {MAX_FULL_SPACE_NUCLEI} nuclei")
    n = p.n_nuclei
    idx = np.arange(2 ** (n + 1))
    electron = 1 << n
    nucleus = 1 << np.arange(n)[:, None]
    coupled = ((idx & electron) == 0) != ((idx & nucleus) == 0)
    return np.where(coupled, idx ^ (electron | nucleus), idx.size)


def _flipflop_action(p: TransferParams, partners: np.ndarray,
                     psi: np.ndarray) -> np.ndarray:
    """H psi for the full-space Hamiltonian, from its partner table."""
    return p.coupling * np.append(psi, 0.0)[partners].sum(axis=0)


def build_full_space_hamiltonian(p: TransferParams) -> np.ndarray:
    """Per-nucleus flip-flop Hamiltonian on the 2**(N+1) product register.

    coupling * sum_i (sigma+_i S-_e + sigma-_i S+_e); only the delta_m = 1
    single-magnon mode has a product-space representation here.  Each index
    with the electron up and nucleus i down couples to the index with both
    bits flipped (see ``_flipflop_partners``).  The coupling is real, so
    the matrix is real symmetric (float64).  The oracle only applies H to
    vectors; the dense matrix is the definition they are checked against.
    """
    partners = _flipflop_partners(p)
    dim = partners.shape[1]
    coupled = partners < dim
    H = np.zeros((dim, dim))
    H[np.nonzero(coupled)[1], partners[coupled]] = p.coupling
    return H


def _up_spins(n_qubits: int) -> np.ndarray:
    """Number of up spins (set bits) of every index of an n-qubit register."""
    idx = np.arange(2**n_qubits)
    return sum((idx >> bit) & 1 for bit in range(n_qubits))


def full_space_oracle(p: TransferParams, state: PureState, t: float) -> PureState:
    """Brute-force evolution in the full product space.

    exp(-iHt) acts on the amplitudes as ceil(N |coupling| |t| / 3) Taylor
    steps, each summed to the fixed order ``_TAYLOR_ORDER`` (27).
    N |coupling| bounds ||H|| (Gershgorin: at most N couplings per row), so
    every step has ||H dt|| <= ``_TAYLOR_STEP_NORM`` = 3 and its truncation
    error is below the float64 unit roundoff.  H is applied through the
    partner table; no matrix and no decomposition is formed.  The cost
    grows linearly with N |coupling| |t|: the oracle is meant for times of
    the order of a Rabi period.
    """
    if state.space != "full":
        raise ValueError("full_space_oracle expects a full product-space state")
    if state.n_nuclei != p.n_nuclei:
        raise ValueError("state and parameters disagree on the nucleus count")
    partners = _flipflop_partners(p)
    steps = math.ceil(p.n_nuclei * abs(p.coupling * t) / _TAYLOR_STEP_NORM)
    dt = t / max(steps, 1)
    amps = state.amps
    for _ in range(steps):
        term = amps
        for k in range(1, _TAYLOR_ORDER + 1):
            term = (-1j * dt / k) * _flipflop_action(p, partners, term)
            amps = amps + term
    return PureState(amps, p.n_nuclei, "full")


def embed_collective(state: PureState) -> PureState:
    """Lift a collective-basis state to the full product space.

    The k-excitation basis state maps to the symmetric Dicke state of k
    raised nuclei: amplitude / sqrt(C(N, k)) on every nuclear bit string
    with k set bits, below the electron's most significant bit.
    """
    if state.space != "collective":
        raise ValueError("expected a collective-basis state")
    n = state.n_nuclei
    norms = np.sqrt([math.comb(n, k) for k in range(n + 1)])
    full = (state.amps.reshape(2, n + 1) / norms)[:, _up_spins(n)].reshape(-1)
    return PureState(full, n, "full")


# ---------------------------------------------------------------------------
# density-matrix register
# ---------------------------------------------------------------------------

class DensityMatrix:
    """Dense density matrix over a small qubit register."""

    def __init__(self, mat: np.ndarray, n_qubits: int, check: bool = True):
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (2**n_qubits, 2**n_qubits):
            raise ValueError("matrix shape does not match the qubit count")
        if check:
            if abs(np.trace(mat).real - 1.0) > _TRACE_TOL:
                raise ValueError("density matrix trace differs from 1")
            # np.allclose(mat, adj, atol=1e-9) in one pass: NaN fails
            adj = mat.conj().T
            if not (np.abs(mat - adj) <= 1e-9 + 1e-5 * np.abs(adj)).all():
                raise ValueError("density matrix is not Hermitian")
        self.mat = mat
        self.n_qubits = n_qubits

    @classmethod
    def from_pure(cls, amps: np.ndarray) -> "DensityMatrix":
        amps = np.asarray(amps, dtype=complex)
        n = int(round(math.log2(amps.size)))
        amps = amps / np.linalg.norm(amps)
        return cls(np.outer(amps, amps.conj()), n)

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """The product state; the entries of ``np.kron``, without its cost."""
        dim = self.mat.shape[0] * other.mat.shape[0]
        joint = np.multiply.outer(self.mat, other.mat).transpose(0, 2, 1, 3)
        return DensityMatrix(joint.reshape(dim, dim),
                             self.n_qubits + other.n_qubits, check=False)

    def _tensor(self) -> np.ndarray:
        """The matrix as a (2,)*2n tensor: row qubits, then column qubits."""
        return self.mat.reshape((2,) * (2 * self.n_qubits))

    def apply_kraus(self, ops: list[np.ndarray],
                    qubits: list[int]) -> "DensityMatrix":
        """sum_m K_m rho K_m^dagger with each K_m acting on ``qubits``.

        ``qubits[0]`` is the most significant bit of the operators' index.
        The channel is applied as its 4**k superoperator
        sum_m K_m (x) conj(K_m) to the tensor view with the target row and
        column axes moved to the front.
        """
        n, k = self.n_qubits, len(qubits)
        if len(set(qubits)) != k:
            raise ValueError("target qubits must be distinct")
        rest = [q for q in range(n) if q not in qubits]
        order = (list(qubits) + [q + n for q in qubits]
                 + rest + [q + n for q in rest])
        kraus = np.asarray(ops, dtype=complex)
        superop = np.tensordot(kraus, kraus.conj(), (0, 0))
        superop = superop.transpose(0, 2, 1, 3)
        front = self._tensor().transpose(order).reshape(4**k, -1)
        out = (superop.reshape(4**k, 4**k) @ front).reshape((2,) * (2 * n))
        out = out.transpose(np.argsort(order)).reshape(self.mat.shape)
        return DensityMatrix(out, n, check=False)


def bell_fidelity(rho: DensityMatrix) -> float:
    """Overlap <psi_plus|rho|psi_plus> with the target Bell state."""
    if rho.n_qubits != 2:
        raise ValueError("bell_fidelity expects a two-qubit state")
    return float(np.real(PSI_PLUS.conj() @ rho.mat @ PSI_PLUS))


def werner_pair(fidelity: float) -> DensityMatrix:
    """Depolarized |psi_plus> pair with the requested Bell fidelity.

    Werner parameter w = (4F-1)/3, so that bell_fidelity returns F exactly.
    """
    w = (4.0 * fidelity - 1.0) / 3.0
    mat = w * np.outer(PSI_PLUS, PSI_PLUS.conj()) + (1.0 - w) * np.eye(4) / 4.0
    return DensityMatrix(mat, 2)


# The gate constants below are built once, on first use rather than at
# import: building them touches numpy's complex einsum, multiply and matmul
# code, which would add about 0.3 MB to the peak RSS of every command that
# never runs the swap.

@functools.cache
def _pauli_products() -> np.ndarray:
    """The 16 two-qubit Pauli products P_a (x) P_b, stacked; I (x) I first."""
    paulis = np.stack((PAULI_I, PAULI_X, PAULI_Y, PAULI_Z))
    return np.einsum("iab,jcd->ijacbd", paulis, paulis).reshape(16, 4, 4)


def _two_qubit_depolarizing_kraus(F_gate: float) -> np.ndarray:
    """The 16 weighted Pauli products P_a (x) P_b, stacked; I (x) I first.

    The depolarizing strength p = 4*(1-F)/3 makes the channel's average gate
    fidelity equal ``F_gate``.
    """
    p_dep = 4.0 * (1.0 - F_gate) / 3.0
    weights = np.full(16, p_dep / 16.0)
    weights[0] = 1.0 - 15.0 * p_dep / 16.0
    return np.sqrt(weights)[:, None, None] * _pauli_products()


@functools.cache
def _swap_unitary() -> np.ndarray:
    """(H (x) H) CZ (H (x) I) on [D2, D3]: the swap's gates as one unitary."""
    return (np.kron(HADAMARD, HADAMARD) @ CZ_GATE
            @ np.kron(HADAMARD, PAULI_I))


@functools.cache
def _pair_corrections() -> np.ndarray:
    """kron(I, P) restoring |psi_plus> on [D1, D4], at 2*record_z + record_x."""
    return np.stack([np.kron(PAULI_I, P) for P in
                     (PAULI_X, PAULI_Z @ PAULI_X, PAULI_I, PAULI_Z)])


def swap_branches(rho: DensityMatrix, F_gate: float, F_readout: float):
    """All measurement branches of one entanglement swap.

    ``rho`` holds the four communication qubits [D1, D2, D3, D4].  The swap is
    H(D2) CZ(D2,D3) H(D2), then H(D3); D2 and D3 are read out in Z with the
    record flipped with probability 1 - F_readout.  The gates and the CZ's
    depolarizing noise act as one channel on (D2, D3), with Kraus operators
    K_m S for the circuit's unitary S = (H (x) H) CZ (H (x) I): the
    depolarizing channel commutes with every unitary on the qubits it acts
    on.  Returns a deterministic
    ordered list of ``(probability, (record_D2, record_D3), pair_dm)``, in
    (m2, m3, f2, f3) order of true outcome and readout flip, with the
    record-conditioned Pauli correction already applied to D4.  The slice
    ``[:, m2, m3, :, :, m2, m3, :]`` of the tensor view is the unnormalized
    [D1, D4] state of outcome (m2, m3): it projects D2 and D3 and traces
    them out at once, and its trace is the joint probability.  One einsum
    reads all four slices, and every kept branch is corrected in one
    stacked U @ pair @ U^dagger.
    """
    if rho.n_qubits != 4:
        raise ValueError("swap expects a four-qubit register")
    eps = 1.0 - F_readout
    kraus = _two_qubit_depolarizing_kraus(F_gate) @ _swap_unitary()
    state = rho.apply_kraus(kraus, [1, 2])
    # blocks[2*m2 + m3] is outcome (m2, m3)'s unnormalized pair, and
    # outcome ^ flip is the record 2*r2 + r3; branch 4*outcome + flip runs
    # in (m2, m3, f2, f3) order
    blocks = np.einsum("aijbcijd->ijabcd", state._tensor()).reshape(4, 4, 4)
    probs = np.trace(blocks, axis1=1, axis2=2).real
    p_bit = np.array([1.0 - eps, eps])
    p_flip = np.outer(p_bit, p_bit).reshape(4)
    outcome, flip = np.divmod(np.arange(16), 4)
    skip = (probs[outcome] <= 1e-15) | (p_flip[flip] == 0.0)
    outcome, flip = outcome[~skip], flip[~skip]
    record = outcome ^ flip
    U = _pair_corrections()[record]
    pairs = blocks[outcome] / probs[outcome, None, None]
    corrected = U @ pairs @ U.conj().transpose(0, 2, 1)
    weights = probs[outcome] * p_flip[flip]
    return [(float(w), divmod(int(r), 2), DensityMatrix(mat, 2, check=False))
            for w, r, mat in zip(weights, record, corrected)]


def averaged_swap(pair_a: DensityMatrix, pair_b: DensityMatrix,
                  F_gate: float, F_readout: float) -> DensityMatrix:
    """Outcome-averaged swap of two pairs (exact, no sampling)."""
    joint = pair_a.tensor(pair_b)
    out = np.zeros((4, 4), dtype=complex)
    for prob, _, pair in swap_branches(joint, F_gate, F_readout):
        out += prob * pair.mat
    return DensityMatrix(out, 2)


def chain_fidelity_oracle(l: int, F_ent: float, F_transfer: float,
                          F_gate: float, F_readout: float,
                          F_e_init: float) -> float:
    """End-to-end Bell fidelity of an l-link chain, exactly branch-averaged.

    Each link starts as a depolarized pair of fidelity
    F_e_init**2 * F_ent * F_transfer**2 (two initialized dots, one heralded
    generation, two write-read cycles), so all pairs of a level are one state
    and one noisy swap per level composes the chain (Dur et al., PRA 59, 169
    (1999)); l must be a power of two (l = 2**n_nest).  No register ever
    holds more than the four qubits of one swap.
    """
    if l < 1 or l & (l - 1):
        raise ValueError(f"chain oracle needs a power-of-two length, got {l}")
    pair = werner_pair(F_e_init**2 * F_ent * F_transfer**2)
    for _ in range(l.bit_length() - 1):
        pair = averaged_swap(pair, pair, F_gate, F_readout)
    return bell_fidelity(pair)
