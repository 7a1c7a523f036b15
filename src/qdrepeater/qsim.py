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
  short enough, each summed to the order that keeps its truncation error
  below float64 rounding (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
  (2011)), and
* a dense density-matrix register (up to 8 qubits) used to simulate the
  swap circuit and power-of-two chains with scalar-fidelity noise channels.
  A gate or Kraus channel on k qubits acts as its 4**k superoperator on
  the (2,)*2n tensor view of the matrix; no full-register operator is
  ever built.  The swap's gates and gate noise form one channel on the two
  middle qubits.  A Z-readout outcome of those qubits reads only one row
  of its superoperator, (1-p) A + (p/16) B from two cached arrays, and the
  four rows times the middle qubits' slab of the tensor view are every
  outcome's unnormalized end pair; its trace is the outcome's probability.
  All branches are corrected as one stacked U rho U^dagger.

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
        if not abs(norm - 1.0) <= _NORM_TOL:     # a NaN norm fails too
            raise ValueError(f"state is not normalized (|norm-1| = {abs(norm-1):.2e})")

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amps, other.amps))


def collective_index(electron_up: int, excitations: int, n_nuclei: int) -> int:
    """Index of |electron, k excitations> in the collective register."""
    return electron_up * (n_nuclei + 1) + excitations


def collective_state(alpha: complex, beta: complex, n_nuclei: int) -> PureState:
    """(alpha |up> + beta |down>) electron over the polarized ensemble,
    normalized.  Raises ValueError when the amplitudes' norm is zero in
    float64, both zero or too small to square, or not finite, as a NaN or
    infinite amplitude makes it."""
    amps = np.zeros(2 * (n_nuclei + 1), dtype=complex)
    amps[collective_index(1, 0, n_nuclei)] = alpha
    amps[collective_index(0, 0, n_nuclei)] = beta
    norm = np.linalg.norm(amps)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"amplitudes alpha = {alpha!r}, beta = {beta!r} have "
                         f"{'zero' if norm == 0.0 else 'no finite'} norm")
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


def _taylor_order(x: float) -> int:
    """Lowest order m >= 1 whose a-priori remainder at ||H dt|| <= x,
    x**(m+1)/(m+1)! * (m+2)/(m+2-x), is below the float64 unit roundoff;
    compared multiplied out, so no m with m + 2 <= x qualifies."""
    return next(m for m in itertools.count(1)
                if x ** (m + 1) / math.factorial(m + 1) * (m + 2)
                <= np.finfo(float).eps / 2 * (m + 2 - x))


def full_space_oracle(p: TransferParams, state: PureState, t: float) -> PureState:
    """Brute-force evolution in the full product space.

    exp(-iHt) acts on the amplitudes as ceil(N |coupling| |t| / 3) Taylor
    steps of length dt.  N |coupling| bounds ||H|| (Gershgorin: at most N
    couplings per row), so every step has ||H dt|| <= x = N |coupling dt|
    <= ``_TAYLOR_STEP_NORM`` = 3, and each is summed to ``_taylor_order(x)``
    terms (27 at x = 3), whose truncation error is below the float64 unit
    roundoff.  H is applied through the partner table; no matrix and no
    decomposition is formed.  The cost grows linearly with N |coupling| |t|:
    the oracle is meant for times of the order of a Rabi period.
    """
    if state.space != "full":
        raise ValueError("full_space_oracle expects a full product-space state")
    if state.n_nuclei != p.n_nuclei:
        raise ValueError("state and parameters disagree on the nucleus count")
    partners = _flipflop_partners(p)
    steps = math.ceil(p.n_nuclei * abs(p.coupling * t) / _TAYLOR_STEP_NORM)
    dt = t / max(steps, 1)
    order = _taylor_order(p.n_nuclei * abs(p.coupling * dt))
    amps = state.amps
    for _ in range(steps):
        term = amps
        for k in range(1, order + 1):
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


def _check_fidelity(name: str, value: float, low: float = 0.0) -> None:
    """ValueError naming ``name`` unless low <= value <= 1 (NaN fails)."""
    if not low <= value <= 1.0:
        raise ValueError(f"{name} = {value!r} is outside [{low:g}, 1]")


def werner_pair(fidelity: float) -> DensityMatrix:
    """Depolarized |psi_plus> pair with the requested Bell fidelity.

    Werner parameter w = (4F-1)/3, so that bell_fidelity returns F exactly.
    Raises ValueError outside 0 <= F <= 1.
    """
    _check_fidelity("fidelity", fidelity)
    w = (4.0 * fidelity - 1.0) / 3.0
    mat = w * np.outer(PSI_PLUS, PSI_PLUS.conj()) + (1.0 - w) * np.eye(4) / 4.0
    return DensityMatrix(mat, 2)


# The swap's constants below are built once, on the first swap rather than
# at import: building them touches numpy's complex einsum, multiply and
# matmul code, which would add about 0.3 MB to the peak RSS of every command
# that never runs the swap.

@functools.cache
def _pauli_products() -> np.ndarray:
    """The 16 two-qubit Pauli products P_a (x) P_b, stacked; I (x) I first."""
    paulis = np.stack((PAULI_I, PAULI_X, PAULI_Y, PAULI_Z))
    return np.einsum("iab,jcd->ijacbd", paulis, paulis).reshape(16, 4, 4)


@functools.cache
def _swap_rows() -> tuple[np.ndarray, np.ndarray]:
    """The swap channel's superoperator rows (o, o) <- (b, d) on [D2, D3].

    A is the term of the gates' unitary S = (H (x) H) CZ (H (x) I) alone,
    S[o, b] conj(S[o, d]), and B its sum over all 16 P_m S; both (4, 16).
    """
    S = np.kron(HADAMARD, HADAMARD) @ CZ_GATE @ np.kron(HADAMARD, PAULI_I)
    kraus = _pauli_products() @ S
    B = np.einsum("mob,mod->obd", kraus, kraus.conj()).reshape(4, 16)
    return np.einsum("ob,od->obd", S, S.conj()).reshape(4, 16), B


def _swap_blocks(rho: DensityMatrix, F_gate: float) -> np.ndarray:
    """The unnormalized [D1, D4] pair of each outcome 2*m2 + m3, (4, 4, 4).

    sum_m w_m (P_m S) (x) conj(P_m S) with p = 4(1 - F_gate)/3, w_0 =
    1 - 15p/16 and w_m = p/16 otherwise is (1 - p) A + (p/16) B.  Raises
    ValueError outside 0.2 <= F_gate <= 1, where some w_m would be negative.
    """
    if rho.n_qubits != 4:
        raise ValueError("swap expects a four-qubit register")
    _check_fidelity("F_gate", F_gate, 0.2)
    p_dep = 4.0 * (1.0 - F_gate) / 3.0
    A, B = _swap_rows()
    slab = rho._tensor().transpose(1, 2, 5, 6, 0, 3, 4, 7).reshape(16, 16)
    return (((1.0 - p_dep) * A + (p_dep / 16.0) * B) @ slab).reshape(4, 4, 4)


def _flip_probabilities(F_readout: float) -> np.ndarray:
    """Probability of each readout flip f = 2*f2 + f3; 0 <= F_readout <= 1."""
    _check_fidelity("F_readout", F_readout)
    eps = 1.0 - F_readout
    p_bit = np.array([1.0 - eps, eps])
    return np.outer(p_bit, p_bit).reshape(4)


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
    sqrt(w_m) P_m S (the channel commutes with every unitary on its qubits).
    Returns a deterministic ordered list of
    ``(probability, (record_D2, record_D3), pair_dm)``, in (m2, m3, f2, f3)
    order of true outcome and readout flip, with the record-conditioned
    Pauli correction already applied to D4.  ``_swap_blocks`` gives every
    outcome's unnormalized [D1, D4] pair from the four superoperator rows
    it reads; its trace is the outcome's probability.  Raises ValueError
    outside 0.2 <= F_gate <= 1 or 0 <= F_readout <= 1.
    """
    p_flip = _flip_probabilities(F_readout)
    # blocks[2*m2 + m3] is outcome (m2, m3)'s unnormalized pair, and
    # outcome ^ flip is the record 2*r2 + r3; branch 4*outcome + flip runs
    # in (m2, m3, f2, f3) order
    blocks = _swap_blocks(rho, F_gate)
    probs = np.trace(blocks, axis1=1, axis2=2).real
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
    """Outcome-averaged swap of two pairs (exact, no sampling).

    sum_{o, f} p_f U_r B_o U_r^dagger over outcome o and flip f, record
    r = o ^ f and unnormalized pair B_o: the branch probabilities cancel.
    Raises ValueError as ``swap_branches`` does.
    """
    p_flip = _flip_probabilities(F_readout)
    blocks = _swap_blocks(pair_a.tensor(pair_b), F_gate)
    outcome, flip = np.divmod(np.arange(16), 4)
    U = _pair_corrections()[outcome ^ flip]
    corrected = U @ blocks[outcome] @ U.conj().transpose(0, 2, 1)
    return DensityMatrix(np.tensordot(p_flip[flip], corrected, 1), 2)


def chain_fidelity_oracle(l: int, F_ent: float, F_transfer: float,
                          F_gate: float, F_readout: float,
                          F_e_init: float) -> float:
    """End-to-end Bell fidelity of an l-link chain, exactly branch-averaged.

    Each link starts as a depolarized pair of fidelity
    F_e_init**2 * F_ent * F_transfer**2 (two initialized dots, one heralded
    generation, two write-read cycles), so all pairs of a level are one state
    and one noisy swap per level composes the chain (Dur et al., PRA 59, 169
    (1999)); l must be a power of two (l = 2**n_nest).  No register ever
    holds more than the four qubits of one swap.  Raises ValueError, naming
    the argument, outside 0.2 <= F_gate <= 1 or 0 <= F <= 1 for the other
    fidelities, at every l.
    """
    if l < 1 or l & (l - 1):
        raise ValueError(f"chain oracle needs a power-of-two length, got {l}")
    for name, value, low in (("F_ent", F_ent, 0.0),
                             ("F_transfer", F_transfer, 0.0),
                             ("F_gate", F_gate, 0.2),
                             ("F_readout", F_readout, 0.0),
                             ("F_e_init", F_e_init, 0.0)):
        _check_fidelity(name, value, low)
    pair = werner_pair(F_e_init**2 * F_ent * F_transfer**2)
    for _ in range(l.bit_length() - 1):
        pair = averaged_swap(pair, pair, F_gate, F_readout)
    return bell_fidelity(pair)
