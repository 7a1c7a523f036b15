import math
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdrepeater import qsim


def swap_fidelity_closed_form(F1, F2, F_gate, F_readout):
    """Independent oracle: depolarizing algebra for one noisy swap.

    Werner weights multiply through an ideal swap; the gate's depolarizing
    part and any wrongly-corrected branch land on the maximally mixed /
    orthogonal-Bell contributions.
    """
    w1 = (4 * F1 - 1) / 3
    w2 = (4 * F2 - 1) / 3
    p_gate = 4 * (1 - F_gate) / 3
    w = w1 * w2
    record_ok = F_readout**2
    return (1 - p_gate) * (w * record_ok + (1 - w) / 4) + p_gate / 4


# ------------------------------------------------------------ references
#
# Loop-built dense kernels that the whole-array ones in qsim replaced; kept
# here as the oracle the fast paths must reproduce.

def embed_reference(op, targets, n_qubits):
    """Place a 2**k operator on the given qubits of an n-qubit register."""
    k = len(targets)
    dim = 2**n_qubits
    rest = [q for q in range(n_qubits) if q not in targets]
    out = np.zeros((dim, dim), dtype=complex)
    t_shift = [n_qubits - 1 - q for q in targets]
    r_shift = [n_qubits - 1 - q for q in rest]

    def spread(bits, shifts):
        idx = 0
        for pos, shift in enumerate(shifts):
            idx |= ((bits >> (len(shifts) - 1 - pos)) & 1) << shift
        return idx

    rest_indices = [spread(r, r_shift) for r in range(2 ** len(rest))]
    for a in range(2**k):
        ia = spread(a, t_shift)
        for b in range(2**k):
            v = op[a, b]
            if v == 0:
                continue
            ib = spread(b, t_shift)
            for ir in rest_indices:
                out[ia | ir, ib | ir] = v
    return out


def full_space_hamiltonian_reference(p):
    n_qubits = p.n_nuclei + 1
    s_minus = np.array([[0, 1], [0, 0]], dtype=complex)
    sig_plus = np.array([[0, 0], [1, 0]], dtype=complex)
    pair = np.kron(s_minus, sig_plus) + np.kron(s_minus, sig_plus).conj().T
    H = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for i in range(1, n_qubits):
        H += embed_reference(pair, [0, i], n_qubits)
    return p.coupling * H


def full_space_evolution_reference(p, amps, times):
    """One dense eigh of the whole 2**(N+1) Hamiltonian; a state per time."""
    energies, modes = np.linalg.eigh(full_space_hamiltonian_reference(p))
    coeffs = modes.conj().T @ amps
    return [modes @ (np.exp(-1j * energies * t) * coeffs) for t in times]


def two_qubit_depolarizing_kraus(F_gate):
    """The 16 weighted Pauli products P_a (x) P_b, stacked; I (x) I first.

    The depolarizing strength p = 4*(1-F)/3 makes the channel's average gate
    fidelity equal ``F_gate``.
    """
    paulis = (qsim.PAULI_I, qsim.PAULI_X, qsim.PAULI_Y, qsim.PAULI_Z)
    p_dep = 4.0 * (1.0 - F_gate) / 3.0
    weights = np.full(16, p_dep / 16.0)
    weights[0] = 1.0 - 15.0 * p_dep / 16.0
    products = np.stack([np.kron(a, b) for a in paulis for b in paulis])
    return np.sqrt(weights)[:, None, None] * products


def noisy_cz_reference(rho, q1, q2, F_gate=1.0):
    """Controlled-Z on (q1, q2), then two-qubit depolarizing noise of average
    gate fidelity ``F_gate``, as two channels one after the other."""
    out = rho.apply_kraus([qsim.CZ_GATE], [q1, q2])
    if F_gate >= 1.0:
        return out
    return out.apply_kraus(two_qubit_depolarizing_kraus(F_gate), [q1, q2])


def measure_z_reference(mat, n_qubits, qubit):
    """Both outcomes of a Z measurement: (outcome, unnormalized state)."""
    bit = (np.arange(2**n_qubits) >> (n_qubits - 1 - qubit)) & 1
    branches = []
    for outcome in (0, 1):
        mask = (bit == outcome).astype(float)
        branches.append((outcome, mat * (mask[:, None] * mask[None, :])))
    return branches


def swap_branches_reference(rho, F_gate, F_readout):
    """The swap's branches by projector masks on the whole register.

    Runs the circuit gate by gate (H(D2), noisy CZ, H(D2), H(D3)), measures
    D2, then D3, applies the record's Pauli to D4 as a 4-qubit
    operator (X unless D2 read 1, then Z if D3 read 1), and traces D2 and D3
    out with an explicit einsum.  Like ``qsim.swap_branches`` it skips an
    outcome of probability at most 1e-15.
    """
    eps = 1.0 - F_readout
    state = rho.apply_kraus([qsim.HADAMARD], [1])
    state = noisy_cz_reference(state, 1, 2, F_gate)
    state = state.apply_kraus([qsim.HADAMARD], [1])
    state = state.apply_kraus([qsim.HADAMARD], [2])
    branches = []
    for m2, after2 in measure_z_reference(state.mat, 4, 1):
        for m3, after3 in measure_z_reference(after2, 4, 2):
            prob = float(np.trace(after3).real)
            if prob <= 1e-15:
                continue
            for f2 in (0, 1):
                for f3 in (0, 1):
                    p_flip = ((eps if f2 else 1 - eps)
                              * (eps if f3 else 1 - eps))
                    if p_flip == 0.0:
                        continue
                    r2, r3 = m2 ^ f2, m3 ^ f3
                    pauli = (np.linalg.matrix_power(qsim.PAULI_Z, r3)
                             @ np.linalg.matrix_power(qsim.PAULI_X, 1 - r2))
                    U = embed_reference(pauli, [3], 4)
                    corrected = (U @ after3 @ U.conj().T).reshape((2,) * 8)
                    pair = np.einsum("abcdebcf->adef", corrected) / prob
                    branches.append((prob * p_flip, (r2, r3),
                                     pair.reshape(4, 4)))
    return branches


def kraus_by_einsum_superoperator(rho, kraus, qubits):
    """The channel through its superoperator built by einsum, as
    ``DensityMatrix.apply_kraus`` built it before it used tensordot."""
    n, k = rho.n_qubits, len(qubits)
    rest = [q for q in range(n) if q not in qubits]
    order = (list(qubits) + [q + n for q in qubits]
             + rest + [q + n for q in rest])
    superop = np.einsum("mab,mcd->acbd", kraus, kraus.conj())
    front = rho.mat.reshape((2,) * (2 * n)).transpose(order)
    out = (superop.reshape(4**k, 4**k) @ front.reshape(4**k, -1))
    out = out.reshape((2,) * (2 * n)).transpose(np.argsort(order))
    return out.reshape(rho.mat.shape)


def embed_collective_reference(state):
    """Dicke amplitudes written one raised-nuclei combination at a time."""
    n = state.n_nuclei
    full = np.zeros(2 ** (n + 1), dtype=complex)
    for e in (0, 1):
        for k in range(n + 1):
            weight = (state.amps[qsim.collective_index(e, k, n)]
                      / math.sqrt(math.comb(n, k)))
            for raised in combinations(range(n), k):
                idx = e << n
                for pos in raised:
                    idx |= 1 << (n - 1 - pos)
                full[idx] += weight
    return full


def random_density_matrix(rng, n_qubits):
    a = (rng.normal(size=(2**n_qubits, 2**n_qubits))
         + 1j * rng.normal(size=(2**n_qubits, 2**n_qubits)))
    rho = a @ a.conj().T
    return qsim.DensityMatrix(rho / np.trace(rho).real, n_qubits)


def density_matrices(n_qubits):
    """Drawn density matrices a a^dagger / tr, of every rank."""
    dim = 2**n_qubits
    factors = st.integers(1, dim).flatmap(
        lambda rank: arrays(np.float64, (2, dim, rank),
                            elements=st.floats(-1.0, 1.0)))
    return (factors.map(lambda f: f[0] + 1j * f[1])
            .filter(lambda a: np.vdot(a, a).real > 1e-6)
            .map(lambda a: qsim.DensityMatrix(
                a @ a.conj().T / np.vdot(a, a).real, n_qubits)))


def random_operator(rng, k):
    return rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))


def up_spin_count(n_qubits):
    idx = np.arange(2**n_qubits)
    return sum((idx >> b) & 1 for b in range(n_qubits))


# ------------------------------------------------------------ transfer

def test_hamiltonian_is_hermitian_with_collective_ladder():
    p = qsim.TransferParams(n_nuclei=4, coupling=3.0)
    H = qsim.build_flipflop_hamiltonian(p)
    assert np.allclose(H, H.conj().T)
    up0 = qsim.collective_index(1, 0, 4)
    dn1 = qsim.collective_index(0, 1, 4)
    assert H[up0, dn1] == pytest.approx(math.sqrt(4) * 3.0)
    # k = 1 ladder element: sqrt((k+1)(N-k)) = sqrt(2*3)
    up1 = qsim.collective_index(1, 1, 4)
    dn2 = qsim.collective_index(0, 2, 4)
    assert H[up1, dn2] == pytest.approx(math.sqrt(6) * 3.0)


def test_vacuum_with_spin_down_is_stationary():
    p = qsim.TransferParams(n_nuclei=6, coupling=2.0)
    H = qsim.build_flipflop_hamiltonian(p)
    dn0 = qsim.collective_index(0, 0, 6)
    assert np.all(H[:, dn0] == 0)
    assert np.all(H[dn0, :] == 0)


def test_evolution_matches_two_level_solution():
    p = qsim.TransferParams(n_nuclei=3, coupling=1.7)
    g = p.rabi_rate
    alpha, beta = 0.6, 0.8j
    state = qsim.collective_state(alpha, beta, 3)
    for t in (0.0, 0.3, 1.1, 2.9):
        evolved = qsim.evolve_transfer(state, p, t)
        up0 = evolved.amps[qsim.collective_index(1, 0, 3)]
        dn1 = evolved.amps[qsim.collective_index(0, 1, 3)]
        dn0 = evolved.amps[qsim.collective_index(0, 0, 3)]
        assert up0 == pytest.approx(alpha * math.cos(g * t), abs=1e-10)
        assert dn1 == pytest.approx(-1j * alpha * math.sin(g * t), abs=1e-10)
        assert dn0 == pytest.approx(beta, abs=1e-10)


def test_half_period_completes_the_write():
    p = qsim.TransferParams(n_nuclei=5, coupling=2.2)
    state = qsim.collective_state(1.0, 0.0, 5)
    written = qsim.evolve_transfer(state, p, math.pi / (2 * p.rabi_rate))
    dn1 = qsim.collective_index(0, 1, 5)
    assert written.amps[dn1] == pytest.approx(-1j, abs=1e-10)
    assert abs(written.amps[dn1]) == pytest.approx(1.0, abs=1e-12)


def test_write_read_cycle_returns_excitation():
    p = qsim.TransferParams(n_nuclei=5, coupling=2.2)
    alpha, beta = 0.48, math.sqrt(1 - 0.48**2)
    half = math.pi / (2 * p.rabi_rate)
    written = qsim.evolve_transfer(qsim.collective_state(alpha, beta, 5), p, half)
    back = qsim.evolve_transfer(written, p, half)
    up0 = qsim.collective_index(1, 0, 5)
    dn0 = qsim.collective_index(0, 0, 5)
    # two quarter-cycles flip the sign of the up component
    assert back.amps[up0] == pytest.approx(-alpha, abs=1e-10)
    assert back.amps[dn0] == pytest.approx(beta, abs=1e-10)
    nuclear_rest = np.delete(back.amps, [up0, dn0])
    assert np.max(np.abs(nuclear_rest)) < 1e-10


def test_rabi_law_to_machine_precision():
    p = qsim.TransferParams(n_nuclei=4, coupling=1.0)
    g = p.rabi_rate
    state = qsim.collective_state(1.0, 0.0, 4)
    dn1 = qsim.collective_index(0, 1, 4)
    worst = max(
        abs(abs(qsim.evolve_transfer(state, p, t).amps[dn1]) ** 2
            - math.sin(g * t) ** 2)
        for t in np.linspace(0, 2 * math.pi / g, 57))
    assert worst < 1e-9


def test_transfer_propagator_broadcasts_over_times():
    p = qsim.TransferParams(n_nuclei=4, coupling=1.3)
    times = np.array([0.0, 0.21, 1.7, 5.3])
    stacked = qsim.transfer_propagator(p, times)
    assert stacked.shape == (4, 10, 10)
    for t, U in zip(times, stacked):
        assert np.max(np.abs(U - qsim.transfer_propagator(p, t))) < 1e-15


def test_entangled_pair_transfers_jointly():
    # (|up,down> + |down,up>)/sqrt(2) over two dots -> -i |down,down> (|10>+|01>)/sqrt(2)
    p = qsim.TransferParams(n_nuclei=3, coupling=1.3)
    half = math.pi / (2 * p.rabi_rate)
    U = qsim.transfer_propagator(p, half)
    dim = 2 * (3 + 1)
    up0 = qsim.collective_index(1, 0, 3)
    dn0 = qsim.collective_index(0, 0, 3)
    dn1 = qsim.collective_index(0, 1, 3)
    joint = np.zeros(dim * dim, dtype=complex)
    joint[up0 * dim + dn0] = 1 / math.sqrt(2)
    joint[dn0 * dim + up0] = 1 / math.sqrt(2)
    evolved = np.kron(U, U) @ joint
    expected = np.zeros_like(joint)
    expected[dn1 * dim + dn0] = -1j / math.sqrt(2)
    expected[dn0 * dim + dn1] = -1j / math.sqrt(2)
    assert np.allclose(evolved, expected, atol=1e-10)


# ------------------------------------------------------------ full space

def test_full_space_single_nucleus_rabi_rate():
    p = qsim.TransferParams(n_nuclei=1, coupling=0.9)
    state = qsim.embed_collective(qsim.collective_state(1.0, 0.0, 1))
    t = 0.4
    evolved = qsim.full_space_oracle(p, state, t)
    # two-spin flip-flop: |up,down> <-> |down,up> at frequency = coupling
    idx_dn_up = 0b01
    assert abs(evolved.amps[idx_dn_up]) ** 2 == pytest.approx(
        math.sin(0.9 * t) ** 2, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_space_agrees_with_collective(n):
    p = qsim.TransferParams(n_nuclei=n, coupling=1.5)
    coll = qsim.collective_state(0.6, 0.8, n)
    t = 0.81 / p.rabi_rate
    via_coll = qsim.embed_collective(qsim.evolve_transfer(coll, p, t))
    via_full = qsim.full_space_oracle(p, qsim.embed_collective(coll), t)
    assert abs(1 - abs(via_full.overlap(via_coll))) < 1e-8


@pytest.mark.parametrize("n", [1, 4, 9])
def test_collective_enhancement_scales_as_sqrt_n(n):
    coupling = 0.7
    p = qsim.TransferParams(n_nuclei=n, coupling=coupling)
    state = qsim.embed_collective(qsim.collective_state(1.0, 0.0, n))
    expected_g = math.sqrt(n) * coupling
    t_probe = 0.25 * math.pi / (2 * expected_g)
    evolved = qsim.full_space_oracle(p, state, t_probe)
    prob_up = float(sum(abs(a) ** 2 for i, a in enumerate(evolved.amps)
                        if i >> n == 1))
    fitted_g = math.asin(math.sqrt(1.0 - prob_up)) / t_probe
    assert fitted_g == pytest.approx(expected_g, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_embed_collective_equals_dicke_reference(n):
    rng = np.random.default_rng(40 + n)
    amps = rng.normal(size=2 * (n + 1)) + 1j * rng.normal(size=2 * (n + 1))
    state = qsim.PureState(amps / np.linalg.norm(amps), n)
    assert np.array_equal(qsim.embed_collective(state).amps,
                          embed_collective_reference(state))


@pytest.mark.parametrize("n", range(1, 10))
def test_full_space_hamiltonian_equals_loop_reference(n):
    p = qsim.TransferParams(n_nuclei=n, coupling=1.3)
    H = qsim.build_full_space_hamiltonian(p)
    assert np.array_equal(H, full_space_hamiltonian_reference(p))
    ups = up_spin_count(n + 1)
    assert np.array_equal(H * ups[None, :], ups[:, None] * H)


@pytest.mark.parametrize("n", range(1, 10))
def test_hamiltonians_are_real_symmetric(n):
    # every coupling is real, so eigh can take the real-symmetric driver
    p = qsim.TransferParams(n_nuclei=n, coupling=1.3)
    for H in (qsim.build_flipflop_hamiltonian(p),
              qsim.build_full_space_hamiltonian(p)):
        assert H.dtype == np.float64
        assert np.array_equal(H, H.T)


@pytest.mark.parametrize("n", range(1, 11))
def test_partner_table_action_equals_dense_hamiltonian(n):
    rng = np.random.default_rng(200 + n)
    p = qsim.TransferParams(n_nuclei=n, coupling=1.3)
    psi = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
    got = qsim._flipflop_action(p, qsim._flipflop_partners(p), psi)
    want = qsim.build_full_space_hamiltonian(p) @ psi
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


#: N |coupling t| at which the Taylor steps are checked: a tiny step, a
#: short one, one step just below and at the largest step norm 3, and two
#: steps just above it.
STEP_NORMS = (1e-6, 0.5, 2.999, 3.0, 3.001)


@pytest.mark.parametrize("n", range(1, 10))
def test_block_evolution_equals_dense_propagator(n):
    rng = np.random.default_rng(100 + n)
    p = qsim.TransferParams(n_nuclei=n, coupling=1.9)
    amps = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
    amps /= np.linalg.norm(amps)
    state = qsim.PureState(amps, n, "full")
    times = (0.0, 0.37, 2.9, *(x / (n * p.coupling) for x in STEP_NORMS))
    for t, expected in zip(times,
                           full_space_evolution_reference(p, amps, times)):
        evolved = qsim.full_space_oracle(p, state, t)
        assert np.max(np.abs(evolved.amps - expected)) < 1e-12


def test_taylor_order_is_sized_to_the_step_norm():
    assert qsim._taylor_order(qsim._TAYLOR_STEP_NORM) == 27
    norms = sorted({*np.linspace(0.0, 3.0, 301), 1e-6, 1e-17}, reverse=True)
    orders = [qsim._taylor_order(x) for x in norms]
    assert all(a >= b for a, b in zip(orders, orders[1:]))
    assert orders[-1] == 1
    assert qsim._taylor_order(0.5) == 14


@pytest.mark.parametrize("norm,terms", [(0.0, 0), (0.5, 14), (3.0, 27),
                                        (7.5, 3 * 25)])
def test_full_space_oracle_sums_steps_times_order_terms(monkeypatch, norm,
                                                        terms):
    # N |coupling t| = 7.5 takes three steps of norm 2.5, 25 terms each
    p = qsim.TransferParams(n_nuclei=5, coupling=1.9)
    state = qsim.embed_collective(qsim.collective_state(0.6, 0.8, 5))
    calls = []
    action = qsim._flipflop_action

    def counting(*args):
        calls.append(args)
        return action(*args)

    monkeypatch.setattr(qsim, "_flipflop_action", counting)
    qsim.full_space_oracle(p, state, norm / (5 * p.coupling))
    assert len(calls) == terms


def test_full_space_oracle_builds_no_dense_matrix():
    # the dense 2**10-square float64 Hamiltonian alone is 8 MB
    p = qsim.TransferParams(n_nuclei=9, coupling=2.0e6)
    state = qsim.embed_collective(qsim.collective_state(0.6, 0.8, 9))
    t = 0.9 * math.pi / (2.0 * p.rabi_rate)
    qsim.full_space_oracle(p, state, t)
    tracemalloc.start()
    try:
        qsim.full_space_oracle(p, state, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_full_space_size_guard():
    too_big = qsim.TransferParams(n_nuclei=11, coupling=1.0)
    with pytest.raises(ValueError, match="full space"):
        qsim.build_full_space_hamiltonian(too_big)
    state = qsim.embed_collective(qsim.collective_state(1.0, 0.0, 11))
    with pytest.raises(ValueError, match="full space"):
        qsim.full_space_oracle(too_big, state, 0.1)


@pytest.mark.parametrize("entry,mirror,hermitian", [
    (0.99e-9, 0.0, True), (1.01e-9, 0.0, False),
    (1e-9, 0.0, True), (math.nextafter(1e-9, 1.0), 0.0, False),
    (0.3 + 2.9e-6, 0.3, True), (0.3 + 3.1e-6, 0.3, False),
    (0.25j, -0.25j, True), (0.25j, 0.25j, False),
    (math.nan, 0.0, False)])
def test_hermiticity_check_accepts_what_allclose_accepts(entry, mirror,
                                                         hermitian):
    mat = np.array([[0.5, entry], [mirror, 0.5]], dtype=complex)
    assert np.allclose(mat, mat.conj().T, atol=1e-9) == hermitian
    if hermitian:
        qsim.DensityMatrix(mat, 1)
    else:
        with pytest.raises(ValueError, match="Hermitian"):
            qsim.DensityMatrix(mat, 1)


def test_pure_state_must_be_normalized():
    with pytest.raises(ValueError, match="normalized"):
        qsim.PureState(np.array([1.0, 1.0, 0, 0, 0, 0, 0, 0]), 3, "collective")


# ------------------------------------------------------------ register / CZ

def test_cz_truth_table_exact():
    for a in (0, 1):
        for b in (0, 1):
            amps = np.zeros(4, dtype=complex)
            amps[2 * a + b] = 1.0
            rho = qsim.DensityMatrix.from_pure(amps)
            out = noisy_cz_reference(rho, 0, 1, F_gate=1.0)
            assert np.array_equal(out.mat, rho.mat)  # phase invisible on basis states
    sign = qsim.CZ_GATE[3, 3]
    assert sign == -1.0


def test_cz_phase_kickback():
    plus_up = np.array([0, 1, 0, 1], dtype=complex) / math.sqrt(2)
    out = qsim.DensityMatrix.from_pure(plus_up).apply_kraus([qsim.CZ_GATE],
                                                            [0, 1])
    kicked = np.array([0, 1, 0, -1], dtype=complex) / math.sqrt(2)
    assert np.allclose(out.mat, np.outer(kicked, kicked.conj()), atol=1e-12)


@pytest.mark.parametrize("n_a, n_b", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_tensor_is_bit_identical_to_kron(n_a, n_b):
    rng = np.random.default_rng(10 * n_a + n_b)
    a = random_density_matrix(rng, n_a)
    b = random_density_matrix(rng, n_b)
    joint = a.tensor(b)
    assert joint.n_qubits == n_a + n_b
    assert joint.mat.shape == (2**(n_a + n_b),) * 2
    assert joint.mat.tobytes() == np.kron(a.mat, b.mat).tobytes()


def test_cz_rejects_same_qubit():
    rho = qsim.werner_pair(1.0)
    with pytest.raises(ValueError, match="distinct"):
        noisy_cz_reference(rho, 1, 1)


def test_noisy_cz_preserves_trace_and_positivity():
    rho = qsim.werner_pair(0.97).tensor(qsim.werner_pair(0.9))
    out = noisy_cz_reference(rho, 1, 2, F_gate=0.95)
    assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(out.mat).min() > -1e-10


def test_bell_fidelity_basics():
    psi = qsim.werner_pair(1.0)
    assert qsim.bell_fidelity(psi) == pytest.approx(1.0, abs=1e-12)
    mixed = qsim.DensityMatrix(np.eye(4) / 4, 2)
    assert qsim.bell_fidelity(mixed) == pytest.approx(0.25, abs=1e-12)


def test_werner_closed_form():
    for w in (0.0, 0.3, 0.9):
        f = w + (1 - w) / 4
        pair = qsim.werner_pair(f)
        assert qsim.bell_fidelity(pair) == pytest.approx(f, rel=1e-12)


TARGETS = [[2, 0], [0, 2], [1], [3], [3, 1], [1, 3, 0]]


@pytest.mark.parametrize("n_qubits", [4, 5])
@pytest.mark.parametrize("targets", TARGETS)
def test_apply_unitary_and_kraus_equal_embedded_operators(n_qubits, targets):
    rng = np.random.default_rng(7 * n_qubits + len(targets))
    rho = random_density_matrix(rng, n_qubits)
    k = len(targets)
    op = random_operator(rng, k)
    U = embed_reference(op, targets, n_qubits)
    out = rho.apply_kraus([op], targets)
    assert np.max(np.abs(out.mat - U @ rho.mat @ U.conj().T)) < 1e-12

    ops = [random_operator(rng, k) for _ in range(3)]
    expected = sum(embed_reference(K, targets, n_qubits) @ rho.mat
                   @ embed_reference(K, targets, n_qubits).conj().T
                   for K in ops)
    out = rho.apply_kraus(ops, targets)
    assert np.max(np.abs(out.mat - expected)) < 1e-12


@pytest.mark.parametrize("fused", [False, True], ids=["depolarizing",
                                                     "swap-channel"])
def test_kraus_superoperator_matches_einsum_build(fused):
    # the CZ's depolarizing set at F_gate 0.99, alone and fused with the
    # swap's unitary as swap_branches applies it
    kraus = two_qubit_depolarizing_kraus(0.99)
    if fused:
        kraus = kraus @ (np.kron(qsim.HADAMARD, qsim.HADAMARD) @ qsim.CZ_GATE
                         @ np.kron(qsim.HADAMARD, qsim.PAULI_I))
    rho = random_density_matrix(np.random.default_rng(3), 4)
    out = rho.apply_kraus(kraus, [1, 2])
    expected = kraus_by_einsum_superoperator(rho, kraus, [1, 2])
    assert np.max(np.abs(out.mat - expected)) < 1e-15


def test_channels_reject_repeated_targets():
    rho = qsim.werner_pair(0.9).tensor(qsim.werner_pair(0.9))
    with pytest.raises(ValueError, match="distinct"):
        rho.apply_kraus([qsim.CZ_GATE], [1, 1])


# ------------------------------------------------------------ swapping

def test_ideal_swap_fidelity_one_on_every_branch():
    pair = qsim.werner_pair(1.0)
    branches = qsim.swap_branches(pair.tensor(pair), 1.0, 1.0)
    assert len(branches) == 4
    records = set()
    for prob, record, dm in branches:
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert qsim.bell_fidelity(dm) == pytest.approx(1.0, abs=1e-10)
        records.add(record)
    assert records == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("F_gate,F_readout", [
    (0.97, 0.95), (0.99, 1.0), (1.0, 1.0), (1.0, 0.999), (0.99, 0.999),
    (0.9, 1.0), (0.9, 0.999)])
def test_swap_branches_equal_projector_mask_reference(F_gate, F_readout):
    # the fused channel against the gate-by-gate circuit, branch by branch
    for seed in (11, 12, 13):
        rho = random_density_matrix(np.random.default_rng(seed), 4)
        got = qsim.swap_branches(rho, F_gate, F_readout)
        want = swap_branches_reference(rho, F_gate, F_readout)
        assert len(got) == (16 if F_readout < 1 else 4)
        assert [r for _, r, _ in got] == [r for _, r, _ in want]
        for (p, _, dm), (p_ref, _, mat_ref) in zip(got, want):
            assert abs(p - p_ref) < 1e-14
            assert np.max(np.abs(dm.mat - mat_ref)) < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rho=density_matrices(4), pair_a=density_matrices(2),
       pair_b=density_matrices(2), F_gate=st.floats(0.2, 1.0),
       F_readout=st.floats(0.0, 1.0))
def test_swap_equals_gate_by_gate_reference_on_drawn_states(
        rho, pair_a, pair_b, F_gate, F_readout):
    got = qsim.swap_branches(rho, F_gate, F_readout)
    want = swap_branches_reference(rho, F_gate, F_readout)
    assert [r for _, r, _ in got] == [r for _, r, _ in want]
    for (p, _, dm), (p_ref, _, mat_ref) in zip(got, want):
        assert abs(p - p_ref) < 1e-14
        assert np.max(np.abs(p * dm.mat - p_ref * mat_ref)) < 1e-14
    averaged = qsim.averaged_swap(pair_a, pair_b, F_gate, F_readout)
    want = swap_branches_reference(pair_a.tensor(pair_b), F_gate, F_readout)
    assert np.max(np.abs(averaged.mat
                         - sum(p * mat for p, _, mat in want))) < 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,value,inside", [
    ("F_gate", 0.2, True), ("F_gate", math.nextafter(0.2, 0.0), False),
    ("F_gate", 1.0, True), ("F_gate", math.nextafter(1.0, 2.0), False),
    ("F_gate", math.nan, False),
    ("F_readout", 0.0, True), ("F_readout", math.nextafter(0.0, -1.0), False),
    ("F_readout", 1.0, True), ("F_readout", math.nextafter(1.0, 2.0), False),
    ("F_readout", math.nan, False)])
def test_swap_refuses_fidelities_outside_their_domain(name, value, inside):
    # F_gate < 0.2 would weigh a Pauli channel negatively; any F_readout
    # outside [0, 1] is no flip probability
    pair = qsim.werner_pair(0.9)
    fids = {"F_gate": 0.99, "F_readout": 0.999, name: value}
    calls = (lambda: qsim.swap_branches(pair.tensor(pair), **fids),
             lambda: qsim.averaged_swap(pair, pair, **fids),
             lambda: qsim.chain_fidelity_oracle(2, 0.99, 0.99, **fids,
                                                F_e_init=1.0))
    for call in calls:
        if inside:
            call()
        else:
            with pytest.raises(ValueError, match=name):
                call()
    if inside:
        out = qsim.averaged_swap(pair, pair, **fids)
        assert np.linalg.eigvalsh(out.mat).min() > -1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fidelity,inside", [
    (0.0, True), (1.0, True), (math.nextafter(0.0, -1.0), False),
    (math.nextafter(1.0, 2.0), False), (math.nan, False)])
def test_werner_pair_refuses_fidelities_outside_zero_one(fidelity, inside):
    if inside:
        pair = qsim.werner_pair(fidelity)
        assert qsim.bell_fidelity(pair) == pytest.approx(fidelity, abs=1e-15)
        assert np.linalg.eigvalsh(pair.mat).min() > -1e-15
    else:
        with pytest.raises(ValueError, match="fidelity"):
            qsim.werner_pair(fidelity)


FIDELITY_BOUNDS = [
    *[(name, value, inside) for name in ("F_ent", "F_transfer", "F_readout",
                                         "F_e_init")
      for value, inside in ((0.0, True), (math.nextafter(0.0, -1.0), False),
                            (1.0, True), (math.nextafter(1.0, 2.0), False),
                            (math.nan, False))],
    ("F_gate", 0.2, True), ("F_gate", math.nextafter(0.2, 0.0), False),
    ("F_gate", 1.0, True), ("F_gate", math.nextafter(1.0, 2.0), False),
    ("F_gate", math.nan, False)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("name,value,inside", FIDELITY_BOUNDS)
def test_chain_oracle_refuses_each_fidelity_outside_its_domain(l, name, value,
                                                              inside):
    # at l = 1 no swap runs, and the Werner pair sees only the product of
    # the link's three fidelities, so the oracle checks each one itself
    fids = {"F_ent": 0.99, "F_transfer": 0.99, "F_gate": 0.99,
            "F_readout": 0.999, "F_e_init": 1.0, name: value}
    if inside:
        assert -1e-15 <= qsim.chain_fidelity_oracle(l, **fids) <= 1.0 + 1e-15
    else:
        with pytest.raises(ValueError, match=name):
            qsim.chain_fidelity_oracle(l, **fids)


@pytest.mark.filterwarnings("error")
def test_collective_state_refuses_zero_amplitudes():
    for alpha, beta in ((0.0, 0.0), (0j, 1e-300)):   # 1e-300 squares to 0
        with pytest.raises(ValueError, match="alpha = .*, beta = .* zero norm"):
            qsim.collective_state(alpha, beta, 3)
    small = qsim.collective_state(0.0, 1e-150, 3)
    assert small.amps[qsim.collective_index(0, 0, 3)] == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(math.nan, 0.0), complex(0.0, math.inf)])
@pytest.mark.parametrize("side", ["alpha", "beta"])
def test_collective_state_refuses_non_finite_amplitudes(bad, side):
    alpha, beta = (bad, 0.6) if side == "alpha" else (0.6, bad)
    with pytest.raises(ValueError, match="alpha = .*, beta = .* no finite norm"):
        qsim.collective_state(alpha, beta, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 0.0), math.inf])
def test_pure_state_refuses_non_finite_amplitudes(bad):
    amps = np.zeros(8, dtype=complex)
    amps[0] = bad
    with pytest.raises(ValueError, match="normalized"):
        qsim.PureState(amps, 3)


def test_swap_constants_are_built_on_the_first_swap_only():
    # building them costs about 0.3 MB of peak RSS, which the commands that
    # never swap would pay at import
    script = (
        "import contextlib, io\n"
        "from qdrepeater import cli, qsim\n"
        "caches = (qsim._swap_rows, qsim._pauli_products)\n"
        "sizes = [[c.cache_info().currsize for c in caches]]\n"
        "for argv in (['rates'], ['contour'], ['mc']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    sizes.append([c.cache_info().currsize for c in caches])\n"
        "pair = qsim.werner_pair(0.9)\n"
        "qsim.swap_branches(pair.tensor(pair), 0.99, 0.999)\n"
        "sizes.append([c.cache_info().currsize for c in caches])\n"
        "print(sizes)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str([[0, 0]] * 4 + [[1, 1]])


def test_swap_on_product_input_gives_no_entanglement():
    down = np.zeros(4, dtype=complex)
    down[0] = 1.0
    product = qsim.DensityMatrix.from_pure(down)
    branches = qsim.swap_branches(product.tensor(product), 1.0, 1.0)
    for _, _, dm in branches:
        assert qsim.bell_fidelity(dm) <= 0.5 + 1e-10
    # D2 always reads 0, so both m2 = 1 outcomes have zero weight and are
    # skipped; D3 reads 0 or 1 with equal probability
    assert [r for _, r, _ in branches] == [(0, 0), (0, 1)]
    assert [p for p, _, _ in branches] == pytest.approx([0.5, 0.5], abs=1e-15)


def test_noisy_swap_matches_depolarizing_algebra():
    for f1, f2, fg, fro in ((1.0, 1.0, 0.995, 1.0),
                            (0.98, 0.95, 0.99, 1.0),
                            (0.98, 0.98, 0.995, 0.9998),
                            (0.9, 0.8, 0.97, 0.99)):
        out = qsim.averaged_swap(qsim.werner_pair(f1), qsim.werner_pair(f2),
                                 fg, fro)
        assert qsim.bell_fidelity(out) == pytest.approx(
            swap_fidelity_closed_form(f1, f2, fg, fro), abs=1e-12)


def test_ideal_inputs_noisy_gate_output_equals_gate_fidelity():
    # spec'd closed form: perfect pairs + depolarizing CZ -> F_out = F_gate
    out = qsim.averaged_swap(qsim.werner_pair(1.0), qsim.werner_pair(1.0),
                             0.995, 1.0)
    assert qsim.bell_fidelity(out) == pytest.approx(0.995, abs=1e-12)


def test_unitary_evolution_preserves_norm():
    p = qsim.TransferParams(n_nuclei=7, coupling=2.9)
    state = qsim.collective_state(0.3 + 0.4j, math.sqrt(0.75), 7)
    for t in (0.1, 1.7, 42.0):
        evolved = qsim.evolve_transfer(state, p, t)
        assert abs(np.linalg.norm(evolved.amps) - 1.0) < 1e-12


# ------------------------------------------------------------ chain oracle

def test_chain_oracle_perfect_components():
    for l in (1, 2, 4):
        assert qsim.chain_fidelity_oracle(l, 1.0, 1.0, 1.0, 1.0, 1.0) == \
            pytest.approx(1.0, abs=1e-10)


def test_chain_oracle_single_link_passthrough():
    f = qsim.chain_fidelity_oracle(1, 0.995, 0.993, 0.5, 0.5, 0.99996)
    assert f == pytest.approx(0.99996**2 * 0.995 * 0.993**2, rel=1e-12)


def test_chain_oracle_two_links_matches_closed_form():
    comp = dict(F_ent=0.995, F_transfer=0.993, F_gate=0.995,
                F_readout=0.99983, F_e_init=0.99996)
    pair = comp["F_e_init"] ** 2 * comp["F_ent"] * comp["F_transfer"] ** 2
    expected = swap_fidelity_closed_form(pair, pair, comp["F_gate"],
                                         comp["F_readout"])
    assert qsim.chain_fidelity_oracle(2, **comp) == pytest.approx(expected,
                                                                  abs=1e-12)


@pytest.mark.parametrize("l,n", [(2, 1), (4, 2)])
def test_chain_oracle_close_to_product_formula(l, n):
    comp = dict(F_ent=0.995, F_transfer=0.993, F_gate=0.995,
                F_readout=0.99983, F_e_init=0.99996)
    oracle = qsim.chain_fidelity_oracle(l, **comp)
    formula = (comp["F_e_init"] ** (2 * l)
               * comp["F_readout"] ** (2 * (l - 1))
               * (comp["F_ent"] * comp["F_transfer"] ** 2) ** l
               * comp["F_gate"] ** (l - 1))
    assert abs(oracle - formula) <= 0.02


def test_chain_oracle_rejects_unsupported_lengths():
    with pytest.raises(ValueError):
        qsim.chain_fidelity_oracle(3, 1, 1, 1, 1, 1)


@pytest.mark.parametrize("l", [0, 6])
def test_chain_oracle_rejects_lengths_that_are_not_powers_of_two(l):
    with pytest.raises(ValueError, match="power-of-two"):
        qsim.chain_fidelity_oracle(l, 1, 1, 1, 1, 1)


def test_chain_oracle_eight_links_matches_werner_closed_form():
    # Werner pairs through a depolarizing swap with exact readout stay Werner:
    # w_out = (1 - p_gate) * w_a * w_b, so after 7 swaps of 8 pairs
    # w = (1 - p_gate)**7 * w0**8.  (Readout errors break the Werner form.)
    comp = dict(F_ent=0.995, F_transfer=0.993, F_gate=0.995,
                F_readout=1.0, F_e_init=0.99996)
    pair = comp["F_e_init"] ** 2 * comp["F_ent"] * comp["F_transfer"] ** 2
    w0 = (4 * pair - 1) / 3
    p_gate = 4 * (1 - comp["F_gate"]) / 3
    w = (1 - p_gate) ** 7 * w0**8
    assert qsim.chain_fidelity_oracle(8, **comp) == pytest.approx(
        (1 + 3 * w) / 4, abs=1e-12)


def _chain_by_pairs(l, F_ent, F_transfer, F_gate, F_readout, F_e_init):
    """Reference chain: l Werner pairs, swapped pairwise level by level
    (l - 1 swaps in all)."""
    level = [qsim.werner_pair(F_e_init**2 * F_ent * F_transfer**2)
             for _ in range(l)]
    while len(level) > 1:
        level = [qsim.averaged_swap(level[i], level[i + 1], F_gate, F_readout)
                 for i in range(0, len(level), 2)]
    return qsim.bell_fidelity(level[0])


def test_chain_oracle_equals_pairwise_reduction_bit_for_bit():
    # every pair on a level is the same state, so one swap per level suffices
    rng = np.random.default_rng(20)
    names = ("F_ent", "F_transfer", "F_gate", "F_readout", "F_e_init")
    for _ in range(20):
        values = rng.uniform(0.6, 1.0, len(names))
        values[rng.random(len(names)) < 0.2] = 1.0
        comp = dict(zip(names, values.tolist()))
        for l in (1, 2, 4, 8, 16):
            assert (qsim.chain_fidelity_oracle(l, **comp)
                    == _chain_by_pairs(l, **comp)), (l, comp)


# ------------------------------------------------------------ invariants

def test_swap_branch_probabilities_sum_to_one():
    joint = qsim.werner_pair(0.95).tensor(qsim.werner_pair(0.9))
    branches = qsim.swap_branches(joint, 0.99, 0.999)
    assert len(branches) == 16
    assert sum(p for p, _, _ in branches) == pytest.approx(1.0, abs=1e-10)
    for _, _, dm in branches:
        assert np.linalg.eigvalsh(dm.mat).min() > -1e-10
