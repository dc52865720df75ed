"""Brute-force circuit-level oracles.

Every closed-form heralded operator in :mod:`nlasim.nla` has an independent
realisation here: explicit beam-splitter unitaries sandwiched between ancilla
preparations and detector projections on small multimode Fock spaces, plus a
direct multinomial enumeration for the parallel photon-catalysis amplifier.
These are deliberately slow and literal; the test suite freezes their output
against the fast closed forms.

Circuit conventions
-------------------
Beam splitters are ``exp[theta (x^dag y - x y^dag)]`` with
``cos(theta) = sqrt(T)`` for the ordered pair (x, y), reused from
:func:`nlasim.fock.beam_splitter_unitary`.  For the quantum-scissors circuit
the port pairing and angle are fixed so that the heralded operator carries
positive coefficients on both |0><0| and |1><1|; the alternate detector
pattern then comes out with a global phase of -1, which is physically
irrelevant for a heralded state.

States are occupation-number dictionaries ``{(n_1, ..., n_k): amplitude}``
over a fixed mode ordering.  Each circuit returns its heralded operator as a
matrix ``op``: ``op[m, n]`` is the amplitude for input |n> to herald output
|m> on the surviving mode (or supermode basis, where noted).
"""

from __future__ import annotations

import math

import numpy as np

from .fock import beam_splitter_unitary


def _apply_pair_unitary(state, x: int, y: int, bs: tuple):
    """Beam-splitter action on modes (x, y) of an occupation-dict state."""
    out: dict = {}
    for occ, amp in state.items():
        s = occ[x] + occ[y]
        col = bs[s][:, occ[y]]
        for j in range(s + 1):
            c = col[j]
            if c == 0.0:
                continue
            new = list(occ)
            new[x] = s - j
            new[y] = j
            key = tuple(new)
            out[key] = out.get(key, 0.0) + amp * c
    return out


def nsplitter_unitary(n_paths: int) -> np.ndarray:
    """Symmetric N-port splitter matrix with first row and column 1/sqrt(N).

    Pinned deterministically as the Householder reflection exchanging e_1
    with the uniform unit vector; it is real, symmetric, and its own inverse.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if n_paths == 1:
        return np.ones((1, 1))
    w = np.full(n_paths, 1.0 / math.sqrt(n_paths))
    v = -w.copy()
    v[0] += 1.0
    u = np.eye(n_paths) - 2.0 * np.outer(v, v) / (v @ v)
    return u


def qs_circuit_operator(t1: float, t2: float, n_max: int,
                        detect: str = "a") -> np.ndarray:
    """Single-mode quantum-scissors operator, built from the full circuit.

    Signal enters mode a, a single-photon ancilla enters mode b, mode c
    starts in vacuum; two beam splitters (t2 on the ancilla pair, t1 on the
    detection pair) are followed by the herald.  ``detect='a'`` projects on
    one photon in a and vacuum in c; ``detect='c'`` on the swapped pattern.
    """
    if detect not in ("a", "c"):
        raise ValueError("detect must be 'a' or 'c'")
    dim = n_max + 1
    bs2 = beam_splitter_unitary(1.0 - t2, n_max + 1)
    bs1 = beam_splitter_unitary(1.0 - t1, n_max + 1)
    op = np.zeros((dim, dim))
    for n in range(dim):
        state = {(n, 1, 0): 1.0}
        state = _apply_pair_unitary(state, 1, 2, bs2)   # ancilla pair (b, c)
        state = _apply_pair_unitary(state, 2, 0, bs1)   # detection pair (c, a)
        for m in range(dim):
            if detect == "a":
                op[m, n] = state.get((1, m, 0), 0.0)
            else:
                op[m, n] = state.get((0, m, 1), 0.0)
    return op


def pc_circuit_operator(transmissivity: float, n_max: int) -> np.ndarray:
    """Single-mode photon-catalysis operator from the one-beam-splitter circuit.

    Signal in mode a meets a single-photon ancilla in mode b; the herald is
    exactly one photon back in mode b.
    """
    dim = n_max + 1
    bs = beam_splitter_unitary(transmissivity, n_max + 1)
    op = np.zeros((dim, dim))
    for n in range(dim):
        state = {(n, 1): 1.0}
        state = _apply_pair_unitary(state, 0, 1, bs)
        for m in range(dim):
            op[m, n] = state.get((m, 1), 0.0)
    return op


def multimode_qs_operator(t1: float, t2: float, gammas) -> np.ndarray:
    """Two-frequency-bin quantum-scissors operator in the supermode basis.

    ``gammas = (g1, g2)`` are the supermode weights shared by the ancilla
    photon and the detector projection.  The circuit runs on six modes
    (two bins for each of the signal, ancilla and detection beams) with
    frequency-independent beam splitters.

    Returns the heralded operator restricted to the basis
    {|0>, |1 in supermode>, |1 in orthogonal supermode>} on both sides as a
    3x3 matrix; all elements touching the orthogonal supermode should vanish.
    """
    g = np.asarray(gammas, dtype=complex)
    if g.shape != (2,):
        raise ValueError("gammas must have exactly two components")
    nrm = np.linalg.norm(g)
    if nrm == 0:
        raise ValueError("gammas must not both vanish")
    g = g / nrm
    g_perp = np.array([-np.conj(g[1]), np.conj(g[0])])

    # mode order: a1 a2 b1 b2 c1 c2
    bs2 = beam_splitter_unitary(1.0 - t2, 2)
    bs1 = beam_splitter_unitary(1.0 - t1, 2)

    def evolve(a_occupation_state):
        # tensor the ancilla supermode photon (on b bins) onto the signal
        state: dict = {}
        for occ_a, amp_a in a_occupation_state.items():
            for m in range(2):
                b = [0, 0]
                b[m] = 1
                state[occ_a + tuple(b) + (0, 0)] = amp_a * g[m]
        for m in range(2):
            state = _apply_pair_unitary(state, 2 + m, 4 + m, bs2)  # (b_m, c_m)
        for m in range(2):
            state = _apply_pair_unitary(state, 4 + m, m, bs1)      # (c_m, a_m)
        return state

    def herald(state):
        # <1 photon in the detection supermode on beam A| <vacuum on beam C|
        out: dict = {}
        for occ, amp in state.items():
            if occ[4] or occ[5]:
                continue
            a_occ, b_occ = occ[0:2], occ[2:4]
            if sum(a_occ) != 1:
                continue
            m = 0 if a_occ == (1, 0) else 1
            out[b_occ] = out.get(b_occ, 0.0) + np.conj(g[m]) * amp
        return out

    def overlap(weights, b_state):
        return sum(np.conj(weights[m]) * b_state.get((1 - m, m), 0.0)
                   for m in range(2))

    inputs = [
        {(0, 0): 1.0},                       # vacuum
        {(1, 0): g[0], (0, 1): g[1]},        # photon in the supermode
        {(1, 0): g_perp[0], (0, 1): g_perp[1]},  # orthogonal supermode
    ]
    op = np.zeros((3, 3), dtype=complex)
    for col, a_state in enumerate(inputs):
        b_state = herald(evolve(a_state))
        op[0, col] = b_state.get((0, 0), 0.0)
        op[1, col] = overlap(g, b_state)
        op[2, col] = overlap(g_perp, b_state)
    return op


def _compositions(total: int, parts: int):
    """All ordered occupation tuples of ``parts`` modes summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def pc_nla_multinomial(n_units: int, transmissivity: float, n: int) -> float:
    """Parallel photon-catalysis coefficient by explicit path enumeration.

    Splits |n> evenly over N paths, applies the single-catalysis response
    (1 - n_i (1-T)/T) sqrt(T)^(n_i) on each path and recombines on the
    conjugate splitter, post-selecting vacuum on the N-1 idle output ports.
    """
    t = transmissivity
    if not 0.0 < t < 1.0:
        raise ValueError("transmissivity must lie strictly in (0, 1)")
    ratio = (1.0 - t) / t
    total = 0.0
    for occ in _compositions(n, n_units):
        mult = math.factorial(n)
        for ni in occ:
            mult //= math.factorial(ni)
        term = float(mult)
        for ni in occ:
            term *= (1.0 - ni * ratio) * math.sqrt(t) ** ni
        total += term
    return math.sqrt(t) ** n_units * total / n_units ** n


def qs_nla_splitter_circuit(n_units: int, transmissivity: float,
                            n_max: int) -> np.ndarray:
    """N-fold quantum-scissors amplifier from the full splitter circuit.

    Input |n> is fanned out over N paths by the symmetric splitter, each path
    passes the brute-force single-scissors circuit (balanced first splitter),
    and the conjugate N-splitter recombines with vacuum post-selected on the
    N - 1 idle ports.  Each scissors unit contributes a factor 1/sqrt(2)
    relative to the bare two-level closed form, so the result carries an
    overall 2^(-N/2) convention factor.
    """
    if n_units < 1:
        raise ValueError("need at least one scissors unit")
    dim = n_max + 1
    u = nsplitter_unitary(n_units)
    unit = qs_circuit_operator(0.5, transmissivity, n_max)
    # second splitter is the inverse arrangement; u is its own inverse
    u2 = u
    op = np.zeros((dim, dim))
    for n in range(dim):
        # fan-out: input port 1 Fock |n> -> sum over path occupations
        state: dict = {}
        for occ in _compositions(n, n_units):
            coeff = math.sqrt(math.factorial(n))
            for j, nj in enumerate(occ):
                coeff *= u[j, 0] ** nj / math.sqrt(math.factorial(nj))
            state[occ] = coeff
        # one scissors unit per path
        for path in range(n_units):
            new: dict = {}
            for occ, amp in state.items():
                for m in range(dim):
                    c = unit[m, occ[path]]
                    if c == 0.0:
                        continue
                    key = occ[:path] + (m,) + occ[path + 1:]
                    new[key] = new.get(key, 0.0) + amp * c
            state = new
        # recombination amplitude onto |m> on port 1, vacuum elsewhere
        for occ, amp in state.items():
            m = sum(occ)
            if m > n_max:
                continue
            coeff = math.sqrt(math.factorial(m))
            for j, nj in enumerate(occ):
                coeff *= u2[0, j] ** nj / math.sqrt(math.factorial(nj))
            op[m, n] += amp * coeff
    return op
