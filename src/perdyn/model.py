"""Linear second-order system definitions and builders.

Covers the problem data M u'' + C u' + K u = f(t) with initial state
(u0, v0): discrete spring-mass chains, an Euler-Bernoulli cantilever
beam discretized with cubic Hermite elements, modal analysis, and a
scalar damping-level metric.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import cholesky, eigh

from .linalg import spd_solver, spectral_radius

ForceFunction = Callable[[float], np.ndarray]

_SYM_RTOL = 1e-12
_PSD_RTOL = 1e-10


def _check_finite_symmetric(mat, name):
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} matrix must be finite")
    if np.array_equal(mat, mat.T):  # exactly symmetric: no deviation to measure
        return
    dev = np.abs(mat - mat.T).max()
    scale = max(np.abs(mat).max(), 1.0)
    if dev > _SYM_RTOL * scale:
        raise ValueError(f"{name} matrix is not symmetric (deviation {dev:.3e})")


def _check_definite(mat, name):
    """Reject ``mat`` unless mat + floor I has a Cholesky factor (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 10): the mass with no floor,
    positive definite to roundoff, whose factor is returned as M^-1, and C or K
    with floor = _PSD_RTOL max(|X|max, 1), no eigenvalue below -floor."""
    kind = "definite" if name == "mass" else "semidefinite"
    try:
        if name == "mass":
            return spd_solver(mat)
        shifted = mat.copy()
        shifted.flat[::len(mat) + 1] += _PSD_RTOL * max(np.abs(mat).max(), 1.0)
        cholesky(shifted, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} matrix must be positive {kind}") from None


def _as_square(mat, name):
    arr = np.array(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} matrix must be square, got shape {arr.shape}")
    return arr


def _checked(n, **fields):
    """``fields`` (of mass, damping, stiffness, u0, v0) as read-only float arrays of
    order n (None: the mass's), checked as SystemModel requires, a mass with its
    solve_mass; a state of None is zero."""
    mats = {name: _as_square(fields[name], name)
            for name in ("mass", "damping", "stiffness") if name in fields}
    n = mats["mass"].shape[0] if n is None else n
    if any(mat.shape[0] != n for mat in mats.values()):
        raise ValueError("mass, damping and stiffness dimensions disagree")
    for check in (_check_finite_symmetric, _check_definite):  # solvers: the last check's
        solvers = {f"solve_{name}": check(mat, name) for name, mat in mats.items()}
    states = {name: np.zeros(n) if fields[name] is None else np.array(fields[name], dtype=float)
              for name in ("u0", "v0") if name in fields}
    if any(arr.shape != (n,) for arr in states.values()):
        raise ValueError("initial state dimensions disagree with the matrices")
    for arr in (*mats.values(), *states.values()):
        arr.setflags(write=False)
    return {**mats, **states, **{key: s for key, s in solvers.items() if s is not None}}


@dataclass(frozen=True)
class SystemModel:
    """A linear structural system: mass, damping and stiffness matrices,
    the external force function and the initial state.

    mass must be finite, symmetric positive definite; damping and stiffness
    finite, symmetric positive semidefinite.  ``force`` maps time (s) to an
    N-vector of nodal forces (N); None means no external forcing.  Any other
    load makes every method and the RK4 reference raise ValueError("the
    load is not one of N dofs"): a built-in load before any O(N^3) work,
    any other callable when they sample it.  The arrays are read-only; a
    model made by a with_* method shares those it keeps and checks only
    what it replaces.  ``solve_mass`` is M^-1 by the Cholesky factor of the
    mass's check; every method reads it, so perdyn factorizes M once per
    model.  LAPACK factorizes it again inside eigh(K, M), which
    modal_analysis and omega_max (of dt_bound, dt_max and the RK4 reference)
    solve.  modal_analysis gives the undamped frequencies (rad/s) and
    mass-normalized mode shapes.
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    force: ForceFunction | None = None
    u0: np.ndarray = None
    v0: np.ndarray = None
    solve_mass: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.__dict__.update(_checked(None, mass=self.mass, damping=self.damping,
                                      stiffness=self.stiffness, u0=self.u0, v0=self.v0))

    @property
    def n_dof(self) -> int:
        return self.mass.shape[0]

    def force_at(self, t: float) -> np.ndarray:
        return _load_sampler(self)[2](np.array([t], dtype=float))[0]

    def with_damping(self, damping) -> "SystemModel":
        """Same system with the damping matrix replaced."""
        return self._derive(**_checked(self.n_dof, damping=damping))

    def with_initial_state(self, u0, v0) -> "SystemModel":
        return self._derive(**_checked(self.n_dof, u0=u0, v0=v0))

    def with_force(self, force: ForceFunction | None) -> "SystemModel":
        return self._derive(force=force)

    def _derive(self, **changes) -> "SystemModel":
        """This model with the checked ``changes``, sharing every other field."""
        new = copy(self)
        new.__dict__.update(changes)
        return new


@dataclass(frozen=True)
class ModalData:
    """Undamped modal quantities: frequencies (rad/s, ascending) and
    mass-normalized mode shapes (columns)."""

    frequencies: np.ndarray
    mode_shapes: np.ndarray

    @property
    def min_period(self) -> float:
        """Shortest natural period 2*pi/omega_max (s)."""
        w_max = self.frequencies[-1]
        if w_max <= 0.0:
            raise ValueError("model has no positive natural frequency")
        return 2.0 * np.pi / w_max


@dataclass(frozen=True)
class StateVector:
    displacement: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        if len(self.displacement) != len(self.velocity):
            raise ValueError("displacement and velocity lengths differ")


DamperSpec = Iterable[tuple[int, int | None, float]]


def _check_positive(**values):
    """Reject the first of the builder's ``values`` that is not finite and positive."""
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def build_chain(n_dof: int, mass_coeff: float, stiffness_coeff: float,
                damper_spec: DamperSpec = ()) -> SystemModel:
    """Fixed-base spring-mass chain.

    Every mass is ``mass_coeff`` kg; each of the n_dof springs has
    stiffness ``stiffness_coeff`` N/m, the first one anchoring mass 0 to
    ground.  ``damper_spec`` entries are (i, j, c): a viscous damper of
    coefficient c between dofs i and j, or from dof i to ground when j
    is None.
    """
    if n_dof < 1:
        raise ValueError("n_dof must be >= 1")
    _check_positive(mass_coeff=mass_coeff, stiffness_coeff=stiffness_coeff)
    mass = mass_coeff * np.eye(n_dof)
    stiff = np.zeros((n_dof, n_dof))
    for i in range(n_dof):
        stiff[i, i] += stiffness_coeff          # spring below mass i
        if i + 1 < n_dof:
            stiff[i, i] += stiffness_coeff
            stiff[i, i + 1] -= stiffness_coeff
            stiff[i + 1, i] -= stiffness_coeff
    damp = np.zeros((n_dof, n_dof))
    for i, j, c in damper_spec:
        if c < 0.0:
            raise ValueError(f"damper coefficient must be >= 0, got {c}")
        if not 0 <= i < n_dof:
            raise ValueError(f"damper dof {i} out of range")
        if j is None:
            damp[i, i] += c
        else:
            if not 0 <= j < n_dof:
                raise ValueError(f"damper dof {j} out of range")
            damp[i, i] += c
            damp[j, j] += c
            damp[i, j] -= c
            damp[j, i] -= c
    return SystemModel(mass, damp, stiff)


# Damper layout of the 12-dof benchmark chain: a mix of ground and
# inter-mass dampers so the damping matrix is non-proportional.
_CHAIN_GROUND_DAMPERS = (0, 3, 7, 11)
_CHAIN_PAIR_DAMPERS = ((1, 2), (5, 6), (9, 10))


def benchmark_chain(zeta: float, n_dof: int = 12, mass_coeff: float = 1.0,
                    stiffness_coeff: float = 100.0) -> SystemModel:
    """The toolkit's standard lumped-mass benchmark chain.

    All dampers carry the coefficient 2*sqrt(K*M)*zeta, placed on ground
    connections at masses {0, 3, 7, 11} and between mass pairs
    {(1,2), (5,6), (9,10)} (indices clipped to the chain size), giving a
    non-proportional damping matrix that scales linearly with zeta.
    """
    spec: list[tuple[int, int | None, float]] = []
    c = 2.0 * np.sqrt(stiffness_coeff * mass_coeff) * zeta
    for i in _CHAIN_GROUND_DAMPERS:
        if i < n_dof:
            spec.append((i, None, c))
    for i, j in _CHAIN_PAIR_DAMPERS:
        if j < n_dof:
            spec.append((i, j, c))
    return build_chain(n_dof, mass_coeff, stiffness_coeff, spec)


def beam_element_matrices(el_length: float, bending_stiffness: float,
                          mass_per_length: float):
    """4x4 cubic-Hermite element stiffness and consistent mass matrices.

    Dof order per element: (w_i, theta_i, w_j, theta_j).
    """
    h = el_length
    k = bending_stiffness / h**3 * np.array([
        [12.0, 6.0 * h, -12.0, 6.0 * h],
        [6.0 * h, 4.0 * h**2, -6.0 * h, 2.0 * h**2],
        [-12.0, -6.0 * h, 12.0, -6.0 * h],
        [6.0 * h, 2.0 * h**2, -6.0 * h, 4.0 * h**2],
    ])
    m = mass_per_length * h / 420.0 * np.array([
        [156.0, 22.0 * h, 54.0, -13.0 * h],
        [22.0 * h, 4.0 * h**2, 13.0 * h, -3.0 * h**2],
        [54.0, 13.0 * h, 156.0, -22.0 * h],
        [-13.0 * h, -3.0 * h**2, -22.0 * h, 4.0 * h**2],
    ])
    return k, m


def beam_matrices(length: float, bending_stiffness: float, total_mass: float,
                  n_elements: int):
    """Assembled free-free beam matrices (no constraints applied).

    Returns (mass, stiffness) of size 2*(n_elements+1); dof i*2 is the
    transverse deflection of node i, dof i*2+1 its rotation.
    """
    if n_elements < 1:
        raise ValueError("n_elements must be >= 1")
    h = length / n_elements
    rho_a = total_mass / length
    ke, me = beam_element_matrices(h, bending_stiffness, rho_a)
    n_nodes = n_elements + 1
    size = 2 * n_nodes
    stiff = np.zeros((size, size))
    mass = np.zeros((size, size))
    for e in range(n_elements):
        sl = slice(2 * e, 2 * e + 4)
        stiff[sl, sl] += ke
        mass[sl, sl] += me
    return mass, stiff


def build_beam(length: float, bending_stiffness: float, total_mass: float,
               n_elements: int,
               supports: Sequence[tuple[int, float, float]] = (),
               point_loads: Sequence[tuple[int, float, Callable[[float], float]]] = ()
               ) -> SystemModel:
    """Cantilever Euler-Bernoulli beam clamped at node 0.

    Free dofs: deflection + rotation at nodes 1..n_elements, so
    N = 2*n_elements.  ``supports`` entries are (node, spring N/m,
    damper N*s/m) acting on the node's deflection dof; ``point_loads``
    entries are (node, direction, force(t)) with direction a sign
    multiplier (+1 along positive deflection) applied to the deflection
    dof.  length, bending_stiffness and total_mass must be finite and
    positive.
    """
    _check_positive(length=length, bending_stiffness=bending_stiffness, total_mass=total_mass)
    mass_full, stiff_full = beam_matrices(length, bending_stiffness,
                                          total_mass, n_elements)
    free = slice(2, None)  # clamp node 0 (deflection + rotation)
    mass = mass_full[free, free].copy()
    stiff = stiff_full[free, free].copy()
    n = mass.shape[0]
    if n == 0:
        raise ValueError("model is fully constrained")
    damp = np.zeros((n, n))

    def deflection_dof(node):
        if not 1 <= node <= n_elements:
            raise ValueError(f"node {node} out of range (1..{n_elements})")
        return 2 * (node - 1)

    for node, spring, damper in supports:
        i = deflection_dof(node)
        if spring < 0.0 or damper < 0.0:
            raise ValueError("support coefficients must be >= 0")
        stiff[i, i] += spring
        damp[i, i] += damper

    loads = [(deflection_dof(node), float(direction), fn)
             for node, direction, fn in point_loads]
    force = None
    if loads:
        dofs = sorted({dof for dof, _, _ in loads})
        terms = [(dofs.index(dof), sign, fn) for dof, sign, fn in loads]

        def cols(times):
            out = np.zeros((len(times), len(dofs)))
            for col, sign, fn in terms:
                out[:, col] += sign * _force_rows(fn, times)
            return out
        force = _from_support(n, dofs, cols)

    return SystemModel(mass, damp, stiff, force=force)


def benchmark_beam(zeta_a: float = 0.5, zeta_b: float = 0.5,
                   n_elements: int = 24, length: float = 3.0,
                   bending_stiffness: float = 437.5e3,
                   total_mass: float = 235.5,
                   t_c: float = 0.01, f0: float = 1.0e3) -> SystemModel:
    """Cantilever benchmark beam with two sprung/damped supports and a
    step force at the free end.

    Supports sit at the interior third-point nodes with stiffness
    20*EI/l^3 and 10*EI/l^3; damper coefficients are 2*m0*w_r*zeta with
    the reference frequency w_r = sqrt(EI/(m0*l^3)).  The step load
    (0 for t < t_c, f0 after) acts downward at the tip.  length,
    bending_stiffness and total_mass must be finite and positive.
    """
    _check_positive(length=length, bending_stiffness=bending_stiffness, total_mass=total_mass)
    ei = bending_stiffness
    w_r = np.sqrt(ei / (total_mass * length**3))
    k_a = 20.0 * ei / length**3
    k_b = 10.0 * ei / length**3
    c_a = 2.0 * total_mass * w_r * zeta_a
    c_b = 2.0 * total_mass * w_r * zeta_b
    node_a = max(1, round(n_elements / 3))
    node_b = max(1, round(2 * n_elements / 3))
    step = step_function(t_c, f0)
    return build_beam(length, ei, total_mass, n_elements,
                      supports=[(node_a, k_a, c_a), (node_b, k_b, c_b)],
                      point_loads=[(n_elements, -1.0, step)])


def modal_analysis(model: SystemModel) -> ModalData:
    """Solve K phi = w^2 M phi; mass-normalized modes, ascending frequencies."""
    vals, vecs = eigh(model.stiffness, model.mass)
    freqs = np.sqrt(np.clip(vals, 0.0, None))
    return ModalData(frequencies=freqs, mode_shapes=vecs)


def _spectral_extremes(model: SystemModel) -> tuple[float, float]:
    """(omega_max, rho(M^-1 C)) from the eigenvalues of the pencil (K, M) and of
    the block [s, s] of M^-1 C, s the damped dofs, which holds all its nonzero
    eigenvalues.  Never raises: omega_max is 0 for a model without stiffness,
    and each caller decides what that means."""
    stiff_vals = eigh(model.stiffness, model.mass, eigvals_only=True)
    s = np.flatnonzero((model.damping != 0.0).any(axis=0))
    return (float(np.sqrt(max(stiff_vals.max(), 0.0))),
            spectral_radius(model.solve_mass(model.damping[:, s])[s]))


def damping_level(model: SystemModel) -> float:
    """Dimensionless damping measure rho(M^-1 C) / rho(sqrt(M^-1 K))."""
    w_max, rho_c = _spectral_extremes(model)
    if w_max == 0.0:
        raise ValueError("stiffness matrix is identically zero")
    return rho_c / w_max


# ---------------------------------------------------------------------------
# Force builders shared by the library, the tests and the CLI config loader.
#
# Each built-in load is written once, as its private array form ``_rows``: an
# array of times to one value (or row) per time.  Its public scalar call is the
# same form at one time, so the two agree bit for bit.  A load of a model
# carries ``_support`` and ``_n_dof`` too: the sorted dofs S it touches with
# the form times -> f_S(t), which ``_rows`` scatters into ``_n_dof`` zeros.
# No other module reads them: every integrator samples through _load_sampler.

def _load_sampler(model: SystemModel):
    """(E_S, cols, rows) of the model's load: the identity's columns on its dofs S,
    times -> f_S(t) and times -> f(t), one row per time.  A built-in load keeps
    its own support, any other callable covers every dof at one call per time,
    and an unforced model has no dofs, no cols and rows of zeros.  A load not of
    N dofs raises: a built-in one here, any other callable when it is sampled."""
    force, n = model.force, model.n_dof
    if force is None:
        return np.zeros((n, 0)), None, lambda times: np.zeros((len(times), n))
    if getattr(force, "_n_dof", n) != n:
        raise ValueError(f"the load is not one of {n} dofs")

    def rows(times):
        out = _force_rows(force, times)
        if out.shape != (len(times), n):
            raise ValueError(f"the load is not one of {n} dofs")
        return out
    dofs, cols = getattr(force, "_support", (list(range(n)), rows))
    return (np.arange(n)[:, None] == np.asarray(dofs)).astype(float), cols, rows


def _force_rows(fn: Callable, times: np.ndarray) -> np.ndarray:
    """``fn`` at each time of the 1-D array ``times``, one row (or value) per
    time: the array form of a built-in load, one call per time otherwise."""
    rows = getattr(fn, "_rows", None)
    if rows is None:
        return np.array([fn(t) for t in times.tolist()], dtype=float)
    return rows(times)


def _from_rows(rows: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """The load t -> rows([t])[0] of the array form ``rows``, which it
    carries as ``_rows``."""
    def load(t):
        return rows(np.array([t], dtype=float))[0]
    load._rows = rows
    return load


def _from_support(n_dof: int, dofs: Sequence[int], cols: Callable) -> Callable:
    """The load of ``n_dof`` dofs that is ``cols(times)`` on the sorted dofs
    ``dofs`` and zero elsewhere, with (dofs, cols) as ``_support``."""
    def rows(times):
        out = np.zeros((len(times), n_dof))
        out[:, dofs] = cols(times)
        return out
    load = _from_rows(rows)
    load._support = (dofs, cols)
    load._n_dof = n_dof
    return load


def step_function(t_c: float, f0: float) -> Callable[[float], float]:
    """Scalar step: 0 for t < t_c, f0 for t >= t_c."""
    return _from_rows(lambda times: np.where(times >= t_c, f0, 0.0))


def constant_step_force(n_dof: int, dof: int, t_c: float, f0: float) -> ForceFunction:
    """Step force f0 applied at a single dof from time t_c on."""
    if not 0 <= dof < n_dof:
        raise ValueError(f"force dof {dof} out of range")
    return _from_support(n_dof, [dof], lambda times: np.where(times >= t_c, f0, 0.0)[:, None])


def gaussian_multiharmonic_force(n_dof: int, dof: int, t0: float, s: float,
                                 components: Sequence[tuple[float, float]]) -> ForceFunction:
    """Sum of harmonics weighted by a Gaussian envelope at a single dof:

        exp(-(t - t0)^2 / (2 s^2)) * sum_i a_i sin(w_i t)
    """
    if not 0 <= dof < n_dof:
        raise ValueError(f"force dof {dof} out of range")
    if s <= 0.0:
        raise ValueError("Gaussian width s must be positive")
    comps = tuple((float(a), float(w)) for a, w in components)

    def cols(times):
        # float_power is libm pow per element; the array ``** 2`` is a
        # multiply, which moves some samples by an ulp and every output with them
        env = np.exp(-np.float_power(times - t0, np.full(len(times), 2.0)) / (2.0 * s * s))
        return (env * sum(a * np.sin(w * times) for a, w in comps))[:, None]
    return _from_support(n_dof, [dof], cols)
