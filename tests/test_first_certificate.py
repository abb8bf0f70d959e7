"""Interval-arithmetic certificates of the solver's "first", sharing no code with it.

Each system is drawn in its eigenbasis, levels lam_a and state rho, and handed
to the solver in a random basis.  The certificate works on the model
s(t) = c_0 + sum_k c_k cos(g_k t) over the positive gaps g_k = lam_b - lam_a,
with c_k the summed 2 |rho_ab|^2 of the pairs at that gap, in ``mpmath.iv``
interval arithmetic.  A box X = [lo, hi] with midpoint m is bounded by the
centred (mean-value) form f(m) + f'(X) (X - m) (Moore, Kearfott & Cloud,
*Introduction to Interval Analysis*, SIAM 2009), and boxes whose bound does not
settle the claim are bisected.

- Found: s > ortho_tol on [0, a] and s' < 0 on [a, t_perp - eps], where a is
  where s falls to 2 ortho_tol in the reported valley: no earlier valley
  reaches the tolerance, and the reported one descends into t_perp.
- NotFound: s >= min_overlap - 1e-13 s(0) on [0, horizon].
"""

import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qslsim import (DensityMatrix, Hamiltonian, PureState, SearchOptions, SubsystemLayout,
                    first_orthogonal_time, ground_shift)
from conftest import random_unitary

iv = mpmath.iv
#: Bisections allowed per proof before the certificate counts as failed.
BOX_BUDGET = 4000


def draw_system(seed: int, dim: int, rank: int, commensurate: bool):
    """Levels, eigenbasis density matrix and (pure) eigenbasis amplitudes.

    Commensurate: integer levels and uniform superpositions of k consecutive
    ones (two disjoint blocks of equal size for rank 2), whose survival first
    vanishes at 2 pi / k.  Otherwise levels uniform in [0, 3) and random
    states.  ``rank`` 0 is a pure state; 1 and 2 are density matrices.
    """
    rng = np.random.default_rng(seed)
    vecs = []
    if commensurate:
        levels = np.arange(dim, dtype=float)
        blocks = 2 if rank == 2 else 1
        k = int(rng.integers(2, dim // blocks + 1))
        start = int(rng.integers(0, dim - blocks * k + 1))
        for b in range(blocks):
            vec = np.zeros(dim, dtype=complex)
            vec[start + b * k:start + (b + 1) * k] = np.exp(2j * np.pi * rng.random(k))
            vecs.append(vec / math.sqrt(k))
    else:
        levels = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 3.0, dim - 1))))
        for _ in range(max(rank, 1)):
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vecs.append(vec / np.linalg.norm(vec))
    p = float(rng.uniform(0.2, 0.8))
    probs = [1.0] if len(vecs) == 1 else [p, 1.0 - p]
    rho = sum(q * np.outer(v, v.conj()) for q, v in zip(probs, vecs))
    return levels, rho, vecs[0], rng


def as_solver_input(levels, rho, amplitudes, rank, rng):
    dim = levels.size
    layout = SubsystemLayout((dim,))
    u = random_unitary(rng, dim)
    h = ground_shift(Hamiltonian(layout, (u * levels) @ u.conj().T))
    if rank == 0:
        return PureState(layout, u @ amplitudes), h
    mat = u @ rho @ u.conj().T
    return DensityMatrix(layout, 0.5 * (mat + mat.conj().T)), h


class Model:
    """s(t) = c0 + sum_k c_k cos(g_k t) and its derivatives, in intervals."""

    def __init__(self, levels, rho):
        coeffs = np.abs(rho) ** 2
        terms: dict[float, float] = {}
        c0 = float(np.trace(coeffs))
        for a in range(levels.size):
            for b in range(a + 1, levels.size):
                gap = float(levels[b] - levels[a])
                terms[gap] = terms.get(gap, 0.0) + 2.0 * float(coeffs[a, b])
        self.c0 = iv.mpf(c0)
        self.gaps = [iv.mpf(g) for g, c in terms.items() if c > 0.0]
        # the amplitude of each term of the 0th, 1st and 2nd derivative
        weights = [iv.mpf(c) for c in terms.values() if c > 0.0]
        self.amplitudes = [[(-1) ** ((order + 1) // 2) * c * g ** order
                            for g, c in zip(self.gaps, weights)] for order in range(3)]
        self.scale = c0 + sum(terms.values())
        # s >= c0 - sum_k c_k at every t: the exact minimum when one gap carries all terms
        self.floor = (self.c0 - sum(weights, iv.mpf(0))).a

    def derivative(self, order: int, t):
        """The ``order``-th derivative of s (order <= 2) over the interval ``t``."""
        trig = iv.cos if order % 2 == 0 else iv.sin
        total = self.c0 if order == 0 else iv.mpf(0)
        for g, c in zip(self.gaps, self.amplitudes[order]):
            total += c * trig(g * t)
        return total

    def centred(self, order: int, lo: float, hi: float):
        """The centred form of the ``order``-th derivative on [lo, hi]."""
        box, mid = iv.mpf([lo, hi]), iv.mpf(0.5 * (lo + hi))
        return self.derivative(order, mid) + self.derivative(order + 1, box) * (box - mid)

    def lower(self, lo: float, hi: float):
        """A lower bound on s over [lo, hi]: the lower end value where s' keeps
        one sign there (the monotonicity test), else the centred form, and
        never below the floor c0 - sum_k c_k."""
        box, mid = iv.mpf([lo, hi]), iv.mpf(0.5 * (lo + hi))
        slope = self.derivative(1, box)
        if slope.a > 0 or slope.b < 0:
            return max(self.floor, self.derivative(0, iv.mpf(lo if slope.a > 0 else hi)).a)
        return max(self.floor, (self.derivative(0, mid) + slope * (box - mid)).a)

    def point(self, t: float) -> float:
        return float(self.derivative(0, iv.mpf(t)).mid)


def proved(bound, lo: float, hi: float, goal: float) -> bool:
    """Whether ``bound(a, b) > goal`` on boxes that cover [lo, hi]."""
    stack, boxes = [(lo, hi)], 0
    while stack:
        a, b = stack.pop()
        boxes += 1
        if bound(a, b) > goal:
            continue
        mid = 0.5 * (a + b)
        if boxes > BOX_BUDGET or not a < mid < b:
            return False
        stack += [(mid, b), (a, mid)]
    return True


def valley_entry(model: Model, t_perp: float, level: float) -> float:
    """A time left of t_perp where s has risen just above ``level``, by doubling
    the step back from t_perp and then bisecting."""
    step = 1e-9 * max(t_perp, 1.0)
    while model.point(t_perp - step) <= level:
        step *= 2.0
        assert step < t_perp, "the reported valley reaches back to t = 0"
    lo, hi = t_perp - step, t_perp - step / 2.0  # s(lo) > level >= s(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if model.point(mid) > level:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=5, deadline=None)  # a NotFound proof takes 0.1-0.6 s
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    rank=st.sampled_from([0, 1, 2]),
    commensurate=st.booleans(),
)
@example(seed=3, dim=6, rank=2, commensurate=True)
@example(seed=4, dim=5, rank=0, commensurate=True)
@example(seed=5, dim=4, rank=0, commensurate=False)
@example(seed=101, dim=3, rank=2, commensurate=False)
@example(seed=1251, dim=2, rank=0, commensurate=False)  # 200 equal valleys to the horizon
def test_first_is_certified(seed, dim, rank, commensurate):
    if rank == 2 and commensurate and dim < 4:
        dim = 4
    levels, rho, amplitudes, rng = draw_system(seed, dim, rank, commensurate)
    state, h = as_solver_input(levels, rho, amplitudes, rank, rng)
    opts = SearchOptions()
    result = first_orthogonal_time(state, h, opts)
    model = Model(levels, rho)
    if result.found:
        tol, t_perp = opts.ortho_tol, result.t_perp
        assert model.point(t_perp) <= tol
        entry = valley_entry(model, t_perp, 2.0 * tol)
        eps = 1e-3 * (t_perp - entry)
        assert proved(model.lower, 0.0, entry, tol)
        descent = lambda lo, hi: -model.centred(1, lo, hi).b  # a lower bound on -s'
        assert proved(descent, entry, t_perp - eps, 0.0)
    else:
        assert result.horizon > 0.0
        assert proved(model.lower, 0.0, result.horizon,
                      result.min_overlap - 1e-13 * model.scale)
