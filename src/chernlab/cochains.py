"""Operator-valued bar cochains: evaluation, graded product, codifferential.

A cochain is an arity-indexed family of multilinear maps on bar words
with values in matrices on a fixed Hilbert space.  Slots are passed as
coefficient vectors over the algebra basis; basis words are converted
on the fly.  The product carries the Koszul sign (-1)^{|l2| n_k} and the
codifferential is delta = -(d + b')^dual.
"""

from __future__ import annotations

import numpy as np

from .algebra import DgAlgebra
from .chains import BAR, BAR_RED, Chain, _prefix_parities, bar_differential_terms


class CochainError(ValueError):
    pass


def slot_degree(alg: DgAlgebra, vec) -> int:
    """Degree of a homogeneous coefficient vector."""
    nz = np.nonzero(np.asarray(vec) != 0)[0]  # a NaN counts
    degs = {int(alg.degree[i]) for i in nz}
    if len(degs) > 1:
        raise CochainError("slot is not homogeneous")
    return degs.pop() if degs else 0


def word_to_vecs(alg: DgAlgebra, word):
    """Basis word (tuple of indices) to one-hot coefficient vectors."""
    eye = np.eye(alg.dim, dtype=complex)
    return tuple(eye[i] for i in word)


class OperatorBarCochain:
    """Arity-indexed operator-valued multilinear maps on bar words."""

    def __init__(self, alg: DgAlgebra, hdim: int, parity: int, component_fn, max_arity=None, label=""):
        self.alg = alg
        self.hdim = int(hdim)
        self.parity = int(parity) % 2
        self._component_fn = component_fn  # (slots: tuple of vecs) -> matrix or None
        self.max_arity = max_arity
        self.label = label

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_arity_maps(cls, alg, hdim, parity, maps: dict, label=""):
        """maps: arity -> matrix (arity 0) or callable(*vecs) -> matrix."""
        max_arity = max(maps) if maps else 0

        def component(slots):
            entry = maps.get(len(slots))
            if entry is None:
                return None
            if len(slots) == 0:
                return entry
            return entry(*slots)

        return cls(alg, hdim, parity, component, max_arity=max_arity, label=label)

    @classmethod
    def unit(cls, alg, hdim, label="unit"):
        return cls.from_arity_maps(alg, hdim, 0, {0: np.eye(hdim, dtype=complex)}, label=label)

    # -- evaluation ----------------------------------------------------------

    def eval_slots(self, slots):
        if self.max_arity is not None and len(slots) > self.max_arity:
            return np.zeros((self.hdim, self.hdim), dtype=complex)
        out = self._component_fn(tuple(np.asarray(v, dtype=complex) for v in slots))
        if out is None:
            return np.zeros((self.hdim, self.hdim), dtype=complex)
        return out

    def eval_word(self, word):
        return self.eval_slots(word_to_vecs(self.alg, word))

    def eval_chain(self, chain: Chain):
        if chain.kind not in (BAR, BAR_RED):
            raise CochainError("cochains evaluate on bar chains")
        return self.eval_terms(chain.terms)

    def eval_terms(self, terms):  # a {bar word: coeff} mapping, summed in its order
        out = np.zeros((self.hdim, self.hdim), dtype=complex)
        for word, coeff in terms.items():
            out += coeff * self.eval_word(word)
        return out

    # -- algebra --------------------------------------------------------------

    def __mul__(self, other: "OperatorBarCochain") -> "OperatorBarCochain":
        if self.hdim != other.hdim:
            raise CochainError("cochains act on different Hilbert spaces")
        if self.alg is not other.alg:
            raise CochainError("cochains live over different algebras")
        l1, l2 = self, other

        def component(slots):
            N = len(slots)
            n = _prefix_parities([slot_degree(l1.alg, v) for v in slots])  # n_k
            out = np.zeros((l1.hdim, l1.hdim), dtype=complex)
            for k in range(N + 1):
                if l1.max_arity is not None and k > l1.max_arity:
                    continue
                if l2.max_arity is not None and N - k > l2.max_arity:
                    continue
                a = l1.eval_slots(slots[:k])
                b = l2.eval_slots(slots[k:])
                sign = (-1.0) ** ((l2.parity * n[k]) % 2)
                out += sign * (a @ b)
            return out

        max_arity = None
        if self.max_arity is not None and other.max_arity is not None:
            max_arity = self.max_arity + other.max_arity
        return OperatorBarCochain(self.alg, self.hdim, (self.parity + other.parity) % 2,
                                  component, max_arity=max_arity,
                                  label=f"({self.label})*({other.label})")

    def __add__(self, other):
        def component(slots):
            return self.eval_slots(slots) + other.eval_slots(slots)

        max_arity = None
        if self.max_arity is not None and other.max_arity is not None:
            max_arity = max(self.max_arity, other.max_arity)
        if self.parity != other.parity:
            raise CochainError("cannot add cochains of different parity")
        return OperatorBarCochain(self.alg, self.hdim, self.parity, component, max_arity=max_arity,
                                  label=f"({self.label})+({other.label})")

    def scale(self, scalar):
        scalar = complex(scalar)

        def component(slots):
            return scalar * self.eval_slots(slots)

        return OperatorBarCochain(self.alg, self.hdim, self.parity, component,
                                  max_arity=self.max_arity, label=f"{scalar}*({self.label})")

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def supercommutator(self, other) -> "OperatorBarCochain":
        sign = (-1.0) ** (self.parity * other.parity)
        return self * other - (other * self).scale(sign)


def delta(l: OperatorBarCochain) -> OperatorBarCochain:
    """Codifferential -(d + b')^dual on bar chains; raises the parity by one."""

    def component(slots):
        # slots are coefficient vectors; expand to basis words, apply d + b'
        sign = -((-1.0) ** l.parity)
        return sign * l.eval_terms(bar_differential_terms(l.alg, BAR, slots))

    max_arity = None if l.max_arity is None else l.max_arity + 1
    return OperatorBarCochain(l.alg, l.hdim, (l.parity + 1) % 2, component,
                              max_arity=max_arity, label=f"delta({l.label})")


def dual_eval(l, X, c, x_parity=None):
    """(X^dual l)(c) = (-1)^{|X||l|} l(X c) for a chain operator X.

    l: anything with declared parity and an eval on chains (an
    OperatorBarCochain or a cyclic cochain); X: callable on chains.
    """
    lp = l.parity
    if lp is None or x_parity is None:
        raise CochainError("dual_eval needs declared parities for both arguments")
    sign = (-1.0) ** ((lp * x_parity) % 2)
    return sign * l.eval_chain(X(c))
